"""sevreg benchmark: one command per workload, one JSON result line.

    python3 bench/run.py --workload coarse_default --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run repeats untraced passes (fresh set-up, timed CLI
commands, output check) for ``--seconds`` and reports the end-to-end
metrics. With ``--trace 1`` it runs one untraced pass, then two traced
passes with every traced function wrapped at its call sites, restores the
wrappers, replays the op table and reports the per-layer metrics. The last
stdout line is the JSON result; the lines before it are the readable report.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Metric name -> unit. BENCHMARK.json lists the same names; selftest.py
# checks that the two agree.
END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "test_srcc": "srcc",
    "peak_rss_mb": "MB",
}

# Set-ups timed at the start of an untraced run on top of the one per pass.
# A pass takes 10-15 s, so a 40 s run has only three or four of its own.
EXTRA_SETUPS = 5


def per_layer_units() -> dict[str, str]:
    from ops import OP_NAMES
    from tracer import TRACED, TRACED_NAMES

    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for layer in dict.fromkeys(m for m, _ in TRACED):
        units[f"layer.{layer}.self_s"] = "s"
    units["pipeline.train_regression.stage1_fits"] = "count"
    units["nn.forward_batch.rows"] = "count"
    units["contrastive.ntxent_loss.active_anchor_ratio"] = "ratio"
    units["contrastive.positive_pairs.mean_positives"] = "count"
    units.update({name: "us" for name in OP_NAMES})
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def bootstrap() -> None:
    """Make ``src/`` importable and cap BLAS threads before numpy loads."""
    if not (SRC / "sevreg" / "__init__.py").is_file():
        raise SystemExit(f"error: no sevreg package under {SRC}")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc()))
    os.environ.pop("SEVREG_RUN_ROOT", None)
    sys.path.insert(0, str(SRC))


def openblas() -> tuple[str, int | None]:
    """(config string, thread count) of the OpenBLAS numpy loaded."""
    import numpy  # noqa: F401  (loads the library)

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        # numpy's wheels bundle scipy-openblas; a system OpenBLAS has no prefix.
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return get_config().decode(), int(get_threads())
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return "unknown", int(env) if env else None


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    config, threads = openblas()
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "openblas": config,
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class PassRecord:
    setup_s: float | None = None
    pass_s: float | None = None
    output: object = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_pass(workload, cfg, argv_cfg, phase=lambda name: None) -> PassRecord:
    """Timed set-up, timed CLI commands, then the output check, all in the
    current directory."""
    rec = PassRecord()
    try:
        phase("setup")
        start = time.perf_counter()
        workload.setup(argv_cfg)
        rec.setup_s = time.perf_counter() - start
        phase("pass")
        start = time.perf_counter()
        workload.timed(argv_cfg)
        rec.pass_s = time.perf_counter() - start
        phase("check")
        rec.output = workload.check(cfg)
    except Exception as exc:  # a failed pass is counted, not fatal
        rec.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return rec


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1 - p / 100) >= 10:
            return f"p{p:g}={statistics.quantiles(samples, n=1000)[int(p * 10) - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


def describe(name: str, unit: str, samples: list[float]) -> str:
    return (f"{name} = {statistics.median(samples):.6g} {unit} "
            f"(median of n={len(samples)}; {tail(samples)})")


class Run:
    """One benchmark invocation: a workload, a seed, and its records."""

    def __init__(self, workload_name: str, seed: int, extra: list[str] = ()):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.argv_cfg = self.workload.overrides(seed, extra)
        self.cfg = self.workload.config(seed, extra)
        self.n_train = self.workload.train_size(self.cfg)
        self.records: list[PassRecord] = []
        self.lines: list[str] = []
        self.problems: list[str] = []
        self.workdir = Path.cwd()

    def attempt(self, phase=lambda name: None) -> PassRecord:
        # Each pass gets a new, empty directory, so no artifact of an earlier
        # pass can serve it. Nothing is deleted, not even after the run: on
        # an ext4 mount with online discard (2-core Xeon VM), files created
        # in the minutes after a deletion of some thousand files cost up to
        # 25x more kernel time (0.02 -> 0.5 ms per file), so set-up times
        # followed earlier deletions rather than the program.
        passdir = self.workdir / f"pass-{len(self.records)}"
        passdir.mkdir()
        os.chdir(passdir)
        rec = run_pass(self.workload, self.cfg, self.argv_cfg, phase)
        first = next((r for r in self.records if r.ok), None)
        if rec.ok and first is not None and rec.output.digests != first.output.digests:
            rec.error = (f"digests differ from the first pass with seed {self.seed}: "
                         f"{rec.output.digests} vs {first.output.digests}")
        self.records.append(rec)
        return rec

    @property
    def good(self) -> list[PassRecord]:
        return [r for r in self.records if r.ok]

    def result(self, metrics: dict) -> dict:
        failed = sum(not r.ok for r in self.records)
        for i, r in enumerate(self.records):
            if not r.ok:
                self.lines.append(f"pass {i} FAILED: {r.error}")
        self.lines.append(f"error_rate = {failed / max(1, len(self.records)):.6g} "
                          f"({failed} of {len(self.records)} passes failed)")
        for problem in self.problems:
            self.lines.append(f"CHECK FAILED: {problem}")
        return {
            "correct": failed == 0 and not self.problems and bool(self.good),
            "attempted": len(self.records),
            "failed": failed,
            "metrics": metrics,
        }

    # -- untraced run --------------------------------------------------------

    def extra_setups(self, n: int) -> list[float]:
        """Time `n` set-ups that no pass uses, each in a new, empty
        directory, so setup_s is a median of more samples than passes."""
        times = []
        for i in range(n):
            setupdir = self.workdir / f"setup-{i}"
            setupdir.mkdir()
            os.chdir(setupdir)
            try:
                start = time.perf_counter()
                self.workload.setup(self.argv_cfg)
                times.append(time.perf_counter() - start)
            except Exception as exc:
                self.problems.append(f"extra set-up {i} failed: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        return times

    def measure(self, seconds: float) -> dict:
        start = time.perf_counter()
        extra_setup_s = self.extra_setups(EXTRA_SETUPS)
        while not self.records or time.perf_counter() - start < seconds:
            self.attempt()
        good = self.good
        if not good:
            return self.result({})
        samples = self.workload.items(self.cfg, self.n_train)
        pass_s = [r.pass_s for r in good]
        setup_s = extra_setup_s + [r.setup_s for r in self.records if r.setup_s is not None]
        quality = good[0].output.quality
        values = {
            "pass_s": statistics.median(pass_s),
            "setup_s": statistics.median(setup_s),
            "train_samples_per_s": samples / statistics.median(pass_s),
            "test_srcc": quality["test_srcc"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        self.lines += [
            "pass_s per pass: " + " ".join(f"{s:.4g}" for s in pass_s),
            describe("pass_s", "s", pass_s),
            f"setup_s per set-up ({EXTRA_SETUPS} extra, then one per pass): "
            + " ".join(f"{s:.4g}" for s in setup_s),
            describe("setup_s", "s", setup_s),
            f"train_samples_per_s = {values['train_samples_per_s']:.6g} 1/s "
            f"({samples} nominal training samples per pass / median pass_s)",
            f"test_srcc = {quality['test_srcc']:.6g} srcc",
            f"shifted_srcc = {quality['shifted_srcc']:.6g} srcc (reported, not bounded)",
            f"flagged_srcc_rows = {quality['flagged_srcc_rows']} (results.csv rows whose "
            "SRCC the program flags as undefined; skipped by the medians)",
            f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB",
            f"digests = {json.dumps(good[0].output.digests, sort_keys=True)}",
        ]
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        return self.result(metrics)

    # -- traced run ----------------------------------------------------------

    def trace(self, traced_passes: int = 2) -> dict:
        from ops import SHAPES, op_table
        from tracer import Tracer

        untraced = self.attempt()
        tracer = Tracer()
        tracer.install()
        # Pass ids of the set-up and timed phases of each traced pass; the
        # output check runs under a third id and is left out.
        cycles = [(f"{k}.setup", f"{k}.pass") for k in range(traced_passes)]
        try:
            for k in range(traced_passes):
                self.attempt(lambda name, k=k: tracer.begin(f"{k}.{name}"))
        finally:
            tracer.remove()
        leftover = tracer.leftover_wrappers()
        if leftover:
            self.problems.append(f"wrappers not restored: {leftover}")
        self.lines.append(f"tracer wrapped {tracer.call_sites} call sites; restored: "
                          f"{'yes' if not leftover else 'NO'}")

        # Counters and calls of every cycle must repeat exactly.
        per_cycle = []
        for ids in cycles:
            calls = {n: t["calls"] for n, t in tracer.totals(ids).items()}
            per_cycle.append((calls, dict(tracer.counts_for(ids))))
        if any(c != per_cycle[0] for c in per_cycle[1:]):
            self.problems.append("traced calls or counters differ between traced passes")

        # attempt() fails a traced pass whose digests differ from the
        # untraced one, so tracing that changed any output shows here.
        if len(self.good) != len(self.records):
            return self.result({})
        self.check_counts_across_runs(per_cycle[0])

        metrics = self.layer_metrics(tracer, cycles)
        traced_s = statistics.median(r.pass_s for r in self.records[1:])
        metrics["trace.overhead_s"] = traced_s - untraced.pass_s
        self.lines.append(
            f"trace.overhead_s = {metrics['trace.overhead_s']:.6g} s "
            f"(traced pass_s {traced_s:.6g} s - untraced {untraced.pass_s:.6g} s, "
            f"{100 * metrics['trace.overhead_s'] / untraced.pass_s:.3g} %)")

        by_size: dict[int, list[int]] = {}
        for key, n in tracer.counts_for(set().union(*cycles)).items():
            if isinstance(key, tuple) and key[0] == "nn.forward_batch.shape":
                by_size.setdefault(key[1], []).extend([key[2]] * n)
        self.lines.append(
            "forward_batch sequences: (calls, median rows) = "
            + ", ".join(f"{b}: ({len(r)}, {statistics.median(r):g})"
                        for b, r in sorted(by_size.items(), key=lambda kv: -len(kv[1]))[:4])
            + f"; op table replays {dict((t, s[:2]) for t, s in SHAPES.items())}")

        ops = op_table(self.seed)
        metrics.update(ops)
        for name, value in ops.items():
            self.lines.append(f"{name} = {value:.6g} us (median of 30)")
        units = per_layer_units()
        return self.result({k: {"value": metrics[k], "unit": u} for k, u in units.items()})

    def layer_metrics(self, tracer, cycles) -> dict:
        n = len(cycles)
        ids = set().union(*cycles)
        totals = tracer.totals(ids)
        setup_totals = tracer.totals({i for i in ids if i.endswith(".setup")})
        counts = tracer.counts_for(ids)
        metrics = {}
        self.lines.append("per traced pass (set-up + timed part): "
                          "function calls s self_s | of which set-up s")
        for name, t in totals.items():
            for key in ("calls", "s", "self_s"):
                metrics[f"{name}.{key}"] = t[key] / n
            layer = f"layer.{name.split('.')[0]}.self_s"
            metrics[layer] = metrics.get(layer, 0.0) + t["self_s"] / n
            self.lines.append(
                f"  {name} {t['calls'] / n:g} {t['s'] / n:.6g} {t['self_s'] / n:.6g}"
                f" | {setup_totals[name]['s'] / n:.6g}")
        self.lines.append("  " + ", ".join(
            f"{k}={v:.6g}" for k, v in metrics.items() if k.startswith("layer.")))
        anchors = counts["contrastive.ntxent_loss.anchors"]
        pp_anchors = counts["contrastive.positive_pairs.anchors"]
        # train_stage3 fine-tunes through train_regression; the rest are
        # stage-1 fits, which a stage cache could share.
        metrics["pipeline.train_regression.stage1_fits"] = (
            totals["pipeline.train_regression"]["calls"]
            - tracer.calls_under("pipeline.train_regression", "pipeline.train_stage3", ids)
        ) / n
        metrics["nn.forward_batch.rows"] = counts["nn.forward_batch.rows"] / n
        metrics["contrastive.ntxent_loss.active_anchor_ratio"] = (
            counts["contrastive.ntxent_loss.active"] / anchors if anchors else 0.0)
        metrics["contrastive.positive_pairs.mean_positives"] = (
            counts["contrastive.positive_pairs.positives"] / pp_anchors if pp_anchors else 0.0)
        for key in ("pipeline.train_regression.stage1_fits", "nn.forward_batch.rows",
                    "contrastive.ntxent_loss.active_anchor_ratio",
                    "contrastive.positive_pairs.mean_positives"):
            self.lines.append(f"{key} = {metrics[key]:.10g}")
        return metrics

    def check_counts_across_runs(self, cycle_counts) -> None:
        """Exact counts must also repeat between invocations with the same
        sources, config and seed; the first invocation records them."""
        calls, counters = cycle_counts
        doc = {"calls": calls,
               "counters": {repr(k): v for k, v in sorted(counters.items(), key=repr)}}
        key = hashlib.sha256(repr(self.argv_cfg).encode())
        for path in sorted((SRC / "sevreg").rglob("*.py")):
            key.update(path.read_bytes())
        OUT.mkdir(exist_ok=True)
        path = OUT / f"counts-{self.workload.name}-seed{self.seed}-{key.hexdigest()[:16]}.json"
        if path.exists():
            if json.loads(path.read_text()) != json.loads(json.dumps(doc)):
                self.problems.append(f"exact counts differ from the earlier run in {path.name}")
            else:
                self.lines.append(f"exact counts repeat the earlier run ({path.name})")
        else:
            path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def execute(workload: str, seed: int, seconds: float, trace: bool,
            extra: list[str] = ()) -> tuple[dict, list[str]]:
    """Run one invocation inside a private work directory; return
    (result object, report lines)."""
    facts = machine_facts()
    if facts["blas_threads"] is not None and facts["blas_threads"] > facts["nproc"]:
        raise SystemExit(f"error: {facts['blas_threads']} BLAS threads on "
                         f"{facts['nproc']} CPUs; set OPENBLAS_NUM_THREADS")
    # Each run writes 35-100 MB here and deletes none of it (see
    # Run.attempt); `rm -rf .bench_work` when done benchmarking.
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        run = Run(workload, seed, extra)
        result = run.trace() if trace else run.measure(seconds)
    finally:
        os.chdir(cwd)
    header = [f"workload = {workload}  seed = {seed}  trace = {int(trace)}",
              f"why = {run.workload.why}",
              f"machine = {json.dumps(facts, sort_keys=True)}"]
    return result, header + run.lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    import logging

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result, lines = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
