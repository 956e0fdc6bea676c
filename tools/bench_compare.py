"""Interleaved benchmark pairs: a parent checkout against a change.

    python3 tools/bench_compare.py --parent HEAD~1 --change WORKTREE \\
        --workload coarse_default --seed 0 --pairs 10 --seconds 40 --out BENCH.json

Each side is a git ref, or WORKTREE for the files of this working tree that
git tracks or would track (`git ls-files --cached --others
--exclude-standard`), modified ones as they are on disk. Every run gets a
fresh copy of its side, extracted from one `git archive` (or working-tree)
tarball made at the start, and runs that copy's own `bench/run.py`
unchanged, with `--trace 0`. Pair i runs the parent first when i is even
and the change first when it is odd.

Beside the bench's JSON line each run records, through `os.wait4`, the
bench process's `ru_maxrss` (the largest resident set of it or of any
process it waited for) and its minor page faults `ru_minflt`, and the
`digests` line of its report. It also records `reference_s`, the seconds a
fixed float32 kernel took in this tool's own process right before and right
after the run, so a comparison shows how fast the machine was meanwhile;
each side's median of those is printed beside `pass_s`. A run that exits non-zero or reports
`correct: false` keeps its return code, stdout tail and stderr.

Per metric the output holds both sides' runs, medians, quartiles, the pairs
each side won, and two verdicts: `verdict`, by the pairs rule (the change is
"better" or "worse" only when it wins, or loses, at least 9 of 10 pairs and
the medians differ by more than the parent's interquartile range; else
"unresolved"), and `within_bound`, whether the change's median is no worse
than the parent's by more than the metric's bound in BENCHMARK.json.
`resolvable` is false where the parent's own IQR exceeds that bound. With
an existing `--out` file the comparison is appended to its list.

The exit status is 1 when any run failed or reported `correct: false`, and
with `--same-bytes` also when the digests of any two correct runs differ,
as a change that claims byte-identical output requires; else 0. The output
file is written either way.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np
from byte_oracle import machine_facts

REPO = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"

# Measured around the bench process, not reported by it.
RUSAGE_METRICS = [
    {"name": "ru_maxrss_mb", "unit": "MB", "better": "lower", "bound": None},
    {"name": "ru_minflt", "unit": "count", "better": "lower", "bound": None},
]


def reference_kernel() -> float:
    """Seconds for a fixed float32 kernel at the benchmark's hidden width:
    300 320x320 products, each followed by a tanh, then 800 elementwise
    passes over a 320x320 array (about 0.2 s on a 2-core Xeon VM). A few
    untimed products first wake the BLAS threads."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((320, 320), dtype=np.float32) / np.float32(18)
    x = rng.standard_normal((320, 320), dtype=np.float32)
    for _ in range(5):
        a @ x
    start = time.perf_counter()
    y = x
    for _ in range(300):
        y = np.tanh(a @ y)
    for _ in range(800):
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    return time.perf_counter() - start


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True).stdout


def snapshot(side: str) -> tuple[bytes, str]:
    """A tarball of the side's files and a description of what it holds."""
    if side != WORKTREE:
        return git("archive", "--format=tar", side), git("rev-parse", side).decode().strip()
    buffer = io.BytesIO()
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    with tarfile.open(fileobj=buffer, mode="w") as tar:
        for name in filter(None, names):
            path = REPO / os.fsdecode(name)
            if path.is_file():
                tar.add(path, arcname=os.fsdecode(name))
    head = git("rev-parse", "HEAD").decode().strip()
    return buffer.getvalue(), f"working tree on {head}"


def run_bench(tarball: bytes, dest: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run bench/run.py in a fresh copy at `dest`; the record of one run."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tarball)) as tar:
        tar.extractall(dest, filter="data")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = reference_kernel()
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with open(dest / "bench.out", "w+") as out, open(dest / "bench.err", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=dest, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    reference = [before, reference_kernel()]
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    digests = next((json.loads(l.split(" = ", 1)[1]) for l in lines if l.startswith("digests = ")), None)
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    metrics["ru_maxrss_mb"] = usage.ru_maxrss / 1024.0
    metrics["ru_minflt"] = usage.ru_minflt
    record = {"returncode": proc.returncode, "correct": bool(result.get("correct")),
              "passes": result.get("attempted"), "wall_s": wall, "metrics": metrics,
              "digests": digests, "reference_s": reference}
    if proc.returncode != 0 or not record["correct"]:
        record["stdout_tail"] = lines[-40:]
        record["stderr"] = stderr
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """The pairs rule over runs paired by index, and the bound check."""
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    won, lost = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr, gain = p3 - p1, sign * (cm - pm)
    need = 0.9 * len(gains)
    if gains and won >= need and gain > iqr:
        call = "better"
    elif gains and lost >= need and -gain > iqr:
        call = "worse"
    else:
        call = "unresolved"
    relative = (cm - pm) / abs(pm) if pm else None
    return {
        "parent": parent, "change": change,
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "pairs_won": won, "pairs_lost": lost, "ties": len(gains) - won - lost,
        "median_diff": cm - pm, "relative_diff": relative, "parent_iqr": iqr,
        "verdict": call,
        "bound": bound,
        "within_bound": None if bound is None or relative is None
        else -sign * relative <= bound,
        "resolvable": None if bound is None or not pm else iqr / abs(pm) <= bound,
    }


def compare(args, tarballs: dict, work: Path) -> dict:
    specs = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"] + RUSAGE_METRICS
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            record = run_bench(tarballs[side], work / f"pair-{i:02d}-{side}",
                               args.workload, args.seed, args.seconds)
            record["pair"], record["first"] = i, (side == "parent") == (i % 2 == 0)
            runs[side].append(record)
            state = "ok" if record["correct"] else f"FAILED (exit {record['returncode']})"
            print(f"pair {i} {side}: {state}, {record['wall_s']:.1f} s", file=sys.stderr)
    good = [i for i in range(args.pairs) if runs["parent"][i]["correct"] and runs["change"][i]["correct"]]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        sides = [[runs[s][i]["metrics"].get(name) for i in good] for s in ("parent", "change")]
        if good and None not in sides[0] + sides[1]:
            metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                             **verdict(*sides, spec["better"], spec["bound"])}
    digests = {s: [r["digests"] for r in runs[s] if r["correct"]] for s in runs}
    every = digests["parent"] + digests["change"]
    reference = {s: [t for r in runs[s] for t in r.get("reference_s", ())] for s in runs}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "pairs_compared": len(good),
        "correct": {s: sum(r["correct"] for r in runs[s]) for s in runs},
        "digests_equal": bool(every) and all(d == every[0] for d in every),
        "digests": every[0] if every else None,
        "reference_kernel_s": {
            f"{s}_median": statistics.median(t) if t else None for s, t in reference.items()
        },
        "metrics": metrics,
        "runs": runs,
    }


def exit_status(comparison: dict, same_bytes: bool) -> int:
    """1 when a run failed, or with `same_bytes` when two correct runs'
    digests differ; else 0."""
    runs = [r for side in comparison["runs"].values() for r in side]
    if any(r["returncode"] != 0 or not r["correct"] for r in runs):
        return 1
    return int(same_bytes and not comparison["digests_equal"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git ref (default HEAD)")
    parser.add_argument("--change", default=WORKTREE, help=f"git ref or {WORKTREE} (default)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work", type=Path, help="where the copies go (default: a temp dir, removed)")
    parser.add_argument("--same-bytes", action="store_true",
                        help="exit 1 unless every correct run printed the same digests")
    args = parser.parse_args()

    (parent, parent_desc), (change, change_desc) = snapshot(args.parent), snapshot(args.change)
    work = Path(tempfile.mkdtemp(prefix="bench-compare-", dir=args.work))
    try:
        comparison = compare(args, {"parent": parent, "change": change}, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts = {**machine_facts(), "cpus": os.cpu_count(), "python": sys.version.split()[0]}
    comparison = {"parent": parent_desc, "change": change_desc, "machine": facts,
                  "same_bytes": args.same_bytes, **comparison}
    report = json.loads(args.out.read_text()) if args.out.exists() else {"comparisons": []}
    report["comparisons"].append(comparison)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    reference = comparison["reference_kernel_s"]
    for name, m in comparison["metrics"].items():
        print(f"{name}: parent {m['parent_median']:.6g} change {m['change_median']:.6g} "
              f"won {m['pairs_won']}/{comparison['pairs_compared']} "
              f"{m['verdict']} within_bound={m['within_bound']}")
        if name == "pass_s":
            print(f"reference kernel s: parent {reference['parent_median']:.4g} "
                  f"change {reference['change_median']:.4g}")
    correct = comparison["correct"]
    print(f"correct runs: parent {correct['parent']}, change {correct['change']} of {args.pairs}; "
          f"digests equal: {comparison['digests_equal']}")
    return exit_status(comparison, args.same_bytes)


if __name__ == "__main__":
    sys.exit(main())
