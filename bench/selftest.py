"""Self-tests of the benchmark itself, at tiny sizes (about a minute):

    python3 bench/selftest.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that the tracer restores every wrapped attribute, that a corrupted
output or a non-deterministic pass is counted as a failure, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import run as bench


def execute(name: str, trace: bool, seconds: float = 0.01):
    """One tiny invocation with the quality floor switched off.

    Tiny is the fast world with one stage-2 epoch and one training seed:
    seconds per pass, and still a model that learns enough for every SRCC
    to be defined.
    """
    from workloads import FAST, WORKLOADS, as_overrides

    seed = 3
    tiny = as_overrides({**FAST, "stage2.epochs": 1, "seeds": [seed]})
    workload = WORKLOADS[name]
    floor = workload.srcc_floor
    workload.srcc_floor = -1.0
    try:
        return bench.execute(name, seed=seed, seconds=seconds, trace=trace, extra=tiny)
    finally:
        workload.srcc_floor = floor


def declared() -> tuple[dict, dict]:
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    return e2e, layer


def test_declared_metrics_match_the_code():
    e2e, layer = declared()
    assert e2e == bench.END_TO_END, (e2e, bench.END_TO_END)
    assert layer == bench.per_layer_units()


def test_every_metric_is_emitted_with_its_unit():
    from workloads import WORKLOADS

    e2e, layer = declared()
    for name in WORKLOADS:
        for trace, want in ((False, e2e), (True, layer)):
            result, lines = execute(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (name, trace, lines)
            assert result["attempted"] >= 1 and result["failed"] == 0
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())
            assert any(line.startswith("machine = ") for line in lines)


def test_wrappers_are_restored():
    import sevreg.nn
    import sevreg.pipeline
    from tracer import TRACED, WRAPPED_MARK

    originals = {
        (m, f): getattr(sys.modules[f"sevreg.{m}"], f) for m, f in TRACED
    }
    result, lines = execute("sweep_fast", trace=True)
    assert result["correct"], lines
    for (m, f), fn in originals.items():
        now = getattr(sys.modules[f"sevreg.{m}"], f)
        assert now is fn and not getattr(now, WRAPPED_MARK, False), f"{m}.{f}"
    assert sevreg.pipeline.forward_batch is sevreg.nn.forward_batch
    assert any("restored: yes" in line for line in lines)


def _corrupting(damage, on_call: int | None = None):
    """Wrap sevreg.cli.main so that `damage` rewrites results.csv after
    run-all (after every call, or only after call number `on_call`)."""
    import sevreg.cli

    original = sevreg.cli.main
    seen = []

    def main(argv):
        code = original(argv)
        if argv[0] == "run-all":
            seen.append(argv)
            if on_call is None or len(seen) == on_call:
                for path in Path("runs").rglob("results.csv"):
                    path.write_text(damage(path.read_text()))
        return code

    return original, main


def test_corrupted_output_counts_as_failed():
    import sevreg.cli

    # An SRCC above 1 fails the output check.
    original, corrupting = _corrupting(lambda text: text.replace(",0.", ",1.", 1))
    sevreg.cli.main = corrupting
    try:
        result, lines = execute("coarse_default", trace=False)
    finally:
        sevreg.cli.main = original
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("error_rate = 1 ") for line in lines), lines


def test_pass_with_different_digests_counts_as_failed():
    import sevreg.cli

    # A trailing blank line still parses, but the bytes differ from the
    # first pass with the same seed.
    original, corrupting = _corrupting(lambda text: text + "\n", on_call=2)
    sevreg.cli.main = corrupting
    try:
        result, lines = execute("coarse_default", trace=False, seconds=5.0)
    finally:
        sevreg.cli.main = original
    assert result["attempted"] >= 2 and result["failed"] == 1, lines
    assert not result["correct"]
    assert any(line.startswith("pass 1 FAILED: digests differ") for line in lines), lines


def test_refuses_to_run_without_sources():
    scratch = bench.WORK / "selftest-empty"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(bench.ROOT / "bench", scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep_fast", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    bench.bootstrap()
    import logging

    logging.basicConfig(level=logging.CRITICAL)
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failures = 0
    # The runs keep their files (see run.py); remove the ones made here.
    before = set(bench.WORK.iterdir()) if bench.WORK.exists() else set()
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    for path in set(bench.WORK.iterdir()) - before:
        shutil.rmtree(path, ignore_errors=True)
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
