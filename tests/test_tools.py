"""The decisions of the scripts under tools/, on synthetic inputs: the pairs
verdict of bench_compare.py and the manifest check of byte_oracle.py. No
benchmark and no oracle run here."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_compare  # noqa: E402
import byte_oracle  # noqa: E402

# Ten runs of one side, spread as a noisy 2-core machine spreads them.
PARENT = [10.0, 10.4, 9.7, 10.1, 9.9, 10.3, 9.6, 10.2, 10.0, 9.8]


class TestVerdict:
    @pytest.mark.parametrize("better", ["lower", "higher"])
    def test_identical_sides_are_unresolved(self, better):
        v = bench_compare.verdict(PARENT, list(PARENT), better, 0.15)
        assert v["verdict"] == "unresolved"
        assert (v["pairs_won"], v["pairs_lost"], v["ties"]) == (0, 0, 10)
        assert v["within_bound"] and v["resolvable"]

    def test_a_twenty_percent_shift_is_detected(self):
        lower = [0.8 * x for x in PARENT]
        v = bench_compare.verdict(PARENT, lower, "lower", 0.15)
        assert v["verdict"] == "better" and v["pairs_won"] == 10 and v["within_bound"]
        assert v["relative_diff"] == pytest.approx(-0.2)
        v = bench_compare.verdict(PARENT, lower, "higher", 0.15)
        assert v["verdict"] == "worse" and v["pairs_lost"] == 10 and not v["within_bound"]

    def test_eight_pairs_of_ten_are_not_enough(self):
        change = [0.8 * x for x in PARENT]
        change[3] = change[6] = 11.0
        v = bench_compare.verdict(PARENT, change, "lower", 0.15)
        assert v["pairs_won"] == 8 and v["verdict"] == "unresolved"

    def test_a_shift_inside_the_parent_iqr_is_unresolved(self):
        change = [x - 0.05 for x in PARENT]
        v = bench_compare.verdict(PARENT, change, "lower", 0.15)
        assert v["pairs_won"] == 10 and 0.05 < v["parent_iqr"]
        assert v["verdict"] == "unresolved"

    def test_a_parent_spread_wider_than_the_bound_is_not_resolvable(self):
        parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert not bench_compare.verdict(parent, parent, "lower", 0.25)["resolvable"]


class TestExitStatus:
    """bench_compare.py's exit status over the records of synthetic runs:
    compare() drives a stand-in for run_bench that runs nothing."""

    def comparison(self, monkeypatch, tmp_path, records):
        queue = list(records)

        def fake_run(tarball, dest, workload, seed, seconds):
            correct, digests = queue.pop(0)
            return {"returncode": 0 if correct else 1, "correct": correct, "wall_s": 0.0,
                    "metrics": {"pass_s": 1.0}, "digests": digests}

        monkeypatch.setattr(bench_compare, "run_bench", fake_run)
        args = SimpleNamespace(pairs=len(records) // 2, workload="w", seed=0, seconds=1.0)
        return bench_compare.compare(args, {"parent": b"", "change": b""}, tmp_path)

    def test_same_digests_exit_0(self, monkeypatch, tmp_path):
        c = self.comparison(monkeypatch, tmp_path, [(True, {"a": "1"})] * 4)
        assert c["digests_equal"]
        assert bench_compare.exit_status(c, same_bytes=True) == 0

    def test_differing_digests_exit_1_only_with_same_bytes(self, monkeypatch, tmp_path):
        records = [(True, {"a": "1"})] * 3 + [(True, {"a": "2"})]
        c = self.comparison(monkeypatch, tmp_path, records)
        assert not c["digests_equal"]
        assert bench_compare.exit_status(c, same_bytes=True) == 1
        assert bench_compare.exit_status(c, same_bytes=False) == 0

    @pytest.mark.parametrize("same_bytes", [False, True])
    def test_a_failed_run_exits_1(self, monkeypatch, tmp_path, same_bytes):
        records = [(True, {"a": "1"})] * 3 + [(False, None)]
        c = self.comparison(monkeypatch, tmp_path, records)
        assert c["digests_equal"] and c["correct"] == {"parent": 1, "change": 2}
        assert bench_compare.exit_status(c, same_bytes) == 1


class TestManifestCheck:
    LINES = ["aa" * 32 + "  runs/a.csv", "bb" * 32 + "  runs/b.dsqc"]

    def test_same_digests_pass_and_any_difference_is_named(self, tmp_path, capsys):
        manifest = tmp_path / "oracle.sha256"
        byte_oracle.write_manifest(self.LINES, manifest)
        assert byte_oracle.check(self.LINES, manifest) == 0
        moved = ["cc" * 32 + "  runs/a.csv", "dd" * 32 + "  runs/c.json"]
        capsys.readouterr()
        assert byte_oracle.check(moved, manifest) == 1
        assert capsys.readouterr().out.split("\n")[:3] == [
            "changed runs/a.csv", "missing runs/b.dsqc", "new runs/c.json"
        ]

    def test_another_machine_is_refused(self, tmp_path, monkeypatch):
        manifest = tmp_path / "oracle.sha256"
        byte_oracle.write_manifest(self.LINES, manifest)
        facts = {**byte_oracle.machine_facts(), "blas": "another BLAS"}
        monkeypatch.setattr(byte_oracle, "machine_facts", lambda: facts)
        assert byte_oracle.check(self.LINES, manifest) == 2
