"""The benchmark workloads, each driven through ``sevreg.cli.main``.

A pass runs in the current directory, which the runner makes new and empty
for every pass, so no artifact of one pass can serve the next. Each
workload has three phases:

- ``setup``: ``gen-data`` writes the corpora;
- ``timed``: the CLI command whose wall-clock time is ``pass_s``;
- ``check``: validate the outputs and return their digests and quality.

The seed is the training seed (``seed``, and ``seeds`` starting at it); the
worlds keep their default world seed. With a world seed per run, the test
split (nine speakers) moves the in-domain SRCC by more than any bound could
allow, and the quality guard would be useless.

Paths in the CLI config are relative, so artifact bytes (which embed the
resolved config) do not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sevreg.cli
from sevreg.config import RunConfig, apply_overrides, config_from_dict
from sevreg.experiments import TAU_GRID, split_labeled
from sevreg.synthetic import build_world

DATA_ROOT = "data"
RUN_ROOT = "runs"

# The acceptance suite's fast harness configuration (criteria 8-10).
FAST = {
    "data.world.feat_dim": 8,
    "data.world.signal_dims": 4,
    "data.world.nuisance_dims": 3,
    "data.world.n_labeled": 400,
    "data.world.n_unlabeled": 160,
    "data.world.n_typical": 120,
    "data.world.n_shifted_test": 100,
    "data.world.labeled_speakers": 20,
    "data.world.unlabeled_speakers": 10,
    "data.world.typical_speakers": 6,
    "data.world.shifted_speakers": 8,
    "data.world.t_range": [6, 12],
    "model.hidden_dim": 32,
    "model.embed_dim": 16,
    "stage1.lr": 3e-3,
    "stage1.epochs": 4,
    "stage3.lr": 3e-3,
    "stage3.epochs": 4,
    "stage2.batch_size": 32,
}


class CheckFailed(Exception):
    """A pass produced missing or wrong outputs."""


def cli(argv: list[str]) -> str:
    """Run one sevreg command in-process; return its stdout, raise on failure.

    ``sevreg.cli.main`` is looked up at call time so a tracer that replaced
    it sees the call.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sevreg.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"sevreg {argv[0]} exited {code}")
    return out.getvalue()


def as_overrides(values: dict) -> list[str]:
    return [f"{k}={json.dumps(v)}" for k, v in values.items()]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_results(path: Path, seeds) -> dict[str, float]:
    """results.csv -> median SRCC per dataset over the seeds, after checking
    that it holds one in-domain and one shifted row per seed.

    An empty SRCC is the program's flag for an undefined correlation, for
    instance when a model that never beat its initial validation SRCC
    predicts a constant. Like the program's own summaries, the median skips
    flagged rows; their number is returned under "flagged".
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {(r["dataset"], r["level"], int(r["seed"])): r["srcc"] for r in rows}
    want = {(d, lvl, s) for d, lvl in (("test", "utterance"), ("shifted_test", "speaker"))
            for s in seeds}
    if len(rows) != len(want) or set(got) != want:
        raise CheckFailed(f"{path}: expected rows {sorted(want)}, got {sorted(got)}")
    defined = {k: float(v) for k, v in got.items() if v != ""}
    if not all(-1.0 <= v <= 1.0 for v in defined.values()):
        raise CheckFailed(f"{path}: SRCC out of range: {defined}")
    out = {"flagged": len(got) - len(defined)}
    for dataset in ("test", "shifted_test"):
        values = [v for (d, _, _), v in defined.items() if d == dataset]
        if not values:
            raise CheckFailed(f"{path}: every {dataset} SRCC is flagged as undefined")
        out[dataset] = float(np.median(values))
    return out


def check_checkpoint(path: Path) -> None:
    raw = path.read_bytes()
    if raw[:4] != b"DSQC" or len(raw) < 16:
        raise CheckFailed(f"{path}: not a DSQC checkpoint")


@dataclass
class PassOutput:
    digests: dict[str, str]
    quality: dict[str, float]


@dataclass
class Workload:
    """Config, nominal work, set-up and CLI argv shared by the workloads."""

    name: str
    why: str
    settings: dict = field(default_factory=dict)
    # Training seeds per run: --seed and the ones after it.
    training_seeds: int = 1
    # Floor for the test SRCC in the output check; far below what a working
    # model reaches, so it only catches broken outputs.
    srcc_floor: float = 0.5

    def overrides(self, seed: int, extra: list[str] = ()) -> list[str]:
        base = {
            "data.root": DATA_ROOT,
            "run_root": RUN_ROOT,
            "strategy": "coarse",
            "seed": seed,
            "seeds": list(range(seed, seed + self.training_seeds)),
        }
        return as_overrides({**base, **self.settings}) + list(extra)

    def config(self, seed: int, extra: list[str] = ()) -> RunConfig:
        return config_from_dict(apply_overrides({}, self.overrides(seed, extra)))

    def train_size(self, cfg: RunConfig) -> int:
        """Utterances in the training split; computed once per run, outside
        every timed region."""
        corpora = build_world(cfg.data.world)
        train, _, _ = split_labeled(corpora["labeled"], cfg.data.world)
        return len(train)

    def setup(self, argv_cfg: list[str]) -> None:
        cli(["gen-data", *argv_cfg])


def coarse_run_samples(cfg: RunConfig, n_train: int) -> int:
    """Nominal training samples of one coarse run_single: n_train utterances
    per stage-1 and stage-3 epoch, plus two views per stage-2 source (a
    trailing batch of one source is dropped)."""
    w = cfg.data.world
    sources = n_train + w.n_unlabeled + w.n_typical
    kept = sources - (1 if sources % cfg.stage2.batch_size == 1 else 0)
    return (cfg.stage1.epochs + cfg.stage3.epochs) * n_train + cfg.stage2.epochs * 2 * kept


class CoarseDefault(Workload):
    def items(self, cfg, n_train) -> int:
        return len(cfg.seeds) * coarse_run_samples(cfg, n_train)

    def timed(self, argv_cfg):
        cli(["run-all", *argv_cfg])

    def check(self, cfg) -> PassOutput:
        (run_dir,) = [p for p in Path(RUN_ROOT).iterdir() if p.is_dir()]
        results = read_results(run_dir / "results.csv", cfg.seeds)
        seed_dir = run_dir / f"seed_{cfg.seeds[0]}"
        model = seed_dir / "model.dsqc"
        check_checkpoint(model)
        if not results["test"] >= self.srcc_floor:
            raise CheckFailed(f"test SRCC {results['test']} below floor {self.srcc_floor}")
        return PassOutput(
            digests={
                "results.csv": sha256(run_dir / "results.csv"),
                "model.dsqc": sha256(model),
                "pseudo_histogram.json": sha256(seed_dir / "pseudo_histogram.json"),
            },
            quality={"test_srcc": results["test"], "shifted_srcc": results["shifted_test"],
                     "flagged_srcc_rows": results["flagged"]},
        )


class SweepFast(Workload):
    def items(self, cfg, n_train) -> int:
        baseline = cfg.stage1.epochs * n_train
        return len(cfg.seeds) * (baseline + len(TAU_GRID) * coarse_run_samples(cfg, n_train))

    def timed(self, argv_cfg):
        cli(["sweep-tau", *argv_cfg])

    def check(self, cfg) -> PassOutput:
        (sweep_dir,) = Path(RUN_ROOT).glob("sweep_*")
        doc = json.loads((sweep_dir / "sweep_tau.json").read_text())
        if doc["grid"] != list(TAU_GRID):
            raise CheckFailed(f"sweep grid {doc['grid']}")
        rows = doc["improvements"]
        if len(rows) != 2 * len(TAU_GRID) or not all(
            r["median_srcc"] is not None and math.isfinite(r["median_srcc"])
            for r in rows
        ):
            raise CheckFailed("sweep improvement table incomplete or not finite")
        run_ids = sorted([doc["baseline_run"], *doc["runs"].values()])
        if len(set(run_ids)) != 1 + len(TAU_GRID):
            raise CheckFailed(f"expected {1 + len(TAU_GRID)} distinct runs")
        results_hash = hashlib.sha256()
        model_hash = hashlib.sha256()
        per_run = []
        for rid in run_ids:
            run_dir = Path(RUN_ROOT) / rid
            per_run.append(read_results(run_dir / "results.csv", cfg.seeds))
            results_hash.update((run_dir / "results.csv").read_bytes())
            for seed in cfg.seeds:
                model = run_dir / f"seed_{seed}" / "model.dsqc"
                check_checkpoint(model)
                model_hash.update(model.read_bytes())
        # Median over the six runs of each run's median over the seeds.
        test = float(np.median([r["test"] for r in per_run]))
        shifted = float(np.median([r["shifted_test"] for r in per_run]))
        if not test >= self.srcc_floor:
            raise CheckFailed(f"test SRCC {test} below floor {self.srcc_floor}")
        return PassOutput(
            digests={
                "results.csv": results_hash.hexdigest(),
                "model.dsqc": model_hash.hexdigest(),
            },
            quality={"test_srcc": test, "shifted_srcc": shifted,
                     "flagged_srcc_rows": sum(r["flagged"] for r in per_run)},
        )


WORKLOADS = {
    w.name: w
    for w in (
        CoarseDefault(
            "coarse_default",
            "headline coarse recipe at real shapes (D=16, H=320); float64 matmuls "
            "in nn dominate and every stage trains once",
        ),
        SweepFast(
            "sweep_fast",
            "tau sweep on the fast config over 5 seeds: tiny matrices, so per-sequence "
            "Python loops dominate; stage 1 is refit 6x per seed",
            settings=FAST,
            training_seeds=5,
        ),
    )
}
