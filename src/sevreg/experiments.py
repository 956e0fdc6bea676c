"""Experiment flows: single runs, multi-seed runs, the temperature sweep,
and the ablation harness, with one worker process per seed. A seed directory
is written and read by one walk over its steps, `Stages.run`: each step
loads what a run before left there or is made and saved, so a killed run
resumes to the same bytes. run_single walks to the report; each CLI stage
command walks to its own stage, the only one it makes."""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from logging.handlers import QueueHandler, QueueListener
from pathlib import Path
from typing import Callable

import numpy as np

from .config import RunConfig, config_to_dict, run_id_for
from .data import Corpus, atomic_write, label_histogram, split
from .errors import ConfigError, FeatureFormatError
from .evaluation import RESULTS_COLUMNS, EvalReport, write_report_json, write_results_csv
from .nn import AdaptorNet
from .pipeline import (
    StageResult,
    build_stage2_corpus,
    checkpoint_from_net,
    evaluate,
    load_checkpoint,
    net_from_checkpoint,
    pseudo_label,
    save_checkpoint,
    train_regression,
    train_stage2,
    train_stage3,
)
from .synthetic import WorldConfig

logger = logging.getLogger(__name__)

TAU_GRID = (0.1, 1.0, 10.0, 50.0, 100.0)

ABLATION_VARIANTS = (
    "full", "wo_libri", "wo_unlabeled", "wo_var", "skip_stage1", "skip_stage2",
)

# The checkpoint each stage leaves in a seed directory. The keys, in this
# order, are also the sections of its history.json.
CHECKPOINTS = {"stage1": "stage1.dsqc", "stage2": "stage2.dsqc", "final": "model.dsqc"}

# The steps of a seed directory in walk order, and the file that commits each.
STEPS = {**CHECKPOINTS, "report": "report.json"}

# Why a config takes no such step.
NOT_TAKEN = {
    "stage1": "this config reads no stage-1 teacher or pseudo-labels (strategy 'baseline' "
    "or 'simclr', ablation.skip_stage1, ablation.skip_stage2 or no ablation.use_pseudo)",
    "stage2": "this config trains no stage 2 (strategy 'baseline' or ablation.skip_stage2)",
}

# The config keys every stage reads, and those besides that made each stage's
# checkpoint; a checkpoint recording other values belongs to another chain.
LINEAGE_KEYS = ("seed", "model", "data.world")
STAGE_KEYS = {"stage1": ("stage1",), "stage2": ("strategy", "stage2"), "final": ()}


def config_value(doc, key: str):
    """The value at a dotted key of a config document; None if absent."""
    for part in key.split("."):
        doc = doc.get(part) if isinstance(doc, dict) else None
    return doc


def split_labeled(labeled: Corpus, world: WorldConfig) -> tuple[Corpus, Corpus, Corpus]:
    """Speaker-disjoint train/val/test split over the labeled corpus's rows,
    keyed to the world seed so every strategy sees the same partition."""
    parts = split(labeled, world.split, seed=world.seed)
    return tuple(labeled.take(idx, name) for idx, name in zip(parts, ("train", "val", "test")))


@dataclass
class Teacher:
    """A regression fit from the seeded init (no transferred trunk) and, once
    asked for, the unlabeled pool pseudo-labelled by it. Readers get a copy
    of the fit and the read-only pool itself, so an entry shared through a
    memo never changes."""

    fit: StageResult
    pool: Corpus | None = None

    def result(self) -> StageResult:
        return StageResult(
            net=self.fit.net.copy(), history=[dict(h) for h in self.fit.history]
        )

    def pseudo(self, unlabeled: Corpus) -> Corpus:
        if self.pool is None:
            self.pool = pseudo_label(self.fit.net, unlabeled)
        return self.pool


def teacher_key(resolved: dict, section: str, seed: int) -> str:
    """Everything a fit without a transferred trunk reads from the config: the
    seed, the model, the regression-stage section and the world (which fixes
    the split). The run id is no key: it also hashes the stage-2 settings,
    which never reach this fit."""
    return json.dumps(
        [seed, resolved["model"], resolved[section], resolved["data"]["world"]],
        sort_keys=True,
    )


class Stages:
    """The steps of one (config, seed) run on a set of corpora, and the one
    walk over them (`run`). Both run_single and the CLI stage commands walk
    it, so every strategy and ablation decision is made here, once.

    `memo` shares teachers between runs on the same corpora: a fit with no
    transferred trunk is made once per `teacher_key`, or read from a stage-1
    checkpoint the walk loads."""

    def __init__(
        self,
        cfg: RunConfig,
        corpora: dict[str, Corpus],
        seed: int,
        memo: dict[str, Teacher] | None = None,
    ):
        self.cfg = cfg
        self.corpora = corpora
        self.seed = seed
        self.memo = {} if memo is None else memo
        self.train, self.val, self.test = split_labeled(
            corpora["labeled"], cfg.data.world
        )
        self.resolved = config_to_dict(cfg)
        self.run_id = run_id_for(self.resolved, seed=seed)
        self.snapshot = {**self.resolved, "seed": seed}  # as checkpoints record it
        self.report_id = {"run_id": self.run_id, "strategy": cfg.strategy, "seed": seed}

    @property
    def has_stage2(self) -> bool:
        return self.cfg.strategy != "baseline" and not self.cfg.ablation.skip_stage2

    @property
    def reads_pool(self) -> bool:
        return self.has_stage2 and self.cfg.ablation.use_pseudo

    @property
    def pseudo_labels(self) -> bool:
        """Whether stage 2 trains on the stage-1 teacher's pseudo-labels; if
        not, no step reads the teacher fit of `stage1`."""
        cfg = self.cfg
        return self.reads_pool and cfg.strategy != "simclr" and not cfg.ablation.skip_stage1

    def teacher(self, section: str = "stage1") -> Teacher:
        """The regression fit of `section` from the seeded init, memoised."""
        key = teacher_key(self.resolved, section, self.seed)
        if key not in self.memo:
            self.memo[key] = Teacher(
                train_regression(
                    self.train, self.val, self.cfg.model,
                    getattr(self.cfg, section), self.seed,
                )
            )
        return self.memo[key]

    def pool(self) -> Corpus | None:
        """The unlabeled pool as stage 2 sees it: none if it reads none, raw
        for label-free `simclr`, wholly assumed dysarthric when stage 1 is
        skipped, else pseudo-labelled by the stage-1 teacher."""
        cfg, unlabeled = self.cfg, self.corpora["unlabeled"]
        if self.pseudo_labels:
            return self.teacher().pseudo(unlabeled)
        if not self.reads_pool:
            return None
        if cfg.strategy == "simclr":
            return unlabeled
        return unlabeled.with_labels(
            np.full(len(unlabeled), cfg.ablation.assumed_dysarthric_label),
            f"{unlabeled.name}/assumed",
        )

    def stage2(self, pool: Corpus | None) -> StageResult:
        """Contrastive pretraining on the labeled split, the pool and the
        typical corpus, each as the ablation switches allow."""
        cfg = self.cfg
        typical = self.corpora["typical"] if cfg.ablation.use_typical else None
        # unnamed, so train_stage2 frees the mix's stored rows once normalised
        return train_stage2(
            build_stage2_corpus(self.train, pool, typical),
            cfg.model, cfg.stage2, self.seed, cfg.strategy,
        )

    def final(self, stage2: AdaptorNet | None) -> StageResult:
        """The evaluated model: a fine-tune from the trunk of the stage-2 net,
        or without a stage 2 the teacher fit of `stage1` (baseline) or
        `stage3` (stage 2 skipped)."""
        if not self.has_stage2:
            section = "stage1" if self.cfg.strategy == "baseline" else "stage3"
            return self.teacher(section).result()
        return train_stage3(self.train, self.val, self.cfg, stage2, seed=self.seed)

    def rows(self, reports: list[EvalReport]) -> list[dict]:
        """The results.csv row of each report."""
        return [
            {key: {**self.report_id, **r.to_dict()}[key] for key in RESULTS_COLUMNS}
            for r in reports
        ]

    # -- the walk over a seed directory --------------------------------------

    @property
    def steps(self) -> tuple[str, ...]:
        """The steps this config takes, in walk order."""
        taken = {"stage1": self.pseudo_labels, "stage2": self.has_stage2}
        return tuple(step for step in STEPS if taken.get(step, True))

    def run(self, run_dir: Path | None, until: str = "report", first: str | None = None):
        """Walk this config's steps up to `until` over `run_dir`; return the
        output of `until`, a net or (for "report") the reports. Every step
        from `first` on is made and, with a run_dir, saved. The step before
        `first`, whose output they read, is loaded from run_dir (a stage-1
        teacher with its history.json section); nothing before it is read.
        By default `first` is the first step whose file run_dir lacks, so a
        killed run resumes where it stopped and a finished one only reads
        its report."""
        if until not in self.steps:
            raise ConfigError(NOT_TAKEN[until])
        steps = self.steps[: self.steps.index(until) + 1]
        if first is None:
            missing = [s for s in steps if run_dir is None or not (run_dir / STEPS[s]).exists()]
            first = missing[0] if missing else None
        start = steps.index(first) if first else len(steps)
        history = self.read_history(run_dir) if run_dir else None
        out = None
        if start:
            loaded = steps[start - 1]
            if loaded == "report":
                return self.read_report(run_dir)
            out = self.load(run_dir, loaded)
            if loaded == "stage1":  # into the memo, where stage 2 reads its teacher
                key = teacher_key(self.resolved, "stage1", self.seed)
                self.memo.setdefault(key, Teacher(StageResult(out, history["stage1"])))
        for step in steps[start:]:
            out = self.report(run_dir, out) if step == "report" else self.make(
                run_dir, step, out, history
            )
        return out

    def make(
        self, run_dir: Path | None, step: str, prev: AdaptorNet | None, history: dict | None
    ) -> AdaptorNet:
        """Train a stage on the output of the step before it (the stage-1
        teacher reaches stage 2 through the memo) and, with a run_dir, save
        it: the label histogram of a labelled stage-2 pool and the stage's
        history.json section first, then its checkpoint, which commits it."""
        pool = None if step == "final" else self.pool()
        if step == "stage1":
            result = self.teacher().fit
        elif step == "stage2":
            result = self.stage2(pool)
        else:
            result = self.final(prev)
        if run_dir is not None:
            run_dir.mkdir(parents=True, exist_ok=True)
            if pool is not None and not np.isnan(pool.labels).all():
                hist = {str(k): v for k, v in label_histogram(pool.labels).items()}
                write_report_json(run_dir / "pseudo_histogram.json", hist)
            history[step] = result.history
            atomic_write(run_dir / "history.json", json.dumps(history, indent=2) + "\n")
            ckpt = checkpoint_from_net(result.net, step, self.snapshot)
            save_checkpoint(run_dir / CHECKPOINTS[step], ckpt)
        return result.net

    def report(self, run_dir: Path | None, net: AdaptorNet) -> list[EvalReport]:
        """The in-domain utterance-level and shifted speaker-level reports of
        `net`; with a run_dir, written to report.json, which commits the seed."""
        reports = [
            evaluate(net, self.test, level="utterance"),
            evaluate(net, self.corpora["shifted_test"], level="speaker"),
        ]
        if run_dir is not None:
            run_dir.mkdir(parents=True, exist_ok=True)
            doc = {**self.report_id, "reports": [r.to_dict() for r in reports]}
            write_report_json(run_dir / STEPS["report"], doc)
        return reports

    def load(self, run_dir: Path, stage: str) -> AdaptorNet:
        """The net of a stage's checkpoint, through the strict reader; one
        made for another seed, model or world, or with other settings of its
        own stage (STAGE_KEYS), raises FeatureFormatError."""
        path = run_dir / CHECKPOINTS[stage]
        ckpt = load_checkpoint(path)
        recorded = ckpt.meta.get("config")
        if not isinstance(recorded, dict):
            raise FeatureFormatError(f"{path} records no config object")
        for key in LINEAGE_KEYS + STAGE_KEYS[stage]:
            if config_value(recorded, key) != config_value(self.snapshot, key):
                raise FeatureFormatError(f"{path} was made with another {key} than this config")
        return net_from_checkpoint(ckpt)

    def read_report(self, run_dir: Path) -> list[EvalReport]:
        """The reports of the report.json `report` wrote for this run; one of
        another run, or not in that layout, raises FeatureFormatError."""
        path = run_dir / STEPS["report"]
        try:
            doc = json.loads(path.read_bytes())
            reports = [EvalReport(**r) for r in doc.pop("reports")]
            if doc != self.report_id:
                raise ValueError(f"expected the report of {self.report_id}")
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise FeatureFormatError(f"bad {path}: {exc!r}") from exc
        return reports

    @staticmethod
    def read_history(run_dir: Path) -> dict[str, list]:
        """The history.json an earlier step left, or empty sections; a file
        that is not one list per section raises FeatureFormatError."""
        path = run_dir / "history.json"
        if not path.exists():
            return {stage: [] for stage in CHECKPOINTS}
        try:
            history = json.loads(path.read_bytes())
            if not isinstance(history, dict) or history.keys() != CHECKPOINTS.keys() or any(
                not isinstance(rows, list) for rows in history.values()
            ):
                raise ValueError(f"expected an object with one list per section {list(CHECKPOINTS)}")
        except (ValueError, RecursionError) as exc:
            raise FeatureFormatError(f"bad {path}: {exc}") from exc
        return history


def run_single(
    cfg: RunConfig,
    corpora: dict[str, Corpus],
    seed: int,
    run_dir: Path | None = None,
    memo: dict[str, Teacher] | None = None,
) -> dict:
    """One (strategy, seed) run: the walk of its steps to the report over
    `run_dir` (Stages.run), which loads what an earlier run committed there
    and trains the rest. Without a run_dir every step runs and nothing is
    written. Without a `memo`, a teacher is still shared between the stages
    of this run."""
    stages = Stages(cfg, corpora, seed, memo)
    reports = stages.run(run_dir)
    return {"run_id": stages.run_id, "rows": stages.rows(reports), "reports": reports}


def median_summary(rows: list[dict]) -> dict:
    """Per (dataset, level): the seeds, each seed's values in the same order
    (None where flagged), and the medians over the defined values."""
    grouped: dict = {}
    for row in rows:
        key = (row["dataset"], row["level"])
        grouped.setdefault(key, []).append(row)
    summary = {}
    for (dataset, level), entries in sorted(grouped.items()):
        stats = {"seeds": [e["seed"] for e in entries]}
        for metric in ("srcc", "pcc"):
            values = [e[metric] for e in entries]
            defined = [v for v in values if v is not None]
            stats[metric] = values
            stats[f"median_{metric}"] = float(np.median(defined)) if defined else None
        summary[f"{dataset}/{level}"] = stats
    return summary


def workers(n_seeds: int) -> int:
    """Worker processes for a run over `n_seeds` seeds: at most one per seed
    and one per CPU this process may run on."""
    return min(len(os.sched_getaffinity(0)), n_seeds)


def run_seed(
    runs: list[tuple[RunConfig, Path]], corpora: dict[str, Corpus], seed: int
) -> list[list[dict]]:
    """run_single of every (config, run directory) pair for one seed, into
    the run's seed_<seed> directory, sharing one teacher memo; returns each
    run's rows."""
    memo: dict[str, Teacher] = {}
    return [
        run_single(cfg, corpora, seed, run_dir / f"seed_{seed}", memo)["rows"]
        for cfg, run_dir in runs
    ]


def _log_to_parent(records, level: int) -> None:
    """Send a worker's log records at or above the parent's root level to the
    parent's root handlers."""
    root = logging.getLogger()
    root.setLevel(level)
    root.addHandler(QueueHandler(records))


def map_seeds(task: Callable[[int], list], seeds: tuple[int, ...]) -> list:
    """[task(seed) for seed in seeds]. With more than one worker, each call
    runs in a spawned worker process that starts with OPENBLAS_NUM_THREADS=1:
    two single-thread seeds side by side outrun two seeds one after the other
    at two threads. The weight gradients do not depend on the thread count
    (nn.GRAD_BLOCK_ROWS), so neither do the bytes of a run."""
    n = workers(len(seeds))
    if n == 1:
        return [task(seed) for seed in seeds]
    context = multiprocessing.get_context("spawn")
    records = context.Queue()
    root = logging.getLogger()
    handlers = root.handlers or [logging.lastResort]
    listener = QueueListener(records, *handlers, respect_handler_level=True)
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    listener.start()
    try:
        with ProcessPoolExecutor(
            n, mp_context=context, initializer=_log_to_parent, initargs=(records, root.level)
        ) as pool:
            return list(pool.map(task, seeds))
    finally:
        listener.stop()
        if threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = threads


def run_configs(
    configs: list[RunConfig], corpora: dict[str, Corpus], out_root: Path
) -> list[dict]:
    """run_all of each config over their common seeds. Each seed is one task
    that runs every config (run_seed), so a teacher is fitted once per seed;
    map_seeds hands the tasks to worker processes. Only the parent writes
    each run's config.json, results.csv and summary.json, in seed order, so
    a run directory is the same bytes for any number of workers."""
    runs = []
    for cfg in configs:
        resolved = config_to_dict(cfg)
        run_dir = out_root / run_id_for(resolved)
        run_dir.mkdir(parents=True, exist_ok=True)
        write_report_json(run_dir / "config.json", resolved)
        runs.append((cfg, run_dir))
    per_seed = map_seeds(partial(run_seed, runs, corpora), configs[0].seeds)
    results = []
    for i, (_, run_dir) in enumerate(runs):
        rows = [row for seed_rows in per_seed for row in seed_rows[i]]
        write_results_csv(run_dir / "results.csv", rows)
        summary = median_summary(rows)
        write_report_json(run_dir / "summary.json", summary)
        results.append(
            {"run_id": run_dir.name, "run_dir": run_dir, "rows": rows, "summary": summary}
        )
    return results


def run_all(cfg: RunConfig, corpora: dict[str, Corpus], out_root: Path) -> dict:
    """Repeat run_single over cfg.seeds; write results.csv and summary.json."""
    return run_configs([cfg], corpora, out_root)[0]


def sweep_tau(
    cfg: RunConfig,
    corpora: dict[str, Corpus],
    out_root: Path,
    grid: tuple[float, ...] = TAU_GRID,
) -> dict:
    """Run the configured strategy at every grid temperature and report the
    improvement over the baseline model per dataset. Each seed's teacher is
    fitted once: the baseline model is the stage-1 model of every run."""
    if cfg.strategy == "baseline":
        raise ConfigError("sweep-tau needs a contrastive strategy, not 'baseline'")
    configs = [replace(cfg, strategy="baseline")] + [
        replace(cfg, stage2=replace(cfg.stage2, pairing=replace(cfg.stage2.pairing, tau=tau)))
        for tau in grid
    ]
    baseline, *swept = run_configs(configs, corpora, out_root)
    base_summary = baseline["summary"]

    sweep_rows = []
    runs = {}
    for tau, result in zip(grid, swept):
        runs[tau] = result["run_id"]
        for key, stats in result["summary"].items():
            base = base_summary[key]
            entry = {
                "tau": tau,
                "dataset": key,
                "median_srcc": stats["median_srcc"],
                "median_pcc": stats["median_pcc"],
            }
            for metric in ("srcc", "pcc"):
                b = base[f"median_{metric}"]
                v = stats[f"median_{metric}"]
                entry[f"{metric}_improvement_pct"] = (
                    None if b in (None, 0.0) or v is None
                    else 100.0 * (v - b) / abs(b)
                )
            sweep_rows.append(entry)

    sweep_dir = out_root / f"sweep_{run_id_for(config_to_dict(cfg))}"
    sweep_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(
        sweep_dir / "sweep_tau.json",
        {
            "strategy": cfg.strategy,
            "grid": list(grid),
            "baseline_run": baseline["run_id"],
            "runs": {str(k): v for k, v in runs.items()},
            "improvements": sweep_rows,
        },
    )
    return {"sweep_dir": sweep_dir, "rows": sweep_rows, "runs": runs}


def ablation_config(cfg: RunConfig, variant: str) -> RunConfig:
    """Config for one named ablation of the full pipeline."""
    if variant == "full":
        return cfg
    if variant == "wo_libri":
        return replace(cfg, ablation=replace(cfg.ablation, use_typical=False))
    if variant == "wo_unlabeled":
        return replace(cfg, ablation=replace(cfg.ablation, use_pseudo=False))
    if variant == "wo_var":
        return replace(cfg, stage2=replace(cfg.stage2, var_weight=0.0))
    if variant == "skip_stage1":
        return replace(cfg, ablation=replace(cfg.ablation, skip_stage1=True))
    if variant == "skip_stage2":
        return replace(cfg, ablation=replace(cfg.ablation, skip_stage2=True))
    raise ConfigError(f"unknown ablation variant '{variant}'")


def ablate(
    cfg: RunConfig,
    corpora: dict[str, Corpus],
    out_root: Path,
    variants: tuple[str, ...] = ABLATION_VARIANTS,
) -> dict:
    """Run every ablation variant plus its parent config; emit a summary that
    maps variant names to run ids and median metrics. Each seed's teacher is
    fitted once and shared by every variant that has one."""
    configs = [ablation_config(cfg, variant) for variant in variants]
    results = dict(zip(variants, run_configs(configs, corpora, out_root)))
    summary = {
        variant: {"run_id": r["run_id"], "summary": r["summary"]}
        for variant, r in results.items()
    }
    ablate_dir = out_root / f"ablate_{run_id_for(config_to_dict(cfg))}"
    ablate_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(ablate_dir / "ablate_summary.json", summary)
    return {"ablate_dir": ablate_dir, "results": results, "summary": summary}
