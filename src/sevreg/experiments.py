"""Experiment flows: single runs, multi-seed runs, the temperature sweep,
and the ablation harness, with one worker process per seed. These produce
the run-directory artifacts; the files of a seed directory are written and
read by `Stages` alone, for run-all and the CLI stage commands alike."""

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
from .data import Corpus, atomic_write, label_histogram, pseudo_pool, split
from .errors import ConfigError, FeatureFormatError
from .evaluation import EvalReport, write_report_json, write_results_csv
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

# The config keys every stage reads; a checkpoint recording other values
# belongs to another chain.
LINEAGE_KEYS = ("seed", "model", "data.world")


def config_value(doc, key: str):
    """The value at a dotted key of a config document; None if absent."""
    for part in key.split("."):
        doc = doc.get(part) if isinstance(doc, dict) else None
    return doc


def split_labeled(labeled: Corpus, world: WorldConfig) -> tuple[Corpus, Corpus, Corpus]:
    """Speaker-disjoint train/val/test split, keyed to the world seed so every
    strategy sees the same partition."""
    parts = split(labeled, world.split, seed=world.seed)
    for part, name in zip(parts, ("train", "val", "test")):
        part.name = name
    return parts


@dataclass
class Teacher:
    """A regression fit from the seeded init (no transferred trunk) and, once
    asked for, the unlabeled pool pseudo-labelled by it. Readers get copies,
    so an entry shared through a memo never changes."""

    fit: StageResult
    pool: Corpus | None = None

    def result(self) -> StageResult:
        return StageResult(
            net=self.fit.net.copy(), history=[dict(h) for h in self.fit.history]
        )

    def pseudo(self, unlabeled: Corpus) -> Corpus:
        if self.pool is None:
            self.pool = pseudo_label(self.fit.net, unlabeled)
        return Corpus(list(self.pool.utterances), name=self.pool.name)


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
    """The stage steps of one (config, seed) run on a set of corpora. Both
    run_single and the CLI stage commands call them, so every strategy and
    ablation decision is made here, once.

    `memo` shares teachers between runs on the same corpora: a fit with no
    transferred trunk is made once per `teacher_key`."""

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

    @property
    def has_stage2(self) -> bool:
        return self.cfg.strategy != "baseline" and not self.cfg.ablation.skip_stage2

    @property
    def pseudo_labels(self) -> bool:
        """Whether the pool is the stage-1 teacher's pseudo-labels; otherwise
        no step reads the teacher fit of `stage1` or its pseudo-labels."""
        cfg = self.cfg
        return cfg.strategy not in ("baseline", "simclr") and not cfg.ablation.skip_stage1

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

    def pool(self, pseudo: Callable[[], Corpus]) -> Corpus | None:
        """The unlabeled pool as stage 2 would see it: none for `baseline`,
        raw for label-free `simclr`, wholly assumed dysarthric when stage 1
        is skipped, else the teacher's pseudo-labels that `pseudo` returns."""
        cfg = self.cfg
        if self.pseudo_labels:
            return pseudo()
        if cfg.strategy == "baseline":
            return None
        if cfg.strategy == "simclr":
            return self.corpora["unlabeled"]
        unlabeled = self.corpora["unlabeled"]
        return pseudo_pool(
            unlabeled,
            [cfg.ablation.assumed_dysarthric_label] * len(unlabeled),
            f"{unlabeled.name}/assumed",
        )

    def stage2(self, pool: Corpus | None) -> StageResult | None:
        """Contrastive pretraining on the labeled split, the pool and the
        typical corpus, each as the ablation switches allow; None when the
        config has no stage 2."""
        if not self.has_stage2:
            return None
        cfg = self.cfg
        mixed = build_stage2_corpus(
            self.train,
            pool if cfg.ablation.use_pseudo else None,
            self.corpora["typical"] if cfg.ablation.use_typical else None,
        )
        return train_stage2(mixed, cfg.model, cfg.stage2, self.seed, cfg.strategy)

    def final(self, stage2: Callable[[], AdaptorNet]) -> StageResult:
        """The evaluated model: a fine-tune from the trunk of the net `stage2`
        returns, or without a stage 2 the teacher fit of `stage1` (baseline)
        or `stage3` (stage 2 skipped)."""
        if not self.has_stage2:
            section = "stage1" if self.cfg.strategy == "baseline" else "stage3"
            return self.teacher(section).result()
        return train_stage3(self.train, self.val, self.cfg, stage2(), seed=self.seed)

    def evaluate(self, net: AdaptorNet) -> list[EvalReport]:
        """In-domain utterance-level and shifted speaker-level reports."""
        return [
            evaluate(net, self.test, level="utterance"),
            evaluate(net, self.corpora["shifted_test"], level="speaker"),
        ]

    def rows(self, reports: list[EvalReport]) -> list[dict]:
        return [
            {
                "run_id": self.run_id,
                "strategy": self.cfg.strategy,
                "dataset": r.dataset,
                "level": r.level,
                "seed": self.seed,
                "srcc": r.srcc,
                "pcc": r.pcc,
                "n": r.n,
            }
            for r in reports
        ]

    # -- the seed directory -------------------------------------------------

    def load(self, run_dir: Path, stage: str) -> AdaptorNet:
        """The net of a stage's checkpoint, through the strict reader; one
        made for another seed, model or world raises FeatureFormatError."""
        path = run_dir / CHECKPOINTS[stage]
        ckpt = load_checkpoint(path)
        recorded = ckpt.meta.get("config")
        if not isinstance(recorded, dict):
            raise FeatureFormatError(f"{path} records no config object")
        for key in LINEAGE_KEYS:
            if config_value(recorded, key) != config_value(self.resolved, key):
                raise FeatureFormatError(f"{path} was made with another {key} than this config")
        return net_from_checkpoint(ckpt)

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

    def save(
        self, run_dir: Path, results: dict[str, StageResult | None], history: dict | None = None
    ) -> None:
        """Write the checkpoint of each stage in `results` that ran, then
        history.json: `history` with the sections of `results` replaced."""
        run_dir.mkdir(parents=True, exist_ok=True)
        history = dict(history or {})
        for stage, result in results.items():
            history[stage] = result.history if result else []
            if result:
                ckpt = checkpoint_from_net(result.net, stage, self.resolved)
                save_checkpoint(run_dir / CHECKPOINTS[stage], ckpt)
        rows = {stage: history[stage] for stage in CHECKPOINTS}
        atomic_write(run_dir / "history.json", json.dumps(rows, indent=2) + "\n")

    @staticmethod
    def save_pool_histogram(run_dir: Path, pool: Corpus | None) -> None:
        """The label histogram of the stage-2 pool, when it is labelled."""
        if pool is not None and any(u.label is not None for u in pool):
            hist = {str(k): v for k, v in label_histogram(pool).items()}
            write_report_json(run_dir / "pseudo_histogram.json", hist)

    def save_report(self, run_dir: Path, reports: list[EvalReport]) -> None:
        report = {"run_id": self.run_id, "strategy": self.cfg.strategy, "seed": self.seed}
        report["reports"] = [r.to_dict() for r in reports]
        write_report_json(run_dir / "report.json", report)


def run_single(
    cfg: RunConfig,
    corpora: dict[str, Corpus],
    seed: int,
    run_dir: Path | None = None,
    memo: dict[str, Teacher] | None = None,
) -> dict:
    """One (strategy, seed) run: train the configured stages, evaluate the
    final model in-domain (utterance level) and on the shifted test corpus
    (speaker level), and optionally persist artifacts. Without a `memo`, a
    teacher is still shared between the stages of this run."""
    stages = Stages(cfg, corpora, seed, memo)
    stage1 = stages.teacher().fit if stages.pseudo_labels else None
    pool = stages.pool(lambda: stages.teacher().pseudo(corpora["unlabeled"]))
    stage2 = stages.stage2(pool)
    final = stages.final(lambda: stage2.net)
    reports = stages.evaluate(final.net)

    if run_dir is not None:
        stages.save(run_dir, {"stage1": stage1, "stage2": stage2, "final": final})
        stages.save_pool_histogram(run_dir, pool)
        stages.save_report(run_dir, reports)

    return {
        "run_id": stages.run_id,
        "rows": stages.rows(reports),
        "final": final,
        "reports": reports,
    }


def median_summary(rows: list[dict]) -> dict:
    """Per (dataset, level): per-seed values plus the across-seed medians."""
    grouped: dict = {}
    for row in rows:
        key = (row["dataset"], row["level"])
        grouped.setdefault(key, []).append(row)
    summary = {}
    for (dataset, level), entries in sorted(grouped.items()):
        srccs = [e["srcc"] for e in entries if e["srcc"] is not None]
        pccs = [e["pcc"] for e in entries if e["pcc"] is not None]
        summary[f"{dataset}/{level}"] = {
            "seeds": [e["seed"] for e in entries],
            "srcc": srccs,
            "pcc": pccs,
            "median_srcc": float(np.median(srccs)) if srccs else None,
            "median_pcc": float(np.median(pccs)) if pccs else None,
        }
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
