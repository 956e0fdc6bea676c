"""Experiment flows: single runs, multi-seed runs, the temperature sweep,
and the ablation harness. These produce the run-directory artifacts
(resolved config, checkpoints, report.json, results.csv)."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, config_to_dict, run_id_for
from .data import Corpus, Utterance, label_histogram, split
from .errors import ConfigError
from .evaluation import write_report_json, write_results_csv
from .pipeline import (
    Checkpoint,
    StageResult,
    build_stage2_corpus,
    checkpoint_from_net,
    evaluate,
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


def split_labeled(labeled: Corpus, world: WorldConfig) -> tuple[Corpus, Corpus, Corpus]:
    """Speaker-disjoint train/val/test split, keyed to the world seed so every
    strategy sees the same partition."""
    parts = split(labeled, world.split, seed=world.seed)
    for part, name in zip(parts, ("train", "val", "test")):
        part.name = name
    return parts


def _assume_dysarthric(unlabeled: Corpus, label: float) -> Corpus:
    """Stage-1-skipped fallback: the whole pool is treated as dysarthric."""
    utts = [
        Utterance(
            id=u.id, speaker_id=u.speaker_id, features=u.features,
            label=label, provenance="pseudo",
        )
        for u in unlabeled
    ]
    return Corpus(utts, name=f"{unlabeled.name}/assumed")


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


def run_single(
    cfg: RunConfig,
    corpora: dict[str, Corpus],
    seed: int,
    run_dir: Path | None = None,
    memo: dict[str, Teacher] | None = None,
) -> dict:
    """One (strategy, seed) run: train the configured stages, evaluate the
    final model in-domain (utterance level) and on the shifted test corpus
    (speaker level), and optionally persist artifacts.

    `memo` shares teachers between runs on the same corpora: a fit with no
    transferred trunk is made once per `teacher_key`. Without one, a teacher
    is still shared between the stages of this run."""
    train, val, test = split_labeled(corpora["labeled"], cfg.data.world)
    resolved = config_to_dict(cfg)
    rid = run_id_for(resolved, seed=seed)
    memo = {} if memo is None else memo

    def teacher(section: str) -> Teacher:
        key = teacher_key(resolved, section, seed)
        if key not in memo:
            memo[key] = Teacher(
                train_regression(train, val, cfg.model, getattr(cfg, section), seed)
            )
        return memo[key]

    artifacts: dict[str, StageResult | Checkpoint | None] = {
        "stage1": None, "stage2": None,
    }
    pseudo_hist = None

    if cfg.strategy == "baseline":
        final = teacher("stage1").result()
    else:
        pseudo = None
        if cfg.strategy != "simclr" and not cfg.ablation.skip_stage1:
            stage1 = teacher("stage1")
            artifacts["stage1"] = stage1.result()
            pseudo = stage1.pseudo(corpora["unlabeled"])
            pseudo_hist = label_histogram(pseudo)
        elif cfg.strategy != "simclr" and cfg.ablation.skip_stage1:
            pseudo = _assume_dysarthric(
                corpora["unlabeled"], cfg.ablation.assumed_dysarthric_label
            )
            pseudo_hist = label_histogram(pseudo)

        ckpt = None
        if not cfg.ablation.skip_stage2:
            if cfg.strategy == "simclr":
                # Label-free pretraining: the raw pool participates unlabeled.
                pool = corpora["unlabeled"] if cfg.ablation.use_pseudo else None
            else:
                pool = pseudo if cfg.ablation.use_pseudo else None
            mixed = build_stage2_corpus(
                train,
                pool,
                corpora["typical"] if cfg.ablation.use_typical else None,
            )
            stage2 = train_stage2(mixed, cfg.model, cfg.stage2, seed, cfg.strategy)
            artifacts["stage2"] = stage2
            ckpt = checkpoint_from_net(stage2.net, "stage2", resolved)
        if ckpt is None:
            # Stage 3 without a trunk is a fit from the seeded init.
            final = teacher("stage3").result()
        else:
            final = train_stage3(train, val, cfg, ckpt, seed=seed)

    reports = [
        evaluate(final.net, test, level="utterance"),
        evaluate(final.net, corpora["shifted_test"], level="speaker"),
    ]
    rows = [
        {
            "run_id": rid,
            "strategy": cfg.strategy,
            "dataset": r.dataset,
            "level": r.level,
            "seed": seed,
            "srcc": r.srcc,
            "pcc": r.pcc,
            "n": r.n,
        }
        for r in reports
    ]

    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        write_report_json(
            run_dir / "report.json",
            {
                "run_id": rid,
                "strategy": cfg.strategy,
                "seed": seed,
                "reports": [r.to_dict() for r in reports],
            },
        )
        (run_dir / "history.json").write_text(
            json.dumps(
                {
                    "stage1": artifacts["stage1"].history if artifacts["stage1"] else [],
                    "stage2": artifacts["stage2"].history if artifacts["stage2"] else [],
                    "final": final.history,
                },
                indent=2,
            )
            + "\n"
        )
        if pseudo_hist is not None:
            write_report_json(
                run_dir / "pseudo_histogram.json",
                {str(k): v for k, v in pseudo_hist.items()},
            )
        if artifacts["stage1"] is not None:
            save_checkpoint(
                run_dir / "stage1.dsqc",
                checkpoint_from_net(artifacts["stage1"].net, "stage1", resolved),
            )
        if artifacts["stage2"] is not None:
            save_checkpoint(
                run_dir / "stage2.dsqc",
                checkpoint_from_net(artifacts["stage2"].net, "stage2", resolved),
            )
        save_checkpoint(
            run_dir / "model.dsqc",
            checkpoint_from_net(final.net, "final", resolved),
        )

    return {"run_id": rid, "rows": rows, "final": final, "reports": reports}


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


def run_all(
    cfg: RunConfig,
    corpora: dict[str, Corpus],
    out_root: Path,
    memo: dict[str, Teacher] | None = None,
) -> dict:
    """Repeat run_single over cfg.seeds; write results.csv and summary.json.
    `memo` is handed to every run_single."""
    resolved = config_to_dict(cfg)
    rid = run_id_for(resolved)
    run_dir = out_root / rid
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    )
    rows: list[dict] = []
    for seed in cfg.seeds:
        result = run_single(
            cfg, corpora, seed, run_dir=run_dir / f"seed_{seed}", memo=memo
        )
        rows.extend(result["rows"])
    write_results_csv(run_dir / "results.csv", rows)
    summary = median_summary(rows)
    write_report_json(run_dir / "summary.json", summary)
    return {"run_id": rid, "run_dir": run_dir, "rows": rows, "summary": summary}


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
    memo: dict[str, Teacher] = {}
    base_cfg = replace(cfg, strategy="baseline")
    baseline = run_all(base_cfg, corpora, out_root, memo=memo)
    base_summary = baseline["summary"]

    sweep_rows = []
    runs = {}
    for tau in grid:
        tau_cfg = replace(
            cfg, stage2=replace(cfg.stage2, pairing=replace(cfg.stage2.pairing, tau=tau))
        )
        result = run_all(tau_cfg, corpora, out_root, memo=memo)
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
    memo: dict[str, Teacher] = {}
    results = {}
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise ConfigError(f"unknown ablation variant '{variant}'")
        result = run_all(ablation_config(cfg, variant), corpora, out_root, memo=memo)
        results[variant] = result
    summary = {
        variant: {"run_id": r["run_id"], "summary": r["summary"]}
        for variant, r in results.items()
    }
    ablate_dir = out_root / f"ablate_{run_id_for(config_to_dict(cfg))}"
    ablate_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(ablate_dir / "ablate_summary.json", summary)
    return {"ablate_dir": ablate_dir, "results": results, "summary": summary}
