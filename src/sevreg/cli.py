"""Command-line entry points for data generation, the three stages, and the
experiment harnesses. Exit codes: 0 success, 1 validation error, 2 runtime
failure."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import RunConfig, apply_overrides, config_from_dict, config_to_dict
from .data import load_corpus, save_corpus
from .errors import ConfigError, SevregError, TrainingDivergedError
from .evaluation import write_report_json, write_results_csv
from .experiments import (
    ABLATION_VARIANTS, CHECKPOINTS, TAU_GRID, Stages, ablate, run_all, sweep_tau,
)
from .pipeline import dump_embeddings, load_checkpoint, net_from_checkpoint, pseudo_label
from .synthetic import build_world

logger = logging.getLogger(__name__)

RUN_ROOT_ENV = "SEVREG_RUN_ROOT"

CORPUS_NAMES = ("labeled", "unlabeled", "typical", "shifted_test")


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    doc = {}
    if path is not None:
        doc = json.loads(Path(path).read_text())
    doc = apply_overrides(doc, overrides)
    return config_from_dict(doc)


def output_dir(path: str | Path) -> Path:
    """`path` as a directory to write in; a file there or at a parent raises
    ConfigError, before a command trains or writes anything."""
    path = Path(path)
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise ConfigError(f"'{existing}' is a file, not a directory")
            break
    return path


def resolve_run_root(cfg: RunConfig) -> Path:
    return output_dir(os.environ.get(RUN_ROOT_ENV, cfg.run_root))


def load_world(cfg: RunConfig):
    root = Path(cfg.data.root)
    missing = [n for n in CORPUS_NAMES if not (root / n / "manifest.json").exists()]
    if missing:
        raise ConfigError(
            f"missing corpora under '{root}': {missing}; run gen-data first"
        )
    return {name: load_corpus(root / name) for name in CORPUS_NAMES}


def persist_config(cfg: RunConfig, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_report_json(directory / "config.json", config_to_dict(cfg))


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, args) -> int:
    root = output_dir(cfg.data.root)
    corpora = build_world(cfg.data.world)
    for name, corpus in corpora.items():
        save_corpus(corpus, root / name)
    persist_config(cfg, root)
    print(f"wrote {', '.join(CORPUS_NAMES)} under {root}")
    return 0


def stage_runner(cfg: RunConfig) -> Stages:
    """The stage commands run one seed, `cfg.seed`, by run-all's rules."""
    return Stages(cfg, load_world(cfg), cfg.seed)


def require_pseudo_labels(stages: Stages) -> None:
    if not stages.pseudo_labels:
        raise ConfigError(
            "this config reads no stage-1 teacher or pseudo-labels "
            "(strategy 'baseline' or 'simclr', or ablation.skip_stage1)"
        )


def cmd_stage1(cfg: RunConfig, args) -> int:
    run_dir = output_dir(args.run_dir)
    stages = stage_runner(cfg)
    require_pseudo_labels(stages)
    history = stages.read_history(run_dir)
    result = stages.teacher().fit
    persist_config(cfg, run_dir)
    stages.save(run_dir, {"stage1": result}, history)
    print(f"stage1 checkpoint written to {run_dir / CHECKPOINTS['stage1']}")
    return 0


def cmd_pseudo_label(cfg: RunConfig, args) -> int:
    run_dir = output_dir(args.run_dir)
    stages = stage_runner(cfg)
    require_pseudo_labels(stages)
    pseudo = pseudo_label(stages.load(run_dir, "stage1"), stages.corpora["unlabeled"])
    save_corpus(pseudo, run_dir / "pseudo")
    stages.save_pool_histogram(run_dir, pseudo)
    print(f"pseudo-labeled corpus written to {run_dir / 'pseudo'}")
    return 0


def cmd_stage2(cfg: RunConfig, args) -> int:
    run_dir = output_dir(args.run_dir)
    stages = stage_runner(cfg)
    if not stages.has_stage2:
        raise ConfigError(
            "this config trains no stage 2 (strategy 'baseline' or ablation.skip_stage2)"
        )
    history = stages.read_history(run_dir)
    pool = stages.pool(lambda: load_corpus(run_dir / "pseudo"))
    result = stages.stage2(pool)
    persist_config(cfg, run_dir)
    stages.save(run_dir, {"stage2": result}, history)
    stages.save_pool_histogram(run_dir, pool)
    print(f"stage2 checkpoint written to {run_dir / CHECKPOINTS['stage2']}")
    return 0


def cmd_stage3(cfg: RunConfig, args) -> int:
    run_dir = output_dir(args.run_dir)
    stages = stage_runner(cfg)
    history = stages.read_history(run_dir)
    result = stages.final(lambda: stages.load(run_dir, "stage2"))
    persist_config(cfg, run_dir)
    stages.save(run_dir, {"final": result}, history)
    print(f"final model written to {run_dir / CHECKPOINTS['final']}")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    run_dir = output_dir(args.run_dir)
    stages = stage_runner(cfg)
    if args.checkpoint:
        net = net_from_checkpoint(load_checkpoint(Path(args.checkpoint)))
    else:
        net = stages.load(run_dir, "final")
    reports = stages.evaluate(net)
    stages.save_report(run_dir, reports)
    write_results_csv(run_dir / "results.csv", stages.rows(reports))
    for r in reports:
        tag = " [FLAGGED: " + r.flag_reason + "]" if r.flagged else ""
        print(f"{r.dataset}/{r.level}: srcc={r.srcc} pcc={r.pcc} n={r.n}{tag}")
    return 0


def cmd_run_all(cfg: RunConfig, args) -> int:
    corpora = load_world(cfg)
    result = run_all(cfg, corpora, resolve_run_root(cfg))
    print(f"run {result['run_id']} complete: {result['run_dir'] / 'results.csv'}")
    return 0


def cmd_sweep_tau(cfg: RunConfig, args) -> int:
    corpora = load_world(cfg)
    grid = tuple(args.grid) if args.grid else TAU_GRID
    result = sweep_tau(cfg, corpora, resolve_run_root(cfg), grid=grid)
    print(f"sweep complete: {result['sweep_dir'] / 'sweep_tau.json'}")
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
    corpora = load_world(cfg)
    variants = tuple(args.variants) if args.variants else ABLATION_VARIANTS
    result = ablate(cfg, corpora, resolve_run_root(cfg), variants=variants)
    print(f"ablations complete: {result['ablate_dir'] / 'ablate_summary.json'}")
    return 0


def cmd_dump_embeddings(cfg: RunConfig, args) -> int:
    corpora = load_world(cfg)
    net = net_from_checkpoint(load_checkpoint(Path(args.checkpoint)))
    corpus = corpora[args.corpus]
    dump_embeddings(net, corpus, Path(args.out))
    print(f"embeddings for '{args.corpus}' written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sevreg",
        description="Weakly supervised severity regression experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, run_dir=False, extra=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (defaults apply)")
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="key.path=value",
            help="dotted-path config overrides",
        )
        if run_dir:
            p.add_argument("--run-dir", required=True, help="stage artifact directory")
        if extra:
            extra(p)
        p.set_defaults(fn=fn)
        return p

    add("gen-data", cmd_gen_data, "generate the synthetic corpora")
    add("stage1", cmd_stage1, "train the teacher regression model", run_dir=True)
    add(
        "pseudo-label", cmd_pseudo_label,
        "pseudo-label the unlabeled pool with a stage-1 checkpoint", run_dir=True,
    )
    add("stage2", cmd_stage2, "weakly supervised contrastive pretraining", run_dir=True)
    add("stage3", cmd_stage3, "transfer weights and fine-tune", run_dir=True)

    def eval_extra(p):
        p.add_argument("--checkpoint", help="model checkpoint (default run-dir/model.dsqc)")

    add("evaluate", cmd_evaluate, "evaluate a checkpoint", run_dir=True, extra=eval_extra)
    add("run-all", cmd_run_all, "full multi-seed pipeline run")

    def sweep_extra(p):
        p.add_argument("--grid", type=float, nargs="*", help="temperature grid")

    add("sweep-tau", cmd_sweep_tau, "temperature sweep with baseline comparison",
        extra=sweep_extra)

    def ablate_extra(p):
        p.add_argument(
            "--variants", nargs="*", choices=ABLATION_VARIANTS,
            help="subset of ablation variants",
        )

    add("ablate", cmd_ablate, "data/loss/stage ablation harness", extra=ablate_extra)

    def dump_extra(p):
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--corpus", choices=CORPUS_NAMES, default="labeled")
        p.add_argument("--out", required=True)

    add("dump-embeddings", cmd_dump_embeddings, "write post-pooling embeddings",
        extra=dump_extra)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
    except (SevregError, OSError, ValueError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(cfg, args)
    except TrainingDivergedError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except (SevregError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
