"""Command-line entry points for data generation, the three stages, and the
experiment harnesses. The stage chain `stage1` -> `stage2` -> `stage3` ->
`evaluate` is run-all's walk for one seed, `cfg.seed`, cut short: each
command makes its own step in the run directory from the checkpoint the one
before it left there, and trains nothing else. `run-all`, `sweep-tau` and
`ablate` take the whole walk, so a killed run resumes from what it saved.
Exit codes: 0 success, 1 validation error, 2 runtime failure."""

from __future__ import annotations

import argparse
import errno
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
from .pipeline import dump_embeddings, load_checkpoint, net_from_checkpoint
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


def output_file(path: str | Path) -> Path:
    """`path` as a file to write, checked before a command does any work: a
    directory there raises IsADirectoryError, and a parent directory that is
    missing or a file raises ConfigError."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not output_dir(path.parent).is_dir():
        raise ConfigError(f"directory '{path.parent}' of '{path}' does not exist")
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


# The one step each stage command makes.
STAGE_STEPS = {"stage1": "stage1", "stage2": "stage2", "stage3": "final"}


def cmd_stage(cfg: RunConfig, args) -> int:
    """run-all's walk over --run-dir cut short at this command's stage, which
    is the one step it makes; the step before is loaded from --run-dir."""
    run_dir = output_dir(args.run_dir)
    step = STAGE_STEPS[args.command]
    Stages(cfg, load_world(cfg), cfg.seed).run(run_dir, until=step, first=step)
    persist_config(cfg, run_dir)
    print(f"{args.command} checkpoint written to {run_dir / CHECKPOINTS[step]}")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    run_dir = output_dir(args.run_dir)
    stages = Stages(cfg, load_world(cfg), cfg.seed)
    if args.checkpoint:
        net = net_from_checkpoint(load_checkpoint(Path(args.checkpoint)))
        reports = stages.report(run_dir, net)
    else:
        reports = stages.run(run_dir, until="report", first="report")
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
    out = output_file(args.out)
    corpora = load_world(cfg)
    net = net_from_checkpoint(load_checkpoint(Path(args.checkpoint)))
    corpus = corpora[args.corpus]
    dump_embeddings(net, corpus, out)
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
    add("stage1", cmd_stage, "train the teacher and pseudo-label the pool", run_dir=True)
    add("stage2", cmd_stage, "weakly supervised contrastive pretraining", run_dir=True)
    add("stage3", cmd_stage, "transfer weights and fine-tune", run_dir=True)

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
