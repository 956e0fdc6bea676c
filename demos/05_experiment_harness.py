"""The experiment harness: multi-seed runs, the tau sweep, and ablations.

Everything below is also reachable from the command line (see README); this
script drives the same functions in-process on a small world and prints the
tables. Takes a minute or two.

Run from the repository root:

    python3 demos/05_experiment_harness.py

run_all over several seeds hands each seed to a spawned worker process,
which imports this script again; the __main__ guard keeps the workers from
running the demo themselves.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from sevreg.config import ModelConfig, RegressionStageConfig, RunConfig, Stage2Config
from sevreg.experiments import ablate, run_all, sweep_tau
from sevreg.synthetic import WorldConfig, build_world


def main() -> None:
    world_cfg = WorldConfig(
        feat_dim=8, signal_dims=4, nuisance_dims=3,
        n_labeled=400, n_unlabeled=160, n_typical=120, n_shifted_test=100,
        labeled_speakers=20, unlabeled_speakers=10, typical_speakers=6,
        shifted_speakers=8, t_range=(6, 12),
    )
    cfg = RunConfig(
        model=ModelConfig(hidden_dim=32, embed_dim=16),
        stage1=RegressionStageConfig(lr=3e-3, epochs=4),
        stage3=RegressionStageConfig(lr=3e-3, epochs=4),
        stage2=Stage2Config(batch_size=32),
        strategy="coarse",
        seeds=(0, 1, 2),
    )
    cfg.data.world = world_cfg
    corpora = build_world(world_cfg)

    with tempfile.TemporaryDirectory() as tmp:
        out_root = Path(tmp)

        # -------------------------------------------------------------------
        # Multi-seed run: per-seed rows plus a median summary
        # -------------------------------------------------------------------
        print("== run-all over 3 seeds ==")
        result = run_all(cfg, corpora, out_root)
        print("run id:", result["run_id"])
        for key, stats in result["summary"].items():
            print(f"  {key:24s} median srcc {stats['median_srcc']:.4f} "
                  f"(per seed: {[round(s, 3) for s in stats['srcc']]})")

        # -------------------------------------------------------------------
        # Temperature sweep with improvement over the baseline
        # -------------------------------------------------------------------
        print("\n== tau sweep (subset of the grid for speed) ==")
        sweep = sweep_tau(
            replace(cfg, seeds=(0,)), corpora, out_root, grid=(0.1, 10.0, 100.0)
        )
        print(f"{'tau':>6} {'dataset':24} {'median srcc':>12} {'vs baseline':>12}")
        for row in sweep["rows"]:
            delta = row["srcc_improvement_pct"]
            print(f"{row['tau']:6} {row['dataset']:24} {row['median_srcc']:12.4f} "
                  f"{'' if delta is None else f'{delta:+10.1f}%'}")

        # -------------------------------------------------------------------
        # Ablations: drop the typical corpus, the pseudo-labels, the variance
        # regularizer, or whole stages
        # -------------------------------------------------------------------
        print("\n== ablations (single seed) ==")
        abl = ablate(replace(cfg, seeds=(0,)), corpora, out_root)
        print(f"{'variant':14} {'in-domain srcc':>15} {'shifted srcc':>14}")
        for variant, r in abl["results"].items():
            summary = r["summary"]
            print(f"{variant:14} {summary['test/utterance']['median_srcc']:15.4f} "
                  f"{summary['shifted_test/speaker']['median_srcc']:14.4f}")
        print("\nskip_stage2 reproduces the baseline numbers exactly: without the")
        print("contrastive stage there is nothing for stage 3 to inherit")


if __name__ == "__main__":
    main()
