"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The end-to-end criteria train real models and take a few minutes.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gradcheck_cases as cases
import sevreg
from sevreg.cli import main as cli_main
from sevreg.config import ModelConfig, RegressionStageConfig, RunConfig, Stage2Config
from sevreg.contrastive import (
    PairingSpec,
    ntxent_loss,
    positive_pairs,
    simclr_loss,
    variance_reg,
    view_pairs,
)
from sevreg.data import split
from sevreg.evaluation import pcc, rank, srcc
from sevreg.experiments import ABLATION_VARIANTS, ablate, run_all, run_configs, sweep_tau
from sevreg.pipeline import evaluate, train_regression
from sevreg.synthetic import SyntheticSpec, WorldConfig, build_world, gen_synthetic_corpus
from test_contrastive import (
    batch_from_labels,
    brute_force_pairs,
    double_loop_ntxent,
    index_lists,
)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{status}] criterion {number}: {description}{suffix}"
    print(line)
    assert ok, line


# fast harness configuration shared by criteria 8-10
FAST_WORLD = WorldConfig(
    feat_dim=8,
    signal_dims=4,
    nuisance_dims=3,
    n_labeled=400,
    n_unlabeled=160,
    n_typical=120,
    n_shifted_test=100,
    labeled_speakers=20,
    unlabeled_speakers=10,
    typical_speakers=6,
    shifted_speakers=8,
    t_range=(6, 12),
)


def fast_config(**updates) -> RunConfig:
    cfg = RunConfig(
        model=ModelConfig(hidden_dim=32, embed_dim=16),
        stage1=RegressionStageConfig(lr=3e-3, epochs=4),
        stage3=RegressionStageConfig(lr=3e-3, epochs=4),
        stage2=Stage2Config(batch_size=32),
        seeds=(0,),
    )
    cfg.data.world = FAST_WORLD
    return replace(cfg, **updates) if updates else cfg


@pytest.fixture(scope="module")
def fast_corpora():
    return build_world(FAST_WORLD)


def test_criterion_01_gradient_suite():
    start = time.monotonic()
    results = cases.run_gradient_suite(n_instances=20, seed=0)
    elapsed = time.monotonic() - start
    failures = [(n, w, r) for n, w, r in results if w >= r]
    report(
        1,
        "gradient suite, 20 instances per op",
        not failures and elapsed < 30.0,
        f"{len(results)} ops, worst {max(w for _, w, _ in results):.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    for b in (4, 8, 12, 16):  # up to 2B = 32
        z = rng.standard_normal((2 * b, 16))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        batch = batch_from_labels(rng.uniform(1, 7, size=b))
        for strategy in ("sup", "dis", "con", "coarse"):
            pairs = positive_pairs(batch, PairingSpec(strategy=strategy))
            got = ntxent_loss(z, pairs, tau=0.5).value
            want = double_loop_ntxent(z, [list(p) for p in index_lists(pairs)], 0.5)
            worst = max(worst, abs(got - want))
        sim = simclr_loss(z, tau=0.5).value
        sim_want = double_loop_ntxent(z, [list(p) for p in index_lists(view_pairs(b))], 0.5)
        worst = max(worst, abs(sim - sim_want))

    pairing_ok = True
    for trial in range(100):
        b = int(rng.integers(2, 17))
        labels = rng.uniform(1.0, 7.0, size=b)
        if trial % 2:
            labels = rng.choice([1.0, 1.4, 2.5, 4.0, 6.9], size=b)
        batch = batch_from_labels(labels)
        for strategy in ("sup", "dis", "con", "coarse"):
            spec = PairingSpec(strategy=strategy)
            got = [list(p) for p in index_lists(positive_pairs(batch, spec))]
            if got != brute_force_pairs(batch.labels, spec):
                pairing_ok = False
    report(
        2,
        "loss oracles within 1e-10 and pairing matches brute force",
        worst < 1e-10 and pairing_ok,
        f"worst loss gap {worst:.1e}, 100 pairing batches x 4 strategies",
    )


def test_criterion_03_analytic_identities():
    rng = np.random.default_rng(1)
    z_row = rng.standard_normal(8)
    z_row /= np.linalg.norm(z_row)
    z_pair = np.vstack([z_row, z_row])
    zero_loss = ntxent_loss(z_pair, np.array([[False, True], [True, False]]), tau=0.5).value

    b = 6
    z = rng.standard_normal((2 * b, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    batch = batch_from_labels(np.linspace(1.0, 6.0, b))
    sup = ntxent_loss(z, positive_pairs(batch, PairingSpec(strategy="sup")), tau=0.7)
    sim = simclr_loss(z, tau=0.7)

    spread = rng.standard_normal((64, 4)) * 5.0
    inactive = variance_reg(spread, gamma=1.0).value
    collapsed = variance_reg(np.tile(rng.standard_normal(4), (6, 1)), gamma=1.0).value

    ok = (
        zero_loss == 0.0
        and sup.value == sim.value
        and np.array_equal(sup.grad, sim.grad)
        and inactive == 0.0
        and abs(collapsed - (1.0 - math.sqrt(1e-4))) < 1e-12
    )
    report(
        3,
        "B=1 NT-Xent = 0, sup == simclr on distinct labels, variance hinge values",
        ok,
        f"collapsed hinge {collapsed:.6f} vs gamma - sqrt(eps) {1.0 - math.sqrt(1e-4):.6f}",
    )


def test_criterion_04_paper_pairing_semantics():
    batch = batch_from_labels([2.4, 2.6, 1.7])
    dis = index_lists(positive_pairs(batch, PairingSpec(strategy="dis")))
    con = index_lists(positive_pairs(batch, PairingSpec(strategy="con", alpha=0.5)))
    boundary_ok = (
        1 not in dis[0] and 2 in dis[0] and 1 in con[0] and 2 not in con[0]
    )

    coarse_batch = batch_from_labels([1.0, 1.3, 1.5, 2.0, 6.0])
    coarse = index_lists(positive_pairs(coarse_batch, PairingSpec(strategy="coarse", beta=1.5)))
    low = {0, 1, 2, 5, 6, 7}   # labels <= 1.5 (typical side), both views
    high = {3, 4, 8, 9}        # labels > 1.5
    coarse_ok = all(
        set(coarse[i]) == (low if i in low else high) - {i} for i in range(10)
    )
    report(
        4,
        "anchor 2.4: 2.6 dis-neg/con-pos, 1.7 dis-pos/con-neg; beta groups label 1 with y <= 1.5",
        boundary_ok and coarse_ok,
    )


def test_criterion_05_metric_correctness():
    frozen_ok = (
        np.array_equal(rank([10, 20, 30]), [1, 2, 3])
        and np.array_equal(rank([5, 5]), [1.5, 1.5])
        and np.array_equal(rank([3, 1, 4, 1]), [3, 1.5, 4, 1.5])
        and abs(srcc([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12
        and abs(pcc([1, 2, 3], [1, 2, 4]) - 9 / math.sqrt(84)) < 1e-12
        and srcc([1, 2, 5], [10, 20, 21]) == pytest.approx(1.0)
        and srcc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    )

    rng = np.random.default_rng(2)
    a = rng.standard_normal(60)
    b = rng.standard_normal(60)
    base = srcc(a, b)
    invariant_ok = all(
        srcc(t(a), b) == base and srcc(a, t(b)) == base
        for t in (np.exp, lambda x: x**3, lambda x: 2 * x + 1)
    )

    closed_ok = True
    for _ in range(30):
        n = int(rng.integers(3, 40))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        d = rank(x) - rank(y)
        closed = 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))
        closed_ok &= abs(srcc(x, y) - closed) < 1e-12
    report(
        5,
        "srcc/pcc frozen examples, increasing-transform invariance, closed form",
        frozen_ok and invariant_ok and closed_ok,
    )


def test_criterion_06_stage1_on_synthetic():
    spec = SyntheticSpec(
        n_utts=2000,
        feat_dim=16,
        n_speakers=60,
        label_histogram=(1.0,) * 7,
        nuisance_label_corr=0.8,
    )
    corpus = gen_synthetic_corpus(spec, seed=0)
    parts = split(corpus, (0.7, 0.15, 0.15), seed=0)
    train, val, test = (
        corpus.take(idx, name) for idx, name in zip(parts, ("train", "val", "test"))
    )
    start = time.monotonic()
    result = train_regression(
        train, val, ModelConfig(), RegressionStageConfig(epochs=6), seed=0
    )
    elapsed = time.monotonic() - start
    score = evaluate(result.net, test, level="utterance").srcc
    report(
        6,
        "stage 1 on 2000 utterances reaches held-out SRCC >= 0.9 in < 60 s",
        score is not None and score >= 0.9 and elapsed < 60.0,
        f"srcc {score:.4f} after 6 epochs, {elapsed:.1f}s",
    )


def test_criterion_07_three_stage_cross_domain(tmp_path):
    world = WorldConfig()
    corpora = build_world(world)
    cfg = RunConfig(seeds=(0, 1, 2, 3, 4))
    cfg.data.world = world
    # baseline's final model is the stage-1 teacher fit that coarse
    # pseudo-labels with; the seed runner fits it once per seed for both
    start = time.monotonic()
    strategies = ("baseline", "coarse")
    results = run_configs(
        [replace(cfg, strategy=strategy) for strategy in strategies], corpora, tmp_path
    )
    metrics = {}
    for strategy, result in zip(strategies, results):
        rows = result["rows"]
        metrics[strategy] = tuple(
            float(np.median([r["srcc"] for r in rows if (r["dataset"], r["level"]) == key]))
            for key in (("test", "utterance"), ("shifted_test", "speaker"))
        )
    elapsed = time.monotonic() - start
    base_in, base_shift = metrics["baseline"]
    coarse_in, coarse_shift = metrics["coarse"]
    report(
        7,
        "coarse pipeline median shifted SRCC >= baseline, in-domain drop < 0.05",
        coarse_shift >= base_shift
        and (base_in - coarse_in) < 0.05
        and elapsed < 600.0,
        f"shifted {coarse_shift:.3f} vs {base_shift:.3f}, "
        f"in-domain {coarse_in:.3f} vs {base_in:.3f}, {elapsed:.0f}s",
    )


def test_criterion_08_ablation_harness(fast_corpora, tmp_path):
    cfg = fast_config(strategy="coarse")
    result = ablate(cfg, fast_corpora, tmp_path / "runs", variants=ABLATION_VARIANTS)
    summaries = result["results"]
    run_ids = [r["run_id"] for r in summaries.values()]
    per_variant_rows = {v: summaries[v]["rows"] for v in summaries}
    complete = all(len(rows) == 2 for rows in per_variant_rows.values())

    baseline = run_all(
        fast_config(strategy="baseline"), fast_corpora, tmp_path / "baseline"
    )

    def metric_rows(rows):
        return sorted(
            (r["dataset"], r["level"], r["seed"], r["srcc"], r["pcc"], r["n"])
            for r in rows
        )

    skip2_matches = metric_rows(per_variant_rows["skip_stage2"]) == metric_rows(
        baseline["rows"]
    )
    test_srccs = {
        v: next(r["srcc"] for r in rows if r["dataset"] == "test")
        for v, rows in per_variant_rows.items()
    }
    distinct = len({round(s, 12) for s in test_srccs.values()})
    report(
        8,
        "ablations all complete with distinct rows; skip-stage2 == baseline exactly",
        complete
        and len(set(run_ids)) == len(ABLATION_VARIANTS)
        and skip2_matches
        and distinct >= 4,
        f"{len(run_ids)} variants, {distinct} distinct test SRCCs",
    )


def test_criterion_09_run_all_determinism(tmp_path):
    world_doc = {
        "feat_dim": 8, "signal_dims": 4, "nuisance_dims": 3,
        "n_labeled": 400, "n_unlabeled": 160, "n_typical": 120,
        "n_shifted_test": 100, "labeled_speakers": 20,
        "unlabeled_speakers": 10, "typical_speakers": 6,
        "shifted_speakers": 8, "t_range": [6, 12],
    }
    doc = {
        "data": {"root": str(tmp_path / "data"), "world": world_doc},
        "model": {"hidden_dim": 32, "embed_dim": 16},
        "stage1": {"lr": 3e-3, "epochs": 4},
        "stage3": {"lr": 3e-3, "epochs": 4},
        "stage2": {"batch_size": 32},
        "strategy": "coarse",
        "seeds": [0],
        "run_root": str(tmp_path / "runsA"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    assert cli_main(["gen-data", "--config", str(config_path)]) == 0
    assert cli_main(["run-all", "--config", str(config_path)]) == 0
    run_a = next((tmp_path / "runsA").iterdir())

    # second invocation in a fresh process, redirected via the env root; the
    # child imports the package from the same source tree as this process
    src = str(Path(sevreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, SEVREG_RUN_ROOT=str(tmp_path / "runsB"))
    proc = subprocess.run(
        [sys.executable, "-m", "sevreg", "run-all", "--config", str(config_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    run_b = tmp_path / "runsB" / run_a.name

    compared = ["results.csv"]
    compared += [f"seed_0/{p.name}" for p in (run_a / "seed_0").glob("*.dsqc")]
    identical = all(
        (run_a / rel).read_bytes() == (run_b / rel).read_bytes() for rel in compared
    )
    report(
        9,
        "two run-all invocations produce byte-identical results.csv and checkpoints",
        identical and len(compared) >= 4,
        f"{len(compared)} files compared across processes",
    )


def test_criterion_10_temperature_sweep(fast_corpora, tmp_path):
    cfg = fast_config(strategy="coarse")
    result = sweep_tau(cfg, fast_corpora, tmp_path / "runs")
    rows = result["rows"]
    grid = sorted({row["tau"] for row in rows})
    finite = all(
        row["median_srcc"] is not None
        and np.isfinite(row["median_srcc"])
        and (row["srcc_improvement_pct"] is None or np.isfinite(row["srcc_improvement_pct"]))
        for row in rows
    )
    sweep_file = result["sweep_dir"] / "sweep_tau.json"
    report(
        10,
        "tau sweep over the full grid completes with a finite improvement table",
        grid == [0.1, 1.0, 10.0, 50.0, 100.0] and finite and sweep_file.exists(),
        f"{len(rows)} improvement rows",
    )
