"""Teacher reuse in the experiment harnesses: each seed's stage-1 fit is made
once per sweep_tau / ablate call, and the artifacts match separate runs and
do not depend on the number of worker processes."""

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sevreg import experiments, pipeline
from sevreg.config import (
    ModelConfig,
    RegressionStageConfig,
    RunConfig,
    Stage2Config,
    config_from_dict,
    config_to_dict,
)
from sevreg.experiments import (
    ABLATION_VARIANTS,
    Teacher,
    ablate,
    ablation_config,
    run_all,
    split_labeled,
    sweep_tau,
    teacher_key,
)
from sevreg.synthetic import WorldConfig, build_world

WORLD = WorldConfig(
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
SEEDS = (0, 1)
GRID = (1.0, 10.0)


def fast_cfg(**kw) -> RunConfig:
    cfg = RunConfig(
        model=ModelConfig(hidden_dim=32, embed_dim=16),
        stage1=RegressionStageConfig(lr=3e-3, epochs=2),
        stage3=RegressionStageConfig(lr=3e-3, epochs=2),
        stage2=Stage2Config(batch_size=32, epochs=1),
        seeds=SEEDS,
    )
    cfg.data.world = WORLD
    return replace(cfg, **kw) if kw else cfg


@pytest.fixture(scope="module")
def corpora():
    return build_world(WORLD)


def counted(harness, *args, **kwargs):
    """Run a harness in this process, so the patched train_regression sees
    every call; return its result, the calls made from the seeded init (no
    transferred trunk, i.e. teacher fits) and all calls."""
    calls = []
    real = pipeline.train_regression

    def counting(*a, **kw):
        calls.append(kw.get("init_trunk") is None)
        return real(*a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "train_regression", counting)
        mp.setattr(pipeline, "train_regression", counting)
        mp.setattr(experiments, "workers", lambda n_seeds: 1)
        result = harness(*args, **kwargs)
    return result, sum(calls), len(calls)


def run_dirs(out_root: Path) -> list[Path]:
    return sorted(p for p in out_root.iterdir() if (p / "config.json").exists())


def assert_matches_separate_runs(out_root: Path, corpora, fresh_root: Path) -> int:
    """Every results.csv and checkpoint under out_root equals the one a
    separate run_all of the same resolved config writes; returns the count."""
    compared = 0
    for run_dir in run_dirs(out_root):
        cfg = config_from_dict(json.loads((run_dir / "config.json").read_text()))
        alone = run_all(cfg, corpora, fresh_root)["run_dir"]
        assert alone.name == run_dir.name
        files = [run_dir / "results.csv", *sorted(run_dir.rglob("*.dsqc"))]
        for path in files:
            rel = path.relative_to(run_dir)
            assert path.read_bytes() == (alone / rel).read_bytes(), rel
        compared += len(files)
    return compared


@pytest.fixture(scope="module")
def swept(corpora, tmp_path_factory):
    out_root = tmp_path_factory.mktemp("sweep") / "runs"
    _, teacher_fits, calls = counted(sweep_tau, fast_cfg(), corpora, out_root, grid=GRID)
    return out_root, teacher_fits, calls


@pytest.fixture(scope="module")
def ablated(corpora, tmp_path_factory):
    out_root = tmp_path_factory.mktemp("ablate") / "runs"
    _, teacher_fits, calls = counted(ablate, fast_cfg(), corpora, out_root)
    return out_root, teacher_fits, calls


class TestTeacherFits:
    def test_sweep_fits_each_teacher_once(self, swept):
        _, teacher_fits, calls = swept
        assert teacher_fits == len(SEEDS)
        # the rest are the stage-3 fine-tunes of the grid temperatures
        assert calls - teacher_fits == len(SEEDS) * len(GRID)

    def test_ablate_fits_each_teacher_once(self, ablated):
        _, teacher_fits, calls = ablated
        assert teacher_fits == len(SEEDS)
        # skip_stage2's stage 3 is the teacher; the other five transfer a trunk
        assert calls - teacher_fits == len(SEEDS) * (len(ABLATION_VARIANTS) - 1)

    def test_changed_stage3_section_is_a_new_fit(self, corpora, tmp_path):
        cfg = fast_cfg(seeds=(0,), stage3=RegressionStageConfig(lr=2e-3, epochs=2))
        _, teacher_fits, _ = counted(
            ablate, cfg, corpora, tmp_path / "runs", variants=("full", "skip_stage2")
        )
        assert teacher_fits == 2

    def test_skip_stage2_run_shares_its_teacher_with_stage3(self, corpora, tmp_path):
        cfg = ablation_config(fast_cfg(), "skip_stage2")
        _, teacher_fits, calls = counted(run_all, cfg, corpora, tmp_path / "runs")
        assert teacher_fits == calls == len(SEEDS)


class TestByteIdentity:
    def test_sweep_matches_separate_run_all(self, swept, corpora, tmp_path):
        out_root, _, _ = swept
        assert len(run_dirs(out_root)) == 1 + len(GRID)
        assert assert_matches_separate_runs(out_root, corpora, tmp_path) > 0

    def test_ablate_matches_separate_run_all(self, ablated, corpora, tmp_path):
        out_root, _, _ = ablated
        assert len(run_dirs(out_root)) == len(ABLATION_VARIANTS)
        assert assert_matches_separate_runs(out_root, corpora, tmp_path) > 0


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestWorkers:
    @pytest.mark.parametrize("harness", ["sweep", "ablate"])
    def test_workers_write_the_in_process_files(self, harness, swept, ablated, corpora,
                                               tmp_path, monkeypatch):
        in_process = {"sweep": swept, "ablate": ablated}[harness][0]
        monkeypatch.setattr(experiments, "workers", lambda n_seeds: n_seeds)
        out_root = tmp_path / "runs"
        if harness == "sweep":
            sweep_tau(fast_cfg(), corpora, out_root, grid=GRID)
        else:
            ablate(fast_cfg(), corpora, out_root)
        expected = tree(in_process)
        assert sum(name.endswith("model.dsqc") for name in expected) > len(SEEDS)
        assert tree(out_root) == expected

    def test_one_seed_runs_in_process(self, corpora, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-seed run started a worker pool")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        result = run_all(fast_cfg(seeds=(1,)), corpora, tmp_path / "runs")
        assert [row["seed"] for row in result["rows"]] == [1, 1]


class TestFramesOnce:
    def test_each_utterance_normalizes_once(self):
        from sevreg import data

        corpora = build_world(WORLD)  # fresh: no utterance has made its frames
        holders = Counter(id(u.features) for c in corpora.values() for u in c)
        # the pseudo-labelled pool: new utterances over the unlabeled features
        holders.update(id(u.features) for u in corpora["unlabeled"])
        calls = Counter()
        real = data.normalize_frames

        def counting(h):
            calls[id(h)] += 1
            return real(h)

        memo: dict[str, Teacher] = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "normalize_frames", counting)
            experiments.run_single(fast_cfg(strategy="coarse"), corpora, 0, memo=memo)
            assert calls and all(n <= holders[key] for key, n in calls.items())
            calls.clear()
            # the same utterances and the memoised pool: nothing is left to make
            experiments.run_single(fast_cfg(strategy="dis"), corpora, 0, memo=memo)
            assert not calls


class TestTeacherMemo:
    def test_key_ignores_stage2_and_strategy(self):
        a = config_to_dict(fast_cfg())
        b = config_to_dict(
            fast_cfg(strategy="dis", stage2=Stage2Config(batch_size=16, var_weight=0.0))
        )
        assert teacher_key(a, "stage1", 0) == teacher_key(b, "stage1", 0)
        assert teacher_key(a, "stage1", 0) == teacher_key(a, "stage3", 0)
        assert teacher_key(a, "stage1", 0) != teacher_key(a, "stage1", 1)

    def test_handed_out_copies_leave_entry_unchanged(self, corpora):
        train, val, _ = split_labeled(corpora["labeled"], WORLD)
        cfg = fast_cfg()
        entry = Teacher(pipeline.train_regression(train, val, cfg.model, cfg.stage1, 0))
        before = {k: v.copy() for k, v in entry.fit.net.param_arrays().items()}
        out = entry.result()
        for value in out.net.param_arrays().values():
            value += 1.0
        out.history[0]["train_loss"] = -1.0
        pool = entry.pseudo(corpora["unlabeled"])
        pool.utterances.clear()
        for name, value in entry.fit.net.param_arrays().items():
            assert np.array_equal(value, before[name])
        assert entry.fit.history[0]["train_loss"] != -1.0
        assert len(entry.pseudo(corpora["unlabeled"])) == len(corpora["unlabeled"])
