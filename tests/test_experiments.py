"""Teacher reuse in the experiment harnesses: each seed's stage-1 fit is made
once per sweep_tau / ablate call, and the artifacts match separate runs and
do not depend on the number of worker processes."""

import json
import shutil
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
    median_summary,
    run_all,
    split_labeled,
    sweep_tau,
    teacher_key,
)
from sevreg.synthetic import build_world
from worlds import FAST_WORLD as WORLD

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


class Killed(Exception):
    """Stands in for a kill of the run."""


def kill_at(monkeypatch, name: str, call: int, seed: int | None = None) -> None:
    """Make experiments.<name> raise Killed on its `call`-th call (1-based),
    counting only the calls for `seed` when it is given (run_single)."""
    real, seen = getattr(experiments, name), []

    def dying(*args, **kwargs):
        if seed is None or args[2] == seed:
            seen.append(1)
            if len(seen) == call:
                raise Killed(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, dying)


@pytest.fixture(scope="module")
def fresh_run(corpora, tmp_path_factory):
    """The files of one uninterrupted in-process run_all of fast_cfg()."""
    out_root = tmp_path_factory.mktemp("fresh") / "runs"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "workers", lambda n_seeds: 1)
        run_all(fast_cfg(), corpora, out_root)
    return tree(out_root)


class TestResume:
    """A run killed at any point and run again trains only what it had not
    committed, and leaves the bytes of an uninterrupted run."""

    def test_sweep_killed_between_seeds(self, swept, corpora, tmp_path, monkeypatch):
        out_root = tmp_path / "runs"
        monkeypatch.setattr(experiments, "workers", lambda n_seeds: 1)
        with monkeypatch.context() as mp:
            kill_at(mp, "run_single", call=1, seed=1)
            with pytest.raises(Killed):
                sweep_tau(fast_cfg(), corpora, out_root, grid=GRID)
        assert not list(out_root.rglob("seed_1"))
        _, teacher_fits, calls = counted(sweep_tau, fast_cfg(), corpora, out_root, grid=GRID)
        assert (teacher_fits, calls) == (1, 1 + len(GRID))  # seed 1's alone
        assert tree(out_root) == tree(swept[0])

    @pytest.mark.parametrize(
        "name, call",
        [("save_checkpoint", 2), ("train_stage3", 1), ("evaluate", 1)],
        ids=["before_stage2_checkpoint", "in_stage3", "before_report"],
    )
    def test_run_all_killed_inside_a_seed(
        self, fresh_run, corpora, tmp_path, monkeypatch, name, call
    ):
        out_root = tmp_path / "runs"
        monkeypatch.setattr(experiments, "workers", lambda n_seeds: 1)
        with monkeypatch.context() as mp:
            kill_at(mp, name, call)
            with pytest.raises(Killed):
                run_all(fast_cfg(), corpora, out_root)
        (seed_dir,) = out_root.glob("*/seed_0")
        committed = {p.name: p.read_bytes() for p in seed_dir.glob("*.dsqc")}
        stage2_fits = []
        real = experiments.train_stage2
        monkeypatch.setattr(
            experiments, "train_stage2", lambda *a, **kw: stage2_fits.append(1) or real(*a, **kw)
        )
        _, teacher_fits, _ = counted(run_all, fast_cfg(), corpora, out_root)
        # seed 0 loads its committed stages, seed 1 trains all of its own
        assert teacher_fits == 1
        assert len(stage2_fits) == (1 if "stage2.dsqc" in committed else 2)
        assert {n: (seed_dir / n).read_bytes() for n in committed} == committed
        assert tree(out_root) == fresh_run

    def test_run_killed_under_one_root_resumes_under_another(
        self, corpora, tmp_path, monkeypatch
    ):
        """A run killed under run root and data root A, moved and resumed
        under B, equals an uninterrupted run under B: a run's files record
        no path."""

        def cfg_at(root: Path) -> RunConfig:
            cfg = fast_cfg(run_root=str(root / "runs"))
            cfg.data.root = str(root / "data")
            return cfg

        monkeypatch.setattr(experiments, "workers", lambda n_seeds: 1)
        with monkeypatch.context() as mp:
            kill_at(mp, "train_stage3", 1)
            with pytest.raises(Killed):
                run_all(cfg_at(tmp_path / "A"), corpora, tmp_path / "A" / "runs")
        (tmp_path / "B").mkdir()
        (tmp_path / "A" / "runs").rename(tmp_path / "B" / "runs")
        out_root = tmp_path / "B" / "runs"
        _, teacher_fits, _ = counted(run_all, cfg_at(tmp_path / "B"), corpora, out_root)
        assert teacher_fits == 1  # seed 0 loads its stage-2 checkpoint
        resumed = tree(out_root)
        shutil.rmtree(out_root)
        run_all(cfg_at(tmp_path / "B"), corpora, out_root)
        assert resumed == tree(out_root)

    def test_finished_run_reads_its_reports(self, fresh_run, corpora, tmp_path, monkeypatch):
        out_root = tmp_path / "runs"
        for name, data in fresh_run.items():
            (out_root / name).parent.mkdir(parents=True, exist_ok=True)
            (out_root / name).write_bytes(data)
        for name in ("train_regression", "train_stage2", "train_stage3", "evaluate"):
            monkeypatch.setattr(experiments, name, pytest.fail)
        monkeypatch.setattr(experiments, "workers", lambda n_seeds: 1)
        result = run_all(fast_cfg(), corpora, out_root)
        assert [row["seed"] for row in result["rows"]] == [0, 0, 1, 1]
        assert tree(out_root) == fresh_run


def normalize_calls(fn) -> list[tuple[int, int]]:
    """The shapes of the normalize_frames calls made while fn() runs."""
    from sevreg import data

    calls = []
    real = data.normalize_frames

    def counting(h):
        calls.append(h.shape)
        return real(h)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "normalize_frames", counting)
        fn()
    return calls


class TestNormalizeOutsideTheStepLoop:
    """Rows are normalised where a fit or an evaluation gathers them: once
    per regression or stage-2 fit and once per evaluation chunk, never once
    per training step."""

    def test_building_a_world_normalizes_nothing(self):
        assert normalize_calls(lambda: build_world(WORLD)) == []

    def test_calls_do_not_grow_with_the_step_count(self, corpora):
        def calls(batch_size):
            cfg = fast_cfg(
                strategy="coarse",
                stage1=RegressionStageConfig(lr=3e-3, epochs=2, batch_size=batch_size),
                stage3=RegressionStageConfig(lr=3e-3, epochs=2, batch_size=batch_size),
                stage2=Stage2Config(batch_size=batch_size, epochs=1),
            )
            return normalize_calls(lambda: experiments.run_single(cfg, corpora, 0))

        few_steps = calls(32)
        train, _, _ = split_labeled(corpora["labeled"], WORLD)
        rows = [len(c.stored().rows) for c in (train, corpora["unlabeled"], corpora["typical"])]
        # stages 1 and 3 gather the training split once each, stage 2 its mix
        assert few_steps.count((rows[0], WORLD.feat_dim)) == 2
        assert few_steps.count((sum(rows), WORLD.feat_dim)) == 1
        assert calls(8) == few_steps


class TestStage2HoldsTheMixOnce:
    """On the default world, Stages.stage2 hands the concatenated float32 mix
    to train_stage2 unnamed, and train_stage2 keeps only its normalised
    float64 rows. Holding the float32 mix through the steps added 2.6 MB to
    the peak, about one hidden-layer array of a step."""

    def test_first_step(self, monkeypatch):
        import tracemalloc
        import weakref

        cfg = RunConfig()
        corpora = build_world(cfg.data.world)
        stages = experiments.Stages(cfg, corpora, seed=0)
        unlabeled = corpora["unlabeled"]
        pool = unlabeled.with_labels(np.full(len(unlabeled), 4.0), "pool")  # no teacher fit
        seen = {}
        real_concat, real_forward = pipeline.concat, pipeline.forward_batch

        def concat(parts, name):
            mix = real_concat(parts, name)
            seen["mix"] = weakref.ref(mix.features)
            seen["mix_f64_bytes"] = mix.features.size * np.dtype(np.float64).itemsize
            return mix

        class FirstStepDone(Exception):
            pass

        def forward(net, seqs, training=False, rng=None):
            if "layer_bytes" in seen:
                raise FirstStepDone
            seen["mix_alive"] = seen["mix"]() is not None
            seen["layer_bytes"] = len(seqs.rows) * net.hidden_dim * net.dtype.itemsize
            seen["net_bytes"] = net.flat.nbytes
            return real_forward(net, seqs, training, rng)

        monkeypatch.setattr(pipeline, "concat", concat)
        monkeypatch.setattr(pipeline, "forward_batch", forward)
        tracemalloc.start()
        try:
            with pytest.raises(FirstStepDone):
                stages.stage2(pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seen["mix_alive"] is False
        # Before its first step a fit holds the net and the optimizer's four
        # arrays of its size (two moments, two step buffers); a step adds
        # under 3.5 hidden-layer arrays (test_nn). With the float32 mix
        # alive this peak read 20.2 MB against a bound of 18.2 MB.
        state = 5 * seen["net_bytes"]
        assert peak < seen["mix_f64_bytes"] + state + 3.5 * seen["layer_bytes"]


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
        labels = pool.labels.copy()
        with pytest.raises(ValueError):
            pool.labels[0] = 1.0
        for name, value in entry.fit.net.param_arrays().items():
            assert np.array_equal(value, before[name])
        assert entry.fit.history[0]["train_loss"] != -1.0
        assert np.array_equal(entry.pseudo(corpora["unlabeled"]).labels, labels)

    def test_pool_shares_the_unlabeled_rows(self, corpora):
        labeled, unlabeled = corpora["labeled"], corpora["unlabeled"]
        train, val, test = split_labeled(labeled, WORLD)
        assert all(part.features is labeled.features for part in (train, val, test))
        cfg = fast_cfg()
        entry = Teacher(pipeline.train_regression(train, val, cfg.model, cfg.stage1, 0))
        pool = entry.pseudo(unlabeled)
        assert entry.pseudo(unlabeled) is pool
        assert pool.features is unlabeled.features


def test_median_summary_keeps_seeds_and_values_aligned():
    rows = [
        {"dataset": "test", "level": "utterance", "seed": seed, "srcc": srcc, "pcc": pcc}
        for seed, srcc, pcc in [(0, 0.9, 0.8), (1, None, 0.6), (2, 0.7, None)]
    ]
    assert median_summary(rows) == {
        "test/utterance": {
            "seeds": [0, 1, 2],
            "srcc": [0.9, None, 0.7],
            "pcc": [0.8, 0.6, None],
            "median_srcc": 0.8,
            "median_pcc": 0.7,
        }
    }
