"""Stage training, pseudo-labeling, transfer, checkpoints, determinism."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from sevreg import pipeline
from sevreg.config import ModelConfig, RegressionStageConfig, RunConfig, Stage2Config
from sevreg.data import label_histogram, load_corpus, save_corpus
from sevreg.errors import (
    DimensionError,
    FeatureFormatError,
    ParameterError,
    TrainingDivergedError,
    TransferError,
)
from sevreg.pipeline import (
    build_stage2_corpus,
    checkpoint_from_net,
    dump_embeddings,
    evaluate,
    load_checkpoint,
    net_from_checkpoint,
    predict,
    pseudo_label,
    save_checkpoint,
    train_regression,
    train_stage2,
    train_stage3,
)
from sevreg.evaluation import read_embeddings
from sevreg.experiments import split_labeled
from sevreg.nn import Stack, build_net, forward_batch
from sevreg.synthetic import WorldConfig, build_world

SMALL_WORLD = WorldConfig(
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

# the tiny corpus sees few optimizer steps, so it needs a hotter lr than the
# full-scale defaults to leave the clamped-prediction regime
MODEL = ModelConfig(hidden_dim=32, embed_dim=16)
STAGE = RegressionStageConfig(lr=2e-3, epochs=8)
STAGE2 = Stage2Config(batch_size=32)


@pytest.fixture(scope="module")
def world():
    return build_world(SMALL_WORLD)


@pytest.fixture(scope="module")
def splits(world):
    return split_labeled(world["labeled"], SMALL_WORLD)


@pytest.fixture(scope="module")
def stage1(splits):
    train, val, _ = splits
    return train_regression(train, val, MODEL, STAGE, seed=0)


def named(ckpt):
    """A checkpoint's values keyed 'layer.weight' / 'layer.bias', in the
    layout of the model its metadata records."""
    return build_net(seed_or_rng=0, **ckpt.meta["model"]).named(ckpt.flat)


def small_cfg(**kw):
    cfg = RunConfig(model=MODEL, stage1=STAGE, stage3=STAGE, stage2=STAGE2)
    cfg.data.world = SMALL_WORLD
    return replace(cfg, **kw) if kw else cfg


class TestStage1:
    def test_learns_synthetic_signal(self, stage1, splits):
        _, _, test = splits
        report = evaluate(stage1.net, test, level="utterance")
        assert report.srcc > 0.7  # small corpus, few epochs; full bar is in acceptance

    def test_zero_epochs_returns_init(self, splits):
        train, val, _ = splits
        result = train_regression(train, val, MODEL, replace(STAGE, epochs=0), seed=1)
        assert result.history == []
        fresh = train_regression(train, val, MODEL, replace(STAGE, epochs=0), seed=1)
        for k, v in result.net.param_arrays().items():
            assert np.array_equal(v, fresh.net.param_arrays()[k])

    def test_same_seed_identical_weights(self, splits):
        train, val, _ = splits
        cfg = replace(STAGE, epochs=2)
        a = train_regression(train, val, MODEL, cfg, seed=3)
        b = train_regression(train, val, MODEL, cfg, seed=3)
        for k, v in a.net.param_arrays().items():
            assert np.array_equal(v, b.net.param_arrays()[k])

    def test_different_seed_differs(self, splits):
        train, val, _ = splits
        cfg = replace(STAGE, epochs=1)
        a = train_regression(train, val, MODEL, cfg, seed=4)
        b = train_regression(train, val, MODEL, cfg, seed=5)
        assert any(
            not np.array_equal(v, b.net.param_arrays()[k])
            for k, v in a.net.param_arrays().items()
        )

    def test_nan_features_abort(self, splits):
        train, val, _ = splits
        bad = replace(train, name="bad", features=np.full_like(train.features, np.nan))
        with pytest.raises(TrainingDivergedError):
            train_regression(bad, val, MODEL, replace(STAGE, epochs=1), seed=0)

    def test_undefined_validation_keeps_init_with_warning(self, splits, caplog):
        train, val, _ = splits
        flat_val = replace(val, name="flat", labels=np.full(len(val), 4.0))
        cfg = replace(STAGE, epochs=2)
        with caplog.at_level("WARNING", logger="sevreg.pipeline"):
            result = train_regression(train, flat_val, MODEL, cfg, seed=1)
        assert "undefined on all 2 epochs" in caplog.text
        assert [h["val_srcc"] for h in result.history] == [None, None]
        init = train_regression(train, val, MODEL, replace(STAGE, epochs=0), seed=1)
        for k, v in result.net.param_arrays().items():
            assert np.array_equal(v, init.net.param_arrays()[k])

    def test_defined_validation_gives_no_warning(self, splits, caplog):
        train, val, _ = splits
        with caplog.at_level("WARNING", logger="sevreg.pipeline"):
            trained = train_regression(train, val, MODEL, STAGE, seed=0)
            train_regression(train, val, MODEL, replace(STAGE, epochs=0), seed=0)
        assert any(h["val_srcc"] is not None for h in trained.history)
        assert "undefined" not in caplog.text

    def test_kept_init_recorded_in_history(self, splits):
        train, val, _ = splits
        flat_val = replace(val, name="flat", labels=np.full(len(val), 4.0))
        result = train_regression(train, flat_val, MODEL, replace(STAGE, epochs=2), seed=1)
        assert [h["best_epoch"] for h in result.history] == [None, None]

    def test_best_epoch_recorded_in_history(self, stage1):
        scores = [h["val_srcc"] for h in stage1.history]
        best = [
            max((e for e in range(k + 1) if scores[e] is not None),
                key=lambda e: (scores[e], -e), default=None)
            for k in range(STAGE.epochs)
        ]
        assert best[-1] is not None
        assert [h["best_epoch"] for h in stage1.history] == best

    def test_history_records_epochs(self, stage1):
        assert [h["epoch"] for h in stage1.history] == list(range(STAGE.epochs))
        assert all("train_loss" in h and "val_srcc" in h for h in stage1.history)

    def test_train_stage1_wrapper_matches_direct_call(self, world, splits):
        from sevreg.experiments import Stages

        # the stage step takes its seed from the argument, not cfg.seed
        train, val, _ = splits
        cfg = small_cfg(stage1=replace(STAGE, epochs=1), seed=0)
        a = Stages(cfg, world, seed=6).teacher().fit
        b = train_regression(train, val, MODEL, replace(STAGE, epochs=1), seed=6)
        for k, v in a.net.param_arrays().items():
            assert np.array_equal(v, b.net.param_arrays()[k])


class TestPredict:
    def test_repeated_calls_identical(self, stage1, splits):
        _, _, test = splits
        assert np.array_equal(predict(stage1.net, test), predict(stage1.net, test))

    def test_outputs_clamped(self, stage1, world):
        scores = predict(stage1.net, world["shifted_test"])
        assert scores.min() >= 1.0 and scores.max() <= 7.0

    def test_one_chunk_live_at_a_time(self):
        """On the default unlabeled corpus with the default float32 net, a
        chunk's forward keeps h1 and h2 (two hidden-layer arrays) alive;
        predict peaks below three. Holding the previous chunk's cache while
        the next runs peaked at about 4.5."""
        import tracemalloc

        corpus = build_world(WorldConfig())["unlabeled"]
        net = pipeline.seeded_net(ModelConfig(), corpus, seed=0)
        chunk_rows = np.diff(corpus.offsets[:: pipeline.EVAL_CHUNK]).max()
        tracemalloc.start()
        try:
            predict(net, corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * chunk_rows * net.hidden_dim * net.dtype.itemsize

    def test_no_chunk_outgrows_a_stage2_step(self):
        """On every default corpus predict peaks below the live memory of
        one default stage-2 training step (2,137 rows, 128 views, H 320):
        no evaluation chunk is larger than a step. At 256 utterances a chunk
        reached 4,732 rows, and its h1/h2 pair alone was 12.1 MB."""
        import tracemalloc

        from sevreg.nn import backward_batch

        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows, views, model, world = 2137, 128, ModelConfig(), WorldConfig()
        rng = np.random.default_rng(0)
        cuts = np.sort(rng.choice(np.arange(1, rows), views - 1, replace=False))
        batch = Stack(
            rng.standard_normal((rows, world.feat_dim)), np.concatenate([[0], cuts, [rows]])
        )
        projector = build_net(
            world.feat_dim, 0, hidden_dim=model.hidden_dim, out_dim=model.embed_dim,
            dropout_p=model.dropout, normalize_output=True, dtype=pipeline.NET_DTYPE,
        )
        grad_out = rng.standard_normal((views, model.embed_dim))
        step = traced_peak(lambda: backward_batch(
            projector, forward_batch(projector, batch, training=True, rng=rng), grad_out
        ))
        for name, corpus in build_world(world).items():
            net = pipeline.seeded_net(model, corpus, seed=0)
            assert traced_peak(lambda: predict(net, corpus)) < step, name

    def test_projector_rejected(self, splits):
        _, _, test = splits
        projector = pipeline.seeded_net(MODEL, test, seed=0, projector=True)
        with pytest.raises(DimensionError, match="one-output regressor"):
            predict(projector, test)

    def test_srcc_consistent_with_evaluate(self, stage1, splits):
        _, _, test = splits
        from sevreg.evaluation import srcc

        scores = predict(stage1.net, test)
        report = evaluate(stage1.net, test, level="utterance")
        assert report.srcc == pytest.approx(srcc(scores, test.labels), abs=1e-15)


class TestPseudoLabel:
    def test_provenance_and_range(self, stage1, world):
        pseudo = pseudo_label(stage1.net, world["unlabeled"])
        assert np.all(pseudo.provenance == "pseudo")
        labels = pseudo.targets()
        assert labels.min() >= 1.0 and labels.max() <= 7.0

    def test_source_untouched_and_idempotent(self, stage1, world):
        a = pseudo_label(stage1.net, world["unlabeled"])
        assert np.isnan(world["unlabeled"].labels).all()
        b = pseudo_label(stage1.net, world["unlabeled"])
        assert np.array_equal(a.labels, b.labels)

    def test_rejects_labeled_corpus(self, stage1, splits):
        train, _, _ = splits
        with pytest.raises(ParameterError):
            pseudo_label(stage1.net, train)

    def test_histogram_skewed_toward_training_mode(self, stage1, world, splits):
        train, _, _ = splits
        pseudo = pseudo_label(stage1.net, world["unlabeled"])
        train_hist = label_histogram(train.labels)
        pseudo_hist = label_histogram(pseudo.labels)
        train_mode = max(train_hist, key=train_hist.get)
        pseudo_mode = max(pseudo_hist, key=pseudo_hist.get)
        assert abs(pseudo_mode - train_mode) <= 1


class TestStage2Corpus:
    def test_counts(self, stage1, world, splits):
        train, _, _ = splits
        pseudo = pseudo_label(stage1.net, world["unlabeled"])
        merged = build_stage2_corpus(train, pseudo, world["typical"])
        counts = Counter(merged.provenance.tolist())
        assert counts["labeled"] == len(train)
        assert counts["pseudo"] == len(pseudo)
        assert counts["typical"] == len(world["typical"])
        assert len(merged) == sum(counts.values())
        # The one copy of the pools' stored rows, in order, which stage 2
        # reads normalised as the pools themselves would be.
        parts = (train, pseudo, world["typical"])
        assert merged.features.tobytes() == b"".join(p.stored().rows.tobytes() for p in parts)
        assert not any(np.shares_memory(merged.features, p.features) for p in parts)
        assert merged.stack().rows.tobytes() == b"".join(p.stack().rows.tobytes() for p in parts)

    def test_mix_round_trips_through_save_and_load(self, stage1, world, splits, tmp_path):
        train, _, _ = splits
        pseudo = pseudo_label(stage1.net, world["unlabeled"])
        merged = build_stage2_corpus(train, pseudo, world["typical"])
        save_corpus(merged, tmp_path / "stage2")
        loaded = load_corpus(tmp_path / "stage2")
        assert loaded.name == "stage2"
        assert loaded.features.tobytes() == merged.features.tobytes()
        assert np.array_equal(loaded.offsets, merged.offsets)
        for column in ("ids", "speakers", "provenance"):
            assert getattr(loaded, column).tolist() == getattr(merged, column).tolist()
        assert loaded.labels.tobytes() == merged.labels.tobytes()
        assert loaded.stack().rows.tobytes() == merged.stack().rows.tobytes()

    def test_omitting_pools(self, world, splits):
        train, _, _ = splits
        wo_typical = build_stage2_corpus(train, None, None)
        assert "typical" not in wo_typical.provenance
        wo_pseudo = build_stage2_corpus(train, None, world["typical"])
        assert "pseudo" not in wo_pseudo.provenance

    def test_duplicate_ids_rejected(self, splits):
        train, _, _ = splits
        from sevreg.errors import MergeError

        with pytest.raises(MergeError):
            build_stage2_corpus(train, train.take(np.arange(len(train)), "dup"), None)

    def test_typical_label_enforced(self, splits):
        train, val, _ = splits
        with pytest.raises(ParameterError):
            build_stage2_corpus(train, None, val)


@pytest.fixture(scope="module")
def stage2_ckpt(stage1, world, splits):
    train, _, _ = splits
    pseudo = pseudo_label(stage1.net, world["unlabeled"])
    mixed = build_stage2_corpus(train, pseudo, world["typical"])
    result = train_stage2(mixed, MODEL, STAGE2, seed=0, strategy="coarse")
    return checkpoint_from_net(result.net, "stage2", {"small": True}), mixed


class TestStage2:
    def test_runs_exact_epochs(self, stage2_ckpt):
        pass  # construction succeeding is the check; epochs asserted below

    def test_history_length(self, stage1, world, splits):
        train, _, _ = splits
        pseudo = pseudo_label(stage1.net, world["unlabeled"])
        mixed = build_stage2_corpus(train, pseudo, None)
        result = train_stage2(mixed, MODEL, replace(STAGE2, epochs=1), 0, "dis")
        assert len(result.history) == 1

    def test_deterministic(self, stage1, world, splits):
        train, _, _ = splits
        pseudo = pseudo_label(stage1.net, world["unlabeled"])
        mixed = build_stage2_corpus(train, pseudo, world["typical"])
        a = train_stage2(mixed, MODEL, replace(STAGE2, epochs=1), 7, "coarse")
        b = train_stage2(mixed, MODEL, replace(STAGE2, epochs=1), 7, "coarse")
        for k, v in a.net.param_arrays().items():
            assert np.array_equal(v, b.net.param_arrays()[k])

    def test_simclr_runs_without_labels(self, world, splits):
        train, _, _ = splits
        mixed = build_stage2_corpus(train, world["unlabeled"], world["typical"])
        result = train_stage2(mixed, MODEL, replace(STAGE2, epochs=1), 0, "simclr")
        assert len(result.history) == 1

    def test_labeled_required_for_weak_supervision(self, world, splits):
        train, _, _ = splits
        mixed = build_stage2_corpus(train, world["unlabeled"], None)
        with pytest.raises(ParameterError):
            train_stage2(mixed, MODEL, STAGE2, 0, "coarse")

    def test_variance_reg_spreads_embeddings(self, stage2_ckpt, world):
        # paired same-seed comparison against a var_weight=0 run; thresholds
        # frozen from an oracle run (reg'd/unreg'd std means 0.067 vs 0.044
        # at d=16, 0.032 vs 0.009 at d=128)
        ckpt, mixed = stage2_ckpt
        reg_net = net_from_checkpoint(ckpt)
        unreg = train_stage2(
            mixed, MODEL, replace(STAGE2, var_weight=0.0), seed=0, strategy="coarse"
        )
        held_out = world["shifted_test"].stack(slice(64))
        reg_stds = forward_batch(reg_net, held_out).out.std(axis=0)
        unreg_stds = forward_batch(unreg.net, held_out).out.std(axis=0)
        assert reg_stds.mean() >= 1.1 * unreg_stds.mean()
        assert reg_stds.min() >= unreg_stds.min()
        assert reg_stds.min() > 0.01  # no collapsed dimension


class NanAfter:
    """Wraps a pipeline loss function: counts its calls and, once `limit` is
    set, makes the loss of every later call NaN."""

    def __init__(self, fn, poison):
        self.fn, self.poison = fn, poison
        self.calls, self.limit = 0, None

    def __call__(self, *args):
        out = self.fn(*args)
        self.calls += 1
        limited = self.limit is not None and self.calls > self.limit
        return self.poison(out) if limited else out


class TestDivergence:
    @pytest.mark.parametrize("stage", ["regression", "stage-2"])
    def test_later_epoch_divergence_keeps_completed_rows(
        self, stage, world, splits, monkeypatch
    ):
        train, val, _ = splits
        if stage == "regression":
            name, poison = "huber_loss_batch", lambda out: (np.nan, out[1])

            def run(epochs):
                return train_regression(train, val, MODEL, replace(STAGE, epochs=epochs), 0)
        else:
            name, poison = "stage2_loss", lambda out: replace(out, value=np.nan)
            mixed = build_stage2_corpus(train, None, world["typical"])

            def run(epochs):
                return train_stage2(mixed, MODEL, replace(STAGE2, epochs=epochs), 0, "coarse")

        loss = NanAfter(getattr(pipeline, name), poison)
        monkeypatch.setattr(pipeline, name, loss)
        completed = run(1).history
        loss.calls, loss.limit = 0, loss.calls  # NaN from the second epoch on
        with pytest.raises(TrainingDivergedError) as err:
            run(3)
        assert len(completed) == 1
        assert err.value.history == completed
        assert str(err.value) == f"{stage} loss diverged at epoch 1"


def stage_run(stage, world, splits, epochs=1):
    """A callable that trains `stage` ("regression" or "stage-2") on the small
    world for `epochs`."""
    train, val, _ = splits
    if stage == "regression":
        return lambda: train_regression(train, val, MODEL, replace(STAGE, epochs=epochs), 0)
    mixed = build_stage2_corpus(train, None, world["typical"])
    return lambda: train_stage2(mixed, MODEL, replace(STAGE2, epochs=epochs), 0, "coarse")


class TestFlatStep:
    """fit steps the optimizer on the net's one flat array, named by stage."""

    @pytest.mark.parametrize("stage", ["regression", "stage-2"])
    def test_one_array_per_step(self, stage, world, splits, monkeypatch):
        seen = []
        real = pipeline.optimizer_step

        def recording(params, grads, state):
            seen.append((params, grads))
            return real(params, grads, state)

        monkeypatch.setattr(pipeline, "optimizer_step", recording)
        net = stage_run(stage, world, splits)().net
        assert seen
        for params, grads in seen:
            assert list(params) == list(grads) == [stage]
            assert params[stage] is net.flat
            assert grads[stage].shape == net.flat.shape
            assert grads[stage].dtype == net.dtype

    @pytest.mark.parametrize("stage", ["regression", "stage-2"])
    def test_nan_gradient_names_the_stage(self, stage, world, splits, monkeypatch):
        real = pipeline.backward_batch

        def poisoned(*args):
            grad = real(*args)
            grad[-1] = np.nan
            return grad

        monkeypatch.setattr(pipeline, "backward_batch", poisoned)
        with pytest.raises(TrainingDivergedError, match=f"non-finite gradient in '{stage}'"):
            stage_run(stage, world, splits)()


class TestStage3:
    def test_transfer_then_zero_epochs_keeps_trunk(self, stage2_ckpt, splits):
        ckpt, _ = stage2_ckpt
        train, val, _ = splits
        cfg = small_cfg(stage3=replace(STAGE, epochs=0))
        result = train_stage3(train, val, cfg, net_from_checkpoint(ckpt), seed=0)
        arrays = result.net.param_arrays()
        saved = named(ckpt)
        for key in ("adaptor1.weight", "adaptor1.bias", "adaptor2.weight", "adaptor2.bias"):
            assert np.array_equal(arrays[key], saved[key])
        # the fresh head comes from the stage-1 seed stream, not the checkpoint
        fresh = train_regression(train, val, MODEL, replace(STAGE, epochs=0), seed=0)
        assert np.array_equal(arrays["head.weight"], fresh.net.param_arrays()["head.weight"])

    def test_no_checkpoint_equals_stage1_bit_for_bit(self, splits):
        train, val, _ = splits
        cfg = small_cfg()
        a = train_stage3(train, val, cfg, None, seed=2)
        b = train_regression(train, val, MODEL, STAGE, seed=2)
        for k, v in a.net.param_arrays().items():
            assert np.array_equal(v, b.net.param_arrays()[k])

    def test_untrained_stage2_checkpoint_degenerates_to_stage1(self, splits):
        # transferring from a projector that never trained is just another
        # random trunk init; training must proceed normally
        from sevreg.nn import build_net

        train, val, _ = splits
        untrained = build_net(
            feat_dim=SMALL_WORLD.feat_dim, seed_or_rng=99,
            hidden_dim=MODEL.hidden_dim, out_dim=MODEL.embed_dim,
            normalize_output=True,
        )
        ckpt = checkpoint_from_net(untrained, "stage2", {})
        result = train_stage3(train, val, small_cfg(), net_from_checkpoint(ckpt), seed=0)
        assert len(result.history) == STAGE.epochs
        report = evaluate(result.net, val, level="utterance")
        assert not report.flagged

    def test_wrong_feature_dim_fails(self, stage2_ckpt):
        ckpt, _ = stage2_ckpt
        wrong = WorldConfig(
            feat_dim=6, signal_dims=3, nuisance_dims=2, n_labeled=40,
            n_unlabeled=10, n_typical=10, n_shifted_test=10,
            labeled_speakers=6, unlabeled_speakers=2, typical_speakers=2,
            shifted_speakers=2, t_range=(4, 6),
        )
        w = build_world(wrong)
        train, val, _ = split_labeled(w["labeled"], wrong)
        cfg = small_cfg()
        cfg.data.world = wrong
        with pytest.raises(TransferError) as err:
            train_stage3(train, val, cfg, net_from_checkpoint(ckpt), seed=0)
        assert "adaptor1.weight" in err.value.layers


class TestCheckpointIO:
    def test_round_trip_bit_exact(self, stage1, tmp_path):
        ckpt = checkpoint_from_net(stage1.net, "stage1", {"lr": 1e-4}, {"srcc": 0.9})
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.meta == ckpt.meta
        assert loaded.flat.dtype == np.float32 and loaded.flat.flags.writeable
        assert loaded.flat.tobytes() == ckpt.flat.tobytes()

    def test_rewrite_identical_bytes(self, stage1, tmp_path):
        ckpt = checkpoint_from_net(stage1.net, "stage1", {})
        p1, p2 = tmp_path / "a.dsqc", tmp_path / "b.dsqc"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dsqc"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FeatureFormatError):
            load_checkpoint(path)

    def test_ten_byte_file(self, tmp_path):
        path = tmp_path / "short.dsqc"
        path.write_bytes(b"DSQC" + b"\x02\x00\x00\x00\x00\x00")
        with pytest.raises(FeatureFormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_truncated_metadata(self, stage1, tmp_path):
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, checkpoint_from_net(stage1.net, "stage1", {"a": 1}))
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(FeatureFormatError, match="truncated metadata") as err:
            load_checkpoint(path)
        assert err.value.offset == 16

    def test_corrupt_metadata(self, stage1, tmp_path):
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, checkpoint_from_net(stage1.net, "stage1", {"a": 1}))
        raw = bytearray(path.read_bytes())
        raw[16] = ord("[")  # '{' -> '[': the JSON no longer parses
        path.write_bytes(bytes(raw))
        with pytest.raises(FeatureFormatError) as err:
            load_checkpoint(path)
        assert err.value.offset == 16

    def test_trailing_bytes(self, stage1, tmp_path):
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, checkpoint_from_net(stage1.net, "stage1", {}))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FeatureFormatError, match="4 trailing bytes") as err:
            load_checkpoint(path)
        assert err.value.offset == size

    def test_every_truncation_is_a_format_error(self, stage1, tmp_path):
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, checkpoint_from_net(stage1.net, "stage1", {}))
        raw = path.read_bytes()
        for cut in range(0, len(raw), 7):
            path.write_bytes(raw[:cut])
            with pytest.raises(FeatureFormatError):
                load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected_at_its_payload(self, stage1, tmp_path, value):
        ckpt = checkpoint_from_net(stage1.net, "stage1", {})
        named(ckpt)["adaptor2.bias"][3] = value
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        # magic, version, metadata length and value count, then the metadata
        payload_at = 16 + int.from_bytes(raw[8:12], "little")
        at = payload_at + 4 * int(np.flatnonzero(~np.isfinite(ckpt.flat))[0])
        assert raw[at : at + 4] == np.float32(value).tobytes()
        with pytest.raises(FeatureFormatError, match="non-finite values in parameters") as err:
            load_checkpoint(path)
        assert err.value.offset == payload_at

    def test_version_1_file_refused_at_4(self, stage1, tmp_path):
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, checkpoint_from_net(stage1.net, "stage1", {}))
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + (1).to_bytes(4, "little") + raw[8:])
        with pytest.raises(FeatureFormatError, match="unsupported version 1") as err:
            load_checkpoint(path)
        assert err.value.offset == 4

    def test_interrupted_save_keeps_earlier_file(self, stage1, tmp_path, monkeypatch):
        import pathlib

        path = tmp_path / "m.dsqc"
        save_checkpoint(path, checkpoint_from_net(stage1.net, "stage1", {"run": 1}))
        before = path.read_bytes()
        real_open = pathlib.Path.open

        class CrashMidway:
            """A file whose first write stores half of its bytes, then is
            interrupted."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                data = memoryview(data).cast("B")
                self.fh.write(data[: len(data) // 2])
                raise KeyboardInterrupt

        def crash_midway(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return CrashMidway(fh) if "w" in mode else fh

        monkeypatch.setattr(pathlib.Path, "open", crash_midway)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(path, checkpoint_from_net(stage1.net, "stage1", {"run": 2}))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("change", [-1, 1])
    def test_wrong_value_count_rejected(self, stage1, change):
        ckpt = checkpoint_from_net(stage1.net, "stage1", {})
        size = ckpt.flat.size
        ckpt.flat = np.resize(ckpt.flat, size + change)
        want = f"holds {size + change} parameter values, its model has {size}"
        with pytest.raises(FeatureFormatError, match=want):
            net_from_checkpoint(ckpt)

    def test_config_snapshot_preserved(self, stage1, tmp_path):
        snapshot = {"stage1": {"lr": 1e-4, "epochs": 4}, "strategy": "baseline"}
        ckpt = checkpoint_from_net(stage1.net, "stage1", snapshot)
        path = tmp_path / "c.dsqc"
        save_checkpoint(path, ckpt)
        assert load_checkpoint(path).meta["config"] == snapshot

    def test_float32_net_round_trips_bit_exact(self, stage1, tmp_path):
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, checkpoint_from_net(stage1.net, "stage1", {}))
        net = net_from_checkpoint(load_checkpoint(path))
        assert stage1.net.dtype == net.dtype == np.float32
        for k, v in stage1.net.param_arrays().items():
            assert net.param_arrays()[k].tobytes() == v.tobytes()

    def test_float64_checkpoint_rounds_to_nearest(self, stage1, tmp_path):
        ckpt = checkpoint_from_net(stage1.net, "stage1", {})
        wide = ckpt.flat = np.random.default_rng(3).uniform(-1.0, 1.0, size=ckpt.flat.size)
        # just above, just below and exactly at the midpoint of 1 and 1 + 2^-23
        named(ckpt)["adaptor2.bias"][:3] = [1 + 2**-24 + 2**-40, 1 + 2**-24 - 2**-40, 1 + 2**-24]
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, ckpt)
        net = net_from_checkpoint(load_checkpoint(path))
        assert list(net.param_arrays()["adaptor2.bias"][:3]) == [1 + 2**-23, 1.0, 1.0]
        r = net.flat
        assert r.dtype == np.float32 and not np.array_equal(r, wide)
        err = np.abs(r.astype(np.float64) - wide)
        for side in (-np.inf, np.inf):
            assert np.all(err <= np.abs(np.nextafter(r, side).astype(np.float64) - wide))

    def test_value_beyond_float32_rejected(self, stage1, tmp_path):
        ckpt = checkpoint_from_net(stage1.net, "stage1", {})
        ckpt.flat = ckpt.flat.astype(np.float64)
        ckpt.flat[0] = -1e39
        path = tmp_path / "m.dsqc"
        with np.errstate(over="ignore"):
            save_checkpoint(path, ckpt)  # rounds to -inf
        with pytest.raises(FeatureFormatError, match="non-finite values in parameters"):
            load_checkpoint(path)

    def test_net_round_trip_predicts_identically(self, stage1, splits, tmp_path):
        _, _, test = splits
        path = tmp_path / "m.dsqc"
        save_checkpoint(path, checkpoint_from_net(stage1.net, "stage1", {}))
        net = net_from_checkpoint(load_checkpoint(path))
        assert np.array_equal(predict(net, test), predict(stage1.net, test))


class TestStrategySelectors:
    @pytest.mark.parametrize("strategy", ["baseline", "simclr", "sup", "dis", "con", "coarse"])
    def test_every_strategy_runs_end_to_end(self, world, strategy):
        from sevreg.experiments import run_single

        cfg = small_cfg(
            strategy=strategy,
            stage1=replace(STAGE, lr=3e-3, epochs=4),
            stage3=replace(STAGE, lr=3e-3, epochs=4),
            stage2=replace(STAGE2, epochs=1),
        )
        result = run_single(cfg, world, seed=0)
        assert {(r["dataset"], r["level"]) for r in result["rows"]} == {
            ("test", "utterance"),
            ("shifted_test", "speaker"),
        }
        assert all(r["strategy"] == strategy for r in result["rows"])
        assert all(r["srcc"] is not None for r in result["rows"])


class TestDumpEmbeddings:
    def test_dump_shape_and_determinism(self, stage1, splits, tmp_path):
        _, _, test = splits
        p1, p2 = tmp_path / "a.dsqe", tmp_path / "b.dsqe"
        dump_embeddings(stage1.net, test, p1)
        dump_embeddings(stage1.net, test, p2)
        vecs, labels, provs = read_embeddings(p1)
        assert vecs.shape == (len(test), 2 * MODEL.hidden_dim)
        assert len(provs) == len(test)
        assert p1.read_bytes() == p2.read_bytes()


# One epoch of the default world's stage 2, written as run-all writes it. Its
# batches stack about 2100 rows, where one weight-gradient product over all of
# them would add in an order that depends on the BLAS thread count.
STAGE2_SCRIPT = """
import sys
from dataclasses import replace
from pathlib import Path

from sevreg.config import RunConfig
from sevreg.experiments import Stages
from sevreg.synthetic import build_world

cfg = RunConfig()
cfg = replace(cfg, stage2=replace(cfg.stage2, epochs=1))
stages = Stages(cfg, build_world(cfg.data.world), seed=0)
run_dir = Path(sys.argv[1])
stages.save(run_dir, {"stage2": stages.stage2(None)}, stages.read_history(run_dir))
"""


class TestThreadCount:
    def test_default_stage2_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        src = str(Path(pipeline.__file__).resolve().parents[1])
        written = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            proc = subprocess.run(
                [sys.executable, "-c", STAGE2_SCRIPT, str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            written[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(written["1"]) == ["history.json", "stage2.dsqc"]
        assert written["1"] == written["2"]
