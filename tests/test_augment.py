"""Augmentation semantics: bounds, determinism, identity cases.

Each transform is tested through the one batched draw, `draw_views`, with
every coin firing and the other two transforms switched off.
"""

import numpy as np
import pytest
from stacks import stack_of

from sevreg.augment import AugmentConfig, draw_views, make_views
from sevreg.contrastive import build_batch
from sevreg.errors import ParameterError

OFF = {"noise_sigma": 0.0, "mask_max_frac": 0.0, "crop_min_frac": 1.0}


def only(seqs, rng, **transform):
    """The 2B views of `seqs` with every coin firing and only `transform` on."""
    cfg = AugmentConfig(per_transform_prob=1.0, **{**OFF, **transform})
    return list(draw_views(stack_of(seqs), np.arange(len(seqs)), cfg, rng))


def sources_of(views, seqs):
    """Each view with its source: view i and view B + i come from source i."""
    return zip(views, seqs + seqs)


@pytest.fixture
def h():
    return np.random.default_rng(0).standard_normal((10, 6))


@pytest.fixture
def ragged():
    rng = np.random.default_rng(1)
    return [rng.standard_normal((t, 6)) for t in (10, 4, 17, 1, 10)]


class TestNoise:
    def test_sigma_zero_identity(self, h, ragged):
        seqs = [h, *ragged]
        for out, src in sources_of(only(seqs, np.random.default_rng(1), noise_sigma=0.0), seqs):
            assert np.array_equal(out, src)
            assert out is not src and not np.shares_memory(out, src)

    def test_monte_carlo_std(self):
        rng = np.random.default_rng(2)
        h = np.zeros((500, 200))
        for out in only([h], rng, noise_sigma=0.01):
            assert abs(out.std() - 0.01) / 0.01 < 0.05

    def test_coin_rate(self):
        """A transform fires on a view with per_transform_prob."""
        seqs = [np.zeros((3, 2))] * 1000
        cfg = AugmentConfig(per_transform_prob=0.3, **{**OFF, "noise_sigma": 0.1})
        views = draw_views(stack_of(seqs), np.arange(1000), cfg, np.random.default_rng(3))
        noisy = [np.any(v != 0.0) for v in views]
        assert abs(np.mean(noisy) - 0.3) < 0.03  # 3 standard errors at 2000 views

    def test_seeded_determinism(self, h, ragged):
        a = only([h, *ragged], np.random.default_rng(3), noise_sigma=0.1)
        b = only([h, *ragged], np.random.default_rng(3), noise_sigma=0.1)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_negative_sigma(self, h):
        with pytest.raises(ParameterError):
            only([h], np.random.default_rng(0), noise_sigma=-0.1)


class TestTimeMask:
    def test_zero_frac_identity(self, h, ragged):
        seqs = [h, *ragged]
        for out, src in sources_of(only(seqs, np.random.default_rng(4)), seqs):
            assert np.array_equal(out, src)

    def test_mask_bound(self, h, ragged):
        seqs = [h, *ragged]
        for seed in range(30):
            views = only(seqs, np.random.default_rng(seed), mask_max_frac=0.2)
            for out, src in sources_of(views, seqs):
                zeroed = np.all(out == 0.0, axis=1).sum()
                assert zeroed <= np.floor(0.2 * len(src))  # 2 of h's 10 frames
            views = only(seqs, np.random.default_rng(seed), mask_max_frac=0.2, mask_spans=3)
            for out, src in sources_of(views, seqs):
                assert np.all(out == 0.0, axis=1).sum() <= 3 * np.floor(0.2 * len(src))

    def test_masked_rows_zero_others_untouched(self, h, ragged):
        seqs = [h, *ragged]
        for out, src in sources_of(only(seqs, np.random.default_rng(6), mask_max_frac=0.5), seqs):
            for t in range(src.shape[0]):
                assert np.array_equal(out[t], src[t]) or np.all(out[t] == 0.0)

    def test_masked_span_contiguous(self, h, ragged):
        seqs = [h, *ragged]
        for seed in range(20):
            views = only(seqs, np.random.default_rng(seed), mask_max_frac=0.5)
            for out, _ in sources_of(views, seqs):
                zero_rows = np.flatnonzero(np.all(out == 0.0, axis=1))
                if len(zero_rows):
                    assert np.array_equal(
                        zero_rows, np.arange(zero_rows[0], zero_rows[-1] + 1)
                    )


class TestCrop:
    def test_full_frac_identity(self, h, ragged):
        seqs = [h, *ragged]
        for out, src in sources_of(only(seqs, np.random.default_rng(7), crop_min_frac=1.0), seqs):
            assert np.array_equal(out, src)

    def test_length_bounds(self, h, ragged):
        seqs = [h, *ragged]
        for seed in range(30):
            views = only(seqs, np.random.default_rng(seed), crop_min_frac=0.7)
            for out, src in sources_of(views, seqs):
                assert np.ceil(0.7 * len(src)) <= out.shape[0] <= len(src)  # 7..10 for h
                assert out.shape[1] == src.shape[1]

    def test_contiguous_window(self, h, ragged):
        seqs = [h, *ragged]
        for seed in range(20):
            views = only(seqs, np.random.default_rng(seed), crop_min_frac=0.5)
            for out, src in sources_of(views, seqs):
                t = out.shape[0]
                found = any(
                    np.array_equal(out, src[start : start + t])
                    for start in range(src.shape[0] - t + 1)
                )
                assert found


class TestMakeViews:
    def test_prob_zero_identity(self, h):
        cfg = AugmentConfig(per_transform_prob=0.0)
        v1, v2 = make_views(h, cfg, np.random.default_rng(8))
        assert np.array_equal(v1, h) and np.array_equal(v2, h)

    def test_seeded_determinism(self, h):
        cfg = AugmentConfig()
        a = make_views(h, cfg, np.random.default_rng(9))
        b = make_views(h, cfg, np.random.default_rng(9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_different_seeds_differ(self, h):
        cfg = AugmentConfig(per_transform_prob=1.0)
        a = make_views(h, cfg, np.random.default_rng(10))
        b = make_views(h, cfg, np.random.default_rng(11))
        assert a[0].shape != b[0].shape or not np.array_equal(a[0], b[0])

    def test_dims_preserved(self, h):
        cfg = AugmentConfig(per_transform_prob=1.0)
        for seed in range(10):
            v1, v2 = make_views(h, cfg, np.random.default_rng(seed))
            assert v1.shape[1] == h.shape[1] and v2.shape[1] == h.shape[1]
            assert v1.shape[0] >= int(np.ceil(0.7 * h.shape[0]))

    def test_mask_and_crop_compose(self, h, ragged):
        """With mask and crop on, a view is one window of its source with
        one contiguous run of rows zeroed."""
        seqs = [h, *ragged]
        for seed in range(20):
            views = only(seqs, np.random.default_rng(seed), mask_max_frac=0.5, crop_min_frac=0.5)
            for out, src in sources_of(views, seqs):
                t = out.shape[0]
                zero_rows = np.flatnonzero(np.all(out == 0.0, axis=1))
                kept = np.setdiff1d(np.arange(t), zero_rows)
                assert any(
                    np.array_equal(out[kept], src[start : start + t][kept])
                    for start in range(src.shape[0] - t + 1)
                )
                if len(zero_rows):
                    assert zero_rows[-1] - zero_rows[0] + 1 == len(zero_rows)

    def test_labels_carried_to_both_views(self, h):
        rng = np.random.default_rng(12)
        labels = rng.uniform(1, 7, size=10)
        index = np.array([9, 0, 3, 3, 5, 1, 2, 8])
        batch = build_batch(stack_of([h] * 10), labels, index, AugmentConfig(), rng)
        for i, j in enumerate(index):
            assert batch.labels[i] == labels[j]
            assert batch.labels[i + 8] == labels[j]

    def test_bad_config_rejected(self, h):
        with pytest.raises(ParameterError):
            make_views(h, AugmentConfig(mask_max_frac=1.5), np.random.default_rng(0))


class CountingGenerator:
    """A generator proxy that counts the calls made through it."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestBatchedDraw:
    @pytest.mark.parametrize("prob", [0.5, 1.0])
    def test_generator_calls_do_not_grow_with_batch_size(self, prob):
        """No per-view draw: B=2 and B=64 take the same generator calls."""
        rng = np.random.default_rng(13)
        cfg = AugmentConfig(per_transform_prob=prob, mask_spans=2)
        calls = []
        for b in (2, 64):
            counting = CountingGenerator(np.random.default_rng(14))
            seqs = [rng.standard_normal((rng.integers(3, 30), 5)) for _ in range(b)]
            batch = build_batch(stack_of(seqs), np.ones(b), np.arange(b), cfg, counting)
            assert len(batch.views) == 2 * b
            calls.append(counting.calls)
        assert calls[0] == calls[1]

    def test_views_i_and_b_plus_i_share_source_i(self, ragged):
        views = only(ragged, np.random.default_rng(15), crop_min_frac=0.3)
        b = len(ragged)
        for i, src in enumerate(ragged):
            for out in (views[i], views[b + i]):
                assert any(
                    np.array_equal(out, src[start : start + len(out)])
                    for start in range(len(src) - len(out) + 1)
                )

    def test_indexed_sources_are_gathered_in_one_draw(self, h, ragged):
        """Views of sources `index` of a stack equal the views of a stack of
        just those sources, bit for bit, with no stack of them made."""
        seqs = [h, *ragged]
        index = np.array([4, 0, 2, 2, 5])
        cfg = AugmentConfig(per_transform_prob=0.7, mask_spans=2)
        got = draw_views(stack_of(seqs), index, cfg, np.random.default_rng(16))
        picked = stack_of([seqs[i] for i in index])
        want = draw_views(picked, np.arange(len(index)), cfg, np.random.default_rng(16))
        assert np.array_equal(got.offsets, want.offsets)
        assert got.rows.tobytes() == want.rows.tobytes()
