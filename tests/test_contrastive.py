"""Pairing semantics and loss values against brute-force oracles."""

import math

import numpy as np
import pytest
from stacks import stack_of

from sevreg.contrastive import (
    DEFAULT_TAU,
    STRATEGIES,
    Batch,
    PairingSpec,
    ntxent_loss,
    positive_pairs,
    simclr_loss,
    stage2_loss,
    variance_reg,
    view_pairs,
    with_variance,
)
from sevreg.errors import DimensionError, ParameterError
from sevreg.nn import build_net, forward_batch


def unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def batch_from_labels(source_labels):
    b = len(source_labels)
    return Batch(
        views=[np.zeros((1, 1))] * (2 * b),
        labels=np.tile(np.asarray(source_labels, dtype=float), 2),
        b=b,
    )


def index_lists(mask):
    """Positive-set mask -> one index array per anchor, the form the oracles
    and the membership checks below read."""
    return [np.flatnonzero(row) for row in mask]


def brute_force_pairs(labels, spec):
    """Set construction straight from the definitions, one pair at a time."""
    n = len(labels)
    out = []
    for i in range(n):
        members = []
        for j in range(n):
            if j == i:
                continue
            yi, yj = labels[i], labels[j]
            if spec.strategy == "sup":
                positive = yj == yi
            elif spec.strategy == "dis":
                positive = math.floor(yj + 0.5) == math.floor(yi + 0.5)
            elif spec.strategy == "con":
                positive = abs(yj - yi) < spec.alpha
            else:
                positive = (yj > spec.beta) == (yi > spec.beta)
            if positive:
                members.append(j)
        out.append(members)
    return out


def per_anchor_ntxent_grad(z, pairs, tau):
    """d loss / d Z built one anchor at a time from index lists; the masked
    loss does the same elementwise operations, so it must match bit for bit."""
    n = z.shape[0]
    logits = (z @ z.T) / tau
    np.fill_diagonal(logits, -np.inf)
    expd = np.exp(logits - logits.max(axis=1, keepdims=True))
    q = expd / expd.sum(axis=1, keepdims=True)
    active = [i for i in range(n) if len(pairs[i]) > 0]
    coeff = np.zeros((n, n), dtype=z.dtype)
    for i in active:
        coeff[i] = q[i]
        coeff[i, pairs[i]] -= 1.0 / len(pairs[i])
    coeff *= (1.0 / len(active)) / tau
    return coeff @ z + coeff.T @ z


def double_loop_ntxent(z, pairs, tau):
    """Literal double-loop evaluation of the objective (no max shift)."""
    n = z.shape[0]
    active = [i for i in range(n) if len(pairs[i]) > 0]
    total = 0.0
    for i in active:
        inner = 0.0
        denom = sum(math.exp(float(z[i] @ z[j]) / tau) for j in range(n) if j != i)
        for p in pairs[i]:
            inner += math.log(math.exp(float(z[i] @ z[p]) / tau) / denom)
        total -= inner / len(pairs[i])
    return total / len(active) if active else 0.0


class TestPairing:
    def test_paper_boundary_example_dis_vs_con(self):
        batch = batch_from_labels([2.4, 2.6, 1.7, 5.0])
        dis = index_lists(positive_pairs(batch, PairingSpec(strategy="dis")))
        con = index_lists(positive_pairs(batch, PairingSpec(strategy="con", alpha=0.5)))
        # anchor 0 has label 2.4; candidate 1 is 2.6, candidate 2 is 1.7
        assert 1 not in dis[0] and 2 in dis[0]
        assert 1 in con[0] and 2 not in con[0]

    def test_coarse_grouping(self):
        batch = batch_from_labels([1.0, 1.2, 3.0, 5.0])
        pairs = index_lists(positive_pairs(batch, PairingSpec(strategy="coarse", beta=1.5)))
        low = {0, 1, 4, 5}
        high = {2, 3, 6, 7}
        for i in range(8):
            group = low if i in low else high
            assert set(pairs[i]) == group - {i}

    def test_sibling_view_always_positive(self):
        # so no stage-2 anchor is ever skipped for want of a positive
        rng = np.random.default_rng(0)
        for strategy in STRATEGIES:
            for _ in range(50):
                b = int(rng.integers(1, 17))
                batch = batch_from_labels(rng.uniform(1, 7, size=b))
                spec = PairingSpec(
                    strategy=strategy, alpha=rng.uniform(0.01, 2.0), beta=rng.uniform(1, 7)
                )
                pairs = index_lists(positive_pairs(batch, spec))
                for i in range(2 * b):
                    assert (i + b) % (2 * b) in pairs[i]

    @pytest.mark.parametrize("strategy", ["sup", "dis", "con", "coarse"])
    def test_matches_brute_force_100_batches(self, strategy):
        rng = np.random.default_rng(1)
        for _ in range(100):
            b = int(rng.integers(2, 17))  # up to 2B = 32
            labels = rng.uniform(1.0, 7.0, size=b)
            if strategy == "sup" and rng.random() < 0.5:
                labels = rng.choice([1.0, 2.5, 4.0], size=b)  # force collisions
            batch = batch_from_labels(labels)
            spec = PairingSpec(strategy=strategy)
            got = index_lists(positive_pairs(batch, spec))
            want = brute_force_pairs(batch.labels, spec)
            assert [list(g) for g in got] == want

    @pytest.mark.parametrize("strategy", ["sup", "dis", "con", "coarse"])
    def test_symmetric_and_irreflexive(self, strategy):
        rng = np.random.default_rng(2)
        for _ in range(20):
            batch = batch_from_labels(rng.uniform(1, 7, size=int(rng.integers(2, 17))))
            pairs = index_lists(positive_pairs(batch, PairingSpec(strategy=strategy)))
            sets = [set(p) for p in pairs]
            for i, members in enumerate(sets):
                assert i not in members
                for j in members:
                    assert i in sets[j]

    @pytest.mark.parametrize("strategy", ["sup", "dis", "coarse"])
    def test_equivalence_relation_partitions_batch(self, strategy):
        rng = np.random.default_rng(3)
        for _ in range(20):
            batch = batch_from_labels(rng.uniform(1, 7, size=8))
            pairs = index_lists(positive_pairs(batch, PairingSpec(strategy=strategy)))
            closure = [set(p) | {i} for i, p in enumerate(pairs)]
            for i, group in enumerate(closure):
                for j in group:
                    assert closure[j] == group  # transitive: same class set

    def test_con_need_not_be_transitive(self):
        batch = batch_from_labels([2.0, 2.4, 2.8])
        pairs = index_lists(positive_pairs(batch, PairingSpec(strategy="con", alpha=0.5)))
        assert 1 in pairs[0] and 2 in pairs[1] and 2 not in pairs[0]

    def test_nan_labels_rejected(self):
        batch = batch_from_labels([1.0, np.nan])
        with pytest.raises(ParameterError):
            positive_pairs(batch, PairingSpec(strategy="dis"))

    def test_simclr_pairs_siblings_and_needs_no_labels(self):
        batch = batch_from_labels([np.nan, 2.0, np.nan])
        got = index_lists(positive_pairs(batch, PairingSpec(strategy="simclr")))
        assert [list(p) for p in got] == [list(p) for p in index_lists(view_pairs(3))]


class TestNtxent:
    def test_identical_views_single_source_zero_loss(self):
        z = unit_rows(np.random.default_rng(4), 1, 8)
        z = np.vstack([z, z])
        result = ntxent_loss(z, np.array([[False, True], [True, False]]), tau=0.5)
        assert result.value == 0.0
        assert np.allclose(result.grad, 0.0)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        for b in (2, 4, 8, 16):
            z = unit_rows(rng, 2 * b, 16)
            labels = rng.uniform(1, 7, size=b)
            batch = batch_from_labels(labels)
            for strategy in ("sup", "dis", "con", "coarse"):
                pairs = positive_pairs(batch, PairingSpec(strategy=strategy))
                got = ntxent_loss(z, pairs, tau=0.5)
                want = double_loop_ntxent(z, [list(p) for p in index_lists(pairs)], 0.5)
                assert abs(got.value - want) < 1e-10

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_matches_per_anchor_loop_bit_for_bit(self, dtype):
        rng = np.random.default_rng(23)
        for tau in (0.1, 1.0, 10.0, 100.0):
            for strategy in STRATEGIES:
                b = int(rng.integers(1, 33))
                z = unit_rows(rng, 2 * b, 16).astype(dtype)
                batch = batch_from_labels(rng.choice([1.0, 2.5, 4.0, 6.9], size=b))
                pairs = positive_pairs(batch, PairingSpec(strategy=strategy))
                pairs[rng.random(2 * b) < 0.25] = False  # some skipped anchors
                if not pairs.any():
                    continue
                got = ntxent_loss(z, pairs, tau=tau).grad
                want = per_anchor_ntxent_grad(z, index_lists(pairs), tau)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()

    def test_sup_equals_simclr_when_labels_distinct(self):
        rng = np.random.default_rng(6)
        b = 6
        z = unit_rows(rng, 2 * b, 8)
        labels = np.arange(1.0, 1.0 + b * 0.5, 0.5)  # all distinct
        batch = batch_from_labels(labels)
        pairs = positive_pairs(batch, PairingSpec(strategy="sup"))
        sup = ntxent_loss(z, pairs, tau=0.7)
        sim = simclr_loss(z, tau=0.7)
        assert sup.value == sim.value  # identical code path, bit for bit
        assert np.array_equal(sup.grad, sim.grad)

    def test_empty_anchors_skipped_and_counted(self):
        z = unit_rows(np.random.default_rng(7), 4, 8)
        pairs = np.zeros((4, 4), dtype=bool)
        pairs[0, 1] = pairs[1, 0] = True  # anchors 2 and 3 have no positive
        result = ntxent_loss(z, pairs, tau=1.0)
        assert result.skipped_anchors == 2
        assert np.isfinite(result.value)

    def test_all_empty_pairs(self):
        z = unit_rows(np.random.default_rng(8), 4, 8)
        result = ntxent_loss(z, np.zeros((4, 4), dtype=bool), tau=1.0)
        assert result.value == 0.0 and result.skipped_anchors == 4

    def test_bad_tau(self):
        z = unit_rows(np.random.default_rng(9), 4, 8)
        with pytest.raises(ParameterError):
            ntxent_loss(z, view_pairs(2), tau=0.0)

    def test_single_view_rejected(self):
        with pytest.raises(ParameterError):
            ntxent_loss(np.ones((1, 4)), np.zeros((1, 1), dtype=bool), tau=1.0)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4,)])
    def test_mask_of_wrong_shape_rejected(self, shape):
        z = unit_rows(np.random.default_rng(21), 4, 8)
        with pytest.raises(DimensionError):
            ntxent_loss(z, np.zeros(shape, dtype=bool), tau=1.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_mask_of_non_bool_dtype_rejected(self, dtype):
        z = unit_rows(np.random.default_rng(22), 4, 8)
        with pytest.raises(ParameterError):
            ntxent_loss(z, view_pairs(2).astype(dtype), tau=1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(20)
        b = 5
        z = unit_rows(rng, 2 * b, 8)
        labels = rng.uniform(1, 7, size=b)
        spec = PairingSpec(strategy="dis")
        base = ntxent_loss(z, positive_pairs(batch_from_labels(labels), spec), 0.5)
        perm = rng.permutation(b)
        z_perm = np.vstack([z[:b][perm], z[b:][perm]])
        permuted = ntxent_loss(
            z_perm, positive_pairs(batch_from_labels(labels[perm]), spec), 0.5
        )
        assert abs(base.value - permuted.value) < 1e-12

    def test_finite_across_tau_grid(self):
        rng = np.random.default_rng(10)
        z = unit_rows(rng, 32, 128)
        batch = batch_from_labels(rng.uniform(1, 7, size=16))
        for tau in (0.1, 1.0, 10.0, 50.0, 100.0):
            for strategy in ("sup", "dis", "con", "coarse"):
                pairs = positive_pairs(batch, PairingSpec(strategy=strategy))
                result = ntxent_loss(z, pairs, tau=tau)
                assert np.isfinite(result.value)
                assert np.all(np.isfinite(result.grad))


class TestSimclr:
    def test_single_source_identical_views(self):
        z = unit_rows(np.random.default_rng(11), 1, 8)
        result = simclr_loss(np.vstack([z, z]), tau=0.2)
        assert result.value == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        b = 5
        z = unit_rows(rng, 2 * b, 8)
        base = simclr_loss(z, tau=0.5).value
        perm = rng.permutation(b)
        z_perm = np.vstack([z[:b][perm], z[b:][perm]])  # consistent pair reorder
        assert abs(simclr_loss(z_perm, tau=0.5).value - base) < 1e-12

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(13)
        z = unit_rows(rng, 8, 8)
        got = simclr_loss(z, tau=0.3)
        want = double_loop_ntxent(z, [list(p) for p in index_lists(view_pairs(4))], 0.3)
        assert abs(got.value - want) < 1e-10

    def test_odd_rows_rejected(self):
        with pytest.raises(DimensionError):
            simclr_loss(np.ones((3, 4)), tau=1.0)


class TestVarianceReg:
    def test_identical_rows(self):
        z = np.tile(np.arange(4.0), (6, 1))
        result = variance_reg(z, gamma=1.0)
        assert abs(result.value - (1.0 - math.sqrt(1e-4))) < 1e-12

    def test_hinge_inactive_when_spread(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal((64, 4)) * 5.0
        result = variance_reg(z, gamma=1.0)
        assert result.value == 0.0
        assert np.all(result.grad == 0.0)

    def test_two_dim_half_active(self):
        col0 = np.array([0.5, -0.5, 0.5, -0.5])  # std exactly 0.5
        col1 = np.array([2.0, -2.0, 2.0, -2.0])  # std exactly 2.0
        z = np.stack([col0, col1], axis=1)
        result = variance_reg(z, gamma=1.0)
        expected = 0.5 * (1.0 - math.sqrt(0.25 + 1e-4))
        assert abs(result.value - expected) < 1e-12
        assert abs(result.value - 0.25) < 1e-3  # eps-corrected quarter

    def test_needs_two_rows(self):
        with pytest.raises(ParameterError):
            variance_reg(np.ones((1, 4)), gamma=1.0)


class TestStage2Loss:
    def test_lambda_zero_equals_contrastive(self):
        rng = np.random.default_rng(15)
        z = unit_rows(rng, 8, 8)
        batch = batch_from_labels(rng.uniform(1, 7, size=4))
        spec = PairingSpec(strategy="coarse", tau=1.0)
        combined = stage2_loss(z, batch, spec, gamma=1.0, var_weight=0.0)
        pairs = positive_pairs(batch, spec)
        alone = ntxent_loss(z, pairs, tau=1.0)
        assert combined.value == alone.value
        assert np.array_equal(combined.grad, alone.grad)

    def test_component_sum_example(self):
        # single source, identical views, all rows identical: contrastive term
        # is exactly 0 and the variance hinge contributes lambda * (1 - sqrt(eps))
        row = np.full(8, 0.25)
        z = np.vstack([row, row])
        batch = batch_from_labels([3.0])
        spec = PairingSpec(strategy="sup", tau=1.0)
        result = stage2_loss(z, batch, spec, gamma=1.0, var_weight=0.1)
        assert abs(result.value - 0.1 * (1.0 - math.sqrt(1e-4))) < 1e-12
        assert abs(result.value - 0.099) < 1e-3

    def test_gradient_is_sum_of_parts(self):
        rng = np.random.default_rng(16)
        z = unit_rows(rng, 8, 4)
        batch = batch_from_labels(rng.uniform(1, 7, size=4))
        spec = PairingSpec(strategy="dis", tau=0.5)
        combined = stage2_loss(z, batch, spec, gamma=2.0, var_weight=0.3)
        pairs = positive_pairs(batch, spec)
        part = ntxent_loss(z, pairs, tau=0.5)
        var = variance_reg(z, 2.0)
        assert np.allclose(combined.grad, part.grad + 0.3 * var.grad, atol=1e-15)


    def test_simclr_entry_equals_simclr_loss(self):
        # the label-free strategy goes through the same call as the weakly
        # supervised ones and must keep simclr_loss's values bit for bit
        rng = np.random.default_rng(17)
        z = unit_rows(rng, 8, 4)
        batch = batch_from_labels([np.nan] * 4)
        spec = PairingSpec(strategy="simclr")
        combined = stage2_loss(z, batch, spec, gamma=1.0, var_weight=0.2)
        alone = with_variance(simclr_loss(z, DEFAULT_TAU["simclr"]), z, 1.0, 0.2)
        assert combined.value == alone.value
        assert np.array_equal(combined.grad, alone.grad)


class TestProject:
    def make_projector(self):
        return build_net(
            feat_dim=6, seed_or_rng=3, hidden_dim=8, out_dim=128,
            dropout_p=0.1, normalize_output=True,
        )

    def test_output_shape_and_norm(self):
        net = self.make_projector()
        rng = np.random.default_rng(17)
        z = forward_batch(net, stack_of([rng.standard_normal((9, 6))])).out[0]
        assert z.shape == (128,)
        assert abs(np.linalg.norm(z) - 1.0) < 1e-9

    def test_eval_mode_deterministic(self):
        net = self.make_projector()
        view = np.random.default_rng(18).standard_normal((5, 6))
        views = stack_of([view])
        assert np.array_equal(forward_batch(net, views).out, forward_batch(net, views).out)
