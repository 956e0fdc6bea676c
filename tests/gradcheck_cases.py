"""Finite-difference case builders for every trainable operation.

Each builder returns (loss_fn, flat_params) where loss_fn maps a flat
parameter vector to (loss, analytic_gradient). The same cases back the unit
tests and the acceptance gradient suite.
"""

import numpy as np
from stacks import stack_of

from sevreg.contrastive import (
    Batch,
    PairingSpec,
    ntxent_loss,
    positive_pairs,
    simclr_loss,
    stage2_loss,
    variance_reg,
)
from sevreg.gradcheck import finite_diff_check
from sevreg.nn import (
    LayerParams,
    backward_batch,
    build_net,
    dropout_mask,
    forward_batch,
    huber_loss,
    huber_loss_batch,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
    stats_pool,
    stats_pool_backward,
)


def linear_huber_case(rng):
    """Single linear layer into a per-row Huber loss."""
    t, n_in = 3, 4
    x = rng.standard_normal((t, n_in))
    targets = rng.standard_normal(t)

    def loss_fn(flat):
        layer = LayerParams(flat[:n_in].reshape(1, n_in), flat[n_in:])
        out = linear_forward(layer, x)
        value, dpred = huber_loss_batch(out[:, 0], targets, 0.5)
        gw, gb, _ = linear_backward(layer, x, dpred[:, None])
        return value, np.concatenate([gw.ravel(), gb])

    weight, bias = rng.standard_normal((1, n_in)), rng.standard_normal(1)
    return loss_fn, np.concatenate([weight.ravel(), bias])


def relu_case(rng):
    """Weighted sum through ReLU; inputs are kept away from the kink."""
    x0 = rng.standard_normal((3, 4))
    x0[np.abs(x0) < 0.05] += 0.1
    w = rng.standard_normal((3, 4))

    def loss_fn(flat):
        x = flat.reshape(x0.shape)
        value = float(np.sum(relu(x) * w))
        return value, relu_backward(x, w).ravel()

    return loss_fn, x0.ravel()


def dropout_fixed_mask_case(rng):
    """Training-mode dropout with a frozen mask (deterministic loss_fn)."""
    x0 = rng.standard_normal((4, 3))
    mask = dropout_mask(x0.shape, 0.3, rng)
    w = rng.standard_normal(x0.shape)

    def loss_fn(flat):
        x = flat.reshape(x0.shape)
        value = float(np.sum(x * mask * w))
        return value, (mask * w).ravel()

    return loss_fn, x0.ravel()


def stats_pool_case(rng):
    """Weighted sum of the pooled mean/std vector, gradient w.r.t. frames."""
    h0 = rng.standard_normal((5, 3))
    w = rng.standard_normal(6)

    def loss_fn(flat):
        h = flat.reshape(h0.shape)
        value = float(stats_pool(h) @ w)
        return value, stats_pool_backward(h, w).ravel()

    return loss_fn, h0.ravel()


def stats_pool_segments_case(rng):
    """Weighted sum of the pooled rows of a ragged batch, as forward_batch pools
    it: the backward reuses the forward statistics."""
    offsets = np.cumsum([0, 1, 4, 2, 5])
    h0 = rng.standard_normal((offsets[-1], 3))
    w = rng.standard_normal((len(offsets) - 1, 6))

    def loss_fn(flat):
        h = flat.reshape(h0.shape)
        pooled = stats_pool(h, offsets)
        value = float(np.sum(pooled * w))
        return value, stats_pool_backward(h, w, offsets, pooled).ravel()

    return loss_fn, h0.ravel()


def huber_case(rng):
    """Scalar Huber; the prediction is kept away from the |e| = delta kink."""
    target = float(rng.standard_normal())
    pred0 = target + float(rng.choice([-1.5, -0.25, 0.25, 1.5]))

    def loss_fn(flat):
        value, grad = huber_loss(float(flat[0]), target, 0.5)
        return value, np.array([grad])

    return loss_fn, np.array([pred0])


def _forward(net, seqs, drop_seed=None):
    """Eval-mode forward, or with `drop_seed` a training-mode one whose
    dropout generator is re-seeded on every call, so the mask stays fixed."""
    if drop_seed is None:
        return forward_batch(net, seqs, training=False)
    return forward_batch(net, seqs, training=True, rng=np.random.default_rng(drop_seed))


def _relu_margin(net, seqs, drop_seed=None) -> float:
    """Smallest |pre-activation|; tiny margins straddle the ReLU kink under
    central differences, so instances are resampled until clear of it."""
    cache = _forward(net, seqs, drop_seed)
    a1 = linear_forward(net.layers["adaptor1"], cache.x)
    a2 = linear_forward(net.layers["adaptor2"], cache.h1)
    return min(float(np.min(np.abs(a1))), float(np.min(np.abs(a2))))


def _net_case(rng, projector: bool, dropout_p: float = 0.0):
    feat_dim, hidden = 3, 4
    while True:
        seqs = stack_of(
            rng.standard_normal((int(rng.integers(2, 5)), feat_dim)) for _ in range(3)
        )
        net = build_net(
            feat_dim=feat_dim,
            seed_or_rng=int(rng.integers(1 << 30)),
            hidden_dim=hidden,
            out_dim=4 if projector else 1,
            dropout_p=dropout_p,
            normalize_output=projector,
        )
        drop_seed = int(rng.integers(1 << 30)) if dropout_p > 0.0 else None
        if _relu_margin(net, seqs, drop_seed) > 5e-4:
            break
    if projector:
        w_out = rng.standard_normal((3, 4))
    else:
        cache = _forward(net, seqs, drop_seed)
        # keep each |error| away from the Huber delta kink as well
        targets = cache.out[:, 0] + rng.choice([-1.5, -0.25, 0.25, 1.5], size=3)

    def loss_fn(flat):
        net.flat[...] = flat
        cache = _forward(net, seqs, drop_seed)
        if projector:
            value = float(np.sum(cache.out * w_out))
            return value, backward_batch(net, cache, w_out)
        value, dpred = huber_loss_batch(cache.out[:, 0], targets, 0.5)
        return value, backward_batch(net, cache, dpred[:, None])

    return loss_fn, net.flat.copy()


def regression_net_case(rng):
    """Full regression network (linear/ReLU/pool/head) into Huber."""
    return _net_case(rng, projector=False)


def regression_net_dropout_case(rng):
    """Training-mode regression network: the fused ReLU-dropout multiplier,
    forward and backward, with the dropout mask held fixed."""
    return _net_case(rng, projector=False, dropout_p=0.3)


def projector_case(rng):
    """Projection network incl. the unit-norm output, under a linear probe."""
    return _net_case(rng, projector=True)


def _unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _z_case(rng, loss_of_z, n=8, d=4):
    z0 = _unit_rows(rng, n, d)

    def loss_fn(flat):
        result = loss_of_z(flat.reshape(z0.shape))
        return result.value, result.grad.ravel()

    return loss_fn, z0.ravel()


def pairing_batch(rng, b=4):
    """Random view batch whose labels exercise all pairing strategies."""
    labels = rng.uniform(1.0, 7.0, size=b)
    views = [np.zeros((1, 1))] * (2 * b)  # losses only read labels and Z
    return Batch(views=views, labels=np.tile(labels, 2), b=b)


def simclr_case(rng, tau=0.5):
    return _z_case(rng, lambda z: simclr_loss(z, tau))


def ntxent_case(rng, strategy, tau=0.5):
    batch = pairing_batch(rng)
    spec = PairingSpec(strategy=strategy, tau=tau)
    pairs = positive_pairs(batch, spec)
    return _z_case(rng, lambda z: ntxent_loss(z, pairs, tau))


def variance_case(rng, gamma=2.0):
    # unit-norm rows keep every per-dimension std well below gamma, so the
    # hinge is active and smooth everywhere
    return _z_case(rng, lambda z: variance_reg(z, gamma))


def stage2_z_case(rng, strategy="coarse"):
    batch = pairing_batch(rng)
    spec = PairingSpec(strategy=strategy, tau=1.0)
    return _z_case(rng, lambda z: stage2_loss(z, batch, spec, gamma=2.0, var_weight=0.1))


def stage2_full_case(rng):
    """Composed check: projector parameters through the full stage-2 loss."""
    feat_dim, hidden, embed, b = 3, 4, 4, 4
    while True:
        seqs = stack_of(
            rng.standard_normal((int(rng.integers(2, 5)), feat_dim))
            for _ in range(2 * b)
        )
        net = build_net(
            feat_dim=feat_dim,
            seed_or_rng=int(rng.integers(1 << 30)),
            hidden_dim=hidden,
            out_dim=embed,
            dropout_p=0.0,
            normalize_output=True,
        )
        if _relu_margin(net, seqs) > 5e-4:
            break
    labels = np.tile(rng.uniform(1.0, 7.0, size=b), 2)
    batch = Batch(views=seqs, labels=labels, b=b)
    spec = PairingSpec(strategy="coarse", tau=1.0)

    def loss_fn(flat):
        net.flat[...] = flat
        cache = forward_batch(net, batch.views, training=False)
        result = stage2_loss(cache.out, batch, spec, gamma=2.0, var_weight=0.1)
        return result.value, backward_batch(net, cache, result.grad)

    return loss_fn, net.flat.copy()


GRADIENT_SUITE = [
    ("linear+huber", linear_huber_case, 1e-4),
    ("relu", relu_case, 1e-4),
    ("dropout-fixed-mask", dropout_fixed_mask_case, 1e-4),
    ("stats_pool", stats_pool_case, 1e-4),
    ("stats_pool[segments]", stats_pool_segments_case, 1e-4),
    ("huber", huber_case, 1e-4),
    ("regression-net", regression_net_case, 1e-4),
    ("regression-net[dropout]", regression_net_dropout_case, 1e-4),
    ("projector", projector_case, 1e-4),
    ("simclr_loss", simclr_case, 1e-3),
    ("ntxent[sup]", lambda rng: ntxent_case(rng, "sup"), 1e-3),
    ("ntxent[dis]", lambda rng: ntxent_case(rng, "dis"), 1e-3),
    ("ntxent[con]", lambda rng: ntxent_case(rng, "con"), 1e-3),
    ("ntxent[coarse]", lambda rng: ntxent_case(rng, "coarse"), 1e-3),
    ("variance_reg", variance_case, 1e-4),
    ("stage2_loss", stage2_z_case, 1e-3),
    ("stage2-projector", stage2_full_case, 1e-3),
]


def run_gradient_suite(n_instances=20, seed=0):
    """Run every case n_instances times; returns [(name, worst_rel_err, rtol)]."""
    results = []
    for name, builder, rtol in GRADIENT_SUITE:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_instances):
            loss_fn, params = builder(rng)
            report = finite_diff_check(loss_fn, params, eps=1e-5, rtol=rtol)
            worst = max(worst, report.max_rel_err)
        results.append((name, worst, rtol))
    return results
