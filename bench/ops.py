"""Op table: the public numerics replayed at the coarse_default shapes.

``s1`` is a stage-1/3 batch (32 utterances, regression head) and ``s2`` a
stage-2 batch (128 augmented views, 128-d projector head), with D=16 and
H=320. The row counts are the median stacked rows of the 32- and
128-sequence ``nn.forward_batch`` calls that a traced coarse_default run
records; every traced run prints the shapes it saw next to these. L2-normalisation has no public function, so it
stays inside ``nn.forward_batch`` self time.
"""

from __future__ import annotations

import time

import numpy as np

from sevreg import nn
from sevreg.contrastive import Batch, PairingSpec, ntxent_loss, positive_pairs, variance_reg
from sevreg.optim import init_optimizer, optimizer_step

FEAT_DIM = 16
HIDDEN = 320
DROPOUT = 0.1
# (sequences, stacked rows, head outputs) per shape tag.
SHAPES = {"s1": (32, 571, 1), "s2": (128, 2137, 128)}
REPS = 30
WARMUP = 2


def _segments(rng, n_seqs: int, rows: int) -> list[int]:
    """Offsets splitting `rows` into `n_seqs` near-equal sequence lengths."""
    base, extra = divmod(rows, n_seqs)
    lengths = [base + (1 if i < extra else 0) for i in range(n_seqs)]
    rng.shuffle(lengths)
    return list(np.cumsum([0, *lengths]))


def _time(fn, reps: int = REPS) -> float:
    """Median wall time of `fn()` in microseconds."""
    for _ in range(WARMUP):
        fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)) * 1e6


def op_table(seed: int, reps: int = REPS) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    for tag, (n_seqs, rows, head_out) in SHAPES.items():
        net = nn.build_net(FEAT_DIM, rng, hidden_dim=HIDDEN, out_dim=head_out)
        inputs = {
            "adaptor1": rng.standard_normal((rows, FEAT_DIM)),
            "adaptor2": np.maximum(rng.standard_normal((rows, HIDDEN)), 0.0),
            "head": rng.standard_normal((n_seqs, 2 * HIDDEN)),
        }
        for layer, x in inputs.items():
            params = net.layers[layer]
            grad = rng.standard_normal((x.shape[0], params.out_dim))
            out[f"nn.op.{layer}.linear_forward.{tag}_us"] = _time(
                lambda: nn.linear_forward(params, x), reps)
            out[f"nn.op.{layer}.linear_backward.{tag}_us"] = _time(
                lambda: nn.linear_backward(params, x, grad), reps)

        a = rng.standard_normal((rows, HIDDEN))
        drop_rng = np.random.default_rng(seed)

        def relu_dropout():
            r = nn.relu(a)
            return r * nn.dropout_mask(r.shape, DROPOUT, drop_rng)

        out[f"nn.op.relu_dropout.{tag}_us"] = _time(relu_dropout, reps)

        h = np.maximum(a, 0.0)
        offsets = _segments(rng, n_seqs, rows)
        grad_pooled = rng.standard_normal((n_seqs, 2 * HIDDEN))

        def pool():
            return np.stack([nn.stats_pool(h[offsets[i]:offsets[i + 1]]) for i in range(n_seqs)])

        def pool_backward():
            g = np.empty_like(h)
            for i in range(n_seqs):
                lo, hi = offsets[i], offsets[i + 1]
                g[lo:hi] = nn.stats_pool_backward(h[lo:hi], grad_pooled[i])
            return g

        out[f"nn.op.stats_pool.{tag}_us"] = _time(pool, reps)
        out[f"nn.op.stats_pool_backward.{tag}_us"] = _time(pool_backward, reps)

    n_views, _, embed = SHAPES["s2"]
    z = rng.standard_normal((n_views, embed))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = rng.uniform(1.0, 7.0, size=n_views // 2)
    batch = Batch(views=[z] * n_views, labels=np.tile(labels, 2), b=n_views // 2)
    pairs = positive_pairs(batch, PairingSpec(strategy="coarse"))
    out["contrastive.op.ntxent_loss.s2_us"] = _time(lambda: ntxent_loss(z, pairs, 10.0), reps)
    out["contrastive.op.variance_reg.s2_us"] = _time(lambda: variance_reg(z, 1.0), reps)

    n_utts = SHAPES["s1"][0]
    pred = rng.uniform(1.0, 7.0, size=n_utts)
    target = rng.uniform(1.0, 7.0, size=n_utts)
    out["nn.op.huber_loss_batch.s1_us"] = _time(lambda: nn.huber_loss_batch(pred, target, 0.5), reps)

    net = nn.build_net(FEAT_DIM, rng, hidden_dim=HIDDEN, out_dim=1)
    params = net.param_arrays()
    grads = {k: 1e-3 * rng.standard_normal(v.shape) for k, v in params.items()}
    state = init_optimizer(params, lr=1e-4, weight_decay=0.01)
    out["optim.op.optimizer_step.s1_us"] = _time(lambda: optimizer_step(params, grads, state), reps)
    return out


OP_NAMES = tuple(sorted(
    [f"nn.op.{layer}.{op}.{tag}_us"
     for tag in SHAPES
     for layer in ("adaptor1", "adaptor2", "head")
     for op in ("linear_forward", "linear_backward")]
    + [f"nn.op.{op}.{tag}_us"
       for tag in SHAPES
       for op in ("relu_dropout", "stats_pool", "stats_pool_backward")]
    + ["contrastive.op.ntxent_loss.s2_us", "contrastive.op.variance_reg.s2_us",
       "nn.op.huber_loss_batch.s1_us", "optim.op.optimizer_step.s1_us"]
))
