"""Dense-layer numerics: explicit forward/backward passes.

Everything operates on plain row-major numpy arrays, and every op keeps the
dtype of its inputs: a net built in float32 (as the pipeline trains) runs in
float32, one built in float64 (as the gradient checks use) in float64.
Sequences are (T, D) matrices; batches of sequences are processed as one
stacked matrix with segmented pooling, which keeps the matmuls large and the
gradients exact. In training with dropout, ReLU and dropout are one
multiplier per hidden layer: the ReLU gate times the inverted-dropout scale,
applied forward as h = a * mask and backward as grad_a = grad_h * mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, EmptyInputError, ParameterError, TransferError

# Inside the std square root; keeps the pooling gradient finite at zero variance.
STD_EPS = 1e-8

# Bytes of one zero-padded block of statistics pooling. A run of segments this
# size stays in cache with its temporaries; a whole stage-2 batch at H=320
# (2137 x 320 rows) does not. Of 64 KiB to 2 MiB, 512 KiB and 1 MiB pooled
# fastest at H=320 on a 2-core Xeon with 4 MiB of L2 per core, in float64
# and again in float32 (forward + backward at the stage-1 and stage-2 batch
# shapes: 256 KiB 5-10 % slower, 1 MiB within 2 %); the smaller one keeps
# the temporaries smaller.
POOL_GROUP_BYTES = 512 * 1024

# Rows per block of the weight-gradient reduction grad_out.T @ x. OpenBLAS
# (0.3.31 on a 2-core Xeon) splits a long reduction between its threads, so
# the one product over K rows adds in an order that depends on
# OPENBLAS_NUM_THREADS: at 1 and 2 threads most K above about 461 (float32)
# or 396 (float64) rows gave different bits, multiples of 64 excepted. Sums
# of 256-, 320- or 384-row block products agreed for every K from 2 to 4400
# (step 7), in both dtypes, at widths 320x320, 320x16 and 128x320; blocks of
# 448 rows did not in float64. Above one block the sum differs from the one
# product in its last bits, at any thread count.
GRAD_BLOCK_ROWS = 384


# ---------------------------------------------------------------------------
# Layer parameters
# ---------------------------------------------------------------------------


@dataclass
class LayerParams:
    """One affine layer: weight (out, in) and bias (out,)."""

    weight: np.ndarray
    bias: np.ndarray

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


def init_layer(rng: np.random.Generator, n_in: int, n_out: int) -> LayerParams:
    """Uniform +-sqrt(1/fan_in) float64 init for weight and bias."""
    bound = math.sqrt(1.0 / n_in)
    weight = rng.uniform(-bound, bound, size=(n_out, n_in))
    bias = rng.uniform(-bound, bound, size=n_out)
    return LayerParams(weight, bias)


# ---------------------------------------------------------------------------
# Elementary ops (forward + backward)
# ---------------------------------------------------------------------------


def linear_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    """y = x @ W.T + b. x (T, in) -> (T, out)."""
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise DimensionError(
            f"linear expects (T, {params.in_dim}), got {x.shape}"
        )
    y = x @ params.weight.T
    y += params.bias
    return y


def linear_param_grads(
    x: np.ndarray, grad_out: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (grad_w, grad_b) for y = x @ W.T + b, for a layer whose input
    needs no gradient, written into `out` when given.

    grad_w sums the products of GRAD_BLOCK_ROWS-row blocks in block order,
    so its bits do not depend on the BLAS thread count; up to
    GRAD_BLOCK_ROWS rows it is the one product grad_out.T @ x."""
    grad_w, grad_b = (None, None) if out is None else out
    grad_w = np.matmul(grad_out[:GRAD_BLOCK_ROWS].T, x[:GRAD_BLOCK_ROWS], out=grad_w)
    for start in range(GRAD_BLOCK_ROWS, x.shape[0], GRAD_BLOCK_ROWS):
        stop = start + GRAD_BLOCK_ROWS
        grad_w += grad_out[start:stop].T @ x[start:stop]
    return grad_w, np.sum(grad_out, axis=0, out=grad_b)


def linear_backward(
    params: LayerParams, x: np.ndarray, grad_out: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (grad_w, grad_b, grad_x) for y = x @ W.T + b; `out` as in
    linear_param_grads."""
    grad_w, grad_b = linear_param_grads(x, grad_out, out)
    return grad_w, grad_b, grad_out @ params.weight


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient passes only where x > 0 (subgradient at 0 is 0)."""
    return grad_out * (x > 0.0)


def dropout_mask(
    shape: tuple[int, ...],
    p: float,
    rng: np.random.Generator | None,
    dtype=np.float64,
    gate: np.ndarray | None = None,
) -> np.ndarray:
    """Inverted-dropout multiplier in `dtype`: 0 with probability p, else
    1/(1-p).

    Each element draws one uint32 u from the generator's raw 64-bit words,
    two per word, and is kept where u >= round(p * 2**32) (capped at
    2**32 - 1), so the keep probability is 1 - p to within 2**-32 and n
    elements advance the stream by ceil(n/2) words. A boolean `gate` of the
    same shape is ANDed into the keep mask; forward_batch passes a > 0, so
    one multiplier applies ReLU and dropout together.
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        keep = np.ones(shape, dtype=bool)
    elif rng is None:
        raise ParameterError("training-mode dropout needs a seeded generator")
    else:
        n = math.prod(shape)
        words = rng.bit_generator.random_raw((n + 1) // 2)
        threshold = np.uint32(min(round(p * 2.0**32), 2**32 - 1))
        keep = words.view(np.uint32)[:n].reshape(shape) >= threshold
    if gate is not None:
        keep &= gate
    return np.divide(keep, 1.0 - p, dtype=dtype)


def _segment_groups(lengths: np.ndarray, width: int, itemsize: int):
    """Split segments into runs whose zero-padded (b, T_max, width) block of
    `itemsize`-byte values fits POOL_GROUP_BYTES; yields (first, stop)
    segment indices, >= 1 per run.

    At width 1 NumPy sums a lone column pairwise, not row by row, so padding
    would reorder the additions; runs then also stop where the length changes.
    """
    cap = max(1, POOL_GROUP_BYTES // (itemsize * width))
    first, n = 0, len(lengths)
    while first < n:
        run = lengths[first : first + cap]
        fits = np.arange(1, len(run) + 1) * np.maximum.accumulate(run) <= cap
        if width == 1:
            fits &= run == run[0]
        stop = first + max(1, int(np.logical_and.accumulate(fits).sum()))
        yield first, stop
        first = stop


def stats_pool(h: np.ndarray, offsets: np.ndarray | None = None) -> np.ndarray:
    """Concatenate temporal mean and std per dimension: (T, D) -> (2D,).

    With segment `offsets` (B + 1 row boundaries) the rows of `h` are B
    sequences and the result is (B, 2D). Std uses the population divisor T
    with STD_EPS inside the square root. Segments are pooled in zero-padded
    runs of POOL_GROUP_BYTES; the sums over the padded axis add rows in
    order, as h.mean(axis=0) does, so each row of the result equals the
    pooling of its segment alone bit for bit. The result has h's dtype.
    """
    if h.ndim != 2 or h.shape[0] < 1:
        raise EmptyInputError(f"stats_pool needs a (T>=1, D) matrix, got {h.shape}")
    bounds = np.array([0, h.shape[0]] if offsets is None else offsets)
    lengths = np.diff(bounds)
    if bounds[0] != 0 or bounds[-1] != h.shape[0] or np.any(lengths < 1):
        raise EmptyInputError(f"segment offsets {bounds} do not split {h.shape[0]} rows")
    d = h.shape[1]
    pooled = np.empty((len(lengths), 2 * d), dtype=h.dtype)
    for first, stop in _segment_groups(lengths, d, h.itemsize):
        t = lengths[first:stop]
        t_col = t[:, None].astype(h.dtype)
        rows = h[bounds[first] : bounds[stop]]
        block = np.empty((len(t), t.max(), d), dtype=h.dtype)
        if t.min() == t.max():
            pad, padded = None, rows.reshape(block.shape)
        else:
            pad = np.arange(t.max()) >= t[:, None]
            block[~pad] = rows
            block[pad] = 0.0
            padded = block
        mean = np.divide(padded.sum(axis=1), t_col, out=pooled[first:stop, :d])
        centred = np.square(np.subtract(padded, mean[:, None], out=block), out=block)
        if pad is not None:
            centred[pad] = 0.0
        np.sqrt(centred.sum(axis=1) / t_col + STD_EPS, out=pooled[first:stop, d:])
    return pooled if offsets is not None else pooled[0]


def stats_pool_backward(
    h: np.ndarray,
    grad_out: np.ndarray,
    offsets: np.ndarray | None = None,
    pooled: np.ndarray | None = None,
) -> np.ndarray:
    """Backward of stats_pool: grad_out (2D,) -> grad_h (T, D).

    With segment `offsets`, grad_out is (B, 2D). `pooled` is the forward
    result, whose mean | std rows are reused; without it they are computed
    again from `h`.
    """
    if pooled is None:
        pooled = stats_pool(h, offsets)
    bounds = np.array([0, h.shape[0]] if offsets is None else offsets)
    lengths = np.diff(bounds)
    grad_out = grad_out.reshape(len(lengths), -1)
    pooled = pooled.reshape(len(lengths), -1)
    d = h.shape[1]
    grad_h = np.empty_like(h)
    for first, stop in _segment_groups(lengths, d, h.itemsize):
        t = lengths[first:stop]
        t_col = t[:, None].astype(h.dtype)
        lo, hi = bounds[first], bounds[stop]
        mean, std = pooled[first:stop, :d], pooled[first:stop, d:]
        grad_mean, grad_std = grad_out[first:stop, :d], grad_out[first:stop, d:]
        # d std_k / d h_tk = (h_tk - mean_k) / (T * std_k); the mean term cancels.
        g = np.subtract(h[lo:hi], np.repeat(mean, t, axis=0), out=grad_h[lo:hi])
        g *= np.repeat(grad_std, t, axis=0)
        g /= np.repeat(t_col * std, t, axis=0)
        g += np.repeat(grad_mean / t_col, t, axis=0)
    return grad_h


def huber_loss(pred: float, target: float, delta: float) -> tuple[float, float]:
    """Huber value and d/dpred. Quadratic for |e| <= delta, linear beyond."""
    if delta <= 0.0:
        raise ParameterError(f"huber delta must be > 0, got {delta}")
    e = pred - target
    if abs(e) <= delta:
        return 0.5 * e * e, e
    return delta * (abs(e) - 0.5 * delta), delta * math.copysign(1.0, e)


def huber_loss_batch(
    pred: np.ndarray, target: np.ndarray, delta: float
) -> tuple[float, np.ndarray]:
    """Mean Huber loss over a batch and gradient w.r.t. pred."""
    if delta <= 0.0:
        raise ParameterError(f"huber delta must be > 0, got {delta}")
    e = pred - target
    quad = np.abs(e) <= delta
    values = np.where(quad, 0.5 * e * e, delta * (np.abs(e) - 0.5 * delta))
    grads = np.where(quad, e, delta * np.sign(e))
    n = e.shape[0]
    return float(values.mean()), grads / n


# ---------------------------------------------------------------------------
# Adaptor network
# ---------------------------------------------------------------------------


# The layers of a net, in the order of its flat parameter array; each stores
# its weight, then its bias, so the trunk (all but the head) is a prefix.
TRUNK = ("adaptor1", "adaptor2")
LAYERS = (*TRUNK, "head")


def param_shapes(feat_dim: int, hidden_dim: int, out_dim: int) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter, keyed 'layer.weight' / 'layer.bias', in
    the order of the flat array."""
    dims = {
        "adaptor1": (hidden_dim, feat_dim),
        "adaptor2": (hidden_dim, hidden_dim),
        "head": (out_dim, 2 * hidden_dim),
    }
    shapes = {}
    for name in LAYERS:
        shapes[f"{name}.weight"] = dims[name]
        shapes[f"{name}.bias"] = dims[name][:1]
    return shapes


@dataclass
class AdaptorNet:
    """Two linear layers -> ReLU/dropout -> statistics pooling -> linear head.

    out_dim=1 gives the severity regressor; out_dim=embed size with
    normalize_output=True gives the contrastive projector. The trunk is shared
    so projector weights can seed the regressor.

    Every parameter lives in the one contiguous array `flat`; `layers` and
    param_arrays() are views into it, and backward_batch returns gradients
    in the same layout.
    """

    flat: np.ndarray
    feat_dim: int
    hidden_dim: int = 320
    out_dim: int = 1
    dropout_p: float = 0.1
    normalize_output: bool = False
    layers: dict[str, LayerParams] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        views = self.named(self.flat)
        self.layers = {
            name: LayerParams(views[f"{name}.weight"], views[f"{name}.bias"])
            for name in LAYERS
        }

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the parameters, and of every activation and gradient."""
        return self.flat.dtype

    def named(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of an array in this net's layout, keyed 'layer.weight' /
        'layer.bias', in layout order."""
        views, start = {}, 0
        for key, shape in param_shapes(self.feat_dim, self.hidden_dim, self.out_dim).items():
            stop = start + math.prod(shape)
            views[key] = flat[start:stop].reshape(shape)
            start = stop
        return views

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Live views of all parameters, keyed 'layer.weight' / 'layer.bias'."""
        return self.named(self.flat)

    def copy(self) -> "AdaptorNet":
        return replace(self, flat=self.flat.copy())

    def load_trunk(self, source: "AdaptorNet") -> None:
        """Copy the trunk of `source`, the prefix of its flat array, into this
        net; a trunk of another shape raises TransferError naming the
        parameters that do not fit."""
        ours, theirs = self.named(self.flat), source.named(source.flat)
        trunk = [key for key in ours if key.split(".")[0] in TRUNK]
        mismatched = [key for key in trunk if ours[key].shape != theirs[key].shape]
        if mismatched:
            raise TransferError(
                f"checkpoint layers do not fit the model: {mismatched}", layers=mismatched
            )
        size = sum(ours[key].size for key in trunk)
        self.flat[:size] = source.flat[:size]


def build_net(
    feat_dim: int,
    seed_or_rng,
    hidden_dim: int = 320,
    out_dim: int = 1,
    dropout_p: float = 0.1,
    normalize_output: bool = False,
    dtype=np.float64,
) -> AdaptorNet:
    """Seeded construction; head is drawn after the trunk on the same stream.
    The parameters are drawn in float64 and stored in `dtype`."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    size = sum(math.prod(s) for s in param_shapes(feat_dim, hidden_dim, out_dim).values())
    net = AdaptorNet(
        flat=np.empty(size, dtype=dtype),
        feat_dim=feat_dim,
        hidden_dim=hidden_dim,
        out_dim=out_dim,
        dropout_p=dropout_p,
        normalize_output=normalize_output,
    )
    for layer in net.layers.values():
        drawn = init_layer(rng, layer.in_dim, layer.out_dim)
        layer.weight[...] = drawn.weight
        layer.bias[...] = drawn.bias
    return net


@dataclass
class Stack:
    """Sequences stacked as one matrix: `rows` (sum T_i, D) split at the
    B + 1 boundaries `offsets`. len() and iteration give the B sequences."""

    rows: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self):
        return (self.rows[lo:hi] for lo, hi in zip(self.offsets[:-1], self.offsets[1:]))


@dataclass
class ForwardCache:
    """Intermediates of one batched forward pass, consumed by backward. Every
    array but `offsets` has the net's dtype."""

    x: np.ndarray           # stacked input (sum T, D)
    a1: np.ndarray          # pre-ReLU of adaptor1
    h1: np.ndarray          # post ReLU/dropout: a1 * mask1, or relu(a1)
    a2: np.ndarray
    h2: np.ndarray
    mask1: np.ndarray | None  # ReLU gate x dropout multiplier; None without dropout
    mask2: np.ndarray | None
    offsets: np.ndarray     # segment boundaries into the stacked rows
    pooled: np.ndarray      # (B, 2 * hidden_dim): mean | std, reused by backward
    out: np.ndarray         # final output (B, out_dim)
    norms: np.ndarray | None = None  # row norms used when normalize_output


def _relu_dropout(
    net: AdaptorNet, a: np.ndarray, drop: bool, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """ReLU, then dropout when `drop`: returns (h, mask). With dropout the
    mask is the ReLU gate times the dropout multiplier, and h = a * mask."""
    if not drop:
        return relu(a), None
    mask = dropout_mask(a.shape, net.dropout_p, rng, net.dtype, gate=a > 0.0)
    return a * mask, mask


def _relu_dropout_backward(
    a: np.ndarray, mask: np.ndarray | None, grad_h: np.ndarray
) -> np.ndarray:
    """dL/da from dL/dh; overwrites grad_h when there is a mask."""
    if mask is None:
        return relu_backward(a, grad_h)
    return np.multiply(grad_h, mask, out=grad_h)


def forward_batch(
    net: AdaptorNet,
    seqs: list[np.ndarray] | Stack,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardCache:
    """Run (T_i, D) sequences, a list or a Stack, through the network as one
    stack, cast once to the net's dtype."""
    if not len(seqs):
        raise EmptyInputError("forward_batch needs at least one sequence")
    parts = [seqs.rows] if isinstance(seqs, Stack) else seqs
    bad = [s.shape for s in parts if s.ndim != 2 or s.shape[1] != net.feat_dim]
    if bad:
        raise DimensionError(f"expected (T, {net.feat_dim}) sequences, got {bad[0]}")
    if isinstance(seqs, Stack):
        x, offsets = seqs.rows.astype(net.dtype, copy=False), seqs.offsets
    else:
        x = np.concatenate(seqs, axis=0, dtype=net.dtype)
        offsets = np.cumsum([0, *(s.shape[0] for s in seqs)])
    if np.diff(offsets).min() < 1:
        raise EmptyInputError("sequences must have T >= 1")

    drop = training and net.dropout_p > 0.0
    a1 = linear_forward(net.layers["adaptor1"], x)
    h1, mask1 = _relu_dropout(net, a1, drop, rng)
    a2 = linear_forward(net.layers["adaptor2"], h1)
    h2, mask2 = _relu_dropout(net, a2, drop, rng)

    pooled = stats_pool(h2, offsets)
    out = linear_forward(net.layers["head"], pooled)

    norms = None
    if net.normalize_output:
        norms = np.maximum(np.linalg.norm(out, axis=1, keepdims=True), 1e-12)
        out = out / norms
    return ForwardCache(
        x=x, a1=a1, h1=h1, a2=a2, h2=h2, mask1=mask1, mask2=mask2,
        offsets=offsets, pooled=pooled, out=out, norms=norms,
    )


def backward_batch(
    net: AdaptorNet, cache: ForwardCache, grad_out: np.ndarray
) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. all parameters, in the layout of
    `net.flat`, given dL/d out, which is cast to the net's dtype first."""
    grad_out = np.asarray(grad_out, dtype=net.dtype)
    if net.normalize_output:
        # z = y / ||y||; dy = (dz - z (z . dz)) / ||y||
        z = cache.out
        dot = np.sum(grad_out * z, axis=1, keepdims=True)
        grad_raw = (grad_out - z * dot) / cache.norms
    else:
        grad_raw = grad_out

    grad = np.empty_like(net.flat)
    g = net.named(grad)
    *_, grad_pooled = linear_backward(
        net.layers["head"], cache.pooled, grad_raw, out=(g["head.weight"], g["head.bias"])
    )

    grad_h2 = stats_pool_backward(cache.h2, grad_pooled, cache.offsets, cache.pooled)

    grad_a2 = _relu_dropout_backward(cache.a2, cache.mask2, grad_h2)
    *_, grad_h1 = linear_backward(
        net.layers["adaptor2"], cache.h1, grad_a2, out=(g["adaptor2.weight"], g["adaptor2.bias"])
    )

    grad_a1 = _relu_dropout_backward(cache.a1, cache.mask1, grad_h1)
    linear_param_grads(cache.x, grad_a1, out=(g["adaptor1.weight"], g["adaptor1.bias"]))
    return grad
