"""Pairing-set construction and the contrastive / variance objectives.

A batch of B sources becomes 2B views ordered so view i and view B+i come
from source i. All losses act on an embedding matrix Z (2B, d) and return
analytic gradients w.r.t. Z; parameter gradients come from backpropagating
those through the projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, draw_views
from .data import label_bins
from .errors import DimensionError, ParameterError
from .nn import Stack

VAR_EPS = 1e-4  # inside the variance-regularizer square root

# Per-strategy defaults; the grid {0.1, 1.0, 10.0, 50.0, 100.0} is sweepable.
DEFAULT_TAU = {"sup": 1.0, "dis": 1.0, "con": 0.1, "coarse": 10.0, "simclr": 0.1}

STRATEGIES = tuple(DEFAULT_TAU)


@dataclass
class PairingSpec:
    """Positive-pair rule: sup (equal labels), dis (equal rounded labels),
    con (label distance < alpha), coarse (same side of beta), simclr (the
    sibling view only; needs no labels)."""

    strategy: str = "coarse"
    alpha: float = 0.5
    beta: float = 1.5
    tau: float | None = None

    def resolved_tau(self) -> float:
        tau = DEFAULT_TAU[self.strategy] if self.tau is None else self.tau
        if tau <= 0:
            raise ParameterError(f"temperature must be > 0, got {tau}")
        return tau

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown pairing strategy '{self.strategy}'")
        if self.alpha <= 0:
            raise ParameterError("alpha must be > 0")
        if not 1.0 <= self.beta <= 7.0:
            raise ParameterError("beta must lie in the label range [1, 7]")
        self.resolved_tau()


@dataclass
class Batch:
    """2B augmented views, a Stack or a list, with tiled labels; views[i]
    and views[B+i] share source i, so labels[i] == labels[B+i]."""

    views: Stack | list[np.ndarray]
    labels: np.ndarray
    b: int

    def __post_init__(self):
        if len(self.views) != 2 * self.b or self.labels.shape != (2 * self.b,):
            raise DimensionError("batch must hold 2B views and 2B labels")


def build_batch(
    source: Stack,
    labels: np.ndarray,
    index: np.ndarray,
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> Batch:
    """Augment sequences `index` of `source` twice each and tile their
    entries of the label vector `labels`."""
    views = draw_views(source, index, cfg, rng)
    return Batch(views=views, labels=np.tile(labels[index], 2), b=len(index))


# ---------------------------------------------------------------------------
# Positive pairs
# ---------------------------------------------------------------------------


def positive_pairs(batch: Batch, spec: PairingSpec) -> np.ndarray:
    """Positive sets over the 2B views as one (2B, 2B) boolean mask: row i
    marks P(i), self excluded."""
    spec.validate()
    if spec.strategy == "simclr":
        return view_pairs(batch.b)
    y = batch.labels
    if np.any(np.isnan(y)):
        raise ParameterError("pairing requires labels on every view")
    if spec.strategy == "sup":
        same = y[:, None] == y[None, :]
    elif spec.strategy == "dis":
        bins = label_bins(y)
        same = bins[:, None] == bins[None, :]
    elif spec.strategy == "con":
        same = np.abs(y[:, None] - y[None, :]) < spec.alpha
    else:  # coarse
        side = y > spec.beta
        same = side[:, None] == side[None, :]
    np.fill_diagonal(same, False)
    return same


def view_pairs(b: int) -> np.ndarray:
    """P(i) = {k(i)}: each view's only positive is its sibling view."""
    return np.roll(np.eye(2 * b, dtype=bool), b, axis=1)


# ---------------------------------------------------------------------------
# Losses (value + gradient w.r.t. Z)
# ---------------------------------------------------------------------------


@dataclass
class LossResult:
    value: float
    grad: np.ndarray
    skipped_anchors: int = 0


def ntxent_loss(z: np.ndarray, pairs: np.ndarray, tau: float) -> LossResult:
    """Normalized temperature-scaled cross entropy over given positive sets.

    loss = -(1/n_active) sum_i (1/|P(i)|) sum_{p in P(i)}
           log( exp(z_i.z_p / tau) / sum_{j != i} exp(z_i.z_j / tau) )

    `pairs` is the (n, n) boolean mask of `positive_pairs`. Anchors with
    empty P(i) are skipped and excluded from the average. The denominator
    uses a max-shifted log-sum-exp, so the small-tau end of the temperature
    grid cannot overflow.
    """
    if tau <= 0:
        raise ParameterError(f"temperature must be > 0, got {tau}")
    n = z.shape[0]
    if n < 2:
        raise ParameterError("ntxent_loss needs at least two views")
    if pairs.shape != (n, n):
        raise DimensionError(f"positive mask of shape {pairs.shape} for {n} embeddings")
    if pairs.dtype != bool:
        raise ParameterError(f"positive mask must be boolean, got {pairs.dtype}")
    logits = (z @ z.T) / tau
    np.fill_diagonal(logits, -np.inf)  # exclude self from the denominator
    shift = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - shift)
    denom = expd.sum(axis=1, keepdims=True)
    log_denom = shift + np.log(denom)
    q = expd / denom  # softmax over A(i), rows sum to 1

    counts = pairs.sum(axis=1)
    active = counts > 0
    skipped = n - int(active.sum())
    if skipped == n:
        return LossResult(0.0, np.zeros_like(z), skipped)

    inv_p = 1.0 / np.maximum(counts, 1)
    # d loss / d logits: softmax minus the uniform positive weights, zero on
    # skipped rows. 1/|P| is rounded to z's dtype first, so the subtraction
    # runs in that dtype and coeff never widens.
    coeff = np.where(active[:, None], q, 0.0)
    coeff -= pairs * inv_p.astype(z.dtype)[:, None]
    log_prob = np.where(pairs, logits - log_denom, 0.0).sum(axis=1)
    inv_active = 1.0 / (n - skipped)
    loss = -float(np.sum(inv_p * log_prob)) * inv_active
    coeff *= inv_active / tau
    grad = coeff @ z + coeff.T @ z  # logits[i, j] touches both z_i and z_j
    return LossResult(loss, grad, skipped)


def simclr_loss(z: np.ndarray, tau: float) -> LossResult:
    """NT-Xent with each view's sibling as the only positive."""
    n = z.shape[0]
    if n % 2 != 0:
        raise DimensionError("simclr_loss needs an even number of views")
    return ntxent_loss(z, view_pairs(n // 2), tau)


def variance_reg(
    z: np.ndarray, gamma: float, eps: float = VAR_EPS
) -> LossResult:
    """Hinge on per-dimension batch std: mean_k max(0, gamma - sqrt(var_k + eps))."""
    n, d = z.shape
    if n < 2:
        raise ParameterError("variance_reg needs at least two rows")
    mean = z.mean(axis=0)
    var = np.square(z - mean).mean(axis=0)
    std = np.sqrt(var + eps)
    margin = gamma - std
    active = margin > 0.0
    loss = float(np.sum(margin[active])) / d
    grad = np.zeros_like(z)
    if np.any(active):
        # d std_k / d z_ik = (z_ik - mean_k) / (n * std_k)
        scale = np.where(active, -1.0 / (d * n * std), 0.0)
        grad = (z - mean) * scale
    return LossResult(loss, grad)


def with_variance(
    contrast: LossResult, z: np.ndarray, gamma: float, var_weight: float
) -> LossResult:
    """Add the weighted variance hinge to a contrastive result."""
    if var_weight == 0.0:
        return contrast
    var = variance_reg(z, gamma)
    return LossResult(
        contrast.value + var_weight * var.value,
        contrast.grad + var_weight * var.grad,
        contrast.skipped_anchors,
    )


def stage2_loss(
    z: np.ndarray,
    batch: Batch,
    spec: PairingSpec,
    gamma: float,
    var_weight: float,
) -> LossResult:
    """Contrastive term for the selected pairing plus weighted variance hinge."""
    contrast = ntxent_loss(z, positive_pairs(batch, spec), spec.resolved_tau())
    return with_variance(contrast, z, gamma, var_weight)
