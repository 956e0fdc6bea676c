"""Adaptive-moment optimizer with coupled or decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError


@dataclass
class OptimState:
    """Per-parameter first/second moments plus the shared step counter.

    decoupled=True applies weight decay directly to the parameters (AdamW);
    decoupled=False folds lr*decay*w into the gradient before the moment
    updates (classic L2-coupled Adam).

    `scratch` holds two work arrays per parameter, shaped and typed like it,
    through which optimizer_step evaluates the update without allocating.
    """

    lr: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decoupled: bool = True
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def init_optimizer(
    params: dict[str, np.ndarray],
    lr: float,
    weight_decay: float = 0.0,
    decoupled: bool = True,
) -> OptimState:
    state = OptimState(lr=lr, weight_decay=weight_decay, decoupled=decoupled)
    state.m = {k: np.zeros_like(p) for k, p in params.items()}
    state.v = {k: np.zeros_like(p) for k, p in params.items()}
    state.scratch = {k: (np.empty_like(p), np.empty_like(p)) for k, p in params.items()}
    return state


def optimizer_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimState,
) -> None:
    """One bias-corrected moment update, in place on `params`."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient in '{name}'")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        # These terms, each rounded in the same order, so the result is bit
        # for bit that of the plain expressions:
        #   g = g + wd * p                          (coupled decay)
        #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g**2
        #   p -= lr * wd * p                        (decoupled decay)
        #   p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        g = grads[name]
        m, v = state.m[name], state.v[name]
        s, u = state.scratch[name]
        if not state.decoupled and state.weight_decay != 0.0:
            g = np.add(g, np.multiply(state.weight_decay, p, out=s), out=s)
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, g, out=u)
        v *= state.beta2
        v += np.multiply(1.0 - state.beta2, np.square(g, out=u), out=u)
        if state.decoupled and state.weight_decay != 0.0:
            p -= np.multiply(state.lr * state.weight_decay, p, out=u)
        np.multiply(state.lr, np.divide(m, bc1, out=s), out=s)
        np.add(np.sqrt(np.divide(v, bc2, out=u), out=u), state.eps, out=u)
        p -= np.divide(s, u, out=s)
