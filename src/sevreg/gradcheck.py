"""Central finite-difference checking of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_index: int
    n_params: int
    rtol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.rtol


def finite_diff_check(
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    params: np.ndarray,
    eps: float = 1e-5,
    rtol: float = 1e-4,
) -> GradCheckReport:
    """Compare loss_fn's analytic gradient to central differences.

    loss_fn maps a flat parameter vector to (loss, gradient) and must be
    deterministic (dropout off or masks seed-fixed). Relative error per
    coordinate is |fd - an| / max(|fd|, |an|, 1e-6).
    """
    _, analytic = loss_fn(params)
    analytic = np.asarray(analytic, dtype=float)
    fd = np.empty_like(analytic)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] += eps
        up, _ = loss_fn(bumped)
        bumped[i] -= 2.0 * eps
        down, _ = loss_fn(bumped)
        fd[i] = (up - down) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-6)
    rel = np.abs(fd - analytic) / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    return GradCheckReport(
        max_rel_err=float(rel.max()) if rel.size else 0.0,
        worst_index=worst,
        n_params=int(params.size),
        rtol=rtol,
    )
