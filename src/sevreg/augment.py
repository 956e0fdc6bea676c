"""Feature-space augmentations producing view pairs for contrastive training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, ParameterError
from .nn import Stack


@dataclass
class AugmentConfig:
    """Noise / time-mask / crop settings; each transform is coin-gated."""

    noise_sigma: float = 0.01
    mask_max_frac: float = 0.20
    crop_min_frac: float = 0.70
    per_transform_prob: float = 0.5
    mask_spans: int = 1

    def validate(self) -> None:
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be >= 0")
        if not 0.0 <= self.mask_max_frac <= 1.0:
            raise ParameterError("mask_max_frac must be in [0, 1]")
        if not 0.0 < self.crop_min_frac <= 1.0:
            raise ParameterError("crop_min_frac must be in (0, 1]")
        if not 0.0 <= self.per_transform_prob <= 1.0:
            raise ParameterError("per_transform_prob must be in [0, 1]")
        if self.mask_spans < 1:
            raise ParameterError("mask_spans must be >= 1")


def draw_views(
    source: Stack, index: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator
) -> Stack:
    """Two augmented views of each of the B sequences `index` of `source` as
    one Stack; views i and B + i come from sequence index[i]. The views'
    rows are gathered from source.rows in one indexed take.

    Each view runs noise -> mask -> crop, each on its own coin of
    per_transform_prob: N(0, noise_sigma^2) noise, then mask_spans zeroed
    spans of length uniform in [0, floor(mask_max_frac * T)], then a window
    of length uniform in [ceil(crop_min_frac * T), T]. Spans and windows lie
    in the source's frames. A batch takes two generator calls whatever B
    is: the uniforms of every coin, span and crop, then the noise.
    """
    cfg.validate()
    first_row = source.offsets[:-1][index]
    lengths = source.offsets[1:][index] - first_row
    if len(index) == 0 or lengths.min() < 1:
        raise EmptyInputError("views need at least one sequence, each with T >= 1")
    t, first_row = np.concatenate((lengths, lengths)), np.concatenate((first_row, first_row))
    u = rng.random((5 + 2 * cfg.mask_spans, len(t)))
    noisy, masked, cropped = u[:3] < cfg.per_transform_prob
    # An integer uniform in [0, n) is floor(u * n): u < 1 keeps it below n,
    # and each value's probability is 1/n to within 2**-52.
    t_min = np.ceil(cfg.crop_min_frac * t)
    crop_len = t_min.astype(int) + (u[3] * (t - t_min + 1)).astype(int)
    crop_start = (u[4] * (t - crop_len + 1)).astype(int)
    span_len = (u[5::2] * (np.floor(cfg.mask_max_frac * t) + 1)).astype(int)
    span_start = (u[6::2] * (t - span_len + 1)).astype(int)

    kept = np.where(cropped, crop_len, t)
    offsets = np.concatenate(([0], np.cumsum(kept)))
    # Each view row's frame in its source, and that frame's row in source.rows.
    frame = np.arange(offsets[-1]) - np.repeat(offsets[:-1] - crop_start * cropped, kept)
    rows = source.rows.take(np.repeat(first_row, kept) + frame, axis=0)
    noise_rows = np.flatnonzero(np.repeat(noisy, kept))
    rows[noise_rows] += rng.normal(0.0, cfg.noise_sigma, size=(len(noise_rows), rows.shape[1]))
    lo, hi = (np.repeat(a, kept, axis=1) for a in (span_start, span_start + span_len))
    rows[np.flatnonzero(np.repeat(masked, kept) & ((lo <= frame) & (frame < hi)).any(0))] = 0.0
    return Stack(rows, offsets)


def make_views(
    h: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two independent augmented views of one sequence: draw_views of a
    batch of one.

    The source label travels with both views unchanged; batch assembly is
    responsible for tiling it.
    """
    return tuple(draw_views(Stack(h, np.array([0, len(h)])), np.array([0]), cfg, rng))
