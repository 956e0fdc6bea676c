"""Synthetic corpora with a monotone severity signal and nuisance structure.

Each utterance draws a severity bin from a configurable histogram over 1..7.
Signal dimensions carry per-frame means that increase with the label; their
per-dimension scales are a fixed function of the dimension index, so every
generated corpus shares the same signal geometry and models transfer across
them. Nuisance dimensions carry speaker offsets (optionally correlated with
the speaker's severity, which plants an in-domain shortcut) plus a domain
offset scaled by domain_shift, so robustness to unseen domains is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Corpus, make_corpus
from .errors import ParameterError
from .nn import Stack

DEFAULT_HISTOGRAM = (0.30, 0.25, 0.15, 0.10, 0.08, 0.07, 0.05)


@dataclass
class SyntheticSpec:
    """Shape and signal/nuisance structure of one generated corpus."""

    n_utts: int
    feat_dim: int = 16
    t_range: tuple[int, int] = (12, 24)
    n_speakers: int = 40
    signal_dims: int = 6
    nuisance_dims: int = 8
    domain_shift: float = 0.0
    label_histogram: tuple[float, ...] = DEFAULT_HISTOGRAM
    label_jitter: float = 0.25
    frame_noise: float = 0.5
    speaker_offset_scale: float = 1.0
    nuisance_label_corr: float = 0.0
    typical: bool = False
    name: str = "synthetic"
    id_prefix: str = "utt"

    def validate(self) -> None:
        if self.n_utts < 1:
            raise ParameterError("n_utts must be >= 1")
        if self.signal_dims + self.nuisance_dims > self.feat_dim:
            raise ParameterError(
                f"signal_dims + nuisance_dims = "
                f"{self.signal_dims + self.nuisance_dims} exceeds D={self.feat_dim}"
            )
        if self.signal_dims < 1:
            raise ParameterError("need at least one signal dimension")
        if not 1 <= self.t_range[0] <= self.t_range[1]:
            raise ParameterError(f"bad t_range {self.t_range}")
        if not 1 <= self.n_speakers:
            raise ParameterError("n_speakers must be >= 1")
        if len(self.label_histogram) != 7 or min(self.label_histogram) < 0:
            raise ParameterError("label_histogram needs 7 nonnegative weights")
        if sum(self.label_histogram) <= 0:
            raise ParameterError("label_histogram must have positive mass")
        if not 0.0 <= self.nuisance_label_corr <= 1.0:
            raise ParameterError("nuisance_label_corr must be in [0, 1]")
        if self.label_jitter < 0 or self.frame_noise < 0:
            raise ParameterError("jitter and noise must be nonnegative")


def signal_scales(spec: SyntheticSpec) -> np.ndarray:
    """Per-dimension signal slopes, fixed by dimension index (shared geometry)."""
    s = spec.signal_dims
    if s == 1:
        return np.array([0.75])
    return 0.5 + 0.5 * np.arange(s) / (s - 1)


def severity_to_unit(y) -> np.ndarray:
    """Map severity in [1, 7] to [-1, 1]."""
    return (np.asarray(y, dtype=float) - 4.0) / 3.0


def gen_synthetic_corpus(spec: SyntheticSpec, seed: int) -> Corpus:
    """Deterministically generate a labeled corpus from the spec.

    Each utterance draws its label jitter, length and frame noise, in that
    order; labels, base vectors and float32 rows are then made at once.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    s, q, d = spec.signal_dims, spec.nuisance_dims, spec.feat_dim
    scales = signal_scales(spec)
    weights = np.asarray(spec.label_histogram, dtype=float)
    weights = weights / weights.sum()

    # Per-speaker severity and nuisance offset. The correlated component sits
    # along the all-ones direction of the nuisance block.
    if spec.typical:
        severities = np.ones(spec.n_speakers)
    else:
        severities = 1.0 + rng.choice(7, size=spec.n_speakers, p=weights).astype(float)
    corr = spec.nuisance_label_corr
    offsets = spec.speaker_offset_scale * (
        corr * severity_to_unit(severities)[:, None] * np.ones(q)
        + np.sqrt(1.0 - corr**2) * rng.normal(0.0, 1.0, size=(spec.n_speakers, q))
    )
    domain_offset = spec.domain_shift * rng.normal(0.0, 1.0, size=q)

    jitter, noise = np.zeros(spec.n_utts), []
    for i in range(spec.n_utts):
        if not spec.typical:
            jitter[i] = rng.uniform(-spec.label_jitter, spec.label_jitter)
        t = int(rng.integers(spec.t_range[0], spec.t_range[1] + 1))
        noise.append(rng.normal(0.0, spec.frame_noise, size=(t, d)))
    spk = np.arange(spec.n_utts) % spec.n_speakers
    labels = np.clip(severities[spk] + jitter, 1.0, 7.0)  # typical: exactly 1
    lengths = [len(n) for n in noise]
    base = np.zeros((spec.n_utts, d))
    base[:, :s] = severity_to_unit(labels)[:, None] * scales
    base[:, s : s + q] = offsets[spk] + domain_offset
    rows = np.concatenate(noise)
    rows += np.repeat(base, lengths, axis=0)
    return make_corpus(
        spec.name,
        Stack(rows.astype(np.float32), np.cumsum([0, *lengths])),
        [f"{spec.id_prefix}-{i:05d}" for i in range(spec.n_utts)],
        [f"{spec.id_prefix}-spk-{k:03d}" for k in spk],
        labels,
        ["typical" if spec.typical else "labeled"] * spec.n_utts,
    )


def strip_labels(corpus: Corpus, name: str | None = None) -> Corpus:
    """Drop labels and mark utterances as the pseudo-label pool, over the
    same rows."""
    return corpus.with_labels(np.full(len(corpus), np.nan), name or f"{corpus.name}/unlabeled")


# ---------------------------------------------------------------------------
# Desk-scale world: labeled + unlabeled + typical + shifted test corpora
# ---------------------------------------------------------------------------


@dataclass
class WorldConfig:
    """All corpora one experiment needs, derived from a single seed."""

    seed: int = 1234
    feat_dim: int = 16
    t_range: tuple[int, int] = (12, 24)
    signal_dims: int = 6
    nuisance_dims: int = 8
    label_histogram: tuple[float, ...] = DEFAULT_HISTOGRAM
    label_jitter: float = 0.25
    frame_noise: float = 0.5
    speaker_offset_scale: float = 1.0
    nuisance_label_corr: float = 0.8
    n_labeled: int = 1200
    n_unlabeled: int = 800
    n_typical: int = 600
    n_shifted_test: int = 480
    labeled_speakers: int = 60
    unlabeled_speakers: int = 40
    typical_speakers: int = 30
    shifted_speakers: int = 24
    unlabeled_domain_shift: float = 0.3
    typical_domain_shift: float = 1.0
    test_domain_shift: float = 2.0
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)

    def base_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            n_utts=self.n_labeled,
            feat_dim=self.feat_dim,
            t_range=self.t_range,
            signal_dims=self.signal_dims,
            nuisance_dims=self.nuisance_dims,
            label_histogram=self.label_histogram,
            label_jitter=self.label_jitter,
            frame_noise=self.frame_noise,
            speaker_offset_scale=self.speaker_offset_scale,
        )


def build_world(cfg: WorldConfig) -> dict[str, Corpus]:
    """Generate the four corpora of one synthetic world.

    labeled: in-domain, severity-correlated nuisance offsets (the shortcut).
    unlabeled: same population at a mild domain shift, labels stripped.
    typical: severity-1 speech from a distinct domain.
    shifted_test: labeled data from an unseen domain where the nuisance
    shortcut is broken (offsets uncorrelated with severity).
    """
    base = cfg.base_spec()
    labeled = gen_synthetic_corpus(
        replace(
            base,
            name="labeled",
            id_prefix="lab",
            n_speakers=cfg.labeled_speakers,
            nuisance_label_corr=cfg.nuisance_label_corr,
            domain_shift=0.0,
        ),
        seed=cfg.seed,
    )
    unlabeled_src = gen_synthetic_corpus(
        replace(
            base,
            name="unlabeled",
            id_prefix="unl",
            n_utts=cfg.n_unlabeled,
            n_speakers=cfg.unlabeled_speakers,
            nuisance_label_corr=cfg.nuisance_label_corr,
            domain_shift=cfg.unlabeled_domain_shift,
        ),
        seed=cfg.seed + 1,
    )
    typical = gen_synthetic_corpus(
        replace(
            base,
            name="typical",
            id_prefix="typ",
            n_utts=cfg.n_typical,
            n_speakers=cfg.typical_speakers,
            nuisance_label_corr=0.0,
            domain_shift=cfg.typical_domain_shift,
            typical=True,
        ),
        seed=cfg.seed + 2,
    )
    shifted_test = gen_synthetic_corpus(
        replace(
            base,
            name="shifted_test",
            id_prefix="shf",
            n_utts=cfg.n_shifted_test,
            n_speakers=cfg.shifted_speakers,
            nuisance_label_corr=0.0,
            domain_shift=cfg.test_domain_shift,
        ),
        seed=cfg.seed + 3,
    )
    return {
        "labeled": labeled,
        "unlabeled": strip_labels(unlabeled_src, name="unlabeled"),
        "typical": typical,
        "shifted_test": shifted_test,
    }
