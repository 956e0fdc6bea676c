"""Test helper: the fast synthetic world of the end-to-end tests (D 8, a few
hundred utterances of 6 to 12 frames), as a WorldConfig and as the
`data.world` object of a config document."""

from dataclasses import asdict

from sevreg.synthetic import WorldConfig

FAST_WORLD = WorldConfig(
    feat_dim=8,
    signal_dims=4,
    nuisance_dims=3,
    n_labeled=400,
    n_unlabeled=160,
    n_typical=120,
    n_shifted_test=100,
    labeled_speakers=20,
    unlabeled_speakers=10,
    typical_speakers=6,
    shifted_speakers=8,
    t_range=(6, 12),
)

# Tuples as JSON lists.
FAST_WORLD_DOC = {
    key: list(value) if isinstance(value, tuple) else value
    for key, value in asdict(FAST_WORLD).items()
}
