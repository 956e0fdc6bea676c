"""Synthetic corpus generator: determinism, signal structure, world layout."""

import numpy as np
import pytest

from sevreg.data import save_corpus
from sevreg.errors import ParameterError
from sevreg.evaluation import srcc
from sevreg.synthetic import (
    SyntheticSpec,
    WorldConfig,
    build_world,
    gen_synthetic_corpus,
    strip_labels,
)


def corpora_equal(a, b):
    if len(a) != len(b) or a.name != b.name:
        return False
    return all(
        np.array_equal(getattr(a, column), getattr(b, column))
        for column in ("ids", "speakers", "labels", "provenance", "offsets", "features")
    )


def utterance_means(corpus, columns):
    """Each utterance's mean over its frames of the given feature columns."""
    return np.array([f[:, columns].mean(axis=0) for f in corpus.stored()])


def test_same_seed_identical_corpora():
    spec = SyntheticSpec(n_utts=50, n_speakers=10)
    assert corpora_equal(gen_synthetic_corpus(spec, 7), gen_synthetic_corpus(spec, 7))


def test_different_seed_differs():
    spec = SyntheticSpec(n_utts=50, n_speakers=10)
    assert not corpora_equal(gen_synthetic_corpus(spec, 7), gen_synthetic_corpus(spec, 8))


def test_serialized_corpora_byte_identical(tmp_path):
    spec = SyntheticSpec(n_utts=20, n_speakers=5)
    for sub in ("a", "b"):
        save_corpus(gen_synthetic_corpus(spec, 3), tmp_path / sub)
    for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_signal_mean_tracks_labels():
    spec = SyntheticSpec(n_utts=1000, n_speakers=50)
    corpus = gen_synthetic_corpus(spec, 11)
    means = utterance_means(corpus, slice(spec.signal_dims)).mean(axis=1)
    assert srcc(corpus.labels, means) > 0.9


def test_typical_labels_all_one():
    spec = SyntheticSpec(n_utts=40, n_speakers=8, typical=True)
    corpus = gen_synthetic_corpus(spec, 5)
    assert np.all(corpus.labels == 1.0)
    assert np.all(corpus.provenance == "typical")


def test_labels_within_range():
    spec = SyntheticSpec(n_utts=300, n_speakers=20)
    corpus = gen_synthetic_corpus(spec, 13)
    labels = corpus.labels
    assert labels.min() >= 1.0 and labels.max() <= 7.0


def test_inconsistent_spec_rejected():
    with pytest.raises(ParameterError):
        gen_synthetic_corpus(
            SyntheticSpec(n_utts=10, feat_dim=4, signal_dims=3, nuisance_dims=3), 0
        )
    with pytest.raises(ParameterError):
        gen_synthetic_corpus(SyntheticSpec(n_utts=10, label_histogram=(1.0,) * 6), 0)


def test_domain_shift_moves_nuisance_dims():
    base = SyntheticSpec(n_utts=400, n_speakers=20, nuisance_label_corr=0.0)
    near = gen_synthetic_corpus(base, 21)
    import dataclasses

    far = gen_synthetic_corpus(dataclasses.replace(base, domain_shift=3.0), 21)
    s, q = base.signal_dims, base.nuisance_dims
    near_nuis = utterance_means(near, slice(s, s + q)).mean(axis=0)
    far_nuis = utterance_means(far, slice(s, s + q)).mean(axis=0)
    assert np.linalg.norm(far_nuis) > np.linalg.norm(near_nuis) + 1.0


def test_strip_labels():
    corpus = gen_synthetic_corpus(SyntheticSpec(n_utts=10, n_speakers=2), 1)
    stripped = strip_labels(corpus)
    assert np.isnan(stripped.labels).all() and np.all(stripped.provenance == "pseudo")
    assert not np.isnan(corpus.labels).any()  # source untouched
    assert stripped.features is corpus.features


def test_build_world_shapes():
    cfg = WorldConfig(
        n_labeled=60, n_unlabeled=40, n_typical=30, n_shifted_test=20,
        labeled_speakers=12, unlabeled_speakers=8, typical_speakers=6,
        shifted_speakers=5,
    )
    world = build_world(cfg)
    assert set(world) == {"labeled", "unlabeled", "typical", "shifted_test"}
    assert len(world["labeled"]) == 60
    assert np.isnan(world["unlabeled"].labels).all()
    assert np.all(world["typical"].labels == 1.0)
    assert not np.isnan(world["shifted_test"].labels).any()
    # ids are unique across the union (needed for stage-2 merging)
    ids = [i for c in world.values() for i in c.ids.tolist()]
    assert len(ids) == len(set(ids))
