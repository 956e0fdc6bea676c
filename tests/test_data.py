"""Feature files, corpora, normalization, sampling, and splits."""

import json
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevreg.data import (
    Corpus,
    Utterance,
    label_bins,
    label_histogram,
    load_corpus,
    normalize_frames,
    read_feature_file,
    sampler_weights,
    save_corpus,
    split,
    write_feature_file,
)
from sevreg.errors import (
    EmptyInputError,
    FeatureFormatError,
    MergeError,
    ParameterError,
    PartitionError,
)


def make_corpus(labels_by_speaker, name="c"):
    utts = []
    i = 0
    for spk, labels in labels_by_speaker.items():
        for y in labels:
            utts.append(
                Utterance(
                    id=f"u{i:04d}", speaker_id=spk,
                    features=np.ones((2, 3)), label=y,
                )
            )
            i += 1
    return Corpus(utts, name=name)


def float32_matrices(rng, lengths, d, scale=1.0):
    """Float64 (T, D) matrices whose values float32 holds exactly."""
    return [
        (rng.standard_normal((t, d)) * scale).astype(np.float32).astype(np.float64)
        for t in lengths
    ]


class TestFeatureFiles:
    def test_round_trip_bytes_identical(self, tmp_path):
        mats = float32_matrices(np.random.default_rng(0), [7, 1, 4], 13)
        p1, p2 = tmp_path / "a.dsqf", tmp_path / "b.dsqf"
        write_feature_file(p1, mats)
        loaded = read_feature_file(p1)
        write_feature_file(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(loaded) == len(mats)
        for a, b in zip(loaded, mats):
            assert a.dtype == np.float64 and np.array_equal(a, b)
        # Every matrix is a row slice of one array.
        assert all(m.base is loaded[0].base for m in loaded)

    def test_zero_frames_rejected(self, tmp_path):
        path = tmp_path / "z.dsqf"
        path.write_bytes(b"DSQF" + struct.pack("<IIII", 2, 1, 3, 0))
        with pytest.raises(FeatureFormatError, match="utterance 0 has length 0") as err:
            read_feature_file(path)
        assert err.value.offset == 16

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.dsqf"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FeatureFormatError) as err:
            read_feature_file(path)
        assert err.value.offset == 0

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.dsqf"
        write_feature_file(path, [np.ones((4, 4)), np.ones((2, 4))])
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FeatureFormatError, match=r"features of shape \(6, 4\) overruns") as err:
            read_feature_file(path)
        assert err.value.offset == 24  # 16-byte header, two lengths

    def test_non_finite_rejected_on_write(self, tmp_path):
        bad = np.ones((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ParameterError):
            write_feature_file(tmp_path / "x.dsqf", [np.ones((3, 2)), bad])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "matrices",
        [[], [np.ones((0, 3))], [np.ones(3)], np.ones((2, 3))],
        ids=["no_matrix", "zero_rows", "one_dim", "one_bare_matrix"],
    )
    def test_empty_or_misshapen_rejected_on_write(self, tmp_path, matrices):
        with pytest.raises(EmptyInputError):
            write_feature_file(tmp_path / "x.dsqf", matrices)
        assert not list(tmp_path.iterdir())

    def test_dimension_overflow_rejected(self, tmp_path):
        path = tmp_path / "huge.dsqf"
        path.write_bytes(b"DSQF" + struct.pack("<IIII", 2, 1, 1 << 30, 2) + b"\x00" * 8)
        with pytest.raises(FeatureFormatError, match="overruns") as err:
            read_feature_file(path)
        assert err.value.offset == 20

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, lengths, d, seed):
        mats = float32_matrices(np.random.default_rng(seed), lengths, d, scale=10.0)
        path = tmp_path_factory.mktemp("rt") / "m.dsqf"
        write_feature_file(path, mats)
        loaded = read_feature_file(path)
        assert [m.shape for m in loaded] == [(t, d) for t in lengths]
        assert all(np.array_equal(a, b) for a, b in zip(loaded, mats))


class TestCorpusIO:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        utts = [
            Utterance(
                id=f"u{i}", speaker_id=f"s{i % 2}",
                features=rng.standard_normal((3, 4)).astype(np.float32).astype(float),
                label=float(1 + i % 7) if i % 3 else None,
                provenance="pseudo" if i % 3 == 0 else "labeled",
            )
            for i in range(6)
        ]
        corpus = Corpus(utts, name="demo")
        save_corpus(corpus, tmp_path / "c")
        loaded = load_corpus(tmp_path / "c")
        assert loaded.name == "demo"
        assert [u.id for u in loaded] == [u.id for u in corpus]
        for a, b in zip(corpus, loaded):
            assert np.array_equal(a.features, b.features)
            assert a.label == b.label and a.provenance == b.provenance

    def test_directory_holds_manifest_and_one_feature_file(self, tmp_path):
        corpus = make_corpus({"a": [1.0, 2.0], "b": [3.0]})
        save_corpus(corpus, tmp_path / "c")
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
            "features.dsqf", "manifest.json",
        ]
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert all("path" not in entry for entry in manifest["utterances"])
        loaded = load_corpus(tmp_path / "c")
        assert all(u.features.base is loaded.utterances[0].features.base for u in loaded)

    @pytest.mark.parametrize("stored", [2, 4])
    def test_manifest_count_must_match_file(self, tmp_path, stored):
        save_corpus(make_corpus({"a": [1.0, 2.0, 3.0]}), tmp_path / "c")
        write_feature_file(tmp_path / "c" / "features.dsqf", [np.ones((2, 3))] * stored)
        with pytest.raises(FeatureFormatError, match=f"lists 3 utterances, .* holds {stored}"):
            load_corpus(tmp_path / "c")

    def test_duplicate_ids_rejected(self):
        u = Utterance(id="x", speaker_id="s", features=np.ones((1, 2)), label=1.0)
        with pytest.raises(MergeError):
            Corpus([u, u])

    def test_typical_must_be_label_one(self):
        with pytest.raises(ParameterError):
            Utterance(
                id="x", speaker_id="s", features=np.ones((1, 2)),
                label=3.0, provenance="typical",
            )

    def test_label_range_enforced(self):
        with pytest.raises(ParameterError):
            Utterance(id="x", speaker_id="s", features=np.ones((1, 2)), label=8.0)


class TestNormalize:
    def test_row_345(self):
        out = normalize_frames(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_stays_zero(self):
        out = normalize_frames(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.array_equal(out[1], [1.0, 0.0])

    def test_unit_norms(self):
        rng = np.random.default_rng(2)
        out = normalize_frames(rng.standard_normal((4, 5)))
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((3, 4)) * rng.uniform(0.1, 100)
        once = normalize_frames(h)
        twice = normalize_frames(once)
        assert np.max(np.abs(once - twice)) < 1e-12


class TestFrames:
    """`Utterance.frames`: the normalized features, made once per utterance."""

    def utterance(self):
        rng = np.random.default_rng(3)
        return Utterance(id="x", speaker_id="s", features=rng.standard_normal((5, 4)) * 7.0)

    def test_normalized_once_bit_for_bit(self):
        u = self.utterance()
        raw = u.features.copy()
        frames = u.frames
        assert frames.tobytes() == normalize_frames(raw).tobytes()
        assert u.frames is frames
        assert np.array_equal(u.features, raw)

    def test_replaced_utterance_makes_equal_frames(self):
        u = self.utterance()
        frames = u.frames
        copy = replace(u, label=3.0, provenance="pseudo")
        assert copy.frames is not frames
        assert copy.frames.tobytes() == frames.tobytes()
        assert copy.frames is copy.frames

    def test_not_a_field(self):
        u = self.utterance()
        u.frames
        assert "frames" not in {f.name for f in fields(Utterance)}
        assert "frames" not in repr(u)


class TestSampler:
    def test_two_bin_weights(self):
        corpus = make_corpus({"a": [1.0] * 90, "b": [7.0] * 10})
        w = sampler_weights(corpus)
        assert np.allclose(w[:90], 1.0 / 90)
        assert np.allclose(w[90:], 1.0 / 10)

    def test_two_bin_draws_balance(self):
        corpus = make_corpus({"a": [1.0] * 90, "b": [7.0] * 10})
        w = sampler_weights(corpus)
        rng = np.random.default_rng(4)
        draws = rng.choice(len(corpus), size=100_000, p=w / w.sum())
        freq_low = np.mean(draws < 90)
        assert abs(freq_low - 0.5) < 0.02

    def test_uniform_histogram_equal_weights(self):
        corpus = make_corpus({"a": [float(b) for b in range(1, 8)]})
        assert np.allclose(sampler_weights(corpus), 1.0)

    def test_single_bin_equal_weights(self):
        corpus = make_corpus({"a": [2.0, 2.2, 1.8]})
        w = sampler_weights(corpus)
        assert np.allclose(w, w[0])

    def test_unlabeled_rejected(self):
        corpus = Corpus(
            [Utterance(id="u", speaker_id="s", features=np.ones((1, 2)), label=None, provenance="pseudo")]
        )
        with pytest.raises(ParameterError):
            sampler_weights(corpus)

    def test_label_bin_rounding(self):
        # floor(y + 1/2): a half rounds up
        assert label_bins([2.4, 2.6, 2.5, 1.0, 7.0]).tolist() == [2, 3, 3, 1, 7]
        assert label_bins([]).shape == (0,)

    def test_histogram(self):
        corpus = make_corpus({"a": [1.0, 1.2, 6.8]})
        hist = label_histogram(corpus)
        assert hist[1] == 2 and hist[7] == 1 and hist[4] == 0


class TestSplit:
    def corpus_with_speakers(self, n_speakers, utts_per=3):
        return make_corpus(
            {f"spk{j}": [float(1 + j % 7)] * utts_per for j in range(n_speakers)}
        )

    def test_10_speakers_811(self):
        corpus = self.corpus_with_speakers(10)
        train, val, test = split(corpus, (0.8, 0.1, 0.1), seed=0)
        assert len(train.speakers()) == 8
        assert len(val.speakers()) == 1
        assert len(test.speakers()) == 1

    def test_deterministic(self):
        corpus = self.corpus_with_speakers(12)
        a = split(corpus, (0.5, 0.25, 0.25), seed=9)
        b = split(corpus, (0.5, 0.25, 0.25), seed=9)
        for pa, pb in zip(a, b):
            assert [u.id for u in pa] == [u.id for u in pb]

    def test_partition_property(self):
        corpus = self.corpus_with_speakers(9)
        parts = split(corpus, (0.4, 0.3, 0.3), seed=1)
        all_ids = sorted(u.id for p in parts for u in p)
        assert all_ids == sorted(u.id for u in corpus)
        speaker_sets = [set(p.speakers()) for p in parts]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (speaker_sets[i] & speaker_sets[j])

    def test_too_few_speakers(self):
        corpus = self.corpus_with_speakers(2)
        with pytest.raises(PartitionError):
            split(corpus, (0.5, 0.3, 0.2), seed=0)

    def test_bad_ratios(self):
        corpus = self.corpus_with_speakers(5)
        with pytest.raises(ParameterError):
            split(corpus, (0.5, 0.6), seed=0)
        with pytest.raises(ParameterError):
            split(corpus, (0.9, -0.1, 0.2), seed=0)
