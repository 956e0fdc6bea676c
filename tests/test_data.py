"""Feature files, corpora, normalization, sampling, and splits."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stacks import stack_of

from sevreg.data import (
    FEATURES_FILE,
    atomic_write,
    label_bins,
    label_histogram,
    load_corpus,
    make_corpus,
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
from sevreg.nn import Stack
from sevreg.synthetic import WorldConfig, build_world, strip_labels


def labeled_corpus(labels_by_speaker, name="c"):
    """A corpus of (2, 3) utterances of ones with the given labels per speaker."""
    pairs = [(spk, y) for spk, labels in labels_by_speaker.items() for y in labels]
    return make_corpus(
        name,
        stack_of([np.ones((2, 3), dtype=np.float32)] * len(pairs)),
        [f"u{i:04d}" for i in range(len(pairs))],
        [spk for spk, _ in pairs],
        [y for _, y in pairs],
        ["labeled"] * len(pairs),
    )


def one_utterance(label, provenance="labeled"):
    return make_corpus("c", stack_of([np.ones((1, 2))]), ["x"], ["s"], [label], [provenance])


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
        write_feature_file(p1, stack_of(mats))
        loaded = read_feature_file(p1)
        write_feature_file(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(loaded) == len(mats)
        for a, b in zip(loaded, mats):
            assert np.array_equal(a, b)
        # The rows as stored: one read-only float32 array.
        assert loaded.rows.dtype == np.float32 and not loaded.rows.flags.writeable

    def test_read_holds_the_file_bytes_once(self, tmp_path):
        labeled = build_world(WorldConfig())["labeled"]
        path = tmp_path / "features.dsqf"
        write_feature_file(path, labeled.stored())
        tracemalloc.start()
        try:
            loaded = read_feature_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file is read once and the rows are a view of its bytes; a copy
        # of the payload would take the peak past twice the file's size.
        assert loaded.rows.tobytes() == labeled.features.tobytes()
        assert peak < 1.5 * path.stat().st_size

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
        write_feature_file(path, stack_of([np.ones((4, 4)), np.ones((2, 4))]))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FeatureFormatError, match=r"features of shape \(6, 4\) overruns") as err:
            read_feature_file(path)
        assert err.value.offset == 24  # 16-byte header, two lengths

    def test_non_finite_rejected_on_write(self, tmp_path):
        bad = np.ones((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ParameterError):
            write_feature_file(tmp_path / "x.dsqf", stack_of([np.ones((3, 2)), bad]))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan])
    def test_values_not_finite_as_float32_rejected_on_write(self, tmp_path, value):
        bad = np.ones((3, 2))
        bad[1, 0] = value  # 1e39 is finite in float64 but inf in float32
        with pytest.raises(ParameterError, match="not finite as float32"):
            write_feature_file(tmp_path / "x.dsqf", stack_of([np.ones((2, 2)), bad]))
        assert not list(tmp_path.iterdir())  # no file and no .tmp

    def test_atomic_write_joins_a_sequence_of_buffers(self, tmp_path):
        rows = np.arange(6, dtype="<f4").reshape(2, 3)
        atomic_write(tmp_path / "x.bin", (b"head", struct.pack("<I", 7), rows))
        assert (tmp_path / "x.bin").read_bytes() == b"head" + struct.pack("<I", 7) + rows.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.bin"]

    @pytest.mark.parametrize(
        "stack",
        [
            Stack(np.ones((0, 3)), np.array([0])),
            Stack(np.ones((0, 3)), np.array([0, 0])),
            Stack(np.ones(3), np.array([0, 3])),
            Stack(np.ones((2, 3)), np.array([0])),  # rows, but no sequence boundaries
        ],
        ids=["no_matrix", "zero_rows", "one_dim", "one_bare_matrix"],
    )
    def test_empty_or_misshapen_rejected_on_write(self, tmp_path, stack):
        with pytest.raises(EmptyInputError):
            write_feature_file(tmp_path / "x.dsqf", stack)
        assert not list(tmp_path.iterdir())

    def test_offsets_must_cover_the_rows(self, tmp_path):
        for offsets in ([1, 3], [0, 2]):
            with pytest.raises(EmptyInputError):
                write_feature_file(tmp_path / "x.dsqf", Stack(np.ones((3, 2)), np.array(offsets)))
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
        write_feature_file(path, stack_of(mats))
        loaded = read_feature_file(path)
        assert [m.shape for m in loaded] == [(t, d) for t in lengths]
        assert all(np.array_equal(a, b) for a, b in zip(loaded, mats))


class TestCorpusIO:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = [rng.standard_normal((3, 4)).astype(np.float32) for _ in range(6)]
        labels = [float(1 + i % 7) if i % 3 else None for i in range(6)]
        provenance = ["pseudo" if i % 3 == 0 else "labeled" for i in range(6)]
        ids = [f"u{i}" for i in range(6)]
        corpus = make_corpus(
            "demo", stack_of(feats), ids, [f"s{i % 2}" for i in range(6)], labels, provenance
        )
        save_corpus(corpus, tmp_path / "c")
        loaded = load_corpus(tmp_path / "c")
        assert loaded.name == "demo"
        assert loaded.ids.tolist() == ids
        assert np.array_equal(loaded.features, corpus.features)
        assert np.array_equal(loaded.offsets, corpus.offsets)
        assert loaded.stack().rows.tobytes() == corpus.stack().rows.tobytes()
        assert np.array_equal(loaded.labels, corpus.labels, equal_nan=True)
        assert loaded.provenance.tolist() == provenance

    def test_directory_holds_manifest_and_one_feature_file(self, tmp_path):
        corpus = labeled_corpus({"a": [1.0, 2.0], "b": [3.0]})
        save_corpus(corpus, tmp_path / "c")
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
            "features.dsqf", "manifest.json",
        ]
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert all("path" not in entry for entry in manifest["utterances"])
        loaded = load_corpus(tmp_path / "c")
        # The payload as read: one float32 array, normalised where it is read.
        assert loaded.features.dtype == np.float32 and loaded.features.shape == (6, 3)
        stacked = loaded.stack().rows
        assert stacked.dtype == np.float64 and stacked.shape == (6, 3)

    def test_loaded_corpus_holds_its_rows_once(self, tmp_path):
        save_corpus(build_world(WorldConfig())["labeled"], tmp_path / "labeled")
        size = (tmp_path / "labeled" / FEATURES_FILE).stat().st_size
        load_corpus(tmp_path / "labeled")  # warm-up: imports and caches
        tracemalloc.start()
        try:
            loaded = load_corpus(tmp_path / "labeled")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # The file's bytes, viewed as the float32 rows, and the columns; a
        # second row array (float64 is twice the payload) passes 3x the file.
        assert len(loaded) > 0
        assert held < 1.5 * size

    def test_default_world_feature_files_keep_their_bytes(self, tmp_path):
        digests = {
            "labeled": "4750b0e25a605bd6cc867df17b7a65762bcfc61bc320142603540dc78532707e",
            "unlabeled": "4768e25dead0d35c54c3285cebf6d5fe1b272efd7c35e0dbe91ee6ba849b5168",
            "typical": "bae925200e3309bd968a658f963026b1b8fbeb0e55faae332320abb37ee63e51",
            "shifted_test": "7f2c1b2d0206a0edba93b08ecb4151fd8ca7283c0cb72389fa54a97ae93dda10",
        }
        for name, corpus in build_world(WorldConfig()).items():
            save_corpus(corpus, tmp_path / name)
            raw = (tmp_path / name / "features.dsqf").read_bytes()
            assert hashlib.sha256(raw).hexdigest() == digests[name], name

    @pytest.mark.parametrize("stored", [2, 4])
    def test_manifest_count_must_match_file(self, tmp_path, stored):
        save_corpus(labeled_corpus({"a": [1.0, 2.0, 3.0]}), tmp_path / "c")
        write_feature_file(tmp_path / "c" / "features.dsqf", stack_of([np.ones((2, 3))] * stored))
        with pytest.raises(FeatureFormatError, match=f"lists 3 utterances, .* holds {stored}"):
            load_corpus(tmp_path / "c")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(MergeError):
            make_corpus("c", stack_of([np.ones((1, 2))] * 2), ["x", "x"], ["s", "s"],
                        [1.0, 1.0], ["labeled"] * 2)

    def test_typical_must_be_label_one(self):
        with pytest.raises(ParameterError):
            one_utterance(3.0, provenance="typical")

    def test_label_range_enforced(self):
        with pytest.raises(ParameterError):
            one_utterance(8.0)


def per_utterance_frames(corpus, utterances) -> bytes:
    """The bytes of normalize_frames of each utterance's stored rows, one
    call per utterance, for `utterances` of a corpus made with make_corpus."""
    bounds = corpus.offsets
    return b"".join(
        normalize_frames(corpus.features[bounds[i] : bounds[i + 1]].astype(np.float64)).tobytes()
        for i in utterances
    )


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
        twice = normalize_frames(once.copy())
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_in_place(self):
        h = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert normalize_frames(h) is h
        assert np.array_equal(h, [[0.6, 0.8], [0.0, 0.0]])

    def test_same_bytes_as_a_division_into_a_new_array(self):
        h = np.random.default_rng(3).standard_normal((1000, 16)) * 7.0
        expected = h / np.linalg.norm(h, axis=1, keepdims=True)
        assert normalize_frames(h).tobytes() == expected.tobytes()

    def test_one_call_per_corpus_equals_one_per_utterance(self):
        for name, corpus in build_world(WorldConfig()).items():
            expected = per_utterance_frames(corpus, np.arange(len(corpus)))
            assert corpus.stack().rows.tobytes() == expected, name

    def test_every_gather_equals_one_call_per_utterance(self):
        world = build_world(WorldConfig())
        labeled, unlabeled = world["labeled"], world["unlabeled"]
        idx = np.random.default_rng(3).choice(len(labeled), size=40, replace=True)
        for which, utterances in [
            (slice(5, 60), np.arange(5, 60)), (idx, idx), (np.array([7]), np.array([7])),
        ]:
            assert labeled.stack(which).rows.tobytes() == per_utterance_frames(
                labeled, utterances
            )
        for part in split(labeled, (0.7, 0.15, 0.15), seed=0):
            assert labeled.take(part, "part").stack().rows.tobytes() == per_utterance_frames(
                labeled, part
            )
            # a gather of a part indexes the part's utterances
            inner = np.arange(len(part))[::-2]
            assert labeled.take(part, "part").stack(inner).rows.tobytes() == (
                per_utterance_frames(labeled, part[inner])
            )
        pool = unlabeled.with_labels(np.full(len(unlabeled), 4.0), "pool")
        assert pool.stack().rows.tobytes() == per_utterance_frames(
            unlabeled, np.arange(len(unlabeled))
        )


class TestSharedRows:
    """Splits and pools are index and label vectors over one corpus's rows."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig())

    def test_split_parts_and_pools_share_the_rows(self, world):
        labeled = world["labeled"]
        for idx in split(labeled, (0.7, 0.15, 0.15), seed=0):
            part = labeled.take(idx, "part")
            assert part.features is labeled.features
            assert part.stored().rows.tobytes() == b"".join(
                labeled.features[labeled.offsets[i] : labeled.offsets[i + 1]].tobytes()
                for i in idx
            )
        unlabeled = world["unlabeled"]
        pool = unlabeled.with_labels(np.full(len(unlabeled), 4.0), "pool")
        assert pool.features is unlabeled.features
        assert np.shares_memory(pool.stored().rows, unlabeled.features)
        assert np.all(pool.labels == 4.0) and np.isnan(unlabeled.labels).all()

    def test_making_a_pool_copies_no_rows(self, world):
        unlabeled = world["unlabeled"]
        labels = np.full(len(unlabeled), 4.0)
        tracemalloc.start()
        try:
            pool = unlabeled.with_labels(labels, "pool")
            stored = pool.stored().rows  # the pool's rows, before a net reads them
            strip_labels(unlabeled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One row copy would be 0.9 MB (float32) or 1.8 MB (float64); the new
        # label, provenance and id-check columns take about 0.1 MB. Reading
        # the pool (Corpus.stack) normalises a float64 copy, by design.
        assert np.shares_memory(stored, unlabeled.features)
        assert peak < unlabeled.features.nbytes // 4

    def test_corpus_arrays_are_read_only(self, world):
        corpus = world["labeled"]
        for array in (corpus.features, corpus.offsets, corpus.index,
                      corpus.ids, corpus.speakers, corpus.labels, corpus.provenance):
            with pytest.raises(ValueError):
                array[0] = array[1]


class TestSampler:
    def test_two_bin_weights(self):
        corpus = labeled_corpus({"a": [1.0] * 90, "b": [7.0] * 10})
        w = sampler_weights(corpus)
        assert np.allclose(w[:90], 1.0 / 90)
        assert np.allclose(w[90:], 1.0 / 10)

    def test_two_bin_draws_balance(self):
        corpus = labeled_corpus({"a": [1.0] * 90, "b": [7.0] * 10})
        w = sampler_weights(corpus)
        rng = np.random.default_rng(4)
        draws = rng.choice(len(corpus), size=100_000, p=w / w.sum())
        freq_low = np.mean(draws < 90)
        assert abs(freq_low - 0.5) < 0.02

    def test_uniform_histogram_equal_weights(self):
        corpus = labeled_corpus({"a": [float(b) for b in range(1, 8)]})
        assert np.allclose(sampler_weights(corpus), 1.0)

    def test_single_bin_equal_weights(self):
        corpus = labeled_corpus({"a": [2.0, 2.2, 1.8]})
        w = sampler_weights(corpus)
        assert np.allclose(w, w[0])

    def test_unlabeled_rejected(self):
        with pytest.raises(ParameterError):
            sampler_weights(one_utterance(None, provenance="pseudo"))

    def test_label_bin_rounding(self):
        # floor(y + 1/2): a half rounds up
        assert label_bins([2.4, 2.6, 2.5, 1.0, 7.0]).tolist() == [2, 3, 3, 1, 7]
        assert label_bins([]).shape == (0,)

    def test_histogram(self):
        corpus = labeled_corpus({"a": [1.0, 1.2, 6.8]})
        hist = label_histogram(corpus.labels)
        assert hist[1] == 2 and hist[7] == 1 and hist[4] == 0
        assert label_histogram([np.nan, 2.0]) == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0}


class TestSplit:
    def corpus_with_speakers(self, n_speakers, utts_per=3):
        return labeled_corpus(
            {f"spk{j}": [float(1 + j % 7)] * utts_per for j in range(n_speakers)}
        )

    def test_10_speakers_811(self):
        corpus = self.corpus_with_speakers(10)
        train, val, test = split(corpus, (0.8, 0.1, 0.1), seed=0)
        assert len(set(corpus.speakers[train])) == 8
        assert len(set(corpus.speakers[val])) == 1
        assert len(set(corpus.speakers[test])) == 1

    def test_deterministic(self):
        corpus = self.corpus_with_speakers(12)
        a = split(corpus, (0.5, 0.25, 0.25), seed=9)
        b = split(corpus, (0.5, 0.25, 0.25), seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_partition_property(self):
        corpus = self.corpus_with_speakers(9)
        parts = split(corpus, (0.4, 0.3, 0.3), seed=1)
        # Each part keeps corpus order, and together they hold every utterance once.
        assert all(np.all(np.diff(p) > 0) for p in parts)
        assert sorted(np.concatenate(parts).tolist()) == list(range(len(corpus)))
        speaker_sets = [set(corpus.speakers[p]) for p in parts]
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
