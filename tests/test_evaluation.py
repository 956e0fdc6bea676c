"""Ranks, correlations, aggregation, reports, and the embedding dump format."""

import csv
import struct
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from stacks import stack_of

from sevreg.data import make_corpus
from sevreg.errors import (
    DegenerateCorrelationError,
    FeatureFormatError,
    MappingError,
    ParameterError,
)
from sevreg.evaluation import (
    EvalReport,
    correlate_scores,
    evaluate_scores,
    pcc,
    rank,
    read_embeddings,
    speaker_aggregate,
    srcc,
    write_embeddings,
    write_results_csv,
)


def brute_force_rank(values):
    """Sort-and-average oracle: mean of 1-based positions of equal values."""
    v = list(values)
    order = sorted(range(len(v)), key=lambda i: v[i])
    ranks = [0.0] * len(v)
    for i in order:
        positions = [p + 1 for p, j in enumerate(order) if v[j] == v[i]]
        ranks[i] = sum(positions) / len(positions)
    return ranks


class TestRank:
    def test_strictly_increasing(self):
        assert np.array_equal(rank([10, 20, 30]), [1, 2, 3])

    def test_tie_pair(self):
        assert np.array_equal(rank([5, 5]), [1.5, 1.5])

    def test_mixed_ties(self):
        assert np.array_equal(rank([3, 1, 4, 1]), [3, 1.5, 4, 1.5])

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, values):
        assert np.allclose(rank(values), brute_force_rank(values))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-1.5, -0.0, 0.0, 2.0, 7.0]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_each_rank_is_the_mean_of_its_tie_positions(self, values):
        ordered = sorted(values)
        for value, r in zip(values, rank(values)):
            positions = [p + 1 for p, u in enumerate(ordered) if u == value]
            assert r == sum(positions) / len(positions)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 6, size=40).astype(float)
        assert np.allclose(rank(values), scipy.stats.rankdata(values))


class TestSrcc:
    def test_increasing_pair_is_one(self):
        assert srcc([1, 2, 5], [10, 20, 21]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert srcc(a, a[::-1]) == pytest.approx(-1.0)

    def test_frozen_example(self):
        assert srcc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_input_raises(self):
        with pytest.raises(DegenerateCorrelationError):
            srcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        base = srcc(a, b)
        for transform in (np.exp, lambda x: x**3, lambda x: 2 * x + 1):
            assert srcc(transform(a), b) == base  # ranks are equal exactly
            assert srcc(a, transform(b)) == base

    def test_tie_free_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            a = rng.permutation(n).astype(float)
            b = rng.permutation(n).astype(float)
            d = rank(a) - rank(b)
            closed = 1.0 - 6.0 * float(d @ d) / (n * (n**2 - 1))
            assert abs(srcc(a, b) - closed) < 1e-12

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 8, size=60).astype(float)
        b = a + rng.standard_normal(60)
        assert srcc(a, b) == pytest.approx(
            scipy.stats.spearmanr(a, b).statistic, abs=1e-12
        )


class TestPcc:
    def test_positive_affine_is_one(self):
        a = np.array([1.0, 2.0, 3.0, 7.0])
        assert pcc(a, 2 * a + 3) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        a = np.array([1.0, 2.0, 5.0])
        assert pcc(a, -a) == pytest.approx(-1.0)

    def test_frozen_example(self):
        assert pcc([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / np.sqrt(84), abs=1e-12)
        assert pcc([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9819805, abs=1e-6)

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        base = pcc(a, b)
        assert abs(pcc(3.0 * a + 1.0, b) - base) < 1e-12
        assert abs(pcc(a, 0.5 * b - 2.0) - base) < 1e-12
        assert abs(pcc(-a, b) + base) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal(10)
            b = rng.standard_normal(10)
            assert -1.0 <= pcc(a, b) <= 1.0
            assert -1.0 <= srcc(a, b) <= 1.0

    def test_constant_raises(self):
        with pytest.raises(DegenerateCorrelationError):
            pcc([2.0, 2.0], [1.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            pcc([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSpeakerAggregate:
    def test_identity_when_one_per_speaker(self):
        names, means = speaker_aggregate([5.0, 2.0], ["b", "a"])
        assert names.tolist() == ["a", "b"] and means.tolist() == [2.0, 5.0]

    def test_mean(self):
        names, means = speaker_aggregate([2.0, 4.0], ["a", "a"])
        assert names.tolist() == ["a"] and means.tolist() == [3.0]

    def test_unmapped_utterance(self):
        with pytest.raises(MappingError):
            speaker_aggregate([2.0, 3.0], ["a"])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(20)
        speakers = np.array([f"s{i % 4}" for i in range(20)])
        names, base = speaker_aggregate(scores, speakers)
        order = rng.permutation(20)
        again_names, again = speaker_aggregate(scores[order], speakers[order])
        assert np.array_equal(names, again_names)
        assert np.allclose(base, again, rtol=0, atol=1e-12)


def two_speaker_corpus():
    return make_corpus(
        "two", stack_of([np.ones((1, 2))] * 4), [f"u{i}" for i in range(4)],
        ["a", "a", "b", "b"], [2.0, 4.0, 5.0, 7.0], ["labeled"] * 4,
    )


class TestEvaluateScores:
    def test_perfect_scores(self):
        corpus = two_speaker_corpus()
        report = evaluate_scores(corpus, corpus.labels, level="utterance")
        assert report.srcc == pytest.approx(1.0)
        assert report.pcc == pytest.approx(1.0)
        assert report.n == 4 and not report.flagged

    def test_constant_scores_flagged(self):
        corpus = two_speaker_corpus()
        report = evaluate_scores(corpus, np.full(4, 3.0), level="utterance")
        assert report.flagged and report.srcc is None

    def test_speaker_level_differs_from_utterance(self):
        corpus = two_speaker_corpus()
        scores = np.array([4.0, 2.0, 7.0, 5.0])  # order flipped inside speakers
        utt = evaluate_scores(corpus, scores, level="utterance")
        spk = evaluate_scores(corpus, scores, level="speaker")
        assert spk.n == 2
        assert spk.srcc == pytest.approx(1.0)
        assert utt.srcc < 1.0

    def test_unknown_level(self):
        with pytest.raises(ParameterError):
            evaluate_scores(two_speaker_corpus(), np.zeros(4), level="corpus")


class TestReportsAndFiles:
    def test_results_csv_round_trip(self, tmp_path):
        rows = [
            {
                "run_id": "abc", "strategy": "coarse", "dataset": "test",
                "level": "utterance", "seed": 0, "srcc": 0.912345678901234,
                "pcc": 0.9, "n": 100,
            }
        ]
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert back[0]["run_id"] == "abc"
        assert float(back[0]["srcc"]) == rows[0]["srcc"]  # repr keeps all bits

    def test_embeddings_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((5, 640)).astype(np.float32).astype(float)
        labels = [1.0, 2.5, None, 7.0, 3.0]
        provs = ["labeled", "pseudo", "pseudo", "labeled", "typical"]
        path = tmp_path / "e.dsqe"
        write_embeddings(path, vecs, labels, provs)
        got_vecs, got_labels, got_provs = read_embeddings(path)
        assert got_vecs.shape == (5, 640)
        assert np.allclose(got_vecs, vecs, atol=1e-6)
        assert np.isnan(got_labels[2]) and got_labels[0] == 1.0
        assert got_provs == provs

    def test_embeddings_bytes_match_packed_layout(self, tmp_path):
        rng = np.random.default_rng(9)
        vecs = rng.standard_normal((4, 3))
        labels = [1.5, None, 7.0, 2.25]
        provs = ["labeled", "pseudo", "typical", "pseudo"]
        path = tmp_path / "e.dsqe"
        write_embeddings(path, vecs, labels, provs)
        blob = b"DSQE" + struct.pack("<III", 1, 4, 3)
        for vec, label, prov in zip(vecs, labels, provs):
            blob += vec.astype("<f4").tobytes()
            blob += struct.pack(
                "<fB", float("nan") if label is None else label,
                {"labeled": 0, "pseudo": 1, "typical": 2}[prov],
            )
        assert path.read_bytes() == blob

    @pytest.mark.parametrize(
        "corrupt, offset",
        [
            (lambda raw: raw[:10], 4),
            (lambda raw: raw[:-1], 16),
            (lambda raw: raw + b"\0", 67),
            (lambda raw: raw[: 16 + 17 + 16] + b"\x09" + raw[16 + 34 :], 16 + 34 - 1),
            (lambda raw: b"DSQF" + raw[4:], 0),
        ],
        ids=["short_header", "truncated", "trailing", "bad_provenance", "bad_magic"],
    )
    def test_corrupt_embeddings_raise_format_error(self, tmp_path, corrupt, offset):
        path = tmp_path / "e.dsqe"
        vecs = np.arange(9.0).reshape(3, 3)
        write_embeddings(path, vecs, [1.0, None, 3.0], ["labeled", "pseudo", "typical"])
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(FeatureFormatError) as err:
            read_embeddings(path)
        assert err.value.offset == offset

    def test_signalling_nan_reads_without_warning(self, tmp_path):
        path = tmp_path / "e.dsqe"
        write_embeddings(path, np.ones((2, 3)), [1.0, 2.0], ["labeled", "pseudo"])
        raw = bytearray(path.read_bytes())
        snan = struct.pack("<I", 0x7FA00000)  # float32 NaN with the quiet bit clear
        raw[16:20] = snan  # first value of row 0 (rows start after the 16-byte header)
        raw[28:32] = snan  # label of row 0
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vecs, labels, provs = read_embeddings(path)
        assert np.isnan(vecs[0, 0]) and np.isnan(labels[0])
        assert vecs[0, 1] == 1.0 and labels[1] == 2.0
        assert provs == ["labeled", "pseudo"]

    def test_redump_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        vecs = rng.standard_normal((3, 8))
        labels = [1.0, 2.0, 3.0]
        provs = ["labeled"] * 3
        p1, p2 = tmp_path / "a.dsqe", tmp_path / "b.dsqe"
        write_embeddings(p1, vecs, labels, provs)
        write_embeddings(p2, vecs, labels, provs)
        assert p1.read_bytes() == p2.read_bytes()

    def test_correlate_scores_report_fields(self):
        report = correlate_scores(
            np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]), "d", "utterance"
        )
        assert isinstance(report, EvalReport)
        assert report.dataset == "d" and report.n == 3
