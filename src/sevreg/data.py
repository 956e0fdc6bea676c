"""Corpus representation, feature-file format, sampling, and splits.

A feature sequence is a (T, D) float64 matrix. On disk it is a DSQF file:
little-endian magic "DSQF", version u32, T u32, D u32, then T*D float32
values row-major. Values are widened to float64 on load. A corpus directory
holds manifest.json plus one DSQF file per utterance.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyInputError,
    FeatureFormatError,
    MergeError,
    ParameterError,
    PartitionError,
)

DSQF_MAGIC = b"DSQF"
DSQF_VERSION = 1
MAX_DIM = 1 << 24  # dimension sanity bound for corrupt headers

PROVENANCES = ("labeled", "pseudo", "typical")

LABEL_MIN = 1.0
LABEL_MAX = 7.0


@dataclass
class Utterance:
    """One utterance: features plus optional severity label in [1, 7].

    provenance 'pseudo' covers the unlabeled pool both before pseudo-labeling
    (label None) and after (label set by the teacher model).
    """

    id: str
    speaker_id: str
    features: np.ndarray
    label: float | None = None
    provenance: str = "labeled"

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ParameterError(f"unknown provenance '{self.provenance}'")
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise EmptyInputError(
                f"utterance '{self.id}' needs a (T>=1, D) feature matrix"
            )
        if self.label is not None:
            if not LABEL_MIN <= self.label <= LABEL_MAX:
                raise ParameterError(
                    f"label {self.label} outside [{LABEL_MIN}, {LABEL_MAX}]"
                )
            if self.provenance == "typical" and self.label != LABEL_MIN:
                raise ParameterError("typical utterances must carry label 1")


@dataclass
class Corpus:
    """An ordered collection of utterances with unique ids."""

    utterances: list[Utterance]
    name: str = "corpus"

    def __post_init__(self):
        ids = [u.id for u in self.utterances]
        if len(set(ids)) != len(ids):
            raise MergeError(f"duplicate utterance ids in corpus '{self.name}'")

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def labels(self) -> np.ndarray:
        """Dense label vector; raises if any utterance is unlabeled."""
        if any(u.label is None for u in self.utterances):
            raise ParameterError(f"corpus '{self.name}' has unlabeled utterances")
        return np.array([u.label for u in self.utterances], dtype=float)

    def speakers(self) -> list[str]:
        seen: dict[str, None] = {}
        for u in self.utterances:
            seen.setdefault(u.speaker_id, None)
        return list(seen)

    def counts(self) -> dict[str, int]:
        out = {p: 0 for p in PROVENANCES}
        for u in self.utterances:
            out[u.provenance] += 1
        return out


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write via a temp file + rename so readers never see partial output."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# DSQF feature files
# ---------------------------------------------------------------------------


def write_feature_file(path: str | Path, features: np.ndarray) -> None:
    """Serialize a (T, D) matrix; values are stored as float32."""
    if features.ndim != 2 or features.shape[0] < 1:
        raise EmptyInputError(f"cannot write feature matrix of shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ParameterError("feature matrix contains non-finite values")
    t, d = features.shape
    payload = features.astype("<f4").tobytes(order="C")
    header = DSQF_MAGIC + struct.pack("<III", DSQF_VERSION, t, d)
    Path(path).write_bytes(header + payload)


def read_feature_file(path: str | Path) -> np.ndarray:
    """Load a DSQF file back into a float64 (T, D) matrix."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != DSQF_MAGIC:
        raise FeatureFormatError("bad magic, not a DSQF file", offset=0)
    if len(raw) < 16:
        raise FeatureFormatError("truncated header", offset=len(raw))
    version, t, d = struct.unpack("<III", raw[4:16])
    if version != DSQF_VERSION:
        raise FeatureFormatError(f"unsupported version {version}", offset=4)
    if t < 1:
        raise FeatureFormatError("zero-frame feature file (T >= 1 required)", offset=8)
    if d < 1 or t > MAX_DIM or d > MAX_DIM:
        raise FeatureFormatError(f"implausible dimensions {t}x{d}", offset=8)
    expected = 16 + 4 * t * d
    if len(raw) != expected:
        raise FeatureFormatError(
            f"payload is {len(raw) - 16} bytes, expected {4 * t * d}",
            offset=min(len(raw), expected),
        )
    data = np.frombuffer(raw, dtype="<f4", offset=16).astype(np.float64)
    return data.reshape(t, d)


# ---------------------------------------------------------------------------
# Corpus persistence (manifest.json + features/)
# ---------------------------------------------------------------------------


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write one DSQF file per utterance, then manifest.json, which commits
    the corpus: it is written last and atomically."""
    directory = Path(directory)
    (directory / "features").mkdir(parents=True, exist_ok=True)
    entries = []
    for u in corpus:
        rel = f"features/{u.id}.dsqf"
        write_feature_file(directory / rel, u.features)
        entries.append(
            {
                "id": u.id,
                "speaker_id": u.speaker_id,
                "label": u.label,
                "provenance": u.provenance,
                "path": rel,
            }
        )
    manifest = {"name": corpus.name, "utterances": entries}
    atomic_write(
        directory / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def load_corpus(directory: str | Path) -> Corpus:
    """Load a corpus saved by save_corpus; manifest order is preserved."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    utts = []
    for entry in manifest["utterances"]:
        utts.append(
            Utterance(
                id=entry["id"],
                speaker_id=entry["speaker_id"],
                features=read_feature_file(directory / entry["path"]),
                label=entry["label"],
                provenance=entry["provenance"],
            )
        )
    return Corpus(utts, name=manifest["name"])


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize_frames(h: np.ndarray) -> np.ndarray:
    """Scale each row of a (T, D) matrix to unit L2 norm; zero rows stay zero.
    Idempotent."""
    if h.ndim != 2 or h.shape[0] < 1:
        raise EmptyInputError(f"normalize_frames needs (T>=1, D), got {h.shape}")
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return h / norms


# ---------------------------------------------------------------------------
# Label-weighted sampling
# ---------------------------------------------------------------------------


def label_bin(label: float) -> int:
    """Nearest-integer severity bin in 1..7 (same rule as discrete pairing)."""
    return int(min(max(np.floor(label + 0.5), LABEL_MIN), LABEL_MAX))


def sampler_weights(corpus: Corpus) -> np.ndarray:
    """Inverse-bin-frequency weight per utterance; bins are rounded labels."""
    labels = corpus.labels()
    bins = np.array([label_bin(y) for y in labels])
    counts = {b: int((bins == b).sum()) for b in np.unique(bins)}
    return np.array([1.0 / counts[b] for b in bins])


def label_histogram(corpus: Corpus) -> dict[int, int]:
    """Utterance counts per rounded severity bin 1..7."""
    hist = {b: 0 for b in range(1, 8)}
    for u in corpus:
        if u.label is not None:
            hist[label_bin(u.label)] += 1
    return hist


# ---------------------------------------------------------------------------
# Speaker-disjoint splits
# ---------------------------------------------------------------------------


def split(
    corpus: Corpus, ratios: tuple[float, ...], seed: int
) -> tuple[Corpus, ...]:
    """Partition by speaker into len(ratios) corpora, deterministically.

    Speakers are shuffled with the seed and allocated to parts in proportion
    to the ratios; every part receives at least one speaker. Utterances keep
    their corpus order inside each part.
    """
    if any(r <= 0 for r in ratios):
        raise ParameterError(f"ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"ratios must sum to 1, got {sum(ratios)}")
    speakers = corpus.speakers()
    n_parts = len(ratios)
    if len(speakers) < n_parts:
        raise PartitionError(
            f"{len(speakers)} speakers cannot fill {n_parts} splits"
        )
    rng = np.random.default_rng(seed)
    order = [speakers[i] for i in rng.permutation(len(speakers))]

    # Largest-remainder allocation with a floor of one speaker per part.
    n = len(order)
    exact = [r * n for r in ratios]
    counts = [max(1, int(np.floor(e))) for e in exact]
    while sum(counts) > n:
        counts[int(np.argmax(counts))] -= 1
    remainders = [e - c for e, c in zip(exact, counts)]
    while sum(counts) < n:
        i = int(np.argmax(remainders))
        counts[i] += 1
        remainders[i] = -1.0

    parts = []
    start = 0
    for i, c in enumerate(counts):
        chosen = set(order[start : start + c])
        start += c
        utts = [u for u in corpus if u.speaker_id in chosen]
        parts.append(Corpus(utts, name=f"{corpus.name}/part{i}"))
    return tuple(parts)
