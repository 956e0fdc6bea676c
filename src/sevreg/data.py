"""Corpus representation, feature-file format, sampling, and splits.

A feature sequence is a (T, D) float64 matrix. A corpus directory holds
manifest.json plus features.dsqf, one framed file (FrameReader) with every
utterance's features: magic "DSQF", little-endian u32 version 2, the
utterance count N and D, N u32 lengths T, then every row as float32, in
manifest order. Loading reads it once and widens it to one float64 array of
which each utterance holds a row slice; nets read them through
`Utterance.frames`, L2-normalized once per utterance. Normalization and
augmentation run in float64; a net casts each stacked batch to its own dtype.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    EmptyInputError,
    FeatureFormatError,
    MergeError,
    ParameterError,
    PartitionError,
    SevregError,
)

DSQF_MAGIC = b"DSQF"
DSQF_VERSION = 2
FEATURES_FILE = "features.dsqf"
MAX_RANK = 32  # the highest array rank numpy 1.x holds

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

    @cached_property
    def frames(self) -> np.ndarray:
        """The features at unit L2 norm per frame, made on first use, kept."""
        return normalize_frames(self.features)


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


def pseudo_pool(corpus: Corpus, labels: list[float | None], name: str) -> Corpus:
    """The corpus as the pseudo-label pool: each utterance keeps its id,
    speaker and features and takes its entry of `labels` (None before
    pseudo-labelling) with provenance 'pseudo'."""
    return Corpus(
        [
            replace(u, label=y, provenance="pseudo")
            for u, y in zip(corpus, labels, strict=True)
        ],
        name=name,
    )


def atomic_write(path: str | Path, data: str | bytes | Sequence[bytes | np.ndarray]) -> None:
    """Write via a temp file + rename so readers never see partial output.
    `data` is text, bytes, or a sequence of buffers (bytes, C-contiguous
    arrays) written one after another, so no joined copy is made."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode()
    try:
        with tmp.open("wb") as fh:
            for chunk in (data,) if isinstance(data, bytes) else data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Framed binary files (DSQF here, DSQC in pipeline, DSQE in evaluation)
# ---------------------------------------------------------------------------


def pack_u32(*values: int) -> bytes:
    """Little-endian u32s, the integer type of every framed file."""
    return struct.pack(f"<{len(values)}I", *values)


def frame_header(magic: bytes, version: int, *fields: int) -> bytes:
    """Start of a framed file: magic, then the u32 version and header fields."""
    return magic + pack_u32(version, *fields)


class FrameReader:
    """Bounds-checked reads over one framed file; `header` holds the fields
    after the version. A malformed file raises FeatureFormatError: bad magic at
    offset 0, a bad version at 4, a truncated field where it starts, non-finite
    values (finite=True) where the array starts, left-over bytes at the first."""

    def __init__(self, raw: bytes, magic: bytes, version: int, n_fields: int):
        if raw[:4] != magic:
            raise FeatureFormatError(f"bad magic, not a {magic.decode()} file", offset=0)
        self.raw, self.pos = raw, 4
        found, *self.header = self.u32s(1 + n_fields, "header")
        if found != version:
            raise FeatureFormatError(f"unsupported version {found}", offset=4)

    def take(self, nbytes: int, what: str) -> bytes:
        if nbytes > len(self.raw) - self.pos:
            raise FeatureFormatError(f"truncated {what}", offset=self.pos)
        self.pos += nbytes
        return self.raw[self.pos - nbytes : self.pos]

    def u32s(self, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self.take(4 * count, what))

    def check(self, shape: tuple[int, ...], itemsize: int, what: str) -> None:
        """`shape` items must fit in the bytes left with each zero dimension
        counted as one, so that no header asks numpy for an impossible array."""
        need = itemsize * math.prod(max(d, 1) for d in shape)
        if len(shape) > MAX_RANK or need > len(self.raw) - self.pos:
            raise FeatureFormatError(f"{what} of shape {shape} overruns the file", self.pos)

    def array(self, dtype, shape: tuple[int, ...], what: str, finite=False) -> np.ndarray:
        """Read-only C-order array; finite=True rejects NaN and Inf."""
        dtype, start = np.dtype(dtype), self.pos
        self.check(shape, dtype.itemsize, what)
        raw = self.take(dtype.itemsize * math.prod(shape), what)
        out = np.frombuffer(raw, dtype).reshape(shape)
        if finite and not np.isfinite(out).all():
            raise FeatureFormatError(f"non-finite values in {what}", offset=start)
        return out

    def end(self) -> None:
        if self.pos != len(self.raw):
            raise FeatureFormatError(f"{len(self.raw) - self.pos} trailing bytes", self.pos)


def write_feature_file(path: str | Path, matrices: list[np.ndarray]) -> None:
    """Serialize (T, D) matrices of one D, atomically; values are stored as
    float32, and a value that is not finite as float32 (such as 1e39) raises
    ParameterError before anything is written."""
    if len(matrices) == 0 or any(m.ndim != 2 or m.shape[0] < 1 for m in matrices):
        raise EmptyInputError("a feature file needs one or more (T>=1, D) matrices")
    with np.errstate(over="ignore"):
        rows = np.concatenate(matrices, dtype="<f4")
    if not np.all(np.isfinite(rows)):
        raise ParameterError("feature matrix contains values that are not finite as float32")
    header = frame_header(DSQF_MAGIC, DSQF_VERSION, len(matrices), rows.shape[1])
    atomic_write(path, (header, pack_u32(*(len(m) for m in matrices)), rows))


def read_feature_file(path: str | Path) -> list[np.ndarray]:
    """Load a DSQF file back as float64 (T, D) row slices of one array."""
    frame = FrameReader(Path(path).read_bytes(), DSQF_MAGIC, DSQF_VERSION, 2)
    count, d = frame.header
    if count < 1 or d < 1:
        raise FeatureFormatError(f"{count} utterances of dimension {d}", 8 if count < 1 else 12)
    lengths = frame.array("<u4", (count,), "utterance lengths")
    if not lengths.all():
        i = int(np.argmin(lengths))
        raise FeatureFormatError(f"utterance {i} has length 0", offset=16 + 4 * i)
    rows = frame.array("<f4", (int(lengths.sum(dtype=np.int64)), d), "features", finite=True)
    frame.end()
    return np.split(rows.astype(np.float64), np.cumsum(lengths[:-1], dtype=np.int64))


# ---------------------------------------------------------------------------
# Corpus persistence (manifest.json + features.dsqf)
# ---------------------------------------------------------------------------


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write features.dsqf, then manifest.json, which commits the corpus:
    both are written atomically, the manifest last."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_feature_file(directory / FEATURES_FILE, [u.features for u in corpus])
    entries = [
        {"id": u.id, "speaker_id": u.speaker_id, "label": u.label, "provenance": u.provenance}
        for u in corpus
    ]
    manifest = {"name": corpus.name, "utterances": entries}
    atomic_write(directory / "manifest.json", json.dumps(manifest, sort_keys=True) + "\n")


def load_corpus(directory: str | Path) -> Corpus:
    """Load a corpus saved by save_corpus; manifest order is preserved, and
    a manifest not of the saved shape, or a directory without features.dsqf
    (the per-utterance layout of earlier versions), raises FeatureFormatError."""
    path = Path(directory) / "manifest.json"
    features = path.with_name(FEATURES_FILE)
    try:
        manifest = json.loads(path.read_bytes())
        fields = [
            (e["id"], e["speaker_id"], e["label"], e["provenance"]) for e in manifest["utterances"]
        ]
        if not features.is_file():
            raise FeatureFormatError(f"no {features}: an older corpus? re-run gen-data")
        try:
            matrices = read_feature_file(features)
        except FeatureFormatError as exc:  # name the file of the corpus
            exc.args = (f"{features}: {exc}",)
            raise
        if len(fields) != len(matrices):
            raise FeatureFormatError(
                f"manifest {path} lists {len(fields)} utterances, {features} holds {len(matrices)}"
            )
        utts = [Utterance(i, spk, m, y, prov) for (i, spk, y, prov), m in zip(fields, matrices)]
        return Corpus(utts, name=manifest["name"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SevregError):  # a corrupt feature file or a bad value
            raise
        raise FeatureFormatError(
            f"corrupt corpus manifest {path}: {exc!r}", _byte_offset(exc)
        ) from exc


def _byte_offset(exc: Exception) -> int | None:
    """Where a manifest failed to decode or parse; None for a bad structure."""
    if isinstance(exc, json.JSONDecodeError):
        return len(exc.doc[: exc.pos].encode())
    if isinstance(exc, UnicodeDecodeError):
        return exc.start
    return None


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


def label_bins(labels) -> np.ndarray:
    """Nearest-integer severity bin in 1..7 of each label, floor(y + 1/2):
    the bins of sampling, of label histograms and of discrete pairing."""
    bins = np.floor(np.asarray(labels, dtype=float) + 0.5)
    return np.clip(bins, LABEL_MIN, LABEL_MAX).astype(int)


def sampler_weights(corpus: Corpus) -> np.ndarray:
    """Inverse-bin-frequency weight per utterance; bins are rounded labels."""
    _, inverse, counts = np.unique(
        label_bins(corpus.labels()), return_inverse=True, return_counts=True
    )
    return 1.0 / counts[inverse]


def label_histogram(corpus: Corpus) -> dict[int, int]:
    """Utterance counts per rounded severity bin 1..7."""
    labels = [u.label for u in corpus if u.label is not None]
    counts = np.bincount(label_bins(labels), minlength=8)
    return {b: int(counts[b]) for b in range(1, 8)}


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
