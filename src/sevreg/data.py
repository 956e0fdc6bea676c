"""Corpus representation, feature-file format, sampling, and splits.

A corpus is one set of arrays (`Corpus`): every utterance's float32 rows
one after another, split at row offsets, as in Apache Arrow's list arrays,
plus one column entry per utterance. Nets read `Corpus.stack`, the gathered
rows at unit L2 norm (normalization and augmentation run in float64), and
cast each batch to their own dtype. A split part is the same arrays with an
index vector, a pseudo-label pool the same arrays with a label vector. A
corpus directory holds manifest.json and features.dsqf, a framed file
(FrameReader): magic "DSQF", little-endian u32 version 2, the utterance
count N and D, N u32 lengths T, then the rows as float32, in manifest order.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    EmptyInputError,
    FeatureFormatError,
    MergeError,
    ParameterError,
    PartitionError,
    SevregError,
)
from .nn import Stack

DSQF_MAGIC = b"DSQF"
DSQF_VERSION = 2
FEATURES_FILE = "features.dsqf"
MAX_RANK = 32  # the highest array rank numpy 1.x holds

PROVENANCES = ("labeled", "pseudo", "typical")
COLUMNS = ("ids", "speakers", "labels", "provenance")

LABEL_MIN = 1.0
LABEL_MAX = 7.0


@dataclass(frozen=True, eq=False)
class Corpus:
    """An ordered collection of utterances with unique ids, as arrays.

    `features` holds the rows of M utterances as stored, in float32,
    utterance j in rows offsets[j]:offsets[j + 1]. The corpus is the
    utterances `index` of those M, in order, with
    COLUMNS `ids`, `speakers`, `labels` (NaN where unlabeled) and
    `provenance` ('pseudo' for the unlabeled pool, before and after
    pseudo-labelling). Construction checks every utterance and makes every
    array read-only, so corpora that share rows cannot change one another.
    """

    name: str
    features: np.ndarray
    offsets: np.ndarray
    index: np.ndarray
    ids: np.ndarray
    speakers: np.ndarray
    labels: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        columns = [getattr(self, c) for c in COLUMNS]
        if any(len(c) != len(self.index) for c in columns):
            raise DimensionError(f"corpus '{self.name}' has columns of unequal length")
        known = np.isin(self.provenance, PROVENANCES)
        if not known.all():
            raise ParameterError(f"unknown provenance '{self.provenance[np.argmin(known)]}'")
        lengths = self.offsets[self.index + 1] - self.offsets[self.index]
        if np.any(lengths < 1):
            utt = self.ids[np.argmin(lengths)]
            raise EmptyInputError(f"utterance '{utt}' needs a (T>=1, D) feature matrix")
        y = self.labels
        bad = ~np.isnan(y) & ((y < LABEL_MIN) | (y > LABEL_MAX))
        if bad.any():
            raise ParameterError(f"label {y[np.argmax(bad)]} outside [{LABEL_MIN}, {LABEL_MAX}]")
        if np.any((self.provenance == "typical") & ~np.isnan(y) & (y != LABEL_MIN)):
            raise ParameterError("typical utterances must carry label 1")
        if len(np.unique(self.ids)) != len(self.ids):
            raise MergeError(f"duplicate utterance ids in corpus '{self.name}'")
        for array in (self.features, self.offsets, self.index, *columns):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.index)

    def targets(self) -> np.ndarray:
        """The label vector; raises if any utterance is unlabeled."""
        if np.isnan(self.labels).any():
            raise ParameterError(f"corpus '{self.name}' has unlabeled utterances")
        return self.labels

    def take(self, which: np.ndarray, name: str) -> Corpus:
        """Utterances `which` (an index vector), in that order, over the
        same rows: a split part."""
        columns = {c: getattr(self, c)[which] for c in COLUMNS}
        return replace(self, name=name, index=self.index[which], **columns)

    def with_labels(self, labels: np.ndarray, name: str) -> Corpus:
        """The corpus as the pseudo-label pool, over the same rows: each
        utterance takes its entry of `labels` (NaN for none) and provenance
        'pseudo'."""
        return replace(
            self, name=name, labels=np.array(labels, dtype=np.float64),
            provenance=np.full(len(self), "pseudo"),
        )

    def stored(self, which=slice(None)) -> Stack:
        """The stored float32 rows of utterances `which` as one Stack."""
        return Stack(self.features, self.offsets).take(self.index[which])

    def stack(self, which=slice(None)) -> Stack:
        """The rows of utterances `which` at unit L2 norm in float64, in one
        normalize_frames call; rows scale alone, so any gather agrees."""
        rows = self.stored(which)
        return Stack(normalize_frames(rows.rows.astype(np.float64)), rows.offsets)


def make_corpus(name: str, features: Stack, ids, speakers, labels, provenance) -> Corpus:
    """The corpus of the float32 sequences `features` and the given columns
    (None is no label)."""
    if not all(y is None or isinstance(y, numbers.Real) for y in labels):
        raise TypeError("every label must be a number or None")
    return Corpus(
        name=name,
        features=features.rows,
        offsets=np.asarray(features.offsets, dtype=np.int64),
        index=np.arange(len(features)),
        ids=np.asarray(ids, dtype=str),
        speakers=np.asarray(speakers, dtype=str),
        labels=np.array([np.nan if y is None else y for y in labels], dtype=np.float64),
        provenance=np.asarray(provenance, dtype=str),
    )


def concat(parts: Sequence[Corpus], name: str) -> Corpus:
    """The utterances of `parts`, in order, as one corpus: their stored rows
    gathered once into one array."""
    stacks = [p.stored() for p in parts]
    lengths = np.concatenate([np.diff(s.offsets) for s in stacks])
    return Corpus(
        name=name,
        features=np.concatenate([s.rows for s in stacks]),
        offsets=np.concatenate(([0], np.cumsum(lengths))),
        index=np.arange(len(lengths)),
        **{c: np.concatenate([getattr(p, c) for p in parts]) for c in COLUMNS},
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


def frame_header(magic: bytes, version: int, *fields: int) -> bytes:
    """Start of a framed file: magic, then the version and header fields as
    little-endian u32s, the integer type of every framed file."""
    return magic + struct.pack(f"<{1 + len(fields)}I", version, *fields)


class FrameReader:
    """Bounds-checked reads over one framed file; `header` holds the fields
    after the version. Reads are views of the file's bytes, never copies. A
    malformed file raises FeatureFormatError: bad magic at offset 0, a bad
    version at 4, a truncated field where it starts, non-finite values
    (finite=True) where the array starts, left-over bytes at the first."""

    def __init__(self, raw: bytes, magic: bytes, version: int, n_fields: int):
        if raw[:4] != magic:
            raise FeatureFormatError(f"bad magic, not a {magic.decode()} file", offset=0)
        self.raw, self.pos = memoryview(raw), 4
        found, *self.header = self.u32s(1 + n_fields, "header")
        if found != version:
            raise FeatureFormatError(f"unsupported version {found}", offset=4)

    def take(self, nbytes: int, what: str) -> memoryview:
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


def write_feature_file(path: str | Path, stack: Stack) -> None:
    """Serialize the (T, D) sequences of a Stack, atomically; values are
    stored as float32, and a value that is not finite as float32 (such as
    1e39) raises ParameterError before anything is written."""
    rows, lengths = stack.rows, np.diff(stack.offsets)
    if rows.ndim != 2 or len(lengths) == 0 or lengths.min() < 1 or lengths.sum() != len(rows):
        raise EmptyInputError("a feature file needs one or more (T>=1, D) sequences")
    with np.errstate(over="ignore"):
        rows = np.ascontiguousarray(rows, dtype="<f4")
    if not np.all(np.isfinite(rows)):
        raise ParameterError("feature matrix contains values that are not finite as float32")
    header = frame_header(DSQF_MAGIC, DSQF_VERSION, len(lengths), rows.shape[1])
    atomic_write(path, (header, lengths.astype("<u4"), rows))


def read_feature_file(path: str | Path) -> Stack:
    """Load a DSQF file as a Stack of its float32 rows, read-only, as stored."""
    frame = FrameReader(Path(path).read_bytes(), DSQF_MAGIC, DSQF_VERSION, 2)
    count, d = frame.header
    if count < 1 or d < 1:
        raise FeatureFormatError(f"{count} utterances of dimension {d}", 8 if count < 1 else 12)
    lengths = frame.array("<u4", (count,), "utterance lengths")
    if not lengths.all():
        i = int(np.argmin(lengths))
        raise FeatureFormatError(f"utterance {i} has length 0", offset=16 + 4 * i)
    offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    rows = frame.array("<f4", (int(offsets[-1]), d), "features", finite=True)
    frame.end()
    return Stack(rows, offsets)


# ---------------------------------------------------------------------------
# Corpus persistence (manifest.json + features.dsqf)
# ---------------------------------------------------------------------------


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write features.dsqf, then manifest.json, which commits the corpus:
    both are written atomically, the manifest last."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_feature_file(directory / FEATURES_FILE, corpus.stored())
    entries = [
        {"id": i, "speaker_id": s, "label": None if math.isnan(y) else y, "provenance": p}
        for i, s, y, p in zip(*(getattr(corpus, c).tolist() for c in COLUMNS))
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
            rows = read_feature_file(features)
        except FeatureFormatError as exc:  # name the file of the corpus
            exc.args = (f"{features}: {exc}",)
            raise
        if len(fields) != len(rows):
            raise FeatureFormatError(
                f"manifest {path} lists {len(fields)} utterances, {features} holds {len(rows)}"
            )
        return make_corpus(manifest["name"], rows, *zip(*fields))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
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
    """Scale each row of a writable float (T, D) matrix to unit L2 norm in
    place and return it; zero rows stay zero. Idempotent. Corpus.stack hands
    it the fresh float64 cast of each gather, so no second copy is made."""
    if h.ndim != 2 or h.shape[0] < 1:
        raise EmptyInputError(f"normalize_frames needs (T>=1, D), got {h.shape}")
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    h /= norms
    return h


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
        label_bins(corpus.targets()), return_inverse=True, return_counts=True
    )
    return 1.0 / counts[inverse]


def label_histogram(labels: np.ndarray) -> dict[int, int]:
    """Counts per rounded severity bin 1..7 of a label vector; NaN (no
    label) is not counted."""
    labels = np.asarray(labels, dtype=float)
    counts = np.bincount(label_bins(labels[~np.isnan(labels)]), minlength=8)
    return {b: int(counts[b]) for b in range(1, 8)}


# ---------------------------------------------------------------------------
# Speaker-disjoint splits
# ---------------------------------------------------------------------------


def split(corpus: Corpus, ratios: tuple[float, ...], seed: int) -> tuple[np.ndarray, ...]:
    """Partition by speaker into len(ratios) index vectors, deterministically.

    Speakers are shuffled with the seed and allocated to parts in proportion
    to the ratios; every part receives at least one speaker. Each part lists
    its utterances in corpus order.
    """
    if any(r <= 0 for r in ratios):
        raise ParameterError(f"ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"ratios must sum to 1, got {sum(ratios)}")
    speakers = list(dict.fromkeys(corpus.speakers.tolist()))
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

    bounds = np.cumsum([0, *counts])
    return tuple(
        np.flatnonzero(np.isin(corpus.speakers, order[lo:hi]))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )
