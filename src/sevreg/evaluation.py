"""Correlation metrics, speaker aggregation, reports, and embedding dumps."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .data import PROVENANCES, Corpus, FrameReader, atomic_write, frame_header
from .errors import (
    DegenerateCorrelationError,
    DimensionError,
    EmptyInputError,
    FeatureFormatError,
    MappingError,
    ParameterError,
)

DSQE_MAGIC = b"DSQE"
DSQE_VERSION = 1

RESULTS_COLUMNS = ("run_id", "strategy", "dataset", "level", "seed", "srcc", "pcc", "n")


# ---------------------------------------------------------------------------
# Ranks and correlations
# ---------------------------------------------------------------------------


def rank(values) -> np.ndarray:
    """Ascending 1-based ranks; ties share the average of their positions."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ParameterError("rank needs a nonempty 1-D sequence")
    if not np.all(np.isfinite(v)):
        raise ParameterError("rank requires finite values")
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    first = np.flatnonzero(starts)  # each tie group's first and last position
    last = np.append(first[1:], v.size) - 1
    ranks = np.empty(v.size)
    ranks[order] = (0.5 * (first + last) + 1.0)[np.cumsum(starts) - 1]
    return ranks


def pcc(a, b) -> float:
    """Pearson product-moment correlation."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("pcc needs two equal-length 1-D sequences")
    if x.size < 2:
        raise ParameterError("pcc needs n >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateCorrelationError("correlation undefined for constant input")
    return float(np.sum(xc * yc) / (sx * sy))


def srcc(a, b) -> float:
    """Spearman rank correlation: Pearson over tie-averaged ranks."""
    return pcc(rank(a), rank(b))


def speaker_aggregate(scores, speakers) -> tuple[np.ndarray, np.ndarray]:
    """The distinct speakers, sorted, and the arithmetic mean of each one's
    utterance scores, summed in utterance order; `speakers` names the
    speaker of each score."""
    if len(scores) != len(speakers):
        raise MappingError(f"{len(scores)} utterance scores, {len(speakers)} speakers")
    names, inverse = np.unique(speakers, return_inverse=True)
    return names, np.bincount(inverse, weights=scores) / np.bincount(inverse)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    dataset: str
    level: str
    srcc: float | None
    pcc: float | None
    n: int
    flagged: bool = False
    flag_reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def correlate_scores(
    preds: np.ndarray, refs: np.ndarray, dataset: str, level: str
) -> EvalReport:
    """Build a report; degenerate correlations come back flagged, not raised."""
    try:
        return EvalReport(
            dataset=dataset,
            level=level,
            srcc=srcc(preds, refs),
            pcc=pcc(preds, refs),
            n=int(preds.size),
        )
    except DegenerateCorrelationError as exc:
        return EvalReport(
            dataset=dataset,
            level=level,
            srcc=None,
            pcc=None,
            n=int(preds.size),
            flagged=True,
            flag_reason=str(exc),
        )


def evaluate_scores(
    corpus: Corpus, scores: np.ndarray, level: str = "utterance"
) -> EvalReport:
    """Correlate per-utterance scores against corpus labels at the given level.
    Scores of any float dtype are widened to float64 first."""
    scores = np.asarray(scores, dtype=np.float64)
    refs = corpus.targets()
    if level == "utterance":
        return correlate_scores(scores, refs, corpus.name, level)
    if level != "speaker":
        raise ParameterError(f"unknown evaluation level '{level}'")
    _, preds = speaker_aggregate(scores, corpus.speakers)
    _, truth = speaker_aggregate(refs, corpus.speakers)
    return correlate_scores(preds, truth, corpus.name, level)


def write_report_json(path: str | Path, payload: dict) -> None:
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def format_float(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def write_results_csv(path: str | Path, rows: list[dict]) -> None:
    """Flat one-row-per-(dataset, level, seed) table, written atomically."""
    lines = [",".join(RESULTS_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                format_float(row[c]) if c in ("srcc", "pcc") else str(row[c])
                for c in RESULTS_COLUMNS
            )
        )
    atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Embedding dumps (post-pooling vectors for external 2-D projection)
# ---------------------------------------------------------------------------


def embedding_dtype(dim: int) -> np.dtype:
    """One packed DSQE row: dim float32s, the label and the provenance byte."""
    return np.dtype([("v", "<f4", (dim,)), ("label", "<f4"), ("prov", "u1")])


def write_embeddings(
    path: str | Path,
    vectors: np.ndarray,
    labels: np.ndarray | list[float | None],
    provenances: np.ndarray | list[str],
) -> None:
    """Framed file with header fields (n, dim), then per row dim float32s,
    the float32 label (NaN where `labels` holds None or NaN) and the
    provenance byte (its index in PROVENANCES)."""
    n, dim = vectors.shape
    if n < 1:
        raise EmptyInputError("cannot write an embedding dump without rows")
    if len(labels) != n or len(provenances) != n:
        raise DimensionError("labels/provenances must match vector count")
    rows = np.empty(n, dtype=embedding_dtype(dim))
    rows["v"] = vectors
    rows["label"] = np.array(labels, dtype=np.float64)
    rows["prov"] = [PROVENANCES.index(p) for p in provenances]
    atomic_write(path, frame_header(DSQE_MAGIC, DSQE_VERSION, n, dim) + rows.tobytes())


def read_embeddings(path: str | Path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Inverse of write_embeddings; labels come back as float (NaN if absent).
    A malformed file or an unknown provenance byte raises FeatureFormatError
    at the offending byte."""
    frame = FrameReader(Path(path).read_bytes(), DSQE_MAGIC, DSQE_VERSION, 2)
    n, dim = frame.header
    frame.check((n, dim), 4, "rows")  # bounds dim before numpy builds the row type
    start = frame.pos
    rows = frame.array(embedding_dtype(dim), (n,), "rows")
    frame.end()
    prov = rows["prov"]
    unknown = prov >= len(PROVENANCES)
    if unknown.any():
        i = int(np.argmax(unknown))  # the provenance byte ends row i
        raise FeatureFormatError(
            f"unknown provenance byte {prov[i]}", offset=start + (i + 1) * rows.itemsize - 1
        )
    # A signalling-NaN bit pattern is still NaN; widening it must not warn.
    with np.errstate(invalid="ignore"):
        vectors, labels = rows["v"].astype(np.float64), rows["label"].astype(np.float64)
    return vectors, labels, [PROVENANCES[b] for b in prov.tolist()]
