"""Three-stage orchestration: teacher regression + pseudo-labels, weakly
supervised contrastive pretraining, and weight-transfer fine-tuning.

All randomness flows from one run seed through fixed role keys, so a
(config, seed, corpus) triple maps to bit-identical checkpoints. The bytes do
not depend on OPENBLAS_NUM_THREADS: the weight gradients reduce in fixed row
blocks (nn.GRAD_BLOCK_ROWS). Rows are normalised once per fit and per
evaluation chunk (Corpus.stack), never per step.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .config import ModelConfig, RegressionStageConfig, RunConfig, Stage2Config
from .contrastive import build_batch, stage2_loss
from .data import (
    PROVENANCES,
    Corpus,
    FrameReader,
    atomic_write,
    concat,
    frame_header,
    label_histogram,
    sampler_weights,
)
from .errors import (
    DimensionError,
    FeatureFormatError,
    ParameterError,
    TrainingDivergedError,
)
from .evaluation import EvalReport, evaluate_scores, write_embeddings
from .nn import AdaptorNet, Stack, backward_batch, build_net, forward_batch, huber_loss_batch
from .optim import init_optimizer, optimizer_step

logger = logging.getLogger(__name__)

# Role keys for deriving independent RNG streams from one run seed.
ROLE_MODEL_INIT = 0
ROLE_SAMPLER = 1
ROLE_DROPOUT = 2
ROLE_STAGE2_ORDER = 3
ROLE_STAGE2_AUGMENT = 4
ROLE_STAGE2_DROPOUT = 5

SCORE_MIN, SCORE_MAX = 1.0, 7.0
# Utterances per eval-mode forward. A chunk's cache holds h1 and h2 at its
# row count: on the default corpora at most 2,409 rows, about one stage-2
# step (2,137 rows). Twice as many (up to 4,732 rows, a 12.1 MB pair at
# H 320) would make evaluation hold the largest arrays of a run.
EVAL_CHUNK = 128

CKPT_MAGIC = b"DSQC"
CKPT_VERSION = 2

# The dtype of every net the pipeline trains, loads or evaluates. At the
# stage-2 shape (2304x320 . 320x320) a float32 matmul took 8.0 ms against
# 23.3 ms in float64 on a 2-core Xeon. The gradient checks build their
# float64 nets with nn.build_net directly.
NET_DTYPE = np.float32


def role_rng(seed: int, role: int) -> np.random.Generator:
    """Independent stream for (seed, role)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(role,)))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """A net's flat parameter array (nn.AdaptorNet.flat) plus a JSON-able
    metadata snapshot; read from a file, the array is float32."""

    flat: np.ndarray
    meta: dict


def checkpoint_from_net(
    net: AdaptorNet, stage: str, config_snapshot: dict, metrics: dict | None = None
) -> Checkpoint:
    meta = {
        "stage": stage,
        "model": {
            "feat_dim": net.feat_dim,
            "hidden_dim": net.hidden_dim,
            "out_dim": net.out_dim,
            "dropout_p": net.dropout_p,
            "normalize_output": net.normalize_output,
        },
        "config": config_snapshot,
        "metrics": metrics or {},
    }
    return Checkpoint(net.flat.copy(), meta)


def net_from_checkpoint(ckpt: Checkpoint) -> AdaptorNet:
    """Rebuild the network the recorded model describes, in NET_DTYPE; the
    checkpoint must hold exactly as many values as that net has parameters."""
    try:
        m = ckpt.meta["model"]
        net = build_net(
            feat_dim=m["feat_dim"],
            seed_or_rng=0,
            hidden_dim=m["hidden_dim"],
            out_dim=m["out_dim"],
            dropout_p=m["dropout_p"],
            normalize_output=m["normalize_output"],
            dtype=NET_DTYPE,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FeatureFormatError(f"bad model metadata in checkpoint: {exc!r}") from exc
    if np.shape(ckpt.flat) != net.flat.shape:
        raise FeatureFormatError(
            f"checkpoint holds {np.size(ckpt.flat)} parameter values, "
            f"its model has {net.flat.size}"
        )
    net.flat[...] = ckpt.flat
    return net


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Framed file whose header fields are the metadata length and the value
    count: the metadata JSON, then the flat array as float32, to which a
    float64 array rounds to nearest."""
    meta_bytes = json.dumps(ckpt.meta, sort_keys=True).encode()
    values = np.asarray(ckpt.flat, dtype="<f4")
    header = frame_header(CKPT_MAGIC, CKPT_VERSION, len(meta_bytes), values.size)
    atomic_write(path, header + meta_bytes + values.tobytes())


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Strict reader for save_checkpoint's layout: a short, malformed or
    overlong file raises FeatureFormatError at the offending byte."""
    frame = FrameReader(Path(path).read_bytes(), CKPT_MAGIC, CKPT_VERSION, 2)
    meta_len, count = frame.header
    start = frame.pos
    meta_bytes = frame.take(meta_len, "metadata")
    try:
        meta = json.loads(str(meta_bytes, "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FeatureFormatError(f"unreadable metadata: {exc}", offset=start) from exc
    if not isinstance(meta, dict):
        raise FeatureFormatError("metadata is not a JSON object", offset=start)
    flat = frame.array("<f4", (count,), "parameters", finite=True).copy()
    frame.end()
    return Checkpoint(flat, meta)


# ---------------------------------------------------------------------------
# Stage 1 / Stage 3: severity regression
# ---------------------------------------------------------------------------


@dataclass
class StageResult:
    net: AdaptorNet
    history: list[dict] = field(default_factory=list)


def seeded_net(
    model_cfg: ModelConfig, corpus: Corpus, seed: int, projector: bool = False
) -> AdaptorNet:
    """The seed's initial network for a corpus: a one-output regressor, or
    for stage 2 the L2-normalized projector."""
    return build_net(
        feat_dim=corpus.features.shape[1],
        seed_or_rng=role_rng(seed, ROLE_MODEL_INIT),
        hidden_dim=model_cfg.hidden_dim,
        out_dim=model_cfg.embed_dim if projector else 1,
        dropout_p=model_cfg.dropout,
        normalize_output=projector,
        dtype=NET_DTYPE,
    )


def fit(
    net: AdaptorNet,
    cfg: RegressionStageConfig | Stage2Config,
    batches: Callable[[], Iterable[tuple[Stack, Any]]],
    loss: Callable[[np.ndarray, Any], tuple[float, np.ndarray]],
    on_epoch: Callable[[int], dict],
    drop_rng: np.random.Generator,
    stage: str,
    decoupled: bool,
) -> list[dict]:
    """The step loop of every stage: per epoch of `cfg`, one step per
    (Stack, target) batch drawn lazily from `batches()`, then a history
    row that `on_epoch(epoch)` extends. `loss(out, target)` returns the loss
    and its gradient w.r.t. the output; a non-finite loss raises
    TrainingDivergedError carrying the completed epochs' rows. The optimizer
    (lr and weight decay of `cfg`, `decoupled` or not) steps the net's one
    flat parameter array, named `stage`. A step's batch, cache and output
    gradient are released before the next batch is drawn."""
    params = {stage: net.flat}
    opt = init_optimizer(
        params, lr=cfg.lr, weight_decay=cfg.weight_decay, decoupled=decoupled
    )
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for seqs, target in batches():
            cache = forward_batch(net, seqs, training=True, rng=drop_rng)
            value, grad_out = loss(cache.out, target)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"{stage} loss diverged at epoch {epoch}", history=history
                )
            optimizer_step(params, {stage: backward_batch(net, cache, grad_out)}, opt)
            epoch_losses.append(value)
            del seqs, target, cache, grad_out  # one step alive at a time
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)) if epoch_losses else None,
                **on_epoch(epoch),
            }
        )
    return history


def train_regression(
    train: Corpus,
    val: Corpus,
    model_cfg: ModelConfig,
    stage_cfg: RegressionStageConfig,
    seed: int,
    init_trunk: AdaptorNet | None = None,
) -> StageResult:
    """Huber regression with label-weighted sampling, from the seeded init
    with the trunk of the net `init_trunk`, if given; returns the checkpoint
    with the best validation SRCC. That is the initial model if epochs == 0,
    or, with a warning, if the validation SRCC was undefined on every epoch.
    Each history row records as `best_epoch` the epoch whose weights the
    stage keeps so far; None there means the initial model."""
    net = seeded_net(model_cfg, train, seed)
    if init_trunk is not None:
        net.load_trunk(init_trunk)

    labels = train.targets()
    weights = sampler_weights(train)
    probs = weights / weights.sum()
    n = len(train)
    source = train.stack()
    sampler = role_rng(seed, ROLE_SAMPLER)

    def batches():
        order = sampler.choice(n, size=n, replace=True, p=probs)
        for start in range(0, n, stage_cfg.batch_size):
            idx = order[start : start + stage_cfg.batch_size]
            yield source.take(idx), labels[idx]

    def loss(out, target):
        value, dpred = huber_loss_batch(out[:, 0], target, stage_cfg.huber_delta)
        return value, dpred[:, None]

    best = net.flat.copy()
    best_srcc = -np.inf
    best_epoch = None

    def on_epoch(epoch):
        nonlocal best_srcc, best_epoch
        val_srcc = validation_srcc(net, val)
        if val_srcc is not None and val_srcc > best_srcc:
            best_srcc, best_epoch = val_srcc, epoch
            best[...] = net.flat
        return {"val_srcc": val_srcc, "best_epoch": best_epoch}

    history = fit(
        net, stage_cfg, batches, loss, on_epoch,
        role_rng(seed, ROLE_DROPOUT), "regression", decoupled=True,
    )
    if history and best_epoch is None:
        logger.warning(
            "validation SRCC was undefined on all %d epochs; "
            "keeping the model as it was before training", len(history),
        )

    net.flat[...] = best
    return StageResult(net=net, history=history)


def validation_srcc(net: AdaptorNet, val: Corpus) -> float | None:
    """Utterance-level SRCC on a validation corpus; None when degenerate."""
    report = evaluate(net, val, level="utterance")
    return None if report.flagged else report.srcc


def eval_forward(net: AdaptorNet, corpus: Corpus, field: str) -> np.ndarray:
    """One field of the eval-mode forward cache, 'out' or 'pooled', over the
    corpus: one pass per EVAL_CHUNK utterances, each on a Stack of their
    rows, and each pass's cache released before the next runs."""
    return np.concatenate([
        getattr(forward_batch(net, corpus.stack(slice(start, start + EVAL_CHUNK))), field)
        for start in range(0, len(corpus), EVAL_CHUNK)
    ])


def predict(net: AdaptorNet, corpus: Corpus) -> np.ndarray:
    """Eval-mode severity scores of a one-output regressor, clamped to [1, 7]."""
    if net.out_dim != 1:
        raise DimensionError(f"predict needs a one-output regressor, got out_dim {net.out_dim}")
    return np.clip(eval_forward(net, corpus, "out")[:, 0], SCORE_MIN, SCORE_MAX)


def pseudo_label(net: AdaptorNet, unlabeled: Corpus) -> Corpus:
    """The unlabeled corpus with clamped predictions as its label vector,
    over the same rows; the input corpus is untouched."""
    if not np.isnan(unlabeled.labels).all():
        raise ParameterError("pseudo_label expects an unlabeled corpus")
    out = unlabeled.with_labels(predict(net, unlabeled), f"{unlabeled.name}/pseudo")
    logger.info("pseudo-label histogram: %s", label_histogram(out.labels))
    return out


# ---------------------------------------------------------------------------
# Stage 2: weakly supervised pretraining
# ---------------------------------------------------------------------------


def build_stage2_corpus(
    labeled: Corpus, pseudo: Corpus | None, typical: Corpus | None
) -> Corpus:
    """Concatenate the pretraining pools, preserving provenance: the one
    copy of their stored rows, which train_stage2 normalises once and then
    drops.

    Dropping `typical` or `pseudo` yields the corresponding data ablations.
    """
    if typical is not None and np.any(typical.labels != 1.0):
        bad = typical.ids[np.argmax(typical.labels != 1.0)]
        raise ParameterError(f"typical utterance '{bad}' must carry label 1")
    merged = concat([c for c in (labeled, pseudo, typical) if c is not None], "stage2")
    counts = [np.count_nonzero(merged.provenance == p) for p in PROVENANCES]
    logger.info("stage-2 corpus: N=%d labeled, M=%d pseudo, K=%d typical", *counts)
    return merged


def train_stage2(
    mixed: Corpus,
    model_cfg: ModelConfig,
    s2cfg: Stage2Config,
    seed: int,
    strategy: str,
) -> StageResult:
    """Train the projector for exactly s2cfg.epochs; final weights returned
    (longer training degrades, so there is no model selection). Each epoch
    is one shuffle of the corpus; a last batch of one source is dropped.
    Only the normalised rows, the labels and the length of `mixed` are kept
    past the start."""
    pairing = s2cfg.pairing.spec(strategy)
    pairing.validate()
    labels = mixed.labels
    if strategy != "simclr" and np.any(np.isnan(labels)):
        raise ParameterError("weakly supervised pairing needs labels on every sample")

    net = seeded_net(model_cfg, mixed, seed, projector=True)
    source, n = mixed.stack(), len(mixed)
    del mixed  # a caller that binds no name frees the stored rows here
    order_rng = role_rng(seed, ROLE_STAGE2_ORDER)
    aug_rng = role_rng(seed, ROLE_STAGE2_AUGMENT)

    def batches():
        order = order_rng.permutation(n)
        for start in range(0, n, s2cfg.batch_size):
            idx = order[start : start + s2cfg.batch_size]
            if len(idx) >= 2:
                batch = build_batch(source, labels, idx, s2cfg.augment, aug_rng)
                yield batch.views, batch
                del batch  # freed before the next batch is built

    # Every view's sibling is among its positives, so no anchor is ever
    # skipped; the count stays in the history as a health record.
    skipped = []

    def loss(z, batch):
        result = stage2_loss(z, batch, pairing, s2cfg.gamma, s2cfg.var_weight)
        skipped.append(result.skipped_anchors)
        return result.value, result.grad

    def on_epoch(epoch):
        row = {"skipped_anchors": sum(skipped)}
        skipped.clear()
        return row

    history = fit(
        net, s2cfg, batches, loss, on_epoch,
        role_rng(seed, ROLE_STAGE2_DROPOUT), "stage-2", decoupled=False,
    )
    return StageResult(net=net, history=history)


# ---------------------------------------------------------------------------
# Stage 3: transfer + fine-tune
# ---------------------------------------------------------------------------

def train_stage3(
    train: Corpus,
    val: Corpus,
    cfg: RunConfig,
    encoder: AdaptorNet | None,
    seed: int,
) -> StageResult:
    """Fine-tune with the first two layers seeded from a stage-2 net.

    The projection head is discarded; the fresh regression head comes from the
    same seeded stream as stage 1, so a run without an encoder reproduces
    stage 1 exactly.
    """
    return train_regression(train, val, cfg.model, cfg.stage3, seed, init_trunk=encoder)


# ---------------------------------------------------------------------------
# Evaluation plumbing
# ---------------------------------------------------------------------------


def evaluate(net: AdaptorNet, corpus: Corpus, level: str = "utterance") -> EvalReport:
    """predict -> (aggregate if speaker level) -> SRCC + PCC."""
    return evaluate_scores(corpus, predict(net, corpus), level=level)


def dump_embeddings(net: AdaptorNet, corpus: Corpus, path) -> None:
    """Write post-pooling vectors with labels and provenance for external
    projection tools."""
    write_embeddings(path, eval_forward(net, corpus, "pooled"), corpus.labels, corpus.provenance)
