"""Three-stage orchestration: teacher regression + pseudo-labels, weakly
supervised contrastive pretraining, and weight-transfer fine-tuning.

All randomness flows from one run seed through fixed role keys, so a
(config, seed, corpus) triple maps to bit-identical checkpoints. The bytes do
not depend on OPENBLAS_NUM_THREADS: the weight gradients reduce in fixed row
blocks (nn.GRAD_BLOCK_ROWS).
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
    Corpus,
    FrameReader,
    atomic_write,
    frame_header,
    label_histogram,
    pack_u32,
    pseudo_pool,
    sampler_weights,
)
from .errors import (
    DimensionError,
    FeatureFormatError,
    ParameterError,
    TrainingDivergedError,
    TransferError,
)
from .evaluation import EvalReport, evaluate_scores, write_embeddings
from .nn import AdaptorNet, backward_batch, build_net, forward_batch, huber_loss_batch
from .optim import OptimState, init_optimizer, optimizer_step

logger = logging.getLogger(__name__)

# Role keys for deriving independent RNG streams from one run seed.
ROLE_MODEL_INIT = 0
ROLE_SAMPLER = 1
ROLE_DROPOUT = 2
ROLE_STAGE2_ORDER = 3
ROLE_STAGE2_AUGMENT = 4
ROLE_STAGE2_DROPOUT = 5

SCORE_MIN, SCORE_MAX = 1.0, 7.0
EVAL_CHUNK = 256  # utterances per eval-mode forward

CKPT_MAGIC = b"DSQC"
CKPT_VERSION = 1

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
    """Named parameter table plus a JSON-able metadata snapshot. The tensors
    have the net's dtype when taken from a net and are float64 when read
    from a file, which stores them as float64."""

    params: dict[str, np.ndarray]
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
    return Checkpoint(
        params={k: v.copy() for k, v in net.param_arrays().items()}, meta=meta
    )


# Model metadata that older checkpoints record, each with the only value the
# model implements; a checkpoint naming another value cannot be loaded.
FIXED_MODEL_META = {"pool": "mean_std", "feature_norm": "l2"}


def net_from_checkpoint(ckpt: Checkpoint) -> AdaptorNet:
    """Rebuild the network in NET_DTYPE; the checkpoint must hold exactly its
    tensors, each with the shape the recorded model gives it. A float32
    net's checkpoint loads bit for bit; values float32 cannot represent are
    rounded to nearest, and one beyond its range is an error."""
    try:
        m = ckpt.meta["model"]
        fixed = {key: m.get(key, value) for key, value in FIXED_MODEL_META.items()}
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
    if fixed != FIXED_MODEL_META:
        raise FeatureFormatError(
            f"checkpoint model {fixed} is not the implemented {FIXED_MODEL_META}"
        )
    arrays = net.param_arrays()
    missing = sorted(set(arrays) - set(ckpt.params))
    unknown = sorted(set(ckpt.params) - set(arrays))
    misshapen = sorted(
        name
        for name in set(arrays) & set(ckpt.params)
        if np.shape(ckpt.params[name]) != arrays[name].shape
    )
    if missing or unknown or misshapen:
        raise FeatureFormatError(
            "checkpoint tensors do not fit the model: "
            f"missing {missing}, unknown {unknown}, wrong shape {misshapen}"
        )
    _copy_tensors(arrays, ckpt.params)
    return net


def _copy_tensors(arrays: dict[str, np.ndarray], values: dict[str, np.ndarray]) -> None:
    """Copy checkpoint tensors into a net's parameter arrays, each value
    rounded to the nearest one of the net's dtype; a value beyond its range
    raises FeatureFormatError."""
    with np.errstate(over="ignore"):
        for name, value in values.items():
            arrays[name][...] = value
    overflowed = sorted(name for name in values if not np.all(np.isfinite(arrays[name])))
    if overflowed:
        dtype = arrays[overflowed[0]].dtype
        raise FeatureFormatError(f"checkpoint tensors {overflowed} hold values beyond {dtype}")


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Framed file whose header field is the metadata length: meta JSON, the
    tensor count, then per tensor its name length, name, rank, shape and
    float64 values (float32 widens to float64 exactly)."""
    meta_bytes = json.dumps(ckpt.meta, sort_keys=True).encode()
    blob = bytearray(frame_header(CKPT_MAGIC, CKPT_VERSION, len(meta_bytes)))
    blob += meta_bytes
    names = sorted(ckpt.params)
    blob += pack_u32(len(names))
    for name in names:
        arr = np.ascontiguousarray(ckpt.params[name], dtype="<f8")
        name_bytes = name.encode()
        blob += pack_u32(len(name_bytes)) + name_bytes
        blob += pack_u32(arr.ndim, *arr.shape) + arr.tobytes()
    atomic_write(path, bytes(blob))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Strict reader for save_checkpoint's layout: a short, malformed or
    overlong file raises FeatureFormatError at the offending byte."""
    frame = FrameReader(Path(path).read_bytes(), CKPT_MAGIC, CKPT_VERSION, 1)
    start = frame.pos
    meta_bytes = frame.take(frame.header[0], "metadata")
    try:
        meta = json.loads(meta_bytes.decode())
    except (ValueError, RecursionError) as exc:
        raise FeatureFormatError(f"unreadable metadata: {exc}", offset=start) from exc
    if not isinstance(meta, dict):
        raise FeatureFormatError("metadata is not a JSON object", offset=start)
    params = {}
    for _ in range(frame.u32s(1, "tensor count")[0]):
        start = frame.pos
        name_len = frame.u32s(1, "tensor name length")[0]
        try:
            name = frame.take(name_len, "tensor name").decode()
        except UnicodeDecodeError as exc:
            raise FeatureFormatError("tensor name is not UTF-8", offset=start) from exc
        if name in params:
            raise FeatureFormatError(f"duplicate tensor '{name}'", offset=start)
        shape = frame.u32s(frame.u32s(1, "tensor rank")[0], "tensor shape")
        params[name] = frame.array("<f8", shape, f"tensor '{name}'", finite=True).copy()
    frame.end()
    return Checkpoint(params=params, meta=meta)


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
        feat_dim=corpus.utterances[0].features.shape[1],
        seed_or_rng=role_rng(seed, ROLE_MODEL_INIT),
        hidden_dim=model_cfg.hidden_dim,
        out_dim=model_cfg.embed_dim if projector else 1,
        dropout_p=model_cfg.dropout,
        normalize_output=projector,
        dtype=NET_DTYPE,
    )


def fit(
    net: AdaptorNet,
    opt: OptimState,
    epochs: int,
    batches: Callable[[], Iterable[tuple[list[np.ndarray], Any]]],
    loss: Callable[[np.ndarray, Any], tuple[float, np.ndarray]],
    on_epoch: Callable[[int], dict],
    drop_rng: np.random.Generator,
    stage: str,
) -> list[dict]:
    """The step loop of every stage: per epoch, one step per (sequences,
    target) batch drawn lazily from `batches()`, then a history row that
    `on_epoch(epoch)` extends. `loss(out, target)` returns the loss and its
    gradient w.r.t. the output; a non-finite loss raises
    TrainingDivergedError carrying the completed epochs' rows."""
    history: list[dict] = []
    for epoch in range(epochs):
        epoch_losses = []
        for seqs, target in batches():
            cache = forward_batch(net, seqs, training=True, rng=drop_rng)
            value, grad_out = loss(cache.out, target)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"{stage} loss diverged at epoch {epoch}", history=history
                )
            grads = backward_batch(net, cache, grad_out)
            optimizer_step(net.param_arrays(), grads, opt)
            epoch_losses.append(value)
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
    init_trunk: dict[str, np.ndarray] | None = None,
) -> StageResult:
    """Huber regression with label-weighted sampling; returns the checkpoint
    with the best validation SRCC. That is the initial model if epochs == 0,
    or, with a warning, if the validation SRCC was undefined on every epoch.
    Each history row records as `best_epoch` the epoch whose weights the
    stage keeps so far; None there means the initial model."""
    net = seeded_net(model_cfg, train, seed)
    if init_trunk is not None:
        arrays = net.param_arrays()
        mismatched = [
            name
            for name, value in init_trunk.items()
            if name not in arrays or arrays[name].shape != value.shape
        ]
        if mismatched:
            raise TransferError(
                f"checkpoint layers do not fit the model: {mismatched}",
                layers=mismatched,
            )
        _copy_tensors(arrays, init_trunk)

    labels = train.labels()
    weights = sampler_weights(train)
    probs = weights / weights.sum()
    # Frames made between steps land among the step's temporaries and
    # fragment the heap: +13 % peak RSS on a default coarse run.
    feats = [u.frames for u in train]
    n = len(train)
    sampler = role_rng(seed, ROLE_SAMPLER)

    def batches():
        order = sampler.choice(n, size=n, replace=True, p=probs)
        for start in range(0, n, stage_cfg.batch_size):
            idx = order[start : start + stage_cfg.batch_size]
            yield [feats[i] for i in idx], labels[idx]

    def loss(out, target):
        value, dpred = huber_loss_batch(out[:, 0], target, stage_cfg.huber_delta)
        return value, dpred[:, None]

    best_params = {k: v.copy() for k, v in net.param_arrays().items()}
    best_srcc = -np.inf
    best_epoch = None

    def on_epoch(epoch):
        nonlocal best_params, best_srcc, best_epoch
        val_srcc = validation_srcc(net, val)
        if val_srcc is not None and val_srcc > best_srcc:
            best_srcc, best_epoch = val_srcc, epoch
            best_params = {k: v.copy() for k, v in net.param_arrays().items()}
        return {"val_srcc": val_srcc, "best_epoch": best_epoch}

    opt = init_optimizer(
        net.param_arrays(), lr=stage_cfg.lr, weight_decay=stage_cfg.weight_decay
    )
    history = fit(
        net, opt, stage_cfg.epochs, batches, loss, on_epoch,
        role_rng(seed, ROLE_DROPOUT), "regression",
    )
    if history and best_epoch is None:
        logger.warning(
            "validation SRCC was undefined on all %d epochs; "
            "keeping the model as it was before training", len(history),
        )

    arrays = net.param_arrays()
    for name, value in best_params.items():
        arrays[name][...] = value
    return StageResult(net=net, history=history)


def validation_srcc(net: AdaptorNet, val: Corpus) -> float | None:
    """Utterance-level SRCC on a validation corpus; None when degenerate."""
    report = evaluate(net, val, level="utterance")
    return None if report.flagged else report.srcc


def eval_forward(net: AdaptorNet, corpus: Corpus):
    """Eval-mode forward caches over the corpus, EVAL_CHUNK utterances each."""
    for start in range(0, len(corpus), EVAL_CHUNK):
        seqs = [u.frames for u in corpus.utterances[start : start + EVAL_CHUNK]]
        yield forward_batch(net, seqs, training=False)


def predict(net: AdaptorNet, corpus: Corpus) -> np.ndarray:
    """Eval-mode severity scores of a one-output regressor, clamped to [1, 7]."""
    if net.out_dim != 1:
        raise DimensionError(f"predict needs a one-output regressor, got out_dim {net.out_dim}")
    scores = np.concatenate([cache.out[:, 0] for cache in eval_forward(net, corpus)])
    return np.clip(scores, SCORE_MIN, SCORE_MAX)


def pseudo_label(net: AdaptorNet, unlabeled: Corpus) -> Corpus:
    """Attach clamped predictions as labels; the input corpus is untouched."""
    if any(u.label is not None for u in unlabeled):
        raise ParameterError("pseudo_label expects an unlabeled corpus")
    scores = predict(net, unlabeled)
    out = pseudo_pool(unlabeled, [float(s) for s in scores], f"{unlabeled.name}/pseudo")
    hist = label_histogram(out)
    logger.info("pseudo-label histogram: %s", hist)
    return out


# ---------------------------------------------------------------------------
# Stage 2: weakly supervised pretraining
# ---------------------------------------------------------------------------


def build_stage2_corpus(
    labeled: Corpus, pseudo: Corpus | None, typical: Corpus | None
) -> Corpus:
    """Concatenate the pretraining pools, preserving provenance.

    Dropping `typical` or `pseudo` yields the corresponding data ablations.
    """
    utts = list(labeled.utterances)
    if pseudo is not None:
        utts.extend(pseudo.utterances)
    if typical is not None:
        for u in typical:
            if u.label != 1.0:
                raise ParameterError(
                    f"typical utterance '{u.id}' must carry label 1"
                )
        utts.extend(typical.utterances)
    merged = Corpus(utts, name="stage2")
    counts = merged.counts()
    logger.info(
        "stage-2 corpus: N=%d labeled, M=%d pseudo, K=%d typical",
        counts["labeled"], counts["pseudo"], counts["typical"],
    )
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
    is one shuffle of the corpus; a last batch of one source is dropped."""
    pairing = s2cfg.pairing.spec(strategy)
    pairing.validate()
    labels = np.array(
        [np.nan if u.label is None else u.label for u in mixed], dtype=float
    )
    if strategy != "simclr" and np.any(np.isnan(labels)):
        raise ParameterError("weakly supervised pairing needs labels on every sample")

    net = seeded_net(model_cfg, mixed, seed, projector=True)
    feats = [u.frames for u in mixed]  # before the first step, as in train_regression
    order_rng = role_rng(seed, ROLE_STAGE2_ORDER)
    aug_rng = role_rng(seed, ROLE_STAGE2_AUGMENT)

    def batches():
        order = order_rng.permutation(len(mixed))
        for start in range(0, len(mixed), s2cfg.batch_size):
            idx = order[start : start + s2cfg.batch_size]
            if len(idx) >= 2:
                sources = [(feats[i], labels[i]) for i in idx]
                batch = build_batch(sources, s2cfg.augment, aug_rng)
                yield batch.views, batch

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

    opt = init_optimizer(
        net.param_arrays(),
        lr=s2cfg.lr,
        weight_decay=s2cfg.weight_decay,
        decoupled=False,
    )
    history = fit(
        net, opt, s2cfg.epochs, batches, loss, on_epoch,
        role_rng(seed, ROLE_STAGE2_DROPOUT), "stage-2",
    )
    return StageResult(net=net, history=history)


# ---------------------------------------------------------------------------
# Stage 3: transfer + fine-tune
# ---------------------------------------------------------------------------

TRANSFER_KEYS = (
    "adaptor1.weight", "adaptor1.bias", "adaptor2.weight", "adaptor2.bias",
)


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
    init_trunk = None
    if encoder is not None:
        init_trunk = {k: encoder.param_arrays()[k] for k in TRANSFER_KEYS}
    return train_regression(
        train, val, cfg.model, cfg.stage3, seed, init_trunk=init_trunk
    )


# ---------------------------------------------------------------------------
# Evaluation plumbing
# ---------------------------------------------------------------------------


def evaluate(net: AdaptorNet, corpus: Corpus, level: str = "utterance") -> EvalReport:
    """predict -> (aggregate if speaker level) -> SRCC + PCC."""
    return evaluate_scores(corpus, predict(net, corpus), level=level)


def dump_embeddings(net: AdaptorNet, corpus: Corpus, path) -> None:
    """Write post-pooling vectors with labels and provenance for external
    projection tools."""
    write_embeddings(
        path,
        np.concatenate([cache.pooled for cache in eval_forward(net, corpus)]),
        [u.label for u in corpus],
        [u.provenance for u in corpus],
    )
