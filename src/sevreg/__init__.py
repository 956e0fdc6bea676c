"""Weakly supervised severity regression on frame-level feature sequences.

The package trains a small adaptor network in three stages: a teacher
regressor that pseudo-labels an unlabeled pool, label-aware contrastive
pretraining over augmented views (with a variance hinge against collapse),
and weight-transfer fine-tuning. Everything runs on plain numpy with
hand-written backward passes; the pipeline's nets are float32, the gradient
checks build float64 ones. Corpora are synthetic and desk-scale.
"""

from .augment import AugmentConfig, draw_views, make_views
from .config import ModelConfig, RegressionStageConfig, RunConfig, Stage2Config
from .contrastive import (
    Batch,
    PairingSpec,
    ntxent_loss,
    positive_pairs,
    simclr_loss,
    stage2_loss,
    variance_reg,
)
from .data import (
    Corpus,
    load_corpus,
    make_corpus,
    normalize_frames,
    read_feature_file,
    sampler_weights,
    save_corpus,
    split,
    write_feature_file,
)
from .evaluation import EvalReport, pcc, rank, speaker_aggregate, srcc
from .gradcheck import finite_diff_check
from .nn import AdaptorNet, build_net, forward_batch, huber_loss, stats_pool
from .optim import OptimState, init_optimizer, optimizer_step
from .pipeline import (
    Checkpoint,
    build_stage2_corpus,
    dump_embeddings,
    evaluate,
    load_checkpoint,
    predict,
    pseudo_label,
    save_checkpoint,
    train_stage2,
    train_stage3,
)
from .synthetic import SyntheticSpec, WorldConfig, build_world, gen_synthetic_corpus

__version__ = "0.1.0"
