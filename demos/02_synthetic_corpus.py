"""Synthetic corpora: labels, signal structure, feature files, and splits.

Run from the repository root:

    python3 demos/02_synthetic_corpus.py
"""

import tempfile
from pathlib import Path

import numpy as np

from sevreg.data import (
    label_histogram,
    load_corpus,
    normalize_frames,
    read_feature_file,
    sampler_weights,
    save_corpus,
    split,
    write_feature_file,
)
from sevreg.evaluation import srcc
from sevreg.synthetic import SyntheticSpec, gen_synthetic_corpus

spec = SyntheticSpec(n_utts=600, feat_dim=16, n_speakers=30, nuisance_label_corr=0.8)
corpus = gen_synthetic_corpus(spec, seed=0)

# A corpus is one set of arrays: every utterance's rows one after another
# (`features`, float32 as stored), the row `offsets` between utterances, and
# one column entry per utterance.
print("== corpus ==")
print("utterances:", len(corpus), " speakers:", len(set(corpus.speakers)))
print("rows:", corpus.features.shape, corpus.features.dtype, " offsets:", corpus.offsets[:4], "...")
print("label histogram (skewed low, like real severity ratings):")
for bin_id, count in label_histogram(corpus.labels).items():
    print(f"  severity {bin_id}: {'#' * (count // 8)} {count}")

# The first `signal_dims` dimensions carry a mean that rises with severity.
labels = corpus.labels
utterances = corpus.stored()  # a Stack: len() and iteration
signal_means = np.array([f[:, : spec.signal_dims].mean() for f in utterances])
print(f"\nSRCC(label, mean of signal dims) = {srcc(labels, signal_means):.4f}")

nuisance = np.array(
    [f[:, spec.signal_dims : spec.signal_dims + spec.nuisance_dims].mean() for f in utterances]
)
print(f"SRCC(label, mean of nuisance dims) = {srcc(labels, nuisance):.4f}  "
      "(the in-domain shortcut)")

# ---------------------------------------------------------------------------
# Feature files: one binary file per corpus, float32 payload, exact round trips
# ---------------------------------------------------------------------------
print("\n== persistence ==")
with tempfile.TemporaryDirectory() as tmp:
    first_three = corpus.stored(slice(3))
    path = Path(tmp) / "three.dsqf"
    write_feature_file(path, first_three)
    back = read_feature_file(path)
    print("feature file round trip exact:", np.array_equal(back.rows, first_three.rows))

    save_corpus(corpus, Path(tmp) / "corpus")
    print("corpus directory:", sorted(p.name for p in (Path(tmp) / "corpus").iterdir()))
    reloaded = load_corpus(Path(tmp) / "corpus")
    print("corpus round trip ids equal:", np.array_equal(reloaded.ids, corpus.ids))

# ---------------------------------------------------------------------------
# Per-frame normalization and the label-balanced sampler
# ---------------------------------------------------------------------------
print("\n== preprocessing ==")
# A net reads rows where a fit or an evaluation gathers them (Corpus.stack):
# at unit norm, in float64, one normalize_frames call per gather.
frames = corpus.stack().rows
norms = np.linalg.norm(frames, axis=1)
print("row norms after l2 normalization:", np.round(norms[:5], 6))
per_utterance = [normalize_frames(f.astype(np.float64)) for f in utterances]
print("one call per gather equals one per utterance:",
      frames.tobytes() == np.concatenate(per_utterance).tobytes())

weights = sampler_weights(corpus)
rng = np.random.default_rng(1)
draws = rng.choice(len(corpus), size=50_000, p=weights / weights.sum())
picked = labels[draws]
print("weighted draws per severity bin (should be near-uniform):")
hist, _ = np.histogram(np.floor(picked + 0.5), bins=np.arange(0.5, 8.5))
print(" ", hist)

# ---------------------------------------------------------------------------
# Speaker-disjoint splits: index vectors over the corpus, no rows copied
# ---------------------------------------------------------------------------
print("\n== splits ==")
train, val, test = split(corpus, (0.7, 0.15, 0.15), seed=0)
print("speakers:", *(len(set(corpus.speakers[part])) for part in (train, val, test)))
overlap = set(corpus.speakers[train]) & set(corpus.speakers[test])
print("train/test speaker overlap:", overlap or "none")
train_part = corpus.take(train, "train")
print("the train part shares the corpus rows:", train_part.features is corpus.features)
