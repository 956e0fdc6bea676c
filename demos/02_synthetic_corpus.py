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

print("== corpus ==")
print("utterances:", len(corpus), " speakers:", len(corpus.speakers()))
print("label histogram (skewed low, like real severity ratings):")
for bin_id, count in label_histogram(corpus).items():
    print(f"  severity {bin_id}: {'#' * (count // 8)} {count}")

# The first `signal_dims` dimensions carry a mean that rises with severity.
labels = corpus.labels()
signal_means = np.array([u.features[:, : spec.signal_dims].mean() for u in corpus])
print(f"\nSRCC(label, mean of signal dims) = {srcc(labels, signal_means):.4f}")

nuisance = np.array(
    [u.features[:, spec.signal_dims : spec.signal_dims + spec.nuisance_dims].mean() for u in corpus]
)
print(f"SRCC(label, mean of nuisance dims) = {srcc(labels, nuisance):.4f}  "
      "(the in-domain shortcut)")

# ---------------------------------------------------------------------------
# Feature files: one binary file per corpus, float32 payload, exact round trips
# ---------------------------------------------------------------------------
print("\n== persistence ==")
with tempfile.TemporaryDirectory() as tmp:
    matrices = [u.features for u in corpus.utterances[:3]]
    path = Path(tmp) / "three.dsqf"
    write_feature_file(path, matrices)
    back = read_feature_file(path)
    print("feature file round trip exact:", all(map(np.array_equal, back, matrices)))

    save_corpus(corpus, Path(tmp) / "corpus")
    print("corpus directory:", sorted(p.name for p in (Path(tmp) / "corpus").iterdir()))
    reloaded = load_corpus(Path(tmp) / "corpus")
    print("corpus round trip ids equal:", [u.id for u in reloaded] == [u.id for u in corpus])

# ---------------------------------------------------------------------------
# Per-frame normalization and the label-balanced sampler
# ---------------------------------------------------------------------------
print("\n== preprocessing ==")
h = corpus.utterances[0].features
norms = np.linalg.norm(normalize_frames(h), axis=1)
print("row norms after l2 normalization:", np.round(norms[:5], 6))

weights = sampler_weights(corpus)
rng = np.random.default_rng(1)
draws = rng.choice(len(corpus), size=50_000, p=weights / weights.sum())
picked = np.array([labels[i] for i in draws])
print("weighted draws per severity bin (should be near-uniform):")
hist, _ = np.histogram(np.floor(picked + 0.5), bins=np.arange(0.5, 8.5))
print(" ", hist)

# ---------------------------------------------------------------------------
# Speaker-disjoint splits
# ---------------------------------------------------------------------------
print("\n== splits ==")
train, val, test = split(corpus, (0.7, 0.15, 0.15), seed=0)
print("speakers:", len(train.speakers()), "/", len(val.speakers()), "/", len(test.speakers()))
overlap = set(train.speakers()) & set(test.speakers())
print("train/test speaker overlap:", overlap or "none")
