"""Augmented views, the four pairing rules, and the contrastive losses.

Run from the repository root:

    python3 demos/03_views_and_pairing.py
"""

import numpy as np

from sevreg.augment import AugmentConfig, make_views
from sevreg.contrastive import (
    Batch,
    PairingSpec,
    build_batch,
    ntxent_loss,
    positive_pairs,
    simclr_loss,
    stage2_loss,
    variance_reg,
)
from sevreg.nn import Stack

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# Two stochastic views per source sequence
# ---------------------------------------------------------------------------
print("== augmentation ==")
h = rng.standard_normal((20, 8))
cfg = AugmentConfig()  # noise 0.01, mask <= 20% of frames, crop >= 70%, p = 0.5
v1, v2 = make_views(h, cfg, rng)
print(f"source T={h.shape[0]} -> views T={v1.shape[0]} and T={v2.shape[0]}")

# Stage 2 draws a whole batch at once: the sources are index entries into one
# Stack of every sequence's rows (a corpus's `stack()`), their labels entries
# of its label vector, and the 2B views come back as one Stack.
lengths = [20, 12, 31, 9]
source = Stack(rng.standard_normal((sum(lengths), 8)), np.cumsum([0, *lengths]))
labels = np.array([1.0, 3.2, 6.5, 2.0])
drawn = build_batch(source, labels, np.array([2, 0, 3]), cfg, rng)
print(f"sources 2, 0, 3 of T={[lengths[i] for i in (2, 0, 3)]} -> views of",
      f"T={np.diff(drawn.views.offsets).tolist()}, labels {drawn.labels.tolist()}")

# ---------------------------------------------------------------------------
# Pairing rules on a batch whose labels straddle the interesting boundaries
# ---------------------------------------------------------------------------
print("\n== pairing ==")
source_labels = [2.4, 2.6, 1.7, 1.0, 5.0]
batch = Batch(
    views=[np.zeros((1, 1))] * 10,
    labels=np.tile(np.array(source_labels), 2),
    b=5,
)
print("source labels:", source_labels, "(views 5-9 repeat them)")
for strategy in ("sup", "dis", "con", "coarse"):
    pairs = positive_pairs(batch, PairingSpec(strategy=strategy))
    print(f"{strategy:7s} positives of anchor 0 (label 2.4): {np.flatnonzero(pairs[0])}")
print("note: 2.6 pairs with 2.4 only under con; 1.7 only under dis;")
print("coarse groups 1.0 and views of anything <= 1.5 together")

# ---------------------------------------------------------------------------
# Losses over random unit embeddings
# ---------------------------------------------------------------------------
print("\n== losses ==")
z = rng.standard_normal((10, 32))
z /= np.linalg.norm(z, axis=1, keepdims=True)

print("simclr loss:", round(simclr_loss(z, tau=0.1).value, 4))
for strategy in ("dis", "con", "coarse"):
    spec = PairingSpec(strategy=strategy)
    pairs = positive_pairs(batch, spec)
    value = ntxent_loss(z, pairs, spec.resolved_tau()).value
    print(f"ntxent[{strategy}] at its default tau={spec.resolved_tau()}: {value:.4f}")

print("\ntemperature softens the objective:")
pairs = positive_pairs(batch, PairingSpec(strategy="coarse"))
for tau in (0.1, 1.0, 10.0, 50.0, 100.0):
    print(f"  tau={tau:5}: coarse loss {ntxent_loss(z, pairs, tau).value:.4f}")

print("\nvariance hinge keeps dimensions spread:")
print("  spread rows   ->", variance_reg(rng.standard_normal((16, 8)) * 3, 1.0).value)
print("  identical rows ->", round(variance_reg(np.tile(z[0], (10, 1)), 1.0).value, 4))

result = stage2_loss(z, batch, PairingSpec(strategy="coarse"), gamma=1.0, var_weight=0.1)
print("\ncombined stage-2 objective:", round(result.value, 4))
print("gradient shape matches embeddings:", result.grad.shape == z.shape)
