"""Test helper: a list of (T, D) sequences as one nn.Stack, the form every
batched op takes."""

import numpy as np

from sevreg.nn import Stack


def stack_of(seqs) -> Stack:
    """The sequences stacked in order, split at their row boundaries."""
    seqs = list(seqs)
    rows = np.concatenate(seqs) if seqs else np.empty((0, 0))
    return Stack(rows, np.cumsum([0, *(len(s) for s in seqs)]))
