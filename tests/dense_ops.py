"""Dense oracle for the index-mapped operators of dressedlight.model."""

import numpy as np


def dense(lower, dim):
    """The IndexMap lower as a dense float64 (dim, dim) array."""
    out = np.zeros((dim, dim))
    out[lower.dst, lower.src] = lower.amp
    return out
