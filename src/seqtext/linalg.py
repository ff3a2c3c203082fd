"""Elementwise float64 kernels shared by the cells and the model head."""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function, elementwise.

    exp() is only ever taken of -|x|, so it never overflows for finite
    input; the sign of x picks 1/(1+e) or e/(1+e). No masked indexing,
    so strided gate slices cost no gather or scatter.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)
