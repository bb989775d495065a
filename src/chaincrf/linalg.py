"""Dense float64 primitives shared by every other module.

Vectors are 1-D float64 numpy arrays, matrices are 2-D row-major arrays,
order-3 tensors are 3-D arrays.  All randomness flows through numpy's
PCG64 generator so a seed fully determines every stream on every platform.
"""

from __future__ import annotations

import math

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """PCG64 generator for `seed`; equal seeds give bit-identical streams."""
    return np.random.default_rng(seed)


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) computed with the shift-by-max trick.

    Accepts any non-empty sequence of floats; -inf entries are allowed and
    an all-(-inf) input returns -inf.  Raises ValueError on empty input.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("empty reduction")
    m = float(np.max(arr))
    if m == -math.inf or not np.isfinite(m):
        return m
    return m + float(np.log(np.sum(np.exp(arr - m))))


def log_sum_exp_over_rows(mat: np.ndarray, axis: int = 0) -> np.ndarray:
    """Column-wise log-sum-exp of a 2-D array (reduction over axis 0).

    With `axis`, the same reduction over that axis of an array of any
    rank, in the same order of operations.
    """
    m = mat.max(axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.exp(mat - safe).sum(axis=axis, keepdims=True))
    return np.where(np.isfinite(m), out, m).squeeze(axis)


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform draw in [-a, a] with a = sqrt(6 / (rows + cols))."""
    a = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))
