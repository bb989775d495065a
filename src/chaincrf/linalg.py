"""Dense float64 primitives shared by every other module.

Vectors are 1-D float64 numpy arrays, matrices are 2-D row-major arrays,
order-3 tensors are 3-D arrays.  All randomness flows through numpy's
PCG64 generator so a seed fully determines every stream on every platform.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from contextlib import contextmanager
from functools import cache

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


@cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy, or None when they cannot be found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            get, put = (getattr(lib, name % verb, None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None when the
    loaded BLAS cannot be asked."""
    fns = _openblas()
    return None if fns is None else int(fns[0]())


@contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread and restore its count on
    exit, also when the body raises.  Nothing is set when the count is 1
    already or OpenBLAS cannot be found.  Threads that each run their own
    matrix products use it, so that each does not also start BLAS threads
    on the CPUs that the others are bound to."""
    before = blas_threads() or 1
    if before > 1:
        _openblas()[1](1)
    try:
        yield
    finally:
        if before > 1:
            _openblas()[1](before)
