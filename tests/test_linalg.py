import math

import numpy as np
import pytest

from chaincrf import log_sum_exp, make_rng
from chaincrf.linalg import glorot, log_sum_exp_over_rows


def test_log_sum_exp_equal_values():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)


def test_log_sum_exp_singleton():
    assert log_sum_exp([5.0]) == 5.0


def test_log_sum_exp_no_overflow():
    assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)


def test_log_sum_exp_empty_raises():
    with pytest.raises(ValueError, match="empty reduction"):
        log_sum_exp([])


def test_log_sum_exp_all_neg_inf():
    assert log_sum_exp([-math.inf, -math.inf]) == -math.inf


def test_log_sum_exp_bounds():
    # max(xs) <= lse(xs) <= max(xs) + ln(n) for finite inputs
    for seed in range(30):
        xs = make_rng(seed).uniform(-50, 50, size=1 + seed % 7)
        val = log_sum_exp(xs)
        assert val >= xs.max()
        assert val <= xs.max() + math.log(len(xs)) + 1e-12


def test_log_sum_exp_permutation_invariant():
    for seed in range(20):
        rng = make_rng(seed)
        xs = rng.uniform(-30, 30, size=9)
        perm = rng.permutation(9)
        assert abs(log_sum_exp(xs) - log_sum_exp(xs[perm])) < 1e-12


def test_log_sum_exp_over_rows_matches_columns():
    mat = make_rng(4).standard_normal((6, 3))
    got = log_sum_exp_over_rows(mat)
    want = [log_sum_exp(mat[:, j]) for j in range(3)]
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_glorot_deterministic():
    a = glorot(make_rng(1), 2, 2)
    b = glorot(make_rng(1), 2, 2)
    assert a.tobytes() == b.tobytes()


def test_glorot_bound():
    m = glorot(make_rng(9), 3, 5)
    assert np.all(np.abs(m) <= math.sqrt(6.0 / 8.0))


def test_glorot_one_by_one_bound():
    m = glorot(make_rng(7), 1, 1)
    assert abs(m[0, 0]) <= math.sqrt(3.0)


def test_glorot_different_seeds_differ():
    assert glorot(make_rng(1), 4, 4).tobytes() != glorot(make_rng(2), 4, 4).tobytes()
