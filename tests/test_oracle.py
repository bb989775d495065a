import math

import numpy as np
import pytest

from chaincrf import (
    Family,
    SyntheticSpec,
    brute_force_best_path,
    brute_force_log_partition,
    finite_diff_grad,
    generate_synthetic,
    init_params,
)
from chaincrf.oracle import _all_paths

from helpers import random_lattice


def test_brute_log_partition_zero_lattice():
    assert brute_force_log_partition(np.zeros((2, 3, 3))) == pytest.approx(2 * math.log(3.0))


def test_brute_log_partition_single_position():
    lat = np.zeros((1, 2, 2))
    lat[0, 0] = [1.0, 2.0]
    assert brute_force_log_partition(lat) == pytest.approx(math.log(math.exp(1) + math.exp(2)))


def test_brute_best_path_zero_lattice():
    assert brute_force_best_path(np.zeros((3, 2, 2))).labels == [0, 0, 0]


def test_brute_best_path_dominant_label():
    lat = np.zeros((4, 3, 3))
    lat[:, :, 2] = 1.0
    assert brute_force_best_path(lat).labels == [2, 2, 2, 2]


def test_enumeration_cap():
    with pytest.raises(ValueError, match="too large"):
        brute_force_log_partition(np.zeros((30, 10, 10)))


def test_all_paths_scores_are_path_sums():
    lat = random_lattice(3, 2, seed=1)
    paths, scores = _all_paths(lat)
    assert len(paths) == 2 ** 3
    k = 5  # path (1, 0, 1)
    want = lat[0, 0, paths[k][0]] + lat[1, paths[k][0], paths[k][1]] + lat[2, paths[k][1], paths[k][2]]
    assert scores[k] == pytest.approx(want, rel=1e-15)


def test_finite_diff_constant_function():
    p = init_params(Family.VANILLA_CRF, 3, 2, seed=0)
    g = finite_diff_grad(lambda q: 1.25, p)
    for arr in g.values():
        np.testing.assert_array_equal(arr, 0.0)


def test_finite_diff_quadratic():
    p = init_params(Family.VANILLA_CRF, 3, 2, seed=0)
    p.arrays["transition_table"][0, 0] = 3.0
    g = finite_diff_grad(lambda q: float(q.arrays["transition_table"][0, 0] ** 2), p)
    assert g["transition_table"][0, 0] == pytest.approx(6.0, abs=1e-6)
    assert g["transition_table"][1, 1] == 0.0


def test_synthetic_first_order_labels_follow_tokens():
    spec = SyntheticSpec(num_labels=3, vocab_size=9, d_h=4, order="first",
                         n_train=30, n_dev=5, n_test=5, seed=3)
    train, dev, test, table = generate_synthetic(spec)
    assert len(train) == 30 and len(dev) == 5 and len(test) == 5
    for seq in train + dev + test:
        for tok, lab in zip(seq.tokens, seq.labels):
            assert lab == "L%d" % (int(tok[1:]) % 3)


def test_synthetic_second_order_labels_follow_bigrams():
    spec = SyntheticSpec(num_labels=3, vocab_size=9, d_h=4, order="second",
                         n_train=20, n_dev=4, n_test=4, seed=4)
    train, _, _, _ = generate_synthetic(spec)
    # rebuild the pair table from the data and check it is a function
    mapping = {}
    for seq in train:
        classes = [int(t[1:]) % 3 for t in seq.tokens]
        prev = 0
        for c, lab in zip(classes, seq.labels):
            key = (prev, c)
            assert mapping.setdefault(key, lab) == lab
            prev = c


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_train=10, n_dev=2, n_test=2, seed=12)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert [s.tokens for s in a[0]] == [s.tokens for s in b[0]]
    assert [s.labels for s in a[0]] == [s.labels for s in b[0]]
    for tok in a[3].vectors:
        np.testing.assert_array_equal(a[3].vectors[tok], b[3].vectors[tok])


def test_synthetic_embedding_table_covers_vocab():
    spec = SyntheticSpec(vocab_size=17, d_h=6, n_train=5, n_dev=1, n_test=1, seed=5)
    _, _, _, table = generate_synthetic(spec)
    assert len(table.vectors) == 17
    assert table.dim == 6


def test_synthetic_rejects_bad_spec():
    with pytest.raises(ValueError):
        SyntheticSpec(num_labels=10, vocab_size=5)
    with pytest.raises(ValueError):
        SyntheticSpec(order="third")
