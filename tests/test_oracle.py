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
    make_rng,
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
    with pytest.raises(ValueError, match=r"transition must have shape \(3, 3\)"):
        generate_synthetic(SyntheticSpec(num_labels=3, vocab_size=6, transition=np.eye(2)))


def choice_synthetic_splits(spec):
    """The (train, dev, test) tokens and labels of `spec`, drawn with one
    `Generator.choice` call per label and per token: the reference for
    `generate_synthetic`'s draws."""
    rng = make_rng(spec.seed)
    L, V = spec.num_labels, spec.vocab_size
    trans = spec.transition if spec.transition is not None else rng.dirichlet(np.ones(L), size=L)
    rng.standard_normal((V, spec.d_h - 1))      # the embedding table's draws
    pair_table = rng.integers(0, L, size=(L, L))
    tokens_of_label = [[j for j in range(V) if j % L == y] for y in range(L)]

    def sample():
        n = int(rng.integers(spec.min_len, spec.max_len + 1))
        if spec.order == "first":
            labels = [int(rng.integers(0, L))]
            for _ in range(1, n):
                labels.append(int(rng.choice(L, p=trans[labels[-1]])))
            toks = [int(rng.choice(tokens_of_label[y])) for y in labels]
        else:
            toks = [int(t) for t in rng.integers(0, V, size=n)]
            labels = [pair_table[0, toks[0] % L]] + [pair_table[a % L, b % L]
                                                     for a, b in zip(toks, toks[1:])]
        return ["w%d" % t for t in toks], ["L%d" % y for y in labels]

    return [[sample() for _ in range(count)] for count in (spec.n_train, spec.n_dev, spec.n_test)]


@pytest.mark.parametrize("kwargs", [
    dict(order="first", seed=3),
    dict(order="first", seed=7, num_labels=17, d_h=100, min_len=10, max_len=50, n_train=32,
         n_dev=32, n_test=150),
    dict(order="first", seed=5, transition=np.full((5, 5), 0.2)),
    dict(order="first", seed=6, num_labels=1, vocab_size=3),
    dict(order="second", seed=4, num_labels=9, vocab_size=60),
], ids=["first", "first-wide", "first-given", "first-one-label", "second"])
def test_synthetic_draws_match_generator_choice(kwargs):
    spec = SyntheticSpec(**kwargs)
    got = generate_synthetic(spec)[:3]
    want = choice_synthetic_splits(spec)
    assert [[(s.tokens, s.labels) for s in split] for split in got] == want


@pytest.mark.parametrize("row, message", [
    ([0.5, 0.4, 0.0], "do not sum to 1"),
    ([1.2, -0.2, 0.0], "not non-negative"),
    ([np.nan, 0.5, 0.5], "contain NaN"),
], ids=["sum", "negative", "nan"])
def test_synthetic_rejects_a_bad_transition_as_choice_does(row, message):
    trans = np.full((3, 3), 1.0 / 3.0)
    trans[2] = row      # a row that sampling may never reach
    with pytest.raises(ValueError, match=message):
        make_rng(0).choice(3, p=trans[2])
    with pytest.raises(ValueError, match=message):
        generate_synthetic(SyntheticSpec(num_labels=3, vocab_size=6, transition=trans,
                                         n_train=1, n_dev=0, n_test=0))
