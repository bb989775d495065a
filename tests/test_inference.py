import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincrf import (
    brute_force_best_path,
    brute_force_log_partition,
    brute_force_pairwise_marginals,
    decode_softmax,
    log_partition,
    make_rng,
    nll_and_grad,
    nll_and_grad_batch,
    pairwise_marginals,
    viterbi,
    viterbi_batch,
)
from chaincrf import inference
from chaincrf.inference import path_score

from helpers import random_lattice


def test_log_partition_single_position():
    assert log_partition(np.zeros((1, 2, 2))) == pytest.approx(math.log(2.0), abs=1e-14)


def test_log_partition_uniform_paths():
    assert log_partition(np.zeros((3, 4, 4))) == pytest.approx(3 * math.log(4.0), abs=1e-12)


def test_log_partition_matches_enumeration():
    lat = random_lattice(5, 4, seed=7)
    fast = log_partition(lat)
    brute = brute_force_log_partition(lat)
    # oracle value frozen from enumeration over all 4**5 paths
    assert brute == pytest.approx(7.398959482405509, rel=1e-12)
    assert abs(fast - brute) / abs(brute) < 1e-10


def test_marginals_uniform():
    p = pairwise_marginals(np.zeros((2, 2, 2)))
    np.testing.assert_allclose(p[1], 0.25)
    # position 0 is conditioned on BOS: only row 0 carries mass
    np.testing.assert_allclose(p[0, 0], 0.5)
    np.testing.assert_allclose(p[0, 1:], 0.0)


def test_marginals_sum_to_one_per_position():
    lat = random_lattice(6, 3, seed=5, scale=2.0)
    p = pairwise_marginals(lat)
    np.testing.assert_allclose(p.sum(axis=(1, 2)), 1.0, atol=1e-9)


def test_marginals_chain_consistency():
    lat = random_lattice(5, 4, seed=9)
    p = pairwise_marginals(lat)
    for m in range(lat.shape[0] - 1):
        np.testing.assert_allclose(p[m].sum(axis=0), p[m + 1].sum(axis=1), atol=1e-9)


def test_marginals_match_enumeration():
    lat = random_lattice(4, 3, seed=11)
    p = pairwise_marginals(lat)
    brute = brute_force_pairwise_marginals(lat)
    # spot values frozen from the enumeration oracle
    assert brute[2, 1, 2] == pytest.approx(0.11776192516075665, rel=1e-12)
    assert brute[1, 0, 1] == pytest.approx(0.13376251963368782, rel=1e-12)
    assert np.max(np.abs(p - brute)) < 1e-10


def test_viterbi_dominant_label():
    lat = np.zeros((4, 3, 3))
    lat[:, :, 1] = 1.0
    assert viterbi(lat).labels == [1, 1, 1, 1]


def test_viterbi_all_zero_tie_break():
    res = viterbi(np.zeros((5, 3, 3)))
    assert res.labels == [0, 0, 0, 0, 0]
    assert res.score == 0.0


def test_viterbi_matches_enumeration():
    lat = random_lattice(6, 3, seed=3)
    res = viterbi(lat)
    brute = brute_force_best_path(lat)
    # frozen from exhaustive argmax over 3**6 paths
    assert brute.labels == [0, 0, 0, 2, 0, 1]
    assert brute.score == pytest.approx(8.28482165260083, rel=1e-13)
    assert res.labels == brute.labels
    assert res.score == brute.score


def test_viterbi_score_is_path_sum():
    lat = random_lattice(7, 4, seed=13)
    res = viterbi(lat)
    assert res.score == pytest.approx(path_score(lat, res.labels), abs=1e-9)


def test_viterbi_never_exceeds_log_partition():
    for seed in range(10):
        lat = random_lattice(4, 3, seed=seed)
        assert viterbi(lat).score <= log_partition(lat)


def test_constant_shift_property():
    lat = random_lattice(5, 3, seed=21)
    shifted = lat + 0.75
    assert log_partition(shifted) == pytest.approx(log_partition(lat) + 5 * 0.75, rel=1e-12)
    assert viterbi(shifted).score == pytest.approx(viterbi(lat).score + 5 * 0.75, rel=1e-12)
    assert viterbi(shifted).labels == viterbi(lat).labels
    np.testing.assert_allclose(pairwise_marginals(shifted), pairwise_marginals(lat), atol=1e-9)


def test_label_permutation_invariance():
    lat = random_lattice(4, 4, seed=2)
    perm = np.array([2, 0, 3, 1])
    permuted = lat[:, perm][:, :, perm].copy()
    # position 0 reads row 0 = BOS, which must not be permuted
    permuted[0] = lat[0][:, perm]
    assert log_partition(permuted) == pytest.approx(log_partition(lat), rel=1e-9)


def test_nll_uniform_model():
    loss, grad = nll_and_grad(np.zeros((2, 3, 3)), [1, 2])
    assert loss == pytest.approx(2 * math.log(3.0), abs=1e-12)
    assert grad.shape == (2, 3, 3)


def test_nll_saturated_gold_path():
    M, L = 4, 3
    gold = [0, 2, 1, 2]
    lat = np.zeros((M, L, L))
    lat[0, 0, gold[0]] = 40.0
    for m in range(1, M):
        lat[m, gold[m - 1], gold[m]] = 40.0
    loss, grad = nll_and_grad(lat, gold)
    assert loss < 1e-10
    assert np.max(np.abs(grad)) < 1e-10


def test_nll_grad_matches_lattice_finite_differences():
    lat = random_lattice(4, 3, seed=17)
    gold = [0, 1, 2, 1]
    loss, grad = nll_and_grad(lat, gold)
    step = 1e-6
    num = np.zeros_like(lat)
    for idx in np.ndindex(lat.shape):
        up = lat.copy()
        up[idx] += step
        down = lat.copy()
        down[idx] -= step
        num[idx] = (nll_and_grad(up, gold)[0] - nll_and_grad(down, gold)[0]) / (2 * step)
    # the forward pass only reads row 0 at position 0, so rows 1.. there
    # have exactly zero influence and zero gradient
    assert np.max(np.abs(num[0, 1:])) == 0.0
    err = np.abs(grad - num) / np.maximum(np.abs(num), 1e-2)
    assert np.max(err) < 1e-5


def test_nll_loss_nonnegative():
    for seed in range(8):
        lat = random_lattice(3, 4, seed=seed)
        gold = [seed % 4, (seed + 1) % 4, 0]
        loss, _ = nll_and_grad(lat, gold)
        assert loss >= -1e-12


def test_nll_rejects_bad_labels():
    with pytest.raises(ValueError, match="invalid label"):
        nll_and_grad(np.zeros((2, 3, 3)), [0, 3])
    with pytest.raises(ValueError, match="length"):
        nll_and_grad(np.zeros((2, 3, 3)), [0])


def test_decode_softmax_dominant():
    lat = np.zeros((3, 4, 4))
    lat[:, :, 2] = 5.0
    assert decode_softmax(lat).labels == [2, 2, 2]


def test_decode_softmax_uniform_tie_break():
    assert decode_softmax(np.zeros((4, 3, 3))).labels == [0, 0, 0, 0]


def test_decode_softmax_equals_viterbi_on_row_constant_lattices():
    from chaincrf import make_rng

    logits = make_rng(8).standard_normal((6, 4))
    lat = np.empty((6, 4, 4))
    lat[:] = logits[:, None, :]
    soft = decode_softmax(lat)
    vit = viterbi(lat)
    assert soft.labels == vit.labels
    assert soft.score == pytest.approx(vit.score, abs=1e-12)


# ---------------------------------------------------------------------------
# batched inference against the per-sequence reference
# ---------------------------------------------------------------------------

@st.composite
def ragged_batches(draw):
    """Lattices of one L (1-5) and lengths 1-12, each random, random with
    -inf masked entries, or all zero (every path ties), plus gold paths."""
    L = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.tuples(st.integers(1, 12),
                                    st.sampled_from(["random", "masked", "zero"])),
                          max_size=10))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lats = []
    for M, kind in kinds:
        lat = 3.0 * rng.standard_normal((M, L, L))
        if kind == "masked":
            lat[rng.random(lat.shape) < 0.3] = -np.inf
        elif kind == "zero":
            lat[:] = 0.0
        lats.append(lat)
    golds = [[int(y) for y in rng.integers(0, L, size=lat.shape[0])] for lat in lats]
    return lats, golds


def assert_batch_matches_reference(lats, golds):
    # masked lattices can give inf/nan losses; both sides must agree on them
    with np.errstate(all="ignore"):
        decoded = viterbi_batch(lats)
        nlls = nll_and_grad_batch(lats, golds)
        assert len(decoded) == len(nlls) == len(lats)
        for lat, gold, got, (loss, grad) in zip(lats, golds, decoded, nlls):
            ref = viterbi(lat)
            ref_loss, ref_grad = nll_and_grad(lat, gold)
            assert got.labels == ref.labels
            assert np.float64(got.score).tobytes() == np.float64(ref.score).tobytes()
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad.shape == ref_grad.shape
            assert grad.tobytes() == ref_grad.tobytes()


@settings(max_examples=150, deadline=None)
@given(ragged_batches())
def test_batch_bit_identical_to_per_sequence(batch):
    assert_batch_matches_reference(*batch)


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.integers(1, 200))
def test_batch_bit_identical_across_chunks(batch, chunk_cells):
    # a small cell budget splits the batch into many chunks
    with mock.patch.object(inference, "CHUNK_CELLS", chunk_cells):
        assert_batch_matches_reference(*batch)


def test_batch_larger_than_one_chunk():
    rng = make_rng(4)
    L = 17
    lats = [rng.standard_normal((int(M), L, L)) for M in rng.integers(30, 51, size=200)]
    golds = [[int(y) for y in rng.integers(0, L, size=lat.shape[0])] for lat in lats]
    chunks = [(idx, buf.size) for idx, buf, _, _ in inference._chunks(lats)]
    assert len(chunks) > 1
    assert sorted(i for idx, _ in chunks for i in idx) == list(range(len(lats)))
    assert max(size for _, size in chunks) <= inference.CHUNK_CELLS
    assert_batch_matches_reference(lats, golds)


def test_batch_empty():
    assert viterbi_batch([]) == []
    assert nll_and_grad_batch([], []) == []


def test_batch_rejects_bad_input():
    with pytest.raises(ValueError, match="share L"):
        viterbi_batch([np.zeros((2, 3, 3)), np.zeros((2, 4, 4))])
    with pytest.raises(ValueError, match="share L"):
        nll_and_grad_batch([np.zeros((2, 3, 3)), np.zeros((2, 4, 4))], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match=r"shape \(M, L, L\)"):
        viterbi_batch([np.zeros((2, 3, 4))])
    with pytest.raises(ValueError, match="length 1 does not match lattice length 2"):
        nll_and_grad_batch([np.zeros((2, 3, 3))], [[0]])
    with pytest.raises(ValueError, match="invalid label index 3 for 3 labels"):
        nll_and_grad_batch([np.zeros((1, 3, 3)), np.zeros((2, 3, 3))], [[0], [0, 3]])
    with pytest.raises(ValueError, match="invalid label index -1"):
        nll_and_grad_batch([np.zeros((2, 3, 3))], [[-1, 0]])
    with pytest.raises(ValueError, match="2 lattices but 1 gold"):
        nll_and_grad_batch([np.zeros((2, 3, 3))] * 2, [[0, 0]])


def test_cell_blocks_cut_greedily_in_input_order():
    # L = 2: 4 cells per position, a budget of 5 positions
    with mock.patch.object(inference, "CHUNK_CELLS", 20):
        assert inference.cell_blocks([2, 3, 1, 7, 5, 1], 2) == [
            (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        assert inference.cell_blocks([5, 5], 2) == [(0, 1), (1, 2)]
        assert inference.cell_blocks([1] * 5, 2) == [(0, 5)]
        assert inference.cell_blocks([], 2) == []
