import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaincrf import (
    Family,
    LatticeBatch,
    RepresentationSequence,
    brute_force_best_path,
    brute_force_log_partition,
    brute_force_pairwise_marginals,
    decode_softmax,
    init_params,
    log_partition,
    make_rng,
    nll_and_grad,
    nll_and_grad_stacked,
    pairwise_marginals,
    score_lattices,
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


@pytest.mark.parametrize("label", [1.5, 2.0, True, np.True_, np.float64(1.0), "1", None],
                         ids=repr)
def test_nll_rejects_non_integer_labels(label):
    # np.asarray([0, True, 2]) is int64: the batch check must not let it by
    lat = np.zeros((3, 4, 4))
    for run in (lambda: nll_and_grad(lat, [0, label, 2]),
                lambda: nll_and_grad_stacked([lat], [[0, label, 2]]),
                lambda: nll_and_grad_stacked([lat, lat], [[0, 1, 2], [0, label, 2]])):
        with pytest.raises(ValueError, match="label index %s is not an integer"
                           % re.escape(repr(label))):
            run()


def test_nll_accepts_numpy_integer_labels():
    lat = random_lattice(3, 4, seed=2)
    gold = np.array([0, 3, 1])
    want = nll_and_grad(lat, [0, 3, 1])
    losses, grads = nll_and_grad_stacked([lat], [gold])
    mixed = nll_and_grad(lat, [np.int32(0), 3, np.uint8(1)])
    for got in (nll_and_grad(lat, gold), (losses[0], grads[0]), mixed):
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()


def path_indicator(lat, labels):
    """The (M, L, L) counts of the transitions of `labels`, from row 0 at
    position 0."""
    ind = np.zeros_like(lat)
    ind[0, 0, labels[0]] = 1.0
    for m in range(1, len(labels)):
        ind[m, labels[m - 1], labels[m]] += 1.0
    return ind


def test_marginals_of_huge_scores_are_the_best_path():
    # scores near 1e20, of a d-quadrilinear model with finite weights: in
    # exp(alpha + lat + beta - log Z) the rounding of the log-space sums
    # (about 1e4) overflows; the backward pass over the forward
    # exponentials gives the point mass on the best path
    rng = make_rng(0)
    p = init_params(Family.D_QUADRILINEAR, 5, 8, seed=1, d_t=6, d_r=7)
    for name in ("u_h1", "u_h2"):
        p.arrays[name] *= 1e10
    reps = [RepresentationSequence.from_array(rng.standard_normal((int(m), 8)) / np.sqrt(8))
            for m in rng.integers(3, 12, size=8)]
    lats = score_lattices(p, reps)
    golds = [[int(y) for y in rng.integers(0, 5, size=r.length)] for r in reps]
    losses, grads = nll_and_grad_stacked(lats, golds)
    assert np.isfinite(losses).all()
    for lat, gold, grad in zip(lats, golds, grads):
        want = path_indicator(lat, viterbi(lat).labels) - path_indicator(lat, gold)
        np.testing.assert_array_equal(grad, want)


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
def ragged_batches(draw, max_len=12):
    """Lattices of one L (1-5) and lengths 1-`max_len`, each random, random
    with -inf masked entries, or all zero (every path ties), plus gold paths."""
    L = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.tuples(st.integers(1, max_len),
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
        losses, grads = nll_and_grad_stacked(lats, golds)
        assert len(decoded) == len(losses) == len(grads) == len(lats)
        for lat, gold, got, loss, grad in zip(lats, golds, decoded, losses, grads):
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


def one_label_and_one_position_batch():
    rng = make_rng(9)
    lats = [rng.standard_normal((1, 3, 3)), np.zeros((4, 3, 3)), rng.standard_normal((6, 3, 3))]
    lats[2][rng.random(lats[2].shape) < 0.3] = -np.inf
    return lats, [[2], [0, 1, 2, 0], [1, 1, 0, 2, 2, 0]]


@settings(max_examples=150, deadline=None)
@given(ragged_batches(max_len=6))
@example(([np.zeros((1, 1, 1)), 3.0 * make_rng(2).standard_normal((5, 1, 1))], [[0], [0] * 5]))
@example(one_label_and_one_position_batch())
def test_batch_losses_and_marginals_match_the_oracles(batch):
    # the losses are the log-space forward sweep's, to the bit; the
    # gradients come from the backward pass over its exponentials
    lats, golds = batch
    with np.errstate(all="ignore"):
        losses, grads = nll_and_grad_stacked(lats, golds)
        for lat, gold, loss, grad in zip(lats, golds, losses, grads):
            want = log_partition(lat) - path_score(lat, gold)
            assert np.float64(loss).tobytes() == np.float64(want).tobytes()
            if not np.isfinite(loss):
                continue
            assert not np.isnan(grad).any()
            np.testing.assert_allclose(
                grad, brute_force_pairwise_marginals(lat) - path_indicator(lat, gold),
                rtol=0.0, atol=1e-9)
            assert (grad[lat == -np.inf] == 0.0).all()


def test_batch_larger_than_one_chunk():
    rng = make_rng(4)
    L = 17
    lats = [rng.standard_normal((int(M), L, L)) for M in rng.integers(30, 51, size=200)]
    golds = [[int(y) for y in rng.integers(0, L, size=lat.shape[0])] for lat in lats]
    assert_batch_matches_reference(lats, golds)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(1, 9), max_size=8), st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_batch_bit_identical_on_scored_batch(family, lengths, seed):
    # score_lattices' LatticeBatch is read in place, not stacked again
    rng = make_rng(seed)
    p = init_params(family, 4, 5, seed=seed % 7, d_t=4, d_r=3, mlp_hidden=6)
    reps = [RepresentationSequence.from_array(rng.standard_normal((m, 5))) for m in lengths]
    lats = score_lattices(p, reps)
    assert isinstance(lats, LatticeBatch)
    golds = [[int(y) for y in rng.integers(0, 4, size=m)] for m in lengths]
    assert_batch_matches_reference(lats, golds)


def test_decoding_a_scored_batch_allocates_little():
    rng = make_rng(6)
    p = init_params(Family.D_QUADRILINEAR, 17, 20, seed=1, d_t=8, d_r=8)
    reps = [RepresentationSequence.from_array(rng.standard_normal((int(m), 20)))
            for m in rng.integers(10, 51, size=100)]
    lats = score_lattices(p, reps)
    tracemalloc.start()
    try:
        viterbi_batch(lats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * lats.flat.nbytes


@pytest.mark.parametrize("L", [3, 257], ids=["uint8", "uint16"])
def test_batch_back_pointers_hold_every_label(L):
    # back pointers are stored in the smallest unsigned type that holds L - 1
    rng = make_rng(L)
    lats = [rng.standard_normal((int(m), L, L)) for m in (1, 5, 3, 6)]
    for lat in lats[1:]:
        lat[1:, L - 1, :] += 5.0     # the best paths pass through label L - 1
    got = viterbi_batch(lats)
    assert any(L - 1 in res.labels[:-1] for res in got)
    for lat, res in zip(lats, got):
        ref = viterbi(lat)
        assert res.labels == ref.labels
        assert np.float64(res.score).tobytes() == np.float64(ref.score).tobytes()


def test_lattice_batch_is_a_sequence_of_views():
    lats = [random_lattice(M, 3, seed=M) for M in (2, 1, 4)]
    batch = LatticeBatch.of(lats)
    assert LatticeBatch.of(batch) is batch
    assert len(batch) == 3
    assert batch.flat.shape == (7, 3, 3)
    assert batch.lengths.tolist() == [2, 1, 4]
    assert batch.starts.tolist() == [0, 2, 3]
    assert batch[2].base is batch.flat and batch[2].tobytes() == lats[2].tobytes()
    assert batch[-1].tobytes() == lats[-1].tobytes()
    assert [a.tobytes() for a in batch[1:]] == [a.tobytes() for a in lats[1:]]
    assert [a.tobytes() for a in batch[::-2]] == [a.tobytes() for a in lats[::-2]]
    assert [a.tobytes() for a in batch] == [a.tobytes() for a in lats]
    assert [a.size for a in batch] == [18, 9, 36]
    with pytest.raises(IndexError):
        batch[3]
    with pytest.raises(ValueError, match="share L"):
        LatticeBatch.of([np.zeros((1, 2, 2)), np.zeros((1, 3, 3))])
    for lengths in ([2, 0, 5], [2, 4]):     # a zero length, or rows left over
        with pytest.raises(ValueError, match="not positive lengths of the 7 stacked rows"):
            LatticeBatch(batch.flat, lengths)
    empty = LatticeBatch.of([])
    assert len(empty) == 0 and list(empty) == [] and empty[:] == []
    scored = score_lattices(init_params(Family.VANILLA_CRF, 3, 2, seed=0), [])
    assert len(scored) == 0 and scored.flat.shape == (0, 3, 3)
    assert viterbi_batch(scored) == []
    losses, grads = nll_and_grad_stacked(scored, [])
    assert losses.shape == (0,) and len(grads) == 0


def test_batch_empty():
    assert viterbi_batch([]) == []
    losses, grads = nll_and_grad_stacked([], [])
    assert losses.shape == (0,) and len(grads) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decoding_rejects_nan_and_plus_inf_scores(bad):
    lats = [random_lattice(3, 4, seed=k) for k in range(3)]
    lats[1][2, 0, 3] = bad
    with pytest.raises(ValueError, match="sequence 1 of the batch is (nan|inf)"):
        viterbi_batch(lats)
    with pytest.raises(ValueError, match="best path score of the lattice is (nan|inf)"):
        viterbi(lats[1])
    lats[1][:] = lats[1][:, :1]     # row-constant, as softmax lattices are
    with pytest.raises(ValueError, match="best path score of the lattice"):
        decode_softmax(lats[1])


def test_decoding_allows_a_fully_masked_lattice():
    lat = np.full((3, 2, 2), -np.inf)
    for got in (viterbi(lat), viterbi_batch([lat])[0], decode_softmax(lat)):
        assert got.score == -np.inf


def test_decoding_an_overflowing_model_raises():
    # finite parameters whose scores overflow: inf - inf turns to nan
    rng = make_rng(0)
    p = init_params(Family.D_QUADRILINEAR, 5, 8, seed=1, d_t=6, d_r=7)
    for name in ("u_h1", "u_h2", "label_embeddings"):
        p.arrays[name] *= 1e80
    reps = [RepresentationSequence.from_array(rng.standard_normal((m, 8))) for m in (3, 6)]
    with np.errstate(all="ignore"):
        lats = score_lattices(p, reps)
        with pytest.raises(ValueError, match="sequence 0 of the batch is nan"):
            viterbi_batch(lats)


def test_batch_rejects_bad_input():
    with pytest.raises(ValueError, match="share L"):
        viterbi_batch([np.zeros((2, 3, 3)), np.zeros((2, 4, 4))])
    with pytest.raises(ValueError, match="share L"):
        nll_and_grad_stacked([np.zeros((2, 3, 3)), np.zeros((2, 4, 4))], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match=r"shape \(M, L, L\)"):
        viterbi_batch([np.zeros((2, 3, 4))])
    with pytest.raises(ValueError, match="length 1 does not match lattice length 2"):
        nll_and_grad_stacked([np.zeros((2, 3, 3))], [[0]])
    with pytest.raises(ValueError, match="invalid label index 3 for 3 labels"):
        nll_and_grad_stacked([np.zeros((1, 3, 3)), np.zeros((2, 3, 3))], [[0], [0, 3]])
    with pytest.raises(ValueError, match="invalid label index -1"):
        nll_and_grad_stacked([np.zeros((2, 3, 3))], [[-1, 0]])
    with pytest.raises(ValueError, match="2 lattices but 1 gold"):
        nll_and_grad_stacked([np.zeros((2, 3, 3))] * 2, [[0, 0]])


def test_cell_blocks_cut_greedily_in_input_order():
    # L = 2: 4 cells per position, a budget of 5 positions
    with mock.patch.object(inference, "CHUNK_CELLS", 20):
        assert inference.cell_blocks([2, 3, 1, 7, 5, 1], 2) == [
            (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        assert inference.cell_blocks([5, 5], 2) == [(0, 1), (1, 2)]
        assert inference.cell_blocks([1] * 5, 2) == [(0, 5)]
        assert inference.cell_blocks([], 2) == []
