import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincrf import (
    Family,
    ModelParams,
    RepresentationSequence,
    backprop_lattice,
    backprop_lattices,
    finite_diff_grad,
    init_params,
    make_rng,
    nll_and_grad,
    reconstruct_dense_trilinear,
    score_lattice,
    score_lattices,
)
from chaincrf import inference, linalg, potentials
from chaincrf.cli import max_relative_error
from chaincrf.linalg import blas_threads
from chaincrf.potentials import EMBEDDING_FAMILIES, FAMILY_FIELDS, MLP_FAMILIES
from chaincrf.training import decode_paths, predict_paths

from helpers import SMALL, random_reps, small_params, small_reps

ALL_FAMILIES = list(Family)
DECOMPOSED = [Family.D_TRILINEAR, Family.D_QUADRILINEAR, Family.D_PENTALINEAR]
# families whose scores are a label table plus word-dependent row/column terms
ADDITIVE = [Family.SOFTMAX, Family.VANILLA_CRF, Family.TWO_BILINEAR, Family.THREE_BILINEAR]


def vanilla(num_labels, d_h, transition, w_h):
    return ModelParams(
        family=Family.VANILLA_CRF, num_labels=num_labels, d_h=d_h,
        arrays=dict(transition_table=np.asarray(transition, dtype=np.float64),
                    w_h=np.asarray(w_h, dtype=np.float64)),
    )


def test_vanilla_zero_params_zero_lattice():
    p = vanilla(3, 2, np.zeros((4, 3)), np.zeros((2, 3)))
    lat = score_lattice(p, random_reps(4, 2, seed=0))
    np.testing.assert_array_equal(lat, np.zeros((4, 3, 3)))


def test_vanilla_hand_example():
    # h_1 = (1, 0), W_h = [[1, 2], [3, 4]], phi = 0: emission picks row 0 of W_h
    p = vanilla(2, 2, np.zeros((3, 2)), [[1.0, 2.0], [3.0, 4.0]])
    reps = RepresentationSequence.from_array([[1.0, 0.0]])
    lat = score_lattice(p, reps)
    np.testing.assert_allclose(lat[0, :, 0], 1.0)
    np.testing.assert_allclose(lat[0, :, 1], 2.0)


def test_vanilla_uses_bos_transition_row_at_position_zero():
    trans = np.zeros((3, 2))
    trans[2] = [5.0, 7.0]   # BOS row
    trans[0] = [1.0, 1.0]
    p = vanilla(2, 2, trans, np.zeros((2, 2)))
    lat = score_lattice(p, random_reps(3, 2, seed=1))
    np.testing.assert_allclose(lat[0, :, 0], 5.0)
    np.testing.assert_allclose(lat[0, :, 1], 7.0)
    np.testing.assert_allclose(lat[1, 0], 1.0)


def test_d_trilinear_all_ones_factors():
    # one-hot embeddings select all-ones factor rows: every score is d_r = 2
    L, d_h, d_r = 3, 4, 2
    p = ModelParams(
        family=Family.D_TRILINEAR, num_labels=L, d_h=d_h, d_t=L + 1, d_r=d_r,
        arrays=dict(label_embeddings=np.eye(L + 1),
                    u_t1=np.ones((L + 1, d_r)), u_t2=np.ones((L + 1, d_r)),
                    u_h=np.ones((d_h, d_r))),
    )
    h = np.zeros((5, d_h))
    h[:, 0] = 1.0
    lat = score_lattice(p, RepresentationSequence.from_array(h))
    np.testing.assert_allclose(lat, 2.0)


def test_softmax_scores_independent_of_previous_label():
    p = small_params(Family.SOFTMAX)
    lat = score_lattice(p, small_reps())
    for a in range(1, SMALL["num_labels"]):
        np.testing.assert_array_equal(lat[:, a, :], lat[:, 0, :])


def test_lattice_position_zero_rows_identical():
    for family in ALL_FAMILIES:
        lat = score_lattice(small_params(family), small_reps())
        for a in range(1, SMALL["num_labels"]):
            np.testing.assert_array_equal(lat[0, a], lat[0, 0])


def test_score_lattice_rejects_nan_params():
    p = small_params(Family.D_TRILINEAR)
    p.arrays["u_h"][0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        score_lattice(p, small_reps())


@pytest.mark.parametrize("name", ["bogus", "w_t"])
def test_validate_rejects_unknown_field(name):
    p = small_params(Family.VANILLA_CRF)
    p.arrays[name] = np.zeros((SMALL["d_h"], SMALL["num_labels"]))
    with pytest.raises(ValueError, match="field %s must not be set for vanilla-crf" % name):
        p.validate()


def test_validate_rejects_missing_field():
    p = small_params(Family.D_QUADRILINEAR)
    del p.arrays["u_h1"]
    with pytest.raises(ValueError, match="missing field: u_h1"):
        p.validate()


def test_score_lattice_rejects_dim_mismatch():
    p = small_params(Family.VANILLA_CRF)
    with pytest.raises(ValueError, match="dimension mismatch"):
        score_lattice(p, random_reps(4, SMALL["d_h"] + 1, seed=0))


# ---------------------------------------------------------------------------
# dense reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_zero_factors():
    u = reconstruct_dense_trilinear(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((4, 2)))
    np.testing.assert_array_equal(u, np.zeros((4, 3, 3)))


def test_reconstruct_rank_one_outer_product():
    x = np.array([[1.0], [2.0]])       # u_t1, d_t=2
    y = np.array([[3.0], [5.0]])       # u_t2
    z = np.array([[7.0], [11.0]])      # u_h, d_h=2
    u = reconstruct_dense_trilinear(x, y, z)
    want = np.einsum("p,q,r->pqr", z[:, 0], x[:, 0], y[:, 0])
    np.testing.assert_allclose(u, want)


def test_reconstruct_rejects_column_mismatch():
    with pytest.raises(ValueError, match="column"):
        reconstruct_dense_trilinear(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# equivalences between families
# ---------------------------------------------------------------------------

def test_equivalence_vanilla_two_bilinear_one_hot():
    # one-hot label embeddings of width L+1 (BOS gets its own coordinate),
    # w_t = transition table padded with an unused BOS column
    L, d_h, M = 4, 5, 6
    van = small_params(Family.VANILLA_CRF, seed=3)
    w_t = np.zeros((L + 1, L + 1))
    w_t[:, :L] = van.arrays["transition_table"]
    w_h = np.zeros((d_h, L + 1))
    w_h[:, :L] = van.arrays["w_h"]
    two = ModelParams(
        family=Family.TWO_BILINEAR, num_labels=L, d_h=d_h, d_t=L + 1,
        arrays=dict(label_embeddings=np.eye(L + 1), w_t=w_t, w_h=w_h),
    )
    reps = random_reps(M, d_h, seed=4)
    a = score_lattice(van, reps)
    b = score_lattice(two, reps)
    assert np.max(np.abs(a - b)) < 1e-12


def test_equivalence_three_bilinear_degenerates_to_two():
    two = small_params(Family.TWO_BILINEAR, seed=5)
    a = two.arrays
    three = ModelParams(
        family=Family.THREE_BILINEAR, num_labels=two.num_labels, d_h=two.d_h,
        d_t=two.d_t, arrays=dict(label_embeddings=a["label_embeddings"].copy(),
                                 w_t=a["w_t"].copy(), w_h1=a["w_h"].copy(),
                                 w_h2=np.zeros_like(a["w_h"])),
    )
    reps = small_reps(seed=6)
    np.testing.assert_array_equal(score_lattice(three, reps), score_lattice(two, reps))


def test_equivalence_d_trilinear_matches_dense_reconstruction():
    dt = small_params(Family.D_TRILINEAR, seed=7)
    a = dt.arrays
    dense = ModelParams(
        family=Family.TRILINEAR, num_labels=dt.num_labels, d_h=dt.d_h, d_t=dt.d_t,
        arrays=dict(label_embeddings=a["label_embeddings"].copy(),
                    u_dense=reconstruct_dense_trilinear(a["u_t1"], a["u_t2"], a["u_h"])),
    )
    reps = small_reps(seed=8)
    a = score_lattice(dt, reps)
    b = score_lattice(dense, reps)
    assert np.max(np.abs(a - b)) < 1e-9


def test_equivalence_quadrilinear_degenerates_to_trilinear():
    # previous-word factor forced to ones: u_h1 reads coordinate 0, which
    # is pinned to 1 in every representation; the boundary rule makes the
    # first position a ones factor automatically
    tri = small_params(Family.D_TRILINEAR, seed=9)
    d_h, d_r = tri.d_h, tri.d_r
    u_h1 = np.zeros((d_h, d_r))
    u_h1[0] = 1.0
    a = tri.arrays
    quad = ModelParams(
        family=Family.D_QUADRILINEAR, num_labels=tri.num_labels, d_h=d_h,
        d_t=tri.d_t, d_r=d_r, arrays=dict(
            label_embeddings=a["label_embeddings"].copy(),
            u_t1=a["u_t1"].copy(), u_t2=a["u_t2"].copy(),
            u_h1=u_h1, u_h2=a["u_h"].copy()),
    )
    h = make_rng(10).standard_normal((6, d_h))
    h[:, 0] = 1.0
    reps = RepresentationSequence.from_array(h)
    a = score_lattice(quad, reps)
    b = score_lattice(tri, reps)
    assert np.max(np.abs(a - b)) < 1e-12


def test_pentalinear_boundary_factors_are_identity():
    # with u_h1/u_h3 reading a pinned ones coordinate, pentalinear equals
    # d-trilinear everywhere, including both boundary positions
    tri = small_params(Family.D_TRILINEAR, seed=11)
    d_h, d_r = tri.d_h, tri.d_r
    ones_reader = np.zeros((d_h, d_r))
    ones_reader[0] = 1.0
    a = tri.arrays
    penta = ModelParams(
        family=Family.D_PENTALINEAR, num_labels=tri.num_labels, d_h=d_h,
        d_t=tri.d_t, d_r=d_r, arrays=dict(
            label_embeddings=a["label_embeddings"].copy(),
            u_t1=a["u_t1"].copy(), u_t2=a["u_t2"].copy(),
            u_h1=ones_reader.copy(), u_h2=a["u_h"].copy(), u_h3=ones_reader.copy()),
    )
    h = make_rng(12).standard_normal((5, d_h))
    h[:, 0] = 1.0
    reps = RepresentationSequence.from_array(h)
    np.testing.assert_allclose(score_lattice(penta, reps), score_lattice(tri, reps), atol=1e-12)


# ---------------------------------------------------------------------------
# analytic gradients
# ---------------------------------------------------------------------------

def test_backprop_zero_grad_gives_zero():
    for family in ALL_FAMILIES:
        p = small_params(family)
        reps = small_reps()
        zero = np.zeros((reps.length, p.num_labels, p.num_labels))
        out = backprop_lattice(p, reps, zero)
        for arr in out.values():
            np.testing.assert_array_equal(arr, 0.0)


def test_backprop_vanilla_one_hot_chain_rule():
    p = small_params(Family.VANILLA_CRF, seed=13)
    reps = small_reps(seed=14)
    L = p.num_labels
    lat_grad = np.zeros((reps.length, L, L))
    m, a, b = 2, 1, 3
    lat_grad[m, a, b] = 1.0
    out = backprop_lattice(p, reps, lat_grad)
    want_tt = np.zeros((L + 1, L))
    want_tt[a, b] = 1.0
    np.testing.assert_array_equal(out["transition_table"], want_tt)
    want_wh = np.zeros_like(p.arrays["w_h"])
    want_wh[:, b] = reps.h[m]
    np.testing.assert_allclose(out["w_h"], want_wh)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_backprop_matches_finite_differences_weighted_scores(family):
    # oracle: central differences of f(theta) = sum(lat_grad * scores(theta))
    p = small_params(family, seed=42)
    reps = small_reps(seed=42)
    lat_grad = make_rng(42).standard_normal((reps.length, p.num_labels, p.num_labels))
    analytic = backprop_lattice(p, reps, lat_grad)
    numeric = finite_diff_grad(
        lambda q: float(np.sum(lat_grad * score_lattice(q, reps))), p, step=1e-5
    )
    for name, num in numeric.items():
        assert max_relative_error(analytic[name], num) < 1e-4, name


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_nll_gradient_matches_finite_differences(family):
    p = small_params(family, seed=23)
    reps = small_reps(seed=24)
    gold = [int(v) for v in make_rng(25).integers(0, p.num_labels, size=reps.length)]

    def loss(q):
        return nll_and_grad(score_lattice(q, reps), gold)[0]

    _, lat_grad = nll_and_grad(score_lattice(p, reps), gold)
    analytic = backprop_lattice(p, reps, lat_grad)
    numeric = finite_diff_grad(loss, p, step=1e-5)
    for name, num in numeric.items():
        assert max_relative_error(analytic[name], num) < 1e-4, name


def test_backprop_rejects_shape_mismatch():
    p = small_params(Family.VANILLA_CRF)
    reps = small_reps()
    with pytest.raises(ValueError, match="shape"):
        backprop_lattice(p, reps, np.zeros((reps.length, 2, 2)))


def test_backprop_returns_fields_in_canonical_order():
    reps_list = [small_reps(), random_reps(1, SMALL["d_h"], seed=5)]
    for family in ALL_FAMILIES:
        p = small_params(family)
        L = p.num_labels
        grads = [np.ones((r.length, L, L)) for r in reps_list]
        for batch in ((reps_list, grads), ([], [])):
            g = backprop_lattices(p, *batch)
            assert list(g) == list(FAMILY_FIELDS[family])
            for name, arr in p.param_items():
                assert g[name].shape == arr.shape


ZERO_SIZES = ([(f, "d_t") for f in Family if f in EMBEDDING_FAMILIES]
              + [(f, "d_r") for f in DECOMPOSED]
              + [(f, "mlp_hidden") for f in Family if f in MLP_FAMILIES]
              + [(f, size) for f in Family for size in ("num_labels", "d_h")])


@pytest.mark.parametrize("family,size", ZERO_SIZES, ids=lambda v: getattr(v, "value", v))
def test_init_params_rejects_zero_size(family, size):
    sizes = dict(num_labels=4, d_h=5, d_t=4, d_r=3, mlp_hidden=8)
    sizes[size] = 0
    with pytest.raises(ValueError, match="%s must be positive for %s, got 0"
                       % (size, family.value)):
        init_params(family, seed=0, **sizes)


@pytest.mark.parametrize("family", [Family.SOFTMAX, Family.VANILLA_CRF], ids=lambda f: f.value)
def test_init_params_label_free_families_ignore_zero_sizes(family):
    p = init_params(family, 4, 5, seed=0, d_t=0, d_r=0, mlp_hidden=0)
    p.validate()
    assert (p.d_t, p.d_r, p.mlp_hidden) == (0, 0, 0)


def test_init_params_deterministic():
    a = init_params(Family.D_QUADRILINEAR, 5, 7, seed=77, d_t=6, d_r=4)
    b = init_params(Family.D_QUADRILINEAR, 5, 7, seed=77, d_t=6, d_r=4)
    for (name, arr_a), (_, arr_b) in zip(a.param_items(), b.param_items()):
        assert arr_a.tobytes() == arr_b.tobytes(), name


# ---------------------------------------------------------------------------
# batched paths: ragged lengths, length-one sequences
# ---------------------------------------------------------------------------

MLP = sorted(MLP_FAMILIES, key=list(Family).index)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_ragged_batch_scoring_matches_single_sequence(family):
    p = small_params(family, seed=3)
    reps_list = [random_reps(m, SMALL["d_h"], seed=10 + m) for m in (1, 3, 5, 2)]
    batched = score_lattices(p, reps_list)
    for reps, lat in zip(reps_list, batched):
        np.testing.assert_allclose(lat, score_lattice(p, reps), atol=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_ragged_batch_backprop_matches_sum_of_singles(family):
    p = small_params(family, seed=4)
    L = SMALL["num_labels"]
    reps_list = [random_reps(m, SMALL["d_h"], seed=20 + m) for m in (1, 4, 2)]
    grads = [make_rng(30 + i).standard_normal((r.length, L, L))
             for i, r in enumerate(reps_list)]
    batched = backprop_lattices(p, reps_list, grads)
    total = {name: np.zeros_like(arr) for name, arr in p.param_items()}
    for reps, lg in zip(reps_list, grads):
        for name, arr in backprop_lattices(p, [reps], [lg]).items():
            total[name] += arr
    for name in total:
        np.testing.assert_allclose(batched[name], total[name], atol=1e-10)


@pytest.mark.parametrize("family",
                         [Family.D_QUADRILINEAR, Family.D_PENTALINEAR],
                         ids=lambda f: f.value)
def test_nll_gradient_length_one_sequence(family):
    # both neighbor factors are boundary ones factors at M = 1
    p = small_params(family, seed=6)
    reps = random_reps(1, SMALL["d_h"], seed=7)
    gold = [2]
    _, lat_grad = nll_and_grad(score_lattice(p, reps), gold)
    analytic = backprop_lattice(p, reps, lat_grad)
    numeric = finite_diff_grad(
        lambda q: nll_and_grad(score_lattice(q, reps), gold)[0], p, step=1e-5
    )
    for name, num in numeric.items():
        assert max_relative_error(analytic[name], num) < 1e-4, name


@pytest.mark.parametrize("family", ADDITIVE, ids=lambda f: f.value)
def test_nll_gradient_ragged_batch(family):
    # each span starts with a BOS-conditioned row; the second sequence is
    # that row alone
    p = small_params(family, seed=31)
    reps_list = [random_reps(4, SMALL["d_h"], seed=32), random_reps(1, SMALL["d_h"], seed=33)]
    golds = [[1, 0, 3, 3], [2]]

    def loss(q):
        return sum(nll_and_grad(lat, gold)[0]
                   for lat, gold in zip(score_lattices(q, reps_list), golds))

    lat_grads = [nll_and_grad(lat, gold)[1]
                 for lat, gold in zip(score_lattices(p, reps_list), golds)]
    analytic = backprop_lattices(p, reps_list, lat_grads)
    numeric = finite_diff_grad(loss, p, step=1e-5)
    for name, num in numeric.items():
        assert max_relative_error(analytic[name], num) < 1e-4, name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_representation_names_sequence(bad):
    L = SMALL["num_labels"]
    reps_list = [random_reps(m, SMALL["d_h"], seed=m) for m in (3, 2, 4)]
    reps_list[2].h[1, 3] = bad
    grads = [np.zeros((r.length, L, L)) for r in reps_list]
    for family in ALL_FAMILIES:
        p = small_params(family)
        with pytest.raises(ValueError, match="non-finite representation in sequence 2"):
            score_lattices(p, reps_list)
        with pytest.raises(ValueError, match="non-finite representation in sequence 2"):
            backprop_lattices(p, reps_list, grads)


def test_empty_sequence_is_rejected():
    # built directly, bypassing from_array; the stacked recursions would
    # read a neighbour's rows for it
    reps_list = [small_reps(), RepresentationSequence(h=np.zeros((0, SMALL["d_h"])))]
    grads = [np.zeros((r.length, 4, 4)) for r in reps_list]
    p = small_params(Family.VANILLA_CRF)
    for run in (lambda: score_lattices(p, reps_list), lambda: predict_paths(p, reps_list),
                lambda: backprop_lattices(p, reps_list, grads)):
        with pytest.raises(ValueError, match="empty sequence 1 of the batch"):
            run()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_representation_in_later_block_names_sequence(bad):
    # a budget of 6 positions cuts (3, 2 | 4 | 5 | 2, 3) into 4 blocks; the
    # bad sequence is counted over the whole list, not within its block
    L = SMALL["num_labels"]
    reps_list = [random_reps(m, SMALL["d_h"], seed=90 + k)
                 for k, m in enumerate((3, 2, 4, 5, 2, 3))]
    reps_list[5].h[2, 0] = bad
    grads = [np.zeros((r.length, L, L)) for r in reps_list]
    with mock.patch.object(inference, "CHUNK_CELLS", 6 * L * L):
        assert inference.cell_blocks([r.length for r in reps_list], L) == [
            (0, 2), (2, 3), (3, 4), (4, 6)]
        for family in ALL_FAMILIES:
            p = small_params(family)
            for run in (lambda: score_lattices(p, reps_list),
                        lambda: predict_paths(p, reps_list),
                        lambda: backprop_lattices(p, reps_list, grads)):
                with pytest.raises(ValueError, match="non-finite representation in sequence 5 "):
                    run()


@pytest.mark.parametrize("family", MLP, ids=lambda f: f.value)
def test_mlp_one_position_blocks_match_default(family):
    # a one-cell budget makes every position (and every BOS row) its own block
    p = small_params(family, seed=8)
    L = SMALL["num_labels"]
    reps_list = [random_reps(m, SMALL["d_h"], seed=40 + m) for m in (3, 1, 6)]
    grads = [make_rng(50 + i).standard_normal((r.length, L, L))
             for i, r in enumerate(reps_list)]
    lats = score_lattices(p, reps_list)
    grad = backprop_lattices(p, reps_list, grads)
    with mock.patch.object(potentials, "MLP_BLOCK_CELLS", 1):
        assert potentials._mlp_blocks(10, 1) == [slice(k, k + 1) for k in range(10)]
        lats_1 = score_lattices(p, reps_list)
        grad_1 = backprop_lattices(p, reps_list, grads)
    for a, b in zip(lats, lats_1):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)
    for name in grad:
        np.testing.assert_allclose(grad_1[name], grad[name], rtol=1e-12, atol=1e-12)


@st.composite
def stacked_batches(draw):
    """A family, a ragged batch of 1-8 sequences of length 1-7 and one
    random lattice gradient per sequence."""
    family = draw(st.sampled_from(ALL_FAMILIES))
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = make_rng(seed)
    p = small_params(family, seed=seed % 1000)
    L = SMALL["num_labels"]
    reps_list = [RepresentationSequence.from_array(rng.standard_normal((m, SMALL["d_h"])))
                 for m in lengths]
    grads = [rng.standard_normal((m, L, L)) for m in lengths]
    return p, reps_list, grads


@settings(max_examples=60, deadline=None)
@given(stacked_batches())
def test_stacked_batch_equals_sum_of_single_sequences(batch):
    p, reps_list, grads = batch
    lats = score_lattices(p, reps_list)
    total = {name: np.zeros_like(arr) for name, arr in p.param_items()}
    for reps, lat, lg in zip(reps_list, lats, grads):
        np.testing.assert_allclose(lat, score_lattice(p, reps), rtol=1e-12, atol=1e-12)
        for name, arr in backprop_lattice(p, reps, lg).items():
            total[name] += arr
    batched = backprop_lattices(p, reps_list, grads)
    for name in total:
        np.testing.assert_allclose(batched[name], total[name],
                                   rtol=1e-10, atol=1e-10)


def reference_ext_and_grads(p, h, lat_grad):
    """Per-sequence reference for every family: the (M, L+1, L) ext score
    table, from explicit einsums (and the full activation tensor for the
    concat-MLP families), and the pullback of `lat_grad` through it."""
    L, d_t = p.num_labels, p.d_t
    w = p.arrays
    M = len(h)
    gext = np.zeros((M, L + 1, L))
    gext[0, L] = lat_grad[0].sum(axis=0)
    gext[1:, :L] = lat_grad[1:]
    g = {}
    if p.family in (Family.SOFTMAX, Family.VANILLA_CRF):
        ext = np.repeat(np.einsum("mp,pb->mb", h, w["w_h"])[:, None, :], L + 1, axis=1)
        g["w_h"] = np.einsum("mp,mab->pb", h, gext)
        if p.family is Family.VANILLA_CRF:
            ext += w["transition_table"]
            g["transition_table"] = np.einsum("mab->ab", gext)
        return ext, g
    T_ext = w["label_embeddings"]
    T_cur = T_ext[:L]
    if p.family in (Family.TWO_BILINEAR, Family.THREE_BILINEAR):
        cur = "w_h" if p.family is Family.TWO_BILINEAR else "w_h1"
        w_cur = w[cur]
        ext = (np.einsum("aq,qr,br->ab", T_ext, w["w_t"], T_cur)[None]
               + np.einsum("mp,pr,br->mb", h, w_cur, T_cur)[:, None, :])
        g["w_t"] = np.einsum("mab,aq,br->qr", gext, T_ext, T_cur)
        g[cur] = np.einsum("mab,mp,br->pr", gext, h, T_cur)
        g["label_embeddings"] = np.einsum("mab,qr,br->aq", gext, w["w_t"], T_cur)
        g["label_embeddings"][:L] += (np.einsum("mab,aq,qr->br", gext, T_ext, w["w_t"])
                                      + np.einsum("mab,mp,pr->br", gext, h, w_cur))
        if p.family is Family.THREE_BILINEAR:
            ext = ext + np.einsum("mp,pq,aq->ma", h, w["w_h2"], T_ext)[:, :, None]
            g["w_h2"] = np.einsum("mab,mp,aq->pq", gext, h, T_ext)
            g["label_embeddings"] += np.einsum("mab,mp,pq->aq", gext, h, w["w_h2"])
        return ext, g
    if p.family in DECOMPOSED:
        # word inputs of each factor; an out-of-range neighbor reads a zero
        # row here and its factor is pinned to ones
        zero = np.zeros((1, p.d_h))
        prev, nxt = np.vstack([zero, h[:-1]]), np.vstack([h[1:], zero])
        words = {Family.D_TRILINEAR: [(h, "u_h", None)],
                 Family.D_QUADRILINEAR: [(prev, "u_h1", 0), (h, "u_h2", None)],
                 Family.D_PENTALINEAR: [(prev, "u_h1", 0), (h, "u_h2", None),
                                        (nxt, "u_h3", M - 1)]}[p.family]
        F = []
        for X, name, boundary in words:
            F.append(np.einsum("mp,pj->mj", X, w[name]))
            if boundary is not None:
                F[-1][boundary] = 1.0
        W = np.prod(F, axis=0)
        ext = np.einsum("aq,qj,br,rj,mj->mab", T_ext, w["u_t1"], T_cur, w["u_t2"], W)
        g["u_t1"] = np.einsum("mab,aq,br,rj,mj->qj", gext, T_ext, T_cur, w["u_t2"], W)
        g["u_t2"] = np.einsum("mab,aq,qj,br,mj->rj", gext, T_ext, w["u_t1"], T_cur, W)
        g["label_embeddings"] = np.einsum("mab,qj,br,rj,mj->aq",
                                          gext, w["u_t1"], T_cur, w["u_t2"], W)
        g["label_embeddings"][:L] += np.einsum("mab,aq,qj,rj,mj->br",
                                               gext, T_ext, w["u_t1"], w["u_t2"], W)
        base = np.einsum("mab,aq,qj,br,rj->mj", gext, T_ext, w["u_t1"], T_cur, w["u_t2"])
        for k, (X, name, _) in enumerate(words):
            others = np.prod([F[i] for i in range(len(F)) if i != k] + [np.ones_like(W)], axis=0)
            g[name] = np.einsum("mp,mj,mj->pj", X, base, others)
        return ext, g
    if p.family is Family.TRILINEAR:
        ext = np.einsum("mp,pqr,aq,br->mab", h, w["u_dense"], T_ext, T_cur)
        MM = np.einsum("mp,pqr->mqr", h, w["u_dense"])
        g["u_dense"] = np.einsum("mp,mab,aq,br->pqr", h, gext, T_ext, T_cur)
        g["label_embeddings"] = np.einsum("mab,mqr,br->aq", gext, MM, T_cur)
        g["label_embeddings"][:L] += np.einsum("mab,mqr,aq->br", gext, MM, T_ext)
        return ext, g
    w1 = w["mlp_w1"]
    X = h
    if p.family is Family.CONCAT_MLP_2W2L:
        X = np.hstack([np.vstack([np.zeros((1, p.d_h)), h[:-1]]), h])
    d_w = X.shape[1]
    Z = ((X @ w1[:, :d_w].T)[:, None, None, :]
         + (T_ext @ w1[:, d_w: d_w + d_t].T)[None, :, None, :]
         + (T_cur @ w1[:, d_w + d_t:].T)[None, None, :, :]
         + w["mlp_b1"])
    U = np.tanh(Z)
    ext = U @ w["mlp_w2"][0]
    dZ = gext[..., None] * (w["mlp_w2"][0] * (1.0 - U * U))
    Sa, Sb = dZ.sum(axis=(0, 2)), dZ.sum(axis=(0, 1))
    g["mlp_w2"] = np.einsum("mab,mabh->h", gext, U)[None]
    g["mlp_b1"] = dZ.sum(axis=(0, 1, 2))
    g["mlp_w1"] = np.hstack([dZ.sum(axis=(1, 2)).T @ X, Sa.T @ T_ext, Sb.T @ T_cur])
    g["label_embeddings"] = Sa @ w1[:, d_w: d_w + d_t]
    g["label_embeddings"][:L] += Sb @ w1[:, d_w + d_t:]
    return ext, g


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_stacked_path_matches_per_sequence_reference(family):
    p = small_params(family, seed=12)
    L = SMALL["num_labels"]
    reps_list = [random_reps(m, SMALL["d_h"], seed=60 + m) for m in (4, 1, 7, 2)]
    grads = [make_rng(70 + i).standard_normal((r.length, L, L))
             for i, r in enumerate(reps_list)]
    want = {name: np.zeros_like(arr) for name, arr in p.param_items()}
    for reps, lat, lg in zip(reps_list, score_lattices(p, reps_list), grads):
        ext, g = reference_ext_and_grads(p, reps.h, lg)
        np.testing.assert_allclose(lat[0], np.broadcast_to(ext[0, L], (L, L)),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lat[1:], ext[1:, :L], rtol=1e-12, atol=1e-12)
        for name, arr in g.items():
            want[name] += arr
    got = backprop_lattices(p, reps_list, grads)
    for name, arr in want.items():
        np.testing.assert_allclose(got[name], arr, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_blocked_scoring_and_prediction_match_whole_batch(family):
    # a budget of 8 positions cuts the batch into 6 blocks, one of them a
    # 9-position sequence larger than the budget
    p = small_params(family, seed=13)
    L = SMALL["num_labels"]
    lengths = (4, 1, 9, 2, 5, 3, 1, 6, 8)
    reps_list = [random_reps(m, SMALL["d_h"], seed=80 + k) for k, m in enumerate(lengths)]
    with mock.patch.object(inference, "CHUNK_CELLS", 8 * L * L):
        blocks = inference.cell_blocks(lengths, L)
        assert blocks == [(0, 2), (2, 3), (3, 5), (5, 7), (7, 8), (8, 9)]
        lats = score_lattices(p, reps_list)
        for lo, hi in blocks:
            alone = score_lattices(p, reps_list[lo:hi])
            assert [a.tobytes() for a in lats[lo:hi]] == [a.tobytes() for a in alone]
        paths = predict_paths(p, reps_list)
        assert paths == decode_paths(p, lats)
        assert predict_paths(p, []) == []
    assert paths == decode_paths(p, score_lattices(p, reps_list))
    for reps, lat in zip(reps_list, lats):
        ext, _ = reference_ext_and_grads(p, reps.h, np.zeros_like(lat))
        np.testing.assert_allclose(lat[0], np.broadcast_to(ext[0, L], (L, L)),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lat[1:], ext[1:, :L], rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# concat-MLP: one pass per distinct word input
# ---------------------------------------------------------------------------

def _tiny_vocabulary(seed):
    """Three random word vectors plus two that differ from the first only
    in the sign of a zero coordinate (0.0 against -0.0)."""
    words = make_rng(seed).standard_normal((5, SMALL["d_h"]))
    words[3] = words[0]
    words[3, 0] = 0.0
    words[4] = words[3]
    words[4, 0] = -0.0
    return words


def _word_inputs(p, reps_list):
    """MLP word input of every stacked position, as (bytes, is_first)."""
    out = []
    for reps in reps_list:
        h = reps.h
        prev = np.vstack([np.zeros((1, h.shape[1])), h[:-1]])
        X = np.hstack([prev, h]) if p.family is Family.CONCAT_MLP_2W2L else h
        out.extend((row.tobytes(), m == 0) for m, row in enumerate(X))
    return out


def check_mlp_batch_against_reference(p, reps_list, grads):
    """Lattices and gradients match the per-sequence reference within
    1e-12, and positions with byte-equal word input get bit-identical
    lattice rows."""
    L = p.num_labels
    lats = score_lattices(p, reps_list)
    want = {name: np.zeros_like(arr) for name, arr in p.param_items()}
    for reps, lat, lg in zip(reps_list, lats, grads):
        ext, g = reference_ext_and_grads(p, reps.h, lg)
        np.testing.assert_allclose(lat[0], np.broadcast_to(ext[0, L], (L, L)),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lat[1:], ext[1:, :L], rtol=1e-12, atol=1e-12)
        for name, arr in g.items():
            want[name] += arr
    got = backprop_lattices(p, reps_list, grads)
    for name, arr in want.items():
        np.testing.assert_allclose(got[name], arr, rtol=1e-12, atol=1e-12, err_msg=name)
    seen = {}
    for key, row in zip(_word_inputs(p, reps_list), np.concatenate(lats)):
        assert row.tobytes() == seen.setdefault(key, row).tobytes()


def _mlp_batch(family, sentences, seed=0):
    """Params, reps and random lattice gradients for sentences given as
    lists of indices into `_tiny_vocabulary`."""
    words = _tiny_vocabulary(seed)
    p = small_params(family, seed=seed)
    reps_list = [RepresentationSequence.from_array(words[s]) for s in sentences]
    rng = make_rng(seed + 1)
    L = SMALL["num_labels"]
    return p, reps_list, [rng.standard_normal((len(s), L, L)) for s in sentences]


MLP_BATCHES = {
    "repeated-words": [[0, 1, 0, 0], [1, 0]],
    "repeated-bigrams": [[0, 1, 2, 0, 1, 2], [2, 0, 1]],
    "repeated-first-words": [[2, 0], [2, 1, 1], [2], [0, 2]],
    "identical-sentences": [[0, 2, 1], [0, 2, 1], [0, 2, 1]],
    "all-distinct": [[0, 1], [2, 3, 4]],
    "signed-zeros": [[3, 4, 3], [4, 3], [3], [4]],
}


@pytest.mark.parametrize("case", list(MLP_BATCHES))
@pytest.mark.parametrize("family", MLP, ids=lambda f: f.value)
def test_mlp_distinct_inputs_match_reference(family, case):
    check_mlp_batch_against_reference(*_mlp_batch(family, MLP_BATCHES[case], seed=5))


def test_mlp_words_keep_signed_zeros_apart():
    p = small_params(Family.CONCAT_MLP_1W2L)
    x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [2.0, 1.0]])
    X, inverse = potentials._mlp_words(p, x, [(0, 4)])
    assert X[inverse].tobytes() == x.tobytes()
    assert len(X) == 3
    assert inverse[0] == inverse[2] != inverse[1]


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(MLP),
       sentences=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=6),
                          min_size=1, max_size=6),
       copies=st.integers(1, 3), seed=st.integers(0, 999))
def test_mlp_batches_from_tiny_vocabulary_match_reference(family, sentences, copies, seed):
    check_mlp_batch_against_reference(*_mlp_batch(family, sentences * copies, seed=seed))


@pytest.mark.parametrize("family", MLP, ids=lambda f: f.value)
def test_nll_gradient_batch_with_repeated_word(family):
    p, reps_list, _ = _mlp_batch(family, [[0, 1, 0, 0], [1, 0, 1]], seed=9)
    golds = [[1, 2, 2, 0], [3, 1, 1]]

    def loss(q):
        return sum(nll_and_grad(lat, gold)[0]
                   for lat, gold in zip(score_lattices(q, reps_list), golds))

    lat_grads = [nll_and_grad(lat, gold)[1]
                 for lat, gold in zip(score_lattices(p, reps_list), golds)]
    analytic = backprop_lattices(p, reps_list, lat_grads)
    numeric = finite_diff_grad(loss, p, step=1e-5)
    for name, num in numeric.items():
        assert max_relative_error(analytic[name], num) < 1e-4, name


# ---------------------------------------------------------------------------
# the concat-MLP blocks on one thread per CPU
# ---------------------------------------------------------------------------

def _with_cpus(n):
    """Patch the CPU-count source so the MLP passes run on n threads."""
    return mock.patch.object(potentials.os, "sched_getaffinity", lambda pid: set(range(n)))


def _mlp_threads_batch(family, lengths):
    p = init_params(family, 17, 6, seed=4, d_t=3, mlp_hidden=128)
    reps_list = [random_reps(m, 6, seed=60 + m) for m in lengths]
    grads = [make_rng(70 + i).standard_normal((r.length, 17, 17))
             for i, r in enumerate(reps_list)]
    return p, reps_list, grads


@pytest.mark.parametrize("cells,lengths,blocks", [
    (potentials.MLP_BLOCK_CELLS, [9, 1, 14, 5, 20], 7),   # default budget: 7 rows a block
    (1, [9, 1, 14, 5, 20], 49),                           # one row a block
    (potentials.MLP_BLOCK_CELLS, [3], 1),                 # one block, run inline
], ids=["default", "tiny", "one-block"])
@pytest.mark.parametrize("family", MLP, ids=lambda f: f.value)
def test_mlp_threads_match_one_worker_byte_for_byte(family, cells, lengths, blocks):
    p, reps_list, grads = _mlp_threads_batch(family, lengths)
    switch = sys.getswitchinterval()
    results = {}
    try:
        sys.setswitchinterval(1e-6)   # interleave the threads as often as possible
        with mock.patch.object(potentials, "MLP_BLOCK_CELLS", cells):
            assert len(potentials._mlp_blocks(sum(lengths), 17 * 17 * 128)) == blocks
            for n in (1, 2, 3):
                with _with_cpus(n):
                    g = backprop_lattices(p, reps_list, grads)
                    results[n] = [score_lattices(p, reps_list).flat.tobytes()] + [
                        g[name].tobytes() for name in FAMILY_FIELDS[family]]
    finally:
        sys.setswitchinterval(switch)
    assert results[2] == results[1]
    assert results[3] == results[1]


def test_mlp_threads_are_bound_to_distinct_cpus():
    p, reps_list, _ = _mlp_threads_batch(Family.CONCAT_MLP_1W2L, [9, 14])
    calls = []
    with _with_cpus(3), mock.patch.object(potentials.os, "sched_setaffinity",
                                          lambda tid, cpus: calls.append((tid, *cpus))):
        score_lattices(p, reps_list)
    assert sorted(cpu for _, cpu in calls) == [0, 1, 2]
    assert len({tid for tid, _ in calls}) == 3
    assert threading.get_native_id() not in {tid for tid, _ in calls}


@pytest.mark.parametrize("family", MLP, ids=lambda f: f.value)
def test_mlp_runs_inline_without_affinity_calls(family, monkeypatch):
    # macOS and Windows have neither call: the blocks run on one thread
    p, reps_list, grads = _mlp_threads_batch(family, [9, 1, 14, 5, 20])

    def results():
        g = backprop_lattices(p, reps_list, grads)
        return [score_lattices(p, reps_list).flat.tobytes()] + [
            g[name].tobytes() for name in FAMILY_FIELDS[family]]

    with _with_cpus(1):
        want = results()
    monkeypatch.delattr(potentials.os, "sched_getaffinity")
    monkeypatch.delattr(potentials.os, "sched_setaffinity")
    assert potentials.cpu_count() == 1
    assert results() == want


class _BoomRows(np.ndarray):
    """Word pre-activations whose row slice starting at `bad` raises."""

    bad = 4

    def __getitem__(self, key):
        if isinstance(key, tuple) and isinstance(key[0], slice) and key[0].start == self.bad:
            raise RuntimeError("boom in block %d" % self.bad)
        return super().__getitem__(key)


@pytest.mark.parametrize("pass_name", ["_mlp_scores", "_mlp_pullback"])
def test_mlp_block_exception_reaches_caller(pass_name):
    rng = make_rng(3)
    R, H, n = 5, 4, 12
    Zw = rng.standard_normal((n, H)).view(_BoomRows)
    Zl, w2 = rng.standard_normal((R, H)), rng.standard_normal(H)
    last = np.empty((n, R)) if pass_name == "_mlp_scores" else rng.standard_normal((n, R))
    start = threading.active_count()
    caught = []

    def call():
        try:
            getattr(potentials, pass_name)(Zw, Zl, w2, last)
        except RuntimeError as exc:
            caught.append(exc)

    with mock.patch.object(potentials, "MLP_BLOCK_CELLS", R * H), _with_cpus(3):
        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(e) for e in caught] == ["boom in block 4"]
    assert threading.active_count() == start


# ---------------------------------------------------------------------------
# predict_paths: each block scored in parts on one thread per CPU
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.value)
def test_predict_paths_in_parts_match_on_one_and_two_cpus(family):
    # a budget of 12 positions cuts the ragged batch into blocks and a budget
    # of 4 cuts each block into parts; 1-token sentences run alone and at
    # the edges of parts
    p = small_params(family, seed=21)
    L = SMALL["num_labels"]
    lengths = (1, 4, 1, 7, 2, 1, 5, 3, 1, 6, 2, 1)
    reps_list = [random_reps(m, SMALL["d_h"], seed=100 + k) for k, m in enumerate(lengths)]
    want = decode_paths(p, score_lattices(p, reps_list))
    paths, lattices = {}, {}
    with mock.patch.object(inference, "CHUNK_CELLS", 12 * L * L), \
            mock.patch.object(potentials, "MLP_BLOCK_CELLS", 4 * L * L):
        blocks = inference.cell_blocks(lengths, L)
        assert len(blocks) >= 3
        assert max(len(inference.cell_blocks(lengths[lo:hi], L, 4 * L * L))
                   for lo, hi in blocks) >= 3
        for n in (1, 2):
            with _with_cpus(n):
                paths[n] = predict_paths(p, reps_list)
                lattices[n] = potentials.block_scorer(p)(reps_list).flat.tobytes()
    assert paths[2] == paths[1] == want
    assert lattices[2] == lattices[1]


def _overflowing_mlp_2w2l():
    # Zl is near the largest float and Zw near 1e306, so Zw + Zl overflows
    # in the tanh blocks alone; tanh(inf) is still finite
    p = init_params(Family.CONCAT_MLP_2W2L, 17, 6, seed=4, d_t=3, mlp_hidden=128)
    p.arrays["mlp_w1"][:, :12] *= 1e306
    p.arrays["mlp_b1"][:] = 1.79e308
    return p, [random_reps(m, 6, seed=60 + m) for m in (9, 1, 14, 5, 20)]


def test_block_threads_keep_the_callers_errstate():
    p, reps_list = _overflowing_mlp_2w2l()
    with _with_cpus(2), mock.patch.object(potentials, "MLP_BLOCK_CELLS", 1), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            with np.errstate(all="raise"):
                score_lattices(p, reps_list)
        with np.errstate(all="ignore"):
            lats = score_lattices(p, reps_list)
            paths = predict_paths(p, reps_list)
    assert np.isfinite(lats.flat).all()
    assert len(paths) == len(reps_list)


@pytest.mark.skipif(blas_threads() is None, reason="numpy's OpenBLAS cannot be found")
def test_block_threads_run_blas_on_one_thread_and_restore_its_count():
    # unpinned, each bound thread would also start OpenBLAS threads
    before, set_threads = blas_threads(), linalg._openblas()[1]
    seen = []

    def run(blk, buf):
        seen.append(blas_threads())
        if blk == "raise":
            raise KeyError(blk)

    set_threads(2)
    try:
        if blas_threads() != 2:
            pytest.skip("OpenBLAS does not run on 2 threads here")
        with _with_cpus(2), mock.patch.object(potentials.os, "sched_setaffinity",
                                              lambda tid, cpus: None):
            potentials._each_block(list(range(4)), (0,), run)
            assert blas_threads() == 2
            with pytest.raises(KeyError):
                potentials._each_block([0, "raise", 2, 3], (0,), run)
            assert blas_threads() == 2
        assert len(seen) >= 6 and set(seen) == {1}
    finally:
        set_threads(before)
