"""Per-position potential scoring for every supported family.

A model scores each (previous label, current label) pair at every position
of a sentence; the scores for one sentence form an M x L x L lattice.
Inference runs on the lattice alone, so a family only has to know how to
build lattices and how to push lattice-level gradients back onto its own
parameters.

Fields.  `FAMILY_FIELDS` lists each family's weight fields in canonical
order; shapes, the family groups and `init_params`' size checks derive
from it, `ModelParams.arrays` holds exactly those fields, and
`backprop_lattices` returns a {field: gradient} dict in that order.

Label indexing.  The L real labels are 0..L-1.  A synthetic
begin-of-sequence (BOS) label occupies row L of the label-embedding table
and of the vanilla transition table.  Position 0 of every lattice is
scored against BOS, all of its rows carry the same value, and inference
reads row 0 there by convention.

Boundary words.  Families whose potential multiplies in a factor of the
previous or next word representation (d-quadrilinear, d-pentalinear)
treat an out-of-range neighbor as a ones factor, so the boundary
positions degrade to the next-lower-order potential instead of vanishing.
The concat-MLP-2w2l family instead concatenates an all-zero vector for the
word before the sentence.

Batches.  Every family pulls back a whole batch in one pass, and scores
it in blocks: runs of whole sequences with at most `inference.CHUNK_CELLS`
lattice cells, each written into its rows of one output buffer (a typical
training batch is one block).  Within a pass the sequences are stacked
along the position axis, neighbor words are shifted within each sequence
only, and each sequence's first position gets its BOS-conditioned row
separately (each sequence is known by its first stacked row); the
stacked rows and word factors of scoring exist for one block at a time.  The concat-MLP pre-activation splits into a word part
and a label part (computed once per call).  The word part depends only
on the position's word input (`h`, or `[h_prev, h]` for 2w2l), so it is
computed once per distinct input row of the pass (rows are equal when
their bytes are): scoring gathers the distinct rows' scores into every
position, and the pullback first sums the lattice-gradient rows of each
distinct input.  The (rows, L, L, hidden) tanh activations are formed in
blocks of at most `MLP_BLOCK_CELLS` cells and never for the whole batch,
and the pullback recomputes them block by block.  The blocks run on one
thread per CPU (`_each_block`), with results byte-identical to one.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .inference import LatticeBatch, cell_blocks
from .linalg import glorot, make_rng


class Family(str, Enum):
    """Closed set of potential-function families."""

    SOFTMAX = "softmax"
    VANILLA_CRF = "vanilla-crf"
    TWO_BILINEAR = "two-bilinear"
    THREE_BILINEAR = "three-bilinear"
    TRILINEAR = "trilinear"
    D_TRILINEAR = "d-trilinear"
    D_QUADRILINEAR = "d-quadrilinear"
    D_PENTALINEAR = "d-pentalinear"
    CONCAT_MLP_1W2L = "concat-mlp-1w2l"
    CONCAT_MLP_2W2L = "concat-mlp-2w2l"

    @classmethod
    def from_name(cls, name: str) -> "Family":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError("unknown family: %s" % name) from None


CRF_FAMILIES = tuple(f for f in Family if f is not Family.SOFTMAX)

# The weight fields each family reads, in canonical order: the order of the
# seeded initialization draws, of the model file and of the SGD update.
# This is the one place a family's fields are listed.
FAMILY_FIELDS = {
    Family.SOFTMAX: ("w_h",),
    Family.VANILLA_CRF: ("transition_table", "w_h"),
    Family.TWO_BILINEAR: ("label_embeddings", "w_h", "w_t"),
    Family.THREE_BILINEAR: ("label_embeddings", "w_t", "w_h1", "w_h2"),
    Family.TRILINEAR: ("label_embeddings", "u_dense"),
    Family.D_TRILINEAR: ("label_embeddings", "u_t1", "u_t2", "u_h"),
    Family.D_QUADRILINEAR: ("label_embeddings", "u_t1", "u_t2", "u_h1", "u_h2"),
    Family.D_PENTALINEAR: ("label_embeddings", "u_t1", "u_t2", "u_h1", "u_h2", "u_h3"),
    Family.CONCAT_MLP_1W2L: ("label_embeddings", "mlp_w1", "mlp_b1", "mlp_w2"),
    Family.CONCAT_MLP_2W2L: ("label_embeddings", "mlp_w1", "mlp_b1", "mlp_w2"),
}


def _reading(name):
    """The families whose potential reads the field `name`."""
    return frozenset(f for f, names in FAMILY_FIELDS.items() if name in names)


EMBEDDING_FAMILIES = _reading("label_embeddings")
MLP_FAMILIES = _reading("mlp_w1")
BILINEAR_FAMILIES = _reading("w_t")

# Number of multiplied factors per decomposed family: every field but the
# label embeddings is one factor matrix.
_FACTOR_COUNT = {f: len(FAMILY_FIELDS[f]) - 1 for f in _reading("u_t1")}

# Upper bound on the (positions, labels, hidden) activation block of the
# concat-MLP families: 2^18 float64 cells (2 MB) stay in cache, and the
# activations of a whole batch are never held at once.
MLP_BLOCK_CELLS = 1 << 18


@dataclass
class RepresentationSequence:
    """Per-token dense vectors h_1..h_M."""

    h: np.ndarray   # (M, d_h)

    @classmethod
    def from_array(cls, h) -> "RepresentationSequence":
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 2 or h.shape[0] < 1:
            raise ValueError("representations must be a non-empty (M, d_h) array")
        return cls(h=h)

    @property
    def length(self) -> int:
        return self.h.shape[0]

    @property
    def d_h(self) -> int:
        return self.h.shape[1]


def field_shapes(family, num_labels, d_h, d_t=0, d_r=0, mlp_hidden=0):
    """Required parameter shapes for `family`, in canonical order."""
    family = Family(family)
    L = num_labels
    d_in = (2 if family is Family.CONCAT_MLP_2W2L else 1) * d_h + 2 * d_t
    shapes = {
        "label_embeddings": (L + 1, d_t), "transition_table": (L + 1, L),
        "w_h": (d_h, d_t if family in EMBEDDING_FAMILIES else L), "w_t": (d_t, d_t),
        "w_h1": (d_h, d_t), "w_h2": (d_h, d_t), "u_dense": (d_h, d_t, d_t),
        "u_t1": (d_t, d_r), "u_t2": (d_t, d_r),
        "u_h": (d_h, d_r), "u_h1": (d_h, d_r), "u_h2": (d_h, d_r), "u_h3": (d_h, d_r),
        "mlp_w1": (mlp_hidden, d_in), "mlp_b1": (mlp_hidden,), "mlp_w2": (1, mlp_hidden),
    }
    return {name: shapes[name] for name in FAMILY_FIELDS[family]}


@dataclass
class ModelParams:
    """Weights of one potential family.

    `arrays` maps each field of FAMILY_FIELDS[family] to its array, and
    holds no other key.  Row L of `label_embeddings` and of
    `transition_table` is the synthetic BOS label.
    """

    family: Family
    num_labels: int
    d_h: int
    d_t: int = 0
    d_r: int = 0
    arrays: dict = field(default_factory=dict)

    @property
    def mlp_hidden(self) -> int:
        w1 = self.arrays.get("mlp_w1")
        return 0 if w1 is None else w1.shape[0]

    def param_items(self):
        """(name, array) pairs for the family's fields, canonical order."""
        return [(name, self.arrays[name]) for name in FAMILY_FIELDS[self.family]]

    def validate(self):
        expected = field_shapes(self.family, self.num_labels, self.d_h, self.d_t, self.d_r,
                                self.mlp_hidden)
        for name in self.arrays:
            if name not in expected:
                raise ValueError("field %s must not be set for %s" % (name, self.family.value))
        for name, shape in expected.items():
            arr = self.arrays.get(name)
            if arr is None:
                raise ValueError("missing field: %s" % name)
            if arr.shape != shape:
                raise ValueError("dimension mismatch for %s: got %r, want %r"
                                 % (name, arr.shape, shape))
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite parameter in %s" % name)

    def copy(self) -> "ModelParams":
        return replace(self, arrays={name: a.copy() for name, a in self.arrays.items()})


def init_params(family, num_labels, d_h, seed, d_t=0, d_r=0, mlp_hidden=128) -> ModelParams:
    """Seeded parameters for `family`; equal arguments give bit-identical
    models (arrays are drawn from one PCG64 stream in canonical field
    order).

    Most fields are Glorot uniform; the order-3 tensor uses
    fan = d_h + d_t * d_t and MLP biases start at zero.  The factor
    matrices of the decomposed k-linear families are instead scaled so
    that each factor has magnitude about d_r**(-1/(2k)) under unit-norm
    inputs: the k-way products then start near 1/sqrt(d_r) and their sum
    near unit scale, which a sum-oriented Glorot scale does not give
    (products of several Glorot-small factors make the loss surface
    nearly flat at the start of training and unstable later).
    Representation vectors are assumed to be of roughly unit norm.
    """
    family = Family(family)
    used = (("num_labels", num_labels, True), ("d_h", d_h, True),
            ("d_t", d_t, family in EMBEDDING_FAMILIES),
            ("d_r", d_r, family in _FACTOR_COUNT),
            ("mlp_hidden", mlp_hidden, family in MLP_FAMILIES))
    for name, size, needed in used:
        if needed and size < 1:
            raise ValueError("%s must be positive for %s, got %d" % (name, family.value, size))
    if family not in EMBEDDING_FAMILIES:
        d_t = d_r = 0
    if family not in MLP_FAMILIES:
        mlp_hidden = 0
    shapes = field_shapes(family, num_labels, d_h, d_t, d_r, mlp_hidden)
    factors = _FACTOR_COUNT.get(family)
    bounds = {}
    if factors is not None:
        target = d_r ** (-1.0 / (2.0 * factors))
        # balance the label side: embedding rows and factor columns get
        # equal norms, so both move at the same relative rate under SGD
        side = np.sqrt(3.0 * target) * d_t ** -0.25
        bounds["label_embeddings"] = side
        bounds["u_t1"] = bounds["u_t2"] = side
        for name in ("u_h", "u_h1", "u_h2", "u_h3"):
            bounds[name] = np.sqrt(3.0) * target
    rng = make_rng(seed)
    arrays = {}
    for name, shape in shapes.items():
        if name == "mlp_b1":
            arrays[name] = np.zeros(shape)
        elif name in bounds:
            arrays[name] = rng.uniform(-bounds[name], bounds[name], size=shape)
        elif len(shape) == 3:
            a = np.sqrt(6.0 / (shape[0] + shape[1] * shape[2]))
            arrays[name] = rng.uniform(-a, a, size=shape)
        else:
            rows, cols = shape if len(shape) == 2 else (1, shape[0])
            arrays[name] = glorot(rng, rows, cols).reshape(shape)
    return ModelParams(family=family, num_labels=num_labels, d_h=d_h,
                       d_t=d_t, d_r=d_r, arrays=arrays)


def reconstruct_dense_trilinear(u_t1, u_t2, u_h) -> np.ndarray:
    """Dense order-3 tensor whose rank-d_r factors are the given matrices.

    U[p, q, r] = sum_j u_h[p, j] * u_t1[q, j] * u_t2[r, j].
    """
    if not (u_t1.shape[1] == u_t2.shape[1] == u_h.shape[1]):
        raise ValueError("factor matrices must share their column count")
    return np.einsum("pj,qj,rj->pqr", u_h, u_t1, u_t2, optimize=True)


# ---------------------------------------------------------------------------
# Lattice construction
# ---------------------------------------------------------------------------

def _precompute(params: ModelParams) -> dict:
    """Sequence-independent tensors for `params`, shared across a batch."""
    f = params.family
    w = params.arrays
    L = params.num_labels
    pre: dict = {}
    if f in EMBEDDING_FAMILIES:
        pre["T_ext"] = T_ext = w["label_embeddings"]   # (L+1, d_t), row L = BOS
        pre["T_cur"] = T_cur = T_ext[:L]               # BOS is never a current label
    if f is Family.SOFTMAX:
        # softmax scores are vanilla-crf scores without transitions
        pre["table"] = np.zeros((L + 1, L))
    elif f is Family.VANILLA_CRF:
        pre["table"] = w["transition_table"]
    elif f in BILINEAR_FAMILIES:
        pre["table"] = T_ext @ w["w_t"] @ T_cur.T
    elif f is Family.TRILINEAR:
        # Fold the label embeddings into the tensor:
        # folded[p, a, b] = T_ext[a] . u_dense[p] . T_cur[b], split like
        # d-trilinear's A_cur/A_bos into real previous labels and BOS.
        pre["UT"] = w["u_dense"] @ T_cur.T     # (d_h, d_t, L)
        folded = np.matmul(T_ext, pre["UT"])    # (d_h, L+1, L)
        pre["A_cur"] = folded[:, :L].reshape(params.d_h, L * L)
        pre["A_bos"] = np.ascontiguousarray(folded[:, L])
    elif f in _FACTOR_COUNT:
        pre["G1"] = G1 = T_ext @ w["u_t1"]     # previous-label factors
        pre["G2"] = G2 = T_cur @ w["u_t2"]     # current-label factors
        # pairwise label-factor products, split into the real-label block
        # and the BOS row so lattices can be written without an ext table
        pre["G12"] = (G1[:, None, :] * G2[None, :, :]).reshape(-1, params.d_r)
        pre["G12_cur"] = pre["G12"][: L * L]
        pre["G12_bos"] = pre["G12"][L * L:]
        if f is Family.D_TRILINEAR:
            pre["A_cur"] = w["u_h"] @ pre["G12_cur"].T    # (d_h, L*L)
            pre["A_bos"] = w["u_h"] @ pre["G12_bos"].T    # (d_h, L)
    elif f in MLP_FAMILIES:
        d_t = params.d_t
        w1 = w["mlp_w1"]
        d_w = w1.shape[1] - 2 * d_t           # word columns: [previous word,] current word
        pre["w1_words"] = w1[:, :d_w]
        pre["w1_prev_label"] = w1[:, d_w: d_w + d_t]
        pre["w1_cur_label"] = w1[:, d_w + d_t:]
        Za = T_ext @ pre["w1_prev_label"].T   # (L+1, H)
        Zb = T_cur @ pre["w1_cur_label"].T    # (L, H)
        # label-side pre-activations, word-independent: real previous
        # labels as (L*L, H) rows indexed a*L+b, and the BOS row (L, H)
        pre["Z_cur"] = (Za[:L, None, :] + Zb[None, :, :] + w["mlp_b1"]).reshape(L * L, -1)
        pre["Z_bos"] = Za[L] + Zb + w["mlp_b1"]
    return pre


def _stack(reps_list):
    """The representations of a batch stacked along the position axis,
    and `starts`, the stacked row of each sequence's first position."""
    h_all = np.vstack([reps.h for reps in reps_list])
    starts = np.cumsum([0] + [reps.length for reps in reps_list[:-1]])
    return h_all, starts


def _neighbor_rows(x, starts, prev, times=None):
    """Rows of `x` shifted one position within each sequence: row m holds
    the previous (or next) row of its own sequence, zeros where that
    neighbor is out of range.  Given `times`, multiplies that array in
    place by the shifted rows instead and returns it; its rows without a
    neighbor keep their value, as if the missing neighbor were a ones
    factor."""
    # rows without the neighbor: each sequence's first row, or its last
    # (`starts - 1`, where -1 is the batch's last row)
    edge = starts if prev else starts - 1
    rows, nbr = (slice(1, None), slice(None, -1)) if prev else (slice(None, -1), slice(1, None))
    if times is None:
        out = np.empty_like(x)
        out[rows] = x[nbr]
        out[edge] = 0.0
        return out
    kept = times[edge]
    np.multiply(x[nbr], times[rows], out=times[rows])
    times[edge] = kept
    return times


def _word_factors(params, h_all, starts):
    """Word-factor vectors of d-quadrilinear or d-pentalinear for the
    stacked positions.

    Previous/next-word factors never leak across sequences; out-of-range
    neighbors produce a ones row so boundary positions keep a
    well-defined, trainable potential.
    """
    w = params.arrays
    ones = np.ones((h_all.shape[0], params.d_r))
    factors = (_neighbor_rows(h_all @ w["u_h1"], starts, prev=True, times=ones),
               h_all @ w["u_h2"])
    if params.family is Family.D_PENTALINEAR:
        factors += (_neighbor_rows(h_all @ w["u_h3"], starts, prev=False,
                                   times=np.ones_like(ones)),)
    return factors


def _mlp_words(params, h_all, starts):
    """Distinct MLP word inputs X of the stacked positions and `inverse`,
    the row of X that each position reads.  The input is [previous word,]
    current word; the previous word of a sequence's first position is the
    zero vector.  Rows are equal only when their bytes are, so 0.0 and
    -0.0 stay apart."""
    x = h_all
    if params.family is Family.CONCAT_MLP_2W2L:
        x = np.hstack([_neighbor_rows(h_all, starts, prev=True), h_all])
    rows = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return x[first], inverse


def _group_sums(rows, inverse, groups):
    """out[j] = sum of rows[i] over the i with inverse[i] == j, in row order."""
    out = np.zeros((groups,) + rows.shape[1:])
    np.add.at(out, inverse, rows)
    return out


def _mlp_blocks(rows, cells_per_row):
    """Row slices whose (rows, cells_per_row) buffer fits MLP_BLOCK_CELLS."""
    k = max(1, MLP_BLOCK_CELLS // cells_per_row)
    return [slice(lo, min(lo + k, rows)) for lo in range(0, rows, k)]


def cpu_count() -> int:
    """Number of CPUs this process may run on, and so of the threads that
    run the concat-MLP blocks (`taskset` lowers it)."""
    return len(os.sched_getaffinity(0))


def _each_block(blocks, buf_shape, run, merge=None):
    """Call run(blk, buf) for every slice of `blocks`, on one thread per
    CPU the process may run on (capped at the block count; one block runs
    inline).  Each thread is bound to its own CPU of that set: on a
    2-vCPU VM the scheduler was seen keeping two unbound threads on one
    CPU for hundreds of milliseconds while the other idled.  A thread
    claims the next unclaimed block and owns one scratch buffer `buf` of
    `buf_shape`, allocated by the caller.

    Given `merge`, run returns a partial result and merge(partial) is
    called under the lock strictly in block order, by whichever thread
    completes the next block to merge, so the merged result is the serial
    loop's bit for bit; a thread claims no block more than two per thread
    ahead of the merge, which bounds the partials held.  An exception
    raised in any block stops the claiming and is re-raised here once
    every thread has ended.
    """
    cpus = sorted(os.sched_getaffinity(0))[: len(blocks)]
    ahead = 2 * len(cpus)
    lock = threading.Condition()
    claimed = merged = 0
    error = None
    partials = {}

    def work(buf):
        nonlocal claimed, merged, error
        try:
            while True:
                with lock:
                    while merge is not None and error is None and claimed - merged >= ahead:
                        lock.wait()
                    if error is not None or claimed == len(blocks):
                        return
                    k = claimed
                    claimed += 1
                part = run(blocks[k], buf)
                if merge is not None:
                    with lock:
                        partials[k] = part
                        while merged in partials:
                            merge(partials.pop(merged))
                            merged += 1
                        lock.notify_all()
        except BaseException as exc:
            with lock:
                error = error or exc
                lock.notify_all()

    def bound(cpu, buf):
        try:
            os.sched_setaffinity(threading.get_native_id(), {cpu})
        except OSError:     # the CPU left the set since it was read: run unbound
            pass
        work(buf)

    if len(cpus) == 1:
        work(np.empty(buf_shape))
    else:
        threads = [threading.Thread(target=bound, args=(cpu, np.empty(buf_shape)))
                   for cpu in cpus]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if error is not None:
        raise error


def _mlp_scores(Zw, Zl, w2, out):
    """out[m, r] = tanh(Zw[m] + Zl[r]) . w2 for word pre-activations Zw
    (n, H) and label pre-activations Zl (R, H); `out` is a contiguous
    (n, R) array.  The activations never exist beyond one block per
    thread (see `_each_block`)."""
    R, H = Zl.shape
    blocks = _mlp_blocks(len(Zw), R * H)

    def run(blk, buf):
        u = buf[: blk.stop - blk.start]
        np.add(Zw[blk, None, :], Zl[None], out=u)
        np.tanh(u, out=u)
        np.matmul(u.reshape(-1, H), w2, out=out[blk].reshape(-1))

    _each_block(blocks, (blocks[0].stop, R, H), run)
    return out


def _mlp_pullback(Zw, Zl, w2, grad):
    """Pullback of `_mlp_scores` for a lattice gradient grad (n, R).

    Recomputes the activations block by block and returns
    (d w2, S_w, S_l): S_w (n, H) and S_l (R, H) are the pre-activation
    gradients summed over the label rows and over the positions, still
    without their common factor w2, which the caller applies once.  The
    sums over blocks are merged in block order, whatever the threads.
    """
    R, H = Zl.shape
    blocks = _mlp_blocks(len(Zw), R * H)
    g_w2 = np.zeros(H)
    S_w = np.empty((len(Zw), H))
    S_l = np.zeros((R, H))

    def run(blk, buf):
        u = buf[: blk.stop - blk.start]
        g = grad[blk]
        np.add(Zw[blk, None, :], Zl[None], out=u)
        np.tanh(u, out=u)
        part_w2 = g.reshape(-1) @ u.reshape(-1, H)
        np.square(u, out=u)
        np.subtract(1.0, u, out=u)          # u now holds tanh' = 1 - tanh^2
        # S_w[m] = g[m] . u[m] and S_l[r] += g[:, r] . u[:, r], as batched GEMVs
        np.matmul(g[:, None, :], u, out=S_w[blk, None, :])
        return part_w2, np.matmul(g.T[:, None, :], u.transpose(1, 0, 2))[:, 0]

    def merge(part):
        nonlocal g_w2, S_l
        g_w2 += part[0]
        S_l += part[1]

    _each_block(blocks, (blocks[0].stop, R, H), run, merge)
    return g_w2, S_w, S_l


def check_inputs(params, reps_list):
    """Checks shared by scoring and the pullback: parameters, d_h, and
    non-empty, finite representations, a bad one named by its index in
    `reps_list`."""
    params.validate()
    for k, reps in enumerate(reps_list):
        if reps.length < 1:
            raise ValueError("empty sequence %d of the batch" % k)
        if reps.d_h != params.d_h:
            raise ValueError(
                "dimension mismatch: representations have d_h=%d, model wants %d"
                % (reps.d_h, params.d_h)
            )
        if not np.isfinite(reps.h).all():
            raise ValueError("non-finite representation in sequence %d of the batch" % k)


def score_lattices(params: ModelParams, reps_list) -> LatticeBatch:
    """Score lattices for a batch of sequences against one model.

    Sequence-independent work (label-side factor products, folded
    tensors, label pre-activations) is done once per call, which is what
    makes decoding with the decomposed families nearly as cheap as with
    the vanilla CRF.  Each block of `cell_blocks` (at most `CHUNK_CELLS`
    lattice cells) is stacked along the position axis so its heavy
    contraction runs once (one GEMM per word term, or one blocked pass for
    the MLP); the stacked rows and word factors of one block exist at a
    time.  Returns a `LatticeBatch` over the one buffer they fill.
    Position 0 of every sequence is overwritten with its BOS-conditioned
    row broadcast.  Raises ValueError naming the sequence if a
    representation is not finite.
    """
    check_inputs(params, reps_list)
    L = params.num_labels
    lengths = [reps.length for reps in reps_list]
    batch = LatticeBatch(np.empty((sum(lengths), L, L)), lengths)
    if not reps_list:
        return batch
    pre = _precompute(params)
    bounds = [*batch.starts, len(batch.flat)]    # first row of each sequence, then the end
    for lo, hi in cell_blocks(lengths, L):
        _score_block(params, pre, reps_list[lo:hi], batch.flat[bounds[lo]: bounds[hi]])
    return batch


def _score_block(params, pre, reps_list, flat):
    """Write the lattices of the stacked `reps_list` into `flat` (rows, L, L)."""
    h_all, starts = _stack(reps_list)
    L = params.num_labels
    f = params.family
    w = params.arrays
    if f in (Family.D_TRILINEAR, Family.TRILINEAR):
        np.matmul(h_all, pre["A_cur"], out=flat.reshape(-1, L * L))
        bos = h_all[starts] @ pre["A_bos"]
    elif f in MLP_FAMILIES:
        # score each distinct word input once, then gather per position
        # ("clip" writes `out` in place: "raise" would buffer a copy of it)
        X, inverse = _mlp_words(params, h_all, starts)
        Zw = X @ pre["w1_words"].T
        w2 = w["mlp_w2"][0]
        scores = _mlp_scores(Zw, pre["Z_cur"], w2, np.empty((len(X), L * L)))
        np.take(scores, inverse, axis=0, out=flat.reshape(-1, L * L), mode="clip")
        bos_rows, bos_inverse = np.unique(inverse[starts], return_inverse=True)
        bos = _mlp_scores(Zw[bos_rows], pre["Z_bos"], w2, np.empty((len(bos_rows), L)))
        bos = bos[bos_inverse]
    elif f in (Family.D_QUADRILINEAR, Family.D_PENTALINEAR):
        # the word-factor product, multiplied in place: no factor copies
        W = _neighbor_rows(h_all @ w["u_h1"], starts, prev=True, times=h_all @ w["u_h2"])
        if f is Family.D_PENTALINEAR:
            _neighbor_rows(h_all @ w["u_h3"], starts, prev=False, times=W)
        np.matmul(W, pre["G12_cur"].T, out=flat.reshape(-1, L * L))
        bos = W[starts] @ pre["G12_bos"].T
    else:
        # table[a, b] + col[m, b], plus row[m, a] for three-bilinear
        col = h_all @ w["w_h1" if f is Family.THREE_BILINEAR else "w_h"]
        if f in BILINEAR_FAMILIES:
            col = col @ pre["T_cur"].T
        np.add(pre["table"][:L], col[:, None, :], out=flat)
        bos = pre["table"][L] + col[starts]
        if f is Family.THREE_BILINEAR:
            row = (h_all @ w["w_h2"]) @ pre["T_ext"].T
            flat += row[:, :L, None]
            bos += row[starts, L][:, None]
    flat[starts] = bos[:, None, :]


def score_lattice(params: ModelParams, reps: RepresentationSequence) -> np.ndarray:
    """Score lattice of a single sequence; see `score_lattices`."""
    return score_lattices(params, [reps])[0]


# ---------------------------------------------------------------------------
# Analytic gradients
# ---------------------------------------------------------------------------

def _accumulate_additive(params, pre, h_all, starts, gext):
    """Pullback of score[m, a, b] = table[a, b] + col[m, b] (+ row[m, a])
    for softmax, vanilla-crf and the bilinear families."""
    L = params.num_labels
    f = params.family
    w = params.arrays
    gcol = gext.sum(axis=1)               # (N, L)
    if f is Family.SOFTMAX:
        return {"w_h": h_all.T @ gcol}
    if f is Family.VANILLA_CRF:
        return {"w_h": h_all.T @ gcol, "transition_table": gext.sum(axis=0)}
    T_ext, T_cur = pre["T_ext"], pre["T_cur"]
    total = gext.sum(axis=0)              # (L+1, L)
    cur = "w_h" if f is Family.TWO_BILINEAR else "w_h1"
    g = {"w_t": T_ext.T @ total @ T_cur,
         "label_embeddings": total @ (T_cur @ w["w_t"].T)}
    g["label_embeddings"][:L] += total.T @ (T_ext @ w["w_t"])
    g[cur] = h_all.T @ (gcol @ T_cur)
    g["label_embeddings"][:L] += (gcol.T @ h_all) @ w[cur]
    if f is Family.THREE_BILINEAR:
        grow = gext.sum(axis=2)           # (N, L+1)
        g["w_h2"] = h_all.T @ (grow @ T_ext)
        g["label_embeddings"] += (grow.T @ h_all) @ w["w_h2"]
    return g


def _accumulate_decomposed(params, pre, h_all, starts, gext):
    """Gradient pullback for the decomposed families.

    Every contraction that sums over positions and sequences runs as one
    GEMM.  Boundary neighbor factors are constant ones and contribute no
    gradient, which falls out of the all-zero rows of the shifted word
    matrices.
    """
    L = params.num_labels
    f = params.family
    w = params.arrays
    flat = gext.reshape(h_all.shape[0], -1)
    if f is Family.D_TRILINEAR:
        # as in trilinear, K[p, ab] = sum_m h[m, p] gamma[m, a, b] carries all
        # the position dependence; Q and the u_h gradient contract K
        K = h_all.T @ flat
        Q = K.T @ w["u_h"]
    else:
        factors = _word_factors(params, h_all, starts)
        W = factors[0]
        for extra in factors[1:]:
            W = W * extra
        # base[m] = gamma[m] contracted with the label-factor products
        base = flat @ pre["G12"]
        # Q[a, b, j] = sum over all positions of gamma[m, a, b] * W[m, j];
        # the transposed view feeds the GEMM directly, no transpose copy
        Q = flat.T @ W
    Q = Q.reshape(L + 1, L, params.d_r)
    G1, G2 = pre["G1"], pre["G2"]
    T_ext, T_cur = pre["T_ext"], pre["T_cur"]
    D1 = np.einsum("abj,bj->aj", Q, G2, optimize=True)
    D2 = np.einsum("abj,aj->bj", Q, G1, optimize=True)
    g = {"u_t1": T_ext.T @ D1, "u_t2": T_cur.T @ D2, "label_embeddings": D1 @ w["u_t1"].T}
    g["label_embeddings"][:L] += D2 @ w["u_t2"].T
    if f is Family.D_TRILINEAR:
        g["u_h"] = K @ pre["G12"]
        return g
    h_prev = _neighbor_rows(h_all, starts, prev=True)
    if f is Family.D_QUADRILINEAR:
        G3, G4 = factors
        g["u_h1"] = h_prev.T @ (base * G4)
        g["u_h2"] = h_all.T @ (base * G3)
        return g
    G3, G4, G5 = factors
    h_next = _neighbor_rows(h_all, starts, prev=False)
    g["u_h1"] = h_prev.T @ (base * G4 * G5)
    g["u_h2"] = h_all.T @ (base * G3 * G5)
    g["u_h3"] = h_next.T @ (base * G3 * G4)
    return g


def _accumulate_trilinear(params, pre, h_all, starts, gext):
    """Pullback of score[m, a, b] = h[m] . (U x T_ext[a] x T_cur[b]).

    K[p, a, b] = sum_m h[m, p] gext[m, a, b] carries all the position
    dependence, so after that one GEMM the three contractions are small.
    """
    L, d_h = params.num_labels, params.d_h
    T_ext, T_cur = pre["T_ext"], pre["T_cur"]
    K = (h_all.T @ gext.reshape(len(h_all), -1)).reshape(d_h, L + 1, L)
    g = {"u_dense": np.matmul(T_ext.T, K) @ T_cur,
         "label_embeddings": np.matmul(K, pre["UT"].transpose(0, 2, 1)).sum(axis=0)}
    TU = np.matmul(T_ext, params.arrays["u_dense"])       # (d_h, L+1, d_t)
    g["label_embeddings"][:L] += np.matmul(K.transpose(0, 2, 1), TU).sum(axis=0)
    return g


def _accumulate_mlp(params, pre, h_all, starts, gext):
    """Pullback of the concat-MLP families, one blocked pass over the
    distinct word inputs of the batch.

    Every score is linear in its lattice gradient and positions with equal
    word input share their activations, so the ext-gradient rows of each
    distinct input are summed first and the pass runs once per distinct
    row; the word gradient of `mlp_w1` is then S_w' X over the distinct
    rows.  Real previous labels read the (L, L) block of the stacked ext
    gradient (zero at each sequence's first position); the BOS row of the
    first positions gets its own, smaller pass over the distinct inputs
    among them.
    """
    L = params.num_labels
    X, inverse = _mlp_words(params, h_all, starts)
    Zw = X @ pre["w1_words"].T
    w2 = params.arrays["mlp_w2"][0]
    g_w2, S_w, S_cur = _mlp_pullback(
        Zw, pre["Z_cur"], w2, _group_sums(gext[:, :L], inverse, len(X)).reshape(len(X), L * L))
    bos_rows, bos_inverse = np.unique(inverse[starts], return_inverse=True)
    g_bos, S_w_bos, S_bos = _mlp_pullback(
        Zw[bos_rows], pre["Z_bos"], w2, _group_sums(gext[starts, L], bos_inverse, len(bos_rows)))
    S_w[bos_rows] += S_w_bos
    S_w *= w2
    S_cur = S_cur.reshape(L, L, -1)
    Sa = np.vstack([S_cur.sum(axis=1), S_bos.sum(axis=0)[None]]) * w2   # (L+1, H)
    Sb = (S_cur.sum(axis=0) + S_bos) * w2                                # (L, H)
    g = {"mlp_w2": (g_w2 + g_bos)[None],
         "mlp_b1": Sb.sum(axis=0),
         "mlp_w1": np.hstack([S_w.T @ X, Sa.T @ pre["T_ext"], Sb.T @ pre["T_cur"]]),
         "label_embeddings": Sa @ pre["w1_prev_label"]}
    g["label_embeddings"][:L] += Sb @ pre["w1_cur_label"]
    return g


def backprop_lattices(params: ModelParams, reps_list, lat_grads) -> dict:
    """Sum of lattice-gradient pullbacks over a batch of sequences.

    Returns {field: gradient} for the family's fields in FAMILY_FIELDS
    order, where each gradient is
    sum_i sum_{m,a,b} lat_grads[i][m,a,b] * d(scores_i[m,a,b]) / d(theta),
    evaluated in closed form.  `lat_grads` is a `LatticeBatch` or a
    sequence of lattice gradients (stacked once).  The sequences are
    stacked along the position axis as in `score_lattices` and their
    lattice gradients lifted into one (N, L+1, L) ext gradient, whose row
    L at each sequence's first position collects the BOS-conditioned
    scores' gradient.  The reduction over sequences is deterministic (stacked,
    position order) so results are reproducible.
    """
    check_inputs(params, reps_list)
    grads = LatticeBatch.of(lat_grads)
    if len(reps_list) != len(grads):
        raise ValueError("got %d sequences but %d gradients" % (len(reps_list), len(grads)))
    if not reps_list:
        return {name: np.zeros_like(a) for name, a in params.param_items()}
    L = params.num_labels
    lengths = [reps.length for reps in reps_list]
    got = (grads.lengths.tolist(), *grads.flat.shape[1:])
    if got != (lengths, L, L):
        raise ValueError("lattice gradient shape: lengths %s of (M, %d, %d) do not match "
                         "lengths %s of (M, %d, %d)" % (*got, lengths, L, L))
    pre = _precompute(params)
    h_all, starts = _stack(reps_list)
    gext = np.zeros((h_all.shape[0], L + 1, L))
    gext[:, :L] = grads.flat
    gext[starts, L] = gext[starts, :L].sum(axis=1)
    gext[starts, :L] = 0.0
    if params.family is Family.TRILINEAR:
        accumulate = _accumulate_trilinear
    elif params.family in MLP_FAMILIES:
        accumulate = _accumulate_mlp
    elif params.family in _FACTOR_COUNT:
        accumulate = _accumulate_decomposed
    else:
        accumulate = _accumulate_additive
    g = accumulate(params, pre, h_all, starts, gext)
    return {name: g[name] for name in FAMILY_FIELDS[params.family]}


def backprop_lattice(params, reps, lat_grad) -> dict:
    """Single-sequence form of `backprop_lattices`."""
    return backprop_lattices(params, [reps], [lat_grad])
