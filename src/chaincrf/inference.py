"""Exact inference over a score lattice.

A lattice is an (M, L, L) float64 array: entry [m, a, b] scores label b
at position m given label a at position m-1.  Position 0 is conditioned
on the synthetic BOS label; by convention its row 0 holds the value used
by every algorithm here (lattices produced by the potentials module fill
all rows of position 0 identically).

Arithmetic is in 64-bit floats.  The forward and Viterbi recursions run
in log space.  The training NLL's marginals come from one backward pass in
probability space: each forward step's exponentials exp(score - max) lie
in [0, 1], with column sums in [1, L] where the column is not all -inf, so
the pass neither overflows nor divides by a small number.

Batches.  A `LatticeBatch` stacks a batch's lattices in one (N, L, L)
buffer.  The batched recursions read it time-major (sequences longest
first, step m reads position m of each one longer than m) into stacked
(N, L) messages and (N, L, L) gradients; nothing is padded.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .linalg import log_sum_exp, log_sum_exp_over_rows


@dataclass
class DecodeResult:
    labels: list
    score: float


def _check_lattice(lat) -> np.ndarray:
    lat = np.asarray(lat, dtype=np.float64)
    if lat.ndim != 3 or lat.shape[1] != lat.shape[2] or lat.shape[0] < 1:
        raise ValueError("lattice must have shape (M, L, L), got %r" % (lat.shape,))
    return lat


def _forward(lat):
    """Log-space forward messages alpha[m, b], BOS handled at position 0."""
    M, L, _ = lat.shape
    alpha = np.empty((M, L))
    alpha[0] = lat[0, 0]
    for m in range(1, M):
        alpha[m] = log_sum_exp_over_rows(alpha[m - 1][:, None] + lat[m])
    return alpha


def _backward(lat):
    """Log-space backward messages beta[m, a]."""
    M, L, _ = lat.shape
    beta = np.empty((M, L))
    beta[M - 1] = 0.0
    for m in range(M - 2, -1, -1):
        beta[m] = log_sum_exp_over_rows((lat[m + 1] + beta[m + 1][None, :]).T)
    return beta


def log_partition(lat) -> float:
    """log of the sum of exp path scores over all label sequences."""
    lat = _check_lattice(lat)
    return log_sum_exp(_forward(lat)[-1])


def _marginals_from_messages(lat, alpha, beta, log_z):
    M, L, _ = lat.shape
    p = np.zeros((M, L, L))
    p[0, 0] = np.exp(lat[0, 0] + beta[0] - log_z)
    if M > 1:
        p[1:] = np.exp(alpha[:-1, :, None] + lat[1:] + beta[1:, None, :] - log_z)
    return p


def pairwise_marginals(lat) -> np.ndarray:
    """Posterior P(y_{m-1}=a, y_m=b | x) as an (M, L, L) array.

    At position 0 the previous label is BOS with certainty, so only row 0
    is populated there; every position sums to one.
    """
    lat = _check_lattice(lat)
    alpha = _forward(lat)
    beta = _backward(lat)
    return _marginals_from_messages(lat, alpha, beta, log_sum_exp(alpha[-1]))


class BadBestScore(ValueError):
    """A best path `score` is NaN or +inf, as a NaN or +inf anywhere in the
    lattice makes it; `k`, its sequence's index in a batch, names the
    lattice in the message when given."""

    def __init__(self, score, k=None):
        self.score = score
        self.k = k
        name = "the lattice" if k is None else "sequence %d of the batch" % k
        super().__init__("best path score of %s is %s: its scores hold NaN or +inf"
                         " (overflowed potentials?)" % (name, score))


def _check_best(score, k=None) -> float:
    """`score`, a best path score, unless it is NaN or +inf: then
    BadBestScore.  -inf (every path masked) passes."""
    if math.isnan(score) or score == math.inf:
        raise BadBestScore(score, k)
    return score


def viterbi(lat) -> DecodeResult:
    """Highest-scoring label path.

    Ties are broken toward the lower label index at every backtrack step
    (argmax returns the first maximizer), so output is deterministic.
    Raises ValueError if the best score is NaN or +inf.
    """
    lat = _check_lattice(lat)
    M, L, _ = lat.shape
    best = lat[0, 0].copy()
    back = np.zeros((M, L), dtype=np.int64)
    for m in range(1, M):
        cand = best[:, None] + lat[m]
        back[m] = np.argmax(cand, axis=0)
        best = np.take_along_axis(cand, back[m][None, :], axis=0)[0]
    last = int(np.argmax(best))
    labels = [0] * M
    labels[M - 1] = last
    for m in range(M - 1, 0, -1):
        labels[m - 1] = int(back[m, labels[m]])
    return DecodeResult(labels=labels, score=_check_best(float(best[last])))


def path_score(lat, labels) -> float:
    """Sum of lattice entries along a label path (row 0 at position 0)."""
    lat = _check_lattice(lat)
    s = lat[0, 0, labels[0]]
    for m in range(1, lat.shape[0]):
        s = s + lat[m, labels[m - 1], labels[m]]
    return float(s)


def _check_gold(lat, gold):
    M, L, _ = lat.shape
    if len(gold) != M:
        raise ValueError("gold path length %d does not match lattice length %d" % (len(gold), M))
    for y in gold:
        if isinstance(y, bool) or not isinstance(y, (int, np.integer)):
            raise ValueError("label index %r is not an integer" % (y,))
        if not 0 <= y < L:
            raise ValueError("invalid label index %r for %d labels" % (y, L))


def _check_golds(batch, golds) -> np.ndarray:
    """The labels of `golds` (lists) concatenated as one int64 array, after
    one check of their lengths, types and range over the whole batch; the
    per-label `_check_gold` runs only when it fails, to name what is wrong."""
    labels = list(chain.from_iterable(golds))
    integer = all(issubclass(t, (int, np.integer)) and not issubclass(t, bool)
                  for t in set(map(type, labels)))
    if (not np.array_equal([len(g) for g in golds], batch.lengths) or not integer
            or labels and not 0 <= min(labels) <= max(labels) < batch.flat.shape[1]):
        for lat, gold in zip(batch, golds):
            _check_gold(lat, gold)
    return np.array(labels, dtype=np.int64)


def nll_and_grad(lat, gold):
    """Negative log-likelihood of `gold` and its (M, L, L) lattice gradient:
    `nll_and_grad_stacked` of a batch of one.

    The gradient is pairwise marginals minus the gold indicator, the
    expected-minus-observed sufficient statistics of the path
    distribution.
    """
    losses, grads = nll_and_grad_stacked([lat], [gold])
    return losses[0], grads.flat


def decode_softmax(lat) -> DecodeResult:
    """Position-independent argmax decode for softmax-family lattices.

    Assumes every row of a position carries the same scores, which holds
    for lattices built by the softmax family; then the result equals
    viterbi's, and raises as viterbi does.
    """
    lat = _check_lattice(lat)
    labels = [int(k) for k in np.argmax(lat[:, 0, :], axis=1)]
    return DecodeResult(labels=labels, score=_check_best(path_score(lat, labels)))


# ---------------------------------------------------------------------------
# batched forms
# ---------------------------------------------------------------------------

# Cells (sequences x positions x L x L) of one block of `cell_blocks`:
# 2**21 float64 cells are 16 MB.  Scoring and decoding a file one block at
# a time keeps it from holding all of its lattices at once.
CHUNK_CELLS = 1 << 21


def cell_blocks(lengths, num_labels, budget=None) -> list:
    """(lo, hi) bounds of the blocks of a batch of sequences of `lengths`:
    runs of whole sequences with at most `budget` (default CHUNK_CELLS)
    lattice cells, cut greedily in input order (a larger sequence is a
    block of its own)."""
    budget = CHUNK_CELLS if budget is None else budget
    blocks, lo, cells = [], 0, 0
    for i, m in enumerate(lengths):
        if i > lo and cells + m * num_labels * num_labels > budget:
            blocks.append((lo, i))
            lo, cells = i, 0
        cells += m * num_labels * num_labels
    return blocks + [(lo, len(lengths))] if lengths else []


class LatticeBatch(Sequence):
    """Lattices of one L stacked along the position axis: `flat` (N, L, L),
    the sequences' `lengths` and `starts`, their first rows in `flat`.  A
    read-only sequence of per-sequence views: batch[k] is the k-th
    (M, L, L) lattice, and a slice is a list of them."""

    def __init__(self, flat, lengths):
        self.flat = flat
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths
        if (self.lengths < 1).any() or self.lengths.sum() != len(flat):
            raise ValueError("lattice lengths %s are not positive lengths of the %d stacked rows"
                             % (self.lengths.tolist(), len(flat)))

    @classmethod
    def of(cls, lattices) -> "LatticeBatch":
        """`lattices` itself if it is a batch; else its lattices, validated
        (shape (M, L, L), one L) and stacked once."""
        if isinstance(lattices, cls):
            return lattices
        lats = [_check_lattice(lat) for lat in lattices]
        for lat in lats[1:]:
            if lat.shape[1] != lats[0].shape[1]:
                raise ValueError("lattices in one batch must share L, got %d and %d"
                                 % (lats[0].shape[1], lat.shape[1]))
        return cls(np.concatenate(lats) if lats else np.empty((0, 0, 0)),
                   [lat.shape[0] for lat in lats])

    def __len__(self):
        return len(self.lengths)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return self.flat[self.starts[k]: self.starts[k] + self.lengths[k]]


def _time_major(batch):
    """The sequences longest first (stable), their first rows, and active[m],
    how many are longer than m: step m reads rows first[:active[m]] + m."""
    order = np.argsort(-batch.lengths, kind="stable")
    lengths = batch.lengths[order]
    return order, batch.starts[order], (lengths[:, None] > np.arange(lengths[0])).sum(axis=0)


def viterbi_batch(lattices) -> list:
    """`viterbi` of every lattice in a batch, bit-identical to it.

    Takes a `LatticeBatch`, read in place, or lattices of one L, stacked
    once.  Raises ValueError naming the first sequence whose best score is
    NaN or +inf.
    """
    batch = LatticeBatch.of(lattices)
    if not len(batch):
        return []
    flat = batch.flat
    order, first, active = _time_major(batch)
    best = flat[first, 0]
    # back pointers in the smallest unsigned type that holds L - 1
    back = np.empty(flat.shape[:2], dtype=np.min_scalar_type(flat.shape[1] - 1))
    for m, n in enumerate(active[1:], 1):
        rows = first[:n] + m
        cand = flat[rows]
        np.add(best[:n, :, None], cand, out=cand)
        back[rows] = arg = np.argmax(cand, axis=1)
        best[:n] = np.take_along_axis(cand, arg[:, None, :], axis=1)[:, 0]
    last = np.argmax(best, axis=1)
    labels = np.empty(len(flat), dtype=np.int64)
    labels[first + batch.lengths[order] - 1] = last
    for m in range(len(active) - 1, 0, -1):
        rows = first[:active[m]] + m
        labels[rows - 1] = back[rows, labels[rows]]
    score = np.empty(len(batch))
    score[order] = best[np.arange(len(batch)), last]
    return [DecodeResult(labels=labels[s: s + m].tolist(), score=_check_best(float(v), k))
            for k, (s, m, v) in enumerate(zip(batch.starts, batch.lengths, score))]


def nll_and_grad_stacked(lattices, golds):
    """(losses, gradients) of a batch: the losses as one array and the
    gradients as one `LatticeBatch`, stacked as the lattices are.

    Takes lattices as `viterbi_batch` does.  The gold paths are checked
    once for the batch: a length that is not its lattice's, or a label
    that is not an integer (a bool is not) in range(L), raises ValueError
    naming the first one.

    One log-space forward sweep gives the losses.  The marginals come from
    one backward pass in probability space over the forward sweep's
    exponentials (forward filtering, backward smoothing: Rabiner 1989;
    Sutton & McCallum 2012, section 4.1).
    """
    batch = LatticeBatch.of(lattices)
    golds = [list(g) for g in golds]
    if len(golds) != len(batch):
        raise ValueError("got %d lattices but %d gold paths" % (len(batch), len(golds)))
    labels = _check_golds(batch, golds)
    if not golds:
        return np.empty(0), LatticeBatch(np.zeros_like(batch.flat), [])
    flat = batch.flat
    order, first, active = _time_major(batch)
    # gold transitions as (stacked row, previous, label) indices; the gold
    # path scores are summed in position order along the forward sweep
    prev = np.roll(labels, 1)
    prev[batch.starts] = 0
    gold_at = (np.arange(len(flat)), prev, labels)
    gold_entries = flat[gold_at]
    path = gold_entries[first]
    # step m keeps e = exp(alpha[m - 1] + lat - max) in its rows of `grad`
    # and their column sums in `s`: alpha[m] = max + log(s), computed as
    # `log_sum_exp_over_rows` computes it, so the losses are its losses
    grad = np.empty_like(flat)
    s = np.empty(flat.shape[:2])
    alpha = np.empty(flat.shape[:2])
    alpha[first] = flat[first, 0]
    for m, n in enumerate(active[1:], 1):
        rows = first[:n] + m
        cand = flat[rows]
        np.add(alpha[rows - 1][:, :, None], cand, out=cand)
        top = cand.max(axis=1, keepdims=True)
        finite = np.isfinite(top)
        safe = np.where(finite, top, 0.0)
        cand -= safe
        grad[rows] = np.exp(cand, out=cand)
        s[rows] = total = cand.sum(axis=1)
        with np.errstate(divide="ignore"):
            alpha[rows] = np.where(finite, safe + np.log(total[:, None]), top)[:, 0]
        path[:n] += gold_entries[rows]
    last = first + batch.lengths[order] - 1
    log_z = log_sum_exp_over_rows(alpha[last], axis=1)
    loss = np.empty(len(batch))
    loss[order] = log_z - path
    # node marginals mu, last positions first.  A step's pairwise marginals
    # are e * nu with nu = mu / s (0 where s is 0: a column of -inf scores),
    # and mu one position back is their row sum e . nu
    mu = np.empty(flat.shape[:2])
    mu[last] = np.exp(alpha[last] - log_z[:, None])
    nu = np.zeros(flat.shape[:2])
    for m in range(len(active) - 1, 0, -1):
        rows = first[:active[m]] + m
        s_m = s[rows]
        nu[rows] = nu_m = np.divide(mu[rows], s_m, out=np.zeros_like(s_m), where=s_m != 0.0)
        mu[rows - 1] = np.einsum("nab,nb->na", grad[rows], nu_m)
    grad[first] = 0.0
    grad *= nu[:, None, :]
    grad[first, 0] = mu[first]
    grad[gold_at] -= 1.0
    return loss, LatticeBatch(grad, batch.lengths)
