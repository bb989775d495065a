"""Exact inference over a score lattice.

A lattice is an (M, L, L) float64 array: entry [m, a, b] scores label b
at position m given label a at position m-1.  Position 0 is conditioned
on the synthetic BOS label; by convention its row 0 holds the value used
by every algorithm here (lattices produced by the potentials module fill
all rows of position 0 identically).

All recursions run in log space with 64-bit floats.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def viterbi(lat) -> DecodeResult:
    """Highest-scoring label path.

    Ties are broken toward the lower label index at every backtrack step
    (argmax returns the first maximizer), so output is deterministic.
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
    return DecodeResult(labels=labels, score=float(best[last]))


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


def nll_and_grad(lat, gold):
    """Negative log-likelihood of `gold` and its lattice gradient.

    The gradient is pairwise marginals minus the gold indicator, the
    expected-minus-observed sufficient statistics of the path
    distribution.
    """
    lat = _check_lattice(lat)
    gold = list(gold)
    _check_gold(lat, gold)
    alpha = _forward(lat)
    beta = _backward(lat)
    log_z = log_sum_exp(alpha[-1])
    grad = _marginals_from_messages(lat, alpha, beta, log_z)
    grad[0, 0, gold[0]] -= 1.0
    for m in range(1, len(gold)):
        grad[m, gold[m - 1], gold[m]] -= 1.0
    return log_z - path_score(lat, gold), grad


def decode_softmax(lat) -> DecodeResult:
    """Position-independent argmax decode for softmax-family lattices.

    Assumes every row of a position carries the same scores, which holds
    for lattices built by the softmax family; then the result equals
    viterbi's.
    """
    lat = _check_lattice(lat)
    labels = [int(k) for k in np.argmax(lat[:, 0, :], axis=1)]
    return DecodeResult(labels=labels, score=path_score(lat, labels))


# ---------------------------------------------------------------------------
# batched forms
# ---------------------------------------------------------------------------

# Cells (sequences x positions x L x L) of one chunk's zero-padded lattice
# buffer and of one block of `cell_blocks`: 2**21 float64 cells are 16 MB.
# The bound keeps a whole file from holding a second copy of its lattices.
CHUNK_CELLS = 1 << 21


def cell_blocks(lengths, num_labels) -> list:
    """(lo, hi) bounds of the blocks of a batch of sequences of `lengths`:
    runs of whole sequences with at most CHUNK_CELLS lattice cells, cut
    greedily in input order (a larger sequence is a block of its own)."""
    blocks, lo, cells = [], 0, 0
    for i, m in enumerate(lengths):
        if i > lo and cells + m * num_labels * num_labels > CHUNK_CELLS:
            blocks.append((lo, i))
            lo, cells = i, 0
        cells += m * num_labels * num_labels
    return blocks + [(lo, len(lengths))] if lengths else []


def _check_batch(lattices) -> list:
    lats = [_check_lattice(lat) for lat in lattices]
    for lat in lats[1:]:
        if lat.shape[1] != lats[0].shape[1]:
            raise ValueError("lattices in one batch must share L, got %d and %d"
                             % (lats[0].shape[1], lat.shape[1]))
    return lats


def _chunks(lats):
    """Length-sorted, zero-padded chunks of a batch.

    Yields (idx, buf, lengths, active): indices into `lats`, longest
    sequence first (stable); their (B, M_max, L, L) buffer of at most
    CHUNK_CELLS cells (a sequence larger than that is a chunk of its own);
    their lengths; and active[m], the number of them longer than m.
    """
    order = sorted(range(len(lats)), key=lambda i: -lats[i].shape[0])
    lo = 0
    while lo < len(order):
        M, L, _ = lats[order[lo]].shape
        idx = order[lo: lo + max(1, CHUNK_CELLS // (M * L * L))]
        lo += len(idx)
        lengths = np.array([lats[i].shape[0] for i in idx])
        buf = np.zeros((len(idx), M, L, L))
        for k, i in enumerate(idx):
            buf[k, :lengths[k]] = lats[i]
        active = (lengths[:, None] > np.arange(M)).sum(axis=0)
        yield idx, buf, lengths, active


def viterbi_batch(lattices) -> list:
    """`viterbi` of every lattice in a batch, bit-identical to it.

    Lattices may differ in length but must share L.  The recursion runs
    time-major over length-sorted, zero-padded chunks; at step m only the
    sequences longer than m take part, so padding never enters the
    arithmetic.
    """
    lats = _check_batch(lattices)
    out = [None] * len(lats)
    for idx, lat, lengths, active in _chunks(lats):
        B, T, L, _ = lat.shape
        best = lat[:, 0, 0].copy()
        back = np.zeros((B, T, L), dtype=np.int64)
        for m in range(1, T):
            n = active[m]
            cand = best[:n, :, None] + lat[:n, m]
            back[:n, m] = np.argmax(cand, axis=1)
            best[:n] = np.take_along_axis(cand, back[:n, m][:, None, :], axis=1)[:, 0]
        rows = np.arange(B)
        last = np.argmax(best, axis=1)
        labels = np.zeros((B, T), dtype=np.int64)
        labels[rows, lengths - 1] = last
        for m in range(T - 1, 0, -1):
            n = active[m]
            labels[:n, m - 1] = back[rows[:n], m, labels[:n, m]]
        score = best[rows, last]
        for k, i in enumerate(idx):
            out[i] = DecodeResult(labels=labels[k, :lengths[k]].tolist(),
                                  score=float(score[k]))
    return out


def nll_and_grad_batch(lattices, golds) -> list:
    """`nll_and_grad` of every (lattice, gold) pair, bit-identical to it.

    Returns a list of (loss, gradient) in batch order; each gradient is
    a view into its chunk's buffer.  Lattices may differ in length but
    must share L; inputs are validated as `nll_and_grad` validates them.
    The forward, backward and marginal recursions run time-major over
    length-sorted, zero-padded chunks, as in `viterbi_batch`.
    """
    lats = _check_batch(lattices)
    golds = [list(g) for g in golds]
    if len(golds) != len(lats):
        raise ValueError("got %d lattices but %d gold paths" % (len(lats), len(golds)))
    for lat, gold in zip(lats, golds):
        _check_gold(lat, gold)
    out = [None] * len(lats)
    for idx, lat, lengths, active in _chunks(lats):
        B, T, L, _ = lat.shape
        rows = np.arange(B)
        alpha = np.empty((B, T, L))
        alpha[:, 0] = lat[:, 0, 0]
        for m in range(1, T):
            n = active[m]
            alpha[:n, m] = log_sum_exp_over_rows(alpha[:n, m - 1, :, None] + lat[:n, m], axis=1)
        beta = np.zeros((B, T, L))
        for m in range(T - 2, -1, -1):
            n = active[m + 1]
            beta[:n, m] = log_sum_exp_over_rows(lat[:n, m + 1] + beta[:n, m + 1, None, :], axis=2)
        log_z = log_sum_exp_over_rows(alpha[rows, lengths - 1], axis=1)

        grad = np.zeros((B, T, L, L))
        grad[:, 0, 0] = np.exp(lat[:, 0, 0] + beta[:, 0] - log_z[:, None])
        for m in range(1, T):
            n = active[m]
            grad[:n, m] = np.exp(alpha[:n, m - 1, :, None] + lat[:n, m]
                                 + beta[:n, m, None, :] - log_z[:n, None, None])
        # gold transitions as flat (sequence, position, previous, label) indices
        seq, pos = np.nonzero(np.arange(T) < lengths[:, None])
        cur = np.concatenate([golds[i] for i in idx]).astype(np.int64)
        prev = np.concatenate([[0] + golds[i][:-1] for i in idx]).astype(np.int64)
        gold_entries = np.zeros((B, T))
        gold_entries[seq, pos] = lat[seq, pos, prev, cur]
        grad[seq, pos, prev, cur] -= 1.0
        path = gold_entries[:, 0].copy()
        for m in range(1, T):
            n = active[m]
            path[:n] = path[:n] + gold_entries[:n, m]
        for k, i in enumerate(idx):
            out[i] = (float(log_z[k]) - float(path[k]), grad[k, :lengths[k]])
    return out
