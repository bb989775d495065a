"""Independent reference implementations and synthetic-data generators.

Everything here is deliberately brute force: path enumeration for the
partition function, best path and pairwise marginals, and per-entry
central finite differences for parameter gradients.  The fast inference
and analytic-gradient code is validated against these, and the CLI
gradcheck command runs them on user-selected configurations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingTable, TokenSequence
from .inference import DecodeResult, _check_lattice
from .linalg import log_sum_exp, make_rng
from .potentials import ModelParams

ENUMERATION_CAP = 10 ** 7


def _all_paths(lat):
    lat = _check_lattice(lat)
    M, L, _ = lat.shape
    if L ** M > ENUMERATION_CAP:
        raise ValueError("instance too large to enumerate: L**M = %d" % (L ** M))
    paths = np.array(list(itertools.product(range(L), repeat=M)), dtype=np.int64)
    scores = lat[0, 0, paths[:, 0]].copy()
    for m in range(1, M):
        scores += lat[m, paths[:, m - 1], paths[:, m]]
    return paths, scores


def brute_force_log_partition(lat) -> float:
    """log sum exp of the scores of every label sequence."""
    _, scores = _all_paths(lat)
    return log_sum_exp(scores)


def brute_force_best_path(lat) -> DecodeResult:
    """Exhaustive argmax with viterbi's tie-break.

    Among equal-scoring paths viterbi keeps the one whose reversed label
    tuple is lexicographically smallest (it minimizes the last label
    first, then earlier ones), so ties are resolved the same way here.
    """
    paths, scores = _all_paths(lat)
    top = scores.max()
    candidates = np.flatnonzero(scores == top)
    best = min(candidates, key=lambda k: paths[k][::-1].tolist())
    return DecodeResult(labels=[int(v) for v in paths[best]], score=float(scores[best]))


def brute_force_pairwise_marginals(lat) -> np.ndarray:
    """Enumeration-weighted pairwise label counts, shape (M, L, L)."""
    paths, scores = _all_paths(lat)
    M, L, _ = lat.shape
    w = np.exp(scores - log_sum_exp(scores))
    p = np.zeros((M, L, L))
    np.add.at(p[0], (np.zeros(len(paths), dtype=np.int64), paths[:, 0]), w)
    for m in range(1, M):
        np.add.at(p[m], (paths[:, m - 1], paths[:, m]), w)
    return p


def finite_diff_grad(f, params: ModelParams, step: float = 1e-5) -> dict:
    """Central finite differences of a scalar function of the parameters,
    as a {field: gradient} dict in FAMILY_FIELDS order.

    Perturbs every populated parameter entry by +-step.  Slow by design;
    meant for small models.
    """
    work = params.copy()
    arrays = {}
    for name, arr in work.param_items():
        grad = np.zeros_like(arr)
        flat, gf = arr.ravel(), grad.ravel()
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + step
            up = f(work)
            flat[k] = saved - step
            down = f(work)
            flat[k] = saved
            gf[k] = (up - down) / (2.0 * step)
        arrays[name] = grad
    return arrays


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Recipe for a synthetic labeled corpus.

    order="first" draws a label path from `transition` and emits a token
    from the label's private slice of the vocabulary, so the gold label
    is a function of the current token alone.  order="second" draws
    tokens uniformly and sets each label from the (previous token,
    current token) class pair, so bigram information is required.

    Token vectors have a constant bias coordinate followed by d_h - 1
    seeded Gaussian coordinates, scaled to unit expected norm overall;
    the default model initialization assumes that scale, and the bias
    coordinate lets product-factor potentials express word-independent
    factors without first solving for one on the vocabulary support.
    """

    num_labels: int = 5
    vocab_size: int = 50
    d_h: int = 51
    order: str = "first"
    transition: np.ndarray | None = None
    min_len: int = 3
    max_len: int = 9
    n_train: int = 2000
    n_dev: int = 200
    n_test: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < self.num_labels:
            raise ValueError("vocab must be at least as large as the label set")
        if self.order not in ("first", "second"):
            raise ValueError("order must be 'first' or 'second'")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("bad sequence-length range")
        if self.d_h < 2:
            raise ValueError("d_h must be at least 2")


def _label_name(k):
    return "L%d" % k


def _token_name(j):
    return "w%d" % j


def generate_synthetic(spec: SyntheticSpec):
    """(train, dev, test, embedding table) for `spec`, fully seeded."""
    rng = make_rng(spec.seed)
    L, V = spec.num_labels, spec.vocab_size
    trans = spec.transition
    if trans is None:
        trans = rng.dirichlet(np.ones(L), size=L)
    tail = rng.standard_normal((V, spec.d_h - 1)) / np.sqrt(spec.d_h - 1)
    vectors = np.hstack([np.ones((V, 1)), tail]) / np.sqrt(2.0)
    table = EmbeddingTable(
        dim=spec.d_h,
        vectors={_token_name(j): vectors[j] for j in range(V)},
        unk=vectors.mean(axis=0),
    )
    pair_table = rng.integers(0, L, size=(L, L))
    tokens_of_label = [[j for j in range(V) if j % L == y] for y in range(L)]

    def sample_sequence():
        n = int(rng.integers(spec.min_len, spec.max_len + 1))
        if spec.order == "first":
            labels = np.empty(n, dtype=np.int64)
            labels[0] = rng.integers(0, L)
            for i in range(1, n):
                labels[i] = rng.choice(L, p=trans[labels[i - 1]])
            toks = [int(rng.choice(tokens_of_label[y])) for y in labels]
        else:
            toks = [int(t) for t in rng.integers(0, V, size=n)]
            classes = [t % L for t in toks]
            labels = [pair_table[0, classes[0]]]
            for i in range(1, n):
                labels.append(pair_table[classes[i - 1], classes[i]])
        return TokenSequence(
            tokens=[_token_name(t) for t in toks],
            labels=[_label_name(int(y)) for y in labels],
        )

    def sample_split(count):
        return [sample_sequence() for _ in range(count)]

    train = sample_split(spec.n_train)
    dev = sample_split(spec.n_dev)
    test = sample_split(spec.n_test)
    return train, dev, test, table
