"""Minibatch SGD with L2 regularization and patience-based early stopping.

Training is deterministic for a fixed (config, data, seed): parameters
are initialized from the seed, each epoch shuffles with an epoch-derived
generator, and each minibatch takes one `train_step`.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .dataio import (
    SCHEME_PLAIN,
    EmbeddingTable,
    build_label_vocab,
    open_text,
    sequence_to_reps,
)
from .evaluation import span_f1
# perfbench's tracer wraps `nll_and_grad` and `viterbi` in this module's
# namespace, so they stay imported although nothing here calls them.
from .inference import (  # noqa: F401
    BadBestScore,
    cell_blocks,
    decode_softmax,
    nll_and_grad,
    nll_and_grad_stacked,
    viterbi,
    viterbi_batch,
)
from .linalg import make_rng
from .potentials import (
    Family,
    backprop_lattices,
    block_scorer,
    check_inputs,
    init_params,
    score_lattices,
)

METRIC_SPAN_F1 = "span_f1"
METRIC_TOKEN_ACCURACY = "token_accuracy"


@dataclass
class TrainConfig:
    family: Family | str = Family.D_QUADRILINEAR
    learning_rate: float = 0.1
    batch_size: int = 32
    l2: float = 1e-8
    max_epochs: int = 300
    patience: int = 10
    d_t: int = 100
    d_r: int = 128
    mlp_hidden: int = 128
    seed: int = 1
    subsample_fraction: float = 1.0
    lr_decay: float = 1.0       # per-epoch multiplicative factor; 1.0 = constant
    grad_clip: float = 0.0      # max L2 norm of the batch gradient; 0 = off
    # inert (the MLP blocks run on one thread per CPU whatever it says);
    # it stays, accepting only 1, while perfbench passes threads=1
    # (ROADMAP item 1 removes both)
    threads: int = 1
    target_dev_metric: float | None = None

    # the integer and real fields, which `__post_init__` checks and the
    # command line's configuration parser converts (class attributes, not fields)
    INT_FIELDS = ("batch_size", "max_epochs", "patience", "d_t", "d_r", "mlp_hidden", "seed",
                  "threads")
    REAL_FIELDS = ("learning_rate", "lr_decay", "l2", "grad_clip", "subsample_fraction",
                   "target_dev_metric")

    def __post_init__(self):
        self.family = Family.from_name(self.family)
        for name in self.INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError("%s must be an integer, got %r" % (name, value))
        for name in self.REAL_FIELDS:
            value = getattr(self, name)
            if value is None and name == "target_dev_metric":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError("%s must be a real number, got %r" % (name, value))
            if name != "subsample_fraction" and not math.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (name, value))
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lr_decay <= 0:
            raise ValueError("lr_decay must be positive")
        if self.threads != 1:
            raise ValueError("threads must be 1: the threaded NLL step was removed")
        for name, least in (("batch_size", 1), ("max_epochs", 1), ("patience", 1),
                            ("l2", 0), ("grad_clip", 0)):
            if getattr(self, name) < least:
                raise ValueError("%s must be at least %d, got %r"
                                 % (name, least, getattr(self, name)))
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ValueError("subsample_fraction must be in (0, 1]")


class TrainingDiverged(ValueError):
    """A batch gave a non-finite loss or gradient, or left a parameter
    non-finite.

    `field` names the parameter field, or is None for the loss; `kind` says
    whether that field's "gradient" or "parameter" went non-finite; `epoch`
    and `batch` (the batch's index within the epoch) count from 0, and are
    None when raised by a lone `train_step`.
    """

    def __init__(self, field, epoch, batch, kind="parameter"):
        self.field = field
        self.epoch = epoch
        self.batch = batch
        self.kind = kind
        what = "loss" if field is None else "%s in %s" % (kind, field)
        where = "" if epoch is None else " at epoch %d, batch %d" % (epoch, batch)
        super().__init__("training diverged: non-finite %s%s" % (what, where))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_metric: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    best_dev_f1: float = float("nan")
    metric_name: str = METRIC_SPAN_F1

    def line(self, rec: EpochRecord) -> str:
        return "epoch=%d train_loss=%.6f dev_%s=%.4f seconds=%.2f" % (
            rec.epoch, rec.train_loss, self.metric_name, rec.dev_metric, rec.seconds,
        )

    def to_csv(self, target):
        with open_text(target, "w") as fh:
            fh.write("epoch,train_loss,dev_metric,seconds\n")
            for r in self.epochs:
                fh.write("%d,%r,%r,%r\n" % (r.epoch, r.train_loss, r.dev_metric, r.seconds))


def subsample(train_set, fraction, seed):
    """floor(fraction * N) sequences without replacement, corpus order kept.

    fraction = 1.0 returns the full set unchanged; equal seeds select the
    same subset.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    items = list(train_set)
    if fraction == 1.0:
        return items
    k = int(math.floor(fraction * len(items)))
    idx = sorted(make_rng(seed).choice(len(items), size=k, replace=False))
    return [items[i] for i in idx]


def _epoch_rng(seed, epoch):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)))


def decode_paths(params, lattices):
    """Label paths of a batch of lattices; a NaN or +inf best score raises
    BadBestScore naming its sequence's index in the batch."""
    if params.family is not Family.SOFTMAX:
        return [res.labels for res in viterbi_batch(lattices)]
    paths = []
    for k, lat in enumerate(lattices):
        try:
            paths.append(decode_softmax(lat).labels)
        except BadBestScore as exc:
            raise BadBestScore(exc.score, k) from None
    return paths


def predict_paths(params, reps_list):
    """`decode_paths(params, score_lattices(params, reps_list))`, scored and
    decoded one block of `cell_blocks` at a time: one block's lattices exist
    at once.  Each block is scored in cache-sized parts on every CPU
    (`potentials.block_scorer`), so its lattices can differ from
    `score_lattices`' in the last bits.  A NaN or +inf best score raises
    BadBestScore naming its sequence's index in `reps_list`."""
    check_inputs(params, reps_list)    # names a bad sequence by its index here
    score = block_scorer(params)
    paths = []
    for lo, hi in cell_blocks([reps.length for reps in reps_list], params.num_labels):
        try:
            paths += decode_paths(params, score(reps_list[lo:hi]))
        except BadBestScore as exc:   # named by its index in the block
            raise BadBestScore(exc.score, lo + exc.k) from None
    return paths


def evaluate_model(params, seqs, reps_list, vocab):
    """Dev metric of `params` on labeled sequences with cached reps: token
    accuracy when the vocabulary's scheme is PLAIN, span F1 otherwise; nan
    when the model's scores overflow, so that decoding finds a NaN or +inf
    best score."""
    try:
        paths = predict_paths(params, reps_list)
    except BadBestScore:
        return float("nan")
    pred = [[vocab.labels[k] for k in path] for path in paths]
    gold = [seq.labels for seq in seqs]
    result = span_f1(gold, pred, scheme=vocab.scheme)
    return result.token_accuracy if vocab.scheme == SCHEME_PLAIN else result.f1


SGD_BLOCK = 1 << 15   # elements per step of `sgd_update` (256 KB of float64)


def sgd_update(params, grad, lr, l2):
    """theta <- theta - lr * (grad + l2 * theta) on every field, in place,
    for `grad` a {field: gradient} dict as `backprop_lattices` returns it,
    with the expression's operations in its order (so bit-identical to it)
    but no field-sized temporary: blocks of whole rows of about SGD_BLOCK
    elements share one scratch buffer for `l2 * theta`, and the rest is
    written through the gradient arrays."""
    scratch = np.empty(SGD_BLOCK)
    for name, theta in params.param_items():
        g = grad[name]
        rows = max(1, SGD_BLOCK * theta.shape[0] // theta.size)
        for lo in range(0, theta.shape[0], rows):
            t, gb = theta[lo: lo + rows], g[lo: lo + rows]
            if scratch.size < t.size:   # a single row longer than SGD_BLOCK
                scratch = np.empty(t.size)
            buf = scratch[: t.size].reshape(t.shape)
            np.multiply(l2, t, out=buf)
            np.add(gb, buf, out=gb)
            np.multiply(lr, gb, out=gb)
            np.subtract(t, gb, out=t)


def train_step(params, reps, golds, lr, l2, grad_clip=0.0):
    """One minibatch SGD step on `params`, in place; returns the summed loss.

    Scores the batch, takes each sequence's NLL gradient, pulls them back
    onto the parameters, averages over the batch, rescales the mean to L2
    norm `grad_clip` when it is longer (0 = off) and applies
    theta <- theta - lr * (grad + l2 * theta).  A non-finite loss or mean
    gradient raises TrainingDiverged (without epoch and batch) naming the
    loss or the first non-finite field, with `params` left untouched.
    """
    losses, lat_grads = nll_and_grad_stacked(score_lattices(params, reps), golds)
    loss = sum(losses.tolist())
    if not np.isfinite(loss):
        raise TrainingDiverged(None, None, None)
    grad = backprop_lattices(params, reps, lat_grads)
    for name, g in grad.items():
        g *= 1.0 / len(reps)
        if not np.isfinite(g).all():
            raise TrainingDiverged(name, None, None, kind="gradient")
    if grad_clip > 0.0:
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grad.values()))
        if norm > grad_clip:
            for g in grad.values():
                g *= grad_clip / norm
    sgd_update(params, grad, lr, l2)
    return loss


def train(config: TrainConfig, train_set, dev_set, table: EmbeddingTable,
          vocab=None, verbose=False):
    """Train one model; returns (best parameters, report).

    Each minibatch takes one `train_step`.  The dev metric, token accuracy
    when the vocabulary's scheme is PLAIN and span F1 otherwise, is evaluated
    every epoch and the parameters of the best epoch are returned (the
    initial ones when no epoch's metric beats -inf), kept in one snapshot
    copied over at each improving epoch; with an empty dev set training
    runs to max_epochs and returns the trained parameters, with no copy.
    """
    train_set = list(train_set)
    if not train_set:
        raise ValueError("empty training data")
    if config.subsample_fraction < 1.0:
        corpus = len(train_set)
        train_set = subsample(train_set, config.subsample_fraction, config.seed)
        if not train_set:
            raise ValueError("subsample_fraction %r of %d training sequences selects none"
                             % (config.subsample_fraction, corpus))
    if vocab is None:
        vocab = build_label_vocab(train_set)

    reps = [sequence_to_reps(seq, table) for seq in train_set]
    gold = [vocab.indices(seq.labels) for seq in train_set]
    dev_set = list(dev_set) if dev_set is not None else []
    dev_reps = [sequence_to_reps(seq, table) for seq in dev_set]
    for seq in dev_set:
        vocab.indices(seq.labels)   # unseen dev labels fail loudly here

    params = init_params(
        config.family, vocab.size, reps[0].d_h, seed=config.seed,
        d_t=config.d_t, d_r=config.d_r, mlp_hidden=config.mlp_hidden,
    )
    report = TrainReport(metric_name=METRIC_TOKEN_ACCURACY if vocab.scheme == SCHEME_PLAIN
                         else METRIC_SPAN_F1)
    # the dev set's one snapshot of the best epoch, refreshed in place
    best_params = params.copy() if dev_set else params
    best_metric = -math.inf
    since_best = 0
    n = len(train_set)
    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        order = _epoch_rng(config.seed, epoch).permutation(n)
        lr = config.learning_rate * (config.lr_decay ** epoch)
        total_loss = 0.0
        for b, lo in enumerate(range(0, n, config.batch_size)):
            batch = order[lo: lo + config.batch_size]
            try:
                total_loss += train_step(params, [reps[k] for k in batch],
                                         [gold[k] for k in batch], lr, config.l2, config.grad_clip)
            except TrainingDiverged as exc:
                raise TrainingDiverged(exc.field, epoch, b, exc.kind) from None
            for name, arr in params.param_items():
                if not np.all(np.isfinite(arr)):
                    raise TrainingDiverged(name, epoch, b)
        mean_loss = total_loss / n
        dev_metric = (
            evaluate_model(params, dev_set, dev_reps, vocab)
            if dev_set else float("nan")
        )
        rec = EpochRecord(epoch=epoch, train_loss=mean_loss,
                          dev_metric=dev_metric,
                          seconds=time.perf_counter() - t0)
        report.epochs.append(rec)
        if verbose:
            print(report.line(rec))
        if dev_set:
            if dev_metric > best_metric:
                best_metric = dev_metric
                for name, arr in params.param_items():
                    np.copyto(best_params.arrays[name], arr)
                report.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
            if config.target_dev_metric is not None and dev_metric >= config.target_dev_metric:
                break
            if since_best >= config.patience:
                break
    if not dev_set:
        report.best_epoch = len(report.epochs) - 1
        report.best_dev_f1 = float("nan")
    else:
        report.best_dev_f1 = best_metric
    return best_params, report
