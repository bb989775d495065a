"""Minibatch SGD with L2 regularization and patience-based early stopping.

Training is deterministic for a fixed (config, data, seed): parameters
are initialized from the seed, each epoch shuffles with an epoch-derived
generator, and gradients are reduced in sequence order even when a
thread pool computes them.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataio import (
    SCHEME_PLAIN,
    EmbeddingTable,
    build_label_vocab,
    sequence_to_reps,
)
from .evaluation import span_f1
# perfbench's tracer wraps `nll_and_grad` and `viterbi` in this module's
# namespace, so they stay imported although nothing here calls them.
from .inference import (  # noqa: F401
    decode_softmax,
    nll_and_grad,
    nll_and_grad_batch,
    viterbi,
    viterbi_batch,
)
from .linalg import make_rng
from .potentials import Family, backprop_lattices, init_params, score_lattices

METRIC_AUTO = "auto"
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
    threads: int = 1
    metric: str = METRIC_AUTO
    target_dev_metric: float | None = None

    def __post_init__(self):
        self.family = Family(self.family)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise ValueError("subsample_fraction must be in (0, 1]")


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
        def emit(fh):
            fh.write("epoch,train_loss,dev_metric,seconds\n")
            for r in self.epochs:
                fh.write("%d,%r,%r,%r\n" % (r.epoch, r.train_loss, r.dev_metric, r.seconds))

        if hasattr(target, "write"):
            emit(target)
        else:
            with open(target, "w", encoding="utf-8") as fh:
                emit(fh)


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


def _as_provider(reps_provider):
    if isinstance(reps_provider, EmbeddingTable):
        table = reps_provider
        return lambda seq: sequence_to_reps(seq, table)
    return reps_provider


def decode_paths(params, lattices):
    if params.family is Family.SOFTMAX:
        return [decode_softmax(lat).labels for lat in lattices]
    return [res.labels for res in viterbi_batch(lattices)]


def evaluate_model(params, seqs, reps_list, vocab, metric):
    """Dev metric of `params` on labeled sequences with cached reps."""
    lattices = score_lattices(params, reps_list)
    pred = [[vocab.labels[k] for k in path] for path in decode_paths(params, lattices)]
    gold = [seq.labels for seq in seqs]
    result = span_f1(gold, pred, scheme=vocab.scheme)
    return result.f1 if metric == METRIC_SPAN_F1 else result.token_accuracy


def train(config: TrainConfig, train_set, dev_set, reps_provider,
          vocab=None, verbose=False, log=print):
    """Train one model; returns (best parameters, report).

    Per minibatch the lattice gradients of every sequence are pulled back
    onto the parameters, averaged over the batch, and applied together
    with the L2 term as theta <- theta - lr * (grad + l2 * theta).  The
    dev metric is evaluated every epoch and the parameters of the best
    epoch are returned; with an empty dev set training runs to
    max_epochs and returns the final parameters.
    """
    train_set = list(train_set)
    if not train_set:
        raise ValueError("empty training data")
    if config.subsample_fraction < 1.0:
        train_set = subsample(train_set, config.subsample_fraction, config.seed)
    provider = _as_provider(reps_provider)
    if vocab is None:
        vocab = build_label_vocab(train_set)
    metric = config.metric
    if metric == METRIC_AUTO:
        metric = METRIC_TOKEN_ACCURACY if vocab.scheme == SCHEME_PLAIN else METRIC_SPAN_F1

    reps = [provider(seq) for seq in train_set]
    gold = [vocab.indices(seq.labels) for seq in train_set]
    dev_set = list(dev_set) if dev_set is not None else []
    dev_reps = [provider(seq) for seq in dev_set]
    for seq in dev_set:
        vocab.indices(seq.labels)   # unseen dev labels fail loudly here

    params = init_params(
        config.family, vocab.size, reps[0].d_h, seed=config.seed,
        d_t=config.d_t, d_r=config.d_r, mlp_hidden=config.mlp_hidden,
    )
    report = TrainReport(metric_name=metric)
    best_params = params.copy()
    best_metric = -math.inf
    since_best = 0
    n = len(train_set)
    pool = ThreadPoolExecutor(config.threads) if config.threads > 1 else None
    try:
        for epoch in range(config.max_epochs):
            t0 = time.perf_counter()
            order = _epoch_rng(config.seed, epoch).permutation(n)
            lr = config.learning_rate * (config.lr_decay ** epoch)
            total_loss = 0.0
            for lo in range(0, n, config.batch_size):
                batch = order[lo: lo + config.batch_size]
                batch_reps = [reps[k] for k in batch]
                try:
                    lattices = score_lattices(params, batch_reps)
                except ValueError as exc:
                    if "non-finite parameter" in str(exc):
                        raise ValueError("training diverged") from None
                    raise
                batch_gold = [gold[k] for k in batch]
                if pool is not None:
                    # `threads` contiguous slices, joined in batch order
                    cuts = [len(batch) * t // config.threads
                            for t in range(config.threads + 1)]
                    parts = pool.map(
                        lambda lo, hi: nll_and_grad_batch(lattices[lo:hi], batch_gold[lo:hi]),
                        cuts[:-1], cuts[1:])
                    results = [r for part in parts for r in part]
                else:
                    results = nll_and_grad_batch(lattices, batch_gold)
                losses = [r[0] for r in results]
                if not np.isfinite(sum(losses)):
                    raise ValueError("training diverged")
                total_loss += sum(losses)
                grad = backprop_lattices(params, batch_reps, [r[1] for r in results])
                grad.scale(1.0 / len(batch))
                if config.grad_clip > 0.0:
                    norm = grad.norm()
                    if norm > config.grad_clip:
                        grad.scale(config.grad_clip / norm)
                for name, arr in params.param_items():
                    arr -= lr * (grad.arrays[name] + config.l2 * arr)
            mean_loss = total_loss / n
            if not np.isfinite(mean_loss) or any(
                not np.all(np.isfinite(arr)) for _, arr in params.param_items()
            ):
                raise ValueError("training diverged")
            dev_metric = (
                evaluate_model(params, dev_set, dev_reps, vocab, metric)
                if dev_set else float("nan")
            )
            rec = EpochRecord(epoch=epoch, train_loss=mean_loss,
                              dev_metric=dev_metric,
                              seconds=time.perf_counter() - t0)
            report.epochs.append(rec)
            if verbose:
                log(report.line(rec))
            if dev_set:
                if dev_metric > best_metric:
                    best_metric = dev_metric
                    best_params = params.copy()
                    report.best_epoch = epoch
                    since_best = 0
                else:
                    since_best += 1
                if config.target_dev_metric is not None and dev_metric >= config.target_dev_metric:
                    break
                if since_best >= config.patience:
                    break
    finally:
        if pool is not None:
            pool.shutdown()
    if not dev_set:
        best_params = params
        report.best_epoch = len(report.epochs) - 1
        report.best_dev_f1 = float("nan")
    else:
        report.best_dev_f1 = best_metric
    return best_params, report
