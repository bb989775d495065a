"""Command-line interface: train / tag / eval / gradcheck / bench.

Configuration is a plain key=value text file ('#' at the start of a
line or after whitespace starts a comment); command-line flags override
file values.  Exit codes: 0 success, 2 missing or invalid configuration,
3 corpus alignment failure in eval, 4 gradcheck tolerance exceeded, 1
anything else, such as invalid input data.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
import tracemalloc
from dataclasses import asdict

import numpy as np

from . import dataio
from .dataio import (
    build_label_vocab,
    load_embeddings,
    load_model,
    read_conll,
    save_model,
    sequence_to_reps,
    write_conll,
)
from .evaluation import span_f1, summary_line
from .inference import (
    log_partition,
    nll_and_grad,
    nll_and_grad_stacked,
    pairwise_marginals,
    viterbi,
)
from .linalg import blas_threads, make_rng
from .oracle import (
    brute_force_best_path,
    brute_force_log_partition,
    brute_force_pairwise_marginals,
    finite_diff_grad,
)
from .potentials import (
    Family,
    RepresentationSequence,
    backprop_lattices,
    cpu_count,
    init_params,
    score_lattice,
    score_lattices,
)
from .training import TrainConfig, decode_paths, predict_paths, train, train_step

GRADCHECK_TOLERANCE = 1e-4

_PATH_KEYS = ("train_path", "dev_path", "embeddings_path", "model_path", "output_path")
_STR_KEYS = ("family", "scheme")
_INT_KEYS = tuple(k for k in TrainConfig.INT_FIELDS if k != "threads")
_FLOAT_KEYS = TrainConfig.REAL_FIELDS
CONFIG_KEYS = frozenset(_PATH_KEYS + _STR_KEYS + _INT_KEYS + _FLOAT_KEYS)


# '#' starts a comment only at the start of a line or after whitespace,
# so a value such as a path may contain it
_COMMENT = re.compile(r"(^|\s)#.*")


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict:
    """Parse key=value configuration text; unknown keys are an error."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError("unknown key: %s" % key)
        try:
            if key in _INT_KEYS:
                out[key] = int(value)
            elif key in _FLOAT_KEYS:
                out[key] = float(value)
            else:
                out[key] = value
        except ValueError:
            raise ConfigError("invalid value for %s: %s" % (key, value)) from None
    return out


def dump_config(cfg: dict) -> str:
    """Inverse of `parse_config` (round-trips to an equal dict)."""
    return "".join("%s=%s\n" % (k, cfg[k]) for k in sorted(cfg))


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _require(cfg, *keys):
    for key in keys:
        if key not in cfg or cfg[key] in (None, ""):
            raise ConfigError("missing key: %s" % key)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _apply_scheme(seqs, scheme):
    if scheme == "bioes":
        return [dataio.TokenSequence(tokens=s.tokens, labels=dataio.bio_to_bioes(s.labels))
                for s in seqs]
    return seqs


def cmd_train(args) -> int:
    cfg = load_config_file(args.config) if args.config else {}
    cfg.update((key, value) for key, value in vars(args).items()
               if key in CONFIG_KEYS and value is not None)
    _require(cfg, "train_path", "embeddings_path", "model_path", "family")

    scheme = cfg.get("scheme", "bioes")
    if scheme not in ("bioes", "bio", "plain"):
        raise ConfigError("invalid value for scheme: %s" % scheme)
    fields = {k: cfg[k] for k in cfg if k in TrainConfig.__dataclass_fields__}
    config = TrainConfig(**fields)   # bad values fail before any file is read

    train_set = _apply_scheme(read_conll(cfg["train_path"]), scheme)
    dev_set = (_apply_scheme(read_conll(cfg["dev_path"]), scheme)
               if cfg.get("dev_path") else [])
    table = load_embeddings(cfg["embeddings_path"])
    # the declared `plain` scheme holds whatever the labels look like
    vocab = build_label_vocab(train_set,
                              scheme=dataio.SCHEME_PLAIN if scheme == "plain" else None)
    params, report = train(config, train_set, dev_set, table, vocab=vocab, verbose=True)
    save_model(params, vocab, cfg["model_path"])
    if cfg.get("output_path"):
        report.to_csv(cfg["output_path"])
    print("best_epoch=%d best_dev_%s=%.4f model=%s"
          % (report.best_epoch, report.metric_name, report.best_dev_f1, cfg["model_path"]))
    return 0


# ---------------------------------------------------------------------------
# tag
# ---------------------------------------------------------------------------

def cmd_tag(args) -> int:
    params, vocab = load_model(args.model)
    table = load_embeddings(args.embeddings, expected_dim=params.d_h)
    seqs = read_conll(args.input)
    reps = [sequence_to_reps(seq, table) for seq in seqs]
    del table   # the reps are copies; free the table before any lattice exists
    tagged = []
    for seq, path in zip(seqs, predict_paths(params, reps)):
        tagged.append(dataio.TokenSequence(tokens=seq.tokens,
                                           labels=[vocab.labels[k] for k in path]))
    write_conll(tagged, args.output)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    gold = read_conll(args.gold)
    pred = read_conll(args.pred)
    gold_labels = [s.labels for s in gold]
    pred_labels = [s.labels for s in pred]
    if any(labels is None for labels in gold_labels + pred_labels):
        print("error: unlabeled sentences in input", file=sys.stderr)
        return 3
    scheme = dataio.detect_scheme([lab for s in gold_labels for lab in s])
    try:
        result = span_f1(gold_labels, pred_labels, scheme=scheme)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    print(summary_line(result))
    print(json.dumps(asdict(result)))
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(|a|, |n|, 1e-3); the floor absorbs finite
    difference noise on entries whose true gradient is near zero."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def run_gradcheck(family, num_labels=4, d_h=5, d_t=4, d_r=3, length=5,
                  mlp_hidden=8, seed=0, step=1e-5):
    """Analytic-vs-numeric gradient and brute-force inference checks.

    Returns (per-field max relative errors, inference check errors,
    list of failing field names).
    """
    family = Family.from_name(family) if isinstance(family, str) else family
    params = init_params(family, num_labels, d_h, seed=seed, d_t=d_t, d_r=d_r,
                         mlp_hidden=mlp_hidden)
    rng = make_rng((seed, 1))
    reps = RepresentationSequence.from_array(rng.standard_normal((length, d_h)))
    gold = [int(v) for v in rng.integers(0, num_labels, size=length)]

    lat = score_lattice(params, reps)
    _, lat_grad = nll_and_grad(lat, gold)
    analytic = backprop_lattices(params, [reps], [lat_grad])

    numeric = finite_diff_grad(
        lambda p: nll_and_grad(score_lattice(p, reps), gold)[0], params, step=step
    )
    field_errors = {name: max_relative_error(analytic[name], num)
                    for name, num in numeric.items()}
    failing = [name for name, err in field_errors.items() if not err < GRADCHECK_TOLERANCE]

    log_z = log_partition(lat)
    inference_errors = {
        "log_partition": abs(log_z - brute_force_log_partition(lat)) / max(abs(log_z), 1e-12),
        "marginals": float(np.max(np.abs(
            pairwise_marginals(lat) - brute_force_pairwise_marginals(lat)
        ))),
        "viterbi_path": 0.0 if viterbi(lat).labels == brute_force_best_path(lat).labels else 1.0,
    }
    return field_errors, inference_errors, failing


def cmd_gradcheck(args) -> int:
    families = list(Family) if args.family == "all" else [Family.from_name(args.family)]
    exit_code = 0
    for family in families:
        field_errors, inference_errors, failing = run_gradcheck(
            family, num_labels=args.labels, d_h=args.d_h, d_t=args.d_t,
            d_r=args.d_r, length=args.length, mlp_hidden=args.mlp_hidden,
            seed=args.seed,
        )
        for name, err in field_errors.items():
            print("%s %s max_rel_err=%.3e" % (family.value, name, err))
        for name, err in inference_errors.items():
            print("%s %s err=%.3e" % (family.value, name, err))
        if failing:
            print("%s FAILED fields: %s" % (family.value, ", ".join(failing)), file=sys.stderr)
            exit_code = 4
        if any(err > 1e-9 for err in inference_errors.values()):
            print("%s FAILED inference checks" % family.value, file=sys.stderr)
            exit_code = 4
    return exit_code


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def run_bench(family, num_labels=17, d_h=100, d_t=100, d_r=128, length=30,
              batch=32, reps=10, seed=0, warmup=2):
    """Mean wall time of one training step and of one batch decode, and
    the memory one training step allocates.

    Both run the path `train` and `tag` run: a training step is one
    `training.train_step` on the batch, and decoding scores the batch and
    decodes it with `decode_paths`; its time is reported per sequence.
    `train_step_peak_mb` is the tracemalloc peak (in 10**6 bytes) of one
    more, untimed step.  `nll_ms` is the mean time in milliseconds of the
    step's forward-backward, `nll_and_grad_stacked`, on the batch as the
    initial model scores it.
    """
    for name, value in (("length", length), ("batch", batch), ("reps", reps)):
        if value < 1:
            raise ValueError("%s must be at least 1, got %d" % (name, value))
    family = Family.from_name(family) if isinstance(family, str) else family
    params = init_params(family, num_labels, d_h, seed=seed, d_t=d_t, d_r=d_r)
    rng = make_rng((seed, 2))
    # unit-norm rows, the scale the initialization assumes
    reps_list = [
        RepresentationSequence.from_array(
            rng.standard_normal((length, d_h)) / np.sqrt(d_h)
        )
        for _ in range(batch)
    ]
    golds = [[int(v) for v in rng.integers(0, num_labels, size=length)]
             for _ in range(batch)]

    def one_step():
        train_step(params, reps_list, golds, 0.1, 1e-8)

    def one_decode_pass():
        decode_paths(params, score_lattices(params, reps_list))

    scored = score_lattices(params, reps_list)
    for _ in range(warmup):
        one_step()
        one_decode_pass()
        nll_and_grad_stacked(scored, golds)
    step_times, decode_times, nll_times = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        one_step()
        step_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        one_decode_pass()
        decode_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        nll_and_grad_stacked(scored, golds)
        nll_times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        one_step()
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "family": family.value,
        "train_step_seconds": sum(step_times) / reps,
        "decode_seconds_per_sequence": sum(decode_times) / (reps * batch),
        "train_step_peak_mb": step_peak / 1e6,
        "nll_ms": 1e3 * sum(nll_times) / reps,
    }


def bench_environment():
    """numpy and BLAS versions, nproc, the BLAS thread count and `cpus`,
    the threads of the concat-MLP passes."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 has no dict form
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "nproc": os.cpu_count(),
            "blas_threads": blas_threads(), "cpus": cpu_count()}


def cmd_bench(args) -> int:
    names = [f.value for f in Family] if args.family == "all" else args.family.split(",")
    rows = []
    for name in names:
        rows.append(run_bench(
            name.strip(), num_labels=args.labels, d_h=args.d_h, d_t=args.d_t,
            d_r=args.d_r, length=args.length, batch=args.batch,
            reps=args.reps, seed=args.seed,
        ))
    if args.json:
        settings = {k: getattr(args, k)
                    for k in ("labels", "d_h", "d_t", "d_r", "length", "batch", "reps", "seed")}
        text = json.dumps({"environment": bench_environment(), "settings": settings,
                           "rows": rows}) + "\n"
    else:
        columns = list(rows[0])
        text = "\n".join([",".join(columns)] + [
            ",".join([r["family"]] + [repr(r[c]) for c in columns[1:]])
            for r in rows
        ]) + "\n"
    print(text, end="")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused.
    It holds command names only: `main` looks up each `cmd_<command>` here
    when it runs, so a function put in its place is what runs."""
    parser = argparse.ArgumentParser(prog="chaincrf")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config")
    p.add_argument("--train", dest="train_path")
    p.add_argument("--dev", dest="dev_path")
    p.add_argument("--embeddings", dest="embeddings_path")
    p.add_argument("--model", dest="model_path")
    p.add_argument("--output", dest="output_path")
    p.add_argument("--family")
    p.add_argument("--seed", type=int)
    p.add_argument("--subsample", dest="subsample_fraction", type=float)

    p = sub.add_parser("tag", help="tag a CoNLL file with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("eval", help="span F1 of a prediction file against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)

    p = sub.add_parser("gradcheck", help="verify analytic gradients and inference")
    p.add_argument("--family", default="all")
    p.add_argument("--labels", type=int, default=4)
    p.add_argument("--d-h", dest="d_h", type=int, default=5)
    p.add_argument("--d-t", dest="d_t", type=int, default=4)
    p.add_argument("--d-r", dest="d_r", type=int, default=3)
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--mlp-hidden", dest="mlp_hidden", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="time training steps and decoding")
    p.add_argument("--family", default="vanilla-crf,d-trilinear,d-quadrilinear",
                   help="comma-separated family names, or all")
    p.add_argument("--labels", type=int, default=17)
    p.add_argument("--d-h", dest="d_h", type=int, default=100)
    p.add_argument("--d-t", dest="d_t", type=int, default=100)
    p.add_argument("--d-r", dest="d_r", type=int, default=128)
    p.add_argument("--length", type=int, default=30)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object with the rows and the environment")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
