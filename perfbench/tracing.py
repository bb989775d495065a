"""Spans and counts around chaincrf's public layer functions.

The tracer replaces each traced function in the module namespace its
caller looks it up from (``chaincrf.training.score_lattices``,
``chaincrf.cli.load_embeddings``, ...), so the program itself is not
edited.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

from chaincrf import cli, training
from chaincrf.potentials import Family

FAMILIES = [f.value for f in Family]


def _family_of(args, kwargs):
    return Family(args[0].family).value


def _reps_tokens(reps_list):
    return sum(r.length for r in reps_list)


def _score_counts(args, kwargs, result):
    cells = sum(lat.size for lat in result)
    return {"potentials.score_lattices.calls": 1,
            "potentials.score_lattices.tokens": _reps_tokens(args[1]),
            "potentials.score_lattices.cells": cells,
            "potentials.score_lattices.mb_written": cells * 8 / 1e6}


def _backprop_counts(args, kwargs, result):
    return {"potentials.backprop_lattices.calls": 1,
            "potentials.backprop_lattices.tokens": _reps_tokens(args[1])}


def _positions(name):
    def counts(args, kwargs, result):
        return {name + ".calls": 1, name + ".positions": len(args[0])}
    return counts


def _train_counts(args, kwargs, result):
    config, train_set = args[0], args[1]
    epochs = len(result[1].epochs)
    batches_per_epoch = -(-len(train_set) // config.batch_size)
    return {"training.train.epochs": epochs,
            "training.train.batches": epochs * batches_per_epoch}


def _span_f1_counts(args, kwargs, result):
    return {"evaluation.span_f1.tokens": sum(len(g) for g in args[0])}


def _reps_counts(args, kwargs, result):
    seq, table = args
    exact = sum(1 for tok in seq.tokens if tok in table.vectors)
    lower = sum(1 for tok in seq.tokens
                if tok not in table.vectors and tok.lower() in table.vectors)
    return {"dataio.sequence_to_reps.tokens": len(seq.tokens),
            "dataio.sequence_to_reps.exact": exact,
            "dataio.sequence_to_reps.lowercase": lower,
            "dataio.sequence_to_reps.unk": len(seq.tokens) - exact - lower}


def _load_embeddings_counts(args, kwargs, result):
    return {"dataio.load_embeddings.rows": len(result.vectors),
            "dataio.load_embeddings.bytes": os.path.getsize(args[0])}


def _conll_counts(name, seqs_of):
    def counts(args, kwargs, result):
        return {name + ".tokens": sum(len(s) for s in seqs_of(args, result))}
    return counts


def _cmd_tag_counts(args, kwargs, result):
    return {"cli.cmd_tag.invocations": 1}


# (module, attribute, span name or span-name function, counts function)
TARGETS = [
    (training, "train", "training.train", _train_counts),
    (training, "score_lattices",
     lambda a, k: "potentials.score_lattices." + _family_of(a, k), _score_counts),
    (cli, "score_lattices",
     lambda a, k: "potentials.score_lattices." + _family_of(a, k), _score_counts),
    (training, "backprop_lattices",
     lambda a, k: "potentials.backprop_lattices." + _family_of(a, k), _backprop_counts),
    (training, "nll_and_grad", "inference.nll_and_grad",
     _positions("inference.nll_and_grad")),
    (training, "viterbi", "inference.viterbi", _positions("inference.viterbi")),
    (training, "decode_softmax", "inference.viterbi", _positions("inference.viterbi")),
    (training, "span_f1", "evaluation.span_f1", _span_f1_counts),
    (training, "sequence_to_reps", "dataio.sequence_to_reps", _reps_counts),
    (cli, "sequence_to_reps", "dataio.sequence_to_reps", _reps_counts),
    (cli, "load_embeddings", "dataio.load_embeddings", _load_embeddings_counts),
    (cli, "load_model", "dataio.load_model", None),
    (cli, "read_conll", "dataio.read_conll",
     _conll_counts("dataio.read_conll", lambda a, r: r)),
    (cli, "write_conll", "dataio.write_conll",
     _conll_counts("dataio.write_conll", lambda a, r: a[0])),
    (cli, "cmd_tag", "cli.cmd_tag", _cmd_tag_counts),
]

# Span names whose self time (duration minus child spans) is reported;
# every other layer is a leaf whose total time is reported.
SELF_TIMED = ("training.train", "cli.cmd_tag")

LEAF_SPANS = (["inference.nll_and_grad", "inference.viterbi", "evaluation.span_f1",
               "dataio.load_embeddings", "dataio.load_model", "dataio.read_conll",
               "dataio.sequence_to_reps", "dataio.write_conll"]
              + ["potentials.score_lattices." + f for f in FAMILIES]
              + ["potentials.backprop_lattices." + f for f in FAMILIES])

COUNTS = [
    ("inference.nll_and_grad.calls", "count"),
    ("inference.nll_and_grad.positions", "count"),
    ("inference.viterbi.calls", "count"),
    ("inference.viterbi.positions", "count"),
    ("potentials.score_lattices.calls", "count"),
    ("potentials.score_lattices.tokens", "count"),
    ("potentials.score_lattices.cells", "count"),
    ("potentials.score_lattices.mb_written", "MB"),
    ("potentials.backprop_lattices.calls", "count"),
    ("potentials.backprop_lattices.tokens", "count"),
    ("training.train.epochs", "count"),
    ("training.train.batches", "count"),
    ("evaluation.span_f1.tokens", "count"),
    ("dataio.load_embeddings.rows", "count"),
    ("dataio.load_embeddings.bytes", "bytes"),
    ("dataio.sequence_to_reps.tokens", "count"),
    ("dataio.read_conll.tokens", "count"),
    ("dataio.write_conll.tokens", "count"),
    ("cli.cmd_tag.invocations", "count"),
]

ERROR_NAMES = ["training.train", "potentials.score_lattices",
               "potentials.backprop_lattices", "inference.nll_and_grad",
               "inference.viterbi", "evaluation.span_f1", "dataio.sequence_to_reps",
               "dataio.load_embeddings", "dataio.load_model", "dataio.read_conll",
               "dataio.write_conll", "cli.cmd_tag"]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(n + ".s", "s", "lower") for n in LEAF_SPANS]
    out += [(n + ".self_s", "s", "lower") for n in SELF_TIMED]
    out += [("dataio.load_embeddings.mb_per_s", "MB/s", "higher")]
    for share in ("exact", "lowercase", "unk"):
        out.append(("dataio.sequence_to_reps.%s_share" % share, "fraction", "higher"))
    out += [(n, unit, "higher") for n, unit in COUNTS]
    out += [(n + ".errors", "count", "lower") for n in ERROR_NAMES]
    out += [("evaluation.dev_token_accuracy", "fraction", "higher")]
    out += [("trace.round_s", "s", "lower"),
            ("trace.self_sum_share", "fraction", "higher"),
            ("trace.overhead_share", "fraction", "lower")]
    return out


class Tracer:
    """In-memory spans (name, start, end, parent, op id) and counts."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self._stack = []
        self._op = None
        self._next_op = 0
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def run_op(self, name, fn):
        """Run one benchmark op as a root span with a fresh op id."""
        self._op = self._next_op
        self._next_op += 1
        self._open("op." + name)
        try:
            return fn()
        finally:
            self._close()
            self._op = None

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            self._open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close()
                self.counts[".".join(span.split(".")[:2]) + ".errors"] += 1
                raise
            self._close()
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.counts[key] += value
            return result
        return traced

    def install(self):
        for module, attr, name, counts in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self):
        """Per span name: (total duration, self time) summed over spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0])
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start
            out[name][1] += end - start - child[k]
        return out

    def metrics(self, rounds, traced_times, untraced_times):
        """Per-layer metrics, each per traced round, plus the overhead.

        `traced_times` and `untraced_times` map each op to its durations;
        the overhead compares their medians over the ops both ran.
        """
        times = self.self_times()
        values = {}
        for n in LEAF_SPANS:
            values[n + ".s"] = times[n][0] / rounds if n in times else 0.0
        for n in SELF_TIMED:
            values[n + ".self_s"] = times[n][1] / rounds if n in times else 0.0
        load_s = times["dataio.load_embeddings"][0] if "dataio.load_embeddings" in times else 0.0
        values["dataio.load_embeddings.mb_per_s"] = (
            self.counts["dataio.load_embeddings.bytes"] / 1e6 / load_s if load_s else 0.0)
        tokens = self.counts["dataio.sequence_to_reps.tokens"]
        for share in ("exact", "lowercase", "unk"):
            values["dataio.sequence_to_reps.%s_share" % share] = (
                self.counts["dataio.sequence_to_reps." + share] / tokens if tokens else 0.0)
        for n, _ in COUNTS:
            values[n] = self.counts[n] / rounds
        for n in ERROR_NAMES:
            values[n + ".errors"] = self.counts[n + ".errors"]
        traced_wall = sum(sum(v) for v in traced_times.values())
        values["trace.round_s"] = traced_wall / rounds
        values["trace.self_sum_share"] = sum(t[1] for t in times.values()) / traced_wall
        ops = [k for k in traced_times if k in untraced_times]
        values["trace.overhead_share"] = (
            sum(statistics.median(traced_times[k]) for k in ops)
            / sum(statistics.median(untraced_times[k]) for k in ops) - 1.0)
        return values

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
