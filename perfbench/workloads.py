"""Seeded inputs, timed ops and output checks of the workloads.

Every workload runs the same closed loop in one process, one op at a
time: per round it trains and then decodes with each of its families,
then tags a file through ``chaincrf.cli.main``.  Every run reports every
end-to-end metric, so every workload has all three kinds of op; the
workloads differ in their inputs, each sized so that a different layer
dominates.  The comment above each builder says which and why.

An op fails when it raises or when one of its outputs fails a check.  A
failed op is counted, never retried or skipped, and its time is left
out of the metrics.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from chaincrf import cli, training
from chaincrf.dataio import (
    EmbeddingTable,
    LabelVocab,
    TokenSequence,
    save_model,
    sequence_to_reps,
)
from chaincrf.inference import log_partition
from chaincrf.oracle import (
    SyntheticSpec,
    brute_force_best_path,
    brute_force_log_partition,
    generate_synthetic,
)
from chaincrf.potentials import Family, init_params

WORKLOADS = ("wide-mix", "tag-file")
SETUP_REPEATS = 3
OP_SECONDS = 0.25         # in an untraced round an op repeats until it has run this
                          # long, so that short ops give enough samples for a median
ENTITY_TYPES = ("LOC", "MISC", "ORG", "PER")
BIOES_LABELS = sorted(["O"] + ["%s-%s" % (h, t) for t in ENTITY_TYPES for h in "BIES"])


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Scenario:
    """The inputs of one workload, as the program receives them."""

    families: list              # trained and decoded each round, in this order
    config: dict                # TrainConfig fields shared by the families
    train_set: list
    dev_set: list               # evaluated inside train() each epoch; may be empty
    table: EmbeddingTable       # representation provider of train()
    decode_set: list            # labelled held-out sentences decoded each round
    decode_reps: list
    accuracy_floor: float       # below this, a family's decode accuracy is a failure
    tag_argv: list
    tag_output: str
    tag_tokens: list            # input tokens per sentence, expected in the output
    tag_model: tuple            # (params, vocab) written to the model file
    tag_table: EmbeddingTable   # the values of the embedding file, in memory
    oracle_index: list          # short decode sentences checked by enumeration

    @property
    def train_labels(self):
        """Label strings by index, as train() builds its vocabulary."""
        return sorted({lab for seq in self.train_set for lab in seq.labels})

    @property
    def train_tokens(self):
        return sum(len(s) for s in self.train_set)

    @property
    def decode_tokens(self):
        return sum(len(s) for s in self.decode_set)

    @property
    def tag_token_count(self):
        return sum(len(t) for t in self.tag_tokens)


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------

def to_micro(vectors):
    """Round to 6 decimals, kept as integer millionths (|v| < 1)."""
    return np.clip(np.rint(vectors * 1e6), -999999, 999999).astype(np.int64)


def glove_lines(tokens, micro):
    """GloVe-style text rows: token, then each value with at most 6
    decimals and its trailing zeros dropped, e.g. ``-0.0412``."""
    n, d = micro.shape
    digits = (np.abs(micro)[..., None] // 10 ** np.arange(5, -1, -1)) % 10
    cells = np.zeros((n, d, 10), dtype=np.uint8)
    cells[..., 0] = np.where(micro < 0, ord("-"), 0)
    cells[..., 1] = ord("0")
    cells[..., 2] = ord(".")
    cells[..., 3:9] = digits + ord("0")
    trailing = np.flip(np.cumprod(np.flip(digits == 0, -1), -1), -1).astype(bool)
    trailing[..., 0] = False
    cells[..., 3:9][trailing] = 0
    cells[..., 9] = ord(" ")
    cells[:, -1, 9] = ord("\n")
    flat = cells.reshape(-1)
    rows = flat[flat != 0].tobytes().split(b"\n")
    return b"".join(b"%s %s\n" % (t.encode(), r) for t, r in zip(tokens, rows))


def write_glove(path, tokens, micro, chunk=5000):
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % micro.shape)
        for lo in range(0, len(tokens), chunk):
            fh.write(glove_lines(tokens[lo: lo + chunk], micro[lo: lo + chunk]))


def file_table(tokens, micro):
    """The table `load_embeddings` builds from a `write_glove` file."""
    vectors = dict(zip(tokens, micro / 1e6))
    return EmbeddingTable(dim=micro.shape[1], vectors=vectors,
                          unk=np.mean(np.stack(list(vectors.values())), axis=0))


def write_conll_text(path, seqs):
    with open(path, "w", encoding="utf-8") as fh:
        for seq in seqs:
            fh.write("".join("%s %s\n" % tl for tl in zip(seq.tokens, seq.labels)) + "\n")


def truncated(seqs, lengths):
    """Short prefixes of the first sentences, for the brute-force oracle."""
    return [TokenSequence(tokens=s.tokens[:k], labels=s.labels[:k])
            for s, k in zip(seqs, lengths)]


def tag_files(workdir, seed, label_names, d_h, tokens, micro, tag_input):
    """Write the embedding, model and CoNLL input files of the tag op."""
    emb = os.path.join(workdir, "embeddings.txt")
    model = os.path.join(workdir, "model.txt")
    conll = os.path.join(workdir, "input.conll")
    out = os.path.join(workdir, "tagged.conll")
    write_glove(emb, tokens, micro)
    params = init_params(Family.D_QUADRILINEAR, len(label_names), d_h, seed=seed,
                         d_t=100, d_r=128)
    vocab = LabelVocab(labels=list(label_names),
                       id_of={lab: k for k, lab in enumerate(label_names)},
                       scheme="BIOES" if label_names == BIOES_LABELS else "PLAIN")
    save_model(params, vocab, model)
    write_conll_text(conll, tag_input)
    argv = ["tag", "--model", model, "--embeddings", emb, "--input", conll, "--output", out]
    return dict(tag_argv=argv, tag_output=out,
                tag_tokens=[list(s.tokens) for s in tag_input],
                tag_model=(params, vocab), tag_table=file_table(tokens, micro))


# wide-mix: all ten families, interleaved, at the dimensions of the
# per-layer baseline (L=17, d_h=d_t=100, d_r=128, mlp_hidden=128) on a
# SyntheticSpec corpus of ragged 10-50-token sentences, tables in memory.
# Each family trains one epoch over one 32-sentence batch with no dev set,
# so the update runs inside `training`, then decodes held-out sentences.
# Lattice scoring and its pullback dominate (concat-MLP and trilinear
# above all), which is what a single stacked lattice path acts on; the
# ragged lengths expose padding waste, and the decode pass shows scoring
# without the pullback.  After one update most families are still near
# chance, so there is no accuracy floor here.  Its tag op tags the 150
# test sentences with an untrained d-quadrilinear model.
def build_wide_mix(seed, workdir, tiny=False):
    sizes = (dict(n_train=8, n_dev=6, n_test=4, max_len=20) if tiny
             else dict(n_train=32, n_dev=32, n_test=150, max_len=50))
    spec = SyntheticSpec(num_labels=17, d_h=100, min_len=10, seed=seed, **sizes)
    train_set, dev, test, table = generate_synthetic(spec)
    decode_set = dev + truncated(dev, [2, 3, 4])
    tokens = list(table.vectors)
    micro = to_micro(np.stack([table.vectors[t] for t in tokens]))
    files = tag_files(workdir, seed, ["L%d" % k for k in range(spec.num_labels)], spec.d_h,
                      tokens, micro, test)
    return Scenario(
        families=[f.value for f in Family],
        config=dict(max_epochs=1, seed=1, threads=1, d_t=100, d_r=128, mlp_hidden=128),
        train_set=train_set, dev_set=[], table=table, decode_set=decode_set,
        decode_reps=[sequence_to_reps(s, table) for s in decode_set], accuracy_floor=0.0,
        oracle_index=list(range(len(dev), len(decode_set))), **files)


def make_words(rng, n):
    """n distinct lowercase words of 3-10 letters."""
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    words, seen = [], set()
    while len(words) < n:
        k = n - len(words)
        lengths = rng.integers(3, 11, size=k)
        chars = letters[rng.integers(0, 26, size=(k, 10))]
        for row, length in zip(chars, lengths):
            word = row[:length].tobytes().decode()
            if word not in seen:
                seen.add(word)
                words.append(word)
    return words


def bioes_sentence(rng, words, n_words_per_class, length, case_rate, oov_rate):
    """One NER-like sentence: entity spans of 1-3 tokens among O tokens.

    Every word belongs to the class of one label (word k has label
    k mod 17), so the labels can be learnt from the vectors.  Some tokens
    are capitalized (found through the lowercase fallback) or get a digit
    appended (not in the table, so they take the unk vector).
    """
    labels = []
    while len(labels) < length:
        if rng.random() < 0.3:
            typ = ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))]
            k = min(int(rng.integers(1, 4)), length - len(labels))
            labels += (["S-" + typ] if k == 1
                       else ["B-" + typ] + ["I-" + typ] * (k - 2) + ["E-" + typ])
        else:
            labels.append("O")
    cls = np.array([BIOES_LABELS.index(lab) for lab in labels])
    idx = cls + len(BIOES_LABELS) * rng.integers(0, n_words_per_class, size=length)
    case = rng.random(length) < case_rate
    oov = rng.random(length) < oov_rate
    tokens = []
    for k, w, c, o in zip(idx, rng.integers(0, 10, size=length), case, oov):
        word = words[k]
        tokens.append(word + str(w) if o else word.capitalize() if c else word)
    return TokenSequence(tokens=tokens, labels=labels)


# tag-file: `chaincrf tag` in-process on generated files, the only
# workload whose timed ops load files: a 50k x 100 GloVe-style embedding
# file, a d-quadrilinear model with 17 BIOES labels and a CoNLL input of
# 1500 sentences of 10-50 tokens with ~10% case variants and ~5% OOV
# tokens.  load_embeddings dominates the tag op, then Viterbi and one
# score_lattices call over the whole file (~100 MB of lattices, which
# shows in peak RSS).  Its decode op decodes the same input in memory, the
# path `tag` takes after loading; its train op is one short d-quadrilinear
# run, with a span-F1 dev evaluation each epoch, that gives the decode op
# a trained model.
def build_tag_file(seed, workdir, tiny=False):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    n_rows, d_h = (2000, 100) if tiny else (50000, 100)
    n_input, n_train, n_dev = (20, 16, 8) if tiny else (1500, 256, 64)
    L = len(BIOES_LABELS)
    words = make_words(rng, n_rows)
    centroids = rng.standard_normal((L, d_h)) * (0.6 / math.sqrt(d_h))
    vectors = (centroids[np.arange(n_rows) % L]
               + rng.standard_normal((n_rows, d_h)) * (0.6 / math.sqrt(d_h)))
    micro = to_micro(vectors)
    per_class = n_rows // L

    def sentences(count):
        return [bioes_sentence(rng, words, per_class, int(rng.integers(10, 51)), 0.10, 0.05)
                for _ in range(count)]

    tag_input = sentences(n_input)
    tag_input += truncated(tag_input, [2, 3, 4])
    train_set = sentences(n_train)
    dev_set = sentences(n_dev)
    # vectors clustered by label diverge at the default learning rate of 0.1
    config = dict(max_epochs=2, seed=1, threads=1, d_t=100, d_r=128, learning_rate=0.05)
    files = tag_files(workdir, seed, BIOES_LABELS, d_h, words, micro, tag_input)
    table = files["tag_table"]
    return Scenario(
        families=["d-quadrilinear"], config=config, train_set=train_set, dev_set=dev_set,
        table=table, decode_set=tag_input,
        decode_reps=[sequence_to_reps(s, table) for s in tag_input],
        accuracy_floor=0.3 if tiny else 0.6,
        oracle_index=list(range(n_input, n_input + 3)), **files)


BUILDERS = {"wide-mix": build_wide_mix, "tag-file": build_tag_file}


# ---------------------------------------------------------------------------
# Ops and checks
# ---------------------------------------------------------------------------

def train_op(sc, family):
    config = training.TrainConfig(family=family, **sc.config)
    return training.train(config, sc.train_set, sc.dev_set, sc.table)


def decode_op(params, reps):
    lattices = training.score_lattices(params, reps)
    return lattices, training.decode_paths(params, lattices)


def tag_op(sc):
    rc = cli.main(sc.tag_argv)
    require(rc == 0, "tag exited with %r" % rc)
    with open(sc.tag_output, "rb") as fh:
        return fh.read()


def check_train(sc, result):
    _, report = result
    require(len(report.epochs) == sc.config["max_epochs"],
            "%d epochs run, %d asked" % (len(report.epochs), sc.config["max_epochs"]))
    require(all(math.isfinite(e.train_loss) for e in report.epochs), "non-finite loss")


def decode_accuracy(sc, vocab_labels, paths):
    require(len(paths) == len(sc.decode_set), "decoded %d of %d sentences"
            % (len(paths), len(sc.decode_set)))
    match = total = 0
    for seq, path in zip(sc.decode_set, paths):
        require(len(path) == len(seq), "path length %d for %d tokens" % (len(path), len(seq)))
        require(all(0 <= k < len(vocab_labels) for k in path), "label index out of range")
        match += sum(1 for k, gold in zip(path, seq.labels) if vocab_labels[k] == gold)
        total += len(seq)
    return match / total


def check_oracle(lattices, paths, index):
    """logZ and best path of short sentences against brute-force enumeration."""
    for k in index:
        lat = lattices[k]
        exact = brute_force_log_partition(lat)
        require(abs(log_partition(lat) - exact) <= 1e-9 * max(1.0, abs(exact)),
                "log_partition differs from enumeration on sentence %d" % k)
        require(paths[k] == brute_force_best_path(lat).labels,
                "decoded path differs from enumeration on sentence %d" % k)


def check_tag_output(sc, data, reference):
    """Tokens in input order, one known label each, equal to `reference`."""
    tagged = read_tagged(data)
    require(len(tagged) == len(sc.tag_tokens), "tagged %d of %d sentences"
            % (len(tagged), len(sc.tag_tokens)))
    known = set(sc.tag_model[1].labels)
    for k, ((tokens, labels), want) in enumerate(zip(tagged, sc.tag_tokens)):
        require(tokens == want, "sentence %d: tokens changed" % k)
        require(all(lab in known for lab in labels), "sentence %d: unknown label" % k)
        require(labels == reference[k], "sentence %d: labels differ from decoding" % k)


def read_tagged(data):
    out, tokens, labels = [], [], []
    for line in data.decode("utf-8").split("\n"):
        cols = line.split()
        if not cols:
            if tokens:
                out.append((tokens, labels))
            tokens, labels = [], []
            continue
        require(len(cols) == 2, "tag output line %r is not 'token label'" % line)
        tokens.append(cols[0])
        labels.append(cols[1])
    if tokens:
        out.append((tokens, labels))
    return out


def tag_reference(sc):
    """Labels of the tag input decoded in memory with the model and the
    file's embedding values, the computation `tag` must reproduce."""
    params, vocab = sc.tag_model
    reps = [sequence_to_reps(TokenSequence(tokens=t), sc.tag_table) for t in sc.tag_tokens]
    paths = training.decode_paths(params, training.score_lattices(params, reps))
    return [[vocab.labels[k] for k in path] for path in paths]


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    times: dict = field(default_factory=dict)      # op key -> [seconds], untraced
    traced_times: dict = field(default_factory=dict)
    traced_rounds: int = 0
    accuracy: dict = field(default_factory=dict)    # family -> decode accuracy
    first_paths: dict = field(default_factory=dict)
    first_tag: bytes | None = None


def _attempt(tally, times, key, fn, check, runner):
    """Time one op, check its output; return (output, seconds) or None."""
    tally.attempted += 1
    try:
        t0 = time.perf_counter()
        out = runner(key[0], fn)
        dt = time.perf_counter() - t0
        check(out)
    except Exception as exc:     # any failure of an op is counted, and the loop goes on
        tally.failed += 1
        print("op %s failed: %s: %s" % ("/".join(key), type(exc).__name__, exc),
              file=sys.stderr)
        return None
    times.setdefault(key, []).append(dt)
    return out, dt


def run_round(sc, tally, tracer=None):
    """Train and decode each family, then tag.

    Untraced, each op repeats until it has run OP_SECONDS; traced, each
    runs once, so that every traced round does the same work.
    """
    runner = tracer.run_op if tracer else direct
    times = tally.traced_times if tracer else tally.times
    op_seconds = 0.0 if tracer else OP_SECONDS

    def _repeat(key, fn, check):
        spent = 0.0
        while True:
            done = _attempt(tally, times, key, fn, check, runner)
            if done is None:
                return None
            out, dt = done
            spent += dt
            if spent >= op_seconds:
                return out

    labels = sc.train_labels
    for family in sc.families:
        trained = _repeat(("train", family), lambda: train_op(sc, family),
                          lambda out: check_train(sc, out))
        if trained is None:
            tally.attempted += 1    # the decode op that had no model to run with
            tally.failed += 1
            continue
        params, _ = trained

        def check_decode(out):
            lattices, paths = out
            acc = decode_accuracy(sc, labels, paths)
            require(acc >= sc.accuracy_floor, "%s accuracy %.4f below floor %.2f"
                    % (family, acc, sc.accuracy_floor))
            if family not in tally.first_paths:
                check_oracle(lattices, paths, sc.oracle_index)
                tally.first_paths[family] = paths
                tally.accuracy[family] = acc
            else:
                require(paths == tally.first_paths[family], "decode changed between ops")

        _repeat(("decode", family), lambda: decode_op(params, sc.decode_reps), check_decode)

    def check_tag(data):
        if tally.first_tag is None:
            check_tag_output(sc, data, tag_reference(sc))
            tally.first_tag = data
        else:
            require(data == tally.first_tag, "tag output changed between ops")

    _repeat(("tag", "d-quadrilinear"), lambda: tag_op(sc), check_tag)


def direct(name, fn):
    return fn()


def measure(sc, seconds, tracer=None, min_rounds=3):
    """Run rounds until `seconds` have passed (at least `min_rounds`).

    With a tracer, odd rounds run traced and even rounds untraced, so
    that the op times of the two give the tracing overhead.
    """
    tally = Tally()
    end = time.perf_counter() + seconds
    rnd = 0
    last = 0.0
    # a round starts only if at least half of it fits before the end
    while rnd < min_rounds or time.perf_counter() + last / 2 < end:
        start = time.perf_counter()
        if tracer is not None and rnd % 2 == 1:
            tracer.install()
            try:
                run_round(sc, tally, tracer)
            finally:
                tracer.uninstall()
            tally.traced_rounds += 1
        else:
            run_round(sc, tally)
        last = time.perf_counter() - start
        rnd += 1
    return tally


def throughputs(sc, tally):
    """Tokens per second of the run's untraced ops, as timed."""
    def median(kind, family):
        # an op kind whose every op failed reads as infinitely slow
        return statistics.median(tally.times.get((kind, family)) or [math.inf])

    epochs = sc.config["max_epochs"]
    train_s = sum(median("train", f) for f in sc.families)
    decode_s = sum(median("decode", f) for f in sc.families)
    return {
        "train_tokens_per_s": sc.train_tokens * epochs * len(sc.families) / train_s,
        "decode_tokens_per_s": sc.decode_tokens * len(sc.families) / decode_s,
        "tag_tokens_per_s": sc.tag_token_count / median("tag", "d-quadrilinear"),
    }


def dev_token_accuracy(tally):
    """Mean over families of the token accuracy of the first decode op."""
    return statistics.fmean(tally.accuracy.values()) if tally.accuracy else 0.0


def setup(name, seed, workdir, tiny=False):
    """Build the scenario SETUP_REPEATS times; return it and each time.

    Each build generates the inputs, writes the files, builds the model
    and does a warm-up: one short train() and a decode with its result.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        sc = None     # free the previous build before making the next
        t0 = time.perf_counter()
        sc = BUILDERS[name](seed, workdir, tiny=tiny)
        warm = training.TrainConfig(**dict(sc.config, family=sc.families[0], max_epochs=1))
        params, _ = training.train(warm, sc.train_set[:32], [], sc.table)
        decode_op(params, sc.decode_reps[:8])
        times.append(time.perf_counter() - t0)
    return sc, times
