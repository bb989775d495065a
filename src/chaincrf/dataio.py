"""CoNLL-format files, tagging schemes, embedding tables, model files.

The column convention follows the shared-task files: token in the first
column, label in the last, anything in between ignored.  Sentences are
separated by blank lines and -DOCSTART- lines are skipped.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from .potentials import Family, ModelParams, RepresentationSequence, field_shapes

SCHEME_BIOES = "BIOES"
SCHEME_BIO = "BIO"
SCHEME_PLAIN = "PLAIN"

_TAG_RE = re.compile(r"^(O|[BIES]-.+)$")


@dataclass
class TokenSequence:
    """One sentence: tokens plus an optional gold label per token."""

    tokens: list
    labels: list | None = None

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("empty token sequence")
        if self.labels is not None and len(self.labels) != len(self.tokens):
            raise ValueError("labels length does not match tokens length")

    def __len__(self):
        return len(self.tokens)


@dataclass
class LabelVocab:
    """Bijective label-string / index mapping; BOS is not a vocabulary entry."""

    labels: list
    id_of: dict
    scheme: str

    @property
    def size(self):
        return len(self.labels)

    def indices(self, labels):
        out = []
        for lab in labels:
            if lab not in self.id_of:
                raise ValueError("label %r not present in the training vocabulary" % lab)
            out.append(self.id_of[lab])
        return out


def detect_scheme(labels) -> str:
    labels = set(labels)
    if all(_TAG_RE.match(lab) for lab in labels):
        if any(lab[0] in "SE" for lab in labels if lab != "O"):
            return SCHEME_BIOES
        return SCHEME_BIO
    return SCHEME_PLAIN


def build_label_vocab(seqs, scheme=None) -> LabelVocab:
    """Vocabulary over the gold labels of `seqs`, sorted for determinism."""
    seen = set()
    for seq in seqs:
        if seq.labels is None:
            raise ValueError("cannot build a label vocabulary from unlabeled data")
        seen.update(seq.labels)
    labels = sorted(seen)
    if scheme is None:
        scheme = detect_scheme(labels)
    return LabelVocab(labels=labels, id_of={lab: k for k, lab in enumerate(labels)}, scheme=scheme)


# ---------------------------------------------------------------------------
# CoNLL reading and writing
# ---------------------------------------------------------------------------

def read_conll(source) -> list:
    """Parse CoNLL-style text from a path or file object.

    Token = first column, label = last column (absent when a sentence has
    single-column lines).  Mixing column counts inside one sentence is an
    error reported with the offending line number.
    """
    if hasattr(source, "read"):
        return _read_conll_lines(source.read().splitlines())
    with open(source, "r", encoding="utf-8") as fh:
        return _read_conll_lines(fh.read().splitlines())


def _read_conll_lines(lines):
    out = []
    tokens, labels, ncols = [], [], None

    def flush():
        nonlocal tokens, labels, ncols
        if tokens:
            out.append(TokenSequence(tokens=tokens, labels=labels if ncols and ncols > 1 else None))
        tokens, labels, ncols = [], [], None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("-DOCSTART-"):
            continue
        cols = line.split()
        if ncols is None:
            ncols = len(cols)
        elif len(cols) != ncols:
            raise ValueError(
                "line %d: inconsistent column count (%d, sentence started with %d)"
                % (lineno, len(cols), ncols)
            )
        tokens.append(cols[0])
        labels.append(cols[-1])
    flush()
    return out


def write_conll(seqs, target):
    """Write sequences as 'token label' lines with blank-line separators."""
    if hasattr(target, "write"):
        _write_conll_fh(seqs, target)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            _write_conll_fh(seqs, fh)


def _write_conll_fh(seqs, fh):
    for seq in seqs:
        for i, tok in enumerate(seq.tokens):
            if seq.labels is None:
                fh.write("%s\n" % tok)
            else:
                fh.write("%s %s\n" % (tok, seq.labels[i]))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Tagging schemes
# ---------------------------------------------------------------------------

def _split_tag(tag):
    if not _TAG_RE.match(tag):
        raise ValueError("malformed tag: %r" % tag)
    if tag == "O":
        return "O", None
    return tag[0], tag[2:]


def bio_to_bioes(labels) -> list:
    """Convert BIO tags to BIOES.

    An I-X without a same-type B-X/I-X directly before it is repaired to
    B-X first.  Singleton spans become S-X, span-final tokens E-X.
    """
    repaired = []
    prev_type = None
    for tag in labels:
        head, typ = _split_tag(tag)
        if head == "I" and typ != prev_type:
            head = "B"
        repaired.append((head, typ))
        prev_type = typ if head in ("B", "I") else None
    out = []
    n = len(repaired)
    for i, (head, typ) in enumerate(repaired):
        if head == "O":
            out.append("O")
            continue
        if head in ("S", "E"):
            out.append("%s-%s" % (head, typ))
            continue
        nxt = repaired[i + 1] if i + 1 < n else ("O", None)
        continues = nxt[0] == "I" and nxt[1] == typ
        if head == "B":
            out.append(("B-%s" if continues else "S-%s") % typ)
        else:
            out.append(("I-%s" if continues else "E-%s") % typ)
    return out


def spans_from_bioes(labels):
    """Well-formed (start, end, type) spans; ends inclusive.

    Ill-formed fragments (an E without a B, a B that never closes, a type
    change mid-span) are dropped rather than guessed.
    """
    spans = set()
    start, typ = None, None
    for i, tag in enumerate(labels):
        head, t = _split_tag(tag)
        if head == "S":
            spans.add((i, i, t))
            start, typ = None, None
        elif head == "B":
            start, typ = i, t
        elif head == "I":
            if typ != t:
                start, typ = None, None
        elif head == "E":
            if typ == t and start is not None:
                spans.add((start, i, t))
            start, typ = None, None
        else:
            start, typ = None, None
    return spans


def spans_from_bio(labels):
    """(start, end, type) spans under plain BIO rules; ends inclusive."""
    spans = set()
    start, typ = None, None

    def close(end):
        nonlocal start, typ
        if start is not None:
            spans.add((start, end, typ))
        start, typ = None, None

    for i, tag in enumerate(labels):
        head, t = _split_tag(tag)
        if head == "B":
            close(i - 1)
            start, typ = i, t
        elif head == "I":
            if typ != t:
                close(i - 1)
                start, typ = i, t
        else:
            close(i - 1)
    close(len(labels) - 1)
    return spans


def extract_spans(labels, scheme=SCHEME_BIOES):
    if scheme == SCHEME_BIOES:
        return spans_from_bioes(labels)
    if scheme == SCHEME_BIO:
        return spans_from_bio(labels)
    return set()


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

@dataclass
class EmbeddingTable:
    """Frozen token -> vector map with a mean-vector unknown fallback."""

    dim: int
    vectors: dict
    unk: np.ndarray

    def lookup(self, token) -> np.ndarray:
        vec = self.vectors.get(token)
        if vec is None:
            vec = self.vectors.get(token.lower())
        return self.unk if vec is None else vec


def load_embeddings(source, expected_dim=None) -> EmbeddingTable:
    """Load a text embedding table: optional 'count dim' header, then
    one token and its floats per line.  The unknown vector is the mean of
    all loaded vectors."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    vectors = {}
    dim = expected_dim
    declared = None
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2:
            try:
                declared = (int(head[0]), int(head[1]))
                start = 1
            except ValueError:
                declared = None
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        cols = line.split()
        token = cols[0]
        try:
            vec = np.array([float(x) for x in cols[1:]], dtype=np.float64)
        except ValueError:
            raise ValueError("line %d: non-numeric embedding value" % (lineno + 1)) from None
        if dim is None:
            dim = vec.shape[0]
        if vec.shape[0] != dim:
            raise ValueError(
                "line %d: expected %d dimensions, got %d" % (lineno + 1, dim, vec.shape[0])
            )
        vectors[token] = vec
    if not vectors:
        raise ValueError("embedding file contains no vectors")
    if declared is not None:
        if declared[0] != len(vectors):
            warnings.warn(
                "embedding header declares %d vectors, file has %d"
                % (declared[0], len(vectors))
            )
        if declared[1] != dim:
            warnings.warn(
                "embedding header declares dimension %d, vectors have %d"
                % (declared[1], dim)
            )
    stacked = np.stack(list(vectors.values()))
    finite = np.isfinite(stacked).all(axis=1)
    if not finite.all():
        # a nan/inf would poison the mean unknown vector; report the line
        # whose vector the table kept (the last one for a repeated token)
        token = list(vectors)[int(np.argmin(finite))]
        lineno = max(k for k in range(start, len(lines)) if lines[k].split()[:1] == [token])
        raise ValueError("line %d: non-finite embedding value" % (lineno + 1))
    unk = np.mean(stacked, axis=0)
    return EmbeddingTable(dim=int(dim), vectors=vectors, unk=unk)


def write_embeddings(table: EmbeddingTable, target):
    """Inverse of `load_embeddings`, with a 'count dim' header."""
    def emit(fh):
        fh.write("%d %d\n" % (len(table.vectors), table.dim))
        for token in table.vectors:
            vec = table.vectors[token]
            fh.write("%s %s\n" % (token, " ".join(repr(float(v)) for v in vec)))

    if hasattr(target, "write"):
        emit(target)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            emit(fh)


def sequence_to_reps(seq: TokenSequence, table: EmbeddingTable) -> RepresentationSequence:
    """Stack per-token vectors; exact lookup, then lowercase, then unk."""
    h = np.stack([table.lookup(tok) for tok in seq.tokens])
    return RepresentationSequence.from_array(h)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

FORMAT_MAGIC = "chaincrf-model"
FORMAT_VERSION = 1


def save_model(params: ModelParams, vocab: LabelVocab, target):
    """Versioned plain-text model file; floats use repr so that
    load(save(x)) reproduces x bit-exactly."""
    params.validate()

    def emit(fh):
        fh.write("%s %d\n" % (FORMAT_MAGIC, FORMAT_VERSION))
        fh.write("family %s\n" % params.family.value)
        fh.write("num_labels %d\n" % params.num_labels)
        fh.write("d_h %d\n" % params.d_h)
        fh.write("d_t %d\n" % params.d_t)
        fh.write("d_r %d\n" % params.d_r)
        fh.write("mlp_hidden %d\n" % params.mlp_hidden)
        fh.write("scheme %s\n" % vocab.scheme)
        fh.write("labels %d\n" % vocab.size)
        for lab in vocab.labels:
            fh.write("%s\n" % lab)
        for name, arr in params.param_items():
            fh.write("param %s %s\n" % (name, " ".join(str(d) for d in arr.shape)))
            flat = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr.reshape(1, -1)
            for row in flat:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        fh.write("end\n")

    if hasattr(target, "write"):
        emit(target)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            emit(fh)


class _LineReader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self):
        if self.pos >= len(self.lines):
            raise ValueError("truncated model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_kv(self, key):
        parts = self.next().split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise ValueError("missing field: %s" % key)
        return parts[1]


def load_model(source):
    """Read a model file written by `save_model`; returns (params, vocab)."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    rd = _LineReader(lines)
    head = rd.next().split()
    if len(head) != 2 or head[0] != FORMAT_MAGIC:
        raise ValueError("not a model file")
    if int(head[1]) != FORMAT_VERSION:
        raise ValueError("unsupported model format version %s" % head[1])
    family = Family.from_name(rd.expect_kv("family"))
    num_labels = int(rd.expect_kv("num_labels"))
    d_h = int(rd.expect_kv("d_h"))
    d_t = int(rd.expect_kv("d_t"))
    d_r = int(rd.expect_kv("d_r"))
    mlp_hidden = int(rd.expect_kv("mlp_hidden"))
    scheme = rd.expect_kv("scheme")
    n_labels = int(rd.expect_kv("labels"))
    labels = [rd.next() for _ in range(n_labels)]
    expected = field_shapes(family, num_labels, d_h, d_t, d_r, mlp_hidden)
    kw = {}
    while True:
        line = rd.next()
        if line == "end":
            break
        parts = line.split()
        if not parts or parts[0] != "param":
            raise ValueError("malformed model file at line %d" % rd.pos)
        name = parts[1]
        shape = tuple(int(d) for d in parts[2:])
        if name not in expected:
            raise ValueError("unexpected parameter %s for family %s" % (name, family.value))
        if shape != expected[name]:
            raise ValueError("parameter %s has shape %r, want %r" % (name, shape, expected[name]))
        count = int(np.prod(shape))
        values = []
        while len(values) < count:
            values.extend(float(v) for v in rd.next().split())
        if len(values) != count:
            raise ValueError("parameter %s has %d values, want %d" % (name, len(values), count))
        kw[name] = np.array(values, dtype=np.float64).reshape(shape)
    for name in expected:
        if name not in kw:
            raise ValueError("missing field: %s" % name)
    params = ModelParams(family=family, num_labels=num_labels, d_h=d_h, d_t=d_t, d_r=d_r, **kw)
    params.validate()
    vocab = LabelVocab(labels=labels, id_of={lab: k for k, lab in enumerate(labels)}, scheme=scheme)
    return params, vocab
