"""CoNLL-format files, tagging schemes, embedding tables, model files.

The column convention follows the shared-task files: token in the first
column, label in the last, anything in between ignored.  Sentences are
separated by blank lines and -DOCSTART- lines are skipped.
"""

from __future__ import annotations

import base64
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .potentials import Family, ModelParams, RepresentationSequence, field_shapes

SCHEME_BIOES = "BIOES"
SCHEME_BIO = "BIO"
SCHEME_PLAIN = "PLAIN"
SCHEMES = (SCHEME_BIOES, SCHEME_BIO, SCHEME_PLAIN)

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


@contextmanager
def open_text(file, mode="r"):
    """`file` itself when it is a file object that can be read (mode "r")
    or written (mode "w"), else the path `file` opened as UTF-8 text in
    `mode` and closed on exit.  Every reader and writer here takes either."""
    if hasattr(file, "read" if mode == "r" else "write"):
        yield file
    else:
        with open(file, mode, encoding="utf-8") as fh:
            yield fh


# ---------------------------------------------------------------------------
# CoNLL reading and writing
# ---------------------------------------------------------------------------

def read_conll(source) -> list:
    """Parse CoNLL-style text from a path or file object.

    Token = first column, label = last column (absent when a sentence has
    single-column lines).  Mixing column counts inside one sentence is an
    error reported with the offending line number.
    """
    with open_text(source) as fh:
        lines = fh.read().splitlines()
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
    with open_text(target, "w") as fh:
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
    """Load a text embedding table: optional 'count dim' header, then one
    token and its floats per line.  One `np.loadtxt` call parses the values
    of all lines into an (n, d) matrix; tokens map to its rows, and the
    unknown vector is the mean of the rows kept."""
    tokens, declared, dim, row = [], None, expected_dim, None

    def rows(fh):
        nonlocal declared, dim, row
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and len(line.split()) == 2:
                try:
                    declared = tuple(int(v) for v in line.split())
                    continue
                except ValueError:
                    pass
            cols = line.split(None, 1)
            if not cols:
                continue
            row = (lineno, cols[1] if len(cols) == 2 else "")
            # loadtxt skips an empty row and checks widths from row 2 on
            dim = len(row[1].split()) if dim is None else dim
            if len(cols) == 1 or (not tokens and len(row[1].split()) != dim):
                raise ValueError
            tokens.append((cols[0], lineno))
            yield cols[1]
        if row is None:
            raise ValueError   # before loadtxt warns about an empty input

    try:
        with open_text(source) as fh:
            matrix = np.loadtxt(rows(fh), dtype=np.float64, comments=None, quotechar=None,
                                ndmin=2)
    except UnicodeError:   # undecodable bytes, not a malformed row
        raise
    except ValueError:
        if row is None:
            raise ValueError("embedding file contains no vectors") from None
        # loadtxt pulls one row at a time, so `row` is the failing line
        lineno, got = row[0], len(row[1].split())
        if got != dim or not got:
            raise ValueError("line %d: expected %s dimensions, got %d"
                             % (lineno, dim or "1 or more", got)) from None
        raise ValueError("line %d: non-numeric embedding value" % lineno) from None
    index = {token: k for k, (token, _) in enumerate(tokens)}
    if declared is not None and declared[0] != len(index):
        warnings.warn("embedding header declares %d vectors, file has %d"
                      % (declared[0], len(index)))
    if declared is not None and declared[1] != dim:
        warnings.warn("embedding header declares dimension %d, vectors have %d"
                      % (declared[1], dim))
    kept = list(index.values())
    stacked = matrix if len(kept) == len(tokens) else matrix[kept]
    finite = np.isfinite(stacked).all(axis=1)
    if not finite.all():
        # a nan/inf would poison the mean; name the line of the kept (last) copy
        lineno = tokens[kept[int(np.argmin(finite))]][1]
        raise ValueError("line %d: non-finite embedding value" % lineno)
    with np.errstate(over="ignore", invalid="ignore"):
        unk = np.mean(stacked, axis=0)
    if not np.isfinite(unk).all():
        raise ValueError("embedding values too large: the mean vector used for unknown "
                         "tokens overflows in dimension %d" % int(np.argmin(np.isfinite(unk))))
    vectors = {token: matrix[k] for token, k in index.items()}
    return EmbeddingTable(dim=int(dim), vectors=vectors, unk=unk)


def write_embeddings(table: EmbeddingTable, target):
    """Inverse of `load_embeddings`, with a 'count dim' header."""
    with open_text(target, "w") as fh:
        fh.write("%d %d\n" % (len(table.vectors), table.dim))
        for token in table.vectors:
            vec = table.vectors[token]
            fh.write("%s %s\n" % (token, " ".join(repr(float(v)) for v in vec)))


def sequence_to_reps(seq: TokenSequence, table: EmbeddingTable) -> RepresentationSequence:
    """Stack per-token vectors; exact lookup, then lowercase, then unk."""
    h = np.stack([table.lookup(tok) for tok in seq.tokens])
    return RepresentationSequence.from_array(h)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

FORMAT_MAGIC = "chaincrf-model"
FORMAT_VERSION = 2


def save_model(params: ModelParams, vocab: LabelVocab, target):
    """Versioned model file: a plain-text header, then each parameter block
    as one line of base64 of its values as C-order little-endian float64,
    so that load(save(x)) reproduces x bit-exactly."""
    params.validate()
    if vocab.size != params.num_labels:
        raise ValueError("vocabulary has %d labels but the model has %d"
                         % (vocab.size, params.num_labels))
    if vocab.scheme not in SCHEMES:
        raise ValueError("unknown scheme: %s" % vocab.scheme)
    with open_text(target, "w") as fh:
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
            fh.write(base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii") + "\n")
        fh.write("end\n")


class _LineReader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self):
        if self.pos >= len(self.lines):
            raise ValueError("truncated model file after line %d" % self.pos)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_kv(self, key):
        parts = self.next().split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise ValueError("missing field: %s" % key)
        return parts[1]

    def expect_count(self, key, least=0):
        value = self.expect_kv(key)
        try:
            count = int(value)
        except ValueError:
            count = None
        if count is None or count < least:
            raise ValueError("field %s must be an integer of at least %d, got %s"
                             % (key, least, value))
        return count


def _read_param(rd, name, shape):
    """The values of parameter `name` of `shape`, decoded from the one
    base64 line after its `param` line."""
    line = rd.next()
    # a bad last line is most likely a file cut short in it
    where = "%sline %d: parameter %s" % (
        "truncated model file: " if rd.pos == len(rd.lines) else "", rd.pos, name)
    try:
        raw = base64.b64decode(line, validate=True)
    except ValueError:   # binascii.Error, or a character beyond ASCII
        raise ValueError("%s is not base64" % where) from None
    want = 8 * math.prod(shape)
    if len(raw) != want:
        raise ValueError("%s has %d bytes, want %d" % (where, len(raw), want))
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def load_model(source):
    """Read a model file written by `save_model`; returns (params, vocab)."""
    with open_text(source) as fh:
        rd = _LineReader(fh.read().splitlines())
    head = rd.next().split()
    if len(head) != 2 or head[0] != FORMAT_MAGIC:
        raise ValueError("not a model file")
    if head[1] != str(FORMAT_VERSION):
        raise ValueError("unsupported model format version %s: this reader reads version %d"
                         % (head[1], FORMAT_VERSION))
    family = Family.from_name(rd.expect_kv("family"))
    num_labels = rd.expect_count("num_labels", least=1)
    d_h = rd.expect_count("d_h", least=1)
    d_t = rd.expect_count("d_t")
    d_r = rd.expect_count("d_r")
    mlp_hidden = rd.expect_count("mlp_hidden")
    scheme = rd.expect_kv("scheme")
    if scheme not in SCHEMES:
        raise ValueError("unknown scheme in model file: %s" % scheme)
    n_labels = rd.expect_count("labels")
    if n_labels != num_labels:
        raise ValueError("model file lists %d labels but num_labels is %d"
                         % (n_labels, num_labels))
    labels = [rd.next() for _ in range(n_labels)]
    if len(set(labels)) != len(labels):
        dup = next(lab for k, lab in enumerate(labels) if lab in labels[:k])
        raise ValueError("duplicate label in model file: %s" % dup)
    expected = field_shapes(family, num_labels, d_h, d_t, d_r, mlp_hidden)
    arrays = {}
    while True:
        line = rd.next()
        if line == "end":
            break
        parts = line.split()
        if len(parts) < 2 or parts[0] != "param":
            raise ValueError("malformed model file at line %d" % rd.pos)
        name = parts[1]
        if name not in expected:
            raise ValueError("unexpected parameter %s for family %s" % (name, family.value))
        if name in arrays:
            raise ValueError("duplicate parameter in model file: %s" % name)
        shape = expected[name]
        if parts[2:] != [str(d) for d in shape]:
            raise ValueError("parameter %s has shape %s, want %r"
                             % (name, " ".join(parts[2:]), shape))
        arrays[name] = _read_param(rd, name, shape)
    params = ModelParams(family=family, num_labels=num_labels, d_h=d_h, d_t=d_t, d_r=d_r,
                         arrays=arrays)
    params.validate()   # also names a field the file left out
    vocab = LabelVocab(labels=labels, id_of={lab: k for k, lab in enumerate(labels)}, scheme=scheme)
    return params, vocab
