import base64
import hashlib
import io
import os
import pickle
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chaincrf import (
    Family,
    TokenSequence,
    bio_to_bioes,
    build_label_vocab,
    init_params,
    load_embeddings,
    load_model,
    make_rng,
    read_conll,
    save_model,
    sequence_to_reps,
    spans_from_bioes,
    write_conll,
    write_embeddings,
)
from chaincrf import dataio
from chaincrf.dataio import (
    EmbeddingTable,
    LabelVocab,
    detect_scheme,
    spans_from_bio,
)
from chaincrf.training import EpochRecord, TrainReport


# ---------------------------------------------------------------------------
# conll
# ---------------------------------------------------------------------------

def test_read_minimal_file():
    seqs = read_conll(io.StringIO("John B-PER\n\n"))
    assert len(seqs) == 1
    assert seqs[0].tokens == ["John"]
    assert seqs[0].labels == ["B-PER"]


def test_read_two_sentences():
    seqs = read_conll(io.StringIO("a O\nb O\n\nc O\n\n"))
    assert len(seqs) == 2
    assert seqs[1].tokens == ["c"]


def test_read_single_column_is_unlabeled():
    seqs = read_conll(io.StringIO("word\nanother\n\n"))
    assert seqs[0].labels is None
    assert seqs[0].tokens == ["word", "another"]


def test_read_skips_docstart_and_uses_last_column():
    text = "-DOCSTART- -X- O\nJohn NNP B-PER\nsmiled VBD O\n\n"
    seqs = read_conll(io.StringIO(text))
    assert seqs[0].tokens == ["John", "smiled"]
    assert seqs[0].labels == ["B-PER", "O"]


def test_read_inconsistent_columns_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        read_conll(io.StringIO("a O\nb\n\n"))


def test_read_empty_file():
    assert read_conll(io.StringIO("")) == []


def test_conll_round_trip():
    seqs = [
        TokenSequence(tokens=["a", "b"], labels=["O", "S-X"]),
        TokenSequence(tokens=["c"], labels=["O"]),
    ]
    buf = io.StringIO()
    write_conll(seqs, buf)
    back = read_conll(io.StringIO(buf.getvalue()))
    assert [s.tokens for s in back] == [s.tokens for s in seqs]
    assert [s.labels for s in back] == [s.labels for s in seqs]


_CONLL_WORDS = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6).filter(
    lambda w: not w.startswith("-DOCSTART-"))


@st.composite
def conll_documents(draw):
    """Sentences, labeled or not, and the text `write_conll` makes of them
    with CRLF or LF line ends, -DOCSTART- lines and runs of blank lines
    between sentences."""
    seqs = []
    for _ in range(draw(st.integers(0, 5))):
        tokens = draw(st.lists(_CONLL_WORDS, min_size=1, max_size=5))
        labels = draw(st.none() | st.lists(_CONLL_WORDS, min_size=len(tokens),
                                           max_size=len(tokens)))
        seqs.append(TokenSequence(tokens=tokens, labels=labels))
    buf = io.StringIO()
    write_conll(seqs, buf)
    blocks = buf.getvalue().split("\n\n")
    gaps = ["\n" * draw(st.integers(1, 3))
            + draw(st.sampled_from(["", "-DOCSTART- -X- O\n\n", "-DOCSTART-\n"]))
            for _ in blocks]
    text = "".join("\n" + gap + block for gap, block in zip(gaps, blocks))
    return seqs, text.replace("\n", draw(st.sampled_from(["\n", "\r\n"])))


@settings(max_examples=100, deadline=None)
@given(conll_documents())
def test_conll_write_read_round_trip(doc):
    seqs, text = doc
    back = read_conll(io.StringIO(text))
    assert [(s.tokens, s.labels) for s in back] == [(s.tokens, s.labels) for s in seqs]


def test_token_sequence_validation():
    with pytest.raises(ValueError):
        TokenSequence(tokens=[])
    with pytest.raises(ValueError):
        TokenSequence(tokens=["a"], labels=["O", "O"])


# ---------------------------------------------------------------------------
# tagging schemes
# ---------------------------------------------------------------------------

def test_bio_to_bioes_pair():
    assert bio_to_bioes(["B-PER", "I-PER"]) == ["B-PER", "E-PER"]


def test_bio_to_bioes_singleton():
    assert bio_to_bioes(["B-PER"]) == ["S-PER"]


def test_bio_to_bioes_repairs_orphan_inside():
    assert bio_to_bioes(["O", "I-LOC", "O"]) == ["O", "S-LOC", "O"]


def test_bio_to_bioes_longer_span():
    assert bio_to_bioes(["B-X", "I-X", "I-X", "O", "B-Y"]) == ["B-X", "I-X", "E-X", "O", "S-Y"]


def test_bio_to_bioes_type_change_starts_new_span():
    assert bio_to_bioes(["B-X", "I-Y"]) == ["S-X", "S-Y"]


def test_bio_to_bioes_rejects_malformed():
    with pytest.raises(ValueError, match="malformed"):
        bio_to_bioes(["B-PER", "Q"])


def test_spans_from_bioes_basic():
    assert spans_from_bioes(["B-PER", "E-PER", "O"]) == {(0, 1, "PER")}


def test_spans_from_bioes_singleton():
    assert spans_from_bioes(["S-LOC"]) == {(0, 0, "LOC")}


def test_spans_from_bioes_drops_dangling_end():
    assert spans_from_bioes(["E-PER", "O"]) == set()


def test_spans_from_bioes_drops_unclosed_begin():
    assert spans_from_bioes(["B-PER", "O"]) == set()
    assert spans_from_bioes(["B-PER", "I-PER"]) == set()


def test_spans_from_bioes_drops_type_switch():
    assert spans_from_bioes(["B-PER", "I-LOC", "E-PER"]) == set()


def _random_bio(rng, n):
    labels = []
    i = 0
    while i < n:
        if rng.random() < 0.45:
            labels.append("O")
            i += 1
        else:
            typ = rng.choice(["PER", "LOC", "ORG"])
            span = min(int(rng.integers(1, 4)), n - i)
            labels.append("B-%s" % typ)
            labels.extend("I-%s" % typ for _ in range(span - 1))
            i += span
    return labels


def test_bioes_conversion_preserves_spans():
    rng = make_rng(99)
    for _ in range(300):
        bio = _random_bio(rng, int(rng.integers(1, 12)))
        assert spans_from_bioes(bio_to_bioes(bio)) == spans_from_bio(bio)


def test_detect_scheme():
    assert detect_scheme(["O", "B-X", "I-X"]) == "BIO"
    assert detect_scheme(["O", "B-X", "E-X", "S-Y"]) == "BIOES"
    assert detect_scheme(["L0", "L1"]) == "PLAIN"


def test_build_label_vocab_sorted_and_bijective():
    seqs = [TokenSequence(tokens=["a", "b"], labels=["B-X", "O"])]
    vocab = build_label_vocab(seqs)
    assert vocab.labels == sorted(vocab.labels)
    assert all(vocab.labels[vocab.id_of[lab]] == lab for lab in vocab.labels)
    assert vocab.scheme == "BIO"


def test_vocab_rejects_unknown_label():
    vocab = LabelVocab(labels=["O"], id_of={"O": 0}, scheme="BIO")
    with pytest.raises(ValueError, match="not present"):
        vocab.indices(["B-X"])


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_load_embeddings_mean_unk():
    table = load_embeddings(io.StringIO("a 1.0 2.0\nb 3.0 4.0\n"))
    assert table.dim == 2
    np.testing.assert_allclose(table.unk, [2.0, 3.0])


def test_lookup_falls_back_to_unk():
    table = load_embeddings(io.StringIO("a 1.0 2.0\nb 3.0 4.0\n"))
    np.testing.assert_allclose(table.lookup("missing"), table.unk)


def test_lookup_lowercase_cascade():
    table = load_embeddings(io.StringIO("the 1.0 0.0\nb 0.0 1.0\n"))
    np.testing.assert_allclose(table.lookup("The"), [1.0, 0.0])


def test_header_accepted_and_mismatch_warns():
    table = load_embeddings(io.StringIO("2 2\na 1.0 2.0\nb 3.0 4.0\n"))
    assert len(table.vectors) == 2
    with pytest.warns(UserWarning):
        load_embeddings(io.StringIO("3 2\na 1.0 2.0\nb 3.0 4.0\n"))


def test_dimension_inconsistency_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        load_embeddings(io.StringIO("a 1.0 2.0\nb 3.0\n"))


def test_non_numeric_field_rejected():
    with pytest.raises(ValueError, match="non-numeric"):
        load_embeddings(io.StringIO("a 1.0 x\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_rejected_with_line(value):
    # a nan would otherwise poison the mean unknown vector
    with pytest.raises(ValueError, match="line 3: non-finite embedding value"):
        load_embeddings(io.StringIO("2 2\na 1.0 2.0\nb 3.0 %s\n" % value))


def test_embeddings_round_trip():
    table = EmbeddingTable(
        dim=3,
        vectors={"w%d" % k: make_rng(k).standard_normal(3) for k in range(4)},
        unk=np.zeros(3),
    )
    buf = io.StringIO()
    write_embeddings(table, buf)
    back = load_embeddings(io.StringIO(buf.getvalue()))
    for tok, vec in table.vectors.items():
        np.testing.assert_array_equal(back.vectors[tok], vec)


def test_token_line_without_values_rejected():
    # loadtxt skips an empty row; the loader must not let tokens and rows drift
    with pytest.raises(ValueError, match="^line 2: expected 2 dimensions, got 0$"):
        load_embeddings(io.StringIO("a 1.0 2.0\nb\nc 3.0 4.0\n"))
    with pytest.raises(ValueError, match="^line 3: expected 2 dimensions, got 0$"):
        load_embeddings(io.StringIO("a 1.0 2.0\n\nb \t \nc 3.0 4.0\n"))
    with pytest.raises(ValueError, match="^line 1: expected 1 or more dimensions, got 0$"):
        load_embeddings(io.StringIO("a\nb 1.0 2.0\n"))


@pytest.mark.parametrize("text, message", [
    ("a 1.0 2.0\nb 3.0\n", "line 2: expected 2 dimensions, got 1"),
    ("a 1.0 2.0\nb 3.0 4.0 5.0\n", "line 2: expected 2 dimensions, got 3"),
    ("2 2\na 1.0 2.0\n\nb 3.0 4.0 5.0\n", "line 4: expected 2 dimensions, got 3"),
    # a row both too wide and non-numeric is reported by its width
    ("a 1.0 2.0\nb x 4.0 5.0\n", "line 2: expected 2 dimensions, got 3"),
])
def test_row_width_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        load_embeddings(io.StringIO(text))


@pytest.mark.parametrize("text, lineno", [
    ("a 1.0 x\n", 1),
    ("a 1.0 2.0\n\n\nb x 2.0\nc 1.0 2.0\n", 4),
    ("2 2\na 1.0 2.0\nb 1.0 x\n", 3),
    ("2 2\na 1.0 x\nb 1.0 2.0\n", 2),
    ("a 1.0 2.0\nb 1.0 2.0.0\n", 2),
])
def test_non_numeric_value_names_the_line(text, lineno):
    with pytest.raises(ValueError, match="^line %d: non-numeric embedding value$" % lineno):
        load_embeddings(io.StringIO(text))


def test_expected_dim_mismatch_rejected():
    with pytest.raises(ValueError, match="^line 1: expected 3 dimensions, got 2$"):
        load_embeddings(io.StringIO("a 1.0 2.0\nb 3.0 4.0\n"), expected_dim=3)
    with pytest.raises(ValueError, match="^line 2: expected 3 dimensions, got 2$"):
        load_embeddings(io.StringIO("a 1.0 2.0 3.0\nb 3.0 4.0\n"), expected_dim=3)
    assert load_embeddings(io.StringIO("a 1.0 2.0\n"), expected_dim=2).dim == 2


@pytest.mark.parametrize("text", ["", "\n \n\t\n", "2 2\n", "2 2\n\n"])
def test_file_without_vectors_rejected(text):
    with pytest.raises(ValueError, match="^embedding file contains no vectors$"):
        load_embeddings(io.StringIO(text))


@pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11", "0x1p3", "1,5", "1.0f"])
def test_number_syntax_beyond_c_decimal_rejected(value):
    # float() accepts '1_0' and non-ASCII digits, numpy's parser does not;
    # the file grammar is the plain C decimal syntax, so all of these fail
    with pytest.raises(ValueError, match="^line 2: non-numeric embedding value$"):
        load_embeddings(io.StringIO("a 1.0 2.0\nb 3.0 %s\n" % value))


def test_accepted_number_syntax():
    table = load_embeddings(io.StringIO("a +1.5 .5 5. 1E-3 -0 1e+2 -2.5e-1 007\n"))
    expected = [1.5, 0.5, 5.0, 1e-3, -0.0, 100.0, -0.25, 7.0]
    assert table.vectors["a"].tobytes() == np.array(expected).tobytes()


def test_repeated_token_keeps_first_position_and_last_values():
    table = load_embeddings(io.StringIO("a nan 1.0\nb 3.0 4.0\na 5.0 6.0\n"))
    assert list(table.vectors) == ["a", "b"]
    np.testing.assert_array_equal(table.vectors["a"], [5.0, 6.0])
    np.testing.assert_array_equal(table.unk, [4.0, 5.0])
    with pytest.raises(ValueError, match="^line 3: non-finite embedding value$"):
        load_embeddings(io.StringIO("a 1.0 1.0\nb 3.0 4.0\na inf 6.0\n"))


def test_mean_overflow_rejected():
    # every value is finite, but the column sums overflow float64
    text = "a 1.7e308 1.0\nb 1.7e308 2.0\nc -1.0 3.0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="unknown tokens overflows in dimension 0"):
            load_embeddings(io.StringIO(text))


def test_undecodable_file_raises_decode_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"a 1.0 2.0\nb\xe9 3.0 4.0\n")
    with pytest.raises(UnicodeDecodeError):
        load_embeddings(path)


def _reference_load_embeddings(source, expected_dim=None):
    """The per-value float() loader that `load_embeddings` replaced, with
    its rule for a mean vector that overflows."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    vectors, dim, declared, start = {}, expected_dim, None, 0
    if lines:
        head = lines[0].split()
        if len(head) == 2:
            try:
                declared, start = (int(head[0]), int(head[1])), 1
            except ValueError:
                pass
    for lineno in range(start, len(lines)):
        cols = lines[lineno].split()
        if not cols:
            continue
        try:
            vec = np.array([float(x) for x in cols[1:]], dtype=np.float64)
        except ValueError:
            raise ValueError("line %d: non-numeric embedding value" % (lineno + 1)) from None
        dim = vec.shape[0] if dim is None else dim
        if vec.shape[0] != dim:
            raise ValueError("line %d: expected %d dimensions, got %d"
                             % (lineno + 1, dim, vec.shape[0]))
        vectors[cols[0]] = vec
    if not vectors:
        raise ValueError("embedding file contains no vectors")
    if declared is not None and declared[0] != len(vectors):
        warnings.warn("embedding header declares %d vectors, file has %d"
                      % (declared[0], len(vectors)))
    if declared is not None and declared[1] != dim:
        warnings.warn("embedding header declares dimension %d, vectors have %d"
                      % (declared[1], dim))
    stacked = np.stack(list(vectors.values()))
    finite = np.isfinite(stacked).all(axis=1)
    if not finite.all():
        token = list(vectors)[int(np.argmin(finite))]
        lineno = max(k for k in range(start, len(lines)) if lines[k].split()[:1] == [token])
        raise ValueError("line %d: non-finite embedding value" % (lineno + 1))
    # finite values near the float64 maximum can still overflow their mean
    with np.errstate(over="ignore", invalid="ignore"):
        unk = np.mean(stacked, axis=0)
    if not np.isfinite(unk).all():
        raise ValueError("embedding values too large: the mean vector used for unknown "
                         "tokens overflows in dimension %d" % int(np.argmin(np.isfinite(unk))))
    return EmbeddingTable(dim=int(dim), vectors=vectors, unk=unk)


_FORMATS = [repr, "%.6f".__mod__, "%e".__mod__, "%E".__mod__, "%.3g".__mod__,
            "%+.2f".__mod__, lambda v: ("%.4f" % v).replace("0.", ".", 1)]
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])


@st.composite
def embedding_texts(draw):
    """An embedding file in the documented grammar: optional header, blank
    and whitespace-only lines, tabs and runs of spaces, \\n or \\r\\n line
    ends, repeated tokens, exponents, -0, nan/inf and 17-digit values.  In
    some files one row after the first has a cell too few, a cell too many
    or a non-numeric cell."""
    dim = draw(st.integers(1, 5))
    tokens = draw(st.lists(st.sampled_from(["a", "b", "the", "The", "x1", "3", "\u00e9t\u00e9"])
                           | st.text(st.characters(blacklist_categories=("Z", "C")),
                                     min_size=1, max_size=4),
                           min_size=1, max_size=8))
    broken = draw(st.integers(1, 3 * len(tokens)))   # no row is broken when past the end
    lines = []
    for row, token in enumerate(tokens):
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t "])))
        cells = []
        for _ in range(dim):
            value = draw(st.floats(allow_nan=False, allow_infinity=False, width=64)
                         | st.sampled_from([0.0, -0.0, 1e-320, 1.7976931348623157e308]))
            cell = draw(st.sampled_from(_FORMATS))(value)
            if draw(st.integers(0, 40)) == 0:
                cell = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "-0"]))
            cells.append(cell)
        if row == broken:
            fault = draw(st.sampled_from(["short", "wide", "x", "1.0.0", "--1", "1e"]))
            if fault == "short":
                cells.pop()
            elif fault == "wide":
                cells.append("1.0")
            else:
                cells[draw(st.integers(0, dim - 1))] = fault
        sep = draw(_SEPARATORS)
        lines.append(draw(st.sampled_from(["", " "])) + token + sep + sep.join(cells)
                     + draw(st.sampled_from(["", " ", "\t"])))
    if draw(st.booleans()):
        count = len(set(tokens)) + draw(st.sampled_from([0, 0, 1]))
        lines.insert(0, "%d %d" % (count, dim + draw(st.sampled_from([0, 0, 1]))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _load_outcome(loader, source):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = loader(source)
        except ValueError as exc:
            return ("error", str(exc)), [str(w.message) for w in caught]
    keys = list(table.vectors)
    return (keys, table.dim, [table.vectors[k].tobytes() for k in keys],
            table.unk.tobytes()), [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None)
@given(text=embedding_texts(), as_path=st.booleans())
def test_load_embeddings_matches_float_reference(text, as_path):
    if as_path:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "emb.txt")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            got = _load_outcome(load_embeddings, path)
            want = _load_outcome(_reference_load_embeddings, path)
    else:
        got = _load_outcome(load_embeddings, io.StringIO(text))
        want = _load_outcome(_reference_load_embeddings, io.StringIO(text))
    assert got == want


@settings(max_examples=50, deadline=None)
@given(values=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)),
       tokens=st.lists(st.text(st.characters(blacklist_categories=("Z", "C")),
                               min_size=1, max_size=5), min_size=6, max_size=6, unique=True))
def test_embeddings_write_load_round_trip_bit_exact(values, tokens):
    table = EmbeddingTable(dim=values.shape[1], unk=np.zeros(values.shape[1]),
                           vectors=dict(zip(tokens, values)))
    buf = io.StringIO()
    write_embeddings(table, buf)
    with np.errstate(over="ignore", invalid="ignore"):
        unk = np.mean(values, axis=0)
    if not np.isfinite(unk).all():
        with pytest.raises(ValueError, match="mean vector used for unknown tokens overflows"):
            load_embeddings(io.StringIO(buf.getvalue()))
        return
    back = load_embeddings(io.StringIO(buf.getvalue()))
    assert list(back.vectors) == list(table.vectors)
    for token, vec in table.vectors.items():
        assert back.vectors[token].tobytes() == vec.tobytes()
    assert back.unk.tobytes() == unk.tobytes()


def test_sequence_to_reps():
    table = load_embeddings(io.StringIO("a 1.0 0.0\nb 0.0 1.0\n"))
    seq = TokenSequence(tokens=["a", "zzz", "B"])
    reps = sequence_to_reps(seq, table)
    assert reps.length == 3
    np.testing.assert_allclose(reps.h[0], [1.0, 0.0])
    np.testing.assert_allclose(reps.h[1], table.unk)
    np.testing.assert_allclose(reps.h[2], [0.0, 1.0])   # lowercase hit


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _vocab(n, scheme="PLAIN"):
    labels = ["L%d" % k for k in range(n)]
    return LabelVocab(labels=labels, id_of={lab: k for k, lab in enumerate(labels)}, scheme=scheme)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_model_round_trip_bit_exact(family):
    params = init_params(family, 3, 4, seed=5, d_t=3, d_r=2, mlp_hidden=4)
    buf = io.StringIO()
    save_model(params, _vocab(3), buf)
    loaded, vocab = load_model(io.StringIO(buf.getvalue()))
    assert loaded.family == params.family
    assert vocab.labels == ["L0", "L1", "L2"]
    for (name, arr), (_, back) in zip(params.param_items(), loaded.param_items()):
        assert arr.tobytes() == back.tobytes(), name


# sha256 of the model file of init_params(family, 5, 10, seed=7, d_t=6, d_r=4,
# mlp_hidden=8) with labels L0..L4: pins the seeded draw order, the field
# order and the file layout (format 2: one base64 line per block) of every
# family.
SEEDED_MODEL_SHA256 = {
    "softmax": "6638ec2ab3495b30d1373e60484e807986912a0ff868b92359576b4577e9b4b0",
    "vanilla-crf": "7651c6c5ae072904bc211e68170f3d132d875903e887439ff0d3c5bbefbf91e4",
    "two-bilinear": "7efc1a8a522f89973854f4ab0dff1d6fdab365c65403f0458082fb87e7e9bfbd",
    "three-bilinear": "5e6bec0e909602b6d7e634ec8da79ea4f6d2bf9a3fb921ac5fe474b6d95597ba",
    "trilinear": "f565e81c72dfc92d0ff5c6f7add2115ebbe9296f0f613e98e7169e0596bd225f",
    "d-trilinear": "5cbccc3ada3a7f9c468f36522c87dba7bda0774916bc855e7d652732b3b86c41",
    "d-quadrilinear": "aba07fde0521429b00179403232ad0e3a9acf71b0b132de5d9b47eda819cd279",
    "d-pentalinear": "a140aaf5d0c221c89db35b280dcf41b7090bf5c294c570caee860bc1d9164016",
    "concat-mlp-1w2l": "ecdc555bbb73dc09172351c4c6cbb204cc20919fd897e01429c1b6df37d2f5c1",
    "concat-mlp-2w2l": "b54fc5800b7dd4a8285e1dbdab8bd9339344c42581cd34f259647de92bca13d9",
}


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_seeded_model_file_is_pinned(family):
    params = init_params(family, 5, 10, seed=7, d_t=6, d_r=4, mlp_hidden=8)
    buf = io.StringIO()
    save_model(params, _vocab(5), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SEEDED_MODEL_SHA256[family.value]


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(list(Family)), num_labels=st.integers(1, 4),
       dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
                      st.integers(1, 4)),
       data=st.data())
def test_model_round_trip_bit_exact_any_values(family, num_labels, dims, data):
    d_h, d_t, d_r, hidden = dims
    params = init_params(family, num_labels, d_h, seed=0, d_t=d_t, d_r=d_r, mlp_hidden=hidden)
    for _, arr in params.param_items():
        arr[...] = data.draw(hnp.arrays(np.float64, arr.shape, elements=st.floats(
            allow_nan=False, allow_infinity=False)))
    buf = io.StringIO()
    save_model(params, _vocab(num_labels), buf)
    loaded, vocab = load_model(io.StringIO(buf.getvalue()))
    assert (loaded.family, loaded.num_labels, loaded.d_h, loaded.d_t, loaded.d_r) == (
        params.family, params.num_labels, params.d_h, params.d_t, params.d_r)
    assert vocab.labels == _vocab(num_labels).labels
    assert [name for name, _ in loaded.param_items()] == [name for name, _ in params.param_items()]
    for (name, arr), (_, back) in zip(params.param_items(), loaded.param_items()):
        assert arr.tobytes() == back.tobytes(), name


def test_model_truncated_file_rejected():
    params = init_params(Family.VANILLA_CRF, 3, 4, seed=5)
    buf = io.StringIO()
    save_model(params, _vocab(3), buf)
    text = buf.getvalue()
    with pytest.raises(ValueError, match="truncated|missing"):
        load_model(io.StringIO(text[: len(text) // 2]))


def test_model_unknown_family_rejected():
    params = init_params(Family.VANILLA_CRF, 3, 4, seed=5)
    buf = io.StringIO()
    save_model(params, _vocab(3), buf)
    text = buf.getvalue().replace("family vanilla-crf", "family frobnicator")
    with pytest.raises(ValueError, match="unknown family"):
        load_model(io.StringIO(text))


def test_model_version_mismatch_rejected():
    params = init_params(Family.VANILLA_CRF, 3, 4, seed=5)
    buf = io.StringIO()
    save_model(params, _vocab(3), buf)
    text = buf.getvalue().replace("chaincrf-model 2", "chaincrf-model 3")
    with pytest.raises(ValueError, match="version 3: this reader reads version 2"):
        load_model(io.StringIO(text))


def test_model_version_1_file_rejected():
    # format 1 wrote each block as rows of decimal floats; it is not read
    params = init_params(Family.VANILLA_CRF, 3, 4, seed=5)
    lines = _model_text().replace("chaincrf-model 2", "chaincrf-model 1").splitlines()
    for k in [i for i, l in enumerate(lines) if l.startswith("param")][::-1]:
        arr = params.arrays[lines[k].split()[1]]
        lines[k + 1: k + 2] = [" ".join(repr(float(v)) for v in row)
                               for row in arr.reshape(-1, arr.shape[-1])]
    with pytest.raises(ValueError, match=r"^unsupported model format version 1: "
                                         r"this reader reads version 2$"):
        load_model(io.StringIO("\n".join(lines) + "\n"))


def test_model_missing_field_named():
    params = init_params(Family.VANILLA_CRF, 3, 4, seed=5)
    buf = io.StringIO()
    save_model(params, _vocab(3), buf)
    lines = buf.getvalue().splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("param w_h"))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith(("param", "end")))
    text = "\n".join(lines[:start] + lines[end:]) + "\n"
    with pytest.raises(ValueError, match="missing field: w_h"):
        load_model(io.StringIO(text))


def _model_text(family=Family.VANILLA_CRF):
    params = init_params(family, 3, 4, seed=5)
    buf = io.StringIO()
    save_model(params, _vocab(3), buf)
    return buf.getvalue()


def test_model_label_count_mismatch_rejected():
    # one label name dropped: without the check `tag` fails with an
    # IndexError on the missing label
    text = _model_text().replace("labels 3\nL0\nL1\nL2\n", "labels 2\nL0\nL1\n")
    with pytest.raises(ValueError, match="lists 2 labels but num_labels is 3"):
        load_model(io.StringIO(text))


def test_save_model_rejects_label_count_mismatch():
    params = init_params(Family.VANILLA_CRF, 3, 4, seed=5)
    with pytest.raises(ValueError, match="vocabulary has 2 labels but the model has 3"):
        save_model(params, _vocab(2), io.StringIO())


def test_model_duplicate_label_rejected():
    text = _model_text().replace("L0\nL1\nL2\n", "L0\nL1\nL0\n")
    with pytest.raises(ValueError, match="duplicate label in model file: L0"):
        load_model(io.StringIO(text))


def test_model_bare_param_line_rejected():
    lines = _model_text().splitlines()
    k = next(i for i, l in enumerate(lines) if l.startswith("param w_h"))
    lines[k] = "param"
    with pytest.raises(ValueError, match="malformed model file at line %d" % (k + 1)):
        load_model(io.StringIO("\n".join(lines) + "\n"))


def test_model_duplicate_param_block_rejected():
    # a second w_h block used to replace the first silently
    lines = _model_text().splitlines()
    k = next(i for i, l in enumerate(lines) if l.startswith("param w_h"))
    block = ["param w_h 4 3", _b64(np.full(12, 9.0))]
    text = "\n".join(lines[:-1] + block + lines[-1:]) + "\n"
    assert lines[k] == block[0]
    with pytest.raises(ValueError, match="duplicate parameter in model file: w_h"):
        load_model(io.StringIO(text))


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize("edit, message", [
    (lambda line: line[:5] + "*" + line[6:], "is not base64"),
    (lambda line: line[:5] + "\u00e9" + line[6:], "is not base64"),
    (lambda line: line[:-3], "is not base64"),
    (lambda line: " ".join(["0.5"] * 3), "is not base64"),
    (lambda line: line[:-4], "has 93 bytes, want 96"),
    (lambda line: _b64(np.zeros(11)), "has 88 bytes, want 96"),
    (lambda line: _b64(np.zeros(13)), "has 104 bytes, want 96"),
    (lambda line: "", "has 0 bytes, want 96"),
    (None, "is not base64"),
], ids=["non-alphabet", "non-ascii", "bad-padding", "decimal-row", "cut-short", "fewer-values",
        "more-values", "empty-line", "missing-line"])
def test_model_bad_data_line_names_parameter_and_line(edit, message):
    # transition_table (4 x 3) is followed by one line: base64 of its 96 bytes
    lines = _model_text().splitlines()
    k = next(i for i, l in enumerate(lines) if l.startswith("param transition_table")) + 1
    if edit is None:
        del lines[k]     # the w_h line is read as its data
    else:
        lines[k] = edit(lines[k])
    message = "^line %d: parameter transition_table %s$" % (k + 1, message)
    with pytest.raises(ValueError, match=message) as info:
        load_model(io.StringIO("\n".join(lines) + "\n"))
    assert type(info.value) is ValueError


@pytest.mark.parametrize("cut, message", [
    (lambda text: text[: text.index("\n", text.index("param w_h")) + 1],
     r"truncated model file after line 15"),
    (lambda text: text[: text.rindex("\nend") - 5],
     r"truncated model file: line 16: parameter w_h is not base64"),
], ids=["after-param-line", "in-last-data-line"])
def test_model_file_cut_short_names_where(cut, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        load_model(io.StringIO(cut(_model_text())))


def test_model_unknown_scheme_rejected():
    text = _model_text().replace("scheme PLAIN", "scheme BOGUS")
    with pytest.raises(ValueError, match="unknown scheme in model file: BOGUS"):
        load_model(io.StringIO(text))


def test_save_model_rejects_unknown_scheme():
    params = init_params(Family.VANILLA_CRF, 3, 4, seed=5)
    with pytest.raises(ValueError, match="unknown scheme: bioes"):
        save_model(params, _vocab(3, scheme="bioes"), io.StringIO())


def _load_model_error(text):
    """The exception `load_model` raises on `text`; fails if it loads."""
    with pytest.raises(Exception) as info:
        load_model(io.StringIO(text))
    return info.value


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(list(Family)), data=st.data())
def test_malformed_model_file_raises_value_error(family, data):
    """Truncated files, data lines that are missing, cut short, hold the
    wrong byte count or a character outside base64, and bad header lines
    all raise a plain ValueError (never an IndexError, a numpy error, a
    binascii error or a decode error); a bad data line is named."""
    params = init_params(family, 3, 4, seed=5, d_t=3, d_r=2, mlp_hidden=4)
    buf = io.StringIO()
    save_model(params, _vocab(3), buf)
    lines = buf.getvalue().splitlines()
    first_param = next(i for i, l in enumerate(lines) if l.startswith("param"))
    values = [i for i in range(first_param, len(lines) - 1) if not lines[i].startswith("param")]
    fault = data.draw(st.sampled_from(["truncate", "missing", "cut", "bytes", "non-alphabet",
                                       "header"]))
    if fault == "truncate":
        # cut anywhere before the closing "end" line, mid-line included
        text = "\n".join(lines)
        text = text[: data.draw(st.integers(0, len(text) - len("end") - 1))]
    else:
        k = data.draw(st.sampled_from(values))
        line = lines[k]
        if fault == "missing":
            line = None
        elif fault == "cut":
            start = data.draw(st.integers(0, len(line) - 1))
            line = line[:start] + line[data.draw(st.integers(start + 1, len(line))):]
        elif fault == "bytes":
            want = len(base64.b64decode(line))
            n = data.draw(st.integers(0, 2 * want).filter(lambda n: n != want))
            line = base64.b64encode(bytes(n)).decode("ascii")
        elif fault == "non-alphabet":
            at = data.draw(st.integers(0, len(line) - 1))
            line = line[:at] + data.draw(st.sampled_from(["*", " ", "\u00e9", "-", "_", ".",
                                                          "\t", "0.5"])) + line[at + 1:]
        else:
            k = data.draw(st.integers(0, 7))
            key = lines[k].split()[0]
            cells = [key, data.draw(st.sampled_from(["x", "-1", "1.5", "", "2 3"]))]
            if k == 0:
                cells = data.draw(st.sampled_from([["chaincrf"], ["chaincrf-model", "x"],
                                                   ["chaincrf-model", "2", "2"], ["model", "2"],
                                                   ["chaincrf-model", "1"]]))
            line = " ".join(cells)
        lines[k: k + 1] = [] if line is None else [line]
        text = "\n".join(lines) + "\n"
    error = _load_model_error(text)
    assert type(error) is ValueError
    if fault in ("cut", "bytes", "non-alphabet"):
        assert str(error).startswith("line %d: parameter " % (k + 1)), error


# ---------------------------------------------------------------------------
# files: every reader takes a path or an open text file, every writer a
# path or a writable file
# ---------------------------------------------------------------------------

_SEQS = [TokenSequence(["Zürich", "is", "cold"], ["S-LOC", "O", "O"]), TokenSequence(["ok"])]
_TABLE = EmbeddingTable(dim=2, vectors={"Zürich": np.array([0.1, -2.5]),
                                        "is": np.array([1e-300, 3.0])}, unk=np.zeros(2))
_PARAMS = init_params(Family.D_QUADRILINEAR, 2, 4, seed=5, d_t=3, d_r=2)
_REPORT = TrainReport(epochs=[EpochRecord(0, 1.5, 0.25, 0.125),
                              EpochRecord(1, 0.1, float("nan"), 0.5)])
WRITERS = {
    "write_conll": lambda target: write_conll(_SEQS, target),
    "write_embeddings": lambda target: write_embeddings(_TABLE, target),
    "save_model": lambda target: save_model(_PARAMS, build_label_vocab(_SEQS[:1]), target),
    "to_csv": _REPORT.to_csv,
}
READERS = {"read_conll": "write_conll", "load_embeddings": "write_embeddings",
           "load_model": "save_model"}


def _record_opened(monkeypatch):
    """The list of the files that `dataio` opens by path from now on."""
    files = []

    def recording_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(dataio, "open", recording_open, raising=False)
    return files


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writers_write_the_same_bytes_to_a_path_and_a_file(writer, tmp_path, monkeypatch):
    buf = io.StringIO()
    WRITERS[writer](buf)
    assert not buf.closed
    files = _record_opened(monkeypatch)
    path = tmp_path / "out.txt"
    WRITERS[writer](path)
    assert len(files) == 1 and files[0].closed
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_read_the_same_from_a_path_and_a_file(reader, tmp_path, monkeypatch):
    path = tmp_path / "in.txt"
    WRITERS[READERS[reader]](path)
    read = getattr(dataio, reader)
    files = _record_opened(monkeypatch)
    from_path = read(path)
    assert len(files) == 1 and files[0].closed
    with open(path, encoding="utf-8") as fh:
        from_file = read(fh)
        assert not fh.closed
    assert pickle.dumps(from_file) == pickle.dumps(from_path)
