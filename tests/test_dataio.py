import io

import numpy as np
import pytest

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
from chaincrf.dataio import (
    EmbeddingTable,
    LabelVocab,
    detect_scheme,
    spans_from_bio,
)


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


def test_sequence_to_reps():
    table = load_embeddings(io.StringIO("a 1.0 0.0\nb 0.0 1.0\n"))
    seq = TokenSequence(tokens=["a", "zzz", "B"])
    reps = sequence_to_reps(seq, table)
    assert reps.length == 3
    np.testing.assert_allclose(reps.h[0], [1.0, 0.0])
    np.testing.assert_allclose(reps.h[1], table.unk)
    np.testing.assert_allclose(reps.h[2], [0.0, 1.0])   # lowercase hit
    np.testing.assert_array_equal(reps.h_pre, 0.0)
    np.testing.assert_array_equal(reps.h_post, 0.0)


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
    text = buf.getvalue().replace("chaincrf-model 1", "chaincrf-model 2")
    with pytest.raises(ValueError, match="version"):
        load_model(io.StringIO(text))


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
