import base64
import json
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from chaincrf import (
    Family,
    SyntheticSpec,
    TokenSequence,
    build_label_vocab,
    generate_synthetic,
    init_params,
    load_embeddings,
    load_model,
    read_conll,
    save_model,
    score_lattices,
    sequence_to_reps,
    write_conll,
    write_embeddings,
)
from chaincrf import cli, inference, potentials, training
from chaincrf.cli import (
    ConfigError,
    dump_config,
    main,
    parse_config,
    run_bench,
)
from chaincrf.training import decode_paths


def write_corpus(tmp_path, seed=0, n=80):
    spec = SyntheticSpec(num_labels=3, vocab_size=9, d_h=10, order="first",
                         min_len=2, max_len=5, n_train=n, n_dev=20, n_test=20,
                         seed=seed)
    train, dev, test, table = generate_synthetic(spec)
    paths = {}
    for name, seqs in (("train", train), ("dev", dev), ("test", test)):
        paths[name] = tmp_path / ("%s.conll" % name)
        write_conll(seqs, paths[name])
    paths["emb"] = tmp_path / "emb.txt"
    write_embeddings(table, paths["emb"])
    return paths


def base_config(tmp_path, paths, **extra):
    cfg = {
        "train_path": str(paths["train"]),
        "dev_path": str(paths["dev"]),
        "embeddings_path": str(paths["emb"]),
        "model_path": str(tmp_path / "model.txt"),
        "output_path": str(tmp_path / "report.csv"),
        "family": "d-trilinear",
        "scheme": "plain",
        "d_t": 8,
        "d_r": 6,
        "max_epochs": 25,
        "patience": 25,
        "batch_size": 8,
        "seed": 1,
        "target_dev_metric": 1.0,
    }
    cfg.update(extra)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "config.txt"
    path.write_text(dump_config(cfg))
    return path, cfg


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_basics():
    cfg = parse_config("family=vanilla-crf\n# a comment\nbatch_size=16\nl2=1e-8\n")
    assert cfg == {"family": "vanilla-crf", "batch_size": 16, "l2": 1e-8}


def test_parse_config_hash_inside_value_is_kept():
    cfg = parse_config("train_path=/data/run#3/x\n"
                       "scheme=bioes            # bioes (convert BIO), bio (keep)\n"
                       "  # indented comment\n"
                       "seed=3\t# after a tab\n")
    assert cfg == {"train_path": "/data/run#3/x", "scheme": "bioes", "seed": 3}


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key: turbo"):
        parse_config("turbo=yes\n")


def test_parse_config_bad_value():
    with pytest.raises(ConfigError, match="invalid value"):
        parse_config("batch_size=many\n")


def test_config_round_trip():
    cfg = {"family": "d-quadrilinear", "batch_size": 32, "learning_rate": 0.1,
           "train_path": "/tmp/x.conll"}
    assert parse_config(dump_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# train + tag + eval end to end
# ---------------------------------------------------------------------------

def test_train_tag_eval_pipeline(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths)
    assert main(["train", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "epoch=0" in out and "best_epoch=" in out
    assert (tmp_path / "report.csv").exists()

    params, vocab = load_model(cfg["model_path"])
    assert params.family.value == "d-trilinear"
    assert vocab.scheme == "PLAIN"

    tagged = tmp_path / "tagged.conll"
    assert main(["tag", "--model", cfg["model_path"], "--embeddings", str(paths["emb"]),
                 "--input", str(paths["test"]), "--output", str(tagged)]) == 0
    pred = read_conll(tagged)
    gold = read_conll(paths["test"])
    assert [len(s) for s in pred] == [len(s) for s in gold]

    assert main(["eval", "--gold", str(paths["test"]), "--pred", str(tagged)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("precision=")
    record = json.loads(out[-1])
    # mechanics check: the tiny first-order task is clearly learned
    assert record["token_accuracy"] >= 0.85


def test_train_saturated_model_reproduces_training_labels(tmp_path, capsys):
    paths = write_corpus(tmp_path, seed=3)
    # no dev set: train to max_epochs and keep the final, saturated model
    config_path, cfg = base_config(tmp_path, paths, max_epochs=40,
                                   dev_path=None, target_dev_metric=None)
    assert main(["train", "--config", str(config_path)]) == 0
    tagged = tmp_path / "selftag.conll"
    assert main(["tag", "--model", cfg["model_path"], "--embeddings", str(paths["emb"]),
                 "--input", str(paths["train"]), "--output", str(tagged)]) == 0
    pred = read_conll(tagged)
    gold = read_conll(paths["train"])
    agree = sum(p.labels == g.labels for p, g in zip(pred, gold))
    assert agree >= 0.95 * len(gold)
    capsys.readouterr()


def test_train_missing_embeddings_key(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    config_path, _ = base_config(tmp_path, paths)
    text = "\n".join(l for l in config_path.read_text().splitlines()
                     if not l.startswith("embeddings_path"))
    config_path.write_text(text)
    assert main(["train", "--config", str(config_path)]) == 2
    assert "missing key: embeddings_path" in capsys.readouterr().err


@pytest.mark.parametrize("family,size", [("two-bilinear", "d_t"), ("d-quadrilinear", "d_r"),
                                         ("concat-mlp-1w2l", "mlp_hidden")])
def test_train_zero_size_exit_1(tmp_path, capsys, family, size):
    paths = write_corpus(tmp_path, n=10)
    config_path, cfg = base_config(tmp_path, paths, family=family, max_epochs=1,
                                   **{size: 0})
    assert main(["train", "--config", str(config_path)]) == 1
    assert "%s must be positive for %s, got 0" % (size, family) in capsys.readouterr().err
    assert not os.path.exists(cfg["model_path"])


@pytest.mark.parametrize("key,value,message", [
    ("lr_decay", -0.5, "lr_decay must be positive"),
    ("l2", -1.0, "l2 must be at least 0"),
    ("grad_clip", -1.0, "grad_clip must be at least 0"),
    ("max_epochs", 0, "max_epochs must be at least 1"),
    ("patience", 0, "patience must be at least 1"),
] + [(key, value, "%s must be finite, got %s" % (key, value))
     for key in ("learning_rate", "lr_decay", "l2", "grad_clip")
     for value in ("nan", "inf")])
def test_train_bad_config_value_exit_1(tmp_path, capsys, key, value, message):
    paths = write_corpus(tmp_path, n=10)
    config_path, cfg = base_config(tmp_path, paths, **{key: value})
    assert main(["train", "--config", str(config_path)]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(cfg["model_path"])


def test_train_flag_overrides_family(tmp_path):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path), "--family", "softmax",
                 "--seed", "5"]) == 0
    params, _ = load_model(cfg["model_path"])
    assert params.family.value == "softmax"


def test_train_subsample_flag(tmp_path, capsys):
    paths = write_corpus(tmp_path, n=40)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path), "--subsample", "0.1"]) == 0
    capsys.readouterr()
    # 4 of 40 sequences at batch size 8 is a single batch per epoch
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert len(report) == 2


def test_train_subsample_selecting_nothing_exit_1(tmp_path, capsys):
    paths = write_corpus(tmp_path, n=40)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path), "--subsample", "0.01"]) == 1
    assert ("subsample_fraction 0.01 of 40 training sequences selects none"
            in capsys.readouterr().err)
    assert not os.path.exists(cfg["model_path"])


def test_train_plain_scheme_on_bio_labels_selects_by_token_accuracy(tmp_path, capsys):
    paths = write_corpus(tmp_path, n=20)
    bio = {"L0": "O", "L1": "B-X", "L2": "I-X"}
    for name in ("train", "dev"):
        seqs = [TokenSequence(tokens=s.tokens, labels=[bio[lab] for lab in s.labels])
                for s in read_conll(paths[name])]
        write_conll(seqs, paths[name])
    config_path, cfg = base_config(tmp_path, paths, max_epochs=2, target_dev_metric=None)
    assert main(["train", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "best_dev_token_accuracy=" in out and "span_f1" not in out
    _, vocab = load_model(cfg["model_path"])
    assert vocab.scheme == "PLAIN"
    assert vocab.labels == ["B-X", "I-X", "O"]


def test_train_family_name_is_case_insensitive(tmp_path, capsys):
    paths = write_corpus(tmp_path, n=10)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path), "--family", "D-Quadrilinear"]) == 0
    capsys.readouterr()
    params, _ = load_model(cfg["model_path"])
    assert params.family is Family.D_QUADRILINEAR


def test_train_unknown_family_exit_1(tmp_path, capsys):
    paths = write_corpus(tmp_path, n=10)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path), "--family", "nope"]) == 1
    assert "error: unknown family: nope" in capsys.readouterr().err
    assert not os.path.exists(cfg["model_path"])


@pytest.mark.parametrize("key,value", [("metric", "token_accuracy"),
                                       ("test_path", "test.conll")])
def test_train_removed_config_key_unknown_exit_2(tmp_path, capsys, key, value):
    paths = write_corpus(tmp_path, n=10)
    config_path, cfg = base_config(tmp_path, paths, **{key: value})
    assert main(["train", "--config", str(config_path)]) == 2
    assert "unknown key: %s" % key in capsys.readouterr().err
    assert not os.path.exists(cfg["model_path"])


def test_train_threads_config_key_unknown_exit_2(tmp_path, capsys):
    paths = write_corpus(tmp_path, n=10)
    config_path, cfg = base_config(tmp_path, paths, threads=2)
    assert main(["train", "--config", str(config_path)]) == 2
    assert "unknown key: threads" in capsys.readouterr().err
    assert not os.path.exists(cfg["model_path"])


def test_train_threads_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--threads", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_tag_empty_input(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path)]) == 0
    empty = tmp_path / "empty.conll"
    empty.write_text("")
    out = tmp_path / "empty_tagged.conll"
    assert main(["tag", "--model", cfg["model_path"], "--embeddings", str(paths["emb"]),
                 "--input", str(empty), "--output", str(out)]) == 0
    assert read_conll(out) == []
    capsys.readouterr()


def test_tag_in_blocks_matches_whole_list_decode(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=2)
    assert main(["train", "--config", str(config_path)]) == 0
    params, vocab = load_model(cfg["model_path"])
    table = load_embeddings(paths["emb"])
    seqs = read_conll(paths["test"])
    reps = [sequence_to_reps(seq, table) for seq in seqs]
    want = [[vocab.labels[k] for k in path]
            for path in decode_paths(params, score_lattices(params, reps))]
    out = tmp_path / "tagged.conll"
    L = params.num_labels
    lengths = [r.length for r in reps]
    # one CPU, so the part count is read from one thread's calls
    with mock.patch.object(inference, "CHUNK_CELLS", 6 * L * L), \
            mock.patch.object(potentials, "MLP_BLOCK_CELLS", 2 * L * L), \
            mock.patch.object(potentials.os, "sched_getaffinity", lambda pid: {0}), \
            mock.patch.object(training, "decode_paths", wraps=decode_paths) as decoded, \
            mock.patch.object(potentials, "_score_block", wraps=potentials._score_block) as scored:
        blocks = inference.cell_blocks(lengths, L)
        parts = [inference.cell_blocks(lengths[lo:hi], L, potentials.MLP_BLOCK_CELLS)
                 for lo, hi in blocks]
        assert len(blocks) >= 3 and sum(map(len, parts)) > len(blocks)
        assert main(["tag", "--model", cfg["model_path"], "--embeddings", str(paths["emb"]),
                     "--input", str(paths["test"]), "--output", str(out)]) == 0
        assert decoded.call_count == len(blocks)
        assert scored.call_count == sum(map(len, parts))
        empty, empty_out = tmp_path / "empty.conll", tmp_path / "empty_tagged.conll"
        empty.write_text("")
        assert main(["tag", "--model", cfg["model_path"], "--embeddings", str(paths["emb"]),
                     "--input", str(empty), "--output", str(empty_out)]) == 0
    tagged = read_conll(out)
    assert [s.tokens for s in tagged] == [s.tokens for s in seqs]
    assert [s.labels for s in tagged] == want
    assert empty_out.read_text() == ""
    capsys.readouterr()


def test_tag_unknown_tokens_no_crash(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path)]) == 0
    novel = tmp_path / "novel.conll"
    novel.write_text("zzz\nqqq\n\n")
    out = tmp_path / "novel_tagged.conll"
    assert main(["tag", "--model", cfg["model_path"], "--embeddings", str(paths["emb"]),
                 "--input", str(novel), "--output", str(out)]) == 0
    assert len(read_conll(out)[0]) == 2
    capsys.readouterr()


def test_tag_non_finite_embedding_exit_1(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path)]) == 0
    lines = paths["emb"].read_text().splitlines()
    count, dim = (int(v) for v in lines[0].split())
    lines = ["%d %d" % (count + 1, dim)] + lines[1:] + ["poison" + " nan" * dim]
    poisoned = tmp_path / "poisoned.txt"
    poisoned.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["tag", "--model", cfg["model_path"], "--embeddings", str(poisoned),
                 "--input", str(paths["test"]), "--output", str(tmp_path / "out.conll")]) == 1
    assert "error: line %d: non-finite embedding value" % len(lines) in capsys.readouterr().err


def test_tag_overflowing_model_exit_1(tmp_path, capsys):
    # every value is finite, but the scores overflow and decode to nan
    paths = write_corpus(tmp_path)
    vocab = build_label_vocab(read_conll(paths["train"]))
    params = init_params(Family.D_QUADRILINEAR, vocab.size, 10, seed=1, d_t=8, d_r=6)
    for name in ("u_h1", "u_h2", "label_embeddings"):
        params.arrays[name] *= 1e80
    model = tmp_path / "overflowing.model"
    save_model(params, vocab, model)
    out = tmp_path / "out.conll"
    with np.errstate(all="ignore"):
        assert main(["tag", "--model", str(model), "--embeddings", str(paths["emb"]),
                     "--input", str(paths["test"]), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: best path score of sequence ")
    assert "NaN or +inf" in err
    assert not out.exists()


def test_tag_overflowing_softmax_model_exit_1(tmp_path, capsys):
    # softmax decodes one sequence at a time, and still names the sequence
    paths = write_corpus(tmp_path)
    vocab = build_label_vocab(read_conll(paths["train"]))
    params = init_params(Family.SOFTMAX, vocab.size, 10, seed=1)
    params.arrays["w_h"] *= 1e308
    model = tmp_path / "overflowing.model"
    save_model(params, vocab, model)
    out = tmp_path / "out.conll"
    with np.errstate(all="ignore"):
        assert main(["tag", "--model", str(model), "--embeddings", str(paths["emb"]),
                     "--input", str(paths["test"]), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: best path score of sequence \d+ of the batch"
                    r" is (nan|inf): its scores hold NaN or \+inf", err), err
    assert not out.exists()


@pytest.mark.parametrize("bad_row, message", [
    ("bad" + " 0.5" * 9 + " x", "non-numeric embedding value"),
    ("bad" + " 0.5" * 9, "expected 10 dimensions, got 9"),
])
def test_tag_malformed_embedding_row_exit_1(tmp_path, capsys, bad_row, message):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path)]) == 0
    lines = paths["emb"].read_text().splitlines()
    lines.insert(3, bad_row)
    broken = tmp_path / "broken_emb.txt"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["tag", "--model", cfg["model_path"], "--embeddings", str(broken),
                 "--input", str(paths["test"]), "--output", str(tmp_path / "out.conll")]) == 1
    assert "error: line 4: %s" % message in capsys.readouterr().err


def test_tag_embedding_width_differs_from_model_exit_1(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path)]) == 0
    narrow = tmp_path / "narrow_emb.txt"
    narrow.write_text("w0 0.5 0.5 0.5\nw1 0.5 0.5 0.5\n")
    capsys.readouterr()
    assert main(["tag", "--model", cfg["model_path"], "--embeddings", str(narrow),
                 "--input", str(paths["test"]), "--output", str(tmp_path / "out.conll")]) == 1
    assert "error: line 1: expected 10 dimensions, got 3" in capsys.readouterr().err


def test_tag_inconsistent_model_exit_1(tmp_path, capsys):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path)]) == 0
    lines = Path(cfg["model_path"]).read_text(encoding="utf-8").splitlines()
    k = lines.index("labels 3")
    # header says 2 labels and the third label name is dropped
    lines = lines[:k] + ["labels 2"] + lines[k + 1: k + 3] + lines[k + 4:]
    broken = tmp_path / "broken.model"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["tag", "--model", str(broken), "--embeddings", str(paths["emb"]),
                 "--input", str(paths["test"]), "--output", str(tmp_path / "out.conll")]) == 1
    assert "error: model file lists 2 labels but num_labels is 3" in capsys.readouterr().err


def _repeat_u_h_block_of_nines(lines):
    k = next(i for i, l in enumerate(lines) if l.startswith("param u_h "))
    rows, cols = (int(d) for d in lines[k].split()[2:])
    nines = base64.b64encode(np.full(rows * cols, 9.0, dtype="<f8").tobytes()).decode()
    return lines[:-1] + [lines[k], nines] + lines[-1:]


@pytest.mark.parametrize("edit, message", [
    (_repeat_u_h_block_of_nines, "duplicate parameter in model file: u_h"),
    (lambda lines: [("scheme BOGUS" if l.startswith("scheme") else l) for l in lines],
     "unknown scheme in model file: BOGUS"),
], ids=["duplicate-param", "unknown-scheme"])
def test_tag_malformed_model_exit_1(tmp_path, capsys, edit, message):
    paths = write_corpus(tmp_path)
    config_path, cfg = base_config(tmp_path, paths, max_epochs=1)
    assert main(["train", "--config", str(config_path)]) == 0
    lines = Path(cfg["model_path"]).read_text(encoding="utf-8").splitlines()
    broken = tmp_path / "broken.model"
    broken.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    assert main(["tag", "--model", str(broken), "--embeddings", str(paths["emb"]),
                 "--input", str(paths["test"]), "--output", str(tmp_path / "out.conll")]) == 1
    assert "error: %s" % message in capsys.readouterr().err


def test_eval_identical_files(tmp_path, capsys):
    gold = tmp_path / "gold.conll"
    gold.write_text("a S-X\nb O\n\n")
    assert main(["eval", "--gold", str(gold), "--pred", str(gold)]) == 0
    assert "f1=1.0000" in capsys.readouterr().out


def test_eval_disjoint_spans(tmp_path, capsys):
    gold = tmp_path / "gold.conll"
    pred = tmp_path / "pred.conll"
    gold.write_text("a S-X\nb O\n\n")
    pred.write_text("a O\nb S-X\n\n")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
    assert "f1=0.0000" in capsys.readouterr().out


def test_eval_alignment_mismatch_exit_3(tmp_path, capsys):
    gold = tmp_path / "gold.conll"
    pred = tmp_path / "pred.conll"
    gold.write_text("a O\nb O\n\n")
    pred.write_text("a O\n\n")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_single_family_passes(capsys):
    assert main(["gradcheck", "--family", "d-quadrilinear", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out


def test_gradcheck_softmax_passes(capsys):
    assert main(["gradcheck", "--family", "softmax"]) == 0
    capsys.readouterr()


def test_gradcheck_all_families_passes(capsys):
    assert main(["gradcheck", "--family", "all"]) == 0
    out = capsys.readouterr().out
    for family in Family:
        assert "%s viterbi_path err=0.000e+00" % family.value in out


def test_gradcheck_corrupted_gradient_exit_4(capsys, monkeypatch):
    pullback = cli.backprop_lattices

    def corrupted(*args):
        grad = pullback(*args)
        grad["w_h"] = grad["w_h"] + 1e-2
        return grad

    monkeypatch.setattr(cli, "backprop_lattices", corrupted)
    assert main(["gradcheck", "--family", "vanilla-crf"]) == 4
    assert "w_h" in capsys.readouterr().err


def test_gradcheck_has_no_corrupt_flag(capsys):
    with pytest.raises(SystemExit):
        main(["gradcheck", "--family", "vanilla-crf", "--corrupt", "w_h"])
    assert "unrecognized arguments: --corrupt" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_smoke(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    assert main(["bench", "--family", "vanilla-crf", "--labels", "4", "--d-h", "8",
                 "--d-t", "6", "--d-r", "4", "--length", "5", "--batch", "2",
                 "--reps", "2", "--output", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ("family,train_step_seconds,decode_seconds_per_sequence,"
                        "train_step_peak_mb,nll_ms")
    assert lines[1].startswith("vanilla-crf,")
    assert len(lines[1].split(",")) == 5
    capsys.readouterr()


def test_bench_all_families(capsys):
    assert main(["bench", "--family", "all", "--labels", "3", "--d-h", "4",
                 "--d-t", "3", "--d-r", "2", "--length", "3", "--batch", "2",
                 "--reps", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [f.value for f in Family]


def test_bench_json_rows_and_environment(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--family", "vanilla-crf,d-trilinear", "--labels", "3",
                 "--d-h", "4", "--d-t", "3", "--d-r", "2", "--length", "3",
                 "--batch", "2", "--reps", "1", "--json", "--output", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert len(stdout.splitlines()) == 1
    record = json.loads(stdout)
    assert json.loads(out_path.read_text()) == record
    assert [r["family"] for r in record["rows"]] == ["vanilla-crf", "d-trilinear"]
    for row in record["rows"]:
        assert row["train_step_seconds"] > 0.0
        assert row["decode_seconds_per_sequence"] > 0.0
        assert row["train_step_peak_mb"] > 0.0
        assert row["nll_ms"] > 0.0
    env = record["environment"]
    assert env["numpy"] == np.__version__
    assert env["nproc"] == os.cpu_count()
    assert set(env) == {"numpy", "blas", "blas_version", "nproc", "blas_threads", "cpus"}
    assert env["cpus"] == len(os.sched_getaffinity(0))
    assert env["blas_threads"] is None or env["blas_threads"] >= 1
    assert record["settings"] == {"labels": 3, "d_h": 4, "d_t": 3, "d_r": 2, "length": 3,
                                  "batch": 2, "reps": 1, "seed": 0}


def test_bench_json_without_affinity_calls(capsys, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "sched_setaffinity")
    assert main(["bench", "--family", "concat-mlp-1w2l", "--labels", "3", "--d-h", "4",
                 "--d-t", "3", "--length", "3", "--batch", "2", "--reps", "1", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["environment"]["cpus"] == 1
    assert record["rows"][0]["family"] == "concat-mlp-1w2l"


@pytest.mark.parametrize("flag", ["--reps", "--batch", "--length", "--labels", "--d-h"])
def test_bench_rejects_size_below_one_exit_1(capsys, flag):
    assert main(["bench", "--family", "vanilla-crf", "--labels", "3", "--d-h", "4",
                 "--length", "3", "--batch", "2", "--reps", "1", flag, "0"]) == 1
    message = {"--labels": "num_labels must be positive for vanilla-crf, got 0",
               "--d-h": "d_h must be positive for vanilla-crf, got 0"}
    assert message.get(flag, "%s must be at least 1, got 0" % flag[2:]) in capsys.readouterr().err


def test_bench_degenerate_length_one():
    row = run_bench("vanilla-crf", num_labels=3, d_h=4, d_t=3, d_r=2,
                    length=1, batch=2, reps=2, warmup=1)
    assert row["train_step_seconds"] > 0.0
    assert row["decode_seconds_per_sequence"] > 0.0
