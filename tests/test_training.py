import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from chaincrf import (
    EmbeddingTable,
    Family,
    RepresentationSequence,
    SyntheticSpec,
    TokenSequence,
    TrainConfig,
    TrainingDiverged,
    backprop_lattices,
    build_label_vocab,
    generate_synthetic,
    init_params,
    make_rng,
    nll_and_grad,
    save_model,
    score_lattice,
    score_lattices,
    sequence_to_reps,
    subsample,
    train,
)
from chaincrf import inference, potentials, training
from chaincrf.evaluation import span_f1
from chaincrf.training import evaluate_model, predict_paths, sgd_update


def tiny_corpus(n=12, seed=0):
    spec = SyntheticSpec(num_labels=3, vocab_size=9, d_h=10, order="first",
                         min_len=2, max_len=5, n_train=n, n_dev=max(2, n // 3),
                         n_test=2, seed=seed)
    return generate_synthetic(spec)


def test_single_step_descends():
    train_set, _, _, table = tiny_corpus(n=1)
    seq = train_set[0]
    vocab = build_label_vocab(train_set)
    reps = sequence_to_reps(seq, table)
    gold = vocab.indices(seq.labels)
    params = __import__("chaincrf").init_params(Family.VANILLA_CRF, vocab.size, table.dim, seed=0)
    before, lat_grad = nll_and_grad(score_lattice(params, reps), gold)
    grad = backprop_lattices(params, [reps], [lat_grad])
    for name, arr in params.param_items():
        arr -= 0.01 * grad[name]
    after, _ = nll_and_grad(score_lattice(params, reps), gold)
    assert after < before


def test_tiny_learning_rate_never_increases_loss():
    train_set, _, _, table = tiny_corpus(n=4, seed=7)
    vocab = build_label_vocab(train_set)
    reps = [sequence_to_reps(s, table) for s in train_set]
    gold = [vocab.indices(s.labels) for s in train_set]
    params = __import__("chaincrf").init_params(Family.D_TRILINEAR, vocab.size, table.dim,
                                                seed=3, d_t=4, d_r=3)

    def batch_loss(p):
        lats = score_lattices(p, reps)
        return sum(nll_and_grad(lat, g)[0] for lat, g in zip(lats, gold))

    before = batch_loss(params)
    lats = score_lattices(params, reps)
    grads = [nll_and_grad(lat, g)[1] for lat, g in zip(lats, gold)]
    grad = backprop_lattices(params, reps, grads)
    for name, arr in params.param_items():
        arr -= 1e-6 * grad[name]
    assert batch_loss(params) <= before + 1e-8


def test_subsample_identity():
    items = list(range(10))
    assert subsample(items, 1.0, seed=5) == items


def test_subsample_floor_rule():
    items = list(range(10))
    assert len(subsample(items, 0.3, seed=5)) == 3
    assert len(subsample(items, 0.35, seed=5)) == 3


def test_subsample_deterministic_without_replacement():
    items = list(range(100))
    a = subsample(items, 0.1, seed=9)
    b = subsample(items, 0.1, seed=9)
    assert a == b
    assert len(a) == 10
    assert len(set(a)) == 10


@pytest.mark.parametrize("with_dev", [False, True])
def test_train_rejects_subsample_that_selects_nothing(with_dev):
    train_set, dev_set, _, table = tiny_corpus(n=20)
    config = TrainConfig(family=Family.VANILLA_CRF, subsample_fraction=0.01, max_epochs=1)
    with pytest.raises(ValueError, match=r"subsample_fraction 0\.01 of 20 training "
                                         r"sequences selects none"):
        train(config, train_set, dev_set if with_dev else [], table)


def test_subsample_rejects_bad_fraction():
    with pytest.raises(ValueError):
        subsample([1, 2], 0.0, seed=1)
    with pytest.raises(ValueError):
        subsample([1, 2], 1.5, seed=1)


def test_train_rejects_empty_data():
    with pytest.raises(ValueError, match="empty training data"):
        train(TrainConfig(family=Family.VANILLA_CRF), [], [], None)


def test_train_rejects_zero_d_r():
    train_set, dev_set, _, table = tiny_corpus(n=6, seed=3)
    config = TrainConfig(family=Family.D_TRILINEAR, d_t=4, d_r=0, max_epochs=1)
    with pytest.raises(ValueError, match="d_r must be positive for d-trilinear, got 0"):
        train(config, train_set, dev_set, table)


@pytest.mark.parametrize("field,value,message", [
    ("family", "nope", "unknown family: nope"),
    ("family", None, "unknown family: None"),
    ("lr_decay", 0.0, "lr_decay must be positive"),
    ("lr_decay", -0.5, "lr_decay must be positive"),
    ("l2", -1e-8, "l2 must be at least 0"),
    ("grad_clip", -1.0, "grad_clip must be at least 0"),
    ("max_epochs", 0, "max_epochs must be at least 1"),
    ("patience", 0, "patience must be at least 1"),
] + [(name, value, "%s must be finite, got %r" % (name, value))
     for name in ("learning_rate", "lr_decay", "l2", "grad_clip")
     for value in (math.nan, math.inf)
] + [(name, value, "%s must be an integer, got %r" % (name, value))
     for name, value in (("batch_size", 2.5), ("batch_size", True), ("max_epochs", 1.5),
                         ("d_t", 2.5), ("seed", 1.5))
] + [("target_dev_metric", math.nan, "target_dev_metric must be finite, got nan")
] + [(name, value, "%s must be a real number, got %r" % (name, value))
     for name, value in (("learning_rate", None), ("learning_rate", "0.1"), ("l2", None),
                         ("subsample_fraction", "x"), ("learning_rate", True),
                         ("grad_clip", True), ("lr_decay", "1"), ("target_dev_metric", "0.9"))
])
def test_train_config_rejects_bad_value(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


def test_train_config_accepts_numpy_integers():
    train_set, dev_set, _, table = tiny_corpus(n=6, seed=3)
    config = TrainConfig(family=Family.VANILLA_CRF, batch_size=np.int64(4),
                         max_epochs=np.int32(2), seed=np.int64(2))
    want = TrainConfig(family=Family.VANILLA_CRF, batch_size=4, max_epochs=2, seed=2)
    got_params, got_report = train(config, train_set, dev_set, table)
    want_params, want_report = train(want, train_set, dev_set, table)
    assert [r.train_loss for r in got_report.epochs] == [r.train_loss for r in want_report.epochs]
    for name, arr in want_params.param_items():
        assert got_params.arrays[name].tobytes() == arr.tobytes()


def test_train_learns_tiny_first_order_task():
    train_set, dev_set, _, table = tiny_corpus(n=40, seed=1)
    config = TrainConfig(family=Family.D_TRILINEAR, d_t=8, d_r=6, max_epochs=25,
                         patience=25, batch_size=8, seed=2, target_dev_metric=1.0)
    params, report = train(config, train_set, dev_set, table)
    assert report.best_dev_f1 >= 0.95
    assert report.metric_name == "token_accuracy"


def test_train_deterministic_bit_identical():
    train_set, dev_set, _, table = tiny_corpus(n=10, seed=2)
    config = TrainConfig(family=Family.TWO_BILINEAR, d_t=4, max_epochs=3,
                         patience=10, batch_size=4, seed=11)
    a, _ = train(config, train_set, dev_set, table)
    b, _ = train(config, train_set, dev_set, table)
    for (name, arr_a), (_, arr_b) in zip(a.param_items(), b.param_items()):
        assert arr_a.tobytes() == arr_b.tobytes(), name


@pytest.mark.parametrize("family", [Family.CONCAT_MLP_1W2L, Family.CONCAT_MLP_2W2L],
                         ids=lambda f: f.value)
def test_mlp_training_is_byte_identical_on_one_and_two_threads(family):
    train_set, dev_set, _, table = tiny_corpus(n=16, seed=6)
    config = TrainConfig(family=family, d_t=4, mlp_hidden=8, max_epochs=2, batch_size=4,
                         seed=9)
    files = []
    for cpus in (1, 2):
        # one distinct word input per block, so every batch has many blocks
        with mock.patch.object(potentials.os, "sched_getaffinity",
                               lambda pid, n=cpus: set(range(n))), \
                mock.patch.object(potentials, "MLP_BLOCK_CELLS", 1):
            params, _ = train(config, train_set, dev_set, table)
        buf = io.StringIO()
        save_model(params, build_label_vocab(train_set), buf)
        files.append(buf.getvalue())
    assert files[1] == files[0]


def test_train_config_rejects_threads_above_one():
    assert TrainConfig(threads=1).threads == 1
    with pytest.raises(ValueError, match="threads must be 1: the threaded NLL step was removed"):
        TrainConfig(threads=2)


def test_train_subsample_config_is_deterministic():
    train_set, dev_set, _, table = tiny_corpus(n=30, seed=4)
    config = TrainConfig(family=Family.VANILLA_CRF, max_epochs=1,
                         subsample_fraction=0.5, seed=6)
    a, _ = train(config, train_set, dev_set, table)
    b, _ = train(config, train_set, dev_set, table)
    assert a.arrays["transition_table"].tobytes() == b.arrays["transition_table"].tobytes()


def test_returned_params_achieve_best_recorded_metric():
    train_set, dev_set, _, table = tiny_corpus(n=24, seed=5)
    config = TrainConfig(family=Family.VANILLA_CRF, max_epochs=12, patience=4,
                         batch_size=8, seed=8)
    params, report = train(config, train_set, dev_set, table)
    assert report.best_dev_f1 == max(r.dev_metric for r in report.epochs)
    vocab = build_label_vocab(train_set)
    reps = [sequence_to_reps(s, table) for s in dev_set]
    got = evaluate_model(params, dev_set, reps, vocab)
    assert got == pytest.approx(report.best_dev_f1)


def test_evaluate_model_takes_the_metric_from_the_scheme():
    train_set, dev_set, _, table = tiny_corpus(n=12, seed=5)
    names = {"L0": "O", "L1": "B-X", "L2": "I-X"}    # the same labels as BIO spans
    bio_set = [TokenSequence(tokens=s.tokens, labels=[names[y] for y in s.labels])
               for s in dev_set]
    reps = [sequence_to_reps(s, table) for s in dev_set]
    p = init_params(Family.VANILLA_CRF, 3, table.dim, seed=2)
    paths = predict_paths(p, reps)
    for seqs, want in ((dev_set, "token_accuracy"), (bio_set, "f1")):
        vocab = build_label_vocab(seqs)
        pred = [[vocab.labels[k] for k in path] for path in paths]
        result = span_f1([s.labels for s in seqs], pred, scheme=vocab.scheme)
        assert evaluate_model(p, seqs, reps, vocab) == getattr(result, want)


def test_train_without_dev_runs_to_max_epochs():
    train_set, _, _, table = tiny_corpus(n=6, seed=6)
    config = TrainConfig(family=Family.VANILLA_CRF, max_epochs=3, seed=1)
    _, report = train(config, train_set, [], table)
    assert len(report.epochs) == 3
    assert math.isnan(report.best_dev_f1)


def test_train_rejects_unseen_dev_label():
    train_set, _, _, table = tiny_corpus(n=6, seed=8)
    rogue = [TokenSequence(tokens=["w0"], labels=["NEVER-SEEN"])]
    config = TrainConfig(family=Family.VANILLA_CRF, max_epochs=1)
    with pytest.raises(ValueError, match="not present"):
        train(config, train_set, rogue, table)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_diverges_raises():
    train_set, dev_set, _, table = tiny_corpus(n=6, seed=9)
    # the l2 feedback at this rate overflows the parameters to inf
    config = TrainConfig(family=Family.VANILLA_CRF, learning_rate=1e200,
                         max_epochs=5, seed=1)
    with pytest.raises(TrainingDiverged, match="^training diverged") as info:
        train(config, train_set, dev_set, table)
    # the first epoch's update is finite; the second overflows the first
    # field in update order
    assert isinstance(info.value, ValueError)
    assert (info.value.field, info.value.epoch, info.value.batch) == ("transition_table", 1, 0)
    assert "non-finite parameter in transition_table at epoch 1, batch 0" in str(info.value)


def test_train_non_finite_loss_raises():
    train_set, dev_set, _, table = tiny_corpus(n=6, seed=9)
    huge = EmbeddingTable(dim=table.dim, unk=np.full(table.dim, 1e300),
                          vectors={tok: np.full(table.dim, 1e300) for tok in table.vectors})
    config = TrainConfig(family=Family.VANILLA_CRF, max_epochs=3, seed=1)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        train(config, train_set, dev_set, huge)
    assert info.value.field is None
    assert str(info.value) == "training diverged: non-finite loss at epoch 1, batch 0"


def _overflowing_pullback(params, reps, lat_grads):
    # a pullback that overflows: every gradient field is non-finite while
    # the loss is finite.  (The NLL marginals cannot overflow: see
    # test_marginals_of_huge_scores_are_the_best_path.)
    grad = backprop_lattices(params, reps, lat_grads)
    return {name: np.full_like(g, np.inf) for name, g in grad.items()}


def test_train_step_leaves_params_untouched_on_non_finite_gradient():
    rng = make_rng(0)
    reps = [RepresentationSequence.from_array(rng.standard_normal((int(m), 8)) / np.sqrt(8))
            for m in rng.integers(3, 12, size=8)]
    golds = [[int(y) for y in rng.integers(0, 5, size=r.length)] for r in reps]
    p = init_params(Family.D_QUADRILINEAR, 5, 8, seed=1, d_t=6, d_r=7)
    before = {name: arr.tobytes() for name, arr in p.param_items()}
    for clip in (0.0, 1.0):
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info, \
                mock.patch.object(training, "backprop_lattices", _overflowing_pullback):
            training.train_step(p, reps, golds, 0.1, 1e-8, clip)
        assert (info.value.field, info.value.kind) == ("label_embeddings", "gradient")
        assert (info.value.epoch, info.value.batch) == (None, None)
        assert str(info.value) == "training diverged: non-finite gradient in label_embeddings"
        assert {name: arr.tobytes() for name, arr in p.param_items()} == before


def test_train_names_non_finite_gradient():
    spec = SyntheticSpec(num_labels=5, vocab_size=30, d_h=8, order="first", min_len=3,
                         max_len=11, n_train=8, n_dev=4, n_test=2, seed=0)
    train_set, dev_set, _, table = generate_synthetic(spec)
    config = TrainConfig(family=Family.D_QUADRILINEAR, max_epochs=2, seed=1, d_t=6, d_r=7)
    with np.errstate(all="ignore"), \
            mock.patch.object(training, "backprop_lattices", _overflowing_pullback), \
            pytest.raises(TrainingDiverged) as info:
        train(config, train_set, dev_set, table)
    assert (info.value.field, info.value.epoch, info.value.batch) == ("label_embeddings", 0, 0)
    assert str(info.value) == ("training diverged: non-finite gradient in label_embeddings"
                               " at epoch 0, batch 0")


def test_dev_metric_of_overflowing_model_is_nan():
    train_set, dev_set, _, table = tiny_corpus(n=6, seed=9)
    vocab = build_label_vocab(train_set)
    p = init_params(Family.D_QUADRILINEAR, vocab.size, table.dim, seed=1, d_t=4, d_r=3)
    for name in ("u_h1", "u_h2", "label_embeddings"):
        p.arrays[name] *= 1e80
    reps = [sequence_to_reps(seq, table) for seq in dev_set]
    with np.errstate(all="ignore"):
        assert math.isnan(evaluate_model(p, dev_set, reps, vocab))
        with pytest.raises(inference.BadBestScore,
                           match=r"^best path score of sequence \d+ of the batch"):
            predict_paths(p, reps)


def test_report_csv_round_trip(tmp_path):
    train_set, dev_set, _, table = tiny_corpus(n=6, seed=10)
    config = TrainConfig(family=Family.VANILLA_CRF, max_epochs=2, seed=1)
    _, report = train(config, train_set, dev_set, table)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,dev_metric,seconds"
    assert len(lines) == 1 + len(report.epochs)
    row = lines[1].split(",")
    assert float(row[1]) == report.epochs[0].train_loss


@pytest.mark.parametrize("block", [7, 1 << 15])
def test_sgd_update_matches_expression_bit_for_bit(block):
    # block 7 splits every field and leaves u_dense rows (d_t * d_t = 16)
    # longer than one block
    params = init_params(Family.TRILINEAR, 3, 5, seed=1, d_t=4)
    rng = make_rng(9)
    grads = {name: rng.standard_normal(arr.shape) for name, arr in params.param_items()}
    want = {name: arr - 0.3 * (grads[name] + 1e-2 * arr) for name, arr in params.param_items()}
    with mock.patch.object(training, "SGD_BLOCK", block):
        sgd_update(params, {k: g.copy() for k, g in grads.items()}, 0.3, 1e-2)
    for name, arr in params.param_items():
        assert arr.tobytes() == want[name].tobytes(), name


def _traced_peak(fn):
    """Peak bytes that tracemalloc (numpy reports its buffers to it) sees
    while `fn` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_predict_paths_memory_stays_within_two_blocks(family):
    # 10 blocks of 1000 positions.  Decoding a block reads its lattices in
    # place and holds back pointers of 1/L of a block, so the peak is about
    # 1.2 blocks, with the block scored in parts on two threads (2.27-2.29
    # for concat-MLP, whose scoring holds a block of distinct-row scores
    # next to the lattices, plus per thread an activation buffer of 0.056
    # blocks and numpy's 64 KB add buffer of 0.028: 2.19-2.20 on one
    # thread, so two are pinned here); whole-batch scoring holds all ten.
    L, d_h = 17, 4
    p = init_params(family, L, d_h, seed=2, d_t=4, d_r=3, mlp_hidden=4)
    reps = [RepresentationSequence.from_array(make_rng(k).standard_normal((20, d_h)))
            for k in range(500)]
    with mock.patch.object(inference, "CHUNK_CELLS", 1000 * L * L), \
            mock.patch.object(potentials, "MLP_BLOCK_CELLS", 1 << 14), \
            mock.patch.object(potentials.os, "sched_getaffinity", lambda pid: {0, 1}):
        assert len(inference.cell_blocks([r.length for r in reps], L)) == 10
        bound = 2.5 * inference.CHUNK_CELLS * 8
        assert _traced_peak(lambda: predict_paths(p, reps)) < bound
        assert _traced_peak(lambda: score_lattices(p, reps)) > bound


@pytest.mark.parametrize("family", [Family.D_QUADRILINEAR, Family.D_PENTALINEAR],
                         ids=lambda f: f.value)
def test_scoring_holds_at_most_two_word_factor_arrays(family):
    # 4000 positions x d_r = 512 outweigh the (4000, 2, 2) lattices, so the
    # peak counts word-factor arrays: the product and the factor being
    # multiplied in (about 2.03).  Keeping the last factor alive while the
    # next one is made holds three for d-pentalinear (3.03).
    d_h, d_r = 8, 512
    p = init_params(family, 2, d_h, seed=4, d_t=4, d_r=d_r)
    reps = [RepresentationSequence.from_array(make_rng(k).standard_normal((40, d_h)))
            for k in range(100)]
    assert _traced_peak(lambda: score_lattices(p, reps)) < 2.5 * 4000 * d_r * 8


# ---------------------------------------------------------------------------
# what `train` keeps: the trained model, plus one snapshot with a dev set
# ---------------------------------------------------------------------------

def _wide_trilinear_run(with_dev):
    """Peak traced bytes of a short trilinear `train` whose 80 x 80 x 80
    tensor outweighs everything else it allocates, in model bytes."""
    spec = SyntheticSpec(num_labels=3, vocab_size=9, d_h=80, order="first", min_len=2,
                         max_len=5, n_train=8, n_dev=4, n_test=2, seed=3)
    train_set, dev_set, _, table = generate_synthetic(spec)
    config = TrainConfig(family=Family.TRILINEAR, d_t=80, max_epochs=3, batch_size=4, seed=5)
    model = init_params(Family.TRILINEAR, 3, 80, seed=5, d_t=80)
    model_bytes = sum(arr.nbytes for _, arr in model.param_items())
    del model
    peak = _traced_peak(lambda: train(config, train_set, dev_set if with_dev else [], table))
    return peak / model_bytes


def test_train_without_dev_set_keeps_no_snapshot():
    # the weights and the step's gradient: about 2.14 models (3.14 with a
    # snapshot nothing reads)
    assert _wide_trilinear_run(with_dev=False) < 2.5


def test_train_with_dev_set_keeps_one_snapshot():
    # the weights, the snapshot and the step's gradient, plus the step's
    # label-sized temporaries and sgd_update's scratch: about 3.14 models
    # (a fresh copy at each improving epoch would add a fourth)
    assert _wide_trilinear_run(with_dev=True) < 3.25


def test_dev_set_returns_the_best_epoch_bit_for_bit():
    train_set, dev_set, _, table = tiny_corpus(n=12, seed=0)
    config = TrainConfig(family=Family.TRILINEAR, d_t=4, max_epochs=8, patience=3,
                         batch_size=4, seed=0, learning_rate=0.5)
    best, report = train(config, train_set, dev_set, table)
    # improving epochs refresh the snapshot, and later ones leave it
    assert 0 < report.best_epoch < len(report.epochs) - 1
    config.max_epochs = report.best_epoch + 1
    final, _ = train(config, train_set, [], table)
    for (name, a), (_, b) in zip(best.param_items(), final.param_items()):
        assert a.tobytes() == b.tobytes(), name


def test_all_nan_dev_metric_returns_initial_params():
    train_set, dev_set, _, table = tiny_corpus(n=8, seed=3)
    config = TrainConfig(family=Family.D_TRILINEAR, d_t=4, d_r=3, max_epochs=2, seed=4)
    with mock.patch.object(training, "evaluate_model", return_value=float("nan")):
        params, report = train(config, train_set, dev_set, table)
    assert report.best_epoch == -1
    assert report.best_dev_f1 == -math.inf
    want = init_params(Family.D_TRILINEAR, 3, 10, seed=4, d_t=4, d_r=3)
    for (name, a), (_, b) in zip(params.param_items(), want.param_items()):
        assert a.tobytes() == b.tobytes(), name


def test_softmax_decode_names_the_overflowing_sequence():
    rng = make_rng(0)
    p = init_params(Family.SOFTMAX, 5, 8, seed=1)
    p.arrays["w_h"] *= 1e308
    reps = [RepresentationSequence.from_array(rng.standard_normal((m, 8))) for m in (3, 6)]
    with np.errstate(all="ignore"):
        with pytest.raises(inference.BadBestScore, match="^best path score of "
                                                         "sequence 0 of the batch is inf"):
            predict_paths(p, reps)
        lats = score_lattices(p, reps)
        lats[0][:] = 0.0
        with pytest.raises(inference.BadBestScore, match="sequence 1 of the batch"):
            training.decode_paths(p, lats)


@pytest.mark.parametrize("family", [Family.SOFTMAX, Family.VANILLA_CRF], ids=lambda f: f.value)
def test_failed_decode_names_the_sequence_by_its_input_index(family):
    rng = make_rng(0)
    p = init_params(family, 5, 8, seed=1)
    reps = [RepresentationSequence.from_array(rng.standard_normal((4, 8))) for _ in range(12)]
    reps[7] = RepresentationSequence.from_array(np.full((4, 8), 1e308))
    # blocks of three sequences: sequence 7 is the second of the third block
    with mock.patch.object(inference, "CHUNK_CELLS", 3 * 4 * 5 * 5), \
            np.errstate(all="ignore"):
        assert inference.cell_blocks([r.length for r in reps], 5)[2] == (6, 9)
        with pytest.raises(inference.BadBestScore,
                           match="^best path score of sequence 7 of the batch") as info:
            predict_paths(p, reps)
    assert info.value.k == 7
