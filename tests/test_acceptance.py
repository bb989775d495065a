"""Acceptance suite: one test per release criterion.

Each test prints a single ACCEPTANCE PASS line when it succeeds (run
pytest with -s or -rA to see them).  Tolerances are fixed here, not
configurable.
"""

import time

import numpy as np
import pytest

from chaincrf import (
    CRF_FAMILIES,
    Family,
    ModelParams,
    SyntheticSpec,
    TrainConfig,
    backprop_lattices,
    brute_force_best_path,
    brute_force_log_partition,
    brute_force_pairwise_marginals,
    finite_diff_grad,
    generate_synthetic,
    init_params,
    load_model,
    log_partition,
    make_rng,
    nll_and_grad,
    pairwise_marginals,
    reconstruct_dense_trilinear,
    save_model,
    score_lattice,
    score_lattices,
    train,
    viterbi,
    write_conll,
    write_embeddings,
)
from chaincrf.cli import main, max_relative_error
from chaincrf.dataio import spans_from_bio
from chaincrf.potentials import RepresentationSequence

from helpers import random_reps

GRAD_DIMS = dict(num_labels=4, d_h=5, d_t=4, d_r=3, length=5, mlp_hidden=8)


def _instances(count, seed0=0):
    """Random (lattice, seed) instances with L in 2..5, M in 1..6."""
    out = []
    for k in range(count):
        rng = make_rng(seed0 + k)
        L = int(rng.integers(2, 6))
        M = int(rng.integers(1, 7))
        out.append(rng.standard_normal((M, L, L)) * 1.5)
    return out


def _passed(name):
    print("ACCEPTANCE PASS: %s" % name)


def test_partition_function_oracle():
    t0 = time.time()
    for lat in _instances(100):
        fast = log_partition(lat)
        brute = brute_force_log_partition(lat)
        assert abs(fast - brute) / abs(brute) < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _passed("partition function matches enumeration on 100 instances (%.1fs)" % elapsed)


def test_viterbi_oracle():
    t0 = time.time()
    for lat in _instances(100, seed0=1000):
        fast = viterbi(lat)
        brute = brute_force_best_path(lat)
        assert fast.labels == brute.labels
        assert fast.score == brute.score
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _passed("viterbi path and score match exhaustive argmax on 100 instances (%.1fs)" % elapsed)


def test_marginal_oracle():
    for lat in _instances(100, seed0=2000):
        p = pairwise_marginals(lat)
        brute = brute_force_pairwise_marginals(lat)
        assert np.max(np.abs(p - brute)) < 1e-10
        np.testing.assert_allclose(p.sum(axis=(1, 2)), 1.0, atol=1e-9)
    _passed("pairwise marginals match enumeration to 1e-10 on 100 instances")


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_gradient_check_all_families(family):
    worst = 0.0
    for seed in range(20):
        params = init_params(
            family, GRAD_DIMS["num_labels"], GRAD_DIMS["d_h"], seed=seed,
            d_t=GRAD_DIMS["d_t"], d_r=GRAD_DIMS["d_r"],
            mlp_hidden=GRAD_DIMS["mlp_hidden"],
        )
        rng = make_rng((seed, 99))
        reps = RepresentationSequence.from_array(
            rng.standard_normal((GRAD_DIMS["length"], GRAD_DIMS["d_h"]))
        )
        gold = [int(v) for v in rng.integers(0, GRAD_DIMS["num_labels"],
                                             size=GRAD_DIMS["length"])]
        _, lat_grad = nll_and_grad(score_lattice(params, reps), gold)
        analytic = backprop_lattices(params, [reps], [lat_grad])
        numeric = finite_diff_grad(
            lambda p: nll_and_grad(score_lattice(p, reps), gold)[0],
            params, step=1e-5,
        )
        for name, num in numeric.items():
            worst = max(worst, max_relative_error(analytic[name], num))
    assert worst < 1e-4
    _passed("%s NLL gradient matches finite differences over 20 seeds (max rel err %.2e)"
            % (family.value, worst))


def test_equivalence_suite():
    L, d_h, M = 4, 5, 6
    # (a) vanilla == two-bilinear under the one-hot construction
    van = init_params(Family.VANILLA_CRF, L, d_h, seed=31)
    w_t = np.zeros((L + 1, L + 1))
    w_t[:, :L] = van.arrays["transition_table"]
    w_h = np.zeros((d_h, L + 1))
    w_h[:, :L] = van.arrays["w_h"]
    two = ModelParams(family=Family.TWO_BILINEAR, num_labels=L, d_h=d_h, d_t=L + 1,
                      arrays=dict(label_embeddings=np.eye(L + 1), w_t=w_t, w_h=w_h))
    reps = random_reps(M, d_h, seed=32)
    assert np.max(np.abs(score_lattice(van, reps) - score_lattice(two, reps))) < 1e-12

    # (b) three-bilinear with w_h2 = 0 equals two-bilinear exactly
    two_b = init_params(Family.TWO_BILINEAR, L, d_h, seed=33, d_t=4)
    a = two_b.arrays
    three = ModelParams(family=Family.THREE_BILINEAR, num_labels=L, d_h=d_h, d_t=4,
                        arrays=dict(label_embeddings=a["label_embeddings"].copy(),
                                    w_t=a["w_t"].copy(), w_h1=a["w_h"].copy(),
                                    w_h2=np.zeros_like(a["w_h"])))
    np.testing.assert_array_equal(score_lattice(three, reps), score_lattice(two_b, reps))

    # (c) d-trilinear equals trilinear through dense reconstruction
    dt = init_params(Family.D_TRILINEAR, L, d_h, seed=34, d_t=4, d_r=3)
    a = dt.arrays
    dense = ModelParams(family=Family.TRILINEAR, num_labels=L, d_h=d_h, d_t=4,
                        arrays=dict(label_embeddings=a["label_embeddings"].copy(),
                                    u_dense=reconstruct_dense_trilinear(a["u_t1"], a["u_t2"],
                                                                        a["u_h"])))
    assert np.max(np.abs(score_lattice(dt, reps) - score_lattice(dense, reps))) < 1e-9
    _passed("equivalence suite (vanilla/two-bilinear, three-bilinear, d-trilinear)")


def test_first_order_synthetic_all_crf_families():
    t0 = time.time()
    spec = SyntheticSpec(order="first", seed=0)
    train_set, dev_set, _, table = generate_synthetic(spec)
    results = {}
    for family in CRF_FAMILIES:
        config = TrainConfig(family=family, max_epochs=50, patience=50, seed=1,
                             target_dev_metric=0.99)
        _, report = train(config, train_set, dev_set, table)
        results[family.value] = report.best_dev_f1
        assert report.best_dev_f1 >= 0.99, (family.value, report.best_dev_f1)
        assert len(report.epochs) <= 50
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _passed("first-order task: all CRF families reach dev accuracy >= 0.99 "
            "within 50 epochs (%.0fs) %s" % (elapsed, results))


def test_second_order_synthetic_directional():
    t0 = time.time()
    spec = SyntheticSpec(order="second", seed=5)
    train_set, dev_set, _, table = generate_synthetic(spec)
    scores = {Family.VANILLA_CRF: [], Family.D_QUADRILINEAR: []}
    for family in scores:
        for seed in range(1, 6):
            config = TrainConfig(family=family, max_epochs=25, patience=6, seed=seed)
            _, report = train(config, train_set, dev_set, table)
            scores[family].append(report.best_dev_f1)
    vanilla_mean = float(np.mean(scores[Family.VANILLA_CRF]))
    quad_mean = float(np.mean(scores[Family.D_QUADRILINEAR]))
    elapsed = time.time() - t0
    assert quad_mean > vanilla_mean
    assert elapsed < 900.0
    _passed("second-order task: d-quadrilinear mean dev accuracy %.4f beats "
            "vanilla %.4f (margin %.4f, 5 seeds, %.0fs)"
            % (quad_mean, vanilla_mean, quad_mean - vanilla_mean, elapsed))


def _speed_setup(family, num_labels=17, d_h=100, d_t=100, d_r=128, length=30,
                 batch=32, seed=0):
    params = init_params(family, num_labels, d_h, seed=seed, d_t=d_t, d_r=d_r)
    rng = make_rng((seed, 2))
    reps = [RepresentationSequence.from_array(
        rng.standard_normal((length, d_h)) / np.sqrt(d_h)) for _ in range(batch)]
    golds = [[int(v) for v in rng.integers(0, num_labels, size=length)]
             for _ in range(batch)]
    return params, reps, golds


def _speed_one_step(params, reps, golds):
    lattices = score_lattices(params, reps)
    results = [nll_and_grad(lat, g) for lat, g in zip(lattices, golds)]
    grad = backprop_lattices(params, reps, [r[1] for r in results])
    for g in grad.values():
        g *= 1.0 / len(reps)
    for name, arr in params.param_items():
        arr -= 0.1 * (grad[name] + 1e-8 * arr)


def _speed_one_decode(params, reps):
    for lat in score_lattices(params, reps):
        viterbi(lat)


def _speed_measure(reps_per_pass=25):
    """Per-family median step/decode time with rep-level interleaving.

    Interleaving gives every family the same contention profile; the
    median over reps rejects scheduler spikes.
    """
    families = (Family.VANILLA_CRF, Family.D_TRILINEAR, Family.D_QUADRILINEAR)
    setups = {f: _speed_setup(f) for f in families}
    for f in families:
        _speed_one_step(*setups[f])
        _speed_one_decode(setups[f][0], setups[f][1])
    steps = {f: [] for f in families}
    decodes = {f: [] for f in families}
    for _ in range(reps_per_pass):
        for f in families:
            params, reps, golds = setups[f]
            t0 = time.perf_counter()
            _speed_one_step(params, reps, golds)
            steps[f].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            _speed_one_decode(params, reps)
            decodes[f].append(time.perf_counter() - t0)
    med = {f: (float(np.median(steps[f])), float(np.median(decodes[f])))
           for f in families}
    van = med[Family.VANILLA_CRF]
    ratios = {f.value: (med[f][0] / van[0], med[f][1] / van[1])
              for f in families[1:]}
    train_mean = sum(r[0] for r in ratios.values()) / len(ratios)
    decode_mean = sum(r[1] for r in ratios.values()) / len(ratios)
    return train_mean, decode_mean, ratios


def test_speed_decomposed_vs_vanilla():
    # two measurement passes; contention only ever inflates timings, so
    # the per-pass minimum estimates the uncontended value
    passes = [_speed_measure() for _ in range(2)]
    train_mean = min(p[0] for p in passes)
    decode_mean = min(p[1] for p in passes)
    ratios = passes[0][2] if passes[0][1] <= passes[1][1] else passes[1][2]
    # the criterion bounds the mean time of the two decomposed families
    assert train_mean <= 1.5, (ratios, train_mean)
    assert decode_mean <= 1.2, (ratios, decode_mean)
    _passed("speed: mean decomposed/vanilla ratios train %.3f decode %.3f "
            "(per family %s)" % (train_mean, decode_mean,
                                 {k: (round(a, 3), round(b, 3)) for k, (a, b) in ratios.items()}))


def test_bioes_round_trip_1000():
    rng = make_rng(77)
    types = ["PER", "LOC", "ORG", "MISC"]
    for _ in range(1000):
        n = int(rng.integers(1, 14))
        labels = []
        i = 0
        while i < n:
            if rng.random() < 0.4:
                labels.append("O")
                i += 1
            else:
                typ = types[int(rng.integers(0, len(types)))]
                span = min(int(rng.integers(1, 5)), n - i)
                labels.append("B-%s" % typ)
                labels.extend("I-%s" % typ for _ in range(span - 1))
                i += span
        from chaincrf import bio_to_bioes, spans_from_bioes

        assert spans_from_bioes(bio_to_bioes(labels)) == spans_from_bio(labels)
    _passed("BIOES round trip: 1000 random BIO sequences, exact span match")


def test_serialization_all_families_20_seeds(tmp_path):
    from chaincrf.dataio import LabelVocab

    for family in Family:
        for seed in range(20):
            rng = make_rng((seed, 7))
            L = int(rng.integers(2, 6))
            d_h = int(rng.integers(2, 8))
            d_t = int(rng.integers(2, 6))
            d_r = int(rng.integers(1, 5))
            hidden = int(rng.integers(2, 7))
            params = init_params(family, L, d_h, seed=seed, d_t=d_t, d_r=d_r,
                                 mlp_hidden=hidden)
            labels = ["L%d" % k for k in range(L)]
            vocab = LabelVocab(labels=labels,
                               id_of={lab: k for k, lab in enumerate(labels)},
                               scheme="PLAIN")
            path = tmp_path / ("m_%s_%d.txt" % (family.value, seed))
            save_model(params, vocab, path)
            loaded, _ = load_model(path)
            for (name, arr), (_, back) in zip(params.param_items(), loaded.param_items()):
                assert arr.tobytes() == back.tobytes(), (family.value, seed, name)
    _passed("serialization: load(save(m)) bit-identical, 10 families x 20 seeds")


def test_small_data_trend_harness(tmp_path, capsys):
    spec = SyntheticSpec(num_labels=3, vocab_size=12, d_h=13, order="first",
                         min_len=2, max_len=6, n_train=150, n_dev=40, n_test=40,
                         seed=9)
    train_set, dev_set, _, table = generate_synthetic(spec)
    paths = {"train": tmp_path / "train.conll", "dev": tmp_path / "dev.conll",
             "emb": tmp_path / "emb.txt"}
    write_conll(train_set, paths["train"])
    write_conll(dev_set, paths["dev"])
    write_embeddings(table, paths["emb"])
    config = tmp_path / "config.txt"
    config.write_text(
        "train_path=%s\ndev_path=%s\nembeddings_path=%s\nfamily=vanilla-crf\n"
        "scheme=plain\nmax_epochs=10\npatience=10\nbatch_size=16\nseed=1\n"
        % (paths["train"], paths["dev"], paths["emb"])
    )
    rows = []
    for fraction in (0.1, 0.3):
        model = tmp_path / ("model_%s.txt" % fraction)
        report = tmp_path / ("report_%s.csv" % fraction)
        code = main(["train", "--config", str(config), "--model", str(model),
                     "--output", str(report), "--subsample", str(fraction)])
        assert code == 0
        assert model.exists() and report.exists()
        final = report.read_text().splitlines()[-1].split(",")
        rows.append("%s,%s" % (fraction, final[2]))
    csv_path = tmp_path / "fraction_f1.csv"
    csv_path.write_text("fraction,dev_metric\n" + "\n".join(rows) + "\n")
    parsed = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(parsed) == 2
    for frac, metric in parsed:
        assert 0.0 <= float(metric) <= 1.0
    capsys.readouterr()
    _passed("small-data harness: subsample 0.1/0.3 end to end, per-fraction CSV emitted")
