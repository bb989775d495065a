"""The program side of the benchmark's contract.

The benchmark in `perfbench/` drives the program through names it looks
up at run time: its tracer replaces the functions listed in
`perfbench/tracing.py`'s TARGETS in the `chaincrf.training` and
`chaincrf.cli` namespaces, its workloads build `TrainConfig(threads=1)`,
and its checks index and iterate the result of `score_lattices`, and its tag
op runs `cli.main`, which must call the `cli.cmd_tag` in place.  These
tests fail when the program drops one of those, so that the benchmark
does not break unnoticed.
"""

import importlib.util
from pathlib import Path

import numpy as np

from chaincrf import Family, RepresentationSequence, init_params, log_partition, make_rng
from chaincrf import cli, training

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    targets = _tracing_module().TARGETS
    assert targets
    for module, attr, _, _ in targets:
        assert module.__name__ in ("chaincrf.training", "chaincrf.cli")
        assert callable(getattr(module, attr, None)), "%s.%s" % (module.__name__, attr)


def test_workload_configs_construct():
    for extra in ({"mlp_hidden": 128}, {"learning_rate": 0.05}):
        config = training.TrainConfig(family="d-quadrilinear", max_epochs=1, seed=1, threads=1,
                                      d_t=100, d_r=128, **extra)
        assert config.threads == 1


def test_scored_lattices_index_and_iterate():
    # the tracer sums `.size` over the result; the oracle check reads
    # `lattices[k]`; the decode op passes the result to `decode_paths`
    rng = make_rng(3)
    params = init_params(Family.D_QUADRILINEAR, 4, 5, seed=1, d_t=4, d_r=3)
    reps = [RepresentationSequence.from_array(rng.standard_normal((m, 5))) for m in (3, 1, 4)]
    lattices = training.score_lattices(params, reps)
    assert len(lattices) == 3
    assert sum(lat.size for lat in lattices) == 8 * 4 * 4
    assert lattices[2].shape == (4, 4, 4)
    assert np.isfinite(log_partition(lattices[1]))
    paths = training.decode_paths(params, lattices)
    assert [len(p) for p in paths] == [3, 1, 4]
    grads = [np.zeros_like(lat) for lat in lattices]
    assert set(training.backprop_lattices(params, reps, grads)) == set(params.arrays)


def test_main_runs_the_cmd_tag_in_place(monkeypatch):
    # `main` reuses its parser; the tracer puts its wrapper in `cli.cmd_tag`
    # after the first call, and the next call must run the wrapper
    argv = ["tag", "--model", "m", "--embeddings", "e", "--input", "i", "--output", "o"]
    ran = []
    for code in (7, 9):
        monkeypatch.setattr(cli, "cmd_tag", lambda args, code=code: ran.append(args) or code)
        assert cli.main(argv) == code
    assert [args.model for args in ran] == ["m", "m"]
