"""Tiny-size self-tests of the benchmark.

    python3 perfbench/selftest.py

Each workload runs at a tiny size with every check passing, untraced
and traced; a corrupted `tag` output counts as a failed op; and the
generated embedding file loads to exactly the in-memory values.
"""

from __future__ import annotations

import os
import shutil
import unittest

import run

run.import_program()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from chaincrf import cli  # noqa: E402
from chaincrf.dataio import load_embeddings  # noqa: E402

WORKDIR = run.ROOT / ".perfbench_run" / "selftest"


class BenchmarkSelfTest(unittest.TestCase):

    def setUp(self):
        WORKDIR.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def _scenario(self, name, seed=3):
        sc, times = workloads.setup(name, seed, str(WORKDIR), tiny=True)
        self.assertEqual(len(times), workloads.SETUP_REPEATS)
        return sc

    def test_every_workload_passes_its_checks(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                sc = self._scenario(name)
                tally = workloads.measure(sc, 0.0, min_rounds=2)
                self.assertEqual(tally.failed, 0)
                self.assertGreaterEqual(tally.attempted, 2 * (2 * len(sc.families) + 1))
                values = workloads.throughputs(sc, tally)
                self.assertTrue(all(v > 0 for v in values.values()), values)

    def test_traced_run_reports_every_layer_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                sc = self._scenario(name)
                tracer = tracing.Tracer()
                tally = workloads.measure(sc, 0.0, tracer, min_rounds=2)
                self.assertEqual(tally.failed, 0)
                self.assertEqual(tally.traced_rounds, 1)
                values = tracer.metrics(1, tally.traced_times, tally.times)
                names = [n for n, _, _ in tracing.per_layer_metrics()]
                values["evaluation.dev_token_accuracy"] = workloads.dev_token_accuracy(tally)
                self.assertEqual(sorted(values), sorted(names))
                self.assertGreater(values["inference.viterbi.s"], 0.0)
                self.assertGreater(values["cli.cmd_tag.self_s"], 0.0)
                self.assertGreater(values["dataio.load_embeddings.s"], 0.0)
                # one traced op of each kind and family
                self.assertEqual(values["cli.cmd_tag.invocations"], 1)
                self.assertEqual(values["training.train.epochs"],
                                 sc.config["max_epochs"] * len(sc.families))
                # every span closed, and self times add up to the traced ops
                self.assertTrue(all(end is not None for _, _, end, _, _ in tracer.spans))
                self.assertAlmostEqual(values["trace.self_sum_share"], 1.0, delta=0.05)

    def test_flipped_tag_label_is_a_failed_op(self):
        sc = self._scenario("tag-file")
        original = cli.write_conll

        def flip_one_label(seqs, target):
            first = seqs[0]
            labels = list(first.labels)
            labels[0] = next(lab for lab in sc.tag_model[1].labels if lab != labels[0])
            seqs = [type(first)(tokens=first.tokens, labels=labels)] + list(seqs[1:])
            return original(seqs, target)

        cli.write_conll = flip_one_label
        try:
            tally = workloads.measure(sc, 0.0, min_rounds=1)
        finally:
            cli.write_conll = original
        self.assertEqual(tally.failed, 1)
        self.assertNotIn(("tag", "d-quadrilinear"), tally.times)

    def test_embedding_file_loads_to_the_in_memory_values(self):
        rng = np.random.default_rng(0)
        micro = workloads.to_micro(rng.standard_normal((50, 7)) * 0.3)
        micro[0, :3] = [0, -100000, 999999]
        tokens = ["w%d" % k for k in range(50)]
        path = os.path.join(WORKDIR, "emb.txt")
        workloads.write_glove(path, tokens, micro, chunk=16)
        loaded = load_embeddings(path)
        expected = workloads.file_table(tokens, micro)
        self.assertEqual(list(loaded.vectors), tokens)
        for tok in tokens:
            np.testing.assert_array_equal(loaded.vectors[tok], expected.vectors[tok])
        np.testing.assert_array_equal(loaded.unk, expected.unk)


if __name__ == "__main__":
    unittest.main()
