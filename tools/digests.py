"""Print one `name sha256` line per seeded result of every family.

A change that claims byte-identical results prints the same lines as its
parent.  Run it on both trees with BLAS on one thread and compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/digests.py > after.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<parent>/src python tools/digests.py > before.txt
    diff before.txt after.txt

Prefix both runs with `taskset -c 0` to run the threaded passes (the
concat-MLP blocks and the parts of `tag`) on one thread.  The digests
depend on the numpy and BLAS build, so they are not a test: only two runs
on one machine compare.  Runs of one tree with and without `taskset -c 0`
print the same lines too, which checks that the threads do not change a
result.

Lines:
  batch/<family>/<result>  scores, NLL losses, NLL gradients of one ragged
      batch that repeats a sentence, and the pullbacks of those gradients
      and of random lattice gradients;
  bench/<family>/<result>  the same for one benchmark-sized batch (32
      sentences of 10-50 tokens and the repeat, 1134 positions; L=17,
      d_h=d_t=100, d_r=128) of each multilinear family, whose GEMMs reach
      the BLAS kernels that a small batch does not;
  train/<family>/dev<0|1>/clip<c>  the weights of a seeded 3-epoch
      `train`, without and with a dev set, gradient clipping off and at
      0.5: the bytes of each field in `FAMILY_FIELDS` order, then the
      labels and the scheme of its vocabulary (values, not the model file
      format, so a change of format alone prints the same lines);
  tag/<family>  `chaincrf tag` output of the no-dev-set, unclipped model
      on a generated input;
  tag/<family>/parts  the same on an input of 2500 random sentences of 1-8
      tokens, which `tag` scores in at least 3 parts (2^18 lattice cells
      each) on its threads.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from chaincrf import (
    Family,
    RepresentationSequence,
    SyntheticSpec,
    TokenSequence,
    TrainConfig,
    backprop_lattices,
    build_label_vocab,
    generate_synthetic,
    init_params,
    make_rng,
    save_model,
    score_lattices,
    train,
    write_conll,
    write_embeddings,
)
from chaincrf import potentials
from chaincrf.cli import main
from chaincrf.inference import cell_blocks, nll_and_grad_stacked
from chaincrf.potentials import FAMILY_FIELDS


def digest(*arrays_or_text) -> str:
    h = hashlib.sha256()
    for x in arrays_or_text:
        h.update(x.encode("utf-8") if isinstance(x, str) else np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


MULTILINEAR = (Family.TRILINEAR, Family.D_TRILINEAR, Family.D_QUADRILINEAR, Family.D_PENTALINEAR)


def batch_lines(family, d_h=12, d_t=6, d_r=5, lengths=(5, 1, 9, 3)):
    """L=17 and 128 hidden units: the MLP passes cut the batch in blocks."""
    L = 17
    params = init_params(family, L, d_h, seed=11, d_t=d_t, d_r=d_r, mlp_hidden=128)
    rng = make_rng(12)
    seqs = [rng.standard_normal((m, d_h)) / np.sqrt(d_h) for m in lengths]
    seqs.insert(3, seqs[0])     # a repeated sentence shares its MLP word inputs
    reps = [RepresentationSequence.from_array(h) for h in seqs]
    golds = [[int(y) for y in rng.integers(0, L, size=len(h))] for h in seqs]
    lats = score_lattices(params, reps)
    losses, grads = nll_and_grad_stacked(lats, golds)
    pulled = backprop_lattices(params, reps, grads)
    random = [rng.standard_normal((len(h), L, L)) for h in seqs]
    pulled_random = backprop_lattices(params, reps, random)
    fields = [name for name, _ in params.param_items()]
    yield "scores", digest(lats.flat)
    yield "nll_loss", digest(losses)
    yield "nll_grad", digest(grads.flat)
    yield "nll_pullback", digest(*(pulled[name] for name in fields))
    yield "random_pullback", digest(*(pulled_random[name] for name in fields))


def all_lines(workdir):
    spec = SyntheticSpec(num_labels=9, vocab_size=60, d_h=10, order="second", min_len=1,
                         max_len=8, n_train=40, n_dev=12, n_test=30, seed=5)
    train_set, dev_set, test_set, table = generate_synthetic(spec)
    emb_path = os.path.join(workdir, "emb.txt")
    in_path = os.path.join(workdir, "in.txt")
    write_embeddings(table, emb_path)
    write_conll(test_set, in_path)
    rng = make_rng(14)
    words = list(table.vectors)
    many = [TokenSequence(tokens=[words[k] for k in rng.integers(0, len(words), size=m)])
            for m in rng.integers(1, 9, size=2500)]
    if len(cell_blocks([len(s) for s in many], spec.num_labels, potentials.MLP_BLOCK_CELLS)) < 3:
        raise SystemExit("the many-sentence input scores in fewer than 3 parts")
    many_path = os.path.join(workdir, "many.txt")
    write_conll(many, many_path)
    vocab = build_label_vocab(train_set)
    for family in Family:
        for name, value in batch_lines(family):
            yield "batch/%s/%s" % (family.value, name), value
        if family in MULTILINEAR:
            lengths = make_rng(13).integers(10, 51, size=32).tolist()
            for name, value in batch_lines(family, d_h=100, d_t=100, d_r=128, lengths=lengths):
                yield "bench/%s/%s" % (family.value, name), value
        for dev in (0, 1):
            for clip in (0.0, 0.5):
                config = TrainConfig(family=family, d_t=6, d_r=5, mlp_hidden=128,
                                     max_epochs=3, batch_size=8, seed=3, grad_clip=clip)
                params, _ = train(config, train_set, dev_set if dev else [], table)
                fields = [params.arrays[name] for name in FAMILY_FIELDS[family]]
                yield ("train/%s/dev%d/clip%g" % (family.value, dev, clip),
                       digest(*fields, *("%s\n" % lab for lab in vocab.labels), vocab.scheme))
                if not dev and not clip:
                    model_path = os.path.join(workdir, "model.txt")
                    out_path = os.path.join(workdir, "out.txt")
                    save_model(params, vocab, model_path)
                    for suffix, path in (("", in_path), ("/parts", many_path)):
                        if main(["tag", "--model", model_path, "--embeddings", emb_path,
                                 "--input", path, "--output", out_path]) != 0:
                            raise SystemExit("tag failed for %s" % family.value)
                        with open(out_path, "rb") as fh:
                            yield ("tag/%s%s" % (family.value, suffix),
                                   hashlib.sha256(fh.read()).hexdigest())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for name, value in all_lines(workdir):
            print(name, value, flush=True)
