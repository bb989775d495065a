"""Linear-chain CRF sequence labeling with pluggable potential functions.

The potential at each position scores a (previous label, current label)
pair from the per-token representation vectors; ten families are
available, from a position-independent softmax through low-rank
decomposed trilinear/quadrilinear/pentalinear potentials and concat-MLP
variants.  Inference is exact and runs in log space.
"""

from .dataio import (
    EmbeddingTable,
    LabelVocab,
    TokenSequence,
    bio_to_bioes,
    build_label_vocab,
    load_embeddings,
    load_model,
    read_conll,
    save_model,
    sequence_to_reps,
    spans_from_bioes,
    write_conll,
    write_embeddings,
)
from .evaluation import EvalResult, mean_and_std, span_f1, token_accuracy
from .inference import (
    DecodeResult,
    LatticeBatch,
    decode_softmax,
    log_partition,
    nll_and_grad,
    nll_and_grad_stacked,
    pairwise_marginals,
    viterbi,
    viterbi_batch,
)
from .linalg import log_sum_exp, make_rng
from .oracle import (
    SyntheticSpec,
    brute_force_best_path,
    brute_force_log_partition,
    brute_force_pairwise_marginals,
    finite_diff_grad,
    generate_synthetic,
)
from .potentials import (
    CRF_FAMILIES,
    Family,
    ModelParams,
    RepresentationSequence,
    backprop_lattice,
    backprop_lattices,
    init_params,
    reconstruct_dense_trilinear,
    score_lattice,
    score_lattices,
)
from .training import TrainConfig, TrainingDiverged, TrainReport, subsample, train

__version__ = "0.1.0"

__all__ = [
    "CRF_FAMILIES",
    "DecodeResult",
    "EmbeddingTable",
    "EvalResult",
    "Family",
    "LabelVocab",
    "LatticeBatch",
    "ModelParams",
    "RepresentationSequence",
    "SyntheticSpec",
    "TokenSequence",
    "TrainConfig",
    "TrainingDiverged",
    "TrainReport",
    "backprop_lattice",
    "backprop_lattices",
    "bio_to_bioes",
    "brute_force_best_path",
    "brute_force_log_partition",
    "brute_force_pairwise_marginals",
    "build_label_vocab",
    "decode_softmax",
    "finite_diff_grad",
    "generate_synthetic",
    "init_params",
    "load_embeddings",
    "load_model",
    "log_partition",
    "log_sum_exp",
    "make_rng",
    "mean_and_std",
    "nll_and_grad",
    "nll_and_grad_stacked",
    "pairwise_marginals",
    "read_conll",
    "reconstruct_dense_trilinear",
    "save_model",
    "score_lattice",
    "score_lattices",
    "sequence_to_reps",
    "span_f1",
    "spans_from_bioes",
    "subsample",
    "token_accuracy",
    "train",
    "viterbi",
    "viterbi_batch",
    "write_conll",
    "write_embeddings",
]
