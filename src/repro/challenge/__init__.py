"""Graph Challenge style sparse DNN inference.

The MIT/IEEE/Amazon Graph Challenge "Sparse Deep Neural Network" benchmark
distributes large sparse networks **generated with RadiX-Net** and asks
implementations to run the inference recurrence

    Y_{l+1} = ReLU( Y_l W_l + b_l ),  clamped to [0, threshold]

over all layers, then report which inputs remain active (the "categories").
This subpackage regenerates challenge-style instances directly from the
RadiX-Net construction -- fully sparse and streaming, so the official
16384/65536-neuron sizes are generable layer by layer
(:func:`~repro.challenge.generator.iter_generate_challenge_layers` +
:func:`~repro.challenge.io.save_challenge_layers`) -- provides the batched
:class:`~repro.challenge.inference.InferenceEngine` (backend-pluggable via
:mod:`repro.backends`, with precomputed transposed weights, a dense/sparse
:class:`~repro.challenge.inference.ActivationPolicy`, chunked mini-batch
streaming, and column sharding), streams networks layer by
layer from disk (:func:`~repro.challenge.io.iter_challenge_layers` +
:func:`~repro.challenge.inference.streaming_inference`), and round-trips
the challenge's TSV interchange format with a binary ``.npz`` sidecar
cache for repeated runs.
"""

from repro.challenge.generator import (
    ChallengeNetwork,
    challenge_input_batch,
    generate_challenge_network,
    iter_generate_challenge_layers,
)
from repro.challenge.inference import (
    ActivationPolicy,
    DenseActivations,
    InferenceEngine,
    InferenceResult,
    SparseActivations,
    engine_for,
    infer_categories,
    layer_activation_profile,
    sparse_dnn_inference,
    streaming_inference,
)
from repro.challenge.io import (
    ChallengeMeta,
    iter_challenge_layers,
    load_challenge_network,
    read_challenge_meta,
    read_layer,
    save_challenge_layers,
    save_challenge_network,
)
from repro.challenge.pipeline import (
    CheckpointStage,
    ComputeStage,
    LoadStage,
    PipelineOutcome,
    PipelineState,
    load_checkpoint,
    resume_challenge_pipeline,
    run_challenge_pipeline,
    run_pipeline,
    save_checkpoint,
)
from repro.challenge.verify import verify_categories, category_checksum

__all__ = [
    "ChallengeNetwork",
    "generate_challenge_network",
    "iter_generate_challenge_layers",
    "challenge_input_batch",
    "ActivationPolicy",
    "DenseActivations",
    "SparseActivations",
    "InferenceEngine",
    "engine_for",
    "sparse_dnn_inference",
    "streaming_inference",
    "infer_categories",
    "layer_activation_profile",
    "InferenceResult",
    "save_challenge_network",
    "save_challenge_layers",
    "load_challenge_network",
    "iter_challenge_layers",
    "read_challenge_meta",
    "read_layer",
    "ChallengeMeta",
    "LoadStage",
    "ComputeStage",
    "CheckpointStage",
    "PipelineState",
    "PipelineOutcome",
    "run_pipeline",
    "run_challenge_pipeline",
    "resume_challenge_pipeline",
    "save_checkpoint",
    "load_checkpoint",
    "verify_categories",
    "category_checksum",
]
