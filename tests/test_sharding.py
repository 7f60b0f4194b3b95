"""Tensor-parallel sharding: layout laws, CSR slicing, bit-identity.

The sharded recurrence (:mod:`repro.parallel.sharding`) claims *bitwise*
equality with the unsharded pipeline: each output-column block is the
same floating-point summation in the same order as the corresponding
columns of the full layer step, and canonical CSR is unique, so the
all-gathered frontier must match exactly -- not approximately -- for
every backend, every activation policy, and every shard count.  These
tests pin that claim:

* hypothesis property suites for :func:`partition_ranges` /
  :func:`slice_csr_columns` / :func:`hstack_csr` (slice + all-gather is
  the identity on canonical CSR);
* sharded == unsharded bitwise across all registered backends,
  policies, and shard counts (serial transport, in-process);
* the process transport (resident-shard worker pool) against the same
  golden, including checkpoint / kill / resume and the K -> 1 and
  mismatched-K resume semantics;
* a slow-marked official-scale (1024 x 120) smoke asserting the
  resident-shard memory bound: max worker peak RSS stays below a fresh
  unsharded process's peak RSS.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backends as backends
from repro.challenge.generator import (
    challenge_input_batch,
    generate_challenge_network,
)
from repro.challenge.inference import sparse_dnn_inference
from repro.challenge.io import save_challenge_network
from repro.challenge.pipeline import (
    resume_challenge_pipeline,
    run_challenge_pipeline,
)
from repro.challenge.verify import category_checksum
from repro.errors import ShapeError, ValidationError
from repro.parallel.partition import partition_ranges
from repro.parallel.sharding import (
    ShardLayout,
    hstack_csr,
    shard_layer,
    slice_csr_columns,
    slice_csr_rows,
)
from repro.serve.engine import ServingEngine
from repro.sparse.csr import CSRMatrix

ALL_BACKENDS = backends.available_backends()

NEURONS = 64
LAYERS = 6


@pytest.fixture(scope="module")
def network():
    return generate_challenge_network(NEURONS, LAYERS, connections=8, seed=11)


@pytest.fixture(scope="module")
def net_dir(network, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sharding") / "net"
    save_challenge_network(network, directory)
    return directory


@pytest.fixture(scope="module")
def batch():
    return challenge_input_batch(NEURONS, 8, seed=12)


def _random_csr(rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random((rows, cols)) * (rng.random((rows, cols)) < density)
    return CSRMatrix.from_dense(dense)


def _assert_same_result(a, b):
    """Bitwise equality of everything a run reports (not just categories)."""
    np.testing.assert_array_equal(a.activations, b.activations)
    np.testing.assert_array_equal(a.categories, b.categories)
    assert a.layer_modes == b.layer_modes
    assert a.layer_density == b.layer_density
    assert a.peak_activation_nnz == b.peak_activation_nnz
    assert a.edges_traversed == b.edges_traversed


# --------------------------------------------------------------------------- #
# partition_ranges: the remainder law (satellite 1)
# --------------------------------------------------------------------------- #
class TestPartitionRanges:
    @given(st.integers(0, 500), st.integers(1, 40))
    @settings(max_examples=120, deadline=None)
    def test_ranges_tile_the_interval_without_gaps(self, total, parts):
        ranges = partition_ranges(total, parts)
        assert all(start < stop for start, stop in ranges)  # never empty
        flat = [i for start, stop in ranges for i in range(start, stop)]
        assert flat == list(range(total))

    @given(st.integers(0, 500), st.integers(1, 40))
    @settings(max_examples=120, deadline=None)
    def test_ranges_are_balanced_with_remainder_leading(self, total, parts):
        ranges = partition_ranges(total, parts)
        widths = [stop - start for start, stop in ranges]
        assert len(ranges) == min(parts, total) if total else len(ranges) == 0
        if widths:
            assert max(widths) - min(widths) <= 1
            # the larger parts come first (leading-parts remainder rule)
            assert widths == sorted(widths, reverse=True)

    def test_no_empty_trailing_shard(self):
        assert partition_ranges(2, 4) == [(0, 1), (1, 2)]
        assert partition_ranges(0, 3) == []
        assert partition_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]


# --------------------------------------------------------------------------- #
# CSR slicing + all-gather: slice-then-hstack is the identity
# --------------------------------------------------------------------------- #
class TestCSRSlicing:
    @given(
        st.integers(1, 12),
        st.integers(1, 24),
        st.integers(1, 24),
        st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_slice_hstack_roundtrip_is_bitwise(self, rows, cols, shards, seed):
        matrix = _random_csr(rows, cols, 0.4, seed)
        layout = ShardLayout.balanced(cols, min(shards, cols))
        blocks = [slice_csr_columns(matrix, lo, hi) for lo, hi in layout.ranges]
        gathered = hstack_csr(blocks)
        assert gathered.shape == matrix.shape
        np.testing.assert_array_equal(gathered.indptr, matrix.indptr)
        np.testing.assert_array_equal(gathered.indices, matrix.indices)
        np.testing.assert_array_equal(gathered.data, matrix.data)

    @given(st.integers(2, 12), st.integers(2, 20), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_transpose_of_column_slice_is_row_slice_of_transpose(
        self, rows, cols, seed
    ):
        """The worker-side identity: workers transpose their own slice."""
        from repro.sparse.ops import sparse_transpose

        matrix = _random_csr(rows, cols, 0.5, seed)
        lo, hi = cols // 3, max(cols // 3 + 1, 2 * cols // 3)
        via_slice = sparse_transpose(slice_csr_columns(matrix, lo, hi))
        via_transpose = slice_csr_rows(sparse_transpose(matrix), lo, hi)
        np.testing.assert_array_equal(via_slice.indptr, via_transpose.indptr)
        np.testing.assert_array_equal(via_slice.indices, via_transpose.indices)
        np.testing.assert_array_equal(via_slice.data, via_transpose.data)
        # column indices in the slice are rebased to the slice origin
        if via_slice.nnz:
            assert via_slice.indices.max() < rows

    def test_bad_ranges_rejected(self):
        matrix = _random_csr(3, 6, 0.5, 1)
        with pytest.raises(ValidationError):
            slice_csr_columns(matrix, 4, 2)
        with pytest.raises(ValidationError):
            slice_csr_columns(matrix, 0, 7)
        with pytest.raises(ValidationError):
            slice_csr_rows(matrix, -1, 2)

    def test_hstack_rejects_mismatched_rows(self):
        with pytest.raises(ShapeError):
            hstack_csr([_random_csr(3, 2, 0.5, 1), _random_csr(4, 2, 0.5, 2)])

    def test_hstack_requires_blocks(self):
        with pytest.raises(ValidationError):
            hstack_csr([])


# --------------------------------------------------------------------------- #
# shard layouts
# --------------------------------------------------------------------------- #
class TestShardLayout:
    def test_balanced_widths_cover_neurons(self):
        layout = ShardLayout.balanced(10, 3)
        assert layout.widths == [4, 3, 3]
        assert sum(layout.widths) == layout.neurons == 10

    @pytest.mark.parametrize("bad", [0, -1, NEURONS + 1])
    def test_out_of_range_counts_rejected(self, bad):
        with pytest.raises(ValidationError, match="shards must be in"):
            ShardLayout.balanced(NEURONS, bad)

    def test_shard_layer_validates_geometry(self, network):
        layout = ShardLayout.balanced(NEURONS, 4)
        weight, bias = network.weights[0], network.biases[0]
        sharded = shard_layer(weight, None, bias, layout)
        assert len(sharded.shards) == 4
        assert sharded.nnz == weight.nnz
        with pytest.raises(ShapeError):
            shard_layer(weight, None, bias[:-1], layout)
        with pytest.raises(ShapeError):
            shard_layer(weight, None, bias, ShardLayout.balanced(NEURONS * 2, 2))


# --------------------------------------------------------------------------- #
# bit-identity: sharded == unsharded on every backend / policy / K
# --------------------------------------------------------------------------- #
class TestShardedBitIdentity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("policy", ["auto", "dense", "sparse"])
    def test_all_backends_and_policies(self, network, batch, backend, policy):
        base = sparse_dnn_inference(
            network, batch, backend=backend, activations=policy,
            record_timing=False,
        )
        for shards in (1, 2, 3, NEURONS):
            sharded = sparse_dnn_inference(
                network, batch, backend=backend, activations=policy,
                record_timing=False, shards=shards,
            )
            _assert_same_result(sharded, base)

    @given(st.integers(1, NEURONS), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_shard_counts(self, network, batch, shards, seed):
        rng = np.random.default_rng(seed)
        rows = (rng.random((4, NEURONS)) < 0.3).astype(np.float64)
        base = sparse_dnn_inference(network, rows, record_timing=False)
        sharded = sparse_dnn_inference(
            network, rows, record_timing=False, shards=shards
        )
        _assert_same_result(sharded, base)

    def test_shards_do_not_compose_with_batch_parallelism(self, network, batch):
        with pytest.raises(ValidationError, match="does not compose"):
            sparse_dnn_inference(network, batch, shards=2, chunk_size=4)


# --------------------------------------------------------------------------- #
# the process transport (resident-shard worker pool)
# --------------------------------------------------------------------------- #
class TestProcessTransport:
    def test_matches_unsharded_golden(self, net_dir, batch):
        golden = run_challenge_pipeline(net_dir, NEURONS, batch)
        for transport in ("process", "serial"):
            outcome = run_challenge_pipeline(
                net_dir, NEURONS, batch, shards=2, shard_transport=transport
            )
            assert outcome.completed
            assert outcome.shards == 2
            _assert_same_result(outcome.result, golden.result)
            assert category_checksum(outcome.result.categories) == (
                category_checksum(golden.result.categories)
            )
        # worker RSS readings only exist on the process transport, and
        # only when the pool actually spawned (restricted sandboxes fall
        # back to serial and report shards without readings)

    def test_unknown_transport_rejected(self, net_dir, batch):
        with pytest.raises(ValidationError, match="shard_transport"):
            run_challenge_pipeline(
                net_dir, NEURONS, batch, shards=2, shard_transport="carrier-pigeon"
            )


# --------------------------------------------------------------------------- #
# checkpoint semantics (satellite 3)
# --------------------------------------------------------------------------- #
class TestShardedCheckpointResume:
    def _staged(self, net_dir, batch, tmp_path, name, **kwargs):
        ckpt = tmp_path / name
        partial = run_challenge_pipeline(
            net_dir, NEURONS, batch,
            checkpoint_dir=ckpt, checkpoint_every=2, stop_after=3, **kwargs,
        )
        assert not partial.completed and partial.layers_done == 3
        return ckpt

    def test_resume_reuses_recorded_layout_bit_identically(
        self, net_dir, batch, tmp_path
    ):
        golden = run_challenge_pipeline(net_dir, NEURONS, batch)
        ckpt = self._staged(net_dir, batch, tmp_path, "ck-default", shards=2)
        resumed = resume_challenge_pipeline(ckpt)
        assert resumed.completed and resumed.shards == 2
        assert resumed.resumed_from == 3
        _assert_same_result(resumed.result, golden.result)

    def test_resume_to_unsharded_is_always_safe(self, net_dir, batch, tmp_path):
        golden = run_challenge_pipeline(net_dir, NEURONS, batch)
        ckpt = self._staged(net_dir, batch, tmp_path, "ck-downshift", shards=2)
        resumed = resume_challenge_pipeline(ckpt, shards=1)
        assert resumed.completed
        _assert_same_result(resumed.result, golden.result)

    def test_resume_with_other_layout_refused(self, net_dir, batch, tmp_path):
        ckpt = self._staged(net_dir, batch, tmp_path, "ck-mismatch", shards=2)
        with pytest.raises(ValidationError, match="--shards 2"):
            resume_challenge_pipeline(ckpt, shards=3)

    def test_unsharded_checkpoint_refuses_sharded_resume(
        self, net_dir, batch, tmp_path
    ):
        ckpt = self._staged(net_dir, batch, tmp_path, "ck-unsharded")
        with pytest.raises(ValidationError, match="--shards 1"):
            resume_challenge_pipeline(ckpt, shards=2)


# --------------------------------------------------------------------------- #
# the sharded serving engine
# --------------------------------------------------------------------------- #
class TestShardedServingEngine:
    def test_step_matches_unsharded_engine(self, network, batch):
        plain = ServingEngine.from_network(network)
        sharded = ServingEngine.from_network(network, shards=4)
        a = plain.step(batch)
        b = sharded.step(batch)
        np.testing.assert_array_equal(a.activations, b.activations)
        assert a.layer_modes == b.layer_modes

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("activations", ["dense", "sparse"])
    def test_prepared_shards_match_inference_engine(
        self, network, batch, backend, activations
    ):
        from repro.challenge.inference import InferenceEngine

        sharded = ServingEngine.from_network(
            network, backend=backend, activations=activations, shards=2
        )
        single = InferenceEngine(
            network, backend=backend, activations=activations
        ).run(batch, record_timing=False)
        got = sharded.step(batch).activations
        assert (got.view(np.int64) == single.activations.view(np.int64)).all()

    def test_shards_surface_in_metadata(self, network):
        sharded = ServingEngine.from_network(network, shards=2)
        plain = ServingEngine.from_network(network)
        assert sharded.shards == 2 and plain.shards == 1
        assert sharded.describe()["shards"] == 2
        # slicing preserves the edge count exactly
        assert sharded.edges_per_sample == plain.edges_per_sample
        assert sharded.num_layers == plain.num_layers

    def test_full_weights_are_not_resident(self, network):
        sharded = ServingEngine.from_network(network, shards=2)
        assert sharded.layers == ()
        assert len(sharded.shard_layers) == LAYERS
        for layer in sharded.shard_layers:
            widths = [w.shape[1] for w, _, _ in layer.shards]
            assert widths == ShardLayout.balanced(NEURONS, 2).widths

    def test_warm_start_recovers_shard_count(self, net_dir, batch, tmp_path):
        run_challenge_pipeline(
            net_dir, NEURONS, batch,
            checkpoint_dir=tmp_path / "ck", checkpoint_every=2, shards=2,
        )
        engine = ServingEngine.from_checkpoint(tmp_path / "ck")
        assert engine.shards == 2


# --------------------------------------------------------------------------- #
# CLI happy path
# --------------------------------------------------------------------------- #
class TestShardedCLI:
    def test_run_with_shards_reports_layout_and_matches(self, net_dir, capsys):
        from repro.cli import main

        assert main(["challenge", "run", "--dir", str(net_dir),
                     "--neurons", str(NEURONS)]) == 0
        base = capsys.readouterr().out
        assert main(["challenge", "run", "--dir", str(net_dir),
                     "--neurons", str(NEURONS), "--shards", "2"]) == 0
        sharded = capsys.readouterr().out
        assert "shards: 2" in sharded

        def checksum(out):
            return next(l for l in out.splitlines() if "checksum" in l)

        assert checksum(sharded) == checksum(base)


# --------------------------------------------------------------------------- #
# official-scale smoke: the resident-shard memory bound (satellite 4)
# --------------------------------------------------------------------------- #
_RSS_PROBE = """
import json, sys
import numpy as np
from repro.challenge.generator import challenge_input_batch
from repro.challenge.pipeline import run_challenge_pipeline
from repro.challenge.verify import category_checksum
from repro.utils import peak_rss_mb

directory, neurons, shards = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
batch = challenge_input_batch(neurons, 16, active_fraction=0.28, seed=43)
kwargs = {} if shards == 0 else {"shards": shards}
outcome = run_challenge_pipeline(directory, neurons, batch, **kwargs)
assert outcome.completed
print(json.dumps({
    "checksum": category_checksum(outcome.result.categories),
    "rss_mb": peak_rss_mb(),
    "worker_rss_mb": outcome.shard_worker_rss_mb,
}))
"""


@pytest.mark.slow
class TestOfficialScaleShardSmoke:
    def test_1024_neuron_120_layer_rss_bound(self, tmp_path):
        """1024 x 120 official size: sharded workers stay under the
        unsharded process's peak RSS, categories byte-identical.

        Both runs execute in fresh subprocesses so fork-time RSS
        inheritance from the (large) test process cannot flatter or
        penalize either side.
        """
        network = generate_challenge_network(1024, 120, connections=32, seed=42)
        directory = tmp_path / "official"
        save_challenge_network(network, directory)

        def probe(shards):
            src = Path(__file__).resolve().parent.parent / "src"
            out = subprocess.run(
                [sys.executable, "-c", _RSS_PROBE,
                 str(directory), "1024", str(shards)],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin:/usr/local/bin"},
            )
            return json.loads(out.stdout.strip().splitlines()[-1])

        base = probe(0)
        sharded = probe(4)
        assert sharded["checksum"] == base["checksum"]
        assert base["rss_mb"] is not None
        worker_rss = sharded["worker_rss_mb"]
        if worker_rss and all(r is not None for r in worker_rss):
            assert len(worker_rss) == 4
            # each resident-shard worker holds ~1/4 of the model; it must
            # undercut the unsharded process's peak
            assert max(worker_rss) < base["rss_mb"]
