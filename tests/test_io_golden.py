"""Golden-file regression tests for the Graph Challenge interchange format.

``tests/data/golden-challenge-8x3/`` holds a canonical saved network
(8 neurons x 3 layers, 2 connections/neuron, unshuffled -- fully
deterministic, no RNG involved) checked in byte for byte.  These tests
pin the on-disk format in both directions:

* **write**: saving the same network today must reproduce the golden
  bytes exactly (both the materialized and the streaming save paths) --
  any drift in index base, field order, separators, or float formatting
  breaks compatibility with the official Graph Challenge files;
* **read**: loading the golden directory must recover the exact
  structure (the known circulant layers, threshold, bias);
* **encoder**: the table-driven layer encoder writes, for arbitrary
  layers (explicit and negative zeros, non-finite and subnormal values,
  empty rows, wide labels, unsorted or duplicate columns), exactly the
  bytes of the ``coalesce`` + ``np.savetxt`` formulation it replaced,
  kept here as the oracle.
"""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.challenge.io as challenge_io
from repro.challenge.generator import (
    generate_challenge_network,
    iter_generate_challenge_layers,
)
from repro.challenge.io import (
    load_challenge_network,
    save_challenge_layers,
    save_challenge_network,
)
from repro.sparse.csr import CSRMatrix

GOLDEN_DIR = Path(__file__).parent / "data" / "golden-challenge-8x3"
GOLDEN_FILES = (
    "neuron8-l1.tsv",
    "neuron8-l2.tsv",
    "neuron8-l3.tsv",
    "neuron8-meta.tsv",
)


def golden_network():
    """The network the fixtures were generated from (no RNG anywhere)."""
    return generate_challenge_network(8, 3, connections=2, shuffle_neurons=False)


class TestGoldenWrite:
    def test_fixture_files_exist(self):
        for name in GOLDEN_FILES:
            assert (GOLDEN_DIR / name).is_file(), name

    def test_materialized_save_is_byte_stable(self, tmp_path):
        save_challenge_network(golden_network(), tmp_path, write_sidecar=False)
        for name in GOLDEN_FILES:
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), (
                f"{name}: save output drifted from the golden fixture -- the "
                "on-disk challenge format must stay byte-stable"
            )

    def test_streaming_save_is_byte_stable(self, tmp_path):
        save_challenge_layers(
            tmp_path,
            iter_generate_challenge_layers(8, 3, connections=2, shuffle_neurons=False),
            neurons=8,
            num_layers=3,
            threshold=32.0,
            write_sidecar=False,
        )
        for name in GOLDEN_FILES:
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    def test_no_extra_files_written(self, tmp_path):
        save_challenge_network(golden_network(), tmp_path, write_sidecar=False)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN_FILES)


class TestGoldenRead:
    def test_load_recovers_exact_structure(self):
        # use_cache=False: never write a sidecar into the checked-in tree
        network = load_challenge_network(GOLDEN_DIR, 8, use_cache=False)
        assert network.neurons == 8
        assert network.num_layers == 3
        assert network.threshold == 32.0
        # the unshuffled challenge layer is the mixed-radix circulant:
        # row j connects to columns j and (j + 1) mod 8
        expected_cols = np.sort(
            np.stack([np.arange(8), (np.arange(8) + 1) % 8], axis=1), axis=1
        ).ravel()
        for weight in network.weights:
            assert weight.nnz == 16
            np.testing.assert_array_equal(weight.indices, expected_cols)
            np.testing.assert_allclose(np.asarray(weight.data), 1.0)
        for bias in network.biases:
            np.testing.assert_allclose(bias, -0.3)

    def test_load_matches_regenerated_network(self):
        network = load_challenge_network(GOLDEN_DIR, 8, use_cache=False)
        regenerated = golden_network()
        assert network.topology.same_topology(regenerated.topology)
        for a, b in zip(network.weights, regenerated.weights):
            assert a.allclose(b)

    def test_golden_tsv_is_one_based_and_tab_separated(self):
        lines = (GOLDEN_DIR / "neuron8-l1.tsv").read_text().strip().split("\n")
        assert len(lines) == 16
        for line in lines:
            row, col, value = line.split("\t")
            assert 1 <= int(row) <= 8
            assert 1 <= int(col) <= 8
            assert float(value) == 1.0

    def test_golden_meta_fields(self):
        fields = (GOLDEN_DIR / "neuron8-meta.tsv").read_text().strip().split("\t")
        assert [int(fields[0]), int(fields[1])] == [8, 3]
        assert float(fields[2]) == 32.0
        assert float(fields[3]) == pytest.approx(-0.3)

    def test_golden_dir_untouched_by_loads(self):
        before = sorted(p.name for p in GOLDEN_DIR.iterdir())
        load_challenge_network(GOLDEN_DIR, 8, use_cache=False)
        assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == before


# --------------------------------------------------------------------------- #
# layer encoder vs. the np.savetxt formulation
# --------------------------------------------------------------------------- #
def savetxt_oracle(path, weight):
    """The layer writer the encoder replaced: coalesced COO through np.savetxt."""
    coo = weight.to_coo().coalesce()
    triples = np.column_stack([coo.rows + 1.0, coo.cols + 1.0, coo.values])
    np.savetxt(path, triples, fmt=("%d", "%d", "%.17g"), delimiter="\t")


VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.0625, 1 / 3]),
    st.integers(-(10**9), 10**9).map(float),
)


@st.composite
def layers(draw):
    """A CSR layer, canonical or with unsorted/duplicate columns per row."""
    nrows = draw(st.sampled_from([1, 2, 7, 10_000, 12_345]))
    ncols = draw(st.sampled_from([1, 3, 9, 10_001, 99_999]))
    nnz = draw(st.integers(0, 40))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=nnz, max_size=nnz)), dtype=dtype)

    rows = column(st.integers(0, nrows - 1), np.int64)
    cols = column(st.integers(0, ncols - 1), np.int64)
    vals = column(VALUES, np.float64)
    if draw(st.booleans()):
        # canonical: first value per (row, col), sorted -- keeps a stored
        # -0.0, which a summing coalesce would rewrite as 0
        _, first = np.unique(rows * ncols + cols, return_index=True)
        rows, cols, vals = rows[first], cols[first], vals[first]
    else:
        # CSR order by row only: columns stay in drawn order within a row
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    return CSRMatrix((nrows, ncols), indptr, cols, vals)


class TestLayerEncoder:
    @settings(max_examples=150, deadline=None)
    @given(weight=layers(), chunk_rows=st.integers(1, 8))
    def test_bytes_match_savetxt(self, tmp_path_factory, weight, chunk_rows):
        # small chunks so entries straddle chunk boundaries
        directory = tmp_path_factory.mktemp("encoder")
        # duplicate sums such as inf + -inf warn in coalesce, in both paths
        with np.errstate(all="ignore"), mock.patch.object(
            challenge_io, "TSV_CHUNK_ROWS", chunk_rows
        ):
            savetxt_oracle(directory / "oracle.tsv", weight)
            challenge_io._write_layer_tsv(directory / "encoded.tsv", weight)
        assert (directory / "encoded.tsv").read_bytes() == (
            directory / "oracle.tsv"
        ).read_bytes()

    def test_zero_nnz_layer_is_an_empty_file(self, tmp_path):
        challenge_io._write_layer_tsv(tmp_path / "l.tsv", CSRMatrix.zeros((5, 5)))
        assert (tmp_path / "l.tsv").read_bytes() == b""

    def test_generated_layer_spanning_chunks_matches_savetxt(self, tmp_path):
        # a real challenge layer larger than one TSV_CHUNK_ROWS chunk
        weight, _ = next(iter_generate_challenge_layers(4096, 1, connections=32, seed=5))
        assert weight.nnz > challenge_io.TSV_CHUNK_ROWS
        savetxt_oracle(tmp_path / "oracle.tsv", weight)
        challenge_io._write_layer_tsv(tmp_path / "encoded.tsv", weight)
        assert (tmp_path / "encoded.tsv").read_bytes() == (
            tmp_path / "oracle.tsv"
        ).read_bytes()
