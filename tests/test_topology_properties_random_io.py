"""Tests for repro.topology.properties, random_graphs, and io."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.radixnet import generate_radixnet
from repro.errors import SerializationError, TopologyError, ValidationError
from repro.testing import ADMISSIBLE_SPECS
from repro.topology.fnnt import FNNT
from repro.topology.io import load_npz, load_tsv_layers, save_npz, save_tsv_layers
from repro.topology.properties import (
    degree_statistics,
    density,
    is_path_connected,
    is_symmetric,
    minimum_density,
    path_count_matrix,
    uniform_path_count,
)
from repro.topology.random_graphs import erdos_renyi_fnnt, fixed_out_degree_fnnt


class TestProperties:
    def test_dense_is_symmetric_with_known_count(self):
        net = FNNT([np.ones((2, 3)), np.ones((3, 4))])
        assert is_symmetric(net)
        assert uniform_path_count(net) == 3

    def test_non_symmetric_raises_on_uniform_count(self):
        sub = np.array([[1.0, 1.0], [1.0, 0.0]])
        net = FNNT([sub, np.ones((2, 2))], validate=False)
        assert not is_symmetric(net)
        with pytest.raises(TopologyError):
            uniform_path_count(net)

    def test_path_connected_boolean_path_agrees(self):
        random_pair = [
            (np.random.default_rng(seed).random((4, 4)) < 0.4).astype(np.float64)
            for seed in (3, 4)
        ]
        for subs in ([np.ones((3, 3)), np.eye(3)], random_pair):
            net = FNNT(subs, validate=False)
            assert is_path_connected(net) == is_path_connected(net, use_boolean=True)
            reachable = bool(np.all(subs[0] @ subs[1] > 0))
            assert is_path_connected(net, use_boolean=True) == reachable

    def test_identity_chain_not_connected(self):
        net = FNNT([np.eye(4), np.eye(4)], validate=False)
        assert not is_path_connected(net)

    @pytest.mark.parametrize("systems,widths", ADMISSIBLE_SPECS[:4])
    def test_radixnets_are_connected_on_both_paths(self, systems, widths):
        net = generate_radixnet(systems, widths)
        assert is_path_connected(net)
        assert is_path_connected(net, use_boolean=True)

    @pytest.mark.parametrize(
        "sub,expected", [(np.ones((3, 2)), True), (np.eye(3), False)]
    )
    def test_boolean_path_single_layer_needs_no_fold(self, sub, expected):
        net = FNNT([sub], validate=False)
        assert is_path_connected(net, use_boolean=True) is expected
        assert is_path_connected(net) is expected

    def test_boolean_path_sees_a_dead_hidden_neuron(self):
        # hidden neuron 0 has no outgoing edges, so input 0 (wired only
        # to it) reaches nothing downstream
        first = np.array([[1.0, 0.0], [1.0, 1.0]])
        second = np.array([[0.0, 0.0], [1.0, 1.0]])
        net = FNNT([first, second, np.ones((2, 2))], validate=False)
        assert not is_path_connected(net, use_boolean=True)
        assert not is_path_connected(net)

    @given(
        st.lists(st.integers(1, 4), min_size=3, max_size=5),
        st.floats(0.2, 0.9),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_boolean_path_matches_dense_reachability(self, widths, p, seed):
        rng = np.random.default_rng(seed)
        subs = [
            (rng.random((widths[i], widths[i + 1])) < p).astype(np.float64)
            for i in range(len(widths) - 1)
        ]
        reach = subs[0]
        for m in subs[1:]:
            reach = ((reach @ m) > 0).astype(np.float64)
        net = FNNT(subs, validate=False)
        assert is_path_connected(net, use_boolean=True) == bool(np.all(reach > 0))
        assert is_path_connected(net) == is_path_connected(net, use_boolean=True)

    def test_path_count_matrix_values(self):
        # two parallel 2-hop routes between single input and single output
        w1 = np.ones((1, 2))
        w2 = np.ones((2, 1))
        counts = path_count_matrix(FNNT([w1, w2])).to_dense()
        assert counts[0, 0] == 2

    def test_density_function_matches_method(self):
        net = FNNT([np.eye(3)])
        assert density(net) == net.density()

    def test_minimum_density_formula(self):
        # paper: sum |U_{i-1}| / sum |U_{i-1}||U_i|
        assert minimum_density([4, 4]) == 4 / 16
        assert minimum_density([2, 3, 4]) == (2 + 3) / (6 + 12)

    def test_minimum_density_validation(self):
        with pytest.raises(TopologyError):
            minimum_density([5])
        with pytest.raises(TopologyError):
            minimum_density([3, 0])

    def test_degree_statistics_regularity(self):
        net = FNNT([np.eye(3) + np.roll(np.eye(3), 1, axis=1)])
        stats = degree_statistics(net)
        assert len(stats) == 1
        assert stats[0].out_regular
        assert stats[0].in_regular
        assert stats[0].out_degree_mean == 2.0

    def test_degree_statistics_irregular(self):
        sub = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        stats = degree_statistics(FNNT([sub]))[0]
        assert not stats.out_regular
        assert stats.out_degree_min == 1
        assert stats.out_degree_max == 3


class TestRandomGraphs:
    def test_erdos_renyi_valid_fnnt(self):
        net = erdos_renyi_fnnt([10, 12, 8], 0.3, seed=0)
        net.validate()  # no zero rows/cols after repair
        assert net.layer_sizes == (10, 12, 8)

    def test_erdos_renyi_density_close_to_p(self):
        net = erdos_renyi_fnnt([50, 50, 50], 0.4, seed=1)
        assert abs(net.density() - 0.4) < 0.08

    def test_erdos_renyi_extreme_sparsity_still_valid(self):
        net = erdos_renyi_fnnt([10, 10], 0.0, seed=2)
        net.validate()

    def test_erdos_renyi_determinism(self):
        a = erdos_renyi_fnnt([8, 8], 0.3, seed=5)
        b = erdos_renyi_fnnt([8, 8], 0.3, seed=5)
        assert a.same_topology(b)

    def test_erdos_renyi_rejects_single_layer(self):
        with pytest.raises(ValidationError):
            erdos_renyi_fnnt([4], 0.5)

    def test_erdos_renyi_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            erdos_renyi_fnnt([4, 4], 1.5)

    def test_fixed_out_degree_exact(self):
        net = fixed_out_degree_fnnt([12, 12], 3, seed=3)
        degrees = net.submatrix(0).row_degrees()
        assert degrees.min() >= 3  # repair can only add edges

    def test_fixed_out_degree_clipped_to_next_width(self):
        net = fixed_out_degree_fnnt([4, 2], 10, seed=4)
        assert net.submatrix(0).row_degrees().max() <= 2

    def test_fixed_out_degree_rejects_zero(self):
        with pytest.raises(ValidationError):
            fixed_out_degree_fnnt([4, 4], 0)

    @given(st.integers(2, 12), st.integers(2, 12), st.floats(0.1, 0.9), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_erdos_renyi_always_valid_property(self, a, b, p, seed):
        net = erdos_renyi_fnnt([a, b], p, seed=seed)
        net.validate()


class TestIO:
    def test_npz_round_trip(self, tmp_path, small_radixnet):
        path = tmp_path / "topo.npz"
        save_npz(small_radixnet, path)
        loaded = load_npz(path)
        assert loaded.name == small_radixnet.name
        assert loaded.same_topology(small_radixnet)

    def test_npz_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_npz(tmp_path / "missing.npz")

    def test_tsv_round_trip(self, tmp_path, small_radixnet):
        paths = save_tsv_layers(small_radixnet, tmp_path)
        assert len(paths) == len(small_radixnet.submatrices)
        shapes = [w.shape for w in small_radixnet.submatrices]
        loaded = load_tsv_layers(paths, shapes)
        assert loaded.same_topology(small_radixnet)

    def test_tsv_is_one_based(self, tmp_path):
        net = FNNT([np.eye(2) + np.roll(np.eye(2), 1, axis=1)])
        paths = save_tsv_layers(net, tmp_path)
        first_line = paths[0].read_text().splitlines()[0]
        row, col, _ = first_line.split("\t")
        assert int(row) >= 1 and int(col) >= 1

    def test_tsv_shape_count_mismatch(self, tmp_path, small_radixnet):
        paths = save_tsv_layers(small_radixnet, tmp_path)
        with pytest.raises(SerializationError):
            load_tsv_layers(paths, [(2, 2)])

    def test_tsv_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_tsv_layers([tmp_path / "nope.tsv"], [(2, 2)])

    def test_tsv_malformed_line(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\t2\n")
        with pytest.raises(SerializationError, match="3 tab-separated"):
            load_tsv_layers([bad], [(2, 2)])
