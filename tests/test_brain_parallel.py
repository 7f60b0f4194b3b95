"""Tests for repro.brain and repro.parallel."""

import pytest

from repro.errors import ValidationError
from repro.brain.sizing import (
    HUMAN_BRAIN,
    MOUSE_BRAIN,
    BrainScaleTarget,
    instantiate_scaled,
    size_radixnet_for_target,
)
from repro.parallel.partition import balanced_chunk_sizes, partition_ranges


class TestBrainTargets:
    def test_builtin_targets(self):
        assert HUMAN_BRAIN.neurons > MOUSE_BRAIN.neurons
        assert HUMAN_BRAIN.synapses_per_neuron > 100
        assert 0 < HUMAN_BRAIN.implied_density < 1e-3

    def test_custom_target(self):
        target = BrainScaleTarget(name="tiny", neurons=1e4, synapses=1e6, layers=10)
        assert target.synapses_per_neuron == 100


class TestSizing:
    def test_sizing_matches_targets_closely(self):
        for target in (MOUSE_BRAIN, HUMAN_BRAIN):
            sizing = size_radixnet_for_target(target)
            assert sizing.neuron_error < 0.01
            assert sizing.synapse_error < 0.5
            assert sizing.neurons_per_layer % sizing.radix == 0

    def test_degree_is_power_of_two_by_default(self):
        sizing = size_radixnet_for_target(MOUSE_BRAIN)
        assert (sizing.radix & (sizing.radix - 1)) == 0

    def test_explicit_radix_respected(self):
        sizing = size_radixnet_for_target(MOUSE_BRAIN, radix=64)
        assert sizing.radix == 64

    def test_invalid_target(self):
        with pytest.raises(ValidationError):
            size_radixnet_for_target(BrainScaleTarget("bad", neurons=-1, synapses=1, layers=1))

    def test_spec_is_admissible(self):
        sizing = size_radixnet_for_target(
            BrainScaleTarget("small", neurons=1e4, synapses=1e5, layers=8)
        )
        spec = sizing.spec()
        assert spec.n_prime >= 2


class TestInstantiateScaled:
    def test_scaled_instance_properties(self):
        from repro.topology.properties import degree_statistics

        sizing = size_radixnet_for_target(MOUSE_BRAIN)
        topology = instantiate_scaled(sizing, scale=1e-4, max_layers=4)
        # regular, clearly sparse, and depth-capped
        assert topology.num_layers - 1 <= 4
        assert topology.density() <= 0.25 + 1e-9
        for stat in degree_statistics(topology):
            assert stat.out_regular and stat.in_regular
        # degree never exceeds the full-size design's degree
        assert degree_statistics(topology)[0].out_degree_max <= sizing.radix

    def test_scale_validation(self):
        sizing = size_radixnet_for_target(MOUSE_BRAIN)
        with pytest.raises(ValidationError):
            instantiate_scaled(sizing, scale=0.0)
        with pytest.raises(ValidationError):
            instantiate_scaled(sizing, scale=2.0)


class TestPartition:
    def test_balanced_chunk_sizes(self):
        assert balanced_chunk_sizes(10, 3) == [4, 3, 3]
        assert balanced_chunk_sizes(2, 4) == [1, 1, 0, 0]
        assert sum(balanced_chunk_sizes(17, 5)) == 17

    def test_balanced_chunk_validation(self):
        with pytest.raises(ValidationError):
            balanced_chunk_sizes(-1, 2)
        with pytest.raises(ValidationError):
            balanced_chunk_sizes(5, 0)

    @pytest.mark.parametrize("total,parts", [(10, 3), (2, 4), (0, 3), (17, 5)])
    def test_partition_ranges_follow_chunk_sizes(self, total, parts):
        sizes = [size for size in balanced_chunk_sizes(total, parts) if size]
        ranges = partition_ranges(total, parts)
        assert [stop - start for start, stop in ranges] == sizes
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
