"""Mapping arithmetic, chain planning, capacity contracts, fuzz totality."""

import math

import numpy as np
import pytest

from rnnfast.mapping import (
    INPUT_TRACK_WORDS,
    CapacityExceeded,
    HardwareConfig,
    LayerSpec,
    NetworkSpec,
    chain_plan,
    feasibility_check,
    map_network,
    utilization_report,
)
from rnnfast.racetrack import InputTrackChain


def per_pe_words(lp):
    """Largest PE share of a neuron's per-gate words, split evenly over its
    PEs."""
    return math.ceil((lp.inputs + lp.neurons + 1) / lp.pes_per_neuron)


def square_spec(cell, width, layers=1, timesteps=1):
    specs = [LayerSpec(cell, width, width)]
    for _ in range(layers - 1):
        specs.append(LayerSpec(cell, width, width))
    return NetworkSpec(tuple(specs), timesteps)


class TestMapNetwork:
    def test_512_lstm_maps_one_to_one(self):
        hw = HardwareConfig()
        placement = map_network(square_spec("LSTM", 512), hw)
        lp = placement.layers[0]
        # 512+512+1 = 1025 <= 1640 capacity -> 1:1, 8 tiles, no trees
        assert lp.units_per_neuron == 1
        assert lp.n_units == 512
        assert lp.n_tiles == 8
        assert lp.agg_hops == 0

    def test_large_neuron_splits_across_units(self):
        hw = HardwareConfig()
        # 4000 weight words per gate at 1640 capacity -> 3 units, tree depth 2
        spec = NetworkSpec((LayerSpec("LSTM", 10, 4000 - 10 - 1),), 1)
        lp = map_network(spec, hw).layers[0]
        assert lp.units_per_neuron == 3
        assert lp.agg_hops == 2
        assert lp.n_units == 30
        assert lp.pes_per_neuron == 3
        assert per_pe_words(lp) == 1334 <= hw.weights_per_pe

    def test_vanilla_packs_four_per_unit(self):
        hw = HardwareConfig()
        placement = map_network(square_spec("Vanilla", 256), hw)
        lp = placement.layers[0]
        assert lp.neurons_per_unit == 4
        assert lp.n_units == 64

    def test_layer_chaining_validated(self):
        with pytest.raises(ValueError):
            NetworkSpec((LayerSpec("LSTM", 8, 8), LayerSpec("LSTM", 8, 9)), 1)

    def test_too_many_layers(self):
        hw = HardwareConfig(rows_per_group=2)
        with pytest.raises(CapacityExceeded) as err:
            map_network(square_spec("LSTM", 8, layers=3), hw)
        assert err.value.report["rows_available"] == 2

    def test_row_overflow_reports_shortfall(self):
        hw = HardwareConfig(tiles_per_group=1, groups=1)
        with pytest.raises(CapacityExceeded) as err:
            map_network(square_spec("LSTM", 512), hw)
        assert err.value.report["tiles_needed"] == 8
        assert err.value.report["tiles_available"] == 1

    def test_deterministic(self):
        hw = HardwareConfig()
        spec = square_spec("GRU", 300, layers=2)
        assert map_network(spec, hw) == map_network(spec, hw)

    def test_fuzz_total_and_consistent_with_feasibility(self):
        rng = np.random.default_rng(42)
        hw = HardwareConfig(tiles_per_group=4, groups=2, rows_per_group=4)
        outcomes = {"ok": 0, "full": 0}
        for _ in range(300):
            n_layers = int(rng.integers(1, 6))
            widths = rng.integers(1, 3000, size=n_layers + 1)
            cells = rng.choice(["LSTM", "GRU", "Vanilla"], size=n_layers)
            layers = tuple(
                LayerSpec(str(cells[i]), int(widths[i + 1]), int(widths[i]))
                for i in range(n_layers)
            )
            spec = NetworkSpec(layers, 1)
            try:
                placement = map_network(spec, hw)
            except CapacityExceeded:
                outcomes["full"] += 1
                continue
            outcomes["ok"] += 1
            # Mapper success implies the independent demand-vs-supply check.
            assert feasibility_check(spec, hw)
            for lp in placement.layers:
                assert per_pe_words(lp) <= hw.weights_per_pe
                assert lp.n_tiles <= hw.row_tiles
                assert sum(lp.chain.group_capacities) == lp.inputs
        assert outcomes["ok"] > 0 and outcomes["full"] > 0


class TestChainPlan:
    def test_single_tile_layer(self):
        hw = HardwareConfig()
        chain = chain_plan(64, 1, 1, hw)
        assert chain.group_capacities == (64,)
        assert chain.boundaries == 0
        assert not chain.cross_group

    def test_two_tile_layer_covers_all_words(self):
        hw = HardwareConfig()
        chain = chain_plan(128, 2, 1, hw)
        assert chain.group_capacities == (64, 64)
        model = InputTrackChain(list(chain.group_capacities))
        words = list(range(128))
        model.stage(words)
        seen = [[] for _ in chain.group_capacities]
        for _ in range(chain.word_capacity):
            delivered, _ = model.rotate_step()
            for g, w in enumerate(delivered):
                seen[g].append(w)
        for per_group in seen:
            assert sorted(per_group) == words  # full coverage, exactly once

    def test_lookahead_hides_interconnect_latency(self):
        hw = HardwareConfig(interconnect_latency_cycles=4)
        chain = chain_plan(200, 4, 2, hw)
        assert chain.cross_group
        assert chain.lookahead_offset_cycles == 4
        assert chain.stall_per_step(hw.interconnect_latency_cycles) == 0

    def test_short_lookahead_stalls(self):
        hw = HardwareConfig(interconnect_latency_cycles=6)
        chain = chain_plan(200, 4, 2, hw)
        stalled = chain.__class__(
            word_capacity=chain.word_capacity,
            group_capacities=chain.group_capacities,
            spanned_groups=chain.spanned_groups,
            boundaries=chain.boundaries,
            lookahead_offset_cycles=2,
        )
        assert stalled.stall_per_step(6) == 4

    def test_words_beyond_buffers_rejected(self):
        hw = HardwareConfig()
        with pytest.raises(CapacityExceeded):
            chain_plan(100 * INPUT_TRACK_WORDS, 2, 1, hw)


class TestUtilizationReport:
    def test_empty_network_utilization(self):
        hw = HardwareConfig()
        placement = map_network(square_spec("LSTM", 1), hw)
        report = utilization_report(placement)
        assert report["unit_utilization"] == pytest.approx(1 / hw.total_units)

    def test_seq2seq_shape_counts(self):
        # 6 stacked 1024-wide LSTM layers (encoder+decoder); capacity raised
        # so 1024-wide neurons keep the published 1:1 unit mapping.
        hw = HardwareConfig(weights_per_pe=2560)
        spec = square_spec("LSTM", 1024, layers=6)
        placement = map_network(spec, hw)
        assert placement.total_units == 6144
        assert placement.total_pes == 24576

    def test_gru_reports_75_percent_mac_activity(self):
        hw = HardwareConfig()
        lstm = utilization_report(map_network(square_spec("LSTM", 128), hw))
        gru = utilization_report(map_network(square_spec("GRU", 128), hw))
        assert gru["mac_activity"] == pytest.approx(0.75 * lstm["mac_activity"])
        assert gru["layers"][0]["mac_activity"] == 0.75

    @pytest.mark.parametrize("hw,width,per_unit,activity", [
        (HardwareConfig(), 256, 4, 1.0),                   # four one-PE neurons a unit
        (HardwareConfig(weights_per_pe=16), 12, 2, 0.5),   # two two-PE neurons a unit
        (HardwareConfig(weights_per_pe=16), 20, 1, 0.25),  # one three-PE neuron a unit
    ])
    def test_vanilla_mac_activity_counts_the_neurons_on_a_unit(self, hw, width, per_unit, activity):
        placement = map_network(square_spec("Vanilla", width), hw)
        assert placement.layers[0].neurons_per_unit == per_unit
        assert utilization_report(placement)["layers"][0]["mac_activity"] == activity
