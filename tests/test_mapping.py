"""Mapping arithmetic, chain planning, capacity contracts, fuzz totality."""

import dataclasses

import numpy as np
import pytest

from rnnfast.lstm_core import GATE_ORDERS
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
from rnnfast.presets import get_preset
from rnnfast.racetrack import InputTrackChain


def pe_totals(lp):
    """Words on each PE of a gate, from the mapper's table: its x and h
    words, and the bias on the last PE."""
    totals = [x + h for _unit, x, h in lp.pe_words]
    totals[-1] += 1
    return totals


def square_spec(cell, width, layers=1, timesteps=1):
    specs = [LayerSpec(cell, width, width)]
    for _ in range(layers - 1):
        specs.append(LayerSpec(cell, width, width))
    return NetworkSpec(tuple(specs), timesteps)


LATENCIES = (
    "interconnect_latency_cycles", "hop_latency_cycles", "act_latency_approx", "act_latency_lut",
    "read_latency_cycles", "shift_latency_cycles", "write_latency_cycles",
)


INTEGER_FIELDS = tuple(
    f.name for f in dataclasses.fields(HardwareConfig)
    if f.name not in ("clock_period_ns", "rewind_cost")
)


class TestHardwareConfig:
    @pytest.mark.parametrize("field,value", [
        ("rewind_cost", "full-pass"),
        ("rewind_cost", "none"),
        ("mac_stages", 0),
        ("mac_cycles_per_stage", 0),
        ("mac_issue_interval", 0),
        ("mac_issue_interval", -2),
        *((name, -1) for name in LATENCIES),
        ("clock_period_ns", 0.0),
        ("clock_period_ns", -0.5),
        ("clock_period_ns", float("nan")),
        ("clock_period_ns", True),
        ("clock_period_ns", "0.5"),
        *((name, value) for name in INTEGER_FIELDS for value in (16.5, 16.0, True, "16", None)),
    ])
    def test_bad_values_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HardwareConfig(**{field: value})

    def test_zero_latencies_and_free_rewinds_are_valid(self):
        hw = HardwareConfig(rewind_cost="free", **{name: 0 for name in LATENCIES})
        assert map_network(square_spec("LSTM", 8), hw).layers[0].n_units == 8

    def test_numpy_integers_are_stored_as_ints(self):
        hw = HardwareConfig(weights_per_pe=np.int64(16), groups=np.uint8(2))
        assert type(hw.weights_per_pe) is int and type(hw.groups) is int
        assert repr(hw) == repr(HardwareConfig(weights_per_pe=16, groups=2))
        assert HardwareConfig(clock_period_ns=np.float64(0.25)).clock_period_ns == 0.25


class TestSpecs:
    @pytest.mark.parametrize("field", ["neurons", "inputs"])
    @pytest.mark.parametrize("value", [4.0, 4.5, True, "4", None], ids=repr)
    def test_layer_sizes_must_be_integers(self, field, value):
        sizes = {"neurons": 4, "inputs": 4, field: value}
        with pytest.raises(ValueError, match=field):
            LayerSpec("LSTM", **sizes)

    @pytest.mark.parametrize("value", [2.0, True, False, "2", None], ids=repr)
    def test_timesteps_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="timesteps"):
            NetworkSpec((LayerSpec("LSTM", 4, 4),), value)

    @pytest.mark.parametrize("layers", [
        [LayerSpec("LSTM", 4, 4)],
        (("LSTM", 4, 4),),
        LayerSpec("LSTM", 4, 4),
        None,
    ], ids=["list", "tuple-of-tuples", "bare-layer", "none"])
    def test_layers_must_be_a_tuple_of_layer_specs(self, layers):
        with pytest.raises(ValueError, match="tuple of LayerSpec"):
            NetworkSpec(layers, 1)

    def test_numpy_integers_are_stored_as_ints(self):
        layer = LayerSpec("GRU", np.int32(6), np.uint16(12))
        spec = NetworkSpec((layer,), np.int64(5))
        assert (type(layer.neurons), type(layer.inputs), type(spec.timesteps)) == (int, int, int)
        assert spec == NetworkSpec((LayerSpec("GRU", 6, 12),), 5)
        assert repr(spec) == repr(NetworkSpec((LayerSpec("GRU", 6, 12),), 5))


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
        # 3989 x words, 10 h words and the bias, 1334 + 1333 + 1333.
        assert lp.pe_words == ((0, 1334, 0), (1, 1333, 0), (2, 1322, 10))
        assert pe_totals(lp) == [1334, 1333, 1333]

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
                assert sum(pe_totals(lp)) == lp.inputs + lp.neurons + 1
                assert max(pe_totals(lp)) <= hw.weights_per_pe
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
        # Two two-PE neurons a unit, 3 engines each: ((0, 12, 1), (0, 0, 11)).
        (HardwareConfig(weights_per_pe=16), 12, 2, 0.75),
        # One three-PE neuron a unit, 4 engines: ((0, 14, 0), (0, 6, 8), (0, 0, 12)).
        (HardwareConfig(weights_per_pe=16), 20, 1, 0.5),
    ])
    def test_vanilla_mac_activity_counts_the_neurons_on_a_unit(self, hw, width, per_unit, activity):
        placement = map_network(square_spec("Vanilla", width), hw)
        assert placement.layers[0].neurons_per_unit == per_unit
        assert utilization_report(placement)["layers"][0]["mac_activity"] == activity

    @pytest.mark.parametrize("placement,activity", [
        # x words only on the first unit: ((0, 1536, 1), (1, 0, 1535)).
        (map_network(get_preset("lang-mod").spec, get_preset("lang-mod").hardware()), 0.75),
        # Six PEs on two units, x words on three and h words on four: 7 of
        # 16 engines.
        (map_network(square_spec("Vanilla", 40), HardwareConfig(weights_per_pe=16)), 7 / 16),
    ], ids=["lang-mod", "vanilla-split"])
    def test_mac_activity_counts_only_engines_that_get_words(self, placement, activity):
        """A gate of a neuron streams a path on one engine of every PE to
        which the mapper's per-PE table gives words of that path."""
        lp = placement.layers[0]
        assert lp.units_per_neuron > 1
        engines = 0
        for _unit, x_words, h_words in lp.pe_words:
            engines += (x_words > 0) + (h_words > 0)
        engines *= len(GATE_ORDERS[lp.cell_type])
        report = utilization_report(placement)
        assert report["macs_active"] == engines * lp.neurons
        assert report["macs_provisioned"] == 2 * placement.hw.pes_per_unit * lp.n_units
        assert report["mac_activity"] == report["layers"][0]["mac_activity"] == activity
