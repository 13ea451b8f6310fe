"""``simulate`` rejects input streams, weights and biases that are not raw
Q8.8 integers; the ledger rejects ops it does not count and prices the
counted ones at the default rates; ``energy_report`` takes its op latencies
from the hardware config."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rnnfast.error_model import ErrorConfig
from rnnfast.lstm_core import LayerParams
from rnnfast.mapping import HardwareConfig, LayerSpec, NetworkSpec, map_network
from rnnfast.presets import generate_network_params
from rnnfast.simulator import (
    DEFAULT_ENERGY_PJ,
    LUT_NONLINEAR_PJ,
    EnergyLedger,
    energy_report,
    simulate,
)

SPEC = NetworkSpec((LayerSpec("LSTM", 3, 2),), 1)
PLACEMENT = map_network(SPEC, HardwareConfig())
PARAMS = generate_network_params(SPEC, 0)


@pytest.mark.parametrize(
    "inputs",
    [
        [[1.7, -2.2]],               # would truncate to [1, -2]
        [[32768, 0]],
        [[0, -32769]],
        np.array([[True, False]]),
        np.array([[2**40, 0]], dtype=np.int64),
    ],
    ids=["float", "above-int16", "below-int16", "bool", "wide-int"],
)
def test_bad_inputs_are_rejected(inputs):
    with pytest.raises(ValueError):
        simulate(PLACEMENT, PARAMS, inputs)


def test_in_range_integer_inputs_are_accepted():
    for inputs in ([[32767, -32768]], np.array([[5, 250]], dtype=np.uint8)):
        assert simulate(PLACEMENT, PARAMS, inputs).outputs[0].shape == (1, 3)


def test_empty_stream_for_zero_timesteps():
    spec = NetworkSpec(SPEC.layers, 0)
    result = simulate(map_network(spec, HardwareConfig()), PARAMS, [])
    assert result.outputs[0].shape == (0, 3) and result.total_cycles == 0


def with_gate_array(name, value):
    """PARAMS with one array of gate 1 replaced by `value`."""
    layer = PARAMS[0]
    gates = list(layer.gates)
    gates[1] = replace(gates[1], **{name: np.asarray(value)})
    return [LayerParams(layer.cell_type, tuple(gates))]


GOOD = PARAMS[0].gates[1]


@pytest.mark.parametrize(
    "name,value",
    [
        ("w_x", GOOD.w_x.astype(np.float64)),
        ("w_h", GOOD.w_h.astype(np.float32)),
        ("b", GOOD.b.astype(np.float64) + 0.5),
        ("w_x", np.where(np.eye(3, 2) > 0, 32768, GOOD.w_x.astype(np.int64))),
        ("w_h", np.full((3, 3), -32769, dtype=np.int32)),
        ("b", np.array([0, 40000, 0], dtype=np.uint16)),
        ("b", np.array([True, False, True])),
    ],
    ids=["float-w_x", "float32-w_h", "fractional-b", "above-int16-w_x",
         "below-int16-w_h", "uint16-b", "bool-b"],
)
def test_bad_weights_and_biases_are_rejected(name, value):
    with pytest.raises(ValueError, match=f"gate 1 {name} "):
        simulate(PLACEMENT, with_gate_array(name, value), [[1, 2]])


def test_in_range_wide_integer_weights_are_accepted():
    wide = with_gate_array("w_h", GOOD.w_h.astype(np.int64))
    edge = with_gate_array("b", np.array([32767, -32768, 7], dtype=np.int32))
    assert np.array_equal(simulate(PLACEMENT, wide, [[1, 2]]).outputs[0],
                          simulate(PLACEMENT, PARAMS, [[1, 2]]).outputs[0])
    assert simulate(PLACEMENT, edge, [[1, 2]]).outputs[0].shape == (1, 3)


def test_unknown_ledger_ops_are_rejected():
    ledger = EnergyLedger()
    with pytest.raises(ValueError, match="mac_isue"):
        ledger.add("mac_isue", 1)
    assert set(ledger.counters) == set(DEFAULT_ENERGY_PJ)
    assert set(ledger.counters.values()) == {0}


def test_energy_is_counters_times_the_default_rates():
    # Exact: each rate is a decimal with at most 6 places, so the ledger's
    # attojoule integers give the correctly rounded counter x rate.
    for impl in ("approx", "lut"):
        spec = replace(SPEC, activation_impl=impl)
        placement = map_network(spec, HardwareConfig())
        edc = ErrorConfig(p_overshift=0.0, edc_inputs=True, edc_weights=True)
        result = simulate(placement, PARAMS, [[1, 2]], error_cfg=edc)
        rates = dict(DEFAULT_ENERGY_PJ)
        if impl == "lut":
            rates["nonlinear_eval"] = LUT_NONLINEAR_PJ
        exact = {op: n * Fraction(str(rates[op])) for op, n in result.counters.items()}
        ledger = EnergyLedger(activation_impl=impl)
        for op, n in result.counters.items():
            ledger.add(op, n)
        report = energy_report(ledger, HardwareConfig())
        assert result.counters["edc_write"] and result.counters["nonlinear_eval"]
        assert report["counters"] == result.counters
        assert report["energy_pj_per_op"] == {op: float(e) for op, e in exact.items()}
        assert report["total_energy_pj"] == result.total_energy_pj == float(sum(exact.values()))


def test_energy_report_gives_the_hardware_latencies():
    hw = HardwareConfig(read_latency_cycles=5, shift_latency_cycles=3)
    report = energy_report(EnergyLedger(), hw)
    assert report["latency_cycles_per_op"] == {
        "track_read": 5, "track_shift": 3, "track_write": hw.write_latency_cycles,
    }
    assert energy_report(EnergyLedger(), HardwareConfig())["latency_cycles_per_op"] == {
        "track_read": 2, "track_shift": 1, "track_write": 1,
    }
