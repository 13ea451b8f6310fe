"""The simulator's exact float64 kernel and its memory bounds.

``_exact_matmul`` must equal int64 matmul bit for bit on every raw Q8.8
operand, whatever the width, the row blocking or the number of columns; and
``simulate`` must hold no float64 copy of a weight matrix and no per-word
table of chain groups, which the ``tracemalloc`` peak of a run on the
widest preset shows (below 1/32 of its int16 weights).  A ``FaultPlan`` on
that preset must hold its events as int32 rows, not Python tuples (a
quarter of their retained size).
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnfast.error_model import DEFAULT_P_OVERSHIFT, ErrorConfig, FaultPlan
from rnnfast.mapping import map_network
from rnnfast.presets import generate_inputs, generate_network_params, get_preset
from rnnfast.simulator import _exact_matmul, simulate

RAW = (-32768, 32767)


def reference(blocks, v):
    return np.concatenate(blocks).astype(np.int64) @ np.asarray(v, dtype=np.int64)


def fill(rng, kind, shape):
    if kind == "min":
        return np.full(shape, RAW[0], dtype=np.int16)
    if kind == "extremes":
        return rng.choice(np.array(RAW, dtype=np.int16), shape)
    return rng.integers(RAW[0], RAW[1] + 1, shape, dtype=np.int16)


@st.composite
def operands(draw):
    n = draw(st.integers(1, 3000))
    rows = draw(st.lists(st.integers(0, 150), min_size=1, max_size=4))
    k = draw(st.sampled_from([None, 1, 2, 64, 67]))
    kind = draw(st.sampled_from(["random", "min", "extremes"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [fill(rng, kind, (r, n)) for r in rows]
    return blocks, fill(rng, kind, (n,) if k is None else (n, k))


@settings(max_examples=150, deadline=None)
@given(operands())
def test_exact_matmul_equals_int64_matmul(case):
    blocks, v = case
    got = _exact_matmul(blocks, v)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference(blocks, v))


@pytest.mark.parametrize("n,rows", [
    (1000, (130, 7)),        # 65 rows per buffer: partial last blocks
    (65536, (3,)),           # one row fills the buffer
    (65537, (2, 1)),         # a row wider than the buffer
    (1, (70000,)),           # more rows than the buffer holds
])
@pytest.mark.parametrize("columns", [None, 1, 5])
def test_exact_matmul_at_the_largest_magnitudes(n, rows, columns):
    blocks = [np.full((r, n), RAW[0], dtype=np.int16) for r in rows]
    shape = (n,) if columns is None else (n, columns)
    for v in (np.full(shape, RAW[0], dtype=np.int16), np.full(shape, RAW[1], dtype=np.int16)):
        got = _exact_matmul(blocks, v)
        assert np.array_equal(got, reference(blocks, v))
    # (-2^15)^2 summed n times, exactly.
    assert np.all(_exact_matmul(blocks, np.full(shape, RAW[0], dtype=np.int16)) == n << 30)


def test_exact_matmul_refuses_widths_where_float64_sums_may_round():
    n = 1 << 23
    with pytest.raises(AssertionError):
        _exact_matmul([np.broadcast_to(np.int16(0), (1, n))], np.broadcast_to(np.int16(0), (n,)))


def test_simulate_peak_memory_is_a_fraction_of_the_weights():
    preset = get_preset("d-speech")
    spec = replace(preset.spec, timesteps=4)
    params = generate_network_params(spec, 1)
    inputs = generate_inputs(spec, 2)
    placement = map_network(spec, preset.hardware())
    weight_bytes = sum(g.w_x.nbytes + g.w_h.nbytes for p in params for g in p.gates)
    tracemalloc.start()
    try:
        result = simulate(placement, params, inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.outputs[0].shape == (4, 2816)
    assert peak < weight_bytes / 32, (peak, weight_bytes)


def test_fault_plan_memory_is_a_quarter_of_python_tuples():
    # A 20-step d-speech slice at the paper's rate has 116,190 events; held
    # as Python tuples, its plan retained 13.8 MiB (125 bytes per event).
    preset = get_preset("d-speech")
    cfg = ErrorConfig(p_overshift=DEFAULT_P_OVERSHIFT, seed=0)
    # A one-step plan first, so that numpy's lazy imports are not counted.
    FaultPlan(cfg, map_network(replace(preset.spec, timesteps=1), preset.hardware()))
    placement = map_network(replace(preset.spec, timesteps=20), preset.hardware())
    tracemalloc.start()
    try:
        plan = FaultPlan(cfg, placement)
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.total_events() == 116_190
    assert retained <= 13.8 * 2**20 / 4, retained


def test_mac_sample_is_the_first_issues_of_layer_0():
    preset = get_preset("desk-ref")
    spec = replace(preset.spec, timesteps=3)
    hw = preset.hardware()
    placement = map_network(spec, hw)
    result = simulate(placement, generate_network_params(spec, 1), generate_inputs(spec, 2))
    # desk-ref has one chain group: one issue per interval, 96-cycle latency.
    assert result.mac_sample == [
        [hw.mac_issue_interval * (s + 1), hw.mac_issue_interval * (s + 1) + hw.mac_latency]
        for s in range(8)
    ]
