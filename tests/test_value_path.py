"""The simulator's exact product kernel and its memory bounds.

``_exact_matmul`` must equal int64 matmul bit for bit on every raw Q8.8
operand, whatever the width, the row blocking or the number of columns.
It multiplies in float32 when every partial sum stays within 2^24, with
the values split into two digits if they must be, and in float64
otherwise; ``_kernel_digits`` makes that choice, and every preset product
takes float32, and so does a float32 stack of the same weights.
``simulate`` must hold no float copy of weights larger than _STACK_BYTES,
one such stack at a time, and no per-word table of chain groups.  The
``tracemalloc`` peaks show it: a run on the widest preset stays below 1/32
of its int16 weights, and one on two 512-wide layers below one stack and
two kernel buffers.  A
``FaultPlan`` on that preset must hold its events as int32 rows, not
Python tuples (a quarter of their retained size).
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_simulator import replay

from rnnfast import simulator
from rnnfast.error_model import DEFAULT_P_OVERSHIFT, ErrorConfig, FaultPlan
from rnnfast.mapping import map_network
from rnnfast.presets import PRESETS, generate_inputs, generate_network_params, get_preset
from rnnfast.simulator import _exact_matmul, _kernel_digits, _magnitude, simulate

RAW = (-32768, 32767)


def reference(blocks, v):
    return np.concatenate(blocks).astype(np.int64) @ np.asarray(v, dtype=np.int64)


def forms(blocks):
    """The int16 weight blocks, and the same weights as the one float32
    stack that ``_layer_values`` makes of a small layer's recurrent
    weights."""
    return [blocks, [np.concatenate(blocks, dtype=np.float32)]]


def path_of(dtype, shift):
    """The kernel path a ``_kernel_digits`` result names."""
    if dtype is np.float64:
        return "float64"
    return "one digit" if shift is None else "two digits"


def within(rng, kind, bound, shape, dtype):
    """Values of magnitude at most `bound`, which one of them reaches."""
    if kind == "max":
        a = np.full(shape, bound * rng.choice((-1, 1)))
    elif kind == "extremes":
        a = rng.choice((-bound, bound), shape)
    else:
        a = rng.integers(-bound, bound + 1, shape)
        if a.size:
            a.flat[rng.integers(a.size)] = bound * rng.choice((-1, 1))
    return a.astype(dtype)


@st.composite
def operands(draw):
    """(blocks, v, w_max, path): weights within +-w_max and v of largest
    magnitude v_max, drawn at or near the edge of the drawn kernel path.

    With cap = 2^24 // (n * w_max), one digit holds v_max <= cap, and two
    digits v_max <= top = cap * 2^b, b the largest with 2^b <= cap.  Two
    digits need n * w_max <= 2^23 (cap >= 2), and float64 with values below
    2^16 needs n * w_max > 2^16 (cap <= 255, so top < 2^15).
    """
    path = draw(st.sampled_from(["one digit", "two digits", "float64"]))
    n = draw(st.integers(3 if path == "float64" else 1, 3000))
    w_lo, w_hi = {
        "one digit": (1, 1 << 15),
        "two digits": (-(-257 // n), min((1 << 23) // n, 1 << 15)),
        "float64": (-(-((1 << 16) + 1) // n), 1 << 15),
    }[path]
    w_max = draw(st.integers(w_lo, w_hi))
    cap = (1 << 24) // (n * w_max)
    top = cap << max(cap.bit_length() - 1, 0)
    v_lo, v_hi = {
        "one digit": (0, min(cap, 65535)),
        "two digits": (cap + 1, min(top, 65535)),
        "float64": (top + 1, 65535),
    }[path]
    v_max = draw(st.one_of(st.sampled_from((v_lo, v_hi)), st.integers(v_lo, v_hi)))
    rows = draw(st.lists(st.integers(0, 150), min_size=1, max_size=4))
    k = draw(st.sampled_from([None, 1, 2, 64, 67]))
    kinds = st.sampled_from(["random", "max", "extremes"])
    w_kind, v_kind = draw(kinds), draw(kinds)
    v_type = np.int16 if v_max <= RAW[1] and draw(st.booleans()) else np.int64
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [within(rng, w_kind, w_max, (r, n), np.int16) for r in rows]
    return blocks, within(rng, v_kind, v_max, (n,) if k is None else (n, k), v_type), w_max, path


@settings(max_examples=300, deadline=None)
@given(operands())
def test_exact_matmul_equals_int64_matmul(case):
    blocks, v, w_max, path = case
    assert path_of(*_kernel_digits(len(v), w_max, _magnitude(v))) == path
    for form in forms(blocks):
        got = _exact_matmul(form, v, w_max)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference(blocks, v))


# (n, w_max, v_max, path).  cap is 256 for the first two, 258 for the
# third and 129 for the last two, where 2^7 * 129 = 16512.
EDGES = [
    (512, 128, 256, "one digit"),     # n * w_max * v_max = 2^24 exactly
    (512, 128, 257, "two digits"),    # one past it
    (511, 127, 259, "two digits"),    # v_max = cap + 1: odd sums above 2^24 in one digit
    (1023, 127, 16512, "two digits"),   # the high digit is cap
    (1023, 127, 16513, "float64"),    # one past the two-digit edge
]


@pytest.mark.parametrize("n,w_max,v_max,path", EDGES)
@pytest.mark.parametrize("columns", [False, True])
def test_exact_matmul_at_the_digit_edges(n, w_max, v_max, path, columns):
    """Rows of +w_max, of -w_max and of w_max but w_max - 1 first, against
    columns of v_max, -v_max and v_max but v_max - 1 first: every product
    at the largest magnitudes, some of the sums odd."""
    dtype, shift = _kernel_digits(n, w_max, v_max)
    assert path_of(dtype, shift) == path
    if path == "two digits":
        assert shift == ((1 << 24) // (n * w_max)).bit_length() - 1
    if v_max == 16512:
        assert v_max >> shift == (1 << 24) // (n * w_max)
    w = np.full((3, n), w_max, dtype=np.int16)
    w[1], w[2, 0] = -w_max, w_max - 1
    v = np.full((n, 3), v_max, dtype=np.int64)
    v[:, 1], v[0, 2] = -v_max, v_max - 1
    v = v if columns else v[:, 0]
    want = reference([w], v)
    if columns:
        assert (want % 2).any() and (abs(want) >= 1 << 24).any()
    for blocks in ([w], [w[:1], w[1:]], [w.astype(np.float32)]):
        assert np.array_equal(_exact_matmul(blocks, v, w_max), want)


def test_every_preset_product_takes_float32_in_at_most_two_digits():
    """Preset weights lie in [-0.5, 0.5] (|w| <= 128 raw) and inputs and
    outputs in [-1, 1] (|v| <= 256), so every weight product of every
    preset, input path and recurrent path, takes float32; full-range int16
    operands of the same widths take float64."""
    spec = replace(get_preset("im2txt").spec, timesteps=4)
    params = generate_network_params(spec, 1)
    assert max(_magnitude(w) for g in params[0].gates for w in (g.w_x, g.w_h)) == 128
    assert _magnitude(generate_inputs(spec, 2)) <= 256
    widths = {w for p in PRESETS.values() for layer in p.spec.layers
              for w in (layer.inputs, layer.neurons)}
    assert max(widths) == 2816
    for n in widths:
        for v_max in range(257):
            assert _kernel_digits(n, 128, v_max)[0] is np.float32, (n, v_max)
        assert _kernel_digits(n, 1 << 15, 1 << 15) == (np.float64, None), n
    assert _kernel_digits(512, 128, 256) == (np.float32, None)      # im2txt
    assert _kernel_digits(1024, 128, 256) == (np.float32, 7)        # seq2seq
    assert _kernel_digits(128, 128, 256) == (np.float32, None)      # desk-ref


def test_simulate_takes_float64_for_a_full_range_weight(monkeypatch):
    """One weight at -32768 in a desk-ref layer forces the float64 path,
    and the run stays bit-exact against ``cell_step``."""
    preset = get_preset("desk-ref")
    spec = replace(preset.spec, timesteps=8)
    params = generate_network_params(spec, 1)
    params[0].gates[2].w_h[5, 7] = RAW[0]
    inputs = generate_inputs(spec, 2)
    paths = []

    def spy(n, w_max, v_max):
        digits = _kernel_digits(n, w_max, v_max)
        paths.append(path_of(*digits))
        return digits

    monkeypatch.setattr(simulator, "_kernel_digits", spy)
    result = simulate(map_network(spec, preset.hardware()), params, inputs)
    # The input-path block, then one recurrent product a step; h is 0 at
    # the first step.
    assert paths == ["float64", "one digit"] + ["float64"] * (spec.timesteps - 1)
    want = replay(params, inputs, "approx")
    assert all(np.array_equal(a, b) for a, b in zip(result.outputs, want))


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
    for form in forms(blocks):
        for v in (np.full(shape, RAW[0], dtype=np.int16), np.full(shape, RAW[1], dtype=np.int16)):
            got = _exact_matmul(form, v)
            assert np.array_equal(got, reference(blocks, v))
        # (-2^15)^2 summed n times, exactly.
        assert np.all(_exact_matmul(form, np.full(shape, RAW[0], dtype=np.int16)) == n << 30)


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


def test_simulate_holds_one_float32_stack_at_a_time():
    """Each of mach-tran-512's two 512-wide layers multiplies its recurrent
    weights from one float32 stack of _STACK_BYTES.  A stack lives only
    while its layer runs, so the peak holds one stack, the kernel's buffer
    and little else."""
    preset = get_preset("mach-tran-512")
    spec = replace(preset.spec, timesteps=3)
    params = generate_network_params(spec, 1)
    inputs = generate_inputs(spec, 2)
    placement = map_network(spec, preset.hardware())
    assert [4 * sum(g.w_h.size for g in p.gates) for p in params] == [simulator._STACK_BYTES] * 2
    tracemalloc.start()
    try:
        result = simulate(placement, params, inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.outputs[1].shape == (3, 512)
    assert peak < simulator._STACK_BYTES + 2 * simulator._BLOCK_BYTES, peak


@pytest.mark.parametrize("name,stacked", [
    ("desk-ref", True),           # 256 KiB as float32
    ("im2txt", True),             # 4 MiB
    ("mach-tran-1024", False),    # 16 MiB
])
def test_only_layers_within_the_stack_limit_multiply_a_float32_stack(monkeypatch, name, stacked):
    """A layer whose recurrent weights fit _STACK_BYTES as float32
    multiplies them at every step from one stack of all its gates; a wider
    layer's int16 weights are cast a block at a time, as the input path's
    always are."""
    calls = []

    def spy(blocks, v, w_max=1 << 15):
        calls.append((v.ndim, [(b.dtype, b.shape) for b in blocks]))
        return _exact_matmul(blocks, v, w_max)

    monkeypatch.setattr(simulator, "_exact_matmul", spy)
    preset = get_preset(name)
    spec = replace(preset.spec, timesteps=2)
    simulate(map_network(spec, preset.hardware()), generate_network_params(spec, 1),
             generate_inputs(spec, 2))
    m, n = spec.layers[0].neurons, spec.layers[0].inputs
    recurrent = [blocks for ndim, blocks in calls if ndim == 1]
    assert len(recurrent) == 2 * len(spec.layers)
    want = [(np.float32, (4 * m, m))] if stacked else [(np.int16, (m, m))] * 4
    assert all(blocks == want for blocks in recurrent)
    assert all(blocks == [(np.int16, (m, n))] * 4 for ndim, blocks in calls if ndim == 2)


def test_edc_off_weight_faults_add_a_few_blocks_to_the_peak():
    """A d-speech slice at the paper's rate, weight faults only, EDC off:
    about 2,900 displaced (track, plane) pairs a step of tracks up to 1,878
    words.  Decoded a unit of _BLOCK_BYTES at a time, the run stays within
    the clean bound above plus a few _BLOCK_BYTES; the whole block's int8
    rows alone would take 11 MB."""
    preset = get_preset("d-speech")
    spec = replace(preset.spec, timesteps=2)
    params = generate_network_params(spec, 1)
    inputs = generate_inputs(spec, 2)
    placement = map_network(spec, preset.hardware())
    weight_bytes = sum(g.w_x.nbytes + g.w_h.nbytes for p in params for g in p.gates)
    cfg = ErrorConfig(p_overshift=DEFAULT_P_OVERSHIFT, sites={"weight_arrays"}, seed=0)
    tracemalloc.start()
    try:
        result = simulate(placement, params, inputs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not (cfg.edc_inputs or cfg.edc_weights)
    assert result.corrections["fault_events"] > 5_000
    assert peak < weight_bytes / 32 + 4 * simulator._BLOCK_BYTES, (peak, weight_bytes)

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
