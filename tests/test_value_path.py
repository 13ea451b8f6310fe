"""The simulator's exact product kernel and its memory bounds.

``_exact_matmul`` must equal int64 matmul bit for bit on every raw Q8.8
operand, whatever the width, the row blocking or the number of columns.
``_column_blocks`` splits the columns into blocks whose every partial sum
the float type holds: float32 blocks of 2^24 // (w_max * v_max) columns,
unless they would hold fewer than min(n, _F32_MIN_COLUMNS), and float64
blocks of 2^53 // (w_max * v_max) otherwise.  The tests draw operands at
and one past each edge of that rule: a block sum of exactly 2^24, one,
two and many blocks, the float32/float64 floor, and float64 products wide
enough to split.  Every preset product takes float32, one block up to 512
wide, and so does a float32 stack of the same weights, which BLAS
multiplies one column per call.  ``simulate`` must hold no float copy of
weights larger than _STACK_BYTES, one such stack at a time, and no
per-word table of chain groups.  The ``tracemalloc`` peaks show it, with
two bounds.  A plain run on the widest preset stays below 1/32 of its
int16 weights, and plain runs on two 512-wide or six 1024-wide layers
below one of their stacks and a few kernel buffers.  A fault sweep keeps
what its runs share within _STACK_BYTES more: on the six 1024-wide
layers, three of the six stacks, so its peak stays below the plain bound
plus _STACK_BYTES.  EDC-off chain faults on the widest preset must stay
within 32 MiB.  A ``FaultPlan`` on the widest preset must hold its events
as int32 rows, not Python tuples (a quarter of their retained size).
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_simulator import replay

from rnnfast import simulator
from rnnfast.error_model import (
    DEFAULT_P_OVERSHIFT,
    ErrorConfig,
    FaultPlan,
    run_fidelity_experiment,
)
from rnnfast.mapping import map_network
from rnnfast.presets import PRESETS, generate_inputs, generate_network_params, get_preset
from rnnfast.simulator import _column_blocks, _exact_matmul, _magnitude, simulate

RAW = (-32768, 32767)
FLOOR = simulator._F32_MIN_COLUMNS


def reference(blocks, v):
    return np.concatenate(blocks).astype(np.int64) @ np.asarray(v, dtype=np.int64)


def forms(blocks):
    """The int16 weight blocks, and the same weights as the one float32
    stack that ``_layer_values`` makes of a layer's recurrent weights."""
    return [blocks, [np.concatenate(blocks, dtype=np.float32)]]


def kernel_path(n, w_max, v_max):
    """(float type name, number of column blocks) of a product."""
    dtype, width = _column_blocks(n, w_max, v_max)
    return np.dtype(dtype).name, max(1, -(-n // width))


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
    """(blocks, v, w_max): weights within +-w_max and v of largest
    magnitude v_max, drawn so that float32 blocks hold `width` columns
    (v_max at the edge, width * w_max * v_max <= 2^24), one fewer (one
    past it), or more.  `width` is the whole product (one block), half
    of it (two), a third or less (many), or the float32/float64 floor.
    """
    n = draw(st.integers(1, 3000))
    floor = min(n, FLOOR)
    width = draw(st.one_of(
        st.sampled_from([n, -(-n // 2), floor]),
        st.integers(floor, max(floor, n // 3)),
    ))
    bits = draw(st.integers(0, 15))
    w_max = draw(st.integers(max(1, 1 << bits >> 1), 1 << bits))
    edge = (1 << 24) // (w_max * width)
    v_max = draw(st.one_of(st.sampled_from((edge, edge + 1)), st.integers(0, edge + 1)))
    v_max = min(v_max, 65535)
    rows = draw(st.lists(st.integers(0, 150), min_size=1, max_size=4))
    k = draw(st.sampled_from([None, 1, 2, 64, 67]))
    kinds = st.sampled_from(["random", "max", "extremes"])
    w_kind, v_kind = draw(kinds), draw(kinds)
    v_type = np.int16 if v_max <= RAW[1] and draw(st.booleans()) else np.int64
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [within(rng, w_kind, w_max, (r, n), np.int16) for r in rows]
    return blocks, within(rng, v_kind, v_max, (n,) if k is None else (n, k), v_type), w_max


@settings(max_examples=300, deadline=None)
@given(operands())
def test_exact_matmul_equals_int64_matmul(case):
    blocks, v, w_max = case
    n, bound = len(v), w_max * _magnitude(v)
    dtype, width = _column_blocks(n, w_max, _magnitude(v))
    # The widest exact blocks of the float type.
    top = 24 if dtype is np.float32 else 53
    assert width * bound <= 1 << top < (width + 1) * max(bound, 1)
    assert (dtype is np.float32) == ((1 << 24) // max(bound, 1) >= min(n, FLOOR))
    for form in forms(blocks):
        got = _exact_matmul(form, v, w_max)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference(blocks, v))


# (n, w_max, v_max, float type, column blocks).  A float32 block holds
# 2^24 // (w_max * v_max) columns: 512 for the first and the fourth to
# sixth.
EDGES = [
    (512, 128, 256, "float32", 1),      # a block sums to 2^24 exactly
    (512, 128, 257, "float32", 2),      # one past it: 510 columns a block
    (511, 127, 259, "float32", 2),      # 510 columns a block, odd sums
    (1024, 128, 256, "float32", 2),     # seq2seq
    (1025, 128, 256, "float32", 3),     # one column past two blocks
    (2816, 128, 256, "float32", 6),     # d-speech
    # The floor: blocks of exactly FLOOR columns, and one past it.
    (1000, 512, (1 << 24) // (512 * FLOOR), "float32", -(-1000 // FLOOR)),
    (1000, 512, (1 << 24) // (512 * FLOOR) + 1, "float64", 1),
    # Narrower than the floor: one float32 block of all 100 columns, and
    # one past it (2^24 // (4 * 41944) = 99).
    (100, 4, 41943, "float32", 1),
    (100, 4, 41944, "float64", 1),
]


@pytest.mark.parametrize("n,w_max,v_max,dtype,blocks", EDGES)
@pytest.mark.parametrize("columns", [False, True])
def test_exact_matmul_at_the_block_edges(n, w_max, v_max, dtype, blocks, columns):
    """Rows of +w_max, of -w_max and of w_max but w_max - 1 first, against
    columns of v_max, -v_max and v_max but v_max - 1 first: every product
    at the largest magnitudes, some of the sums odd and above 2^24."""
    assert kernel_path(n, w_max, v_max) == (dtype, blocks)
    w = np.full((3, n), w_max, dtype=np.int16)
    w[1], w[2, 0] = -w_max, w_max - 1
    v = np.full((n, 3), v_max, dtype=np.int64)
    v[:, 1], v[0, 2] = -v_max, v_max - 1
    v = v if columns else v[:, 0]
    want = reference([w], v)
    if columns and blocks > 1:
        assert ((want % 2 == 1) & (abs(want) > 1 << 24)).any()
    for form in ([w], [w[:1], w[1:]], [w.astype(np.float32)]):
        assert np.array_equal(_exact_matmul(form, v, w_max), want)


@pytest.mark.parametrize("rows", [(600,), (255, 1, 300)])
@pytest.mark.parametrize("columns", [None, 2])
def test_exact_matmul_casts_row_blocks_for_six_column_blocks(rows, columns):
    """d-speech's width in six float32 column blocks, the last 256 wide,
    of int16 rows cast 46 whole rows at a time, so the last row block of
    each weight block is partial."""
    n = 2816
    assert kernel_path(n, 128, 256) == ("float32", 6)
    rng = np.random.default_rng(0)
    blocks = [within(rng, "extremes", 128, (r, n), np.int16) for r in rows]
    v = within(rng, "extremes", 256, (n,) if columns is None else (n, columns), np.int16)
    for form in forms(blocks):
        assert np.array_equal(_exact_matmul(form, v, 128), reference(blocks, v))


def test_every_preset_product_takes_float32_and_the_deltas_float64():
    """Preset weights lie in [-0.5, 0.5] (|w| <= 128 raw) and inputs and
    outputs in [-1, 1] (|v| <= 256), so every weight product of every
    preset, input path and recurrent path, takes float32 blocks of 512
    columns.  A chain delivery's delta flips one plane of a word, up to
    2^15 in magnitude, so a float32 block would hold 2 to 4 columns: every
    delta product wider than that takes float64 in one block, as do
    full-range int16 operands."""
    spec = replace(get_preset("im2txt").spec, timesteps=4)
    params = generate_network_params(spec, 1)
    assert max(_magnitude(w) for g in params[0].gates for w in (g.w_x, g.w_h)) == 128
    assert _magnitude(generate_inputs(spec, 2)) <= 256
    widths = {w for p in PRESETS.values() for layer in p.spec.layers
              for w in (layer.inputs, layer.neurons)}
    assert max(widths) == 2816
    for n in widths:
        for v_max in range(257):
            assert kernel_path(n, 128, v_max)[0] == "float32", (n, v_max)
        assert kernel_path(n, 128, 256) == ("float32", -(-n // 512)), n
        assert kernel_path(n, 1 << 15, 1 << 15) == ("float64", 1), n
    assert kernel_path(512, 128, 256) == ("float32", 1)      # im2txt
    assert kernel_path(128, 128, 256) == ("float32", 1)      # desk-ref
    assert kernel_path(1024, 128, 256) == ("float32", 2)     # seq2seq
    assert kernel_path(1536, 128, 256) == ("float32", 3)     # lang-mod
    assert kernel_path(2816, 128, 256) == ("float32", 6)     # d-speech
    chunks = set()
    for p in PRESETS.values():
        for lp in map_network(p.spec, p.hardware()).layers:
            chunks |= set(np.array(lp.pe_words)[:, 1:].ravel().tolist())
    assert {512, 1024, 1878} <= chunks
    for size in chunks:
        for v_max in (1 << 15, 65535):
            want = ("float64", 1) if size > 4 else ("float32", 1)
            assert kernel_path(size, 128, v_max) == want, (size, v_max)


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
        paths.append(kernel_path(n, w_max, v_max))
        return _column_blocks(n, w_max, v_max)

    monkeypatch.setattr(simulator, "_column_blocks", spy)
    result = simulate(map_network(spec, preset.hardware()), params, inputs)
    # The input-path block, then one recurrent product a step; h is 0 at
    # the first step.
    assert paths == [("float64", 1), ("float32", 1)] + [("float64", 1)] * (spec.timesteps - 1)
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


def test_exact_matmul_is_exact_past_2_to_the_22_products():
    """2^22 + 1 products of +-32768: float64 sums of up to 2^23 of them
    stay exact, so one block, with no width limit to trip."""
    n = (1 << 22) + 1
    w = np.broadcast_to(np.int16(RAW[0]), (2, n))
    v = np.full(n, RAW[0], dtype=np.int32)
    v[1::2] = 1 << 15
    assert kernel_path(n, 1 << 15, 1 << 15) == ("float64", 1)
    # n odd: one more -32768 than +32768.
    assert _exact_matmul([w], v).tolist() == [1 << 30] * 2


def test_exact_matmul_splits_float64_past_its_exact_width():
    """Odd products of -32767 and 65535 (2^31 - 98,303 each): 2^22 + 256
    of them sum past 2^53, where float64 holds no odd integer, so one
    float64 block would round.  The kernel takes two."""
    n = (1 << 22) + 256
    w = np.broadcast_to(np.int16(-RAW[1]), (1, n))
    v = np.full(n, 65535, dtype=np.int64)
    v[0] = 65534
    want = -RAW[1] * (65535 * n - 1)
    assert abs(want) > 1 << 53 and want % 2
    assert kernel_path(n, RAW[1], 65535) == ("float64", 2)
    assert _exact_matmul([w], v, RAW[1]).tolist() == [want]


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


def stack_peak(name, steps, stack):
    """Run a `steps`-step slice of preset `name`, each of whose layers
    multiplies its recurrent weights from one float32 stack of `stack`
    bytes; returns the ``tracemalloc`` peak."""
    preset = get_preset(name)
    spec = replace(preset.spec, timesteps=steps)
    params = generate_network_params(spec, 1)
    inputs = generate_inputs(spec, 2)
    placement = map_network(spec, preset.hardware())
    assert [4 * sum(g.w_h.size for g in p.gates) for p in params] == [stack] * len(params)
    tracemalloc.start()
    try:
        result = simulate(placement, params, inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.outputs[-1].shape == (steps, spec.layers[-1].neurons)
    return peak


def test_simulate_holds_one_float32_stack_at_a_time():
    """Each of mach-tran-512's two 512-wide layers multiplies its recurrent
    weights from one 4 MiB float32 stack.  A stack lives only while its
    layer runs, so the peak holds one stack, the kernel's buffer and
    little else."""
    stack = 4 << 20
    peak = stack_peak("mach-tran-512", 3, stack)
    assert peak < stack + 2 * simulator._BLOCK_BYTES, peak


def test_simulate_holds_one_1024_wide_stack_at_a_time():
    """The same on a seq2seq slice: six 1024-wide layers, 16 MiB stacks."""
    stack = 16 << 20
    peak = stack_peak("seq2seq", 2, stack)
    assert peak < stack + 2 * simulator._BLOCK_BYTES, peak


def test_a_sweep_keeps_at_most_stack_bytes_more_than_a_plain_run():
    """A two-seed EDC-off sweep on the same seq2seq slice keeps the stacks
    its runs share while they fit _STACK_BYTES (64 MiB): three of the six
    16 MiB stacks, with the layers' biases and layer 0's input-path block.
    Each run casts the other three again, one at a time, so the sweep
    peaks below the plain run's bound plus _STACK_BYTES; keeping all six
    would take 96 MiB."""
    stack = 16 << 20
    preset = get_preset("seq2seq")
    spec = replace(preset.spec, timesteps=2)
    params = generate_network_params(spec, 1)
    inputs = generate_inputs(spec, 2)
    cfg = ErrorConfig(p_overshift=DEFAULT_P_OVERSHIFT, seed=0)
    tracemalloc.start()
    try:
        rows = run_fidelity_experiment(spec, preset.hardware(), [cfg], params, inputs, (0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 2
    assert 3 * stack < peak < stack + 2 * simulator._BLOCK_BYTES + simulator._STACK_BYTES, peak


@pytest.mark.parametrize("name,stacked", [
    ("desk-ref", True),           # 256 KiB as float32
    ("im2txt", True),             # 4 MiB
    ("mach-tran-1024", True),     # 16 MiB
    ("lang-mod", True),           # 36 MiB
    ("d-speech", False),          # 121 MiB
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


def test_stacked_recurrent_products_pass_blas_one_column_per_call(monkeypatch):
    """On a seq2seq slice, every BLAS call on a layer's recurrent stack
    multiplies a block of its columns with one column of h: a
    matrix-vector product.  Two or more columns at once make BLAS repack
    the whole stack at every step, several times slower."""
    calls = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        if a.dtype == np.float32 and a.shape[0] == 4 * 1024:
            calls.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    preset = get_preset("seq2seq")
    spec = replace(preset.spec, timesteps=2)
    placement = map_network(spec, preset.hardware())
    params = generate_network_params(spec, 1)
    inputs = generate_inputs(spec, 2)
    monkeypatch.setattr(np, "matmul", spy)
    result = simulate(placement, params, inputs)
    monkeypatch.undo()
    assert all(b == (a[1],) for a, b in calls), calls
    # One product a step and layer, in column blocks that add up to the
    # stack's 1024 columns: one block at the first step, where h is 0, and
    # more at the second.
    widths = [a[1] for a, b in calls]
    products = np.split(widths, np.flatnonzero(np.cumsum(widths) % 1024 == 0)[:-1] + 1)
    assert [sum(p) for p in products] == [1024] * 2 * len(spec.layers)
    assert [len(p) > 1 for p in products] == [False, True] * len(spec.layers)
    want = replay(params, inputs, "approx")
    assert all(np.array_equal(a, b) for a, b in zip(result.outputs, want))


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


def test_edc_off_chain_faults_stay_within_32_mib():
    """A d-speech slice with faults on the input chains only, EDC off: at
    the paper's rate each of its four passes of a 132-group, 2,816-word
    chain holds 12-22 faults on 10-13 of the 16 planes.  Each faulted
    plane is followed back over int32 indices of only the deliveries it
    can reach, one plane at a time, so the run peaks far below the 300 MB
    that dense (planes x groups x words) int64 arrays took."""
    preset = get_preset("d-speech")
    spec = replace(preset.spec, timesteps=2)
    params = generate_network_params(spec, 1)
    inputs = generate_inputs(spec, 2)
    placement = map_network(spec, preset.hardware())
    cfg = ErrorConfig(p_overshift=DEFAULT_P_OVERSHIFT, sites={"input_chains"}, seed=0)
    tracemalloc.start()
    try:
        result = simulate(placement, params, inputs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not (cfg.edc_inputs or cfg.edc_weights)
    assert result.corrections["fault_events"] > 0
    assert peak <= 32 << 20, peak


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
