"""Simulator invariants on tiny LSTM, GRU and Vanilla nets.

Fault-free runs must be bit-exact against a ``lstm_core.cell_step`` replay
(also across the simulator's blocks of input-path timesteps).  The
engine's closed-form timing must equal ``replay_timing``, a word-by-word
replay through two ``MacPipeline``s per layer: the cycle count, every
layer's stall and the whole ``mac_sample``, also where the sample spans
several timesteps or a stalled cross-group chain stretches the issue
period; and ``simulate`` may issue no more MACs than the sample holds.
Every cell type's weight paths are cut into the chunks of the mapper's
per-PE table, one per PE of a gate, and no PE holds more words than it has
room for.  EDC-on input-chain faults must leave the outputs untouched and
stay out of the value path, each faulted pass replayed once for its
counts; the reported fault count must be the plan's; the ledger's
closed-form chain passes, less the shifts EDC corrections held, must equal
what the track model counts itself; an EDC-off faulted pass in closed form
must deliver what a full track-model pass from step 0 delivers, and with
EDC on that pass must deliver the fault-free words.  Faulty runs must not
depend on how many steps a time block holds, and an EDC-on run must call
``weight_zeros`` once per (layer, time block) with weight faults.  Faulty
runs with every site active are pinned in ``simulator_golden.json``
(output SHA-256, cycles, ledger counters, per-layer counts, corrections),
so any change to the fault path shows up.  So are the to_json() SHA-256 of
34 preset runs (``PRESET_RUNS``), and the rows and run digests of two
im2txt fault sweeps, one per EDC setting.  After a deliberate change of
fault semantics, rewrite the pins with ``PYTHONPATH=src python
tests/test_simulator.py``, which prints the keys whose pins changed.
Every run of a sweep, which shares one ``_Shared`` with the others, must
give the to_json() of the same call without it, where the sweep keeps
some of its arrays and makes others again; the shared arrays are
read-only, the result of no run refers to them, and a ``_Shared`` made
for other objects is rejected.
"""

import contextlib
import dataclasses
import gc
import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnnfast import lstm_core, simulator
from rnnfast.error_model import (
    DEFAULT_P_OVERSHIFT,
    PATHS,
    ErrorConfig,
    FaultPlan,
    fidelity_metrics,
    run_fidelity_experiment,
    stream_rows,
)
from rnnfast.mapping import (
    CapacityExceeded,
    ChainLayout,
    HardwareConfig,
    LayerSpec,
    NetworkSpec,
    map_network,
)
from rnnfast.presets import PRESETS, generate_inputs, generate_network_params, get_preset
from rnnfast.racetrack import WORD_PLANES, InputTrackChain, weight_zeros
from rnnfast.simulator import (
    TIME_BLOCK,
    _Shared,
    _edc_chain_holds,
    _LayerGeometry,
    _layer_timing,
    _mac_sample,
    _run_faulted_chain,
    _slot_lookup,
    analytic_cycles,
    simulate,
)

GOLDEN = Path(__file__).with_name("simulator_golden.json")

# name -> (hardware, layer widths from the input onward, timesteps)
LAYOUTS = {
    # Every neuron fits one PE; one tile, one chain group.
    "one-pe": (HardwareConfig(), (6, 8, 5), 4),
    # Layer 0 needs 5 units per LSTM/GRU neuron (2 per Vanilla neuron) on 4
    # tiles in 2 tile groups: split neurons read cross-group chains.
    "split": (HardwareConfig(weights_per_pe=16, tiles_per_group=2), (24, 40, 16), 3),
    # Two PEs per Vanilla neuron, two neurons per unit; rewinds are free.
    "packed": (HardwareConfig(weights_per_pe=16, rewind_cost="free"), (8, 12), 8),
    # Two layers over 67 steps, which crosses the simulator's 64-step block
    # of input-path timesteps.  Split LSTM/GRU neurons on 4-unit tiles read
    # cross-group chains; Vanilla packs two neurons per unit.
    "long": (
        HardwareConfig(lstm_units_per_tile=4, weights_per_pe=8, tiles_per_group=2), (6, 8, 5), 67,
    ),
}
CELLS = ("LSTM", "GRU", "Vanilla")
IMPLS = ("approx", "lut")
CASES = [(cell, impl, layout) for layout in LAYOUTS for cell in CELLS for impl in IMPLS]
FAULT_P = 3e-2
FAULT_SEED = 5


def case_id(cell, impl, layout):
    return f"{cell}-{impl}-{layout}"


def net(cell, impl, layout):
    hw, widths, steps = LAYOUTS[layout]
    layers = tuple(LayerSpec(cell, m, n) for n, m in zip(widths, widths[1:]))
    spec = NetworkSpec(layers, steps, impl)
    return map_network(spec, hw), generate_network_params(spec, 11), generate_inputs(spec, 12)


def faulty_config(edc):
    return ErrorConfig(p_overshift=FAULT_P, edc_inputs=edc, edc_weights=edc, seed=FAULT_SEED)


def by_step(stream, T):
    """{t: rows} of a ``FaultPlan`` stream's faulted timesteps."""
    ptr, rows = stream_rows(stream, 0, T)
    return {int(t): rows[ptr[t]:ptr[t + 1]] for t in np.flatnonzero(np.diff(ptr))}


def replay(params, inputs, impl):
    """Per-layer outputs of the fault-free network from ``cell_step`` alone."""
    x_seq = np.asarray(inputs, dtype=np.int64)
    outputs = []
    for p in params:
        h = np.zeros(p.neurons, dtype=np.int64)
        c = np.zeros(p.neurons, dtype=np.int64)
        out = np.zeros((len(x_seq), p.neurons), dtype=np.int16)
        for t, x in enumerate(x_seq):
            h, c_t = lstm_core.cell_step(x, h, c, p, impl)
            c = c if c_t is None else c_t
            out[t] = h
        outputs.append(out)
        x_seq = out.astype(np.int64)
    return outputs


def replay_timing(placement):
    """The run's timing word by word: the oracle of the engine's closed form.

    Each layer streams a timestep's words through two ``MacPipeline``s, one
    per weight path.  Word s of max(inputs, neurons) is delivered at
    start + (s + 1) * (issue interval + stall); the x pipe takes it while
    s < inputs, the h pipe while s < neurons.  The timestep ends when its
    last MAC completes, plus the aggregation hops and the activation
    stages, and (l, t) starts at max(finish(l-1, t), finish(l, t-1)).
    Returns (finish[t][l], each layer's stall, layer 0's x-pipe log).
    """
    hw = placement.hw
    act = hw.act_latency(placement.spec.activation_impl)
    pipes = [
        [lstm_core.MacPipeline(hw.mac_stages, hw.mac_cycles_per_stage, hw.mac_issue_interval)
         for _path in "xh"]
        for _lp in placement.layers
    ]
    stalls = [
        max(chain.stall_per_step(hw.interconnect_latency_cycles)
            for chain in (lp.chain, lp.recurrent_chain))
        for lp in placement.layers
    ]
    finish, prev = [], [0] * len(placement.layers)
    for _t in range(placement.spec.timesteps):
        row = []
        for l, lp in enumerate(placement.layers):
            start = max(row[l - 1] if l else 0, prev[l])
            period = hw.mac_issue_interval + stalls[l]
            x_pipe, h_pipe = pipes[l]
            last = start
            for s in range(max(lp.inputs, lp.neurons)):
                deliver = start + (s + 1) * period
                if s < lp.inputs:
                    last = max(last, x_pipe.issue(deliver))
                if s < lp.neurons:
                    last = max(last, h_pipe.issue(deliver))
            row.append(last + lp.agg_hops * hw.hop_latency_cycles
                       + lstm_core.ACT_STAGES[lp.cell_type] * act)
        finish.append(row)
        prev = row
    return finish, stalls, [list(entry) for entry in pipes[0][0].log]


def assert_replayed_timing(placement, result):
    """`result`'s cycles, stalls and MAC sample are ``replay_timing``'s."""
    finish, stalls, log = replay_timing(placement)
    assert result.total_cycles == (finish[-1][-1] if finish else 0)
    assert [layer["stall_per_step"] for layer in result.per_layer] == stalls
    assert result.mac_sample == log
    return finish


def same_outputs(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def fingerprint(result):
    digest = hashlib.sha256()
    for layer in result.outputs:
        digest.update(np.ascontiguousarray(layer, dtype="<i2").tobytes())
    return {
        "outputs_sha256": digest.hexdigest(),
        "total_cycles": result.total_cycles,
        "counters": dict(sorted(result.counters.items())),
        "per_layer": result.per_layer,
        "corrections": dict(sorted(result.corrections.items())),
    }


def golden_key(cell, impl, layout, edc):
    return f"{case_id(cell, impl, layout)}-edc-{'on' if edc else 'off'}"


@pytest.mark.parametrize("cell,impl,layout", CASES, ids=[case_id(*c) for c in CASES])
def test_fault_free_run_matches_cell_replay_and_closed_form(cell, impl, layout):
    placement, params, inputs = net(cell, impl, layout)
    result = simulate(placement, params, inputs)
    assert same_outputs(result.outputs, replay(params, inputs, impl))
    assert_replayed_timing(placement, result)
    assert set(result.corrections.values()) == {0}
    # EDC pattern upkeep adds only edc_* events when nothing goes wrong.
    edc = simulate(placement, params, inputs, error_cfg=ErrorConfig(
        p_overshift=0.0, edc_inputs=True, edc_weights=True))
    assert same_outputs(edc.outputs, result.outputs)
    assert edc.total_cycles == result.total_cycles
    changed = {k for k in edc.counters if edc.counters[k] != result.counters[k]}
    assert changed == {"edc_read", "edc_write"}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("cell", CELLS)
def test_locate_gives_each_chunk_in_its_groups_arrival_order(cell, layout):
    """``_slot_lookup`` at every slot of every PE track, on weights that
    encode (gate, neuron, word): each track reads its own weights of its
    chunk's words, and its group's deliveries of them, in the order that
    group receives them."""
    placement, params, _inputs = net(cell, "approx", layout)
    for lp, p in zip(placement.layers, params):
        geo = _LayerGeometry(lp, placement.hw, None)
        chains = (lp.chain, lp.recurrent_chain)
        sizes = [chain.word_capacity for chain in chains]

        def code(gate, n):
            return (gate * lp.neurons + np.arange(lp.neurons))[:, None] * n + np.arange(n)

        coded = dataclasses.replace(p, gates=tuple(
            dataclasses.replace(gw, w_x=code(k, sizes[0]), w_h=code(k, sizes[1]))
            for k, gw in enumerate(p.gates)
        ))
        for path, (chain, n) in enumerate(zip(chains, sizes)):
            chunks = list(zip(geo.lo[path], geo.lo[path] + geo.size[path]))
            assert [w for lo, hi in chunks for w in range(lo, hi)] == list(range(n))
            assert geo.chunk_of[path, :n].tolist() == [
                c for c, (lo, hi) in enumerate(chunks) for _w in range(lo, hi)
            ]
            bases = np.cumsum((0,) + chain.group_capacities[:-1])
            for chunk, (lo, hi) in enumerate(chunks):
                if hi == lo:
                    continue
                shape = (len(p.gates), lp.neurons, hi - lo)
                gate, neuron, position = (a.ravel() for a in np.indices(shape))
                group, word, stored = _slot_lookup(
                    geo, coded, np.full_like(gate, path), gate,
                    np.full_like(gate, chunk), neuron, position,
                )
                track, stored_word = np.divmod(stored.reshape(shape), n)
                group, word = group.reshape(shape), word.reshape(shape)
                assert (track == (gate * lp.neurons + neuron).reshape(shape)).all()
                assert (stored_word == word).all()
                rows = zip(neuron[::hi - lo], group.reshape(-1, hi - lo), word.reshape(-1, hi - lo))
                for nn, g_row, w_row in rows:
                    assert set(g_row.tolist()) == {geo.group_of[path, chunk, nn]}
                    assert 0 <= g_row[0] < len(bases)
                    # Group g receives word (base_g + s) mod n at step s.
                    arrival = [(bases[g_row[0]] + s) % n for s in range(n)]
                    assert w_row.tolist() == [w for w in arrival if lo <= w < hi]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("cell", CELLS)
def test_engine_cuts_each_path_into_one_chunk_per_pe(cell, layout):
    """Every cell type's weight paths take one chunk per PE of a gate, and
    each neuron's chunks sit on its own units: a Vanilla neuron's PEs fill a
    unit (shared by neurons_per_unit neurons) before the next, an LSTM or
    GRU neuron's take one unit each."""
    placement, _params, _inputs = net(cell, "approx", layout)
    hw = placement.hw
    for lp in placement.layers:
        geo = _LayerGeometry(lp, hw, None)
        pes = len(lp.pe_words)
        assert geo.size.shape == (2, pes)
        per_unit = hw.pes_per_unit if cell == "Vanilla" else 1
        for neuron in range(lp.neurons):
            units = [(neuron // lp.neurons_per_unit) * lp.units_per_neuron + c // per_unit
                     for c in range(pes)]
            assert units[-1] < lp.n_units
            tiles = [u // hw.lstm_units_per_tile for u in units]
            for path, chain in enumerate((lp.chain, lp.recurrent_chain)):
                groups = len(chain.group_capacities)
                assert geo.group_of[path, :, neuron].tolist() == [min(t, groups - 1) for t in tiles]


def test_no_engine_pe_holds_more_than_weights_per_pe_words():
    """A 1-input, 46-neuron layer at weights_per_pe=16 takes 3 PEs per gate
    (48 words for 1 + 46 + 1); the engine's chunks and the bias must fit
    them."""
    hw = HardwareConfig(weights_per_pe=16)
    for cell in CELLS:
        lp = map_network(NetworkSpec((LayerSpec(cell, 46, 1),), 1), hw).layers[0]
        assert len(lp.pe_words) == 3
        geo = _LayerGeometry(lp, hw, None)
        words = geo.size.sum(axis=0) + [0, 0, 1]
        assert words.max() <= hw.weights_per_pe, (cell, geo.size.tolist())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CELLS), st.integers(1, 60), st.integers(1, 60), st.integers(4, 64))
def test_engine_chunks_are_the_mappers_pe_table(cell, inputs, neurons, weights_per_pe):
    """The mapper's per-PE table holds each gate's words [w_x | w_h | b] in
    order, the bias as the last PE's last word, at most weights_per_pe words
    a PE; the engine's chunks are that table and tile each path in order."""
    hw = HardwareConfig(weights_per_pe=weights_per_pe)
    lp = map_network(NetworkSpec((LayerSpec(cell, neurons, inputs),), 1), hw).layers[0]
    units, x_words, h_words = map(list, zip(*lp.pe_words))
    pe_text = ["x" * x + "h" * h for x, h in zip(x_words, h_words)]
    pe_text[-1] += "b"
    assert "".join(pe_text) == "x" * inputs + "h" * neurons + "b"
    # An even split: ceil(words / weights_per_pe) PEs, the first ones taking
    # one word more.
    totals = [len(text) for text in pe_text]
    assert len(totals) == -(-(inputs + neurons + 1) // weights_per_pe)
    assert max(totals) <= weights_per_pe
    assert totals == sorted(totals, reverse=True) and totals[0] - totals[-1] <= 1
    assert units == sorted(units) and units[-1] == lp.units_per_neuron - 1
    geo = _LayerGeometry(lp, hw, None)
    assert geo.size.tolist() == [x_words, h_words]
    bias = np.arange(len(totals)) == len(totals) - 1
    assert (geo.size.sum(axis=0) + bias).max() <= weights_per_pe
    for path, n in enumerate((inputs, neurons)):
        assert geo.lo[path].tolist() == np.cumsum([0] + geo.size[path, :-1].tolist()).tolist()
        assert geo.chunk_of[path, :n].tolist() == [
            c for c, size in enumerate(geo.size[path]) for _w in range(size)
        ]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CELLS),
    st.integers(1, 80),
    st.integers(1, 80),
    st.integers(4, 64),
    st.integers(1, 64),
    st.integers(1, 16),
)
def test_each_chunks_groups_never_fall_as_the_neuron_grows(
    cell, inputs, neurons, weights_per_pe, units_per_tile, tiles_per_group,
):
    """``_correct_deliveries`` takes the neurons that group g feeds through
    chunk c as one run n0:n1, by a ``searchsorted`` of the chunk's
    group_of.  That holds because every chunk's group_of is non-decreasing
    in neuron and below the group count, so the keys chunk * G + group are
    also sorted in (chunk, neuron) order."""
    # Enough groups for the widest layer: 80 neurons of up to 41 units each.
    hw = HardwareConfig(weights_per_pe=weights_per_pe, lstm_units_per_tile=units_per_tile,
                        tiles_per_group=tiles_per_group, groups=-(-80 * 41 // tiles_per_group))
    lp = map_network(NetworkSpec((LayerSpec(cell, neurons, inputs),), 1), hw).layers[0]
    geo = _LayerGeometry(lp, hw, None)
    assert (np.diff(geo.group_of, axis=2) >= 0).all()
    assert (geo.group_of < geo.turn.shape[1]).all()
    keys = np.arange(geo.group_of.shape[1])[:, None] * geo.turn.shape[1] + geo.group_of
    assert (np.diff(keys.reshape(2, -1), axis=1) >= 0).all()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(CELLS),
    st.lists(st.integers(1, 40), min_size=2, max_size=4),
    st.integers(0, 5),
    st.integers(16, 64),
    st.integers(1, 8),
    st.sampled_from((4, 16, 64)),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from(IMPLS),
)
def test_closed_form_timing_is_the_per_word_mac_replay(
    cell, widths, steps, weights_per_pe, tiles_per_group, units_per_tile, latency, lookahead,
    impl,
):
    """The timing helpers that ``simulate`` reports from give the replay's
    cycles, stalls and MAC sample, and every (layer, timestep) of the replay
    takes its layer's closed-form body.  Chains keep the mapper's look-ahead
    or get a shorter one, so cross-group layers stall."""
    hw = HardwareConfig(weights_per_pe=weights_per_pe, tiles_per_group=tiles_per_group,
                        lstm_units_per_tile=units_per_tile, interconnect_latency_cycles=latency)
    layers = tuple(LayerSpec(cell, m, n) for n, m in zip(widths, widths[1:]))
    try:
        placement = map_network(NetworkSpec(layers, steps, impl), hw)
    except CapacityExceeded:
        return
    short = {"lookahead_offset_cycles": min(lookahead, latency)}
    placement = dataclasses.replace(placement, layers=tuple(
        dataclasses.replace(lp, chain=dataclasses.replace(lp.chain, **short),
                            recurrent_chain=dataclasses.replace(lp.recurrent_chain, **short))
        for lp in placement.layers
    ))
    timing = [_layer_timing(lp, hw, impl) for lp in placement.layers]
    finish, stalls, log = replay_timing(placement)
    assert analytic_cycles(placement) == (finish[-1][-1] if finish else 0)
    assert [stall for stall, _period, _body in timing] == stalls
    assert _mac_sample(placement.layers[0], hw, *timing[0][1:], steps) == log
    prev = [0] * len(timing)
    for row in finish:
        starts = [max(left, up) for left, up in zip([0] + row[:-1], prev)]
        assert [end - start for start, end in zip(starts, row)] == [b for *_, b in timing]
        prev = row



def wavefront_loop(placement):
    """The T x L wavefront loop that ``analytic_cycles`` replaced with its
    closed form: (l, t) starts at max(finish(l-1, t), finish(l, t-1))."""
    impl = placement.spec.activation_impl
    bodies = [_layer_timing(lp, placement.hw, impl)[2] for lp in placement.layers]
    finish = [0] * len(bodies)
    for _t in range(placement.spec.timesteps):
        for l, body in enumerate(bodies):
            finish[l] = max(finish[l - 1] if l else 0, finish[l]) + body
    return finish[-1]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_closed_form_cycles_equal_the_wavefront_loop_on_every_preset(name):
    preset = get_preset(name)
    for steps in (0, 1, preset.spec.timesteps):
        placement = map_network(dataclasses.replace(preset.spec, timesteps=steps),
                                preset.hardware())
        assert analytic_cycles(placement) == wavefront_loop(placement), steps

def small_net(widths, steps):
    layers = tuple(LayerSpec("LSTM", m, n) for n, m in zip(widths, widths[1:]))
    spec = NetworkSpec(layers, steps)
    placement = map_network(spec, HardwareConfig())
    return placement, generate_network_params(spec, 11), generate_inputs(spec, 12)


def test_mac_sample_spans_timesteps_when_layer_0_has_few_inputs():
    """Three inputs a step: the sample takes 3, 3 and 2 words of steps 0-2,
    and each step starts where layer 0's previous one finished."""
    placement, params, inputs = small_net((3, 5, 4), 4)
    result = simulate(placement, params, inputs)
    finish = assert_replayed_timing(placement, result)
    period = placement.hw.mac_issue_interval
    issues = [issue for issue, _done in result.mac_sample]
    assert len(issues) == lstm_core.MAC_LOG_LIMIT
    starts = [0, finish[0][0], finish[1][0]]
    assert issues == [start + s * period for start in starts for s in (1, 2, 3)][:8]


def test_mac_sample_of_a_stalled_cross_group_chain():
    """A look-ahead one cycle short of the interconnect latency stalls every
    delivery of the cross-group layer: the sample's issues are
    interval + stall apart, and the run takes longer."""
    placement, params, inputs = net("LSTM", "approx", "split")
    hw, lp = placement.hw, placement.layers[0]
    assert lp.chain.cross_group and lp.inputs >= lstm_core.MAC_LOG_LIMIT
    short = dataclasses.replace(lp.chain,
                                lookahead_offset_cycles=hw.interconnect_latency_cycles - 1)
    stalled = dataclasses.replace(
        placement, layers=(dataclasses.replace(lp, chain=short),) + placement.layers[1:]
    )
    result = simulate(stalled, params, inputs)
    assert_replayed_timing(stalled, result)
    assert result.per_layer[0]["stall_per_step"] == 1
    issues = [issue for issue, _done in result.mac_sample]
    assert np.diff(issues).tolist() == [hw.mac_issue_interval + 1] * (len(issues) - 1)
    assert result.total_cycles > simulate(placement, params, inputs).total_cycles


@pytest.mark.parametrize("steps,sampled", [(1, 5), (0, 0)])
def test_mac_sample_of_short_runs(steps, sampled):
    """One step of a 5-input layer samples its 5 issues; no step samples
    none and takes no cycles."""
    placement, params, inputs = small_net((5, 6, 3), steps)
    result = simulate(placement, params, inputs)
    assert_replayed_timing(placement, result)
    assert len(result.mac_sample) == sampled
    assert (result.total_cycles == 0) == (steps == 0)


def test_simulate_issues_no_more_macs_than_it_samples(monkeypatch):
    """The timing is closed-form: a 3-layer, 15-step run drives a
    ``MacPipeline`` only for its MAC sample."""
    issue = lstm_core.MacPipeline.issue
    calls = []

    def counted(self, cycle):
        calls.append(cycle)
        return issue(self, cycle)

    monkeypatch.setattr(lstm_core.MacPipeline, "issue", counted)
    placement, params, inputs = small_net((6, 8, 8, 5), 15)
    result = simulate(placement, params, inputs)
    assert 0 < len(calls) <= lstm_core.MAC_LOG_LIMIT
    assert len(result.mac_sample) == len(calls)


def test_long_layout_ends_three_steps_into_a_second_time_block():
    assert LAYOUTS["long"][2] == TIME_BLOCK + 3


@pytest.mark.parametrize("edc", [False, True], ids=["edc-off", "edc-on"])
@pytest.mark.parametrize("cell", CELLS)
def test_faulty_runs_do_not_depend_on_the_time_block(cell, edc, monkeypatch):
    """Weight and logic faults are decoded once per block of TIME_BLOCK
    steps, and input paths multiplied once per block: blocks of 1, 2 and 5
    steps over the long layout's 67 give the default block's run, byte for
    byte."""
    placement, params, inputs = net(cell, "approx", "long")
    want = simulate(placement, params, inputs, error_cfg=faulty_config(edc)).to_json()
    for block in (1, 2, 5):
        monkeypatch.setattr(simulator, "TIME_BLOCK", block)
        got = simulate(placement, params, inputs, error_cfg=faulty_config(edc)).to_json()
        assert got == want, block


def test_edc_on_runs_call_weight_zeros_once_per_faulted_time_block(monkeypatch):
    """With EDC on, one ``weight_zeros`` call takes every faulted weight
    track of a (layer, time block), not one call per step: the long
    layout's two layers of 67 steps make four blocks."""
    calls = []

    def counted(lengths, faults):
        calls.append(len(faults))
        return weight_zeros(lengths, faults)

    monkeypatch.setattr(simulator, "weight_zeros", counted)
    placement, params, inputs = net("LSTM", "approx", "long")
    cfg = ErrorConfig(p_overshift=FAULT_P, sites={"weight_arrays"}, edc_weights=True,
                      seed=FAULT_SEED)
    result = simulate(placement, params, inputs, error_cfg=cfg)
    plan = FaultPlan(cfg, placement)
    T = placement.spec.timesteps
    steps = [(l, t) for l, stream in enumerate(plan.weight_faults) for t in by_step(stream, T)]
    blocks = {(l, t // TIME_BLOCK) for l, t in steps}
    assert len(calls) == len(blocks) == 2 * len(placement.layers)
    assert len(steps) > len(blocks)
    assert sum(calls) == sum(map(len, plan.weight_faults))
    assert result.corrections["weight_zeroed"] > 0


@pytest.mark.parametrize("cell", CELLS)
def test_edc_on_input_chain_faults_reproduce_the_fault_free_run(cell):
    placement, params, inputs = net(cell, "approx", "split")
    clean = simulate(placement, params, inputs)
    corrected = 0
    for seed in range(4):
        cfg = ErrorConfig(p_overshift=FAULT_P, sites={"input_chains"}, edc_inputs=True, seed=seed)
        result = simulate(placement, params, inputs, error_cfg=cfg)
        assert same_outputs(result.outputs, clean.outputs), seed
        assert result.total_cycles == clean.total_cycles
        corrected += result.corrections["input_corrected"]
    assert corrected > 0


def test_edc_on_chain_faults_stay_out_of_the_value_path(monkeypatch):
    """With input EDC on, ``simulate`` computes no faulted deliveries and
    corrects no accumulator for them.  It replays each faulted pass through
    the track model once, on one chain: each maximal run of faulted steps,
    with exactly that run's faults, then the fault-free step after it, if
    the pass has one.  The steps in between are skipped."""
    def forbidden(*_args):
        raise AssertionError("an EDC-on chain fault reached the value path")

    replays = []

    class Recorded(InputTrackChain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = []
            replays.append(self)

        def rotate_step(self, fault_planes=None, ledger=None):
            self.calls.append(tuple(sorted((g, k) for g, ks in (fault_planes or {}).items()
                                           for k in ks)))
            return super().rotate_step(fault_planes, ledger)

    monkeypatch.setattr(simulator, "_run_faulted_chain", forbidden)
    monkeypatch.setattr(simulator, "_correct_deliveries", forbidden)
    monkeypatch.setattr(simulator, "InputTrackChain", Recorded)
    placement, params, inputs = net("LSTM", "approx", "split")
    cfg = ErrorConfig(p_overshift=FAULT_P, sites={"input_chains"}, edc_inputs=True,
                      seed=FAULT_SEED)
    result = simulate(placement, params, inputs, error_cfg=cfg)
    words = {(lp.index, name): layout.word_capacity for lp in placement.layers
             for name, layout in zip(PATHS, (lp.chain, lp.recurrent_chain))}
    want, skipped = [], 0
    for key, stream in FaultPlan(cfg, placement).input_faults.items():
        for rows in by_step(stream, placement.spec.timesteps).values():
            steps = sorted({t for s in rows[:, 0].tolist() for t in (s, s + 1)} - {words[key]})
            want.append([tuple(sorted((g, k) for s, g, k in rows.tolist() if s == t))
                         for t in steps])
            skipped += steps[-1] - steps[0] + 1 - len(steps)
    got = [chain.calls for chain in replays]
    assert len(want) > 1 and skipped > 0
    assert sorted(got) == sorted(want)
    assert result.corrections["input_corrected"] > 0


class Counter(dict):
    def add(self, op, n=1):
        self[op] = self.get(op, 0) + n


@st.composite
def faulted_passes(draw):
    """A chain pass with faults, as ``FaultPlan`` rows (step, group, plane).

    Chains have 1-8 groups of 1-12 words each, unequal in general.  An
    optional early fault on the last group displaces a plane that then
    travels through several upstream groups and wraps around the ring
    before the pass ends.  Besides random events there are optional faults
    at step 0 and at the last step, so the EDC-on replay starts and ends at
    the edges of the pass, and up to three runs of
    faults on one (group, plane) in consecutive steps, so several planes
    are displaced in one pass and a run can displace its plane to the end
    of its group's queue (cap - 1) and beyond.  Two cases the EDC-on replay
    of faulted runs turns on are drawn explicitly: a run of faults that
    ends on the pass's last step, and two runs with exactly one fault-free
    step between them."""
    caps = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=8)))
    n_words = sum(caps)
    layout = ChainLayout(n_words, caps, 1, 0, 0)
    groups = st.integers(0, len(caps) - 1)
    planes = st.integers(0, WORD_PLANES - 1)
    events = draw(st.lists(st.tuples(st.integers(0, n_words - 1), groups, planes), max_size=12))
    if draw(st.booleans()):
        step = draw(st.integers(0, min(caps[-1], n_words - 1)))
        events.append((step, len(caps) - 1, draw(planes)))
    for step in (0, n_words - 1):
        if draw(st.booleans()):
            events.append((step, draw(groups), draw(planes)))
    for _ in range(draw(st.integers(0, 3))):
        group, plane = draw(groups), draw(planes)
        # Often long enough to reach cap - 1 on its group.
        length = draw(st.integers(1, n_words) | st.just(min(caps[group] + 1, n_words)))
        start = draw(st.integers(0, n_words - length))
        events += [(step, group, plane) for step in range(start, start + length)]
    if draw(st.booleans()):
        length = draw(st.integers(1, n_words))
        events += [(step, draw(groups), draw(planes)) for step in range(n_words - length, n_words)]
    if n_words >= 3 and draw(st.booleans()):
        gap = draw(st.integers(1, n_words - 2))
        events = [e for e in events if e[0] != gap]
        events += [(gap - 1, draw(groups), draw(planes)), (gap + 1, draw(groups), draw(planes))]
    if not events:
        events.append((draw(st.integers(0, n_words - 1)), draw(groups), draw(planes)))
    faults = np.array(draw(st.permutations(events)), dtype=np.int32)
    words = draw(st.lists(st.integers(-32768, 32767), min_size=n_words, max_size=n_words))
    return layout, words, faults, draw(st.booleans())


# A fault on group 1 at step 12 displaces plane 0 into group 0 from step
# 19 and, around the ring, into group 4 from step 22 and group 3 from step
# 26, before their own first faults: L_g takes both sweeps of the ring.
# Consecutive words differ in plane 0, so each displaced word shows.
@settings(max_examples=300, deadline=None)
@given(faulted_passes())
@example((ChainLayout(29, (7, 9, 6, 4, 3), 1, 0, 0), list(range(29)),
          np.array([[23, 4, 0], [28, 3, 0], [12, 1, 0], [22, 0, 0]], dtype=np.int32), False))
def test_track_model_ledger_is_the_closed_form_pass_less_held_shifts(case):
    """A full device pass from step 0 gives what the simulator takes for a
    faulted pass: with EDC off, the deliveries of ``_run_faulted_chain`` and
    no correction; with EDC on, the fault-free deliveries and the
    corrections and held shifts of ``_edc_chain_holds``.  The device's own
    ledger is the closed-form pass less those held shifts."""
    layout, words, faults, edc = case
    n_words = layout.word_capacity
    if edc:
        corrected, held = _edc_chain_holds(layout, faults)
        seen = np.tile(words, (len(layout.group_capacities), 1))
    else:
        seen, corrected, held = _run_faulted_chain(layout, np.asarray(words), faults), 0, 0
    by_step = {}
    for step, group, plane in faults.tolist():
        by_step.setdefault(step, {}).setdefault(group, []).append(plane)
    chain = InputTrackChain(list(layout.group_capacities), edc_enabled=edc)
    chain.stage(words)
    ledger = Counter()
    bases = np.cumsum((0,) + layout.group_capacities[:-1])
    device_seen = np.empty((len(bases), n_words), dtype=np.int64)
    device_corrected = 0
    for step in range(n_words):
        delivered, fixed = chain.rotate_step(by_step.get(step), ledger)
        device_seen[np.arange(len(bases)), (bases + step) % n_words] = delivered
        device_corrected += sum(map(len, fixed))
    plane_steps = WORD_PLANES * len(layout.group_capacities) * n_words
    closed_form = {
        "track_read": plane_steps,
        "track_write": plane_steps,
        "track_shift": plane_steps - held,
        "edc_read": plane_steps if edc else 0,
        "edc_write": 3 * plane_steps if edc else 0,
    }
    assert ledger == {op: n for op, n in closed_form.items() if n}
    assert seen.tolist() == np.where(device_seen >= 1 << 15, device_seen - (1 << 16),
                                     device_seen).tolist()
    assert corrected == device_corrected
    assert 0 <= held <= corrected
    # Before step L_g every group delivers the fault-free words, L_g the
    # least over the planes of min(F_g, L_{g+1} + cap_g), taken twice
    # around the ring, F_g the step of the first fault on (g, plane) of a
    # group of two words or more.  ``_run_faulted_chain`` follows only the
    # deliveries from L_g on.
    caps = layout.group_capacities
    L = [n_words] * len(caps)
    for plane in set(faults[:, 2].tolist()):
        first = [2 * n_words] * len(caps)
        for s, g, k in faults.tolist():
            if k == plane and caps[g] > 1:
                first[g] = min(first[g], s)
        for g in [*reversed(range(len(caps)))] * 2:
            first[g] = min(first[g], first[(g + 1) % len(caps)] + caps[g])
        L = [min(x, f) for x, f in zip(L, first)]
    early = (np.arange(n_words) - bases[:, None]) % n_words < np.array(L)[:, None]
    assert (seen == np.asarray(words))[early].all()


@pytest.mark.parametrize("site", ["input_chains", "weight_arrays"])
@pytest.mark.parametrize("cell", CELLS)
def test_edc_on_faults_cost_exactly_the_held_shifts(cell, site):
    placement, params, inputs = net(cell, "approx", "split")
    clean = simulate(placement, params, inputs, error_cfg=ErrorConfig(
        p_overshift=0.0, edc_inputs=True, edc_weights=True))
    cfg = ErrorConfig(p_overshift=FAULT_P, sites={site}, edc_inputs=True, edc_weights=True,
                      seed=FAULT_SEED)
    result = simulate(placement, params, inputs, error_cfg=cfg)
    if site == "weight_arrays":
        held = result.corrections["suppressed_shifts"]
    else:
        chains = {(lp.index, "x"): lp.chain for lp in placement.layers}
        chains.update({(lp.index, "h"): lp.recurrent_chain for lp in placement.layers})
        held = 0
        for key, stream in FaultPlan(cfg, placement).input_faults.items():
            for faults in by_step(stream, placement.spec.timesteps).values():
                held += _edc_chain_holds(chains[key], faults)[1]
        # No correction counter reports the chains' held shifts.
        assert result.corrections["suppressed_shifts"] == 0
    assert held > 0
    want = dict(clean.counters, track_shift=clean.counters["track_shift"] - held)
    assert result.counters == want


@pytest.mark.parametrize("cell,impl,layout", CASES, ids=[case_id(*c) for c in CASES])
def test_faulty_runs_match_golden(cell, impl, layout):
    placement, params, inputs = net(cell, impl, layout)
    golden = json.loads(GOLDEN.read_text())
    for edc in (False, True):
        cfg = faulty_config(edc)
        plan = FaultPlan(cfg, placement)
        assert all(sum(map(len, streams)) for streams in (
            plan.input_faults.values(), plan.weight_faults, plan.mac_faults, plan.act_faults))
        result = simulate(placement, params, inputs, error_cfg=cfg)
        assert result.corrections["fault_events"] == plan.total_events()
        assert_replayed_timing(placement, result)
        assert fingerprint(result) == golden[golden_key(cell, impl, layout, edc)]


# Preset runs whose to_json() SHA-256 the goldens pin, as preset ->
# (timesteps, None for the preset's own, and the fault rates), each run EDC
# off and on, with params seed 1, inputs seed 2 and fault seed 0.  They
# cover what the small CASES do not: 512-column blocks, the recurrent
# stacks, d-speech's blocked cast and wide multi-group chains.
PRESET_RUNS = {
    "im2txt": (None, (0.0, DEFAULT_P_OVERSHIFT, 5e-3)),
    "mach-tran-512": (6, (0.0, DEFAULT_P_OVERSHIFT, 5e-3)),
    "mach-tran-1024": (4, (0.0, DEFAULT_P_OVERSHIFT)),
    "lang-mod": (8, (0.0, DEFAULT_P_OVERSHIFT)),
    "seq2seq": (4, (0.0, DEFAULT_P_OVERSHIFT)),
    "desk-ref": (200, (0.0, DEFAULT_P_OVERSHIFT, 5e-3)),
    "mach-tran-2048": (3, (DEFAULT_P_OVERSHIFT,)),
    "d-speech": (2, (DEFAULT_P_OVERSHIFT,)),
}
# The fault seeds of the pinned im2txt sweeps, which perfbench's
# fault-sweep workload runs too.
SWEEP_SEEDS = (0, 1, 2, 3)


@contextlib.contextmanager
def recorded_runs():
    """(args, kwargs, RunResult) of every ``simulate`` call made meanwhile,
    caught as perfbench's ``captured_runs`` catches them: by wrapping
    ``simulator.simulate``, which ``run_fidelity_experiment`` looks up at
    each call."""
    calls = []
    inner = simulator.simulate

    def recording(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    simulator.simulate = recording
    try:
        yield calls
    finally:
        simulator.simulate = inner


def run_digest(result):
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def preset_pins(name):
    """{golden key: pin} of preset `name`'s runs in PRESET_RUNS."""
    steps, rates = PRESET_RUNS[name]
    preset = get_preset(name)
    spec = preset.spec if steps is None else dataclasses.replace(preset.spec, timesteps=steps)
    placement = map_network(spec, preset.hardware())
    params, inputs = generate_network_params(spec, 1), generate_inputs(spec, 2)
    pins = {}
    for p in rates:
        for edc in (False, True):
            cfg = ErrorConfig(p_overshift=p, edc_inputs=edc, edc_weights=edc, seed=0)
            result = simulate(placement, params, inputs, error_cfg=cfg)
            key = f"preset-{name}-{spec.timesteps}-p{p}-edc-{'on' if edc else 'off'}"
            pins[key] = {"to_json_sha256": run_digest(result)}
    return pins


def sweep_key(edc):
    return f"sweep-im2txt-edc-{'on' if edc else 'off'}"


def sweep_pin(edc):
    """The rows of an im2txt fault sweep over SWEEP_SEEDS at the paper's
    rate on all sites, and the to_json() SHA-256 of each of its runs."""
    preset = get_preset("im2txt")
    params, inputs = generate_network_params(preset.spec, 1), generate_inputs(preset.spec, 2)
    cfg = ErrorConfig(p_overshift=DEFAULT_P_OVERSHIFT, edc_inputs=edc, edc_weights=edc, seed=0)
    with recorded_runs() as calls:
        rows = run_fidelity_experiment(preset.spec, preset.hardware(), [cfg], params, inputs,
                                       SWEEP_SEEDS)
    return json.loads(json.dumps({"rows": rows, "runs": [run_digest(r) for *_, r in calls]}))


@pytest.mark.parametrize("name", PRESET_RUNS)
def test_preset_runs_match_golden(name):
    golden = json.loads(GOLDEN.read_text())
    pins = preset_pins(name)
    assert pins == {key: golden.get(key) for key in pins}


@pytest.mark.parametrize("edc", [False, True], ids=["edc-off", "edc-on"])
def test_fault_sweep_matches_golden(edc):
    pin = sweep_pin(edc)
    assert len(pin["runs"]) == 1 + len(SWEEP_SEEDS)
    assert pin == json.loads(GOLDEN.read_text())[sweep_key(edc)]


# The long LSTM layout's arrays, in the order a run makes them, as bytes:
# layer 0's biases (256) and recurrent stack (1,024), its input-path
# blocks of 16 steps (4,096 each; the last, of 3 steps, 768), then layer
# 1's biases (160) and stack (400).  A sweep's _Shared keeps each that
# fits what is left of SWEEP_BUDGET.
SWEEP_BLOCK = 16
SWEEP_BUDGET = 256 + 1024 + 2 * 4096 + 500
SWEEP_KEPT = {("bias", 0), ("stack", 0), ("x", 0, 0), ("x", 0, 16), ("bias", 1)}


@pytest.mark.parametrize("edc", [False, True], ids=["edc-off", "edc-on"])
def test_every_run_of_a_sweep_is_its_plain_run(edc, monkeypatch):
    """A sweep's runs share one _Shared, which keeps layer 0's stack and
    first two input-path blocks and rebuilds its last three blocks and
    layer 1's stack.  Every run, the fault-free reference included, gives
    the to_json() of the same call without it, and the rows match."""
    monkeypatch.setattr(simulator, "TIME_BLOCK", SWEEP_BLOCK)
    monkeypatch.setattr(simulator, "_STACK_BYTES", SWEEP_BUDGET)
    placement, params, inputs = net("LSTM", "approx", "long")
    cfg = faulty_config(edc)
    seeds = (0, 1, 2)
    with recorded_runs() as calls:
        rows = run_fidelity_experiment(placement.spec, placement.hw, [cfg], params, inputs, seeds)
    shared = calls[0][1]["shared"]
    assert [kwargs.get("error_cfg") for _args, kwargs, _r in calls] == [None] + [
        dataclasses.replace(cfg, seed=seed) for seed in seeds]
    assert all(kwargs["shared"] is shared for _args, kwargs, _r in calls)
    assert set(shared.kept) == SWEEP_KEPT
    assert sum(a.nbytes for a in shared.kept.values()) <= SWEEP_BUDGET
    reference = simulate(placement, params, inputs)
    for args, kwargs, result in calls:
        plain = simulate(*args, error_cfg=kwargs.get("error_cfg"))
        assert result.to_json() == plain.to_json()
        if kwargs.get("error_cfg"):
            assert result.corrections["fault_events"] > 0
            assert not same_outputs(result.outputs, reference.outputs)
    for row, (*_, result) in zip(rows, calls[1:], strict=True):
        metrics = fidelity_metrics(reference.outputs[-1], result.outputs[-1])
        assert (row["argmax_agreement"], row["nrmse"]) == (metrics.argmax_agreement, metrics.nrmse)


def test_nothing_outlives_the_sweep():
    """The sweep's _Shared is garbage once it returns, though its runs'
    results are still held: no RunResult refers to it."""
    placement, params, inputs = net("LSTM", "approx", "long")
    refs, results = [], []
    inner = simulator.simulate

    def recording(*args, shared, **kwargs):
        refs.append(weakref.ref(shared))
        results.append(inner(*args, shared=shared, **kwargs))
        return results[-1]

    simulator.simulate = recording
    try:
        run_fidelity_experiment(placement.spec, placement.hw, [faulty_config(False)], params,
                                inputs, (0, 1))
    finally:
        simulator.simulate = inner
    gc.collect()
    assert len(results) == 3 and [ref() for ref in refs] == [None] * 3


def test_shared_arrays_are_read_only():
    placement, params, inputs = net("LSTM", "approx", "long")
    shared = _Shared(placement, params, inputs)
    simulate(placement, params, inputs, faulty_config(False), shared=shared)
    _, _, _, gate_h = shared.layer(0)
    arrays = [*shared.kept.values(), *gate_h]
    assert {key[0] for key in shared.kept} == {"bias", "stack", "x"}
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1
    # simulate's own object, which keeps nothing, hands out read-only arrays too.
    assert not _Shared(placement, params, inputs, keep=False).layer(1)[1].flags.writeable


def test_a_shared_made_for_other_objects_is_rejected():
    """The check is by identity: equal but distinct objects fail too."""
    placement, params, inputs = net("LSTM", "approx", "long")
    other = net("GRU", "approx", "long")
    shared = _Shared(placement, params, inputs)
    for args in ((other[0], params, inputs), (placement, list(params), inputs),
                 (placement, params, inputs.copy()), (placement, other[1], inputs)):
        with pytest.raises(ValueError, match="shared"):
            simulate(*args, shared=shared)
    assert not shared.kept
    simulate(placement, params, inputs, shared=shared)


def write_golden():
    """Rewrite the pins; print each key whose pin changed, with the fields
    that changed."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {}
    for cell, impl, layout in CASES:
        placement, params, inputs = net(cell, impl, layout)
        for edc in (False, True):
            result = simulate(placement, params, inputs, error_cfg=faulty_config(edc))
            golden[golden_key(cell, impl, layout, edc)] = fingerprint(result)
    for name in PRESET_RUNS:
        golden.update(preset_pins(name))
    for edc in (False, True):
        golden[sweep_key(edc)] = sweep_pin(edc)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    changed = [key for key in sorted(golden) if old.get(key) != golden[key]]
    for key in changed:
        pin = old.get(key, {})
        print(key, " ".join(f for f in golden[key] if pin.get(f) != golden[key][f]))
    print(f"{len(changed)} of {len(golden)} pins changed")


if __name__ == "__main__":
    write_golden()
