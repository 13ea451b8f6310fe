"""Simulator invariants on tiny LSTM, GRU and Vanilla nets.

Fault-free runs must be bit-exact against a ``lstm_core.cell_step`` replay
(also across the simulator's blocks of input-path timesteps) and take
exactly ``analytic_cycles``; every cell type's weight paths are cut into
one chunk per PE the mapper gives a gate; EDC-on input-chain faults must leave
the outputs untouched; the reported fault count must be the plan's; the
ledger's closed-form chain passes, less the shifts EDC corrections held,
must equal what the track model counts itself, and a faulted pass (in
closed form with EDC off, a replayed window with EDC on) must deliver what
a full track-model pass from step 0 delivers.  Faulty
runs with every site active are pinned in ``simulator_golden.json`` (output
SHA-256, cycles, ledger counters, per-layer counts, corrections), so any
change to the fault path shows up.  After a deliberate change of fault
semantics, rewrite the pins with
``PYTHONPATH=src python tests/test_simulator.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnfast import lstm_core
from rnnfast.error_model import ErrorConfig, FaultPlan
from rnnfast.mapping import ChainLayout, HardwareConfig, LayerSpec, NetworkSpec, map_network
from rnnfast.presets import generate_inputs, generate_network_params
from rnnfast.racetrack import WORD_PLANES, InputTrackChain
from rnnfast.simulator import (
    TIME_BLOCK,
    _LayerGeometry,
    _run_faulted_chain,
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
    assert result.total_cycles == analytic_cycles(placement)
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
    placement, _params, _inputs = net(cell, "approx", layout)
    for lp in placement.layers:
        geo = _LayerGeometry(lp, placement.hw, None)
        neurons = np.arange(lp.neurons)
        for path, chain in enumerate((lp.chain, lp.recurrent_chain)):
            n = chain.word_capacity
            chunks = list(zip(geo.lo[path], geo.lo[path] + geo.size[path]))
            assert [w for lo, hi in chunks for w in range(lo, hi)] == list(range(n))
            assert geo.chunk_of[path, :n].tolist() == [
                c for c, (lo, hi) in enumerate(chunks) for _w in range(lo, hi)
            ]
            bases = np.cumsum((0,) + chain.group_capacities[:-1])
            for chunk, (lo, hi) in enumerate(chunks):
                groups, words = geo.locate(
                    neurons, np.full_like(neurons, path), np.full_like(neurons, chunk),
                    np.arange(hi - lo),
                )
                for group, row in zip(groups, words.tolist()):
                    assert 0 <= group < len(bases)
                    # Group g receives word (base_g + s) mod n at step s.
                    arrival = [(bases[group] + s) % n for s in range(n)]
                    assert row == [w for w in arrival if lo <= w < hi]


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
        assert geo.size.shape == (2, lp.pes_per_neuron)
        per_unit = hw.pes_per_unit if cell == "Vanilla" else 1
        for neuron in range(lp.neurons):
            units = [(neuron // lp.neurons_per_unit) * lp.units_per_neuron + c // per_unit
                     for c in range(lp.pes_per_neuron)]
            assert units[-1] < lp.n_units
            tiles = [u // hw.lstm_units_per_tile for u in units]
            for path, chain in enumerate((lp.chain, lp.recurrent_chain)):
                groups = len(chain.group_capacities)
                assert geo.group_of[path, :, neuron].tolist() == [min(t, groups - 1) for t in tiles]


def test_long_layout_ends_three_steps_into_a_second_time_block():
    assert LAYOUTS["long"][2] == TIME_BLOCK + 3


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


class Counter(dict):
    def add(self, op, n=1):
        self[op] = self.get(op, 0) + n


@st.composite
def faulted_passes(draw):
    """A chain pass with faults, as ``FaultPlan`` rows (step, group, plane).

    Groups hold 1-12 words each, unequal in general.  Besides random events
    there are optional faults at step 0 and at the last step, so the EDC-on
    window starts and ends at the edges of the pass, and up to three runs of
    faults on one (group, plane) in consecutive steps, so several planes
    are displaced in one pass and a run can displace its plane to the end
    of its group's queue (cap - 1) and beyond."""
    caps = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    n_words = sum(caps)
    layout = ChainLayout(n_words, caps, 1, 0, 0)
    groups = st.integers(0, len(caps) - 1)
    planes = st.integers(0, WORD_PLANES - 1)
    events = draw(st.lists(st.tuples(st.integers(0, n_words - 1), groups, planes), max_size=12))
    for step in (0, n_words - 1):
        if draw(st.booleans()):
            events.append((step, draw(groups), draw(planes)))
    for _ in range(draw(st.integers(0, 3))):
        group, plane = draw(groups), draw(planes)
        # Often long enough to reach cap - 1 on its group.
        length = draw(st.integers(1, n_words) | st.just(min(caps[group] + 1, n_words)))
        start = draw(st.integers(0, n_words - length))
        events += [(step, group, plane) for step in range(start, start + length)]
    if not events:
        events.append((draw(st.integers(0, n_words - 1)), draw(groups), draw(planes)))
    faults = np.array(draw(st.permutations(events)), dtype=np.int32)
    words = draw(st.lists(st.integers(-32768, 32767), min_size=n_words, max_size=n_words))
    return layout, words, faults, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(faulted_passes())
def test_track_model_ledger_is_the_closed_form_pass_less_held_shifts(case):
    """``_run_faulted_chain`` gives what a full device pass from step 0
    gives: the same deliveries, corrections and held shifts, and the
    device's own ledger is the closed-form pass less those held shifts."""
    layout, words, faults, edc = case
    seen, corrected, held = _run_faulted_chain(layout, np.asarray(words), faults, edc)
    by_step = {}
    for step, group, plane in faults.tolist():
        by_step.setdefault(step, {}).setdefault(group, []).append(plane)
    chain = InputTrackChain(list(layout.group_capacities), edc_enabled=edc)
    chain.stage(words)
    ledger = Counter()
    n_words = layout.word_capacity
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
        # Held shifts do not depend on the words, so replay zeros.
        chains = {(lp.index, "x"): lp.chain for lp in placement.layers}
        chains.update({(lp.index, "h"): lp.recurrent_chain for lp in placement.layers})
        held = 0
        for (layer, path, _t), faults in FaultPlan(cfg, placement).input_faults.items():
            layout = chains[layer, path]
            words = np.zeros(layout.word_capacity, dtype=np.int64)
            held += _run_faulted_chain(layout, words, faults, True)[2]
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
        assert plan.input_faults and plan.weight_faults and plan.mac_faults and plan.act_faults
        result = simulate(placement, params, inputs, error_cfg=cfg)
        assert result.corrections["fault_events"] == plan.total_events()
        assert result.total_cycles == analytic_cycles(placement)
        assert fingerprint(result) == golden[golden_key(cell, impl, layout, edc)]


def write_golden():
    golden = {}
    for cell, impl, layout in CASES:
        placement, params, inputs = net(cell, impl, layout)
        for edc in (False, True):
            result = simulate(placement, params, inputs, error_cfg=faulty_config(edc))
            golden[golden_key(cell, impl, layout, edc)] = fingerprint(result)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
