"""Fault protocol: ``racetrack.weight_zeros`` (EDC on) and
``racetrack.weight_misreads`` (EDC off), the weight-track protocol the
simulator applies, on single tracks and padded batches, against the
``WeightTrackGroup`` device model (the EDC-off read matrix is rebuilt from
the misread rows); fault plans decoded as a per-event reference decode does
them (input-chain, weight, MAC and activation events as int32 rows, path
coded by its index in ``PATHS``), and independent of the EDC flags; and
``run_fidelity_experiment``, whose rows are each seed's own run measured
against the fault-free one."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnfast.error_model import (
    PATHS,
    REGION_PLANES,
    SITES,
    ErrorConfig,
    FaultPlan,
    _draw_positions,
    _stream,
    fidelity_metrics,
    run_fidelity_experiment,
)
from rnnfast.lstm_core import GATE_ORDERS, NONLINEAR_EVALS
from rnnfast.mapping import HardwareConfig, LayerSpec, NetworkSpec, map_network
from rnnfast.presets import generate_inputs, generate_network_params
from rnnfast.racetrack import WORD_PLANES, WeightTrackGroup, weight_misreads, weight_zeros
from rnnfast.simulator import simulate


class Counter(dict):
    def add(self, op, n=1):
        self[op] = self.get(op, 0) + n


def device_pass(weights, faults, edc):
    """(weights as read, zero substitutions, suppressed shifts) of one pass
    through the device model; `faults` holds (slot, plane) overshifts."""
    ledger = Counter()
    track = WeightTrackGroup(weights, edc_enabled=edc)
    outcomes = [
        track.read_next({plane for s, plane in faults if s == slot}, ledger)
        for slot in range(len(weights))
    ]
    zeroed = sum(o.kind == "substituted_zero" for o in outcomes)
    suppressed = WORD_PLANES * (len(weights) - 1) - ledger.get("track_shift", 0)
    return [o.weight_raw for o in outcomes], zeroed, suppressed


def misread_matrix(matrix, lengths, rows):
    """A padded batch as read with EDC off: each ``weight_misreads`` row
    takes its plane's bit at its slot from its source slot's stored bit, or
    a blank bit past the track's end."""
    stored = np.asarray(matrix, dtype=np.int64) & 0xFFFF
    read = stored.copy()
    for track, plane, slot, source in zip(*(a.tolist() for a in weight_misreads(lengths, rows))):
        bit = (stored[track, source] >> plane) & 1 if source < lengths[track] else 0
        read[track, slot] = read[track, slot] & ~(1 << plane) | bit << plane
    return np.where(read >= 1 << 15, read - (1 << 16), read)


def batched_pass(matrix, lengths, rows, edc):
    """(weights as read, zero substitutions, suppressed shifts) of a padded
    batch through the protocol function of the EDC setting."""
    if not edc:
        return misread_matrix(matrix, lengths, rows), 0, 0
    zeroed, suppressed = weight_zeros(lengths, rows)
    read = np.array(matrix, dtype=np.int64)
    read[zeroed[:, 0], zeroed[:, 1]] = 0
    return read, len(zeroed), suppressed


def protocol_pass(weights, faults, edc):
    """``device_pass`` through the batched protocol, as a batch of one."""
    rows = [(0, plane, slot) for slot, plane in sorted(faults)]
    read, zeroed, suppressed = batched_pass([weights], [len(weights)], rows, edc)
    return read[0].tolist(), zeroed, suppressed


@st.composite
def passes(draw):
    k = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(-32768, 32767), min_size=k, max_size=k))
    slot_planes = st.tuples(st.integers(1, max(k - 1, 1)), st.integers(0, WORD_PLANES - 1))
    faults = draw(st.sets(slot_planes, max_size=8 if k > 1 else 0))
    return weights, faults


@settings(max_examples=300, deadline=None)
@given(passes(), st.booleans())
def test_weight_pass_matches_the_device_for_faults_after_slot_0(case, edc):
    weights, faults = case
    assert protocol_pass(weights, faults, edc) == device_pass(weights, faults, edc)


@st.composite
def batches(draw):
    """1-6 tracks of different lengths padded into one matrix, each with
    faults after slot 0 on several planes, in runs of consecutive slots;
    the fault rows come in any order."""
    tracks = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, 12))
        weights = draw(st.lists(st.integers(-32768, 32767), min_size=k, max_size=k))
        faults = set()
        if k > 1:
            for plane in draw(st.lists(st.integers(0, WORD_PLANES - 1), max_size=3)):
                start = draw(st.integers(1, k - 1))
                run = draw(st.integers(1, k - start))
                faults |= {(slot, plane) for slot in range(start, start + run)}
        tracks.append((weights, faults))
    rows = [(i, plane, slot) for i, (_w, faults) in enumerate(tracks) for slot, plane in faults]
    width = max(len(w) for w, _f in tracks) + draw(st.integers(0, 3))
    return tracks, width, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(batches(), st.booleans())
def test_batched_weight_pass_matches_the_device_track_by_track(case, edc):
    tracks, width, rows = case
    matrix = np.full((len(tracks), width), 0x5A5A, dtype=np.int64)
    for i, (weights, _faults) in enumerate(tracks):
        matrix[i, :len(weights)] = weights
    read, zeroed, suppressed = batched_pass(
        matrix, [len(w) for w, _f in tracks], np.array(rows, dtype=np.int64).reshape(-1, 3), edc
    )
    want = [device_pass(weights, faults, edc) for weights, faults in tracks]
    for i, (weights, _faults) in enumerate(tracks):
        assert read[i, :len(weights)].tolist() == want[i][0]
        assert read[i, len(weights):].tolist() == [0x5A5A] * (width - len(weights))
    assert zeroed == sum(z for _r, z, _s in want)
    assert suppressed == sum(s for _r, _z, s in want)


@settings(max_examples=300, deadline=None)
@given(batches())
def test_weight_zeros_are_the_slots_the_device_zeroes(case):
    """EDC on, from the fault rows and lengths alone: the zeroed rows are
    exactly the (track, slot) pairs that ``read_next`` substitutes with
    zero, each once and sorted, and the held shifts are the device's."""
    tracks, _width, rows = case
    zeroed, suppressed = weight_zeros(
        [len(w) for w, _f in tracks], np.array(rows, dtype=np.int64).reshape(-1, 3)
    )
    ledger = Counter()
    want = []
    for i, (weights, faults) in enumerate(tracks):
        track = WeightTrackGroup(weights, edc_enabled=True)
        for slot in range(len(weights)):
            outcome = track.read_next({p for s, p in faults if s == slot}, ledger)
            if outcome.kind == "substituted_zero":
                want.append([i, slot])
    shifts = sum(WORD_PLANES * (len(w) - 1) for w, _f in tracks)
    assert zeroed.tolist() == want
    assert suppressed == shifts - ledger.get("track_shift", 0)


@settings(max_examples=300, deadline=None)
@given(batches())
def test_weight_misreads_run_from_each_pairs_first_fault_to_its_end(case):
    """EDC off: one row per slot of each displaced (track, plane) pair, from
    its first fault to the end of its track, sorted by track, plane and
    slot; the source is the slot plus the pair's faults up to it.  A
    repeated fault row counts once, as one advance overshoots once."""
    tracks, _width, rows = case
    lengths = [len(w) for w, _f in tracks]
    faults = np.array(rows + rows[::2]).reshape(-1, 3)
    got = list(zip(*(a.tolist() for a in weight_misreads(lengths, faults))))
    want = []
    for i, (_weights, faults) in enumerate(tracks):
        for plane in sorted({p for _s, p in faults}):
            slots = sorted(s for s, p in faults if p == plane)
            want += [(i, plane, slot, slot + sum(s <= slot for s in slots))
                     for slot in range(slots[0], lengths[i])]
    assert got == want


@pytest.mark.xfail(
    strict=True,
    reason="known defect: FaultPlan, weight_zeros and weight_misreads let a fault land on "
    "slot 0, which no shift precedes; the device reads slot 0 cleanly",
)
@pytest.mark.parametrize("edc", [False, True], ids=["edc-off", "edc-on"])
def test_weight_pass_matches_the_device_for_a_slot_0_fault(edc):
    weights = [0x0101, 0x0202, 0x0303, 0x0404]
    faults = {(0, 0), (2, 9)}
    assert protocol_pass(weights, faults, edc) == device_pass(weights, faults, edc)


def test_regions_target_their_bit_planes():
    assert REGION_PLANES == {
        "all": tuple(range(16)), "integer_only": tuple(range(8, 16)),
        "fraction_only": tuple(range(8)), "sign_only": (15,),
    }
    with pytest.raises(ValueError):
        ErrorConfig(bit_region="upper")


def test_edc_flags_leave_the_fault_plan_unchanged():
    spec = NetworkSpec((LayerSpec("LSTM", 12, 8), LayerSpec("GRU", 6, 12)), 5)
    placement = map_network(spec, HardwareConfig(weights_per_pe=16))
    plans = [
        FaultPlan(ErrorConfig(p_overshift=3e-2, edc_inputs=ei, edc_weights=ew, seed=3), placement)
        for ei in (False, True)
        for ew in (False, True)
    ]

    def events(plan):
        return (rows(plan.input_faults), rows(plan.weight_faults), rows(plan.mac_faults),
                rows(plan.act_faults))

    assert all(events(plans[0]))
    for plan in plans[1:]:
        assert events(plan) == events(plans[0])
        assert plan.total_events() == plans[0].total_events()


def test_weight_pass_displaced_plane_reads_blank_past_the_end():
    # Plane 15 (the sign) of the last slot comes from beyond the track: 0.
    rows = [(0, 15, 1)]
    assert [a.tolist() for a in weight_misreads([2], rows)] == [[0], [15], [1], [2]]
    assert misread_matrix([[-1, -1]], [2], rows).tolist() == [[-1, 0x7FFF]]


def reference_plan(cfg, placement):
    """(input, weight, MAC, activation) fault dicts by a per-event decode:
    divmod over each flat position, then a walk over the gate paths for the
    slot, with the draws of ``FaultPlan``'s streams.  Input events are rows
    (step, tile, plane) in event order."""
    planes = REGION_PLANES[cfg.bit_region]
    T = placement.spec.timesteps
    inputs, weights, macs, acts = {}, {}, {}, {}

    def draw(site, layer, sub, total):
        gen = _stream(cfg.seed, site, layer, sub)
        pos = _draw_positions(gen, total, cfg.p_overshift)
        return zip(pos, gen.integers(0, len(planes), size=len(pos)))

    def unflatten_slot(paths, path_len, flat):
        for gate, path in paths:
            if flat < path_len[path]:
                return gate, path, flat
            flat -= path_len[path]
        raise AssertionError("slot index out of range")

    for l, lp in enumerate(placement.layers):
        n, m = lp.inputs, lp.neurons
        if "input_chains" in cfg.sites:
            for ci, (tag, layout, steps) in enumerate(
                (("x", lp.chain, n), ("h", lp.recurrent_chain, m))
            ):
                tiles = len(layout.group_capacities)
                for p, pk in draw("input_chains", l, ci, tiles * T * steps):
                    tile, rest = divmod(int(p), T * steps)
                    t, step = divmod(rest, steps)
                    inputs.setdefault((l, tag, t), []).append((step, tile, planes[int(pk)]))
        paths = [(g, p) for g in range(len(GATE_ORDERS[lp.cell_type])) for p in ("x", "h")]
        path_len = {"x": n, "h": m}
        slots = sum(path_len[p] for _g, p in paths)

        def slot_events(site):
            for p, pk in draw(site, l, 0, m * T * slots):
                neuron, rest = divmod(int(p), T * slots)
                t, flat = divmod(rest, slots)
                yield (l, t), neuron, *unflatten_slot(paths, path_len, flat), planes[int(pk)]

        if "weight_arrays" in cfg.sites:
            for key, neuron, gate, path, slot, plane in slot_events("weight_arrays"):
                weights.setdefault(key, []).append((neuron, gate, PATHS.index(path), plane, slot))
        if "logic" in cfg.sites:
            for key, neuron, gate, path, slot, plane in slot_events("logic"):
                macs.setdefault(key, []).append((neuron, gate, PATHS.index(path), slot, plane))
            n_acts = NONLINEAR_EVALS[lp.cell_type]
            for p, pk in draw("logic", l, 1, m * T * n_acts):
                neuron, rest = divmod(int(p), T * n_acts)
                t, act = divmod(rest, n_acts)
                acts.setdefault((l, t), []).append((neuron, act, planes[int(pk)]))
    return inputs, weights, macs, acts


def rows(faults):
    """Fault arrays by (layer, t) as lists of row tuples."""
    return {key: [tuple(row) for row in a.tolist()] for key, a in faults.items()}


def ordered(obj):
    """`obj` with every dict as its list of items, so == also compares
    insertion order, and every leaf tagged with its type."""
    if isinstance(obj, dict):
        return [(ordered(k), ordered(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [ordered(v) for v in obj]
    return type(obj), obj


# name -> (hardware, layers as (cell, neurons, inputs)).  Mixed cell types,
# split neurons on cross-group chains, and packed Vanilla neurons.
PLAN_LAYOUTS = {
    "one-pe": (HardwareConfig(), (("LSTM", 8, 6), ("GRU", 5, 8))),
    "split": (
        HardwareConfig(weights_per_pe=16, tiles_per_group=2),
        (("LSTM", 40, 24), ("Vanilla", 16, 40)),
    ),
    "packed": (
        HardwareConfig(weights_per_pe=16, rewind_cost="free"),
        (("Vanilla", 12, 8), ("GRU", 4, 12)),
    ),
}
SITE_SUBSETS = [{s} for s in SITES] + [{"input_chains", "logic"}, set(SITES)]


@pytest.mark.parametrize("steps", [0, 1, 5])
@pytest.mark.parametrize("layout", PLAN_LAYOUTS)
def test_fault_plan_matches_the_reference_decode(layout, steps):
    hw, layers = PLAN_LAYOUTS[layout]
    spec = NetworkSpec(tuple(LayerSpec(*layer) for layer in layers), steps)
    placement = map_network(spec, hw)
    hit = [False] * 4
    for seed, (sites, region) in enumerate(
        (sites, region) for sites in SITE_SUBSETS for region in REGION_PLANES
    ):
        cfg = ErrorConfig(p_overshift=5e-2, sites=sites, bit_region=region, seed=seed)
        plan = FaultPlan(cfg, placement)
        assert all(a.dtype == np.int32 and a.shape[1] == 5
                   for a in (*plan.weight_faults.values(), *plan.mac_faults.values()))
        assert all(a.dtype == np.int32 and a.shape[1] == 3
                   for a in (*plan.input_faults.values(), *plan.act_faults.values()))
        got = (rows(plan.input_faults), rows(plan.weight_faults), rows(plan.mac_faults),
               rows(plan.act_faults))
        want = reference_plan(cfg, placement)
        assert ordered(got) == ordered(want), (sites, region)
        hit = [h or bool(d) for h, d in zip(hit, want)]
    # Every kind of event occurs at this rate once there is a timestep.
    assert hit == [steps > 0] * 4


def test_fidelity_experiment_pairs_each_seeds_run_with_the_fault_free_one():
    spec = NetworkSpec((LayerSpec("LSTM", 12, 8), LayerSpec("GRU", 6, 12)), 6)
    hw = HardwareConfig(weights_per_pe=16)
    params, inputs = generate_network_params(spec, 1), generate_inputs(spec, 2)
    grid = [
        ErrorConfig(p_overshift=0.0),
        ErrorConfig(p_overshift=3e-2, seed=99),
        ErrorConfig(p_overshift=3e-2, sites={"weight_arrays"}, bit_region="integer_only",
                    edc_inputs=True, edc_weights=True, seed=99),
    ]
    seeds = (0, 3, 7)
    rows = run_fidelity_experiment(spec, hw, grid, params, inputs, seeds)
    assert len(rows) == len(grid) * len(seeds)
    placement = map_network(spec, hw)
    reference = simulate(placement, params, inputs).outputs[-1]
    faulty = 0
    for i, row in enumerate(rows):
        cfg, seed = grid[i // len(seeds)], seeds[i % len(seeds)]
        assert (row["p"], row["sites"], row["region"], row["edc_inputs"], row["edc_weights"]) == (
            cfg.p_overshift, "+".join(sorted(cfg.sites)), cfg.bit_region, cfg.edc_inputs,
            cfg.edc_weights,
        )
        if cfg.p_overshift == 0:
            assert (row["seed"], row["argmax_agreement"], row["nrmse"]) == (-1, 1.0, 0.0)
            continue
        run = simulate(placement, params, inputs, error_cfg=replace(cfg, seed=seed))
        metrics = fidelity_metrics(reference, run.outputs[-1])
        assert row["seed"] == seed
        assert (row["argmax_agreement"], row["nrmse"]) == (metrics.argmax_agreement, metrics.nrmse)
        faulty += metrics.nrmse > 0
    # The faults change some runs, so the rows are not all trivially equal.
    assert faulty > 0
