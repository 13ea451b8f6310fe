"""Fault protocol: ``racetrack.weight_zeros`` (EDC on) and
``racetrack.weight_plane_reads`` (EDC off), the weight-track protocol the
simulator applies, on single tracks and padded batches, against the
``WeightTrackGroup`` device model (the EDC-off read matrix is rebuilt from
the planes as read, each pair's row from its first fault on); fault plans decoded as a per-event reference decode does
them (input-chain, weight, MAC and activation streams as int32 rows led by
their timestep, steps ascending and event order kept within a step, path
coded by its index in ``PATHS``), empty streams for the sites a config
leaves out, and independent of the EDC flags; seeds that are not
non-negative integers rejected; and ``run_fidelity_experiment``, whose rows
are each seed's own run measured against the fault-free one, and whose
fault-free cells take their rows from the reference with no run."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnfast import error_model, simulator
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
    stream_rows,
)
from rnnfast.lstm_core import GATE_ORDERS, NONLINEAR_EVALS
from rnnfast.mapping import HardwareConfig, LayerSpec, NetworkSpec, map_network
from rnnfast.presets import generate_inputs, generate_network_params
from rnnfast.racetrack import WORD_PLANES, WeightTrackGroup, weight_plane_reads, weight_zeros
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
    """A padded batch as read with EDC off: ``weight_plane_reads`` reads each
    displaced (track, plane) pair's plane from its stored bits in slot
    order, from the pair's first fault on and 0 past the track's length, and
    the read bits replace that plane's bits from that fault up to the
    track's length.  Every fault row goes in, the first ones at slot 0."""
    stored = np.asarray(matrix, dtype=np.int64) & 0xFFFF
    width = stored.shape[1]
    track, plane, slot = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
    pairs, pair = np.unique(track * WORD_PLANES + plane, return_inverse=True)
    first = np.full(len(pairs), width)
    np.minimum.at(first, pair, slot)
    # Row slot j of a pair is its track's slot first + j.
    at = first[:, None] + np.arange(width)
    inside = at < np.asarray(lengths)[pairs // WORD_PLANES, None]
    bits = (stored[pairs[:, None] // WORD_PLANES, np.minimum(at, width - 1)]
            >> (pairs % WORD_PLANES)[:, None]) & 1 & inside
    planes_read = weight_plane_reads(bits, np.stack((pair, slot - first[pair]), axis=1))
    read = stored.copy()
    for key, f, bit, mask in zip(pairs.tolist(), first.tolist(), planes_read, inside):
        t, k = divmod(key, WORD_PLANES)
        part = read[t, f:]
        read[t, f:] = np.where(mask[:width - f], part & ~(1 << k) | bit[:width - f] << k, part)
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
    zero, each once and sorted, and the held shifts are the device's.  A
    repeated fault row counts once, as one advance overshoots once."""
    tracks, _width, rows = case
    zeroed, suppressed = weight_zeros(
        [len(w) for w, _f in tracks], np.array(rows + rows[::2], dtype=np.int64).reshape(-1, 3)
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
def test_weight_plane_reads_displace_each_slot_by_the_distinct_faults_up_to_it(case):
    """EDC off, one row per displaced (track, plane) pair: its stored bits in
    slot order from the pair's first fault on, and 0 past the track's
    length, so most rows are narrower than the width.  A pair has one
    fault or several, in runs.  Row slot s reads the bit at s + d, d the
    pair's distinct faults at or before it, its first fault at row slot 0
    included, and a bit past the end reads blank.  Only the later faults
    are passed, some of them twice, as a repeated row counts once; passing
    the first faults as well changes nothing."""
    tracks, width, rows = case
    pairs = sorted({(i, plane) for i, plane, _slot in rows})
    slots = {pair: sorted({slot for i, p, slot in rows if (i, p) == pair}) for pair in pairs}
    bits = np.zeros((len(pairs), width), dtype=np.int8)
    for r, (i, plane) in enumerate(pairs):
        first = slots[i, plane][0]
        rest = [(w >> plane) & 1 for w in tracks[i][0][first:]]
        bits[r, :len(rest)] = rest
    faults = [(pairs.index((i, plane)), slot - slots[i, plane][0])
              for i, plane, slot in rows + rows[::2] if slot > slots[i, plane][0]]
    got = weight_plane_reads(bits, np.array(faults, dtype=np.int64).reshape(-1, 2))
    firsts = [(r, 0) for r in range(len(pairs))]
    again = weight_plane_reads(bits, np.array(faults + firsts, dtype=np.int64).reshape(-1, 2))
    assert got.dtype == bits.dtype and got.shape == bits.shape
    assert np.array_equal(again, got)
    for r, pair in enumerate(pairs):
        for s in range(width):
            d = sum(f - slots[pair][0] <= s for f in slots[pair])
            assert got[r, s] == (bits[r, s + d] if s + d < width else 0), (r, s)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: FaultPlan, weight_zeros and weight_plane_reads let a fault land on "
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
        return [{key: stream.tolist() for key, stream in kind.items()} for kind in streams(plan)]

    assert all(any(kind.values()) for kind in events(plans[0]))
    for plan in plans[1:]:
        assert events(plan) == events(plans[0])
        assert plan.total_events() == plans[0].total_events()


def test_weight_pass_displaced_plane_reads_blank_past_the_end():
    # Plane 15 (the sign) of the last slot comes from beyond the track: 0.
    # A row starts at its pair's first fault; this one fills the width.
    rows = [(0, 15, 1)]
    assert weight_plane_reads([[1, 1]], np.empty((0, 2))).tolist() == [[1, 0]]
    assert misread_matrix([[-1, -1]], [2], rows).tolist() == [[-1, 0x7FFF]]
    # A later fault at row slot 2 moves the rest one bit further on.
    assert weight_plane_reads([[1, 0, 1, 1]], [(0, 2)]).tolist() == [[0, 1, 0, 0]]


def reference_plan(cfg, placement):
    """(input, weight, MAC, activation) fault streams by a per-event decode:
    divmod over each flat position, then a walk over the gate paths for the
    slot, with the draws of ``FaultPlan``'s streams.  Each stream is its
    list of rows (t, ...) in event order, keyed as the plan keys it, and
    empty for a site outside ``cfg.sites``."""
    planes = REGION_PLANES[cfg.bit_region]
    T = placement.spec.timesteps
    layers = range(len(placement.layers))
    inputs = {(l, tag): [] for l in layers for tag in PATHS}
    weights, macs, acts = ({l: [] for l in layers} for _kind in range(3))

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
                    inputs[l, tag].append((t, step, tile, planes[int(pk)]))
        paths = [(g, p) for g in range(len(GATE_ORDERS[lp.cell_type])) for p in ("x", "h")]
        path_len = {"x": n, "h": m}
        slots = sum(path_len[p] for _g, p in paths)

        def slot_events(site):
            for p, pk in draw(site, l, 0, m * T * slots):
                neuron, rest = divmod(int(p), T * slots)
                t, flat = divmod(rest, slots)
                gate, path, slot = unflatten_slot(paths, path_len, flat)
                yield t, neuron, gate, PATHS.index(path), slot, planes[int(pk)]

        if "weight_arrays" in cfg.sites:
            weights[l] += slot_events("weight_arrays")
        if "logic" in cfg.sites:
            macs[l] += slot_events("logic")
            n_acts = NONLINEAR_EVALS[lp.cell_type]
            for p, pk in draw("logic", l, 1, m * T * n_acts):
                neuron, rest = divmod(int(p), T * n_acts)
                t, act = divmod(rest, n_acts)
                acts[l].append((t, neuron, act, planes[int(pk)]))
    return inputs, weights, macs, acts


def streams(plan):
    """The plan's (input, weight, MAC, activation) streams as dicts, keyed
    as ``reference_plan`` keys them."""
    return (plan.input_faults, *(dict(enumerate(kind)) for kind in (
        plan.weight_faults, plan.mac_faults, plan.act_faults)))


# Row width of each stream kind, its timestep included.
WIDTHS = (4, 6, 6, 4)


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


def plan_placement(layout, steps):
    hw, layers = PLAN_LAYOUTS[layout]
    return map_network(NetworkSpec(tuple(LayerSpec(*layer) for layer in layers), steps), hw)


@pytest.mark.parametrize("steps", [0, 1, 5])
@pytest.mark.parametrize("layout", PLAN_LAYOUTS)
def test_fault_plan_matches_the_reference_decode(layout, steps):
    """Each stream holds the reference's events, sorted by timestep with a
    stable sort: steps ascend, and events keep their order within a step.
    ``stream_rows`` gives each timestep of a window its events, in that
    order, without the timestep."""
    placement = plan_placement(layout, steps)
    # A window that leaves out the first timestep.
    t0 = min(1, steps)
    hit = [False] * 4
    for seed, (sites, region) in enumerate(
        (sites, region) for sites in SITE_SUBSETS for region in REGION_PLANES
    ):
        cfg = ErrorConfig(p_overshift=5e-2, sites=sites, bit_region=region, seed=seed)
        got = streams(FaultPlan(cfg, placement))
        want = reference_plan(cfg, placement)
        for kind, (plan_streams, ref_streams, width) in enumerate(zip(got, want, WIDTHS)):
            assert plan_streams.keys() == ref_streams.keys()
            for key, stream in plan_streams.items():
                ref = ref_streams[key]
                assert stream.dtype == np.int32 and stream.shape == (len(ref), width)
                want_rows = sorted(map(list, ref), key=lambda row: row[0])
                assert stream.tolist() == want_rows, (sites, region, key)
                ptr, rows = stream_rows(stream, t0, steps)
                assert len(ptr) == steps - t0 + 1 and ptr[-1] == len(rows)
                for j in range(steps - t0):
                    assert rows[ptr[j]:ptr[j + 1]].tolist() == [
                        list(row[1:]) for row in ref if row[0] == t0 + j
                    ], (sites, region, key, j)
                hit[kind] = hit[kind] or bool(ref)
    # Every kind of event occurs at this rate once there is a timestep.
    assert hit == [steps > 0] * 4


def test_a_site_left_out_gives_empty_streams_of_their_width():
    placement = plan_placement("split", 5)
    for site in SITES:
        plan = FaultPlan(ErrorConfig(p_overshift=5e-2, sites={site}, seed=1), placement)
        kinds = streams(plan)
        live = {"input_chains": (0,), "weight_arrays": (1,), "logic": (2, 3)}[site]
        for kind, (kind_streams, width) in enumerate(zip(kinds, WIDTHS)):
            for stream in kind_streams.values():
                assert stream.dtype == np.int32 and stream.shape[1] == width
            assert (sum(map(len, kind_streams.values())) > 0) == (kind in live), (site, kind)


def test_an_inactive_config_builds_an_empty_plan_without_drawing(monkeypatch):
    def forbidden(*_args):
        raise AssertionError("an inactive config drew a fault stream")

    monkeypatch.setattr(error_model, "_stream", forbidden)
    placement = plan_placement("split", 5)
    plan = FaultPlan(ErrorConfig(p_overshift=0.0), placement)
    assert plan.total_events() == 0
    layers = len(placement.layers)
    for kind_streams, count, width in zip(streams(plan), (2 * layers, layers, layers, layers),
                                          WIDTHS):
        assert len(kind_streams) == count
        assert all(s.shape == (0, width) and s.dtype == np.int32 for s in kind_streams.values())


def test_total_events_counts_every_row():
    plan = FaultPlan(ErrorConfig(p_overshift=5e-2, seed=4), plan_placement("split", 5))
    rows = [len(s) for kind in streams(plan) for s in kind.values()]
    assert all(rows) and plan.total_events() == sum(rows)


TINY = NetworkSpec((LayerSpec("LSTM", 4, 3),), 2)


@pytest.mark.parametrize("seed", [1.7, "3", -1, True])
def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(seed):
    with pytest.raises(ValueError, match="non-negative integer"):
        ErrorConfig(p_overshift=1e-3, seed=seed)
    params, inputs = generate_network_params(TINY, 1), generate_inputs(TINY, 2)
    with pytest.raises(ValueError, match="non-negative integer"):
        run_fidelity_experiment(TINY, HardwareConfig(), [ErrorConfig(p_overshift=1e-3, seed=0)],
                                params, inputs, seeds=(0, seed))


@pytest.mark.parametrize("field", ["edc_inputs", "edc_weights"])
@pytest.mark.parametrize("flag", ["no", "yes", 0, 1, None], ids=repr)
def test_edc_flags_must_be_bools(field, flag):
    with pytest.raises(ValueError, match=field):
        ErrorConfig(p_overshift=0.2, seed=0, **{field: flag})


def test_numpy_flags_and_rates_are_plain_python_values():
    cfg = ErrorConfig(p_overshift=np.float32(0.25), edc_inputs=np.bool_(True),
                      edc_weights=np.bool_(False), seed=0)
    assert (type(cfg.p_overshift), type(cfg.edc_inputs), type(cfg.edc_weights)) == (
        float, bool, bool)
    assert cfg == ErrorConfig(p_overshift=0.25, edc_inputs=True, seed=0)
    # The run echoes its config, so a numpy rate must not break to_json.
    json.loads(simulate(map_network(TINY, HardwareConfig()), generate_network_params(TINY, 1),
                        generate_inputs(TINY, 2), cfg).to_json())


@pytest.mark.parametrize("p", [True, False, "0.2", None, 1.5, -0.1, float("nan")], ids=repr)
def test_p_overshift_must_be_a_real_probability(p):
    with pytest.raises(ValueError, match="p_overshift"):
        ErrorConfig(p_overshift=p, seed=0)


def test_numpy_integer_seeds_are_plain_ints():
    cfg = ErrorConfig(p_overshift=1e-3, seed=np.int64(3))
    assert type(cfg.seed) is int and cfg == ErrorConfig(p_overshift=1e-3, seed=3)
    assert ErrorConfig(p_overshift=1e-3, seed=np.uint8(0)).seed == 0
    params, inputs = generate_network_params(TINY, 1), generate_inputs(TINY, 2)
    rows = run_fidelity_experiment(TINY, HardwareConfig(), [cfg], params, inputs,
                                   seeds=np.arange(2))
    assert [type(row["seed"]) for row in rows] == [int, int]


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


def test_fault_free_cells_reuse_the_reference_run(monkeypatch):
    """A sweep simulates the reference once and each seed of each faulty
    cell once; a fault-free cell's rows come from the reference alone."""
    spec = NetworkSpec((LayerSpec("LSTM", 12, 8),), 4)
    params, inputs = generate_network_params(spec, 1), generate_inputs(spec, 2)
    grid = [
        ErrorConfig(p_overshift=0.0),
        ErrorConfig(p_overshift=3e-2, seed=0),
        ErrorConfig(p_overshift=0.0, edc_inputs=True, edc_weights=True),
        ErrorConfig(p_overshift=3e-2, edc_inputs=True, seed=0),
    ]
    seeds = (0, 3, 7)
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("error_cfg"))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(simulator, "simulate", spy)
    rows = run_fidelity_experiment(spec, HardwareConfig(), grid, params, inputs, seeds)
    assert len(calls) == 1 + 2 * len(seeds)
    assert calls == [None] + [replace(cfg, seed=s) for cfg in grid[1::2] for s in seeds]
    assert [(row["seed"], row["argmax_agreement"], row["nrmse"]) for row in rows[:3]] == \
        [(-1, 1.0, 0.0)] * 3
    assert [row["edc_inputs"] for row in rows[6:9]] == [True] * 3


def test_fidelity_metrics_compares_2d_integer_streams():
    ref = np.array([[256, -128, 0], [10, 20, 30]], dtype=np.int16)
    obs = np.array([[256, 0, 0], [10, 20, 40]], dtype=np.int16)
    metrics = fidelity_metrics(ref, obs)
    assert metrics.argmax_agreement == 1.0
    rms = np.sqrt(np.mean((ref.astype(float) / 256) ** 2))
    assert metrics.nrmse == pytest.approx(np.sqrt((0.5**2 + (10 / 256) ** 2) / 6) / rms)
    # An all-zero reference gives the plain RMSE.
    zero = np.zeros((1, 2), dtype=np.int64)
    assert fidelity_metrics(zero, np.array([[256, -256]])).nrmse == 1.0
    assert fidelity_metrics(np.zeros((0, 4), dtype=np.int16), np.zeros((0, 4), dtype=np.int64)) \
        == error_model.FidelityMetrics(1.0, 0.0)


@pytest.mark.parametrize("reference,observed", [
    ([[1.7, 2.2]], [[1, 2]]),        # float streams would be truncated
    ([[1, 2]], [[1.0, 2.0]]),
    ([1, 2], [1, 2]),                # 1-D: no per-step argmax
    ([[[1, 2]]], [[[1, 2]]]),        # 3-D
    ([[True, False]], [[True, False]]),
    ([[1, 2]], [[1, 2, 3]]),         # shapes differ
])
def test_fidelity_metrics_rejects_anything_but_2d_integer_streams(reference, observed):
    with pytest.raises(ValueError):
        fidelity_metrics(reference, observed)
