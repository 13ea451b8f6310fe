"""The simulator's batched fault corrections against dense or per-event
oracles.

``_decode_faults`` decodes the weight and logic faults of a block of
timesteps once, from the fault rows alone, which come as ``stream_rows``
gives them (the block's rows, step j's at ptr[j]:ptr[j + 1]): every
faulted PE track of the block, keyed by (step, track), goes through one
``weight_zeros`` call with EDC on, and one arrival-order lookup gives the
zeroed slots' and the MAC faults' groups, words and stored weights.  With
EDC off it keys the weight rows by (step, track, plane), one displaced
pair of a step's pass each, and decodes the pairs in units of consecutive
pairs, one ``weight_plane_reads`` call each over rows that start at each
pair's first fault, into flip rows in word order; a unit may split a step
or span several, and each MAC fault's weight gains the flips of its
track's pairs, which may lie in two units.  ``_apply_faults`` then applies
one step with the words it delivered, a (path, chunk) run of pairs at a
time: one exact product of the flip rows with the one vector that a
fault-free pass delivered to every group (``np.broadcast_to`` rows, as
``_layer_step_values`` passes them), or, after a pass with chain faults, a
row-wise product with each pair's group's words; and all logic faults as
array operations.  The oracle below is the per-track loop they replaced:
one single-track protocol pass per faulted track of a step (kept here in
its single-track form), a brute-force arrival order, and one lookup per
MAC fault that takes the weight as read when a weight fault of the same
step hit its track.  Both must give the same accumulators at every step of
the block and the same corrections, the held shifts among them, on the
fault plans of random seeds over blocks of several faulted steps, whose
paths deliver one vector or per-group words step by step, with decode
units small enough that some unit splits a step and large enough that
some spans several, and on hand-placed faults that the seeds do not
reliably produce.  Weight and MAC fault rows are both (neuron, gate, path,
slot, plane).

``_correct_deliveries`` corrects the accumulators for a faulted chain pass
with one exact ``_exact_matmul`` product per (chunk, group that delivered
a changed word there), over the run of neurons that group feeds in the
chunk and the chunk's columns from the group's first changed word to its
last.  Its oracle is a dense int64 product per chunk, every neuron against
the deliveries of its own group, and a spy on ``_exact_matmul`` holds each
product to those columns.
"""

import numpy as np
import pytest
from test_simulator import CELLS, LAYOUTS

from rnnfast import fixedpoint as fp
from rnnfast import simulator
from rnnfast.error_model import ErrorConfig, FaultPlan, stream_rows
from rnnfast.mapping import HardwareConfig, LayerSpec, NetworkSpec, map_network
from rnnfast.presets import generate_network_params
from rnnfast.racetrack import weight_plane_reads
from rnnfast.simulator import (_apply_faults, _correct_deliveries, _decode_faults, _LayerGeometry,
                               _magnitude)

SEEDS = range(20)
# Each layer's steps are one block, so that a block holds several faulted
# steps and their tracks must stay apart by step.
MAX_STEPS = 4


def single_track_pass(weights, fault_slots, edc):
    """One whole pass of one weight track; `fault_slots` maps a plane to its
    fault slots, where a repeated slot is one overshoot.  Returns (weights
    as read, zero substitutions, suppressed shifts), slot-0 faults taking
    effect as in ``weight_zeros`` and ``weight_plane_reads``."""
    w = np.asarray(weights, dtype=np.int64)
    k = len(w)
    if edc:
        zeros, suppressed = set(), 0
        for slots in fault_slots.values():
            held = None
            for s in sorted(set(slots)):
                if s == held:
                    continue
                zeros.add(s)
                held = s + 1
                suppressed += held < k
        out = w.copy()
        out[list(zeros)] = 0
        return out, len(zeros), suppressed
    unsigned = w & 0xFFFF
    idx = np.arange(k)
    for plane, slots in fault_slots.items():
        src = idx + np.searchsorted(np.unique(slots), idx, side="right")
        bits = np.where(src < k, (unsigned[np.minimum(src, k - 1)] >> plane) & 1, 0)
        unsigned = (unsigned & ~(1 << plane)) | (bits << plane)
    return np.where(unsigned >= 1 << 15, unsigned - (1 << 16), unsigned), 0, 0


def arrival_words(geo, lp, neuron, path, chunk):
    """The chunk's words in the order its feeding group receives them: group
    g receives word (base_g + s) mod n at step s."""
    chain = (lp.chain, lp.recurrent_chain)[path]
    n = chain.word_capacity
    group = int(geo.group_of[path, chunk, neuron])
    base = sum(chain.group_capacities[:group])
    lo = int(geo.lo[path, chunk])
    hi = lo + int(geo.size[path, chunk])
    return group, [w for w in ((base + s) % n for s in range(n)) if lo <= w < hi]


def oracle(lp, geo, params, weight_faults, mac_faults, edc, accs, seen, corrections,
           honour_weight_faults=True):
    def weights(gate, path):
        return (params.gates[gate].w_x, params.gates[gate].w_h)[path]

    effective = {}
    tracks = {}
    for neuron, gate, path, slot, plane in weight_faults.tolist():
        chunk = int(geo.chunk_of[path, slot])
        fault_slots = tracks.setdefault((neuron, gate, path, chunk), {})
        fault_slots.setdefault(plane, []).append(slot - int(geo.lo[path, chunk]))
    for (neuron, gate, path, chunk), fault_slots in tracks.items():
        group, words = arrival_words(geo, lp, neuron, path, chunk)
        stored = weights(gate, path)[neuron, words].astype(np.int64)
        read, zeroed, held = single_track_pass(stored, fault_slots, edc)
        corrections["weight_zeroed"] += zeroed
        corrections["suppressed_shifts"] += held
        accs[path, gate, neuron] += int((read - stored) @ seen[path][group, words])
        lo = int(geo.lo[path, chunk])
        for j, value in enumerate(read.tolist()):
            effective[(neuron, gate, path, lo + j)] = value
    for neuron, gate, path, slot, plane in mac_faults.tolist():
        chunk = int(geo.chunk_of[path, slot])
        group, words = arrival_words(geo, lp, neuron, path, chunk)
        word = words[slot - int(geo.lo[path, chunk])]
        wv = int(weights(gate, path)[neuron, word])
        if honour_weight_faults:
            wv = effective.get((neuron, gate, path, slot), wv)
        product = wv * int(seen[path][group, word])
        shift = plane + fp.FRAC_BITS
        accs[path, gate, neuron] += ((product >> shift) & 1) << shift


def random_state(rng, lp, params, shared=(False, False)):
    """Random accumulators and per-group deliveries.  On a path that
    `shared` marks, every group delivered one vector, which
    ``np.broadcast_to`` gives, as ``_layer_step_values`` passes a fault-free
    pass; on the others the words differ in every group, as after a chain
    fault, so a wrong group or word lookup shows."""
    accs = rng.integers(-(1 << 40), 1 << 40, (2, len(params.gates), lp.neurons))
    seen = []
    for chain, one in zip((lp.chain, lp.recurrent_chain), shared):
        groups, n = len(chain.group_capacities), chain.word_capacity
        if one:
            seen.append(np.broadcast_to(rng.integers(-32768, 32768, n), (groups, n)))
        else:
            seen.append(rng.integers(-32768, 32768, (groups, n)))
    return accs, seen


def block(*steps):
    """(ptr, rows) of a block whose step j has the weight or MAC fault rows
    steps[j], as ``stream_rows`` gives a block."""
    rows = [np.asarray(r, dtype=np.int32).reshape(-1, 5) for r in steps]
    return np.cumsum([0] + [len(r) for r in rows]), np.concatenate(rows)


def both(lp, geo, params, weight, mac, edc, states):
    """(accumulators of each step, corrections) of the decode/apply pair
    and of the oracle, over one block: `weight` and `mac` are the block's
    (ptr, rows), and states[j] is step j's (accs, seen)."""
    corrections = {"weight_zeroed": 0, "suppressed_shifts": 0}
    faults = _decode_faults(geo, params, weight, mac, edc, corrections)
    got = []
    for j, (accs, seen) in enumerate(states):
        a = accs.copy()
        _apply_faults(faults, j, seen, a)
        got.append(a.tolist())
    oracle_corrections = {"weight_zeroed": 0, "suppressed_shifts": 0}
    want = []
    for j, (accs, seen) in enumerate(states):
        a = accs.copy()
        wf, mf = (rows[ptr[j]:ptr[j + 1]] for ptr, rows in (weight, mac))
        oracle(lp, geo, params, wf, mf, edc, a, seen, oracle_corrections)
        want.append(a.tolist())
    return (got, corrections), (want, oracle_corrections)


def placed_faults(geo, gates):
    """Weight and MAC fault rows, per path, on the path's shortest chunk of
    2 words or more (a chunk may hold 0 or 1 words) of neuron 0's last gate:
    two faults on one plane near the chunk's end, so that the plane reads 2
    words on and then blank (a plan never repeats a row, so neither do
    these), a fault on a second plane, and MAC faults before, at and after
    that plane's fault, also on neuron 1 (whose track has no weight
    fault)."""
    weight, mac = [], []
    gate = gates - 1
    for path in (0, 1):
        size = geo.size[path]
        chunk = int(np.flatnonzero(size == size[size >= 2].min())[-1])
        lo, k = int(geo.lo[path, chunk]), int(size[chunk])
        weight += [(0, gate, path, lo + max(k - 3, 0), 3), (0, gate, path, lo + max(k - 2, 1), 3),
                   (0, gate, path, lo + k // 2, 15)]
        for neuron in (0, 1):
            mac += [(neuron, gate, path, lo + min(max(k // 2 + d, 0), k - 1), plane)
                    for d, plane in ((-1, 0), (0, 7), (1, 15))]
    return block(weight), block(mac)


def layout_net(cell, layout):
    hw, widths, steps = LAYOUTS[layout]
    layers = tuple(LayerSpec(cell, m, n) for n, m in zip(widths, widths[1:]))
    return map_network(NetworkSpec(layers, min(steps, MAX_STEPS)), hw)


def check_seeds(placement, geos, edc, seeds):
    """Hold the decode/apply pair against the oracle on the weight and logic
    fault plans of `seeds`, each layer's steps as one block, with random
    accumulators and deliveries at every step: each path of each step
    delivers one vector to every group (a fault-free pass) or different
    words to each (a pass with chain faults), drawn step by step.  Returns
    (weight faults, zeroed slots, logic faults, steps with weight faults,
    blocks with several of them, the set of (x shared, h shared) of the
    steps with weight faults) over all layers."""
    faults = weight_zeroed = logic = steps = multi = 0
    routes = set()
    T = placement.spec.timesteps
    for seed in seeds:
        params = generate_network_params(placement.spec, 100 + seed)
        cfg = ErrorConfig(p_overshift=5e-2, sites={"weight_arrays", "logic"},
                          edc_weights=edc, seed=seed)
        plan = FaultPlan(cfg, placement)
        rng = np.random.default_rng(seed)
        for l, (lp, geo, p) in enumerate(zip(placement.layers, geos, params)):
            wf = stream_rows(plan.weight_faults[l], 0, T)
            mf = stream_rows(plan.mac_faults[l], 0, T)
            shared = [tuple(rng.random(2) < 0.5) for _t in range(T)]
            states = [random_state(rng, lp, p, one) for one in shared]
            got, want = both(lp, geo, p, wf, mf, edc, states)
            assert got == want, (seed, l)
            faulted = np.count_nonzero(np.diff(wf[0]))
            faults += len(wf[1])
            steps += faulted
            multi += faulted > 1
            routes |= {one for one, n in zip(shared, np.diff(wf[0])) if n}
            weight_zeroed += want[1]["weight_zeroed"]
            logic += len(mf[1])
    return faults, weight_zeroed, logic, steps, multi, routes


@pytest.mark.parametrize("edc", [False, True], ids=["edc-off", "edc-on"])
@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_fault_step_matches_the_per_event_oracle(layout, cell, edc):
    placement = layout_net(cell, layout)
    geos = [_LayerGeometry(lp, placement.hw, None) for lp in placement.layers]
    faults, weight_zeroed, logic, _steps, multi, routes = check_seeds(placement, geos, edc, SEEDS)
    rng = np.random.default_rng(99)
    for lp, geo, p in zip(placement.layers, geos, generate_network_params(placement.spec, 99)):
        for shared in ((False, False), (True, True)):
            accs, seen = random_state(rng, lp, p, shared)
            wf, mf = placed_faults(geo, len(p.gates))
            got, want = both(lp, geo, p, wf, mf, edc, [(accs, seen)])
            assert got == want, ("placed", lp.index, shared)
            assert want[0] != [accs.tolist()]
    assert faults > 0 and logic > 0 and multi > 0
    assert (weight_zeroed > 0) == edc
    assert routes == {(False, False), (False, True), (True, False), (True, True)}


def record_units(monkeypatch):
    """Record each decoded unit as (decoder, unit, the steps it holds pairs
    of, whether it shares a step with another unit), and count the
    ``weight_plane_reads`` calls."""
    units, calls = [], []

    def counted(bits, faults):
        calls.append(len(bits))
        return weight_plane_reads(bits, faults)

    decode = simulator._Misreads._decode

    def recorded(self, u):
        # A step's pieces are (unit, first row, rows, path, words).
        held = {j: {piece[0] for piece in pieces} for j, pieces in enumerate(self.pieces)}
        steps = sorted(j for j, us in held.items() if u in us)
        units.append((self, u, steps, any(len(held[j]) > 1 for j in steps)))
        return decode(self, u)

    monkeypatch.setattr(simulator, "weight_plane_reads", counted)
    monkeypatch.setattr(simulator._Misreads, "_decode", recorded)
    return units, calls


def unit_budget(monkeypatch, width, pairs):
    """Set _BLOCK_BYTES so that a decode unit of a layer whose widest chunk
    is `width` words holds `pairs` pairs (two bytes per pair and word); a
    wider layer's holds fewer, and at least one."""
    monkeypatch.setattr(simulator, "_BLOCK_BYTES", 2 * width * pairs)


@pytest.mark.parametrize("edc", [False, True], ids=["edc-off", "edc-on"])
@pytest.mark.parametrize("layout", ["split", "long"])
def test_fault_step_matches_the_oracle_across_pair_blocks(layout, edc, monkeypatch):
    """With EDC off, ``_decode_faults`` cuts a block's displaced (track,
    plane) pairs, in (step, track, plane) order, into blocks of pairs, its
    decode units, of _BLOCK_BYTES // (2 * width) pairs, and the tiny
    layouts fit one unit.  Units of one pair, of one track width and of a
    few widths (of the narrowest layer's tracks) cut the blocks of time
    steps so that some unit splits a step and some unit spans several.
    Each unit is decoded once, with one ``weight_plane_reads`` call; with
    EDC on there is none."""
    units, calls = record_units(monkeypatch)
    split = spans = 0
    for cell in CELLS:
        placement = layout_net(cell, layout)
        geos = [_LayerGeometry(lp, placement.hw, None) for lp in placement.layers]
        width = min(int(geo.size.max()) for geo in geos)
        for pairs in (1, width, 3 * width + 1):
            unit_budget(monkeypatch, width, pairs)
            units.clear()
            calls.clear()
            faults, _zeroed, logic, *_ = check_seeds(placement, geos, edc, range(4))
            assert faults > 0 and logic > 0
            assert len(calls) == len(units), (cell, pairs)
            assert len({u[:2] for u in units}) == len(units), (cell, pairs)
            assert bool(units) != edc, (cell, pairs)
            assert all(steps for _, _, steps, _ in units), (cell, pairs)
            split += any(shares for *_, shares in units)
            spans += any(len(steps) > 1 for _, _, steps, _ in units)
    assert (split > 0 and spans > 0) != edc


def test_a_mac_fault_reads_flips_from_two_decode_units(monkeypatch):
    """Weight faults on planes 14 and 15 of one track, and MAC faults at
    the track's last arrival slot in the same step.  The stored weight there
    is negative, so both its bits are set, and both planes read blank there.
    With units of one pair, a unit boundary falls between the two planes,
    and the MAC faults' weight gains flips from both units:
    -2^14 and +2^15."""
    units, _calls = record_units(monkeypatch)
    placement = layout_net("LSTM", "split")
    lp = placement.layers[0]
    geo = _LayerGeometry(lp, placement.hw, None)
    params = generate_network_params(placement.spec, 5)[0]
    gate, path, chunk = 1, 0, 1
    lo, size = int(geo.lo[path, chunk]), int(geo.size[path, chunk])
    assert size >= 4
    w = params.gates[gate].w_x
    neuron, word = next((n, words[-1]) for n in range(lp.neurons)
                        for _group, words in [arrival_words(geo, lp, n, path, chunk)]
                        if w[n, words[-1]] < 0)
    wf = block([[neuron, gate, path, lo + 1, 14], [neuron, gate, path, lo + 2, 15]])
    mf = block([[neuron, gate, path, lo + size - 1, plane] for plane in (0, 7)])
    unit_budget(monkeypatch, int(geo.size.max()), 1)
    accs, seen = random_state(np.random.default_rng(5), lp, params)
    got, want = both(lp, geo, params, wf, mf, False, [(accs, seen)])
    assert got == want
    assert [u[1] for u in units] == [0, 1]
    misreads, products = _decode_faults(geo, params, wf, mf, False, {})
    _apply_faults((misreads, products), 0, seen, accs.copy())
    assert products[6].tolist() == [int(w[neuron, word]) - (1 << 14) + (1 << 15)] * 2


@pytest.mark.parametrize("edc", [False, True], ids=["edc-off", "edc-on"])
def test_a_logic_fault_reads_the_weight_its_track_read_this_step(edc):
    """A MAC fault and a weight fault on one (neuron, gate, path, slot): the
    product uses the weight as read, which differs from the stored one for
    some planes."""
    placement = layout_net("LSTM", "split")
    lp = placement.layers[0]
    geo = _LayerGeometry(lp, placement.hw, None)
    params = generate_network_params(placement.spec, 7)[0]
    rng = np.random.default_rng(7)
    accs, seen = random_state(rng, lp, params)
    neuron, gate, path = 3, 2, 0
    slot = int(geo.lo[path, 1]) + 2    # third slot of chunk 1
    honoured = 0
    for plane_w in range(16):
        for plane_m in (0, 7, 15):
            wf = block([[neuron, gate, path, slot, plane_w]])
            mf = block([[neuron, gate, path, slot, plane_m],
                        [neuron + 1, gate, path, slot, plane_m]])
            got, want = both(lp, geo, params, wf, mf, edc, [(accs, seen)])
            assert got == want, (plane_w, plane_m)
            naive = accs.copy()
            corrections = {"weight_zeroed": 0, "suppressed_shifts": 0}
            oracle(lp, geo, params, wf[1], mf[1], edc, naive, seen, corrections,
                   honour_weight_faults=False)
            honoured += [naive.tolist()] != want[0]
    assert honoured > 0


def test_edc_on_faults_on_consecutive_slots_of_consecutive_steps_zero_both():
    """One (neuron, gate, path, plane) faulted at slot s in step 1 and at
    slot s + 1 in step 2 of a block.  Each step makes its own pass over the
    track, so both slots zero and each fault holds a shift; a decode whose
    track key left the step out would see one run of two faults and zero
    slot s only.  MAC faults on those slots read 0 in the step whose slot
    zeroed and the stored weight in the other."""
    placement = layout_net("LSTM", "split")
    lp = placement.layers[0]
    geo = _LayerGeometry(lp, placement.hw, None)
    params = generate_network_params(placement.spec, 8)[0]
    rng = np.random.default_rng(8)
    states = [random_state(rng, lp, params) for _t in range(3)]
    neuron, gate, path, plane = 3, 2, 0, 9
    slot = int(geo.lo[path, 1]) + 2    # third of chunk 1's at least five slots
    assert geo.size[path, 1] >= 5
    wf = block([], [[neuron, gate, path, slot, plane]], [[neuron, gate, path, slot + 1, plane]])
    mf = block([], *[[[neuron, gate, path, s, 7] for s in (slot, slot + 1)]] * 2)
    got, want = both(lp, geo, params, wf, mf, True, states)
    assert got == want
    assert want[1] == {"weight_zeroed": 2, "suppressed_shifts": 2}


def dense_deliveries(geo, params, path, delta, accs):
    """The per-chunk oracle: every neuron's chunk against the deliveries of
    the group that feeds it, for every gate, in int64."""
    for chunk, (lo, size) in enumerate(zip(geo.lo[path], geo.size[path])):
        d = delta[geo.group_of[path, chunk], lo:lo + size]
        if d.any():
            for k, gate in enumerate(params.gates):
                w = (gate.w_x, gate.w_h)[path][:, lo:lo + size].astype(np.int64)
                accs[path, k] += np.einsum("nk,nk->n", w, d)


# One-layer nets beside LAYOUTS, as (hardware, neurons, inputs).  In
# "unfed", 200 inputs fill four x-chain groups of 50 words, and all 4
# neurons take their one chunk from group 0: groups 1-3 feed no neuron.  In
# "extremes", the first x chunk is 2,560 words, as wide as the widest
# preset PE; weights sit at -32,768 and 32,767 and deltas at +-65,535.
DELIVERY_NETS = {
    "unfed": (HardwareConfig(), 4, 200),
    "extremes": (HardwareConfig(weights_per_pe=2560, tiles_per_group=32), 4, 5115),
}


def address(a):
    return a.__array_interface__["data"][0], a.shape


def hull_spans(geo, path, weights, delta):
    """The views that ``_correct_deliveries`` should multiply, as sorted
    (address, shape) of each gate's block: one list per (chunk, group that
    feeds neurons there and changed a word of it), the group's neurons
    n0:n1 over the chunk's columns from its first nonzero delta to its
    last."""
    spans = []
    for chunk, (lo, size) in enumerate(zip(geo.lo[path], geo.size[path])):
        for g in range(len(delta)):
            fed = np.flatnonzero(geo.group_of[path, chunk] == g)
            nonzero = np.flatnonzero(delta[g, lo:lo + size])
            if fed.size and nonzero.size:
                n0, n1 = fed[0], fed[-1] + 1
                w0, w1 = lo + nonzero[0], lo + nonzero[-1] + 1
                spans.append([address(w[n0:n1, w0:w1]) for w in weights])
    return sorted(spans)


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("layout", [*LAYOUTS, *DELIVERY_NETS])
def test_delivery_corrections_match_the_dense_oracle(monkeypatch, layout, cell):
    """Sparse and dense changes on every chain of the layout.  The split
    and multi-tile (long) layouts have several chunks per neuron fed by
    several chain groups (one group for packed Vanilla in long), and the
    packed layout several chunks per neuron on one group.  Changes that
    only groups feeding no neuron delivered correct nothing, and sums of
    2,560 products of extreme weights and deltas stay exact.  Each change
    is corrected from the int16 weights and, on the h path, from the
    float32 stack's rows of each gate, as ``_layer_values`` passes them.
    Each product spans exactly one (chunk, feeding group)'s columns from
    its first nonzero delta to its last, and a (chunk, group) without one
    makes none.  Deltas of one plane (+-2^k) take float32 products, the
    others float64."""
    if layout in LAYOUTS:
        placement = layout_net(cell, layout)
    else:
        hw, m, n = DELIVERY_NETS[layout]
        placement = map_network(NetworkSpec((LayerSpec(cell, m, n),), 1), hw)
    params = generate_network_params(placement.spec, 3)
    rng = np.random.default_rng(3)
    shapes = set()
    spans = []
    exact = simulator._exact_matmul

    def spy(blocks, v, w_max):
        spans.append([address(b) for b in blocks])
        return exact(blocks, v, w_max)

    monkeypatch.setattr(simulator, "_exact_matmul", spy)

    def check(geo, p, path, delta, tag):
        accs = rng.integers(-(1 << 40), 1 << 40, (2, len(p.gates), p.gates[0].hidden))
        want = accs.copy()
        dense_deliveries(geo, p, path, delta, want)
        w_max = max(_magnitude(w) for g in p.gates for w in (g.w_x, g.w_h))
        weights = [[g.w_x for g in p.gates], [g.w_h for g in p.gates]][path]
        forms = [weights]
        if path:
            forms.append(np.split(np.concatenate(weights, dtype=np.float32), len(p.gates)))
        for w in forms:
            got = accs.copy()
            spans.clear()
            _correct_deliveries(geo, path, w, delta, w_max, got)
            assert got.tolist() == want.tolist(), (tag, w[0].dtype)
            assert sorted(spans) == hull_spans(geo, path, w, delta), (tag, w[0].dtype)
        return want.tolist() == accs.tolist()

    for lp, p in zip(placement.layers, params):
        geo = _LayerGeometry(lp, placement.hw, None)
        if layout == "extremes":
            assert geo.size.max() == 2560
            for gate in p.gates:
                for w in (gate.w_x, gate.w_h):
                    w[...] = rng.choice((fp.RAW_MIN, fp.RAW_MAX), w.shape)
                    w[0], w[-1] = fp.RAW_MAX, fp.RAW_MIN
        for path, chain in enumerate((lp.chain, lp.recurrent_chain)):
            shape = (len(chain.group_capacities), chain.word_capacity)
            shapes.add((geo.size.shape[1] > 1, shape[0] > 1))
            for density in (0.01, 0.2, 1.0):
                if layout == "extremes":
                    delta = rng.choice((-65535, 65535), shape)
                else:
                    delta = rng.integers(-65535, 65536, shape)
                delta *= rng.random(shape) < density
                check(geo, p, path, delta, (lp.index, path, density))
                plane = rng.integers(16)
                delta = rng.choice((-1, 1), shape) << plane
                delta *= rng.random(shape) < density
                check(geo, p, path, delta, (lp.index, path, density, "plane", plane))
            if layout == "extremes":
                check(geo, p, path, np.full(shape, 65535), (lp.index, path, "all +65535"))
                check(geo, p, path, np.full(shape, -32768), (lp.index, path, "all -32768"))
            if layout == "unfed" and path == 0:
                assert shape[0] == 4 and not geo.group_of[path].any()
                delta = rng.integers(-65535, 65536, shape)
                delta[0] = 0
                assert check(geo, p, path, delta, (lp.index, path, "groups 1-3"))
    if layout == "split" or (layout == "long" and cell != "Vanilla"):
        assert (True, True) in shapes
    if layout == "packed":
        assert (True, False) in shapes
