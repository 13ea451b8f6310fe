"""Cycle-level execution engine with per-operation energy accounting.

Values and timing are deliberately decoupled and run as two loops:

* The value path runs layer-major: a layer consumes the whole output
  stream of the layer below.  Its input-path accumulators for every gate
  come from one matrix product per block of TIME_BLOCK timesteps, its
  recurrent-path accumulators from one product per timestep over the
  stacked gates.  Both go through ``_exact_matmul``, which casts int16
  weight rows a block at a time into one small float64 buffer and lets
  BLAS multiply.  This is exact: a product of two raw Q8.8 values obeys
  |w*x| <= 2^30, so every partial sum of n < 2^23 products is an integer
  below 2^53, which float64 holds exactly in any summation order (the
  error-free argument of Ozaki et al., Numer. Algorithms, 2012).
  ``simulate`` therefore rejects weights, biases and inputs outside the
  16-bit range.  The step's fault effects from the run's FaultPlan then
  correct the accumulators in int64, and each costs array work in
  proportion to the planes and words it changes, not to whole tracks or
  passes.  With EDC off, a chain pass with faults is computed in closed
  form: only its displaced planes differ from the fault-free pass, and
  each of their deliveries is followed back through the group queues.
  With EDC on it is replayed through the word-level track model
  (``InputTrackChain``) from the first faulted step to the step after the
  last fault, and every delivery is the fault-free word.  Each word a
  group delivered differently corrects, in every gate, only the neurons
  whose chunk of that word the group feeds.  Passes are booked in closed
  form less the shifts that EDC corrections held back.  Weight faults go
  through the one implementation of the weight-track protocol in
  ``racetrack``, one call per (layer, timestep) from the fault rows alone:
  with EDC on, ``weight_zeros`` gives the zeroed slots, and each takes its
  stored weight times its delivered word off the accumulator; with EDC
  off, ``weight_misreads`` gives the slots whose displaced plane reads
  another slot's bit, and only that plane's bits are looked up.  Logic
  faults are one vectorized pass: each perturbs one bit of its MAC product
  (the weight as its track read it, times the word its chain group
  delivered) by one significance position.  The narrowed accumulators go
  through ``lstm_core.cell_output``, the one copy of the cell equations,
  with activation faults applied by its hook.  With no faults the outputs
  are bit-identical to ``lstm_core.cell_step``.

* The timing path runs timestep-major and drives representative MAC
  pipelines (one unit per layer is simulated; units are identical and run
  in lockstep, so event counts multiply out exactly).  A layer's timestep
  streams max(inputs, neurons) words at one delivery per issue interval
  (plus any cross-group stall), drains the 96-cycle pipeline, then pays
  the aggregation hops and the activation stages.  Layer l timestep t
  starts when layer l-1 has produced x_t and the layer's own t-1
  evaluation has finished.  Faults never change timing.

``analytic_cycles`` computes the same quantity from the closed form alone
and must agree exactly with the engine on error-free runs; it is the
timing oracle, not a shared code path.

The energy ledger counts per-nanowire events (a 16-bit word access is 16
plane events) and converts exactly: rates are held in attojoules as
integers, so micro-run energies match hand arithmetic to the picojoule.
EDC pattern maintenance is tracked in separate counters (edc_read /
edc_write), so mitigation adds nothing to the compute counters on
fault-free runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fp
from .error_model import PATHS, ErrorConfig, FaultPlan, gate_paths
from .lstm_core import ACT_STAGES, NONLINEAR_EVALS, MacPipeline, cell_output
from .mapping import HardwareConfig, Placement, _split_even
from .nonlinear import activation_fns
from .racetrack import WORD_PLANES, InputTrackChain, weight_misreads, weight_zeros

# Per-operation energy, picojoules.  Track rates are the device parameters;
# the rest are desk defaults derived from each unit's racetrack composition
# (MAC: 272 single-bit adders at shift-class cost; approx activation: 16-cell
# track walk; LUT activation: up to 8 shifts + 1 read; aggregation hop: a
# 40-bit wide partial, 3 words of shift-based writes; interconnect: wired
# inter-group hop).  With LUT activations, LUT_NONLINEAR_PJ replaces the
# nonlinear_eval rate.
DEFAULT_ENERGY_PJ = {
    "track_read": 0.39,
    "track_shift": 0.24,
    "track_write": 0.0096,
    "edc_read": 0.39,
    "edc_write": 0.0096,
    "mac_issue": 65.28,
    "nonlinear_eval": 3.84,
    "aggregation_hop": 0.4608,
    "interconnect_word": 1.0,
}
LUT_NONLINEAR_PJ = 2.31

_ATTO_PER_PJ = 10**6

# The value of a set bit in each plane of a raw Q8.8 weight.
_PLANE_VALUES = np.array([1 << k for k in range(WORD_PLANES - 1)] + [-(1 << (WORD_PLANES - 1))])

# Timesteps whose input paths share one kernel call.
TIME_BLOCK = 64
# Float64 elements of the kernel's weight-row buffer (512 KB): small enough
# that BLAS reads the rows from cache right after the cast writes them.
_BLOCK_ELEMS = 1 << 16


class EnergyLedger:
    """Monotone event counters with exact energy conversion.

    The ops are the keys of DEFAULT_ENERGY_PJ, at those rates; an unknown op
    in `add` raises ValueError.
    """

    def __init__(self, activation_impl="approx"):
        rates = dict(DEFAULT_ENERGY_PJ)
        if activation_impl == "lut":
            rates["nonlinear_eval"] = LUT_NONLINEAR_PJ
        self.rates_aj = {k: round(v * _ATTO_PER_PJ) for k, v in rates.items()}
        self.counters = {k: 0 for k in self.rates_aj}

    def add(self, op, n):
        if op not in self.counters:
            raise ValueError(f"unknown ledger op {op!r}")
        if n < 0:
            raise ValueError("ledger counters are monotone")
        self.counters[op] += int(n)

    def energy_pj(self) -> float:
        total_aj = sum(self.counters[k] * self.rates_aj[k] for k in self.counters)
        return total_aj / _ATTO_PER_PJ

    def as_dict(self) -> dict:
        return dict(sorted(self.counters.items()))


def energy_report(ledger: EnergyLedger, hw: HardwareConfig) -> dict:
    """Exact multiply-and-sum energy breakdown, with the track op latencies
    of `hw`."""
    per_op = {
        op: ledger.counters[op] * ledger.rates_aj[op] / _ATTO_PER_PJ
        for op in sorted(ledger.counters)
    }
    return {
        "counters": ledger.as_dict(),
        "energy_pj_per_op": per_op,
        "total_energy_pj": ledger.energy_pj(),
        "latency_cycles_per_op": {
            "track_read": hw.read_latency_cycles,
            "track_shift": hw.shift_latency_cycles,
            "track_write": hw.write_latency_cycles,
        },
    }


@dataclass
class RunResult:
    outputs: list
    total_cycles: int
    total_energy_pj: float
    counters: dict
    per_layer: list
    corrections: dict
    mac_sample: list
    error_config: dict | None
    timesteps: int

    def to_dict(self) -> dict:
        return {
            "timesteps": self.timesteps,
            "total_cycles": self.total_cycles,
            "total_energy_pj": self.total_energy_pj,
            "counters": dict(sorted(self.counters.items())),
            "per_layer": self.per_layer,
            "corrections": dict(sorted(self.corrections.items())),
            "mac_sample": self.mac_sample[:8],
            "error_config": self.error_config,
            "outputs": [layer.tolist() for layer in self.outputs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _chain_bases(capacities):
    """First word index held by each group of a chain."""
    return np.cumsum((0,) + tuple(capacities[:-1]))


class _LayerGeometry:
    """Per-layer tables, built once per run.

    Slot lookup: each weight path (code 0, "x", over the input words; code
    1, "h", over the recurrent words) is cut into contiguous chunks, one per
    PE track.  Indexed by path code, the tables give each chunk's first
    word and size, each slot's chunk, the chain group that feeds each
    neuron's chunk (and, the other way round, the neurons whose chunk each
    group feeds), and ``turn[path, group, chunk]``: how far the chunk is
    rotated when it reaches that group.  ``locate`` turns these into the
    words of a batch of tracks in arrival order; no per-word table is kept.

    Step events: the ledger events of one fault-free (layer, timestep), one
    pass of both input chains included, and the per-layer counts.  Faults
    change only ``track_shift``: each EDC correction holds one later shift.
    """

    def __init__(self, lp, hw, cfg):
        m, n = lp.neurons, lp.inputs
        u = lp.units_per_neuron
        # One chunk per PE of a gate, on the units where the mapper puts it:
        # a Vanilla neuron's PEs fill a unit before the next, an LSTM or GRU
        # neuron has one PE of each gate on each of its units.
        n_chunks = lp.pes_per_neuron
        per_unit = hw.pes_per_unit if lp.cell_type == "Vanilla" else 1
        units = (np.arange(m) // lp.neurons_per_unit) * u + np.arange(n_chunks)[:, None] // per_unit
        tiles = units // hw.lstm_units_per_tile
        edc_in = bool(cfg and cfg.edc_inputs)
        edc_w = bool(cfg and cfg.edc_weights)
        chains = (lp.chain, lp.recurrent_chain)
        bases = [_chain_bases(layout.group_capacities) for layout in chains]
        self.size = np.array([_split_even(layout.word_capacity, n_chunks) for layout in chains])
        self.lo = np.cumsum(self.size, axis=1) - self.size
        self.chunk_of = np.zeros((2, max(n, m)), dtype=np.int64)
        self.group_of = np.empty((2, n_chunks, m), dtype=np.int64)
        self.turn = np.zeros((2, max(map(len, bases)), n_chunks), dtype=np.int64)
        for p, (layout, b) in enumerate(zip(chains, bases)):
            self.chunk_of[p, :layout.word_capacity] = np.repeat(np.arange(n_chunks), self.size[p])
            self.group_of[p] = np.minimum(tiles, len(b) - 1)
            # Group g receives word (base_g + s) mod n at step s, so each
            # chunk reaches it rotated to start at its first word >= base_g.
            self.turn[p, :len(b)] = np.clip(b[:, None] - self.lo[p], 0, self.size[p])
        # The neurons whose chunk c group g feeds, for every (c, g) in turn,
        # with G = turn.shape[1]:
        # fed[path, fed_ptr[path, c * G + g]:fed_ptr[path, c * G + g + 1]].
        feeds = (np.arange(n_chunks)[:, None] * self.turn.shape[1] + self.group_of).reshape(2, -1)
        order = np.argsort(feeds, axis=1, kind="stable")
        self.fed = order % m
        self.fed_ptr = np.stack([
            np.searchsorted(f[o], np.arange(n_chunks * self.turn.shape[1] + 1))
            for f, o in zip(feeds, order)
        ])
        # One pass of each chain: every group reads, shifts and writes all 16
        # planes once per word.
        chain_steps = 16 * (
            len(lp.chain.group_capacities) * n + len(lp.recurrent_chain.group_capacities) * m
        )
        paths = [PATHS.index(p) for _g, p in gate_paths(lp.cell_type)]
        words = sum(n if p == 0 else m for p in paths)
        advances = sum(int(np.maximum(self.size[p] - 1, 0).sum()) for p in paths)
        rewinds = words if hw.rewind_cost == "full_pass" else 0
        self.step_events = {
            "track_read": 16 * m * words + chain_steps,
            "track_shift": 16 * m * (advances + rewinds) + chain_steps,
            "mac_issue": m * words,
            "edc_read": (16 * m * advances if edc_w else 0) + (chain_steps if edc_in else 0),
            "edc_write": 3 * chain_steps if edc_in else 0,
            "nonlinear_eval": m * NONLINEAR_EVALS[lp.cell_type],
            "aggregation_hop": m * (u - 1),
            # chain writes, next-layer write + recurrent restage, layer 0's staging
            "track_write": chain_steps + 16 * m * 2 + (16 * n if lp.index == 0 else 0),
            "interconnect_word": lp.chain.boundaries * n + lp.recurrent_chain.boundaries * m,
        }
        self.step_counts = {
            "chain_reads": chain_steps,
            "weight_reads": 16 * m * words,
            "mac_issues": m * words,
            "rotation_steps": n,
        }

    def locate(self, neurons, paths, chunks, positions, rows=None):
        """(chain groups, words) of a batch of PE tracks, given as arrays of
        neurons, path codes and chunks: the group that feeds each track, and
        the words at `positions`, slots in [0, size) of the tracks.  A track
        holds its chunk's words in the order they reach its group.  Row i of
        `positions` belongs to track i, or with `rows`, to track rows[i]."""
        group = self.group_of[paths, chunks, neurons]
        lo, size = self.lo[paths, chunks], self.size[paths, chunks]
        turn = self.turn[paths, group, chunks]
        if rows is not None:
            lo, size, turn = lo[rows], size[rows], turn[rows]
        at = turn[:, None] + positions
        return group, lo[:, None] + np.where(at < size[:, None], at, at - size[:, None])


def _check_raw(what, a):
    """Reject anything but raw Q8.8 integers; the value path's exactness
    (see ``_exact_matmul``) rests on the 16-bit range."""
    if not a.size:
        return
    if a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be raw Q8.8 integers, not {a.dtype}")
    info = np.iinfo(a.dtype)
    if info.min >= fp.RAW_MIN and info.max <= fp.RAW_MAX:
        return
    if a.min() < fp.RAW_MIN or a.max() > fp.RAW_MAX:
        raise ValueError(f"{what} must lie in [{fp.RAW_MIN}, {fp.RAW_MAX}]")


def _run_faulted_chain(layout, words_raw, faults, edc_enabled):
    """Deliveries of one pass whose chain has faults.

    `faults` holds ``FaultPlan``'s rows (step, group, plane).  Returns
    (seen, corrected, held): seen[group, word] is the value the group
    delivered for that word, `corrected` counts the plane reads EDC
    corrected, and `held` the shifts those corrections held back.  A
    correction holds its plane's next shift, so one at the pass's last step
    holds none.

    With EDC off nothing is corrected, and only the planes that carry a
    fault differ from the fault-free pass; planes never mix.  Group g
    delivers at step s the word at queue position min(e, cap_g - 1) of
    plane k, e the faults on (g, k) at steps <= s.  Queue position j at
    step s holds staged word base_g + s + j while s + j < cap_g, and after
    that what group g + 1 delivered at step s + j - cap_g.  Each delivery
    of a displaced plane is followed back through the queues to a staged
    word, all of them at once.

    With EDC on the pass is replayed through ``InputTrackChain`` over the
    window its faults can reach.  Every step before the first fault s0
    delivers its fault-free word, so the replay starts there, from the
    chain as s0 fault-free steps leave it: group g holds words
    (base_g + s0 + i) mod n.  It stops after the step that follows the last
    fault, which releases the held planes; from there on the chain carries
    no state and delivers fault-free words again.
    """
    n_words = layout.word_capacity
    caps = np.asarray(layout.group_capacities)
    bases = _chain_bases(caps)
    groups = np.arange(len(caps))
    words = np.asarray(words_raw, dtype=np.int64) & 0xFFFF
    # order[g, s]: the word group g delivers at step s without faults.
    order = (bases[:, None] + np.arange(n_words)) % n_words
    seen = np.tile(words, (len(caps), 1))
    step, group, plane = np.asarray(faults, dtype=np.int64).T
    corrected = held = 0
    if not edc_enabled:
        planes, pair = np.unique(plane, return_inverse=True)
        faulted = np.zeros((len(planes), len(caps), n_words), dtype=np.int64)
        faulted[pair, group, step] = 1
        # Each delivery (plane, group, step) reads queue position `at`,
        # counted from the pass's start: a staged word, or else the
        # delivery (plane, group + 1, at - cap) that it copies, whose index
        # in the flattened array is `link`.
        at = np.arange(n_words) + np.minimum(np.cumsum(faulted, axis=2), caps[:, None] - 1)
        src = np.where(at < caps[:, None], bases[:, None] + at, -1).ravel()
        right = np.arange(len(planes))[:, None, None] * len(caps) + (groups[:, None] + 1) % len(caps)
        link = (right * n_words + at - caps[:, None]).ravel()
        # Follow the links by pointer jumping: each round doubles the hops
        # followed, and each hop lowers the step, so the rounds end.
        todo = np.flatnonzero(src < 0)
        while todo.size:
            ahead = link[todo]
            src[todo], link[todo] = src[ahead], link[ahead]
            todo = todo[src[todo] < 0]
        mask = np.bitwise_or.reduce(1 << planes)
        bits = (words[src].reshape(faulted.shape) >> planes[:, None, None]) & 1
        delivered = words[order] & ~mask | (bits << planes[:, None, None]).sum(axis=0)
        seen[groups[:, None], order] = delivered
    else:
        by_step = {}
        for s, g, k in zip(step.tolist(), group.tolist(), plane.tolist()):
            by_step.setdefault(s, {}).setdefault(g, []).append(k)
        first, stop = min(by_step), min(max(by_step) + 2, n_words)
        chain = InputTrackChain(list(layout.group_capacities), edc_enabled=True)
        chain.stage(np.roll(words, -first).tolist())
        last = 0
        for s in range(first, stop):
            delivered, fixed = chain.rotate_step(by_step.get(s))
            seen[groups, order[:, s]] = delivered
            last = sum(map(len, fixed))
            corrected += last
        held = corrected - last
    return np.where(seen >= 1 << 15, seen - (1 << 16), seen), corrected, held


def _act_fault_hook(rows):
    """The ``cell_output`` hook for one step's activation fault rows
    (neuron, wave, plane): each mis-shifts one bit of its result toward
    higher significance, then saturates.  A (neuron, wave) occurs at most
    once, so each wave is one array update."""
    neuron, wave, plane = rows.T.astype(np.int64)

    def hook(vals, k):
        at = wave == k
        n, p = neuron[at], plane[at]
        v = vals[n]
        vals[n] = fp.saturate(v + (((v >> p) & 1) << p))
        return vals

    return hook


def _weights(params, gate, path):
    gw = params.gates[gate]
    return gw.w_x if path == 0 else gw.w_h


def _take_sorted(mats, codes, bases, words, rows=None):
    """mats[codes[t]].flat[bases[t] + w] for each entry w of `words`, as
    int64, for a batch of tracks t sorted by code: one 1-D take per matrix.
    Row i of `words` belongs to track i, or with `rows` (sorted), to track
    rows[i]."""
    bounds = np.searchsorted(codes, np.arange(len(mats) + 1))
    if rows is not None:
        bounds, bases = np.searchsorted(rows, bounds), bases[rows]
    flat = bases[:, None] + words
    return np.concatenate([
        np.take(mat, flat[lo:hi]) for mat, lo, hi in zip(mats, bounds, bounds[1:])
    ]).astype(np.int64)


def _stored(params, gates, paths, neurons, words, rows=None):
    """Stored weights W[path][gate][neuron, word] of PE tracks sorted by
    (path, gate), as ``_take_sorted`` reads them."""
    g = len(params.gates)
    mats = [_weights(params, gate, path) for path in (0, 1) for gate in range(g)]
    cols = np.array([mats[0].shape[1], mats[g].shape[1]])
    return _take_sorted(mats, paths * g + gates, neurons * cols[paths], words, rows)


def _delivered(seen, paths, groups, words, rows=None):
    """Words as delivered, seen[path][group, word], to PE tracks sorted by
    path, as ``_take_sorted`` reads them."""
    cols = np.array([by_group.shape[1] for by_group in seen])
    return _take_sorted(seen, paths, groups * cols[paths], words, rows)


def _exact_matmul(weight_blocks, v):
    """Exact product of row-stacked int16 weight matrices with `v`, as int64.

    `weight_blocks` are matrices of raw Q8.8 values with n columns; `v` holds
    raw Q8.8 values, shape (n,) or (n, k).  Rows are cast a block at a time
    into one float64 buffer of about _BLOCK_ELEMS elements and multiplied
    by BLAS into a preallocated output; no float64 copy of a whole matrix
    is made or kept.
    """
    n = v.shape[0]
    # Error-free float64 products (Ozaki et al., Numer. Algorithms, 2012):
    # every product obeys |w*x| <= 2^15 * 2^15 = 2^30, so every partial sum
    # of n products, in any order, is an integer of magnitude at most
    # n * 2^30, which float64 holds exactly while n < 2^23.
    assert n < 1 << 23, f"float64 sums of {n} int16 products may round"
    vf = np.asarray(v, dtype=np.float64)
    rows = sum(len(w) for w in weight_blocks)
    out = np.empty((rows,) + vf.shape[1:])
    step = max(1, min(_BLOCK_ELEMS // max(n, 1), rows))
    buf = np.empty((step, n))
    r = 0
    for w in weight_blocks:
        for lo in range(0, len(w), step):
            k = min(step, len(w) - lo)
            np.copyto(buf[:k], w[lo:lo + k])
            np.matmul(buf[:k], vf, out=out[r:r + k])
            r += k
    return out.astype(np.int64)


def _layer_values(lp, geo, params, xs, acts, plan, ledger, corrections):
    """Evaluate one layer over the whole input stream; returns its outputs.

    The input path of all gates is one kernel call per block of TIME_BLOCK
    timesteps, the recurrent path one call per step over the stacked gates.
    The layer's ledger is booked once: every step's events, less the shifts
    that EDC corrections held back.
    """
    m = lp.neurons
    gates = params.gates
    w_x = [g.w_x for g in gates]
    w_h = [g.w_h for g in gates]
    bias = np.stack([fp.widen(g.b) for g in gates])
    out = np.empty((len(xs), m), dtype=np.int16)
    # cell_output returns int64 arrays, and c None for GRU/Vanilla, which
    # ignore it.
    h = c = np.zeros(m, dtype=np.int64)
    held = 0
    for t0 in range(0, len(xs), TIME_BLOCK):
        x_block = xs[t0:t0 + TIME_BLOCK]
        x_accs = _exact_matmul(w_x, x_block.T)
        for j, x in enumerate(x_block):
            accs = np.stack((
                x_accs[:, j].reshape(len(gates), m),
                _exact_matmul(w_h, h).reshape(len(gates), m),
            ))
            h, c, step_held = _layer_step_values(
                lp, geo, params, x, h, c, accs, bias, acts, plan, t0 + j, corrections,
            )
            held += step_held
            out[t0 + j] = h
    for op, count in geo.step_events.items():
        ledger.add(op, len(xs) * count - (held if op == "track_shift" else 0))
    return out


def _layer_step_values(lp, geo, params, x, h_prev, c_prev, accs, bias, acts, plan, t,
                       corrections):
    """Finish one (layer, timestep) with fault effects; returns (h, c, the
    shifts that EDC corrections held back).

    `accs[path, gate, neuron]` holds the fault-free accumulators; the step's
    faults correct them in place, in int64 on the touched chunks.
    """
    key = (lp.index, t)
    vecs = (np.asarray(x, dtype=np.int64), h_prev)
    # seen[path][group, word]: what each chain group delivered this pass.
    seen = []
    held = 0
    for path, (name, layout) in enumerate(zip(PATHS, (lp.chain, lp.recurrent_chain))):
        faults = plan.input_faults.get((lp.index, name, t)) if plan else None
        if faults is not None:
            delivered, corrected, chain_held = _run_faulted_chain(
                layout, vecs[path], faults, plan.cfg.edc_inputs
            )
            corrections["input_corrected"] += corrected
            held += chain_held
            _correct_deliveries(geo, params, path, delivered - vecs[path], accs)
        else:
            groups = len(layout.group_capacities)
            delivered = np.broadcast_to(vecs[path], (groups, len(vecs[path])))
        seen.append(delivered)

    if plan:
        held += _weight_and_logic_faults(
            geo, params, plan.weight_faults.get(key), plan.mac_faults.get(key),
            plan.cfg.edc_weights, accs, seen, corrections,
        )

    act_faults = plan.act_faults.get(key) if plan else None
    if act_faults is not None:
        corrections["logic_faults"] += len(act_faults)

    # The accumulators narrow once per gate; the GRU candidate's h-path
    # narrows alone (the reset gate scales it inside the kernel).
    wide = accs[0] + accs[1] + bias
    if lp.cell_type == "GRU":
        wide = np.concatenate([wide[:2], accs[0][2:] + bias[2:], accs[1][2:]])
    pre = list(fp.narrow_raw(wide))
    h, c = cell_output(lp.cell_type, pre, vecs[1], c_prev, acts,
                       None if act_faults is None else _act_fault_hook(act_faults))
    return h, c, held


def _correct_deliveries(geo, params, path, delta, accs):
    """Correct `accs[path, gate, neuron]` for the words a faulted chain pass
    delivered: delta[group, word] is the word as the group delivered it
    less the fault-free word.  Each changed (group, word) adds weight times
    delta, in every gate, to the neurons whose chunk of that word the group
    feeds."""
    group, word = np.nonzero(delta)
    feeds = geo.chunk_of[path, word] * geo.turn.shape[1] + group
    lo, count = geo.fed_ptr[path, feeds], np.diff(geo.fed_ptr[path])[feeds]
    change = np.repeat(np.arange(len(word)), count)
    neuron = geo.fed[path, np.arange(len(change)) - np.repeat(np.cumsum(count) - count - lo, count)]
    word, d = word[change], delta[group, word][change]
    for gate in range(len(params.gates)):
        w = _weights(params, gate, path)
        np.add.at(accs[path, gate], neuron, np.take(w, neuron * w.shape[1] + word) * d)


def _weight_and_logic_faults(geo, params, weight_faults, mac_faults, edc, accs, seen,
                             corrections):
    """Apply one step's weight and logic faults to `accs[path, gate, neuron]`
    and return the shifts EDC held back.

    The fault rows are ``FaultPlan``'s arrays (or None).  Every faulted PE
    track (path, gate, neuron, chunk) is read in one batched call, from the
    fault rows alone.  With EDC on, ``weight_zeros`` gives the zeroed slots,
    and each takes its stored weight times its delivered word off the
    accumulator.  With EDC off, ``weight_misreads`` gives, for each
    displaced (track, plane) pair, the slot each slot's bit is read from;
    only that plane's bits are looked up, at each slot and at its source,
    and each slot adds (source bit - stored bit) * 2^plane (negated for the
    sign plane) times its delivered word.  A logic fault mis-shifts one
    bit, plane + FRAC_BITS, of its MAC product: the weight its track read
    (as read if the track is faulted this step, so 0 on a zeroed slot)
    times the word its chain group delivered.
    """
    # One integer key per PE track (path, gate, neuron, chunk), and one per
    # (track, slot) of a chunk.  Tracks sorted by key are sorted by (path,
    # gate), as ``_stored`` and ``_delivered`` take them.
    dims = (2, accs.shape[1], accs.shape[2], geo.size.shape[1])
    width = int(geo.size.max())
    held = 0
    if weight_faults is not None:
        neuron, gate, path, plane, slot = weight_faults.T.astype(np.int64)
        chunk = geo.chunk_of[path, slot]
        faults = (plane, slot - geo.lo[path, chunk])
        tracks, first, track = np.unique(
            np.ravel_multi_index((path, gate, neuron, chunk), dims),
            return_index=True, return_inverse=True,
        )
        neuron, gate, path, chunk = neuron[first], gate[first], path[first], chunk[first]
        size = geo.size[path, chunk]
        rows = np.stack((track, *faults), axis=1)
        if edc:
            zero_slots, held = weight_zeros(size, rows)
            track, position = zero_slots.T
            zeroed = tracks[track] * width + position
            group, words = geo.locate(neuron, path, chunk, position[:, None], track)
            change = -(_stored(params, gate, path, neuron, words, track)
                       * _delivered(seen, path, group, words, track))[:, 0]
            corrections["weight_zeroed"] += len(zero_slots)
        else:
            track, plane, position, source = weight_misreads(size, rows)
            group, words = geo.locate(neuron, path, chunk, position[:, None], track)
            # Each displaced plane's bit at each slot, then at its source
            # slot, which is `source - position` rows further on; a source
            # past the track's end reads blank.
            stored = _stored(params, gate, path, neuron, words, track)[:, 0]
            bits = np.append((stored >> plane) & 1, 0)
            src = np.arange(len(track)) + source - position
            src[source >= size[track]] = -1
            flips = (bits[src] - bits[:-1]) * _PLANE_VALUES[plane]
            misread = track, plane, position, flips
            change = flips * _delivered(seen, path, group, words, track)[:, 0]
        # Rows are sorted by track, and every faulted track has some (its
        # first fault zeroes a slot or displaces a plane): one change per
        # track.
        change = np.add.reduceat(change, np.searchsorted(track, np.arange(len(tracks))))
        np.add.at(accs, (path, gate, neuron), change)
    if mac_faults is not None:
        # Sorted by (path, gate), as ``_stored`` and ``_delivered`` take them.
        rows = mac_faults[np.lexsort((mac_faults[:, 1], mac_faults[:, 2]))]
        neuron, gate, path, slot, plane = rows.T.astype(np.int64)
        chunk = geo.chunk_of[path, slot]
        position = slot - geo.lo[path, chunk]
        group, word = geo.locate(neuron, path, chunk, position[:, None])
        weight = _stored(params, gate, path, neuron, word)[:, 0]
        if weight_faults is not None:
            key = np.ravel_multi_index((path, gate, neuron, chunk), dims)
            if edc:
                weight[np.isin(key * width + position, zeroed)] = 0
            elif (hit := np.isin(key, tracks)).any():
                # Misread rows are sorted by (track, plane, slot): look every
                # plane up at each hit's (track, slot) and add its flips.
                m_track, m_plane, m_position, flips = misread
                at = (m_track * WORD_PLANES + m_plane) * width + m_position
                query = (np.searchsorted(tracks, key[hit])[:, None] * WORD_PLANES
                         + np.arange(WORD_PLANES)) * width + position[hit, None]
                i = np.minimum(np.searchsorted(at, query), len(at) - 1)
                weight[hit] += np.where(at[i] == query, flips[i], 0).sum(axis=1)
        product = weight * _delivered(seen, path, group, word)[:, 0]
        shift = plane + fp.FRAC_BITS
        np.add.at(accs, (path, gate, neuron), ((product >> shift) & 1) << shift)
        corrections["logic_faults"] += len(mac_faults)
    corrections["suppressed_shifts"] += held
    return held


def _layer_step_timing(lp, start, pipes, hw, impl):
    stall = max(
        lp.chain.stall_per_step(hw.interconnect_latency_cycles),
        lp.recurrent_chain.stall_per_step(hw.interconnect_latency_cycles),
    )
    period = hw.mac_issue_interval + stall
    x_pipe, h_pipe = pipes
    last = start
    for s in range(max(lp.inputs, lp.neurons)):
        deliver = start + (s + 1) * period
        if s < lp.inputs:
            last = max(last, x_pipe.issue(deliver))
        if s < lp.neurons:
            last = max(last, h_pipe.issue(deliver))
    done = last + lp.agg_hops * hw.hop_latency_cycles
    done += ACT_STAGES[lp.cell_type] * hw.act_latency(impl)
    return done, stall


def simulate(placement: Placement, params, inputs,
             error_cfg: ErrorConfig | None = None) -> RunResult:
    """Run the placed network over a timestep-major input stream."""
    spec = placement.spec
    hw = placement.hw
    impl = spec.activation_impl
    T = spec.timesteps
    if len(params) != len(spec.layers):
        raise ValueError("one LayerParams per layer required")
    for lp, layer, p in zip(placement.layers, spec.layers, params):
        if p.cell_type != layer.cell_type or p.neurons != layer.neurons or p.inputs != layer.inputs:
            raise ValueError(f"params for layer {lp.index} disagree with the spec")
        for k, g in enumerate(p.gates):
            for name in ("w_x", "w_h", "b"):
                _check_raw(f"layer {lp.index} gate {k} {name}", getattr(g, name))
    inputs = np.asarray(inputs)
    _check_raw("inputs", inputs)
    # Lossless once in range; keeps the stream at its hardware width.
    inputs = inputs.astype(np.int16)
    if T == 0:
        inputs = inputs.reshape(0, spec.layers[0].inputs)
    if inputs.shape != (T, spec.layers[0].inputs):
        raise ValueError(
            f"inputs shape {inputs.shape} != ({T}, {spec.layers[0].inputs})"
        )

    ledger = EnergyLedger(activation_impl=impl)
    plan = FaultPlan(error_cfg, placement) if error_cfg and error_cfg.active else None
    acts = activation_fns(impl)
    geos = [_LayerGeometry(lp, hw, error_cfg) for lp in placement.layers]
    corrections = {
        "input_corrected": 0,
        "weight_zeroed": 0,
        "suppressed_shifts": 0,
        "logic_faults": 0,
        "fault_events": plan.total_events() if plan else 0,
    }

    # Values, layer-major: each layer consumes the previous one's stream.
    outputs = []
    for lp, geo, p in zip(placement.layers, geos, params):
        xs = outputs[-1] if outputs else inputs
        outputs.append(_layer_values(lp, geo, p, xs, acts, plan, ledger, corrections))

    # Timing, timestep-major: (l, t) starts once layer l-1 has produced x_t
    # and the layer's own t-1 evaluation has finished.
    L = len(placement.layers)
    pipes = [(MacPipeline(hw.mac_stages, hw.mac_cycles_per_stage, hw.mac_issue_interval),
              MacPipeline(hw.mac_stages, hw.mac_cycles_per_stage, hw.mac_issue_interval))
             for _ in placement.layers]
    finish = [0] * L
    stalls = [0] * L
    for _t in range(T):
        for l, lp in enumerate(placement.layers):
            start = max(finish[l - 1] if l else 0, finish[l])
            finish[l], stalls[l] = _layer_step_timing(lp, start, pipes[l], hw, impl)

    total_cycles = finish[-1] if L else 0
    return RunResult(
        outputs=outputs,
        total_cycles=int(total_cycles),
        total_energy_pj=ledger.energy_pj(),
        counters=ledger.as_dict(),
        per_layer=[
            {
                "layer": lp.index,
                "stall_per_step": stalls[i],
                **{k: v * T for k, v in geos[i].step_counts.items()},
            }
            for i, lp in enumerate(placement.layers)
        ],
        corrections=corrections,
        mac_sample=[list(entry) for entry in pipes[0][0].log] if pipes else [],
        error_config=None if error_cfg is None else {
            "p_overshift": error_cfg.p_overshift,
            "sites": sorted(error_cfg.sites),
            "bit_region": error_cfg.bit_region,
            "edc_inputs": error_cfg.edc_inputs,
            "edc_weights": error_cfg.edc_weights,
            "seed": error_cfg.seed,
        },
        timesteps=T,
    )


def analytic_cycles(placement: Placement) -> int:
    """Closed-form cycle count for an error-free run (the timing oracle).

    Per layer and timestep: max(inputs, neurons) deliveries at
    (issue_interval + stall) cycles each, the MAC pipeline drain, the
    aggregation tree hops, and the activation stages.  Layers pipeline
    across timesteps: (l, t) starts at max(finish(l-1, t), finish(l, t-1)).
    """
    spec = placement.spec
    hw = placement.hw
    T = spec.timesteps
    if T == 0:
        return 0
    body = []
    for lp in placement.layers:
        stall = max(
            lp.chain.stall_per_step(hw.interconnect_latency_cycles),
            lp.recurrent_chain.stall_per_step(hw.interconnect_latency_cycles),
        )
        period = hw.mac_issue_interval + stall
        cycles = period * max(lp.inputs, lp.neurons) + hw.mac_latency
        cycles += lp.agg_hops * hw.hop_latency_cycles
        cycles += ACT_STAGES[lp.cell_type] * hw.act_latency(spec.activation_impl)
        body.append(cycles)
    L = len(body)
    prev_row = [0] * L
    for t in range(T):
        row = []
        for l in range(L):
            left = row[l - 1] if l > 0 else 0
            up = prev_row[l]
            row.append(max(left, up) + body[l])
        prev_row = row
    return prev_row[-1]
