"""Cycle-level execution engine with per-operation energy accounting.

Values and timing are deliberately decoupled:

* The value path runs layer-major: a layer consumes the whole output
  stream of the layer below.  Its input-path accumulators for every gate
  come from one matrix product per block of TIME_BLOCK timesteps, its
  recurrent-path accumulators from one product per timestep over the
  stacked gates.  Both go through ``_exact_matmul``, which casts int16
  weight rows a block at a time into one small float buffer and lets
  BLAS multiply.  A layer whose recurrent weights take at most
  _STACK_BYTES as float32 casts them once a run instead, or once a sweep,
  into one float32 stack of all its gates, and each step multiplies that
  stack with one matrix-vector call per column block.
  float32 holds every int16 exactly, so both forms multiply the same
  integers.  The products are exact, because a sum of integer products
  is exact in any summation order while every partial sum is an integer
  the float type holds (the error-free argument of Ozaki et al., Numer.
  Algorithms, 2012).  So the n columns are split into blocks: a block of
  width columns, with weights up to w_max and values up to v_max in
  magnitude, sums at most width * w_max * v_max, so float32 blocks of
  width = 2^24 // (w_max * v_max) columns are exact, and the blocks'
  products are added in int64.  The layer's w_max is taken once a run, or
  once a sweep.
  Preset weights lie in [-0.5, 0.5] and activations and inputs in
  [-1, 1], so every preset weight product takes float32 blocks of 512
  columns: one block up to 512 wide, and six on d-speech.  A product
  whose float32 blocks would hold fewer than _F32_MIN_COLUMNS columns (or
  fewer than all of them, if it is narrower) takes float64, split the
  same way into blocks of 2^53 // (w_max * v_max) columns, at least 2^22
  since |w * v| < 2^31 for raw Q8.8 operands.  The chain-delivery deltas
  and full-range weights do.  So the kernel is exact at any width, and
  ``simulate`` rejects weights, biases and inputs outside the 16-bit
  range.  The step's fault effects from the run's FaultPlan then correct
  the accumulators in int64, and each costs array work in proportion to
  the planes and words it changes, not to whole tracks or passes.  Each
  time block reads the layer's four fault streams once, sliced by
  timestep with ``error_model.stream_rows``, and hands step j its rows.
  With EDC off, a chain pass with faults is computed in closed form,
  one displaced plane at a time: a delivery (g, s) of plane k can differ
  from the fault-free pass only from step L_g = min(F_g, L_{g+1} + cap_g)
  on, around the ring, F_g the step of the first fault on (g, k).  Only
  the faulted groups' deliveries in that set are followed back through
  the group queues, over int32 indices; a link out of the set lands on a
  fault-free word, and a group without a fault copies the next faulted
  one.  The neurons a group feeds in one chunk of a path are one run, so
  each group that delivered a changed word in a chunk corrects them with
  one ``_exact_matmul`` of their weight rows, in every gate, over the
  chunk's columns from its first changed word to its last, with its
  deltas (differences of two raw words, below 2^16) over their lowest
  displaced plane's 2^k; the h path takes the rows from the layer's
  float32 stack when it has one.  With EDC on every delivery is the
  fault-free word, so chain faults stay out of the value path: they
  change only the corrections and the shifts those hold back, which the
  plan's rows alone determine.  ``simulate`` cuts each chain's
  stream into its passes with ``stream_rows``, and ``_edc_chain_holds``
  counts both once per run, replaying each faulted pass through the
  word-level track model (``InputTrackChain``): each maximal run of
  faulted steps and the step after it, which leaves the chain as
  fault-free as it started.  ``simulate`` books the ledger once per
  run: T fault-free steps of every layer, less the shifts that EDC
  corrections held back on the chains and on the weight tracks.  Weight
  and MAC fault rows share one layout and one decode, ``_fault_slots``, to
  (PE track, position in the track), made once per (layer, time block) by
  ``_decode_faults`` with each track keyed by its step; ``_apply_faults``
  does per step only what needs the step's words.  Weight faults go
  through the one implementation of the weight-track protocol in
  ``racetrack``: with EDC on, one ``weight_zeros`` call per (layer, time
  block) gives the zeroed slots from the fault rows alone, and each takes
  its stored weight times its delivered word off the accumulator; with EDC
  off, ``_Misreads`` keys the block's weight rows by (step, track, plane),
  one displaced pair of one step's pass each, and decodes the pairs in
  units of _BLOCK_BYTES, each when the first step that needs it comes up:
  one ``weight_plane_reads`` call per unit, over each pair's stored bits in
  arrival order from its first fault on (the slots before it read their
  stored bits), gives the flips (read - stored bits), kept in the chunk's
  word order.  Each step then corrects its accumulators a (path, chunk)
  run of pairs at a time: after a fault-free chain pass, every group
  delivered the same words, and the run is one exact ``_exact_matmul``
  product of its flip rows with that one vector; after a pass with chain
  faults, a row-wise product with the words each pair's group delivered.
  One ``np.add.at`` adds the step's products.  Logic faults are one
  vectorized pass: each perturbs one bit of its MAC product (the weight as
  its track read it, times the word its chain group delivered) by one
  significance position.
  ``_slot_lookup``, the one arrival-order lookup, gives the group, word
  and stored weight at a slot, for the zeroed slots and the MAC faults
  alike.
  The corrected accumulators go through ``lstm_core.cell_output``, the one
  copy of the narrowing and the cell equations, with activation faults
  applied by its hook.
  With no faults the outputs are bit-identical to ``lstm_core.cell_step``.
  A run takes what depends only on its placement, params and inputs from
  a ``_Shared``: each layer's w_max, biases and float32 stack, and layer
  0's fault-free input-path accumulators.  A plain run's own keeps none of
  them past the layer using it, so the run holds one stack at a time.
  ``run_fidelity_experiment`` passes one to every run of a sweep, which
  keeps them, within _STACK_BYTES, for the sweep's later runs.

* The timing path is closed-form: ``_layer_timing`` gives each layer's
  cross-group stall and the cycles of one of its timesteps.  A timestep
  streams max(inputs, neurons) words at one delivery per issue interval
  (plus the stall), drains the 96-cycle MAC pipeline, then pays the
  aggregation hops and the activation stages.  Units are identical and run
  in lockstep, so one unit's timing is the layer's.  ``analytic_cycles``
  runs the wavefront over those bodies: layer l timestep t starts when
  layer l-1 has produced x_t and the layer's own t-1 evaluation has
  finished.  ``simulate`` reports that count; the only ``MacPipeline`` it
  drives takes the first MAC_LOG_LIMIT input-path words of layer 0 for the
  run's ``mac_sample``.  Faults never change timing.  The per-word MAC
  replay that the closed form is tested against lives in the tests.

The energy ledger counts per-nanowire events (a 16-bit word access is 16
plane events) and converts exactly: rates are held in attojoules as
integers, so micro-run energies match hand arithmetic to the picojoule.
EDC pattern maintenance is tracked in separate counters (edc_read /
edc_write), so mitigation adds nothing to the compute counters on
fault-free runs.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import fixedpoint as fp
from .error_model import PATHS, ErrorConfig, FaultPlan, stream_rows
from .lstm_core import (ACT_STAGES, GATE_ORDERS, MAC_LOG_LIMIT, NONLINEAR_EVALS, MacPipeline,
                        cell_output)
from .mapping import HardwareConfig, Placement
from .nonlinear import activation_fns
from .racetrack import WORD_PLANES, InputTrackChain, weight_plane_reads, weight_zeros

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
# Bytes of the kernel's weight buffer (512 KB), float32 or float64: small
# enough that BLAS reads the rows from cache right after the cast writes
# them.  The input path and the recurrent path of layers above
# _STACK_BYTES cast as many whole int16 rows into it as fit, and
# ``_exact_matmul`` multiplies each of its column blocks from there; a
# float32 stack goes through it only on the float64 path.  Whole rows are
# read from memory in order: d-speech's recurrent product took 14.8 ms a
# step that way, and 19.7 ms when each column block's slice of every row
# was cast in turn (clean 6-step runs, medians of 8, 2 BLAS threads).  The
# EDC-off misreads are decoded in units whose doubled bit rows, one byte per
# bit, take at most the same size; a unit holds its int8 flip rows, half
# that, until its last step.
_BLOCK_BYTES = 1 << 19
# Largest float32 stack of a layer's recurrent weights (64 MiB) that is
# cast once a run rather than a block at a time at every step.  In clean
# 15-step runs of single-layer LSTMs, with 2 BLAS threads, every width
# measured ran 22-40% faster stacked (medians of 10 alternating rounds,
# two runs): 512, 768, 1024 and 1536 wide on im2txt's hardware, and 2048
# wide (64 MiB) on mach-tran-2048's.  d-speech's 2816-wide layer
# (121 MiB) stays blocked, which bounds the memory of the widest preset.
# A sweep's ``_Shared`` keeps at most as much, stacks and input-path
# accumulators together, for its later runs.
_STACK_BYTES = 1 << 26
# Fewest columns a float32 block of ``_exact_matmul`` may hold, unless the
# product has fewer (see ``_column_blocks``); a product whose float32
# blocks would be narrower takes float64, in one block.  Each block costs
# one more BLAS call, and for int16 rows one more cast.  Timed per call
# against one float64 block, with 2 BLAS threads (two runs), float32
# blocks of 128 columns ran 2-27% faster in int16 products 512 to 1536
# wide and 20-63% slower 2816 wide; blocks of 64 columns ran 8% to twice
# as slow from 1024 to 2816 wide.
_F32_MIN_COLUMNS = 128


class EnergyLedger:
    """Monotone event counters with exact energy conversion.

    The ops are the keys of DEFAULT_ENERGY_PJ, at those rates, with
    LUT_NONLINEAR_PJ for ``nonlinear_eval`` when `activation_impl` is
    "lut"; it must be "approx" or "lut".  `add` takes a known op and a
    non-negative integer count, Python's or numpy's but not a bool; anything
    else raises ValueError.
    """

    def __init__(self, activation_impl="approx"):
        if activation_impl not in ("approx", "lut"):
            raise ValueError(f"activation_impl must be 'approx' or 'lut', not {activation_impl!r}")
        rates = dict(DEFAULT_ENERGY_PJ)
        if activation_impl == "lut":
            rates["nonlinear_eval"] = LUT_NONLINEAR_PJ
        self.rates_aj = {k: round(v * _ATTO_PER_PJ) for k, v in rates.items()}
        self.counters = {k: 0 for k in self.rates_aj}

    def add(self, op, n):
        if op not in self.counters:
            raise ValueError(f"unknown ledger op {op!r}")
        if isinstance(n, (bool, np.bool_)) or not isinstance(n, numbers.Integral):
            raise ValueError(f"ledger counts are integers, not {n!r}")
        if n < 0:
            raise ValueError("ledger counters are monotone")
        self.counters[op] += int(n)

    def energy_pj(self) -> float:
        total_aj = sum(self.counters[k] * self.rates_aj[k] for k in self.counters)
        return total_aj / _ATTO_PER_PJ

    def as_dict(self) -> dict:
        return dict(sorted(self.counters.items()))


def energy_report(ledger: EnergyLedger, hw: HardwareConfig) -> dict:
    """Exact multiply-and-sum energy breakdown; ``latency_cycles_per_op``
    echoes `hw`'s track latencies, which ``_layer_timing`` does not use yet."""
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
    PE of a gate, as the mapper's ``pe_words`` lays the gate's words out; a
    PE that holds no words of a path has an empty chunk there.  Indexed by
    path code, the tables give each chunk's first word and size, each
    slot's chunk, the chain group that feeds each neuron's chunk (in each
    chunk it never falls as the neuron grows), and
    ``turn[path, group, chunk]``: how far the chunk is rotated when that
    group receives it.  ``_slot_lookup`` turns these into the words at
    given slots of a batch of tracks; no per-word table is kept.  A PE
    track is keyed by raveling (path, gate, chunk, neuron) over ``dims``;
    ``tracks`` is the number of keys.

    Step events: the ledger events of one fault-free (layer, timestep), one
    pass of both input chains included, and the per-layer counts.  Faults
    change only ``track_shift``: each EDC correction holds one later shift.
    """

    def __init__(self, lp, hw, cfg):
        m, n = lp.neurons, lp.inputs
        u = lp.units_per_neuron
        # One chunk per PE of a gate: its unit and its words of each path.
        pe = np.array(lp.pe_words)
        n_chunks = len(pe)
        units = (np.arange(m) // lp.neurons_per_unit) * u + pe[:, :1]
        tiles = units // hw.lstm_units_per_tile
        edc_in = bool(cfg and cfg.edc_inputs)
        edc_w = bool(cfg and cfg.edc_weights)
        chains = (lp.chain, lp.recurrent_chain)
        bases = [_chain_bases(layout.group_capacities) for layout in chains]
        self.size = pe[:, 1:].T
        self.dims = (2, len(GATE_ORDERS[lp.cell_type]), n_chunks, m)
        self.tracks = int(np.prod(self.dims))
        self.lo = np.cumsum(self.size, axis=1) - self.size
        self.chunk_of = np.zeros((2, max(n, m)), dtype=np.int64)
        self.group_of = np.empty((2, n_chunks, m), dtype=np.int64)
        self.turn = np.zeros((2, max(map(len, bases)), n_chunks), dtype=np.int64)
        for p, (layout, b) in enumerate(zip(chains, bases)):
            self.chunk_of[p, :layout.word_capacity] = np.repeat(np.arange(n_chunks), self.size[p])
            self.group_of[p] = np.minimum(tiles, len(b) - 1)
            # Group g receives word (base_g + s) mod n at step s, so each
            # chunk arrives there rotated to start at its first word >= base_g.
            self.turn[p, :len(b)] = np.clip(b[:, None] - self.lo[p], 0, self.size[p])
        # One pass of each chain: every group reads, shifts and writes all 16
        # planes once per word.
        chain_steps = 16 * (
            len(lp.chain.group_capacities) * n + len(lp.recurrent_chain.group_capacities) * m
        )
        words = self.dims[1] * (n + m)
        advances = self.dims[1] * int(np.maximum(self.size - 1, 0).sum())
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


def _run_faulted_chain(layout, words_raw, faults):
    """Deliveries of one EDC-off pass whose chain has faults.

    `faults` holds ``FaultPlan``'s rows (step, group, plane).  Returns
    seen[group, word], the value the group delivered for that word.

    Nothing is corrected, and planes never mix, so each plane that carries
    a fault is resolved on its own.  Group g delivers at step s the word at
    queue position min(e, cap_g - 1) of plane k, e the faults on (g, k) at
    steps <= s.  Queue position j at step s holds staged word base_g + s + j
    while s + j < cap_g, and after that what group g + 1 delivered at step
    s + j - cap_g; so a fault on a one-word group displaces nothing.
    Delivery (g, s) of plane k can differ from the fault-free pass only
    when s >= L_g, where L_g = min(F_g, L_{g+1} + cap_g) around the ring,
    F_g the step of the first fault on (g, k) (none on a one-word group).
    Taken twice around the ring, that is the least F_h + dist(g, h) over
    the faulted groups h, dist(g, h) the words of groups g up to h.  A
    group without a fault on plane k copies the next faulted group h: at
    step s >= dist(g, h) it delivers what h delivered at s - dist(g, h),
    which is the same word, and before that a staged word.  So only the
    faulted groups' deliveries at steps s >= L_h are followed back.  Such a
    delivery reads position at = s + min(e, cap_h - 1), which holds the
    delivery (h', at - dist(h, h')) of the next faulted group h'.  When
    that step is below L_h', the link leaves the set and lands on a
    fault-free delivery, and a staged word is one too: either way the
    delivery is word (base_h + at) mod n.  The other links are followed by
    pointer jumping over the set's int32 indices; each hop lowers the step,
    so the rounds end.
    """
    n_words = layout.word_capacity
    caps = layout.group_capacities
    n_groups = len(caps)
    bases = _chain_bases(caps).tolist()
    words = np.asarray(words_raw).astype(np.uint16)
    # Each plane's distinct faults as keys group * n + step, on groups of
    # two words or more.
    keys = {}
    for step, g, k in np.asarray(faults).tolist():
        if caps[g] > 1:
            keys.setdefault(k, set()).add(g * n_words + step)
    # flips[g, w]: the bits that group g's delivery of word w flips.
    flips = np.zeros((n_groups, n_words), dtype=np.uint16)
    for k, plane_keys in keys.items():
        fault = sorted(plane_keys)
        # The faulted groups h, in ring order, each with the index and step
        # of its first fault.
        h, first, L = [], [], []
        for i, key in enumerate(fault):
            g, s = divmod(key, n_words)
            if not h or h[-1] != g:
                h.append(g)
                first.append(i)
                L.append(s)
        # Words from each faulted group to the next, n if it is the only one.
        n_h = len(h)
        ahead = [(bases[h[(i + 1) % n_h]] - bases[g] - 1) % n_words + 1 for i, g in enumerate(h)]
        # L_i = min(F_i, L_{i+1} + dist(h_i, h_{i+1})), twice around the ring.
        for i in [*reversed(range(n_h))] * 2:
            L[i] = min(L[i], L[(i + 1) % n_h] + ahead[i])
        # The set: faulted group i at steps L_i..n-1, flattened.  Each entry
        # gets its group's row of `table`.
        count = [n_words - x for x in L]
        start = [0, *itertools.accumulate(count)]
        table = [(start[i] - L[i], bases[g], g * n_words, first[i], caps[g] - 1, ahead[i],
                  L[(i + 1) % n_h], start[(i + 1) % n_h] - L[(i + 1) % n_h], i)
                 for i, g in enumerate(h)]
        offset, base, group_key, first_fault, cap, ahead, next_l, next_off, row = np.repeat(
            np.array(table, dtype=np.int32), count, axis=0).T
        s = np.arange(start[-1], dtype=np.int32) - offset
        word = base + s
        np.subtract(word, n_words, out=word, where=word >= n_words)
        e = np.searchsorted(np.array(fault), group_key + s, "right") - first_fault
        at = s + np.minimum(e, cap).astype(np.int32)
        # Delivery (i, s) copies (i + 1, at - dist(h_i, h_{i+1})): an entry
        # of the set when that step is at least L_{i+1}, else word
        # (base_i + at) mod n.
        u = at - ahead
        inside = u >= next_l
        src = base + at
        np.subtract(src, n_words, out=src, where=src >= n_words)
        src[inside] = -1
        link = u + next_off
        todo = np.flatnonzero(inside)
        while todo.size:
            hop = link[todo]
            src[todo], link[todo] = src[hop], link[hop]
            todo = todo[src[todo] < 0]
        plane_flips = np.zeros((n_h, n_words), dtype=np.uint16)
        plane_flips[row, word] = (words[src] ^ words[word]) & (1 << k)
        # Group g copies the first faulted group h_i at or after it, less the
        # words that groups g up to h_i stage, from step L_i + dist on.
        groups, copies, staged = [], [], []
        i = 0
        for g in range(n_groups):
            if i < n_h and h[i] < g:
                i += 1
            c = i % n_h
            d = (bases[h[c]] - bases[g]) % n_words
            if L[c] + d < n_words:
                groups.append(g)
                copies.append(c)
                staged.append((bases[g], bases[g] + d))
        copied = plane_flips[copies]
        for j, (a, b) in enumerate(staged):
            copied[j, a:b] = 0
            copied[j, :max(b - n_words, 0)] = 0
        flips[groups] |= copied
    return (words ^ flips).view(np.int16).astype(np.int64)


def _edc_chain_holds(layout, faults):
    """(corrected, held) of one EDC-on pass whose chain has faults: the
    plane reads EDC corrected and the shifts those corrections held back.

    `faults` holds ``FaultPlan``'s rows (step, group, plane).  EDC decodes
    every delivery to the fault-free word, and which planes it corrects
    does not depend on the words, so the pass is replayed through
    ``InputTrackChain`` with nothing staged.  EDC clears every displacement
    at the step that makes it, and a step without faults releases the
    planes the step before held, so after it the chain is as fault-free as
    at the pass's start.  One chain therefore replays each maximal run of
    faulted steps and the step after it, up to the pass's last step, and
    skips the steps in between.  A correction holds its plane's next shift,
    so one at the pass's last step holds none.
    """
    by_step = {}
    for s, g, k in np.asarray(faults).tolist():
        by_step.setdefault(s, {}).setdefault(g, []).append(k)
    chain = InputTrackChain(list(layout.group_capacities), edc_enabled=True)
    corrected = last = 0
    for s in sorted({t for s in by_step for t in (s, s + 1)} - {layout.word_capacity}):
        last = sum(map(len, chain.rotate_step(by_step.get(s))[1]))
        corrected += last
    return corrected, corrected - last


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


def _fault_slots(geo, rows):
    """Columns (path, gate, chunk, neuron, position, track, plane) of
    ``FaultPlan``'s weight or MAC fault rows (neuron, gate, path, slot,
    plane): the PE track each fault hits, its position in that track's
    chunk, and the track's key."""
    neuron, gate, path, slot, plane = rows.T
    chunk = geo.chunk_of[path, slot]
    track = np.ravel_multi_index((path, gate, chunk, neuron), geo.dims)
    return path, gate, chunk, neuron, slot - geo.lo[path, chunk], track, plane


def _slot_lookup(geo, params, path, gate, chunk, neuron, position):
    """(group, word, stored weight), as int64, at `position` of PE tracks
    (path, gate, chunk, neuron), all given as equal-length arrays.

    A track holds its chunk's words in the order the chain group that
    feeds it receives them: position s holds word lo + (turn + s) mod size,
    whose weight is W[path][gate][neuron, word] and whose delivered value
    is seen[path][group, word].
    """
    group = geo.group_of[path, chunk, neuron]
    word = geo.lo[path, chunk] + (geo.turn[path, group, chunk] + position) % geo.size[path, chunk]
    stored = np.empty(len(word), dtype=np.int64)
    for p in (0, 1):
        for g in range(len(params.gates)):
            at = (path == p) & (gate == g)
            stored[at] = _weights(params, g, p)[neuron[at], word[at]]
    return group, word, stored


def _magnitude(a):
    """max |a| as a Python int; an int16 -32768 does not overflow."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _column_blocks(n, w_max, v_max):
    """(float type, columns per block) of ``_exact_matmul`` for n products
    of weights up to `w_max` and values up to `v_max` in magnitude.

    A block of `width` columns sums at most width * w_max * v_max in
    magnitude.  float32 holds every integer up to 2^24, so float32 blocks
    of width = 2^24 // (w_max * v_max) columns are exact.  Gives float32
    when such a block holds at least min(n, _F32_MIN_COLUMNS) columns, else
    float64, whose blocks of 2^53 // (w_max * v_max) columns are at least
    2^22 wide for raw Q8.8 operands.
    """
    bound = max(w_max * v_max, 1)
    width = (1 << 24) // bound
    if width >= min(n, _F32_MIN_COLUMNS):
        return np.float32, width
    return np.float64, (1 << 53) // bound


def _exact_matmul(weight_blocks, v, w_max=1 << 15):
    """Exact product of row-stacked weight matrices with `v`, as int64.

    `weight_blocks` are matrices of raw Q8.8 values with n columns, none
    above `w_max` in magnitude, as int16 or as float32, which holds them
    exactly, or the EDC-off misreads' int8 flip rows, with `w_max` 1; `v`
    holds values below 2^16 in magnitude, raw Q8.8 words or the
    differences of two, shape (n,) or (n, k).  ``_column_blocks``
    splits the n columns into blocks whose every partial sum the float
    type holds: float32 unless its blocks would be too narrow, else
    float64.  Each block is multiplied in that float type, and the blocks'
    products are added in int64.  A weight block already of that float
    type is multiplied by BLAS as it is, one call per column block.  Other
    rows are cast a block of whole rows at a time into one buffer of
    _BLOCK_BYTES, and each column block of the buffer is multiplied from
    there; this function makes no float copy of a whole matrix.
    """
    n = v.shape[0]
    # Error-free float products (Ozaki et al., Numer. Algorithms, 2012):
    # a sum of integer products is exact in any order, FMA or not, while
    # every partial sum is an integer the float type holds.
    dtype, width = _column_blocks(n, w_max, _magnitude(v))
    vf = np.asarray(v, dtype=dtype)
    cols = [slice(c, c + width) for c in range(0, n, width)] or [slice(0, 0)]
    rows = sum(len(w) for w in weight_blocks)
    part = np.empty((len(cols), rows) + v.shape[1:], dtype=dtype)
    step = max(1, min(_BLOCK_BYTES // (np.dtype(dtype).itemsize * max(n, 1)), rows))
    buf = None
    r = 0
    for w in weight_blocks:
        if w.dtype == dtype:
            for b, c in enumerate(cols):
                np.matmul(w[:, c], vf[c], out=part[b, r:r + len(w)])
            r += len(w)
            continue
        if buf is None:
            buf = np.empty((step, n), dtype=dtype)
        for lo in range(0, len(w), step):
            k = min(step, len(w) - lo)
            np.copyto(buf[:k], w[lo:lo + k])
            for b, c in enumerate(cols):
                np.matmul(buf[:k, c], vf[c], out=part[b, r:r + k])
            r += k
    if len(cols) == 1:
        return part[0].astype(np.int64)
    return part.sum(axis=0, dtype=np.int64)


class _Shared:
    """The per-network part of ``simulate``: what every run of one
    (placement, params, inputs) computes alike, whatever its faults.

    Per layer: w_max, the stacked biases and, when the recurrent weights
    take at most _STACK_BYTES as float32, their float32 stack with its
    per-gate views; and layer 0's fault-free input-path accumulators, per
    time block.  The layers above read the run's own outputs, so theirs
    are made by every run.  The first run that needs an array makes it,
    read-only: a step copies the accumulators before its faults correct
    them.

    With `keep`, the object keeps the arrays its first run makes, in layer
    order and block order, while their total stays within _STACK_BYTES,
    and later runs read them; each run makes again any array past that.
    ``run_fidelity_experiment`` makes one such object per sweep.  Without
    `keep`, as ``simulate`` makes one for a plain run, it keeps no array,
    so a run holds only the arrays of the layer it is running.  w_max, an
    int per layer, is kept either way.
    """

    def __init__(self, placement, params, inputs, keep=True):
        self.placement, self.params, self.inputs = placement, params, inputs
        self.room = _STACK_BYTES if keep else 0
        self.kept = {}
        self.w_max = {}

    def _array(self, key, make, shareable=True):
        a = self.kept.get(key)
        if a is None:
            a = make()
            a.flags.writeable = False
            if shareable and a.nbytes <= self.room:
                self.room -= a.nbytes
                self.kept[key] = a
        return a

    def layer(self, l):
        """(w_max, bias[gate, neuron], recurrent weights as ``_exact_matmul``
        blocks, recurrent weights per gate) of layer l: the float32 stack
        and its rows of each gate, or the int16 matrices twice."""
        gates = self.params[l].gates
        w_h = [g.w_h for g in gates]
        if l not in self.w_max:
            self.w_max[l] = max(_magnitude(w) for g in gates for w in (g.w_x, g.w_h))
        bias = self._array(("bias", l), lambda: np.stack([fp.widen(g.b) for g in gates]))
        if 4 * sum(w.size for w in w_h) > _STACK_BYTES:
            return self.w_max[l], bias, w_h, w_h
        stack = self._array(("stack", l), lambda: np.concatenate(w_h, dtype=np.float32))
        return self.w_max[l], bias, [stack], np.split(stack, len(gates))

    def input_products(self, l, t0, x_block, w_x, w_max):
        """Layer l's fault-free input-path accumulators [gate * neuron, step]
        of the time block at t0, whose inputs are `x_block`; kept for
        layer 0 only."""
        return self._array(("x", l, t0), lambda: _exact_matmul(w_x, x_block.T, w_max),
                           shareable=not l)


def _layer_values(lp, geo, shared, xs, acts, plan, corrections):
    """Evaluate one layer over the whole input stream; returns its outputs.

    The input path of all gates is one kernel call per block of TIME_BLOCK
    timesteps, the recurrent path one call per step over the stacked gates:
    one float32 stack when it takes at most _STACK_BYTES.  `shared` gives
    both, the stack and the layer's w_max and biases.  The chain
    corrections take each path's weights per gate: the int16 matrices, or
    the stack's rows of each gate when there is one.
    """
    m = lp.neurons
    params = shared.params[lp.index]
    gates = params.gates
    w_x = [g.w_x for g in gates]
    w_max, bias, w_h, gate_h = shared.layer(lp.index)
    path_weights = [w_x, gate_h]
    out = np.empty((len(xs), m), dtype=np.int16)
    faults = None
    if plan is not None:
        l, edc = lp.index, plan.cfg.edc_weights
        # EDC on delivers every chain word fault-free: no chain row enters the value path.
        upto = 0 if plan.cfg.edc_inputs else None
        chains = [plan.input_faults[l, name][:upto] for name in PATHS]
        streams = [*chains, plan.weight_faults[l], plan.mac_faults[l], plan.act_faults[l]]
    # cell_output returns int64 arrays, and c None for GRU/Vanilla, which
    # ignore it.
    h = c = np.zeros(m, dtype=np.int64)
    for t0 in range(0, len(xs), TIME_BLOCK):
        x_block = xs[t0:t0 + TIME_BLOCK]
        x_accs = shared.input_products(lp.index, t0, x_block, w_x, w_max)
        if plan is not None:
            *chains, weight, mac, act = (stream_rows(s, t0, t0 + len(x_block)) for s in streams)
            faults = chains, _decode_faults(geo, params, weight, mac, edc, corrections), act
        for j, x in enumerate(x_block):
            accs = np.stack((
                x_accs[:, j].reshape(len(gates), m),
                _exact_matmul(w_h, h, w_max).reshape(len(gates), m),
            ))
            h, c = _layer_step_values(lp, geo, path_weights, w_max, x, h, c, accs, bias, acts,
                                      faults, j)
            out[t0 + j] = h
    return out


def _layer_step_values(lp, geo, path_weights, w_max, x, h_prev, c_prev, accs, bias, acts, faults,
                       j):
    """Finish step j of a time block of one layer; returns (h, c).

    `path_weights[path]` holds the layer's weights of each gate for the
    chain corrections, and `w_max` its largest |weight|, for
    ``_exact_matmul``.  `accs[path, gate, neuron]` holds the fault-free
    accumulators.  `faults` is None on a fault-free run, else the block's
    ``stream_rows`` of each chain, its ``_decode_faults`` and its
    activation rows; the step's faults correct `accs` in place, in int64
    on the touched chunks.
    """
    hook = None
    if faults is not None:
        chains, decoded, (act_ptr, act_rows) = faults
        vecs = (np.asarray(x, dtype=np.int64), h_prev)
        # seen[path][group, word]: what each chain group delivered this pass.
        seen = []
        for path, ((ptr, rows), layout) in enumerate(zip(chains, (lp.chain, lp.recurrent_chain))):
            rows = rows[ptr[j]:ptr[j + 1]]
            if len(rows):
                delivered = _run_faulted_chain(layout, vecs[path], rows)
                _correct_deliveries(geo, path, path_weights[path], delivered - vecs[path], w_max,
                                    accs)
            else:
                groups = len(layout.group_capacities)
                delivered = np.broadcast_to(vecs[path], (groups, len(vecs[path])))
            seen.append(delivered)
        _apply_faults(decoded, j, seen, accs)
        rows = act_rows[act_ptr[j]:act_ptr[j + 1]]
        hook = _act_fault_hook(rows) if len(rows) else None
    return cell_output(lp.cell_type, accs[0], accs[1], bias, h_prev, c_prev, acts, hook)


def _correct_deliveries(geo, path, weights, delta, w_max, accs):
    """Correct `accs[path, gate, neuron]` for the words a faulted chain pass
    delivered: delta[group, word] is the word as the group delivered it
    less the fault-free word, and weights[gate] the path's weights of each
    gate, as int16 or as float32 rows of the layer's stack.  Chunk c holds
    words [lo, lo + size), and the neurons that group g feeds there are one
    run n0:n1, since groups never fall as the neuron grows.  Each group
    that changed a word of the chunk adds one exact product, of those
    neurons' weight rows in every gate with its deltas over the chunk's
    columns from its first changed word to its last, to their
    accumulators; one argmax pair over the chunk's changed words gives
    those bounds for all its groups.  A group's changed words run
    cyclically from the first of its steps that a fault can change (see
    ``_run_faulted_chain``), so they can wrap past word n - 1 and leave two
    runs in a chunk: on im2txt's one-chunk paths, one product over their
    hull beat one product per run.  Every delta is a sum of +-2^k over the
    displaced planes k, so a multiple of 2^k for the lowest of them; the
    products take the deltas over that power, which keeps them in float32
    when one plane is displaced."""
    low = int(np.bitwise_or.reduce(delta, axis=None))
    if not low:
        return
    shift = (low & -low).bit_length() - 1
    delta = delta >> shift
    changed = delta != 0
    groups = np.arange(len(delta) + 1)
    for c, (lo, size) in enumerate(zip(geo.lo[path], geo.size[path])):
        hit = changed[:, lo:lo + size]
        if not hit.any():
            continue
        # Each group's first changed column of the chunk and one past its
        # last; live: the groups that changed one and feed neurons there.
        first = hit.argmax(axis=1)
        fed = np.searchsorted(geo.group_of[path, c], groups)
        live = hit[groups[:-1], first] & (fed[:-1] < fed[1:])
        w0, w1 = lo + first, lo + size - hit[:, ::-1].argmax(axis=1)
        for g in np.flatnonzero(live).tolist():
            n0, n1 = fed[g], fed[g + 1]
            product = _exact_matmul([w[n0:n1, w0[g]:w1[g]] for w in weights],
                                    delta[g, w0[g]:w1[g]], w_max)
            accs[path, :, n0:n1] += product.reshape(len(weights), n1 - n0) << shift


def _windows(a, width):
    """Every run of `width` columns of the C-contiguous 2-D array `a`, as a
    read-only view: w[i, j] is a[i, j:j + width].  ``sliding_window_view``
    gives the same view after checks in Python: 10.7 us a call against
    1.1 us, on a 2-core VM (numpy 2.4), for a 512-row unit whose gather
    through the view takes 15 us."""
    rows, cols = a.shape
    step = a.strides[1]
    view = np.ndarray((rows, cols - width + 1, width), a.dtype, a, 0, (a.strides[0], step, step))
    view.flags.writeable = False
    return view


class _Misreads:
    """The EDC-off weight faults of one (layer, time block), decoded from
    the fault rows and the stored weights, and applied a step at a time.

    The rows are keyed by (step, track, plane), as ``_fault_slots`` keys a
    track: each key is one displaced (track, plane) pair of one step's pass.
    The pairs, in key order, are decoded in units of consecutive pairs whose
    doubled bit rows (two bytes per pair and word) fit _BLOCK_BYTES, so a
    unit may span several steps or split one.  A unit is decoded when the
    first step that needs it comes up and dropped after its last step.

    Decoding a unit gives each pair a row of its plane's stored bits in
    arrival order from the pair's first fault on, 0 past its track's end.
    Arrival slot s holds word lo + (turn + s) mod size, so the row is one
    window of the chunk's bits laid out twice in word order.  The slots
    before a pair's first fault read their stored bits, and a row's first
    slot is its first fault's, so ``weight_plane_reads`` needs only the
    pairs' later faults to give the rows as read; the flips are read -
    stored.  Each MAC fault's weight gains its track's flip at its position
    then, which makes it the weight as read.  The flips go back to the
    chunk's word order through a second window: one int8 row per pair, in
    key order.

    A step then adds to each pair's accumulator 2^plane (negated for the
    sign plane) times the product of its flip row with the words its
    pair's group delivered, seen[path][group, lo:lo + size], a (path,
    chunk) run of pairs at a time.  After a fault-free pass every group
    delivered the same words, so a run is one exact ``_exact_matmul``
    product of its flip rows with that one vector; |flip| <= 1, so its
    float32 blocks are 512 columns wide.  After a pass with chain faults,
    the run gathers each pair's delivered words and multiplies row by row.
    """

    def __init__(self, geo, params, steps, step, rows, macs):
        *_, position, track, plane = _fault_slots(geo, rows)
        width = self.width = int(geo.size.max())
        unit = self.unit = max(1, _BLOCK_BYTES // (2 * width))
        key = (step * geo.tracks + track) * WORD_PLANES + plane
        # The fault rows sorted by pair, and by position within a pair.
        order = np.argsort(key * width + position, kind="stable")
        key, position = key[order], position[order]
        new = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        self.pairs = key[new]
        n = len(self.pairs)
        pair = np.cumsum(new) - 1
        # Each pair's first fault.
        first = position[new]
        pair_track, plane = np.divmod(self.pairs, WORD_PLANES)
        pair_step, track = np.divmod(pair_track, geo.tracks)
        path, gate, chunk, self.neuron = np.unravel_index(track, geo.dims)
        self.path, self.gate = path, gate
        self.group = geo.group_of[path, chunk, self.neuron]
        self.value = _PLANE_VALUES[plane]
        size, lo = geo.size[path, chunk], geo.lo[path, chunk]
        # Step j's pairs as pieces (unit, first row there, rows, path,
        # words): (path, chunk) runs of its pairs within one unit, and the
        # chunk's word range.
        self.pieces = [[] for _ in range(steps)]
        cuts = 1 + np.flatnonzero(np.diff(pair_step * 2 + path) | np.diff(chunk))
        cuts = sorted({0, *cuts.tolist(), *range(unit, n, unit)})
        for i0, i1, j, p, w0, k in zip(cuts, cuts[1:] + [n], *(a[cuts].tolist() for a in (
                pair_step, path, lo, size))):
            self.pieces[j].append((i0 // unit, i0 % unit, i1 - i0, p, slice(w0, w0 + k)))
        # Decode order: each unit's pairs by (path, gate, chunk), so that a
        # run of rows shares one weight matrix and one column range; pair i
        # is row[i] of its unit.
        matrix = np.arange(n) // unit * geo.tracks + np.ravel_multi_index(
            (path, gate, chunk), geo.dims[:3])
        o = np.argsort(matrix, kind="stable")
        self.row = np.empty_like(o)
        self.row[o] = np.arange(n) % unit
        # Each unit's runs of rows as (first row, end, weights, words).
        self.runs = [[] for _ in range(-(-n // unit))]
        cuts = [0, *(1 + np.flatnonzero(np.diff(matrix[o]))).tolist()]
        for r0, r1, i, p, g, w0, k in zip(cuts, cuts[1:] + [n], *(a[o[cuts]].tolist() for a in (
                np.arange(n), path, gate, lo, size))):
            self.runs[i // unit].append((r0 % unit, r1 - r0 + r0 % unit, _weights(params, g, p),
                                         slice(w0, w0 + k)))
        # A pair's row starts at word lo + start, its first fault's, and
        # word lo + w is row slot (w - start) mod size, back + w taken mod
        # size.
        start = (geo.turn[path, self.group, chunk] + first) % size
        self.back = (size - start) % size
        # In decode order: each row's start, neuron and plane's bit, and its
        # row `blank` of `prefix`, which is 1 up to its track's end, then 0.
        self.start, self.rows_neuron = start[o], self.neuron[o]
        self.bit = (1 << plane[o]).astype(np.int16)
        self.blank = (width - size + first)[o]
        self.prefix = _windows((np.arange(2 * width) < width)[None], width)[0]
        units = np.arange(len(self.runs) + 1) * unit
        # The later fault rows as (row, slot), unit u's at
        # later[later_ptr[u]:later_ptr[u + 1]].
        later = pair[~new]
        self.later = np.stack((self.row[later], position[~new] - first[later]), axis=1)
        self.later_ptr = np.searchsorted(later, units).tolist()
        # One entry per (MAC fault, pair of its step's track), sorted by pair:
        # the pair's row, the fault's slot in it, and the weight its flip
        # there adds, 0 before the pair's first fault; unit u's at
        # hit_ptr[u]:hit_ptr[u + 1].
        m_step, m_track, m_position, self.m_weight = macs
        m_key = (m_step * geo.tracks + m_track) * WORD_PLANES
        at = np.searchsorted(self.pairs, np.concatenate((m_key, m_key + WORD_PLANES)))
        at, count = at[:len(m_key)], at[len(m_key):] - at[:len(m_key)]
        self.hit_ptr = [0] * len(units)
        if count.any():
            hit = np.repeat(np.arange(len(at)), count)
            hit_pair = np.arange(len(hit)) + np.repeat(at - np.cumsum(count) + count, count)
            order = np.argsort(hit_pair, kind="stable")
            self.hit, hit_pair = hit[order], hit_pair[order]
            self.hit_row = self.row[hit_pair]
            self.hit_slot = m_position[self.hit] - first[hit_pair]
            self.hit_value = (self.hit_slot >= 0) * self.value[hit_pair]
            self.hit_ptr = np.searchsorted(hit_pair, units).tolist()
        self.held = None

    def _decode(self, u):
        """Unit u's flip rows, int8, in word order: pair u * unit + i's at
        row i, its chunk's words in its first columns."""
        width = self.width
        p0, p1 = u * self.unit, min((u + 1) * self.unit, len(self.pairs))
        n = p1 - p0
        at = slice(p0, p1)
        stored = np.empty((n, width), dtype=np.int16)
        for r0, r1, weights, words in self.runs[u]:
            stored[r0:r1, :words.stop - words.start] = weights[self.rows_neuron[p0 + r0:p0 + r1],
                                                               words]
        # Row i holds its pair's bits of its plane in word order, twice, with
        # the chunk's period, so that the window of `width` bits at its start
        # holds them in arrival order from its first fault on.
        np.bitwise_and(stored, self.bit[at, None], out=stored)
        twice = np.empty((n, 2 * width), dtype=bool)
        np.not_equal(stored, 0, out=twice[:, :width])
        del stored
        twice[:, width:] = twice[:, :width]
        short = [(r0, r1, words.stop - words.start) for r0, r1, _, words in self.runs[u]
                 if words.stop - words.start < width]
        for r0, r1, k in short:
            twice[r0:r1, k:2 * k] = twice[r0:r1, :k]
        bits = _windows(twice, width)[np.arange(n), self.start[at]]
        # Past its track's end, a row holds 0.
        np.logical_and(bits, self.prefix[self.blank[at]], out=bits)
        read = weight_plane_reads(bits, self.later[self.later_ptr[u]:self.later_ptr[u + 1]])
        flips = np.subtract(read.view(np.int8), bits.view(np.int8), out=read.view(np.int8))
        h0, h1 = self.hit_ptr[u], self.hit_ptr[u + 1]
        if h0 < h1:
            np.add.at(self.m_weight, self.hit[h0:h1],
                      flips[self.hit_row[h0:h1], self.hit_slot[h0:h1]] * self.hit_value[h0:h1])
        # Back to word order, through the flips laid out twice the same way.
        twice = twice.view(np.int8)
        twice.reshape(n, 2, width)[:] = flips[:, None]
        for r0, r1, k in short:
            twice[r0:r1, k:2 * k] = flips[r0:r1, :k]
        return _windows(twice, width)[self.row[at], self.back[at]]

    def apply(self, j, seen, accs):
        """Add step j's misreads, with the words seen[path][group, word] the
        step delivered, to `accs[path, gate, neuron]`.  A seen[path] whose
        groups share one row (stride 0, as ``np.broadcast_to`` gives it) is
        a fault-free pass."""
        pieces = self.pieces[j]
        if not pieces:
            return
        a = pieces[0][0] * self.unit + pieces[0][1]
        b = pieces[-1][0] * self.unit + pieces[-1][1] + pieces[-1][2]
        change = np.empty(b - a, dtype=np.int64)
        for u, r, n, p, words in pieces:
            if self.held is None or self.held[0] != u:
                self.held = None
                self.held = u, self._decode(u)
            flips = self.held[1][r:r + n, :words.stop - words.start]
            i0 = u * self.unit + r
            out = change[i0 - a:i0 - a + n]
            delivered = seen[p]
            if not delivered.strides[0]:
                out[:] = _exact_matmul([flips], delivered[0, words], 1)
                continue
            # After a chain fault, each pair's group's words, 8 bytes per
            # pair and word.
            rows = max(1, _BLOCK_BYTES // (8 * flips.shape[1]))
            for r0 in range(0, n, rows):
                r1 = min(r0 + rows, n)
                out[r0:r1] = np.einsum("ij,ij->i", flips[r0:r1],
                                       delivered[self.group[i0 + r0:i0 + r1], words])
        if min((self.held[0] + 1) * self.unit, len(self.pairs)) <= b:
            self.held = None
        at = slice(a, b)
        np.add.at(accs, (self.path[at], self.gate[at], self.neuron[at]), change * self.value[at])


def _zeroed_slots(geo, step, rows, corrections):
    """The slots that a block's weight fault rows, of steps `step`, zero
    with EDC on, as (step, rows) in ``FaultPlan``'s row layout with plane
    -1; counts them and the shifts they hold back in `corrections`.  One
    ``weight_zeros`` call takes every faulted track of the block, keyed by
    (step, track), since each step makes its own pass."""
    path, _gate, chunk, _neuron, position, track, plane = _fault_slots(geo, rows)
    _, first, row = np.unique(step * geo.tracks + track, return_index=True, return_inverse=True)
    zero_slots, held = weight_zeros(geo.size[path, chunk][first],
                                    np.stack((row, plane, position), axis=1))
    corrections["weight_zeroed"] += len(zero_slots)
    corrections["suppressed_shifts"] += held
    # Each zeroed slot as its track's first fault, moved to the slot.
    at = first[zero_slots[:, 0]]
    zeroed = rows[at]
    zeroed[:, 3] += zero_slots[:, 1] - position[at]
    zeroed[:, 4] = -1
    return step[at], zeroed


def _decode_faults(geo, params, weight, mac, edc, corrections):
    """Decode one (layer, time block)'s weight and logic faults from the
    fault rows alone: `weight` and `mac` are the block's (ptr, rows) from
    ``stream_rows``.

    With EDC on, ``_zeroed_slots`` gives the zeroed slots, no weight row is
    misread, and nothing else is made for them; with EDC off, a
    ``_Misreads`` takes the weight rows, and the MAC faults' weights, which
    its units make the weights as read when they are decoded.  Each product
    row adds weight * word & mask to its accumulator: a MAC fault one bit,
    plane + FRAC_BITS, of its product (weight 0 on a zeroed slot of its
    step), and a zeroed slot its whole product taken off (weight -stored,
    mask -1).  Returns (misreads or None, (ptr, path, gate, neuron, group,
    word, weight, mask)), the product rows sorted by (step, path), step j's
    path p rows at ptr[2 j + p]:ptr[2 j + p + 1].
    """
    (w_ptr, w_rows), (m_ptr, m_rows) = weight, mac
    steps = np.arange(len(w_ptr) - 1)
    products = [(np.repeat(steps, np.diff(m_ptr)), m_rows)]
    if edc and len(w_rows):
        products.append(_zeroed_slots(geo, np.repeat(steps, np.diff(w_ptr)), w_rows, corrections))
    step, rows = (np.concatenate(c) for c in zip(*products))
    order = np.argsort(2 * step + rows[:, 2], kind="stable")
    step, rows = step[order], rows[order]
    path, gate, chunk, neuron, position, track, plane = _fault_slots(geo, rows)
    group, word, weight = _slot_lookup(geo, params, path, gate, chunk, neuron, position)
    zeroed = plane < 0
    if zeroed.any():
        # A MAC fault on a zeroed slot of its step reads 0.
        slot = (step * geo.tracks + track) * int(geo.size.max()) + position
        zero_slots = np.sort(slot[zeroed])
        on_zero = zero_slots[np.searchsorted(zero_slots, slot) % len(zero_slots)] == slot
        weight[on_zero & ~zeroed] = 0
    weight[zeroed] *= -1
    mask = np.where(zeroed, -1, 1 << (plane + fp.FRAC_BITS))
    ptr = np.searchsorted(2 * step + path, np.arange(2 * len(steps) + 1))
    misreads = None
    if not edc and len(w_rows):
        misreads = _Misreads(geo, params, len(steps), np.repeat(steps, np.diff(w_ptr)), w_rows,
                             (step, track, position, weight))
    return misreads, (ptr, path, gate, neuron, group, word, weight, mask)


def _apply_faults(faults, j, seen, accs):
    """Apply step j of a block of faults that ``_decode_faults`` decoded to
    `accs[path, gate, neuron]`, with the words seen[path][group, word] the
    step delivered.  With EDC off, the step's misreads come first: decoding
    their units adds each MAC fault's flips to its weight, which makes it
    the weight as read."""
    misreads, (ptr, path, gate, neuron, group, word, weight, mask) = faults
    if misreads is not None:
        misreads.apply(j, seen, accs)
    ptr = ptr[2 * j:2 * j + 3]
    if ptr[0] < ptr[2]:
        at = slice(ptr[0], ptr[2])
        delivered = np.concatenate([
            seen[p][group[ptr[p]:ptr[p + 1]], word[ptr[p]:ptr[p + 1]]] for p in (0, 1)
        ])
        np.add.at(accs, (path[at], gate[at], neuron[at]), weight[at] * delivered & mask[at])


def _layer_timing(lp, hw, impl):
    """(stall, period, body) of layer `lp`: the cross-group stall per word,
    the cycles between its word deliveries, and the cycles of one timestep,
    from its start to its activations' end."""
    stall = max(
        lp.chain.stall_per_step(hw.interconnect_latency_cycles),
        lp.recurrent_chain.stall_per_step(hw.interconnect_latency_cycles),
    )
    period = hw.mac_issue_interval + stall
    body = period * max(lp.inputs, lp.neurons) + hw.mac_latency
    body += lp.agg_hops * hw.hop_latency_cycles
    body += ACT_STAGES[lp.cell_type] * hw.act_latency(impl)
    return stall, period, body


def _mac_sample(lp, hw, period, body, timesteps):
    """(issue, completion) cycles of the first MAC_LOG_LIMIT input-path
    words of layer `lp`, the first layer, as one ``MacPipeline`` takes
    them.  The first layer waits only for its own previous timestep, so
    timestep t starts at t * body and delivers word s at
    t * body + (s + 1) * period; with fewer inputs than MAC_LOG_LIMIT the
    sample spans several timesteps."""
    pipe = MacPipeline(hw.mac_stages, hw.mac_cycles_per_stage, hw.mac_issue_interval)
    for k in range(min(MAC_LOG_LIMIT, timesteps * lp.inputs)):
        t, s = divmod(k, lp.inputs)
        pipe.issue(t * body + (s + 1) * period)
    return [list(entry) for entry in pipe.log]


def simulate(placement: Placement, params, inputs,
             error_cfg: ErrorConfig | None = None, *, shared: _Shared | None = None) -> RunResult:
    """Run the placed network over a timestep-major input stream.

    The ledger is every layer's fault-free step events, T times, less the
    shifts that EDC corrections held back.  Of those, the result's
    ``corrections["suppressed_shifts"]`` counts the weight tracks' holds
    only: ``track_shift`` also lacks the input chains' holds, which no
    correction counter reports.

    `shared` is a ``_Shared`` made from these very placement, params and
    inputs objects, which every run of a sweep passes; its arrays are
    read-only, and the result holds no reference to it.  Without it, the
    run makes its own, which keeps nothing past the layer using it.  A
    `shared` made from any other objects raises ValueError, even when
    they are equal, and every call validates its params and inputs.
    """
    if shared is None:
        shared = _Shared(placement, params, inputs, keep=False)
    if any(a is not b for a, b in zip((shared.placement, shared.params, shared.inputs),
                                      (placement, params, inputs))):
        raise ValueError("shared was made for another placement, params or inputs")
    spec = placement.spec
    hw = placement.hw
    impl = spec.activation_impl
    T = spec.timesteps
    if len(params) != len(spec.layers):
        raise ValueError("one LayerParams per layer required")
    for lp, layer, p in zip(placement.layers, spec.layers, params):
        shape = (p.cell_type, p.neurons, p.inputs, p.gates[0].hidden)
        if shape != (layer.cell_type, layer.neurons, layer.inputs, layer.neurons):
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

    plan = FaultPlan(error_cfg, placement) if error_cfg and error_cfg.active else None
    acts = activation_fns(impl)
    geos = [_LayerGeometry(lp, hw, error_cfg) for lp in placement.layers]
    corrections = {
        "input_corrected": 0,
        "weight_zeroed": 0,
        "suppressed_shifts": 0,
        "logic_faults": sum(map(len, [*plan.mac_faults, *plan.act_faults])) if plan else 0,
        "fault_events": plan.total_events() if plan else 0,
    }
    chain_held = 0
    if plan and plan.cfg.edc_inputs:
        for lp in placement.layers:
            for name, layout in zip(PATHS, (lp.chain, lp.recurrent_chain)):
                ptr, rows = stream_rows(plan.input_faults[lp.index, name], 0, T)
                for t in np.flatnonzero(np.diff(ptr)):
                    corrected, held = _edc_chain_holds(layout, rows[ptr[t]:ptr[t + 1]])
                    corrections["input_corrected"] += corrected
                    chain_held += held

    # Values, layer-major: each layer consumes the previous one's stream.
    outputs = []
    for lp, geo in zip(placement.layers, geos):
        xs = outputs[-1] if outputs else inputs
        outputs.append(_layer_values(lp, geo, shared, xs, acts, plan, corrections))

    events = {op: T * sum(geo.step_events[op] for geo in geos) for op in geos[0].step_events}
    events["track_shift"] -= chain_held + corrections["suppressed_shifts"]
    ledger = EnergyLedger(activation_impl=impl)
    for op, n in events.items():
        ledger.add(op, n)

    timing = [_layer_timing(lp, hw, impl) for lp in placement.layers]
    return RunResult(
        outputs=outputs,
        total_cycles=analytic_cycles(placement),
        total_energy_pj=ledger.energy_pj(),
        counters=ledger.as_dict(),
        per_layer=[
            {
                "layer": lp.index,
                "stall_per_step": timing[i][0],
                **{k: v * T for k, v in geos[i].step_counts.items()},
            }
            for i, lp in enumerate(placement.layers)
        ],
        corrections=corrections,
        mac_sample=_mac_sample(placement.layers[0], hw, *timing[0][1:], T),
        error_config=None if error_cfg is None else {
            **asdict(error_cfg), "sites": sorted(error_cfg.sites),
        },
        timesteps=T,
    )


def analytic_cycles(placement: Placement) -> int:
    """Cycle count of a run of `placement`; faults never change it.

    Each layer's timestep takes its ``_layer_timing`` body b_l, and layers
    pipeline across timesteps: (l, t) starts at
    max(finish(l-1, t), finish(l, t-1)).  That wavefront finishes its last
    layer at sum(b) + (T - 1) * max(b) for T >= 1 timesteps: the first
    timestep fills the pipeline and the slowest layer paces the rest.
    ``simulate`` reports this count; the tests hold it against a
    word-by-word ``MacPipeline`` replay.
    """
    T = placement.spec.timesteps
    if T == 0:
        return 0
    impl = placement.spec.activation_impl
    bodies = [_layer_timing(lp, placement.hw, impl)[2] for lp in placement.layers]
    return sum(bodies) + (T - 1) * max(bodies)
