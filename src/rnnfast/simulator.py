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
  correct the accumulators in int64, on the touched chunks only: chain
  passes with faults are replayed through the word-level track model
  (``InputTrackChain``), booked in closed form less the shifts that EDC
  corrections held back; each faulted weight track is read through
  ``racetrack.weight_pass``, the one implementation of the weight-track
  protocol (zero substitutions with EDC on, per-plane misaligned reads
  with EDC off), and logic faults perturb one result bit by one
  significance position.  The narrowed accumulators go through
  ``lstm_core.cell_output``, the one copy of the cell equations, with
  activation faults applied by its hook.  With no faults the outputs are
  bit-identical to ``lstm_core.cell_step``.

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
from .error_model import ErrorConfig, FaultPlan, gate_paths
from .lstm_core import ACT_STAGES, NONLINEAR_EVALS, MacPipeline, cell_output
from .mapping import Placement, _split_even
from .nonlinear import activation_fns
from .racetrack import InputTrackChain, weight_pass

# Per-operation energy, picojoules.  Track rates are the device parameters;
# the rest are desk defaults derived from each unit's racetrack composition
# (MAC: 272 single-bit adders at shift-class cost; approx activation: 16-cell
# track walk; LUT activation: up to 8 shifts + 1 read; aggregation hop: a
# 40-bit wide partial, 3 words of shift-based writes; interconnect: wired
# inter-group hop).  All overridable per ledger.
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

# Per-operation latency in cycles at the 0.5 ns clock (read 1 ns, shift and
# shift-based write 0.5 ns).
DEFAULT_LATENCY_CYCLES = {"track_read": 2, "track_shift": 1, "track_write": 1}

_ATTO_PER_PJ = 10**6

# Timesteps whose input paths share one kernel call.
TIME_BLOCK = 64
# Float64 elements of the kernel's weight-row buffer (512 KB): small enough
# that BLAS reads the rows from cache right after the cast writes them.
_BLOCK_ELEMS = 1 << 16


class EnergyLedger:
    """Monotone event counters with exact energy conversion."""

    def __init__(self, energy_pj=None, latency_cycles=None, activation_impl="approx"):
        rates = dict(DEFAULT_ENERGY_PJ)
        if activation_impl == "lut":
            rates["nonlinear_eval"] = LUT_NONLINEAR_PJ
        if energy_pj:
            rates.update(energy_pj)
        self.rates_aj = {k: round(v * _ATTO_PER_PJ) for k, v in rates.items()}
        self.latency_cycles = dict(latency_cycles or DEFAULT_LATENCY_CYCLES)
        self.counters = {k: 0 for k in self.rates_aj}

    def add(self, op, n=1):
        if n < 0:
            raise ValueError("ledger counters are monotone")
        self.counters[op] = self.counters.get(op, 0) + int(n)

    def energy_pj(self) -> float:
        total_aj = sum(self.counters[k] * self.rates_aj.get(k, 0) for k in self.counters)
        return total_aj / _ATTO_PER_PJ

    def as_dict(self) -> dict:
        return dict(sorted(self.counters.items()))


def energy_report(ledger: EnergyLedger) -> dict:
    """Exact multiply-and-sum energy breakdown."""
    per_op = {
        op: ledger.counters[op] * ledger.rates_aj.get(op, 0) / _ATTO_PER_PJ
        for op in sorted(ledger.counters)
    }
    return {
        "counters": ledger.as_dict(),
        "energy_pj_per_op": per_op,
        "total_energy_pj": ledger.energy_pj(),
        "latency_cycles_per_op": dict(ledger.latency_cycles),
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

    Slot lookup: each weight path ("x" over the input words, "h" over the
    recurrent words) is cut into contiguous chunks, one per PE track.  Per
    path the tables give each slot's chunk, the chain group that feeds each
    neuron's chunk, and ``turn[group, chunk]``: how far the chunk is rotated
    when it reaches that group.  ``locate`` turns these into the chunk's
    words in arrival order; no per-word table is kept.

    Step events: the ledger events of one fault-free (layer, timestep), one
    pass of both input chains included, and the per-layer counts.  Faults
    change only ``track_shift``: each EDC correction holds one later shift.
    """

    def __init__(self, lp, hw, cfg):
        m, n = lp.neurons, lp.inputs
        u = lp.units_per_neuron
        packed = lp.cell_type == "Vanilla" and lp.neurons_per_unit > 1
        n_chunks = lp.pes_per_neuron if packed else u
        neurons = np.arange(m)
        if packed:
            units = np.broadcast_to(neurons // lp.neurons_per_unit, (n_chunks, m))
        else:
            units = neurons * u + np.arange(n_chunks)[:, None]
        tiles = units // hw.lstm_units_per_tile
        edc_in = bool(cfg and cfg.edc_inputs)
        edc_w = bool(cfg and cfg.edc_weights)
        self.chunks, self.chunk_of, self.group_of, self.turn = {}, {}, {}, {}
        for path, layout in (("x", lp.chain), ("h", lp.recurrent_chain)):
            sizes = np.asarray(_split_even(layout.word_capacity, n_chunks))
            starts = np.cumsum(sizes) - sizes
            self.chunks[path] = [(int(a), int(a + k)) for a, k in zip(starts, sizes)]
            self.chunk_of[path] = np.repeat(np.arange(n_chunks), sizes)
            bases = _chain_bases(layout.group_capacities)
            self.group_of[path] = np.minimum(tiles, len(bases) - 1)
            # Group g receives word (base_g + s) mod n at step s, so each
            # chunk reaches it rotated to start at its first word >= base_g.
            self.turn[path] = np.clip(bases[:, None] - starts, 0, sizes)
        # One pass of each chain: every group reads, shifts and writes all 16
        # planes once per word.
        chain_steps = 16 * (
            len(lp.chain.group_capacities) * n + len(lp.recurrent_chain.group_capacities) * m
        )
        paths = gate_paths(lp.cell_type)
        words = sum(n if p == "x" else m for _g, p in paths)
        advances = sum(max(hi - lo - 1, 0) for _g, p in paths for lo, hi in self.chunks[p])
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

    def locate(self, neuron, path, chunk):
        """(chain group, word indices) of a neuron's chunk on a path: the group
        that feeds the chunk, and the chunk's words in the order they reach
        it, which is the order the PE track holds them in."""
        group = self.group_of[path].item(chunk, neuron)
        lo, hi = self.chunks[path][chunk]
        mid = lo + self.turn[path].item(group, chunk)
        return group, np.concatenate((np.arange(mid, hi), np.arange(lo, mid)))


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


def _run_faulted_chain(layout, words_raw, faults_by_step, edc_enabled):
    """Replay one pass through the word-level track model.

    Returns (seen, corrected, held): seen[group, word] is the value the group
    delivered for that word, `corrected` counts the plane reads EDC
    corrected, and `held` the shifts those corrections held back.  A
    correction holds its plane's next shift, so one at the pass's last step
    holds none.
    """
    chain = InputTrackChain(list(layout.group_capacities), edc_enabled=edc_enabled)
    chain.stage([int(w) for w in words_raw])
    n_words = layout.word_capacity
    bases = _chain_bases(layout.group_capacities)
    groups = np.arange(len(bases))
    seen = np.empty((len(bases), n_words), dtype=np.int64)
    corrected = last = 0
    for s in range(n_words):
        delivered, outcomes = chain.rotate_step(faults_by_step.get(s))
        seen[groups, (bases + s) % n_words] = delivered
        last = sum(len(o.corrected_planes) for o in outcomes)
        corrected += last
    return np.where(seen >= 1 << 15, seen - (1 << 16), seen), corrected, corrected - last


def _perturb_result_bit(value, plane):
    """Mis-shift one set bit toward higher significance (off-by-one weight)."""
    bit = (int(value) >> plane) & 1
    return int(value) + (bit << plane)


def _weights(params, gate, path):
    gw = params.gates[gate]
    return gw.w_x if path == "x" else gw.w_h


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
    """
    m = lp.neurons
    gates = params.gates
    w_x = [g.w_x for g in gates]
    w_h = [g.w_h for g in gates]
    bias = np.stack([fp.widen(g.b.astype(np.int64)) for g in gates])
    out = np.empty((len(xs), m), dtype=np.int16)
    h = np.zeros(m, dtype=np.int64)
    c = np.zeros(m, dtype=np.int64)
    for t0 in range(0, len(xs), TIME_BLOCK):
        x_block = xs[t0:t0 + TIME_BLOCK]
        x_accs = _exact_matmul(w_x, x_block.T)
        for j, x in enumerate(x_block):
            accs = {
                "x": x_accs[:, j].reshape(len(gates), m),
                "h": _exact_matmul(w_h, h).reshape(len(gates), m),
            }
            h, c_t = _layer_step_values(
                lp, geo, params, x, h, c, accs, bias, acts, plan, t0 + j, ledger, corrections,
            )
            h = np.asarray(h, dtype=np.int64)
            out[t0 + j] = h
            if c_t is not None:
                c = np.asarray(c_t, dtype=np.int64)
    return out


def _layer_step_values(lp, geo, params, x, h_prev, c_prev, accs, bias, acts, plan, t,
                       ledger, corrections):
    """Finish one (layer, timestep) with fault effects; returns (h, c).

    `accs[path]` holds the fault-free (gate, neuron) accumulators of a path;
    the step's faults correct them in place, in int64 on the touched chunks.
    """
    key = (lp.index, t)
    vecs = {"x": np.asarray(x, dtype=np.int64), "h": h_prev}
    # seen[path][group, word]: what each chain group delivered this pass.
    seen = {}
    # Shifts held back by EDC corrections, off the step's closed-form count.
    credit = 0
    for path, layout in (("x", lp.chain), ("h", lp.recurrent_chain)):
        faults = plan.input_faults.get((lp.index, path, t)) if plan else None
        if faults:
            seen[path], corrected, held = _run_faulted_chain(
                layout, vecs[path], faults, plan.cfg.edc_inputs
            )
            corrections["input_corrected"] += corrected
            credit += held
            delta = seen[path] - vecs[path]
            for chunk, (lo, hi) in enumerate(geo.chunks[path]):
                d = delta[geo.group_of[path][chunk], lo:hi]
                if d.any():
                    for gate in range(len(params.gates)):
                        w = _weights(params, gate, path)[:, lo:hi].astype(np.int64)
                        accs[path][gate] += np.einsum("nk,nk->n", w, d)
        else:
            groups = len(layout.group_capacities)
            seen[path] = np.broadcast_to(vecs[path], (groups, len(vecs[path])))

    # Weight faults, one protocol pass per faulted PE track (neuron, gate,
    # path, chunk): zero substitutions (EDC on) or misaligned reads (EDC off).
    effective = {}
    if plan and plan.weight_faults.get(key):
        tracks = {}
        for neuron, gate, path, plane, slot in plan.weight_faults[key]:
            chunk = int(geo.chunk_of[path][slot])
            lo = geo.chunks[path][chunk][0]
            track = tracks.setdefault((neuron, gate, path, chunk), {})
            track.setdefault(plane, []).append(slot - lo)
        for (neuron, gate, path, chunk), fault_slots in tracks.items():
            lo = geo.chunks[path][chunk][0]
            group, words = geo.locate(neuron, path, chunk)
            stored = _weights(params, gate, path)[neuron, words].astype(np.int64)
            read, zeroed, held = weight_pass(stored, fault_slots, plan.cfg.edc_weights)
            corrections["weight_zeroed"] += zeroed
            corrections["suppressed_shifts"] += held
            credit += held
            accs[path][gate, neuron] += (read - stored) @ seen[path][group, words]
            for j in np.flatnonzero(read != stored):
                effective[(neuron, gate, path, lo + int(j))] = int(read[j])

    # Logic faults on MAC products.
    if plan and plan.mac_faults.get(key):
        for neuron, gate, path, slot, plane in plan.mac_faults[key]:
            chunk = int(geo.chunk_of[path][slot])
            group, words = geo.locate(neuron, path, chunk)
            word = words[slot - geo.chunks[path][chunk][0]]
            wv = effective.get(
                (neuron, gate, path, slot), int(_weights(params, gate, path)[neuron, word])
            )
            product = wv * int(seen[path][group, word])
            delta = _perturb_result_bit(product, plane + fp.FRAC_BITS) - product
            accs[path][gate, neuron] += delta
            corrections["logic_faults"] += 1

    for op, count in geo.step_events.items():
        ledger.add(op, count - credit if op == "track_shift" else count)

    # Activation faults are applied to individual evaluations.
    act_events = {}
    if plan:
        for neuron, act_idx, plane in plan.act_faults.get(key, ()):
            act_events.setdefault(act_idx, []).append((neuron, plane))
            corrections["logic_faults"] += 1

    def apply_act_faults(vals, act_idx):
        for neuron, plane in act_events.get(act_idx, ()):
            vals[neuron] = fp.saturate(_perturb_result_bit(int(vals[neuron]), plane))
        return vals

    # The accumulators narrow once per gate; the GRU candidate's h-path
    # narrows alone (the reset gate scales it inside the kernel).
    wide = accs["x"] + accs["h"] + bias
    if lp.cell_type == "GRU":
        wide = np.concatenate([wide[:2], accs["x"][2:] + bias[2:], accs["h"][2:]])
    pre = list(fp.narrow_raw(wide))
    return cell_output(lp.cell_type, pre, vecs["h"], c_prev, acts,
                       apply_act_faults if act_events else None)


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


def simulate(placement: Placement, params, inputs, error_cfg: ErrorConfig | None = None,
             energy_pj=None) -> RunResult:
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

    ledger = EnergyLedger(energy_pj=energy_pj, activation_impl=impl)
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
