"""Workload definitions, timed operations and the correctness gate.

Every workload is one network run through the public rnnfast API.  A round
of a workload is two timed operations, one with EDC off and one with input
and weight EDC on; rounds repeat until the measuring time is spent.

* ``clean-wide`` -- the seq2seq preset (6x1024 LSTM, 15 steps), fault-free.
  The value path's int16->int64 casts and int64 matmuls dominate host time,
  and it has the largest weight footprint of the full-length presets.
* ``clean-long`` -- the desk-ref network (1x128 LSTM) over 1024 timesteps,
  fault-free.  Its matmuls are tiny, so per-timestep overhead and the
  per-word ``MacPipeline.issue`` timing path dominate.
* ``fault-sweep`` -- the im2txt preset (1x512 LSTM, 11 steps) at the paper's
  p = 4.55e-5 on all sites and bit regions, through
  ``run_fidelity_experiment`` over a fixed set of fault seeds.  The EDC-off
  and EDC-on settings take different fault paths (misaligned reads versus
  zero substitution), so a gain for one that costs the other shows.
  The fault seeds are a fixed set, not derived from the workload seed: the
  runs' host time is dominated by replaying every input-chain pass that
  holds a fault, and that count is Poisson with a mean of about four per
  run, so seed-derived fault sets made the measured work itself vary by
  about 20% between workload seeds.

On the clean workloads the EDC-on operation runs at p = 0: it is still
fault-free, and EDC adds only its pattern-maintenance counters.

Weights and inputs derive from the workload seed.  The gate runs outside
the timed region: each operation's cycles must equal ``analytic_cycles``,
every fault-free output must be bit-exact against a replay through
``lstm_core.cell_step``, and the simulated statistics (ledger counters,
per-layer counts, corrections, fidelity rows) must repeat exactly between
operations of the same setting.

``expected.json`` pins each workload across runs and commits (written by
``pin.py``).  Its ``stats`` are the simulated statistics without the fidelity
rows; they do not depend on the workload seed (the fault seeds are fixed), so
every operation must match them.  Its ``anchor`` holds, for one fixed
workload seed, the fidelity rows and a digest of every run's outputs, faulty
runs included; the gate re-runs that seed once per process, untimed, so a
change to the value or fault path that alters any output fails the gate.  A
workload whose pin is missing or was made for another spec or hardware fails
every operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from rnnfast import error_model, lstm_core, mapping, presets, simulator  # noqa: E402
from rnnfast.error_model import DEFAULT_P_OVERSHIFT, ErrorConfig  # noqa: E402

EXPECTED = HERE / "expected.json"
SETTINGS = ("edc_off", "edc_on")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: mapping.NetworkSpec
    hw: mapping.HardwareConfig
    p_overshift: float = 0.0     # > 0 runs the fidelity sweep
    fault_seeds: tuple = ()      # the sweep's fault seeds
    pinned: bool = True          # checked against expected.json

    @property
    def sweep(self) -> bool:
        return self.p_overshift > 0

    def config(self, setting: str) -> ErrorConfig | None:
        edc = setting == "edc_on"
        if not self.sweep:
            return ErrorConfig(p_overshift=0.0, edc_inputs=True, edc_weights=True) if edc else None
        # run_fidelity_experiment replaces the seed with each fault seed.
        return ErrorConfig(p_overshift=self.p_overshift, edc_inputs=edc, edc_weights=edc, seed=0)


def _preset_workload(preset, name, timesteps=None, **kw):
    p = presets.get_preset(preset)
    spec = p.spec if timesteps is None else replace(p.spec, timesteps=timesteps)
    return Workload(name, spec, p.hardware(), **kw)


# Why each workload is there is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        _preset_workload("seq2seq", "clean-wide"),
        _preset_workload("desk-ref", "clean-long", timesteps=1024),
        _preset_workload(
            "im2txt", "fault-sweep", p_overshift=DEFAULT_P_OVERSHIFT, fault_seeds=(0, 1, 2, 3),
        ),
    )
}

# The workload seed whose outputs expected.json pins.
ANCHOR_SEED = 0


@dataclass
class State:
    placement: mapping.Placement
    params: list
    inputs: np.ndarray


def derived_seeds(seed: int):
    """(weight seed, input seed) derived from the workload seed."""
    w_seed, in_seed = np.random.SeedSequence(int(seed)).generate_state(2, dtype=np.uint32)
    return int(w_seed), int(in_seed)


def setup(w: Workload, seed: int) -> State:
    """Generate parameters and inputs and map the network (the timed set-up)."""
    w_seed, in_seed = derived_seeds(seed)
    params = presets.generate_network_params(w.spec, w_seed)
    inputs = presets.generate_inputs(w.spec, in_seed)
    placement = mapping.map_network(w.spec, w.hw)
    return State(placement, params, inputs)


def same_setup(a: State, b: State) -> bool:
    return (
        a.placement == b.placement
        and np.array_equal(a.inputs, b.inputs)
        and all(
            np.array_equal(ga.w_x, gb.w_x) and np.array_equal(ga.w_h, gb.w_h)
            and np.array_equal(ga.b, gb.b)
            for pa, pb in zip(a.params, b.params)
            for ga, gb in zip(pa.gates, pb.gates)
        )
    )


@contextlib.contextmanager
def captured_runs(pause=None):
    """Collect the RunResult of every ``simulate`` call made meanwhile.

    ``run_fidelity_experiment`` returns only fidelity rows; the gate also
    needs each run's cycles, counters and corrections.  The capture adds one
    Python call per simulated run, and calls ``pause`` (if given) before each.
    """
    results = []
    inner = simulator.simulate

    def recording(*args, **kwargs):
        if pause is not None:
            pause()
        result = inner(*args, **kwargs)
        results.append(result)
        return result

    simulator.simulate = recording
    try:
        yield results
    finally:
        simulator.simulate = inner


@dataclass
class OpResult:
    setting: str
    start: float      # perf_counter at the start of the timed call
    seconds: float    # wall seconds of the timed call, pauses included
    runs: list        # RunResult of every simulate call, in call order
    rows: list        # fidelity rows (one per faulty run)
    host_s: float = 0.0    # seconds without the pauses (set by measure.py)
    scaled_s: float = 0.0  # host_s at the reference host speed (measure.py)

    @property
    def faulty_runs(self) -> list:
        return [r for r in self.runs if r.error_config and r.error_config["p_overshift"] > 0]


def run_op(w: Workload, state: State, setting: str, pause=None) -> OpResult:
    """One timed operation; only the call into rnnfast is timed.

    On the sweep, ``pause`` runs before each of its ``simulate`` calls, inside
    the timed call; the caller takes its time out.
    """
    cfg = w.config(setting)
    if w.sweep:
        with captured_runs(pause) as runs:
            t0 = time.perf_counter()
            rows = error_model.run_fidelity_experiment(
                w.spec, w.hw, [cfg], params=state.params, inputs=state.inputs,
                seeds=w.fault_seeds,
            )
            seconds = time.perf_counter() - t0
        return OpResult(setting, t0, seconds, list(runs), rows)
    t0 = time.perf_counter()
    result = simulator.simulate(state.placement, state.params, state.inputs, error_cfg=cfg)
    seconds = time.perf_counter() - t0
    return OpResult(setting, t0, seconds, [result], [])


def run_stats(result) -> dict:
    return {
        "total_cycles": result.total_cycles,
        "total_energy_pj": result.total_energy_pj,
        "counters": dict(sorted(result.counters.items())),
        "per_layer": result.per_layer,
        "corrections": dict(sorted(result.corrections.items())),
    }


def op_stats(op: OpResult) -> dict:
    """Deterministic simulated statistics of one operation, as JSON reads them."""
    return json.loads(json.dumps({"runs": [run_stats(r) for r in op.runs], "rows": op.rows}))


def seed_free(stats: dict) -> dict:
    """The statistics that do not depend on the workload seed: all but the rows."""
    return {"runs": stats["runs"]}


def outputs_digest(result) -> str:
    h = hashlib.sha256()
    for out in result.outputs:
        a = np.ascontiguousarray(out)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def anchor_record(op: OpResult) -> dict:
    """What expected.json pins of an operation at ``ANCHOR_SEED``."""
    return {"rows": op_stats(op)["rows"], "outputs": [outputs_digest(r) for r in op.runs]}


def pin_record(w: Workload) -> dict:
    """The expected.json entry of a workload (see ``pin.py``)."""
    state = setup(w, ANCHOR_SEED)
    ops = {s: run_op(w, state, s) for s in SETTINGS}
    return {
        "spec": spec_key(w),
        "anchor_seed": ANCHOR_SEED,
        "stats": {s: seed_free(op_stats(op)) for s, op in ops.items()},
        "anchor": {s: anchor_record(op) for s, op in ops.items()},
    }


def check_anchor(w: Workload, pin: dict) -> list:
    """Errors of a re-run of the pinned anchor seed (untimed)."""
    state = setup(w, pin["anchor_seed"])
    errors = []
    for s in SETTINGS:
        if anchor_record(run_op(w, state, s)) != pin["anchor"][s]:
            errors.append(f"{s}: outputs or fidelity rows at seed {pin['anchor_seed']} "
                          "differ from expected.json")
    return errors


def replay_outputs(w: Workload, state: State) -> list:
    """Fault-free per-layer outputs from ``lstm_core.cell_step`` alone."""
    x_seq = np.asarray(state.inputs, dtype=np.int64)
    outputs = []
    for p in state.params:
        h = np.zeros(p.neurons, dtype=np.int64)
        c = np.zeros(p.neurons, dtype=np.int64)
        out = np.zeros((w.spec.timesteps, p.neurons), dtype=np.int16)
        for t in range(w.spec.timesteps):
            h, c = lstm_core.cell_step(x_seq[t], h, c, p, w.spec.activation_impl)
            out[t] = h
        outputs.append(out)
        x_seq = out.astype(np.int64)
    return outputs


def load_pin(w: Workload):
    """The expected.json entry of a workload, or None when it has none for
    the workload's current spec and hardware."""
    pins = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    pin = pins.get(w.name)
    if pin is None or pin.get("spec") != spec_key(w):
        return None
    return pin


def spec_key(w: Workload) -> str:
    return repr((w.spec, w.hw))


class Gate:
    """Correctness checks applied to every timed operation, untimed."""

    def __init__(self, w: Workload, state: State):
        self.reference = replay_outputs(w, state)
        self.cycles = simulator.analytic_cycles(state.placement)
        # A sweep call makes one fault-free reference run plus one per seed.
        self.faulty_runs = len(w.fault_seeds) if w.sweep else 0
        self.first = {}            # setting -> stats of its first operation
        self.pinned = None         # setting -> seed-free stats from expected.json
        # Errors found before any operation; each of them fails every operation.
        self.standing = []
        if w.pinned:
            pin = load_pin(w)
            if pin is None:
                self.standing.append(f"{w.name}: expected.json has no entry for this spec and hardware")
            else:
                self.pinned = pin["stats"]
                self.standing.extend(check_anchor(w, pin))
        self.errors = list(self.standing)

    def check(self, op: OpResult) -> bool:
        errors = list(self.standing)
        if len(op.faulty_runs) != self.faulty_runs or len(op.rows) != self.faulty_runs:
            errors.append(f"{op.setting}: expected {self.faulty_runs} faulty runs and rows")
        for r in op.runs:
            if r.total_cycles != self.cycles:
                errors.append(f"cycles {r.total_cycles} != analytic {self.cycles}")
            fault_free = not (r.error_config and r.error_config["p_overshift"] > 0)
            if fault_free and not (
                len(r.outputs) == len(self.reference)
                and all(np.array_equal(a, b) for a, b in zip(r.outputs, self.reference))
            ):
                errors.append("fault-free outputs differ from the cell_step replay")
        stats = op_stats(op)
        first = self.first.setdefault(op.setting, stats)
        if stats != first:
            errors.append(f"{op.setting}: simulated statistics did not repeat")
        if self.pinned is not None and seed_free(stats) != self.pinned[op.setting]:
            errors.append(f"{op.setting}: simulated statistics differ from expected.json")
        self.errors.extend(errors)
        return not errors
