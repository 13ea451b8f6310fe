"""Overshift fault injection and the fidelity experiment harness.

Faults are single-position overshifts drawn per shift event with a uniform
probability (default 4.55e-5).  Three injection sites are modeled:

* ``input_chains`` -- the circulating input and recurrent word chains; an
  event displaces one bit-plane track of one tile buffer for the remainder
  of the pass (or is corrected exactly when the input EDC is on).
* ``weight_arrays`` -- the weight-stationary PE tracks; an event misaligns
  one bit-plane of one weight stream mid-pass (or triggers the zero-weight
  substitution when the weight EDC is on).
* ``logic`` -- the MAC and activation racetracks; an event mis-shifts one
  bit of the affected operation's result by one significance position,
  which perturbs the result by at most its own magnitude.

The ``bit_region`` knob restricts eligible bit planes (integer bits 8..15,
fraction bits 0..7, or the sign bit 15 alone), reproducing the
integer/fraction sensitivity study.

Trace determinism: every run's fault events are fully determined by
(seed, site, layer) stream keys and event indices; EDC flags are not part
of the keys, so toggling mitigation compares like against like.  Event
counts are drawn binomially and placed uniformly without replacement,
which is distribution-identical to independent per-event Bernoulli draws.
A suppressed shift consumes its scheduled event as a no-op, keeping the
drawn sequence aligned between mitigated and unmitigated runs.

``run_fidelity_experiment`` pairs every faulty run against the error-free
run on the same inputs and reports desk-scale fidelity: argmax agreement
across timesteps plus the normalized RMSE of the final layer's hidden
stream (the stand-in for task-level accuracy at this scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fixedpoint as fp
from .lstm_core import GATE_ORDERS, NONLINEAR_EVALS
from .mapping import Placement
from .racetrack import WORD_PLANES

SITES = ("input_chains", "weight_arrays", "logic")
DEFAULT_P_OVERSHIFT = 4.55e-5
# The bit planes each bit_region targets.
REGION_PLANES = {
    "all": tuple(range(WORD_PLANES)),
    "integer_only": tuple(range(8, WORD_PLANES)),
    "fraction_only": tuple(range(8)),
    "sign_only": (WORD_PLANES - 1,),
}
# Weight paths in the order of their code in the fault arrays.
PATHS = ("x", "h")

_SITE_CODE = {name: i for i, name in enumerate(SITES)}


@dataclass(frozen=True)
class ErrorConfig:
    p_overshift: float = DEFAULT_P_OVERSHIFT
    sites: frozenset = frozenset(SITES)
    bit_region: str = "all"
    edc_inputs: bool = False
    edc_weights: bool = False
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_overshift <= 1.0:
            raise ValueError("p_overshift must be a probability")
        object.__setattr__(self, "sites", frozenset(self.sites))
        for s in self.sites:
            if s not in SITES:
                raise ValueError(f"unknown site {s!r}")
        if self.p_overshift > 0 and not self.sites:
            raise ValueError("sites must be nonempty when p_overshift > 0")
        if self.bit_region not in REGION_PLANES:
            raise ValueError(f"unknown region {self.bit_region!r}")
        if self.p_overshift > 0 and self.seed is None:
            raise ValueError("a seed is required for error-injection runs")

    @property
    def active(self) -> bool:
        return self.p_overshift > 0 and bool(self.sites)


def _stream(seed: int, site: str, layer: int, sub: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), _SITE_CODE[site], int(layer), int(sub)])
    )


def _draw_positions(gen: np.random.Generator, n_events: int, p: float) -> np.ndarray:
    """Sorted distinct event indices hit by faults (binomial count)."""
    if n_events <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    k = int(gen.binomial(n_events, p))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(gen.choice(n_events, size=min(k, n_events), replace=False).astype(np.int64))


def _by_step(faults, prefix, t, columns):
    """Store event rows under (*prefix, t), keeping event order within a
    step and inserting steps in the order of their first event."""
    rows = np.stack(columns, axis=1)
    order = np.argsort(t, kind="stable")
    steps, first, counts = np.unique(t, return_index=True, return_counts=True)
    groups = np.split(rows[order], np.cumsum(counts)[:-1])
    for k in np.argsort(first):
        faults[(*prefix, int(steps[k]))] = groups[k]


def gate_paths(cell_type: str):
    """(gate_index, path) MAC streams of a cell type: each gate's x and h
    paths, gate by gate."""
    return [(g, p) for g in range(len(GATE_ORDERS[cell_type])) for p in PATHS]


class FaultPlan:
    """All fault events of one run, decoded per (layer, timestep).

    A fault event is one overshifted word-level shift: one rotate step of
    one tile buffer, one weight advance of one PE stream, or one logic
    operation.  The displaced bit plane is drawn per event from the
    region-eligible set, so region targeting changes where a fault lands,
    not how often faults occur (the integer/fraction study injects with the
    same probability into different word portions).

    Each (site, layer) stream draws flat positions in an event space of this
    shape (row-major), then one plane per event:
      input chains:  (tile, timestep, step)
      weight arrays: (neuron, timestep, gate-path-slot)
      logic MACs:    (neuron, timestep, gate-path-slot)
      logic acts:    (neuron, timestep, act)
    A gate-path slot runs over the paths of ``gate_paths`` in order, each
    path over its words.

    Events are stored per (layer, timestep) as int32 arrays with one row
    per event, in event order; the path column is its index in ``PATHS``
    (0 = x, 1 = h):
      input_faults[(l, chain, t)]: rows (step, group, plane), chain "x" or "h"
      weight_faults[(l, t)]:       rows (neuron, gate, path, plane, slot)
      mac_faults[(l, t)]:          rows (neuron, gate, path, slot, plane)
      act_faults[(l, t)]:          rows (neuron, act, plane)
    """

    def __init__(self, cfg: ErrorConfig, placement: Placement):
        self.cfg = cfg
        self.placement = placement
        self.planes = REGION_PLANES[cfg.bit_region]
        self.input_faults = {}   # (layer, chain, t) -> int32 rows (step, group, plane)
        self.weight_faults = {}  # (layer, t) -> int32 rows (neuron, gate, path, plane, slot)
        self.mac_faults = {}     # (layer, t) -> int32 rows (neuron, gate, path, slot, plane)
        self.act_faults = {}     # (layer, t) -> int32 rows (neuron, act, plane)
        if cfg.active:
            self._build()

    def _build(self):
        T = self.placement.spec.timesteps
        sites = self.cfg.sites
        for l, lp in enumerate(self.placement.layers):
            n, m = lp.inputs, lp.neurons
            if "input_chains" in sites:
                for ci, (path, layout, steps) in enumerate(
                    (("x", lp.chain, n), ("h", lp.recurrent_chain, m))
                ):
                    shape = (len(layout.group_capacities), T, steps)
                    tile, t, step, plane = self._draw("input_chains", l, ci, shape).T
                    _by_step(self.input_faults, (l, path), t, (step, tile, plane))
            # Flat gate-path-slot index -> (gate, path code, slot) columns.
            slot_of = np.array([
                (g, PATHS.index(p), s)
                for g, p in gate_paths(lp.cell_type) for s in range(n if p == "x" else m)
            ], dtype=np.int32).reshape(-1, 3)
            slots = (m, T, len(slot_of))
            if "weight_arrays" in sites:
                neuron, t, flat, plane = self._draw("weight_arrays", l, 0, slots).T
                gate, path, slot = slot_of[flat].T
                _by_step(self.weight_faults, (l,), t, (neuron, gate, path, plane, slot))
            if "logic" in sites:
                neuron, t, flat, plane = self._draw("logic", l, 0, slots).T
                gate, path, slot = slot_of[flat].T
                _by_step(self.mac_faults, (l,), t, (neuron, gate, path, slot, plane))
                acts = (m, T, NONLINEAR_EVALS[lp.cell_type])
                neuron, t, act, plane = self._draw("logic", l, 1, acts).T
                _by_step(self.act_faults, (l,), t, (neuron, act, plane))

    def _draw(self, site, layer, sub, shape):
        """One stream's events in event order, as int32 rows: the event's
        index along each axis of `shape`, then its displaced plane."""
        gen = _stream(self.cfg.seed, site, layer, sub)
        pos = _draw_positions(gen, math.prod(shape), self.cfg.p_overshift)
        planes = np.asarray(self.planes)[gen.integers(0, len(self.planes), size=len(pos))]
        return np.stack((*np.unravel_index(pos, shape), planes), axis=1).astype(np.int32)

    def total_events(self) -> int:
        return sum(
            len(v)
            for faults in (self.input_faults, self.weight_faults, self.mac_faults, self.act_faults)
            for v in faults.values()
        )


@dataclass(frozen=True)
class FidelityMetrics:
    argmax_agreement: float
    nrmse: float

    def __post_init__(self):
        if not 0.0 <= self.argmax_agreement <= 1.0:
            raise ValueError("agreement is a fraction")


def fidelity_metrics(reference, observed) -> FidelityMetrics:
    """Compare final-layer output streams (T, M) of two runs, raw Q8.8."""
    ref = np.asarray(reference, dtype=np.int64)
    obs = np.asarray(observed, dtype=np.int64)
    if ref.shape != obs.shape:
        raise ValueError("runs must share a shape to be compared")
    if ref.size == 0:
        return FidelityMetrics(1.0, 0.0)
    agree = float(np.mean(np.argmax(ref, axis=1) == np.argmax(obs, axis=1)))
    denom = float(np.sqrt(np.mean(fp.to_real(ref) ** 2)))
    rmse = float(np.sqrt(np.mean((fp.to_real(obs) - fp.to_real(ref)) ** 2)))
    return FidelityMetrics(agree, rmse / denom if denom > 0 else rmse)


def run_fidelity_experiment(spec, hw, cfg_grid, params, inputs, seeds):
    """Paired error-free vs faulty runs over a config grid x seeds.

    Returns a list of row dicts (one per grid cell per seed) carrying the
    config fields and the two fidelity metrics; a fault-free cell's rows
    carry seed -1.  The error-free reference is computed once since it does
    not depend on the fault seed.
    """
    from .mapping import map_network
    from .simulator import simulate

    placement = map_network(spec, hw)
    reference = simulate(placement, params, inputs).outputs[-1]
    rows = []
    for cfg in cfg_grid:
        for seed in seeds:
            run_cfg = replace(cfg, seed=int(seed)) if cfg.p_overshift > 0 else cfg
            result = simulate(placement, params, inputs, error_cfg=run_cfg)
            metrics = fidelity_metrics(reference, result.outputs[-1])
            rows.append(
                {
                    "p": run_cfg.p_overshift,
                    "sites": "+".join(sorted(run_cfg.sites)),
                    "region": run_cfg.bit_region,
                    "edc_inputs": run_cfg.edc_inputs,
                    "edc_weights": run_cfg.edc_weights,
                    "seed": int(seed) if run_cfg.p_overshift > 0 else -1,
                    "argmax_agreement": metrics.argmax_agreement,
                    "nrmse": metrics.nrmse,
                }
            )
    return rows
