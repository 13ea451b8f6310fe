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
import numbers
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
        p = self.p_overshift
        if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
            raise ValueError(f"p_overshift must be a probability, not {p!r}")
        object.__setattr__(self, "p_overshift", float(p))
        for name in ("edc_inputs", "edc_weights"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, not {flag!r}")
            object.__setattr__(self, name, bool(flag))
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
        if self.seed is not None:
            seed = self.seed
            if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
                raise ValueError(f"seed must be a non-negative integer, not {seed!r}")
            object.__setattr__(self, "seed", int(seed))

    @property
    def active(self) -> bool:
        return self.p_overshift > 0 and bool(self.sites)


def _stream(seed: int, site: str, layer: int, sub: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), _SITE_CODE[site], int(layer), int(sub)])
    )


def _draw_positions(gen: np.random.Generator, n_events: int, p: float) -> np.ndarray:
    """Sorted distinct event indices hit by faults (binomial count)."""
    if n_events <= 0:
        return np.empty(0, dtype=np.int64)
    k = int(gen.binomial(n_events, p))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(gen.choice(n_events, size=min(k, n_events), replace=False).astype(np.int64))


class FaultPlan:
    """All fault events of one run, as one array of rows per stream.

    A fault event is one overshifted word-level shift: one rotate step of
    one tile buffer, one weight advance of one PE stream, or one logic
    operation.  The displaced bit plane is drawn per event from the
    region-eligible set, so region targeting changes where a fault lands,
    not how often faults occur (the integer/fraction study injects with the
    same probability into different word portions).

    Each (site, layer) stream draws flat positions in an event space of this
    shape (row-major), then one plane per event:
      input chains:  (tile, timestep, step)
      weight arrays: (neuron, timestep, gate, word)
      logic MACs:    (neuron, timestep, gate, word)
      logic acts:    (neuron, timestep, act)
    A gate's words run over its n inputs, then its m recurrent inputs:
    word w < n is x-path slot w, and word w >= n is h-path slot w - n.
    A site outside ``cfg.sites``, or p = 0, draws nothing: no generator is
    made, and its streams are empty.

    Each stream is one int32 array with one row per event.  Its first
    column is the timestep, and rows are sorted by it, in event order within
    a timestep.  The path column is its index in ``PATHS`` (0 = x, 1 = h):
      input_faults[(l, chain)]: rows (t, step, group, plane), chain "x" or "h"
      weight_faults[l]:         rows (t, neuron, gate, path, slot, plane)
      mac_faults[l]:            rows (t, neuron, gate, path, slot, plane)
      act_faults[l]:            rows (t, neuron, act, plane)
    ``stream_rows`` slices a stream by timestep, and is the package's only
    reader of the timestep column.  Weight and MAC faults share one row
    layout, so one decode serves both.
    """

    def __init__(self, cfg: ErrorConfig, placement: Placement):
        self.cfg = cfg
        self.input_faults, self.weight_faults, self.mac_faults, self.act_faults = {}, [], [], []
        T = placement.spec.timesteps
        for l, lp in enumerate(placement.layers):
            n, m = lp.inputs, lp.neurons
            for ci, (chain, layout, steps) in enumerate(
                zip(PATHS, (lp.chain, lp.recurrent_chain), (n, m))
            ):
                shape = (len(layout.group_capacities), T, steps)
                tile, t, step, plane = self._draw("input_chains", l, ci, shape).T
                self.input_faults[l, chain] = _by_time(t, step, tile, plane)
            slots = (m, T, len(GATE_ORDERS[lp.cell_type]), n + m)
            for site, faults in (
                ("weight_arrays", self.weight_faults), ("logic", self.mac_faults),
            ):
                neuron, t, gate, word, plane = self._draw(site, l, 0, slots).T
                path = (word >= n).astype(np.int32)
                faults.append(_by_time(t, neuron, gate, path, word - n * path, plane))
            acts = (m, T, NONLINEAR_EVALS[lp.cell_type])
            neuron, t, act, plane = self._draw("logic", l, 1, acts).T
            self.act_faults.append(_by_time(t, neuron, act, plane))

    def _draw(self, site, layer, sub, shape):
        """One stream's events in event order, as int32 rows: the event's
        index along each axis of `shape`, then its displaced plane."""
        if site not in self.cfg.sites or not self.cfg.p_overshift:
            return np.empty((0, len(shape) + 1), dtype=np.int32)
        gen = _stream(self.cfg.seed, site, layer, sub)
        pos = _draw_positions(gen, math.prod(shape), self.cfg.p_overshift)
        planes = np.asarray(REGION_PLANES[self.cfg.bit_region])
        planes = planes[gen.integers(0, len(planes), size=len(pos))]
        return np.stack((*np.unravel_index(pos, shape), planes), axis=1).astype(np.int32)

    def total_events(self) -> int:
        kinds = (self.input_faults.values(), self.weight_faults, self.mac_faults, self.act_faults)
        return sum(len(stream) for kind in kinds for stream in kind)


def _by_time(t, *columns):
    """A stream's rows (t, *columns), stably sorted by timestep.  They are
    stored column-major, so that ``stream_rows`` searches a contiguous
    timestep column."""
    return np.stack((t, *columns))[:, np.argsort(t, kind="stable")].T


def stream_rows(stream, t0, t1):
    """(ptr, rows) of a ``FaultPlan`` stream's events at timesteps
    t0 <= t < t1: step j of them, t = t0 + j, has the rows
    rows[ptr[j]:ptr[j + 1]], in event order and without their timestep."""
    ptr = np.searchsorted(stream[:, 0], np.arange(t0, t1 + 1))
    return ptr - ptr[0], stream[ptr[0]:ptr[-1], 1:]


@dataclass(frozen=True)
class FidelityMetrics:
    argmax_agreement: float
    nrmse: float

    def __post_init__(self):
        if not 0.0 <= self.argmax_agreement <= 1.0:
            raise ValueError("agreement is a fraction")


def fidelity_metrics(reference, observed) -> FidelityMetrics:
    """Compare final-layer output streams (T, M) of two runs, raw Q8.8.

    Both must be 2-D integer arrays of one shape; anything else raises
    ValueError.  The nrmse is the RMSE over the reference's RMS, or the
    plain RMSE when the reference is all zero.
    """
    ref, obs = np.asarray(reference), np.asarray(observed)
    for a in (ref, obs):
        if a.ndim != 2 or a.dtype.kind not in "iu":
            raise ValueError(f"runs must be 2-D raw Q8.8 integer streams, not {a.dtype} "
                             f"of shape {a.shape}")
    if ref.shape != obs.shape:
        raise ValueError("runs must share a shape to be compared")
    ref, obs = ref.astype(np.int64), obs.astype(np.int64)
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
    not depend on the fault seed, and a fault-free cell's rows are the
    reference against itself, with no run of their own.  So the sweep makes
    one ``simulate`` call for the reference and one per seed of each faulty
    cell.  All of them share one ``simulator._Shared``: the state that
    depends only on the placement, the parameters and the inputs is made
    once for the sweep, within _STACK_BYTES, and dropped when it returns.
    """
    from .mapping import map_network
    from .simulator import _Shared, simulate

    placement = map_network(spec, hw)
    shared = _Shared(placement, params, inputs)
    reference = simulate(placement, params, inputs, shared=shared).outputs[-1]
    clean = fidelity_metrics(reference, reference)
    rows = []
    for cfg in cfg_grid:
        for seed in seeds:
            run_cfg, metrics = cfg, clean
            if cfg.p_overshift > 0:
                run_cfg = replace(cfg, seed=seed)
                result = simulate(placement, params, inputs, error_cfg=run_cfg, shared=shared)
                metrics = fidelity_metrics(reference, result.outputs[-1])
            rows.append(
                {
                    "p": run_cfg.p_overshift,
                    "sites": "+".join(sorted(run_cfg.sites)),
                    "region": run_cfg.bit_region,
                    "edc_inputs": run_cfg.edc_inputs,
                    "edc_weights": run_cfg.edc_weights,
                    "seed": run_cfg.seed if run_cfg.p_overshift > 0 else -1,
                    "argmax_agreement": metrics.argmax_agreement,
                    "nrmse": metrics.nrmse,
                }
            )
    return rows
