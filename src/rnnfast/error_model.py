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

from dataclasses import dataclass, replace

import numpy as np

from . import fixedpoint as fp
from .lstm_core import NONLINEAR_EVALS
from .mapping import Placement
from .presets import get_preset

SITES = ("input_chains", "weight_arrays", "logic")
REGIONS = ("all", "integer_only", "fraction_only", "sign_only")
DEFAULT_P_OVERSHIFT = 4.55e-5
WORD_BITS = 16

_SITE_CODE = {name: i for i, name in enumerate(SITES)}


def region_mask(word_bit_index: int, region: str) -> bool:
    """Whether a word bit position is targeted under a region setting."""
    if not 0 <= word_bit_index < WORD_BITS:
        raise ValueError("bit index must be in [0, 16)")
    if region == "all":
        return True
    if region == "integer_only":
        return word_bit_index >= 8
    if region == "fraction_only":
        return word_bit_index < 8
    if region == "sign_only":
        return word_bit_index == 15
    raise ValueError(f"unknown region {region!r}")


def eligible_planes(region: str) -> tuple:
    return tuple(k for k in range(WORD_BITS) if region_mask(k, region))


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
        if self.bit_region not in REGIONS:
            raise ValueError(f"unknown region {self.bit_region!r}")
        if self.p_overshift > 0 and self.seed is None:
            raise ValueError("a seed is required for error-injection runs")

    @property
    def active(self) -> bool:
        return self.p_overshift > 0 and bool(self.sites)


def _stream(seed: int, site: str, layer: int, sub: int = 0) -> np.random.Generator:
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


def gate_paths(cell_type: str):
    """(gate_index, path) MAC streams active for a cell type."""
    if cell_type == "LSTM":
        return [(g, p) for g in range(4) for p in ("x", "h")]
    if cell_type == "GRU":
        return [(g, p) for g in range(3) for p in ("x", "h")]
    return [(0, "x"), (0, "h")]


class FaultPlan:
    """All fault events of one run, decoded per (layer, timestep).

    A fault event is one overshifted word-level shift: one rotate step of
    one tile buffer, one weight advance of one PE stream, or one logic
    operation.  The displaced bit plane is drawn per event from the
    region-eligible set, so region targeting changes where a fault lands,
    not how often faults occur (the integer/fraction study injects with the
    same probability into different word portions).

    Event spaces are flattened per (site, layer) stream:
      input chains:  (tile, timestep, step)               + plane draw
      weight arrays: (neuron, timestep, gate-path-slot)   + plane draw
      logic MACs:    (neuron, timestep, gate-path-slot)   + plane draw
      logic acts:    (neuron, timestep, act)              + plane draw
    """

    def __init__(self, cfg: ErrorConfig, placement: Placement):
        self.cfg = cfg
        self.placement = placement
        self.planes = eligible_planes(cfg.bit_region)
        self.input_faults = {}   # (layer, chain, t) -> {step: {tile: [planes]}}
        self.weight_faults = {}  # (layer, t) -> [(neuron, gate, path, plane, slot)]
        self.mac_faults = {}     # (layer, t) -> [(neuron, gate, path, slot, plane)]
        self.act_faults = {}     # (layer, t) -> [(neuron, act_idx, plane)]
        if cfg.active:
            self._build()

    def _build(self):
        spec = self.placement.spec
        T = spec.timesteps
        npl = len(self.planes)
        for l, lp in enumerate(self.placement.layers):
            n, m = lp.inputs, lp.neurons
            if "input_chains" in self.cfg.sites:
                for ci, (chain_tag, layout, steps) in enumerate(
                    (("x", lp.chain, n), ("h", lp.recurrent_chain, m))
                ):
                    tiles = len(layout.group_capacities)
                    total = tiles * T * steps
                    gen = _stream(self.cfg.seed, "input_chains", l, ci)
                    pos = _draw_positions(gen, total, self.cfg.p_overshift)
                    plane_pick = gen.integers(0, npl, size=len(pos))
                    for p, pk in zip(pos, plane_pick):
                        tile, rest = divmod(int(p), T * steps)
                        t, step = divmod(rest, steps)
                        key = (l, chain_tag, t)
                        self.input_faults.setdefault(key, {}).setdefault(
                            step, {}
                        ).setdefault(tile, []).append(self.planes[int(pk)])
            paths = gate_paths(lp.cell_type)
            path_len = {"x": n, "h": m}
            slots_total = sum(path_len[p] for _g, p in paths)
            if "weight_arrays" in self.cfg.sites:
                total = m * T * slots_total
                gen = _stream(self.cfg.seed, "weight_arrays", l)
                pos = _draw_positions(gen, total, self.cfg.p_overshift)
                plane_pick = gen.integers(0, npl, size=len(pos))
                for p, pk in zip(pos, plane_pick):
                    neuron, rest = divmod(int(p), T * slots_total)
                    t, flat = divmod(rest, slots_total)
                    gate, path, slot = self._unflatten_slot(paths, path_len, flat)
                    self.weight_faults.setdefault((l, t), []).append(
                        (neuron, gate, path, self.planes[int(pk)], slot)
                    )
            if "logic" in self.cfg.sites:
                total = m * T * slots_total
                gen = _stream(self.cfg.seed, "logic", l, 0)
                pos = _draw_positions(gen, total, self.cfg.p_overshift)
                plane_pick = gen.integers(0, npl, size=len(pos))
                for p, pk in zip(pos, plane_pick):
                    neuron, rest = divmod(int(p), T * slots_total)
                    t, flat = divmod(rest, slots_total)
                    gate, path, slot = self._unflatten_slot(paths, path_len, flat)
                    self.mac_faults.setdefault((l, t), []).append(
                        (neuron, gate, path, slot, self.planes[int(pk)])
                    )
                n_acts = NONLINEAR_EVALS[lp.cell_type]
                total = m * T * n_acts
                gen = _stream(self.cfg.seed, "logic", l, 1)
                pos = _draw_positions(gen, total, self.cfg.p_overshift)
                plane_pick = gen.integers(0, npl, size=len(pos))
                for p, pk in zip(pos, plane_pick):
                    neuron, rest = divmod(int(p), T * n_acts)
                    t, act = divmod(rest, n_acts)
                    self.act_faults.setdefault((l, t), []).append(
                        (neuron, act, self.planes[int(pk)])
                    )

    @staticmethod
    def _unflatten_slot(paths, path_len, flat):
        for gate, path in paths:
            k = path_len[path]
            if flat < k:
                return gate, path, flat
            flat -= k
        raise AssertionError("slot index out of range")

    def total_events(self) -> int:
        return (
            sum(len(pl) for by_step in self.input_faults.values()
                for by_tile in by_step.values() for pl in by_tile.values())
            + sum(len(v) for v in self.weight_faults.values())
            + sum(len(v) for v in self.mac_faults.values())
            + sum(len(v) for v in self.act_faults.values())
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


def make_reference_fixture():
    """The documented desk fixture: 1x128 LSTM, 32 steps, seeded params.

    Weights are uniform in [-0.5, 0.5] (weight seed 2024), inputs uniform in
    [-1, 1] (input seed 7); see the desk-ref preset.
    """
    preset = get_preset("desk-ref")
    return preset.spec, preset.hardware(), preset.params(), preset.inputs()


def run_fidelity_experiment(spec, hw, cfg_grid, params=None, inputs=None, seeds=(0,)):
    """Paired error-free vs faulty runs over a config grid x seeds.

    Returns a list of row dicts (one per grid cell per seed) carrying the
    config fields and the two fidelity metrics.  The error-free reference is
    computed once since it does not depend on the fault seed.
    """
    from .mapping import map_network
    from .simulator import simulate

    if params is None or inputs is None:
        raise ValueError("params and inputs are required")
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
