"""Binding of logical networks onto the accelerator's resource grid.

The hardware is a pool of tile groups; each group is a grid of rows x
columns of compute tiles, each tile holding 64 LSTM units of 4 PEs.  Layer
i occupies row i, so a network has at most ``rows_per_group`` layers, and a
row may extend horizontally across tile groups, in which case its input
chain is linked through the inter-group interconnect with a look-ahead read
port hiding the interconnect latency.

Per-neuron placement is driven by the PE weight capacity.  A neuron's
per-gate demand is its inputs + hidden + 1 bias words, which take
``pes_per_neuron`` = ceil(demand / capacity) PEs per gate.  An LSTM or GRU
neuron places one PE of each gate per unit, so it spans that many units.  A
Vanilla neuron has one gate: floor(4 / pes_per_neuron) neurons of up to
four PEs share a unit, and a larger one spans ceil(pes_per_neuron / 4)
units.  The partial results of a neuron on several units combine over an
aggregation tree of depth ceil(log2(units)).  A layer takes enough tiles
for its units and for the words of both its chains (64 per tile buffer),
and ``chain_plan`` spreads each chain's words evenly over those buffers.

``map_network`` is total: it returns a Placement satisfying every capacity
invariant or raises ``CapacityExceeded`` with a structured shortfall report.
``utilization_report`` counts the resources a placement uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lstm_core import GATE_ORDERS

INPUT_TRACK_WORDS = 64  # words per tile input buffer (16 planes x 64 cells)


class CapacityExceeded(Exception):
    """The network cannot be placed on the configured hardware."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class LayerSpec:
    cell_type: str   # "LSTM" | "GRU" | "Vanilla"
    neurons: int
    inputs: int

    def __post_init__(self):
        if self.cell_type not in GATE_ORDERS:
            raise ValueError(f"unknown cell type {self.cell_type!r}")
        if self.neurons <= 0 or self.inputs <= 0:
            raise ValueError("layer dimensions must be positive")


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple
    timesteps: int
    activation_impl: str = "approx"

    def __post_init__(self):
        if self.timesteps < 0:
            raise ValueError("timesteps must be >= 0")
        if self.activation_impl not in ("approx", "lut"):
            raise ValueError("activation_impl must be 'approx' or 'lut'")
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        for i in range(1, len(self.layers)):
            if self.layers[i].inputs != self.layers[i - 1].neurons:
                raise ValueError(
                    f"layer {i} expects {self.layers[i].inputs} inputs but layer "
                    f"{i - 1} emits {self.layers[i - 1].neurons}"
                )


@dataclass(frozen=True)
class HardwareConfig:
    lstm_units_per_tile: int = 64
    pes_per_unit: int = 4
    weights_per_pe: int = 1640       # 2 tracks x 205 stripes x 64 cells / 16b
    tiles_per_group: int = 16        # columns per group row
    rows_per_group: int = 16
    groups: int = 4
    interconnect_latency_cycles: int = 4
    clock_period_ns: float = 0.5
    hop_latency_cycles: int = 2
    act_latency_approx: int = 16     # shift-register walk over a 16-bit track
    act_latency_lut: int = 8         # worst-case LUT access
    mac_stages: int = 48
    mac_cycles_per_stage: int = 2
    mac_issue_interval: int = 2
    read_latency_cycles: int = 2     # 1 ns at the 0.5 ns clock
    shift_latency_cycles: int = 1
    write_latency_cycles: int = 1
    rewind_cost: str = "full_pass"   # weight-track return policy (see reports)

    def __post_init__(self):
        for name in (
            "lstm_units_per_tile", "pes_per_unit", "weights_per_pe",
            "tiles_per_group", "rows_per_group", "groups",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def mac_latency(self) -> int:
        return self.mac_stages * self.mac_cycles_per_stage

    def act_latency(self, impl: str) -> int:
        return self.act_latency_approx if impl == "approx" else self.act_latency_lut

    @property
    def row_tiles(self) -> int:
        """Tiles available to one layer row across all groups."""
        return self.tiles_per_group * self.groups

    @property
    def total_units(self) -> int:
        return self.groups * self.rows_per_group * self.tiles_per_group * self.lstm_units_per_tile


@dataclass(frozen=True)
class ChainLayout:
    """Input-word circulation plan for one layer."""

    word_capacity: int          # == layer input count
    group_capacities: tuple     # words stored per participating tile buffer
    spanned_groups: int         # hardware tile groups the row extends over
    boundaries: int             # cross-group seams in the circular chain
    lookahead_offset_cycles: int

    @property
    def cross_group(self) -> bool:
        return self.spanned_groups > 1

    def stall_per_step(self, interconnect_latency: int) -> int:
        if not self.cross_group:
            return 0
        return max(0, interconnect_latency - self.lookahead_offset_cycles)


@dataclass(frozen=True)
class LayerPlacement:
    index: int
    cell_type: str
    neurons: int
    inputs: int
    units_per_neuron: int
    neurons_per_unit: int       # >1 only for Vanilla packing
    pes_per_neuron: int         # per gate
    n_units: int
    n_tiles: int
    agg_hops: int               # ceil(log2(units_per_neuron))
    chain: ChainLayout
    recurrent_chain: ChainLayout


@dataclass(frozen=True)
class Placement:
    spec: NetworkSpec
    hw: HardwareConfig
    layers: tuple

    @property
    def total_units(self) -> int:
        return sum(l.n_units for l in self.layers)

    @property
    def total_pes(self) -> int:
        return sum(l.n_units * self.hw.pes_per_unit for l in self.layers)


def _split_even(total: int, parts: int) -> tuple:
    base, rem = divmod(total, parts)
    return tuple(base + (1 if i < rem else 0) for i in range(parts))


def chain_plan(n_words: int, n_tiles: int, spanned_groups: int, hw: HardwareConfig) -> ChainLayout:
    """Lay `n_words` out over the row's tile input buffers.

    Words spread evenly over the participating buffers (a buffer holds at
    most 64 words; a row with more tiles than words leaves the excess
    buffers out of the ring).  Cross-group links get a look-ahead offset
    equal to the interconnect latency so remote writes land exactly when the
    local stream would.
    """
    n_groups = min(n_tiles, n_words)
    caps = _split_even(n_words, n_groups)
    if max(caps) > INPUT_TRACK_WORDS:
        needed = math.ceil(n_words / INPUT_TRACK_WORDS)
        raise CapacityExceeded(
            f"{n_words} words need {needed} track buffers but only {n_tiles} tiles",
            report={"words": n_words, "buffers": n_tiles, "buffers_needed": needed},
        )
    boundaries = spanned_groups if spanned_groups > 1 else 0
    return ChainLayout(
        word_capacity=n_words,
        group_capacities=caps,
        spanned_groups=spanned_groups,
        boundaries=boundaries,
        lookahead_offset_cycles=hw.interconnect_latency_cycles,
    )


def _place_layer(index: int, layer: LayerSpec, hw: HardwareConfig) -> LayerPlacement:
    demand = layer.inputs + layer.neurons + 1  # per-gate weight words
    pes_per_neuron = math.ceil(demand / hw.weights_per_pe)
    # PEs of one gate of a neuron that share a unit.
    per_unit = hw.pes_per_unit if layer.cell_type == "Vanilla" else 1
    units_per_neuron = math.ceil(pes_per_neuron / per_unit)
    neurons_per_unit = max(1, per_unit // pes_per_neuron)
    n_units = math.ceil(layer.neurons / neurons_per_unit) * units_per_neuron

    n_tiles = max(
        math.ceil(n_units / hw.lstm_units_per_tile),
        math.ceil(layer.inputs / INPUT_TRACK_WORDS),
        math.ceil(layer.neurons / INPUT_TRACK_WORDS),
    )
    if n_tiles > hw.row_tiles:
        raise CapacityExceeded(
            f"layer {index} needs {n_tiles} tiles in one row; "
            f"{hw.row_tiles} available",
            report={
                "layer": index,
                "tiles_needed": n_tiles,
                "tiles_available": hw.row_tiles,
                "units_needed": n_units,
            },
        )
    spanned = math.ceil(n_tiles / hw.tiles_per_group)
    chain = chain_plan(layer.inputs, n_tiles, spanned, hw)
    recurrent = chain_plan(layer.neurons, n_tiles, spanned, hw)
    return LayerPlacement(
        index=index,
        cell_type=layer.cell_type,
        neurons=layer.neurons,
        inputs=layer.inputs,
        units_per_neuron=units_per_neuron,
        neurons_per_unit=neurons_per_unit,
        pes_per_neuron=pes_per_neuron,
        n_units=n_units,
        n_tiles=n_tiles,
        agg_hops=math.ceil(math.log2(units_per_neuron)) if units_per_neuron > 1 else 0,
        chain=chain,
        recurrent_chain=recurrent,
    )


def map_network(spec: NetworkSpec, hw: HardwareConfig) -> Placement:
    """Bind every layer of `spec` onto `hw` or raise CapacityExceeded."""
    if len(spec.layers) > hw.rows_per_group:
        raise CapacityExceeded(
            f"{len(spec.layers)} layers exceed the {hw.rows_per_group} rows of a group",
            report={
                "layers": len(spec.layers),
                "rows_available": hw.rows_per_group,
            },
        )
    placed = tuple(_place_layer(i, layer, hw) for i, layer in enumerate(spec.layers))
    return Placement(spec=spec, hw=hw, layers=placed)


def feasibility_check(spec: NetworkSpec, hw: HardwareConfig) -> bool:
    """Independent necessary condition: aggregate weight demand vs supply.

    Deliberately ignores placement shape; used to cross-check that the
    mapper never succeeds on a network whose raw weight demand cannot fit.
    """
    demand = 0
    for layer in spec.layers:
        per_gate = layer.inputs + layer.neurons + 1
        demand += layer.neurons * len(GATE_ORDERS[layer.cell_type]) * per_gate
    supply = hw.total_units * hw.pes_per_unit * hw.weights_per_pe
    return demand <= supply


def utilization_report(placement: Placement) -> dict:
    """Resource counts and fractions used by a placement."""
    hw = placement.hw
    per_layer = []
    macs_active = 0
    macs_provisioned = 0
    for lp in placement.layers:
        unit_macs = 2 * hw.pes_per_unit  # two MAC engines per PE
        # Each neuron on a unit streams its gates' input and recurrent paths.
        active = 2 * len(GATE_ORDERS[lp.cell_type]) * lp.neurons_per_unit
        layer_active = active * lp.n_units
        layer_prov = unit_macs * lp.n_units
        macs_active += layer_active
        macs_provisioned += layer_prov
        per_layer.append(
            {
                "layer": lp.index,
                "cell_type": lp.cell_type,
                "units": lp.n_units,
                "pes": lp.n_units * hw.pes_per_unit,
                "tiles": lp.n_tiles,
                "units_per_neuron": lp.units_per_neuron,
                "agg_hops": lp.agg_hops,
                "mac_activity": layer_active / layer_prov if layer_prov else 0.0,
            }
        )
    total_units = placement.total_units
    return {
        "layers": per_layer,
        "units_used": total_units,
        "units_available": hw.total_units,
        "unit_utilization": total_units / hw.total_units,
        "pes_used": placement.total_pes,
        "macs_active": macs_active,
        "macs_provisioned": macs_provisioned,
        "mac_activity": macs_active / macs_provisioned if macs_provisioned else 0.0,
        "interconnect_latency_cycles": hw.interconnect_latency_cycles,
        "rewind_cost": hw.rewind_cost,
    }
