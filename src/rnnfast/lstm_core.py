"""Functional and structural models of the recurrent compute units.

The functional side evaluates LSTM / GRU / Vanilla cells exactly as the
hardware partitions them: per-gate dot products accumulate the input path,
the recurrent path and the bias into one wide accumulator, narrow once to
Q8.8, then run the elementwise output stage through the configured
activation hardware.  Layers are evaluated vectorized (one call per
timestep, numpy int arrays of raw Q8.8 values).  ``cell_output`` is that
narrowing and output stage, the only copy of the cell equations:
``cell_step`` and the simulator each hand it their wide accumulators.

The structural side has three models.  ``MacPipeline`` is the per-gate
processing element's MAC pipeline (48 stages, 2 cycles each, one issue per
2 cycles), which enforces the issue interval.  The simulator times a layer
from its closed form and drives one pipeline only for a run's
``mac_sample``, the first MAC_LOG_LIMIT input-path issues of layer 0; the
tests replay it word by word as the oracle of that closed form.
``aggregate_wide`` is the cross-unit aggregation chain (even-indexed units
consume, odd-indexed forward, the leftmost unit finishes);
``chunked_gate_preact_wide`` sums split neurons' partials through it, and
its hop count is the mapper's ``agg_hops``.  ``booth_multiply``, a radix-4
Booth multiplier, is an oracle that tests hold bit for bit against
``fixedpoint.mul_raw``.

GRU equations follow the standard update/reset/candidate cell with the
reset gate applied to the already-accumulated recurrent product,
h~ = tanh(Wx.x + b + r (.) (Wh.h)), the form this weight-stationary pipeline
can stream; h_t = (1-z) (.) h_prev + z (.) h~.  Vanilla neurons are
h_t = tanh(Wx.x + Wh.h + b).  When a neuron spans several units, partial
dot products are exchanged unrounded (wide) along the aggregation chain so
the split result is bit-identical to the monolithic evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fixedpoint as fp
from .nonlinear import activation_fns

LSTM_GATES = ("i", "f", "o", "c")
GRU_GATES = ("z", "r", "c")
VANILLA_GATES = ("g",)

GATE_ORDERS = {"LSTM": LSTM_GATES, "GRU": GRU_GATES, "Vanilla": VANILLA_GATES}

# Output-stage activation waves: gate activations, then (LSTM/GRU) a second
# wave that depends on them (tanh of the cell state / of the candidate).
ACT_STAGES = {"LSTM": 2, "GRU": 2, "Vanilla": 1}

# Nonlinear evaluations per neuron per timestep.
NONLINEAR_EVALS = {"LSTM": 5, "GRU": 3, "Vanilla": 1}


class DimensionMismatch(ValueError):
    """Shapes of weights/inputs disagree with the layer contract."""


class IssueTooSoon(RuntimeError):
    """A MAC was issued before the pipeline's 2-cycle initiation interval."""


@dataclass(frozen=True)
class GateWeights:
    """One gate's parameters for a whole layer, raw Q8.8.

    w_x: (neurons, inputs), w_h: (neurons, hidden), b: (neurons,).
    """

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.w_x.ndim != 2 or self.w_h.ndim != 2 or self.b.ndim != 1:
            raise DimensionMismatch("w_x/w_h must be 2-D, b 1-D")
        m = self.w_x.shape[0]
        if self.w_h.shape[0] != m or self.b.shape[0] != m:
            raise DimensionMismatch("gate weight row counts disagree")

    @property
    def neurons(self) -> int:
        return self.w_x.shape[0]

    @property
    def inputs(self) -> int:
        return self.w_x.shape[1]

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]


@dataclass(frozen=True)
class LayerParams:
    """All gates of one layer, in the cell type's canonical gate order."""

    cell_type: str
    gates: tuple

    def __post_init__(self):
        order = GATE_ORDERS.get(self.cell_type)
        if order is None:
            raise ValueError(f"unknown cell type {self.cell_type!r}")
        if len(self.gates) != len(order):
            raise DimensionMismatch(
                f"{self.cell_type} needs {len(order)} gates, got {len(self.gates)}"
            )
        first = self.gates[0]
        for g in self.gates:
            if (g.neurons, g.inputs, g.hidden) != (first.neurons, first.inputs, first.hidden):
                raise DimensionMismatch("gate shapes disagree within the layer")

    @property
    def neurons(self) -> int:
        return self.gates[0].neurons

    @property
    def inputs(self) -> int:
        return self.gates[0].inputs


def _check_vec(name, v, n):
    if v.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({n},)")


def chunked_gate_preact_wide(gw: GateWeights, x, h, chunk_sizes):
    """Gate pre-activation computed the way split neurons compute it.

    The concatenated weight vector [w_x | w_h | b] of every neuron is divided
    into contiguous per-PE chunks, as the mapper's ``pe_words`` lays them
    out; each chunk's partial dot product is accumulated wide and the
    partials are combined over the aggregation chain.  Because partials stay
    unrounded, the result equals the monolithic Wx.x + Wh.h + b exactly for
    any chunking.
    """
    n_total = gw.inputs + gw.hidden + 1
    if sum(chunk_sizes) != n_total or any(c <= 0 for c in chunk_sizes):
        raise DimensionMismatch("chunk sizes must be positive and cover all weights")
    w_all = np.concatenate(
        [gw.w_x.astype(np.int64), gw.w_h.astype(np.int64), gw.b.astype(np.int64)[:, None]],
        axis=1,
    )
    # The bias column multiplies a constant 1.0 input (raw 256).
    v_all = np.concatenate(
        [np.asarray(x, dtype=np.int64), np.asarray(h, dtype=np.int64), [fp.SCALE]]
    )
    partials = []
    lo = 0
    for size in chunk_sizes:
        partials.append(w_all[:, lo : lo + size] @ v_all[lo : lo + size])
        lo += size
    total, _hops = aggregate_wide(partials)
    return total


def cell_output(cell_type, x_acc, h_acc, bias, h_prev, c_prev, acts, hook=None):
    """The narrowing and output stage of one timestep: the only copy of the
    cell equations.

    `x_acc`, `h_acc` and `bias` are [gate, neuron] arrays in the cell
    type's gate order: the wide (Q24.16) input-path and recurrent-path
    accumulators and the widened biases.  Each gate narrows x_acc + h_acc +
    bias once to Q8.8, except the GRU candidate: its x-path narrows with
    its bias and its h-path alone, since the reset gate scales the
    recurrent MAC's narrowed output.  `acts` is the (sigmoid, tanh) pair.
    `hook(values, k)`, when given, sees the k-th activation wave's result
    (LSTM: i, f, o, g, tanh(c); GRU: z, r, h~; Vanilla: h) and returns the
    values to use.  Returns (h_t, c_t) with c_t=None for GRU/Vanilla.
    """
    sig, tanh = acts
    wide = x_acc + h_acc + bias
    if cell_type == "GRU":
        wide = np.concatenate([wide[:2], x_acc[2:] + bias[2:], h_acc[2:]])
    pre = fp.narrow_raw(wide)

    def act(fn, z, k):
        vals = fn(z)
        return vals if hook is None else hook(vals, k)

    if cell_type == "LSTM":
        i, f, o = (act(sig, pre[k], k) for k in range(3))
        g = act(tanh, pre[3], 3)
        c_t = fp.saturate(fp.mul_raw(f, c_prev) + fp.mul_raw(i, g))
        return fp.mul_raw(o, act(tanh, c_t, 4)), c_t
    if cell_type == "GRU":
        z = act(sig, pre[0], 0)
        r = act(sig, pre[1], 1)
        # The reset gate scales the recurrent MAC's narrowed output before
        # the two candidate halves combine.
        h_tilde = act(tanh, fp.saturate(pre[2] + fp.mul_raw(r, pre[3])), 2)
        one_minus_z = fp.saturate(fp.SCALE - z)
        return fp.saturate(fp.mul_raw(one_minus_z, h_prev) + fp.mul_raw(z, h_tilde)), None
    return act(tanh, pre[0], 0), None


def cell_step(x, h_prev, c_prev, params: LayerParams, impl: str = "approx"):
    """One timestep of a layer of any cell type, raw Q8.8 arrays in.

    Returns (h_t, c_t) with c_t=None for GRU/Vanilla.
    """
    _check_vec("x", x, params.inputs)
    _check_vec("h", h_prev, params.gates[0].hidden)
    if params.cell_type == "LSTM":
        _check_vec("c_prev", np.asarray(c_prev), params.neurons)
    gates = params.gates
    return cell_output(
        params.cell_type,
        np.stack([fp.dot_wide(g.w_x, x) for g in gates]),
        np.stack([fp.dot_wide(g.w_h, h_prev) for g in gates]),
        np.stack([fp.widen(g.b) for g in gates]),
        h_prev, c_prev, activation_fns(impl),
    )


def aggregate_wide(partials):
    """Combine per-unit wide partials over the aggregation chain.

    Units sit right-to-left; each round, odd-indexed survivors forward their
    value to the even-indexed neighbor that consumes it, halving the active
    set, so k partials finish in ceil(log2(k)) hops at the leftmost unit.
    Addition is exact (wide), so any chain shape yields the same total.
    Returns (total, hops).
    """
    vals = list(partials)
    if not vals:
        raise DimensionMismatch("aggregate needs at least one partial")
    hops = 0
    while len(vals) > 1:
        # Even consumes odd; a last unpaired survivor waits a round.
        vals = [sum(vals[i:i + 2]) for i in range(0, len(vals), 2)]
        hops += 1
    return vals[0], hops


# Issues a MacPipeline logs: the first few, all that a run's mac_sample reports.
MAC_LOG_LIMIT = 8


@dataclass
class MacPipeline:
    """Deeply pipelined MAC: 48 stages x 2 cycles, one issue per 2 cycles.

    `log` holds (issue, completion) cycles of the first MAC_LOG_LIMIT issues.
    """

    stages: int = 48
    cycles_per_stage: int = 2
    issue_interval: int = 2
    _last_issue: int | None = field(init=False, default=None)
    log: list = field(init=False, default_factory=list)

    @property
    def latency(self) -> int:
        return self.stages * self.cycles_per_stage  # 96 cycles

    def issue(self, cycle: int) -> int:
        if self._last_issue is not None and cycle < self._last_issue + self.issue_interval:
            raise IssueTooSoon(
                f"issue at cycle {cycle} violates the {self.issue_interval}-cycle interval "
                f"(previous issue at {self._last_issue})"
            )
        self._last_issue = cycle
        completion = cycle + self.latency
        if len(self.log) < MAC_LOG_LIMIT:
            self.log.append((cycle, completion))
        return completion


_BOOTH_DIGIT = np.array([0, 1, 1, 2, -2, -1, -1, 0], dtype=np.int64)


def booth_multiply(a_raw, b_raw):
    """Q8.8 multiply via radix-4 Booth recoding of the multiplier.

    The 16-bit multiplier is recoded into eight digits in {-2,-1,0,1,2} from
    overlapping bit triplets; partial products are digit * multiplicand
    shifted by 2 per digit.  The exact 32-bit product is then rounded and
    saturated identically to the plain multiply, so results are
    bit-identical to ``fixedpoint.mul_raw``.
    """
    a = np.asarray(a_raw, dtype=np.int64)
    b = np.asarray(b_raw, dtype=np.int64)
    ub = b & 0xFFFF                      # two's-complement bit pattern
    ext = ub << 1                        # implicit b[-1] = 0
    product = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for i in range(8):
        trip = (ext >> (2 * i)) & 0x7
        digit = _BOOTH_DIGIT[trip]
        product = product + digit * (a << (2 * i))
    # The top digit's triplet treats bit 15 as the sign (the -2..2 digit of
    # the final group already encodes it), so `product` equals a*b exactly.
    return fp.saturate(fp.round_shift_even(product, fp.FRAC_BITS))
