"""Hardware activation-function models: shift-based approximation and LUT.

Two sigmoid/tanh designs are modeled, matching the two hardware options:

* ``*_approx`` -- the shift/add approximation.  For z < 0 the sigmoid is
  (1/2 + zhat/4) / 2^m where m = trunc(|z|) (integer part, truncation toward
  zero) and zhat = z + m, i.e. the fractional remainder in (-1, 0].  The /4
  is two arithmetic right shifts and the /2^m is m more shifts, so the whole
  evaluation is shift/add on a single 16-bit track.  z > 0 mirrors through
  1 - sigmoid(-z), which makes sigmoid(z) + sigmoid(-z) == 1 exact in Q8.8.
  z == 0 returns exactly 0.5, which the symmetry forces and the z < 0 form
  gives at m = zhat = 0.  tanh(z) = 2*sigmoid(2z) - 1 with the doublings
  done as saturating left shifts.

* ``*_lut`` -- a 64-entry table over [-4, 4), 6-bit index, one Q8.8 sample
  per 0.125-wide interval stored at the interval midpoint (the max-error
  optimum for a step approximation).  Inputs at or beyond +/-4 clamp to the
  asymptotes.

``sigmoid_exact`` / ``tanh_exact`` are the double-precision references used
by the accuracy sweeps.

Every entry point has one implementation, over numpy arrays: it takes a
value or an array (raw Q8.8 integers for the hardware models, reals for the
references) and returns an array of the same shape, or a numpy scalar for a
scalar input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import FRAC_BITS, SCALE, from_real, saturate

ONE_RAW = SCALE            # 1.0
HALF_RAW = SCALE // 2      # 0.5

LUT_SAMPLES = 64
LUT_LO = -4.0
LUT_HI = 4.0
LUT_INDEX_SHIFT = 5        # (z_raw + 1024) >> 5 maps [-4, 4) onto 0..63
_LUT_LO_RAW = round(LUT_LO * SCALE)   # -1024


def sigmoid_exact(z):
    """Reference sigmoid in double precision.

    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, both through
    e^-|z|, which never overflows.
    """
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def tanh_exact(z):
    return np.tanh(np.asarray(z, dtype=np.float64))


def _sigmoid_approx_negative(z):
    """Approximate sigmoid on the z <= 0 branch (raw int64 arithmetic)."""
    mag = -z                                # |z| in raw Q8.8, >= 0
    m = mag >> FRAC_BITS                    # trunc toward zero of |z|
    zhat = z + (m << FRAC_BITS)             # z + m, in (-1, 0] -> raw (-256, 0]
    num = HALF_RAW + (zhat >> 2)            # 1/2 + zhat/4, two right shifts
    # num < 2^8, so every shift past 16 gives 0 too; the cap keeps the
    # shift counts inside the word.
    return num >> np.minimum(m, 16)


def sigmoid_approx_raw(z):
    """Shift-based approximate sigmoid on raw Q8.8 values.

    The negative branch evaluates -|z|; z > 0 mirrors it through
    1 - sigmoid(-z), and z == 0 gets exactly HALF_RAW from it.
    """
    z = np.asarray(z, dtype=np.int64)
    neg = _sigmoid_approx_negative(-np.abs(z))
    return neg + (z > 0) * (ONE_RAW - 2 * neg)


def tanh_approx_raw(z):
    """tanh via 2*sigmoid(2z) - 1; the x2 steps are saturating left shifts."""
    s = sigmoid_approx_raw(saturate(np.asarray(z, dtype=np.int64) << 1))
    return saturate((s << 1) - ONE_RAW)


@dataclass(frozen=True)
class LutTable:
    """64 Q8.8 samples of sigmoid or tanh over [-4, 4) between the clamp
    values: table[0] is returned for z < -4, table[1 + i] for sample i, and
    table[65] for z >= 4."""

    table: np.ndarray           # int64, shape (66,), monotone nondecreasing

    @classmethod
    def build(cls, function: str) -> "LutTable":
        if function == "sigmoid":
            fn, lo, hi = sigmoid_exact, 0.0, 1.0
        elif function == "tanh":
            fn, lo, hi = tanh_exact, -1.0, 1.0
        else:
            raise ValueError(f"unknown LUT function {function!r}")
        step = (LUT_HI - LUT_LO) / LUT_SAMPLES
        mids = LUT_LO + (np.arange(LUT_SAMPLES) + 0.5) * step
        return cls(from_real(np.concatenate(([lo], fn(mids), [hi]))))

    def lookup_raw(self, z):
        # Inputs below -4 index -1 or less, inputs at or above 4 index 64 or
        # more; the clip sends both to the clamp values.
        idx = (np.asarray(z, dtype=np.int64) - _LUT_LO_RAW) >> LUT_INDEX_SHIFT
        return self.table[np.clip(idx + 1, 0, LUT_SAMPLES + 1)]


_SIGMOID_LUT = LutTable.build("sigmoid")
_TANH_LUT = LutTable.build("tanh")


def sigmoid_lut_raw(z):
    return _SIGMOID_LUT.lookup_raw(z)


def tanh_lut_raw(z):
    return _TANH_LUT.lookup_raw(z)


def activation_fns(impl: str):
    """Return (sigmoid, tanh) raw-level functions for an implementation tag."""
    if impl == "approx":
        return sigmoid_approx_raw, tanh_approx_raw
    if impl == "lut":
        return sigmoid_lut_raw, tanh_lut_raw
    raise ValueError(f"unknown activation implementation {impl!r}")
