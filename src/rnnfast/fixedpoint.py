"""Bit-exact Q8.8 two's-complement arithmetic.

All datapath values (inputs, weights, activations, cell state) are 16-bit
signed fixed point with 8 integer and 8 fraction bits.  Raw integers are the
single source of truth; real values exist only at the I/O boundary
(value = raw / 256).

Conventions:

* conversions and product narrowing round to nearest, ties to even;
* every 16-bit result saturates to [-32768, 32767] (never wraps -- wraparound
  would manufacture exactly the large-value corruption the fault experiments
  are meant to isolate);
* dot products accumulate exactly in a wide Q24.16 accumulator and are
  rounded/saturated once at the end, so accumulation order never matters.

Each helper has one implementation, over numpy arrays: it takes an int or
float, or an array of them, computes in int64 (float64 for real values) and
returns an array of the same shape, or a numpy scalar for a scalar input.
"""

from __future__ import annotations

import numpy as np

FRAC_BITS = 8
SCALE = 1 << FRAC_BITS          # 256
RAW_MIN = -(1 << 15)            # -128.0
RAW_MAX = (1 << 15) - 1         # 127.99609375
REAL_MIN = RAW_MIN / SCALE
REAL_MAX = RAW_MAX / SCALE


def saturate(raw):
    """Clamp raw Q8.8 integers to the 16-bit signed range."""
    # Two ufunc calls: np.clip's Python dispatch (two getlimits lookups per
    # call) costs more than the clamp itself on the per-step vectors.
    return np.minimum(np.maximum(np.asarray(raw, dtype=np.int64), RAW_MIN), RAW_MAX)


def round_shift_even(value, bits: int):
    """Arithmetic right shift by `bits` with round-to-nearest, ties to even.

    The shift is arithmetic, so the floor/remainder decomposition is exact
    for negative values too.
    """
    value = np.asarray(value, dtype=np.int64)
    floor = value >> bits
    rem = value & ((1 << bits) - 1)
    half = 1 << (bits - 1)
    return floor + ((rem > half) | ((rem == half) & ((floor & 1) == 1)))


def from_real(x):
    """Real -> raw Q8.8 with round-to-nearest-even at 2^-8, then saturation.

    Raises ValueError if any input is NaN or infinite.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("from_real requires finite inputs")
    # Clamping first is exact (the bounds scale to integers) and keeps the
    # integer cast in range.
    return np.rint(np.clip(x, REAL_MIN, REAL_MAX) * SCALE).astype(np.int64)


def to_real(raw):
    """Raw Q8.8 -> real."""
    return np.asarray(raw, dtype=np.float64) / SCALE


def mul_raw(a, b):
    """Q8.8 product: exact 32-bit multiply, one rounding at 2^-8, saturate."""
    wide = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
    return saturate(round_shift_even(wide, FRAC_BITS))


def widen(raw):
    """Embed raw Q8.8 values exactly into the wide Q24.16 scale."""
    return np.asarray(raw, dtype=np.int64) << FRAC_BITS


def narrow_raw(acc):
    """Wide Q24.16 accumulator -> raw Q8.8: round once (half-even), saturate."""
    return saturate(round_shift_even(acc, FRAC_BITS))


def dot_wide(w, x):
    """Exact wide accumulation of a Q8.8 dot product (no rounding).

    `w` and `x` are int arrays of raw values; result is Q24.16 (int64).
    Row-major matrices against a vector are supported via numpy matmul.
    """
    return np.asarray(w, dtype=np.int64) @ np.asarray(x, dtype=np.int64)
