"""Bit-exact Q8.8 two's-complement arithmetic.

All datapath values (inputs, weights, activations, cell state) are 16-bit
signed fixed point with 8 integer and 8 fraction bits.  Raw integers are the
single source of truth; real values exist only at the I/O boundary
(value = raw / 256).

Conventions, applied uniformly so scalar and vectorized paths agree bit for
bit:

* conversions and product narrowing round to nearest, ties to even;
* every 16-bit result saturates to [-32768, 32767] (never wraps -- wraparound
  would manufacture exactly the large-value corruption the fault experiments
  are meant to isolate);
* dot products accumulate exactly in a wide Q24.16 accumulator and are
  rounded/saturated once at the end, so accumulation order never matters.

The raw-level helpers accept plain ints or numpy integer arrays (int64 math
internally).  ``FixedQ8_8`` / ``WideAccumulator`` are thin scalar wrappers for
code that wants value semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FRAC_BITS = 8
SCALE = 1 << FRAC_BITS          # 256
RAW_MIN = -(1 << 15)            # -128.0
RAW_MAX = (1 << 15) - 1         # 127.99609375
REAL_MIN = RAW_MIN / SCALE
REAL_MAX = RAW_MAX / SCALE

# Wide accumulator: Q24.16.  Products of two Q8.8 values are exact Q16.16;
# sized for >= 2^16 accumulated products of in-range operands.
WIDE_FRAC_BITS = 2 * FRAC_BITS


def saturate(raw):
    """Clamp a raw Q8.8 integer (or array) to the 16-bit signed range."""
    if isinstance(raw, np.ndarray):
        return np.clip(raw, RAW_MIN, RAW_MAX)
    return max(RAW_MIN, min(RAW_MAX, raw))


def round_shift_even(value, bits: int):
    """Arithmetic right shift by `bits` with round-to-nearest, ties to even.

    Works on ints and numpy integer arrays; the shift is arithmetic, so the
    floor/remainder decomposition is exact for negative values too.
    """
    floor = value >> bits
    rem = value & ((1 << bits) - 1)
    half = 1 << (bits - 1)
    if isinstance(value, np.ndarray):
        up = (rem > half) | ((rem == half) & ((floor & 1) == 1))
        return floor + up
    up = rem > half or (rem == half and (floor & 1) == 1)
    return floor + (1 if up else 0)


def from_real(x):
    """Real -> raw Q8.8 with round-to-nearest-even at 2^-8, then saturation."""
    if isinstance(x, np.ndarray):
        return saturate(np.rint(np.asarray(x, dtype=np.float64) * SCALE).astype(np.int64))
    scaled = float(x) * SCALE
    if not np.isfinite(scaled):
        raise ValueError("from_real requires a finite input")
    # Python round() is round-half-even on floats.
    return int(saturate(round(scaled)))


def to_real(raw):
    """Raw Q8.8 -> real."""
    if isinstance(raw, np.ndarray):
        return raw.astype(np.float64) / SCALE
    return raw / SCALE


def add_raw(a, b):
    return saturate(a + b)


def sub_raw(a, b):
    return saturate(a - b)


def neg_raw(a):
    return saturate(-a)


def mul_raw(a, b):
    """Q8.8 product: exact 32-bit multiply, one rounding at 2^-8, saturate."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        wide = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
    else:
        wide = int(a) * int(b)
    return saturate(round_shift_even(wide, FRAC_BITS))


def widen(raw):
    """Embed a raw Q8.8 value exactly into the wide Q24.16 scale."""
    if isinstance(raw, np.ndarray):
        return raw.astype(np.int64) << FRAC_BITS
    return int(raw) << FRAC_BITS


def narrow_raw(acc):
    """Wide Q24.16 accumulator -> raw Q8.8: round once (half-even), saturate."""
    return saturate(round_shift_even(acc, FRAC_BITS))


def dot_wide(w, x):
    """Exact wide accumulation of a Q8.8 dot product (no rounding).

    `w` and `x` are int arrays of raw values; result is Q24.16 (int64).
    Row-major matrices against a vector are supported via numpy matmul.
    """
    return np.asarray(w, dtype=np.int64) @ np.asarray(x, dtype=np.int64)


@dataclass(frozen=True)
class FixedQ8_8:
    """A single Q8.8 value. `raw` is the 16-bit two's-complement integer."""

    raw: int

    def __post_init__(self):
        if not (RAW_MIN <= self.raw <= RAW_MAX):
            raise ValueError(f"raw {self.raw} outside 16-bit signed range")

    @classmethod
    def from_real(cls, x: float) -> "FixedQ8_8":
        return cls(from_real(x))

    def to_real(self) -> float:
        return self.raw / SCALE

    def __add__(self, other: "FixedQ8_8") -> "FixedQ8_8":
        return FixedQ8_8(add_raw(self.raw, other.raw))

    def __mul__(self, other: "FixedQ8_8") -> "FixedQ8_8":
        return FixedQ8_8(mul_raw(self.raw, other.raw))

    def __neg__(self) -> "FixedQ8_8":
        return FixedQ8_8(neg_raw(self.raw))


@dataclass
class WideAccumulator:
    """Q24.16 accumulator for dot products; exact until the final narrow."""

    raw: int = 0

    def mac(self, a: FixedQ8_8, b: FixedQ8_8) -> "WideAccumulator":
        return WideAccumulator(self.raw + a.raw * b.raw)

    def add_q(self, a: FixedQ8_8) -> "WideAccumulator":
        return WideAccumulator(self.raw + (a.raw << FRAC_BITS))

    def narrow(self) -> FixedQ8_8:
        return FixedQ8_8(int(narrow_raw(self.raw)))
