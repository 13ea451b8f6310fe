"""Q8.8 arithmetic: hand values, rational-arithmetic oracle, algebraic laws.

Every helper has one array implementation; a scalar input is a 0-d array
and gives the same value as the matching element of an array input."""

from fractions import Fraction

import numpy as np
import pytest

from rnnfast import fixedpoint as fp


def rational_round_half_even(x: Fraction) -> int:
    """Round an exact rational to the nearest integer, ties to even."""
    floor = x.numerator // x.denominator
    rem = x - floor
    if rem > Fraction(1, 2):
        return floor + 1
    if rem < Fraction(1, 2):
        return floor
    return floor + (floor % 2)


def oracle_dot_narrow(w_reals, x_reals):
    """Exact-rational dot product of Q8.8 operands, rounded once to Q8.8."""
    total = Fraction(0)
    for wr, xr in zip(w_reals, x_reals):
        total += Fraction(fp.from_real(wr), 256) * Fraction(fp.from_real(xr), 256)
    raw = rational_round_half_even(total * 256)
    return fp.saturate(raw)


class TestFromReal:
    def test_exact_one(self):
        assert fp.from_real(1.0) == 256

    def test_round_to_nearest_below_half(self):
        # 0.00195 * 256 = 0.4992 -> rounds down to raw 0
        assert fp.from_real(0.00195) == 0

    def test_saturates_high(self):
        assert fp.from_real(200.0) == 32767

    def test_saturates_low(self):
        assert fp.from_real(-200.0) == -32768

    def test_ties_to_even(self):
        # 0.5/256 scales to exactly 0.5 -> even (0); 1.5/256 -> even (2)
        assert fp.from_real(0.5 / 256) == 0
        assert fp.from_real(1.5 / 256) == 2

    def test_round_trip_every_raw_value(self):
        raws = np.arange(fp.RAW_MIN, fp.RAW_MAX + 1, dtype=np.int64)
        assert np.array_equal(fp.from_real(fp.to_real(raws)), raws)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fp.from_real(float("nan"))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_rejects_non_finite_array_elements(self, bad):
        with pytest.raises(ValueError):
            fp.from_real(np.array([1.0, bad]))

    def test_saturates_huge_finite_values(self):
        assert fp.from_real(np.array([1e300, -1e300, 3e9])).tolist() == [
            fp.RAW_MAX, fp.RAW_MIN, fp.RAW_MAX
        ]


def clip_oracle(raw):
    """The clamp `saturate` used to be, kept as its oracle."""
    return np.clip(np.asarray(raw, dtype=np.int64), fp.RAW_MIN, fp.RAW_MAX)


class TestSaturate:
    EDGES = [
        bound + d for bound in (fp.RAW_MIN, fp.RAW_MAX, 0, 1 << 62, -(1 << 62)) for d in (-1, 0, 1)
    ] + [np.iinfo(np.int64).min, np.iinfo(np.int64).max]

    @staticmethod
    def assert_like_the_oracle(raw):
        got, want = fp.saturate(raw), clip_oracle(raw)
        assert type(got) is type(want)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_bounds_their_neighbours_and_the_int64_extremes(self):
        edges = np.array(self.EDGES, dtype=np.int64)
        self.assert_like_the_oracle(edges)
        self.assert_like_the_oracle(edges[::-1].reshape(-1, 1))
        for value in self.EDGES:
            self.assert_like_the_oracle(value)

    def test_random_int64_values_at_every_scale(self):
        rng = np.random.default_rng(19)
        raw = rng.integers(-(1 << 62), 1 << 62, size=(4, 4096)) >> rng.integers(0, 63, size=4096)
        self.assert_like_the_oracle(raw)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 0, 2)])
    def test_empty_arrays(self, shape):
        self.assert_like_the_oracle(np.empty(shape, dtype=np.int64))
        self.assert_like_the_oracle(np.empty(shape, dtype=np.int16))

    @pytest.mark.parametrize("dtype", [np.int16, np.uint16])
    def test_every_16_bit_value(self, dtype):
        info = np.iinfo(dtype)
        self.assert_like_the_oracle(np.arange(info.min, info.max + 1).astype(dtype))

    def test_python_ints(self):
        self.assert_like_the_oracle(self.EDGES)
        self.assert_like_the_oracle([])
        for value in (0, fp.RAW_MAX + 1, -(1 << 62) - 1):
            self.assert_like_the_oracle(value)

    @pytest.mark.parametrize("value", [
        5, -(1 << 40), np.int16(-7), np.uint16(65535), np.array(1 << 62),
    ], ids=repr)
    def test_a_0_d_input_gives_an_int64_scalar(self, value):
        out = fp.saturate(value)
        assert type(out) is np.int64 and out == clip_oracle(value)


class TestScalarOps:
    """Elementwise laws of the raw helpers."""

    def test_mul_quarter(self):
        half = fp.from_real(0.5)
        assert fp.to_real(fp.mul_raw(half, half)) == 0.25

    def test_add_saturates(self):
        out = fp.saturate(fp.from_real(127.5) + fp.from_real(10.0))
        assert out == 32767
        assert fp.to_real(out) == 127.99609375

    def test_mul_by_minus_one_is_neg(self):
        raws = np.random.default_rng(11).integers(fp.RAW_MIN + 1, fp.RAW_MAX + 1, size=200)
        assert np.array_equal(fp.mul_raw(fp.from_real(-1.0), raws), fp.saturate(-raws))

    def test_neg_of_raw_min_saturates(self):
        assert fp.saturate(-np.int64(fp.RAW_MIN)) == fp.RAW_MAX
        assert fp.mul_raw(fp.from_real(-1.0), fp.RAW_MIN) == fp.RAW_MAX

    def test_commutativity(self):
        rng = np.random.default_rng(7)
        a, b = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=(2, 200))
        assert np.array_equal(fp.saturate(a + b), fp.saturate(b + a))
        assert np.array_equal(fp.mul_raw(a, b), fp.mul_raw(b, a))

    def test_mul_error_bound(self):
        # |mul(a,b) - a*b| <= 2^-9 away from saturation
        rng = np.random.default_rng(23)
        a = rng.uniform(-8, 8, size=500)
        b = rng.uniform(-8, 8, size=500)
        ar, br = fp.from_real(a), fp.from_real(b)
        got = fp.to_real(fp.mul_raw(ar, br))
        want = fp.to_real(ar) * fp.to_real(br)
        assert np.max(np.abs(got - want)) <= 2.0**-9


class TestWideAccumulation:
    def test_saturating_sum_of_256_ones(self):
        ones = np.full(256, fp.from_real(1.0))
        assert fp.to_real(fp.narrow_raw(fp.dot_wide(ones, ones))) == 127.99609375

    def test_cancellation(self):
        w = fp.from_real(np.array([1.0, -1.0]))
        x = fp.from_real(np.array([2.0, 2.0]))
        assert fp.narrow_raw(fp.dot_wide(w, x)) == 0

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            w = rng.uniform(-1, 1, size=64)
            x = rng.uniform(-1, 1, size=64)
            got = fp.narrow_raw(fp.dot_wide(fp.from_real(w), fp.from_real(x)))
            assert got == oracle_dot_narrow(w, x)

    def test_order_independence(self):
        rng = np.random.default_rng(55)
        w = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=100)
        x = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=100)
        base = fp.narrow_raw(int(fp.dot_wide(w, x)))
        for _ in range(10):
            perm = rng.permutation(100)
            assert fp.narrow_raw(int(fp.dot_wide(w[perm], x[perm]))) == base

    def test_vector_dot_matches_scalar_mac(self):
        # A Python-int multiply-accumulate loop, narrowed once at the end.
        rng = np.random.default_rng(3)
        w = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=48)
        x = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=48)
        acc = 0
        for wr, xr in zip(w.tolist(), x.tolist()):
            acc += wr * xr
        assert fp.narrow_raw(acc) == fp.narrow_raw(fp.dot_wide(w, x))


class TestRoundShiftEven:
    @pytest.mark.parametrize(
        "value,bits,expected",
        [
            (128, 8, 0),      # tie -> even 0
            (384, 8, 2),      # tie -> even 2
            (129, 8, 1),
            (-128, 8, 0),     # -0.5 ties to even 0
            (-129, 8, -1),    # just past the tie rounds away
            (-384, 8, -2),    # tie at -1.5 -> even -2
        ],
    )
    def test_scalar_cases(self, value, bits, expected):
        assert fp.round_shift_even(value, bits) == expected

    def test_vector_matches_scalar(self):
        vals = np.arange(-1024, 1025, dtype=np.int64)
        vec = fp.round_shift_even(vals, 8)
        for v, got in zip(vals, vec):
            scalar = fp.round_shift_even(int(v), 8)
            assert scalar == got and isinstance(scalar, np.int64)
