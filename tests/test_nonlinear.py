"""Activation models: hand-evaluated cases, symmetry, exhaustive error sweeps.

The error bounds asserted here were frozen from the exhaustive sweeps over
every Q8.8 value in range (the sweep itself is the oracle; see
``test_frozen_max_error_*``).
"""

import numpy as np
import pytest

from rnnfast import fixedpoint as fp
from rnnfast import nonlinear as nl


def all_raw_in(lo_real, hi_real):
    return np.arange(fp.from_real(lo_real), fp.from_real(hi_real) + 1, dtype=np.int64)


class TestSigmoidApprox:
    def test_zero_is_half(self):
        assert nl.sigmoid_approx_raw(0) == 128  # exactly 0.5

    def test_minus_one(self):
        # m=1, zhat=0 -> (1/2)/2 = 0.25
        assert nl.sigmoid_approx_raw(fp.from_real(-1.0)) == fp.from_real(0.25)

    def test_minus_half(self):
        # m=0, zhat=-0.5 -> 1/2 - 0.125 = 0.375
        assert nl.sigmoid_approx_raw(fp.from_real(-0.5)) == fp.from_real(0.375)

    def test_antisymmetry_exact_everywhere(self):
        z = np.arange(fp.RAW_MIN, fp.RAW_MAX + 1, dtype=np.int64)
        s_pos = nl.sigmoid_approx_raw(z)
        s_neg = nl.sigmoid_approx_raw(-z)
        assert np.all(s_pos + s_neg == nl.ONE_RAW)

    def test_monotone_over_full_range(self):
        z = np.arange(fp.RAW_MIN, fp.RAW_MAX + 1, dtype=np.int64)
        s = nl.sigmoid_approx_raw(z)
        assert np.all(np.diff(s) >= 0)

    def test_frozen_max_error_bound(self):
        # Exhaustive sweep of every representable z in [-8, 8]; the measured
        # maximum against double-precision sigmoid stays within 0.04.
        z = all_raw_in(-8.0, 8.0)
        approx = fp.to_real(nl.sigmoid_approx_raw(z))
        exact = nl.sigmoid_exact(fp.to_real(z))
        assert np.max(np.abs(approx - exact)) <= 0.04

    def test_scalar_matches_vector(self):
        z = all_raw_in(-8.0, 8.0)
        vec = nl.sigmoid_approx_raw(z)
        for zi in range(-2048, 2049, 97):
            scalar = nl.sigmoid_approx_raw(zi)
            assert scalar == vec[zi - int(z[0])] and isinstance(scalar, np.int64)


class TestTanhApprox:
    def test_zero(self):
        assert nl.tanh_approx_raw(0) == 0

    def test_minus_half_composes_sigmoid(self):
        # 2*sigmoid(-1.0) - 1 = 2*0.25 - 1 = -0.5
        assert nl.tanh_approx_raw(fp.from_real(-0.5)) == fp.from_real(-0.5)

    def test_odd_symmetry_without_saturation(self):
        z = np.arange(-16384, 16385, dtype=np.int64)  # |2z| stays in range
        assert np.all(nl.tanh_approx_raw(-z) == -nl.tanh_approx_raw(z))

    def test_frozen_max_error_bound(self):
        # Composition doubles the sigmoid error budget: frozen at 0.08.
        z = all_raw_in(-8.0, 8.0)
        approx = fp.to_real(nl.tanh_approx_raw(z))
        exact = np.tanh(fp.to_real(z))
        assert np.max(np.abs(approx - exact)) <= 0.08


class TestLut:
    def test_clamp_regions(self):
        assert nl.sigmoid_lut_raw(fp.from_real(-10.0)) == 0
        assert nl.sigmoid_lut_raw(fp.from_real(10.0)) == fp.from_real(1.0)
        assert nl.tanh_lut_raw(fp.from_real(-10.0)) == fp.from_real(-1.0)
        assert nl.tanh_lut_raw(fp.from_real(10.0)) == fp.from_real(1.0)

    def test_zero_lands_on_midpoint_sample(self):
        # z=0 indexes sample 32, which stores sigmoid(0.0625); that is 0.5
        # within one half input-quantization step of output change.
        got = nl.sigmoid_lut_raw(0)
        assert got == int(nl._SIGMOID_LUT.samples[32])
        assert abs(fp.to_real(got) - 0.5) <= 0.25 * 0.125 / 2 + 2**-8

    def test_tables_monotone(self):
        assert np.all(np.diff(nl._SIGMOID_LUT.samples) >= 0)
        assert np.all(np.diff(nl._TANH_LUT.samples) >= 0)

    def test_monotone_outputs_full_range(self):
        z = np.arange(fp.RAW_MIN, fp.RAW_MAX + 1, dtype=np.int64)
        assert np.all(np.diff(nl.sigmoid_lut_raw(z)) >= 0)
        assert np.all(np.diff(nl.tanh_lut_raw(z)) >= 0)

    def test_frozen_max_error_sigmoid(self):
        # Midpoint sampling: worst case ~ max|sigmoid'| * step/2 + quantization.
        z = all_raw_in(-4.0, 4.0)
        err = np.abs(fp.to_real(nl.sigmoid_lut_raw(z)) - nl.sigmoid_exact(fp.to_real(z)))
        assert np.max(err) <= 0.05

    def test_frozen_max_error_tanh(self):
        # tanh has unit slope at 0, so a 64-entry step table floors out near
        # tanh(step/2) ~= 0.0624; frozen at 0.065.
        z = all_raw_in(-4.0, 4.0)
        err = np.abs(fp.to_real(nl.tanh_lut_raw(z)) - np.tanh(fp.to_real(z)))
        assert np.max(err) <= 0.065

    def test_approx_sigmoid_within_lut_band(self):
        # Both designs stay within 0.05 of the exact sigmoid on [-4, 4].
        z = all_raw_in(-4.0, 4.0)
        err = np.abs(fp.to_real(nl.sigmoid_approx_raw(z)) - nl.sigmoid_exact(fp.to_real(z)))
        assert np.max(err) <= 0.05

    def test_bad_function_tag(self):
        with pytest.raises(ValueError):
            nl.LutTable.build("relu")


class TestExactReferences:
    def test_values(self):
        assert nl.sigmoid_exact(0.0) == 0.5
        assert nl.tanh_exact(0.0) == 0.0
        assert nl.sigmoid_exact(-1.0) == pytest.approx(0.2689414, abs=1e-6)

    def test_dispatch(self):
        assert nl.activation_fns("approx") == (nl.sigmoid_approx_raw, nl.tanh_approx_raw)
        assert nl.activation_fns("lut") == (nl.sigmoid_lut_raw, nl.tanh_lut_raw)
        with pytest.raises(ValueError):
            nl.activation_fns("exactish")
