"""Preset generators: in-place quantization equals ``fixedpoint.from_real``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnfast import fixedpoint as fp
from rnnfast.presets import PRESETS, _quantize, generate_inputs, generate_network_params


def reference(real):
    return fp.from_real(np.asarray(real, dtype=np.float64)).astype(np.int16)


def test_quantize_matches_from_real_on_ties_saturation_and_negative_zero():
    ties = (np.arange(-300, 300) + 0.5) / fp.SCALE        # k + 0.5 after scaling
    edges = np.array([
        -0.0, 0.0, fp.REAL_MAX, fp.REAL_MIN, 127.998, 128.0, -128.002, -129.0,
        1e6, -1e6, (fp.RAW_MAX + 0.5) / fp.SCALE, (fp.RAW_MIN - 0.5) / fp.SCALE,
        -0.5 / fp.SCALE, -1.5 / fp.SCALE,
    ])
    for real in (ties, edges):
        got = _quantize(real.copy())
        assert got.dtype == np.int16
        assert np.array_equal(got, reference(real))
    assert _quantize(np.array([-0.0]))[0] == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-200.0, 200.0, allow_nan=False), min_size=1, max_size=64))
def test_quantize_matches_from_real(values):
    real = np.array(values)
    assert np.array_equal(_quantize(real.copy()), reference(real))


def test_generated_params_and_inputs_are_those_of_from_real():
    spec = PRESETS["desk-ref"].spec
    rng = np.random.default_rng(3)
    params = generate_network_params(spec, 3)
    for g in params[0].gates:
        for got, shape in ((g.w_x, (128, 128)), (g.w_h, (128, 128)), (g.b, 128)):
            assert np.array_equal(got, reference(rng.uniform(-0.5, 0.5, shape)))
    expected = reference(np.random.default_rng(4).uniform(-1.0, 1.0, (spec.timesteps, 128)))
    assert np.array_equal(generate_inputs(spec, 4), expected)
