"""``simulate`` rejects input streams that are not raw Q8.8 integers."""

import numpy as np
import pytest

from rnnfast.mapping import HardwareConfig, LayerSpec, NetworkSpec, map_network
from rnnfast.presets import generate_network_params
from rnnfast.simulator import simulate

SPEC = NetworkSpec((LayerSpec("LSTM", 3, 2),), 1)
PLACEMENT = map_network(SPEC, HardwareConfig())
PARAMS = generate_network_params(SPEC, 0)


@pytest.mark.parametrize(
    "inputs",
    [
        [[1.7, -2.2]],               # would truncate to [1, -2]
        [[32768, 0]],
        [[0, -32769]],
        np.array([[True, False]]),
        np.array([[2**40, 0]], dtype=np.int64),
    ],
    ids=["float", "above-int16", "below-int16", "bool", "wide-int"],
)
def test_bad_inputs_are_rejected(inputs):
    with pytest.raises(ValueError):
        simulate(PLACEMENT, PARAMS, inputs)


def test_in_range_integer_inputs_are_accepted():
    for inputs in ([[32767, -32768]], np.array([[5, 250]], dtype=np.uint8)):
        assert simulate(PLACEMENT, PARAMS, inputs).outputs[0].shape == (1, 3)


def test_empty_stream_for_zero_timesteps():
    spec = NetworkSpec(SPEC.layers, 0)
    result = simulate(map_network(spec, HardwareConfig()), PARAMS, [])
    assert result.outputs[0].shape == (0, 3) and result.total_cycles == 0
