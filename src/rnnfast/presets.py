"""Benchmark presets and seeded parameter/input generators.

A ``Preset`` is a named network and the ``HardwareConfig`` fields it
overrides; ``hardware()`` applies them to the defaults.  The shipped
presets mirror the evaluated benchmark set (layer counts, layer widths,
timesteps).  Encoder-decoder benchmarks instantiate encoder and decoder
stacks explicitly, which is what their published resource counts
correspond to (e.g. the 3x1024 translation model occupies 6144 units = 6
stacked layers).

Trained weights are not distributed with the suite, so the caller draws
them from a seed: ``generate_network_params`` gives weights and biases
uniform in [-0.5, 0.5], ``generate_inputs`` the first layer's input stream
uniform in [-1, 1], both quantized to Q8.8.  Results are therefore fidelity
and performance studies of the architecture, not task accuracy runs.

The 1024-wide presets override the PE weight capacity upward: the default
capacity derived from the weight-array geometry (1,640 words) cannot hold
1024+1024+1 words per gate, but the published per-benchmark resource counts
assume the 1:1 neuron-to-unit mapping, so those presets raise the capacity
to 2,560 words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fp
from .lstm_core import GATE_ORDERS, GateWeights, LayerParams
from .mapping import HardwareConfig, LayerSpec, NetworkSpec


def _quantize(real: np.ndarray) -> np.ndarray:
    """Real float64 array -> raw Q8.8 int16, reusing `real` as the scratch.

    Bit-identical to ``fp.from_real(real).astype(np.int16)`` on finite
    values (round half to even, then saturate), but makes no full-size
    temporary besides the int16 result.  `real` is overwritten.
    """
    np.multiply(real, fp.SCALE, out=real)
    np.rint(real, out=real)
    np.clip(real, fp.RAW_MIN, fp.RAW_MAX, out=real)
    return real.astype(np.int16)


def generate_layer_params(rng, cell_type: str, neurons: int, inputs: int) -> LayerParams:
    """Uniform random layer parameters in [-0.5, 0.5], Q8.8-quantized."""
    def draw(shape):
        return _quantize(rng.uniform(-0.5, 0.5, shape))

    gates = tuple(
        GateWeights(w_x=draw((neurons, inputs)), w_h=draw((neurons, neurons)), b=draw(neurons))
        for _ in GATE_ORDERS[cell_type]
    )
    return LayerParams(cell_type, gates)


def generate_network_params(spec: NetworkSpec, seed: int):
    rng = np.random.default_rng(seed)
    return [
        generate_layer_params(rng, layer.cell_type, layer.neurons, layer.inputs)
        for layer in spec.layers
    ]


def generate_inputs(spec: NetworkSpec, seed: int) -> np.ndarray:
    """Timestep-major raw Q8.8 input stream for the first layer, uniform in
    [-1, 1]."""
    rng = np.random.default_rng(seed)
    n0 = spec.layers[0].inputs
    return _quantize(rng.uniform(-1.0, 1.0, (spec.timesteps, n0)))


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    spec: NetworkSpec
    hw_overrides: dict

    def hardware(self) -> HardwareConfig:
        """The default hardware with this preset's overrides."""
        return HardwareConfig(**self.hw_overrides)


def _stack(cell, width, depth, timesteps):
    layers = tuple(LayerSpec(cell, width, width) for _ in range(depth))
    return NetworkSpec(layers, timesteps)


# Capacity override for 1024-wide 1:1 mapping (see module docstring).
_WIDE = {"weights_per_pe": 2560}

PRESETS = {
    "im2txt": Preset(
        "im2txt", "image captioning decoder, 1x512 LSTM, 11 steps",
        _stack("LSTM", 512, 1, 11), {},
    ),
    "seq2seq": Preset(
        "seq2seq", "translation encoder+decoder, 2x(3x1024) LSTM, 15 steps",
        _stack("LSTM", 1024, 6, 15), dict(_WIDE),
    ),
    "mach-tran-512": Preset(
        "mach-tran-512", "translation encoder+decoder, 2x(1x512), 25 steps",
        _stack("LSTM", 512, 2, 25), {},
    ),
    "mach-tran-1024": Preset(
        "mach-tran-1024", "translation encoder+decoder, 2x(1x1024), 25 steps",
        _stack("LSTM", 1024, 2, 25), dict(_WIDE),
    ),
    "mach-tran-2048": Preset(
        "mach-tran-2048", "translation encoder+decoder, 2x(1x2048), 25 steps",
        _stack("LSTM", 2048, 2, 25), {"weights_per_pe": 2560, "tiles_per_group": 32},
    ),
    "lang-mod": Preset(
        "lang-mod", "language modeling, 1x1536 LSTM, 50 steps",
        _stack("LSTM", 1536, 1, 50), {"weights_per_pe": 2560, "tiles_per_group": 32},
    ),
    "d-speech": Preset(
        "d-speech", "speech-to-text, 1x2816 LSTM, 1500 steps",
        _stack("LSTM", 2816, 1, 1500),
        {"weights_per_pe": 2560, "tiles_per_group": 32, "groups": 8},
    ),
    "desk-ref": Preset(
        "desk-ref", "reference fidelity fixture, 1x128 LSTM, 32 steps",
        _stack("LSTM", 128, 1, 32), {},
    ),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
