"""Compute-unit models: cell closed forms, partition exactness, MAC pipeline,
aggregation chain, Booth multiplier equivalence."""

import numpy as np
import pytest

from rnnfast import fixedpoint as fp
from rnnfast import lstm_core as core
from rnnfast.lstm_core import (
    DimensionMismatch,
    GateWeights,
    IssueTooSoon,
    LayerParams,
    MacPipeline,
)
from rnnfast.mapping import HardwareConfig, LayerSpec, NetworkSpec, map_network
from rnnfast.nonlinear import tanh_approx_raw
from rnnfast.reference_oracle import FloatCellParams, float_cell_step


def zero_params(cell, m, n):
    gates = tuple(
        GateWeights(
            w_x=np.zeros((m, n), dtype=np.int64),
            w_h=np.zeros((m, m), dtype=np.int64),
            b=np.zeros(m, dtype=np.int64),
        )
        for _ in core.GATE_ORDERS[cell]
    )
    return LayerParams(cell, gates)


def random_params(rng, cell, m, n, scale=1.0):
    gates = tuple(
        GateWeights(
            w_x=fp.from_real(rng.uniform(-scale, scale, (m, n))),
            w_h=fp.from_real(rng.uniform(-scale, scale, (m, m))),
            b=fp.from_real(rng.uniform(-scale, scale, m)),
        )
        for _ in core.GATE_ORDERS[cell]
    )
    return LayerParams(cell, gates)


class TestLstmCell:
    def test_zero_weights_closed_form(self):
        # i=f=o=0.5, g=0 -> c_t = 0.5*c_prev, h_t = 0.5*tanh(0.5*c_prev)
        m, n = 6, 4
        params = zero_params("LSTM", m, n)
        rng = np.random.default_rng(2)
        x = fp.from_real(rng.uniform(-1, 1, n))
        c_prev = fp.from_real(rng.uniform(-1, 1, m))
        h, c = core.cell_step(x, np.zeros(m, dtype=np.int64), c_prev, params)
        half = fp.from_real(0.5)
        want_c = fp.mul_raw(np.full(m, half), c_prev)
        assert np.array_equal(c, want_c)
        want_h = fp.mul_raw(np.full(m, half), tanh_approx_raw(want_c))
        assert np.array_equal(h, want_h)

    def test_bias_minus_one_gates(self):
        # x=0, h=0, b=-1.0 everywhere: i=f=o = sigmoid_approx(-1) = 0.25
        m, n = 3, 5
        gates = tuple(
            GateWeights(
                w_x=np.zeros((m, n), dtype=np.int64),
                w_h=np.zeros((m, m), dtype=np.int64),
                b=np.full(m, fp.from_real(-1.0), dtype=np.int64),
            )
            for _ in core.LSTM_GATES
        )
        params = LayerParams("LSTM", gates)
        h, c = core.cell_step(
            np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64),
            np.zeros(m, dtype=np.int64), params,
        )
        # g = tanh_approx(-1.0); c = i*g; check i via c/g relationship instead:
        # easier to check the gate directly.
        gi = params.gates[0]
        x, h = np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64)
        pre = fp.narrow_raw(fp.dot_wide(gi.w_x, x) + fp.dot_wide(gi.w_h, h) + fp.widen(gi.b))
        from rnnfast.nonlinear import sigmoid_approx_raw

        assert np.all(sigmoid_approx_raw(pre) == fp.from_real(0.25))

    def test_matches_float_oracle_within_frozen_band(self):
        # Frozen from measurement: the shift-based activations carry up to
        # ~0.043 error which compounds through c_t; observed corpus maxima
        # stay under 0.15 (see acceptance notes on the 0.05 target).
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(60):
            m, n = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            params = random_params(rng, "LSTM", m, n)
            x = fp.from_real(rng.uniform(-1, 1, n))
            h0 = fp.from_real(rng.uniform(-1, 1, m))
            c0 = fp.from_real(rng.uniform(-1, 1, m))
            hq, _ = core.cell_step(x, h0, c0, params)
            hf, _ = float_cell_step(
                fp.to_real(x), fp.to_real(h0), fp.to_real(c0),
                FloatCellParams.from_quantized(params),
            )
            worst = max(worst, float(np.max(np.abs(fp.to_real(hq) - hf))))
        assert worst <= 0.15

    def test_dimension_mismatch(self):
        params = zero_params("LSTM", 4, 3)
        # A wrong x, h or c_prev length, in turn.
        for x, h, c in ((5, 4, 4), (3, 5, 4), (3, 4, 5)):
            with pytest.raises(DimensionMismatch):
                core.cell_step(
                    np.zeros(x, dtype=np.int64), np.zeros(h, dtype=np.int64),
                    np.zeros(c, dtype=np.int64), params,
                )


class TestGruCell:
    def test_zero_weights_closed_form(self):
        # z=r=0.5, h~=0 -> h_t = 0.5*h_prev
        m, n = 5, 3
        params = zero_params("GRU", m, n)
        rng = np.random.default_rng(4)
        h_prev = fp.from_real(rng.uniform(-1, 1, m))
        h = core.cell_step(np.zeros(n, dtype=np.int64), h_prev, None, params)[0]
        assert np.array_equal(h, fp.mul_raw(np.full(m, fp.from_real(0.5)), h_prev))

    def test_matches_float_oracle_within_frozen_band(self):
        rng = np.random.default_rng(78)
        worst = 0.0
        for _ in range(60):
            m, n = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            params = random_params(rng, "GRU", m, n)
            x = fp.from_real(rng.uniform(-1, 1, n))
            h0 = fp.from_real(rng.uniform(-1, 1, m))
            hq = core.cell_step(x, h0, None, params)[0]
            hf, _ = float_cell_step(
                fp.to_real(x), fp.to_real(h0), None,
                FloatCellParams.from_quantized(params),
            )
            worst = max(worst, float(np.max(np.abs(fp.to_real(hq) - hf))))
        assert worst <= 0.15


class TestVanillaCell:
    def test_zero_weights(self):
        params = zero_params("Vanilla", 4, 4)
        h = core.cell_step(
            np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), None, params
        )[0]
        assert np.all(h == 0)

    def test_matches_float_oracle_within_activation_band(self):
        # A single tanh stage: bounded by the tanh approximation error alone.
        rng = np.random.default_rng(79)
        worst = 0.0
        for _ in range(60):
            m, n = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            params = random_params(rng, "Vanilla", m, n)
            x = fp.from_real(rng.uniform(-1, 1, n))
            h0 = fp.from_real(rng.uniform(-1, 1, m))
            hq = core.cell_step(x, h0, None, params)[0]
            hf, _ = float_cell_step(
                fp.to_real(x), fp.to_real(h0), None,
                FloatCellParams.from_quantized(params),
            )
            worst = max(worst, float(np.max(np.abs(fp.to_real(hq) - hf))))
        assert worst <= 0.05


class TestPartitionExactness:
    def test_chunked_equals_monolithic_for_any_chunking(self):
        rng = np.random.default_rng(90)
        for _ in range(40):
            m, n = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            gw = random_params(rng, "Vanilla", m, n).gates[0]
            x = fp.from_real(rng.uniform(-1, 1, n))
            h = fp.from_real(rng.uniform(-1, 1, m))
            mono = fp.dot_wide(gw.w_x, x) + fp.dot_wide(gw.w_h, h) + fp.widen(gw.b)
            total = n + m + 1
            k = int(rng.integers(1, 6))
            cuts = sorted(rng.choice(np.arange(1, total), size=min(k, total - 1), replace=False))
            sizes = np.diff([0, *cuts, total]).tolist()
            # And the chunks the mapper puts on a neuron's PEs: each PE's x
            # and h words, and the bias on the last PE.
            hw = HardwareConfig(weights_per_pe=int(rng.integers(4, 17)))
            lp = map_network(NetworkSpec((LayerSpec("Vanilla", m, n),), 1), hw).layers[0]
            placed = [x_words + h_words for _unit, x_words, h_words in lp.pe_words]
            placed[-1] += 1
            for chunks in (sizes, placed):
                assert np.array_equal(mono, core.chunked_gate_preact_wide(gw, x, h, chunks))

    def test_bad_chunk_sizes(self):
        gw = zero_params("Vanilla", 2, 3).gates[0]
        with pytest.raises(DimensionMismatch):
            core.chunked_gate_preact_wide(
                gw, np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64), [2, 2]
            )


def wide_total(partials):
    """aggregate_wide over raw Q8.8 partials, narrowed: (raw Q8.8, hops)."""
    total, hops = core.aggregate_wide([fp.widen(p) for p in partials])
    return fp.narrow_raw(total), hops


class TestAggregation:
    def test_single_partial_identity(self):
        total, hops = wide_total([fp.from_real(3.25)])
        assert fp.to_real(total) == 3.25
        assert hops == 0

    def test_four_partials(self):
        total, hops = wide_total([fp.from_real(v) for v in (1.0, 2.0, 3.0, 4.0)])
        assert fp.to_real(total) == 10.0
        assert hops == 2

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        raw = rng.integers(-(1 << 12), 1 << 12, size=9).tolist()
        base, hops = wide_total(raw)
        assert hops == 4  # ceil(log2(9))
        for _ in range(5):
            rng.shuffle(raw)
            assert wide_total(raw)[0] == base

    def test_wide_partials(self):
        total, hops = core.aggregate_wide([1 << 16, 3 << 16])
        assert fp.narrow_raw(total) == fp.from_real(4.0)
        assert hops == 1

    def test_no_partials(self):
        with pytest.raises(DimensionMismatch):
            core.aggregate_wide([])

    @pytest.mark.parametrize("units", range(1, 10))
    def test_hops_are_the_mappers_agg_hops(self, units):
        # One neuron whose per-gate demand (inputs + 1 hidden + 1 bias) fills
        # exactly `units` PEs of 16 weights each.
        spec = NetworkSpec((LayerSpec("LSTM", 1, 16 * units - 2),), 1)
        lp = map_network(spec, HardwareConfig(weights_per_pe=16)).layers[0]
        assert lp.units_per_neuron == len(lp.pe_words) == units
        _total, hops = core.aggregate_wide(np.zeros((units, 1), dtype=np.int64))
        assert hops == lp.agg_hops


class TestMacPipeline:
    def test_latency_96(self):
        pipe = MacPipeline()
        assert pipe.issue(0) == 96

    def test_issue_every_two_cycles(self):
        pipe = MacPipeline()
        assert [pipe.issue(c) for c in (0, 2, 4)] == [96, 98, 100]

    def test_back_to_back_rejected(self):
        pipe = MacPipeline()
        pipe.issue(0)
        with pytest.raises(IssueTooSoon):
            pipe.issue(1)

    def test_log_keeps_only_the_first_issues(self):
        pipe = MacPipeline()
        for k in range(1000):
            pipe.issue(2 * k)
        assert pipe.log == [(2 * k, 2 * k + 96) for k in range(core.MAC_LOG_LIMIT)]
        assert core.MAC_LOG_LIMIT == 8


class TestBoothMultiplier:
    def test_zero_and_identity(self):
        rng = np.random.default_rng(5)
        xs = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=64)
        one = fp.from_real(1.0)
        for x in xs:
            assert core.booth_multiply(int(x), 0) == 0
            assert core.booth_multiply(int(x), one) == fp.mul_raw(int(x), one)

    def test_exhaustive_8bit_operands(self):
        ops = np.arange(-128, 128, dtype=np.int64)
        a, b = np.meshgrid(ops, ops)
        assert np.array_equal(core.booth_multiply(a.ravel(), b.ravel()),
                              fp.mul_raw(a.ravel(), b.ravel()))

    def test_random_16bit_pairs(self):
        rng = np.random.default_rng(17)
        a = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=100_000)
        b = rng.integers(fp.RAW_MIN, fp.RAW_MAX + 1, size=100_000)
        assert np.array_equal(core.booth_multiply(a, b), fp.mul_raw(a, b))


class TestOracleHandValues:
    def test_single_element_all_ones(self):
        # x=1, all weights 1, b=0, h=c=0:
        # i=f=o=sigmoid(1)=0.731059, g=tanh(1)=0.761594,
        # c = 0.731059*0.761594 = 0.556770, h = 0.731059*tanh(c) = 0.369606
        ones = (np.ones((1, 1)), np.ones((1, 1)), np.zeros(1))
        params = FloatCellParams("LSTM", (ones, ones, ones, ones))
        h, c = float_cell_step(np.array([1.0]), np.zeros(1), np.zeros(1), params)
        assert c[0] == pytest.approx(0.556770, abs=1e-5)
        assert h[0] == pytest.approx(0.369606, abs=1e-5)

    def test_zero_everything(self):
        z = (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
        params = FloatCellParams("LSTM", (z, z, z, z))
        c_prev = np.array([0.4, -0.8])
        h, c = float_cell_step(np.zeros(2), np.zeros(2), c_prev, params)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev))
        assert np.allclose(c, 0.5 * c_prev)

    def test_zero_state_gives_zero_output(self):
        z = (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
        params = FloatCellParams("LSTM", (z, z, z, z))
        h, _ = float_cell_step(np.zeros(2), np.zeros(2), np.zeros(2), params)
        assert np.allclose(h, 0.0)
