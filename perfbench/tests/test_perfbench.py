"""Tests of the benchmark itself: metric names, statistics helpers, and a
tiny-size run of every workload through the correctness gate."""

import re
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import benchstats  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rnnfast.mapping import LayerSpec, NetworkSpec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOAD_NAMES = [w["name"] for w in measure.BENCHMARK["workloads"]]


def tiny(name):
    """The named workload shrunk to a few neurons and steps."""
    w = workloads.WORKLOADS[name]
    shapes = {
        "clean-wide": ((16, 16, 16), 3),
        "clean-long": ((8,), 40),
        "fault-sweep": ((24,), 4),
    }
    widths, steps = shapes[name]
    layers = tuple(LayerSpec("LSTM", n, n) for n in widths)
    spec = NetworkSpec(layers, steps, w.spec.activation_impl)
    # The tiny sweep needs a higher rate to see faults on every site.
    p = 2e-2 if w.sweep else 0.0
    return replace(w, spec=spec, p_overshift=p, fault_seeds=w.fault_seeds[:2], pinned=False)


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in measure.END_TO_END + measure.PER_LAYER] + WORKLOAD_NAMES
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))


def test_median_and_quartiles():
    values = [7.0, 1.0, 4.0, 10.0, 2.0, 9.0, 3.0, 8.0, 5.0, 6.0]
    assert benchstats.median(values) == 5.5
    assert benchstats.quartiles(values) == (2.75, 5.5, 8.25)
    assert benchstats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert benchstats.spread(values) == pytest.approx(1.0)
    assert benchstats.median([3.0, 1.0, 2.0]) == 2.0
    assert benchstats.spread([2.0, 2.0, 2.0]) == 0.0


def test_seeds_derive_deterministically():
    assert workloads.derived_seeds(5) == workloads.derived_seeds(5)
    assert workloads.derived_seeds(5) != workloads.derived_seeds(6)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_passes_the_gate(name):
    w = tiny(name)
    m = measure.Measurement(w, seed=3, seconds=0)
    assert (m.failed, m.gate.errors) == (0, [])
    assert m.setups and m.attempted == 4 + sum(len(times) for times, _probe in m.setups)
    values = measure.end_to_end(m, rss_mb=1.0)
    assert set(values) == {m["name"] for m in measure.END_TO_END}
    assert values["ok_frac"] == 1.0
    assert values["sim_cycles"] == workloads.simulator.analytic_cycles(m.state.placement)
    if w.sweep:
        assert m.stats()["edc_off"]["rows"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    w = tiny(name)
    untraced = measure.Measurement(w, seed=3, seconds=0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = measure.Measurement(w, seed=3, seconds=0)
    assert workloads.simulator.simulate.__name__ == "simulate"  # patches undone
    assert traced.failed == 0
    values = measure.per_layer(untraced, traced, tracer)
    assert set(values) == {m["name"] for m in measure.PER_LAYER}
    assert values["lstm_core.mac_issue_calls"] > 0
    assert values["nonlinear.act_calls"] > 0 and values["fixedpoint.calls"] > 0
    assert 0.0 < values["simulator.uncovered_share"] < 1.0
    # Simulated counts repeat exactly between the two measurements.
    assert traced.stats() == untraced.stats()
    if w.sweep:
        assert values["racetrack.rotate_step_calls"] > 0
        assert values["simulator.corrections.fault_events"] > 0
    else:
        assert values["racetrack.rotate_step_calls"] == 0


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 3 and summary["outer"]["calls"] == 1
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"]
    )


def test_gate_rejects_wrong_outputs_and_cycles():
    w = tiny("clean-long")
    state = workloads.setup(w, 3)
    gate = workloads.Gate(w, state)
    op = workloads.run_op(w, state, "edc_off")
    assert gate.check(op)
    result = op.runs[0]
    result.outputs[-1][0, 0] += 1
    assert not gate.check(op)
    result.outputs[-1][0, 0] -= 1
    result.total_cycles += 1
    assert not gate.check(op)


def test_gate_checks_the_pinned_anchor():
    w = tiny("fault-sweep")
    pin = workloads.pin_record(w)
    assert workloads.check_anchor(w, pin) == []
    pin["anchor"]["edc_on"]["outputs"][-1] = "0" * 64
    assert workloads.check_anchor(w, pin) != []
    pin = workloads.pin_record(w)
    pin["anchor"]["edc_off"]["rows"][0]["nrmse"] += 1e-12
    assert workloads.check_anchor(w, pin) != []


def test_gate_fails_every_operation_without_a_pin():
    w = replace(tiny("clean-long"), pinned=True)  # expected.json has no tiny entry
    state = workloads.setup(w, 3)
    gate = workloads.Gate(w, state)
    assert gate.standing
    assert not gate.check(workloads.run_op(w, state, "edc_off"))


def test_full_workloads_have_pins():
    for name in WORKLOAD_NAMES:
        pin = workloads.load_pin(workloads.WORKLOADS[name])
        assert pin is not None, name
        assert set(pin["stats"]) == set(pin["anchor"]) == set(workloads.SETTINGS)
