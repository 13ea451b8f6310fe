"""Timed, gated measurement of one workload and the metrics drawn from it.

Per-layer times are host seconds per ``simulate`` call (per set-up for the
presets and mapping entries); simulated counts are totals over one round,
which is one EDC-off and one EDC-on operation.

Host times are scaled to a reference host speed.  On a shared 2-core VM the
speed of the same code drifted by up to 25% over minutes, far more than a
run can average out, so a fixed pure-Python loop (``host_speed_probe``) is
timed before the first operation and again after each operation and each
batch of set-ups, once that item's gate check has run; on the fault sweep
also before each ``simulate`` call inside an operation, with the probe's own
time taken out.  Each end-to-end sample (a piece of an operation between
probes, or one set-up of a batch) is multiplied by ``PROBE_REFERENCE_S``
over the mean of the probes on either side of it.  Every per-layer time is multiplied by one factor per measurement instead,
``PROBE_REFERENCE_S`` over the median of its probes, because spans are
summed over many operations.  The probe runs no rnnfast code.  The unscaled
seconds and the probe times are kept in the run's record.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

import benchstats
import spans
import workloads
from rnnfast import error_model

HERE = Path(__file__).resolve().parent

# The metric tables (names, units, directions, bounds) are BENCHMARK.json's.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = BENCHMARK["end_to_end"]
PER_LAYER = BENCHMARK["per_layer"]

_LEDGER = (
    "mac_issue", "track_read", "track_shift", "track_write", "edc_read", "edc_write",
    "nonlinear_eval", "aggregation_hop", "interconnect_word",
)
_PER_LAYER_COUNTS = ("chain_reads", "weight_reads", "mac_issues", "rotation_steps")
_CORRECTIONS = ("fault_events", "input_corrected", "weight_zeroed", "suppressed_shifts", "logic_faults")

# Set-ups are timed in batches of about SETUP_BATCH_S between rounds, each
# set-up on its own, and take at most about SETUP_SHARE of a run's time.
SETUP_BATCH_S = 0.25
MAX_SETUP_BATCH = 200
SETUP_SHARE = 0.12

PROBE_LOOPS = 500_000
# Probe time on the reference host (2-core Xeon VM, CPython 3.11); this only
# fixes the scale, so scaled times read as seconds on that host.
PROBE_REFERENCE_S = 0.035


def host_speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the current host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


class Measurement:
    """Set-ups and timed operations of one workload, gated as they run.

    ``seconds`` counts from the start, so the gate's own set-up (its replay
    and anchor check) is part of it.  A traced measurement reuses the gate
    of the untraced one, so simulated statistics must repeat across both.
    """

    def __init__(self, w, seed: int, seconds: float, gate=None):
        t_start = time.perf_counter()
        t_end = t_start + seconds
        self.w = w
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        # The first set-up is untimed; every later one must reproduce it.
        self.state = workloads.setup(w, seed)
        self.setup_batch = max(
            1, min(MAX_SETUP_BATCH, round(SETUP_BATCH_S / (time.perf_counter() - t_start)))
        )
        self.setups = []           # (seconds of each set-up, probe seconds) per batch
        self.gate = gate or workloads.Gate(w, self.state)
        self.ops = {s: [] for s in workloads.SETTINGS}
        self.probes = []
        self.probe = self._host_probe()
        setup_total = 0.0
        last = 0.0
        rounds = 0
        # At least two rounds; after that a round starts only if one more
        # round as long as the last one still ends within the time.
        while rounds < 2 or time.perf_counter() + last <= t_end:
            t_round = time.perf_counter()
            # Alternate which setting goes first, so drift hits both alike.
            order = workloads.SETTINGS if rounds % 2 == 0 else workloads.SETTINGS[::-1]
            for setting in order:
                self.attempted += 1
                try:
                    op = self._timed_op(setting)
                except Exception:
                    traceback.print_exc()
                    self.failed += 1
                    self.probe = self._host_probe()
                    continue
                self.ops[setting].append(op)
            if setup_total <= SETUP_SHARE * (time.perf_counter() - t_start):
                setup_total += self._setup_batch()
            last = time.perf_counter() - t_round
            rounds += 1
        if not all(self.ops.values()):
            raise RuntimeError(f"{w.name}: no operation of some setting completed")

    def _host_probe(self) -> float:
        probe = host_speed_probe()
        self.probes.append(probe)
        return probe

    def _probe(self) -> float:
        """Mean of the probes before and after the item just timed."""
        before, self.probe = self.probe, self._host_probe()
        return (before + self.probe) / 2

    def _timed_op(self, setting):
        """One gated operation, its seconds scaled piece by piece.

        On the sweep a probe also runs before each ``simulate`` call inside
        the operation.  The probes split the operation into pieces; each
        piece is scaled by the mean of the probes on either side of it.
        """
        inside = []                # (start, end, seconds) of the inner probes

        def probe_inside():
            t0 = time.perf_counter()
            probe = self._host_probe()
            inside.append((t0, time.perf_counter(), probe))

        op = workloads.run_op(self.w, self.state, setting, pause=probe_inside)
        if not self.gate.check(op):
            self.failed += 1
        before, self.probe = self.probe, self._host_probe()
        edges = [op.start, *(t for t0, t1, _p in inside for t in (t0, t1)), op.start + op.seconds]
        probes = [before, *(p for *_t, p in inside), self.probe]
        pieces = [edges[2 * i + 1] - edges[2 * i] for i in range(len(probes) - 1)]
        op.host_s = sum(pieces)
        op.scaled_s = sum(
            piece * PROBE_REFERENCE_S * 2 / (a + b)
            for piece, a, b in zip(pieces, probes, probes[1:])
        )
        return op

    def _setup_batch(self) -> float:
        """Time one batch of set-ups; returns their total seconds."""
        times = []
        for _ in range(self.setup_batch):
            self.attempted += 1
            t0 = time.perf_counter()
            state = workloads.setup(self.w, self.seed)
            times.append(time.perf_counter() - t0)
            if not workloads.same_setup(self.state, state):
                self.failed += 1
            # Free it before the next set-up, so every set-up allocates with
            # the same memory live.
            del state
        self.setups.append((times, self._probe()))
        return sum(times)

    def first(self, setting):
        return self.ops[setting][0]

    def scale(self) -> float:
        """One factor to the reference host speed for the whole measurement."""
        return PROBE_REFERENCE_S / benchstats.median(self.probes)

    def setup_seconds(self) -> float:
        """Median seconds per set-up at the reference host speed."""
        return benchstats.median(
            [t * PROBE_REFERENCE_S / probe for times, probe in self.setups for t in times]
        )

    def run_s(self) -> float:
        """Median host seconds per simulate call, EDC off."""
        return benchstats.median([op.scaled_s / len(op.runs) for op in self.ops["edc_off"]])

    def unscaled_run_s(self) -> float:
        return benchstats.median([op.host_s / len(op.runs) for op in self.ops["edc_off"]])

    def runs_per_s(self, setting) -> float:
        """Median over operations of runs completed per host second.

        Faulty runs count on the fault sweep; on the clean workloads every
        operation is one fault-free run.
        """
        return benchstats.median(
            [len(op.faulty_runs or op.runs) / op.scaled_s for op in self.ops[setting]]
        )

    def host_us_per_mac(self) -> float:
        """Host microseconds per simulated MAC, scaled by ``scale``."""
        return self.scale() * benchstats.median([
            op.host_s / sum(r.counters["mac_issue"] for r in op.runs) * 1e6
            for op in self.ops["edc_off"]
        ])

    def stats(self) -> dict:
        return {s: workloads.op_stats(self.first(s)) for s in workloads.SETTINGS}


def peak_rss_mb(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "rss_probe.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["peak_rss_mb"])


def end_to_end(m: Measurement, rss_mb: float) -> dict:
    first_off = m.first("edc_off")
    runs = first_off.faulty_runs or first_off.runs
    return {
        "setup_s": m.setup_seconds(),
        "run_s": m.run_s(),
        "edc_off_runs_per_s": m.runs_per_s("edc_off"),
        "edc_on_runs_per_s": m.runs_per_s("edc_on"),
        "peak_rss_mb": rss_mb,
        "sim_cycles": runs[0].total_cycles,
        "sim_energy_pj": sum(r.total_energy_pj for r in runs) / len(runs),
        "ok_frac": (m.attempted - m.failed) / m.attempted,
    }


def _round_totals(m: Measurement, field: str, keys) -> dict:
    """Totals of one round's simulated counts (first op of each setting)."""
    totals = dict.fromkeys(keys, 0)
    for setting in m.ops:
        for r in m.first(setting).runs:
            entries = r.per_layer if field == "per_layer" else [getattr(r, field)]
            for entry in entries:
                for k in keys:
                    totals[k] += entry.get(k, 0)
    return totals


def _fidelity(m: Measurement, setting: str) -> tuple:
    op = m.first(setting)
    if op.rows:
        n = len(op.rows)
        return (
            sum(r["argmax_agreement"] for r in op.rows) / n,
            sum(r["nrmse"] for r in op.rows) / n,
        )
    f = error_model.fidelity_metrics(m.gate.reference[-1], op.runs[0].outputs[-1])
    return f.argmax_agreement, f.nrmse


def per_layer(untraced: Measurement, traced: Measurement, tracer) -> dict:
    summary = tracer.summary()
    scale = traced.scale()

    def span(name, key):
        return summary.get(name, {}).get(key, 0)

    sim_calls = span(spans.SIMULATE, "calls")
    sim_total = span(spans.SIMULATE, "total_s")

    def per_sim(name, key):
        return span(name, key) / sim_calls

    def seconds_per_sim(name, key="total_s"):
        return per_sim(name, key) * scale

    def seconds_per_call(name):
        return span(name, "total_s") / span(name, "calls") * scale

    metrics = {
        "presets.params_s": seconds_per_call(spans.PARAMS),
        "presets.inputs_s": seconds_per_call(spans.INPUTS),
        "mapping.map_network_s": seconds_per_call(spans.MAP_NETWORK),
        "simulator.self_s": seconds_per_sim(spans.SIMULATE, "self_s"),
        "simulator.uncovered_share": span(spans.SIMULATE, "self_s") / sim_total,
        "simulator.host_us_per_mac": untraced.host_us_per_mac(),
    }
    for field, keys in (("counters", _LEDGER), ("per_layer", _PER_LAYER_COUNTS),
                        ("corrections", _CORRECTIONS)):
        prefix = "ledger" if field == "counters" else field
        for k, v in _round_totals(traced, field, keys).items():
            metrics[f"simulator.{prefix}.{k}"] = v
    metrics.update({
        "lstm_core.mac_issue_calls": per_sim(spans.MAC_ISSUE, "calls"),
        "lstm_core.mac_issue_s": seconds_per_sim(spans.MAC_ISSUE),
        "lstm_core.mac_issue_share": span(spans.MAC_ISSUE, "total_s") / sim_total,
        "racetrack.rotate_step_calls": per_sim(spans.ROTATE_STEP, "calls"),
        "racetrack.rotate_step_s": seconds_per_sim(spans.ROTATE_STEP),
        "error_model.fault_plan_s": seconds_per_sim(spans.FAULT_PLAN),
    })
    for setting in ("edc_off", "edc_on"):
        agree, nrmse = _fidelity(traced, setting)
        metrics[f"error_model.fidelity.{setting}.argmax_agreement"] = agree
        metrics[f"error_model.fidelity.{setting}.nrmse"] = nrmse
    traced_run_s = traced.unscaled_run_s() * scale
    untraced_run_s = untraced.unscaled_run_s() * untraced.scale()
    metrics.update({
        "nonlinear.act_calls": per_sim(spans.ACTIVATION, "calls"),
        "nonlinear.act_s": seconds_per_sim(spans.ACTIVATION),
        "fixedpoint.calls": per_sim(spans.FIXEDPOINT, "calls"),
        "fixedpoint.s": seconds_per_sim(spans.FIXEDPOINT),
        "trace.run_s": traced_run_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.spans": len(tracer),
    })
    return metrics


def result(correct, attempted, failed, values, table) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }


