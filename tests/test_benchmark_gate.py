"""The benchmark's correctness gate on its full-size workloads.

For every workload in ``perfbench/workloads.py``, the set-up of the pinned
anchor seed passes the gate with one EDC-off and one EDC-on operation.
Building the gate re-runs the anchor seed against ``expected.json``'s output
digests and fidelity rows; each check then holds the operation to the
pinned statistics (cycles, ledger counters, per-layer counts, corrections)
and its fault-free outputs to a ``lstm_core.cell_step`` replay.  A change
that moves any pin fails here, not only in a benchmark run.  This test only
reads ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_full_size_workload_passes_the_benchmark_gate(name):
    w = workloads.WORKLOADS[name]
    state = workloads.setup(w, workloads.ANCHOR_SEED)
    gate = workloads.Gate(w, state)
    assert gate.standing == []
    for setting in workloads.SETTINGS:
        assert gate.check(workloads.run_op(w, state, setting)), gate.errors
    assert gate.errors == []
