"""rnnfast benchmark: host speed of the simulator and the simulated figures.

    python3 perfbench/run.py --workload clean-wide --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment.  ``--trace 0`` reports the end-to-end
metrics from untraced operations.  ``--trace 1`` first measures untraced
operations for half the time, then traces the public callables for the
other half and reports the per-layer metrics (see ``spans.py``).  Each run
also writes its statistics under ``perfbench/out/``; ``--trace 1`` also
writes its spans there, replacing those of the workload's previous traced
run.

Workloads, the timed operations and the correctness gate are described in
``workloads.py``; how operations are timed, and how host times are scaled
to a reference host speed, in ``measure.py``.

BLAS and OpenMP threads are capped at the number of usable cores before
numpy is imported, so thread-count changes are measured under one budget.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Limit BLAS/OpenMP threads to the usable cores; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(min(max(want, 1), nproc))
    return nproc


def environment(nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rnnfast benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_threads()
    if not (SRC / "rnnfast").is_dir():
        print(f"error: the rnnfast sources are missing ({SRC / 'rnnfast'})", file=sys.stderr)
        return 2
    import measure  # imports numpy, so only after the thread cap
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    env = environment(nproc)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        untraced = measure.Measurement(w, args.seed, args.seconds / 2)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = measure.Measurement(w, args.seed, args.seconds / 2, gate=untraced.gate)
        # One span file per workload, overwritten by each traced run.
        tracer.save(OUT / f"{w.name}-spans.npz")
        measured = (untraced, traced)
        values = measure.per_layer(untraced, traced, tracer)
        table = measure.PER_LAYER
    else:
        m = measure.Measurement(w, args.seed, args.seconds)
        measured = (m,)
        values = measure.end_to_end(m, measure.peak_rss_mb(w.name, args.seed))
        table = measure.END_TO_END
    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed for m in measured)
    result = measure.result(failed == 0, attempted, failed, values, table)
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "result": result,
        "gate_errors": sorted({e for m in measured for e in m.gate.errors}),
        "probes": measured[-1].probes,
        "setups": measured[-1].setups,
        "op_seconds": {s: [op.host_s for op in ops] for s, ops in measured[-1].ops.items()},
        "op_scaled_seconds": {s: [op.scaled_s for op in ops] for s, ops in measured[-1].ops.items()},
        "stats": measured[-1].stats(),
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for e in record["gate_errors"]:
        print(f"gate: {e}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
