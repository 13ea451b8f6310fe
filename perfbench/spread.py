"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads clean-wide fault-sweep --seeds 1 2 3 4 5

Runs ``run.py`` once per (workload, seed) with the ``run_seconds`` of
BENCHMARK.json, one run at a time, then prints for every metric the median,
the quartiles and the inter-quartile distance as a share of the median
next to a third of the metric's bound.  Results are also written to
``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in doc["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in doc["end_to_end"]}

    values = {}
    for w in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(doc["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect ({result['failed']} failed)", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(metric["value"])
            print(f"{w} seed {seed}: done", file=sys.stderr, flush=True)

    report = {}
    for w, metrics in values.items():
        for name, vals in metrics.items():
            q1, q2, q3 = benchstats.quartiles(vals) if len(vals) > 1 else (vals[0],) * 3
            share = benchstats.spread(vals) if len(vals) > 1 else 0.0
            bound = bounds.get(name)
            report.setdefault(w, {})[name] = {
                "values": vals, "q1": q1, "median": q2, "q3": q3, "spread": share, "bound": bound,
            }
            limit = f"{bound / 3:.4f}" if bound is not None else "-"
            print(f"{w:12s} {name:48s} median {q2:<14.6g} spread {share:.4f}  bound/3 {limit}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
