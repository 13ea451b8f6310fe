"""Peak resident memory of one set-up and one EDC-off operation.

Runs in a fresh, untraced process so that earlier work in the benchmark does
not raise the peak.  Prints one JSON object with ``peak_rss_mb``.

    python3 perfbench/rss_probe.py --workload clean-wide --seed 1
"""

from __future__ import annotations

import argparse
import json
import resource

import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    workloads.run_op(w, workloads.setup(w, args.seed), "edc_off")
    # Linux reports ru_maxrss in KiB.
    print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


if __name__ == "__main__":
    main()
