"""Write ``expected.json``: the pinned simulated statistics of every workload.

    python3 perfbench/pin.py

Run it only when a change is meant to alter the simulated results (cycles,
counters, corrections, fidelity rows or outputs), and say so in the change.
Each entry holds the seed-free statistics of one EDC-off and one EDC-on
operation and, at ``workloads.ANCHOR_SEED``, their fidelity rows and output
digests (see ``workloads.py``).
"""

from __future__ import annotations

import json

import workloads


def main():
    pins = {name: workloads.pin_record(w) for name, w in workloads.WORKLOADS.items()}
    workloads.EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
