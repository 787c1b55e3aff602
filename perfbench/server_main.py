"""Garbling-server process of the benchmark.

Usage: ``python3 perfbench/server_main.py --workload NAME --seed N``
with ``src`` on ``PYTHONPATH``.  Builds the workload's garbler-side
program, starts a :class:`repro.serve.GarbleServer`, prints one JSON
ready line (``{"event": "ready", "port": ...}``) and
serves until its standard input closes; then it drains, shuts down
and exits.  The ``__main__`` guard matters: process-pool workers
re-import this file.
"""

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    import programs
    from repro.serve import GarbleServer

    wl = programs.WORKLOADS[args.workload]
    server = GarbleServer(
        {wl.program: programs.server_program(wl, args.seed)},
        config=programs.server_config(wl),
    ).start()
    print(json.dumps({"event": "ready", "port": server.port}), flush=True)
    sys.stdin.read()
    server.shutdown(drain=True, timeout=30.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
