#!/usr/bin/env python3
"""Run every benchmark workload untraced and traced; print all metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

One line per metric: workload, metric, value, unit.  The stat digest of
each run is printed beside them; untraced and traced runs of one seed
must agree on it, and a change that claims to alter only host speed
must leave it unchanged.  Exits 1 if any run fails or reports an
incorrect result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                print(f"{workload} trace={trace}: run failed")
                ok = False
                continue
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            digest = next(l for l in lines if l.startswith("stat digest"))
            print(f"{workload} trace={trace}: {digest}; attempted "
                  f"{result['attempted']}, failed {result['failed']}")
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"  {workload:13s} {name:30s} "
                      f"{metric['value']:16.6f} {metric['unit']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
