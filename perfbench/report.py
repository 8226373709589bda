"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs `run.py` with --trace 0 and --trace 1 on each workload in turn and
prints one line per metric: workload, name, value, unit.  The error share
of each invocation is printed as well.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            result = json.loads(out.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
            share = result["failed"] / result["attempted"]
            print(f"{workload} error_share {share:.6g} ratio (trace {trace}, "
                  f"{result['failed']} of {result['attempted']} runs)")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
