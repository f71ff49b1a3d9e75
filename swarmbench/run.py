"""swarmlab benchmark.

    python3 swarmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; swarmlab is imported from its `src/`.  Each
workload runs in a worker process of its own (worker.py) with one thread.
Set-up time is measured from process start to the worker's `ready` line, in
the measured worker and in six more workers that stop there; the median is
reported.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# kept in step with workloads.WORKLOADS; run.py imports neither numpy nor swarmlab
WORKLOADS = ("fht-tail", "stagnation-wide", "narrow-long", "oracles")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


def run_worker(args, deadline, setup_only):
    """(exit code, set-up seconds, stdout lines after `ready`) of one worker."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(args.out)]
    if setup_only:
        cmd.append("--setup-only")
    # one thread in native libraries too, like the one swarmlab worker thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        print(f"error: worker for {args.workload} ran out of time", file=sys.stderr)
        return 1, None, []
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        return proc.returncode or 1, None, []
    # both processes read the same system-wide monotonic clock
    return 0, float(lines[0].split()[1]) - started, lines[1:]


def main() -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "swarmlab" / "__init__.py").is_file():
        print(f"error: no swarmlab source tree at {ROOT / 'src' / 'swarmlab'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    args.out = ROOT / ".swarmbench_out" / args.workload
    shutil.rmtree(args.out, ignore_errors=True)

    # set-up probes go before and after the measured worker, so that the
    # median spans the run rather than one moment of the machine's load
    probes = 0 if args.trace else SETUP_PROBES
    setup, lines = [], []
    for k in range(probes + 1):
        measured = k == probes // 2
        code, seconds, out = run_worker(args, deadline, setup_only=not measured)
        if code:
            return code
        setup.append(seconds)
        if measured:
            lines = out
    if not lines:
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
