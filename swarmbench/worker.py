"""One run of one workload, in a process of its own (started by run.py).

Prints `ready <monotonic clock>` once numpy and swarmlab are imported and the
workload's inputs are built; run.py takes set-up time from that line.  Then
runs whole rounds of the workload's operations until --seconds have passed.
The first round warms up (first-use costs inside numpy and the interpreter)
and is not timed; its outputs are checked in full, and every later round's
outputs must hash the same.  Timings are per round, averaged over the
later rounds.
Prints `outputs_sha256 = ...` and, last, one JSON line.

With --trace 1, traced and untraced rounds alternate after the warm-up:
traced rounds give the per-layer figures, and the mean traced round minus
the mean untraced round the tracing overhead.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import swarmlab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def stable_bytes(obj) -> bytes:
    """Byte form of an in-memory result for the determinism digest."""
    if isinstance(obj, np.ndarray):
        return f"{obj.dtype.str}{obj.shape}".encode() + obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return b"".join(stable_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return b"".join(stable_bytes(k) + stable_bytes(obj[k]) for k in sorted(obj))
    if isinstance(obj, (list, tuple)):
        return b"".join(stable_bytes(x) for x in obj)
    return repr(obj).encode()


def output_digest(out: Path, captured: dict) -> str:
    h = hashlib.sha256()
    if out.is_dir():
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update(stable_bytes(captured))
    return h.hexdigest()


def per_round(rounds: list) -> float:
    """Timed seconds of the measured phase divided by its rounds."""
    return sum(sum(r.values()) for r in rounds) / len(rounds)


def artifact_bytes(dirs) -> int:
    return sum(p.stat().st_size for d in dirs if d.is_dir() for p in d.iterdir())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not Path(swarmlab.__file__).resolve().is_relative_to(HERE.parent / "src"):
        print(f"error: swarmlab imported from {swarmlab.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    out_root = Path(args.out)
    dirs = {op.name: out_root / op.name for op in ops}
    tracer = tracing.Tracer() if args.trace else None
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    attempted = failed = 0
    correct = True
    digests, updates = {}, {}
    # per traced/untraced: one {op name: seconds} per timed round
    round_seconds = {False: [], True: []}
    layer_rounds = []
    warm_up = True
    start = time.perf_counter()
    while True:
        traced = (tracer is not None and not warm_up
                  and len(round_seconds[True]) <= len(round_seconds[False]))
        captured, seconds = {}, {}
        if traced:
            tracer.reset_round()
            tracer.install()
        try:
            for op in ops:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    captured[op.name] = op.call(dirs[op.name])
                except Exception:
                    failed += 1
                    print(f"operation {op.name} failed:\n{traceback.format_exc()}",
                          file=sys.stderr)
                seconds[op.name] = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if not warm_up:
            round_seconds[traced].append(seconds)
        warm_up = False
        if traced:
            layer_rounds.append(dict(tracer.round_figures(),
                                     **{"cli.artifact_bytes": artifact_bytes(dirs.values())}))
        # checks stay outside the timed calls
        for op in ops:
            if op.name not in captured:
                continue
            out = dirs[op.name]
            digest = output_digest(out, captured[op.name])
            if op.name in digests:
                if digest != digests[op.name]:
                    correct = False
                    print(f"check {op.name}: outputs differ between rounds", file=sys.stderr)
                continue
            digests[op.name] = digest
            try:
                problems = op.check(out, captured[op.name])
                updates[op.name] = op.updates(out)
            except Exception:
                problems = [f"check raised:\n{traceback.format_exc()}"]
            for problem in problems:
                print(f"check {op.name}: {problem}", file=sys.stderr)
            correct = correct and not problems
        done = time.perf_counter() - start >= args.seconds
        if done and round_seconds[False] and (tracer is None or round_seconds[True]):
            break

    if tracer is None:
        wall = per_round(round_seconds[False])
        metrics = {
            "wall_s": (wall, "s"),
            "particle_updates_per_s": (sum(updates.values()) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        for name, (unit, _) in tracing.PER_LAYER.items():
            if unit in ("count", "bytes") and len({r.get(name) for r in layer_rounds}) > 1:
                correct = False
                print(f"trace: count {name} differs between rounds", file=sys.stderr)
        figures = tracing.summarise(layer_rounds)
        figures["trace.overhead_s"] = per_round(round_seconds[True]) - per_round(round_seconds[False])
        metrics = {name: (figures[name], unit)
                   for name, (unit, _) in tracing.PER_LAYER.items()}
        tracer.write_spans(out_root / "spans.jsonl")

    total = hashlib.sha256()
    for op in ops:
        total.update(op.name.encode() + b"\0" + digests.get(op.name, "").encode())
    rounds = 1 + len(round_seconds[False]) + len(round_seconds[True])
    print(f"outputs_sha256 = {total.hexdigest()}")
    print(f"rounds = {rounds}")
    print("round_seconds = " + " ".join(f"{sum(r.values()):.4f}" for r in round_seconds[False]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
