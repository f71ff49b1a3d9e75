"""Quick test of the benchmark itself: python3 swarmbench/selftest.py

1. Runs every workload's operations once at the tiny size with all checks on;
   each must report no problem.
2. Corrupts outputs one at a time (a hit count, a variance, an oracle value,
   a region flag, a trajectory row, a replayed statistic, an artifact behind
   its manifest) and requires the named check to catch each.  Where a
   corruption would otherwise be caught by the manifest checksum alone, the
   manifest is re-signed so the check under test has to catch it.
3. Runs the command end to end on one workload in both modes and checks the
   result line against BENCHMARK.json, and runs it in a directory holding
   only BENCHMARK.json and the benchmark, where it must fail without a result.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SCRATCH = ROOT / ".swarmbench_out" / "selftest"
failures = []


def expect(label, ok, detail=""):
    print(f"[{'ok' if ok else 'FAIL'}] {label}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(label)


def resign(out: Path, name: str):
    """Rewrite the manifest checksum of one artifact after editing it."""
    digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    path = out / "manifest.txt"
    lines = [f"artifact.{name} = {digest}" if line.startswith(f"artifact.{name} = ") else line
             for line in path.read_text(encoding="ascii").splitlines()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def edit_lines(out: Path, name: str, edit):
    path = out / name
    lines = path.read_text(encoding="ascii").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    resign(out, name)


def run_tiny():
    """{(workload, op name): (op, out dir, captured)} after one clean round."""
    runs = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, SEED, scale="tiny"):
            out = SCRATCH / workload / op.name
            captured = op.call(out)
            problems = op.check(out, captured)
            expect(f"{workload}/{op.name} passes its checks", not problems, "; ".join(problems))
            runs[workload, op.name] = (op, out, captured)
    return runs


def corruption(runs, key, label, corrupt, must_mention):
    op, out, captured = runs[key]
    backup = SCRATCH / "backup"
    shutil.rmtree(backup, ignore_errors=True)
    shutil.copytree(out, backup)
    try:
        corrupt(out, captured)
        problems = op.check(out, captured)
        caught = any(must_mention in p for p in problems)
        expect(f"caught: {label}", caught, f"problems were {problems}")
    finally:
        shutil.rmtree(out)
        shutil.copytree(backup, out)


def corruptions(runs):
    def flip_hit_count(out, captured):
        def edit(lines):
            for k, line in enumerate(lines[1:], 1):
                trial, outcome, evals, g = line.split(",")
                if outcome == "hit" and int(evals) > 3:
                    lines[k] = f"{trial},{outcome},{int(evals) - 3},{g}"
                    return
        edit_lines(out, "fht.csv", edit)

    corruption(runs, ("fht-tail", "fht"), "one hit count in fht.csv", flip_hit_count,
               "fht.csv")

    def perturb_replayed(out, captured):
        captured["demo"].min_position[0] += 1e-9

    corruption(runs, ("stagnation-wide", "stagnate"), "a stagnation statistic off the replay",
               perturb_replayed, "replay")

    def wrong_variance(out, captured):
        var = captured["runs"].window_var
        var *= 1.3
        mean = float(var.mean())

        def edit(lines):
            for k, line in enumerate(lines):
                if line.startswith("empirical_position_variance = "):
                    lines[k] = f"empirical_position_variance = {mean:.6g} {line.split(' ', 3)[3]}"
        edit_lines(out, "report.txt", edit)

    corruption(runs, ("narrow-long", "demo"), "a wrong counterexample variance",
               wrong_variance, "exact")

    def bend_trajectory(out, captured):
        def edit(lines):
            fields = lines[5].split(",")
            x = float(fields[3]) * (1 + 1e-9)
            lines[5] = ",".join(fields[:3] + [repr(x)] + fields[4:5] + [repr(x), repr(x),
                                                                         repr(x * x)])
        edit_lines(out, "trajectory.csv", edit)

    corruption(runs, ("narrow-long", "simulate"), "a trajectory row off the drift",
               bend_trajectory, "drift")

    def wrong_oracle(out, captured):
        def edit(lines):
            for k, line in enumerate(lines):
                if line.startswith("var_limit_oracle"):
                    sep = "," if "," in line else " = "
                    name, value = line.split(sep)
                    lines[k] = f"{name}{sep}{float(value) * (1 + 1e-6)!r}"
        edit_lines(out, "moments.csv", edit)
        edit_lines(out, "report.txt", edit)

    corruption(runs, ("oracles", "moments-0"), "an oracle variance off by 1e-6",
               wrong_oracle, "var_limit_oracle")

    def flip_region(out, captured):
        def edit(lines):
            # a cell deep inside the mean-square region
            res = workloads.SIZES["tiny"]["region_res"]
            k = 1 + (res // 2) * res + res // 8
            fields = lines[k].split(",")
            fields[5] = "0" if fields[5] == "1" else "1"
            lines[k] = ",".join(fields)
        edit_lines(out, "regions.csv", edit)

    corruption(runs, ("oracles", "regions"), "a flipped mean-square flag", flip_region,
               "mean-square")

    def unsigned_edit(out, captured):
        path = out / "summary.txt"
        path.write_text(path.read_text(encoding="ascii") + "\n", encoding="ascii")

    corruption(runs, ("fht-tail", "fht"), "an artifact changed behind its manifest",
               unsigned_edit, "manifest checksum")


def command_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in spec["workloads"])
    expect("BENCHMARK.json, run.py and workloads.py name the same workloads",
           names == run.WORKLOADS == workloads.WORKLOADS)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "narrow-long",
             "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {}
        names = {m["name"]: m["unit"] for m in spec[group]}
        ok = (proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["correct"] and result["failed"] == 0
              and {k: v["unit"] for k, v in result["metrics"].items()} == names)
        expect(f"command result with --trace {trace} matches BENCHMARK.json", ok,
               proc.stderr[-2000:])
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", "oracles", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect("without the program the command fails and prints no result",
           proc.returncode != 0 and not proc.stdout.strip(), proc.stdout[-500:])


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    runs = run_tiny()
    corruptions(runs)
    command_runs()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
