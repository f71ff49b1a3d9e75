"""Spans around the calls into each swarmlab layer, recorded from outside.

`Tracer.install()` replaces public entry points of the layers with wrappers
that record a span (id, name, start, end, parent id) per call and the counts
named in the README; `uninstall()` restores the originals.  Each name's self
time is its spans' durations minus the time covered by their direct children.
Single-threaded by design: the benchmark runs every workload with one worker.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from swarmlab import batch, cli, core, engine, experiments, moments, regions

# span name -> [(owner, attribute)] wrapped under that name.  Functions are
# patched in the namespace their callers look them up in.
SPANS = {
    "core.step_uniform": [(batch, "step_uniform")],
    "batch.init": [(batch.BatchSwarm, "__init__")],
    "batch.step": [(batch.BatchSwarm, "step")],
    "batch.runner": [(batch, "run_fht_batch"), (batch, "run_two_particle_demo"),
                     (batch, "run_counterexample_batch")],
    "batch.attractor": [(batch, "run_fixed_attractor_ensemble")],
    "engine.step": [(engine, "step")],
    "engine.runner": [(engine, "run_until_hit"), (engine, "init_swarm"),
                      (engine, "init_swarm_explicit")],
    "experiments": [(experiments, name) for name in (
        "estimate_fht", "stagnation_demo_two_particles", "counterexample_demo",
        "stationary_moment_check")],
    "moments.radius_grid": [(moments, "second_moment_radius_grid")],
    "moments.oracle": [(moments, name) for name in (
        "f_one", "f_one_asymmetric_variant", "moment_transition", "second_moment_block",
        "char_cubic_radius", "stationary_moments", "stationary_variance",
        "equilibrium_point", "variance_limit", "moment_limits")],
    "regions.scan": [(regions, "scan_regions")],
    "regions.csv": [(regions, "write_regions_csv")],
    "regions.svg": [(regions, "render_regions_svg")],
    "cli.command": [(cli, "main")],
    "cli.write_manifest": [(cli, "write_manifest")],
}

# per-layer metrics: name -> (unit, better); the README says what each moves
PER_LAYER = {
    "core.step_uniform.self_s": ("s", "lower"),
    "core.step_uniform.draws": ("count", "lower"),
    "core.step_uniform.ns_per_draw": ("ns", "lower"),
    "core.batch_evaluate.self_s": ("s", "lower"),
    "core.batch_evaluate.evals": ("count", "lower"),
    "batch.step.calls": ("count", "lower"),
    "batch.step.self_s": ("s", "lower"),
    "batch.runner.self_s": ("s", "lower"),
    "batch.init.self_s": ("s", "lower"),
    "batch.init.attempts": ("count", "lower"),
    "batch.trial_steps.stepped": ("count", "lower"),
    "batch.trial_steps.live": ("count", "higher"),
    "batch.live_share": ("ratio", "higher"),
    "batch.attractor.self_s": ("s", "lower"),
    "engine.step.calls": ("count", "lower"),
    "engine.step.self_s": ("s", "lower"),
    "engine.runner.self_s": ("s", "lower"),
    "engine.rng_uniform.calls": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "moments.radius_grid.self_s": ("s", "lower"),
    "moments.oracle.self_s": ("s", "lower"),
    "regions.scan.self_s": ("s", "lower"),
    "regions.csv.self_s": ("s", "lower"),
    "regions.csv.bytes": ("bytes", "lower"),
    "regions.svg.self_s": ("s", "lower"),
    "cli.command.self_s": ("s", "lower"),
    "cli.write_manifest.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Span recorder for one process; spans accumulate across rounds."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id or -1)
        self._next_id = 0
        self._stack = []         # [span id, name, start, child seconds]
        self._saved = []
        self.reset_round()

    def reset_round(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [tracer._next_id, name, perf_counter(), 0.0]
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.self_s[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append((frame[0], name, frame[2], end, parent))
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        after = {
            "core.step_uniform": self._after_step_uniform,
            "batch.step": self._after_batch_step,
            "batch.runner": self._after_runner,
            "regions.csv": self._after_regions_csv,
        }
        for name, targets in SPANS.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr],
                                                    after.get(name)))
        # objectives are built per call by get_objective; wrap what it returns
        get_objective = core.get_objective
        for owner in (cli, experiments):
            self._patch(owner, "get_objective", self._traced_objective(get_objective))
        uniform = core.RngStream.uniform

        def counted_uniform(stream, *args):
            self.counts["engine.rng_uniform.calls"] += 1
            return uniform(stream, *args)

        self._patch(core.RngStream, "uniform", counted_uniform)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _traced_objective(self, get_objective):
        def traced(name):
            f = get_objective(name)
            evaluate = self._wrap("core.batch_evaluate", f.batch_evaluate,
                                  self._after_evaluate)
            return core.ObjectiveFn(f.name, f.optimum_value, f.evaluate, evaluate)
        return traced

    # -- counts ------------------------------------------------------------

    def _after_step_uniform(self, args, kwargs, result):
        self.counts["core.step_uniform.draws"] += result.size
        if self._stack and self._stack[-1][1] == "batch.init":
            self.counts["init_draw_calls"] += 1

    def _after_evaluate(self, args, kwargs, result):
        self.counts["core.batch_evaluate.evals"] += result.size

    def _after_batch_step(self, args, kwargs, result):
        self.counts["batch.trial_steps.stepped"] += args[0].trials
        self.counts["runner.steps"] += 1
        self.counts["runner.trial_steps"] += args[0].trials

    def _after_runner(self, args, kwargs, result):
        # a trial is live until the sweep that hits; runs without a hit time
        # keep every trial live to the end
        steps = self.counts.pop("runner.steps", 0)
        live = self.counts.pop("runner.trial_steps", 0)
        hit_evals = getattr(result, "hit_evals", None)
        if hit_evals is not None:
            m = args[0].m
            hits = hit_evals[hit_evals >= 0]
            live = int(((hits - m) // m).sum()) + int((hit_evals < 0).sum()) * steps
        self.counts["batch.trial_steps.live"] += live

    def _after_regions_csv(self, args, kwargs, result):
        self.counts["regions.csv.bytes"] += os.path.getsize(args[1])

    # -- reporting ---------------------------------------------------------

    def round_figures(self) -> dict:
        """Per-layer figures of the round just traced (counts and self times)."""
        c, s = self.counts, self.self_s
        draws = c["core.step_uniform.draws"]
        stepped = c["batch.trial_steps.stepped"]
        live = c["batch.trial_steps.live"]
        return {
            "core.step_uniform.self_s": s["core.step_uniform"],
            "core.step_uniform.draws": draws,
            "core.step_uniform.ns_per_draw": s["core.step_uniform"] / draws * 1e9 if draws else 0.0,
            "core.batch_evaluate.self_s": s["core.batch_evaluate"],
            "core.batch_evaluate.evals": c["core.batch_evaluate.evals"],
            "batch.step.calls": c["batch.step.calls"],
            "batch.step.self_s": s["batch.step"],
            "batch.runner.self_s": s["batch.runner"],
            "batch.init.self_s": s["batch.init"],
            "batch.init.attempts": c["init_draw_calls"] // 2,
            "batch.trial_steps.stepped": stepped,
            "batch.trial_steps.live": live,
            # no trial-step stepped means none wasted
            "batch.live_share": live / stepped if stepped else 1.0,
            "batch.attractor.self_s": s["batch.attractor"],
            "engine.step.calls": c["engine.step.calls"],
            "engine.step.self_s": s["engine.step"],
            "engine.runner.self_s": s["engine.runner"],
            "engine.rng_uniform.calls": c["engine.rng_uniform.calls"],
            "experiments.self_s": s["experiments"],
            "moments.radius_grid.self_s": s["moments.radius_grid"],
            "moments.oracle.self_s": s["moments.oracle"],
            "regions.scan.self_s": s["regions.scan"],
            "regions.csv.self_s": s["regions.csv"],
            "regions.csv.bytes": c["regions.csv.bytes"],
            "regions.svg.self_s": s["regions.svg"],
            "cli.command.self_s": s["cli.command"],
            "cli.write_manifest.self_s": s["cli.write_manifest"],
        }

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def summarise(rounds: list) -> dict:
    """Counts from the first traced round, times as the mean over rounds."""
    out = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        counted = PER_LAYER[name][0] in ("count", "bytes")
        out[name] = values[0] if counted else statistics.fmean(values)
    return out
