"""One-trial runs with first-hitting-time tracking and trajectory dumps.

A one-trial swarm is a :class:`swarmlab.batch.BatchSwarm` with trials = 1 and
the master seed's trial 0 (or the given trial index), so a `simulate` run
follows the same update, initialisation and best update as trial 0 of `fht`.
The swarm is advanced in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import BatchSwarm
from .core import ObjectiveFn, PsoParams

__all__ = [
    "TrialResult",
    "init_swarm",
    "init_swarm_explicit",
    "step",
    "run_until_hit",
    "trajectory_rows",
    "TRAJECTORY_HEADER",
]


def init_swarm(params: PsoParams, f: ObjectiveFn, seed: int, trial: int = 0,
               require_nonneg_gbest: bool = False) -> BatchSwarm:
    """Uniform initialisation of positions and velocities on [-alpha, alpha].

    With require_nonneg_gbest, a start without any nonnegative position is
    drawn again, as `fht` does.
    """
    return BatchSwarm(params, f, 1, seed, trial,
                      require_nonneg_gbest=require_nonneg_gbest)


def init_swarm_explicit(params: PsoParams, f: ObjectiveFn, seed: int,
                        positions, velocities) -> BatchSwarm:
    """Initial state with caller-specified (m, n) positions and velocities
    (length-m sequences for one-dimensional swarms)."""
    return BatchSwarm(params, f, 1, seed, init="explicit",
                      positions=positions, velocities=velocities)


def step(swarm: BatchSwarm) -> BatchSwarm:
    """One synchronous update of all particles (see `BatchSwarm.step`)."""
    swarm.step()
    return swarm


@dataclass(frozen=True)
class TrialResult:
    """Outcome of a single budgeted run: a hit or a censored trial."""

    hit: bool
    evals_at_hit: int | None
    budget: int
    final_gbest_value: float
    trace: list | None = None

    @property
    def outcome(self) -> str:
        return "hit" if self.hit else "censored"

    @property
    def evals(self) -> int:
        return self.evals_at_hit if self.hit else self.budget


TRAJECTORY_HEADER = "t,particle,dim,x,v,p,g,f_g"


def trajectory_rows(swarm: BatchSwarm) -> list:
    """CSV rows (one per particle per dimension) for trial 0's current state."""
    X, V, P, G = swarm.X[0], swarm.V[0], swarm.P[0], swarm.G[0]
    fg = float(swarm.fG[0])
    return [(swarm.t, i, j, float(X[i, j]), float(V[i, j]), float(P[i, j]),
             float(G[j]), fg)
            for i in range(X.shape[0]) for j in range(X.shape[1])]


def run_until_hit(swarm: BatchSwarm, budget: int,
                  trace_stride: int | None = None) -> TrialResult:
    """Step until an evaluated position lands within epsilon of the optimum
    value (initial evaluations included) or the next step would exceed the
    evaluation budget.

    A hit records the eval_count after the batch of evaluations that produced
    it.  With trace_stride set, sampled trajectory rows are attached.
    """
    m = swarm.params.m
    if budget < m:
        raise ValueError(f"budget {budget} is below one evaluation sweep ({m})")
    opt, epsilon = swarm.objective.optimum_value, swarm.params.epsilon
    trace = [] if trace_stride else None
    if trace is not None:
        trace.extend(trajectory_rows(swarm))
    while True:
        if np.any(np.abs(swarm.values[0] - opt) < epsilon):
            return TrialResult(True, swarm.eval_count, budget, float(swarm.fG[0]), trace)
        if swarm.eval_count + m > budget:
            return TrialResult(False, None, budget, float(swarm.fG[0]), trace)
        step(swarm)
        if trace is not None and swarm.t % trace_stride == 0:
            trace.extend(trajectory_rows(swarm))
