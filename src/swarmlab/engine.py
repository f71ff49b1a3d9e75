"""One-trial runs with first-hitting-time tracking and trajectory dumps.

A one-trial swarm is a :class:`swarmlab.batch.BatchSwarm` with trials = 1 and
the master seed's trial 0 (or the given trial index), and `run_until_hit` is
`batch.step_until_hit`, the loop under `fht`, so a `simulate` run is trial 0
of `fht`.  The swarm is advanced in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .batch import BatchSwarm, step_until_hit
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
               **start) -> BatchSwarm:
    """Trial `trial` of the seed as a one-trial swarm, started as `fht` starts
    it: `start` holds the `BatchSwarm` start keywords.  By default positions
    and velocities are uniform on [-alpha, alpha]; with require_nonneg_gbest,
    a start without any nonnegative position is drawn again; with
    init="explicit", the (m, n) positions and velocities are given.
    """
    return BatchSwarm(params, f, 1, seed, trial, **start)


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
    X, V, P, G = swarm.X[:, 0], swarm.V[:, 0], swarm.P[:, 0], swarm.G[0]
    fg = float(swarm.fG[0])
    return [(swarm.t, i, j, float(X[i, j]), float(V[i, j]), float(P[i, j]),
             float(G[j]), fg)
            for i in range(X.shape[0]) for j in range(X.shape[1])]


def run_until_hit(swarm: BatchSwarm, budget: int,
                  trace_stride: int | None = None) -> TrialResult:
    """`batch.step_until_hit` on the swarm, read off for trial 0; a hit leaves
    the swarm in its hit state.  With trace_stride, trajectory rows of the
    start and of every trace_stride-th step are attached."""
    trace = trajectory_rows(swarm) if trace_stride else None

    def observe(s):
        if s.t % trace_stride == 0:
            trace.extend(trajectory_rows(s))

    res = step_until_hit(swarm, budget, observe=observe if trace else None)
    evals = int(res.hit_evals[0])
    return TrialResult(evals >= 0, evals if evals >= 0 else None, budget,
                       float(res.final_gbest_value[0]), trace)
