"""One-trial runs: the names `simulate` calls and the benchmark's tracer wraps.

A one-trial swarm is a :class:`swarmlab.batch.BatchSwarm` with trials = 1 and
the master seed's trial 0, and `run_until_hit` is `batch.step_until_hit`, the
loop under `fht`, so a `simulate` run is trial 0 of `fht`.  The swarm is
advanced in place.
"""

from __future__ import annotations

from .batch import BatchSwarm, step_until_hit
from .core import ObjectiveFn, PsoParams

__all__ = ["init_swarm", "init_swarm_explicit", "step", "run_until_hit"]


def init_swarm(params: PsoParams, f: ObjectiveFn, seed: int, **start) -> BatchSwarm:
    """Trial 0 of the seed as a one-trial swarm, started as `fht` starts it:
    `start` holds the `BatchSwarm` start keywords.  By default positions and
    velocities are uniform on [-alpha, alpha]; with require_nonneg_gbest, a
    start without any nonnegative position is drawn again; with
    init="explicit", the (m, n) positions and velocities are given.
    """
    return BatchSwarm(params, f, 1, seed, **start)


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


# bound under this module's name, so that a wrapper set here times `simulate`
run_until_hit = step_until_hit
