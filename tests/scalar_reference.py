"""Scalar reference of the swarm update, for tests only.

Every attraction factor, noise term and initial coordinate is drawn one at a
time from the pure-Python `RngStream` hash, and the update is written out per
(particle, dimension) without `BatchSwarm` or the vectorised hash, so
comparing the two checks the kernel against an independent implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swarmlab.core import (
    PURPOSE_INIT_V,
    PURPOSE_INIT_X,
    PURPOSE_NOISE,
    PURPOSE_R,
    PURPOSE_S,
    RngStream,
)


@dataclass(frozen=True)
class RefState:
    positions: np.ndarray        # (m, n)
    velocities: np.ndarray       # (m, n)
    pbest_positions: np.ndarray  # (m, n)
    pbest_values: np.ndarray     # (m,)
    gbest_position: np.ndarray   # (n,)
    gbest_value: float
    t: int


def _with_bests(X, V, f, t):
    values = np.array([f.evaluate(x) for x in X])
    gi = int(np.argmin(values))  # ties: lowest particle index
    return RefState(X, V, X.copy(), values, X[gi].copy(), float(values[gi]), t)


def ref_init(params, f, rng: RngStream, attempt: int = 0) -> RefState:
    """Uniform start on [-alpha, alpha]; `attempt` is the init draws' step."""
    a = params.alpha
    X = np.empty((params.m, params.n))
    V = np.empty((params.m, params.n))
    for i in range(params.m):
        for j in range(params.n):
            X[i, j] = a * (2.0 * rng.uniform(PURPOSE_INIT_X, i, j, attempt) - 1.0)
            V[i, j] = a * (2.0 * rng.uniform(PURPOSE_INIT_V, i, j, attempt) - 1.0)
    return _with_bests(X, V, f, 0)


def ref_step(s: RefState, params, f, rng: RngStream) -> RefState:
    """One synchronous update: strict-improvement personal bests, then the
    global best from the updated personal bests."""
    m, n = s.positions.shape
    X = np.empty((m, n))
    V = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            r = rng.uniform(PURPOSE_R, i, j, s.t)
            q = rng.uniform(PURPOSE_S, i, j, s.t)
            v = (params.omega * s.velocities[i, j]
                 + params.phi1 * r * (s.pbest_positions[i, j] - s.positions[i, j])
                 + params.phi2 * q * (s.gbest_position[j] - s.positions[i, j]))
            if params.delta > 0:
                v = v + params.delta * (rng.uniform(PURPOSE_NOISE, i, j, s.t) - 0.5)
            V[i, j] = v
            X[i, j] = s.positions[i, j] + v
    values = np.array([f.evaluate(x) for x in X])
    P = s.pbest_positions.copy()
    pvals = s.pbest_values.copy()
    for i in range(m):
        if values[i] < pvals[i]:
            P[i] = X[i]
            pvals[i] = values[i]
    gi = int(np.argmin(pvals))
    return RefState(X, V, P, pvals, P[gi].copy(), float(pvals[gi]), s.t + 1)
