"""Scalar reference of the swarm update, for tests only.

Every attraction factor, noise term and initial coordinate is drawn one at a
time from the benchmark reference's SplitMix64 `mix`, with the dimension
coordinate added; values come from the scalar objectives below; and the
update is written out per (particle, dimension).  Nothing here imports
swarmlab, so comparing the two checks the kernel's hash, objectives and update
against an independent implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from benchmark_modules import reference as ref

# purpose tags of the draw coordinates
R, S, NOISE, INIT_X, INIT_V = ref.R, ref.S, ref.NOISE, ref.INIT_X, ref.INIT_V


def trial_draws(seed: int, trial: int):
    """Uniform doubles of one trial, addressed by (purpose, particle, dim,
    step): the seed xor the purpose salt (purpose * golden ratio) is hashed,
    then xored with and hashed over each coordinate in turn; the double is the
    top 53 bits of the last hash scaled by 2^-53."""
    def draw(purpose: int, particle: int, dim: int, step: int) -> float:
        h = ref.mix((seed & ref.MASK64) ^ ((purpose * ref.GOLDEN) & ref.MASK64))
        for coordinate in (trial, particle, dim, step):
            h = ref.mix(h ^ coordinate)
        return (h >> 11) * 2.0 ** -53
    return draw


def sphere(x) -> float:
    """Sum of squares by `np.sum` over one contiguous 1-D row: numpy's
    summation order for a contiguous run (pairwise from n = 9 on, not left to
    right)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return float(np.sum(x * x))


def sphere_plus(x) -> float:
    (v,) = x
    return math.inf if v < 0 else float(v * v)


def counterexample(x) -> float:
    (v,) = x
    return 0.0 if v == 0.0 else 1.0 if v == 1.0 else 2.0


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
    values = np.array([f(x) for x in X])
    gi = int(np.argmin(values))  # ties: lowest particle index
    return RefState(X, V, X.copy(), values, X[gi].copy(), float(values[gi]), t)


def ref_init(params, f, draw, attempt: int = 0) -> RefState:
    """Uniform start on [-alpha, alpha]; `attempt` is the init draws' step.
    `f` is one of the scalar objectives here, `draw` a `trial_draws`."""
    a = params.alpha
    X = np.empty((params.m, params.n))
    V = np.empty((params.m, params.n))
    for i in range(params.m):
        for j in range(params.n):
            X[i, j] = a * (2.0 * draw(INIT_X, i, j, attempt) - 1.0)
            V[i, j] = a * (2.0 * draw(INIT_V, i, j, attempt) - 1.0)
    return _with_bests(X, V, f, 0)


def ref_explicit(f, X, V) -> RefState:
    """A given (m, n) start."""
    return _with_bests(np.array(X, dtype=np.float64), np.array(V, dtype=np.float64), f, 0)


def ref_step(s: RefState, params, f, draw) -> RefState:
    """One synchronous update: strict-improvement personal bests, then the
    global best from the updated personal bests."""
    m, n = s.positions.shape
    X = np.empty((m, n))
    V = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            r = draw(R, i, j, s.t)
            q = draw(S, i, j, s.t)
            v = (params.omega * s.velocities[i, j]
                 + params.phi1 * r * (s.pbest_positions[i, j] - s.positions[i, j])
                 + params.phi2 * q * (s.gbest_position[j] - s.positions[i, j]))
            if params.delta > 0:
                v = v + params.delta * (draw(NOISE, i, j, s.t) - 0.5)
            V[i, j] = v
            X[i, j] = s.positions[i, j] + v
    values = np.array([f(x) for x in X])
    P = s.pbest_positions.copy()
    pvals = s.pbest_values.copy()
    for i in range(m):
        if values[i] < pvals[i]:
            P[i] = X[i]
            pvals[i] = values[i]
    gi = int(np.argmin(pvals))
    return RefState(X, V, P, pvals, P[gi].copy(), float(pvals[gi]), s.t + 1)
