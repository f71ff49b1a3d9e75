"""Closed forms for swarm stagnation: the single-particle drift trajectory,
the two-particle distance-contraction constants, and the expectation bounds
built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PsoParams

__all__ = [
    "TwoParticleInit",
    "StagnationVerdict",
    "kappa",
    "lam",
    "expected_abs_one_minus_s_phi",
    "fib_closed_form",
    "d_abs_expectation_bound",
    "velocity_sum_bound",
    "position_threshold",
    "check_two_particle_stagnation",
    "bad_init_event",
    "one_particle_trajectory",
    "one_particle_limit",
]


@dataclass(frozen=True)
class TwoParticleInit:
    """Initial condition of the two-particle configuration (1-D)."""

    x1: float
    x2: float
    v1: float
    v2: float

    @property
    def d0(self) -> float:
        return self.x2 - self.x1


def kappa(omega, phi2):
    """Distance-contraction rate for the two-particle configuration.

    The expected inter-particle distance shrinks at least geometrically with
    this rate whenever it is below 1.  Accepts scalars or arrays; phi2 must be
    positive.  Where a term overflows (phi2 or |omega| phi2 above about
    1e77), or b < 0 (omega far below 0), kappa is inf or NaN, without a
    numpy warning; neither is below 1.
    """
    phi2 = np.asarray(phi2, dtype=np.float64)
    if np.any(phi2 <= 0):
        raise ValueError("kappa requires phi2 > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        a = phi2 * phi2 - 2.0 * phi2 + 2.0 + 2.0 * omega * phi2
        b = (phi2 * phi2 - 2.0 * phi2 + 2.0 * omega * phi2 + 2.0) \
            * (phi2 * phi2 + 6.0 * phi2 + 2.0 * omega * phi2 + 2.0)
        out = a / (4.0 * phi2) + np.sqrt(b) / (4.0 * phi2)
    return out if out.ndim else float(out)


def lam(omega, phi2):
    """Contraction factor (phi2^2 - 2 phi2 + 2)/phi2 + 2 omega.

    Equivalent characterisation of the same boundary: kappa < 1 iff lam < 1,
    via kappa = (lam + sqrt(8 lam + lam^2)) / 4.
    """
    phi2 = np.asarray(phi2, dtype=np.float64)
    if np.any(phi2 <= 0):
        raise ValueError("lam requires phi2 > 0")
    out = (phi2 * phi2 - 2.0 * phi2 + 2.0) / phi2 + 2.0 * omega
    return out if out.ndim else float(out)


def expected_abs_one_minus_s_phi(phi: float) -> float:
    """E|1 - S*phi| for S ~ U[0,1]: (phi^2 - 2 phi + 2) / (2 phi).

    The case split behind the closed form needs 1/phi < 1, so phi <= 1 is
    rejected even though the expression extends continuously.
    """
    if phi <= 1:
        raise ValueError("closed form derived for phi > 1")
    return (phi * phi - 2.0 * phi + 2.0) / (2.0 * phi)


def fib_closed_form(c: float, a1: float, a2: float, n: int) -> float:
    """n-th term of a_k = c (a_{k-1} + a_{k-2}) with a_1, a_2 given.

    Solves the two-term seed system for the root weights and evaluates
    A*alpha^n + B*beta^n with alpha, beta = (c -/+ sqrt(c(4+c)))/2.
    """
    if c <= 0:
        raise ValueError("fib_closed_form requires c > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    root = np.sqrt(c * (4.0 + c))
    alpha = (c - root) / 2.0
    beta = (c + root) / 2.0
    A, B = np.linalg.solve(np.array([[alpha, beta], [alpha * alpha, beta * beta]]),
                           np.array([a1, a2], dtype=np.float64))
    return float(A * alpha ** n + B * beta ** n)


def d_abs_expectation_bound(t: int, init: TwoParticleInit, kappa_value: float) -> float:
    """Bound on the expected inter-particle distance after t steps:
    kappa^t (2|D0| + v1 - v2).

    The signed velocity difference follows the bound's stated constant.
    t = 0 returns the constant itself.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return kappa_value ** t * (2.0 * abs(init.d0) + init.v1 - init.v2)


def velocity_sum_bound(params: PsoParams, init: TwoParticleInit) -> float:
    """Bound on the lifetime expected absolute velocity sum per particle:
    (2 phi2 / ((1-omega)(1-kappa))) (|D0| + |v1| + |v2|).
    """
    w = params.omega
    if not (0 < w < 1):
        raise ValueError("velocity sum bound requires 0 < omega < 1")
    k = kappa(w, params.phi2)
    if not k < 1:
        raise ValueError(f"series diverges: kappa = {k} is not below 1")
    coeff = 2.0 * params.phi2 / ((1.0 - w) * (1.0 - k))
    return coeff * (abs(init.d0) + abs(init.v1) + abs(init.v2))


def position_threshold(params: PsoParams, init: TwoParticleInit) -> float:
    """Initial-position threshold of the two-particle stagnation condition:
    2 epsilon + 2 phi2 (|D0| + |v1| + |v2|) / ((1-omega)(1-kappa)).

    Returns inf when the contraction condition fails.
    """
    try:
        return 2.0 * params.epsilon + velocity_sum_bound(params, init)
    except ValueError:
        return np.inf


@dataclass(frozen=True)
class StagnationVerdict:
    """Per-condition evaluation of the two-particle stagnation hypotheses."""

    kappa: float
    lam: float
    position_threshold: float
    conditions_met: dict

    @property
    def all_met(self) -> bool:
        return all(self.conditions_met.values())


def check_two_particle_stagnation(params: PsoParams, init: TwoParticleInit) -> StagnationVerdict:
    """Evaluate every hypothesis of the two-particle stagnation condition.

    When all conditions hold, the certified conclusion is an infinite expected
    first hitting time for the ball of radius epsilon around the optimum.  The
    verdict reports each condition separately: the published example
    configuration (positions 184/185) fails the printed position threshold
    even though it stagnates empirically, so callers should pair this check
    with the Monte Carlo demo rather than silently trusting either side.
    """
    k = float(kappa(params.omega, params.phi2)) if params.phi2 > 0 else np.inf
    l = float(lam(params.omega, params.phi2)) if params.phi2 > 0 else np.inf
    thr = position_threshold(params, init)
    conditions = {
        "omega_lt_1": params.omega < 1,
        "phi2_in_1_2": 1 < params.phi2 < 2,
        "velocities_nonpositive": init.v1 <= 0 and init.v2 <= 0,
        "kappa_lt_1": k < 1,
        "positions_above_threshold": init.x1 > thr and init.x2 > thr,
    }
    return StagnationVerdict(kappa=k, lam=l, position_threshold=thr, conditions_met=conditions)


def bad_init_event(x0: float, v0: float, omega: float, epsilon: float, alpha: float) -> bool:
    """Single-particle bad-initialisation event:
    x0 > epsilon*alpha and (epsilon*alpha - x0)/(1 - omega) < v0 < 0.

    All inequalities strict.  Note the event keeps the drift limit above
    epsilon*alpha only for omega <= (3 - sqrt(5))/2; larger inertia admits
    members whose limit point undershoots the threshold.
    """
    if omega >= 1:
        raise ValueError("bad_init_event requires omega < 1")
    target = epsilon * alpha
    return x0 > target and (target - x0) / (1.0 - omega) < v0 < 0.0


def one_particle_trajectory(x0: float, v0: float, omega: float, t: int):
    """Closed-form single-particle state while it remains its own attractor:
    V_t = omega^t v0 and X_t = x0 + v0 * sum_{i=1..t} omega^i.

    Valid while the trajectory is monotone improving (each new position
    strictly better), which the bad-initialisation event guarantees on the
    positive axis for 0 <= omega < 1.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return x0, v0
    if omega == 1.0:
        geom = float(t)
    else:
        geom = omega * (1.0 - omega ** t) / (1.0 - omega)
    return x0 + v0 * geom, v0 * omega ** t


def one_particle_limit(x0: float, v0: float, omega: float) -> float:
    """Limit point x0 + v0 * omega / (1 - omega) of the drifting particle."""
    if not (0 <= omega < 1):
        raise ValueError("limit point requires 0 <= omega < 1")
    return x0 + v0 * omega / (1.0 - omega)
