"""Independent references for the benchmark's correctness checks.

Nothing here imports swarmlab.  The random stream and the update rule are
re-derived from their definitions (SplitMix64 finaliser, purpose salts,
top-53-bit uniforms, the strict-improvement best update), in scalar Python
floats, so a replayed trial that matches the program bit for bit is evidence
about the program rather than a copy of it.  The stationary variance is
solved in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB

# purpose tags of the draw coordinates
R, S, NOISE, INIT_X, INIT_V = 1, 2, 3, 4, 5


def mix(h: int) -> int:
    """SplitMix64 finaliser on a 64-bit integer."""
    h = (h + GOLDEN) & MASK64
    h = ((h ^ (h >> 30)) * MIX_A) & MASK64
    h = ((h ^ (h >> 27)) * MIX_B) & MASK64
    return h ^ (h >> 31)


class Draws:
    """Uniform doubles of one trial, addressed by (purpose, particle, step).

    A draw hashes, in turn, the seed xor the purpose salt (purpose * golden
    ratio), the trial, the particle, the dimension and the step; the double is
    the top 53 bits of the last hash scaled by 2^-53.  One-dimensional swarms
    only, so the dimension coordinate is always 0.
    """

    def __init__(self, seed: int, trial: int):
        self._prefix = {}
        for purpose in (R, S, NOISE, INIT_X, INIT_V):
            h = mix((seed & MASK64) ^ ((purpose * GOLDEN) & MASK64))
            self._prefix[purpose] = mix(h ^ trial)
        self._base = {}

    def __call__(self, purpose: int, particle: int, step: int) -> float:
        key = (purpose, particle)
        base = self._base.get(key)
        if base is None:
            base = self._base[key] = mix(mix(self._prefix[purpose] ^ particle) ^ 0)
        return (mix(base ^ step) >> 11) * 2.0 ** -53


def objective(name: str):
    """Scalar objective on a one-dimensional position."""
    if name == "sphere":
        return lambda x: x * x
    if name == "sphere_plus":
        return lambda x: math.inf if x < 0 else x * x
    raise ValueError(f"no reference for objective {name!r}")


def _argmin(values) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] < values[best]:
            best = i
    return best


class Swarm:
    """One trial of the swarm update in scalar floats (n = 1).

    V <- omega V + phi1 R (P - X) + phi2 S (G - X) [+ delta (U - 1/2)],
    X <- X + V; a personal best moves on strict improvement only and the
    global best is the lowest-index minimum of the personal bests.
    """

    def __init__(self, p: dict, f, draws: Draws, X, V):
        self.p, self.f, self.draws = p, f, draws
        self.X, self.V = list(X), list(V)
        self.values = [f(x) for x in self.X]
        self.P, self.fP = list(self.X), list(self.values)
        self.g = _argmin(self.fP)
        self.t = 0
        self.evals = len(self.X)

    @property
    def G(self) -> float:
        return self.P[self.g]

    @property
    def fG(self) -> float:
        return self.fP[self.g]

    def step(self):
        p, d, t, G = self.p, self.draws, self.t, self.G
        omega, phi1, phi2, delta = p["omega"], p["phi1"], p["phi2"], p["delta"]
        for i in range(len(self.X)):
            r, s = d(R, i, t), d(S, i, t)
            x = self.X[i]
            v = omega * self.V[i] + phi1 * r * (self.P[i] - x) + phi2 * s * (G - x)
            if delta > 0:
                v = v + delta * (d(NOISE, i, t) - 0.5)
            x = x + v
            value = self.f(x)
            self.X[i], self.V[i], self.values[i] = x, v, value
            if value < self.fP[i]:
                self.P[i], self.fP[i] = x, value
        self.g = _argmin(self.fP)
        self.t += 1
        self.evals += len(self.X)


def random_start(p: dict, draws: Draws, require_nonneg_gbest: bool):
    """Uniform start on [-alpha, alpha], redrawn (attempt = step coordinate)
    while every position is negative if a nonnegative best is required."""
    a, m = p["alpha"], p["m"]
    attempt = 0
    while True:
        X = [a * (2.0 * draws(INIT_X, i, attempt) - 1.0) for i in range(m)]
        V = [a * (2.0 * draws(INIT_V, i, attempt) - 1.0) for i in range(m)]
        if not require_nonneg_gbest or any(x >= 0 for x in X):
            return X, V
        attempt += 1


def replay_fht_trial(p: dict, objective_name: str, seed: int, trial: int,
                     budget: int, require_nonneg_gbest: bool):
    """(hit evals or -1, final global-best value) of one FHT trial.

    A hit is an evaluated value within epsilon of the optimum 0; it records
    the evaluation count after the sweep that produced it.  The run stops
    before a sweep that would exceed the budget.
    """
    draws = Draws(seed, trial)
    X, V = random_start(p, draws, require_nonneg_gbest)
    sw = Swarm(p, objective(objective_name), draws, X, V)
    eps = p["epsilon"]
    while True:
        if any(abs(v) < eps for v in sw.values):
            return sw.evals, sw.fG
        if sw.evals + p["m"] > budget:
            return -1, sw.fG
        sw.step()


def replay_two_particle_trial(p: dict, seed: int, trial: int, x0, v0, steps: int,
                              ball_radius: float, sample_times):
    """Per-trial statistics of the two-particle stagnation run on the sphere."""
    sw = Swarm(p, objective("sphere"), Draws(seed, trial), x0, v0)
    entered = any(abs(x) <= ball_radius for x in sw.X)
    sum_abs_v = [abs(v) for v in sw.V]
    valid = all(x >= 0 for x in sw.X) and all(v <= 0 for v in sw.V)
    min_pos = min(sw.X)
    d_abs, valid_at = {}, {}
    for _ in range(steps):
        sw.step()
        entered = entered or any(abs(x) <= ball_radius for x in sw.X)
        sum_abs_v = [s + abs(v) for s, v in zip(sum_abs_v, sw.V)]
        valid = valid and all(x >= 0 for x in sw.X) and all(v <= 0 for v in sw.V)
        min_pos = min(min_pos, min(sw.X))
        if sw.t in sample_times:
            d_abs[sw.t] = abs(sw.X[1] - sw.X[0])
            valid_at[sw.t] = valid
    return {"entered": entered, "sum_abs_v": sum_abs_v, "min_position": min_pos,
            "d_abs": d_abs, "valid_at": valid_at}


# ---------------------------------------------------------------------------
# exact moments of the fixed-attractor recurrence
# ---------------------------------------------------------------------------

def _coefficients(omega, phi1, phi2):
    """E[a], E[a^2] of a = 1 + omega - (phi1 R + phi2 S), R, S ~ U[0, 1]."""
    s = phi1 + phi2
    ea = 1 + omega - s / 2
    ea2 = ((1 + omega) ** 2 - (1 + omega) * s
           + phi1 * phi1 / 3 + phi1 * phi2 / 2 + phi2 * phi2 / 3)
    return ea, ea2


def stationary_determinant(omega, phi1, phi2):
    """Determinant of the stationary 2x2 system below, f(1); positive exactly
    on the mean-square stable region.  Takes Fractions or numpy arrays."""
    ea, ea2 = _coefficients(omega, phi1, phi2)
    return (1 - ea2 - omega * omega) * (1 + omega) + 2 * omega * ea * ea


def f_one_exact(omega, phi1, phi2) -> Fraction:
    return stationary_determinant(Fraction(omega), Fraction(phi1), Fraction(phi2))


def equilibrium_exact(phi1, phi2, p_best, g_best) -> Fraction:
    phi1, phi2 = Fraction(phi1), Fraction(phi2)
    return (phi1 * Fraction(p_best) + phi2 * Fraction(g_best)) / (phi1 + phi2)


def stationary_variance_exact(omega, phi1, phi2, delta, p_best, g_best) -> Fraction:
    """Stationary variance of X_{t+1} = a X_t - w X_{t-1} + b_t with
    b = phi1 R P + phi2 S G + N, N ~ U[-delta/2, delta/2], in exact rationals.

    About the equilibrium mu, Y = X - mu follows the same recurrence with the
    zero-mean drive c = phi1 R (P - mu) + phi2 S (G - mu) + N, which is
    independent of (Y_t, Y_{t-1}).  Stationarity of V = E[Y^2] and the lag-1
    covariance C gives
        V = E[a^2] V - 2 w E[a] C + w^2 V + E[c^2],
        C = E[a] V / (1 + w),
    so V = E[c^2] (1 + w) / f(1).  Floats are taken at their exact binary
    values; pass Fraction or decimal strings for decimal parameters.
    """
    w, p1, p2, d = (Fraction(x) for x in (omega, phi1, phi2, delta))
    mu = equilibrium_exact(p1, p2, p_best, g_best)
    dp, dg = Fraction(p_best) - mu, Fraction(g_best) - mu
    ec2 = (p1 * p1 * dp * dp / 3 + p2 * p2 * dg * dg / 3 + p1 * p2 * dp * dg / 2
           + d * d / 12)
    return ec2 * (1 + w) / stationary_determinant(w, p1, p2)


def second_moment_radius(omega, phi1, phi2) -> np.ndarray:
    """Largest eigenvalue modulus of the homogeneous map of
    (E[X_t^2], E[X_t X_{t-1}], E[X_{t-1}^2]), by numpy.linalg.eigvals."""
    omega, phi1, phi2 = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                              for x in (omega, phi1, phi2)))
    ea, ea2 = _coefficients(omega, phi1, phi2)
    A = np.zeros(omega.shape + (3, 3))
    A[..., 0, 0] = ea2
    A[..., 0, 1] = -2.0 * omega * ea
    A[..., 0, 2] = omega * omega
    A[..., 1, 0] = ea
    A[..., 1, 1] = -omega
    A[..., 2, 0] = 1.0
    return np.abs(np.linalg.eigvals(A)).max(axis=-1)


def drift_position(x0: float, v0: float, omega: float, t: int) -> float:
    """Single particle whose bests track it: x_t = x0 + v0 w (1 - w^t) / (1 - w)."""
    return x0 + v0 * omega * (1.0 - omega ** t) / (1.0 - omega)
