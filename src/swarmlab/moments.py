"""Exact first/second-moment propagation for the fixed-attractor recurrence,
plus the closed-form limits it validates.

With the personal best P and global best G held fixed, a particle's position
follows

    X_{t+1} = (1 + w - (phi1*R_t + phi2*S_t)) X_t - w X_{t-1}
              + phi1*R_t*P + phi2*S_t*G + N_t,

with R_t, S_t ~ U[0,1] and N_t ~ U[-delta/2, delta/2], all independent.  The
first and second moments of X then evolve under an exact 6x6 linear map, which
serves as the ground-truth oracle for every closed-form limit exposed here.

Moment-state layout (all expectations):

    ( E[X_t^2], E[X_t X_{t-1}], E[X_{t-1}^2], E[X_t], E[X_{t-1}], 1 )
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PsoParams, row_blocks

__all__ = [
    "equilibrium_point",
    "f_one",
    "f_one_asymmetric_variant",
    "sigma_y_squared",
    "variance_limit",
    "moment_transition",
    "initial_moment_state",
    "iterate_moments",
    "stationary_moments",
    "stationary_variance",
    "MomentLimits",
    "moment_limits",
    "second_moment_block",
    "char_cubic_radius",
    "second_moment_radius_grid",
]


def equilibrium_point(params: PsoParams, p_best: float, g_best: float) -> float:
    """Weighted attractor (phi1*P + phi2*G) / (phi1 + phi2)."""
    s = params.phi1 + params.phi2
    if s <= 0:
        raise ValueError("equilibrium point requires phi1 + phi2 > 0")
    return (params.phi1 * p_best + params.phi2 * g_best) / s


def f_one(omega, phi1, phi2):
    """Characteristic cubic of the second-moment recurrence evaluated at 1.

    Positivity of this quantity (together with 0 <= omega < 1 and
    phi1 + phi2 > 0) characterises mean-square stability of the
    fixed-attractor process.  Accepts scalars or broadcasting arrays; a
    Python float omega whose square overflows gives an infinite term, as an
    array's does, not an OverflowError.
    """
    return (-(phi1 + phi2) * _square(omega)
            + (phi1 * phi1 / 6 + phi2 * phi2 / 6 + phi1 * phi2 / 2) * omega
            + phi1 + phi2 - phi1 * phi1 / 3 - phi2 * phi2 / 3 - phi1 * phi2 / 2)


def _square(x):
    """x**2, inf where a Python float's square overflows: there `**` raises
    OverflowError, where numpy's gives inf."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def in_mean_square_region(omega, phi1, phi2):
    """0 <= omega < 1, phi1 + phi2 > 0, and f(1) > 0.

    The positivity of phi1 + phi2 (rather than >= 0) keeps the process
    nondegenerate; it is also required by the mean-limit conditions.  Where
    f(1) overflows, the test is False, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _mean_square_rule(omega, phi1 + phi2, f_one(omega, phi1, phi2))


def _mean_square_rule(omega, s, f1):
    """`in_mean_square_region` from s = phi1 + phi2 and f1 = f(1)."""
    return (omega >= 0) & (omega < 1) & (s > 0) & (f1 > 0)


def f_one_asymmetric_variant(omega, phi1, phi2):
    """Alternative printing of the stability value with an asymmetric
    omega coefficient ((1/6) phi2^2 + (1/2) phi1^2 phi2^2).

    Exposed only for adjudication reports: the dynamics are symmetric under
    swapping (phi1, P) <-> (phi2, G), so this variant cannot be the true
    stability boundary.  The spectral oracle decides empirically; see the
    region-equivalence tests.
    """
    return (-(phi1 + phi2) * _square(omega)
            + (phi2 * phi2 / 6 + phi1 * phi1 * phi2 * phi2 / 2) * omega
            + phi1 + phi2 - phi1 * phi1 / 3 - phi2 * phi2 / 3 - phi1 * phi2 / 2)


def sigma_y_squared(omega, phi1, phi2, delta):
    """Printed variance expression delta^2 (1 - f(1)) / (12 f(1)) for the
    noise-stripped process Y_t = X_t - N_t.

    This is the quantity the improvement-probability analysis bounds by
    delta^2/6 whenever f(1) > 1/3.  It is built on the printed noise floor
    delta^2 / (12 f(1)).  The exact moment fixed point has the floor
    (1 + omega) delta^2 / (12 f(1)) (see `variance_limit`), which gives
    Var(Y) = delta^2 (1 + omega - f(1)) / (12 f(1)); under that value the
    delta^2/6 bound needs f(1) >= (1 + omega)/3 instead.  The printed
    expression is kept because it is the one the improvement analysis
    states and bounds.
    """
    f1 = f_one(omega, phi1, phi2)
    return delta * delta * (1.0 - f1) / (12.0 * f1)


def _a_moments(w, p1, p2):
    """(E[a], E[a^2]) of `_coefficient_moments`, on scalars or arrays."""
    return (1.0 + w - (p1 + p2) / 2.0,
            (1.0 + w) ** 2 - (1.0 + w) * (p1 + p2) + p1 * p1 / 3 + p1 * p2 / 2 + p2 * p2 / 3)


def _coefficient_moments(params: PsoParams, p_best: float, g_best: float):
    """Moments of the random recurrence coefficients.

    Writing X_{t+1} = a_t X_t - w X_{t-1} + b_t with
    a_t = 1 + w - (phi1 R + phi2 S) and b_t = phi1 R P + phi2 S G + N,
    returns (E[a], E[a^2], E[b], E[ab], E[b^2]) using E[R] = E[S] = 1/2,
    E[R^2] = E[S^2] = 1/3, E[RS] = 1/4, E[N] = 0, E[N^2] = delta^2/12.
    """
    w, p1, p2 = params.omega, params.phi1, params.phi2
    P, G = p_best, g_best
    ea, ea2 = _a_moments(w, p1, p2)
    eb = (p1 * P + p2 * G) / 2.0
    eab = ((1.0 + w) * (p1 * P + p2 * G) / 2.0
           - (p1 * p1 * P / 3 + p1 * p2 * (P + G) / 4 + p2 * p2 * G / 3))
    eb2 = (p1 * p1 * P * P / 3 + p1 * p2 * P * G / 2 + p2 * p2 * G * G / 3
           + params.delta * params.delta / 12.0)
    return ea, ea2, eb, eab, eb2


def moment_transition(params: PsoParams, p_best: float, g_best: float) -> np.ndarray:
    """Exact 6x6 linear map M with moments_{t+1} = M @ moments_t."""
    w = params.omega
    ea, ea2, eb, eab, eb2 = _coefficient_moments(params, p_best, g_best)
    M = np.zeros((6, 6))
    M[0] = [ea2, -2.0 * w * ea, w * w, 2.0 * eab, -2.0 * w * eb, eb2]
    M[1] = [ea, -w, 0.0, eb, 0.0, 0.0]
    M[2] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    M[3] = [0.0, 0.0, 0.0, ea, -w, eb]
    M[4] = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    M[5] = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    return M


def initial_moment_state(x1: float, x0: float) -> np.ndarray:
    """Moment vector for the deterministic start (X_1, X_0) = (x1, x0)."""
    return np.array([x1 * x1, x1 * x0, x0 * x0, x1, x0, 1.0])


def iterate_moments(M: np.ndarray, init: np.ndarray, T: int) -> np.ndarray:
    """Exact moment trajectory: rows 0..T with row k = M^k @ init."""
    if T < 0:
        raise ValueError("T must be >= 0")
    out = np.empty((T + 1, 6))
    out[0] = init
    s = np.asarray(init, dtype=np.float64)
    for k in range(1, T + 1):
        s = M @ s
        out[k] = s
    return out


def stationary_moments(params: PsoParams, p_best: float, g_best: float) -> np.ndarray:
    """Fixed point of the moment map, solved directly on the affine part.

    Returns the full 6-vector (last component 1).  Outside
    `in_mean_square_region` the fixed point does not attract (its second
    moment can be negative): ValueError.  Also raises if the homogeneous part
    has an eigenvalue at 1, or if the fixed point overflows.
    """
    if not in_mean_square_region(params.omega, params.phi1, params.phi2):
        raise ValueError("not mean-square stable (0 <= omega < 1, phi1 + phi2 > 0, f(1) > 0)")
    M = moment_transition(params, p_best, g_best)
    A = np.eye(5) - M[:5, :5]
    try:
        x = np.linalg.solve(A, M[:5, 5])
    except np.linalg.LinAlgError:
        raise ValueError("no unique stationary moment state (boundary parameters)") from None
    if not np.isfinite(x).all():
        raise ValueError(f"the stationary moments overflow at bests ({p_best!r}, {g_best!r}), "
                         f"delta {params.delta!r}")
    return np.append(x, 1.0)


def stationary_variance(params: PsoParams, p_best: float, g_best: float) -> float:
    """Stationary variance from the exact moment fixed point.

    Solves the fixed point for X_t minus the equilibrium point, i.e. the same
    recurrence with bests (P - mu, G - mu) = (-phi2, phi1) (G - P)/(phi1 + phi2),
    whose mean is zero.  Taking E[X^2] - E[X]^2 from the uncentred solution
    instead cancels catastrophically when |mu| is large and the spread tiny
    (it can even come out negative).  Outside `in_mean_square_region`,
    `stationary_moments` raises ValueError.
    """
    s = params.phi1 + params.phi2
    gap = g_best - p_best
    # s > 0 wherever stationary_moments answers; elsewhere it raises
    centred = (-params.phi2 * gap / s, params.phi1 * gap / s) if s > 0 else (p_best, g_best)
    c = stationary_moments(params, *centred)
    return float(c[0] - c[3] * c[3])


def variance_limit(params: PsoParams, p_best: float, g_best: float) -> float:
    """Limit variance of the fixed-attractor process:

        [ (1/6) (phi1*phi2 / (phi1+phi2))^2 (G - P)^2 + delta^2/12 ]
            * (1 + omega) / f(1).

    Notes
    -----
    Two other groupings of the same ingredients circulate: one applies the
    (1 + omega) factor to the (G - P)^2 term only, leaving the noise floor as
    delta^2 / (12 f(1)); another adds (1/6)(phi1 phi2/(phi1+phi2))^2 as a
    separate summand.  The exact fixed point of the moment map selects the
    form above (every constant entering the driving term's second moment is
    amplified by (1 + omega)/f(1)), and the moment-oracle tests pin the
    agreement to relative 1e-9.  Parameters outside the mean-square region
    (`in_mean_square_region`), and a limit that overflows, raise ValueError.
    """
    w, p1, p2 = params.omega, params.phi1, params.phi2
    if not in_mean_square_region(w, p1, p2):
        raise ValueError("not mean-square stable (0 <= omega < 1, phi1 + phi2 > 0, f(1) > 0)")
    s = p1 + p2
    f1 = f_one(w, p1, p2)
    try:   # a Python float's ** raises where its * and / give inf
        gap = (g_best - p_best) ** 2
        limit = ((p1 * p2 / s) ** 2 * gap / 6.0 + params.delta ** 2 / 12.0) * (1.0 + w) / f1
    except OverflowError:
        limit = math.inf
    if not math.isfinite(limit):
        raise ValueError(f"the variance limit overflows at bests ({p_best!r}, {g_best!r}), "
                         f"delta {params.delta!r}")
    return limit


@dataclass(frozen=True)
class MomentLimits:
    mean_limit: float
    var_limit: float


def moment_limits(params: PsoParams, p_best: float, g_best: float) -> MomentLimits:
    """Closed-form mean/variance limits, the variance inf where `variance_limit`
    raises.  Nothing in swarmlab calls this; the benchmark's tracer wraps it.
    """
    mean = equilibrium_point(params, p_best, g_best)
    try:
        var = variance_limit(params, p_best, g_best)
    except ValueError:
        var = np.inf
    return MomentLimits(mean_limit=mean, var_limit=var)


def second_moment_block(M: np.ndarray) -> np.ndarray:
    """Homogeneous 3x3 block acting on (E[X_t^2], E[X_t X_{t-1}], E[X_{t-1}^2])."""
    return M[:3, :3].copy()


def char_cubic_radius(A: np.ndarray) -> float:
    """Spectral radius of a 3x3 matrix via companion-form root solving;
    ValueError where a coefficient of the characteristic cubic overflows."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (3, 3):
        raise ValueError("char_cubic_radius expects a 3x3 matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = -np.trace(A)
        c1 = 0.5 * (np.trace(A) ** 2 - np.trace(A @ A))
        c0 = -np.linalg.det(A)
    if not np.isfinite([c2, c1, c0]).all():
        raise ValueError("the characteristic cubic of the second-moment block overflows")
    roots = np.roots([1.0, c2, c1, c0])
    return float(np.max(np.abs(roots)))


def second_moment_radius_grid(omega, phi1, phi2):
    """Spectral radius of the homogeneous second-moment block, vectorised.

    omega/phi1/phi2 broadcast together; scalars give a scalar.  Used to
    adjudicate the f(1) stability boundary on dense parameter grids.  The
    cells are solved in blocks of whole rows along the first axis, about
    `core.BLOCK_CELLS` cells each, written into one preallocated result:
    every cell's arithmetic is the same as in one whole-grid pass, and a
    400 x 400 grid's temporaries stay near a core's cache.  A cell is solved
    from the second-moment block's characteristic cubic

        lambda^3 + c2 lambda^2 + c1 lambda + c0,
        c2 = w - E[a^2],  c1 = w (2 E[a]^2 - E[a^2] - w),  c0 = -w^3,

    by the real-cubic method (Kahan 1986).  The radius is the largest real
    root: the block maps the cone of positive semidefinite second-moment
    matrices of (X_t, X_{t-1}) into itself, so its spectral radius is itself
    an eigenvalue (Krein-Rutman), and no other root, a complex pair of
    modulus sqrt(|w^3 / r|) for the real root r included, exceeds it.
    Where the depressed cubic's discriminant D is positive, that root is the
    one real root, from Cardano's formula in a cancellation-free form; where
    D <= 0 it is the largest of the trigonometric form's three.  Two Newton
    steps on the original cubic finish it.  The result agrees with
    numpy.linalg.eigvals on the block to about 1e-12 relative, a little less
    closely (to about 1e-10) only as phi1, phi2 -> 0 near omega = 1, where
    the three roots cluster.
    """
    shape = np.broadcast_shapes(np.shape(omega), np.shape(phi1), np.shape(phi2))
    # at least one axis to block along; scalars are one block of one cell
    w, phi1, phi2 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in (omega, phi1, phi2)))
    out = np.empty(w.shape)
    for rows in row_blocks(len(out), math.prod(out.shape[1:])):
        out[rows] = _radius_of_cells(w[rows], phi1[rows], phi2[rows])
    return out.reshape(shape)[()]


def _radius_of_cells(w, phi1, phi2):
    """`second_moment_radius_grid` on arrays of one shape."""
    ea, ea2 = _a_moments(w, phi1, phi2)
    c2 = w - ea2
    c1 = w * (2.0 * ea * ea - ea2 - w)
    c0 = -w * w * w
    # lambda = t - s turns the cubic into t^3 + p t + q
    s = c2 / 3.0
    p = c1 - 3.0 * s * s
    q = s * (2.0 * s * s - c1) + c0
    D = 0.25 * q * q + p * p * p / 27.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # D > 0: Cardano; t = A + B with A B = -p/3, and where p >= 0 (A, B of
        # opposite signs) t = -q / (A^2 - A B + B^2) instead of the sum
        A = -np.copysign(np.cbrt(0.5 * np.abs(q) + np.sqrt(np.maximum(D, 0.0))), q)
        B = -p / (3.0 * A)
        t_one = np.where(p < 0, A + B, -q / (A * A + B * B + p / 3.0))
        # D <= 0: t = m cos(theta / 3), cos(theta) = 3 q / (p m), the largest
        # of the three m cos((theta - 2 pi k) / 3)
        m = 2.0 * np.sqrt(np.maximum(-p / 3.0, 0.0))
        theta = np.arccos(np.clip(np.where(m > 0, 3.0 * q / (p * m), 1.0), -1.0, 1.0))
    lam = np.where(D > 0, t_one, m * np.cos(theta / 3.0)) - s
    # the derivative vanishes at a repeated root (omega = +-1 with phi = 0)
    for _ in range(2):
        f = ((lam + c2) * lam + c1) * lam + c0
        df = (3.0 * lam + 2.0 * c2) * lam + c1
        lam = lam - np.divide(f, df, out=np.zeros_like(f), where=df != 0)
    return lam
