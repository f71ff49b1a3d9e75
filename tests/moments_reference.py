"""References of the second-moment radius, for tests only.

`ref_second_moment_blocks` builds the homogeneous 3x3 second-moment block
of every cell from E[a] and E[a^2], derived here from their definitions, and
`second_moment_radius` (the benchmark reference's) takes the largest
eigenvalue modulus from `numpy.linalg.eigvals`, one LAPACK call per cell.
`swarmlab.moments` solves the block's characteristic cubic in closed form on
the whole grid at once; comparing the two checks the closed form against a
general eigensolver.  Nothing here imports swarmlab.

Near the triple root at omega = 1, phi -> 0, `eigvals` itself is off by a few
parts in 1e9, so `assert_largest_real_root_near` checks a radius against the
block's characteristic polynomial in exact rational arithmetic instead.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from benchmark_modules import reference

second_moment_radius = reference.second_moment_radius


def a_moments(omega, phi1, phi2):
    """E[a] and E[a^2] of a = 1 + omega - (phi1 R + phi2 S), R and S
    independent U[0, 1], from E[R] = E[S] = 1/2, E[R^2] = E[S^2] = 1/3 and
    E[RS] = 1/4; on floats, arrays or Fractions."""
    c = 1 + omega
    ea = c - (phi1 + phi2) / 2
    ea2 = (c * c - 2 * c * (phi1 + phi2) / 2
           + phi1 * phi1 / 3 + 2 * phi1 * phi2 / 4 + phi2 * phi2 / 3)
    return ea, ea2


def ref_second_moment_blocks(omega, phi1, phi2) -> np.ndarray:
    """The 3x3 block of (E[X_t^2], E[X_t X_{t-1}], E[X_{t-1}^2]) of every
    cell, shape (..., 3, 3); the inputs broadcast together."""
    omega, phi1, phi2 = np.broadcast_arrays(
        np.asarray(omega, dtype=np.float64),
        np.asarray(phi1, dtype=np.float64),
        np.asarray(phi2, dtype=np.float64),
    )
    ea, ea2 = a_moments(omega, phi1, phi2)
    blocks = np.zeros(omega.shape + (3, 3))
    blocks[..., 0, 0] = ea2
    blocks[..., 0, 1] = -2.0 * omega * ea
    blocks[..., 0, 2] = omega * omega
    blocks[..., 1, 0] = ea
    blocks[..., 1, 1] = -omega
    blocks[..., 2, 0] = 1.0
    return blocks


def _exact_block(omega, phi1, phi2):
    """The block of `ref_second_moment_blocks` at one cell, every entry the
    exact rational value at the float inputs."""
    w = Fraction(omega)
    ea, ea2 = a_moments(w, Fraction(phi1), Fraction(phi2))
    return [[ea2, -2 * w * ea, w * w], [ea, -w, 0], [1, 0, 0]]


def assert_largest_real_root_near(omega, phi1, phi2, radius, rel=1e-9):
    """Assert that the largest real root of p(mu) = det(mu I - A), A the
    exact block at (omega, phi1, phi2), lies in [lo, hi] = radius (1 -+ rel).

    p is a monic cubic, so p(lo) <= 0 <= p(hi) puts a root in [lo, hi], and
    p'(hi) > 0 with p''(hi) > 0 makes p increasing and convex beyond hi, so no
    root lies above it."""
    A = _exact_block(omega, phi1, phi2)
    trace = A[0][0] + A[1][1] + A[2][2]
    minors = (A[0][0] * A[1][1] - A[0][1] * A[1][0]
              + A[0][0] * A[2][2] - A[0][2] * A[2][0]
              + A[1][1] * A[2][2] - A[1][2] * A[2][1])
    det = (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
           - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
           + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))

    def p(mu):
        return ((mu - trace) * mu + minors) * mu - det

    radius, rel = Fraction(float(radius)), Fraction(rel)
    lo, hi = radius * (1 - rel), radius * (1 + rel)
    assert p(lo) <= 0 <= p(hi), f"no root of the block's cubic in [{float(lo)!r}, {float(hi)!r}]"
    assert 3 * hi * hi - 2 * trace * hi + minors > 0, "p'(hi) <= 0: a root may lie above hi"
    assert 6 * hi - 2 * trace > 0, "p''(hi) <= 0: a root may lie above hi"
