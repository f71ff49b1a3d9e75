"""Batched-eigenvalue reference of the second-moment radius grid, for tests
only.

`ref_second_moment_blocks` builds the homogeneous 3x3 second-moment block
of every cell, and `ref_second_moment_radius_grid` takes the largest
eigenvalue modulus from `numpy.linalg.eigvals`, one LAPACK call per cell.
`swarmlab.moments` solves the block's characteristic cubic in closed form on
the whole grid at once; comparing the two checks the closed form against a
general eigensolver.
"""

from __future__ import annotations

import numpy as np

from swarmlab.moments import _a_moments


def ref_second_moment_blocks(omega, phi1, phi2) -> np.ndarray:
    """The 3x3 block of (E[X_t^2], E[X_t X_{t-1}], E[X_{t-1}^2]) of every
    cell, shape (..., 3, 3); the inputs broadcast together."""
    omega, phi1, phi2 = np.broadcast_arrays(
        np.asarray(omega, dtype=np.float64),
        np.asarray(phi1, dtype=np.float64),
        np.asarray(phi2, dtype=np.float64),
    )
    ea, ea2 = _a_moments(omega, phi1, phi2)
    blocks = np.zeros(omega.shape + (3, 3))
    blocks[..., 0, 0] = ea2
    blocks[..., 0, 1] = -2.0 * omega * ea
    blocks[..., 0, 2] = omega * omega
    blocks[..., 1, 0] = ea
    blocks[..., 1, 1] = -omega
    blocks[..., 2, 0] = 1.0
    return blocks


def ref_second_moment_radius_grid(omega, phi1, phi2) -> np.ndarray:
    """Elementwise spectral radius of `ref_second_moment_blocks`."""
    blocks = ref_second_moment_blocks(omega, phi1, phi2)
    ev = np.linalg.eigvals(blocks.reshape(-1, 3, 3))
    return np.abs(ev).max(axis=1).reshape(blocks.shape[:-2])
