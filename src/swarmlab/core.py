"""Shared primitives: parameter validation, objective functions, the
counter-based hash every simulation draws from (a SplitMix64 finaliser over
the draw's coordinates, in the style of Salmon et al., SC'11), and the
cache-sized blocks that the grid oracles and fixed-attractor chains run in.

Everything in this module is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PsoParams",
    "make_params",
    "ObjectiveFn",
    "sphere",
    "sphere_plus",
    "counterexample",
    "monotone_transform",
    "get_objective",
    "RngStream",
    "PURPOSE_R",
    "PURPOSE_S",
    "PURPOSE_NOISE",
    "PURPOSE_INIT_X",
    "PURPOSE_INIT_V",
]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsoParams:
    """Swarm update parameters.

    delta == 0 selects the noise-free update rule; delta > 0 adds an
    independent uniform velocity perturbation on [-delta/2, delta/2].
    alpha is the half-range of the uniform initialisation, epsilon the
    target-ball radius used for hit detection.
    """

    omega: float
    phi1: float
    phi2: float
    delta: float = 0.0
    alpha: float = 1.0
    epsilon: float = 1e-2
    m: int = 1
    n: int = 1

    def __post_init__(self):
        # a NaN passes every ordering check below (nan < 0 is False)
        for name in ("omega", "phi1", "phi2", "delta", "alpha", "epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.phi1 < 0 or self.phi2 < 0:
            raise ValueError(f"phi1, phi2 must be >= 0, got {self.phi1}, {self.phi2}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"swarm size m must be an integer >= 1, got {self.m}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"dimension n must be an integer >= 1, got {self.n}")


def make_params(omega, phi1, phi2, delta, alpha, epsilon, m, n) -> PsoParams:
    """Validate and build a PsoParams tuple; raises ValueError on bad input."""
    return PsoParams(
        omega=float(omega),
        phi1=float(phi1),
        phi2=float(phi2),
        delta=float(delta),
        alpha=float(alpha),
        epsilon=float(epsilon),
        m=int(m),
        n=int(n),
    )


# ---------------------------------------------------------------------------
# objective functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectiveFn:
    """An evaluatable objective with known optimum value.

    batch_evaluate maps an (..., n) array to a (...) array and is the one
    definition of the objective; evaluate is its view on a single length-n
    vector, returning a float.

    Every value is >= optimum_value; +inf is allowed, and no input without a
    NaN gives a NaN.  The hit tests rest on this: a trial's first value
    within epsilon of the optimum value is then below every value before it,
    so it is a strict improvement and shows in the global-best value.
    """

    name: str
    optimum_value: float
    evaluate: Callable[[np.ndarray], float]
    batch_evaluate: Callable[[np.ndarray], np.ndarray]


def _objective(name: str, optimum_value: float, batch_evaluate) -> ObjectiveFn:
    def evaluate(x):
        return float(batch_evaluate(np.asarray(x, dtype=np.float64)))
    return ObjectiveFn(name, optimum_value, evaluate, batch_evaluate)


def _sphere_batch(X: np.ndarray) -> np.ndarray:
    if X.shape[-1] == 1:
        # a one-element sum is its element: the same bits for one call
        x = X[..., 0]
        return x * x
    return np.sum(X * X, axis=-1)


def sphere() -> ObjectiveFn:
    """Squared Euclidean norm; optimum 0 at the origin."""
    return _objective("sphere", 0.0, _sphere_batch)


def _sphere_plus_batch(X: np.ndarray) -> np.ndarray:
    if X.shape[-1] != 1:
        raise ValueError("sphere_plus is one-dimensional")
    v = X[..., 0]
    return np.where(v < 0, np.inf, v * v)


def sphere_plus() -> ObjectiveFn:
    """One-dimensional squared norm on [0, inf); +inf sentinel on negatives.

    The sentinel participates in ordinary `<` comparisons, so a personal best
    stuck at +inf loses against any finite value and nothing else needs to
    special-case the negative region.
    """
    return _objective("sphere_plus", 0.0, _sphere_plus_batch)


def _counterexample_batch(X: np.ndarray) -> np.ndarray:
    if X.shape[-1] != 1:
        raise ValueError("counterexample is one-dimensional")
    v = X[..., 0]
    # exact comparisons: the two special points are placed exactly by the
    # experiment configurations, so no tolerance is wanted here
    return np.where(v == 0.0, 0.0, np.where(v == 1.0, 1.0, 2.0))


def counterexample() -> ObjectiveFn:
    """Three-valued function: 0 at 0, 1 at 1, 2 everywhere else."""
    return _objective("counterexample", 0.0, _counterexample_batch)


def monotone_transform(f: ObjectiveFn, g: Callable) -> ObjectiveFn:
    """Compose a strictly increasing transform with an objective.

    g must accept floats and numpy arrays and map +inf to +inf.  Because the
    swarm update is comparison-based, any such transform leaves every
    best-position decision unchanged.  It keeps the `ObjectiveFn` contract:
    f >= f.optimum_value gives g(f) >= g(f.optimum_value), the new optimum
    value, as long as g does not decrease under rounding either and gives the
    same double for a float as for an array element.
    """
    return _objective(f"g({f.name})", float(g(f.optimum_value)),
                      lambda X: g(f.batch_evaluate(X)))


_OBJECTIVES = {
    "sphere": sphere,
    "sphere_plus": sphere_plus,
    "counterexample": counterexample,
}


def get_objective(name: str) -> ObjectiveFn:
    try:
        return _OBJECTIVES[name]()
    except KeyError:
        raise ValueError(f"unknown objective {name!r}; known: {sorted(_OBJECTIVES)}") from None


# ---------------------------------------------------------------------------
# counter-based random stream
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# purpose tags: per-step attraction draws, velocity noise, initial draws
PURPOSE_R = 1
PURPOSE_S = 2
PURPOSE_NOISE = 3
PURPOSE_INIT_X = 4
PURPOSE_INIT_V = 5

_PURPOSE_SALT = {p: (p * _GOLDEN) & _MASK64 for p in range(1, 6)}


def _mix64_np(h: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser (Steele, Lea & Flood, OOPSLA'14) on a uint64
    array, the one hash of every draw.

    After the first addition it works in place on its own copy, which saves
    an allocation per operation (and page faults on large arrays).  Its
    multiplies wrap modulo 2^64, silently on arrays; numpy warns on overflow
    for a 0-d array or a numpy scalar, so pass at least one dimension."""
    h = h + np.uint64(_GOLDEN)
    h ^= h >> np.uint64(30)
    h *= np.uint64(_MIX_A)
    h ^= h >> np.uint64(27)
    h *= np.uint64(_MIX_B)
    h ^= h >> np.uint64(31)
    return h


@dataclass(frozen=True)
class RngStream:
    """Stateless uniform stream addressed by coordinates.

    Every draw is a pure function of (master_seed, purpose, trial, particle,
    dim, step): identical coordinates always reproduce the identical double,
    and draws that are never evaluated (e.g. velocity noise when delta == 0)
    cannot influence any other draw.  Trials therefore parallelise freely and
    noise-free runs are bit-comparable with noisy ones.  Simulations hash
    blocks with `stream_base` and `step_uniform`; `uniform` is one element.
    """

    master_seed: int
    trial: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)
        if self.trial < 0:
            raise ValueError("trial index must be >= 0")

    def uniform(self, purpose: int, particle: int, dim: int, step: int) -> float:
        """Uniform double in [0, 1) from the top 53 bits of the hash."""
        base = stream_base(self.master_seed, purpose, 1, particle + 1, dim + 1, self.trial)
        return float(step_uniform(base[:, particle:, dim:], step)[0, 0, 0])


def stream_base(master_seed: int, purpose: int, trials: int, m: int, n: int,
                trial_offset: int = 0) -> np.ndarray:
    """Precomputed (trials, m, n) hash states for one purpose tag.

    The seed word (the master seed xor the purpose salt) is hashed, then in
    turn xored with and hashed over the trial, particle and dimension indices;
    `step_uniform(base, t)` adds the step coordinate.
    """
    seed_word = np.array([(int(master_seed) & _MASK64) ^ _PURPOSE_SALT[purpose]],
                         dtype=np.uint64)
    t_idx = (np.arange(trials, dtype=np.uint64) + np.uint64(trial_offset))[:, None, None]
    p_idx = np.arange(m, dtype=np.uint64)[None, :, None]
    d_idx = np.arange(n, dtype=np.uint64)[None, None, :]
    h = _mix64_np(_mix64_np(seed_word) ^ t_idx)
    h = _mix64_np(h ^ p_idx)
    return _mix64_np(h ^ d_idx)


def step_uniform(base: np.ndarray, step) -> np.ndarray:
    """Uniform [0, 1) array for one step index against a precomputed base;
    a uint64 array of steps broadcast against `base` hashes several at once."""
    h = _mix64_np(base ^ np.uint64(step))
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u *= 2.0 ** -53
    return u


# Cells per block of a grid oracle or of the fixed-attractor chains: a block's
# temporaries (256 KiB per double array) stay near a core's cache, where whole
# 400 x 400 grids or 10^5 chains stream every temporary through memory.
BLOCK_CELLS = 2 ** 15


def row_blocks(rows: int, row_cells: int = 1) -> list:
    """Slices that cover rows 0..rows-1 in order, each of the most whole rows
    of `row_cells` cells that fit in `BLOCK_CELLS` (at least one row)."""
    step = max(1, BLOCK_CELLS // max(1, row_cells))
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]
