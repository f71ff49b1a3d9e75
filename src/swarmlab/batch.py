"""Vectorised multi-trial simulation kernels.

`BatchSwarm` is the one place the swarm update is written: trials run in
lockstep on particle-major (m, trials, n) arrays, and a one-trial run
(:mod:`swarmlab.engine`) is a `BatchSwarm` with trials = 1.  Trial k of a
batch draws from counter-based coordinates (master seed, purpose, trial,
particle, dimension, step) hashed by `core.stream_base` and `step_uniform`;
tests check every trial bit for bit against an independent scalar reference
with its own hash and objectives.

Particle-major state keeps each particle's trials in one contiguous row, so
at the wide shape (10^4 trials, m = 2, n = 1) every elementwise pass runs over
10^4 adjacent doubles, not over 2-element particle blocks; the dimension n
stays the innermost axis, so the objective's sum over it keeps numpy's
pairwise order.  Runner results keep their (trials, ...) shapes and are
returned C-contiguous, because reductions over trials follow memory order.

The global best of a trial is its lowest-index particle with the least
personal-best value.  It is chosen by a strict-`<` sweep over the particles
(`_global_best`), which agrees with `argmin` plus a gather bit for bit and
costs m - 1 elementwise passes instead of an index computation.

The first-hitting-time loop, `step_until_hit`, runs under `run_fht_batch`
and `engine.run_until_hit`; draws are addressed by their coordinates, so it
drops trials that hit (`BatchSwarm.keep`) without changing what the rest draw.

The noise-free rule can bring a trial to a fixed point that is exact in
floating point: every velocity zero and every attraction target equal to the
position, so each later step recomputes the same bits.  Every `_FREEZE_EVERY`
steps, `step_until_hit` and `run_two_particle_demo` work out from the current
state which trials the next step leaves with their bits (`_frozen`): the
hitting-time loop drops them as censored, and once every trial left is frozen
it advances `t` to the last sweep within the budget without stepping; the demo
stops once every trial is.  Their outputs, and every sweep an observer sees,
are those of stepping to the end.  The swarm keeps no count it can compute:
`eval_count` is m (t + 1), and a draw block is sized for the batch when it is
hashed.

At narrow shapes (about 100 trials) a step costs its numpy calls, not its
arithmetic, so the calls per step are few without moving a bit: each draw
block is scaled by phi1 and phi2 once; a step in which no personal best
improves leaves every best array as it is, and the hit test is skipped;
`step` keeps its strict-improvement mask as `improved`; and hits are read off
the (trials,) global-best value, which the `ObjectiveFn` contract (no value
below the optimum value) makes the same test as one on every fresh value.

A term whose weight is zero hashes no draws: with phi1 = 0 (the stagnation
construction) the R term's factor is the scalar phi1 itself, a zero with
phi1's sign, which is what phi1 * u is for every draw u in [0, 1).  `step`
still multiplies it in, since 0 * (P - X) is NaN at an infinite position and
a +0.0 term can change the sign of a -0.0 velocity; a scalar times an array
is the same IEEE multiply per element as a block of that scalar would be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ObjectiveFn,
    PsoParams,
    PURPOSE_INIT_V,
    PURPOSE_INIT_X,
    PURPOSE_NOISE,
    PURPOSE_R,
    PURPOSE_S,
    step_uniform,
    stream_base,
)

__all__ = [
    "BatchSwarm",
    "FhtBatchResult",
    "step_until_hit",
    "run_fht_batch",
    "TwoParticleBatchResult",
    "run_two_particle_demo",
    "CounterexampleBatchResult",
    "run_counterexample_batch",
    "run_fixed_attractor_ensemble",
    "ImprovementCounts",
    "run_improvement_counts",
    "PbestGapResult",
    "run_pbest_gap_batch",
]

_MAX_INIT_ATTEMPTS = 10_000
# Draws hashed per call: a narrow swarm hashes several future steps at once (a
# counter-based draw does not depend on when it is hashed), a wide one a step.
_BLOCK_ELEMENTS = 2 ** 14
# Steps between the checks for trials frozen at a fixed point (`_frozen`).
_FREEZE_EVERY = 64


def _global_best(P, fP):
    """(G, fG) of each trial, (trials, n) and (trials,), from personal bests P
    (m, trials, n) and their values fP (m, trials): start at particle 0's row
    and move to row fP[i] only where fP[i] < fG, so ties keep the lowest index,
    as `argmin` does.  fP is never NaN.  With m = 1 the results are views of P
    and fP."""
    G, fG = P[0], fP[0]
    for i in range(1, len(fP)):
        better = fP[i] < fG
        G = np.where(better[:, None], P[i], G)
        fG = np.where(better, fP[i], fG)
    return G, fG


class BatchSwarm:
    """Swarm state for `trials` independent runs advanced synchronously."""

    def __init__(self, params: PsoParams, objective: ObjectiveFn, trials: int,
                 master_seed: int, trial_offset: int = 0, init: str = "random",
                 positions=None, velocities=None, require_nonneg_gbest: bool = False):
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        m, n = params.m, params.n
        self.params = params
        self.objective = objective
        self.trials = trials

        def base(purpose):   # (m, trials, n), contiguous like the state
            return np.ascontiguousarray(
                stream_base(master_seed, purpose, trials, m, n, trial_offset).transpose(1, 0, 2))

        # a stream whose term is zero (phi1, phi2 or delta) is never hashed
        self._base_r, self._base_s, self._base_d = (
            base(purpose) if weight else None
            for purpose, weight in ((PURPOSE_R, params.phi1), (PURPOSE_S, params.phi2),
                                    (PURPOSE_NOISE, params.delta)))
        if init == "random":
            base_x, base_v = base(PURPOSE_INIT_X), base(PURPOSE_INIT_V)
            X = np.empty((m, trials, n))
            V = np.empty((m, trials, n))
            need = np.ones(trials, dtype=bool)
            attempt = 0
            while need.any():
                if attempt >= _MAX_INIT_ATTEMPTS:
                    raise RuntimeError("initialisation rejection did not terminate")
                a = self.params.alpha
                cx = a * (2.0 * step_uniform(base_x, attempt) - 1.0)
                cv = a * (2.0 * step_uniform(base_v, attempt) - 1.0)
                X[:, need] = cx[:, need]
                V[:, need] = cv[:, need]
                if require_nonneg_gbest:
                    need = need & ~(X >= 0).any(axis=(0, 2))
                else:
                    need[:] = False
                attempt += 1
        elif init == "explicit":
            X0 = np.asarray(positions, dtype=np.float64)
            V0 = np.asarray(velocities, dtype=np.float64)
            if X0.ndim == 1:
                X0 = X0[:, None]
            if V0.ndim == 1:
                V0 = V0[:, None]
            if X0.shape not in ((m, n), (trials, m, n)) or V0.shape != X0.shape:
                raise ValueError(f"explicit init must have shape ({m}, {n}) "
                                 f"or ({trials}, {m}, {n})")
            if not (np.isfinite(X0).all() and np.isfinite(V0).all()):
                # a NaN value would break the `ObjectiveFn` contract the bests
                # rest on, and an infinite start turns into NaN on its first step
                raise ValueError("explicit init positions and velocities must be finite")
            X = np.broadcast_to(X0, (trials, m, n)).transpose(1, 0, 2).copy()
            V = np.broadcast_to(V0, (trials, m, n)).transpose(1, 0, 2).copy()
            if require_nonneg_gbest and not (X >= 0).any(axis=(0, 2)).all():
                raise ValueError("require_nonneg_gbest needs a nonnegative position "
                                 "in every trial's explicit start")
        else:
            raise ValueError(f"unknown init mode {init!r}")
        self.X = X
        self.V = V
        self.P = X.copy()
        self.fP = objective.batch_evaluate(X)
        self.G, self.fG = _global_best(self.P, self.fP)
        self.improved = None   # (m, trials) personal-best updates of the last step
        self.t = 0
        self._block_start = self._block_end = 0

    @property
    def eval_count(self) -> int:
        """Evaluations per trial so far: the initial sweep and one per step."""
        return self.params.m * (self.t + 1)

    def keep(self, rows) -> None:
        """Drop every trial but the given batch rows, in the given order.

        The rows keep their stream bases, so each kept trial draws and moves
        exactly as it would have in the full batch.  Particle-major arrays are
        gathered along their trial axis 1 (`np.take` keeps them contiguous,
        where `a[:, rows]` would not), G and fG along axis 0.  A pending draw
        block is cut to the kept rows; a zero weight's scalar and an absent
        noise term have none; a block is sized for the batch when it is hashed.
        """
        rows = np.asarray(rows, dtype=np.intp)
        for name in ("X", "V", "P", "fP", "improved", "_base_r", "_base_s", "_base_d"):
            a = getattr(self, name)
            if a is not None:
                setattr(self, name, np.take(a, rows, axis=1))
        self.G, self.fG = self.G[rows], self.fG[rows]
        if self._block_end > self.t:
            self._block = tuple(np.take(b, rows, axis=2) if np.ndim(b) else b
                                for b in self._block)
        self.trials = len(rows)

    def _draws(self):
        """Scaled attraction factors phi1 * R and phi2 * S, each (m, trials, n),
        and the noise term D (None when delta == 0) of step t, from a
        (steps, m, trials, n) block hashed from the particle-major stream bases
        and scaled in one call each; a block holds `_BLOCK_ELEMENTS` // (trials
        m n) steps of the batch it is hashed for, and at least one.

        A zero weight's factor is the weight itself, a float hashed from no
        draw: every draw u is finite and in [0, 1), so phi * u is a zero with
        phi's sign."""
        if self.t >= self._block_end:
            p = self.params
            self._block_start = self.t
            self._block_end = self.t + max(1, _BLOCK_ELEMENTS // (self.trials * p.m * p.n))
            steps = np.arange(self.t, self._block_end, dtype=np.uint64).reshape(-1, 1, 1, 1)

            def attraction(phi, base):
                return phi if base is None else phi * step_uniform(base, steps)

            D = None
            if self._base_d is not None:
                D = p.delta * (step_uniform(self._base_d, steps) - 0.5)
            self._block = (attraction(p.phi1, self._base_r),
                           attraction(p.phi2, self._base_s), D)
        k = self.t - self._block_start
        R, S, D = self._block
        return (R if self._base_r is None else R[k], S if self._base_s is None else S[k],
                None if D is None else D[k])

    def step(self) -> np.ndarray:
        """Advance every trial one step; returns the fresh (m, trials) values.

        Fresh attraction factors are drawn per (particle, dimension); when
        delta > 0 an independent uniform noise term on [-delta/2, delta/2] is
        added to each velocity component.  Personal bests update on strict
        improvement only; the mask of those updates is kept as `improved`.
        Then the global best is the lowest-index particle with the least
        updated personal-best value, found by a strict-`<` sweep over the
        particles (every particle saw the pre-step best).  When no personal
        best improved, P, fP, G and fG keep their arrays.  The social term is
        S * (G[None] - X): each particle row against the (trials, n) G.
        """
        # R and S come scaled by phi1 and phi2: Python evaluates
        # phi1 * R * (P - X) as (phi1 * R) * (P - X), so no bit moves.
        # G[None], not a bare G: the same bits, and the explicit axis saves
        # numpy's broadcast set-up, about 0.5 us of a one-trial step
        R, S, D = self._draws()
        X = self.X
        V = (self.params.omega * self.V
             + R * (self.P - X)
             + S * (self.G[None] - X))
        if D is not None:
            V += D
        X = X + V
        values = self.objective.batch_evaluate(X)
        improved = values < self.fP
        if np.count_nonzero(improved):   # else every best stays as it is
            self.P = np.where(improved[:, :, None], X, self.P)
            self.fP = np.where(improved, values, self.fP)
            self.G, self.fG = _global_best(self.P, self.fP)
        self.X, self.V, self.improved = X, V, improved
        self.t += 1
        return values


def _frozen(swarm: BatchSwarm) -> np.ndarray:
    """(trials,) mask of the trials whose next step, and so every later one,
    keeps the state's bits; it reads the current state alone.

    Such a trial has no noise term, every velocity exactly zero, each
    attraction term with a zero weight or a target equal to X, no personal
    best improved on the last step, and a next velocity Vn (in `step`'s
    order, each weight in place of its draw block) with V's bits and X + Vn
    with X's.  Vn is `step`'s velocity: a target equal to X makes a signed
    zero difference d, and a factor phi * u, u in [0, 1), is finite with
    phi's sign, so it times d is the zero phi * d; a zero weight's factor is
    the weight.  The next step evaluates X again and improves nothing.  Bits
    are compared as uint64, which tells signed zeros apart; inf - inf is NaN.
    """
    if swarm._base_d is not None:
        return np.zeros(swarm.trials, dtype=bool)
    p, X, V, P, G = swarm.params, swarm.X, swarm.V, swarm.P, swarm.G[None]
    Vn = p.omega * V + p.phi1 * (P - X) + p.phi2 * (G - X)
    same = ((V == 0) & (Vn.view(np.uint64) == V.view(np.uint64))
            & ((X + Vn).view(np.uint64) == X.view(np.uint64)))
    if swarm._base_r is not None:
        same &= P == X
    if swarm._base_s is not None:
        same &= G == X
    return same.all(axis=(0, 2)) & ~swarm.improved.any(axis=0)


@dataclass(frozen=True)
class FhtBatchResult:
    hit_evals: np.ndarray          # (trials,) int64; -1 when censored
    final_gbest_value: np.ndarray  # (trials,)


def step_until_hit(swarm: BatchSwarm, budget: int, *, observe=None) -> FhtBatchResult:
    """Step each trial until one of its values is within epsilon of the
    optimum value (a hit, at the eval_count of that sweep; the initial m
    evaluations are the first) or the next sweep would exceed the budget.

    No value lies below the optimum value (see `ObjectiveFn`), so a hit shows
    in `fG`, tested only when `step` has made a new one.  Trials that hit leave
    the batch (`keep`), except the last, so the swarm ends in its hit state.
    A trial frozen at a fixed point (`_frozen`, read off the state at each t > 0
    divisible by `_FREEZE_EVERY`) never hits: it leaves as censored; once
    every trial left is frozen, the remaining sweeps advance `t` without
    stepping, and the swarm ends as stepping would leave it.  `observe(swarm)`
    runs after each sweep, stepped or not.  A trial's final global-best value
    is the least value it evaluated; on the sphere that is the least squared
    norm of every position it visited.
    """
    m = swarm.params.m
    last = budget // m - 1   # the last t whose sweep fits in the budget
    if last < 0:
        raise ValueError(f"budget {budget} is below one evaluation sweep ({m})")
    opt, eps = swarm.objective.optimum_value, swarm.params.epsilon
    live = np.arange(swarm.trials)   # batch row -> trial id
    hit_evals = np.full(live.size, -1, dtype=np.int64)
    final_g = np.empty(live.size)
    tested = None
    while True:
        leave, idle = None, False
        if swarm.fG is not tested:
            tested = swarm.fG
            hit = tested - opt < eps
            if np.count_nonzero(hit):
                done = live[hit]
                hit_evals[done] = swarm.eval_count
                final_g[done] = tested[hit]
                if done.size == live.size:
                    break
                leave = hit
        if swarm.t and not swarm.t % _FREEZE_EVERY:
            # a frozen trial did not improve on its last step, so it is no hit
            frozen = _frozen(swarm)
            if np.count_nonzero(frozen):
                moving = ~frozen if leave is None else ~(frozen | leave)
                idle = not np.count_nonzero(moving)
                if not idle:   # else the frozen rows stay to the budget
                    final_g[live[frozen]] = swarm.fG[frozen]
                    leave = ~moving
        if leave is not None:
            rows = np.flatnonzero(~leave)
            live = live[rows]
            swarm.keep(rows)
        if idle:   # each later step would leave the state as it is
            if observe is None:
                swarm.t = last
            while swarm.t < last:
                swarm.t += 1
                observe(swarm)
        if swarm.t >= last:
            final_g[live] = swarm.fG
            break
        swarm.step()
        if observe is not None:
            observe(swarm)
    return FhtBatchResult(hit_evals=hit_evals, final_gbest_value=final_g)


def run_fht_batch(params: PsoParams, objective: ObjectiveFn, trials: int, budget: int,
                  master_seed: int, **start) -> FhtBatchResult:
    """First-hitting-time runs: `step_until_hit` on a fresh `BatchSwarm` built
    with the keywords in `start`."""
    swarm = BatchSwarm(params, objective, trials, master_seed, **start)
    return step_until_hit(swarm, budget)


# steps at which the two-particle demo records the inter-particle distance
D_SAMPLE_TIMES = (10, 50, 200)


@dataclass(frozen=True)
class TwoParticleBatchResult:
    entered_ball: np.ndarray        # (trials,) bool
    sum_abs_v: np.ndarray           # (trials, 2) running sum of |V_t| incl. t=0
    d_abs_at: dict                  # t -> (trials,) |D_t|
    valid_at: dict                  # t -> (trials,) sign prerequisites held through t
    min_position: np.ndarray        # (trials,)


def run_two_particle_demo(params: PsoParams, objective: ObjectiveFn, x0, v0,
                          trials: int, steps: int, master_seed: int) -> TwoParticleBatchResult:
    """Two-particle runs from an explicit start, tracking the statistics the
    stagnation bounds speak about: entries into the target ball |x| <=
    params.epsilon, absolute velocity sums, and the inter-particle distance
    at the steps `D_SAMPLE_TIMES` (with the sign prerequisites monitored so
    bound comparisons can condition on them).  Once every trial is frozen
    (`_frozen`, checked as `step_until_hit` checks it), each later step would
    add +0.0 to every |V| sum and repeat every other statistic, so the run
    stops there and the sample times still to come get the current |D| and
    prerequisites.
    """
    if params.m != 2 or params.n != 1:
        raise ValueError("two-particle demo requires m=2, n=1")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    swarm = BatchSwarm(params, objective, trials, master_seed, init="explicit",
                       positions=np.asarray(x0, dtype=np.float64),
                       velocities=np.asarray(v0, dtype=np.float64))
    radius = params.epsilon
    entered = np.zeros(trials, dtype=bool)
    sum_abs_v = np.zeros((2, trials))   # per particle row; returned (trials, 2)
    valid = np.ones(trials, dtype=bool)
    min_pos = np.full(trials, np.inf)
    d_abs_at = {}
    valid_at = {}
    for t in range(steps + 1):
        if t > 0:
            swarm.step()
        # elementwise on each particle's row: a reduction over the length-2
        # particle axis costs several times as much at 10^4 trials
        xa, xb = swarm.X[0, :, 0], swarm.X[1, :, 0]
        va, vb = swarm.V[0, :, 0], swarm.V[1, :, 0]
        # min and max propagate NaN, so each sign test fails on a NaN as the
        # two per-particle tests would
        x_min = np.minimum(xa, xb)
        entered |= (np.abs(xa) <= radius) | (np.abs(xb) <= radius)
        sum_abs_v += np.abs(swarm.V[:, :, 0])
        valid &= (x_min >= 0) & (np.maximum(va, vb) <= 0)
        np.minimum(min_pos, x_min, out=min_pos)
        if t in D_SAMPLE_TIMES:
            d_abs_at[t] = np.abs(xb - xa)
            valid_at[t] = valid.copy()
        if t and not t % _FREEZE_EVERY and _frozen(swarm).all():
            # every later step adds +0.0 to each |V| sum and repeats the rest
            for later in D_SAMPLE_TIMES:
                if t < later <= steps:
                    d_abs_at[later] = np.abs(xb - xa)
                    valid_at[later] = valid.copy()
            break
    return TwoParticleBatchResult(entered_ball=entered,
                                  sum_abs_v=np.ascontiguousarray(sum_abs_v.T),
                                  d_abs_at=d_abs_at, valid_at=valid_at,
                                  min_position=min_pos)


@dataclass(frozen=True)
class CounterexampleBatchResult:
    pbest_updates: np.ndarray     # (trials, m) strict-improvement counts
    particle1_moved: np.ndarray   # (trials,) bool
    gap_sq_final: np.ndarray      # (trials,) final (G - P_2)^2
    window_var: np.ndarray        # (trials,) particle-2 position variance over window


def run_counterexample_batch(params: PsoParams, objective: ObjectiveFn,
                             trials: int, steps: int, window: int,
                             master_seed: int) -> CounterexampleBatchResult:
    """Runs from the frozen-bests configuration: particle 1 at the optimum
    with zero velocity, particle 2 at the second special point.

    Accumulates particle-2 position statistics over the trailing window so the
    long-run variance can be compared with the fixed-attractor oracle without
    storing trajectories.
    """
    if params.m != 2 or params.n != 1:
        raise ValueError("counterexample demo requires m=2, n=1")
    if not 1 <= window <= steps:
        raise ValueError(f"window must be in [1, steps = {steps}], got {window}")
    swarm = BatchSwarm(params, objective, trials, master_seed, init="explicit",
                       positions=np.array([[0.0], [1.0]]),
                       velocities=np.zeros((2, 1)))
    updates = np.zeros((params.m, trials), dtype=np.int64)
    s1 = np.zeros(trials)
    s2 = np.zeros(trials)
    start = steps - window
    for t in range(steps):
        swarm.step()
        if np.count_nonzero(swarm.improved):   # the bool-to-int add costs more
            updates += swarm.improved
        if t >= start:
            x2 = swarm.X[1, :, 0]
            s1 += x2
            s2 += x2 * x2
    mean = s1 / window
    var = s2 / window - mean * mean
    return CounterexampleBatchResult(
        pbest_updates=np.ascontiguousarray(updates.T),
        particle1_moved=(swarm.X[0, :, 0] != 0.0) | (swarm.V[0, :, 0] != 0.0),
        gap_sq_final=(swarm.G[:, 0] - swarm.P[1, :, 0]) ** 2,
        window_var=var,
    )


def _checkpoints(checkpoints, first: int, steps: int) -> set:
    """The checkpoints and the final step, each checked to lie in [first, steps];
    a run of fewer than `first` steps has no final step to report and raises."""
    if steps < first:
        raise ValueError(f"steps must be at least {first}, got {steps}")
    wanted = set(int(t) for t in checkpoints)
    outside = sorted(t for t in wanted if not first <= t <= steps)
    if outside:
        raise ValueError(f"checkpoints must lie in [{first}, {steps}], got {outside}")
    return wanted | {steps}


def _attractor_chain(params: PsoParams, p_best: float, g_best: float, trials: int,
                     master_seed: int, steps: int):
    """Yields (t, X_t, noise) of `trials` fixed-attractor chains, t = 0..steps,
    each X_t a new array: X_0 is the later of two starts within alpha of the
    weighted attractor; noise is the N added to X_t (None at t = 0, delta = 0)."""
    base_r, base_s, base_d, base_x = (
        stream_base(master_seed, purpose, trials, 1, 1)[:, 0, 0]
        for purpose in (PURPOSE_R, PURPOSE_S, PURPOSE_NOISE, PURPOSE_INIT_X))
    w, phi1, phi2 = params.omega, params.phi1, params.phi2
    center = (phi1 * p_best + phi2 * g_best) / (phi1 + phi2) if phi1 + phi2 > 0 else 0.0

    # a step's temporaries are freed when `advance` returns; held across a yield
    # they made the 20 000-chain ensemble fault 10x as often and run 15% longer
    def advance(x_prev, x_cur, t):
        R = step_uniform(base_r, t)
        S = step_uniform(base_s, t)
        x_next = ((1.0 + w - (phi1 * R + phi2 * S)) * x_cur - w * x_prev
                  + phi1 * R * p_best + phi2 * S * g_best)
        if params.delta == 0:
            return x_next, None
        noise = params.delta * (step_uniform(base_d, t) - 0.5)
        return x_next + noise, noise

    x_prev = center + params.alpha * (2.0 * step_uniform(base_x, 0) - 1.0)
    x_cur = center + params.alpha * (2.0 * step_uniform(base_x, 1) - 1.0)
    yield 0, x_cur, None
    for t in range(steps):
        x_next, noise = advance(x_prev, x_cur, t)
        x_prev, x_cur = x_cur, x_next
        yield t + 1, x_cur, noise


def run_fixed_attractor_ensemble(params: PsoParams, p_best: float, g_best: float,
                                 trials: int, steps: int, master_seed: int,
                                 checkpoints=()) -> dict:
    """Directly simulates the fixed-attractor recurrence over independent
    chains; returns {t: positions (trials,)} snapshots at the checkpoints
    (always including the final step).  Negative steps, or a checkpoint
    outside [0, steps], raise ValueError.
    """
    wanted = _checkpoints(checkpoints, 0, steps)
    return {t: x for t, x, _ in _attractor_chain(params, p_best, g_best, trials,
                                                 master_seed, steps) if t in wanted}


@dataclass(frozen=True)
class ImprovementCounts:
    samples: int
    compound_hits: int     # g - delta <= X_t <= g - delta/100 + eps_prime
    y_tail_hits: int       # |Y_t - g| >= 0.4899 delta + eps_prime
    final_positions: np.ndarray


def run_improvement_counts(params: PsoParams, g_value: float, trials: int,
                           burn_in: int, keep_steps: int, master_seed: int) -> ImprovementCounts:
    """Event counting for the improvement-probability analysis on the
    fixed-attractor recurrence with both bests at g_value (noisy rule), with
    eps' = delta/1000, well inside the admissible eps' <= (1 - 0.4899) delta.
    """
    if params.delta <= 0:
        raise ValueError("improvement counting requires delta > 0")
    d = params.delta
    eps_prime = d / 1000.0
    lo = g_value - d
    hi = g_value - d / 100.0 + eps_prime
    y_thresh = 0.4899 * d + eps_prime
    compound = y_tail = 0
    for t, x, noise in _attractor_chain(params, g_value, g_value, trials, master_seed,
                                        burn_in + keep_steps):
        if t > burn_in:   # Y_t = X_t - N_t
            compound += int(((x >= lo) & (x <= hi)).sum())
            y_tail += int((np.abs((x - noise) - g_value) >= y_thresh).sum())
    return ImprovementCounts(samples=trials * keep_steps, compound_hits=compound,
                             y_tail_hits=y_tail, final_positions=x)


@dataclass(frozen=True)
class PbestGapResult:
    initial_gap_sq: np.ndarray   # (trials,) max_i (G_0 - P_0^i)^2
    gap_sq_at: dict              # t -> (trials,) max_i (G_t - P_t^i)^2


def run_pbest_gap_batch(params: PsoParams, objective: ObjectiveFn, trials: int,
                        steps: int, master_seed: int, checkpoints=()) -> PbestGapResult:
    """Tracks max_i (G_t - P_t^(i))^2 under all-nonnegative position
    initialisation (positions uniform on [0, alpha], velocities on
    [-alpha, alpha]).  Steps below 1, or a checkpoint outside [1, steps],
    raise ValueError.
    """
    wanted = _checkpoints(checkpoints, 1, steps)
    m, n = params.m, params.n
    if n != 1:
        raise ValueError("gap tracking is one-dimensional")
    base_x = stream_base(master_seed, PURPOSE_INIT_X, trials, m, n)
    base_v = stream_base(master_seed, PURPOSE_INIT_V, trials, m, n)
    X0 = params.alpha * step_uniform(base_x, 0)
    V0 = params.alpha * (2.0 * step_uniform(base_v, 0) - 1.0)
    swarm = BatchSwarm(params, objective, trials, master_seed, init="explicit",
                       positions=X0, velocities=V0)

    def gap():
        return ((swarm.G[None, :, 0] - swarm.P[:, :, 0]) ** 2).max(axis=0)

    initial = gap()
    out = {}
    for _ in range(steps):
        swarm.step()
        if swarm.t in wanted:
            out[swarm.t] = gap()
    return PbestGapResult(initial_gap_sq=initial, gap_sq_at=out)
