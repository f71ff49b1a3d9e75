"""Monte Carlo harness tying the closed forms to simulation: first-hitting
time estimation with censoring, the stagnation demos, the frozen-bests
counterexample, stationary-moment checks, and the improvement-probability
constants.

Every experiment is exactly reproducible from its arguments and master seed;
trials are independent units of work and aggregation order is fixed, so
thread counts never change results.  `estimate_fht` takes the arguments of
`batch.run_fht_batch`, and its start keywords go to `batch.BatchSwarm`
unchanged, so the kernel checks them once for every caller.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import batch, moments, stagnation
from .core import ObjectiveFn, PsoParams, get_objective

__all__ = [
    "FhtEstimate",
    "estimate_fht",
    "wilson_interval",
    "StagnationDemoReport",
    "stagnation_demo_two_particles",
    "CounterexampleReport",
    "counterexample_demo",
    "StationaryMomentReport",
    "stationary_moment_check",
    "ImprovementProbabilityReport",
    "improvement_probability_check",
    "PbestNullSequenceReport",
    "pbest_null_sequence_check",
]

_WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, n: int):
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    z = _WILSON_Z
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # the interval always contains the point estimate; guard against rounding
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


def _mean_and_se(samples: np.ndarray):
    """Sample mean and standard error over axis 0.  The se of one sample is
    inf, as it has no spread to estimate from; with no sample the mean is nan
    and the se inf, and numpy is not asked for an empty mean."""
    n = len(samples)
    if n < 2:
        mean = samples.mean(axis=0) if n else np.full(samples.shape[1:], np.nan)
        return mean, np.full(samples.shape[1:], np.inf)
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / np.sqrt(n)


@dataclass(frozen=True)
class FhtEstimate:
    """Aggregated hit-or-censored outcomes of an FHT experiment."""

    trials: int
    budget: int
    hits: int
    censored: int
    mean_over_hits: float | None
    median_over_hits: float | None
    survival_curve: list            # [(evals, fraction_not_hit)], non-increasing
    wilson_low: float
    wilson_high: float
    hit_evals: np.ndarray           # (trials,) int64, -1 for censored
    final_gbest_values: np.ndarray  # (trials,)

    def lines(self):
        out = [
            f"trials = {self.trials}",
            f"budget = {self.budget}",
            f"hits = {self.hits}",
            f"censored = {self.censored}",
            f"hit_probability_wilson95 = [{self.wilson_low:.6f}, {self.wilson_high:.6f}]",
        ]
        if self.hits:
            out.append(f"mean_evals_over_hits = {self.mean_over_hits:.6g}")
            out.append(f"median_evals_over_hits = {self.median_over_hits:.6g}")
        else:
            out.append("mean_evals_over_hits = n/a (no hits)")
        return out


def estimate_fht(params: PsoParams, objective: ObjectiveFn, trials: int, budget: int,
                 master_seed: int, *, threads: int = 1, **start) -> FhtEstimate:
    """Run `trials` independent trials with split random streams.

    The arguments are those of `batch.run_fht_batch`; `start` holds the
    `BatchSwarm` start keywords (`init`, `positions`, `velocities`,
    `require_nonneg_gbest`).  Censored trials are excluded from the hit-time
    statistics and reported separately; no imputation.  `threads` is clamped
    to [1, min(trials, CPU count)]; with more than one, the trial range is
    split into contiguous blocks whose results are concatenated in block
    order, so the outcome is identical for any thread count.
    """
    def run_block(offset, count):
        return batch.run_fht_batch(params, objective, count, budget, master_seed,
                                   trial_offset=offset, **start)

    threads = max(1, min(threads, trials, os.cpu_count() or 1))
    if threads == 1:
        results = [run_block(0, trials)]
    else:
        # imported here: a single-threaded process never loads the pool module
        from concurrent.futures import ThreadPoolExecutor

        bounds = np.linspace(0, trials, threads + 1).astype(int)
        blocks = [(int(a), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda ab: run_block(*ab), blocks))
    hit_evals = np.concatenate([r.hit_evals for r in results])
    final_g = np.concatenate([r.final_gbest_value for r in results])

    hit_mask = hit_evals >= 0
    hits = int(hit_mask.sum())
    times = hit_evals[hit_mask]
    sorted_times = np.sort(times)
    points = np.unique(sorted_times).tolist() + [budget]
    hit_by = np.searchsorted(sorted_times, points, side="right").tolist()
    curve = [(e, (trials - k) / trials) for e, k in zip(points, hit_by)]
    lo, hi = wilson_interval(hits, trials)
    return FhtEstimate(
        trials=trials,
        budget=budget,
        hits=hits,
        censored=trials - hits,
        mean_over_hits=float(times.mean()) if hits else None,
        median_over_hits=float(np.median(times)) if hits else None,
        survival_curve=curve,
        wilson_low=lo,
        wilson_high=hi,
        hit_evals=hit_evals,
        final_gbest_values=final_g,
    )


# ---------------------------------------------------------------------------
# two-particle stagnation demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StagnationDemoReport:
    trials: int
    steps: int
    ball_radius: float
    n_entered_ball: int
    mean_sum_abs_v: np.ndarray    # (2,) per particle
    se_sum_abs_v: np.ndarray      # (2,)
    velocity_sum_bound: float
    d_rows: list                  # (t, retained, mean |D_t|, se, bound)
    verdict: stagnation.StagnationVerdict
    min_position: float

    def lines(self):
        out = [
            f"trials = {self.trials}",
            f"steps = {self.steps}",
            f"entered_ball_radius_{self.ball_radius:g} = {self.n_entered_ball}",
            f"min_position_seen = {self.min_position:.6g}",
        ]
        for i in range(2):
            out.append(f"mean_sum_abs_v_particle{i + 1} = {self.mean_sum_abs_v[i]:.6g} "
                       f"(se {self.se_sum_abs_v[i]:.2g}, bound {self.velocity_sum_bound:.6g})")
        for t, kept, mean_d, se_d, bound in self.d_rows:
            out.append(f"mean_abs_d_t{t} = {mean_d:.6g} (se {se_d:.2g}, bound {bound:.6g}, "
                       f"retained {kept}/{self.trials})")
        out.append(f"kappa = {self.verdict.kappa:.9g}")
        out.append(f"lambda = {self.verdict.lam:.9g}")
        out.append(f"position_threshold_printed = {self.verdict.position_threshold:.6g}")
        for name, ok in self.verdict.conditions_met.items():
            out.append(f"condition_{name} = {int(ok)}")
        out.append(f"all_conditions_met_printed = {int(self.verdict.all_met)}")
        out.append("note = printed position threshold rejects the canonical 184/185 start "
                   "although the swarm stagnates empirically; both readings reported")
        return out


def stagnation_demo_two_particles(params: PsoParams, init: stagnation.TwoParticleInit,
                                  trials: int, steps: int,
                                  master_seed: int) -> StagnationDemoReport:
    """Monte Carlo check of the two-particle stagnation bounds.

    Runs the swarm from the explicit two-particle start; the cognitive pull
    vanishes identically while each particle improves monotonically, so the
    analysed social-only dynamics are exact (the demo is conventionally run
    with phi1 = 0 to make this explicit).  Distance-bound comparisons retain
    only trials whose sign prerequisites held through the sample time.  The
    ball a trial may enter is the target ball, of radius params.epsilon.

    The velocity-sum bound is evaluated before the simulation, so parameters
    that break its conditions (0 < omega < 1, phi2 > 0, kappa < 1) raise
    ValueError before any step is taken.
    """
    velocity_bound = stagnation.velocity_sum_bound(params, init)
    verdict = stagnation.check_two_particle_stagnation(params, init)
    f = get_objective("sphere")
    res = batch.run_two_particle_demo(
        params, f, [init.x1, init.x2], [init.v1, init.v2],
        trials, steps, master_seed)
    rows = []
    for t in sorted(res.d_abs_at):
        keep = res.valid_at[t]
        mean_d, se_d = _mean_and_se(res.d_abs_at[t][keep])
        bound = stagnation.d_abs_expectation_bound(t, init, verdict.kappa)
        rows.append((t, int(keep.sum()), float(mean_d), float(se_d), bound))
    mean_v, se_v = _mean_and_se(res.sum_abs_v)
    return StagnationDemoReport(
        trials=trials,
        steps=steps,
        ball_radius=params.epsilon,
        n_entered_ball=int(res.entered_ball.sum()),
        mean_sum_abs_v=mean_v,
        se_sum_abs_v=se_v,
        velocity_sum_bound=velocity_bound,
        d_rows=rows,
        verdict=verdict,
        min_position=float(res.min_position.min()),
    )


# ---------------------------------------------------------------------------
# frozen-bests counterexample demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleReport:
    trials: int
    steps: int
    window: int
    pbest2_updates_total: int
    particle1_ever_moved: bool
    gap_sq_always_one: bool
    empirical_var_mean: float
    empirical_var_se: float
    oracle_var: float
    closed_form_var: float

    def lines(self):
        return [
            f"trials = {self.trials}",
            f"steps = {self.steps}",
            f"pbest_updates_particle2_total = {self.pbest2_updates_total}",
            f"particle1_ever_moved = {int(self.particle1_ever_moved)}",
            f"final_gap_squared_equals_one = {int(self.gap_sq_always_one)}",
            f"empirical_position_variance = {self.empirical_var_mean:.6g} "
            f"(se {self.empirical_var_se:.2g}, window last {self.window} steps)",
            f"oracle_fixed_point_variance = {self.oracle_var:.6g}",
            f"closed_form_variance = {self.closed_form_var:.6g}",
            "note = a nonzero variance floor proportional to the bests' squared gap "
            "contradicts unconditional mean-square convergence to the global best",
        ]


def counterexample_demo(params: PsoParams, trials: int, steps: int, window: int,
                        master_seed: int) -> CounterexampleReport:
    """Runs the three-valued objective from the frozen configuration: the
    leader sits at the optimum with zero velocity; the follower's personal
    best can almost surely never improve, so its position follows the
    fixed-attractor recurrence with bests (1, 0) exactly and its long-run
    variance matches the oracle fixed point instead of shrinking to zero.
    Parameters outside the mean-square region raise ValueError before any step.
    """
    closed_form_var = moments.variance_limit(params, 1.0, 0.0)
    oracle_var = moments.stationary_variance(params, 1.0, 0.0)
    f = get_objective("counterexample")
    res = batch.run_counterexample_batch(params, f, trials, steps, window, master_seed)
    var_mean, var_se = _mean_and_se(res.window_var)
    return CounterexampleReport(
        trials=trials,
        steps=steps,
        window=window,
        pbest2_updates_total=int(res.pbest_updates[:, 1].sum()),
        particle1_ever_moved=bool(res.particle1_moved.any()),
        gap_sq_always_one=bool(np.all(res.gap_sq_final == 1.0)),
        empirical_var_mean=float(var_mean),
        empirical_var_se=float(var_se),
        oracle_var=oracle_var,
        closed_form_var=closed_form_var,
    )


# ---------------------------------------------------------------------------
# stationary moments of the fixed-attractor recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryMomentReport:
    empirical_mean: float
    se_mean: float
    empirical_var: float
    mid_window_var: float
    closed_form_var: float
    oracle_var: float


def stationary_moment_check(params: PsoParams, p_best: float, g_best: float,
                            trials: int, burn_in: int, horizon: int,
                            master_seed: int) -> StationaryMomentReport:
    """Ensemble mean (with its se) and variance of the fixed-attractor
    recurrence at the horizon versus the closed-form variance limit and the
    exact oracle fixed point.  The mid-window variance shows whether the
    burn-in sufficed.  The sample variances need trials >= 2 and the limits a
    mean-square stable point; both are checked before any chain is run.
    """
    if trials < 2:
        raise ValueError(f"stationary moment check needs trials >= 2, got {trials}")
    closed_form_var = moments.variance_limit(params, p_best, g_best)
    oracle_var = moments.stationary_variance(params, p_best, g_best)
    total = burn_in + horizon
    mid = burn_in + horizon // 2
    snaps = batch.run_fixed_attractor_ensemble(
        params, p_best, g_best, trials, total, master_seed, checkpoints=(mid,))
    x_end = snaps[total]
    mean, se = _mean_and_se(x_end)
    return StationaryMomentReport(
        empirical_mean=float(mean),
        se_mean=float(se),
        empirical_var=float(x_end.var(ddof=1)),
        mid_window_var=float(snaps[mid].var(ddof=1)),
        closed_form_var=closed_form_var,
        oracle_var=oracle_var,
    )


# ---------------------------------------------------------------------------
# improvement-probability constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImprovementProbabilityReport:
    samples: int
    analytic_noise_tail: float    # Pr(noise < -0.4999 delta), exact interval measure
    y_tail_freq: float            # empirical Pr(|Y - G| >= 0.4899 delta + eps')
    y_tail_bound: float           # 25/36
    compound_freq: float          # empirical Pr(G - delta <= X <= G - delta/100 + eps')
    compound_threshold: float     # 3e-5
    sigma_y_sq: float
    sigma_y_sq_bound: float       # delta^2 / 6


def noise_tail_probability() -> float:
    """Exact measure of {noise < -0.4999 delta} under the uniform noise law
    on [-delta/2, delta/2]; independent of delta."""
    return max(0.0, 0.5 - 0.4999)


def improvement_probability_check(params: PsoParams, trials: int, master_seed: int,
                                  target_samples: int = 10_000_000) -> ImprovementProbabilityReport:
    """Empirical verification of the improvement-event constants on the
    fixed-attractor recurrence with both bests at G = 1, counted after a
    burn-in of 2000 steps, with eps' = delta/1000 as
    `batch.run_improvement_counts` sets it; that kernel rejects delta <= 0.
    """
    f1 = float(moments.f_one(params.omega, params.phi1, params.phi2))
    if f1 <= 1.0 / 3.0:
        raise ValueError(f"improvement analysis requires f(1) > 1/3, got {f1}")
    keep = max(1, int(np.ceil(target_samples / trials)))
    counts = batch.run_improvement_counts(params, 1.0, trials, 2000, keep, master_seed)
    return ImprovementProbabilityReport(
        samples=counts.samples,
        analytic_noise_tail=noise_tail_probability(),
        y_tail_freq=counts.y_tail_hits / counts.samples,
        y_tail_bound=25.0 / 36.0,
        compound_freq=counts.compound_hits / counts.samples,
        compound_threshold=3.0 / 100000.0,
        sigma_y_sq=float(moments.sigma_y_squared(params.omega, params.phi1,
                                                 params.phi2, params.delta)),
        sigma_y_sq_bound=params.delta ** 2 / 6.0,
    )


# ---------------------------------------------------------------------------
# personal-best gap decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PbestNullSequenceReport:
    median_initial_gap_sq: float
    median_ratio_at: dict      # t -> median gap_sq(t) / gap_sq(0)


def pbest_null_sequence_check(params: PsoParams, trials: int, horizon: int,
                              master_seed: int, checkpoints=()) -> PbestNullSequenceReport:
    """Decay of max_i (G_t - P_t^(i))^2 on the nonnegative-axis objective with
    all-positive position initialisation.

    No convergence rate is available analytically, so this is a trend check:
    the report carries only the median initial gap and the median gap ratios
    at the checkpoints and the horizon.
    """
    f = get_objective("sphere_plus")
    res = batch.run_pbest_gap_batch(params, f, trials, horizon, master_seed, checkpoints)
    floor = np.maximum(res.initial_gap_sq, 1e-300)
    ratios = {t: float(np.median(g / floor)) for t, g in res.gap_sq_at.items()}
    return PbestNullSequenceReport(
        median_initial_gap_sq=float(np.median(res.initial_gap_sq)),
        median_ratio_at=ratios,
    )
