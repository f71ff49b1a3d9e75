import concurrent.futures
import os

import numpy as np
import pytest

from swarmlab import experiments, moments, regions
from swarmlab.cli import PRESETS
from swarmlab.core import get_objective, make_params
from swarmlab.experiments import estimate_fht, wilson_interval
from swarmlab.regions import in_noisy_fht_region
from swarmlab.stagnation import TwoParticleInit


def _noisy_params(**kw):
    base = dict(omega=0.4, phi1=1.5, phi2=1.5, delta=0.01, alpha=1.0,
                epsilon=0.01, m=3, n=1)
    base.update(kw)
    return make_params(**base)


class TestExperimentConfig:
    def test_validation(self):
        p, f = _noisy_params(), get_objective("sphere")
        with pytest.raises(ValueError):
            estimate_fht(p, f, 0, 100, 1)
        with pytest.raises(ValueError):
            estimate_fht(p, f, 1, 1, 1)
        with pytest.raises(ValueError):
            estimate_fht(p, f, 1, 100, 1, init="explicit")


class TestWilson:
    def test_contains_point_estimate(self):
        for k, n in [(0, 10), (3, 10), (10, 10), (97, 100)]:
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0


class TestEstimateFht:
    def test_initial_inside_ball_hits_with_m_evals(self):
        p = _noisy_params(m=2, epsilon=0.5)
        est = estimate_fht(p, get_objective("sphere"), 10, 1000, 4, init="explicit",
                           positions=(0.1, 3.0), velocities=(0.0, 0.0))
        assert est.hits == 10 and est.censored == 0
        assert np.all(est.hit_evals == 2)
        assert est.mean_over_hits == 2.0 and est.median_over_hits == 2.0

    def test_prop1_configuration_censors(self):
        p = make_params(0.5, 1.5, 1.5, 0, 1, 0.5, 1, 1)
        est = estimate_fht(p, get_objective("sphere"), 20, 5000, 4,
                           init="explicit", positions=(0.9,), velocities=(-0.05,))
        assert est.hits == 0 and est.censored == 20
        assert est.mean_over_hits is None

    def test_noisy_positive_axis_hits(self):
        est = estimate_fht(_noisy_params(), get_objective("sphere_plus"), 25, 100_000, 11,
                           require_nonneg_gbest=True)
        assert est.hits == 25
        assert est.wilson_low > 0.8

    def test_survival_curve_non_increasing_and_anchored(self):
        est = estimate_fht(_noisy_params(), get_objective("sphere_plus"), 30, 30_000, 5,
                           require_nonneg_gbest=True)
        fracs = [f for _, f in est.survival_curve]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        assert est.survival_curve[-1][0] == 30_000

    def test_threads_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)   # three blocks on any host
        args = (_noisy_params(), get_objective("sphere_plus"), 16, 20_000, 8)
        a = estimate_fht(*args, threads=1, require_nonneg_gbest=True)
        b = estimate_fht(*args, threads=3, require_nonneg_gbest=True)
        assert np.array_equal(a.hit_evals, b.hit_evals)
        assert np.array_equal(a.final_gbest_values, b.final_gbest_values)

    def test_threads_clamped_to_the_cpu_count(self, monkeypatch):
        # a serial stand-in for the pool records the worker count asked for,
        # so no thread is started
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        args = (_noisy_params(), get_objective("sphere_plus"), 16, 20_000, 8)
        one = estimate_fht(*args, threads=1, require_nonneg_gbest=True)
        many = estimate_fht(*args, threads=10**6, require_nonneg_gbest=True)
        assert asked == [3]
        none = estimate_fht(*args, threads=0, require_nonneg_gbest=True)
        assert asked == [3]
        for est in (many, none):
            assert np.array_equal(est.hit_evals, one.hit_evals)

    def test_censored_fraction_non_increasing_in_budget(self):
        p = _noisy_params(delta=0.005, epsilon=0.002)
        censored = []
        for budget in (300, 3000, 30_000):
            est = estimate_fht(p, get_objective("sphere_plus"), 40, budget, 13,
                               require_nonneg_gbest=True)
            censored.append(est.censored)
        assert censored[0] >= censored[1] >= censored[2]


class TestNoisyRuleLeavesStagnation:
    # the paper's contrast: from the starts where the basic rule stagnates
    # (delta = 0: criteria 3 and 4 of tests/test_acceptance.py, not run again
    # here), the noisy rule with delta <= epsilon hits in every trial.  Seeds
    # and budgets were fixed before the runs; each budget is at least 10x the
    # largest hit time measured (3920 and 101 evals)
    @pytest.mark.parametrize("preset, delta, seed, trials, budget", [
        ("thm2-example", 0.5, 404, 200, 40_000),
        ("prop1-bad-init", 0.01, 302, 100, 2_000),
    ])
    def test_every_trial_hits(self, preset, delta, seed, trials, budget):
        c = PRESETS[preset]
        p = make_params(c["omega"], c["phi1"], c["phi2"], delta, c["alpha"], c["epsilon"],
                        c["m"], c["n"])
        assert in_noisy_fht_region(p.omega, p.phi1, p.phi2) and p.delta <= p.epsilon
        est = estimate_fht(p, get_objective(c["objective"]), trials, budget, seed,
                           init="explicit", positions=c["positions"],
                           velocities=c["velocities"])
        assert est.hits == trials and est.censored == 0


class TestStagnationDemo:
    def test_quick_run_respects_bounds(self):
        params = make_params(0.07, 0.0, 1.5, 0, 200, 0.5, 2, 1)
        init = TwoParticleInit(184.0, 185.0, -1.0, -1.0)
        rep = experiments.stagnation_demo_two_particles(
            params, init, trials=200, steps=2000, master_seed=6)
        assert rep.n_entered_ball == 0
        assert rep.min_position > 100.0
        for i in range(2):
            assert rep.mean_sum_abs_v[i] + 3 * rep.se_sum_abs_v[i] < rep.velocity_sum_bound
        for t, kept, mean_d, se_d, bound in rep.d_rows:
            assert kept == 200  # sign prerequisites hold throughout here
            assert mean_d <= bound + 3 * se_d
        assert not rep.verdict.all_met  # printed threshold rejects 184/185

    def test_cognitive_term_vanishes_identically(self):
        # while both particles improve monotonically their own best equals
        # their position, so any phi1 gives the same trajectories as phi1 = 0
        init = TwoParticleInit(184.0, 185.0, -1.0, -1.0)
        reps = []
        for phi1 in (0.0, 1.5):
            params = make_params(0.07, phi1, 1.5, 0, 200, 0.5, 2, 1)
            reps.append(experiments.stagnation_demo_two_particles(
                params, init, trials=50, steps=500, master_seed=9))
        assert np.array_equal(reps[0].mean_sum_abs_v, reps[1].mean_sum_abs_v)
        assert reps[0].d_rows == reps[1].d_rows
        assert reps[0].min_position == reps[1].min_position


# f(1) = -2.61 and -0.33: outside the mean-square region, where the chains
# overflow and the moment fixed point's "variance" is negative
UNSTABLE = [(0.9, 3.0), (0.5, 2.2)]


class TestCounterexampleDemo:
    @pytest.mark.parametrize("omega, phi", UNSTABLE)
    def test_unstable_point_rejected_before_running(self, monkeypatch, omega, phi):
        calls = []
        monkeypatch.setattr(experiments.batch, "run_counterexample_batch",
                            lambda *args, **kwargs: calls.append(args))
        params = make_params(omega, phi, phi, 0.0, 1.0, 1e-2, 2, 1)
        with pytest.raises(ValueError, match="not mean-square stable"):
            experiments.counterexample_demo(params, trials=10, steps=2000, window=100,
                                            master_seed=1)
        assert calls == []

    def test_quick_run(self):
        params = make_params(0.4, 1.5, 1.5, 0.0, 1.0, 1e-2, 2, 1)
        rep = experiments.counterexample_demo(params, trials=20, steps=30_000,
                                              window=10_000, master_seed=2)
        assert rep.pbest2_updates_total == 0
        assert not rep.particle1_ever_moved
        assert rep.gap_sq_always_one
        assert rep.oracle_var == pytest.approx(rep.closed_form_var, rel=1e-9)
        assert rep.empirical_var_mean == pytest.approx(rep.oracle_var, rel=0.10)


class TestStationaryMomentCheck:
    def test_noise_floor_case(self):
        p = _noisy_params(delta=0.1, m=1)
        rep = experiments.stationary_moment_check(p, 0.0, 0.0, trials=20_000,
                                                  burn_in=2000, horizon=1000,
                                                  master_seed=3)
        assert abs(rep.empirical_mean) < 4 * rep.se_mean
        assert rep.empirical_var == pytest.approx(rep.oracle_var, rel=0.05)
        assert rep.oracle_var == pytest.approx(rep.closed_form_var, rel=1e-9)
        # burn-in sanity: both windows see the stationary value
        assert rep.mid_window_var == pytest.approx(rep.empirical_var, rel=0.1)

    def test_degenerate_attractor_collapses(self):
        p = make_params(0.4, 1.5, 1.5, 0, 1, 0.01, 1, 1)
        rep = experiments.stationary_moment_check(p, 2.0, 2.0, trials=2000,
                                                  burn_in=2000, horizon=500,
                                                  master_seed=3)
        assert rep.empirical_mean == pytest.approx(2.0, abs=1e-6)
        assert rep.empirical_var < 1e-12
        assert rep.closed_form_var == 0.0

    def test_gap_case_matches_oracle(self):
        p = make_params(0.4, 1.5, 1.5, 0, 1, 0.01, 1, 1)
        rep = experiments.stationary_moment_check(p, 0.0, 1.0, trials=40_000,
                                                  burn_in=2000, horizon=1000,
                                                  master_seed=14)
        assert rep.empirical_mean == pytest.approx(0.5, abs=4 * rep.se_mean)
        assert rep.empirical_var == pytest.approx(rep.oracle_var, rel=0.05)

    def test_fewer_than_two_trials_rejected_before_running(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the chains ran")
        monkeypatch.setattr(experiments.batch, "run_fixed_attractor_ensemble", no_run)
        p = make_params(0.4, 1.5, 1.5, 0, 1, 0.01, 1, 1)
        for trials in (1, 0):
            with pytest.raises(ValueError, match="trials >= 2"):
                experiments.stationary_moment_check(p, 0.0, 1.0, trials=trials,
                                                    burn_in=10, horizon=10, master_seed=1)

    # at burn_in -5 the "mid-window" snapshot was the t = 0 start's, and a
    # negative horizon surfaced as a checkpoint range that named neither
    @pytest.mark.parametrize("burn_in, horizon", [(-5, 10), (10, -5), (-1, -1)])
    def test_negative_window_rejected_before_running(self, monkeypatch, burn_in, horizon):
        calls = []
        monkeypatch.setattr(experiments.batch, "run_fixed_attractor_ensemble",
                            lambda *args, **kwargs: calls.append(args))
        p = make_params(0.4, 1.5, 1.5, 0, 1, 0.01, 1, 1)
        with pytest.raises(ValueError, match="burn_in and horizon must be >= 0"):
            experiments.stationary_moment_check(p, 0.0, 1.0, trials=10, burn_in=burn_in,
                                                horizon=horizon, master_seed=1)
        assert calls == []

    @pytest.mark.parametrize("omega, phi", UNSTABLE)
    def test_unstable_point_rejected_before_running(self, monkeypatch, omega, phi):
        calls = []
        monkeypatch.setattr(experiments.batch, "run_fixed_attractor_ensemble",
                            lambda *args, **kwargs: calls.append(args))
        p = _noisy_params(omega=omega, phi1=phi, phi2=phi, delta=0.1, m=1)
        with pytest.raises(ValueError, match="not mean-square stable"):
            experiments.stationary_moment_check(p, 1.0, 0.0, trials=10, burn_in=10,
                                                horizon=10, master_seed=1)
        assert calls == []


class TestImprovementProbability:
    def test_constants(self):
        p = _noisy_params(m=1)
        rep = experiments.improvement_probability_check(
            p, trials=2000, master_seed=7, target_samples=2_000_000)
        assert rep.analytic_noise_tail == pytest.approx(1e-4, abs=1e-15)
        assert rep.samples >= 2_000_000
        assert rep.y_tail_freq <= rep.y_tail_bound
        sigma = np.sqrt(rep.compound_freq * (1 - rep.compound_freq) / rep.samples)
        assert rep.compound_freq >= rep.compound_threshold - 3 * sigma
        assert rep.sigma_y_sq <= rep.sigma_y_sq_bound

    def test_rejects_unstable_or_noiseless(self):
        with pytest.raises(ValueError):
            experiments.improvement_probability_check(
                _noisy_params(phi1=0.2, phi2=0.2, m=1), trials=10, master_seed=1)
        with pytest.raises(ValueError):
            experiments.improvement_probability_check(
                _noisy_params(delta=0.0, m=1), trials=10, master_seed=1)

    def test_noiseless_rule_rejected_by_the_kernel_before_any_chain(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments.batch, "_attractor_chain",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=r"improvement counting requires delta > 0"):
            experiments.improvement_probability_check(
                make_params(0.4, 1.5, 1.5, 0.0, 1, 0.01, 1, 1), trials=10, master_seed=1)
        assert calls == []

    # f(1) is exactly 1/3 here, inside the mean-square and deterministic
    # regions: the noisy region and the check both need f(1) > 1/3
    def test_f_one_of_exactly_one_third_is_outside_and_rejected_before_any_chain(
            self, monkeypatch):
        w, phi1, phi2 = 0.578125, 0.21875, 0.375
        assert moments.f_one(w, phi1, phi2) == 1.0 / 3.0
        assert regions.in_mean_square_region(w, phi1, phi2)
        assert regions.in_deterministic_region(w, phi1, phi2)
        assert not regions.in_noisy_fht_region(w, phi1, phi2)
        calls = []
        monkeypatch.setattr(experiments.batch, "_attractor_chain",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=r"requires f\(1\) > 1/3"):
            experiments.improvement_probability_check(
                make_params(w, phi1, phi2, 0.01, 1, 0.01, 1, 1), trials=10, master_seed=1)
        assert calls == []


class TestPbestNullSequence:
    def test_gap_decays_basic(self):
        p = make_params(0.4, 1.5, 1.5, 0, 1, 0.01, 3, 1)
        rep = experiments.pbest_null_sequence_check(p, trials=20, horizon=5000,
                                                    master_seed=10,
                                                    checkpoints=(1000,))
        assert rep.median_ratio_at[5000] < 1e-4
        assert rep.median_ratio_at[5000] <= rep.median_ratio_at[1000]

    def test_gap_decays_noisy(self):
        p = _noisy_params()
        rep = experiments.pbest_null_sequence_check(p, trials=20, horizon=5000,
                                                    master_seed=10)
        assert rep.median_ratio_at[5000] < 1e-4

    def test_single_particle_gap_identically_zero(self):
        p = make_params(0.4, 1.5, 1.5, 0, 1, 0.01, 1, 1)
        rep = experiments.pbest_null_sequence_check(p, trials=10, horizon=100,
                                                    master_seed=10)
        assert rep.median_initial_gap_sq == 0.0
        assert rep.median_ratio_at[100] == 0.0

    def test_checkpoint_outside_the_run_rejected(self):
        p = make_params(0.4, 1.5, 1.5, 0, 1, 0.01, 2, 1)
        with pytest.raises(ValueError, match=r"\[1, 10\], got \[0, 20\]"):
            experiments.pbest_null_sequence_check(p, trials=5, horizon=10, master_seed=1,
                                                  checkpoints=(0, 5, 20))
        rep = experiments.pbest_null_sequence_check(p, trials=5, horizon=10, master_seed=1,
                                                    checkpoints=(1, 5))
        assert sorted(rep.median_ratio_at) == [1, 5, 10]
