import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from swarmlab import batch, engine, stagnation
from swarmlab.core import make_params, sphere
from swarmlab.stagnation import TwoParticleInit


class TestKappaLambda:
    def test_reference_value(self):
        assert stagnation.kappa(0.07, 1.5) == pytest.approx(0.982169, abs=1e-6)

    def test_hand_value_at_phi_two(self):
        # (2/8) + sqrt(2*18)/8 = 0.25 + 0.75
        assert stagnation.kappa(0.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_values(self):
        assert stagnation.lam(0.07, 1.5) == pytest.approx(1.25 / 1.5 + 0.14, abs=1e-12)
        assert stagnation.lam(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert stagnation.lam(0.5, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_kappa_lambda_identity_on_grid(self):
        omega = np.linspace(0.005, 0.995, 100)[:, None]
        phi2 = np.linspace(1.005, 1.995, 100)[None, :]
        k = stagnation.kappa(omega, phi2)
        l = stagnation.lam(omega, phi2)
        assert np.max(np.abs(k - (l + np.sqrt(8 * l + l * l)) / 4.0)) < 1e-12

    def test_kappa_below_one_iff_lambda_below_one(self):
        omega = np.linspace(0.0, 0.9, 40)[:, None]
        phi2 = np.linspace(1.01, 1.99, 40)[None, :]
        k = stagnation.kappa(omega, phi2)
        l = stagnation.lam(omega, phi2)
        assert np.array_equal(k < 1, l < 1)

    def test_nonpositive_phi_rejected(self):
        with pytest.raises(ValueError):
            stagnation.kappa(0.1, 0.0)
        with pytest.raises(ValueError):
            stagnation.lam(0.1, -1.0)


class TestExpectedAbsOneMinusSPhi:
    @pytest.mark.parametrize("phi,expected", [(1.5, 5.0 / 12.0), (2.0, 0.5)])
    def test_known_values(self, phi, expected):
        assert stagnation.expected_abs_one_minus_s_phi(phi) == pytest.approx(
            expected, abs=1e-15)

    @pytest.mark.parametrize("phi", [1.1, 1.5, 1.9])
    def test_against_quadrature(self, phi):
        ref, err = quad(lambda s: abs(1.0 - s * phi), 0.0, 1.0,
                        points=[1.0 / phi], limit=200)
        assert err < 1e-12
        assert stagnation.expected_abs_one_minus_s_phi(phi) == pytest.approx(
            ref, abs=1e-10)

    def test_limit_from_above(self):
        assert stagnation.expected_abs_one_minus_s_phi(1.0 + 1e-12) == pytest.approx(
            0.5, abs=1e-9)

    def test_at_or_below_one_rejected(self):
        for phi in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                stagnation.expected_abs_one_minus_s_phi(phi)

    @given(st.floats(1.01, 1.99))
    @settings(max_examples=20, deadline=None)
    def test_monte_carlo_consistency(self, phi):
        rng = np.random.default_rng(int(phi * 1e9))
        draws = np.abs(1.0 - phi * rng.random(200_000))
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - stagnation.expected_abs_one_minus_s_phi(phi)) < 4 * se


def _recurrence(c, a1, a2, n):
    seq = [a1, a2]
    for _ in range(n - 2):
        seq.append(c * (seq[-1] + seq[-2]))
    return seq[n - 1]


class TestFibClosedForm:
    def test_fibonacci_tenth(self):
        assert stagnation.fib_closed_form(1.0, 1.0, 1.0, 10) == pytest.approx(
            55.0, rel=1e-9)

    def test_seed_interpolation(self):
        assert stagnation.fib_closed_form(0.37, 2.5, -1.25, 1) == pytest.approx(
            2.5, rel=1e-12)
        assert stagnation.fib_closed_form(0.37, 2.5, -1.25, 2) == pytest.approx(
            -1.25, rel=1e-12)

    def test_matches_direct_recurrence_at_contraction_rate(self):
        c = stagnation.lam(0.07, 1.5) / 2.0
        for n in range(1, 51):
            want = _recurrence(c, 3.0, 1.0, n)
            assert stagnation.fib_closed_form(c, 3.0, 1.0, n) == pytest.approx(
                want, rel=1e-9, abs=1e-12)

    @given(st.floats(0.05, 3.0), st.floats(-5, 5), st.floats(-5, 5),
           st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_recurrence_randomised(self, c, a1, a2, n):
        want = _recurrence(c, a1, a2, n)
        got = stagnation.fib_closed_form(c, a1, a2, n)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            stagnation.fib_closed_form(0.0, 1.0, 1.0, 3)


class TestBounds:
    def test_distance_bound_example(self):
        init = TwoParticleInit(0.0, 1.0, -1.0, -1.0)
        k = 0.982169
        for t in (1, 10, 100):
            assert stagnation.d_abs_expectation_bound(t, init, k) == pytest.approx(
                k**t * 2.0, rel=1e-12)

    def test_distance_bound_degenerate(self):
        init = TwoParticleInit(0.5, 0.5, 0.0, 0.0)
        assert stagnation.d_abs_expectation_bound(25, init, 0.9) == 0.0

    def test_distance_bound_t_zero_is_constant(self):
        init = TwoParticleInit(0.0, 1.0, -2.0, -0.5)
        assert stagnation.d_abs_expectation_bound(0, init, 0.9) == pytest.approx(
            2.0 + (-2.0) - (-0.5))

    def test_conservative_variant(self):
        init = TwoParticleInit(0.0, 1.0, -2.0, -0.5)
        assert stagnation.d_abs_expectation_bound(0, init, 0.9, conservative=True) \
            == pytest.approx(2.0 + 2.0 + 0.5)

    def test_velocity_sum_bound_example(self):
        params = make_params(0.07, 0.0, 1.5, 0, 200, 0.5, 2, 1)
        init = TwoParticleInit(184.0, 185.0, -1.0, -1.0)
        assert stagnation.velocity_sum_bound(params, init) == pytest.approx(
            542.8, abs=0.5)

    def test_velocity_sum_bound_degenerate(self):
        params = make_params(0.07, 0.0, 1.5, 0, 200, 0.5, 2, 1)
        assert stagnation.velocity_sum_bound(
            params, TwoParticleInit(5.0, 5.0, 0.0, 0.0)) == 0.0

    def test_velocity_sum_bound_monotone_in_omega(self):
        # kappa(w, 1.5) < 1 needs w < 1/12; beyond that the bound diverges
        init = TwoParticleInit(0.0, 1.0, -1.0, -1.0)
        values = [stagnation.velocity_sum_bound(
            make_params(w, 0.0, 1.5, 0, 1, 0.5, 2, 1), init)
            for w in (0.01, 0.03, 0.05, 0.07)]
        assert values == sorted(values)

    def test_velocity_sum_bound_divergent_kappa_rejected(self):
        params = make_params(0.9, 0.0, 1.9, 0, 1, 0.5, 2, 1)  # kappa > 1
        with pytest.raises(ValueError):
            stagnation.velocity_sum_bound(params, TwoParticleInit(0, 1, -1, -1))


class TestTwoParticleVerdict:
    def test_published_example_fails_printed_threshold_only(self):
        params = make_params(0.07, 0.0, 1.5, 0, 200, 0.5, 2, 1)
        v = stagnation.check_two_particle_stagnation(
            params, TwoParticleInit(184.0, 185.0, -1.0, -1.0))
        assert v.conditions_met["omega_lt_1"]
        assert v.conditions_met["phi2_in_1_2"]
        assert v.conditions_met["velocities_nonpositive"]
        assert v.conditions_met["kappa_lt_1"]
        assert v.position_threshold == pytest.approx(543.7, abs=0.5)
        assert not v.conditions_met["positions_above_threshold"]
        assert not v.all_met

    def test_scaled_positions_pass(self):
        params = make_params(0.07, 0.0, 1.5, 0, 700, 0.5, 2, 1)
        v = stagnation.check_two_particle_stagnation(
            params, TwoParticleInit(600.0, 601.0, -1.0, -1.0))
        assert v.all_met

    def test_phi2_out_of_range(self):
        params = make_params(0.07, 0.0, 2.5, 0, 700, 0.5, 2, 1)
        v = stagnation.check_two_particle_stagnation(
            params, TwoParticleInit(600.0, 601.0, -1.0, -1.0))
        assert not v.conditions_met["phi2_in_1_2"]

    def test_all_met_implies_kappa_below_one(self):
        params = make_params(0.07, 0.0, 1.5, 0, 700, 0.5, 2, 1)
        v = stagnation.check_two_particle_stagnation(
            params, TwoParticleInit(600.0, 601.0, -1.0, -1.0))
        assert v.all_met and v.kappa < 1


class TestBadInitEvent:
    def test_reference_membership(self):
        assert stagnation.bad_init_event(0.9, -0.05, 0.5, 0.5, 1.0)

    def test_zero_velocity_excluded(self):
        assert not stagnation.bad_init_event(0.9, 0.0, 0.5, 0.5, 1.0)

    def test_boundary_position_excluded(self):
        assert not stagnation.bad_init_event(0.5, -0.05, 0.5, 0.5, 1.0)


class TestOneParticleTrajectory:
    def test_first_step(self):
        x, v = stagnation.one_particle_trajectory(0.9, -0.05, 0.5, 1)
        assert v == 0.5 * -0.05
        assert x == 0.9 + 0.5 * -0.05

    def test_limit_point(self):
        assert stagnation.one_particle_limit(0.9, -0.05, 0.5) == pytest.approx(
            0.85, rel=1e-15)
        assert stagnation.one_particle_limit(0.9, -0.05, 0.5) > 0.5

    def test_matches_engine_simulation(self):
        params = make_params(0.5, 1.5, 1.5, 0, 1, 0.5, 1, 1)
        f = sphere()
        swarm = engine.init_swarm_explicit(params, f, 77, [0.9], [-0.05])
        for t in range(1, 2001):
            engine.step(swarm)
            x, v = stagnation.one_particle_trajectory(0.9, -0.05, 0.5, t)
            assert swarm.X[0, 0, 0] == pytest.approx(x, rel=1e-12)
            assert swarm.V[0, 0, 0] == pytest.approx(v, rel=1e-12, abs=1e-300)

    def test_matches_engine_other_inertia(self):
        params = make_params(0.3, 1.5, 1.5, 0, 1, 0.5, 1, 1)
        f = sphere()
        swarm = engine.init_swarm_explicit(params, f, 78, [0.8], [-0.1])
        for t in range(1, 1001):
            engine.step(swarm)
            x, v = stagnation.one_particle_trajectory(0.8, -0.1, 0.3, t)
            assert swarm.X[0, 0, 0] == pytest.approx(x, rel=1e-12)

    @given(st.floats(0.01, 0.38), st.floats(0.51, 3.0), st.floats(0.0, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_event_keeps_trajectory_above_target_for_small_inertia(
            self, omega, x0, v_frac):
        # for omega <= (3 - sqrt(5))/2 the event bound implies the drift limit
        # stays above epsilon*alpha; larger inertia admits counterexamples
        epsilon, alpha = 0.5, 1.0
        lo = (epsilon * alpha - x0) / (1.0 - omega)
        v0 = lo * (1.0 - v_frac) - 1e-12
        if not stagnation.bad_init_event(x0, v0, omega, epsilon, alpha):
            return
        assert stagnation.one_particle_limit(x0, v0, omega) > epsilon * alpha

    def test_event_fails_to_protect_for_large_inertia(self):
        # documented gap: omega = 0.5 admits event members that cross the target
        assert stagnation.bad_init_event(0.8, -0.5, 0.5, 0.5, 1.0)
        assert stagnation.one_particle_limit(0.8, -0.5, 0.5) < 0.5


class TestTwoParticleDemoBookkeeping:
    def test_every_field_matches_a_per_step_recomputation(self):
        # with a little noise, each of the four sign prerequisites is the first
        # to break in some trial, and each particle alone enters the ball in
        # some trial while others never enter it
        params = make_params(0.6, 0.0, 1.5, 0.002, 200.0, 0.5, 2, 1)
        x0, v0 = (2.0, 3.0), (-0.1, -0.3)
        trials, steps, seed, radius = 64, 220, 11, 5e-6
        times = tuple(range(0, steps + 1, 5))
        res = batch.run_two_particle_demo(params, sphere(), x0, v0, trials, steps,
                                          seed, radius, times)
        sw = batch.BatchSwarm(params, sphere(), trials, seed, init="explicit",
                              positions=x0, velocities=v0)
        entered = [False] * trials
        sum_abs_v = [[0.0, 0.0] for _ in range(trials)]
        valid = [True] * trials
        min_pos = [float("inf")] * trials
        d_abs_at, valid_at = {}, {}
        for t in range(steps + 1):
            if t > 0:
                sw.step()
            X, V = sw.X[:, :, 0].tolist(), sw.V[:, :, 0].tolist()
            for k, ((a, b), (va, vb)) in enumerate(zip(X, V)):
                entered[k] = entered[k] or abs(a) <= radius or abs(b) <= radius
                sum_abs_v[k][0] += abs(va)
                sum_abs_v[k][1] += abs(vb)
                valid[k] = valid[k] and a >= 0 and b >= 0 and va <= 0 and vb <= 0
                min_pos[k] = min(min_pos[k], a, b)
            if t in times:
                d_abs_at[t] = [abs(b - a) for a, b in X]
                valid_at[t] = list(valid)
        assert res.entered_ball.tolist() == entered
        assert res.sum_abs_v.tolist() == sum_abs_v
        assert res.min_position.tolist() == min_pos
        assert sorted(res.d_abs_at) == sorted(res.valid_at) == list(times)
        for t in times:
            assert res.d_abs_at[t].tolist() == d_abs_at[t]
            assert res.valid_at[t].tolist() == valid_at[t]
        assert 0 < sum(entered) < trials
        assert all(valid_at[0]) and not any(valid_at[steps])
        assert any(0 < sum(valid_at[t]) < trials for t in times)
