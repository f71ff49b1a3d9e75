import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from swarmlab import batch, engine, moments, stagnation
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

    @pytest.mark.parametrize("n", [0, -1])
    def test_index_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            stagnation.fib_closed_form(1.0, 1.0, 1.0, n)


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

    def test_distance_bound_negative_t_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            stagnation.d_abs_expectation_bound(-1, TwoParticleInit(0.0, 1.0, -1.0, -1.0), 0.9)

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

    def test_velocity_sum_bound_uses_the_distance_magnitude(self):
        params = make_params(0.07, 0.0, 1.5, 0, 200, 0.5, 2, 1)
        ahead = stagnation.velocity_sum_bound(params, TwoParticleInit(184.0, 185.0, -1.0, -1.0))
        behind = stagnation.velocity_sum_bound(params, TwoParticleInit(185.0, 184.0, -1.0, -1.0))
        assert behind == ahead

    def test_velocity_sum_bound_divergent_kappa_rejected(self):
        params = make_params(0.9, 0.0, 1.9, 0, 1, 0.5, 2, 1)  # kappa > 1
        with pytest.raises(ValueError):
            stagnation.velocity_sum_bound(params, TwoParticleInit(0, 1, -1, -1))


class TestDistanceMeanSquareLaw:
    def test_distance_second_moment_matches_the_fixed_attractor_oracle(self):
        # with phi1 = 0 the leader's own pull is S (G - X) = 0, so the distance
        # D = X_b - X_a follows D_{t+1} = (1 + omega - phi2 S_t) D_t - omega D_{t-1}
        # whichever particle leads (the sign prerequisites keep the leader
        # improving on the sphere): the fixed-attractor recurrence at
        # (omega, 0, phi2) with both bests at 0, started from D_0 and
        # D_{-1} = D_0 - (v_b - v_a).  Its mean rests on rare paths beyond t = 6.
        params = make_params(0.07, 0.0, 1.5, 0, 200, 0.5, 2, 1)
        x0, v0 = np.array([184.0, 185.0]), np.array([-1.0, -1.0])
        trials, horizon, z_max = 100_000, 6, 4.0
        d0 = x0[1] - x0[0]
        law = moments.iterate_moments(moments.moment_transition(params, 0.0, 0.0),
                                      moments.initial_moment_state(d0, d0 - (v0[1] - v0[0])),
                                      horizon)[:, 0]
        assert law[1] == pytest.approx(0.25)
        sw = batch.BatchSwarm(params, sphere(), trials, 404, positions=x0, velocities=v0)
        valid = np.ones(trials, dtype=bool)
        for t in range(1, horizon + 1):
            sw.step()
            X, V = sw.X[:, :, 0], sw.V[:, :, 0]
            valid &= (X.min(axis=0) >= 0) & (V.max(axis=0) <= 0)
            assert valid.sum() > 0.99 * trials
            d2 = (X[1] - X[0])[valid] ** 2
            se = d2.std(ddof=1) / np.sqrt(d2.size)
            assert abs(d2.mean() - law[t]) < z_max * se, (t, d2.mean(), law[t], se)


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

    # the starts below put one hypothesis exactly on its boundary
    @pytest.mark.parametrize("phi2", [1.0, 2.0])
    def test_phi2_range_is_open(self, phi2):
        params = make_params(0.07, 0.0, phi2, 0, 700, 0.5, 2, 1)
        v = stagnation.check_two_particle_stagnation(
            params, TwoParticleInit(600.0, 601.0, -1.0, -1.0))
        assert not v.conditions_met["phi2_in_1_2"]

    @pytest.mark.parametrize("v1, v2", [(0.0, -1.0), (-1.0, 0.0)])
    def test_zero_velocity_is_nonpositive(self, v1, v2):
        params = make_params(0.07, 0.0, 1.5, 0, 700, 0.5, 2, 1)
        v = stagnation.check_two_particle_stagnation(params, TwoParticleInit(600.0, 601.0, v1, v2))
        assert v.conditions_met["velocities_nonpositive"]

    def test_position_on_the_threshold_is_not_above_it(self):
        params = make_params(0.07, 0.0, 1.5, 0, 700, 0.5, 2, 1)
        thr = stagnation.position_threshold(params, TwoParticleInit(0.0, 1.0, -1.0, -1.0))
        init = TwoParticleInit(thr, thr + 1.0, -1.0, -1.0)
        assert init.d0 == 1.0
        v = stagnation.check_two_particle_stagnation(params, init)
        assert v.position_threshold == init.x1
        assert not v.conditions_met["positions_above_threshold"]

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

    @pytest.mark.parametrize("omega", [1.0, 1.5])
    def test_inertia_at_or_above_one_rejected(self, omega):
        with pytest.raises(ValueError, match="omega < 1"):
            stagnation.bad_init_event(0.9, -0.05, omega, 0.5, 1.0)


class TestOneParticleTrajectory:
    def test_first_step(self):
        x, v = stagnation.one_particle_trajectory(0.9, -0.05, 0.5, 1)
        assert v == 0.5 * -0.05
        assert x == 0.9 + 0.5 * -0.05

    def test_limit_point(self):
        assert stagnation.one_particle_limit(0.9, -0.05, 0.5) == pytest.approx(
            0.85, rel=1e-15)
        assert stagnation.one_particle_limit(0.9, -0.05, 0.5) > 0.5

    @pytest.mark.parametrize("omega", [-0.1, 1.0])
    def test_limit_needs_inertia_in_the_unit_interval(self, omega):
        with pytest.raises(ValueError, match="0 <= omega < 1"):
            stagnation.one_particle_limit(0.9, -0.05, omega)

    def test_step_zero_is_the_start(self):
        assert stagnation.one_particle_trajectory(0.9, -0.05, 0.5, 0) == (0.9, -0.05)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            stagnation.one_particle_trajectory(0.9, -0.05, 0.5, -1)

    def test_unit_inertia_drifts_at_constant_velocity(self):
        # the geometric sum's closed form divides by 1 - omega, so this path
        # is checked against X_t = x0 + v0 t and V_t = v0 directly
        for t in range(1, 6):
            assert stagnation.one_particle_trajectory(0.9, -0.05, 1.0, t) == (0.9 - 0.05 * t,
                                                                            -0.05)

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


def _check_against_per_step_recomputation(params, x0, v0, trials, steps, seed, times):
    """Runs the demo and recomputes every field from a swarm stepped to the end
    with plain `BatchSwarm.step` calls, one trial at a time in Python floats;
    returns the recomputed (entered, valid_at)."""
    res = batch.run_two_particle_demo(params, sphere(), x0, v0, trials, steps, seed)
    sw = batch.BatchSwarm(params, sphere(), trials, seed, positions=x0, velocities=v0)
    radius = params.epsilon
    entered = [False] * trials
    sum_abs_v = [[0.0, 0.0] for _ in range(trials)]
    valid = [True] * trials
    min_pos = [float("inf")] * trials
    d_abs_at, valid_at = {}, {}
    for t in range(steps + 1):
        if t > 0:
            sw.step()
        X, V = sw.X[:, :, 0].T.tolist(), sw.V[:, :, 0].T.tolist()
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
    # C order: numpy's sum over trials in `experiments` follows memory order
    assert res.sum_abs_v.flags.c_contiguous
    assert res.min_position.tolist() == min_pos
    assert list(res.d_abs_at) == list(res.valid_at) == [t for t in times if t <= steps]
    for t in res.d_abs_at:
        assert res.d_abs_at[t].tolist() == d_abs_at[t]
        assert res.valid_at[t].tolist() == valid_at[t]
    return entered, valid_at


class TestTwoParticleDemoBookkeeping:
    def test_every_field_matches_a_per_step_recomputation(self, monkeypatch):
        # with a little noise, each of the four sign prerequisites is the first
        # to break in some trial, and each particle alone enters the ball in
        # some trial while others never enter it; the ball is the target ball,
        # of radius epsilon
        params = make_params(0.6, 0.0, 1.5, 0.002, 200.0, 5e-6, 2, 1)
        x0, v0 = (2.0, 3.0), (-0.1, -0.3)
        trials, steps, seed = 64, 220, 11
        times = tuple(range(0, steps + 1, 5))
        monkeypatch.setattr(batch, "D_SAMPLE_TIMES", times)
        entered, valid_at = _check_against_per_step_recomputation(
            params, x0, v0, trials, steps, seed, times)
        assert 0 < sum(entered) < trials
        assert all(valid_at[0]) and not any(valid_at[steps])
        assert any(0 < sum(valid_at[t]) < trials for t in times)

    # both particles at rest on one point: every trial is frozen from step 1,
    # so the demo stops at its first check, step 64, before sample time 200
    @pytest.mark.parametrize("steps", [200, 250])
    def test_a_demo_that_freezes_matches_a_per_step_recomputation(self, monkeypatch, steps):
        params = make_params(0.4, 1.5, 1.5, 0.0, 200.0, 0.5, 2, 1)
        stepped = []
        step = batch.BatchSwarm.step
        monkeypatch.setattr(batch.BatchSwarm, "step",
                            lambda sw: stepped.append(sw.t) or step(sw))
        entered, valid_at = _check_against_per_step_recomputation(
            params, (10.0, 10.0), (0.0, 0.0), 3, steps, 5, batch.D_SAMPLE_TIMES)
        # the demo's 64 steps, then the recomputation's
        assert stepped[:64] == list(range(64)) and len(stepped) == 64 + steps
        assert not any(entered) and all(valid_at[200])

    # with phi1 = phi2 = 0, particle 1 overflows to inf at step 1 (1.7e308 +
    # 0.5 * 1e308), and 0 * (P - inf) turns it into NaN at step 2; particle 2
    # stays at 0.3.  The running minimum propagates the NaN, as the sign tests
    # do; np.fmin in place of either np.minimum would read 0.3
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_nan_position_makes_the_minimum_position_nan(self):
        params = make_params(0.5, 0.0, 0.0, 0.0, 1, 0.5, 2, 1)
        res = batch.run_two_particle_demo(params, sphere(), [1.7e308, 0.3], [1e308, 0.0],
                                          3, 60, 5)
        assert np.isnan(res.min_position).all()

    # a swarm at rest with both particles on one point never moves under the
    # noise-free rule, so these starts stay on a boundary at every step
    def test_particle_at_zero_keeps_the_sign_prerequisite(self):
        params = make_params(0.6, 0.0, 1.5, 0.0, 200.0, 5e-6, 2, 1)
        res = batch.run_two_particle_demo(params, sphere(), (0.0, 0.0), (0.0, 0.0), 2, 10, 1)
        assert res.min_position.tolist() == [0.0, 0.0]
        assert all(res.valid_at[10])

    def test_particle_on_the_ball_surface_has_entered(self):
        params = make_params(0.6, 0.0, 1.5, 0.0, 200.0, 5e-6, 2, 1)
        x = params.epsilon
        res = batch.run_two_particle_demo(params, sphere(), (x, x), (0.0, 0.0), 2, 10, 1)
        assert res.min_position.tolist() == [x, x]
        assert all(res.entered_ball)
