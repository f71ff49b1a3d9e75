import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmlab import moments, regions
from swarmlab.core import make_params

from moments_reference import (
    assert_largest_real_root_near,
    ref_second_moment_blocks,
    ref_second_moment_radius_grid,
)


def _params(omega=0.4, phi1=1.5, phi2=1.5, delta=0.0):
    return make_params(omega, phi1, phi2, delta, 1.0, 0.01, 1, 1)


def _mc_moments(omega, phi1, phi2, delta, p_best, g_best, x1, x0, t_samples, chains, seed):
    """Independent Monte Carlo oracle for the fixed-attractor recurrence,
    using numpy's own generator (not the package RNG)."""
    rng = np.random.default_rng(seed)
    x_prev = np.full(chains, x0, dtype=np.float64)
    x_cur = np.full(chains, x1, dtype=np.float64)
    out = {}
    horizon = max(t_samples)
    for t in range(1, horizon):  # x_cur is X_1 already
        R = rng.random(chains)
        S = rng.random(chains)
        x_next = ((1 + omega - (phi1 * R + phi2 * S)) * x_cur - omega * x_prev
                  + phi1 * R * p_best + phi2 * S * g_best)
        if delta > 0:
            x_next += delta * (rng.random(chains) - 0.5)
        x_prev, x_cur = x_cur, x_next
        if t + 1 in t_samples:
            out[t + 1] = (x_cur.mean(), x_cur.var(ddof=1), x_cur.std(ddof=1) / np.sqrt(chains))
    return out


class TestEquilibrium:
    def test_symmetric_midpoint(self):
        assert moments.equilibrium_point(_params(), 0.0, 1.0) == 0.5

    def test_degenerate_common_value(self):
        assert moments.equilibrium_point(_params(), 3.25, 3.25) == 3.25

    def test_weighted(self):
        assert moments.equilibrium_point(_params(phi1=1.0, phi2=3.0), 0.0, 4.0) == 3.0

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            moments.equilibrium_point(_params(phi1=0.0, phi2=0.0), 0.0, 1.0)


class TestFOne:
    def test_reference_point(self):
        assert moments.f_one(0.4, 1.5, 1.5) == pytest.approx(0.645, abs=1e-15)

    def test_all_zero(self):
        assert moments.f_one(0.0, 0.0, 0.0) == 0.0

    def test_single_coefficient(self):
        assert moments.f_one(0.0, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_symmetry_in_swapping_coefficients(self):
        assert moments.f_one(0.3, 1.2, 0.7) == pytest.approx(
            moments.f_one(0.3, 0.7, 1.2), abs=1e-15)

    def test_asymmetric_variant_differs(self):
        # the alternative printing is not symmetric and disagrees off-boundary
        assert moments.f_one_asymmetric_variant(0.4, 1.5, 1.5) != pytest.approx(
            moments.f_one(0.4, 1.5, 1.5), abs=1e-3)


class TestMomentTransition:
    def test_identity_dynamics(self):
        # omega = 0, phi = 0, delta = 0 makes X_{t+1} = X_t exactly
        M = moments.moment_transition(_params(omega=0.0, phi1=0.0, phi2=0.0), 0.0, 0.0)
        s = moments.initial_moment_state(0.7, 0.7)
        assert np.allclose(M @ s, s, atol=0, rtol=0)

    def test_delta_only_shifts_constant_second_moment_entry(self):
        d = 0.3
        M0 = moments.moment_transition(_params(delta=0.0), 0.2, -0.4)
        M1 = moments.moment_transition(_params(delta=d), 0.2, -0.4)
        diff = M1 - M0
        assert diff[0, 5] == pytest.approx(d * d / 12.0, rel=1e-15)
        diff[0, 5] = 0.0
        assert np.all(diff == 0.0)

    def test_mean_subblock_matches_expected_recurrence(self):
        p = _params(omega=0.37, phi1=1.1, phi2=0.9)
        P, G = 0.25, -1.5
        M = moments.moment_transition(p, P, G)
        ea = 1 + p.omega - (p.phi1 + p.phi2) / 2
        eb = (p.phi1 * P + p.phi2 * G) / 2
        assert M[3].tolist() == [0, 0, 0, ea, -p.omega, eb]
        assert M[4].tolist() == [0, 0, 0, 1, 0, 0]

    def test_mean_rows_independent_of_delta(self):
        M0 = moments.moment_transition(_params(delta=0.0), 0.0, 1.0)
        M1 = moments.moment_transition(_params(delta=0.5), 0.0, 1.0)
        assert np.array_equal(M0[3:], M1[3:])


class TestIterateMoments:
    def test_zero_steps_returns_init(self):
        M = moments.moment_transition(_params(), 0.0, 1.0)
        init = moments.initial_moment_state(0.1, -0.2)
        traj = moments.iterate_moments(M, init, 0)
        assert traj.shape == (1, 6) and np.array_equal(traj[0], init)

    def test_iteration_converges_to_direct_fixed_point(self):
        p = _params(delta=0.1)
        M = moments.moment_transition(p, 0.0, 1.0)
        stat = moments.stationary_moments(p, 0.0, 1.0)
        traj = moments.iterate_moments(M, moments.initial_moment_state(0.3, -0.3), 3000)
        assert np.allclose(traj[-1], stat, rtol=1e-10, atol=1e-12)
        assert traj[-1][5] == 1.0

    def test_fixed_point_structure(self):
        p = _params(delta=0.1)
        stat = moments.stationary_moments(p, 0.0, 0.0)
        # symmetric attractor: mean 0, second moments equal, last component 1
        assert stat[3] == pytest.approx(0.0, abs=1e-14)
        assert stat[0] == pytest.approx(stat[2], rel=1e-12)
        assert stat[5] == 1.0

    @given(st.floats(0.0, 0.8), st.floats(0.1, 1.6), st.floats(0.0, 0.3),
           st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_moment_state_invariants_along_trajectory(self, omega, phi, delta, x1, x0):
        p = _params(omega=omega, phi1=phi, phi2=phi, delta=delta)
        M = moments.moment_transition(p, 0.2, -0.3)
        traj = moments.iterate_moments(M, moments.initial_moment_state(x1, x0), 60)
        for row in traj:
            assert row[5] == 1.0
            assert row[0] >= row[3] ** 2 - 1e-12  # second moment dominates
            assert row[2] >= row[4] ** 2 - 1e-12
            # Cauchy-Schwarz, with slack for rounding on divergent trajectories
            assert row[1] ** 2 <= row[0] * row[2] * (1 + 1e-10) + 1e-9

    def test_monte_carlo_oracle_agrees_with_exact_moments(self):
        p = _params(delta=0.05)
        P, G = 0.0, 1.0
        x1, x0 = 0.2, -0.1
        samples = (3, 10, 50)
        chains = 100_000
        mc = _mc_moments(p.omega, p.phi1, p.phi2, p.delta, P, G, x1, x0,
                         samples, chains, seed=2718)
        M = moments.moment_transition(p, P, G)
        traj = moments.iterate_moments(M, moments.initial_moment_state(x1, x0), max(samples))
        for t in samples:
            mean_t = traj[t - 1][3]  # row k holds E[X_{k+1}] relative to X_1 start
            var_t = traj[t - 1][0] - mean_t**2
            emp_mean, emp_var, se = mc[t]
            assert abs(emp_mean - mean_t) < 4 * se
            assert abs(emp_var - var_t) < 4 * var_t * np.sqrt(2.0 / (chains - 1)) + 4 * se**2


class TestVarianceLimit:
    def test_degenerate_attractor_no_noise(self):
        assert moments.variance_limit(_params(), 0.7, 0.7) == 0.0

    def test_noise_floor_value_matches_oracle(self):
        p = _params(delta=0.1)
        stat = moments.stationary_moments(p, 0.0, 0.0)
        oracle_var = stat[0] - stat[3] ** 2
        closed = moments.variance_limit(p, 0.0, 0.0)
        assert closed == pytest.approx(oracle_var, rel=1e-9)
        # equals (1 + omega) delta^2 / (12 f(1)); the printing without the
        # (1 + omega) factor is 1.292e-3 and is ruled out by the oracle
        assert closed == pytest.approx(1.4 * 0.01 / 12 / 0.645, rel=1e-12)

    def test_gap_term_matches_oracle(self):
        p = _params()
        stat = moments.stationary_moments(p, 0.0, 1.0)
        oracle_var = stat[0] - stat[3] ** 2
        assert moments.variance_limit(p, 0.0, 1.0) == pytest.approx(oracle_var, rel=1e-9)
        assert moments.variance_limit(p, 0.0, 1.0) == pytest.approx(
            (1 / 6) * (1.5 * 1.5 / 3) ** 2 * 1.4 / 0.645, rel=1e-12)

    def test_swap_symmetry(self):
        p = _params()
        assert moments.variance_limit(p, 1.0, 0.0) == moments.variance_limit(p, 0.0, 1.0)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            moments.variance_limit(_params(omega=0.99, phi1=2.0, phi2=2.0), 0.0, 1.0)

    @given(st.floats(0.0, 0.9), st.floats(0.05, 2.0), st.floats(0.05, 2.0),
           st.floats(0.0, 0.5), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=80, deadline=None)
    # P == G with a tiny delta: E[X^2] - E[X]^2 from the uncentred fixed point
    # came out near -1e-15 on each of these
    @example(0.75, 0.875, 0.5, 6.8e-19, 2.0, 2.0)
    @example(0.6500636587891823, 1.0, 1.0, 5.013098679242986e-50, 2.0, 2.0)
    @example(0.0, 1.0, 1.0, 8.028108646324534e-277, 1.75, 1.75)
    @example(0.0, 1.25, 2.0, 4.794025864038033e-141, 2.0, 2.0)
    def test_closed_form_equals_fixed_point_everywhere_stable(
            self, omega, phi1, phi2, delta, P, G):
        f1 = moments.f_one(omega, phi1, phi2)
        if f1 <= 1e-3 or phi1 + phi2 >= 4 * (1 + omega):
            return
        p = _params(omega=omega, phi1=phi1, phi2=phi2, delta=delta)
        stat = moments.stationary_moments(p, P, G)
        oracle_var = moments.stationary_variance(p, P, G)
        assert moments.variance_limit(p, P, G) == pytest.approx(
            oracle_var, rel=1e-8, abs=1e-12)
        # mean limit from the oracle equals the equilibrium point
        assert stat[3] == pytest.approx(
            moments.equilibrium_point(p, P, G), rel=1e-9, abs=1e-12)
        # noise floor
        if delta > 0:
            assert oracle_var >= delta**2 / 12 - 1e-15

    # weights below 1e-3 are left out: there f(1) ~ phi (1 - omega^2) is so
    # small that the limit itself can overflow to inf inside the region
    @given(st.floats(-0.5, 1.5), st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
           st.floats(1e-3, 5.0), st.floats(0.0, 1.0), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    @example(0.4, 1.5, 1.5, 0.1, 0.0, 1.0)
    @example(0.99, 2.0, 2.0, 0.0, 0.0, 1.0)
    @example(1.0, 0.5, 0.5, 0.0, 0.0, 1.0)
    def test_limits_finite_exactly_in_the_mean_square_region(
            self, omega, phi1, phi2, delta, P, G):
        p = _params(omega=omega, phi1=phi1, phi2=phi2, delta=delta)
        var = moments.moment_limits(p, P, G).var_limit
        inside = bool(regions.in_mean_square_region(omega, phi1, phi2))
        assert np.isfinite(var) == inside
        if inside:
            assert var == moments.variance_limit(p, P, G)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert moments.char_cubic_radius(np.zeros((3, 3))) == 0.0

    def test_stable_block_below_one(self):
        block = moments.second_moment_block(moments.moment_transition(_params(), 0.0, 0.0))
        rho = moments.char_cubic_radius(block)
        assert rho < 1.0
        assert rho == pytest.approx(float(np.abs(np.linalg.eigvals(block)).max()), abs=1e-9)

    def test_boundary_radius_is_one(self):
        # root-find the stability boundary along the phi ray at omega = 0.4
        omega = 0.4
        lo, hi = 1.5, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if moments.f_one(omega, mid, mid) > 0:
                lo = mid
            else:
                hi = mid
        p = _params(omega=omega, phi1=lo, phi2=lo)
        block = moments.second_moment_block(moments.moment_transition(p, 0.0, 0.0))
        assert moments.char_cubic_radius(block) == pytest.approx(1.0, abs=1e-6)

    def test_grid_radius_matches_scalar(self):
        omegas = np.array([0.1, 0.4, 0.8])
        phis = np.array([0.5, 1.5, 2.5])
        grid = moments.second_moment_radius_grid(omegas[:, None], phis[None, :],
                                                 phis[None, :])
        for i, w in enumerate(omegas):
            for j, f in enumerate(phis):
                p = _params(omega=w, phi1=f, phi2=f)
                block = moments.second_moment_block(moments.moment_transition(p, 0, 0))
                assert grid[i, j] == pytest.approx(moments.char_cubic_radius(block),
                                                   rel=1e-9)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            moments.char_cubic_radius(np.zeros((2, 3)))


def _assert_matches_reference(omega, phi1, phi2, rel=1e-9):
    got = moments.second_moment_radius_grid(omega, phi1, phi2)
    want = ref_second_moment_radius_grid(omega, phi1, phi2)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=rel, atol=0)


class TestRadiusGridClosedForm:
    """The closed-form cubic root against batched numpy.linalg.eigvals."""

    @pytest.mark.parametrize("phi1, phi2", [(1.5, 1.5), (0.3, 2.0), (4.0, 4.0), (1e-3, 0.0)])
    def test_omega_zero_double_root_at_zero(self, phi1, phi2):
        # roots 0, 0 and E[a^2]
        _assert_matches_reference(0.0, phi1, phi2)
        ea2 = moments._a_moments(0.0, phi1, phi2)[1]
        assert moments.second_moment_radius_grid(0.0, phi1, phi2) == pytest.approx(ea2, rel=1e-12)

    @pytest.mark.parametrize("omega", [-0.99, -0.5, 0.0, 0.5, 0.99])
    def test_deterministic_block_radius_one(self, omega):
        # roots 1, omega and omega^2
        _assert_matches_reference(omega, 0.0, 0.0)
        assert moments.second_moment_radius_grid(omega, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    # omega = -1 repeats the root 1 and omega = 1 triples it: the derivative
    # vanishes there, so the Newton step must not divide by it
    @pytest.mark.parametrize("omega", [-1.0, 1.0])
    def test_repeated_root_at_one(self, omega):
        assert moments.second_moment_radius_grid(omega, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("omega, phi1, phi2", [
        (0.5, 0.0, 1.7), (0.3, 2.2, 0.0), (-0.6, 0.0, 3.1), (0.9, 1e-3, 0.0)])
    def test_one_phi_zero(self, omega, phi1, phi2):
        _assert_matches_reference(omega, phi1, phi2)

    @pytest.mark.parametrize("omega, phi1, phi2", [
        (-0.5, 1.0, 1.0), (-0.9, 0.2, 3.0), (-0.99, 4.0, 4.0), (-0.3, 0.0, 0.0)])
    def test_negative_omega(self, omega, phi1, phi2):
        _assert_matches_reference(omega, phi1, phi2)

    # a complex pair never has the largest modulus (see the next test), so
    # the pair cases are a near tie and a clear real lead
    @pytest.mark.parametrize("omega, phi1, phi2, pair", [
        (0.99, 1e-4, 1e-4, True),     # pair modulus within 2e-5 of the real root
        (0.7, 0.5, 0.5, True),        # pair 0.68, real root 0.74
        (0.5, 1.5, 1.5, False),       # three real roots, 0.72, -0.35 and -0.5
        (-0.5, 1.0, 1.0, False),      # three real roots, 1.08, 0.27 and -0.43
    ])
    def test_complex_pair_and_real_roots(self, omega, phi1, phi2, pair):
        ev = np.linalg.eigvals(ref_second_moment_blocks(omega, phi1, phi2))
        assert (ev.imag != 0).any() == pair
        _assert_matches_reference(omega, phi1, phi2)

    def test_complex_pair_never_exceeds_real_root(self):
        # the block maps the cone of positive semidefinite second-moment
        # matrices into itself, so its spectral radius is a real eigenvalue
        rng = np.random.default_rng(3)
        n = 20_000
        omega, phi1, phi2 = rng.uniform(-0.99, 0.99, n), rng.uniform(0, 4, n), rng.uniform(0, 4, n)
        ev = np.linalg.eigvals(ref_second_moment_blocks(omega, phi1, phi2))
        lead = ev[np.arange(n), np.abs(ev).argmax(axis=1)]
        assert (lead.imag == 0).all() and (lead.real > 0).all()
        _assert_matches_reference(omega, phi1, phi2)

    # phi1 = phi2 = phi_c puts the depressed cubic's discriminant at zero
    # (found in 60-digit arithmetic); the points step up to 1e-6 to either side
    @pytest.mark.parametrize("omega, phi_c", [
        (0.1, 0.3793041527691764),
        (0.5, 1.3869989104095424),
        (0.5, 1.6616607602669204),
        (0.97, 0.00022530968574642943),
    ])
    def test_near_zero_discriminant(self, omega, phi_c):
        complex_pair = [(np.linalg.eigvals(ref_second_moment_blocks(omega, p, p)).imag != 0).any()
                        for p in (phi_c - 1e-6, phi_c + 1e-6)]
        assert complex_pair[0] != complex_pair[1]
        phi = phi_c + np.array([-1e-6, -1e-8, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-8, 1e-6])
        _assert_matches_reference(omega, phi, phi)

    # checked against the exact characteristic polynomial, not `eigvals`: at
    # the example, inside the three-root cluster near omega = 1, `eigvals` is
    # 2.1e-9 from the closed form and the closed form within 3e-10 of a root
    @given(st.floats(-0.99, 0.99), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    @example(0.99, 2.5e-5, 2.5e-5)
    @settings(max_examples=200, deadline=None)
    def test_matches_eigvals_property(self, omega, phi1, phi2):
        radius = moments.second_moment_radius_grid(omega, phi1, phi2)
        assert_largest_real_root_near(omega, phi1, phi2, radius, rel=1e-9)

    def test_default_grid_matches_eigvals(self):
        res = 400
        om = (np.arange(res) + 0.5) / res
        ph = (np.arange(res) + 0.5) / res * 4.0
        OM, PH = np.meshgrid(om, ph, indexing="ij")
        got = moments.second_moment_radius_grid(OM, PH, PH)
        want = ref_second_moment_radius_grid(OM, PH, PH)
        assert np.abs(got / want - 1.0).max() <= 1e-10
        assert ((got < 1) == (want < 1)).all()


class TestRegionEquivalence:
    def test_f_one_sign_matches_spectral_radius_on_grid(self):
        res = 60
        om = (np.arange(res) + 0.5) / res
        ph = (np.arange(res) + 0.5) / res * 4.0
        OM, PH = np.meshgrid(om, ph, indexing="ij")
        f1 = moments.f_one(OM, PH, PH)
        rho = moments.second_moment_radius_grid(OM, PH, PH)
        agree = (f1 > 0) == (rho < 1)
        assert agree.mean() >= 0.999
        # adjudication: the asymmetric variant must do strictly worse
        f1_alt = moments.f_one_asymmetric_variant(OM, PH, PH)
        agree_alt = (f1_alt > 0) == (rho < 1)
        assert agree_alt.mean() < agree.mean()

    def test_sigma_y_bound_iff_f_one_above_third(self):
        delta = 0.01
        for omega in (0.0, 0.3, 0.7):
            for phi in (0.3, 0.9, 1.5, 2.0):
                f1 = moments.f_one(omega, phi, phi)
                if f1 <= 0:
                    continue
                sy2 = moments.sigma_y_squared(omega, phi, phi, delta)
                assert (sy2 <= delta**2 / 6) == (f1 >= 1.0 / 3.0)
