import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmlab import core
from swarmlab.core import (
    PURPOSE_NOISE,
    PURPOSE_R,
    PURPOSE_S,
    RngStream,
    counterexample,
    get_objective,
    make_params,
    monotone_transform,
    sphere,
    sphere_plus,
    step_uniform,
    stream_base,
)


class TestMakeParams:
    def test_valid_noisy(self):
        p = make_params(0.4, 1.5, 1.5, 0.1, 1, 0.01, 3, 1)
        assert p.m == 3 and p.omega == 0.4

    def test_alpha_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            make_params(0.5, 1, 1, 0, -1, 0.1, 1, 1)

    def test_valid_social_only(self):
        p = make_params(0.07, 0, 1.5, 0, 200, 0.5, 2, 1)
        assert p.phi1 == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=0.0), dict(epsilon=-1.0), dict(m=0), dict(n=0),
        dict(phi1=-0.1), dict(phi2=-0.1), dict(delta=-0.01),
    ])
    def test_invalid_fields(self, kwargs):
        base = dict(omega=0.5, phi1=1.0, phi2=1.0, delta=0.0,
                    alpha=1.0, epsilon=0.1, m=2, n=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            make_params(**base)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["omega", "phi1", "phi2", "delta", "alpha", "epsilon"])
    def test_non_finite_fields_rejected(self, field, value):
        base = dict(omega=0.5, phi1=1.0, phi2=1.0, delta=0.0,
                    alpha=1.0, epsilon=0.1, m=2, n=1)
        base[field] = value
        with pytest.raises(ValueError, match=field):
            make_params(**base)


class TestObjectives:
    def test_sphere_values(self):
        f = sphere()
        assert f.evaluate(np.zeros(4)) == 0.0
        assert f.evaluate(np.array([3.0, 4.0])) == 25.0
        assert f.evaluate(np.array([-2.0])) == 4.0

    def test_sphere_plus_values(self):
        f = sphere_plus()
        assert f.evaluate(np.array([2.0])) == 4.0
        assert f.evaluate(np.array([0.0])) == 0.0
        assert f.evaluate(np.array([-0.5])) == np.inf

    def test_sphere_plus_dimension_guard(self):
        with pytest.raises(ValueError):
            sphere_plus().evaluate(np.array([1.0, 2.0]))

    @given(st.floats(min_value=0.0, max_value=1e100))
    def test_sphere_plus_agrees_with_sphere_on_nonnegatives(self, x):
        assert sphere_plus().evaluate(np.array([x])) == sphere().evaluate(np.array([x]))

    def test_counterexample_values(self):
        f = counterexample()
        assert f.evaluate(np.array([0.0])) == 0.0
        assert f.evaluate(np.array([1.0])) == 1.0
        assert f.evaluate(np.array([0.5])) == 2.0
        assert f.evaluate(np.array([-3.7])) == 2.0

    def test_batch_matches_scalar(self):
        X = np.array([[[0.0], [1.0], [0.5], [-0.25]]])
        for name in ("sphere", "sphere_plus", "counterexample"):
            f = get_objective(name)
            got = f.batch_evaluate(X)[0]
            want = [f.evaluate(x) for x in X[0]]
            assert got.tolist() == want

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            get_objective("rosenbrock")


class TestRngStream:
    def test_determinism(self):
        a = RngStream(42, trial=3).uniform(PURPOSE_R, 1, 0, 17)
        b = RngStream(42, trial=3).uniform(PURPOSE_R, 1, 0, 17)
        assert a == b

    def test_distinct_coordinates_differ(self):
        rng = RngStream(42)
        draws = {
            rng.uniform(p, i, j, t)
            for p in (PURPOSE_R, PURPOSE_S, PURPOSE_NOISE)
            for i in range(3) for j in range(2) for t in range(10)
        }
        assert len(draws) == 3 * 3 * 2 * 10  # no collisions in this sample

    def test_range(self):
        rng = RngStream(7)
        us = [rng.uniform(PURPOSE_R, 0, 0, t) for t in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)
        assert 0.4 < np.mean(us) < 0.6

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(0, 100),
           st.integers(0, 10), st.integers(0, 2**31))
    @settings(max_examples=200)
    def test_scalar_and_vector_paths_bit_identical(self, seed, trial, particle, dim, step):
        scalar = RngStream(seed, trial=trial).uniform(PURPOSE_S, particle, dim, step)
        base = stream_base(seed, PURPOSE_S, trials=1, m=particle + 1, n=dim + 1,
                           trial_offset=trial)
        assert step_uniform(base, step)[0, particle, dim] == scalar

    def test_trial_offset_matches_trial_index(self):
        base_a = stream_base(5, PURPOSE_R, trials=4, m=2, n=1, trial_offset=10)
        base_b = stream_base(5, PURPOSE_R, trials=14, m=2, n=1)
        assert np.array_equal(step_uniform(base_a, 3), step_uniform(base_b, 3)[10:])


class TestMonotoneTransform:
    def test_optimum_and_values_transform(self):
        f = monotone_transform(sphere(), lambda y: 8.0 * y)
        assert f.optimum_value == 0.0
        assert f.evaluate(np.array([3.0, 4.0])) == 200.0

    def test_infinity_maps_to_infinity(self):
        f = monotone_transform(sphere_plus(), lambda y: 8.0 * y)
        assert f.evaluate(np.array([-1.0])) == np.inf

    def test_trajectories_identical_under_exact_scaling(self):
        # comparison-based invariance: scaling by a power of two is exact in
        # floating point, so every best-update decision is unchanged
        from swarmlab import engine

        params = make_params(0.6, 1.4, 1.6, 0.02, 1, 1e-6, 4, 2)
        f = sphere()
        g = monotone_transform(f, lambda y: 8.0 * y)
        s1 = engine.init_swarm(params, f, 11)
        s2 = engine.init_swarm(params, g, 11)
        for _ in range(100):
            engine.step(s1)
            engine.step(s2)
        assert np.array_equal(s1.X, s2.X)
        assert np.array_equal(s1.V, s2.V)
        assert np.array_equal(s1.P, s2.P)

    def test_trajectories_identical_under_nonlinear_transform(self):
        # the three-valued objective has well-separated values, so any strictly
        # increasing transform keeps the ordering exactly
        from swarmlab import engine

        params = make_params(0.4, 1.5, 1.5, 0.0, 1, 1e-6, 2, 1)
        f = counterexample()
        g = monotone_transform(f, lambda y: 10.0 ** y)
        s1 = engine.init_swarm_explicit(params, f, 23, [0.0, 1.0], [0.0, 0.0])
        s2 = engine.init_swarm_explicit(params, g, 23, [0.0, 1.0], [0.0, 0.0])
        for _ in range(200):
            engine.step(s1)
            engine.step(s2)
        assert np.array_equal(s1.X, s2.X)
        assert np.array_equal(s1.P, s2.P)


# zeros, subnormals, squares that underflow or overflow, infinities
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1e-160, -1e-170, 1e154, -1.4e154, 1e200, -1.7976931348623157e308,
                     np.inf, -np.inf, 1.0, -1.0, 0.5])


def _contract_inputs(n, rng):
    """Random (k, n) inputs over many magnitudes plus every special value in
    every coordinate."""
    scale = 10.0 ** rng.uniform(-200, 200, (4000, n))
    X = np.concatenate([rng.normal(size=(4000, n)) * scale,
                        rng.choice(_SPECIAL, size=(4000, n))])
    return X


class TestObjectiveContract:
    # the hit tests read the global-best value alone; that rests on every
    # value being >= the optimum value (+inf allowed, no NaN)
    @pytest.mark.parametrize("name, f, dims", [
        ("sphere", sphere(), (1, 2, 3, 8)),
        ("sphere_plus", sphere_plus(), (1,)),
        ("counterexample", counterexample(), (1,)),
        ("sqrt(sphere)", monotone_transform(sphere(), lambda y: np.sqrt(y) - 2.0), (1, 3)),
        ("10^counterexample", monotone_transform(counterexample(), lambda y: 10.0 ** y), (1,)),
    ])
    def test_no_value_below_the_optimum_value(self, name, f, dims):
        rng = np.random.default_rng(len(name))
        for n in dims:
            X = _contract_inputs(n, rng)
            with np.errstate(over="ignore"):
                values = f.batch_evaluate(X)
                scalar = [f.evaluate(x) for x in X[::97]]
            assert values.shape == (len(X),)
            assert not np.isnan(values).any()
            assert (values >= f.optimum_value).all()
            assert (values == f.optimum_value).any()
            assert all(v >= f.optimum_value for v in scalar)


class TestSphereBatch:
    def test_one_dimension_is_the_sum_bit_for_bit(self):
        rng = np.random.default_rng(1)
        specials = np.concatenate([_SPECIAL, [np.nan, -np.nan, 1e-162, 1.5e-154]])
        x = np.concatenate([specials, rng.normal(size=500) * 10.0 ** rng.uniform(-200, 200, 500)])
        # (k, 1), (trials, m, 1) and one length-1 vector
        for X in (x[:, None], x[:510].reshape(-1, 3, 1), x[:1]):
            with np.errstate(over="ignore", invalid="ignore"):
                got = core._sphere_batch(X)
                want = np.sum(X * X, axis=-1)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        with np.errstate(over="ignore"):
            assert np.isinf(core._sphere_batch(np.array([[1e200]])))[0]

    def test_eight_dimensions_keep_numpy_pairwise_sum(self):
        # from n = 8 numpy sums pairwise, which a left-to-right sum does not
        # reproduce; the objective must keep numpy's order there
        rng = np.random.default_rng(8)
        X = rng.normal(size=(2000, 8)) * 10.0 ** rng.uniform(-4, 4, (2000, 8))
        want = np.sum(X * X, axis=-1)
        left_to_right = np.array([sum(row) for row in (X * X).tolist()])
        assert (want != left_to_right).any()
        assert core._sphere_batch(X).tobytes() == want.tobytes()
