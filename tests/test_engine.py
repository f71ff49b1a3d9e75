import numpy as np
import pytest

from swarmlab import batch, engine
from swarmlab.core import (
    PURPOSE_NOISE,
    RngStream,
    counterexample,
    make_params,
    sphere,
    sphere_plus,
    stream_base,
    step_uniform,
)

from scalar_reference import ref_init, ref_step


def _params(**kw):
    base = dict(omega=0.4, phi1=1.5, phi2=1.5, delta=0.0, alpha=1.0,
                epsilon=0.01, m=3, n=1)
    base.update(kw)
    return make_params(**base)


def _explicit(positions, velocities, f, seed=0, **kw):
    params = _params(m=len(positions), **kw)
    return engine.init_swarm_explicit(params, f, seed, positions, velocities)


class TestInit:
    def test_random_init_support_and_bests(self):
        params = _params(m=3, alpha=1.0)
        s = engine.init_swarm(params, sphere(), 1)
        assert np.all(np.abs(s.X) <= 1.0)
        assert np.all(np.abs(s.V) <= 1.0)
        assert np.array_equal(s.P, s.X)
        assert s.eval_count == 3 and s.t == 0
        assert s.fG[0] == s.fP[0].min()

    def test_explicit_counterexample_config(self):
        s = _explicit([0.0, 1.0], [0.0, 0.0], counterexample())
        assert s.G[0, 0] == 0.0 and s.fG[0] == 0.0
        assert s.P[0, :, 0].tolist() == [0.0, 1.0]

    def test_explicit_two_particle_sphere(self):
        s = _explicit([184.0, 185.0], [-1.0, -1.0], sphere())
        assert s.G[0, 0] == 184.0

    def test_explicit_single(self):
        s = _explicit([5.0], [-1.0], sphere())
        assert s.G[0, 0] == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            engine.init_swarm_explicit(_params(m=2), sphere(), 0, [1.0, 2.0], [0.0])

    def test_argmin_tie_breaks_to_lowest_index(self):
        s = _explicit([2.0, -2.0, 3.0], [0.0, 0.0, 0.0], sphere())
        # particles 0 and 1 tie at value 4; index 0 wins
        assert s.G[0, 0] == 2.0


class TestStep:
    def test_self_attracting_particle_reduces_to_inertia(self):
        s = _explicit([0.9], [-0.05], sphere(), seed=3, omega=0.5)
        engine.step(s)
        assert s.V[0, 0, 0] == 0.5 * -0.05
        assert s.X[0, 0, 0] == 0.9 + 0.5 * -0.05

    def test_all_zero_coefficients_freeze_state(self):
        s = _explicit([0.3, 0.7], [0.0, 0.0], sphere(), seed=3,
                      omega=0.0, phi1=0.0, phi2=0.0)
        X, V = s.X.copy(), s.V.copy()
        assert engine.step(s) is s
        assert np.array_equal(s.X, X)
        assert np.array_equal(s.V, V)
        assert s.t == 1 and s.eval_count == 4

    def test_monotone_bests_and_counters(self):
        params = _params(m=4, delta=0.05, epsilon=1e-12)
        s = engine.init_swarm(params, sphere(), 17)
        for _ in range(200):
            fP, fG, evals = s.fP.copy(), s.fG.copy(), s.eval_count
            engine.step(s)
            assert np.all(s.fP <= fP)
            assert s.fG[0] <= fG[0]
            assert s.fG[0] == s.fP[0].min()
            assert s.eval_count == evals + params.m

    def test_pbest_requires_strict_improvement(self):
        # frozen configuration: particle 2's value stays 2 > 1, never updates
        s = _explicit([0.0, 1.0], [0.0, 0.0], counterexample(), seed=5)
        for _ in range(50):
            engine.step(s)
        assert s.P[0, 1, 0] == 1.0
        assert s.fP[0, 1] == 1.0

    def test_noise_term_is_exactly_additive(self):
        basic = _params(m=2, delta=0.0)
        noisy = _params(m=2, delta=0.01)
        f = sphere()
        a = engine.step(engine.init_swarm(basic, f, 9))
        b = engine.step(engine.init_swarm(noisy, f, 9))
        rng = RngStream(9, trial=0)
        noise = np.array([[0.01 * (rng.uniform(PURPOSE_NOISE, i, j, 0) - 0.5)
                           for j in range(1)] for i in range(2)])
        assert np.array_equal(b.V[0], a.V[0] + noise)

    def test_zero_delta_run_unaffected_by_noise_stream_evaluation(self):
        # counter-based draws are pure functions of coordinates, so evaluating
        # the noise stream alongside a delta = 0 run changes nothing
        params = _params(m=3, delta=0.0)
        f = sphere()
        sw1 = batch.BatchSwarm(params, f, trials=4, master_seed=21)
        sw2 = batch.BatchSwarm(params, f, trials=4, master_seed=21)
        sw2._base_d = stream_base(21, PURPOSE_NOISE, 4, params.m, params.n)
        for _ in range(100):
            sw1.step()
            sw2.step()  # adds delta*(u - 0.5) == 0.0 exactly
        assert np.array_equal(sw1.X, sw2.X)
        assert np.array_equal(sw1.V, sw2.V)


class TestRunUntilHit:
    def test_initial_position_inside_ball_hits_with_m_evals(self):
        s = _explicit([0.0], [0.0], sphere(), seed=1, epsilon=0.5)
        r = engine.run_until_hit(s, 1000)
        assert r.hit and r.evals_at_hit == 1 and r.outcome == "hit"

    def test_budget_censoring(self):
        s = _explicit([0.9], [-0.05], sphere(), seed=1, omega=0.5, epsilon=0.5)
        r = engine.run_until_hit(s, 500)
        assert not r.hit and r.outcome == "censored" and r.evals == 500
        assert r.final_gbest_value == pytest.approx(0.85**2, rel=1e-9)
        assert type(r.final_gbest_value) is float

    def test_budget_below_m_rejected(self):
        s = engine.init_swarm(_params(m=3), sphere(), 1)
        with pytest.raises(ValueError):
            engine.run_until_hit(s, 2)

    def test_eval_accounting_multiple_of_m(self):
        params = _params(m=3, delta=0.05, epsilon=0.05)
        s = engine.init_swarm(params, sphere(), 33, trial=5)
        r = engine.run_until_hit(s, 30_000)
        assert r.hit and r.evals_at_hit % 3 == 0 and r.evals_at_hit <= 30_000

    def test_trace_rows_schema(self):
        params = _params(m=2, n=2, epsilon=1e-9)
        s = engine.init_swarm(params, sphere(), 2)
        r = engine.run_until_hit(s, 20, trace_stride=1)
        assert engine.TRAJECTORY_HEADER == "t,particle,dim,x,v,p,g,f_g"
        # (1 init + 9 steps) * m * n rows
        assert len(r.trace) == 10 * 2 * 2
        assert all(len(row) == 8 for row in r.trace)
        assert all(isinstance(row[3], float) for row in r.trace)


class TestBatchEquivalence:
    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_engine_and_batch_bitwise_equal(self, delta):
        # the kernel against the scalar reference, one RngStream draw at a time
        params = make_params(0.4, 1.5, 1.5, delta, 1, 1e-4, 3, 2)
        f = sphere()
        seed = 99
        trials = 5
        sw = batch.BatchSwarm(params, f, trials=trials, master_seed=seed)
        rngs = [RngStream(seed, trial=k) for k in range(trials)]
        states = [ref_init(params, f, rngs[k]) for k in range(trials)]
        for k in range(trials):
            assert np.array_equal(states[k].positions, sw.X[k])
            assert np.array_equal(states[k].velocities, sw.V[k])
        for _ in range(60):
            sw.step()
            states = [ref_step(states[k], params, f, rngs[k]) for k in range(trials)]
            for k in range(trials):
                assert np.array_equal(states[k].positions, sw.X[k])
                assert np.array_equal(states[k].pbest_values, sw.fP[k])
                assert states[k].gbest_value == sw.fG[k]

    def test_rejection_init_matches_engine_attempts(self):
        params = make_params(0.4, 1.5, 1.5, 0.01, 1, 1e-4, 2, 1)
        f = sphere()
        seed = 1234
        sw = batch.BatchSwarm(params, f, trials=40, master_seed=seed,
                              require_nonneg_gbest=True)
        assert (sw.X >= 0).any(axis=(1, 2)).all()
        for k in range(40):
            attempt = 0
            while True:
                s = ref_init(params, f, RngStream(seed, trial=k), attempt=attempt)
                if (s.positions >= 0).any():
                    break
                attempt += 1
            assert np.array_equal(s.positions, sw.X[k])

    def test_draw_blocks_cross_boundaries_bitwise(self):
        # 800 x 3 x 2 elements: blocks of 3 steps, so 10 steps cross 3 blocks
        params = make_params(0.4, 1.5, 1.5, 0.01, 1, 1e-4, 3, 2)
        f = sphere()
        seed, trials = 31, 800
        sw = batch.BatchSwarm(params, f, trials=trials, master_seed=seed)
        assert sw._block_steps == 3
        sampled = [0, 1, 417, 799]
        rngs = {k: RngStream(seed, trial=k) for k in sampled}
        states = {k: ref_init(params, f, rngs[k]) for k in sampled}
        for t in range(10):
            R, S, D = sw._draws()
            assert np.array_equal(R, step_uniform(sw._base_r, t))
            assert np.array_equal(S, step_uniform(sw._base_s, t))
            assert np.array_equal(D, 0.01 * (step_uniform(sw._base_d, t) - 0.5))
            sw.step()
            for k in sampled:
                states[k] = ref_step(states[k], params, f, rngs[k])
                assert np.array_equal(states[k].positions, sw.X[k])
                assert np.array_equal(states[k].velocities, sw.V[k])
                assert np.array_equal(states[k].pbest_values, sw.fP[k])
                assert np.array_equal(states[k].gbest_position, sw.G[k])
        assert sw._block_start == 9


def test_one_trial_swarm_is_trial_zero_of_the_batch():
    # draw blocks of 2730 and 390 steps give the same trajectory
    params = _params(m=3, n=2, delta=0.01, epsilon=1e-9)
    f = sphere()
    one = engine.init_swarm(params, f, 4)
    many = batch.BatchSwarm(params, f, trials=7, master_seed=4)
    for _ in range(40):
        engine.step(one)
        many.step()
    assert np.array_equal(one.X[0], many.X[0])
    assert np.array_equal(one.P[0], many.P[0])
    assert one.fG[0] == many.fG[0]


class TestGlobalBestSweep:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_argmin_and_gather_bitwise(self, m):
        rng = np.random.default_rng(m)
        trials, n = 600, 2
        P = rng.normal(size=(trials, m, n))
        # a few levels force ties (-0.0 ties with 0.0); the first rows are all
        # +inf, as a sphere_plus start with every particle negative
        levels = np.array([-0.0, 0.0, 1.0, 2.5, np.inf])
        fP = np.where(rng.random((trials, m)) < 0.6,
                      levels[rng.integers(0, len(levels), (trials, m))],
                      rng.normal(size=(trials, m)))
        fP[:40] = np.inf
        P_before, fP_before = P.copy(), fP.copy()
        G, fG = batch._global_best(P, fP)
        rows, gi = np.arange(trials), np.argmin(fP, axis=1)
        assert G.shape == (trials, n) and fG.shape == (trials,)
        assert G.tobytes() == P[rows, gi].tobytes()
        assert fG.tobytes() == fP[rows, gi].tobytes()
        assert P.tobytes() == P_before.tobytes() and fP.tobytes() == fP_before.tobytes()
        tied_rows = 0
        for k in range(trials):
            lowest = np.flatnonzero(fP[k] == fP[k].min())
            tied_rows += len(lowest) > 1
            assert G[k].tobytes() == P[k, lowest[0]].tobytes()
        assert tied_rows >= (40 if m > 1 else 0)


class TestCompaction:
    @pytest.mark.parametrize("n, objective, nonneg, epsilon, budget", [
        (3, sphere, False, 1e-3, 250),        # 300 x 2 x 3: blocks of 9 steps
        (1, sphere_plus, True, 1e-4, 40),     # 300 x 2 x 1: blocks of 27 steps
    ])
    def test_fht_batch_matches_one_trial_runs(self, n, objective, nonneg, epsilon, budget):
        # hits land mid-block, so dropping finished trials cuts pending draw
        # blocks; every trial must still run as it does on its own
        params = make_params(0.6, 1.5, 1.5, 0.01, 1, epsilon, 2, n)
        f = objective()
        seed, trials = 21, 300
        assert batch.BatchSwarm(params, f, trials, seed)._block_steps == 27 // n
        full = batch.run_fht_batch(params, f, trials, budget, seed,
                                   require_nonneg_gbest=nonneg, position_ball_radius=0.02)
        hits = full.hit_evals[full.hit_evals >= 0]
        assert len(set(hits.tolist())) > 10 and len(hits) < trials
        for k in range(trials):
            one = batch.run_fht_batch(params, f, 1, budget, seed, trial_offset=k,
                                      require_nonneg_gbest=nonneg, position_ball_radius=0.02)
            assert one.hit_evals[0] == full.hit_evals[k]
            assert one.final_gbest_value[0] == full.final_gbest_value[k]
            assert one.entered_position_ball[0] == full.entered_position_ball[k]

    def test_keep_gathers_rows_and_resizes_blocks(self):
        params = make_params(0.4, 1.5, 1.5, 0.01, 1, 1e-4, 3, 2)
        f = sphere()
        full = batch.BatchSwarm(params, f, trials=800, master_seed=31)
        part = batch.BatchSwarm(params, f, trials=800, master_seed=31)
        rows = [799, 3, 417]
        for t in range(7):
            full.step()
            part.step()
            if t == 1:   # mid-block: steps 0-2 were hashed together
                part.keep(rows)
                assert part.trials == 3 and part._block_steps == 2 ** 14 // 18
        for name in ("X", "V", "P", "fP", "G", "fG", "values"):
            assert np.array_equal(getattr(part, name), getattr(full, name)[rows])
