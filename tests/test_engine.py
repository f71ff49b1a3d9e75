import numpy as np
import pytest

from swarmlab import batch, engine
from swarmlab.core import (
    PURPOSE_NOISE,
    PURPOSE_R,
    PURPOSE_S,
    RngStream,
    counterexample,
    make_params,
    monotone_transform,
    sphere,
    sphere_plus,
    stream_base,
    step_uniform,
)

from scalar_reference import ref_explicit, ref_init, ref_step


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

    def test_nan_position_rejected(self):
        # a NaN position's value would be NaN, which no objective may return;
        # an infinite position or a non-finite velocity turns into NaN on the
        # first step, which a run would report as censoring
        for bad in (np.nan, np.inf, -np.inf):
            for X0, V0 in (([0.5, bad], [0.0, 0.0]), ([0.5, 0.2], [bad, 0.0])):
                with pytest.raises(ValueError, match="must be finite"):
                    engine.init_swarm_explicit(_params(m=2), sphere(), 0, X0, V0)

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

    def test_hit_leaves_the_swarm_in_its_hit_state(self):
        params = _params(m=3, delta=0.05, epsilon=0.005)
        s = engine.init_swarm(params, sphere(), 33, trial=5)
        r = engine.run_until_hit(s, 30_000)
        assert r.hit and s.t > 0
        assert s.trials == 1 and s.eval_count == r.evals_at_hit
        assert s.fG[0] == r.final_gbest_value

    def test_trace_rows_schema(self):
        params = _params(m=2, n=2, epsilon=1e-9)
        s = engine.init_swarm(params, sphere(), 2)
        r = engine.run_until_hit(s, 20, trace_stride=1)
        assert engine.TRAJECTORY_HEADER == "t,particle,dim,x,v,p,g,f_g"
        # (1 init + 9 steps) * m * n rows
        assert len(r.trace) == 10 * 2 * 2
        assert all(len(row) == 8 for row in r.trace)
        assert all(isinstance(row[3], float) for row in r.trace)


def _check_draw_blocks(phi1, phi2):
    """Draw blocks of 3 steps (800 x 3 x 2 elements), so 10 steps cross 3
    blocks: each block against the hashed draws scaled by its weight, zero
    signs included, and the sampled trials against the scalar reference."""
    params = make_params(0.4, phi1, phi2, 0.01, 1, 1e-4, 3, 2)
    f = sphere()
    seed, trials = 31, 800
    sw = batch.BatchSwarm(params, f, trials=trials, master_seed=seed)
    assert sw._block_steps == 3
    # a zero weight's stream is not hashed, so the swarm holds no base for it
    base_r, base_s = (stream_base(seed, purpose, trials, params.m, params.n)
                      for purpose in (PURPOSE_R, PURPOSE_S))
    sampled = [0, 1, 417, 799]
    rngs = {k: RngStream(seed, trial=k) for k in sampled}
    states = {k: ref_init(params, f, rngs[k]) for k in sampled}
    for t in range(10):
        R, S, D = sw._draws()   # R and S come scaled by phi1 and phi2
        for block, phi, base in ((R, phi1, base_r), (S, phi2, base_s)):
            want = phi * step_uniform(base, t)
            assert block.shape == want.shape
            assert np.array_equal(block, want)
            assert np.array_equal(np.signbit(block), np.signbit(want))
        assert np.array_equal(D, 0.01 * (step_uniform(sw._base_d, t) - 0.5))
        sw.step()
        for k in sampled:
            states[k] = ref_step(states[k], params, f, rngs[k])
            assert np.array_equal(states[k].positions, sw.X[k])
            assert np.array_equal(np.signbit(states[k].velocities), np.signbit(sw.V[k]))
            assert np.array_equal(states[k].velocities, sw.V[k])
            assert np.array_equal(states[k].pbest_values, sw.fP[k])
            assert np.array_equal(states[k].gbest_position, sw.G[k])
    assert sw._block_start == 9


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
        _check_draw_blocks(1.5, 1.5)

    @pytest.mark.parametrize("phi1, phi2", [
        (0.0, 1.5), (-0.0, 1.5), (1.5, 0.0), (1.5, -0.0), (0.0, -0.0),
    ])
    def test_zero_weight_draw_blocks_cross_boundaries_bitwise(self, phi1, phi2):
        # a zero weight's block is hashed from no draw and must carry its sign
        _check_draw_blocks(phi1, phi2)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_zero_weights_keep_the_multiply_on_an_infinite_start(self):
        # with phi1 = phi2 = 0 the attraction terms are 0 * (P - X) and
        # 0 * (G - X): NaN at an infinite position (P - inf, G - inf), and
        # +0.0 that turns omega * V = -0.0 into +0.0 in trial 2.  Dropping the
        # terms would leave omega * V, finite and -0.0 there.  An explicit
        # start must be finite, so trials 0 and 1 reach +-inf by overflow:
        # X_1 = 1.7e308 + 0.5 * 1e308
        params = make_params(0.5, 0.0, 0.0, 0.0, 1, 1e-12, 2, 1)
        f = sphere()
        X0 = np.array([[[1.7e308], [0.3]], [[-1.7e308], [0.2]], [[0.4], [0.0]]])
        V0 = np.array([[[1e308], [-0.0]], [[-1e308], [0.0]], [[-0.0], [-0.0]]])
        seed, trials = 6, len(X0)
        sw = batch.BatchSwarm(params, f, trials, seed, init="explicit",
                              positions=X0, velocities=V0)
        rngs = [RngStream(seed, trial=k) for k in range(trials)]
        states = [ref_explicit(f, X0[k], V0[k]) for k in range(trials)]
        for _ in range(4):
            sw.step()
            for k in range(trials):
                states[k] = ref_step(states[k], params, f, rngs[k])
                for want, got in ((states[k].positions, sw.X[k]),
                                  (states[k].velocities, sw.V[k])):
                    assert np.array_equal(want, got, equal_nan=True)
                    num = ~np.isnan(want)
                    assert np.array_equal(np.signbit(want[num]), np.signbit(got[num]))
                assert np.array_equal(states[k].pbest_values, sw.fP[k])
        assert np.isnan(sw.V[:2, 0, 0]).all() and np.isnan(sw.X[:2, 0, 0]).all()
        assert (sw.V[2] == 0.0).all() and not np.signbit(sw.V[2]).any()


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
            want_values = full.step()
            got_values = part.step()   # the fresh values of the rows kept so far
            assert np.array_equal(got_values, want_values[rows] if t >= 2 else want_values)
            if t == 1:   # mid-block: steps 0-2 were hashed together
                part.keep(rows)
                assert part.trials == 3 and part._block_steps == 2 ** 14 // 18
            for name in ("X", "V", "P", "fP", "G", "fG", "improved"):
                want = getattr(full, name)
                assert np.array_equal(getattr(part, name), want[rows] if t >= 1 else want)


def _replay_old_hit_rule(params, f, state, rng, budget, radius):
    """(evals at the hit or -1, final global-best value, whether a particle
    came within `radius` of the origin) of one scalar reference run under the
    rule any(|values - opt| < epsilon), applied to every sweep's fresh values,
    the initial sweep included."""
    m, opt = params.m, f.optimum_value
    evals, entered = m, False
    while True:
        entered |= any(np.sum(x * x) <= radius ** 2 for x in state.positions)
        values = np.array([f.evaluate(x) for x in state.positions])
        if np.any(np.abs(values - opt) < params.epsilon):
            return evals, state.gbest_value, entered
        if evals + m > budget:
            return -1, state.gbest_value, entered
        state = ref_step(state, params, f, rng)
        evals += m


def _check_hit_rule(params, f, trials, budget, seed, nonneg=False, X0=None, V0=None,
                    radius=0.1):
    """run_fht_batch and run_until_hit against the scalar replay; returns the
    replayed hit evals and position-ball entries."""
    explicit = X0 is not None
    init = "explicit" if explicit else "random"
    full = batch.run_fht_batch(params, f, trials, budget, seed, init=init,
                               positions=X0, velocities=V0, require_nonneg_gbest=nonneg,
                               position_ball_radius=radius)
    want = []
    for k in range(trials):
        rng = RngStream(seed, trial=k)
        if explicit:
            state = ref_explicit(f, X0[k], V0[k])
            one = batch.BatchSwarm(params, f, 1, seed, k, init="explicit",
                                   positions=X0[k], velocities=V0[k])
        else:
            attempt = 0
            state = ref_init(params, f, rng)
            while nonneg and not (state.positions >= 0).any():
                attempt += 1
                state = ref_init(params, f, rng, attempt=attempt)
            one = engine.init_swarm(params, f, seed, trial=k, require_nonneg_gbest=nonneg)
        evals, gbest, entered = _replay_old_hit_rule(params, f, state, rng, budget, radius)
        r = engine.run_until_hit(one, budget)
        assert (full.hit_evals[k], full.final_gbest_value[k]) == (evals, gbest)
        assert full.entered_position_ball[k] == entered
        assert (r.evals_at_hit if r.hit else -1, r.final_gbest_value) == (evals, gbest)
        want.append((evals, entered))
    evals, entered = np.array(want).T
    return evals, entered.astype(bool)


class TestStepUntilHit:
    def test_observer_sees_every_step_and_the_last_hits_stay(self):
        # epsilon 0.01 on sphere: every trial of 12 hits while stepping, well
        # inside the budget, and one hits last
        params = _params(m=2, n=2, delta=0.01, epsilon=0.01)
        swarm = batch.BatchSwarm(params, sphere(), 12, 8)
        seen = []
        res = batch.step_until_hit(swarm, 10_000,
                                   observe=lambda s: seen.append((s.t, s.trials)))
        assert (res.hit_evals > 2).all()
        assert [t for t, _ in seen] == list(range(1, swarm.t + 1))
        # trials leave the batch as they hit, except the last to hit
        widths = [w for _, w in seen]
        assert widths == sorted(widths, reverse=True) and widths[0] == 12
        last = res.hit_evals == res.hit_evals.max()
        assert swarm.trials == last.sum() and swarm.eval_count == res.hit_evals.max()
        assert np.array_equal(swarm.fG, res.final_gbest_value[last])


class TestHitRule:
    # hits are read off the global-best value; the replays apply the rule on
    # every fresh value, which agrees because no value is below the optimum
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name, f, nonneg, n, epsilon, radius", [
        ("sphere", sphere(), False, 2, 0.05, 0.1),
        ("sphere_plus", sphere_plus(), True, 1, 0.004, 0.05),
        ("sqrt(sphere) - 2", monotone_transform(sphere(), lambda y: np.sqrt(y) - 2.0),
         False, 1, 0.02, 0.01),
    ])
    def test_random_starts_match_the_scalar_replay(self, m, name, f, nonneg, n, epsilon,
                                                   radius):
        # phi1 != phi2, so the scaled draw blocks must keep the two apart
        params = make_params(0.6, 1.3, 1.7, 0.01, 1, epsilon, m, n)
        budget = 8 * m
        evals, entered = _check_hit_rule(params, f, 40, budget, 70 + m, nonneg=nonneg,
                                         radius=radius)
        assert (evals == m).any()                        # hits at the initial sweep
        assert ((evals > m) & (evals <= budget)).any()   # hits while stepping
        assert (evals == -1).any()                       # censored
        assert entered[evals > 0].any() and not entered.all()

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("phi1, phi2", [(0.0, 1.7), (-0.0, 1.7), (1.3, 0.0)])
    def test_zero_weight_matches_the_scalar_replay(self, m, phi1, phi2):
        # a zero weight's draw block is filled, not hashed; trials hit at
        # several steps of one draw block, so dropping them cuts that block
        params = make_params(0.6, phi1, phi2, 0.01, 1, 0.05, m, 2)
        budget = 8 * m
        assert batch.BatchSwarm(params, sphere(), 40, 80 + m)._block_steps > budget // m
        evals, entered = _check_hit_rule(params, sphere(), 40, budget, 80 + m)
        assert (evals == m).any() and (evals == -1).any()
        assert len(set(evals[evals > m].tolist())) >= 4
        assert entered.any()

    @pytest.mark.parametrize("name, f", [
        ("sphere", sphere()),
        ("sqrt(sphere) + 1", monotone_transform(sphere(), lambda y: np.sqrt(y) + 1.0)),
    ])
    def test_a_value_exactly_epsilon_above_the_optimum_is_no_hit(self, name, f):
        # at x = 0.5 both objectives are exactly epsilon above their optimum;
        # a swarm at rest there never moves
        epsilon = f.evaluate(np.array([0.5])) - f.optimum_value
        assert epsilon in (0.25, 0.5)
        params = make_params(0.5, 1.5, 1.5, 0.0, 1, epsilon, 2, 1)
        rng = np.random.default_rng(3)
        X0 = rng.uniform(-1, 1, (30, 2, 1))
        V0 = rng.uniform(-0.2, 0.2, (30, 2, 1))
        X0[0], V0[0] = 0.5, 0.0          # at the boundary and at rest
        X0[1] = [[0.5], [0.25]]          # hit at the initial sweep
        evals, _ = _check_hit_rule(params, f, 30, 40, 11, X0=X0, V0=V0)
        assert evals[0] == -1 and evals[1] == 2
        assert (evals > 2).any()


@pytest.mark.parametrize("trials", [1, 30])
def test_counterexample_runner_counts_match_a_stepped_swarm(trials):
    # on sphere the follower improves often, so the counts are not all zero
    # (with one trial, one at a time); the runner reads them off
    # `BatchSwarm.improved`, this recount off fP
    params = make_params(0.4, 1.5, 1.5, 0.0, 1, 1e-2, 2, 1)
    f = sphere()
    steps, window, seed = 200, 80, 12
    res = batch.run_counterexample_batch(params, f, trials, steps, window, seed)
    sw = batch.BatchSwarm(params, f, trials, seed, init="explicit",
                          positions=np.array([[0.0], [1.0]]), velocities=np.zeros((2, 1)))
    updates = np.zeros((trials, 2), dtype=np.int64)
    s1, s2 = [0.0] * trials, [0.0] * trials
    for t in range(steps):
        before = sw.fP.copy()
        sw.step()
        updates += sw.fP < before
        if t >= steps - window:
            for k, x in enumerate(sw.X[:, 1, 0].tolist()):
                s1[k] += x
                s2[k] += x * x
    assert np.array_equal(res.pbest_updates, updates)
    assert updates[:, 0].sum() == 0 and (updates[:, 1] > 1).all()
    mean = np.array(s1) / window
    assert res.window_var.tobytes() == (np.array(s2) / window - mean * mean).tobytes()


def test_fixed_attractor_runs_report_the_start_at_t0():
    # the chain yields its start as t = 0, so a run of zero steps has a
    # final step to report (before, the ensemble returned no snapshot)
    params = make_params(0.4, 1.3, 1.7, 0.01, 0.5, 1e-2, 1, 1)
    start = batch.run_fixed_attractor_ensemble(params, 0.3, -0.7, 50, 0, 4)
    assert list(start) == [0]
    center = (1.3 * 0.3 + 1.7 * -0.7) / 3.0
    assert (np.abs(start[0] - center) <= 0.5).all()
    later = batch.run_fixed_attractor_ensemble(params, 0.3, -0.7, 50, 6, 4, checkpoints=(0, 3))
    assert sorted(later) == [0, 3, 6] and np.array_equal(later[0], start[0])
    counts = batch.run_improvement_counts(params, 0.3, 50, 0, 0, 4, 1e-5)
    assert counts.samples == counts.compound_hits == counts.y_tail_hits == 0
    assert np.allclose(counts.final_positions - 0.3, start[0] - center, rtol=0, atol=1e-15)


def test_fixed_attractor_ensemble_rejects_checkpoints_outside_the_run():
    params = make_params(0.4, 1.3, 1.7, 0.01, 0.5, 1e-2, 1, 1)
    with pytest.raises(ValueError, match=r"\[0, 10\], got \[-1, 20\]"):
        batch.run_fixed_attractor_ensemble(params, 0.3, -0.7, 5, 10, 4,
                                           checkpoints=(3, 20, -1))
