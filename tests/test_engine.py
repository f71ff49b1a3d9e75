import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmlab import batch, cli, engine
from swarmlab.core import (
    PURPOSE_NOISE,
    PURPOSE_R,
    PURPOSE_S,
    counterexample,
    make_params,
    monotone_transform,
    sphere,
    sphere_plus,
    stream_base,
    step_uniform,
)

import scalar_reference as ref
from scalar_reference import NOISE, ref_explicit, ref_init, ref_step, trial_draws


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
        assert s.fG[0] == s.fP[:, 0].min()

    def test_explicit_counterexample_config(self):
        s = _explicit([0.0, 1.0], [0.0, 0.0], counterexample())
        assert s.G[0, 0] == 0.0 and s.fG[0] == 0.0
        assert s.P[:, 0, 0].tolist() == [0.0, 1.0]

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

    def test_explicit_start_without_a_nonnegative_position_rejected(self):
        # before, the rule was read only by the random redraw, so an explicit
        # start entirely below 0 ran on sphere_plus with an infinite global
        # best and every trial censored
        params = _params(m=3)
        start = dict(init="explicit", require_nonneg_gbest=True)
        with pytest.raises(ValueError, match="require_nonneg_gbest"):
            batch.BatchSwarm(params, sphere_plus(), 2, 0, positions=[-0.5, -0.3, -0.2],
                             velocities=[0.0, 0.0, 0.0], **start)
        X0 = np.array([[[-0.5], [0.0], [-0.2]], [[-0.5], [-0.3], [-0.2]]])
        with pytest.raises(ValueError, match="require_nonneg_gbest"):
            batch.BatchSwarm(params, sphere_plus(), 2, 0, positions=X0,
                             velocities=np.zeros_like(X0), **start)
        # one nonnegative position per trial is enough
        X0[1, 1, 0] = 0.3
        sw = batch.BatchSwarm(params, sphere_plus(), 2, 0, positions=X0,
                              velocities=np.zeros_like(X0), **start)
        assert sw.fG.tolist() == [0.0, 0.3 * 0.3]

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
            assert s.fG[0] == s.fP[:, 0].min()
            assert s.eval_count == evals + params.m

    def test_pbest_requires_strict_improvement(self):
        # frozen configuration: particle 2's value stays 2 > 1, never updates
        s = _explicit([0.0, 1.0], [0.0, 0.0], counterexample(), seed=5)
        for _ in range(50):
            engine.step(s)
        assert s.P[1, 0, 0] == 1.0
        assert s.fP[1, 0] == 1.0

    def test_noise_term_is_exactly_additive(self):
        basic = _params(m=2, delta=0.0)
        noisy = _params(m=2, delta=0.01)
        f = sphere()
        a = engine.step(engine.init_swarm(basic, f, 9))
        b = engine.step(engine.init_swarm(noisy, f, 9))
        draw = trial_draws(9, 0)
        noise = np.array([[0.01 * (draw(NOISE, i, j, 0) - 0.5)
                           for j in range(1)] for i in range(2)])
        assert np.array_equal(b.V[:, 0], a.V[:, 0] + noise)

    def test_zero_delta_run_unaffected_by_noise_stream_evaluation(self):
        # counter-based draws are pure functions of coordinates, so evaluating
        # the noise stream alongside a delta = 0 run changes nothing
        params = _params(m=3, delta=0.0)
        f = sphere()
        sw1 = batch.BatchSwarm(params, f, trials=4, master_seed=21)
        sw2 = batch.BatchSwarm(params, f, trials=4, master_seed=21)
        sw2._base_d = stream_base(21, PURPOSE_NOISE, 4, params.m, params.n).transpose(1, 0, 2)
        for _ in range(100):
            sw1.step()
            sw2.step()  # adds delta*(u - 0.5) == 0.0 exactly
        assert np.array_equal(sw1.X, sw2.X)
        assert np.array_equal(sw1.V, sw2.V)


class TestRunUntilHit:
    def test_initial_position_inside_ball_hits_with_m_evals(self):
        s = _explicit([0.0], [0.0], sphere(), seed=1, epsilon=0.5)
        r = engine.run_until_hit(s, 1000)
        assert r.hit_evals[0] == 1

    def test_budget_censoring(self):
        s = _explicit([0.9], [-0.05], sphere(), seed=1, omega=0.5, epsilon=0.5)
        r = engine.run_until_hit(s, 500)
        assert r.hit_evals[0] == -1 and s.eval_count == 500
        assert r.final_gbest_value[0] == pytest.approx(0.85**2, rel=1e-9)

    def test_budget_below_m_rejected(self):
        s = engine.init_swarm(_params(m=3), sphere(), 1)
        with pytest.raises(ValueError):
            engine.run_until_hit(s, 2)

    def test_eval_accounting_multiple_of_m(self):
        params = _params(m=3, delta=0.05, epsilon=0.05)
        s = batch.BatchSwarm(params, sphere(), 1, 33, 5)
        r = engine.run_until_hit(s, 30_000)
        assert 0 <= r.hit_evals[0] <= 30_000 and r.hit_evals[0] % 3 == 0

    def test_hit_leaves_the_swarm_in_its_hit_state(self):
        params = _params(m=3, delta=0.05, epsilon=0.005)
        s = batch.BatchSwarm(params, sphere(), 1, 33, 5)
        r = engine.run_until_hit(s, 30_000)
        assert r.hit_evals[0] >= 0 and s.t > 0
        assert s.trials == 1 and s.eval_count == r.hit_evals[0]
        assert s.fG[0] == r.final_gbest_value[0]


def _first_block_steps(sw):
    """Steps in the first draw block of a fresh swarm, which this hashes."""
    sw._draws()
    return sw._block_end


def _check_draw_blocks(phi1, phi2):
    """Draw blocks of 3 steps (800 x 3 x 2 elements), so 10 steps cross 3
    blocks: each block against the hashed draws scaled by its weight, zero
    signs included, and the sampled trials against the scalar reference."""
    params = make_params(0.4, phi1, phi2, 0.01, 1, 1e-4, 3, 2)
    f = sphere()
    seed, trials = 31, 800
    sw = batch.BatchSwarm(params, f, trials=trials, master_seed=seed)
    assert _first_block_steps(sw) == 3
    # a zero weight's stream is not hashed, so the swarm holds no base for it
    base_r, base_s = (stream_base(seed, purpose, trials, params.m, params.n)
                      for purpose in (PURPOSE_R, PURPOSE_S))
    sampled = [0, 1, 417, 799]
    draws = {k: trial_draws(seed, k) for k in sampled}
    states = {k: ref_init(params, ref.sphere, draws[k]) for k in sampled}
    for t in range(10):
        R, S, D = sw._draws()   # R and S come scaled by phi1 and phi2
        for block, phi, base in ((R, phi1, base_r), (S, phi2, base_s)):
            want = (phi * step_uniform(base, t)).transpose(1, 0, 2)
            # a zero weight's factor is the scalar weight, not a block
            assert np.shape(block) == (want.shape if phi else ())
            block = np.broadcast_to(block, want.shape)
            assert np.array_equal(block, want)
            assert np.array_equal(np.signbit(block), np.signbit(want))
        assert np.array_equal(D, 0.01 * (step_uniform(sw._base_d, t) - 0.5))
        sw.step()
        for k in sampled:
            states[k] = ref_step(states[k], params, ref.sphere, draws[k])
            assert np.array_equal(states[k].positions, sw.X[:, k])
            assert np.array_equal(np.signbit(states[k].velocities), np.signbit(sw.V[:, k]))
            assert np.array_equal(states[k].velocities, sw.V[:, k])
            assert np.array_equal(states[k].pbest_values, sw.fP[:, k])
            assert np.array_equal(states[k].gbest_position, sw.G[k])
    assert sw._block_start == 9


class TestBatchEquivalence:
    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_engine_and_batch_bitwise_equal(self, delta):
        # the kernel against the scalar reference, one reference draw at a time
        params = make_params(0.4, 1.5, 1.5, delta, 1, 1e-4, 3, 2)
        f = sphere()
        seed = 99
        trials = 5
        sw = batch.BatchSwarm(params, f, trials=trials, master_seed=seed)
        draws = [trial_draws(seed, k) for k in range(trials)]
        states = [ref_init(params, ref.sphere, draws[k]) for k in range(trials)]
        for k in range(trials):
            assert np.array_equal(states[k].positions, sw.X[:, k])
            assert np.array_equal(states[k].velocities, sw.V[:, k])
        for _ in range(60):
            sw.step()
            states = [ref_step(states[k], params, ref.sphere, draws[k]) for k in range(trials)]
            for k in range(trials):
                assert np.array_equal(states[k].positions, sw.X[:, k])
                assert np.array_equal(states[k].pbest_values, sw.fP[:, k])
                assert states[k].gbest_value == sw.fG[k]

    def test_rejection_init_matches_engine_attempts(self):
        params = make_params(0.4, 1.5, 1.5, 0.01, 1, 1e-4, 2, 1)
        f = sphere()
        seed = 1234
        sw = batch.BatchSwarm(params, f, trials=40, master_seed=seed,
                              require_nonneg_gbest=True)
        assert (sw.X >= 0).any(axis=(0, 2)).all()
        for k in range(40):
            attempt = 0
            while True:
                s = ref_init(params, ref.sphere, trial_draws(seed, k), attempt=attempt)
                if (s.positions >= 0).any():
                    break
                attempt += 1
            assert np.array_equal(s.positions, sw.X[:, k])

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
        draws = [trial_draws(seed, k) for k in range(trials)]
        states = [ref_explicit(ref.sphere, X0[k], V0[k]) for k in range(trials)]
        for _ in range(4):
            sw.step()
            for k in range(trials):
                states[k] = ref_step(states[k], params, ref.sphere, draws[k])
                for want, got in ((states[k].positions, sw.X[:, k]),
                                  (states[k].velocities, sw.V[:, k])):
                    assert np.array_equal(want, got, equal_nan=True)
                    num = ~np.isnan(want)
                    assert np.array_equal(np.signbit(want[num]), np.signbit(got[num]))
                assert np.array_equal(states[k].pbest_values, sw.fP[:, k])
        assert np.isnan(sw.V[0, :2, 0]).all() and np.isnan(sw.X[0, :2, 0]).all()
        assert (sw.V[:, 2] == 0.0).all() and not np.signbit(sw.V[:, 2]).any()


def test_one_trial_swarm_is_trial_zero_of_the_batch():
    # draw blocks of 2730 and 390 steps give the same trajectory
    params = _params(m=3, n=2, delta=0.01, epsilon=1e-9)
    f = sphere()
    one = engine.init_swarm(params, f, 4)
    many = batch.BatchSwarm(params, f, trials=7, master_seed=4)
    for _ in range(40):
        engine.step(one)
        many.step()
    assert np.array_equal(one.X[:, 0], many.X[:, 0])
    assert np.array_equal(one.P[:, 0], many.P[:, 0])
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
        G, fG = batch._global_best(P.transpose(1, 0, 2).copy(), fP.T.copy())
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
        assert _first_block_steps(batch.BatchSwarm(params, f, trials, seed)) == 27 // n
        full = batch.run_fht_batch(params, f, trials, budget, seed,
                                   require_nonneg_gbest=nonneg)
        hits = full.hit_evals[full.hit_evals >= 0]
        assert len(set(hits.tolist())) > 10 and len(hits) < trials
        for k in range(trials):
            one = batch.run_fht_batch(params, f, 1, budget, seed, trial_offset=k,
                                      require_nonneg_gbest=nonneg)
            assert one.hit_evals[0] == full.hit_evals[k]
            assert one.final_gbest_value[0] == full.final_gbest_value[k]

    def test_keep_gathers_rows_and_resizes_blocks(self):
        params = make_params(0.4, 1.5, 1.5, 0.01, 1, 1e-4, 3, 2)
        f = sphere()
        full = batch.BatchSwarm(params, f, trials=800, master_seed=31)
        part = batch.BatchSwarm(params, f, trials=800, master_seed=31)
        rows = [799, 3, 417]
        for t in range(7):
            want_values = full.step()
            got_values = part.step()   # the fresh values of the rows kept so far
            assert np.array_equal(got_values, want_values[:, rows] if t >= 2 else want_values)
            if t == 1:   # mid-block: steps 0-2 were hashed together
                part.keep(rows)
                assert part.trials == 3 and part._block_end == 3
            if t == 3:   # the next block, hashed at step 3, is sized for 3 rows
                assert (part._block_start, part._block_end) == (3, 3 + 2 ** 14 // 18)
            for name in ("X", "V", "P", "fP", "G", "fG", "improved"):
                want = getattr(full, name)
                if t >= 1:   # G and fG are (trials, ...), the rest particle-major
                    want = want[rows] if name in ("G", "fG") else want[:, rows]
                assert np.array_equal(getattr(part, name), want)


def _replay_old_hit_rule(params, opt, ref_f, state, draw, budget):
    """(evals at the hit or -1, final global-best value) of one scalar
    reference run of the reference objective `ref_f` under the rule
    any(|values - opt| < epsilon), applied to every sweep's fresh values, the
    initial sweep included."""
    m = params.m
    evals = m
    while True:
        values = np.array([ref_f(x) for x in state.positions])
        if np.any(np.abs(values - opt) < params.epsilon):
            return evals, state.gbest_value
        if evals + m > budget:
            return -1, state.gbest_value
        state = ref_step(state, params, ref_f, draw)
        evals += m


def _check_hit_rule(params, f, ref_f, trials, budget, seed, nonneg=False, X0=None,
                    V0=None):
    """run_fht_batch and run_until_hit on the objective `f` against the scalar
    replay on its reference `ref_f`; returns the replayed hit evals."""
    explicit = X0 is not None
    init = "explicit" if explicit else "random"
    full = batch.run_fht_batch(params, f, trials, budget, seed, init=init,
                               positions=X0, velocities=V0, require_nonneg_gbest=nonneg)
    want = []
    for k in range(trials):
        draw = trial_draws(seed, k)
        if explicit:
            state = ref_explicit(ref_f, X0[k], V0[k])
            one = batch.BatchSwarm(params, f, 1, seed, k, init="explicit",
                                   positions=X0[k], velocities=V0[k])
        else:
            attempt = 0
            state = ref_init(params, ref_f, draw)
            while nonneg and not (state.positions >= 0).any():
                attempt += 1
                state = ref_init(params, ref_f, draw, attempt=attempt)
            one = batch.BatchSwarm(params, f, 1, seed, k, require_nonneg_gbest=nonneg)
        evals, gbest = _replay_old_hit_rule(params, f.optimum_value, ref_f, state, draw,
                                            budget)
        r = engine.run_until_hit(one, budget)
        assert (full.hit_evals[k], full.final_gbest_value[k]) == (evals, gbest)
        assert (r.hit_evals[0], r.final_gbest_value[0]) == (evals, gbest)
        want.append(evals)
    return np.array(want)


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


def _stepped_to_the_budget(params, f, trials, budget, seed):
    """Hit evals and final global-best values by plain `BatchSwarm.step` calls,
    every trial stepped every sweep to the budget; also the swarm."""
    sw = batch.BatchSwarm(params, f, trials, seed)
    hit_evals = np.full(trials, -1, dtype=np.int64)
    final_g = np.empty(trials)
    while True:
        new = (hit_evals < 0) & (sw.fG - f.optimum_value < params.epsilon)
        hit_evals[new] = sw.eval_count
        final_g[new] = sw.fG[new]
        if sw.eval_count + params.m > budget:
            break
        sw.step()
    final_g[hit_evals < 0] = sw.fG[hit_evals < 0]
    return hit_evals, final_g, sw


def _at_rest(params, X0, trials=4, f=sphere()):
    """A swarm started at rest on the (m, n) positions X0, with its last step
    taken to have improved no personal best."""
    sw = batch.BatchSwarm(params, f, trials, 3, init="explicit",
                          positions=X0, velocities=np.zeros_like(X0))
    sw.improved = np.zeros((params.m, trials), dtype=bool)
    return sw


def _bits(sw, k):
    """Trial k's X, V, P, fP, G and fG, as uint64 bits."""
    arrays = [a[:, k] for a in (sw.X, sw.V, sw.P, sw.fP)] + [sw.G[k], sw.fG[k]]
    return [np.ascontiguousarray(a).view(np.uint64).tolist() for a in arrays]


# near-rest coordinates: signed zeros, the counterexample's special points 0
# and 1, their midpoint, and -1
_NEAR_REST = (0.0, -0.0, 0.5, 1.0, -1.0)


@st.composite
def _near_rest_swarms(draw, trials=3):
    """A swarm at or near rest: velocities are signed zeros, each particle's
    personal best is its position or a point no worse, and only a particle
    whose best is its position may have improved on the last step."""
    f = draw(st.sampled_from([sphere(), counterexample()]))
    m = draw(st.integers(1, 3))
    n = 1 if f.name == "counterexample" else draw(st.integers(1, 2))
    weight = st.sampled_from([0.0, -0.0, 0.5, 1.5])
    params = make_params(draw(st.sampled_from([0.4, -0.4, 0.0, -0.0, 0.7])), draw(weight),
                         draw(weight), draw(st.sampled_from([0.0, 0.0, 0.01])), 1.0, 0.01, m, n)

    def grid(values, *shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.sampled_from(values), min_size=size,
                                      max_size=size))).reshape(shape)

    X, V, other = (grid(values, m, trials, n) for values in (_NEAR_REST, (0.0, -0.0), _NEAR_REST))
    at_x = grid((False, True), m, trials) | (f.batch_evaluate(other) > f.batch_evaluate(X))
    P = np.where(at_x[:, :, None], X, other)
    sw = batch.BatchSwarm(params, f, trials, draw(st.integers(0, 2 ** 32)), init="explicit",
                          positions=X.transpose(1, 0, 2), velocities=V.transpose(1, 0, 2))
    sw.P, sw.fP = P, f.batch_evaluate(P)
    sw.G, sw.fG = batch._global_best(sw.P, sw.fP)
    sw.improved = at_x & grid((False, True), m, trials)
    return sw


class TestFreezeExit:
    """A trial whose state the noise-free rule can no longer change leaves the
    hitting-time loop as censored, and a demo whose every trial is frozen
    stops; both must give what stepping to the end gives."""

    def test_fht_batch_matches_plain_stepping(self, monkeypatch):
        # m = 2, omega 0.4: some trials hit (x * x below 1e-300), some come to
        # rest with both particles on one point, and the rest still move
        params = _params(omega=0.4, m=2, epsilon=1e-300)
        trials, budget, seed = 40, 2000, 11
        frozen = []
        check = batch._frozen
        monkeypatch.setattr(batch, "_frozen",
                            lambda *a: frozen.append(int(check(*a).sum())) or check(*a))
        res = batch.run_fht_batch(params, sphere(), trials, budget, seed)
        hit_evals, final_g, sw = _stepped_to_the_budget(params, sphere(), trials, budget, seed)
        assert res.hit_evals.tolist() == hit_evals.tolist()
        assert np.array_equal(res.final_gbest_value.view(np.uint64), final_g.view(np.uint64))
        at_rest = (sw.V == 0).all(axis=(0, 2))
        assert (hit_evals > 2).any()
        assert ((hit_evals < 0) & at_rest).any() and ((hit_evals < 0) & ~at_rest).any()
        assert sum(frozen) > 0

    @pytest.mark.parametrize("budget", [1000, 1088, 1089, 3000])
    def test_frozen_one_trial_run_ends_as_stepping_ends(self, budget):
        # the prop1-bad-init particle repeats its state bit for bit from step
        # 1072; the first check after that is at step 1088
        runs = [_explicit([0.9], [-0.05], sphere(), seed=1, omega=0.5, epsilon=0.5)
                for _ in range(2)]
        # repr tells signed zeros apart, so equal rows are equal bits
        rows = cli._trajectory_rows(runs[0])
        r = engine.run_until_hit(runs[0], budget,
                                 observe=lambda s: rows.extend(cli._trajectory_rows(s)))
        plain = runs[1]
        want = cli._trajectory_rows(plain)
        while plain.eval_count + 1 <= budget:
            plain.step()
            want += cli._trajectory_rows(plain)
        assert r.hit_evals[0] == -1 and r.final_gbest_value[0] == plain.fG[0]
        assert rows == want
        a, b = runs
        assert (a.t, a.eval_count) == (b.t, b.eval_count) == (budget - 1, budget)
        for name in ("X", "V", "P", "fP", "G", "fG", "improved"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        a.step()
        b.step()
        assert np.array_equal(a.X.view(np.uint64), b.X.view(np.uint64))

    def test_a_swarm_at_rest_on_one_point_is_frozen(self):
        sw = _at_rest(_params(m=2), np.array([[2.0], [2.0]]))
        X, V = sw.X, sw.V
        assert batch._frozen(sw).all()
        sw.step()
        assert np.array_equal(sw.X.view(np.uint64), X.view(np.uint64))
        assert np.array_equal(sw.V.view(np.uint64), V.view(np.uint64))

    # each start is at rest, with a last step taken to have changed nothing;
    # the next step moves it all the same.  In the last, the frozen-bests
    # counterexample's midpoint, the two targets' pulls cancel at the weights
    # but not at the draws
    @pytest.mark.parametrize("kw, X0, P0, f", [
        (dict(delta=0.01), [[2.0], [2.0]], None, sphere()),              # the noise term
        (dict(phi2=0.0), [[2.0], [2.0]], [[1.0], [1.0]], sphere()),     # phi1 > 0, P != X
        (dict(phi1=0.0), [[1.0], [2.0]], None, sphere()),               # phi2 > 0, G != X
        (dict(), [[0.0], [0.5]], [[0.0], [1.0]], counterexample()),     # P - X = X - G
    ], ids=["noise", "P-not-X", "G-not-X", "pulls-cancel"])
    def test_a_state_the_next_step_moves_is_not_frozen(self, kw, X0, P0, f):
        params = _params(m=2, **kw)
        sw = _at_rest(params, np.array(X0), f=f)
        if P0 is not None:
            sw.P = np.broadcast_to(np.array(P0)[:, None], sw.X.shape).copy()
            sw.fP = f.batch_evaluate(sw.P)
            sw.G, sw.fG = batch._global_best(sw.P, sw.fP)
        X = sw.X
        assert not batch._frozen(sw).any()
        sw.step()
        assert not np.array_equal(sw.X, X)

    def test_a_zero_that_changed_sign_is_a_change(self):
        # a particle at rest at (-0.0, 1.0): its first step turns x_0 into
        # +0.0, and only then does its state repeat
        params = _params(omega=0.5, m=1, n=2)
        sw = _at_rest(params, np.array([[-0.0, 1.0]]))
        X = sw.X
        assert not batch._frozen(sw).any()
        sw.step()
        assert np.signbit(X[0, :, 0]).all() and not np.signbit(sw.X[0, :, 0]).any()
        assert batch._frozen(sw).all()
        X, V = sw.X, sw.V
        sw.step()
        assert np.array_equal(sw.X.view(np.uint64), X.view(np.uint64))
        assert np.array_equal(sw.V.view(np.uint64), V.view(np.uint64))

    def test_noisy_runs_flag_no_trial(self, monkeypatch):
        # delta > 0: the noise term moves every trial at every step
        params = _params(m=2, delta=0.01, epsilon=1e-300)
        flagged = []
        check = batch._frozen
        monkeypatch.setattr(batch, "_frozen",
                            lambda sw: flagged.append(int(check(sw).sum())) or check(sw))
        res = batch.run_fht_batch(params, sphere(), 20, 1000, 5)
        assert (res.hit_evals < 0).all()
        # 499 steps, checked at every multiple of _FREEZE_EVERY
        assert len(flagged) == 499 // batch._FREEZE_EVERY and not any(flagged)

    @settings(max_examples=300, deadline=None)
    @given(_near_rest_swarms())
    def test_a_flagged_trial_keeps_its_bits_for_two_more_steps(self, sw):
        flagged = np.flatnonzero(batch._frozen(sw))
        before = [_bits(sw, k) for k in flagged]
        sw.step()
        sw.step()
        assert [_bits(sw, k) for k in flagged] == before


# (the kernel's objective, its scalar reference)
SPHERE = (sphere(), ref.sphere)


def _transformed(g):
    """g(sphere) in the kernel, and g on the reference sphere."""
    return monotone_transform(sphere(), g), lambda x: g(ref.sphere(x))


class TestHitRule:
    # hits are read off the global-best value; the replays apply the rule on
    # every fresh value, which agrees because no value is below the optimum
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name, f, nonneg, n, epsilon", [
        ("sphere", SPHERE, False, 2, 0.05),
        ("sphere_plus", (sphere_plus(), ref.sphere_plus), True, 1, 0.004),
        ("sqrt(sphere) - 2", _transformed(lambda y: np.sqrt(y) - 2.0), False, 1, 0.02),
        # at n = 9 numpy's pairwise sum over the last axis is not a plain
        # left-to-right sum, so the state must keep n innermost and contiguous
        ("sphere", SPHERE, False, 9, 2.0),
    ])
    def test_random_starts_match_the_scalar_replay(self, m, name, f, nonneg, n, epsilon):
        f, ref_f = f
        # phi1 != phi2, so the scaled draw blocks must keep the two apart
        params = make_params(0.6, 1.3, 1.7, 0.01, 1, epsilon, m, n)
        budget = 8 * m
        evals = _check_hit_rule(params, f, ref_f, 40, budget, 70 + m, nonneg=nonneg)
        assert (evals == m).any()                        # hits at the initial sweep
        assert ((evals > m) & (evals <= budget)).any()   # hits while stepping
        assert (evals == -1).any()                       # censored

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("phi1, phi2", [(0.0, 1.7), (-0.0, 1.7), (1.3, 0.0)])
    def test_zero_weight_matches_the_scalar_replay(self, m, phi1, phi2):
        # a zero weight's factor is the scalar weight, not hashed; trials hit
        # at several steps of one draw block, so dropping them cuts that block
        params = make_params(0.6, phi1, phi2, 0.01, 1, 0.05, m, 2)
        budget = 8 * m
        assert _first_block_steps(batch.BatchSwarm(params, sphere(), 40, 80 + m)) > budget // m
        evals = _check_hit_rule(params, sphere(), ref.sphere, 40, budget, 80 + m)
        assert (evals == m).any() and (evals == -1).any()
        assert len(set(evals[evals > m].tolist())) >= 4

    @pytest.mark.parametrize("name, f", [
        ("sphere", SPHERE),
        ("sqrt(sphere) + 1", _transformed(lambda y: np.sqrt(y) + 1.0)),
    ])
    def test_a_value_exactly_epsilon_above_the_optimum_is_no_hit(self, name, f):
        f, ref_f = f
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
        evals = _check_hit_rule(params, f, ref_f, 30, 40, 11, X0=X0, V0=V0)
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
        updates += (sw.fP < before).T
        if t >= steps - window:
            for k, x in enumerate(sw.X[1, :, 0].tolist()):
                s1[k] += x
                s2[k] += x * x
    assert np.array_equal(res.pbest_updates, updates)
    assert res.pbest_updates.flags.c_contiguous
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
    counts = batch.run_improvement_counts(params, 0.3, 50, 0, 0, 4)
    assert counts.samples == counts.compound_hits == counts.y_tail_hits == 0
    assert np.allclose(counts.final_positions - 0.3, start[0] - center, rtol=0, atol=1e-15)


def test_fixed_attractor_ensemble_rejects_checkpoints_outside_the_run():
    params = make_params(0.4, 1.3, 1.7, 0.01, 0.5, 1e-2, 1, 1)
    with pytest.raises(ValueError, match=r"\[0, 10\], got \[-1, 20\]"):
        batch.run_fixed_attractor_ensemble(params, 0.3, -0.7, 5, 10, 4,
                                           checkpoints=(3, 20, -1))


# a run of fewer steps than the first checkpoint it may report has no final
# step to report
@pytest.mark.parametrize("run, first", [
    (lambda params, steps: batch.run_fixed_attractor_ensemble(params, 0.3, -0.7, 5, steps, 4),
     0),
    (lambda params, steps: batch.run_pbest_gap_batch(params, sphere(), 5, steps, 4), 1),
], ids=["fixed-attractor", "pbest-gap"])
def test_runs_shorter_than_their_first_checkpoint_are_rejected(run, first):
    params = make_params(0.4, 1.3, 1.7, 0.01, 0.5, 1e-2, 1, 1)
    with pytest.raises(ValueError, match=rf"steps must be at least {first}, got {first - 1}"):
        run(params, first - 1)
