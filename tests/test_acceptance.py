"""Acceptance suite: every criterion at its stated scale and tolerance, one
printed pass/fail line per criterion.

The full module takes one to two minutes on a 2-core machine.  The largest
part is criterion 4, the two-particle demo at 10^4 trials x 10^5 steps: 33-52 s
there, against its 300 s gate.  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines as they complete.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from swarmlab import engine, experiments, moments, regions, stagnation
from swarmlab.cli import main as cli_main
from swarmlab.core import PURPOSE_NOISE, make_params, sphere, sphere_plus, stream_base
from swarmlab.stagnation import TwoParticleInit
from swarmlab import batch


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    return ok


def test_criterion_01_region_figure_nesting():
    t0 = time.perf_counter()
    grid = regions.scan_regions((0.0, 1.0), (0.0, 4.0), resolution=400)
    elapsed = time.perf_counter() - t0
    interior = (grid.omega > 0) & (grid.omega < 1)
    lyap_violations = int(np.sum(grid.lyapunov[interior] & ~grid.mean_square[interior]))
    ms_violations = int(np.sum(grid.mean_square[interior] & ~grid.deterministic[interior]))
    ok = elapsed < 10.0 and lyap_violations == 0 and ms_violations == 0
    assert _report(1, ok, f"400x400 scan in {elapsed:.2f}s; nesting violations: "
                          f"lyapunov->ms {lyap_violations}, ms->det {ms_violations}")


def test_criterion_02_typo_adjudication_spectral_radius():
    res = 400
    grid = regions.scan_regions((0.0, 1.0), (0.0, 4.0), resolution=res)
    OM, PH = np.meshgrid(grid.omega, grid.phi, indexing="ij")
    rho = moments.second_moment_radius_grid(OM, PH, PH)
    stable_by_f1 = grid.f1 > 0
    stable_by_rho = rho < 1
    agree = stable_by_f1 == stable_by_rho
    agreement = float(agree.mean())
    mismatches = np.argwhere(~agree)
    confined = True
    for i, j in mismatches:
        lo_i, hi_i = max(0, i - 1), min(res, i + 2)
        lo_j, hi_j = max(0, j - 1), min(res, j + 2)
        window = stable_by_f1[lo_i:hi_i, lo_j:hi_j]
        if not (window.any() and (~window).any()):
            confined = False
    ok = agreement >= 0.999 and confined
    assert _report(2, ok, f"sign(f_one) vs spectral radius agreement "
                          f"{agreement * 100:.4f}% ({len(mismatches)} mismatches, "
                          f"boundary-confined: {confined})")


def test_criterion_03_single_particle_drift():
    x0, v0, omega = 0.9, -0.05, 0.5
    params = make_params(omega, 1.5, 1.5, 0, 1, 0.5, 1, 1)
    f = sphere()
    swarm = engine.init_swarm_explicit(params, f, 301, [x0], [v0])
    worst_rel = 0.0
    for t in range(1, 10_001):
        engine.step(swarm)
        x_ref, v_ref = stagnation.one_particle_trajectory(x0, v0, omega, t)
        worst_rel = max(worst_rel, abs(swarm.X[0, 0, 0] - x_ref) / abs(x_ref))
        if v_ref != 0.0:
            worst_rel = max(worst_rel, abs(swarm.V[0, 0, 0] - v_ref) / abs(v_ref))
    est = experiments.estimate_fht(params, f, 100, 1_000_000, 302,
                                   position_ball_radius=params.epsilon * params.alpha,
                                   init="explicit", positions=[x0], velocities=[v0])
    entered = int(est.entered_position_ball.sum())
    ok = worst_rel <= 1e-12 and est.censored == 100 and est.hits == 0 and entered == 0
    assert _report(3, ok, f"closed-form match rel err {worst_rel:.2e} over 1e4 steps; "
                          f"censored {est.censored}/100 at budget 1e6; "
                          f"position-ball entries {entered}")


def test_criterion_04_two_particle_stagnation_demo():
    params = make_params(0.07, 0.0, 1.5, 0, 200, 0.5, 2, 1)
    init = TwoParticleInit(184.0, 185.0, -1.0, -1.0)
    t0 = time.perf_counter()
    rep = experiments.stagnation_demo_two_particles(
        params, init, trials=10_000, steps=100_000, master_seed=404)
    elapsed = time.perf_counter() - t0
    vel_ok = all(rep.mean_sum_abs_v[i] + 3 * rep.se_sum_abs_v[i] <= rep.velocity_sum_bound
                 for i in range(2))
    d_ok = all(mean_d <= bound + 3 * se_d for _, _, mean_d, se_d, bound in rep.d_rows)
    ok = (rep.n_entered_ball == 0 and vel_ok and d_ok and elapsed < 300.0)
    assert _report(4, ok, f"entered [-0.5,0.5]: {rep.n_entered_ball}/10000; "
                          f"mean sum|V| {rep.mean_sum_abs_v.max():.3f} <= bound "
                          f"{rep.velocity_sum_bound:.1f}; |D_t| bounds hold: {d_ok}; "
                          f"runtime {elapsed:.0f}s")


def test_criterion_05_counterexample_variance():
    # the sec4-counterexample preset's parameters
    params = make_params(0.4, 1.5, 1.5, 0.0, 1.0, 1e-2, 2, 1)
    rep = experiments.counterexample_demo(params, trials=100, steps=1_000_000,
                                          window=100_000, master_seed=505)
    rel = abs(rep.empirical_var_mean - rep.oracle_var) / rep.oracle_var
    ok = (rep.pbest2_updates_total == 0 and rep.gap_sq_always_one
          and not rep.particle1_ever_moved and rel <= 0.10)
    assert _report(5, ok, f"pbest updates {rep.pbest2_updates_total}; empirical var "
                          f"{rep.empirical_var_mean:.6f} vs oracle {rep.oracle_var:.6f} "
                          f"(rel {rel * 100:.2f}%)")


def _noise_floor_exact(omega, phi, delta):
    """Stationary variance of X_{t+1} = a X_t - w X_{t-1} + N_t (both bests 0),
    a = 1 + w - phi (R + S), R, S ~ U[0,1], N ~ U[-delta/2, delta/2], in exact
    rational arithmetic.

    Stationarity of the variance V and the lag-1 covariance C gives
        V = E[a^2] V - 2 w E[a] C + w^2 V + delta^2/12,
        C = E[a] V / (1 + w).
    """
    ea = 1 + omega - phi
    ea2 = (1 + omega) ** 2 - 2 * (1 + omega) * phi + phi * phi * Fraction(7, 6)
    # 2x2 solve by Cramer's rule; det equals f(1)
    det = (1 - ea2 - omega * omega) * (1 + omega) + 2 * omega * ea * ea
    return delta * delta / 12 * (1 + omega) / det


def test_criterion_06_stationary_moments():
    params = make_params(0.4, 1.5, 1.5, 0.1, 1, 0.01, 1, 1)
    rep = experiments.stationary_moment_check(params, 0.0, 0.0, trials=100_000,
                                              burn_in=2000, horizon=2000,
                                              master_seed=606)
    exact = _noise_floor_exact(Fraction("0.4"), Fraction("1.5"), Fraction("0.1"))
    exact_ok = exact == Fraction(7, 3870)  # = (1 + omega) delta^2 / (12 f(1))
    target = float(exact)
    var_vs_target = abs(rep.empirical_var - target) / target
    # the printed target omits the (1 + omega) factor; the run must reject it
    f1 = float(moments.f_one(0.4, 1.5, 1.5))
    printed = 0.1**2 / (12.0 * f1)  # 1.292e-3
    var_vs_printed = abs(rep.empirical_var - printed) / printed
    mean_ok = abs(rep.empirical_mean) <= 3 * rep.se_mean
    oracle_ok = abs(rep.oracle_var - rep.closed_form_var) <= 1e-9 * rep.closed_form_var
    var_ok = var_vs_target <= 0.05
    printed_rejected = var_vs_printed > 0.05
    ok = exact_ok and var_ok and printed_rejected and mean_ok and oracle_ok
    assert _report(6, ok, f"empirical var {rep.empirical_var:.6g} vs exact fixed point "
                          f"{exact} = {target:.6g} (rel {var_vs_target * 100:.1f}%, "
                          f"need <=5%); printed delta^2/(12 f1) = {printed:.6g} rejected "
                          f"(rel {var_vs_printed * 100:.1f}%, need >5%): {printed_rejected}; "
                          f"mean within 3se: {mean_ok}; oracle==closed form to 1e-9: "
                          f"{oracle_ok}")


def test_criterion_07_improvement_constants():
    tail = experiments.noise_tail_probability()
    tail_exact = (tail == 0.5 - 0.4999) and abs(tail - 1e-4) < 1e-15
    params = make_params(0.4, 1.5, 1.5, 0.01, 1, 0.01, 1, 1)
    rep = experiments.improvement_probability_check(
        params, trials=20_000, master_seed=707, target_samples=10_000_000)
    sigma = np.sqrt(max(rep.compound_freq * (1 - rep.compound_freq), 1e-12) / rep.samples)
    compound_ok = (rep.samples >= 10_000_000
                   and rep.compound_freq >= rep.compound_threshold - 3 * sigma)
    grid = regions.scan_regions((0.0, 1.0), (0.0, 4.0), resolution=400)
    mask = grid.f1 > 1.0 / 3.0
    delta = 0.01
    sy2 = moments.sigma_y_squared(grid.omega[:, None], grid.phi[None, :],
                                  grid.phi[None, :], delta)
    sigma_ok = bool(np.all(sy2[mask] <= delta**2 / 6.0))
    ok = tail_exact and compound_ok and sigma_ok
    assert _report(7, ok, f"analytic tail {tail:.6g} exact: {tail_exact}; compound freq "
                          f"{rep.compound_freq:.4f} >= 3e-5-3sigma over {rep.samples:.0f} "
                          f"samples: {compound_ok}; sigma_Y^2 <= delta^2/6 on all "
                          f"{int(mask.sum())} grid cells with f1 > 1/3: {sigma_ok}")


def test_criterion_08_noisy_finite_fht():
    params = make_params(0.4, 1.5, 1.5, 0.01, 1, 0.01, 3, 1)
    medians = []
    hits = []
    for seed in (808_001, 808_002):
        est = experiments.estimate_fht(params, sphere_plus(), 100, 10_000_000, seed,
                                       require_nonneg_gbest=True)
        hits.append(est.hits)
        medians.append(est.median_over_hits)
    spread = abs(medians[0] - medians[1]) / (0.5 * (medians[0] + medians[1]))
    ok = hits[0] >= 98 and hits[1] >= 98 and spread <= 0.20
    assert _report(8, ok, f"hits {hits[0]}/100 and {hits[1]}/100 within budget 1e7; "
                          f"median FHT {medians[0]:.0f} vs {medians[1]:.0f} evals "
                          f"(spread {spread * 100:.1f}%)")


def test_criterion_09_micro_oracles():
    # generalised two-term recurrence vs closed form
    def direct(c, a1, a2, n):
        seq = [a1, a2]
        for _ in range(n - 2):
            seq.append(c * (seq[-1] + seq[-2]))
        return seq[n - 1]

    rng = np.random.default_rng(909)
    fib_ok = True
    worst_fib = 0.0
    rates = [1.0, 0.25, 2.0, float(stagnation.lam(0.07, 1.5)) / 2.0]
    for c in rates:
        a1, a2 = rng.uniform(-3, 3, size=2)
        for n in range(1, 61):
            want = direct(c, a1, a2, n)
            got = stagnation.fib_closed_form(c, a1, a2, n)
            rel = abs(got - want) / max(abs(want), 1e-30)
            worst_fib = max(worst_fib, rel)
    fib_ok = worst_fib <= 1e-9
    assert stagnation.fib_closed_form(1.0, 1.0, 1.0, 10) == pytest.approx(55.0, rel=1e-9)

    quad_ok = True
    worst_quad = 0.0
    for phi in (1.1, 1.5, 1.9):
        ref, _ = quad(lambda s: abs(1.0 - s * phi), 0.0, 1.0, points=[1.0 / phi],
                      limit=200)
        worst_quad = max(worst_quad,
                         abs(stagnation.expected_abs_one_minus_s_phi(phi) - ref))
    quad_ok = worst_quad <= 1e-10

    omega = np.linspace(0.0, 0.99, 100)[:, None]
    phi2 = np.linspace(1.005, 1.995, 100)[None, :]
    k = stagnation.kappa(omega, phi2)
    l = stagnation.lam(omega, phi2)
    worst_id = float(np.max(np.abs(k - (l + np.sqrt(8 * l + l * l)) / 4.0)))
    id_ok = worst_id <= 1e-12

    ok = fib_ok and quad_ok and id_ok
    assert _report(9, ok, f"recurrence closed form rel err {worst_fib:.2e} (n<=60); "
                          f"|E|1-S*phi| - quadrature| {worst_quad:.2e}; kappa/lambda "
                          f"identity err {worst_id:.2e} on 100x100 grid")


def test_criterion_10_reproducibility(tmp_path):
    args = ["fht", "--preset", "noisy-sphereplus", "--override", "trials=20",
            "--override", "budget=50000", "--seed", "1010"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    csv_same = ((tmp_path / "a" / "fht.csv").read_bytes()
                == (tmp_path / "b" / "fht.csv").read_bytes())
    surv_same = ((tmp_path / "a" / "survival.csv").read_bytes()
                 == (tmp_path / "b" / "survival.csv").read_bytes())

    reg_args = ["regions", "--resolution", "50"]
    assert cli_main(reg_args + ["--out", str(tmp_path / "ra")]) == 0
    assert cli_main(reg_args + ["--out", str(tmp_path / "rb")]) == 0
    reg_same = ((tmp_path / "ra" / "regions.csv").read_bytes()
                == (tmp_path / "rb" / "regions.csv").read_bytes())

    # noise-free and noisy rules share draw coordinates: evaluating the noise
    # stream next to a delta = 0 run leaves the trajectory bit-identical
    params = make_params(0.4, 1.5, 1.5, 0.0, 1, 1e-6, 3, 1)
    f = sphere()
    sw1 = batch.BatchSwarm(params, f, trials=8, master_seed=1010)
    sw2 = batch.BatchSwarm(params, f, trials=8, master_seed=1010)
    sw2._base_d = stream_base(1010, PURPOSE_NOISE, 8, params.m, params.n)
    for _ in range(500):
        sw1.step()
        sw2.step()
    bit_same = (np.array_equal(sw1.X, sw2.X) and np.array_equal(sw1.V, sw2.V)
                and np.array_equal(sw1.fP, sw2.fP))

    ok = csv_same and surv_same and reg_same and bit_same
    assert _report(10, ok, f"fht CSVs byte-identical: {csv_same and surv_same}; "
                           f"regions CSV byte-identical: {reg_same}; delta=0 "
                           f"trajectories bit-identical with noise stream evaluated: "
                           f"{bit_same}")
