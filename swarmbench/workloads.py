"""The benchmark's workloads: their inputs, their operations and the checks
on each operation's outputs.

An operation is one call into swarmlab, a CLI command run in-process through
`swarmlab.cli.main` or a public experiment function, together with its
checks.  `call` is the timed part; `check` runs afterwards and returns the
problems it found.  Checks compare against `reference` (independent scalar
replays, exact fractions, the benchmark's own eigenvalues) or against
properties the method must have; none compares against a stored output.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import statistics
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from swarmlab import batch, cli, experiments, moments
from swarmlab.core import make_params

import reference as ref

WORKLOADS = ("fht-tail", "stagnation-wide", "narrow-long", "oracles")

# Run sizes.  "tiny" is the self-test's size; every check runs at both.
SIZES = {
    "full": {
        "fht_trials": 10_000, "fht_budget": 900, "fht_replays": 12,
        "stag_trials": 10_000, "stag_steps": 250, "stag_replays": 8,
        "cx_trials": 100, "cx_steps": 5000, "cx_window": 2500, "sim_budget": 5000,
        "region_res": 400, "chains": 20_000, "burn_in": 150, "horizon": 150,
    },
    "tiny": {
        "fht_trials": 200, "fht_budget": 600, "fht_replays": 4,
        "stag_trials": 50, "stag_steps": 220, "stag_replays": 3,
        "cx_trials": 20, "cx_steps": 600, "cx_window": 300, "sim_budget": 300,
        "region_res": 40, "chains": 20_000, "burn_in": 100, "horizon": 20,
    },
}

NOISY = {"omega": 0.4, "phi1": 1.5, "phi2": 1.5, "delta": 1e-4, "alpha": 1.0,
         "epsilon": 1e-4, "m": 3}
THM2 = {"omega": 0.07, "phi1": 0.0, "phi2": 1.5, "delta": 0.0, "alpha": 200.0,
        "epsilon": 0.5, "m": 2}
THM2_X0, THM2_V0 = [184.0, 185.0], [-1.0, -1.0]
D_SAMPLE_TIMES = (10, 50, 200)   # fixed by the stagnate command
PROP1_X0, PROP1_V0, PROP1_OMEGA = 0.9, -0.05, 0.5
CX = {"omega": 0.4, "phi1": 1.5, "phi2": 1.5}
# (omega, phi1, phi2, delta, p_best, g_best): criterion 6's noise floor, the
# frozen-bests counterexample, and the noise-floor cancellation case
MOMENT_POINTS = [
    (0.4, 1.5, 1.5, 0.1, 0.0, 0.0),
    (0.4, 1.5, 1.5, 0.0, 1.0, 0.0),
    (0.75, 0.875, 0.5, 6.8e-19, 2.0, 2.0),
]
NOISE_FLOOR = {"omega": 0.4, "phi": 1.5, "delta": 0.1}   # criterion 6


@dataclass
class Op:
    name: str
    call: Callable[[Path], dict]
    check: Callable[[Path, dict], list]
    # useful particle updates of one call, from its output directory
    updates: Callable[[Path], int] = lambda out: 0


class OperationError(Exception):
    """A call into swarmlab did not complete."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

@contextmanager
def capture(owner, attr, sink: list):
    """Record the return values of owner.attr while the block runs."""
    fn = getattr(owner, attr)

    def recording(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    setattr(owner, attr, recording)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def run_cli(argv):
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OperationError(f"swarmlab {argv[0]} exited with code {code}")


def read_kv(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def read_csv(path: Path):
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def manifest_problems(out: Path) -> list:
    """Every artifact checksum and the config checksum against hashlib."""
    lines = (out / "manifest.txt").read_text(encoding="ascii").splitlines()
    kv = read_kv(out / "manifest.txt")
    problems = []
    cfg_text = "\n".join(line for line in lines if line.startswith("config.")) + "\n"
    if hashlib.sha256(cfg_text.encode()).hexdigest() != kv.get("config_sha256"):
        problems.append("manifest config_sha256 does not match its config lines")
    listed = set()
    for key, digest in kv.items():
        if key.startswith("artifact."):
            name = key[len("artifact."):]
            listed.add(name)
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
                problems.append(f"manifest checksum of {name} does not match the file")
    unlisted = {p.name for p in out.iterdir()} - listed - {"manifest.txt"}
    if unlisted:
        problems.append(f"artifacts missing from the manifest: {sorted(unlisted)}")
    return problems


def rel_close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * abs(b) + floor


def seeded_sample(seed: int, population: int, k: int) -> list:
    return sorted(random.Random(seed).sample(range(population), min(k, population)))


# ---------------------------------------------------------------------------
# fht-tail
# ---------------------------------------------------------------------------

def fht_tail(seed: int, size: dict) -> list:
    trials, budget = size["fht_trials"], size["fht_budget"]
    m, eps = NOISY["m"], NOISY["epsilon"]
    steps = (budget - m) // m           # sweeps after the initial one

    def call(out):
        run_cli(["fht", "--preset", "noisy-sphereplus", "--seed", seed, "--out", out,
                 "--threads", 1, "--override", f"epsilon={eps!r}",
                 "--override", f"delta={NOISY['delta']!r}",
                 "--override", f"trials={trials}", "--override", f"budget={budget}"])
        return {}

    def check(out, captured):
        problems = manifest_problems(out)
        header, rows = read_csv(out / "fht.csv")
        if header != "trial,outcome,evals,final_g_value" or len(rows) != trials:
            return problems + ["fht.csv has the wrong header or row count"]
        evals, final_g, hit = [], [], []
        for k, (trial, outcome, e, g) in enumerate(rows):
            e, g = int(e), float(g)
            if int(trial) != k or outcome not in ("hit", "censored"):
                problems.append(f"fht.csv row {k} is malformed")
            if outcome == "hit":
                # a hit is an evaluation inside the target; the global best
                # cannot be worse than it, and no earlier best was inside
                if not (0 < e <= budget and e % m == 0 and 0.0 <= g < eps):
                    problems.append(f"trial {k}: hit at {e} evals with best {g!r}")
            elif not (e == budget and g >= eps):
                problems.append(f"trial {k}: censored at {e} evals with best {g!r}")
            evals.append(e)
            final_g.append(g)
            hit.append(outcome == "hit")
        hit_times = sorted(e for e, h in zip(evals, hit) if h)
        hits = len(hit_times)
        summary = read_kv(out / "summary.txt")
        want = {"trials": str(trials), "budget": str(budget), "hits": str(hits),
                "censored": str(trials - hits)}
        if hits:
            want["mean_evals_over_hits"] = f"{statistics.fmean(hit_times):.6g}"
            want["median_evals_over_hits"] = f"{statistics.median(hit_times):.6g}"
        for key, value in want.items():
            if summary.get(key) != value:
                problems.append(f"summary.txt {key} = {summary.get(key)}, fht.csv gives {value}")
        header, surv = read_csv(out / "survival.csv")
        points = sorted(set(hit_times)) + [budget]
        if header != "evals,fraction_not_hit" or [int(r[0]) for r in surv] != points:
            problems.append("survival.csv evaluation points differ from fht.csv's hit times")
        else:
            fractions = [float(r[1]) for r in surv]
            if any(b > a for a, b in zip(fractions, fractions[1:])):
                problems.append("survival curve increases")
            not_hit = [trials - bisect.bisect_right(hit_times, e) for e in points]
            if fractions != [count / trials for count in not_hit]:
                problems.append("survival.csv fractions differ from fht.csv")
        # replay a seeded sample and the slowest trial in scalar arithmetic
        slowest = max(range(trials), key=lambda k: (evals[k] if hit[k] else budget + 1, -k))
        for k in sorted(set(seeded_sample(seed, trials, size["fht_replays"]) + [slowest])):
            want_e, want_g = ref.replay_fht_trial(NOISY, "sphere_plus", seed, k, budget, True)
            got_e = evals[k] if hit[k] else -1
            if (got_e, final_g[k]) != (want_e, want_g):
                problems.append(f"trial {k}: program ({got_e}, {final_g[k]!r}) != "
                                f"replay ({want_e}, {want_g!r})")
        return problems

    def updates(out):
        _, rows = read_csv(out / "fht.csv")
        return sum(int(e) - m if o == "hit" else steps * m for _, o, e, _ in rows)

    return [Op("fht", call, check, updates)]


# ---------------------------------------------------------------------------
# stagnation-wide
# ---------------------------------------------------------------------------

def stagnation_wide(seed: int, size: dict) -> list:
    trials, steps = size["stag_trials"], size["stag_steps"]
    radius = THM2["epsilon"]

    def call(out):
        demos = []
        with capture(batch, "run_two_particle_demo", demos):
            run_cli(["stagnate", "--preset", "thm2-example", "--seed", seed, "--out", out,
                     "--threads", 1, "--override", f"trials={trials}",
                     "--override", f"steps={steps}"])
        return {"demo": demos[0]}

    def check(out, captured):
        problems = manifest_problems(out)
        res = captured["demo"]
        report = read_kv(out / "report.txt")
        if report.get("trials") != str(trials) or report.get("steps") != str(steps):
            problems.append("report.txt trials/steps differ from the request")
        if report.get(f"entered_ball_radius_{radius:g}") != "0" or res.entered_ball.any():
            problems.append(f"a trial entered the ball of radius {radius}")
        if report.get("min_position_seen") != f"{res.min_position.min():.6g}":
            problems.append("report.txt min_position_seen differs from the runs")
        header, rows = read_csv(out / "d_bounds.csv")
        times = [t for t in D_SAMPLE_TIMES if t <= steps]
        if header != "t,retained,mean_abs_d,se,bound" or [int(r[0]) for r in rows] != times:
            problems.append("d_bounds.csv rows differ from the sample times")
        else:
            for t, kept, mean_d, _se, _bound in rows:
                valid = res.valid_at[int(t)]
                if int(kept) != int(valid.sum()) or not rel_close(
                        float(mean_d), float(res.d_abs_at[int(t)][valid].mean()), 1e-12):
                    problems.append(f"d_bounds.csv row t={t} differs from the runs")
        for k in sorted(set(seeded_sample(seed, trials, size["stag_replays"]) + [0])):
            want = ref.replay_two_particle_trial(THM2, seed, k, THM2_X0, THM2_V0, steps,
                                                 radius, set(D_SAMPLE_TIMES))
            got = {"entered": bool(res.entered_ball[k]),
                   "sum_abs_v": [float(v) for v in res.sum_abs_v[k]],
                   "min_position": float(res.min_position[k]),
                   "d_abs": {t: float(res.d_abs_at[t][k]) for t in times},
                   "valid_at": {t: bool(res.valid_at[t][k]) for t in times}}
            for key, value in got.items():
                if value != want[key]:
                    problems.append(f"trial {k}: {key} {value!r} != replay {want[key]!r}")
        return problems

    return [Op("stagnate", call, check, lambda out: trials * THM2["m"] * steps)]


# ---------------------------------------------------------------------------
# narrow-long
# ---------------------------------------------------------------------------

def narrow_long(seed: int, size: dict) -> list:
    trials, steps, window = size["cx_trials"], size["cx_steps"], size["cx_window"]
    budget = size["sim_budget"]
    # particle 2 follows the fixed-attractor recurrence with bests P = 1, G = 0
    exact_var = ref.stationary_variance_exact(CX["omega"], CX["phi1"], CX["phi2"], 0.0,
                                              1.0, 0.0)

    def call_demo(out):
        runs = []
        with capture(batch, "run_counterexample_batch", runs):
            run_cli(["demo", "counterexample", "--seed", seed, "--out", out, "--threads", 1,
                     "--override", f"trials={trials}", "--override", f"steps={steps}",
                     "--override", f"window={window}"])
        return {"runs": runs[0]}

    def check_demo(out, captured):
        problems = manifest_problems(out)
        res = captured["runs"]
        report = read_kv(out / "report.txt")
        if report.get("pbest_updates_particle2_total") != "0" or res.pbest_updates[:, 1].any():
            problems.append("particle 2 updated its personal best")
        if res.pbest_updates[:, 0].any():
            problems.append("particle 1 improved on the optimum value")
        if report.get("particle1_ever_moved") != "0" or res.particle1_moved.any():
            problems.append("particle 1 moved")
        if report.get("final_gap_squared_equals_one") != "1" or (res.gap_sq_final != 1.0).any():
            problems.append("final (G - P_2)^2 is not 1")
        var = res.window_var
        mean, se = float(var.mean()), float(var.std(ddof=1) / math.sqrt(trials))
        # the trial means are independent; five standard errors leave a
        # false alarm rate below 1e-6 while any error in the dynamics above
        # a few percent of the variance is caught
        if abs(mean - float(exact_var)) > 5.0 * se:
            problems.append(f"window variance {mean:.6g} (se {se:.2g}) differs from the "
                            f"exact {float(exact_var):.6g} by more than 5 se")
        if not report.get("empirical_position_variance", "").startswith(f"{mean:.6g} "):
            problems.append("report.txt variance differs from the runs")
        return problems

    def call_sim(out):
        run_cli(["simulate", "--preset", "prop1-bad-init", "--seed", seed, "--out", out,
                 "--threads", 1, "--override", f"budget={budget}"])
        return {}

    def check_sim(out, captured):
        problems = manifest_problems(out)
        kv = read_kv(out / "manifest.txt")
        if kv.get("outcome") != "censored" or kv.get("evals") != str(budget):
            problems.append(f"simulate outcome {kv.get('outcome')} at {kv.get('evals')} evals")
        header, rows = read_csv(out / "trajectory.csv")
        stride = int(kv.get("stride", 0))
        ts = [int(r[0]) for r in rows]
        if header != "t,particle,dim,x,v,p,g,f_g" or ts != list(range(0, ts[-1] + 1, stride)):
            return problems + ["trajectory.csv rows are not one per stride"]
        for t, i, j, x, v, p, g, fg in rows:
            t, x, v, p, g, fg = int(t), float(x), float(v), float(p), float(g), float(fg)
            # every move improves, so both bests track the particle and the
            # attraction terms vanish: a pure geometric drift
            drift = ref.drift_position(PROP1_X0, PROP1_V0, PROP1_OMEGA, t)
            if (i, j) != ("0", "0") or not rel_close(x, drift, 1e-12) or not rel_close(
                    v, PROP1_V0 * PROP1_OMEGA ** t, 1e-12, 1e-300) or (p, g, fg) != (x, x, x * x):
                problems.append(f"trajectory row t={t} leaves the closed-form drift")
                break
        return problems

    return [Op("demo", call_demo, check_demo, lambda out: trials * 2 * steps),
            Op("simulate", call_sim, check_sim, lambda out: budget - 1)]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def boundary_adjacent(flag: np.ndarray) -> np.ndarray:
    """Cells with a 4-neighbour of the other value."""
    near = np.zeros_like(flag, dtype=bool)
    near[1:] |= flag[1:] != flag[:-1]
    near[:-1] |= flag[1:] != flag[:-1]
    near[:, 1:] |= flag[:, 1:] != flag[:, :-1]
    near[:, :-1] |= flag[:, 1:] != flag[:, :-1]
    return near


def oracles(seed: int, size: dict) -> list:
    res = size["region_res"]
    omega = (np.arange(res) + 0.5) / res          # default window (0, 1) x (0, 4)
    phi = 4.0 * (np.arange(res) + 0.5) / res
    OM, PH = np.meshgrid(omega, phi, indexing="ij")
    cache = {}

    def own_radius():
        if "radius" not in cache:
            cache["radius"] = ref.second_moment_radius(OM, PH, PH)
        return cache["radius"]

    def call_regions(out):
        run_cli(["regions", "--resolution", res, "--svg", "--out", out])
        return {}

    def check_regions(out, captured):
        problems = manifest_problems(out)
        header, rows = read_csv(out / "regions.csv")
        if header != ("omega,phi,f1,deterministic,lyapunov,mean_square,noisy_fht,"
                      "pbest_convergence") or len(rows) != res * res:
            return problems + ["regions.csv has the wrong header or row count"]
        table = np.array(rows, dtype=np.float64)
        w, p = table[:, 0].reshape(res, res), table[:, 1].reshape(res, res)
        if not (np.allclose(w, OM, rtol=1e-8, atol=0) and np.allclose(p, PH, rtol=1e-8, atol=0)):
            problems.append("regions.csv cells are not the grid's cell centres")
        f1 = ref.stationary_determinant(OM, PH, PH)
        if not np.allclose(table[:, 2].reshape(res, res), f1, rtol=1e-8, atol=1e-12):
            problems.append("regions.csv f1 differs from the stationary determinant")
        det, lyap, ms = (table[:, c].reshape(res, res).astype(bool) for c in (3, 4, 5))
        interior = ~(boundary_adjacent(det) | boundary_adjacent(lyap) | boundary_adjacent(ms))
        if (interior & ((lyap & ~ms) | (ms & ~det))).any():
            problems.append("nesting Lyapunov <= mean square <= deterministic fails inside")
        own_ms = own_radius() < 1.0
        if ((own_ms != ms) & ~boundary_adjacent(own_ms)).any():
            problems.append("mean-square flag disagrees with the eigenvalue radius away "
                            "from the boundary")
        root = ET.parse(out / "regions.svg").getroot()
        if root.tag != "{http://www.w3.org/2000/svg}svg" or root.find(".//{*}rect") is None:
            problems.append("regions.svg is not an SVG drawing")
        return problems

    def moments_op(k, point):
        w, p1, p2, d, P, G = point

        def call(out):
            run_cli(["moments", "--omega", repr(w), "--phi1", repr(p1), "--phi2", repr(p2),
                     "--delta", repr(d), "--p-best", repr(P), "--g-best", repr(G),
                     "--out", out])
            return {}

        def check(out, captured):
            problems = manifest_problems(out)
            header, rows = read_csv(out / "moments.csv")
            got = {name: float(value) for name, value in rows}
            report = read_kv(out / "report.txt")
            if header != "quantity,value" or report != {n: v for n, v in rows}:
                problems.append("moments.csv and report.txt differ")
            mu = ref.equilibrium_exact(p1, p2, P, G)
            exact_var = ref.stationary_variance_exact(w, p1, p2, d, P, G)
            want = [("f_one", float(ref.f_one_exact(w, p1, p2)), 1e-12, 0.0),
                    ("second_moment_spectral_radius",
                     float(ref.second_moment_radius(w, p1, p2)), 1e-9, 0.0),
                    ("mean_limit_oracle", float(mu), 1e-9, 1e-9),
                    ("mean_limit_closed_form", float(mu), 1e-9, 1e-9),
                    ("var_limit_oracle", float(exact_var), 1e-9, 0.0),
                    ("var_limit_closed_form", float(exact_var), 1e-9, 0.0)]
            for name, value, rel, floor in want:
                if name not in got or not rel_close(got[name], value, rel, floor):
                    problems.append(f"{name} = {got.get(name)!r}, exact {value!r}")
            return problems

        return Op(f"moments-{k}", call, check)

    def call_radius(out):
        return {"radius": moments.second_moment_radius_grid(OM, PH, PH)}

    def check_radius(out, captured):
        got = captured["radius"]
        if got.shape != OM.shape or not np.allclose(got, own_radius(), rtol=1e-9, atol=0):
            return ["second_moment_radius_grid differs from numpy.linalg.eigvals"]
        return []

    chains, burn_in, horizon = size["chains"], size["burn_in"], size["horizon"]
    nf = NOISE_FLOOR
    params = make_params(nf["omega"], nf["phi"], nf["phi"], nf["delta"], 1.0, 1e-2, 1, 1)
    floor = ref.stationary_variance_exact(*(str(nf[k]) for k in ("omega", "phi", "phi", "delta")),
                                          0, 0)

    def call_ensemble(out):
        snaps = []
        with capture(batch, "run_fixed_attractor_ensemble", snaps):
            report = experiments.stationary_moment_check(
                params, 0.0, 0.0, trials=chains, burn_in=burn_in, horizon=horizon,
                master_seed=seed)
        return {"report": report, "final": snaps[0][burn_in + horizon]}

    def check_ensemble(out, captured):
        problems = []
        if floor != Fraction(7, 3870):
            problems.append(f"reference noise floor {floor} is not 7/3870")
        rep, x = captured["report"], captured["final"]
        var = float(x.var(ddof=1))
        if not rel_close(rep.empirical_var, var, 1e-12):
            problems.append("reported ensemble variance differs from the chains")
        # relative standard error of a sample variance is sqrt(2/(n-1)),
        # 1% at 20 000 chains, so 5% is five standard errors
        if abs(var - float(floor)) > 0.05 * float(floor):
            problems.append(f"ensemble variance {var:.6g} is not within 5% of 7/3870")
        if not rel_close(rep.oracle_var, float(floor), 1e-9):
            problems.append(f"oracle variance {rep.oracle_var!r} is not 7/3870")
        if abs(float(x.mean())) > 5.0 * math.sqrt(var / chains):
            problems.append("ensemble mean is more than 5 se from 0")
        return problems

    ops = [Op("regions", call_regions, check_regions)]
    ops += [moments_op(k, point) for k, point in enumerate(MOMENT_POINTS)]
    ops += [Op("radius-grid", call_radius, check_radius),
            Op("ensemble", call_ensemble, check_ensemble,
               lambda out: chains * (burn_in + horizon))]
    return ops


BUILDERS = {"fht-tail": fht_tail, "stagnation-wide": stagnation_wide,
            "narrow-long": narrow_long, "oracles": oracles}


def build(workload: str, seed: int, scale: str = "full") -> list:
    """The operations of one round of `workload`, with inputs made from seed."""
    return BUILDERS[workload](seed, SIZES[scale])
