"""Command-line front end.

Subcommands wrap the library one to one: `simulate` dumps a single
trajectory, `fht` runs a censored first-hitting-time experiment, `regions`
scans the convergence regions, `stagnate` runs the two-particle demo,
`moments` prints closed forms against the exact oracle, and `demo` runs the
named showcase configurations.

Configuration is a flat `key = value` text file (`#` comments), mirrored
exactly by repeatable `--override key=value` flags.  Every run writes a
manifest echoing the fully-resolved configuration, the seed, and sha-256
checksums of all written artifacts.  Randomised commands refuse to run
without an explicit `--seed` (or `--seed auto`).

The library checks each rule about a run's input, before any output exists,
and `main` turns its `ValueError` into exit code 2.  This module adds only
what the library cannot see: keys, value syntax, missing keys, the `init`
mode and the length of a flat explicit start, `simulate`'s stride, that
`moments`' bests and f(1) are finite, and that `stagnate` and `demo` get
what they run.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time

import numpy as np

from . import engine, experiments, moments, regions
from .core import PsoParams, get_objective, make_params
from .stagnation import TwoParticleInit

__all__ = ["main"]


class CliError(ValueError):
    """A problem only the command line can see; exits with code 2."""


# ---------------------------------------------------------------------------
# configuration files, overrides, presets
# ---------------------------------------------------------------------------

def _parse_float_list(text):
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip() != "")


def _parse_bool(text):
    if str(text) in ("0", "1"):
        return bool(int(text))
    raise ValueError(f"expected 0 or 1, got {text!r}")


_CONFIG_SCHEMA = {
    "omega": float,
    "phi1": float,
    "phi2": float,
    "delta": float,
    "alpha": float,
    "epsilon": float,
    "m": int,
    "n": int,
    "objective": str,
    "trials": int,
    "budget": int,
    "steps": int,
    "window": int,
    "stride": int,
    "init": str,
    "positions": _parse_float_list,
    "velocities": _parse_float_list,
    "require_nonneg_gbest": _parse_bool,
}

_DEFAULTS = {
    "delta": 0.0,
    "alpha": 1.0,
    "n": 1,
    "objective": "sphere",
    "init": "random",
    "require_nonneg_gbest": False,
}

PRESETS = {
    "prop1-bad-init": {
        "omega": 0.5, "phi1": 1.5, "phi2": 1.5, "delta": 0.0, "alpha": 1.0,
        "epsilon": 0.5, "m": 1, "n": 1, "objective": "sphere",
        "init": "explicit", "positions": (0.9,), "velocities": (-0.05,),
        "trials": 100, "budget": 1_000_000,
    },
    "thm2-example": {
        "omega": 0.07, "phi1": 0.0, "phi2": 1.5, "delta": 0.0, "alpha": 200.0,
        "epsilon": 0.5, "m": 2, "n": 1, "objective": "sphere",
        "init": "explicit", "positions": (184.0, 185.0), "velocities": (-1.0, -1.0),
        "trials": 10_000, "steps": 100_000,
    },
    "sec4-counterexample": {
        "omega": 0.4, "phi1": 1.5, "phi2": 1.5, "delta": 0.0, "alpha": 1.0,
        "epsilon": 0.01, "m": 2, "n": 1, "objective": "counterexample",
        "init": "explicit", "positions": (0.0, 1.0), "velocities": (0.0, 0.0),
        "trials": 100, "steps": 1_000_000, "window": 100_000,
    },
    "noisy-sphereplus": {
        "omega": 0.4, "phi1": 1.5, "phi2": 1.5, "delta": 0.01, "alpha": 1.0,
        "epsilon": 0.01, "m": 3, "n": 1, "objective": "sphere_plus",
        "init": "random", "require_nonneg_gbest": True,
        "trials": 100, "budget": 10_000_000,
    },
}


def _coerce(key, raw):
    if key not in _CONFIG_SCHEMA:
        raise CliError(f"unknown configuration key {key!r}")
    try:
        return _CONFIG_SCHEMA[key](raw)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad value for {key}: {raw!r} ({exc})") from None


def _read_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    cfg = {}
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{ln}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        cfg[key] = _coerce(key, raw)
    return cfg


def resolve_config(args, required=()):
    """Merge preset, config file, and overrides (later wins); check keys only."""
    cfg = dict(_DEFAULTS)
    preset = getattr(args, "preset", None)
    if preset:
        if preset not in PRESETS:
            raise CliError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
        cfg.update(PRESETS[preset])
    if getattr(args, "config", None):
        cfg.update(_read_config_file(args.config))
    for item in getattr(args, "override", None) or []:
        if "=" not in item:
            raise CliError(f"--override expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        cfg[key] = _coerce(key, raw)
    missing = [k for k in required if k not in cfg]
    if missing:
        raise CliError(f"missing configuration keys: {', '.join(missing)}")
    return cfg


def _params_from_config(cfg) -> PsoParams:
    return make_params(cfg["omega"], cfg["phi1"], cfg["phi2"], cfg["delta"],
                       cfg["alpha"], cfg["epsilon"], cfg["m"], cfg["n"])


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        raise CliError("a seed is required; pass --seed <int> or --seed auto")
    if seed == "auto":
        return time.time_ns() & ((1 << 64) - 1)
    try:
        return int(seed)
    except ValueError:
        raise CliError(f"--seed must be an integer or 'auto', got {seed!r}") from None


# ---------------------------------------------------------------------------
# artifact and manifest writing
# ---------------------------------------------------------------------------

def _format_value(v):
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, tuple):
        return ",".join(repr(float(x)) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _config_lines(cfg):
    return [f"config.{k} = {_format_value(cfg[k])}" for k in sorted(cfg)]


def write_manifest(out_dir, command, seed, cfg, artifact_names, extra=()):
    lines = [f"command = {command}",
             f"seed = {'none' if seed is None else seed}"]
    lines.extend(extra)
    cfg_lines = _config_lines(cfg)
    cfg_text = "\n".join(cfg_lines) + "\n"
    lines.append(f"config_sha256 = {hashlib.sha256(cfg_text.encode()).hexdigest()}")
    lines.extend(cfg_lines)
    for name in artifact_names:
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        lines.append(f"artifact.{name} = {digest}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_lines(path, lines):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_dir(args):
    from pathlib import Path

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _start(cfg, params) -> dict:
    """The `BatchSwarm` start keywords of the configuration, whose `init` is
    "random" or "explicit"; an explicit start is written flat, particle by
    particle, and read as (m, n)."""
    start = {"require_nonneg_gbest": cfg["require_nonneg_gbest"]}
    if cfg["init"] not in ("random", "explicit"):
        raise CliError(f"unknown init mode {cfg['init']!r}; known: explicit, random")
    if cfg["init"] == "explicit":
        m, n = params.m, params.n
        for key in ("positions", "velocities"):
            values = cfg.get(key, ())
            if len(values) != m * n:
                raise CliError(f"explicit {key} needs m x n = {m} x {n} = {m * n} "
                               f"values, got {len(values)}")
            start[key] = np.reshape(values, (m, n))
    return start


def _outcome(hit_evals: int, budget: int) -> tuple:
    """("hit", evals at the hit) or ("censored", budget), from a trial's hit
    evals (-1 when censored); `simulate`'s manifest and `fht.csv` both say it."""
    return ("hit", hit_evals) if hit_evals >= 0 else ("censored", budget)


def _trajectory_rows(swarm, t) -> list:
    """trajectory.csv lines for trial 0's current state labelled step t, one
    per particle per dimension, each value as the repr of a Python float."""
    X, V, P = (a[:, 0].tolist() for a in (swarm.X, swarm.V, swarm.P))
    G, fg = swarm.G[0].tolist(), float(swarm.fG[0])
    return [f"{t},{i},{j},{X[i][j]!r},{V[i][j]!r},{P[i][j]!r},{G[j]!r},{fg!r}"
            for i in range(len(X)) for j in range(len(G))]


def cmd_simulate(args) -> int:
    cfg = resolve_config(args, required=("omega", "phi1", "phi2", "epsilon", "m", "budget"))
    params = _params_from_config(cfg)
    seed = _resolve_seed(args)
    swarm = engine.init_swarm(params, get_objective(cfg["objective"]), seed,
                              **_start(cfg, params))
    budget = cfg["budget"]
    stride = cfg.get("stride", max(1, budget // (1000 * params.m)))
    if stride < 1:
        raise CliError(f"stride must be at least 1, got {stride}")
    rows = ["t,particle,dim,x,v,p,g,f_g", *_trajectory_rows(swarm, 0)]
    due = stride   # the next step to record

    def observe(s):   # after a jump over frozen sweeps, each repeats s's bits
        nonlocal due
        while due <= s.t:
            rows.extend(_trajectory_rows(s, due))
            due += stride

    result = engine.run_until_hit(swarm, budget, observe=observe)
    out = _out_dir(args)
    _write_lines(out / "trajectory.csv", rows)
    outcome, evals = _outcome(int(result.hit_evals[0]), budget)
    extra = [f"outcome = {outcome}", f"evals = {evals}",
             f"final_g_value = {float(result.final_gbest_value[0])!r}", f"stride = {stride}"]
    write_manifest(out, "simulate", seed, cfg, ["trajectory.csv"], extra)
    return 0


def cmd_fht(args) -> int:
    cfg = resolve_config(args, required=("omega", "phi1", "phi2", "epsilon", "m",
                                         "trials", "budget"))
    params = _params_from_config(cfg)
    seed = _resolve_seed(args)
    est = experiments.estimate_fht(params, get_objective(cfg["objective"]), cfg["trials"],
                                   cfg["budget"], seed, threads=args.threads,
                                   **_start(cfg, params))
    out = _out_dir(args)
    rows = ["trial,outcome,evals,final_g_value"]
    for k, (hit_evals, g) in enumerate(zip(est.hit_evals.tolist(),
                                           est.final_gbest_values.tolist())):
        outcome, evals = _outcome(hit_evals, est.budget)
        rows.append(f"{k},{outcome},{evals},{g!r}")
    _write_lines(out / "fht.csv", rows)
    surv = ["evals,fraction_not_hit"]
    surv += [f"{e},{frac!r}" for e, frac in est.survival_curve]
    _write_lines(out / "survival.csv", surv)
    _write_lines(out / "summary.txt", est.lines())
    write_manifest(out, "fht", seed, cfg, ["fht.csv", "survival.csv", "summary.txt"])
    return 0


def cmd_regions(args) -> int:
    grid = regions.scan_regions((args.omega_min, args.omega_max),
                                (args.phi_min, args.phi_max), args.resolution)
    for axis in (grid.omega, grid.phi):   # regions.csv must tell cells apart
        regions.csv_labels(axis)
    out = _out_dir(args)
    regions.write_regions_csv(grid, out / "regions.csv")
    names = ["regions.csv"]
    if args.svg:
        regions.render_regions_svg(grid, out / "regions.svg")
        names.append("regions.svg")
    cfg = {}  # the scan window is echoed below; no swarm parameters involved
    extra = [f"omega_range = [{args.omega_min!r}, {args.omega_max!r}]",
             f"phi_range = [{args.phi_min!r}, {args.phi_max!r}]",
             f"resolution = {args.resolution}"]
    write_manifest(out, "regions", None, cfg, names, extra)
    return 0


def cmd_stagnate(args) -> int:
    cfg = resolve_config(args, required=("omega", "phi1", "phi2", "epsilon",
                                         "positions", "velocities", "trials", "steps"))
    if cfg.get("m", 2) != 2 or len(cfg["positions"]) != 2 or len(cfg["velocities"]) != 2:
        raise CliError("stagnate requires a two-particle configuration")
    if cfg["objective"] != "sphere":
        raise CliError(f"stagnate runs the sphere objective, not {cfg['objective']!r}")
    cfg["m"] = 2
    params = _params_from_config(cfg)
    seed = _resolve_seed(args)
    init = TwoParticleInit(x1=cfg["positions"][0], x2=cfg["positions"][1],
                           v1=cfg["velocities"][0], v2=cfg["velocities"][1])
    report = experiments.stagnation_demo_two_particles(
        params, init, trials=cfg["trials"], steps=cfg["steps"], master_seed=seed)
    out = _out_dir(args)
    _write_lines(out / "report.txt", report.lines())
    rows = ["t,retained,mean_abs_d,se,bound"]
    rows += [f"{t},{kept},{mean!r},{se!r},{bound!r}"
             for t, kept, mean, se, bound in report.d_rows]
    _write_lines(out / "d_bounds.csv", rows)
    write_manifest(out, "stagnate", seed, cfg, ["report.txt", "d_bounds.csv"])
    return 0


def cmd_moments(args) -> int:
    phi1, phi2 = args.phi1, args.phi2
    params = PsoParams(omega=args.omega, phi1=phi1, phi2=phi2, delta=args.delta)
    p_best, g_best = args.p_best, args.g_best
    if not (np.isfinite(p_best) and np.isfinite(g_best)):
        raise CliError(f"--p-best and --g-best must be finite, got {p_best!r}, {g_best!r}")
    f1 = float(moments.f_one(params.omega, phi1, phi2))
    if not math.isfinite(f1):
        raise CliError(f"f(1) overflows at omega {params.omega!r}, phi1 {phi1!r}, phi2 {phi2!r}")
    f1_alt = float(moments.f_one_asymmetric_variant(params.omega, phi1, phi2))
    M = moments.moment_transition(params, p_best, g_best)
    block = moments.second_moment_block(M)
    rho = moments.char_cubic_radius(block)
    table = [("f_one", f1), ("f_one_asymmetric_variant", f1_alt),
             ("second_moment_spectral_radius", rho)]
    if moments.in_mean_square_region(params.omega, phi1, phi2):
        stat = moments.stationary_moments(params, p_best, g_best)
        table += [
            ("mean_limit_closed_form", moments.equilibrium_point(params, p_best, g_best)),
            ("mean_limit_oracle", float(stat[3])),
            ("var_limit_closed_form", moments.variance_limit(params, p_best, g_best)),
            ("var_limit_oracle", moments.stationary_variance(params, p_best, g_best)),
        ]
    out = _out_dir(args)
    _write_lines(out / "moments.csv", ["quantity,value"] +
                 [f"{k},{v!r}" for k, v in table])
    _write_lines(out / "report.txt", [f"{k} = {v!r}" for k, v in table])
    cfg = {"omega": args.omega, "phi1": phi1, "phi2": phi2, "delta": args.delta}
    extra = [f"p_best = {p_best!r}", f"g_best = {g_best!r}"]
    write_manifest(out, "moments", None, cfg, ["moments.csv", "report.txt"], extra)
    return 0


def cmd_demo(args) -> int:
    if args.name != "counterexample":
        raise CliError(f"unknown demo {args.name!r}; available: counterexample")
    if not getattr(args, "preset", None):
        args.preset = "sec4-counterexample"
    cfg = resolve_config(args, required=("omega", "phi1", "phi2", "epsilon", "m",
                                         "trials", "steps", "window"))
    if cfg["objective"] != "counterexample":
        raise CliError(f"demo counterexample runs the counterexample objective, "
                       f"not {cfg['objective']!r}")
    params = _params_from_config(cfg)
    seed = _resolve_seed(args)
    report = experiments.counterexample_demo(params, cfg["trials"], cfg["steps"],
                                             cfg["window"], seed)
    out = _out_dir(args)
    _write_lines(out / "report.txt", report.lines())
    write_manifest(out, "demo", seed, cfg, ["report.txt"])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--config", help="flat key = value configuration file")
    sub.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
    sub.add_argument("--override", action="append", metavar="KEY=VALUE",
                     help="override a configuration key (repeatable)")
    sub.add_argument("--seed", help="master seed (integer) or 'auto'")
    sub.add_argument("--threads", type=int, default=1, help="worker threads, clamped "
                     "to [1, cpu count]; only fht reads it, the others run one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swarmlab",
                                     description="Swarm simulation and analysis toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="dump a single trajectory as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("fht", help="censored first-hitting-time experiment")
    _add_common(p)
    p.set_defaults(func=cmd_fht)

    p = subs.add_parser("regions", help="convergence-region grid scan")
    p.add_argument("--omega-min", type=float, default=0.0)
    p.add_argument("--omega-max", type=float, default=1.0)
    p.add_argument("--phi-min", type=float, default=0.0)
    p.add_argument("--phi-max", type=float, default=4.0)
    p.add_argument("--resolution", type=int, default=400)
    p.add_argument("--svg", action="store_true", help="also render the nested regions")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_regions)

    p = subs.add_parser("stagnate", help="two-particle stagnation demo")
    _add_common(p)
    p.set_defaults(func=cmd_stagnate)

    p = subs.add_parser("moments", help="closed forms vs the exact moment oracle")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--phi1", type=float, required=True)
    p.add_argument("--phi2", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--p-best", type=float, default=0.0)
    p.add_argument("--g-best", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_moments)

    p = subs.add_parser("demo", help="named showcase runs")
    p.add_argument("name", help="demo name (counterexample)")
    _add_common(p)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:   # a CliError or an input the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
