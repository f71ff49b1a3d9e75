import hashlib

import numpy as np
import pytest

from swarmlab.batch import BatchSwarm
from swarmlab.cli import main
from swarmlab.core import make_params, sphere_plus

import scalar_reference
from benchmark_modules import reference


def _read(path):
    return path.read_bytes()


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        rc = main(["fht", "--preset", "noisy-sphereplus", "--override", "bogus=1",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_seed(self, tmp_path):
        rc = main(["fht", "--preset", "noisy-sphereplus",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_region_ranges(self, tmp_path):
        rc = main(["regions", "--omega-min", "1.0", "--omega-max", "0.0",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_region_window_whose_f1_overflows(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["regions", "--omega-max", "1e200", "--resolution", "3", "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == ("error: f(1) overflows on omega (0.0, 1e+200) "
                                           "x phi (0.0, 4.0)\n")

    def test_invalid_params(self, tmp_path):
        rc = main(["fht", "--preset", "noisy-sphereplus", "--override", "alpha=-1",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unreadable_config(self, tmp_path):
        rc = main(["fht", "--config", str(tmp_path / "missing.cfg"),
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_preset(self, tmp_path):
        rc = main(["fht", "--preset", "nope", "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    # the command line is the only reader of `init`; the library takes the
    # start from whether positions and velocities are given
    @pytest.mark.parametrize("command", ["simulate", "fht"])
    def test_unknown_init_mode(self, tmp_path, capsys, command):
        rc = main([command, "--preset", "prop1-bad-init", "--override", "init=bogus",
                   "--override", "trials=2", "--override", "budget=100",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()
        assert "unknown init mode 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fht"])
    @pytest.mark.parametrize("key", ["positions", "velocities"])
    def test_explicit_start_of_wrong_length(self, tmp_path, command, key):
        rc = main([command, "--preset", "prop1-bad-init", "--override", f"{key}=0.1,0.2",
                   "--override", "trials=2", "--override", "budget=100",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    # before, both ended in "cannot reshape array of size ..." without the key
    @pytest.mark.parametrize("command", ["simulate", "fht"])
    @pytest.mark.parametrize("key, values, got", [
        ("positions", "0.1,0.2", 2), ("velocities", "-0.1", 1),
        ("velocities", "0,0,0,0", 4)])
    def test_explicit_start_names_key_and_counts(self, tmp_path, capsys, command,
                                                  key, values, got):
        rc = main([command, "--preset", "noisy-sphereplus", "--override", "init=explicit",
                   "--override", "positions=0.1,0.2,0.3",
                   "--override", "velocities=0,0,0", "--override", f"{key}={values}",
                   "--override", "trials=2", "--override", "budget=100",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert key in err and "3 x 1 = 3" in err and f"got {got}" in err

    # before, both ran every trial censored at an infinite global-best value
    @pytest.mark.parametrize("command", ["simulate", "fht"])
    def test_explicit_start_without_a_nonnegative_position(self, tmp_path, capsys, command):
        args = [command, "--preset", "noisy-sphereplus", "--override", "init=explicit",
                "--override", "velocities=0,0,0", "--override", "trials=3",
                "--override", "budget=30", "--seed", "1"]
        rc = main([*args, "--override", "positions=-0.5,-0.3,-0.2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()
        assert "require_nonneg_gbest" in capsys.readouterr().err
        assert main([*args, "--override", "positions=-0.5,0.3,-0.2",
                     "--out", str(tmp_path / "p")]) == 0

    @pytest.mark.parametrize("command", ["simulate", "fht"])
    def test_explicit_start_at_nan(self, tmp_path, command):
        rc = main([command, "--preset", "prop1-bad-init", "--override", "positions=nan",
                   "--override", "trials=2", "--override", "budget=100",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("command, preset, overrides", [
        ("fht", "noisy-sphereplus", ["objective=bogus"]),
        ("simulate", "prop1-bad-init", ["objective=bogus"]),
        ("fht", "noisy-sphereplus", ["n=3"]),
        ("simulate", "noisy-sphereplus", ["n=2"]),
        ("fht", "prop1-bad-init", ["objective=counterexample", "n=2",
                                   "positions=0.1,0.2", "velocities=0,0"]),
    ])
    def test_objective_invalid_for_configuration(self, tmp_path, command, preset,
                                                 overrides):
        args = [command, "--preset", preset, "--override", "trials=2",
                "--override", "budget=100", "--seed", "1", "--out", str(tmp_path / "o")]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 2

    # before, both ended in a ValueError traceback with exit 1
    @pytest.mark.parametrize("command", ["simulate", "fht"])
    def test_budget_below_one_sweep(self, tmp_path, command):
        rc = main([command, "--preset", "noisy-sphereplus", "--override", "budget=2",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    # before: tracebacks (fht and stagnate at trials = 0, a window longer than
    # the run, demo at m = 3, stagnate with one velocity), reports of nan or
    # inf (window = 0, steps < 0), stride 1 run under a manifest echoing
    # stride = 0, or stagnate and demo reports under a manifest naming an
    # objective they did not run
    @pytest.mark.parametrize("command, overrides", [
        (["fht", "--preset", "noisy-sphereplus"], ["trials=0", "budget=100"]),
        (["stagnate", "--preset", "thm2-example"], ["trials=0", "steps=10"]),
        (["demo", "counterexample"], ["trials=2", "steps=10", "window=0"]),
        (["demo", "counterexample"], ["trials=2", "steps=10", "window=11"]),
        (["stagnate", "--preset", "thm2-example"], ["trials=2", "steps=-3"]),
        (["simulate", "--preset", "prop1-bad-init"], ["budget=100", "stride=0"]),
        (["demo", "counterexample"], ["m=3", "positions=0,1,2", "velocities=0,0,0",
                                      "trials=2", "steps=10", "window=5"]),
        (["stagnate", "--preset", "thm2-example"], ["velocities=-1", "trials=2", "steps=10"]),
        (["simulate", "--preset", "noisy-sphereplus"], ["init=explicit", "budget=100"]),
        (["fht", "--preset", "noisy-sphereplus"], ["init=explicit", "trials=2", "budget=100"]),
        (["stagnate", "--preset", "thm2-example"],
         ["objective=counterexample", "trials=2", "steps=10"]),
        (["demo", "counterexample"], ["objective=sphere", "trials=2", "steps=10", "window=5"]),
    ], ids=["fht-trials-0", "stagnate-trials-0", "demo-window-0",
            "demo-window-beyond-steps", "stagnate-steps-negative", "simulate-stride-0",
            "demo-m-3", "stagnate-one-velocity", "simulate-explicit-without-positions",
            "fht-explicit-without-positions", "stagnate-objective-counterexample",
            "demo-objective-sphere"])
    def test_count_key_below_one_or_window_beyond_steps(self, tmp_path, command,
                                                         overrides):
        args = [*command, "--seed", "1", "--out", str(tmp_path / "o")]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 2
        assert not (tmp_path / "o").exists()

    def test_unknown_demo(self, tmp_path):
        rc = main(["demo", "nope", "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    # omega = 0.6 gives kappa = 1.64, so the velocity-sum series diverges;
    # omega = 1.2 and phi2 = 0 break the bound's other conditions
    @pytest.mark.parametrize("override", ["omega=0.6", "omega=1.2", "phi2=0"])
    def test_stagnate_checks_bound_conditions_before_simulating(self, tmp_path,
                                                                monkeypatch, override):
        from swarmlab import batch

        def simulate(*args, **kwargs):
            raise AssertionError("stagnate simulated before checking its bound")

        monkeypatch.setattr(batch, "run_two_particle_demo", simulate)
        rc = main(["stagnate", "--preset", "thm2-example", "--override", override,
                   "--override", "trials=10", "--override", "steps=10",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    # f(1) = -2.61: the window sums overflow, so the demo must reject the
    # point before it simulates, not after
    def test_demo_counterexample_rejects_unstable_point_before_simulating(self, tmp_path,
                                                                        capsys):
        args = ["demo", "counterexample", "--seed", "1", "--out", str(tmp_path / "o")]
        for item in ("omega=0.9", "phi1=3", "phi2=3", "steps=2000", "window=100",
                     "trials=10"):
            args += ["--override", item]
        assert main(args) == 2
        assert not (tmp_path / "o").exists()
        assert "not mean-square stable" in capsys.readouterr().err

    # a NaN passes an ordering check such as delta < 0; before, these ran
    # and reported results (fht: every trial a hit at delta = nan), and so
    # did an explicit start at an infinite position or a NaN velocity (every
    # trial censored)
    @pytest.mark.parametrize("command, preset, override", [
        ("fht", "noisy-sphereplus", "delta=nan"),
        ("fht", "noisy-sphereplus", "epsilon=nan"),
        ("fht", "noisy-sphereplus", "phi1=inf"),
        ("fht", "noisy-sphereplus", "phi2=nan"),
        ("fht", "noisy-sphereplus", "alpha=nan"),
        ("simulate", "noisy-sphereplus", "delta=nan"),
        ("simulate", "noisy-sphereplus", "epsilon=inf"),
        ("simulate", "noisy-sphereplus", "alpha=inf"),
        ("simulate", "prop1-bad-init", "phi1=nan"),
        ("simulate", "prop1-bad-init", "positions=inf"),
        ("simulate", "prop1-bad-init", "velocities=nan"),
        ("fht", "prop1-bad-init", "positions=inf"),
        ("fht", "prop1-bad-init", "velocities=nan"),
        ("stagnate", "thm2-example", "positions=inf,185"),
        ("stagnate", "thm2-example", "velocities=nan,-1"),
    ])
    def test_non_finite_swarm_parameter(self, tmp_path, command, preset, override):
        rc = main([command, "--preset", preset, "--override", override,
                   "--override", "trials=5", "--override", "budget=50",
                   "--seed", "1", "--threads", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--delta", "nan"], ["--delta", "inf"],
        ["--p-best", "inf"], ["--g-best", "nan"], ["--p-best=-inf"],
    ])
    def test_moments_non_finite_input(self, tmp_path, flags):
        rc = main(["moments", "--omega", "0.4", "--phi1", "1.5", "--phi2", "1.5",
                   *flags, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    # finite inputs whose oracle quantities overflow.  Before, the moments
    # and demo cases ended in an OverflowError traceback (exit 1) or, at
    # phi1 = 1e200, in three RuntimeWarnings and numpy's "Array must not
    # contain infs or NaNs"; at phi1 = phi2 = 1e80 f(1) is finite, but the
    # spectral radius warned; stagnate and regions warned before their
    # error, and regions called its too-wide window too narrow
    _MOMENTS = ["moments", "--phi1", "1.5", "--phi2", "1.5"]

    @pytest.mark.parametrize("argv, message", [
        ([*_MOMENTS, "--omega", "1e200"], "f(1) overflows"),
        (["moments", "--omega", "0.5", "--phi1", "1e200", "--phi2", "1.5"], "f(1) overflows"),
        ([*_MOMENTS, "--omega", "0.4", "--p-best", "1e200", "--g-best", "0"],
         "stationary moments overflow"),
        ([*_MOMENTS, "--omega", "0.4", "--delta", "1e200"], "stationary moments overflow"),
        (["moments", "--omega", "0.5", "--phi1", "1e80", "--phi2", "1e80"],
         "characteristic cubic of the second-moment block overflows"),
        (["demo", "counterexample", "--seed", "1", "--override", "delta=1e200"],
         "variance limit overflows"),
        (["demo", "counterexample", "--seed", "1", "--override", "omega=1e200"],
         "not mean-square stable"),
        (["stagnate", "--preset", "thm2-example", "--seed", "1", "--override", "phi2=1e200"],
         "kappa = inf is not below 1"),
        (["regions", "--phi-max", "1e308", "--resolution", "3"], "too wide"),
    ], ids=["moments-omega", "moments-phi1", "moments-p-best", "moments-delta",
            "moments-cubic", "demo-delta", "demo-omega", "stagnate-phi2", "regions-phi-max"])
    def test_oracle_overflow_exits_2_quietly(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    # argparse reads --phi as an ambiguous prefix of --phi1 and --phi2
    @pytest.mark.parametrize("phis", [["--phi", "1.5"], ["--phi1", "1.5"]])
    def test_moments_needs_phi1_and_phi2(self, tmp_path, phis):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--omega", "0.4", *phis, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_ball_radius_is_not_a_key(self, tmp_path):
        rc = main(["stagnate", "--preset", "thm2-example", "--override", "ball_radius=1",
                   "--override", "trials=2", "--override", "steps=10",
                   "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    # infinite bounds or width; a subnormal window whose first centre is its
    # lower bound; a window too narrow for three distinct centres; windows
    # whose distinct centres share 9-digit labels in regions.csv (before,
    # the phi case wrote 101 distinct labels for 400 columns)
    @pytest.mark.parametrize("window", [
        ["--omega-max", "inf"],
        ["--omega-min=-inf"],
        ["--phi-min=-1e308", "--phi-max", "1e308"],
        ["--omega-max", "5e-324", "--resolution", "2"],
        ["--phi-min", "1", "--phi-max", "1.0000000000000002"],
        ["--phi-min", "1", "--phi-max", "1.000001", "--resolution", "400"],
        ["--omega-min", "0.5", "--omega-max", "0.5000001", "--resolution", "400"],
    ])
    def test_degenerate_region_window(self, tmp_path, window):
        rc = main(["regions", "--resolution", "3", *window, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    # each is caught while the configuration and seed are read, before any run;
    # a later --seed wins over the first
    @pytest.mark.parametrize("argv, message", [
        (["--preset", "noisy-sphereplus", "--override", "trials=abc"],
         "bad value for trials: 'abc'"),
        (["--preset", "noisy-sphereplus", "--override", "require_nonneg_gbest=2"],
         "bad value for require_nonneg_gbest: '2' (expected 0 or 1, got '2')"),
        (["--config", "{config}"], "omega.cfg:1: expected key = value"),
        (["--preset", "noisy-sphereplus", "--override", "trials"],
         "--override expects key=value, got 'trials'"),
        ([], "missing configuration keys: omega, phi1, phi2, epsilon, m, trials, budget"),
        (["--preset", "noisy-sphereplus", "--seed", "abc"],
         "--seed must be an integer or 'auto', got 'abc'"),
    ], ids=["value-not-an-int", "bool-not-0-or-1", "config-line-without-equals",
            "override-without-equals", "no-preset", "seed-not-an-int"])
    def test_configuration_that_does_not_parse(self, tmp_path, capsys, argv, message):
        config = tmp_path / "omega.cfg"
        config.write_text("omega 0.4\n")
        argv = [a.format(config=config) for a in argv]
        rc = main(["fht", "--seed", "1", *argv, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()
        assert message in capsys.readouterr().err

    def test_output_directory_that_cannot_be_made_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        rc = main(["regions", "--resolution", "4", "--out", str(blocker / "sub")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert blocker.read_text() == "kept"


class TestReproducibility:
    def test_fht_byte_identical_reruns(self, tmp_path):
        args = ["fht", "--preset", "noisy-sphereplus",
                "--override", "trials=15", "--override", "budget=30000",
                "--seed", "42"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("fht.csv", "survival.csv", "summary.txt", "manifest.txt"):
            assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)

    def test_regions_byte_identical_reruns(self, tmp_path):
        args = ["regions", "--resolution", "25", "--svg"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("regions.csv", "regions.svg", "manifest.txt"):
            assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)

    def test_simulate_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--preset", "prop1-bad-init",
                "--override", "budget=2000", "--override", "stride=100",
                "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert _read(tmp_path / "a" / "trajectory.csv") == \
            _read(tmp_path / "b" / "trajectory.csv")

    def test_config_file_equals_override_route(self, tmp_path):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(
            "# noisy run, reduced\n"
            "omega = 0.4\nphi1 = 1.5\nphi2 = 1.5\ndelta = 0.01\nalpha = 1\n"
            "epsilon = 0.01\nm = 3\nn = 1\nobjective = sphere_plus\n"
            "init = random\nrequire_nonneg_gbest = 1\ntrials = 10\nbudget = 20000\n")
        assert main(["fht", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["fht", "--preset", "noisy-sphereplus",
                     "--override", "trials=10", "--override", "budget=20000",
                     "--seed", "5", "--out", str(tmp_path / "b")]) == 0
        assert _read(tmp_path / "a" / "fht.csv") == _read(tmp_path / "b" / "fht.csv")

    def test_delta_zero_override_matches_basic_config(self, tmp_path):
        base = ["simulate", "--preset", "noisy-sphereplus",
                "--override", "budget=5000", "--override", "stride=500",
                "--seed", "9"]
        assert main(base + ["--override", "delta=0",
                            "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--override", "delta=0.0",
                            "--out", str(tmp_path / "b")]) == 0
        assert _read(tmp_path / "a" / "trajectory.csv") == \
            _read(tmp_path / "b" / "trajectory.csv")


class TestManifest:
    def test_checksums_match_artifacts(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fht", "--preset", "noisy-sphereplus",
                     "--override", "trials=5", "--override", "budget=10000",
                     "--seed", "3", "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        entries = dict(line.split(" = ", 1) for line in manifest)
        assert entries["command"] == "fht"
        assert entries["seed"] == "3"
        assert "config_sha256" in entries
        for name in ("fht.csv", "survival.csv", "summary.txt"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert entries[f"artifact.{name}"] == digest

    def test_resolved_config_echoed(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fht", "--preset", "noisy-sphereplus",
                     "--override", "trials=5", "--override", "budget=10000",
                     "--seed", "3", "--out", str(out)]) == 0
        text = (out / "manifest.txt").read_text()
        assert "config.trials = 5" in text
        assert "config.objective = sphere_plus" in text


class TestSubcommands:
    # the window's omega cells include -1 exactly, where the Lyapunov bound
    # is 0/0
    def test_regions_through_omega_minus_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["regions", "--omega-min", "-1.5", "--omega-max", "1.5",
                     "--resolution", "333", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert "\n-1,0.00600600601," in (out / "regions.csv").read_text()

    def test_fht_csv_schema(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fht", "--preset", "noisy-sphereplus",
                     "--override", "trials=6", "--override", "budget=10000",
                     "--seed", "3", "--out", str(out)]) == 0
        lines = (out / "fht.csv").read_text().splitlines()
        assert lines[0] == "trial,outcome,evals,final_g_value"
        assert len(lines) == 7
        row = lines[1].split(",")
        assert row[1] in ("hit", "censored") and int(row[2]) % 3 == 0

    def test_simulate_trajectory_schema(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "prop1-bad-init",
                     "--override", "budget=1000", "--override", "stride=100",
                     "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,particle,dim,x,v,p,g,f_g"
        assert lines[1].startswith("0,0,0,0.9,-0.05,0.9,0.9,")

    def test_simulate_trajectory_rows_schema(self, tmp_path):
        out = tmp_path / "o"
        overrides = ["omega=0.4", "phi1=1.5", "phi2=1.5", "epsilon=1e-9", "m=2", "n=2",
                     "budget=20", "stride=1"]
        assert main(["simulate", "--seed", "2", "--out", str(out),
                     *[a for kv in overrides for a in ("--override", kv)]]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,particle,dim,x,v,p,g,f_g"
        # (1 init + 9 steps) * m * n rows
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10 * 2 * 2
        assert [tuple(map(int, r[:3])) for r in rows] == [
            (t, i, j) for t in range(10) for i in range(2) for j in range(2)]
        assert all(len(r) == 8 and repr(float(x)) == x for r in rows for x in r[3:])

    def test_simulate_rejects_start_without_nonnegative_position(self, tmp_path):
        params = make_params(0.4, 1.5, 1.5, 0.01, 1.0, 0.01, 3, 1)
        # seed 14's first draw puts every particle below 0, where f = +inf
        first = BatchSwarm(params, sphere_plus(), 1, 14)
        assert (first.X < 0).all()
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "noisy-sphereplus",
                     "--override", "budget=3000", "--seed", "14", "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "trajectory.csv").read_text().splitlines()[1:]]
        start = [float(r[3]) for r in rows if r[0] == "0"]
        assert max(start) >= 0
        fht_start = BatchSwarm(params, sphere_plus(), 1, 14, require_nonneg_gbest=True)
        assert start == fht_start.X[:, 0, 0].tolist()
        manifest = (out / "manifest.txt").read_text().splitlines()
        final = [ln.split(" = ")[1] for ln in manifest if ln.startswith("final_g_value")]
        assert np.isfinite(float(final[0]))

    # a random start with rejection (seed 14 redraws it), a random start that
    # hits while stepping, and an explicit start that is censored
    @pytest.mark.parametrize("preset, seed, overrides", [
        ("noisy-sphereplus", 14, ["budget=3000"]),
        ("noisy-sphereplus", 3, ["budget=600", "objective=sphere", "n=2",
                                 "require_nonneg_gbest=0", "epsilon=1e-6"]),
        ("prop1-bad-init", 1, ["budget=200"]),
    ])
    def test_simulate_agrees_with_fht_trial_0(self, tmp_path, preset, seed, overrides):
        common = ["--preset", preset, "--seed", str(seed)]
        for item in overrides:
            common += ["--override", item]
        assert main(["simulate", *common, "--out", str(tmp_path / "s")]) == 0
        assert main(["fht", *common, "--override", "trials=1", "--threads", "1",
                     "--out", str(tmp_path / "f")]) == 0
        manifest = dict(line.split(" = ", 1) for line in
                        (tmp_path / "s" / "manifest.txt").read_text().splitlines())
        row = (tmp_path / "f" / "fht.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "0"
        assert [manifest["outcome"], manifest["evals"], manifest["final_g_value"]] == row[1:]

    def test_simulate_default_stride_at_the_preset_budget(self, tmp_path):
        # budget 10^6 and m = 1 give the stride budget // (1000 m) = 1000; the
        # particle's state repeats from step 1072, which keeps this run short
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "prop1-bad-init", "--seed", "1",
                     "--out", str(out)]) == 0
        manifest = dict(line.split(" = ", 1) for line in
                        (out / "manifest.txt").read_text().splitlines())
        assert manifest["stride"] == "1000"
        assert (manifest["outcome"], manifest["evals"]) == ("censored", "1000000")
        rows = [line.split(",") for line in
                (out / "trajectory.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(0, 1_000_000, 1000))
        x0, v0, omega = 0.9, -0.05, 0.5
        for r in rows:
            t, (x, v, p, g, fg) = int(r[0]), map(float, r[3:])
            # every move improves, so both bests track the particle: a pure drift
            drift = reference.drift_position(x0, v0, omega, t)
            assert abs(x - drift) <= 1e-12 * abs(drift)
            assert abs(v - v0 * omega ** t) <= 1e-12 * abs(v0 * omega ** t) + 1e-300
            assert (p, g, fg) == (x, x, x * x)

    # a particle at rest at (-0.0, 1.0): its first step turns x_0 into +0.0;
    # with omega < 0 the zero velocity then changes sign on every step, so the
    # state never repeats, and with omega > 0 it repeats from step 1
    @pytest.mark.parametrize("omega", ["-0.5", "0.5"])
    def test_simulate_from_a_negative_zero_matches_the_scalar_replay(self, tmp_path, omega):
        out = tmp_path / "o"
        budget, seed = 300, 1
        assert main(["simulate", "--seed", str(seed), "--override", f"omega={omega}",
                     "--override", "phi1=1.5", "--override", "phi2=1.5",
                     "--override", "epsilon=0.01", "--override", "m=1", "--override", "n=2",
                     "--override", "init=explicit", "--override", "positions=-0.0,1.0",
                     "--override", "velocities=0,0", "--override", f"budget={budget}",
                     "--override", "stride=1", "--out", str(out)]) == 0
        params = make_params(float(omega), 1.5, 1.5, 0.0, 1.0, 0.01, 1, 2)
        draw = scalar_reference.trial_draws(seed, 0)
        s = scalar_reference.ref_explicit(scalar_reference.sphere, [[-0.0, 1.0]], [[0.0, 0.0]])
        want = ["t,particle,dim,x,v,p,g,f_g"]
        while True:
            want += [",".join([f"{s.t},0,{j}"] + [repr(float(a)) for a in (
                s.positions[0, j], s.velocities[0, j], s.pbest_positions[0, j],
                s.gbest_position[j], s.gbest_value)]) for j in range(2)]
            if s.t + 2 > budget:
                break
            s = scalar_reference.ref_step(s, params, scalar_reference.sphere, draw)
        assert (out / "trajectory.csv").read_text().splitlines() == want
        assert "-0.0" in want[1] and want[3].startswith("1,0,0,0.0,0.0,")

    def test_stagnate_report(self, tmp_path):
        out = tmp_path / "o"
        assert main(["stagnate", "--preset", "thm2-example",
                     "--override", "trials=30", "--override", "steps=500",
                     "--seed", "2", "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "entered_ball_radius_0.5 = 0" in text
        assert "condition_positions_above_threshold = 0" in text
        assert (out / "d_bounds.csv").exists()

    # one trial has no sample spread; before, numpy warned and the report read se nan
    def test_stagnate_one_trial_reports_se_inf(self, tmp_path):
        out = tmp_path / "o"
        assert main(["stagnate", "--preset", "thm2-example",
                     "--override", "trials=1", "--override", "steps=20",
                     "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        velocity_lines = [ln for ln in lines if ln.startswith("mean_sum_abs_v_particle")]
        assert len(velocity_lines) == 2
        assert all("(se inf," in ln for ln in velocity_lines)
        assert "nan" not in "\n".join(lines)

    # every trial's sign prerequisite fails before t = 10, so no trial is
    # retained; before, numpy warned of a mean of an empty slice
    def test_stagnate_with_no_retained_trial_reads_nan(self, tmp_path):
        out = tmp_path / "o"
        assert main(["stagnate", "--preset", "thm2-example",
                     "--override", "positions=0.1,0.2", "--override", "velocities=-5,-5",
                     "--override", "trials=20", "--override", "steps=60",
                     "--seed", "1", "--out", str(out)]) == 0
        rows = (out / "d_bounds.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [["10", "0", "nan", "inf"],
                                                        ["50", "0", "nan", "inf"]]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert digests == {
            "d_bounds.csv": "6a9d63497973f7ff6bf0a04cd2099b139b90c3ae2b0e5c7896826d8cce5aac9b",
            "manifest.txt": "d1d6856167e18af3aca9c186ed86b1889aa0753d1abf108fc566b338a60f034c",
            "report.txt": "1e735b8850bdee00fde7742939b541dbb0263dfa1d66d473858e829a0edabb2c",
        }

    def test_moments_table(self, tmp_path):
        out = tmp_path / "o"
        assert main(["moments", "--omega", "0.4", "--phi1", "1.5", "--phi2", "1.5",
                     "--delta", "0.1", "--out", str(out)]) == 0
        text = (out / "moments.csv").read_text()
        assert "f_one,0.645" in text
        assert "var_limit_oracle" in text
        report = dict(line.split(" = ") for line in
                      (out / "report.txt").read_text().splitlines())
        assert float(report["var_limit_closed_form"]) == pytest.approx(
            float(report["var_limit_oracle"]), rel=1e-9)

    def test_demo_counterexample(self, tmp_path):
        out = tmp_path / "o"
        assert main(["demo", "counterexample",
                     "--override", "trials=4", "--override", "steps=5000",
                     "--override", "window=2000",
                     "--seed", "5", "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "pbest_updates_particle2_total = 0" in text

    def test_demo_counterexample_one_trial_reports_se_inf(self, tmp_path):
        out = tmp_path / "o"
        assert main(["demo", "counterexample",
                     "--override", "trials=1", "--override", "steps=500",
                     "--override", "window=100",
                     "--seed", "5", "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "(se inf, window last 100 steps)" in text
        assert "nan" not in text

    def test_seed_auto_accepted(self, tmp_path):
        assert main(["fht", "--preset", "noisy-sphereplus",
                     "--override", "trials=3", "--override", "budget=5000",
                     "--seed", "auto", "--out", str(tmp_path / "o")]) == 0

    def test_threads_flag_matches_single(self, tmp_path):
        base = ["fht", "--preset", "noisy-sphereplus",
                "--override", "trials=12", "--override", "budget=20000",
                "--seed", "21"]
        assert main(base + ["--threads", "1", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--threads", "4", "--out", str(tmp_path / "b")]) == 0
        assert _read(tmp_path / "a" / "fht.csv") == _read(tmp_path / "b" / "fht.csv")

    # a SWARMLAB_THREADS left in the environment, even a malformed one, is not read
    def test_threads_env_ignored(self, tmp_path, monkeypatch):
        base = ["fht", "--preset", "noisy-sphereplus",
                "--override", "trials=8", "--override", "budget=10000",
                "--seed", "22"]
        monkeypatch.setenv("SWARMLAB_THREADS", "two")
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        monkeypatch.delenv("SWARMLAB_THREADS")
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        for name in ("fht.csv", "survival.csv", "summary.txt", "manifest.txt"):
            assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)
