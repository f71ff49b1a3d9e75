"""Golden digests: the sha-256 of every artifact of small CLI runs, of the
fixed-attractor runners' arrays, of the spectral-radius grid and of a
diverging hitting-time run's, pinned
to the bytes the code wrote when they were taken.  A change meant to leave
every output byte-identical must leave these as they are.

The simulation and the region scan call no LAPACK routine, so the digests do
not depend on the machine's BLAS/LAPACK build.  The one LAPACK-derived value
in these artifacts, the oracle variance in the `demo counterexample` report,
is printed at 6 significant digits.
"""

import hashlib

import numpy as np
import pytest

from swarmlab import batch, moments
from swarmlab.cli import main
from swarmlab.core import make_params, sphere

# sphere at n = 2 from a random start, with noise: hits while stepping and
# censored trials at a budget of 150
_SPHERE2 = ["--preset", "noisy-sphereplus", "--override", "objective=sphere",
            "--override", "n=2", "--override", "require_nonneg_gbest=0",
            "--override", "epsilon=1e-6"]
# an explicit start at m = 2, n = 2, written flat in particle-major order;
# trial 0 of the fht run is censored, as is the simulate run
_EXPLICIT22 = ["--preset", "prop1-bad-init", "--override", "m=2", "--override", "n=2",
               "--override", "positions=0.9,-0.3,0.4,0.7",
               "--override", "velocities=-0.05,0.1,0.0,-0.2",
               "--override", "epsilon=1e-2", "--override", "budget=100", "--seed", "9"]

CLI_RUNS = {
    "simulate-hit": ["simulate", *_SPHERE2, "--override", "budget=600",
                     "--override", "stride=5", "--seed", "3"],
    "simulate-censored": ["simulate", "--preset", "prop1-bad-init", "--override",
                          "budget=200", "--override", "stride=10", "--seed", "1"],
    "fht-sphere": ["fht", *_SPHERE2, "--override", "budget=150", "--override", "trials=40",
                   "--seed", "42", "--threads", "1"],
    # phi1 = 0: the R term's factor is the scalar phi1; trials hit at 16
    # different steps inside one 68-step draw block, so dropping them cuts it
    "fht-phi1-zero": ["fht", *_SPHERE2, "--override", "phi1=0.0", "--override", "budget=150",
                      "--override", "trials=40", "--seed", "42", "--threads", "1"],
    "fht-explicit-m2n2": ["fht", *_EXPLICIT22, "--override", "trials=20", "--threads", "2"],
    "simulate-explicit-m2n2": ["simulate", *_EXPLICIT22, "--override", "stride=3"],
    "fht-noisy-sphereplus": ["fht", "--preset", "noisy-sphereplus", "--override", "budget=9",
                             "--override", "trials=30", "--seed", "42", "--threads", "1"],
    "stagnate": ["stagnate", "--preset", "thm2-example", "--override", "trials=30",
                 "--override", "steps=500", "--seed", "2"],
    "demo-counterexample": ["demo", "counterexample", "--override", "trials=4",
                            "--override", "steps=5000", "--override", "window=2000",
                            "--seed", "5"],
    "regions-svg": ["regions", "--resolution", "40", "--svg"],
    # 160 000 cells: several of the scan's cell blocks
    "regions-400": ["regions", "--resolution", "400"],
}

# artifact name -> sha-256 of its bytes, per run
DIGESTS = {
    "simulate-hit": {
        "manifest.txt": "890823d5444a94f2d317f9669fed05c8b887d3025d3644fa7f6fc6d8b3bc5562",
        "trajectory.csv": "6d52d83e628b7dde86174fe84f81310b284c26814c018422e05e3c520c2b0105",
    },
    "simulate-censored": {
        "manifest.txt": "f9c0a037680c63dd0380a8608bc86e8b3b5c00bdddeb9021c6e28d7b0bc3a06d",
        "trajectory.csv": "2977c6fa84b079df652dde6a5dac96ce6ecc5a81169d79526dd5d190110100b7",
    },
    "fht-sphere": {
        "fht.csv": "6821cbd23ce3cda9d335ac4f9a760ca83e723c61d8ab355934f99d5659102f36",
        "manifest.txt": "f098329e832c56ba302ff6572886769b70136b9a03103a73596732349972446a",
        "summary.txt": "56b9242b57abb0c41d85ab1672eefa33f64b10a049d48eb15caa51dce457e3e2",
        "survival.csv": "bcd3eacfdd5c0bce08564859b2f34cc6d75f9d4445a02cbf4d28a50979d81090",
    },
    "fht-phi1-zero": {
        "fht.csv": "03c7e439911a39eaefbc2d0080b4e7c32b7121ea7f4a8e83bf2e41fe94de9d77",
        "manifest.txt": "94f05b09fb7e1d4c7847519b6a84c06ee0bb064aa4c315dadba42b00e324148d",
        "summary.txt": "7b4c26e067194cc049b9aeac452fb3ad4bbd3b593506c11fc542d4189904736d",
        "survival.csv": "9315251299d2c9c95e0a143052f408f8b6c0cbfb86c9d1ef37cf9405ccb46b1a",
    },
    "fht-explicit-m2n2": {
        "fht.csv": "cd54c8e61ae3db874fadee6637726acceeccc2bee8f43b7c34329cb12484632e",
        "manifest.txt": "471daa29909d4a3c330928ba45e92b62ea3aed13c4ce8e0ab09d3607d85f735b",
        "summary.txt": "c94aaebfb995371a7b3f297c3fddfcc42a90f69f1eea65ff9c89c70c6a077c3e",
        "survival.csv": "f123fac96f944b38e183d3f4394a19ba427d3b9f592b5d1e30ee891a0ae7b857",
    },
    "simulate-explicit-m2n2": {
        "manifest.txt": "aaf455ccbb25a0821368d04d6a52b8245ebc3d5d01a6cbc0bbd92f48a9f7f1d6",
        "trajectory.csv": "65b330a65af9759cbcb1012dcd394ab0cdb366c1a3dba78d4ab387f7aeb77bcf",
    },
    "fht-noisy-sphereplus": {
        "fht.csv": "59a8854e02d92368b33cdce40ac665476a3586b6e3363ab71f35f67afb324cc4",
        "manifest.txt": "29c1e48a9e31328de15a8e5370389ad89f765c4b12ac51fd5af48868cefe7fc0",
        "summary.txt": "97dea8a0a405ba6a57efe6ddd1f0dc27034d74725d240969762ef2303da348b6",
        "survival.csv": "8ae9f1daf5733b05addda7b447c0d218f861da102e574afe2e2ccff5e20edd08",
    },
    "stagnate": {
        "d_bounds.csv": "70a9f29ca88fc19235301c0f1c918f5f493e96a09981dd781037eb781f85d5f1",
        "manifest.txt": "95ad41522b934b660d2fc14312e51b1e4eaa714c831c424e57d6f173040bf5f3",
        "report.txt": "d90feccaacb05f92cb75d30711630e5b8d525c4e7c419e27f1b928db45a059ee",
    },
    "demo-counterexample": {
        "manifest.txt": "16d0d533ad45a81760aebd98f1717bf8ae9491da19501780c07b21df64e93c3a",
        "report.txt": "49678b213f2e4c97bd331d9910a01483ee8bad3da35149bf57db7426d6406855",
    },
    "regions-svg": {
        "manifest.txt": "533ad79ae5c36f4887aec45bace4eb73e52a393f090126fd4a0036b84bb19741",
        "regions.csv": "161a756d698f10d78cd3982d82a69186b9fb3ff7dfd901a80d3833d36939236e",
        "regions.svg": "a9b0b4a17e4a50480406fa5bfec8fadbef2fbe7d95301724153df742b80a8bfc",
    },
    "regions-400": {
        "manifest.txt": "0a27f3c21afecd45dd837c2bb115e46c4dc03bb4653da9c09ff6fc550c489b27",
        "regions.csv": "0466fee4b4f5932e3be9bae3c99ad78dec3288aa69ebdbde2d7477a240efa385",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_artifacts_byte_identical(tmp_path, name):
    assert main(CLI_RUNS[name] + ["--out", str(tmp_path)]) == 0
    got = {p.name: _sha256(p.read_bytes()) for p in sorted(tmp_path.iterdir())}
    assert got == DIGESTS[name]


def _ensemble_digest(params, p_best, g_best, trials=64, steps=300, checkpoints=(1, 2, 37, 150)):
    snaps = batch.run_fixed_attractor_ensemble(params, p_best, g_best, trials=trials,
                                               steps=steps, master_seed=11,
                                               checkpoints=checkpoints)
    h = hashlib.sha256()
    for t in sorted(snaps):
        h.update(str(t).encode() + snaps[t].tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("delta, p_best, g_best, want", [
    (0.0, 1.0, 0.0, "665c866cd7f9b42dca17dbc6e8c7af7b5134da200097bad69bc9ef3d4c285946"),
    (0.01, 0.3, -0.7, "f670be77d9ad626578b3beea0c8e703781e4a8f6f9dbf4cf3408459677e5daf6"),
])
def test_fixed_attractor_ensemble_byte_identical(delta, p_best, g_best, want):
    params = make_params(0.4, 1.3, 1.7, delta, 1.0, 1e-2, 1, 1)
    assert _ensemble_digest(params, p_best, g_best) == want


# 70 000 chains run as several chain blocks, the last one partial
@pytest.mark.parametrize("delta, p_best, g_best, want", [
    (0.0, 1.0, 0.0, "aa6b7976f5de80667292c133ab53be3755b351da22a6d40fa33e54815b3dbffd"),
    (0.01, 0.3, -0.7, "c120353a478e594d40a8c5c7e02d0135fc15e9ea913df627c6eb7e36b6c56ae3"),
])
def test_fixed_attractor_ensemble_of_many_chains_byte_identical(delta, p_best, g_best, want):
    params = make_params(0.4, 1.3, 1.7, delta, 1.0, 1e-2, 1, 1)
    assert _ensemble_digest(params, p_best, g_best, trials=70_000, steps=12,
                            checkpoints=(1, 5)) == want


def test_improvement_counts_of_many_chains_byte_identical():
    params = make_params(0.4, 1.5, 1.5, 0.01, 1.0, 1e-2, 1, 1)
    counts = batch.run_improvement_counts(params, 1.0, trials=70_000, burn_in=4,
                                          keep_steps=8, master_seed=13)
    assert (counts.samples, counts.compound_hits, counts.y_tail_hits) == (560000, 93755, 443936)
    assert _sha256(counts.final_positions.tobytes()) == (
        "0a3898c9377cc30c6ed6360c01be0e59c1fcdc2c07dc395d87280f9a3a714280")


# the default window at resolution 400, as `regions` scans it; unlike the
# other digests this one rests on numpy's cbrt, arccos and cos
def test_radius_grid_byte_identical():
    res = 400
    omega = (np.arange(res) + 0.5) / res
    phi = 4.0 * (np.arange(res) + 0.5) / res
    OM, PH = np.meshgrid(omega, phi, indexing="ij")
    got = moments.second_moment_radius_grid(OM, PH, PH)
    assert _sha256(got.tobytes()) == (
        "9df382c004b6c892945f673937afd843c691ce12eea3fedf90c5d6d2ca052fac")


def test_improvement_counts_byte_identical():
    params = make_params(0.4, 1.5, 1.5, 0.01, 1.0, 1e-2, 1, 1)
    counts = batch.run_improvement_counts(params, 1.0, trials=200, burn_in=50,
                                          keep_steps=400, master_seed=13)
    assert (counts.samples, counts.compound_hits, counts.y_tail_hits) == (80000, 38605, 7830)
    assert _sha256(counts.final_positions.tobytes()) == (
        "a87f7e30a17b570a1eee9a652b8c2929d18108db1da9d8910993f5821349d3ce")


# omega 1.2 lies outside the stable region: every trial's swarm diverges
# through inf to NaN, and all 50 are censored at the budget.  The noise-free
# variant meets the freeze check every 64 steps with NaN states
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("delta, want", [
    (0.01, "5e668b0c0e00520222f418d6a52226b41e326cad60527c49ffb9a1f6ea18daf0"),
    (0.0, "d1dbb0093205f33d7748719e65f5ac7d9e9c8ddafa010f9b98576df7f41edc38"),
])
def test_divergent_fht_run_byte_identical(delta, want):
    params = make_params(1.2, 1.5, 1.5, delta, 1.0, 1e-8, 3, 1)
    res = batch.run_fht_batch(params, sphere(), trials=50, budget=30_000, master_seed=0)
    assert (res.hit_evals < 0).all()
    assert _sha256(res.hit_evals.tobytes() + res.final_gbest_value.tobytes()) == want
