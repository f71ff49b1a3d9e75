"""swarmlab: particle swarm simulation, stability regions, and
first-hitting-time experiments."""

from .core import (
    ObjectiveFn,
    PsoParams,
    counterexample,
    get_objective,
    make_params,
    monotone_transform,
    sphere,
    sphere_plus,
)
from .engine import init_swarm, run_until_hit
from .moments import (
    equilibrium_point,
    f_one,
    iterate_moments,
    moment_transition,
    stationary_moments,
    stationary_variance,
    variance_limit,
)
from .regions import scan_regions
from .stagnation import (
    StagnationVerdict,
    TwoParticleInit,
    bad_init_event,
    check_two_particle_stagnation,
    d_abs_expectation_bound,
    expected_abs_one_minus_s_phi,
    fib_closed_form,
    kappa,
    lam,
    one_particle_trajectory,
    velocity_sum_bound,
)
from .experiments import (
    FhtEstimate,
    counterexample_demo,
    estimate_fht,
    improvement_probability_check,
    pbest_null_sequence_check,
    stagnation_demo_two_particles,
    stationary_moment_check,
)

__version__ = "0.1.0"
