"""The benchmark's tracer (`swarmbench/tracing.py`) patches swarmlab entry
points by name.  Installing it here fails as soon as a traced name is gone,
without a benchmark run."""

from swarmlab import cli

from benchmark_modules import load


def test_tracer_installs_on_every_traced_name_and_uninstalls(tmp_path):
    tracing = load("tracing")
    targets = [(owner, attr) for pairs in tracing.SPANS.values() for owner, attr in pairs]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(targets, originals))
        assert cli.main(["simulate", "--preset", "prop1-bad-init", "--seed", "1",
                         "--override", "budget=200", "--out", str(tmp_path)]) == 0
        figures = tracer.round_figures()
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in zip(targets, originals))
    # simulate runs the batch kernel's hit loop on a one-trial swarm: its
    # steps are `BatchSwarm.step` calls, none through `engine.step`, and
    # nothing in it hashes draws one at a time
    assert figures["engine.step.calls"] == 0
    assert figures["batch.step.calls"] == 199
    assert figures["engine.rng_uniform.calls"] == 0
