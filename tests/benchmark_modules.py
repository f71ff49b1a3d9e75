"""Modules of the benchmark (`swarmbench/`), loaded by path: the benchmark is
a directory of scripts, not a package on the import path."""

import importlib.util
from pathlib import Path

SWARMBENCH = Path(__file__).resolve().parents[1] / "swarmbench"


def load(name: str):
    """A fresh module object of `swarmbench/<name>.py`."""
    spec = importlib.util.spec_from_file_location(f"swarmbench_{name}",
                                                  SWARMBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's independent reference: the hash, the update rule and the
# exact moments re-derived from their definitions, without importing swarmlab
reference = load("reference")
