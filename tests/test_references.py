"""The test references stay independent of the code they check: neither they,
nor a test module they import, nor the benchmark reference they load imports
swarmlab."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
BENCHMARK_REFERENCE = TESTS.parent / "swarmbench" / "reference.py"


def _imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("name", ["scalar_reference", "moments_reference"])
def test_reference_imports_no_swarmlab_module(name):
    pending, seen = [TESTS / f"{name}.py", BENCHMARK_REFERENCE], set()
    while pending:
        path = pending.pop()
        seen.add(path)
        for module in _imports(path):
            top = module.split(".")[0]
            assert top != "swarmlab", f"{path.name} imports {module}"
            local = TESTS / f"{top}.py"
            if local.exists() and local not in seen:
                pending.append(local)
    assert len(seen) >= 3   # the reference, the benchmark loader and its target
