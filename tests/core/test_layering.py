"""Layering: the Algorithm 4.1 reference never reaches into the engine.

``repro.core`` is the readable reference and the oracle the engine is
checked against, so its Algorithm 4.1 modules must not import
``repro.engine`` anywhere — not at module level and not lazily inside a
function.  The check reads the source, so it also covers branches no
test executes.
"""

import ast
import importlib.util

import pytest

REFERENCE_MODULES = (
    "repro.core.bandwidth",
    "repro.core.prime_subpaths",
    "repro.core.temp_s",
)


def imported_modules(tree):
    """Every module name an ``import`` statement in ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


@pytest.mark.parametrize("module", REFERENCE_MODULES)
def test_reference_module_does_not_import_the_engine(module):
    origin = importlib.util.find_spec(module).origin
    with open(origin, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=origin)
    engine_imports = [
        name
        for name in imported_modules(tree)
        if name == "repro.engine" or name.startswith("repro.engine.")
    ]
    assert engine_imports == [], f"{module} imports {engine_imports}"
