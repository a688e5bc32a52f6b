"""What the program modules import from the object-level adapters.

``fluxes``, ``sources`` and ``hydrostatic`` wrap the formulas of
``kernel`` as functions on state objects, for tests and oracles. The
step and the diagnostics work on plain arrays, so a program module
imports from an adapter only the names that ``bench/tracer.py`` rebinds
in that module (its timers need them to resolve) and ``solver``'s
``resolved_split_form``. The modules are read with ``ast``, not
imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ADAPTERS = ("fluxes", "sources", "hydrostatic")
PROGRAM = ("solver", "diagnostics", "cli", "presets", "kernel", "core")
ALLOWED = {("solver", "sources", "resolved_split_form")}


def _tracer_bindings():
    """(module, adapter, name) for each binding ``swelab.module:name`` that
    the tracer lists under a span of adapter ``adapter``."""
    out = set()
    for node in ast.parse((ROOT / "bench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for span, bindings in ast.literal_eval(node.value).items():
                for binding in bindings:
                    module, name = binding.split(":")
                    out.add((module.removeprefix("swelab."), span.split(".")[0], name))
    return out


def _adapter_imports(module):
    """(adapter, name) of each name ``module`` imports from an adapter; an
    adapter imported as a module gives the name '*'."""
    adapters = {f"swelab.{a}": a for a in ADAPTERS}
    tree = ast.parse((ROOT / "src" / "swelab" / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) is relative to the swelab package
            source = ".".join(filter(None, ["swelab", node.module])) if node.level else node.module
            for alias in node.names:
                if source in adapters:
                    yield adapters[source], alias.name
                elif f"{source}.{alias.name}" in adapters:
                    yield alias.name, "*"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = ".".join(alias.name.split(".")[:2])
                if top in adapters:
                    yield adapters[top], "*"


@pytest.mark.parametrize("module", PROGRAM)
def test_program_modules_import_only_traced_adapter_names(module):
    allowed = _tracer_bindings() | ALLOWED
    stray = [(a, n) for a, n in _adapter_imports(module) if (module, a, n) not in allowed]
    assert stray == [], f"{module} imports {stray} from the object-level adapters"


def test_the_import_check_sees_the_traced_bindings():
    """The check reads real imports: the step's traced adapter names are there."""
    assert {("fluxes", "roe_flux"), ("hydrostatic", "hr_interface_terms"),
            ("sources", "resolved_split_form")} <= set(_adapter_imports("solver"))
    assert ("solver", "hydrostatic", "hr_interface_terms") in _tracer_bindings()
