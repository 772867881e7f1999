"""Every shipped artifact must lint clean.

Two families are covered: the ``examples/*.cir`` netlists (linted as
text, so the full pipeline including text checks runs) and every
registered :mod:`repro.circuits_lib` template instantiated at default
parameters (linted as built circuits).  Zero lint *errors* is the
gate; shipped artifacts should also carry no warnings, and pinning
that here keeps the bar from silently eroding.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.circuit.netlist import Circuit
from repro.circuits_lib.templates import TEMPLATES
from repro.lint import lint_circuit, lint_netlist
from repro.runtime.jobs import SDE_BUILDERS, materialize_circuit, plain_circuit

EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.cir"))

#: Templates whose builders require arguments beyond their defaults.
TEMPLATE_PARAMS = {
    "rc_mesh": {"rows": 3, "cols": 3},
    "rtd_mesh": {"rows": 2, "cols": 2},
    "rtd_chain": {"stages": 3},
}


def test_example_netlists_exist():
    assert EXAMPLES, "examples/ ships no .cir netlists?"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_netlist_lints_clean(path):
    report = lint_netlist(path.read_text(), name=path.name)
    assert report.ok, report.render()
    assert not report.diagnostics, report.render()


def _template_circuit(name: str):
    """Materialize a template at defaults; None for pure-SDE builders."""
    params = TEMPLATE_PARAMS.get(name, {})
    if name in SDE_BUILDERS and name not in dir(
            __import__("repro.circuits_lib", fromlist=["x"])):
        return None  # job-spec-only SDE alias (ornstein_uhlenbeck)
    built = materialize_circuit(None, name, None, params)
    circuit = plain_circuit(built)
    return circuit if isinstance(circuit, Circuit) else None


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_template_instantiation_lints_clean(name):
    try:
        circuit = _template_circuit(name)
    except Exception:
        pytest.skip(f"template {name!r} has no circuit materialization")
    if circuit is None:
        pytest.skip(f"template {name!r} builds no Circuit (pure SDE)")
    report = lint_circuit(circuit, name=name)
    assert report.ok, report.render()
    assert not report.diagnostics, report.render()


def test_circuit_templates_are_actually_exercised():
    """The skip path must not swallow the whole registry."""
    exercised = 0
    for name in TEMPLATES:
        try:
            if _template_circuit(name) is not None:
                exercised += 1
        except Exception:
            continue
    assert exercised >= 6
