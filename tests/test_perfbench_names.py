"""The benchmark tracer's name table must resolve against ``repro``.

``perfbench/spans.py`` patches the entry points it times by looking
them up with ``getattr``; a refactor that deletes or renames one of
those names would crash every traced benchmark run.  This test installs
and uninstalls the tracer and checks each name in its tables, so such a
refactor fails here instead.  It reads ``perfbench/`` and changes
nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(spans):
    originals = {(module, attr): getattr(importlib.import_module(module), attr)
                 for module, attr, _ in spans.FUNCTIONS}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer._patches
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_every_function_resolves(spans):
    for module, attr, _span in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_every_method_class_resolves(spans):
    for module, name, methods in spans.METHODS:
        cls = getattr(importlib.import_module(module), name, None)
        assert isinstance(cls, type), f"{module}.{name}"
        assert methods
