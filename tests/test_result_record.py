"""Pins for the two march records of :mod:`repro.analysis.waveforms`.

:class:`~repro.analysis.waveforms.TransientResult` (one state row per
accepted point) and
:class:`~repro.analysis.waveforms.EnsembleTransientResult` (one ``(K, n)``
stack per point) record the same march: accepted times, step counts and
limits, the DC start, the abort flag and the flop counter.  These pins
hold what a rework of the two containers must not move:

* the ``summary()`` and ``repr`` text and the sorted instance attribute
  names of a SPICE result with Newton iteration counts, a SWEC K = 1
  result with step limits and a converged DC start, one whose DC start
  did not converge, a ``max_points``-aborted run, and a K = 3 ensemble
  with a backend, a conductance trace on one instance and that
  instance's scalar copy;
* the error messages of empty results and of an unknown node;
* stored results: ``result_record_pins.expected.json`` keeps, under
  ``stored_pickles``, one base64 pickle of each class written before the
  two containers shared their record.  A ``ResultStore`` holds such
  pickles, so they must still load, with every attribute and the
  ``result_summary`` record unchanged.

Regenerate the text pins with ``pytest --update-golden`` only for a
change that is meant to move them; ``stored_pickles`` is never rewritten.
"""

from __future__ import annotations

import base64
import functools
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.waveforms import EnsembleTransientResult, TransientResult
from repro.baselines.spice import SpiceTransient
from repro.circuit import Pulse
from repro.circuits_lib import fet_rtd_inverter
from repro.core.stepper import LinearStepper
from repro.errors import AnalysisError
from repro.service.store import result_summary
from repro.swec import SwecEnsembleTransient, SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions

PINS = Path(__file__).with_name("result_record_pins.expected.json")

STEP = StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.2e-9,
                          h_initial=1e-12)


def _inverter(fet_vth: float = 1.0):
    vin = Pulse(0.0, 5.0, delay=0.5e-9, rise=0.3e-9, fall=0.3e-9,
                width=2e-9, period=5e-9)
    circuit, _ = fet_rtd_inverter(vin=vin, fet_vth=fet_vth)
    return circuit


def _record(result) -> dict:
    return {"summary": result.summary(), "repr": repr(result),
            "attributes": sorted(vars(result))}


def _pin(golden_json, key: str, result) -> None:
    golden_json(PINS, _record(result), key=key)


class TestTextPins:
    def test_spice_with_newton_counts(self, golden_json):
        result = SpiceTransient(_inverter()).run(1e-9)
        assert result.iteration_counts
        _pin(golden_json, "spice-newton", result)

    def test_swec_k1_step_limits_and_dc_start(self, golden_json):
        result = SwecTransient(_inverter(),
                               SwecOptions(step=STEP, dv_limit=0.5)).run(1e-9)
        assert result.step_limits and result.dc_converged is True
        _pin(golden_json, "swec-k1", result)

    def test_swec_k1_dc_start_not_converged(self, golden_json, monkeypatch):
        monkeypatch.setattr(
            LinearStepper, "_dc_initialize",
            functools.partialmethod(LinearStepper._dc_initialize, max_iter=1))
        result = SwecTransient(_inverter(),
                               SwecOptions(step=STEP, dv_limit=0.5)).run(0.2e-9)
        assert result.dc_converged is False
        _pin(golden_json, "swec-k1-dc-not-converged", result)

    def test_swec_k1_aborted_at_max_points(self, golden_json):
        options = SwecOptions(step=STEP, dv_limit=0.5, max_points=20)
        result = SwecTransient(_inverter(), options).run(1e-9)
        assert result.aborted
        _pin(golden_json, "swec-k1-aborted", result)

    def test_ensemble_k3_and_instance(self, golden_json):
        circuits = [_inverter(1.0 + 0.1 * k) for k in range(3)]
        options = SwecOptions(step=STEP, dv_limit=0.5, trace_conductance=True)
        result = SwecEnsembleTransient(circuits, options,
                                       trace_instances=(1,)).run(0.5e-9)
        assert result.backend is not None
        _pin(golden_json, "ensemble-k3", result)
        _pin(golden_json, "ensemble-k3-instance-1", result.instance(1))
        _pin(golden_json, "ensemble-k3-instance-0", result.instance(0))


class TestErrorMessages:
    def test_empty_results(self, golden_json):
        messages = {}
        scalar = TransientResult(("a", "b"))
        ensemble = EnsembleTransientResult(("a", "b"), 2)
        calls = {
            "transient.t_final": lambda: scalar.t_final,
            "transient.at": lambda: scalar.at(0.0, "a"),
            "transient.final_voltages": scalar.final_voltages,
            "ensemble.t_final": lambda: ensemble.t_final,
            "ensemble.final_voltages": ensemble.final_voltages,
        }
        for name, call in calls.items():
            with pytest.raises(AnalysisError) as caught:
                call()
            messages[name] = str(caught.value)
        golden_json(PINS, messages, key="empty-errors")

    def test_unknown_node(self, golden_json):
        messages = {}
        scalar = TransientResult(("a", "b"))
        scalar.append(0.0, [1.0, 2.0])
        ensemble = EnsembleTransientResult(("a", "b"), 2)
        ensemble.append(0.0, [[1.0, 2.0], [3.0, 4.0]])
        for name, result in (("transient", scalar), ("ensemble", ensemble)):
            with pytest.raises(AnalysisError) as caught:
                result.voltage("zz")
            messages[name] = str(caught.value)
        golden_json(PINS, messages, key="unknown-node")


def _stored_transient() -> TransientResult:
    """The scalar result pickled under ``stored_pickles``."""
    result = TransientResult(("in", "out"), engine="spice")
    for t, state in ((0.0, [0.0, 1.0]), (1e-9, [0.5, 0.75]),
                     (3e-9, [1.0, 0.25])):
        result.append(t, state)
    result.accepted_steps, result.rejected_steps = 2, 1
    result.step_limits, result.steps_at_hmin = {"slope": 2}, 1
    result.convergence_failures = 1
    result.iteration_counts = [3, 2, 4]
    result.factor_reuses = 5
    result.aborted, result.abort_reason = True, "max_points=3 reached"
    result.dc_iterations, result.dc_converged = 6, True
    result.flops.count_factorization(2, 3)
    result.flops.count_solve(2, 3)
    return result


def _stored_ensemble() -> EnsembleTransientResult:
    """The ensemble result pickled under ``stored_pickles``."""
    result = EnsembleTransientResult(("a", "b"), 3, engine="swec-ensemble")
    for t, scale in ((0.0, 1.0), (2e-9, 2.0)):
        result.append(t, scale * np.arange(6.0).reshape(3, 2))
    result.accepted_steps = 1
    result.step_limits, result.steps_at_hmin = {"growth": 1}, 0
    result.factor_reuses = 2
    result.backend = "stack"
    result.fallback_events = [("stack", "dense")]
    result.conductance_trace = {1: [(2e-9, np.array([0.5, 1.5]))]}
    result.dc_iterations, result.dc_converged = 4, False
    result.flops.count_factorization(2, 6)
    result.flops.count_device_eval("rtd", count=6)
    return result


def _plain(value):
    """*value* with arrays, tuples and flop counters made comparable."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_plain(item) for item in value])
    if type(value).__name__ == "FlopCounter":
        return ("flops", value.by_category(), value.factorizations,
                value.linear_solves, value.device_evaluations)
    return value


@pytest.mark.parametrize("name, build", [
    ("TransientResult", _stored_transient),
    ("EnsembleTransientResult", _stored_ensemble),
])
def test_stored_pickles_still_load(name, build):
    stored = json.loads(PINS.read_text())["stored_pickles"][name]
    loaded = pickle.loads(base64.b64decode(stored))
    fresh = build()
    assert type(loaded) is type(fresh)
    assert sorted(vars(loaded)) == sorted(vars(fresh))
    for attribute in vars(fresh):
        assert _plain(getattr(loaded, attribute)) == \
            _plain(getattr(fresh, attribute)), attribute
    assert loaded.summary() == fresh.summary()
    assert repr(loaded) == repr(fresh)
    assert json.dumps(result_summary(loaded)) == \
        json.dumps(result_summary(fresh))
