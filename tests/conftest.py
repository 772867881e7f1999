"""Shared fixtures for the Nano-Sim reproduction test suite."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.circuit import Circuit, Pulse
from repro.circuits_lib import rtd_divider
from repro.devices import (
    Diode,
    QuantizedNanowire,
    SCHULMAN_INGAAS,
    SchulmanRTD,
    nmos,
)
from repro.swec.timestep import StepControlOptions


def pytest_addoption(parser):
    """``--update-golden`` rewrites the golden-corpus snapshots."""
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate golden corpus snapshots (tests/lint_corpus, "
             "tests/pss_corpus, ...) from the current output instead "
             "of comparing against them")


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite golden snapshots."""
    return request.config.getoption("--update-golden")


def _round_significant(value, digits: int):
    """Recursively round floats to *digits* significant figures.

    Golden corpora pin floating-point payloads; rounding both the
    fresh payload and the stored snapshot to the same significant
    precision keeps the comparison meaningful while tolerating
    last-bit BLAS/platform drift.
    """
    if isinstance(value, float):
        if value == 0.0 or not math.isfinite(value):
            return value
        scale = digits - 1 - math.floor(math.log10(abs(value)))
        return round(value, scale)
    if isinstance(value, dict):
        return {k: _round_significant(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_significant(v, digits) for v in value]
    return value


def _is_float_array(value) -> bool:
    """A float, or a (nested) list that numpy reads as a float array."""
    if isinstance(value, float):
        return True
    return isinstance(value, list) and np.asarray(value).dtype.kind == "f"


def _assert_close(fresh, stored, rtol: float, where: str) -> None:
    """*fresh* matches *stored*: dicts key by key, floats and float
    arrays to ``rtol`` times the stored array's largest magnitude,
    everything else exactly."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        assert fresh.keys() == stored.keys(), f"{where}: keys differ"
        for key in stored:
            _assert_close(fresh[key], stored[key], rtol, f"{where}[{key!r}]")
    elif _is_float_array(stored) and _is_float_array(fresh):
        got = np.asarray(fresh, dtype=float)
        want = np.asarray(stored, dtype=float)
        assert got.shape == want.shape, (
            f"{where}: shape {got.shape} != {want.shape}")
        bound = rtol * float(np.max(np.abs(want), initial=0.0))
        error = float(np.max(np.abs(got - want), initial=0.0))
        assert error <= bound, f"{where}: max |diff| {error:.3g} > {bound:.3g}"
    else:
        assert fresh == stored, f"{where}: {fresh!r} != {stored!r}"


def _keep_unmoved(fresh, stored, rtol: float):
    """*fresh*, except that each float or float array still within
    *rtol* of *stored* (as :func:`_assert_close` judges it) keeps its
    stored value, so a re-record rewrites only the values that moved."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        return {key: _keep_unmoved(value, stored[key], rtol)
                if key in stored else value
                for key, value in fresh.items()}
    if _is_float_array(stored) and _is_float_array(fresh):
        try:
            _assert_close(fresh, stored, rtol, "")
        except AssertionError:
            return fresh
        return stored
    return fresh


@pytest.fixture
def golden_json(update_golden):
    """Compare a JSON-serializable payload against a golden snapshot.

    Returns ``check(path, payload, significant_digits=None, rtol=None,
    text=None, key=None)``: with ``--update-golden`` the snapshot at
    *path* is rewritten first (from *text* when given, so a corpus can
    keep its own rendering, else ``json.dumps(payload, indent=2)``);
    then the payload must equal the parsed snapshot.
    ``significant_digits`` rounds every float on both sides before
    comparing — use it for numerical corpora.  ``rtol`` instead keeps
    full-precision floats in the snapshot and compares each float or
    float array (a nested list) to within ``rtol`` times the stored
    array's largest magnitude, so last-bit drift from another
    platform's vector math or BLAS passes while a change to the
    algorithm fails; integers, strings and keys still match exactly.
    With *key* the snapshot is a JSON object holding one entry per
    key, so parametrized cases share one file and each updates and
    checks only its own entry; with *rtol* too, its re-record keeps
    every stored float that is still within ``rtol`` and writes only
    the values that moved.  Shared by the lint, PSS and
    lockstep-pin corpora; any future corpus should use this fixture
    rather than growing its own update flag.
    """

    def check(path, payload, *, significant_digits=None, rtol=None,
              text=None, key=None):
        if significant_digits is not None:
            payload = _round_significant(payload, significant_digits)
        if update_golden:
            if key is not None:
                entries = (json.loads(path.read_text())
                           if path.exists() else {})
                if rtol is not None and key in entries:
                    payload = _keep_unmoved(payload, entries[key], rtol)
                entries[key] = payload
                text = json.dumps(entries, indent=2, sort_keys=True) + "\n"
            rendered = (text if text is not None
                        else json.dumps(payload, indent=2) + "\n")
            path.write_text(rendered)
        assert path.exists(), (
            f"{path.name} missing; run pytest --update-golden")
        stored = json.loads(path.read_text())
        if key is not None:
            assert key in stored, (
                f"{path.name} has no entry {key!r}; run pytest --update-golden")
            stored = stored[key]
        if significant_digits is not None:
            stored = _round_significant(stored, significant_digits)
        if rtol is not None:
            _assert_close(payload, stored, rtol, path.name)
        else:
            assert payload == stored

    return check


@pytest.fixture
def rng():
    """Deterministic random generator for stochastic tests."""
    return np.random.default_rng(20050307)  # DATE'05 conference date


@pytest.fixture
def rtd():
    """Sub-volt InGaAs-style RTD (fast landmarks, realistic PVR)."""
    return SchulmanRTD(SCHULMAN_INGAAS)


@pytest.fixture
def nanowire():
    return QuantizedNanowire()


@pytest.fixture
def diode():
    return Diode()


@pytest.fixture
def divider():
    """Easy-load-line RTD divider circuit (unique DC solution)."""
    circuit, info = rtd_divider(resistance=10.0)
    return circuit, info


@pytest.fixture
def bistable_divider():
    """Large series resistance: bistable load line (NR stress case)."""
    circuit, info = rtd_divider(resistance=300.0)
    return circuit, info


@pytest.fixture
def rc_pulse_circuit():
    """Linear RC lowpass driven by a pulse — analytic reference case."""
    circuit = Circuit("rc-lowpass")
    circuit.add_voltage_source(
        "Vin", "in", "0",
        Pulse(0.0, 1.0, delay=1e-9, rise=0.01e-9, fall=0.01e-9,
              width=20e-9, period=50e-9))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


@pytest.fixture
def fast_steps():
    """Step-control options tuned for test speed."""
    return StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.5e-9,
                              h_initial=1e-12)


@pytest.fixture
def mosfet():
    return nmos(kp=2e-5, w=10e-6, l=1e-6, vth=1.0)
