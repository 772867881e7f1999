"""Golden orbit corpus for the regular-array PSS workloads.

Each ``tests/pss_corpus/*.expected.json`` snapshot pins the shooting
orbit of one :mod:`repro.circuits_lib` array template — period,
convergence diagnostics, harmonic content and (for the phase-locked
driven cases) a downsampled waveform.  Regenerate after an intentional
engine change with ``pytest --update-golden``; the diff is the review
artifact.

Floats are compared at six significant digits on both sides (see the
shared ``golden_json`` fixture), which tolerates last-bit BLAS drift
while still pinning every physically meaningful digit.  The
autonomous oscillator snapshot stores only phase-invariant
observables: its absolute phase is anchored by the adaptive settle
march, which is deterministic per platform but not a contract.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.circuits_lib import (
    coupled_oscillator_bank,
    power_grid_mesh,
    rtd_memory_array,
    rtd_relaxation_oscillator,
)
from repro.pss import run_pss

CORPUS = Path(__file__).parent / "pss_corpus"

SIGNIFICANT_DIGITS = 6


def _summary(orbit, node):
    """Phase-invariant observables of one orbit node."""
    return {
        "mode": orbit.mode,
        "node": node,
        "node_count": len(orbit.node_names),
        "iterations": orbit.iterations,
        "period": orbit.period,
        "frequency": orbit.frequency,
        "mean": orbit.mean(node),
        "amplitude": orbit.amplitude(node),
        "peak_to_peak": orbit.peak_to_peak(node),
        "harmonics": [orbit.harmonic_magnitude(node, k)
                      for k in (1, 2, 3)],
    }


def _waveform(orbit, node, every=10):
    """Downsampled (time, voltage) samples — driven cases only, where
    the drive phase-locks the orbit and sampling is reproducible."""
    return {
        "times": orbit.times[::every].tolist(),
        "voltages": orbit.voltage(node)[::every].tolist(),
    }


def test_autonomous_oscillator_golden(golden_json):
    circuit, info = rtd_relaxation_oscillator()
    orbit = run_pss(circuit, period_guess=info.period_guess,
                    steps_per_period=200)
    assert orbit.residual < 1e-9
    golden_json(CORPUS / "rtd_relaxation_oscillator.expected.json",
                _summary(orbit, info.output),
                significant_digits=SIGNIFICANT_DIGITS)


def test_coupled_bank_golden(golden_json):
    circuit, info = coupled_oscillator_bank(count=2)
    orbit = run_pss(circuit, period_guess=info.period_guess,
                    steps_per_period=200)
    assert orbit.residual < 1e-9
    payload = {"outputs": list(info.outputs)}
    payload.update(_summary(orbit, info.outputs[0]))
    golden_json(CORPUS / "coupled_oscillator_bank.expected.json",
                payload, significant_digits=SIGNIFICANT_DIGITS)


def test_memory_array_golden(golden_json):
    circuit, info = rtd_memory_array(rows=2, cols=2)
    orbit = run_pss(circuit, steps_per_period=100)
    assert orbit.residual < 1e-9
    node = info.cell_nodes[0]
    payload = _summary(orbit, node)
    payload["waveform"] = _waveform(orbit, node)
    golden_json(CORPUS / "rtd_memory_array.expected.json",
                payload, significant_digits=SIGNIFICANT_DIGITS)


def _assert_no_harmonics(orbit, node):
    """A linear mesh under a sine drive answers at the drive frequency
    only: harmonics 2 and 3 are roundoff."""
    fundamental = orbit.harmonic_magnitude(node, 1)
    for order in (2, 3):
        assert orbit.harmonic_magnitude(node, order) < 1e-12 * fundamental


def test_power_grid_mesh_golden(golden_json):
    circuit, info = power_grid_mesh(rows=8, cols=8)
    orbit = run_pss(circuit, steps_per_period=100)
    assert orbit.residual < 1e-9
    for node in (info.corner, info.far_corner):
        _assert_no_harmonics(orbit, node)
    payload = _summary(orbit, info.corner)
    payload["far_corner"] = _summary(orbit, info.far_corner)
    payload["waveform"] = _waveform(orbit, info.far_corner)
    golden_json(CORPUS / "power_grid_mesh.expected.json",
                payload, significant_digits=SIGNIFICANT_DIGITS)


def test_power_grid_mesh_40x40_golden(golden_json):
    """Grid-scale driven orbit (n > 1600) on the sparse backend.

    Only the fundamental is pinned: the higher harmonics of this
    linear mesh are roundoff, asserted small instead of snapshotted.
    """
    circuit, info = power_grid_mesh(rows=40, cols=40)
    orbit = run_pss(circuit, steps_per_period=100, backend="sparse")
    assert orbit.residual < 1e-9
    assert orbit.states.shape[1] > 1600
    payload = {}
    for key, node in (("corner", info.corner),
                      ("far_corner", info.far_corner)):
        _assert_no_harmonics(orbit, node)
        summary = _summary(orbit, node)
        summary["harmonics"] = summary["harmonics"][:1]
        payload[key] = summary
    payload["waveform"] = _waveform(orbit, info.far_corner)
    golden_json(CORPUS / "power_grid_mesh_40x40.expected.json",
                payload, significant_digits=SIGNIFICANT_DIGITS)


def test_corpus_has_no_orphan_snapshots():
    """Every snapshot on disk must belong to a test above."""
    expected = {
        "rtd_relaxation_oscillator.expected.json",
        "coupled_oscillator_bank.expected.json",
        "rtd_memory_array.expected.json",
        "power_grid_mesh.expected.json",
        "power_grid_mesh_40x40.expected.json",
    }
    assert {p.name for p in CORPUS.glob("*.json")} == expected


@pytest.mark.parametrize("rows,cols", [(40, 40)])
def test_large_mesh_transient_workload(rows, cols):
    """Beyond-30x30 regular-array workload: the mesh template builds
    and marches at scale on the default backend.  Its periodic steady
    state is pinned by ``test_power_grid_mesh_40x40_golden`` above."""
    import numpy as np

    from repro.mna import MnaSystem
    from repro.swec import SwecOptions, SwecTransient

    circuit, info = power_grid_mesh(rows=rows, cols=cols)
    system = MnaSystem(circuit)
    assert system.size > 1600
    times = np.linspace(0.0, 2e-9, 9)
    result = SwecTransient(circuit, SwecOptions()).run_grid(times)
    assert not result.aborted
    assert np.all(np.isfinite(result.states))
