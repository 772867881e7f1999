"""Pins for the variance-reduction flags of both batch front ends.

``python -m repro.runtime`` and :func:`repro.sweep.run_sweep` take
``antithetic``/``control_variate``/``target_ci``/``target_rel_ci``/
``max_trials`` as overrides.  A flag must build the very job its
matching spec key builds (same dataclass, same ``job_key`` bytes) and
return the same statistics; a flag with nowhere to land is refused.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import SweepSpecError
from repro.runtime.cli import main
from repro.runtime.runner import BatchRunner
from repro.service.hashing import job_key
from repro.sweep import MeasureSpec, ParameterAxis, SweepSpec, run_sweep

VR_TABLE = {
    "type": "ensemble_transient",
    "label": "noisy-rc-vr",
    "circuit": "noisy_rc_node",
    "t_stop": 5e-9,
    "steps": 40,
    "n_instances": 256,
    "node": "n1",
    "noise": [["n1", 1e-8]],
    "batch_size": 16,
    "params": {"drive": 1e-4},
}


@pytest.fixture
def dispatched(monkeypatch):
    """Record every ``(jobs, report)`` pair a :class:`BatchRunner` runs."""
    calls = []
    original = BatchRunner.run

    def run(self, jobs, *args, **kwargs):
        report = original(self, jobs, *args, **kwargs)
        calls.append((list(jobs), report))
        return report

    monkeypatch.setattr(BatchRunner, "run", run)
    return calls


def _write(tmp_path, name, tables):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"batch": {"executor": "serial", "seed": 4}, "jobs": tables}))
    return str(path)


def _assert_same_value(a, b):
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        if field.name == "time_elapsed":
            continue
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def _assert_same_runs(flagged, keyed):
    (flag_jobs, flag_report), (key_jobs, key_report) = flagged, keyed
    assert len(flag_jobs) == len(key_jobs)
    for flag_job, key_job in zip(flag_jobs, key_jobs):
        assert type(flag_job) is type(key_job)
        assert flag_job == key_job
        assert job_key(flag_job, seed=4) == job_key(key_job, seed=4)
    assert flag_report.ok and key_report.ok
    for a, b in zip(flag_report.values(), key_report.values()):
        _assert_same_value(a, b)


class TestRuntimeCliFlags:
    def test_flags_build_the_keyed_job(self, tmp_path, dispatched, capsys):
        plain = _write(tmp_path, "plain.json", [VR_TABLE])
        keyed = _write(tmp_path, "keyed.json", [{
            **VR_TABLE, "antithetic": True, "target_ci": 0.02,
            "max_trials": 128}])
        assert main([plain, "--antithetic", "--target-ci", "0.02",
                     "--max-trials", "128"]) == 0
        assert main([keyed]) == 0
        assert len(dispatched) == 2
        _assert_same_runs(dispatched[0], dispatched[1])
        out = capsys.readouterr().out
        assert out.count("vr[0] noisy-rc-vr") == 2

    def test_control_variate_refused_on_sde_ensemble(
            self, tmp_path, dispatched, capsys):
        path = _write(tmp_path, "sde.json", [{
            "type": "ensemble", "sde": "noisy_rc_node", "t_final": 1e-9,
            "steps": 20, "n_paths": 8}])
        assert main([path, "--control-variate"]) == 2
        assert "error:" in capsys.readouterr().err
        assert dispatched == []

    def test_flags_without_an_ensemble_job_refused(
            self, tmp_path, dispatched, capsys):
        path = _write(tmp_path, "transient.json", [{
            "circuit": "rtd_divider", "t_stop": 2e-10}])
        assert main([path, "--target-ci", "0.01"]) == 2
        assert "error:" in capsys.readouterr().err
        assert dispatched == []


def _ensemble_sweep(**settings):
    return SweepSpec(
        kind="ensemble", template="noisy_rc_node",
        settings={"t_final": 1e-9, "steps": 40, "n_paths": 16,
                  **settings},
        axes=[ParameterAxis.from_values("noise_amplitude", [1e-8, 2e-8])],
        measures=[MeasureSpec(kind="std_final")],
    )


class TestRunSweepFlags:
    def test_flags_equal_keyed_settings(self, dispatched):
        flagged = run_sweep(_ensemble_sweep(), executor="serial", seed=4,
                            antithetic=True, target_rel_ci=0.5,
                            max_trials=64)
        keyed = run_sweep(_ensemble_sweep(antithetic=True,
                                          target_rel_ci=0.5,
                                          max_trials=64),
                          executor="serial", seed=4)
        assert flagged.ok and keyed.ok
        for name, column in flagged.columns.items():
            if name != "seconds":
                assert column == keyed.columns[name], name
        flag_jobs, key_jobs = dispatched[0][0], dispatched[1][0]
        assert flag_jobs == key_jobs
        for a, b in zip(flag_jobs, key_jobs):
            assert job_key(a.inner, seed=4) == job_key(b.inner, seed=4)

    def test_target_ci_refused_on_transient_sweep(self, dispatched):
        spec = SweepSpec(
            template="rtd_divider", settings={"t_stop": 2e-10},
            axes=[ParameterAxis.from_values("resistance", [10.0])],
            measures=[MeasureSpec(kind="final")],
        )
        with pytest.raises(SweepSpecError):
            run_sweep(spec, executor="serial", target_ci=0.01)
        assert dispatched == []

    def test_control_variate_refused(self, dispatched):
        with pytest.raises(SweepSpecError):
            run_sweep(_ensemble_sweep(), executor="serial",
                      control_variate=True)
        assert dispatched == []
