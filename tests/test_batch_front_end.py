"""The one batch front end: spec reading and ``[batch]`` resolution.

``python -m repro.runtime``, ``python -m repro.sweep`` and
``python -m repro.service submit`` read spec files through one
reader and resolve ``[batch]`` through one function.  A spec that is
not a table, a misspelled ``[batch]`` key or an unknown top-level
table is a clean error (exit code 2) before any job runs.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import SweepSpecError
from repro.runtime.cli import main as runtime_main
from repro.runtime.runner import BatchRunner
from repro.service.cli import main as service_main
from repro.sweep import (MeasureSpec, ParameterAxis, SweepSpec,
                         load_sweep_spec, run_sweep)
from repro.sweep.cli import main as sweep_main

DIVIDER_JOB = {"circuit": "rtd_divider", "t_stop": 2e-10,
               "params": {"resistance": 10.0},
               "options": {"epsilon": 0.05, "h_min": 1e-13, "h_max": 5e-11,
                           "h_initial": 1e-12}}

SWEEP = {"sweep": {"circuit": "rtd_divider", "t_stop": 2e-10},
         "axes": [{"name": "resistance", "values": [10.0]}],
         "measures": [{"kind": "final"}]}


@pytest.fixture
def dispatched(monkeypatch):
    """Record every job list a :class:`BatchRunner` runs."""
    calls = []
    original = BatchRunner.run

    def run(self, jobs, *args, **kwargs):
        calls.append(list(jobs))
        return original(self, jobs, *args, **kwargs)

    monkeypatch.setattr(BatchRunner, "run", run)
    return calls


def _write(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestNonObjectSpec:
    def test_runtime_cli(self, tmp_path, capsys, dispatched):
        path = _write(tmp_path, [{"type": "transient"}])
        assert runtime_main([path]) == 2
        assert "error:" in capsys.readouterr().err
        assert dispatched == []

    def test_service_submit(self, tmp_path, capsys):
        path = _write(tmp_path, [{"type": "transient"}])
        socket = str(tmp_path / "absent.sock")
        assert service_main(["submit", path, "--socket", socket]) == 2
        assert "error:" in capsys.readouterr().err

    def test_service_submit_without_jobs(self, tmp_path, capsys):
        path = _write(tmp_path, {"jobs": []})
        socket = str(tmp_path / "absent.sock")
        assert service_main(["submit", path, "--socket", socket]) == 2
        assert "no [[jobs]]" in capsys.readouterr().err

    def test_sweep_loader(self, tmp_path):
        with pytest.raises(SweepSpecError):
            load_sweep_spec(_write(tmp_path, [SWEEP]))


class TestMisspelledBatchSettings:
    def test_misspelled_batch_table(self, tmp_path, capsys, dispatched):
        path = _write(tmp_path, {"bacth": {"executor": "serial", "seed": 5},
                                 "jobs": [DIVIDER_JOB]})
        assert runtime_main([path]) == 2
        assert "bacth" in capsys.readouterr().err
        assert dispatched == []

    def test_misspelled_batch_key(self, tmp_path, capsys, dispatched):
        path = _write(tmp_path, {"batch": {"workerz": 3},
                                 "jobs": [DIVIDER_JOB]})
        assert runtime_main([path]) == 2
        assert "workerz" in capsys.readouterr().err
        assert dispatched == []

    def test_service_submit_refuses_unknown_table(self, tmp_path, capsys):
        path = _write(tmp_path, {"bacth": {}, "jobs": [DIVIDER_JOB]})
        socket = str(tmp_path / "absent.sock")
        assert service_main(["submit", path, "--socket", socket]) == 2
        assert "bacth" in capsys.readouterr().err

    def test_sweep_spec_refuses_misspelled_batch_key(self):
        with pytest.raises(SweepSpecError, match="seeed"):
            SweepSpec(template="rtd_divider", settings={"t_stop": 2e-10},
                      axes=[ParameterAxis.from_values("resistance", [10.0])],
                      measures=[MeasureSpec(kind="final")],
                      batch={"seeed": 4})

    def test_sweep_cli_refuses_misspelled_batch_key(
            self, tmp_path, capsys, dispatched):
        path = _write(tmp_path, {**SWEEP, "batch": {"seeed": 4}})
        assert sweep_main([path]) == 2
        assert "seeed" in capsys.readouterr().err
        assert dispatched == []

    def test_sweep_batch_keeps_its_lockstep_keys(self):
        spec = SweepSpec.from_mapping({**SWEEP, "batch": {
            "workers": 1, "executor": "serial", "seed": 4, "timeout": 60.0,
            "retries": 1, "vector": 1, "isolate": True}})
        assert spec.batch["isolate"] is True

    def test_vector_flag_meets_the_batch_rules(self, dispatched):
        spec = SweepSpec.from_mapping(SWEEP)
        with pytest.raises(SweepSpecError, match="vector"):
            run_sweep(spec, executor="serial", vector=0)
        assert dispatched == []
