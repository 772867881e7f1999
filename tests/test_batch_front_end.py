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
from repro.service.client import ServiceClient
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


class TestServiceSubmitBatch:
    """``service submit`` takes its seed from ``--seed``, else the
    spec's ``[batch] seed``, else 0, and refuses the pool keys, which
    belong to ``serve``."""

    @pytest.fixture
    def submitted(self, monkeypatch):
        """Record the seed of every job ``submit`` sends."""
        seeds = []

        def submit(self, job, seed=0, cache=True, payload=False,
                   on_event=None):
            seeds.append(seed)
            return {"event": "done", "cached": False, "seconds": 0.0}

        monkeypatch.setattr(ServiceClient, "submit", submit)
        return seeds

    def _submit(self, tmp_path, batch, *flags):
        spec = {"jobs": [DIVIDER_JOB, DIVIDER_JOB]}
        if batch is not None:
            spec["batch"] = batch
        socket = str(tmp_path / "absent.sock")
        return service_main(["submit", _write(tmp_path, spec),
                             "--socket", socket, "--quiet", *flags])

    def test_batch_seed_applies(self, tmp_path, submitted):
        assert self._submit(tmp_path, {"seed": 42}) == 0
        assert submitted == [42, 42]

    def test_flag_overrides_batch_seed(self, tmp_path, submitted):
        assert self._submit(tmp_path, {"seed": 42}, "--seed", "7") == 0
        assert submitted == [7, 7]

    def test_seed_defaults_to_zero(self, tmp_path, submitted):
        assert self._submit(tmp_path, None) == 0
        assert submitted == [0, 0]

    @pytest.mark.parametrize("batch, named", [
        ({"workers": 2}, "workers"),
        ({"seed": 1, "executor": "serial"}, "executor"),
        ({"seeed": 1}, "seeed"),
    ])
    def test_refuses_other_batch_keys(self, tmp_path, capsys, submitted,
                                      batch, named):
        assert self._submit(tmp_path, batch) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert submitted == []
