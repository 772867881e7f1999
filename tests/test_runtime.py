"""Tests for the batched simulation runtime (repro.runtime)."""

import json

import numpy as np
import pytest

from repro.circuit import Circuit, Pulse
from repro.errors import AnalysisError
from repro.runtime import (
    BatchRunner,
    EnsembleJob,
    TransientJob,
    job_from_mapping,
)
from repro.runtime.cli import load_spec, main
from repro.stochastic import run_ensemble_parallel
from repro.swec import SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions

FAST_OPTIONS = {"epsilon": 0.05, "h_min": 1e-13, "h_max": 5e-11,
                "h_initial": 1e-12}


def _transient_jobs(resistances=(5.0, 10.0, 50.0, 300.0)):
    return [
        TransientJob(builder="rtd_divider", params={"resistance": r},
                     t_stop=0.5e-9, options=dict(FAST_OPTIONS),
                     label=f"R={r}")
        for r in resistances
    ]


def _pulse_circuit():
    circuit = Circuit("runtime-rc")
    circuit.add_voltage_source(
        "Vin", "in", "0",
        Pulse(0.0, 1.0, delay=0.1e-9, rise=0.05e-9, fall=0.05e-9,
              width=1e-9, period=4e-9))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


class TestBatchEqualsSequential:
    def test_process_batch_is_bit_identical_to_sequential(self):
        jobs = _transient_jobs()
        serial = BatchRunner(executor="serial", seed=1).run(jobs)
        parallel = BatchRunner(max_workers=4, executor="process",
                               seed=1).run(jobs)
        assert serial.ok and parallel.ok
        for a, b in zip(serial.values(), parallel.values()):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.states, b.states)
            assert a.flops.total == b.flops.total

    def test_batch_matches_direct_engine_run(self):
        circuit = _pulse_circuit()
        options = SwecOptions(step=StepControlOptions(**FAST_OPTIONS))
        direct = SwecTransient(circuit, options).run(1e-9)
        job = TransientJob(circuit=_pulse_circuit(), t_stop=1e-9,
                           options=dict(FAST_OPTIONS), label="direct")
        report = BatchRunner(max_workers=2, executor="process").run([job])
        assert report.ok
        batched = report.values()[0]
        assert np.array_equal(direct.times, batched.times)
        assert np.array_equal(direct.states, batched.states)

    def test_results_preserve_submission_order(self):
        jobs = _transient_jobs()
        report = BatchRunner(max_workers=4, executor="process").run(jobs)
        assert [r.label for r in report.results] == [j.label for j in jobs]
        assert [r.index for r in report.results] == list(range(len(jobs)))


class TestSeededEnsembles:
    def test_reproducible_across_worker_counts(self):
        job = EnsembleJob(builder="noisy_rc_node",
                          params={"noise_amplitude": 1e-8},
                          t_final=2e-9, steps=300, n_paths=64)
        runs = [
            BatchRunner(executor="serial", seed=9).run([job]),
            BatchRunner(max_workers=2, executor="process", seed=9).run([job]),
            BatchRunner(max_workers=4, executor="thread", seed=9).run([job]),
        ]
        reference = runs[0].values()[0]
        for report in runs[1:]:
            stats = report.values()[0]
            assert np.array_equal(reference.mean, stats.mean)
            assert np.array_equal(reference.std, stats.std)
            assert np.array_equal(reference.lower, stats.lower)

    def test_chunked_parallel_ensemble_worker_invariant(self):
        kwargs = dict(t_final=2e-9, steps=200, n_paths=50, chunks=3,
                      params={"noise_amplitude": 1e-8})
        one = run_ensemble_parallel(
            "noisy_rc_node",
            runner=BatchRunner(max_workers=1, executor="serial", seed=5),
            **kwargs)
        many = run_ensemble_parallel(
            "noisy_rc_node",
            runner=BatchRunner(max_workers=3, executor="process", seed=5),
            **kwargs)
        assert one.n_paths == many.n_paths == 50
        assert np.array_equal(one.mean, many.mean)
        assert np.array_equal(one.std, many.std)

    def test_default_runner_draws_fresh_entropy(self):
        job = EnsembleJob(builder="noisy_rc_node",
                          params={"noise_amplitude": 1e-8},
                          t_final=1e-9, steps=100, n_paths=32)
        a = BatchRunner(executor="serial").run([job])
        b = BatchRunner(executor="serial").run([job])
        assert a.seed != b.seed
        assert not np.array_equal(a.values()[0].mean, b.values()[0].mean)
        # ...but the recorded seed replays the batch exactly
        replay = BatchRunner(executor="serial", seed=a.seed).run([job])
        assert np.array_equal(a.values()[0].mean, replay.values()[0].mean)

    def test_antithetic_parallel_ensemble(self):
        kwargs = dict(t_final=1e-9, steps=100, n_paths=48, chunks=3,
                      antithetic=True, params={"noise_amplitude": 1e-8})
        one = run_ensemble_parallel(
            "noisy_rc_node",
            runner=BatchRunner(max_workers=1, executor="serial", seed=2),
            **kwargs)
        many = run_ensemble_parallel(
            "noisy_rc_node",
            runner=BatchRunner(max_workers=3, executor="process", seed=2),
            **kwargs)
        assert one.n_paths == 48
        assert np.array_equal(one.mean, many.mean)
        with pytest.raises(AnalysisError, match="divisible"):
            run_ensemble_parallel("noisy_rc_node", 1e-9, 100, 50,
                                  chunks=3, antithetic=True,
                                  params={"noise_amplitude": 1e-8})

    def test_different_seeds_differ(self):
        job = EnsembleJob(builder="noisy_rc_node",
                          params={"noise_amplitude": 1e-8},
                          t_final=1e-9, steps=100, n_paths=32)
        a = BatchRunner(executor="serial", seed=1).run([job]).values()[0]
        b = BatchRunner(executor="serial", seed=2).run([job]).values()[0]
        assert not np.array_equal(a.mean, b.mean)

    def test_run_ensembles_helper(self):
        jobs = [
            EnsembleJob(builder="noisy_rc_node",
                        params={"noise_amplitude": amp},
                        t_final=1e-9, steps=100, n_paths=32,
                        label=f"amp={amp}")
            for amp in (1e-8, 2e-8)
        ]
        report = BatchRunner(executor="serial", seed=0).run(jobs)
        report.raise_failures()
        stats = report.values()
        assert len(stats) == 2
        # doubling the noise amplitude roughly doubles the settled band
        assert stats[1].std[-1] > 1.5 * stats[0].std[-1]


class TestFailureIsolation:
    def test_failing_job_does_not_kill_batch(self):
        jobs = _transient_jobs((10.0,))
        jobs.append(TransientJob(builder="rtd_divider", t_stop=-1.0,
                                 label="bad-t-stop"))
        jobs += _transient_jobs((50.0,))
        report = BatchRunner(max_workers=2, executor="process").run(jobs)
        assert report.n_ok == 2
        assert report.n_failed == 1
        failure = report.failures()[0]
        assert failure.label == "bad-t-stop"
        assert "t_stop" in failure.error
        assert "AnalysisError" in failure.error
        assert failure.traceback and "Traceback" in failure.traceback
        with pytest.raises(RuntimeError, match="bad-t-stop"):
            report.raise_failures()

    def test_single_path_ensemble_is_a_clean_failure(self):
        job = EnsembleJob(builder="noisy_rc_node",
                          params={"noise_amplitude": 1e-8},
                          t_final=1e-9, steps=50, n_paths=1)
        report = BatchRunner(executor="serial").run([job])
        assert report.n_failed == 1
        assert ">= 2 paths" in report.failures()[0].error

    def test_unknown_builder_is_a_job_failure(self):
        report = BatchRunner(executor="serial").run(
            [TransientJob(builder="no_such_circuit", t_stop=1e-9)])
        assert report.n_failed == 1
        assert "no_such_circuit" in report.failures()[0].error

    def test_removed_factor_rtol_option_is_a_job_failure(self):
        # SwecOptions has no factor_rtol field: a job table that sets it
        # must fail loudly instead of running without it.
        job = job_from_mapping({
            "type": "transient", "circuit": "rtd_divider",
            "t_stop": 0.2e-9, "options": {"factor_rtol": 0.0},
        })
        outcome = BatchRunner(executor="serial").run([job]).results[0]
        assert not outcome.ok
        assert "factor_rtol" in outcome.error


class TestJobSpecs:
    def test_job_requires_exactly_one_source(self):
        with pytest.raises(AnalysisError):
            TransientJob(t_stop=1e-9)
        with pytest.raises(AnalysisError):
            TransientJob(t_stop=1e-9, circuit=_pulse_circuit(),
                         builder="rtd_divider")
        with pytest.raises(AnalysisError):
            EnsembleJob(t_final=1e-9, steps=10, n_paths=4)

    def test_job_from_mapping(self):
        job = job_from_mapping({
            "type": "transient", "circuit": "rtd_divider",
            "t_stop": 1e-9, "params": {"resistance": 10.0},
        })
        assert isinstance(job, TransientJob)
        assert job.builder == "rtd_divider"
        ensemble = job_from_mapping({
            "type": "ensemble", "sde": "ornstein_uhlenbeck",
            "t_final": 1e-9, "steps": 10, "n_paths": 4,
        })
        assert isinstance(ensemble, EnsembleJob)
        with pytest.raises(AnalysisError):
            job_from_mapping({"type": "mystery"})

    def test_engine_name_validation(self):
        job = TransientJob(builder="rtd_divider", t_stop=1e-9,
                           engine="spice3f5")
        with pytest.raises(AnalysisError, match="unknown engine"):
            job.run()

    def test_baseline_engine_runs(self):
        job = TransientJob(builder="rtd_divider",
                           params={"resistance": 10.0}, t_stop=0.2e-9,
                           engine="spice", options={"h_initial": 1e-11})
        result = job.run()
        assert result.accepted_steps > 0
        assert sum(result.iteration_counts) > 0


class TestCli:
    def _write_spec(self, tmp_path, payload, name="jobs.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def _spec_payload(self):
        return {
            "batch": {"workers": 2, "seed": 3, "executor": "process"},
            "jobs": [
                {"label": "divider", "circuit": "rtd_divider",
                 "t_stop": 2e-10, "params": {"resistance": 10.0},
                 "options": dict(FAST_OPTIONS)},
                {"type": "ensemble", "label": "noise",
                 "sde": "noisy_rc_node", "t_final": 1e-9,
                 "steps": 100, "n_paths": 16,
                 "params": {"noise_amplitude": 1e-8}},
            ],
        }

    def test_json_spec_runs(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, self._spec_payload())
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "2 jobs, 2 ok, 0 failed" in out
        assert "divider" in out and "noise" in out

    def test_toml_spec_runs(self, tmp_path, capsys):
        tomllib = pytest.importorskip("tomllib")
        toml_text = (
            '[batch]\nworkers = 1\nexecutor = "serial"\n\n'
            '[[jobs]]\nlabel = "divider"\ncircuit = "rtd_divider"\n'
            't_stop = 2e-10\n'
            '[jobs.options]\nepsilon = 0.05\nh_min = 1e-13\n'
            'h_max = 5e-11\nh_initial = 1e-12\n'
        )
        path = tmp_path / "jobs.toml"
        path.write_text(toml_text)
        assert tomllib.loads(toml_text)  # sanity: valid TOML
        assert main([str(path)]) == 0
        assert "1 ok" in capsys.readouterr().out

    def test_failing_job_sets_exit_code(self, tmp_path, capsys):
        payload = self._spec_payload()
        payload["jobs"][0]["t_stop"] = -1.0
        path = self._write_spec(tmp_path, payload)
        assert main([path]) == 1
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "Traceback" in captured.err

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_empty_spec_rejected(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, {"jobs": []})
        assert main([path]) == 2
        assert "no [[jobs]]" in capsys.readouterr().err

    def test_invalid_batch_config_is_a_clean_error(self, tmp_path, capsys):
        payload = self._spec_payload()
        payload["batch"]["workers"] = 0
        path = self._write_spec(tmp_path, payload)
        assert main([path]) == 2
        assert "max_workers" in capsys.readouterr().err
        payload["batch"] = "not-a-table"
        path = self._write_spec(tmp_path, payload, name="jobs2.json")
        assert main([path]) == 2
        assert "[batch] must be a table" in capsys.readouterr().err

    def test_cli_flags_override_batch_table(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, self._spec_payload())
        assert main([path, "--executor", "serial", "--workers", "1",
                     "--seed", "7"]) == 0
        assert "seed=7" in capsys.readouterr().out

    def test_load_spec_rejects_unknown_suffix_as_toml(self, tmp_path):
        # .toml parsing requires tomllib; invalid TOML must error cleanly
        pytest.importorskip("tomllib")
        path = tmp_path / "jobs.toml"
        path.write_text("not = [valid")
        with pytest.raises(Exception):
            load_spec(path)

    def test_malformed_spec_is_a_clean_cli_error(self, tmp_path, capsys):
        pytest.importorskip("tomllib")
        path = tmp_path / "jobs.toml"
        path.write_text("not = [valid")
        assert main([str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        bad_json = tmp_path / "jobs.json"
        bad_json.write_text("{not json")
        assert main([str(bad_json)]) == 2
        assert "error:" in capsys.readouterr().err


class TestRunnerValidation:
    def test_rejects_unknown_executor(self):
        with pytest.raises(AnalysisError):
            BatchRunner(executor="rayon")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(AnalysisError):
            BatchRunner(max_workers=0)

    def test_empty_batch(self):
        report = BatchRunner(executor="serial").run([])
        assert report.n_jobs == 0
        assert report.ok
