"""``batch_job_keys`` is exactly ``job_key`` applied job by job.

``batch_job_keys`` canonicalizes the objects a batch's jobs share
(measures, settings, options) once for the whole batch.  These tests
pin that every key it returns is byte-for-byte the per-job
:func:`~repro.service.job_key` under the batch seeding scheme, across
every kind of batch a sweep or the runtime CLI builds, and that the
canonical form itself has not moved (so existing stores still hit).
"""

import pytest

import repro
from repro.lint.gate import RefusedPointJob, gate_sweep_jobs
from repro.runtime import EnsembleJob, TransientJob
from repro.runtime.jobs import EnsembleTransientJob
from repro.service import UncacheableJobError, batch_job_keys, job_key
from repro.sweep.measures import MeasureSpec, measures_from_spec
from repro.sweep.runner import build_batch_jobs, build_jobs
from repro.sweep.spec import ParameterAxis, SweepSpec

FAST = {"epsilon": 0.05, "h_min": 1e-13, "h_max": 5e-11, "h_initial": 1e-12}

DIVIDER = """* RTD divider
.title rtd-divider-sweep
.param rser=10 vdrive=0.6
.model paper RTD
Vs in 0 {vdrive}
R1 in out {rser}
X1 out 0 paper
.end
"""

#: rser=0 breaks the parser's positive-resistance rule at that point.
FAMILY = """* divider family
.PARAM rser=10
V1 in 0 DC 1
R1 in out {rser}
R2 out 0 1k
"""

MEASURES = [MeasureSpec(kind="peak", node="out", name="v_peak"),
            MeasureSpec(kind="final", node="out", name="v_final")]


def _reference_keys(jobs, base_seed):
    keys = []
    for index, job in enumerate(jobs):
        try:
            keys.append(job_key(job, seed={"entropy": base_seed,
                                           "spawn": index}))
        except UncacheableJobError:
            keys.append(None)
    return keys


def _assert_batch_matches(jobs, base_seed=7):
    keys = batch_job_keys(jobs, base_seed)
    assert keys == _reference_keys(jobs, base_seed)
    return keys


def _netlist_spec(values=(5.0, 40.0, 120.0, 300.0), text=DIVIDER):
    return SweepSpec(
        name="keys-netlist", netlist_text=text,
        settings={"t_stop": 2e-9, "options": dict(FAST)},
        axes=[ParameterAxis.from_values("rser", list(values))],
        measures=list(MEASURES))


def _builder_spec():
    return SweepSpec(
        name="keys-builder", template="rtd_divider",
        settings={"t_stop": 2e-9, "options": dict(FAST)},
        axes=[ParameterAxis.from_range("resistance", 5.0, 300.0, 6)],
        measures=list(MEASURES))


def test_netlist_point_sweep():
    keys = _assert_batch_matches(build_jobs(_netlist_spec()))
    assert None not in keys and len(set(keys)) == len(keys)


def test_builder_point_sweep():
    keys = _assert_batch_matches(build_jobs(_builder_spec()))
    assert None not in keys and len(set(keys)) == len(keys)


@pytest.mark.parametrize("vector", [2, 3])
def test_lockstep_blocks(vector):
    for spec in (_netlist_spec(values=(5.0, 20.0, 40.0, 80.0, 160.0)),
                 _builder_spec()):
        keys = _assert_batch_matches(build_batch_jobs(spec, vector))
        assert None not in keys and len(set(keys)) == len(keys)


def test_vr_ensemble_sweep_and_ensemble_transient_jobs():
    spec = SweepSpec(
        kind="ensemble", template="noisy_rc_node",
        settings={"t_final": 1e-9, "steps": 100, "n_paths": 16,
                  "antithetic": True, "target_rel_ci": 0.5,
                  "max_trials": 64},
        axes=[ParameterAxis.from_values("noise_amplitude",
                                        [1e-8, 2e-8, 4e-8])],
        measures=[MeasureSpec(kind="std_final")])
    jobs = build_jobs(spec)
    noise = [("n1", 1e-8)]
    jobs += [
        EnsembleTransientJob(
            builder="noisy_rc_node", t_stop=5e-9, steps=30,
            n_instances=8, noise=noise, node="n1", control_variate=True,
            target_ci=0.05, max_trials=64, label=f"vr-{k}")
        for k in range(2)
    ]
    jobs.append(EnsembleJob(builder="noisy_rc_node", t_final=5e-9,
                            steps=100, n_paths=16, antithetic=True,
                            target_rel_ci=0.5, max_trials=256))
    keys = _assert_batch_matches(jobs)
    assert None not in keys and len(set(keys)) == len(keys)


def test_pss_sweep():
    spec = SweepSpec(
        kind="pss", template="rtd_relaxation_oscillator",
        axes=[ParameterAxis.from_values("capacitance", [0.8e-12, 1e-12])],
        settings={"period_guess": 6.3e-10, "steps_per_period": 200},
        measures=measures_from_spec(
            [{"kind": "period"}, {"kind": "amplitude"}], kind="pss"))
    keys = _assert_batch_matches(build_jobs(spec))
    assert None not in keys and len(set(keys)) == len(keys)


@pytest.mark.parametrize("vector", [1, 2])
def test_lint_refused_points(vector):
    spec = _netlist_spec(values=(0.0, 10.0, 20.0), text=FAMILY)
    jobs = build_jobs(spec) if vector == 1 else build_batch_jobs(spec, vector)
    gated = gate_sweep_jobs(jobs, "strict")
    assert isinstance(gated[0].inner, RefusedPointJob)
    keys = _assert_batch_matches(gated)
    assert None not in keys


def test_callable_builder_gives_none():
    def builder(**params):
        raise AssertionError("never built while keying")

    jobs = build_jobs(_builder_spec())[:2]
    jobs.insert(1, TransientJob(t_stop=1e-9, builder=builder,
                                options=dict(FAST)))
    keys = _assert_batch_matches(jobs)
    assert keys[1] is None
    assert keys[0] is not None and keys[2] is not None


def test_shared_and_own_options():
    shared = dict(FAST)
    own = dict(FAST)
    jobs = [
        TransientJob(t_stop=1e-9, builder="rtd_divider",
                     params={"resistance": 50.0}, options=shared),
        TransientJob(t_stop=1e-9, builder="rtd_divider",
                     params={"resistance": 60.0}, options=shared),
        TransientJob(t_stop=1e-9, builder="rtd_divider",
                     params={"resistance": 50.0}, options=own),
    ]
    keys = _assert_batch_matches(jobs)
    assert keys[0] != keys[1]
    # equal options held by another dict give the same address
    assert keys[2] == job_key(jobs[0], seed={"entropy": 7, "spawn": 2})


def test_canonical_form_is_unchanged(monkeypatch):
    """The address of a fixed netlist point, pinned under a fixed
    package version: a change to canonicalization would orphan every
    stored result without bumping ``FINGERPRINT_SCHEMA``.  Re-pin only
    together with such a bump (or a deliberate job-field change)."""
    monkeypatch.setattr(repro, "__version__", "0.0.0")
    job = build_jobs(_netlist_spec(values=(42.0,)))[0]
    assert batch_job_keys([job], 3) == [
        "24ae04bfd351ad6ad77d83daa5175e083a616fd0c465aa656ccca29f2f3bf32a"]
