"""Variance-reduction layer tests (:mod:`repro.stochastic.vr`).

Three property families (Hypothesis) plus the threading/equivalence
pins:

* **unbiasedness** — the control-variate and antithetic estimators
  agree with the naive estimator within the wider confidence band, for
  random RC workloads;
* **bit-reproducibility** — the same ``(seed, knobs)`` produce
  byte-identical statistics across reruns, worker counts, chunk splits
  and the serial/parallel boundary;
* **termination** — ``target_ci`` stopping always terminates, with
  ``max_trials`` as a hard backstop and ``stopped_early`` truthfully
  reporting which side fired;
* **march-ahead equivalence** — marching several plan batches in one
  ``sample`` call gives the statistics of one call per batch, bit for
  bit.

Seed control: Hypothesis's own ``--hypothesis-seed=N`` pytest flag
reproduces a run; CI passes a fixed seed and caches ``.hypothesis``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit
from repro.circuits_lib import arrays
from repro.errors import AnalysisError
from repro.runtime.jobs import EnsembleJob, EnsembleTransientJob
from repro.runtime.runner import BatchRunner
from repro.stochastic import (
    antithetic_normals,
    linearized_control_circuit,
    path_normals,
    run_circuit_ensemble,
    run_circuit_ensemble_parallel,
    run_circuit_ensemble_vr,
    run_ensemble_parallel,
    run_sde_ensemble_vr,
)
from repro.stochastic import vr
from repro.stochastic.sde import LinearSDE
from repro.stochastic.vr import _PathSeeds, _spawn_children


def noisy_rc_circuit(resistance: float = 1e3) -> Circuit:
    circuit = Circuit("noisy-rc")
    circuit.add_resistor("R1", "n1", "0", resistance)
    circuit.add_capacitor("C1", "n1", "0", 1e-12)
    circuit.add_current_source("Id", "0", "n1", 1e-4)
    return circuit


def rtd_lowpass_circuit() -> Circuit:
    from repro.devices.rtd import SCHULMAN_INGAAS, SchulmanRTD

    circuit = Circuit("rtd-lowpass")
    circuit.add_voltage_source("Vb", "in", "0", 0.2)
    circuit.add_resistor("R1", "in", "out", 50.0)
    circuit.add_device("X1", "out", "0", SchulmanRTD(SCHULMAN_INGAAS))
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


NOISE = [("n1", 1e-8)]


# ---------------------------------------------------------------------------
# primitives


def test_path_normals_matches_engine_internal_draw():
    # path_normals is the one per-path draw (every noisy run_grid takes
    # its output as normals=); it must stay one default_rng stream per
    # seed, or stored ensemble results would no longer replay.
    seeds = np.random.SeedSequence(7).spawn(3)
    expected = np.stack(
        [np.random.default_rng(s).standard_normal((5, 2)) for s in seeds]
    )
    assert np.array_equal(path_normals(seeds, 5, 2), expected)


def test_antithetic_normals_interleaves_mirrored_pairs():
    pairs = np.random.SeedSequence(3).spawn(4)
    out = antithetic_normals(pairs, 6, 1)
    assert out.shape == (8, 6, 1)
    assert np.array_equal(out[0::2], -out[1::2])
    assert np.array_equal(out[0::2], path_normals(pairs, 6, 1))


def _states(children) -> list:
    return [child.generate_state(4).tolist() for child in children]


def _nested_parent() -> np.random.SeedSequence:
    return np.random.SeedSequence(8, pool_size=8).spawn(3)[2].spawn(2)[1]


@pytest.mark.parametrize("seed", [0, 21, 2**64 + 5, [3, 1, 4]])
def test_path_seeds_match_spawn_for_integer_entropy(seed):
    children = _spawn_children(seed, 40)
    expected = np.random.SeedSequence(seed).spawn(40)
    assert _states(children[0:40]) == _states(expected)
    assert _states(children[13:29]) == _states(expected[13:29])
    assert _states(children[32:48]) == _states(expected[32:40])


def test_path_seeds_match_spawn_for_fresh_entropy():
    entropy = np.random.SeedSequence().entropy
    assert (_states(_spawn_children(entropy, 8)[0:8])
            == _states(np.random.SeedSequence(entropy).spawn(8)))
    children = _spawn_children(None, 8)[0:8]
    assert len({child.entropy for child in children}) == 1
    rebuilt = np.random.SeedSequence(children[0].entropy).spawn(8)
    assert _states(children) == _states(rebuilt)


def test_path_seeds_match_spawn_for_nested_spawn_keys():
    children = _PathSeeds(_nested_parent(), 12)[0:12]
    expected = _nested_parent().spawn(12)
    assert [c.spawn_key for c in children] == [c.spawn_key for c in expected]
    assert [c.pool_size for c in children] == [8] * 12
    assert _states(children) == _states(expected)


def test_caller_seed_sequence_still_spawns_its_children():
    """A passed-in SeedSequence hands out its next children as the path
    streams and counts them spawned, as SeedSequence.spawn does."""
    seed = np.random.SeedSequence(5)
    seed.spawn(2)
    children = _spawn_children(seed, 16)
    assert seed.n_children_spawned == 18
    assert _states(children[0:16]) == _states(
        np.random.SeedSequence(5).spawn(18)[2:])
    stats_seed = np.random.SeedSequence(5)
    run_circuit_ensemble_vr(noisy_rc_circuit(), NOISE, 5e-9, 10,
                            seed=stats_seed, max_trials=32, batch_size=16)
    assert stats_seed.n_children_spawned == 32


def test_linearized_control_of_linear_circuit_is_the_circuit():
    circuit = noisy_rc_circuit()
    assert linearized_control_circuit(circuit) is circuit


def test_linearized_control_strips_nonlinearity():
    control = linearized_control_circuit(rtd_lowpass_circuit())
    assert not control.nonlinear()
    assert {e.name for e in control.elements()} == {"Vb", "R1", "X1", "C1"}


# ---------------------------------------------------------------------------
# unbiasedness (Hypothesis)


# A fixed seed pool: Hypothesis varies the workload freely, but an
# unbounded seed space would let shrinking hunt for the honest >6-sigma
# tail events any statistical bound admits.
_SEEDS = st.sampled_from(tuple(range(16)))
#: Statistical agreement margin (sigmas) plus a float-noise floor for
#: points whose standard error is exactly zero (the DC-pinned t = 0).
_SIGMAS, _FLOOR = 6.0, 1e-12


@settings(max_examples=10, deadline=None)
@given(
    resistance=st.floats(min_value=200.0, max_value=5e3),
    seed=_SEEDS,
)
def test_cv_estimate_agrees_with_naive_within_ci(resistance, seed):
    naive = run_circuit_ensemble_vr(
        noisy_rc_circuit(resistance), NOISE, 5e-9, 40,
        node="n1", seed=seed, max_trials=64,
    )
    cv = run_circuit_ensemble_vr(
        noisy_rc_circuit(resistance), NOISE, 5e-9, 40,
        node="n1", seed=seed, max_trials=64, control_variate=True,
    )
    margin = _SIGMAS * np.maximum(
        naive.standard_error, cv.standard_error
    )
    assert np.all(np.abs(cv.mean - naive.mean) <= margin + _FLOOR)
    # The naive diagnostic channel on the CV run *is* the naive
    # estimator over its raw paths.
    assert cv.naive_mean is not None
    assert np.all(np.abs(cv.naive_mean - cv.mean) <= margin + _FLOOR)


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS)
def test_antithetic_estimate_agrees_with_naive_within_ci(seed):
    naive = run_circuit_ensemble_vr(
        rtd_lowpass_circuit(), [("out", 1e-9)], 2e-9, 40,
        node="out", seed=seed, max_trials=64,
    )
    anti = run_circuit_ensemble_vr(
        rtd_lowpass_circuit(), [("out", 1e-9)], 2e-9, 40,
        node="out", seed=seed, max_trials=64, antithetic=True,
    )
    margin = _SIGMAS * np.maximum(
        naive.standard_error, anti.standard_error
    )
    assert np.all(np.abs(anti.mean - naive.mean) <= margin + _FLOOR)


# ---------------------------------------------------------------------------
# bit-reproducibility (Hypothesis across knob combinations)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    antithetic=st.booleans(),
    control_variate=st.booleans(),
    chunks=st.integers(min_value=1, max_value=4),
    workers=st.integers(min_value=1, max_value=3),
)
def test_vr_bit_identical_across_reruns_chunks_and_workers(
    seed, antithetic, control_variate, chunks, workers
):
    kwargs = dict(
        node="n1", seed=seed, antithetic=antithetic,
        control_variate=control_variate, target_ci=0.05, max_trials=64,
    )
    serial = run_circuit_ensemble_vr(
        noisy_rc_circuit(), NOISE, 5e-9, 30, **kwargs
    )
    rerun = run_circuit_ensemble_vr(
        noisy_rc_circuit(), NOISE, 5e-9, 30, **kwargs
    )
    parallel = run_circuit_ensemble_vr(
        noisy_rc_circuit(), NOISE, 5e-9, 30, chunks=chunks,
        runner=BatchRunner(max_workers=workers, executor="thread"),
        **kwargs,
    )
    for other in (rerun, parallel):
        assert np.array_equal(serial.mean, other.mean)
        assert np.array_equal(serial.std, other.std)
        assert serial.n_simulated == other.n_simulated
        assert serial.n_batches == other.n_batches
        assert serial.stopped_early == other.stopped_early
        if control_variate:
            assert np.array_equal(
                serial.cv_coefficient, other.cv_coefficient
            )


def test_vr_off_is_bitwise_legacy_run():
    # With every knob off, run_circuit_ensemble must still produce the
    # pre-VR result: same seeds, same internal draws, same floats.
    legacy = run_circuit_ensemble(
        noisy_rc_circuit(), NOISE, t_stop=5e-9, steps=50,
        n_paths=32, seed=11,
    )
    threaded = run_circuit_ensemble(
        noisy_rc_circuit(), NOISE, t_stop=5e-9, steps=50,
        n_paths=32, seed=11, antithetic=False, control_variate=False,
    )
    assert np.array_equal(legacy.mean, threaded.mean)
    assert np.array_equal(legacy.std, threaded.std)


# ---------------------------------------------------------------------------
# termination (Hypothesis)


@settings(max_examples=12, deadline=None)
@given(
    target_ci=st.floats(min_value=1e-12, max_value=1.0),
    max_trials=st.integers(min_value=4, max_value=96),
    antithetic=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_target_ci_stopping_always_terminates(
    target_ci, max_trials, antithetic, seed
):
    if antithetic and max_trials % 2:
        max_trials += 1
    stats = run_circuit_ensemble_vr(
        noisy_rc_circuit(), NOISE, 5e-9, 20,
        node="n1", seed=seed, target_ci=target_ci,
        max_trials=max_trials, antithetic=antithetic,
    )
    assert stats.n_simulated <= max_trials
    if stats.stopped_early:
        assert stats.n_simulated < max_trials
        halfwidth = float(np.max(0.5 * stats.band_width()))
        assert halfwidth <= target_ci
    else:
        assert stats.n_simulated == max_trials


# ---------------------------------------------------------------------------
# satellite 3: chunk-invariant parallel SDE ensembles


def test_run_ensemble_parallel_is_chunk_invariant():
    sde = LinearSDE([[-2.0e8]], [[1.0e-2]])
    results = [
        run_ensemble_parallel(
            sde, 5e-9, 200, n_paths=24, chunks=chunks, x0=[0.0],
            runner=BatchRunner(max_workers=2, executor="thread", seed=9),
        )
        for chunks in (1, 2, 3)
    ]
    for other in results[1:]:
        assert np.array_equal(results[0].mean, other.mean)
        assert np.array_equal(results[0].std, other.std)


def test_run_circuit_ensemble_parallel_vr_delegates():
    stats = run_circuit_ensemble_parallel(
        noisy_rc_circuit, NOISE, t_stop=5e-9, steps=40, n_paths=64,
        seed=13, chunks=3, antithetic=True, target_ci=0.05,
        runner=BatchRunner(max_workers=2, executor="thread"),
    )
    serial = run_circuit_ensemble(
        noisy_rc_circuit(), NOISE, t_stop=5e-9, steps=40, n_paths=64,
        seed=13, antithetic=True, target_ci=0.05,
    )
    assert np.array_equal(stats.mean, serial.mean)
    assert stats.n_simulated == serial.n_simulated


# ---------------------------------------------------------------------------
# job-layer threading


def test_ensemble_transient_job_vr_validation():
    with pytest.raises(AnalysisError, match="noise"):
        EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=10,
            n_instances=4, antithetic=True,
        )
    with pytest.raises(AnalysisError, match="node"):
        EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=10,
            n_instances=4, noise={"out": 1e-9}, target_ci=0.1,
        )
    with pytest.raises(AnalysisError, match="even"):
        EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=10,
            n_instances=5, noise={"out": 1e-9}, antithetic=True,
        )
    with pytest.raises(AnalysisError, match="replicas"):
        EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=10,
            variations=[{}, {}], noise={"out": 1e-9}, antithetic=True,
        )


def test_ensemble_transient_job_adaptive_run_and_fingerprint():
    from repro.service.hashing import job_key

    def make():
        return EnsembleTransientJob(
            builder="fet_rtd_inverter", t_stop=1e-9, steps=20,
            n_instances=8, noise={"out": 1e-9}, node="out",
            antithetic=True, target_ci=0.05, max_trials=32,
            label="vr",
        )

    assert job_key(make(), seed=0) == job_key(make(), seed=0)
    other = EnsembleTransientJob(
        builder="fet_rtd_inverter", t_stop=1e-9, steps=20,
        n_instances=8, noise={"out": 1e-9}, node="out",
        antithetic=True, target_ci=0.01, max_trials=32, label="vr",
    )
    assert job_key(make(), seed=0) != job_key(other, seed=0)

    stats = make().run(np.random.SeedSequence(3))
    assert stats.antithetic
    assert stats.n_simulated <= 32


def test_ensemble_job_adaptive_stops_on_target():
    job = EnsembleJob(
        builder="noisy_rc_node", t_final=5e-9, steps=100, n_paths=16,
        antithetic=True, target_rel_ci=0.5, max_trials=256,
    )
    stats = job.run(np.random.SeedSequence(5))
    assert stats.stopped_early
    assert stats.n_simulated < 256


def test_sde_vr_antithetic_exact_for_linear_sde():
    sde = LinearSDE([[-2.0e8]], [[1.0e-2]])
    stats = run_sde_ensemble_vr(
        sde, [0.0], 5e-9, 100, antithetic=True, max_trials=16, seed=2
    )
    # A linear SDE response is odd in the increments, so the pair
    # means are deterministic: variance collapses to (near) zero.
    assert float(np.max(stats.standard_error)) <= 1e-12


def test_vr_knobs_reject_return_result():
    with pytest.raises(AnalysisError, match="return_result"):
        run_circuit_ensemble(
            noisy_rc_circuit(), NOISE, t_stop=1e-9, steps=10,
            n_paths=8, seed=1, antithetic=True, return_result=True,
        )


# ---------------------------------------------------------------------------
# march-ahead equivalence


def _run_recording(run, one_batch: bool):
    """Run *run()* with every ``sample`` call of ``_adaptive_mc`` logged.

    With *one_batch*, later marches are one batch long and every
    multi-batch request (the first march) is split into one-batch
    ``sample`` calls whose rows are concatenated: one march per plan
    batch, the reference that marching ahead must reproduce.
    """
    adaptive_mc = vr._adaptive_mc
    calls: list[tuple[int, int]] = []

    def recording(sample, *, plan, **kwargs):
        def logged(offset, size):
            calls.append((offset, size))
            if not one_batch:
                return sample(offset, size)
            parts = [
                sample(start, min(plan.batch_size, offset + size - start))
                for start in range(offset, offset + size, plan.batch_size)
            ]
            signal = np.concatenate([y for y, _ in parts])
            if parts[0][1] is None:
                return signal, None
            return signal, np.concatenate([x for _, x in parts])

        return adaptive_mc(logged, plan=plan, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vr, "_adaptive_mc", recording)
        if one_batch:
            patch.setattr(vr, "_batches_ahead", lambda *args: 1)
        return run(), calls


def _assert_bitwise_equal(a, b) -> None:
    for f in dataclasses.fields(a):
        if f.name == "time_elapsed":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert x.dtype == y.dtype, f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


#: Per-estimator absolute CI targets on the RTD low-pass that stop
#: after several marches (about 4-16 batches of 8 paths).
_LOWPASS_TARGETS = {
    "naive": ({}, 5e-4),
    "antithetic": ({"antithetic": True}, 1.5e-6),
    "control-variate": ({"control_variate": True}, 3e-5),
    "antithetic-control-variate": (
        {"antithetic": True, "control_variate": True}, 3e-6),
}
#: Peak |mean| of the RTD low-pass output, for relative targets.
_LOWPASS_SCALE = 0.128


@settings(max_examples=2, deadline=None)
@given(seed=_SEEDS)
@pytest.mark.parametrize("target", ["target_ci", "target_rel_ci", None])
@pytest.mark.parametrize("chunks", [None, 2])
@pytest.mark.parametrize("estimator", sorted(_LOWPASS_TARGETS))
def test_march_ahead_is_bitwise_one_march_per_batch(
    estimator, chunks, target, seed
):
    knobs, ci = _LOWPASS_TARGETS[estimator]
    kwargs = dict(node="out", seed=seed, batch_size=8, max_trials=512, **knobs)
    if target == "target_ci":
        kwargs["target_ci"] = ci
    elif target == "target_rel_ci":
        kwargs["target_rel_ci"] = ci / _LOWPASS_SCALE
    else:
        kwargs["max_trials"] = 64
    if chunks is not None:
        kwargs.update(
            chunks=chunks,
            runner=BatchRunner(max_workers=2, executor="thread"),
        )

    def run():
        return run_circuit_ensemble_vr(
            rtd_lowpass_circuit(), [("out", 1e-9)], 2e-9, 20, **kwargs
        )

    ahead, ahead_calls = _run_recording(run, one_batch=False)
    per_batch, _ = _run_recording(run, one_batch=True)
    _assert_bitwise_equal(ahead, per_batch)
    assert ahead.stopped_early == (target is not None)
    assert any(size > 8 for _, size in ahead_calls)


@settings(max_examples=2, deadline=None)
@given(seed=_SEEDS)
@pytest.mark.parametrize("target", ["target_ci", "target_rel_ci", None])
@pytest.mark.parametrize("antithetic", [False, True])
def test_sde_march_ahead_is_bitwise_one_march_per_batch(
    antithetic, target, seed
):
    # A mean rising to 0.063 with a 5e-3 stationary deviation: naive
    # runs stop after 10-30 batches; antithetic pairs of a linear SDE
    # are exact and stop after one.
    sde = LinearSDE([[-2.0e8]], [[1.0e2]], drift_offset=[2.0e7])
    kwargs = dict(antithetic=antithetic, batch_size=8, max_trials=512,
                  seed=seed)
    if target == "target_ci":
        kwargs["target_ci"] = 1e-3
    elif target == "target_rel_ci":
        kwargs["target_rel_ci"] = 1e-2
    else:
        kwargs["max_trials"] = 64

    def run():
        return run_sde_ensemble_vr(sde, [0.0], 5e-9, 50, **kwargs)

    ahead, _ = _run_recording(run, one_batch=False)
    per_batch, _ = _run_recording(run, one_batch=True)
    _assert_bitwise_equal(ahead, per_batch)


def test_oscillator_marches_ahead_in_few_calls():
    """The benchmark's naive estimate (2% relative CI, batches of 16)
    uses its 17 plan batches from at most 6 marches, and never holds
    more marched-but-unused paths than used ones."""
    oscillator, info = arrays.rtd_relaxation_oscillator()

    def run():
        return run_circuit_ensemble_vr(
            oscillator, [(info.output, 1e-8)], float(info.period_guess), 120,
            node=info.output, seed=1, max_trials=4096, batch_size=16,
            target_rel_ci=0.02,
        )

    stats, calls = _run_recording(run, one_batch=False)
    assert stats.stopped_early
    assert stats.n_batches == 17
    assert len(calls) <= 6
    assert calls[0] == (0, 16)
    marched = 0
    for offset, size in calls:
        # A march starts once every marched path is used up and may
        # not outgrow the paths used so far.
        assert offset == marched
        assert size <= max(offset, 16)
        marched += size
    assert marched - stats.n_simulated <= stats.n_simulated
