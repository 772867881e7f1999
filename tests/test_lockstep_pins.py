"""Numeric and Table-I pins for the lockstep march and the VR estimators.

The vectorized lockstep march (:class:`~repro.core.LinearStepper` with
K > 1, or K = 1 on a large device count) and the variance-reduced
Monte-Carlo estimators built on it are rewritten for speed from time to
time.  These pins hold what such a rewrite must not move:

* the states and every :class:`~repro.perf.FlopCounter` category and
  count of K = 16 jittered FET-RTD inverter ensembles,
  with one device-parameter record per slot (uniform groups) and with
  two (mixed slots), adaptive and fixed-grid, eq.-5 predictor on and
  off; of a 6x6 RTD mesh on the K = 1 vectorized path; and of a noisy
  RTD relaxation-oscillator ensemble;
* the states and counts of K = 1 marches on the scalar chord path
  (few devices, one instance): the Fig. 8 inverter, adaptive with the
  predictor on and off and on a fixed grid, the MOBILE NAND (0, 1)
  whose resting internal node ``mid`` once clamped every step at
  ``h_min`` (the ``k1-nand01-clamped`` key keeps that name), the D
  flip-flop with ``dv_limit`` rejections and a trapezoidal RTD divider
  from a DC start;
* the ``mean`` / ``standard_error`` and the path and batch counts
  of naive, antithetic and control-variate estimates, serial and
  chunked, plus the SDE twin;
* the plain (no variance reduction) ensembles: the quantile-band
  statistics of ``run_circuit_ensemble``, serial and chunked, its raw
  ``return_result=True`` march, its antithetic form without a target,
  ``run_ensemble_parallel`` (thread and process chunks), and the
  ``EnsembleJob`` / ``EnsembleTransientJob`` forms the chunked runs are
  made of; ``run_ensemble`` and ``EnsembleJob`` (statistics and raw
  paths) also in the one-generator ``rng`` draw that keys the stored
  service records.

``lockstep_pins.expected.json`` keeps the integer counts exact and the
floats at full precision.  The floats are compared to ``RTOL`` of each
array's scale: tight enough that any change to the march's arithmetic
(another predictor formula, chord or step rule) fails, loose enough for
another platform's last-bit drift in numpy's vector math or BLAS.
Bit-identity across a rewrite is checked in process instead, by the
property tests of the fused device kernels.  Regenerate with
``pytest --update-golden`` only for a change that is meant to move the
numbers.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.circuit import DC, Circuit, Pulse
from repro.circuits_lib import arrays, fet_rtd_inverter, logic_gates, mobile_dflipflop
from repro.circuits_lib.grids import rtd_mesh
from repro.devices.rtd import NANO_SIM_DATE05, SCHULMAN_INGAAS, SchulmanRTD
from repro.runtime.jobs import EnsembleJob, EnsembleTransientJob
from repro.runtime.runner import BatchRunner
from repro.stochastic import (
    path_normals,
    run_circuit_ensemble,
    run_circuit_ensemble_parallel,
    run_circuit_ensemble_vr,
    run_ensemble,
    run_ensemble_parallel,
    run_sde_ensemble_vr,
)
from repro.stochastic.sde import LinearSDE
from repro.swec import SwecEnsembleTransient, SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions

PINS = Path(__file__).with_name("lockstep_pins.expected.json")

K = 16
T_STOP = 1.5e-9

#: Float pins hold to this fraction of each array's largest magnitude.
RTOL = 1e-9


def _floats(array) -> list:
    return np.asarray(array, dtype=float).tolist()


def _pin(golden_json, key: str, payload: dict) -> None:
    golden_json(PINS, payload, rtol=RTOL, key=key)


def _options(predictor: bool = True, **kwargs) -> SwecOptions:
    step = StepControlOptions(epsilon=0.05, h_min=1e-12, h_max=0.2e-9,
                              h_initial=1e-12)
    return SwecOptions(step=step, use_predictor=predictor, **kwargs)


def _inverters(mixed: bool) -> list[Circuit]:
    """K inverters with jittered FET threshold and load; *mixed* gives
    odd instances a 10%-larger RTD area record, so both RTD slots split
    into two model groups."""
    rng = np.random.default_rng(14)
    vth = 1.0 + 0.15 * rng.uniform(-1.0, 1.0, K)
    load = 1e-12 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, K))
    vin = Pulse(0.0, 5.0, delay=0.5e-9, rise=0.3e-9, fall=0.3e-9,
                width=2e-9, period=5e-9)
    circuits = []
    for k in range(K):
        parameters = NANO_SIM_DATE05
        if mixed and k % 2:
            parameters = NANO_SIM_DATE05.scaled(1.1)
        circuits.append(fet_rtd_inverter(
            vin=vin, fet_vth=float(vth[k]), load_capacitance=float(load[k]),
            parameters=parameters)[0])
    return circuits


def _march_payload(result) -> dict:
    """The final state stack and the per-instance time sum of the
    states (a checksum of the whole trajectory), with the grid's end
    and sum, beside every Table-I count.  A scalar engine's ``(T, n)``
    states count as one instance."""
    flops = result.flops
    states = result.states  # (K, T, n)
    if states.ndim == 2:
        states = states[None]
    return {
        "final_states": _floats(states[:, -1]),
        "summed_states": _floats(states.sum(axis=1)),
        "final_time": float(result.times[-1]),
        "summed_times": float(np.sum(result.times)),
        "flops": flops.by_category(),
        "device_evaluations": flops.device_evaluations,
        "factorizations": flops.factorizations,
        "linear_solves": flops.linear_solves,
        "accepted_steps": result.accepted_steps,
        "rejected_steps": result.rejected_steps,
        "dc_iterations": result.dc_iterations,
    }


def _ensemble_march(group: str, mode: str, predictor: bool):
    engine = SwecEnsembleTransient(_inverters(group == "mixed"),
                                   _options(predictor))
    if mode == "run":
        return engine.run(T_STOP)
    return engine.run_grid(np.linspace(0.0, T_STOP, 31))


MARCHES = [(group, mode, predictor)
           for group in ("uniform", "mixed")
           for mode in ("run", "run_grid")
           for predictor in (True, False)]


@pytest.mark.parametrize("group,mode,predictor", MARCHES)
def test_inverter_ensemble_march_is_pinned(golden_json, group, mode,
                                           predictor):
    result = _ensemble_march(group, mode, predictor)
    key = f"inverter-{group}-{mode}-predictor-{'on' if predictor else 'off'}"
    _pin(golden_json, key, _march_payload(result))


def test_mesh_k1_vectorized_march_is_pinned(golden_json):
    """36 RTDs exceed the scalar-chord threshold, so this K = 1 march
    takes the vectorized device path (as the benchmark's meshes do)."""
    mesh, _ = rtd_mesh(6, 6, drive=Pulse(0.0, 1.0, delay=0.1e-9,
                                         rise=0.2e-9, fall=0.2e-9,
                                         width=1e-9, period=3e-9))
    engine = SwecEnsembleTransient(mesh, _options(backend="sparse"),
                                   n_instances=1)
    _pin(golden_json, "mesh6x6-k1", _march_payload(engine.run(0.5e-9)))


def test_noisy_oscillator_march_is_pinned(golden_json):
    oscillator, info = arrays.rtd_relaxation_oscillator()
    noise = [(info.output, 1e-8)]
    engine = SwecEnsembleTransient(oscillator, SwecOptions(),
                                   n_instances=K, noise=noise)
    times = np.linspace(0.0, float(info.period_guess), 121)
    normals = path_normals(np.random.SeedSequence(11).spawn(K), 120, 1)
    result = engine.run_grid(times, normals=normals)
    _pin(golden_json, "oscillator-noisy-k16", _march_payload(result))


# ---------------------------------------------------------------------------
# K = 1 marches on the scalar chord path


def _gate_options(**kwargs) -> SwecOptions:
    step = StepControlOptions(epsilon=kwargs.pop("epsilon", 0.1), h_min=1e-13,
                              h_max=0.2e-9, h_initial=1e-12)
    return SwecOptions(step=step, **kwargs)


def _fig8_inverter() -> Circuit:
    vin = Pulse(0.0, 5.0, delay=0.5e-9, rise=0.3e-9, fall=0.3e-9,
                width=2e-9, period=5e-9)
    return fet_rtd_inverter(vin=vin)[0]


def _k1_inverter(predictor: bool):
    return SwecTransient(_fig8_inverter(), _options(predictor)).run(3e-9)


def _k1_inverter_grid():
    return SwecTransient(_fig8_inverter(), _options()).run_grid(
        np.linspace(0.0, 3e-9, 301))


def _k1_nand_clamped():
    """NAND (0, 1) through the clock edge to 6 ns.  ``Mb`` in triode
    puts 0.2 S on ``mid``, which rests at 0 V: plain eq. 12 clamped
    every step of this march at ``h_min``.  The motion-weighted bound
    lets the resting node go; only the steps that take plain eq. 12 —
    the first and those right after a clock breakpoint — sit at
    ``h_min``."""
    net, _ = logic_gates.mobile_nand(DC(0.0), DC(1.0))
    return SwecTransient(net, _gate_options(dv_limit=0.2)).run(6e-9)


def _k1_flipflop_rejections():
    period = 6e-9
    clock = Pulse(0.0, 1.15, delay=period / 2, rise=0.2e-9, fall=0.2e-9,
                  width=period / 2 - 0.2e-9, period=period)
    data = Pulse(0.0, 1.2, delay=period, rise=0.2e-9, fall=0.2e-9, width=1.0)
    net, _ = mobile_dflipflop(clock=clock, data=data, output_capacitance=2e-12)
    return SwecTransient(net, _gate_options(epsilon=0.3, dv_limit=0.05)).run(
        2 * period)


def _k1_divider_trap():
    circuit = Circuit("rtd-divider")
    circuit.add_voltage_source("Vb", "in", "0",
                               Pulse(0.2, 0.6, delay=0.2e-9, rise=0.3e-9,
                                     fall=0.3e-9, width=0.5e-9))
    circuit.add_resistor("R1", "in", "out", 50.0)
    circuit.add_device("X1", "out", "0", SchulmanRTD(SCHULMAN_INGAAS))
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return SwecTransient(circuit, _options(method="trap")).run(1.5e-9)


K1_MARCHES = {
    "k1-inverter-predictor-on": lambda: _k1_inverter(True),
    "k1-inverter-predictor-off": lambda: _k1_inverter(False),
    "k1-inverter-run_grid": _k1_inverter_grid,
    "k1-nand01-clamped": _k1_nand_clamped,
    "k1-flipflop-dv-limit": _k1_flipflop_rejections,
    "k1-divider-trap-dc": _k1_divider_trap,
}


@pytest.mark.parametrize("key", sorted(K1_MARCHES))
def test_k1_scalar_march_is_pinned(golden_json, key):
    result = K1_MARCHES[key]()
    _pin(golden_json, key, _march_payload(result))


def test_k1_pins_cover_their_paths():
    """Each K = 1 case exercises what its name says."""
    assert _k1_flipflop_rejections().rejected_steps > 0
    nand = _k1_nand_clamped()
    at_h_min = nand.step_sizes() <= 1e-13 * (1.0 + 1e-6)
    starts = nand.times[:-1][at_h_min]
    edges = logic_gates.gate_clock().periodic_breakpoints(6e-9)
    assert nand.steps_at_hmin == np.count_nonzero(at_h_min) == 3
    assert starts[0] == 0.0
    assert all(min(abs(t - edge) for edge in edges) < 1e-20
               for t in starts[1:])
    assert nand.step_limits["h_max"] > 0
    assert nand.largest_step == pytest.approx(0.2e-9, rel=1e-6, abs=0.0)
    divider = _k1_divider_trap()
    assert divider.dc_iterations > 1 and divider.dc_converged


# ---------------------------------------------------------------------------
# variance-reduced estimates


def _rtd_lowpass() -> Circuit:
    circuit = Circuit("rtd-lowpass")
    circuit.add_voltage_source("Vb", "in", "0", 0.2)
    circuit.add_resistor("R1", "in", "out", 50.0)
    circuit.add_device("X1", "out", "0", SchulmanRTD(SCHULMAN_INGAAS))
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


def _estimate_payload(stats) -> dict:
    return {
        "mean": _floats(stats.mean),
        "standard_error": _floats(stats.standard_error),
        "n_simulated": stats.n_simulated,
        "n_batches": stats.n_batches,
    }


ESTIMATORS = {
    "naive": {},
    "antithetic": {"antithetic": True},
    "control-variate": {"control_variate": True},
}


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
@pytest.mark.parametrize("chunks", [None, 2])
def test_circuit_vr_estimate_is_pinned(golden_json, estimator, chunks):
    runner = None
    if chunks is not None:
        runner = BatchRunner(max_workers=2, executor="thread")
    stats = run_circuit_ensemble_vr(
        _rtd_lowpass(), [("out", 2e-8)], 5e-9, 30, seed=21,
        max_trials=64, batch_size=16, target_rel_ci=1e-4, chunks=chunks,
        runner=runner, **ESTIMATORS[estimator])
    key = f"lowpass-{estimator}-{'serial' if chunks is None else 'chunks2'}"
    _pin(golden_json, key, _estimate_payload(stats))


@pytest.mark.parametrize("antithetic", [False, True])
def test_sde_vr_estimate_is_pinned(golden_json, antithetic):
    sde = LinearSDE([[-2.0e8]], [[1.0e-2]])
    stats = run_sde_ensemble_vr(sde, [0.0], 5e-9, 50, antithetic=antithetic,
                                max_trials=48, batch_size=16, seed=4)
    key = f"sde-{'antithetic' if antithetic else 'naive'}"
    _pin(golden_json, key, _estimate_payload(stats))


def test_seed_sequence_vr_estimate_is_pinned(golden_json):
    """A caller's SeedSequence supplies its next unspawned children as
    the path streams."""
    seed = np.random.SeedSequence(21)
    seed.spawn(3)
    stats = run_circuit_ensemble_vr(
        _rtd_lowpass(), [("out", 2e-8)], 5e-9, 30, seed=seed,
        max_trials=32, batch_size=16)
    _pin(golden_json, "lowpass-seedsequence", _estimate_payload(stats))


@pytest.mark.parametrize("control_variate", [False, True])
def test_oscillator_vr_estimate_is_pinned(golden_json, control_variate):
    """The benchmark's Monte-Carlo quantity: the relaxation oscillator's
    output to a 2% relative CI."""
    oscillator, info = arrays.rtd_relaxation_oscillator()
    stats = run_circuit_ensemble_vr(
        oscillator, [(info.output, 1e-8)], float(info.period_guess), 120,
        node=info.output, seed=3, max_trials=4096, batch_size=16,
        target_rel_ci=0.02, control_variate=control_variate)
    key = f"oscillator-{'control-variate' if control_variate else 'naive'}"
    _pin(golden_json, key, _estimate_payload(stats))


# ---------------------------------------------------------------------------
# plain ensembles: no control variate, no CI target


def _plain_payload(stats) -> dict:
    return {
        "mean": _floats(stats.mean),
        "std": _floats(stats.std),
        "lower": _floats(stats.lower),
        "upper": _floats(stats.upper),
        "n_paths": stats.n_paths,
    }


LOWPASS_NOISE = [("out", 2e-8)]


def test_plain_circuit_ensemble_is_pinned(golden_json):
    stats = run_circuit_ensemble(_rtd_lowpass(), LOWPASS_NOISE, 5e-9, 30, 24,
                                 seed=21)
    _pin(golden_json, "plain-lowpass-serial", _plain_payload(stats))


def test_plain_circuit_ensemble_parallel_is_pinned(golden_json):
    stats = run_circuit_ensemble_parallel(
        "noisy_rc_node", {"n1": 1e-8}, 2e-9, 40, 24, chunks=3, seed=99,
        params={"drive": 1e-4},
        runner=BatchRunner(max_workers=2, executor="thread"))
    _pin(golden_json, "plain-noisy-rc-chunks3", _plain_payload(stats))


def test_plain_circuit_ensemble_result_is_pinned(golden_json):
    result = run_circuit_ensemble(_rtd_lowpass(), LOWPASS_NOISE, 5e-9, 30, 8,
                                  seed=21, return_result=True)
    _pin(golden_json, "plain-lowpass-result", _march_payload(result))


def test_plain_antithetic_circuit_ensemble_is_pinned(golden_json):
    """Antithetic pairs with no CI target through the plain front door
    (a Gaussian-band estimate over every batch)."""
    stats = run_circuit_ensemble(_rtd_lowpass(), LOWPASS_NOISE, 5e-9, 30, 24,
                                 seed=21, antithetic=True)
    payload = _estimate_payload(stats)
    payload.update(lower=_floats(stats.lower), upper=_floats(stats.upper))
    _pin(golden_json, "plain-lowpass-antithetic", payload)


def test_plain_sde_ensemble_parallel_is_pinned(golden_json):
    sde = LinearSDE([[-2.0e8]], [[1.0e-2]])
    stats = run_ensemble_parallel(
        sde, 5e-9, 50, n_paths=24, chunks=3, x0=[0.0],
        runner=BatchRunner(max_workers=2, executor="thread", seed=9))
    _pin(golden_json, "plain-sde-chunks3", _plain_payload(stats))


@pytest.mark.parametrize("antithetic", [False, True])
def test_plain_ensemble_job_path_seeds_is_pinned(golden_json, antithetic):
    job = EnsembleJob(
        sde=LinearSDE([[-2.0e8]], [[1.0e-2]]), t_final=5e-9, steps=50,
        n_paths=8, x0=[0.0], antithetic=antithetic,
        path_seeds=np.random.SeedSequence(4).spawn(4 if antithetic else 8))
    key = f"plain-sde-job-{'antithetic' if antithetic else 'naive'}"
    _pin(golden_json, key, _plain_payload(job.run()))


@pytest.mark.parametrize("antithetic", [False, True])
def test_plain_ensemble_transient_job_is_pinned(golden_json, antithetic):
    """``node=`` reduces worker-side; antithetic pairs without a target
    stay a plain ensemble over all K paths."""
    job = EnsembleTransientJob(
        circuit=_rtd_lowpass(), t_stop=5e-9, steps=30, n_instances=16,
        noise=LOWPASS_NOISE, node="out", antithetic=antithetic)
    stats = job.run(np.random.SeedSequence(21))
    key = f"plain-lowpass-job-{'antithetic' if antithetic else 'naive'}"
    _pin(golden_json, key, _plain_payload(stats))


#: A 2-state, 1-noise SDE for the pins of the ``rng`` draw: one
#: generator draws every path, in ``euler_maruyama``'s own layout.
def _sde2() -> LinearSDE:
    return LinearSDE([[-2.0e8, 1.0e8], [0.0, -1.0e8]], [[1.0e-2], [5.0e-3]])


RNG_FORMS = {
    "int": lambda: {"rng": 7},
    "generator-component1": lambda: {
        "rng": np.random.default_rng(7), "component": 1},
    "antithetic": lambda: {"rng": 7, "antithetic": True},
}


@pytest.mark.parametrize("form", sorted(RNG_FORMS))
def test_plain_sde_rng_ensemble_is_pinned(golden_json, form):
    stats = run_ensemble(_sde2(), [0.0, 0.0], 5e-9, 50, 16, **RNG_FORMS[form]())
    _pin(golden_json, f"plain-sde-rng-{form}", _plain_payload(stats))


@pytest.mark.parametrize("antithetic", [False, True])
def test_plain_ensemble_job_rng_is_pinned(golden_json, antithetic):
    """The service-cached record: the runner's seed drives one
    generator for every path."""
    job = EnsembleJob(sde=_sde2(), t_final=5e-9, steps=50, n_paths=16,
                      antithetic=antithetic)
    stats = BatchRunner(executor="serial", seed=12).run([job]).values()[0]
    key = f"plain-sde-job-rng-{'antithetic' if antithetic else 'naive'}"
    _pin(golden_json, key, _plain_payload(stats))


def test_plain_ensemble_job_rng_paths_is_pinned(golden_json):
    job = EnsembleJob(sde=_sde2(), t_final=5e-9, steps=50, n_paths=8,
                      return_paths=True)
    result = job.run(np.random.SeedSequence(13))
    payload = {
        "final_paths": _floats(result.paths[:, -1]),
        "summed_paths": _floats(result.paths.sum(axis=1)),
        "times_end": float(result.times[-1]),
        "n_paths": result.n_paths,
    }
    _pin(golden_json, "plain-sde-job-rng-paths", payload)


def test_plain_sde_builder_chunks_process_is_pinned(golden_json):
    """Builder-name chunks, each resolved inside its worker process."""
    stats = run_ensemble_parallel(
        "noisy_rc_node", 2e-9, 40, 32, chunks=4,
        params={"noise_amplitude": 1e-8},
        runner=BatchRunner(max_workers=2, executor="process", seed=14))
    _pin(golden_json, "plain-noisy-rc-sde-chunks4-process", _plain_payload(stats))
