#!/usr/bin/env python3
"""Run the perf-trajectory kernels and emit a ``BENCH_<tag>.json``.

Every invocation times a fixed set of hot-path kernels — the lockstep
ensemble transient against its serial loop, the vectorized AC sweep
against its per-frequency loop, the index-gather linearization against
the per-device Python loop, a plain single-instance SWEC march on a
fixed grid and an adaptive one (with its microseconds per step), one
RTD-divider sweep point split into build, DC start and march, and
the sparse solver backend against the dense one on a grid mesh (with
the sparse march's SuperLU factorizations, steps refined on a kept
factor and refinement sweeps per such step), with the median
microseconds and ``nnz(L+U)`` of one SuperLU factorization
of the 30x30 RTD mesh (the factorization layer), the median
milliseconds of its symbolic analysis (``SparseOperators``), and the
milliseconds, ordering-probe milliseconds and tracemalloc peak of one
sparse ``SwecTransient`` build on the 60x60 RTD mesh (the sparse front
end), and the
driven shooting PSS of a 16x16 power grid on the sparse backend with
its booked factorizations and reused factors, the per-point
milliseconds of a ``.PARAM`` netlist sweep's cache keys, lint gate and
parse, and the microseconds of one step's solve on the ``stack``
backend, its straight-line program against batched LAPACK — and
writes one machine-readable JSON file::

    python tools/bench_report.py --tag ci --out bench
    python tools/bench_report.py --check bench/BENCH_ci.json

Schema (``repro-bench/1``): a top-level record with ``tag``, the
runtime environment, and one entry per benchmark carrying the median
seconds over ``--repeats`` runs, the speedup over its reference path
where one exists, and the size axes (K, grid points, matrix size) the
numbers were taken at.  CI uploads the file as an artifact on every
push, so the perf trajectory accumulates run over run; ``--check``
validates a file against the schema (the CI consumption step).

``--quick`` shrinks every kernel (small K, short grids) for smoke use;
the JSON records the axes actually used, so quick and full files are
comparable but never confused.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

SCHEMA = "repro-bench/1"

_REQUIRED_TOP = ("schema", "tag", "created_utc", "python", "numpy",
                 "benchmarks")
_REQUIRED_ENTRY = ("name", "median_seconds", "axes")


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(statistics.median(samples))


def _bench_ensemble(quick: bool, repeats: int) -> list[dict]:
    import numpy as np

    from repro.circuits_lib import fet_rtd_inverter
    from repro.swec import SwecEnsembleTransient, SwecOptions, SwecTransient
    from repro.swec.timestep import StepControlOptions

    def options():
        return SwecOptions(step=StepControlOptions(
            epsilon=0.05, h_min=1e-12, h_max=0.2e-9, h_initial=1e-12))

    k = 16 if quick else 256
    n_points = 101 if quick else 401
    rng = np.random.default_rng(20050307)
    circuits = [
        fet_rtd_inverter(
            fet_vth=float(1.0 + 0.15 * rng.uniform(-1.0, 1.0)),
            load_capacitance=float(
                1e-12 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0))))[0]
        for _ in range(k)
    ]
    times = np.linspace(0.0, 2.0e-8, n_points)

    serial_seconds = _median_seconds(
        lambda: [SwecTransient(c, options()).run_grid(times)
                 for c in circuits], 1)
    engine = SwecEnsembleTransient(circuits, options())
    ensemble_seconds = _median_seconds(
        lambda: engine.run_grid(times), repeats)
    single_seconds = _median_seconds(
        lambda: SwecTransient(circuits[0], options()).run_grid(times),
        repeats)
    axes = {"K": k, "grid_points": n_points,
            "size": engine.size}
    return [
        {"name": "ensemble_transient_lockstep",
         "median_seconds": ensemble_seconds,
         "speedup": serial_seconds / ensemble_seconds,
         "reference": "serial per-instance loop",
         "axes": axes},
        {"name": "swec_transient_single",
         "median_seconds": single_seconds,
         "axes": {"grid_points": n_points, "size": engine.size}},
    ]


def _bench_adaptive(quick: bool, repeats: int) -> list[dict]:
    """The K = 1 adaptive march: the Fig. 8 inverter through
    ``SwecTransient.run`` to 5 ns at perfbench logic_k1's settings.

    Reports the median seconds, the accepted steps and the rate in
    microseconds per accepted step.  The march is short, so ``--quick``
    runs it unchanged.
    """
    from repro.circuit import Pulse
    from repro.circuits_lib import fet_rtd_inverter
    from repro.swec import SwecOptions, SwecTransient
    from repro.swec.timestep import StepControlOptions

    vin = Pulse(0.0, 5.0, delay=0.5e-9, rise=0.3e-9, fall=0.3e-9,
                width=2e-9, period=5e-9)
    circuit, _ = fet_rtd_inverter(vin=vin)
    engine = SwecTransient(circuit, SwecOptions(
        step=StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.2e-9,
                                h_initial=1e-12),
        dv_limit=0.5))
    t_stop = 5e-9
    steps = engine.run(t_stop).accepted_steps
    seconds = _median_seconds(lambda: engine.run(t_stop), repeats)
    return [{
        "name": "swec_transient_adaptive",
        "median_seconds": seconds,
        "accepted_steps": steps,
        "us_per_step": 1e6 * seconds / steps,
        "axes": {"t_stop": t_stop, "size": engine.system.size},
    }, _bench_divider_point(repeats)]


#: perfbench sweep_cached's RTD divider at one sweep point (no
#: capacitor, so the march is short and the front end shows).
DIVIDER_NETLIST = """* RTD divider
.model paper RTD
Vs in 0 0.6
R1 in out 10
X1 out 0 paper
.end
"""


def _bench_divider_point(repeats: int) -> dict:
    """One K = 1 sweep point of the RTD divider, split into the
    ``SwecTransient`` build, the DC start and the march.

    The march is timed from the DC state, which is the same march
    without the start.  Full runs and such marches alternate, and the
    DC start is the median of each pair's difference, so a slow spell
    of the host stretches both sides of a pair.  Each part takes the
    median of at least 100 runs.
    """
    from repro.circuit.parser import parse_netlist
    from repro.swec import SwecOptions, SwecTransient
    from repro.swec.timestep import StepControlOptions

    circuit = parse_netlist(DIVIDER_NETLIST)
    options = SwecOptions(step=StepControlOptions(
        epsilon=0.05, h_min=1e-13, h_max=5e-11, h_initial=1e-12))
    t_stop, runs = 2e-9, max(repeats, 100)
    build = _median_seconds(lambda: SwecTransient(circuit, options), runs)
    engine = SwecTransient(circuit, options)
    result = engine.run(t_stop)
    start = result.states[0]
    full, march = [], []
    for _ in range(runs):
        full.append(_median_seconds(lambda: engine.run(t_stop), 1))
        march.append(_median_seconds(lambda: engine.run(t_stop, start), 1))
    dc_start = statistics.median(a - b for a, b in zip(full, march))
    return {
        "name": "swec_transient_divider",
        "median_seconds": build + statistics.median(full),
        "build_us": 1e6 * build,
        "dc_start_us": 1e6 * dc_start,
        "march_us": 1e6 * statistics.median(march),
        "dc_iterations": result.dc_iterations,
        "accepted_steps": result.accepted_steps,
        "axes": {"t_stop": t_stop, "size": engine.system.size},
    }


def _bench_ac(quick: bool, repeats: int) -> list[dict]:
    from repro import Circuit
    from repro.ac import ACAnalysis, frequency_grid

    circuit = Circuit("lowpass")
    circuit.add_voltage_source("Vin", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-9)
    n_points = 200 if quick else 1000
    analysis = ACAnalysis(circuit)
    grid = frequency_grid(1e3, 1e9, n_points, "log")
    loop_seconds = _median_seconds(lambda: analysis.solve_loop(grid),
                                   repeats)
    vector_seconds = _median_seconds(lambda: analysis.solve(grid), repeats)
    return [{
        "name": "ac_sweep_vectorized",
        "median_seconds": vector_seconds,
        "speedup": loop_seconds / vector_seconds,
        "reference": "per-frequency Python loop",
        "axes": {"frequencies": n_points, "size": analysis.small.size},
    }]


def _bench_gather(quick: bool, repeats: int) -> list[dict]:
    import numpy as np

    from repro.circuits_lib import rtd_chain
    from repro.mna import ConductanceStamper
    from repro.mna.assembler import MnaSystem
    from repro.swec import SwecLinearization

    devices = 10 if quick else 40
    circuit, _ = rtd_chain(devices)
    system = MnaSystem(circuit)
    linearization = SwecLinearization(system)
    stamper = ConductanceStamper(system.chord_pairs(), system.size)
    state = np.linspace(0.1, 0.4, system.size)
    base = system.conductance_base()
    voltages, vgs, vds = linearization.branch_voltages(state)
    chords = np.array(linearization.device_conductances(voltages)
                      + linearization.mosfet_conductances(vgs, vds))
    calls = 200 if quick else 2000

    def kernel():
        for _ in range(calls):
            linearization.device_voltages(state)
            stamper.stamp(base.copy(), chords)

    return [{
        "name": "linearization_gather_stamp",
        "median_seconds": _median_seconds(kernel, repeats),
        "axes": {"devices": devices, "calls": calls,
                 "size": system.size},
    }]


def _bench_backends(quick: bool, repeats: int) -> list[dict]:
    import numpy as np

    from repro.circuit import Pulse
    from repro.circuits_lib import rtd_mesh
    from repro.mna.assembler import MnaSystem
    from repro.mna.sparse import SparseOperators
    from repro.swec import SwecOptions, SwecTransient
    from repro.swec.timestep import StepControlOptions

    grid = 12 if quick else 30
    n_points = 21 if quick else 41

    def options(backend):
        return SwecOptions(
            step=StepControlOptions(epsilon=0.05, h_min=1e-13,
                                    h_max=0.05e-9, h_initial=1e-12),
            backend=backend, initialize_dc=False)

    drive = Pulse(0.0, 1.0, delay=0.02e-9, rise=0.05e-9, fall=0.05e-9,
                  width=0.3e-9, period=1e-9)
    times = np.linspace(0.0, 0.2e-9, n_points)
    seconds = {}
    for backend in ("dense", "sparse"):
        circuit, _ = rtd_mesh(grid, grid, drive=drive)
        engine = SwecTransient(circuit, options(backend))
        x0 = np.zeros(MnaSystem(circuit).size)
        seconds[backend] = _median_seconds(
            lambda: engine.run_grid(times, initial_state=x0), repeats)
    # The sparse march's kept-factor record: SuperLU factorizations run,
    # steps refined on a kept factor instead, and residual-correction
    # sweeps per refined step (each sweep books one residual product,
    # and each refined step one more for the march's start).
    march = engine.run_grid(times, initial_state=x0)
    sweeps = march.flops.by_category().get("residual", 0) \
        // (2 * SparseOperators(engine.system).nnz) - march.factor_reuses
    axes = {"grid": grid, "grid_points": n_points,
            "size": grid * grid + 2}
    factor_us, fill, operators_ms = _sparse_layers(
        20 if quick else 100, 5 if quick else 20)
    build_ms, probe_ms, build_peak_mb = _sparse_build(1 if quick else 3)
    return [{
        "name": "grid_mesh_sparse_backend",
        "median_seconds": seconds["sparse"],
        "speedup": seconds["dense"] / seconds["sparse"],
        "reference": "dense backend, same march",
        "axes": axes,
        "factor_us": factor_us,
        "factor_fill": fill,
        "operators_ms": operators_ms,
        "build_ms": build_ms,
        "probe_ms": probe_ms,
        "build_peak_mb": build_peak_mb,
        "build_axes": {"grid": BUILD_GRID,
                       "size": BUILD_GRID * BUILD_GRID + 2},
        "factorizations": march.flops.factorizations,
        "factor_reuses": march.factor_reuses,
        "sweeps_per_reuse": (sweeps / march.factor_reuses
                             if march.factor_reuses else 0.0),
        "factor_axes": {"grid": FACTOR_GRID,
                        "size": FACTOR_GRID * FACTOR_GRID + 2},
    }]


#: Mesh side of the factorization- and symbolic-layer probes,
#: independent of ``--quick``.
FACTOR_GRID = 30


def _sparse_layers(factor_repeats: int,
                   operators_repeats: int) -> tuple[float, int, float]:
    """Median us per SuperLU factorization and ``nnz(L+U)`` of one
    stamped transient matrix of the 30x30 RTD mesh, through the
    sparse backend's ordered CSC plan, and median ms of the mesh's
    symbolic analysis (building its ``SparseOperators``)."""
    import numpy as np

    from repro.circuits_lib import rtd_mesh
    from repro.mna.assembler import MnaSystem
    from repro.mna.sparse import SparseOperators, SparseSolver

    system = MnaSystem(rtd_mesh(FACTOR_GRID, FACTOR_GRID)[0])
    operators_ms = 1e3 * _median_seconds(
        lambda: SparseOperators(system), operators_repeats)
    operators = SparseOperators(system)
    chords = np.random.default_rng(3).uniform(
        1e-4, 5e-3, len(system.chord_pairs()))
    positions, columns, signs = operators.stamp_indices()
    data = operators.base_data + operators.c_data / 1e-12
    np.add.at(data, positions, chords[columns] * signs)
    matrix = operators.csc_matrix()
    np.take(data, operators.csc_order, out=matrix.data)
    solver = SparseSolver()
    seconds = _median_seconds(lambda: solver.factor(matrix), factor_repeats)
    return seconds * 1e6, solver.fill, operators_ms


#: Mesh side of the sparse front-end probe, independent of ``--quick``.
BUILD_GRID = 60


def _sparse_build(repeats: int) -> tuple[float, float, float]:
    """Median ms of one sparse ``SwecTransient`` build on the 60x60 RTD
    mesh, median ms of its ordering probe (``symmetric_ordering``) and
    the build's tracemalloc peak in MB."""
    import tracemalloc

    from repro.circuits_lib import rtd_mesh
    from repro.mna import sparse as sparse_module
    from repro.swec import SwecOptions, SwecTransient

    circuit = rtd_mesh(BUILD_GRID, BUILD_GRID)[0]
    options = SwecOptions(backend="sparse")
    ordering = sparse_module.symmetric_ordering
    probe_seconds = []

    def timed_ordering(pattern):
        start = time.perf_counter()
        try:
            return ordering(pattern)
        finally:
            probe_seconds.append(time.perf_counter() - start)

    sparse_module.symmetric_ordering = timed_ordering
    try:
        build_seconds = _median_seconds(
            lambda: SwecTransient(circuit, options), repeats)
    finally:
        sparse_module.symmetric_ordering = ordering
    tracemalloc.start()
    try:
        SwecTransient(circuit, options)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (1e3 * build_seconds, 1e3 * statistics.median(probe_seconds),
            peak / 1e6)


def _bench_service_cache(quick: bool, repeats: int) -> list[dict]:
    import tempfile

    from repro.service import ResultStore
    from repro.sweep import ParameterAxis, SweepSpec, run_sweep
    from repro.sweep.measures import MeasureSpec

    n_points = 12 if quick else 50

    def spec():
        return SweepSpec(
            name="bench-service-cache",
            template="rtd_divider",
            settings={
                "t_stop": 2e-9,
                "options": {"epsilon": 0.05, "h_min": 1e-13,
                            "h_max": 5e-11, "h_initial": 1e-12},
            },
            axes=[ParameterAxis.from_range("resistance", 5.0, 300.0,
                                           n_points)],
            measures=[MeasureSpec(kind="final", node="out",
                                  name="v_final")],
        )

    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        cold_seconds = _median_seconds(
            lambda: run_sweep(spec(), executor="serial", seed=0,
                              cache=store), 1)
        warm_seconds = _median_seconds(
            lambda: run_sweep(spec(), executor="serial", seed=0,
                              cache=store), repeats)
    return [{
        "name": "service_cache_warm_sweep",
        "median_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "reference": "cold sweep (every point simulated)",
        "axes": {"points": n_points},
    }, _sweep_front_end(max(repeats, 9))]


#: The RTD divider of the cached ``.PARAM`` netlist sweep, and its
#: number of design points (both independent of ``--quick``).
FRONT_END_NETLIST = """* RTD divider for the cached sweep
.title rtd-divider-sweep
.param rser=10 vdrive=0.6
.model paper RTD
Vs in 0 {vdrive}
R1 in out {rser}
X1 out 0 paper
.end
"""
FRONT_END_POINTS = 64
#: Keys in ``sweep_front_end`` that hold milliseconds per design point.
FRONT_END_KEYS = ("keys_ms_per_point", "gate_ms_per_point",
                  "parse_ms_per_point")
#: Keys ``grid_mesh_sparse_backend`` must carry: the timed sparse
#: march's kept-factor record.
KEPT_FACTOR_KEYS = ("factorizations", "factor_reuses", "sweeps_per_reuse")
#: Keys every ``stack_solve_*`` entry must carry: microseconds per
#: solve of the program and of its LAPACK reference.
STACK_SOLVE_KEYS = ("program_us", "lapack_us")
#: Keys ``grid_mesh_sparse_backend`` must carry: the sparse front end's
#: build milliseconds, ordering-probe milliseconds and peak megabytes.
BUILD_KEYS = ("build_ms", "probe_ms", "build_peak_mb")


def _sweep_front_end(repeats: int) -> dict:
    """Parent-side cost of one design point of a ``.PARAM`` netlist
    sweep above the march: its cache key (``batch_job_keys``), its
    strict lint gate (``gate_sweep_jobs``) and a bare
    ``parse_netlist``, in median milliseconds per point."""
    from repro.circuit.parser import parse_netlist
    from repro.lint.gate import gate_sweep_jobs
    from repro.service import batch_job_keys
    from repro.sweep import ParameterAxis, SweepSpec
    from repro.sweep.measures import MeasureSpec
    from repro.sweep.runner import build_jobs

    spec = SweepSpec(
        name="sweep-front-end", netlist_text=FRONT_END_NETLIST,
        settings={"t_stop": 2e-9,
                  "options": {"epsilon": 0.05, "h_min": 1e-13,
                              "h_max": 5e-11, "h_initial": 1e-12}},
        axes=[ParameterAxis.from_range("rser", 5.0, 300.0,
                                       FRONT_END_POINTS)],
        measures=[MeasureSpec(kind="peak", node="out", name="v_peak"),
                  MeasureSpec(kind="final", node="out", name="v_final")],
        validate="strict")
    jobs = build_jobs(spec)
    values = [job.point["rser"] for job in jobs]
    keys = _median_seconds(lambda: batch_job_keys(jobs, 0), repeats)
    gate = _median_seconds(lambda: gate_sweep_jobs(jobs, "strict"), repeats)
    parse = _median_seconds(
        lambda: [parse_netlist(FRONT_END_NETLIST, params={"rser": value})
                 for value in values], repeats)
    per_point = 1e3 / FRONT_END_POINTS
    return {
        "name": "sweep_front_end",
        "median_seconds": keys + gate,
        "keys_ms_per_point": keys * per_point,
        "gate_ms_per_point": gate * per_point,
        "parse_ms_per_point": parse * per_point,
        "axes": {"points": FRONT_END_POINTS},
    }


def _bench_pss(quick: bool, repeats: int) -> list[dict]:
    from repro.circuits_lib import power_grid_mesh, rtd_relaxation_oscillator
    from repro.pss import run_pss
    from repro.swec import SwecOptions, SwecTransient
    from repro.swec.timestep import StepControlOptions

    steps = 200 if quick else 400
    periods = 20 if quick else 50
    circuit, info = rtd_relaxation_oscillator()
    shooting_seconds = _median_seconds(
        lambda: run_pss(rtd_relaxation_oscillator()[0],
                        period_guess=info.period_guess,
                        steps_per_period=steps), repeats)
    orbit = run_pss(circuit, period_guess=info.period_guess,
                    steps_per_period=steps)
    # Reference: brute-force settling over `periods` periods at the
    # same time resolution as the shooting orbit's grid (T/steps).
    brute_options = SwecOptions(
        step=StepControlOptions(
            epsilon=0.05, h_min=1e-18,
            h_max=info.period_guess / steps,
            h_initial=info.period_guess / 4096.0),
        initialize_dc=False)
    brute_seconds = _median_seconds(
        lambda: SwecTransient(rtd_relaxation_oscillator()[0],
                              brute_options).run(periods * orbit.period),
        1)
    # A linear grid on the sparse backend: its step matrices repeat, so
    # the backend reuses their factors (independent of ``--quick``).
    def driven():
        return run_pss(power_grid_mesh(DRIVEN_GRID, DRIVEN_GRID)[0],
                       steps_per_period=100, backend="sparse")

    driven_seconds = _median_seconds(driven, repeats)
    driven_orbit = driven()
    return [{
        "name": "pss_shooting",
        "median_seconds": shooting_seconds,
        "speedup": brute_seconds / shooting_seconds,
        "reference": f"{periods}-period brute-force settling",
        "axes": {"steps_per_period": steps, "brute_periods": periods,
                 "iterations": orbit.iterations},
    }, {
        "name": "pss_driven_sparse",
        "median_seconds": driven_seconds,
        "factorizations": driven_orbit.flops.factorizations,
        "factor_reuses": driven_orbit.factor_reuses,
        "axes": {"grid": DRIVEN_GRID, "size": driven_orbit.states.shape[1],
                 "steps_per_period": 100,
                 "iterations": driven_orbit.iterations},
    }]


#: Mesh side of the driven sparse PSS probe.
DRIVEN_GRID = 16


def _bench_resilience(quick: bool, repeats: int) -> list[dict]:
    import numpy as np

    from repro.resilience import FaultPlan, fault_context
    from repro.runtime import BatchRunner, EnsembleJob
    from repro.runtime.jobs import job_from_mapping

    n_jobs = 4 if quick else 12
    n_paths = 16 if quick else 64

    def jobs():
        return [
            EnsembleJob(builder="noisy_rc_node",
                        params={"resistance": 50.0 + 10.0 * k},
                        t_final=5e-9, steps=1000 if quick else 4000,
                        n_paths=n_paths, label=f"rc-{k}")
            for k in range(n_jobs)
        ]

    def plain():
        return BatchRunner(executor="thread", max_workers=2, seed=0)

    def guarded():
        return BatchRunner(executor="thread", max_workers=2, seed=0,
                           timeout=120.0, retries=2)

    plain_seconds = _median_seconds(lambda: plain().run(jobs()), repeats)
    guarded_seconds = _median_seconds(lambda: guarded().run(jobs()),
                                      repeats)

    # One (untimed) chaos pass so the retry counters in the record are
    # exercised, plus one backend-fault solve for the fallback counter.
    chaos_plan = FaultPlan(events=(("transient", "rc-0"),
                                   ("transient", "rc-1")))
    chaos = BatchRunner(executor="thread", max_workers=2, seed=0,
                        timeout=120.0, retries=2,
                        fault_plan=chaos_plan).run(jobs())
    fallback_job = job_from_mapping({
        "type": "transient", "circuit": "rtd_divider", "t_stop": 2e-10,
        "params": {"resistance": 50.0},
        "options": {"epsilon": 0.05, "h_min": 1e-13, "h_max": 5e-11,
                    "h_initial": 1e-12, "backend": "stack",
                    "fallback": True}})
    with fault_context(FaultPlan(events=(("backend", "stack"),))):
        fallback_result = fallback_job.run(np.random.SeedSequence(0))

    return [{
        "name": "resilience_guarded_batch",
        "median_seconds": guarded_seconds,
        "speedup": plain_seconds / guarded_seconds,
        "reference": "plain runner, no safety net",
        "axes": {"jobs": n_jobs, "paths": n_paths},
        "retried": chaos.n_retried,
        "timeouts": chaos.n_timeouts,
        "crashes": chaos.n_crashes,
        "total_attempts": chaos.total_attempts,
        "fallback_events": len(fallback_result.fallback_events),
    }]


def _bench_mc_variance_reduction(quick: bool, repeats: int) -> list[dict]:
    import time

    import numpy as np

    from repro.circuit import Circuit
    from repro.stochastic import run_circuit_ensemble_vr

    circuit_steps = 60 if quick else 100
    max_trials = 1024 if quick else 4096

    def noisy_rc():
        circuit = Circuit("noisy-rc")
        circuit.add_resistor("R1", "n1", "0", 1e3)
        circuit.add_capacitor("C1", "n1", "0", 1e-12)
        circuit.add_current_source("Id", "0", "n1", 1e-4)
        return circuit

    def run(**vr):
        start = time.perf_counter()
        stats = run_circuit_ensemble_vr(
            noisy_rc(), [("n1", 1e-8)], 5e-9, circuit_steps,
            node="n1", seed=21, target_ci=0.02,
            max_trials=max_trials, batch_size=16, **vr)
        return stats, time.perf_counter() - start

    naive, _ = run()
    naive_seconds = _median_seconds(lambda: run(), repeats)
    entries = []
    for label, vr in (("antithetic", {"antithetic": True}),
                      ("control_variate", {"control_variate": True})):
        stats, _ = run(**vr)
        seconds = _median_seconds(lambda: run(**vr), repeats)
        factor = stats.variance_reduction
        entries.append({
            "name": f"mc_vr_{label}",
            "median_seconds": seconds,
            # Both sides of the ratio, so a gain they share still shows.
            "naive_median_seconds": naive_seconds,
            "speedup": naive_seconds / seconds,
            "reference": "naive adaptive MC at the same CI target",
            "axes": {"steps": circuit_steps, "max_trials": max_trials},
            "paths_naive": naive.n_simulated,
            "paths_vr": stats.n_simulated,
            "paths_saved": naive.n_simulated - stats.n_simulated,
            "cv_correlation": (float(stats.cv_correlation)
                               if stats.cv_correlation is not None
                               else None),
            # A linear workload makes the estimator variance exactly
            # zero; cap the factor so the record stays finite JSON.
            "variance_reduction": (float(min(factor, 1e12))
                                   if np.isfinite(factor) else 1e12),
            "ci_width": float(np.max(stats.band_width())),
            "ci_width_naive": float(np.max(naive.band_width())),
        })
    return entries


def _bench_stack_solve(quick: bool, repeats: int) -> list[dict]:
    """One step's solve on the ``stack`` backend, its straight-line
    program against ``solve_stack`` (batched LAPACK).

    Two stacks, taken mid-march: the K = 16 RTD oscillator of the
    Monte-Carlo batches and the K = 256 FET-RTD inverter of the
    lockstep ensembles.  Both sides run the backend's solve, with its
    finiteness check, on the same matrices; samples alternate, so a
    slow spell of the host stretches both.  Reports the median
    microseconds per solve of each side.
    """
    import numpy as np

    from repro.circuits_lib import fet_rtd_inverter, rtd_relaxation_oscillator
    from repro.core.backends import StackBackend
    from repro.stochastic.vr import path_normals
    from repro.swec import SwecEnsembleTransient, SwecOptions
    from repro.swec.timestep import StepControlOptions

    rng = np.random.default_rng(20050307)
    oscillator, info = rtd_relaxation_oscillator()
    inverters = [
        fet_rtd_inverter(
            fet_vth=float(1.0 + 0.15 * rng.uniform(-1.0, 1.0)),
            load_capacitance=float(
                1e-12 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0))))[0]
        for _ in range(256)
    ]
    options = SwecOptions(step=StepControlOptions(
        epsilon=0.05, h_min=1e-12, h_max=0.2e-9, h_initial=1e-12))
    cases = (
        ("oscillator", SwecEnsembleTransient(
            oscillator, n_instances=16, noise=[(info.output, 1e-8)]),
         np.linspace(0.0, float(info.period_guess), 121)),
        ("inverter", SwecEnsembleTransient(inverters, options),
         np.linspace(0.0, 2e-8, 401)),
    )
    calls = 200 if quick else 2000
    entries = []
    for label, engine, times in cases:
        k = engine.n_instances
        normals = (path_normals(np.random.SeedSequence(1).spawn(k),
                                len(times) - 1, 1)
                   if label == "oscillator" else None)
        states = engine.run_grid(times, normals=normals).states
        program = engine.backend
        program.begin_run(None)  # neither side books flops
        lapack = StackBackend(program.systems)
        lapack._program = None
        matrices = program._system_matrix(times[1] - times[0], False).copy()
        rhs = np.matmul(matrices, states[:, len(times) // 2, :, None])[:, :, 0]
        seconds = {"program": [], "lapack": []}
        for _ in range(max(repeats, 5)):
            for side, backend in (("program", program), ("lapack", lapack)):
                seconds[side].append(_median_seconds(
                    lambda: [backend._solve(matrices, rhs)
                             for _ in range(calls)], 1) / calls)
        program_s = statistics.median(seconds["program"])
        lapack_s = statistics.median(seconds["lapack"])
        entries.append({
            "name": f"stack_solve_{label}",
            "median_seconds": program_s,
            "speedup": lapack_s / program_s,
            "reference": "solve_stack (batched LAPACK)",
            "program_us": 1e6 * program_s,
            "lapack_us": 1e6 * lapack_s,
            "axes": {"K": k, "size": engine.size, "calls": calls},
        })
    return entries


#: Kernel groups addressable via ``--only``.
KERNELS = {
    "ensemble": _bench_ensemble,
    "adaptive": _bench_adaptive,
    "ac": _bench_ac,
    "gather": _bench_gather,
    "backends": _bench_backends,
    "service_cache": _bench_service_cache,
    "pss_shooting": _bench_pss,
    "resilience": _bench_resilience,
    "mc_variance_reduction": _bench_mc_variance_reduction,
    "stack_solve": _bench_stack_solve,
}


def collect(tag: str, quick: bool, repeats: int,
            only: list[str] | None = None) -> dict:
    """Run the selected kernels (all by default); return the record."""
    import numpy as np

    import repro

    selected = list(KERNELS) if not only else list(only)
    unknown = [name for name in selected if name not in KERNELS]
    if unknown:
        raise SystemExit(
            f"unknown kernel group(s) {unknown} "
            f"(available: {', '.join(KERNELS)})")
    benchmarks = []
    for name in selected:
        benchmarks += KERNELS[name](quick, repeats)
    return {
        "schema": SCHEMA,
        "tag": tag,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
        "platform": platform.platform(),
        "benchmarks": benchmarks,
    }


def check(path: Path) -> list[str]:
    """Validate a BENCH file; returns the list of problems (empty = ok)."""
    problems = []
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    for key in _REQUIRED_TOP:
        if key not in record:
            problems.append(f"{path}: missing top-level key {key!r}")
    if record.get("schema") not in (SCHEMA,):
        problems.append(
            f"{path}: unknown schema {record.get('schema')!r}")
    entries = record.get("benchmarks", [])
    if not isinstance(entries, list) or not entries:
        problems.append(f"{path}: benchmarks must be a non-empty list")
        entries = []
    for entry in entries:
        for key in _REQUIRED_ENTRY:
            if key not in entry:
                problems.append(
                    f"{path}: benchmark entry {entry.get('name', '?')!r} "
                    f"missing {key!r}")
        seconds = entry.get("median_seconds")
        if not isinstance(seconds, (int, float)) or seconds <= 0.0:
            problems.append(
                f"{path}: {entry.get('name', '?')!r} has non-positive "
                f"median_seconds {seconds!r}")
        required = {"sweep_front_end": FRONT_END_KEYS,
                    "grid_mesh_sparse_backend": KEPT_FACTOR_KEYS
                    + BUILD_KEYS}
        name = str(entry.get("name", ""))
        if name.startswith("stack_solve_"):
            required[name] = STACK_SOLVE_KEYS
        for key in required.get(entry.get("name"), ()):
            if key not in entry:
                problems.append(
                    f"{path}: {entry['name']!r} missing {key!r}")
        sweeps = entry.get("sweeps_per_reuse")
        if sweeps is not None and (
                not isinstance(sweeps, (int, float)) or sweeps < 0.0):
            problems.append(
                f"{path}: {entry.get('name', '?')!r} has invalid "
                f"sweeps_per_reuse {sweeps!r}")
        for key in ("speedup", "factor_us", "factor_fill", "operators_ms",
                    *BUILD_KEYS, *FRONT_END_KEYS, *STACK_SOLVE_KEYS):
            value = entry.get(key)
            if value is not None and (
                    not isinstance(value, (int, float)) or value <= 0.0):
                problems.append(
                    f"{path}: {entry.get('name', '?')!r} has invalid "
                    f"{key} {value!r}")
        for key, least in (("factorizations", 1), ("factor_reuses", 0)):
            value = entry.get(key)
            if value is not None and (
                    not isinstance(value, int) or isinstance(value, bool)
                    or value < least):
                problems.append(
                    f"{path}: {entry.get('name', '?')!r} has invalid "
                    f"{key} {value!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench_report.py",
        description="Emit (or validate) a BENCH_<tag>.json perf record.")
    parser.add_argument("--tag", default="local",
                        help="record tag; the file is BENCH_<tag>.json")
    parser.add_argument("--out", default="bench", metavar="DIR",
                        help="output directory (created if needed)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per kernel (median is kept)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every kernel for smoke/CI use")
    parser.add_argument("--only", action="append", metavar="GROUP",
                        default=None,
                        help="run only this kernel group (repeatable; "
                             f"groups: {', '.join(KERNELS)})")
    parser.add_argument("--check", metavar="FILE", default=None,
                        help="validate an existing BENCH file and exit")
    args = parser.parse_args(argv)

    if args.check is not None:
        problems = check(Path(args.check))
        for problem in problems:
            print(problem, file=sys.stderr)
        if not problems:
            print(f"{args.check}: valid {SCHEMA} record")
        return 1 if problems else 0

    record = collect(args.tag, args.quick, max(args.repeats, 1),
                     only=args.only)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for entry in record["benchmarks"]:
        speedup = entry.get("speedup")
        extra = f"  ({speedup:.1f}x vs {entry['reference']})" \
            if speedup is not None else ""
        if "factor_us" in entry:
            extra += (f"  [factor {entry['factor_us']:.0f} us, "
                      f"nnz(L+U) {entry['factor_fill']}, "
                      f"operators {entry['operators_ms']:.1f} ms]")
        if "build_ms" in entry:
            extra += (f"  [{BUILD_GRID}x{BUILD_GRID} build "
                      f"{entry['build_ms']:.0f} ms, probe "
                      f"{entry['probe_ms']:.0f} ms, peak "
                      f"{entry['build_peak_mb']:.1f} MB]")
        if "factor_reuses" in entry:
            extra += (f"  [{entry['factorizations']} factorizations, "
                      f"{entry['factor_reuses']} reused")
            if "sweeps_per_reuse" in entry:
                extra += f", {entry['sweeps_per_reuse']:.1f} sweeps each"
            extra += "]"
        if "program_us" in entry:
            extra += (f"  [program {entry['program_us']:.1f} us, LAPACK "
                      f"{entry['lapack_us']:.1f} us per solve]")
        if "keys_ms_per_point" in entry:
            extra += (f"  [per point: keys "
                      f"{entry['keys_ms_per_point']:.3f} ms, gate "
                      f"{entry['gate_ms_per_point']:.3f} ms, parse "
                      f"{entry['parse_ms_per_point']:.3f} ms]")
        print(f"{entry['name']:<32} {entry['median_seconds'] * 1e3:9.2f} ms"
              f"{extra}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
