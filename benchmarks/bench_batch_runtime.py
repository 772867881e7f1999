"""Batch-runtime bench: process fan-out speedup + factorization reuse.

Two claims guard the runtime subsystem:

* a 16-job batch on 4 workers beats sequential execution by >= 2x
  wall-clock (asserted only when >= 4 usable cores are present — the
  determinism claim is asserted everywhere);
* the ``factor_rtol`` reuse cache cuts the LU factorization count on a
  Fig. 8-class FET-RTD inverter transient without distorting the
  waveform.
"""

import time

import numpy as np

from conftest import print_rows
from repro.circuit import Pulse
from repro.circuits_lib import fet_rtd_inverter
from repro.runtime import BatchRunner, TransientJob, default_worker_count
from repro.swec import SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions

N_JOBS = 16
WORKERS = 4

_OPTIONS = {"epsilon": 0.05, "h_min": 1e-13, "h_max": 5e-12,
            "h_initial": 1e-12}


def _jobs():
    """16 RTD-divider transients with slightly different loads.

    Sized so one job takes ~200 ms: big enough that worker startup is
    amortized and the 4-worker speedup target is meaningful.
    """
    return [
        TransientJob(
            builder="rtd_divider",
            params={"resistance": 8.0 + 0.5 * k},
            t_stop=10e-9,
            options=dict(_OPTIONS),
            label=f"divider-{k}",
        )
        for k in range(N_JOBS)
    ]


def test_batch_speedup_and_determinism():
    serial_start = time.perf_counter()
    serial = BatchRunner(executor="serial", seed=0).run(_jobs())
    serial_seconds = time.perf_counter() - serial_start

    parallel_start = time.perf_counter()
    parallel = BatchRunner(max_workers=WORKERS, executor="process",
                           seed=0).run(_jobs())
    parallel_seconds = time.perf_counter() - parallel_start

    assert serial.ok and parallel.ok
    for a, b in zip(serial.values(), parallel.values()):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    speedup = serial_seconds / parallel_seconds
    cores = default_worker_count()
    print_rows(
        f"Batch runtime: {N_JOBS} jobs, {WORKERS} workers "
        f"({cores} usable cores)",
        ["mode", "wall s", "speedup"],
        [["serial", round(serial_seconds, 3), 1.0],
         ["process", round(parallel_seconds, 3), round(speedup, 2)]])
    if cores >= WORKERS:
        assert speedup >= 2.0, (
            f"expected >= 2x on {cores} cores, measured {speedup:.2f}x")


def test_factorization_reuse_on_inverter():
    def build():
        circuit, info = fet_rtd_inverter(vin=Pulse(
            0.0, 5.0, delay=1e-9, rise=0.3e-9, fall=0.3e-9, width=4e-9,
            period=10e-9))
        return circuit, info

    step = StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.2e-9,
                              h_initial=1e-12)
    circuit, info = build()
    baseline = SwecTransient(circuit, SwecOptions(
        step=step, dv_limit=0.5)).run(10e-9)
    circuit, info = build()
    cached = SwecTransient(circuit, SwecOptions(
        step=step, dv_limit=0.5, factor_rtol=1e-8)).run(10e-9)

    print_rows(
        "Factorization reuse on the Fig. 8 inverter",
        ["engine", "points", "factorizations", "reuses"],
        [["baseline", len(baseline), baseline.flops.factorizations, 0],
         ["factor_rtol=1e-8", len(cached), cached.flops.factorizations,
          cached.factor_reuses]])

    assert cached.factor_reuses > 0
    # C/h + G can only repeat when h does, so the cache can skip at most
    # the steps that repeat the previous step size.  The motion-weighted
    # node-RC bound keeps few of those (the h_max run once the output
    # has settled); the cache must catch at least 3/4 of them.
    steps = baseline.step_sizes()
    repeats = np.count_nonzero(np.isclose(steps[1:], steps[:-1],
                                          rtol=1e-9, atol=0.0))
    assert cached.factor_reuses >= 0.75 * repeats
    grid = np.linspace(0.0, 10e-9, 201)
    v_base = baseline.resample(grid, info.output_node)
    v_cached = cached.resample(grid, info.output_node)
    assert np.abs(v_base - v_cached).max() < 5e-3
