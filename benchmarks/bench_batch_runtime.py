"""Batch-runtime bench: process fan-out speedup and determinism.

A 16-job batch on 4 workers must beat sequential execution by >= 2x
wall-clock (asserted only when >= 4 usable cores are present — the
determinism claim is asserted everywhere).
"""

import time

import numpy as np

from conftest import print_rows
from repro.runtime import BatchRunner, TransientJob, default_worker_count

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

