"""Ablation: dense versus sparse solver path on grid-scale circuits.

Section 1 of the paper motivates SWEC with the cost of simulating
"practical circuits".  This bench sweeps RTD-mesh sizes and reports the
per-step cost of the dense LAPACK path against the SuperLU sparse path —
the crossover justifies shipping both.
"""

import time

import numpy as np

from conftest import print_rows
from repro.circuit import Pulse
from repro.circuits_lib import rtd_mesh
from repro.swec import SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions

DRIVE = Pulse(0.0, 1.0, delay=0.02e-9, rise=0.05e-9, fall=0.05e-9,
              width=0.3e-9, period=1e-9)


def _options(fmt: str) -> SwecOptions:
    return SwecOptions(
        step=StepControlOptions(epsilon=0.1, h_min=1e-13, h_max=0.02e-9,
                                h_initial=1e-12),
        backend=fmt)


def _run(rows: int, cols: int, fmt: str):
    circuit, _ = rtd_mesh(rows, cols, drive=DRIVE)
    engine = SwecTransient(circuit, _options(fmt))
    start = time.perf_counter()
    result = engine.run(0.2e-9)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_sparse_matches_dense_at_scale():
    dense, _ = _run(5, 5, "dense")
    sparse, _ = _run(5, 5, "sparse")
    grid = np.linspace(0.05e-9, 0.2e-9, 10)
    for node in ("n0_0", "n2_2", "n4_4"):
        assert np.allclose(dense.resample(grid, node),
                           sparse.resample(grid, node), atol=1e-9)


def test_sparse_path_scaling(benchmark):
    def sweep_sizes():
        table = []
        for rows, cols in ((3, 3), (5, 5), (8, 8)):
            dense_result, dense_seconds = _run(rows, cols, "dense")
            sparse_result, sparse_seconds = _run(rows, cols, "sparse")
            n = rows * cols + 2  # mesh nodes + drive node + vsrc branch
            table.append([
                f"{rows}x{cols} (n={n})",
                round(dense_seconds / max(len(dense_result), 1) * 1e6, 1),
                round(sparse_seconds / max(len(sparse_result), 1) * 1e6, 1),
                dense_result.flops.total,
                sparse_result.flops.total,
            ])
        return table

    table = benchmark.pedantic(sweep_sizes, rounds=1, iterations=1)
    print_rows("Ablation: dense vs sparse per-step cost",
               ["mesh", "dense us/step", "sparse us/step",
                "dense flops", "sparse flops (est)"],
               table)
    # flop estimates must show the sparse advantage growing with size
    dense_flops = [row[3] for row in table]
    sparse_flops = [row[4] for row in table]
    assert sparse_flops[-1] < dense_flops[-1]
    ratio_small = dense_flops[0] / sparse_flops[0]
    ratio_large = dense_flops[-1] / sparse_flops[-1]
    assert ratio_large > ratio_small
