"""The chordless sparse factor memo against the per-step-factor path.

A :class:`~repro.core.backends.SparseBackend` whose systems carry no
chord stamps keeps its SuperLU factors keyed on ``(scale, h)`` for the
run.  Every march it serves must match, bitwise, the march that factors
at every step — reached here by setting
:data:`~repro.core.backends.SPARSE_FACTOR_MEMO` to 0 — with the same
solves booked and every skipped factorization counted as a reuse.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from repro.circuit import Pulse
from repro.circuits_lib import power_grid_mesh, rc_mesh, rtd_memory_array, rtd_mesh
from repro.core import backends as backends_module
from repro.core.backends import SPARSE_FACTOR_MEMO, SparseBackend
from repro.core.fallback import FallbackBackend
from repro.mna import MnaSystem
from repro.mna.sparse import SparseOperators, SparseSolver
from repro.pss import run_pss
from repro.resilience import FaultPlan, fault_context
from repro.swec import SwecEnsembleTransient, SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions


def options(h_max=1e-12, **kwargs):
    step = StepControlOptions(epsilon=0.05, h_min=1e-14, h_max=h_max,
                              h_initial=1e-13)
    return SwecOptions(step=step, backend="sparse", **kwargs)


@pytest.fixture
def per_step_factor(monkeypatch):
    """Switch the memo off: every solve factors afresh."""

    def enable():
        monkeypatch.setattr(backends_module, "SPARSE_FACTOR_MEMO", 0)

    return enable


@pytest.fixture
def superlu_calls(monkeypatch):
    """Count the SuperLU factorizations actually run."""
    calls = []
    factor = SparseSolver.factor

    def counted(self, matrix):
        calls.append(matrix.shape[0])
        return factor(self, matrix)

    monkeypatch.setattr(SparseSolver, "factor", counted)
    return calls


def assert_same_march(memo, reference):
    assert np.array_equal(memo.times, reference.times)
    assert np.array_equal(memo.states, reference.states)
    assert memo.flops.by_category()["solve"] \
        == reference.flops.by_category()["solve"]
    assert memo.flops.linear_solves == reference.flops.linear_solves
    assert reference.factor_reuses == 0
    assert memo.factor_reuses > 0
    assert memo.flops.factorizations + memo.factor_reuses \
        == reference.flops.factorizations


def grid(h_max=1e-12, n_steps=120):
    return np.linspace(0.0, n_steps * h_max, n_steps + 1)


class TestEquivalence:
    def test_adaptive_run(self, per_step_factor):
        def run():
            circuit = power_grid_mesh(8, 8)[0]
            return SwecTransient(circuit, options()).run(2e-10)

        memo = run()
        per_step_factor()
        reference = run()
        assert_same_march(memo, reference)
        assert memo.step_limits == reference.step_limits

    def test_run_grid(self, per_step_factor):
        def run():
            circuit = power_grid_mesh(8, 8)[0]
            return SwecTransient(circuit, options()).run_grid(grid())

        memo = run()
        per_step_factor()
        reference = run()
        assert_same_march(memo, reference)

    def test_trapezoidal_march(self, per_step_factor):
        def run():
            circuit = power_grid_mesh(8, 8)[0]
            return SwecTransient(
                circuit, options(method="trap")).run_grid(grid())

        memo = run()
        per_step_factor()
        reference = run()
        assert_same_march(memo, reference)

    def test_two_instance_ensemble(self, per_step_factor):
        def run():
            circuits = [power_grid_mesh(8, 8)[0],
                        power_grid_mesh(8, 8, load_resistance=150.0)[0]]
            return SwecEnsembleTransient(circuits, options()).run_grid(grid())

        memo = run()
        per_step_factor()
        reference = run()
        assert_same_march(memo, reference)
        # Both instances skip together.
        assert memo.factor_reuses % 2 == 0

    def test_driven_pss(self, per_step_factor, superlu_calls):
        def run():
            circuit = power_grid_mesh(16, 16)[0]
            return run_pss(circuit, steps_per_period=100, backend="sparse")

        memo = run()
        memo_calls = len(superlu_calls)
        per_step_factor()
        reference = run()
        assert np.array_equal(memo.times, reference.times)
        assert np.array_equal(memo.states, reference.states)
        assert memo.iterations == reference.iterations
        assert memo.flops.by_category()["solve"] \
            == reference.flops.by_category()["solve"]
        assert memo.flops.linear_solves == reference.flops.linear_solves
        assert reference.factor_reuses == 0
        assert memo.flops.factorizations + memo.factor_reuses \
            == reference.flops.factorizations
        # The period grid has a handful of distinct steps: the march,
        # the monodromy products and the verify march each factor
        # those only, instead of 100 matrices apiece.
        assert len(superlu_calls) - memo_calls >= 400
        assert memo_calls < 50


class TestBound:
    @pytest.mark.parametrize("n_instances", [1, 3])
    def test_never_holds_more_than_the_bound(self, monkeypatch,
                                             n_instances):
        held = []
        solve_transient = SparseBackend.solve_transient

        def watched(self, h, rhs, trapezoidal=False):
            out = solve_transient(self, h, rhs, trapezoidal)
            held.append(len(self._memo) * self.n_instances)
            return out

        monkeypatch.setattr(SparseBackend, "solve_transient", watched)
        circuits = [power_grid_mesh(8, 8)[0] for _ in range(n_instances)]
        # Node-RC-limited steps: a new step size at almost every point.
        result = SwecEnsembleTransient(
            circuits, options(h_max=2e-11)).run(1e-10)
        assert len(np.unique(np.diff(result.times))) > SPARSE_FACTOR_MEMO
        assert max(held) <= SPARSE_FACTOR_MEMO
        assert max(held) >= SPARSE_FACTOR_MEMO - n_instances + 1

    def test_more_instances_than_the_bound_keep_nothing(self):
        circuits = [power_grid_mesh(2, 2)[0]] * (SPARSE_FACTOR_MEMO + 1)
        result = SwecEnsembleTransient(circuits, options()).run_grid(grid())
        assert result.factor_reuses == 0


def test_chorded_marches_never_reuse():
    drive = Pulse(0.0, 1.0, delay=0.02e-9, rise=0.05e-9, fall=0.05e-9,
                  width=0.3e-9, period=1e-9)
    times = np.linspace(0.0, 0.1e-9, 21)
    for rows, cols in ((3, 3), (30, 30)):
        circuit = rtd_mesh(rows, cols, drive=drive)[0]
        engine = SwecTransient(circuit, options(initialize_dc=False))
        result = engine.run_grid(times)
        assert result.flops.factorizations == times.size - 1
        assert result.factor_reuses == 0


def test_fallback_keeps_the_reuses_of_the_failed_backend():
    system = MnaSystem(power_grid_mesh(4, 4)[0])
    backend = FallbackBackend(SparseBackend([system]))
    backend.begin_run(None)
    backend.stamp(np.zeros((1, 0)))
    rhs = np.ones((1, system.size))
    backend.solve_transient(1e-12, rhs)
    backend.solve_transient(1e-12, rhs)
    assert backend.factor_reuses == 1
    with fault_context(FaultPlan(events=(("backend", "sparse"),))):
        backend.solve_transient(1e-12, rhs)
    assert backend.name == "dense"
    assert backend.factor_reuses == 1
    backend.begin_run(None)
    assert backend.factor_reuses == 0


def _factored(circuit):
    system = MnaSystem(circuit)
    operators = SparseOperators(system)
    chords = np.random.default_rng(5).uniform(
        1e-4, 5e-3, len(system.chord_pairs()))
    positions, columns, signs = operators.stamp_indices()
    data = operators.base_data + operators.c_data / 1e-12
    np.add.at(data, positions, chords[columns] * signs)
    matrix = operators.csc_matrix()
    np.take(data, operators.csc_order, out=matrix.data)
    solver = SparseSolver()
    solver.factor(matrix)
    lu = splu(matrix, permc_spec="NATURAL", options={"SymmetricMode": True})
    return solver, lu


@pytest.mark.parametrize("build", [
    lambda: rtd_mesh(30, 30)[0],
    lambda: power_grid_mesh(16, 16)[0],
    # One word-line source per row: 8 branch rows whose zero diagonal
    # pivots off the diagonal.
    lambda: rtd_memory_array(rows=8, cols=8)[0],
], ids=["rtd_mesh_30x30", "power_grid_16x16", "rtd_memory_array_8x8"])
def test_fill_counts_the_factors(build):
    solver, lu = _factored(build())
    assert not np.array_equal(lu.perm_r, np.arange(lu.shape[0]))
    assert solver.fill == lu.L.nnz + lu.U.nnz


def test_fill_counts_padded_supernodes_on_small_patterns():
    # 11 unknowns: SuperLU stores the factors as dense supernodes.
    solver, lu = _factored(rc_mesh(3, 3)[0])
    assert solver.fill == lu.nnz == 132
    assert lu.L.nnz + lu.U.nnz == 59
