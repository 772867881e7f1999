"""The sparse backend's kept factors against the per-step-factor path.

A :class:`~repro.core.backends.SparseBackend` keeps SuperLU factors for
the run, within one bound, :data:`~repro.core.backends.SPARSE_FACTOR_MEMO`
(0 factors at every step, the reference here):

* without chord stamps, the factors of each ``(scale, h)``: every march
  must match the per-step-factor march bitwise, with the same solves
  booked;
* with chord stamps, each instance's last factor, on which the next
  step matrix is solved by residual correction: the march must match
  the per-step-factor march to 1e-12 of each array's scale with the
  same step counts and linear solves, and a singular step matrix must
  fail as it does there.

Either way every skipped factorization counts as a reuse.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.circuit import Circuit, Pulse
from repro.circuits_lib import (power_grid_mesh, rc_mesh, rtd_memory_array, rtd_mesh,
                                rtd_relaxation_oscillator)
from repro.core import backends as backends_module
from repro.core.backends import SPARSE_FACTOR_MEMO, SparseBackend
from repro.core.fallback import FallbackBackend
from repro.devices.mosfet import nmos
from repro.errors import SingularMatrixError
from repro.mna import MnaSystem
from repro.mna.sparse import SparseOperators, SparseSolver
from repro.perf.flops import FlopCounter
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


def _autonomous_oscillator():
    circuit, info = rtd_relaxation_oscillator()
    return circuit, {"period_guess": info.period_guess}


@pytest.mark.parametrize("build", [
    _autonomous_oscillator,
    lambda: (power_grid_mesh(16, 16)[0], {}),
], ids=["chorded_autonomous", "chordless_driven"])
def test_pss_books_the_superlu_factorizations_it_runs(build, superlu_calls):
    """Marches and monodromy products book the factorizations their
    backend ran, and the products' reuses join the result's."""
    circuit, kwargs = build()
    result = run_pss(circuit, steps_per_period=100, backend="sparse",
                     **kwargs)
    assert result.flops.factorizations == len(superlu_calls)
    assert result.factor_reuses > result.flops.factorizations
    assert result.flops.factorizations + result.factor_reuses \
        == result.flops.linear_solves


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


def assert_close_to_scale(values, reference, rtol=1e-12):
    reference = np.asarray(reference)
    error = float(np.max(np.abs(np.asarray(values) - reference)))
    assert error <= rtol * float(np.max(np.abs(reference)))


def assert_refined_march(refined, reference):
    """*refined* solved the steps of *reference* on kept factors."""
    assert reference.factor_reuses == 0
    assert refined.factor_reuses > 0
    assert refined.flops.factorizations + refined.factor_reuses \
        == reference.flops.factorizations
    assert refined.flops.linear_solves == reference.flops.linear_solves
    assert refined.flops.device_evaluations \
        == reference.flops.device_evaluations
    assert refined.flops.by_category()["residual"] > 0
    assert "residual" not in reference.flops.by_category()
    assert_close_to_scale(refined.times, reference.times)
    assert_close_to_scale(refined.states, reference.states)


def mesh_drive():
    return Pulse(0.0, 1.0, delay=0.02e-9, rise=0.05e-9, fall=0.05e-9,
                 width=0.3e-9, period=1e-9)


class TestChordedRefinement:
    """Chorded sparse marches refine on kept factors; the reference
    factors every step (``SPARSE_FACTOR_MEMO = 0``)."""

    def test_benchmark_mesh_run_grid(self, per_step_factor):
        step = StepControlOptions(epsilon=0.05, h_min=1e-13,
                                  h_max=0.05e-9, h_initial=1e-12)
        opts = SwecOptions(step=step, backend="sparse", initialize_dc=False)
        times = np.linspace(0.0, 0.2e-9, 41)

        def run():
            engine = SwecTransient(rtd_mesh(30, 30, drive=mesh_drive())[0],
                                   opts)
            system = engine.system
            x0 = np.zeros(system.size)
            x0[:system.num_nodes] = np.random.default_rng(1).uniform(
                0.0, 0.05, system.num_nodes)
            return engine.run_grid(times, initial_state=x0)

        refined = run()
        per_step_factor()
        reference = run()
        assert_refined_march(refined, reference)
        # One SuperLU factorization serves the whole 40-step march.
        assert refined.factor_reuses >= 30

    def test_adaptive_run(self, per_step_factor):
        def run():
            circuit = rtd_mesh(6, 6, drive=mesh_drive())[0]
            return SwecTransient(circuit, options(h_max=2e-11)).run(0.2e-9)

        refined = run()
        per_step_factor()
        reference = run()
        assert refined.accepted_steps == reference.accepted_steps
        assert refined.rejected_steps == reference.rejected_steps
        # (Which of two mirror-image nodes limits a step can flip on the
        # last bit, so the per-node step limits are not compared.)
        assert_refined_march(refined, reference)

    def test_trapezoidal_march(self, per_step_factor):
        def run():
            circuit = rtd_mesh(6, 6, drive=mesh_drive())[0]
            return SwecTransient(
                circuit, options(method="trap")).run_grid(grid())

        refined = run()
        per_step_factor()
        reference = run()
        assert_refined_march(refined, reference)

    def test_two_instance_ensemble(self, per_step_factor):
        def run():
            circuits = [rtd_mesh(6, 6, drive=mesh_drive())[0],
                        rtd_mesh(6, 6, mesh_resistance=150.0,
                                 drive=mesh_drive())[0]]
            return SwecEnsembleTransient(circuits, options()).run_grid(grid())

        refined = run()
        per_step_factor()
        reference = run()
        assert_refined_march(refined, reference)
        # The stack refines, or refactors, together.
        assert refined.factor_reuses % 2 == 0

    def test_chorded_pss(self, per_step_factor):
        def run():
            circuit, info = rtd_relaxation_oscillator()
            return run_pss(circuit, period_guess=info.period_guess,
                           steps_per_period=100, backend="sparse")

        refined = run()
        per_step_factor()
        reference = run()
        assert refined.iterations == reference.iterations
        assert refined.period == pytest.approx(reference.period, rel=1e-12)
        assert_refined_march(refined, reference)


    def test_more_instances_than_the_bound_keep_nothing(self):
        circuits = [rtd_mesh(2, 2, drive=mesh_drive())[0]] \
            * (SPARSE_FACTOR_MEMO + 1)
        result = SwecEnsembleTransient(circuits, options()).run_grid(grid())
        assert result.factor_reuses == 0
        assert result.flops.factorizations == result.flops.linear_solves
        assert "residual" not in result.flops.by_category()


class TestRefine:
    """``SparseSolver.refine`` on one stamped step matrix of a mesh."""

    @staticmethod
    def factored(flops):
        system = MnaSystem(rtd_mesh(6, 6)[0])
        operators = SparseOperators(system)
        chords = np.random.default_rng(5).uniform(
            1e-4, 5e-3, len(system.chord_pairs()))
        positions, columns, signs = operators.stamp_indices()
        data = operators.base_data + operators.c_data / 1e-12
        np.add.at(data, positions, chords[columns] * signs)
        matrix = operators.csc_matrix()
        np.take(data, operators.csc_order, out=matrix.data)
        solver = SparseSolver(flops)
        solver.ordering = operators.ordering
        solver.factor(matrix)
        return solver, operators, data

    def test_nearby_matrix_to_a_few_ulps(self):
        flops = FlopCounter()
        solver, operators, data = self.factored(flops)
        # The next step: 0.1% larger C/h.
        nearby = operators.matrix_from_data(
            data + 1e-3 * operators.c_data / 1e-12)
        rhs = np.random.default_rng(6).uniform(-1.0, 1.0, operators.size)
        x = solver.refine(nearby, rhs)
        exact = splu(nearby.tocsc()).solve(rhs)
        assert_close_to_scale(x, exact, rtol=1e-14)
        residual = flops.by_category()["residual"]
        sweeps = residual // (2 * operators.nnz)
        assert residual == 2 * operators.nnz * sweeps and 1 <= sweeps <= 8
        assert flops.by_category()["solve"] == 2 * solver.fill * (sweeps + 1)
        # Counting the linear solve and the reuse is the caller's.
        assert flops.linear_solves == 0
        assert flops.factorizations == 1

    def test_gives_up_when_the_correction_does_not_halve(self):
        flops = FlopCounter()
        solver, operators, data = self.factored(flops)
        rhs = np.ones(operators.size)
        # Against -A each correction doubles the last.
        assert solver.refine(operators.matrix_from_data(-data), rhs) is None
        assert flops.by_category()["residual"] == 2 * operators.nnz
        assert flops.by_category()["solve"] == 4 * solver.fill

    def test_needs_a_factor(self):
        with pytest.raises(SingularMatrixError):
            SparseSolver().refine(sparse.identity(2, format="csr"),
                                  np.ones(2))


def _stranded_node():
    """Node ``x`` hangs on M1's channel alone, with no capacitor: once
    the gate ramp turns M1 off, the step matrix is singular."""
    circuit = Circuit("stranded")
    circuit.add_voltage_source("Vin", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "a", 1e3)
    circuit.add_capacitor("C1", "a", "0", 1e-12)
    circuit.add_voltage_source(
        "Vg", "g", "0", Pulse(3.0, 0.0, delay=0.2e-9, rise=0.5e-9,
                              fall=0.5e-9, width=5e-9, period=20e-9))
    circuit.add_mosfet("M1", "x", "g", "a", nmos())
    return circuit


@pytest.mark.parametrize("fallback", [False, True])
def test_stranded_node_fails_as_per_step_factoring_does(
        monkeypatch, per_step_factor, fallback):
    accepted = []
    refine = SparseSolver.refine

    def watched(self, matrix, rhs):
        solution = refine(self, matrix, rhs)
        accepted.append(solution is not None)
        return solution

    monkeypatch.setattr(SparseSolver, "refine", watched)

    def run():
        circuit = _stranded_node()
        engine = SwecTransient(circuit, options(h_max=0.025e-9,
                                                initialize_dc=False,
                                                fallback=fallback))
        # in, a, g, x, then the two source currents: M1 starts on with
        # 0.5 V across its channel.
        x0 = np.array([1.0, 0.5, 3.0, 0.0, 0.0, 0.0])
        assert engine.system.circuit.nodes == ("in", "a", "g", "x")
        with pytest.raises(SingularMatrixError) as failure:
            engine.run_grid(np.linspace(0.0, 1e-9, 41), initial_state=x0)
        return str(failure.value)

    refined = run()
    # The kept factor served the steps before M1 turned off.
    assert sum(accepted) > 10
    per_step_factor()
    assert run() == refined


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
