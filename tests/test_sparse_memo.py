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
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.circuit import Circuit, Pulse
from repro.circuits_lib import (power_grid_mesh, rc_mesh, rtd_memory_array, rtd_mesh,
                                rtd_relaxation_oscillator)
from repro.core import backends as backends_module
from repro.core.backends import SPARSE_FACTOR_MEMO, SparseBackend
from repro.core.fallback import FallbackBackend
from repro.devices import SchulmanRTD
from repro.devices.mosfet import nmos
from repro.errors import NanoSimError, SingularMatrixError
from repro.lint import lint_circuit
from repro.mna import MnaSystem
from repro.mna.sparse import (REFINE_SWEEPS, REFINE_TOLERANCE, SparseOperators,
                              SparseSolver)
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


def benchmark_mesh_march():
    """The benchmark's march: the 30x30 RTD mesh, 40 steps of 5 ps from
    seeded node voltages."""
    step = StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.05e-9,
                              h_initial=1e-12)
    opts = SwecOptions(step=step, backend="sparse", initialize_dc=False)
    engine = SwecTransient(rtd_mesh(30, 30, drive=mesh_drive())[0], opts)
    system = engine.system
    x0 = np.zeros(system.size)
    x0[:system.num_nodes] = np.random.default_rng(1).uniform(
        0.0, 0.05, system.num_nodes)
    return engine.run_grid(np.linspace(0.0, 0.2e-9, 41), initial_state=x0)


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
        # Back-substitutions per refined step, from the solve flops:
        # every solve books 2 * fill, and each factored step makes one.
        fill = reference.flops.by_category()["solve"] \
            // (2 * reference.flops.linear_solves)
        substitutions = refined.flops.by_category()["solve"] // (2 * fill)
        per_step = (substitutions - refined.flops.factorizations) \
            / refined.factor_reuses
        # Started from LU^-1 b, this march took 287 over its 39
        # refined steps (7.36 each); from the predictor it takes 234 (6.0).
        assert per_step <= 6.2

    def test_benchmark_mesh_stops_on_the_contraction(self, per_step_factor):
        refined = benchmark_mesh_march()
        per_step_factor()
        reference = benchmark_mesh_march()
        assert_refined_march(refined, reference)
        fill = reference.flops.by_category()["solve"] \
            // (2 * reference.flops.linear_solves)
        substitutions = refined.flops.by_category()["solve"] // (2 * fill)
        per_step = (substitutions - refined.flops.factorizations) \
            / refined.factor_reuses
        # Stopped on its last correction, the march took 234 over its 39
        # refined steps (6.0 each); on the estimated error left it takes
        # 196 (5.03).
        assert per_step <= 5.2

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
        solver = SparseSolver(flops)
        solver.ordering = operators.ordering
        solver.factor(TestRefine.ordered(operators, data))
        return solver, operators, data

    @staticmethod
    def ordered(operators, data):
        """``A[q][:, q]``, the matrix ``refine`` takes, for the CSR data
        vector *data* of ``A``."""
        matrix = operators.csc_matrix()
        np.take(data, operators.csc_order, out=matrix.data)
        return matrix

    @staticmethod
    def nearby(operators, data):
        """The next step's data and right-hand side: 0.1% larger C/h,
        and the exact solution of that step."""
        data = data + 1e-3 * operators.c_data / 1e-12
        rhs = np.random.default_rng(6).uniform(-1.0, 1.0, operators.size)
        exact = splu(operators.matrix_from_data(data).tocsc()).solve(rhs)
        return data, rhs, exact

    def test_nearby_matrix_to_a_few_ulps(self):
        flops = FlopCounter()
        solver, operators, data = self.factored(flops)
        nearby, rhs, exact = self.nearby(operators, data)
        x = solver.refine(self.ordered(operators, nearby), rhs)
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
        assert solver.refine(self.ordered(operators, -data), rhs) is None
        assert flops.by_category()["residual"] == 2 * operators.nnz
        assert flops.by_category()["solve"] == 4 * solver.fill

    def test_started_refine_matches_the_cold_one(self):
        solver, operators, data = self.factored(None)
        nearby, rhs, exact = self.nearby(operators, data)
        matrix = self.ordered(operators, nearby)
        cold = solver.refine(matrix, rhs)
        # The factored step's solution, as a march's last point would be.
        started = solver.refine(matrix, rhs, start=solver.solve(rhs))
        assert_close_to_scale(started, cold, rtol=1e-14)
        assert_close_to_scale(started, exact, rtol=1e-14)

    def test_exact_start_is_accepted_after_one_sweep(self):
        flops = FlopCounter()
        solver, operators, data = self.factored(flops)
        nearby, rhs, exact = self.nearby(operators, data)
        x = solver.refine(self.ordered(operators, nearby), rhs, start=exact)
        assert_close_to_scale(x, exact, rtol=1e-15)
        # The start's correction, then one sweep.
        assert flops.by_category()["solve"] == 2 * 2 * solver.fill

    @pytest.mark.parametrize("wild", [10.0, np.nan], ids=["10x", "nan"])
    def test_wild_start_converges_or_gives_up(self, wild):
        solver, operators, data = self.factored(None)
        nearby, rhs, exact = self.nearby(operators, data)
        x = solver.refine(self.ordered(operators, nearby), rhs,
                          start=wild * exact)
        if x is not None:
            assert_close_to_scale(x, exact, rtol=1e-14)

    def test_books_the_start_residual(self):
        flops = FlopCounter()
        solver, operators, data = self.factored(flops)
        nearby, rhs, exact = self.nearby(operators, data)
        start = exact * (1.0 + 1e-6)
        assert solver.refine(self.ordered(operators, nearby), rhs,
                             start=start) is not None
        # One residual product per back-substitution: the start's and
        # one per sweep.
        substitutions = flops.by_category()["solve"] // (2 * solver.fill)
        assert substitutions >= 2
        assert flops.by_category()["residual"] \
            == 2 * operators.nnz * substitutions

    @staticmethod
    def column_scaled(delta):
        """A step matrix ``A``, ordered as :meth:`SparseSolver.refine`
        takes it, and a solver holding the factor of ``A (I + diag(
        delta))``: each sweep shrinks the error along column ``i`` by
        exactly ``delta_i / (1 + delta_i)``, up to rounding."""
        _, operators, data = TestRefine.factored(None)
        matrix = TestRefine.ordered(operators, data)
        flops = FlopCounter()
        solver = SparseSolver(flops)
        solver.ordering = operators.ordering
        solver.factor(
            matrix @ sparse.diags(1.0 + delta * np.ones(operators.size)))
        return solver, flops, operators, data, matrix

    @staticmethod
    def sweeps(solver, flops):
        """Sweeps of the last refinement: one back-substitution each,
        after the start's."""
        return flops.by_category()["solve"] // (2 * solver.fill) - 1

    @pytest.mark.parametrize("delta", [1e-8, 1e-4, 2e-3, 1e-2])
    def test_stops_on_the_estimated_error(self, delta):
        """Refining ``A`` on the factor of ``(1 + delta) A``, every sweep
        contracts by ``theta = delta / (1 + delta)``.  Sweep 1 tests its
        correction, ``theta (1 - theta) max|x|``; from sweep 2 the
        estimate, ``theta / (1 - theta)`` of sweep k's correction, is
        the true error left, ``theta^(k+1) max|x|``."""
        solver, flops, operators, data, matrix = self.column_scaled(delta)
        rhs = np.random.default_rng(7).uniform(-1.0, 1.0, operators.size)
        theta = delta / (1.0 + delta)
        tested = [theta * (1.0 - theta)] + [
            theta ** (k + 1) for k in range(2, REFINE_SWEEPS + 1)]
        expected = next(k for k, size in enumerate(tested, 1)
                        if size <= REFINE_TOLERANCE)
        # Clear of rounding on both sides of the tolerance.
        assert tested[expected - 1] <= REFINE_TOLERANCE / 3
        assert tested[expected - 2] >= 3 * REFINE_TOLERANCE
        x = solver.refine(matrix, rhs)
        assert self.sweeps(solver, flops) == expected
        exact = splu(operators.matrix_from_data(data).tocsc()).solve(rhs)
        assert_close_to_scale(x, exact, rtol=1e-14)

    def test_gives_up_when_the_corrections_stop_halving(self):
        """A fast-contracting column carries the corrections of the
        first sweeps, then a slow one (``theta = 0.9``) takes over."""
        delta = np.full(TestRefine.factored(None)[1].size, 1e-3)
        delta[0] = 9.0
        solver, flops, operators, _, matrix = self.column_scaled(delta)
        # The solution in the factor's ordering, small along column 0.
        solution = np.ones(operators.size)
        solution[0] = 1e-6
        rhs = np.empty(operators.size)
        rhs[operators.ordering] = matrix @ solution
        assert solver.refine(matrix, rhs) is None
        # Sweeps 1-3 shrink the correction (the third 14-fold), the
        # fourth only by 0.9.
        assert self.sweeps(solver, flops) == 4

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

    def watched(self, matrix, rhs, start=None):
        solution = refine(self, matrix, rhs, start)
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


# ---------------------------------------------------------------------------
# differential: kept factors against per-step factoring on random circuits

_NODES = ("0", "a", "b", "c", "d")


@st.composite
def _rtd_circuits(draw):
    """A random R/C/RTD circuit over a small node pool, driven by one
    grounded pulse source."""
    circuit = Circuit("kept-factor")
    circuit.add_voltage_source("Vin", draw(st.sampled_from(_NODES[1:])),
                               "0", mesh_drive())
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from("RRCX"))
        n1 = draw(st.sampled_from(_NODES))
        n2 = draw(st.sampled_from(_NODES))
        value = draw(st.floats(min_value=0.5, max_value=1e4))
        if kind == "R":
            circuit.add_resistor(f"R{i}", n1, n2, value)
        elif kind == "C":
            circuit.add_capacitor(f"C{i}", n1, n2, value * 1e-15)
        else:
            circuit.add_device(f"X{i}", n1, n2, SchulmanRTD())
    return circuit


def _sparse_march(circuit):
    """Times and states of a 20-step sparse march through the pulse's
    rise, or the class of the error it raised."""
    try:
        result = SwecTransient(circuit, options()).run_grid(
            np.linspace(0.0, 0.2e-9, 21))
    except NanoSimError as exc:
        return type(exc)
    return result.times, result.states


@settings(max_examples=40, deadline=None)
@given(circuit=_rtd_circuits().filter(lambda c: lint_circuit(c).ok))
def test_kept_factors_match_per_step_factoring(circuit):
    kept = _sparse_march(circuit)
    # A function-scoped fixture would not reset between examples.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends_module, "SPARSE_FACTOR_MEMO", 0)
        reference = _sparse_march(circuit)
    if isinstance(reference, type):
        assert kept is reference
    else:
        assert not isinstance(kept, type), kept
        assert_close_to_scale(kept[0], reference[0])
        assert_close_to_scale(kept[1], reference[1])
