"""Tests for the sparse solver path and the trapezoidal SWEC option."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

from repro.circuit import Circuit, DC, Pulse
from repro.circuits_lib import (
    coupled_oscillator_bank,
    power_grid_mesh,
    rc_mesh,
    rtd_memory_array,
    rtd_mesh,
)
from repro.core.backends import SparseBackend
from repro.errors import SingularMatrixError
from repro.mna import ConductanceStamper, MnaSystem
from repro.mna.sparse import SparseOperators, SparseSolver, symmetric_ordering
from repro.perf import FlopCounter
from repro.swec import SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions


def small_options(**kwargs):
    return SwecOptions(
        step=StepControlOptions(epsilon=0.1, h_min=1e-13, h_max=0.05e-9,
                                h_initial=1e-12), **kwargs)


def _stamped_data(operators, device_g, mosfet_g):
    """``G_base`` plus the chord stamps via the batch-assembly views."""
    data = operators.base_data.copy()
    positions, columns, signs = operators.stamp_indices()
    values = np.concatenate((device_g, mosfet_g))
    np.add.at(data, positions, values[columns] * signs)
    return data


class TestSparseOperators:
    def test_matches_dense_assembly(self, rtd):
        circuit, _ = rtd_mesh(3, 3)
        system = MnaSystem(circuit)
        operators = SparseOperators(system)
        from repro.swec.conductance import SwecLinearization
        linearization = SwecLinearization(system)
        state = np.linspace(0.0, 0.4, system.size)
        voltages, vgs, vds = linearization.branch_voltages(state)
        device_g = linearization.device_conductances(voltages)
        mosfet_g = linearization.mosfet_conductances(vgs, vds)
        dense = system.conductance_base()
        ConductanceStamper(system.chord_pairs(), system.size).stamp(
            dense, device_g + mosfet_g)
        data = _stamped_data(operators, device_g, mosfet_g)
        sparse_matrix = operators.matrix_from_data(data)
        assert np.allclose(sparse_matrix.toarray(), dense)

    def test_transient_matrix_includes_c_over_h(self):
        circuit, _ = rc_mesh(2, 2)
        system = MnaSystem(circuit)
        operators = SparseOperators(system)
        h = 1e-12
        data = operators.base_data + operators.c_data / h
        a = operators.matrix_from_data(data)
        dense = system.conductance_base() + system.capacitance_matrix() / h
        assert np.allclose(a.toarray(), dense)

    def test_csc_plan_matches_csr_assembly(self):
        circuit, _ = rtd_mesh(4, 3)
        system = MnaSystem(circuit)
        operators = SparseOperators(system)
        device_g = np.linspace(1e-3, 2e-3, len(circuit.devices))
        data = _stamped_data(operators, device_g, np.zeros(0))
        data += operators.c_data / 1e-12
        csc = operators.csc_matrix()
        np.take(data, operators.csc_order, out=csc.data)
        assert csc.format == "csc" and csc.has_sorted_indices
        q = operators.ordering
        assert np.array_equal(np.sort(q), np.arange(system.size))
        # The plan holds the symmetrically ordered matrix A[q][:, q].
        assert np.array_equal(
            csc.toarray(), operators.matrix_from_data(data)[q][:, q].toarray())


def _loop_symbolic_build(system):
    """The symbolic analysis as once built: a growing sparse sum per
    chord pair, then one Python lookup per entry."""
    size = system.size
    g_base = sparse.csr_matrix(system.conductance_base())
    c_matrix = sparse.csr_matrix(system.capacitance_matrix())
    pairs = system.chord_pairs()

    def structure(matrix):
        coo = matrix.tocoo()
        return sparse.csr_matrix(
            (np.ones_like(coo.data), (coo.row, coo.col)), shape=matrix.shape)

    def incidence(i, j):
        rows, cols = [], []
        if i >= 0:
            rows.append(i)
            cols.append(i)
        if j >= 0:
            rows.append(j)
            cols.append(j)
        if i >= 0 and j >= 0:
            rows.extend([i, j])
            cols.extend([j, i])
        return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)),
                                 shape=(size, size))

    union = structure(g_base) + structure(c_matrix)
    for i, j in pairs:
        union = union + structure(incidence(i, j))
    union = union.tocsr()
    union.sort_indices()
    indptr, indices, nnz = union.indptr, union.indices, union.nnz

    def locate(row, col):
        lo, hi = indptr[row], indptr[row + 1]
        position = lo + int(np.searchsorted(indices[lo:hi], col))
        if position >= hi or indices[position] != col:
            return None
        return int(position)

    def scatter(matrix):
        data = np.zeros(nnz)
        coo = matrix.tocoo()
        for row, col, value in zip(coo.row, coo.col, coo.data):
            data[locate(int(row), int(col))] += value
        return data

    q = symmetric_ordering(union)
    order = sparse.csr_matrix(
        (np.arange(nnz, dtype=float), indices, indptr),
        shape=union.shape)[q][:, q].tocsc()
    order.sort_indices()
    positions, columns, signs = [], [], []
    for column, (i, j) in enumerate(pairs):
        entries = []
        if i >= 0:
            entries.append((i, i, 1.0))
        if j >= 0:
            entries.append((j, j, 1.0))
        if i >= 0 and j >= 0:
            entries += [(i, j, -1.0), (j, i, -1.0)]
        for row, col, sign in entries:
            positions.append(locate(row, col))
            columns.append(column)
            signs.append(sign)
    diagonal = [locate(row, row) for row in range(size)]
    return {
        "indptr": indptr,
        "indices": indices,
        "base_data": scatter(g_base),
        "c_data": scatter(c_matrix),
        "ordering": q,
        "csc_order": order.data.astype(np.intp),
        "csc_indices": order.indices,
        "csc_indptr": order.indptr,
        "positions": np.asarray(positions, dtype=np.intp),
        "columns": np.asarray(columns, dtype=np.intp),
        "signs": np.asarray(signs, dtype=float),
        "diag_positions": np.array([p or 0 for p in diagonal], dtype=np.intp),
        "diag_mask": np.array([p is not None for p in diagonal], dtype=float),
    }


class TestVectorizedSymbolicAnalysis:
    """The key-array symbolic analysis equals the loop build."""

    @pytest.mark.parametrize("build", [
        lambda: rtd_mesh(30, 30),
        lambda: power_grid_mesh(rows=16, cols=16),
        lambda: rtd_mesh(4, 3),
        lambda: rtd_memory_array(),
        lambda: coupled_oscillator_bank(),
    ], ids=["rtd_mesh_30x30", "power_grid_16x16", "rtd_mesh_4x3",
            "rtd_memory_array", "coupled_oscillator_bank"])
    def test_matches_loop_build(self, build):
        system = MnaSystem(build()[0])
        operators = SparseOperators(system)
        expected = _loop_symbolic_build(system)
        csr = operators.matrix_from_data(np.zeros(operators.nnz))
        csc = operators.csc_matrix()
        positions, columns, signs = operators.stamp_indices()
        diag_positions, diag_mask = operators.diagonal_positions()
        got = {
            "indptr": csr.indptr,
            "indices": csr.indices,
            "base_data": operators.base_data,
            "c_data": operators.c_data,
            "ordering": operators.ordering,
            "csc_order": operators.csc_order,
            "csc_indices": csc.indices,
            "csc_indptr": csc.indptr,
            "positions": positions,
            "columns": columns,
            "signs": signs,
            "diag_positions": diag_positions,
            "diag_mask": diag_mask,
        }
        assert operators.nnz == expected["indices"].size
        for name, want in expected.items():
            assert np.array_equal(got[name], want), name
            assert got[name].dtype == want.dtype, name


class TestSparseSolver:
    def test_solves_linear_system(self):
        flops = FlopCounter()
        solver = SparseSolver(flops)
        matrix = sparse.csc_matrix(np.diag([2.0, 4.0, 8.0]))
        solver.factor(matrix)
        x = solver.solve(np.array([2.0, 4.0, 8.0]))
        assert np.allclose(x, 1.0)
        assert flops.factorizations == 1
        assert flops.linear_solves == 1
        assert flops.total > 0

    def test_singular_rejected(self):
        solver = SparseSolver()
        with pytest.raises(SingularMatrixError):
            solver.factor(sparse.csc_matrix((3, 3)))

    def test_solve_before_factor_rejected(self):
        with pytest.raises(SingularMatrixError):
            SparseSolver().solve(np.ones(2))

    def test_nonsquare_rejected(self):
        with pytest.raises(SingularMatrixError):
            SparseSolver().factor(sparse.csc_matrix((2, 3)))

    def test_failed_factor_leaves_no_factorization(self):
        solver = SparseSolver()
        solver.factor(sparse.csc_matrix(np.eye(3)))
        with pytest.raises(SingularMatrixError):
            solver.factor(sparse.csc_matrix((3, 3)))
        with pytest.raises(SingularMatrixError):
            solver.solve(np.ones(3))


class TestSymmetricOrdering:
    """The minimum-degree ``A^T + A`` ordering against ``spsolve``."""

    @staticmethod
    def _relative_error(solution, reference):
        return float(np.max(np.abs(solution - reference))
                     / np.max(np.abs(reference)))

    @pytest.fixture(scope="class")
    def mesh_system(self):
        """The 30x30 RTD mesh transient matrix with its CSC plan."""
        circuit, _ = rtd_mesh(30, 30)
        system = MnaSystem(circuit)
        operators = SparseOperators(system)
        rng = np.random.default_rng(3)
        device_g = rng.uniform(1e-4, 5e-3, len(circuit.devices))
        data = _stamped_data(operators, device_g, np.zeros(0))
        data += operators.c_data / 1e-12
        matrix = operators.csc_matrix()
        np.take(data, operators.csc_order, out=matrix.data)
        return matrix, rng.standard_normal(system.size)

    def test_mesh_solution_matches_spsolve(self, mesh_system):
        matrix, rhs = mesh_system
        solver = SparseSolver()
        solver.factor(matrix)
        reference = spsolve(matrix, rhs)
        assert self._relative_error(solver.solve(rhs), reference) < 1e-12

    def test_mesh_fill_no_larger_than_colamd(self, mesh_system):
        matrix, _ = mesh_system
        solver = SparseSolver()
        solver.factor(matrix)
        colamd = splu(matrix, permc_spec="COLAMD")
        assert solver.fill <= colamd.L.nnz + colamd.U.nnz

    def test_complex_ac_system_matches_spsolve(self):
        from repro.ac import linearize
        from repro.circuits_lib.inverter import fet_rtd_inverter

        small = linearize(fet_rtd_inverter(vin=2.5)[0])
        matrix = sparse.csc_matrix(small.g0 + 2j * np.pi * 1e9 * small.c)
        rhs = small.excitation().astype(complex)
        solver = SparseSolver()
        solver.factor(matrix)
        reference = spsolve(matrix, rhs)
        assert self._relative_error(solver.solve(rhs), reference) < 1e-12


def _per_step_mmd_factor(self, matrix):
    """``SparseSolver.factor`` before the ordering moved to the pattern:
    SuperLU orders every matrix it factors."""
    self._lu = None
    if matrix.shape[0] != matrix.shape[1]:
        raise SingularMatrixError(
            f"expected square matrix, got {matrix.shape}")
    self._n = matrix.shape[0]
    try:
        lu = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc
    self._lu = lu
    self._fill = lu.L.nnz + lu.U.nnz
    if self.flops is not None:
        estimate = int(2.0 * self._fill ** 1.5
                       / max(np.sqrt(self._n), 1.0))
        self.flops.add("factor", estimate)
        self.flops.factorizations += 1


def _per_step_mmd_backend_factor(self, data):
    """``SparseBackend._factor`` on the unordered CSC matrix."""
    solvers = []
    for k in range(self.n_instances):
        solver = SparseSolver(self.flops)
        solver.factor(self._ops[k].matrix_from_data(data[k]).tocsc())
        solvers.append(solver)
    return solvers


def _per_step_mmd_backend_solve(self, solvers, rhs):
    """``SparseBackend._solve`` without the pattern's permutation."""
    out = np.empty((self.n_instances, self.size))
    for k, solver in enumerate(solvers):
        out[k] = solver.solve(rhs[k])
    return out


def _per_step_mmd_solve_many(small, frequencies, rhs_columns):
    """``solve_many_sparse`` with SuperLU ordering every frequency."""
    g0 = sparse.csc_matrix(small.g0.astype(complex))
    c = sparse.csc_matrix(small.c.astype(complex))
    solver = SparseSolver()
    rhs = np.asarray(rhs_columns, dtype=complex)
    out = np.empty((len(frequencies), small.size, rhs.shape[1]),
                   dtype=complex)
    for index, frequency in enumerate(frequencies):
        _per_step_mmd_factor(
            solver, g0 + 2j * np.pi * float(frequency) * c)
        out[index] = solver.solve(rhs)
    return out


@pytest.fixture
def per_step_mmd(monkeypatch):
    """Switch the sparse backend to the per-factorization ordering.

    Both halves are patched, so a factor kept by the backend's memo is
    always solved by the half that made it.
    """

    def enable():
        monkeypatch.setattr(SparseSolver, "factor", _per_step_mmd_factor)
        monkeypatch.setattr(SparseBackend, "_factor",
                            _per_step_mmd_backend_factor)
        monkeypatch.setattr(SparseBackend, "_solve",
                            _per_step_mmd_backend_solve)

    return enable


def _assert_close_to_scale(values, reference, rtol=1e-12):
    reference = np.asarray(reference)
    scale = float(np.max(np.abs(reference)))
    assert float(np.max(np.abs(np.asarray(values) - reference))) \
        <= rtol * scale


def _step_matrix(circuit):
    """A stamped transient matrix on *circuit*'s pattern, unordered."""
    system = MnaSystem(circuit)
    operators = SparseOperators(system)
    rng = np.random.default_rng(7)
    chords = rng.uniform(1e-4, 5e-3, len(system.chord_pairs()))
    positions, columns, signs = operators.stamp_indices()
    data = operators.base_data + operators.c_data / 1e-12
    np.add.at(data, positions, chords[columns] * signs)
    return operators, operators.matrix_from_data(data).tocsc()


def _per_step_ordering(matrix):
    lu = splu(matrix, permc_spec="MMD_AT_PLUS_A",
              options={"SymmetricMode": True})
    return np.argsort(lu.perm_c)


class TestPatternOrdering:
    """One ordering per pattern equals SuperLU's per-factorization one."""

    @pytest.mark.parametrize("build", [
        lambda: rtd_mesh(30, 30),
        lambda: power_grid_mesh(rows=16, cols=16),
        lambda: rtd_memory_array(),
        lambda: coupled_oscillator_bank(),
    ], ids=["rtd_mesh_30x30", "power_grid_16x16", "rtd_memory_array",
            "coupled_oscillator_bank"])
    def test_matches_per_step_mmd(self, build):
        operators, matrix = _step_matrix(build()[0])
        expected = _per_step_ordering(matrix)
        assert np.array_equal(operators.ordering, expected)
        assert np.array_equal(symmetric_ordering(matrix), expected)

    def test_ordered_matrix_factors_in_natural_order(self):
        operators, matrix = _step_matrix(rtd_mesh(30, 30)[0])
        q = operators.ordering
        ordered = matrix[q][:, q]
        lu = splu(ordered.tocsc(), permc_spec="NATURAL",
                  options={"SymmetricMode": True})
        reference = splu(matrix, permc_spec="MMD_AT_PLUS_A",
                         options={"SymmetricMode": True})
        assert np.array_equal(lu.perm_c, np.arange(matrix.shape[0]))
        assert lu.L.nnz + lu.U.nnz == reference.L.nnz + reference.U.nnz

    def test_complex_ac_pattern(self):
        from repro.ac import linearize

        small = linearize(power_grid_mesh(rows=8, cols=8)[0])
        matrix = sparse.csc_matrix(small.g0 + 2j * np.pi * 1e9 * small.c)
        pattern = sparse.csc_matrix((small.g0 != 0) | (small.c != 0))
        assert np.array_equal(symmetric_ordering(pattern),
                              _per_step_ordering(matrix))

    def test_singular_pattern_falls_back_to_identity(self):
        pattern = sparse.csc_matrix(np.array([[1.0, 1.0, 0.0],
                                              [1.0, 1.0, 0.0],
                                              [0.0, 0.0, 0.0]]))
        assert np.array_equal(symmetric_ordering(pattern), np.arange(3))


class TestOrderedPathEquivalence:
    """The ordered path against a copy of the per-step MMD path."""

    def test_mesh_run_grid(self, per_step_mmd):
        drive = Pulse(0.0, 1.0, delay=0.02e-9, rise=0.05e-9,
                      fall=0.05e-9, width=0.3e-9, period=1e-9)
        options = SwecOptions(
            step=StepControlOptions(epsilon=0.05, h_min=1e-13,
                                    h_max=0.05e-9, h_initial=1e-12),
            backend="sparse", initialize_dc=False)
        times = np.linspace(0.0, 0.2e-9, 41)
        circuit, _ = rtd_mesh(30, 30, drive=drive)
        system = MnaSystem(circuit)
        x0 = np.zeros(system.size)
        x0[:system.num_nodes] = np.random.default_rng(1).uniform(
            0.0, 0.05, system.num_nodes)

        def run():
            engine = SwecTransient(rtd_mesh(30, 30, drive=drive)[0], options)
            return engine.run_grid(times, initial_state=x0)

        ordered = run()
        per_step_mmd()
        reference = run()
        _assert_close_to_scale(ordered.states, reference.states)
        assert ordered.flops.by_category() == reference.flops.by_category()
        assert ordered.flops.factorizations == reference.flops.factorizations
        assert ordered.flops.linear_solves == reference.flops.linear_solves

    def test_driven_pss_on_sparse(self, per_step_mmd):
        from repro.pss import run_pss

        def run():
            grid, _ = power_grid_mesh(rows=16, cols=16)
            return run_pss(grid, steps_per_period=100, tolerance=1e-9,
                           backend="sparse")

        ordered = run()
        per_step_mmd()
        reference = run()
        _assert_close_to_scale(ordered.states, reference.states)
        assert ordered.iterations == reference.iterations
        assert ordered.flops.by_category() == reference.flops.by_category()
        assert ordered.flops.factorizations == reference.flops.factorizations
        assert ordered.flops.linear_solves == reference.flops.linear_solves

    def test_solve_many_sparse(self):
        from repro.ac import linearize, solve_many_sparse

        small = linearize(power_grid_mesh(rows=8, cols=8)[0])
        frequencies = np.logspace(3, 12, 7)
        rhs = np.stack([small.excitation(),
                        np.random.default_rng(2).standard_normal(small.size)],
                       axis=1)
        ordered = solve_many_sparse(small, frequencies, rhs)
        reference = _per_step_mmd_solve_many(small, frequencies, rhs)
        for index in range(frequencies.size):
            _assert_close_to_scale(ordered[index], reference[index])


class TestSparseEngine:
    def test_sparse_matches_dense_on_rtd_mesh(self):
        drive = Pulse(0.0, 1.0, delay=0.05e-9, rise=0.05e-9,
                      fall=0.05e-9, width=0.3e-9, period=1e-9)
        results = {}
        for fmt in ("dense", "sparse"):
            circuit, nodes = rtd_mesh(3, 3, drive=drive)
            engine = SwecTransient(circuit,
                                   small_options(backend=fmt))
            results[fmt] = engine.run(0.3e-9)
        grid = np.linspace(0.05e-9, 0.3e-9, 20)
        for node in ("n0_0", "n1_1", "n2_2"):
            dense_v = results["dense"].resample(grid, node)
            sparse_v = results["sparse"].resample(grid, node)
            assert np.allclose(dense_v, sparse_v, atol=1e-9), node

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            SwecOptions(backend="ragged")

    def test_mesh_build_allocates_no_dense_matrix(self):
        """The sparse front end assembles from triplets: building the
        engine on a 40x40 mesh (n = 1602, 8 n^2 bytes = 20.5 MB per dense
        matrix) traces about 1.4 MB, where a dense ``G_base`` alone
        would exceed the bound."""
        options = SwecOptions(backend="sparse")
        SwecTransient(rtd_mesh(3, 3)[0], options)
        circuit, _ = rtd_mesh(40, 40)
        tracemalloc.start()
        try:
            engine = SwecTransient(circuit, options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < engine.system.size ** 2


class TestTrapezoidal:
    def _rc(self):
        circuit = Circuit()
        circuit.add_voltage_source("V", "in", "0", DC(1.0))
        circuit.add_resistor("R", "in", "out", 1e3)
        circuit.add_capacitor("C", "out", "0", 1e-12,
                              initial_voltage=0.0)
        return circuit

    def _run(self, method, h):
        options = SwecOptions(
            step=StepControlOptions(epsilon=1e9, h_min=h, h_max=h,
                                    h_initial=h),
            initialize_dc=False, method=method)
        engine = SwecTransient(self._rc(), options)
        return engine.run(2e-9)

    def test_trap_is_second_order(self):
        exact = 1.0 - math.exp(-2.0)
        h = 5e-11
        be_error = abs(self._run("be", h).at(2e-9, "out") - exact)
        trap_error = abs(self._run("trap", h).at(2e-9, "out") - exact)
        assert trap_error < be_error / 20.0

    def test_trap_error_scales_quadratically(self):
        exact = 1.0 - math.exp(-2.0)
        error_h = abs(self._run("trap", 1e-10).at(2e-9, "out") - exact)
        error_h2 = abs(self._run("trap", 5e-11).at(2e-9, "out") - exact)
        assert error_h / error_h2 == pytest.approx(4.0, rel=0.3)

    def test_be_error_scales_linearly(self):
        exact = 1.0 - math.exp(-2.0)
        error_h = abs(self._run("be", 1e-10).at(2e-9, "out") - exact)
        error_h2 = abs(self._run("be", 5e-11).at(2e-9, "out") - exact)
        assert error_h / error_h2 == pytest.approx(2.0, rel=0.2)

    def test_trap_on_nonlinear_circuit(self, rtd):
        from repro.circuits_lib import rtd_divider
        circuit, info = rtd_divider(resistance=10.0)
        circuit.voltage_sources[0].waveform = DC(1.0)
        circuit.add_capacitor("Cp", info.device_node, "0", 1e-12)
        options = SwecOptions(
            step=StepControlOptions(epsilon=0.05, h_min=1e-12,
                                    h_max=0.05e-9, h_initial=1e-12),
            method="trap")
        result = SwecTransient(circuit, options).run(1e-9)
        assert not result.aborted
        # settles to the same DC point as the fixed-point solver
        from repro.swec import SwecDC
        from repro.circuits_lib import rtd_divider as build
        ref_circuit, _ = build(resistance=10.0)
        reference = SwecDC(ref_circuit).sweep(info.source, [1.0])
        assert result.at(1e-9, info.device_node) == pytest.approx(
            reference.voltage(info.device_node)[0], abs=0.01)

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            SwecOptions(method="rk4")


class TestGridGenerators:
    def test_rtd_mesh_size(self):
        circuit, nodes = rtd_mesh(4, 5)
        assert len(nodes) == 20
        assert circuit.num_nodes == 21  # + drive node
        assert len(circuit.devices) == 20
        circuit.validate()

    def test_rc_mesh_size(self):
        circuit, nodes = rc_mesh(3, 3)
        assert len(nodes) == 9
        assert len(circuit.capacitors) == 9
        circuit.validate()

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            rtd_mesh(0, 3)
        with pytest.raises(ValueError):
            rc_mesh(3, 0)
