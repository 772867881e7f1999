"""Tests for the sparse solver path and the trapezoidal SWEC option."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

from repro.circuit import Circuit, DC, Pulse
from repro.circuits_lib import rc_mesh, rtd_mesh
from repro.errors import SingularMatrixError
from repro.mna import ConductanceStamper, MnaSystem
from repro.mna.sparse import SparseOperators, SparseSolver
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
        assert np.array_equal(csc.toarray(),
                              operators.matrix_from_data(data).toarray())


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
