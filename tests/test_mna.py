"""Tests for MNA assembly and the linear solver."""

import numpy as np
import pytest
from scipy import linalg

from repro import circuits_lib
from repro.circuit import Circuit, Pulse
from repro.core.backends import system_density
from repro.errors import AssemblyError, SingularMatrixError
from repro.mna import LinearSolver, MnaSystem, solve_dense
from repro.perf import FlopCounter
from repro.swec.timestep import EnsembleStepController


class TestAssemblyStructure:
    def test_size_counts_nodes_and_branches(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "b", 1.0)
        circuit.add_inductor("L1", "b", "0", 1e-6)
        system = MnaSystem(circuit)
        assert system.num_nodes == 2
        assert system.size == 4  # 2 nodes + 1 vsrc + 1 inductor

    def test_node_index_and_branch_index(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "0", 1.0)
        system = MnaSystem(circuit)
        assert system.node_index("a") == 0
        assert system.node_index("0") == -1
        assert system.vsource_index("V1") == 1
        with pytest.raises(AssemblyError):
            system.vsource_index("V9")
        with pytest.raises(AssemblyError):
            system.node_index("zz")
        with pytest.raises(AssemblyError):
            system.inductor_index("L9")

    def test_conductance_base_symmetric_for_rc(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "a", "b", 2.0)
        circuit.add_resistor("R2", "b", "0", 4.0)
        system = MnaSystem(circuit)
        g = system.conductance_base()
        assert np.allclose(g, g.T)
        assert g[0, 0] == pytest.approx(0.5)
        assert g[1, 1] == pytest.approx(0.5 + 0.25)
        assert g[0, 1] == pytest.approx(-0.5)

    def test_capacitance_matrix(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "a", "0", 1.0)
        circuit.add_capacitor("C1", "a", "0", 3e-12)
        system = MnaSystem(circuit)
        c = system.capacitance_matrix()
        assert c[0, 0] == pytest.approx(3e-12)

    def test_inductor_rows(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "a", "0", 1.0)
        circuit.add_inductor("L1", "a", "0", 2e-6)
        system = MnaSystem(circuit)
        row = system.inductor_index("L1")
        c = system.capacitance_matrix()
        assert c[row, row] == pytest.approx(-2e-6)
        g = system.conductance_base()
        assert g[0, row] == pytest.approx(1.0)
        assert g[row, 0] == pytest.approx(1.0)

    def test_source_vector_voltage(self):
        circuit = Circuit()
        circuit.add_voltage_source(
            "V1", "a", "0", Pulse(0.0, 2.0, delay=1.0, rise=0.1,
                                  fall=0.1, width=5.0))
        circuit.add_resistor("R1", "a", "0", 1.0)
        system = MnaSystem(circuit)
        assert system.source_vector(0.0)[1] == 0.0
        assert system.source_vector(3.0)[1] == pytest.approx(2.0)

    def test_source_vector_current_direction(self):
        circuit = Circuit()
        circuit.add_current_source("I1", "0", "a", 1e-3)
        circuit.add_resistor("R1", "a", "0", 1.0)
        system = MnaSystem(circuit)
        b = system.source_vector(0.0)
        # current flows 0 -> a through the source: injected INTO node a
        assert b[0] == pytest.approx(1e-3)

    def test_initial_state_capacitor_ic(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "a", "0", 1.0)
        circuit.add_capacitor("C1", "a", "0", 1e-12, initial_voltage=2.5)
        system = MnaSystem(circuit)
        assert system.initial_state()[0] == pytest.approx(2.5)

    def test_branch_voltage_helper(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "a", "b", 1.0)
        circuit.add_resistor("R2", "b", "0", 1.0)
        system = MnaSystem(circuit)
        state = np.array([3.0, 1.0])
        assert system.branch_voltage(state, "a", "b") == pytest.approx(2.0)
        assert system.branch_voltage(state, "b", "0") == pytest.approx(1.0)


def _loop_matrices(system):
    """``(G_base, C)`` as once built: one in-place stamp per element."""
    circuit, size = system.circuit, system.size
    g = np.zeros((size, size))
    for resistor in circuit.resistors:
        system.stamp_conductance(g, system.node_index(resistor.nodes[0]),
                                 system.node_index(resistor.nodes[1]),
                                 resistor.conductance)
    branches = list(circuit.voltage_sources) + list(circuit.inductors)
    for k, element in enumerate(branches):
        row = system.num_nodes + k
        p = system.node_index(element.nodes[0])
        n = system.node_index(element.nodes[1])
        if p >= 0:
            g[p, row] += 1.0
            g[row, p] += 1.0
        if n >= 0:
            g[n, row] -= 1.0
            g[row, n] -= 1.0
    c = np.zeros((size, size))
    for capacitor in circuit.capacitors:
        system.stamp_conductance(c, system.node_index(capacitor.nodes[0]),
                                 system.node_index(capacitor.nodes[1]),
                                 capacitor.capacitance)
    for inductor in circuit.inductors:
        row = system.inductor_index(inductor.name)
        c[row, row] -= inductor.inductance
    return g, c


def _hand_circuits():
    parallel = Circuit("parallel")
    parallel.add_voltage_source("V1", "a", "0", 1.0)
    parallel.add_resistor("R1", "a", "b", 3.0)
    parallel.add_resistor("R2", "a", "b", 7.0)
    parallel.add_resistor("R3", "b", "0", 11.0)
    parallel.add_resistor("R4", "0", "b", 13.0)
    parallel.add_capacitor("C1", "b", "0", 1e-12)
    parallel.add_capacitor("C2", "b", "0", 3e-13)
    parallel.add_capacitor("C3", "a", "b", 7e-14)
    parallel.add_capacitor("C4", "b", "a", 1.1e-13)
    floating = Circuit("floating")
    floating.add_current_source("I1", "0", "a", 1e-3)
    floating.add_resistor("R1", "a", "0", 1e3)
    floating.add_resistor("R2", "b", "c", 1e3)
    floating.add_capacitor("C1", "a", "b", 1e-12)
    floating.add_capacitor("C2", "b", "c", 2e-12)
    floating.add_capacitor("C3", "0", "c", 3e-12)
    branches = Circuit("branches")
    branches.add_voltage_source("V1", "a", "0", 1.0)
    branches.add_voltage_source("V2", "0", "c", 2.0)
    branches.add_voltage_source("V3", "a", "b", 0.5)
    branches.add_resistor("R1", "b", "c", 1.0)
    branches.add_inductor("L1", "b", "0", 2e-6)
    branches.add_inductor("L2", "a", "c", 3e-9)
    branches.add_inductor("L3", "0", "c", 5e-9)
    branches.add_capacitor("C1", "c", "0", 1e-12)
    return [parallel, floating, branches]


def _library_circuits():
    circuits = [circuits_lib.rtd_chain(5)[0], circuits_lib.rtd_mesh(4, 3)[0],
                circuits_lib.rc_mesh(3, 3)[0],
                circuits_lib.power_grid_mesh(6, 6)[0],
                circuits_lib.noisy_rc_node()[0].circuit,
                circuits_lib.noisy_rc_ladder()[0].circuit]
    for build in (circuits_lib.coupled_oscillator_bank,
                  circuits_lib.fet_rtd_inverter, circuits_lib.mobile_dflipflop,
                  circuits_lib.nanowire_divider, circuits_lib.rtd_divider,
                  circuits_lib.rtd_memory_array,
                  circuits_lib.rtd_relaxation_oscillator):
        circuits.append(build()[0])
    return circuits


ASSEMBLY_CIRCUITS = _hand_circuits() + _library_circuits()


@pytest.mark.parametrize("circuit", ASSEMBLY_CIRCUITS,
                         ids=[c.name for c in ASSEMBLY_CIRCUITS])
class TestTripletAssembly:
    """Every consumer of the COO triplets against the element loops."""

    def test_densified_triplets_equal_element_loops(self, circuit):
        system = MnaSystem(circuit)
        g, c = _loop_matrices(system)
        assert np.array_equal(system.conductance_base(), g)
        assert np.array_equal(system.capacitance_matrix(), c)

    def test_system_density_equals_dense_count(self, circuit):
        system = MnaSystem(circuit)
        g, c = _loop_matrices(system)
        nnz = np.count_nonzero((g != 0.0) | (c != 0.0))
        nnz += 4 * len(system.chord_pairs())
        assert system_density(system) == min(1.0, nnz / system.size ** 2)

    def test_controller_node_capacitance_is_c_diagonal(self, circuit):
        system = MnaSystem(circuit)
        _, c = _loop_matrices(system)
        controller = EnsembleStepController([system], [circuit])
        assert np.array_equal(controller._node_capacitance_stack[0],
                              np.diag(c)[:system.num_nodes])


class TestDcSolutions:
    """End-to-end: assemble + solve known linear circuits."""

    def test_resistive_divider(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 6.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_resistor("R2", "out", "0", 2e3)
        system = MnaSystem(circuit)
        x = solve_dense(system.conductance_base(), system.source_vector(0.0))
        voltages = system.voltages(x)
        assert voltages["out"] == pytest.approx(4.0)
        # Branch current through the source: V/(R1+R2) into the + node
        assert x[system.vsource_index("V1")] == pytest.approx(-2e-3)

    def test_current_source_into_resistor(self):
        circuit = Circuit()
        circuit.add_current_source("I1", "0", "a", 2e-3)
        circuit.add_resistor("R1", "a", "0", 500.0)
        system = MnaSystem(circuit)
        x = solve_dense(system.conductance_base(), system.source_vector(0.0))
        assert x[0] == pytest.approx(1.0)

    def test_two_sources_superpose(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "a", "0", 1.0)
        circuit.add_current_source("I1", "0", "b", 1e-3)
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_resistor("R2", "b", "0", 1e3)
        system = MnaSystem(circuit)
        x = solve_dense(system.conductance_base(), system.source_vector(0.0))
        # Superposition: Vb = 1.0*(1/2) + 1e-3*(500) = 1.0
        assert system.voltages(x)["b"] == pytest.approx(1.0)

    def test_stamp_transconductance(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "a", "0", 1.0)
        circuit.add_resistor("R2", "b", "0", 1.0)
        system = MnaSystem(circuit)
        g = np.zeros((2, 2))
        system.stamp_transconductance(g, 0, -1, 1, -1, 0.5)
        assert g[0, 1] == pytest.approx(0.5)
        assert g[0, 0] == 0.0


class TestLinearSolver:
    def test_simple_solve(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        x = solve_dense(a, np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_flops_counted(self):
        flops = FlopCounter()
        a = np.eye(3)
        solve_dense(a, np.ones(3), flops)
        assert flops.total > 0
        assert flops.factorizations == 1
        assert flops.linear_solves == 1

    def test_factor_reuse(self):
        flops = FlopCounter()
        solver = LinearSolver(flops)
        solver.factor(np.eye(4))
        solver.solve(np.ones(4))
        solver.solve(np.ones(4))
        assert flops.factorizations == 1
        assert flops.linear_solves == 2

    def test_singular_matrix_raises(self):
        solver = LinearSolver()
        with pytest.raises(SingularMatrixError):
            solver.factor(np.zeros((2, 2)))

    def test_nonfinite_matrix_raises(self):
        solver = LinearSolver()
        with pytest.raises(SingularMatrixError):
            solver.factor(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_solve_before_factor_raises(self):
        with pytest.raises(SingularMatrixError):
            LinearSolver().solve(np.ones(2))

    def test_wrong_rhs_size_raises(self):
        solver = LinearSolver()
        solver.factor(np.eye(3))
        with pytest.raises(SingularMatrixError):
            solver.solve(np.ones(4))

    def test_nonsquare_rejected(self):
        with pytest.raises(SingularMatrixError):
            LinearSolver().factor(np.ones((2, 3)))


class TestLinearSolverMatchesScipy:
    """The direct getrf/getrs path against the lu_factor/lu_solve
    wrappers it replaced: the same LAPACK routines, so bitwise equal."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bitwise_equal_to_lu_factor_lu_solve(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((n, n)) + n * np.eye(n)
        vector = rng.standard_normal(n)
        block = rng.standard_normal((n, 3))
        lu_piv = linalg.lu_factor(matrix, check_finite=False)
        solver = LinearSolver()
        solver.factor(matrix)
        for rhs in (vector, block):
            expected = linalg.lu_solve(lu_piv, rhs, check_finite=False)
            got = solver.solve(rhs)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("matrix", [
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.ones((3, 2)),
        np.ones(3),
    ], ids=["rank-deficient", "zero-row", "inf", "nan", "non-square", "1-d"])
    def test_unusable_matrix_raises(self, matrix):
        with pytest.raises(SingularMatrixError):
            LinearSolver().factor(matrix)

    def test_bad_rhs_raises(self):
        solver = LinearSolver()
        with pytest.raises(SingularMatrixError):
            solver.solve(np.ones(2))
        solver.factor(np.eye(2))
        for rhs in (np.ones(3), np.ones((3, 2))):
            with pytest.raises(SingularMatrixError):
                solver.solve(rhs)

    def test_overflowing_solution_raises(self):
        solver = LinearSolver()
        solver.factor(np.diag([1.0, 1e-300]))
        with pytest.raises(SingularMatrixError):
            solver.solve(np.array([1.0, 1e300]))


class TestFlopCounter:
    def test_formulas(self):
        from repro.perf.flops import lu_factor_flops, lu_solve_flops
        assert lu_factor_flops(10) == (2 * 1000) // 3 + 100
        assert lu_solve_flops(10) == 200

    def test_categories(self):
        flops = FlopCounter()
        flops.add("factor", 100)
        flops.add("device", 50)
        assert flops.total == 150
        assert flops.by_category() == {"factor": 100, "device": 50}

    def test_merge(self):
        a, b = FlopCounter(), FlopCounter()
        a.count_factorization(3)
        b.count_solve(3)
        b.count_device_eval("mosfet")
        a.merge(b)
        assert a.factorizations == 1
        assert a.linear_solves == 1
        assert a.device_evaluations == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FlopCounter().add("x", -1)

    def test_device_eval_costs(self):
        from repro.perf.flops import device_eval_flops
        assert device_eval_flops("rtd_current") > device_eval_flops("mosfet")
        assert device_eval_flops("nanowire", channels=8) == \
            2 * device_eval_flops("nanowire", channels=4)
        assert device_eval_flops("unknown_kind") > 0

    def test_report_mentions_totals(self):
        flops = FlopCounter()
        flops.count_factorization(5)
        report = flops.report()
        assert "total flops" in report
        assert "factor" in report
