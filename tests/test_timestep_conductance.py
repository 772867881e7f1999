"""Unit tests for SWEC step control (eqs. 10-12) and linearization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, Clock, DC, PiecewiseLinear, Pulse
from repro.mna import ConductanceStamper, MnaSystem
from repro.swec import timestep
from repro.swec.conductance import SwecLinearization
from repro.swec.timestep import EnsembleStepController, StepControlOptions
from repro.devices import nmos


def controller_for(system, options=None):
    """The step controller of a single-circuit march."""
    return EnsembleStepController([system], [system.circuit], options)


def diagonal(g):
    """The ``(1, n)`` diagonal stack the controller bounds the step by."""
    return np.diagonal(g)[None, :]


def conductance_matrix(system, state):
    """``G`` at *state*: the base stamps plus every chord, stamped
    through the K = 1 float chords."""
    linearization = SwecLinearization(system)
    voltages, vgs, vds = linearization.branch_voltages(state)
    matrix = system.conductance_base()
    ConductanceStamper(system.chord_pairs(), system.size).stamp(
        matrix, linearization.device_conductances(voltages)
        + linearization.mosfet_conductances(vgs, vds))
    return matrix


def rc_circuit(slope_source=True):
    circuit = Circuit()
    waveform = (Pulse(0.0, 1.0, delay=1e-9, rise=1e-9, fall=1e-9,
                      width=5e-9, period=20e-9)
                if slope_source else DC(1.0))
    circuit.add_voltage_source("Vin", "in", "0", waveform)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


class TestStepControlOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepControlOptions(epsilon=0.0)
        with pytest.raises(ValueError):
            StepControlOptions(h_min=0.0)
        with pytest.raises(ValueError):
            StepControlOptions(h_min=1.0, h_max=0.5)
        with pytest.raises(ValueError):
            StepControlOptions(growth_limit=1.0)
        with pytest.raises(ValueError):
            StepControlOptions(voltage_floor=0.0)


class TestSlopeBound:
    """Paper eq. 11: h <= 3 eps |V| / alpha."""

    def test_infinite_when_sources_flat(self):
        system = MnaSystem(rc_circuit(slope_source=False))
        controller = controller_for(system)
        assert controller.slope_bound(0.0) == math.inf

    def test_formula_during_ramp(self):
        system = MnaSystem(rc_circuit())
        options = StepControlOptions(epsilon=0.02, voltage_floor=1e-3)
        controller = controller_for(system, options)
        t = 1.5e-9  # mid-rise: value 0.5 V, slope 1 V/ns
        expected = 3.0 * 0.02 * 0.5 / 1e9
        assert controller.slope_bound(t) == pytest.approx(expected)

    def test_voltage_floor_prevents_collapse(self):
        system = MnaSystem(rc_circuit())
        options = StepControlOptions(epsilon=0.02, voltage_floor=1e-3)
        controller = controller_for(system, options)
        t = 1.0e-9 + 1e-15  # source value ~0 but slope nonzero
        expected = 3.0 * 0.02 * 1e-3 / 1e9
        assert controller.slope_bound(t) == pytest.approx(expected, rel=1e-3)


class TestNodeRcBound:
    """Paper eq. 12: h <= eps C_j / sum_k G_jk."""

    def test_formula(self):
        system = MnaSystem(rc_circuit(slope_source=False))
        options = StepControlOptions(epsilon=0.02)
        controller = controller_for(system, options)
        g = system.conductance_base()
        expected = 0.02 * 1e-12 / 1e-3  # C=1p, G=1m at node 'out'
        assert controller.node_rc_bound_stack(
            diagonal(g)) == pytest.approx(expected)

    def test_tighter_with_device_conductance(self, rtd):
        circuit = rc_circuit(slope_source=False)
        circuit.add_device("X1", "out", "0", rtd)
        system = MnaSystem(circuit)
        controller = controller_for(system, StepControlOptions())
        state = np.zeros(system.size)
        state[system.node_index("out")] = 0.3
        g_with_device = conductance_matrix(system, state)
        base = system.conductance_base()
        assert (controller.node_rc_bound_stack(diagonal(g_with_device))
                < controller.node_rc_bound_stack(diagonal(base)))

    def test_infinite_without_capacitors(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "0", 1.0)
        system = MnaSystem(circuit)
        controller = controller_for(system)
        assert controller.node_rc_bound_stack(
            diagonal(system.conductance_base())) == math.inf


class TestMotionWeightedNodeRc:
    """The node-RC bound only holds nodes that moved in the last step:
    below ``ref = THETA eps max(|V|, voltage_floor)`` the eq.-12 ratio
    grows by ``ref / |dV|``."""

    EPS = 0.02
    EQ12 = 0.02 * 1e-12 / 1e-3  # C=1p, G=1m at node 'out'

    def _bound(self, v, dv, scalar):
        system = MnaSystem(rc_circuit(slope_source=False))
        controller = EnsembleStepController(
            [system], [system.circuit], StepControlOptions(epsilon=self.EPS),
            scalar=scalar)
        out = system.node_index("out")
        states = np.zeros((1, system.size))
        states[0, out] = v
        prev = states.copy()
        prev[0, out] = v - dv
        return controller.node_rc_bound_stack(
            diagonal(system.conductance_base()), states, prev)

    def _ref(self, v):
        return timestep.THETA * self.EPS * max(abs(v), 1e-3)

    @pytest.mark.parametrize("scalar", [False, True])
    def test_resting_node_does_not_bound(self, scalar):
        assert self._bound(0.7, 0.0, scalar) == math.inf

    @pytest.mark.parametrize("scalar", [False, True])
    def test_moving_node_keeps_eq12(self, scalar):
        assert self._bound(0.7, 2.0 * self._ref(0.7), scalar) == \
            pytest.approx(self.EQ12)
        assert self._bound(0.7, -self._ref(0.7), scalar) == \
            pytest.approx(self.EQ12)

    @pytest.mark.parametrize("scalar", [False, True])
    def test_slow_node_ratio_scales_with_the_shortfall(self, scalar):
        assert self._bound(0.7, 0.25 * self._ref(0.7), scalar) == \
            pytest.approx(4.0 * self.EQ12)
        # Near 0 V the reference motion uses the voltage floor.
        assert self._bound(0.0, 0.5 * self._ref(0.0), scalar) == \
            pytest.approx(2.0 * self.EQ12)

    def test_scalar_and_vector_paths_agree(self):
        circuit = rc_circuit(slope_source=False)
        circuit.add_resistor("R2", "out", "mid", 2e3)
        circuit.add_capacitor("C2", "mid", "0", 3e-13)
        system = MnaSystem(circuit)
        diag = diagonal(system.conductance_base())
        controllers = [EnsembleStepController(
            [system], [circuit], StepControlOptions(), scalar=scalar)
            for scalar in (False, True)]
        rng = np.random.default_rng(7)
        for _ in range(200):
            states = rng.normal(size=(1, system.size))
            prev = states + rng.choice([0.0, 1e-6, 1e-4, 1e-2],
                                       size=states.shape)
            bounds = [c._node_rc(diag, states, prev) for c in controllers]
            assert bounds[0][1] == bounds[1][1]
            assert bounds[0][0] == pytest.approx(bounds[1][0], rel=1e-12)

    def test_first_step_is_plain_eq12(self):
        system = MnaSystem(rc_circuit(slope_source=False))
        controller = controller_for(system, StepControlOptions(
            epsilon=self.EPS, h_max=1.0, growth_limit=1e9))
        g = diagonal(system.conductance_base())
        h = controller.next_step_from_diagonal(0.0, 1.0, g, 10.0)
        assert h == pytest.approx(self.EQ12)
        assert controller.limit == "node_rc:out"
        states = np.zeros((1, system.size))
        h = controller.next_step_from_diagonal(0.0, 1.0, g, 10.0,
                                               states, states)
        assert h == 1.0
        assert controller.limit == "h_max"

    def test_no_capacitive_node_is_never_bounded(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "0", 1.0)
        system = MnaSystem(circuit)
        for scalar in (False, True):
            controller = EnsembleStepController(
                [system], [circuit], StepControlOptions(), scalar=scalar)
            states = np.ones((1, system.size))
            assert controller.node_rc_bound_stack(
                diagonal(system.conductance_base()), states,
                0.5 * states) == math.inf


class TestNextStep:
    def test_growth_limited(self):
        system = MnaSystem(rc_circuit(slope_source=False))
        options = StepControlOptions(epsilon=100.0, growth_limit=2.0,
                                     h_max=1e-6)
        controller = controller_for(system, options)
        g = system.conductance_base()
        h = controller.next_step_from_diagonal(2e-9, 1e-12, diagonal(g),
                                               1e-3)
        assert h <= 2e-12 * (1.0 + 1e-12)

    def test_clamped_to_h_max(self):
        system = MnaSystem(rc_circuit(slope_source=False))
        options = StepControlOptions(epsilon=1e9, h_max=1e-10,
                                     growth_limit=1e9)
        controller = controller_for(system, options)
        g = system.conductance_base()
        assert controller.next_step_from_diagonal(
            0.0, 1e-10, diagonal(g), 1.0) <= 1e-10

    def test_lands_on_breakpoint(self):
        system = MnaSystem(rc_circuit(slope_source=True))
        options = StepControlOptions(epsilon=10.0, h_max=1e-8)
        controller = controller_for(system, options)
        g = system.conductance_base()
        h = controller.next_step_from_diagonal(0.5e-9, 1e-8, diagonal(g),
                                               100e-9)
        assert 0.5e-9 + h == pytest.approx(1e-9)  # the pulse delay edge

    def test_never_oversteps_t_stop(self):
        system = MnaSystem(rc_circuit(slope_source=False))
        controller = controller_for(system, StepControlOptions(
            epsilon=1e9, h_max=1.0, growth_limit=1e9))
        g = system.conductance_base()
        h = controller.next_step_from_diagonal(0.9e-9, 1.0, diagonal(g),
                                               1e-9)
        assert h == pytest.approx(0.1e-9)

    def test_stretches_onto_t_stop_instead_of_a_sliver(self):
        system = MnaSystem(rc_circuit(slope_source=False))
        options = StepControlOptions(epsilon=1e9, h_min=1e-13, h_max=1e-10,
                                     growth_limit=1e9)
        controller = controller_for(system, options)
        g = diagonal(system.conductance_base())
        t, t_stop = 0.8e-9, 0.9e-9 + 0.5e-13
        h = controller.next_step_from_diagonal(t, 1e-10, g, t_stop)
        assert h == t_stop - t
        assert controller.limit == "breakpoint"
        # A remainder of at least h_min is left for the next step.
        h = controller.next_step_from_diagonal(t, 1e-10, g, t_stop + 1e-13)
        assert h == pytest.approx(1e-10)
        assert controller.limit == "h_max"

    def test_initial_step_defaults(self):
        system = MnaSystem(rc_circuit(slope_source=False))
        controller = controller_for(system, StepControlOptions())
        assert controller.initial_step(1e-6) == pytest.approx(1e-10)
        controller2 = controller_for(
            system, StepControlOptions(h_initial=5e-12))
        assert controller2.initial_step(1e-6) == 5e-12


def _scanned_breakpoint_bound(sources, t, h, t_stop):
    """The per-step scan the breakpoint table replaced: the first
    static breakpoint inside ``(t, t + h)``, then every periodic edge
    up to ``min(t + h, t_stop)`` unrolled from t = 0."""
    limit = t_stop - t
    static = sorted({p for s in sources for p in s.waveform.breakpoints()})
    for point in static:
        if t < point < t + h:
            limit = min(limit, point - t)
            break
    for source in sources:
        folder = getattr(source.waveform, "periodic_breakpoints", None)
        if folder is None:
            continue
        for point in folder(min(t + h, t_stop)):
            if t < point < t + h:
                limit = min(limit, point - t)
    return min(h, max(limit, 0.0))


#: Waveforms whose edges the step must land on.
BREAKPOINT_WAVEFORMS = {
    "pulse": lambda: Pulse(0.0, 1.0, delay=1e-9, rise=0.3e-9, fall=0.2e-9,
                           width=2e-9, period=5e-9),
    "pulse-once": lambda: Pulse(0.0, 1.0, delay=2e-9, rise=0.1e-9,
                                fall=0.1e-9, width=1e-9),
    "clock": lambda: Clock(0.0, 1.0, period=3e-9, rise=0.1e-9, delay=0.5e-9),
    "pwl": lambda: PiecewiseLinear([(0.0, 0.0), (0.7e-9, 1.0), (1.3e-9, 0.2),
                                    (4e-9, 0.2), (9e-9, 1.0)]),
}


class TestBreakpointTable:
    """The sorted per-run table must give the old scan's h bit for bit."""

    @staticmethod
    def _controller(names):
        circuit = Circuit()
        for k, name in enumerate(names):
            circuit.add_voltage_source(f"V{k}", f"n{k}", "0",
                                       BREAKPOINT_WAVEFORMS[name]())
            circuit.add_resistor(f"R{k}", f"n{k}", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-12)
        return controller_for(MnaSystem(circuit)), circuit

    @given(names=st.lists(st.sampled_from(sorted(BREAKPOINT_WAVEFORMS)),
                          min_size=1, max_size=4),
           t_stops=st.lists(st.floats(1e-10, 30e-9), min_size=1, max_size=3),
           queries=st.lists(st.tuples(st.floats(0.0, 1.0),
                                      st.floats(1e-15, 10e-9),
                                      st.booleans()),
                            min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_table_matches_scan(self, names, t_stops, queries):
        controller, circuit = self._controller(names)
        sources = circuit.voltage_sources
        edges = sorted({p for s in sources for p in (
            s.waveform.periodic_breakpoints(30e-9)
            if isinstance(s.waveform, Pulse) else s.waveform.breakpoints())})
        for t_stop in t_stops:
            for fraction, h, on_edge in queries:
                t = fraction * t_stop
                if on_edge:
                    # Start on an edge, or step exactly onto one.
                    edge = edges[int(fraction * (len(edges) - 1))]
                    t, h = (edge, h) if h < 5e-9 else (max(edge - h, 0.0), h)
                expected = _scanned_breakpoint_bound(sources, t, h, t_stop)
                got = controller.breakpoint_bound(t, h, t_stop)
                assert got.hex() == expected.hex(), (t, h, t_stop)


class TestLinearization:
    def _rtd_system(self, rtd):
        circuit = Circuit()
        circuit.add_voltage_source("Vs", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 10.0)
        circuit.add_device("X1", "out", "0", rtd)
        circuit.add_capacitor("C1", "out", "0", 1e-12)
        return MnaSystem(circuit)

    def test_device_voltage_extraction(self, rtd):
        system = self._rtd_system(rtd)
        linearization = SwecLinearization(system)
        state = np.zeros(system.size)
        state[system.node_index("out")] = 0.42
        assert linearization.device_voltages(state)[0] == pytest.approx(0.42)

    def test_chord_stamped_symmetrically(self, rtd):
        system = self._rtd_system(rtd)
        state = np.zeros(system.size)
        state[system.node_index("out")] = 0.42
        g = conductance_matrix(system, state)
        base = system.conductance_base()
        out = system.node_index("out")
        chord = rtd.chord_conductance(0.42)
        assert g[out, out] - base[out, out] == pytest.approx(chord)

    def test_predictor_shifts_conductance(self, rtd):
        system = self._rtd_system(rtd)
        linearization = SwecLinearization(system)
        out = system.node_index("out")
        state = np.zeros(system.size)
        prev = np.zeros(system.size)
        state[out] = 0.45
        prev[out] = 0.40   # device voltage rising
        h = 1e-12
        voltages = linearization.branch_voltages(state)[0]
        previous = linearization.branch_voltages(prev)[0]
        with_predictor = linearization.device_conductances(
            voltages, (0.5 * h, previous, h))
        without = linearization.device_conductances(voltages)
        dv_dt = (0.45 - 0.40) / h
        expected_shift = 0.5 * h * rtd.chord_conductance_derivative(0.45) * dv_dt
        assert with_predictor[0] - without[0] == pytest.approx(
            expected_shift, rel=1e-6)

    def test_predictor_clamps_to_nonnegative(self, rtd):
        system = self._rtd_system(rtd)
        linearization = SwecLinearization(system)
        out = system.node_index("out")
        state = np.zeros(system.size)
        prev = np.zeros(system.size)
        # huge voltage slew downward through the NDR to force a negative
        # extrapolation
        state[out] = 0.6
        prev[out] = 2.5
        conductances = linearization.device_conductances(
            linearization.branch_voltages(state)[0],
            (0.5 * 1e-9, linearization.branch_voltages(prev)[0], 1e-15))
        assert conductances[0] >= 0.0

    def test_mosfet_voltages_and_conductance(self):
        circuit = Circuit()
        circuit.add_voltage_source("Vd", "d", "0", 3.0)
        circuit.add_voltage_source("Vg", "g", "0", 2.0)
        model = nmos()
        circuit.add_mosfet("M1", "d", "g", "0", model)
        circuit.add_capacitor("Cd", "d", "0", 1e-12)
        system = MnaSystem(circuit)
        linearization = SwecLinearization(system)
        state = np.zeros(system.size)
        state[system.node_index("d")] = 3.0
        state[system.node_index("g")] = 2.0
        vgs, vds = linearization.mosfet_vgs_vds(state)
        assert vgs[0] == pytest.approx(2.0)
        assert vds[0] == pytest.approx(3.0)
        g = linearization.mosfet_conductances(
            *linearization.branch_voltages(state)[1:])
        assert g[0] == pytest.approx(model.chord_conductance(2.0, 3.0))
