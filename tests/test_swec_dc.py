"""Tests for the SWEC DC engine (paper Section 5.1, Fig. 7)."""

import numpy as np
import pytest

from repro.analysis.dcsweep import DCSweepResult
from repro.circuit import Pulse
from repro.circuits_lib import (
    fet_rtd_inverter,
    nanowire_divider,
    rtd_divider,
    rtd_mesh,
)
from repro.core.backends import create_backend
from repro.core.stepper import LinearStepper
from repro.errors import AnalysisError
from repro.mna.assembler import MnaSystem
from repro.swec import SwecDC, SwecOptions
from repro.swec.conductance import SwecLinearization
from repro.swec.dc import SwecDCOptions


class TestFixedPointSweep:
    def test_converges_everywhere(self, divider):
        circuit, info = divider
        result = SwecDC(circuit).sweep(info.source, np.linspace(0, 2.5, 51))
        assert result.all_converged

    def test_captures_rtd_peak(self, divider, rtd):
        """Fig. 7(a): the swept device I-V shows the resonance peak."""
        circuit, info = divider
        dc = SwecDC(circuit)
        result = dc.sweep(info.source, np.linspace(0, 2.6, 201))
        v = dc.device_voltages(result, info.device)
        i = dc.device_currents(result, info.device)
        k = int(np.argmax(i))
        v_peak, i_peak = rtd.peak()
        assert v[k] == pytest.approx(v_peak, abs=0.03)
        assert i[k] == pytest.approx(i_peak, rel=0.02)

    def test_tracks_ndr_branch(self, divider, rtd):
        """With a small series R the sweep passes through the NDR region
        continuously (the paper's 'captures the negative resistance
        region very closely')."""
        circuit, info = divider
        dc = SwecDC(circuit)
        result = dc.sweep(info.source, np.linspace(0, 2.6, 261))
        v = dc.device_voltages(result, info.device)
        v_peak, v_valley = rtd.ndr_region()
        inside = (v > v_peak) & (v < v_valley)
        assert inside.sum() > 20  # many operating points inside NDR
        assert np.all(np.diff(v) > -1e-6)  # continuous, no jumps back

    def test_device_current_matches_resistor_current(self, divider):
        """KCL check: device current == (Vs - Vout)/R at every point."""
        circuit, info = divider
        dc = SwecDC(circuit)
        values = np.linspace(0.1, 2.5, 25)
        result = dc.sweep(info.source, values)
        i_device = dc.device_currents(result, info.device)
        v_out = result.voltage(info.device_node)
        i_resistor = (values - v_out) / 10.0
        assert np.allclose(i_device, i_resistor, rtol=1e-6, atol=1e-9)

    def test_unknown_source_raises(self, divider):
        circuit, _ = divider
        with pytest.raises(AnalysisError):
            SwecDC(circuit).sweep("Vxx", [1.0])

    def test_unknown_device_raises(self, divider):
        circuit, info = divider
        dc = SwecDC(circuit)
        result = dc.sweep(info.source, [1.0])
        with pytest.raises(AnalysisError):
            dc.device_currents(result, "nope")
        with pytest.raises(AnalysisError):
            dc.device_voltages(result, "nope")

    def test_empty_sweep_rejected(self, divider):
        circuit, info = divider
        with pytest.raises(AnalysisError):
            SwecDC(circuit).sweep(info.source, [])


class TestStepwiseMode:
    def test_stepwise_close_to_fixed_point_off_the_knees(self, rtd):
        circuit_a, info = rtd_divider(resistance=10.0)
        circuit_b, _ = rtd_divider(resistance=10.0)
        values = np.linspace(0.0, 2.5, 501)
        fixed = SwecDC(circuit_a).sweep(info.source, values)
        stepwise = SwecDC(
            circuit_b,
            SwecDCOptions(mode="stepwise", stepwise_solves=1),
        ).sweep(info.source, values)
        v_fp = fixed.voltage(info.device_node)
        v_sw = stepwise.voltage(info.device_node)
        v_peak, v_valley = rtd.ndr_region()
        # compare away from the NDR knees where one-solve lag is largest
        mask = (v_fp < v_peak - 0.05) | (v_fp > v_valley + 0.05)
        assert np.max(np.abs(v_fp[mask] - v_sw[mask])) < 0.02

    def test_stepwise_iteration_count_is_exact(self, divider):
        circuit, info = divider
        options = SwecDCOptions(mode="stepwise", stepwise_solves=2)
        result = SwecDC(circuit, options).sweep(info.source,
                                                np.linspace(0, 1, 11))
        assert result.iteration_counts == [2] * 11

    def test_stepwise_one_factorization_per_solve(self, divider):
        circuit, info = divider
        options = SwecDCOptions(mode="stepwise", stepwise_solves=1)
        result = SwecDC(circuit, options).sweep(info.source,
                                                np.linspace(0, 1, 11))
        assert result.flops.factorizations == 11

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            SwecDCOptions(mode="warp")
        with pytest.raises(ValueError):
            SwecDCOptions(stepwise_solves=0)
        with pytest.raises(ValueError):
            SwecDCOptions(tolerance=-1.0)
        with pytest.raises(ValueError):
            SwecDCOptions(max_iterations=0)
        with pytest.raises(ValueError):
            SwecDCOptions(initial_damping=2.0)


class TestNanowireSweep:
    def test_fig7b_nanowire_iv(self, nanowire):
        """Fig. 7(b): SWEC traces the quantum-wire staircase I-V."""
        circuit, info = nanowire_divider(resistance=1e4)
        dc = SwecDC(circuit)
        result = dc.sweep(info.source, np.linspace(0, 3.0, 121))
        assert result.all_converged
        i = dc.device_currents(result, info.device)
        assert np.all(np.diff(i) > -1e-12)  # monotone current
        v = dc.device_voltages(result, info.device)
        # conductance staircase visible: dI/dV varies by > 3x over sweep
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.gradient(i, v)
        g = g[np.isfinite(g)]
        assert g.max() / max(g.min(), 1e-12) > 3.0

    def test_divider_actually_divides(self):
        circuit, info = nanowire_divider(resistance=1e4)
        dc = SwecDC(circuit)
        result = dc.sweep(info.source, [2.0])
        v_device = dc.device_voltages(result, info.device)[0]
        assert 0.1 < v_device < 1.9


class TestCurrentSourceSweep:
    def test_current_driven_rtd(self, rtd):
        from repro.circuit import Circuit
        circuit = Circuit("i-driven")
        circuit.add_current_source("Is", "0", "out", 0.0)
        circuit.add_resistor("Rsh", "out", "0", 1e3)
        circuit.add_device("X1", "out", "0", rtd)
        dc = SwecDC(circuit)
        # stay below the peak current: unique solution
        result = dc.sweep("Is", np.linspace(0.0, 3e-3, 16))
        assert result.all_converged
        v = result.voltage("out")
        assert np.all(np.diff(v) > 0.0)

    def test_current_sweep_overrides_waveform_value(self, rtd):
        from repro.circuit import Circuit
        circuit = Circuit("i-driven")
        circuit.add_current_source("Is", "0", "out", 5e-3)  # nonzero t=0
        circuit.add_resistor("Rsh", "out", "0", 100.0)
        dc = SwecDC(circuit)
        result = dc.sweep("Is", [1e-3])
        assert result.voltage("out")[0] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# One chord fixed point: SwecDC and the march's DC start both run
# LinearStepper.chord_fixed_point.  The oracles below are copies of the
# two loops it replaced.


class _TwoLoopSwecDC(SwecDC):
    """SwecDC with its own system, linearization and backend and the
    per-point loops it carried before it became a stepper caller."""

    def __init__(self, circuit, options=None):
        super().__init__(circuit, options)
        system = MnaSystem(circuit)
        self._lin = SwecLinearization(system)
        self._backend = create_backend(self.options.backend, [system],
                                       default="dense")

    def _chord_solve(self, b, x, result):
        voltages, vgs, vds = self._lin.branch_voltages(x)
        chords = (self._lin.device_conductances(voltages)
                  + self._lin.mosfet_conductances(vgs, vds))
        self._lin.count_flops(result.flops, 1, 0)
        self._backend.stamp(np.array([chords]))
        return self._backend.solve_conductance(b[None, :])[0]

    def solve_point(self, b, x, result):
        opts = self.options
        self._backend.begin_run(result.flops)
        damping = opts.initial_damping
        prev_delta = np.inf
        for iteration in range(1, opts.max_iterations + 1):
            x_new = self._chord_solve(b, x, result)
            delta = float(np.max(np.abs(x_new - x)))
            if delta < opts.tolerance:
                return x_new, iteration, True
            if delta >= prev_delta and damping > opts.min_damping:
                damping = max(damping * 0.5, opts.min_damping)
            prev_delta = delta
            x = x + damping * (x_new - x)
        return x, opts.max_iterations, False

    def solve_point_stepwise(self, b, x, result):
        self._backend.begin_run(result.flops)
        solves = self.options.stepwise_solves
        for _ in range(solves):
            x = self._chord_solve(b, x, result)
        return x, solves, True


def _two_loop_dc_start(stepper, states, result, max_iter=200, tol=1e-9):
    """The march's DC start as it was: damping floor 0.1, a strict
    ``>`` test, and the damped state returned."""
    K, n = stepper.n_instances, stepper.size
    b = stepper._sources.assemble(0.0, np.empty((K, n)))
    damping = np.ones(K)
    prev_delta = np.full(K, np.inf)
    result.dc_iterations, result.dc_converged = 0, False
    for _ in range(max_iter):
        result.dc_iterations += 1
        stepper._stamp(states, None, None, None, result.flops)
        new_states = stepper.backend.solve_conductance(b)
        delta = np.max(np.abs(new_states - states), axis=1)
        shrink = (delta > prev_delta) & (damping > 0.1)
        damping[shrink] *= 0.5
        prev_delta = delta
        states = states + damping[:, None] * (new_states - states)
        if np.all(delta < tol):
            result.dc_converged = True
            break
    return states


def _fig8_inverter():
    vin = Pulse(0.0, 5.0, delay=0.5e-9, rise=0.3e-9, fall=0.3e-9,
                width=2e-9, period=5e-9)
    return fet_rtd_inverter(vin=vin)[0]


def _jittered_inverters(k=16):
    rng = np.random.default_rng(14)
    vth = 1.0 + 0.15 * rng.uniform(-1.0, 1.0, k)
    load = 1e-12 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, k))
    vin = Pulse(0.0, 5.0, delay=0.5e-9, rise=0.3e-9, fall=0.3e-9,
                width=2e-9, period=5e-9)
    return [fet_rtd_inverter(vin=vin, fet_vth=float(vth[j]),
                             load_capacitance=float(load[j]))[0]
            for j in range(k)]


class TestOneChordFixedPoint:
    @pytest.mark.parametrize("mode", ["fixed_point", "stepwise"])
    @pytest.mark.parametrize("resistance", [10.0, 300.0])
    def test_divider_sweep_matches_two_loop_version(self, mode, resistance):
        """Fig. 7 sweep 0-5 V through NDR (300 ohm is bistable, so the
        damping engages): bitwise states, equal counts and flops."""
        values = np.linspace(0.0, 5.0, 251)
        options = SwecDCOptions(mode=mode)
        circuit, info = rtd_divider(resistance=resistance)
        ours = SwecDC(circuit, options).sweep(info.source, values)
        circuit, info = rtd_divider(resistance=resistance)
        theirs = _TwoLoopSwecDC(circuit, options).sweep(info.source, values)
        assert np.array_equal(ours.states, theirs.states)
        assert ours.iteration_counts == theirs.iteration_counts
        assert ours.converged_flags == theirs.converged_flags
        assert ours.flops.by_category() == theirs.flops.by_category()

    def test_inverter_operating_point_is_bitwise(self):
        circuit = _fig8_inverter()
        ours = SwecDC(circuit).operating_point()
        theirs = _TwoLoopSwecDC(circuit).operating_point()
        assert np.array_equal(ours, theirs)

    def test_mesh_operating_point_on_the_vectorized_bank(self):
        """49 RTDs take the stepper's vectorized device path; the old
        loop evaluated them one by one."""
        circuit, _ = rtd_mesh(7, 7)
        result_ours = DCSweepResult(circuit.nodes, "(bias)")
        result_theirs = DCSweepResult(circuit.nodes, "(bias)")
        ours_dc = SwecDC(circuit)
        theirs_dc = _TwoLoopSwecDC(circuit)
        b = ours_dc.system.source_vector(0.0)
        x0 = ours_dc.system.initial_state()
        ours = ours_dc.solve_point(b, x0, result_ours)
        theirs = theirs_dc.solve_point(b, x0, result_theirs)
        assert ours[1:] == theirs[1:]
        scale = np.max(np.abs(theirs[0]))
        assert np.max(np.abs(ours[0] - theirs[0])) <= 1e-12 * scale

    @pytest.mark.parametrize("circuits", [
        pytest.param(lambda: [_fig8_inverter()], id="fig8-k1"),
        pytest.param(_jittered_inverters, id="jittered-k16"),
    ])
    def test_march_dc_start_matches_two_loop_version(self, circuits):
        def start(dc_start):
            stepper = LinearStepper(circuits(), SwecOptions())
            result = stepper._new_result()
            states = dc_start(stepper, stepper._initial_state_stack(None),
                              result)
            return states, result

        ours, ours_result = start(LinearStepper._dc_initialize)
        theirs, theirs_result = start(_two_loop_dc_start)
        assert ours_result.dc_iterations == theirs_result.dc_iterations
        assert ours_result.dc_converged == theirs_result.dc_converged
        assert ours_result.dc_converged
        scale = np.max(np.abs(theirs))
        assert np.max(np.abs(ours - theirs)) <= 1e-12 * scale
