"""Tests for the SWEC transient engine — the paper's core contribution."""

import functools
import math

import numpy as np
import pytest

from repro.circuit import Circuit, DC, Pulse
from repro.circuits_lib import fet_rtd_inverter
from repro.circuits_lib.logic_gates import GateInfo, mobile_buffer, mobile_nand
from repro.core.stepper import LinearStepper
from repro.devices import SCHULMAN_INGAAS, SchulmanRTD
from repro.errors import AnalysisError, ConvergenceError
from repro.runtime import EnsembleTransientJob, TransientJob
from repro.swec import SwecEnsembleTransient, SwecOptions, SwecTransient
from repro.swec.timestep import EnsembleStepController, StepControlOptions


def swec_options(**kwargs):
    step = StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.5e-9,
                              h_initial=1e-12)
    return SwecOptions(step=step, **kwargs)


class TestLinearCircuits:
    """SWEC on linear circuits must match analytic answers exactly
    (no chords involved — validates the integrator substrate)."""

    def test_rc_step_response(self, rc_pulse_circuit):
        engine = SwecTransient(rc_pulse_circuit, swec_options())
        result = engine.run(11e-9)
        tau = 1e3 * 1e-12
        # input steps at 1 ns; examine 6 ns into the charge (6 tau)
        t_probe = 7e-9
        expected = 1.0 * (1.0 - math.exp(-(t_probe - 1.01e-9) / tau))
        assert result.at(t_probe, "out") == pytest.approx(expected, abs=0.02)

    def test_rc_reaches_steady_state(self, rc_pulse_circuit):
        engine = SwecTransient(rc_pulse_circuit, swec_options())
        result = engine.run(15e-9)
        assert result.at(15e-9, "out") == pytest.approx(1.0, abs=1e-3)

    def test_dc_initialization_starts_settled(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", DC(2.0))
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-12)
        engine = SwecTransient(circuit, swec_options())
        result = engine.run(1e-9)
        assert result.voltage("out")[0] == pytest.approx(2.0, abs=1e-6)
        assert np.allclose(result.voltage("out"), 2.0, atol=1e-6)

    def test_without_dc_initialization_charges_from_zero(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", DC(2.0))
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-12)
        engine = SwecTransient(circuit, swec_options(initialize_dc=False))
        result = engine.run(10e-9)
        assert result.voltage("out")[0] == 0.0
        assert result.at(10e-9, "out") == pytest.approx(2.0, abs=0.01)

    def test_capacitor_initial_condition_respected(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "out", "0", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-12, initial_voltage=3.0)
        engine = SwecTransient(circuit, swec_options(initialize_dc=False))
        result = engine.run(5e-9)
        tau = 1e-9
        assert result.voltage("out")[0] == pytest.approx(3.0)
        assert result.at(3e-9, "out") == pytest.approx(
            3.0 * math.exp(-3.0), abs=0.02)

    def test_rl_circuit_current_rise(self):
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", DC(1.0))
        circuit.add_resistor("R1", "in", "mid", 100.0)
        circuit.add_inductor("L1", "mid", "0", 1e-6)
        engine = SwecTransient(circuit, swec_options(initialize_dc=False))
        result = engine.run(50e-9)
        # i_L(t) = (V/R)(1 - e^{-tR/L}); tau = 10 ns
        system = engine.system
        row = system.inductor_index("L1")
        i_final = result.states[-1][row]
        expected = (1.0 / 100.0) * (1.0 - math.exp(-50e-9 * 100.0 / 1e-6))
        assert i_final == pytest.approx(expected, rel=0.02)


class TestNonlinearBehaviour:
    def test_rtd_divider_transient_tracks_dc(self, divider):
        """Slow ramp through the NDR: transient must follow the DC curve."""
        circuit, info = divider
        # replace the source with a slow (vs tau ~ 0.01 ns) ramp 0 -> 2 V
        circuit.voltage_sources[0].waveform = Pulse(
            0.0, 2.0, delay=0.0, rise=5e-9, fall=5e-9, width=2e-9,
            period=1e-3)
        circuit.add_capacitor("Cp", info.device_node, "0", 1e-12)
        options = swec_options()
        options.step.h_min = 1e-12
        engine = SwecTransient(circuit, options)
        result = engine.run(4.5e-9)
        assert not result.aborted
        assert result.convergence_failures == 0
        # at t=4.5ns the ramp is at 1.8 V; DC solution from SwecDC
        from repro.swec import SwecDC
        from repro.circuits_lib import rtd_divider
        ref_circuit, ref_info = rtd_divider(resistance=10.0)
        dc = SwecDC(ref_circuit).sweep("Vs", [1.8])
        assert result.at(4.5e-9, info.device_node) == pytest.approx(
            dc.voltage(ref_info.device_node)[0], abs=0.02)

    def test_never_aborts_on_ndr(self, divider):
        """The headline SWEC claim: no convergence failure, ever."""
        circuit, info = divider
        circuit.voltage_sources[0].waveform = Pulse(
            0.0, 2.5, delay=0.5e-9, rise=0.3e-9, fall=0.3e-9, width=2e-9,
            period=20e-9)
        circuit.add_capacitor("Cp", info.device_node, "0", 1e-12)
        options = swec_options()
        options.step.h_min = 1e-12
        engine = SwecTransient(circuit, options)
        result = engine.run(5e-9)
        assert not result.aborted
        assert result.convergence_failures == 0

    def test_conductance_trace_is_positive(self, divider):
        circuit, info = divider
        circuit.voltage_sources[0].waveform = Pulse(
            0.0, 2.5, delay=0.5e-9, rise=0.2e-9, fall=0.2e-9, width=3e-9,
            period=10e-9)
        circuit.add_capacitor("Cp", info.device_node, "0", 1e-12)
        options = swec_options(trace_conductance=True)
        options.step.h_min = 1e-12
        engine = SwecTransient(circuit, options)
        result = engine.run(5e-9)
        trace = result.conductance_trace
        assert len(trace) > 100
        for _, conductances in trace:
            assert (conductances >= 0.0).all()

    def test_device_current_waveform(self, divider):
        circuit, info = divider
        circuit.add_capacitor("Cp", info.device_node, "0", 1e-12)
        circuit.voltage_sources[0].waveform = DC(1.0)
        options = swec_options()
        options.step.h_min = 1e-12
        engine = SwecTransient(circuit, options)
        result = engine.run(1e-9)
        currents = engine.device_current_waveform(result, info.device)
        assert currents.shape == result.times.shape
        assert (currents >= 0.0).all()
        with pytest.raises(AnalysisError):
            engine.device_current_waveform(result, "nope")


class TestEngineOptions:
    def test_rejects_nonpositive_t_stop(self, rc_pulse_circuit):
        engine = SwecTransient(rc_pulse_circuit, swec_options())
        with pytest.raises(AnalysisError):
            engine.run(0.0)

    def test_rejects_bad_initial_state_shape(self, rc_pulse_circuit):
        engine = SwecTransient(rc_pulse_circuit, swec_options())
        with pytest.raises(AnalysisError):
            engine.run(1e-9, initial_state=np.zeros(99))

    def test_explicit_initial_state_used(self):
        circuit = Circuit()
        circuit.add_resistor("R1", "out", "0", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-12)
        engine = SwecTransient(circuit, swec_options())
        result = engine.run(1e-10, initial_state=np.array([5.0]))
        assert result.voltage("out")[0] == pytest.approx(5.0)

    def test_max_points_abort(self, rc_pulse_circuit):
        options = swec_options()
        options.max_points = 10
        engine = SwecTransient(rc_pulse_circuit, options)
        result = engine.run(11e-9)
        assert result.aborted
        assert "max_points" in result.abort_reason

    def test_dv_limit_rejects_steps(self):
        # Start far from equilibrium with a step comparable to tau: the
        # first solve jumps several volts, which dv_limit must reject.
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", DC(5.0))
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-12)
        options = SwecOptions(
            step=StepControlOptions(epsilon=1.0, h_min=1e-12,
                                    h_max=1e-9, h_initial=1e-9),
            initialize_dc=False, dv_limit=0.5)
        engine = SwecTransient(circuit, options)
        result = engine.run(10e-9)
        assert result.rejected_steps > 0
        assert result.step_limits["dv_limit"] > 0
        assert not result.aborted
        assert result.at(10e-9, "out") == pytest.approx(5.0, abs=0.05)

    def test_predictor_toggle_changes_nothing_catastrophic(self, divider):
        """Predictor on/off must both track the same trajectory."""
        from repro.circuits_lib import rtd_divider
        results = []
        for use in (True, False):
            circuit, info = rtd_divider(resistance=10.0)
            circuit.add_capacitor("Cp", info.device_node, "0", 1e-13)
            circuit.voltage_sources[0].waveform = Pulse(
                0.0, 1.5, delay=0.2e-9, rise=0.5e-9, fall=0.5e-9,
                width=3e-9, period=10e-9)
            engine = SwecTransient(circuit, swec_options(use_predictor=use))
            results.append(engine.run(4e-9))
        grid = np.linspace(0.3e-9, 4e-9, 100)
        a = results[0].resample(grid, "out")
        b = results[1].resample(grid, "out")
        assert np.max(np.abs(a - b)) < 0.05


class TestStepAdaptivity:
    def test_steps_shrink_during_edges(self, rc_pulse_circuit):
        engine = SwecTransient(rc_pulse_circuit, swec_options())
        result = engine.run(5e-9)
        times = result.times
        steps = result.step_sizes()
        # steps while the input ramps (1.0 to 1.01 ns) vs plateau (3-4 ns)
        during_edge = steps[(times[:-1] >= 1.0e-9) & (times[:-1] < 1.01e-9)]
        during_flat = steps[(times[:-1] >= 3e-9) & (times[:-1] < 4e-9)]
        assert during_edge.mean() < during_flat.mean()

    def test_breakpoints_are_hit_exactly(self, rc_pulse_circuit):
        engine = SwecTransient(rc_pulse_circuit, swec_options())
        result = engine.run(5e-9)
        times = result.times
        assert np.min(np.abs(times - 1e-9)) < 1e-15

    def test_final_time_reached_exactly(self, rc_pulse_circuit):
        engine = SwecTransient(rc_pulse_circuit, swec_options())
        result = engine.run(5e-9)
        assert result.t_final == pytest.approx(5e-9, rel=1e-9)

    def test_flops_accumulated(self, rc_pulse_circuit):
        engine = SwecTransient(rc_pulse_circuit, swec_options())
        result = engine.run(2e-9)
        assert result.flops.total > 0
        # One factorization per accepted step plus the DC initialization.
        assert result.flops.factorizations >= result.accepted_steps
        assert result.flops.factorizations <= result.accepted_steps + 200


class TestTraceAccounting:
    def test_trace_does_not_change_flops(self, divider):
        """Tracing must reuse the step's already-computed chords: same
        flop bill with tracing on or off."""
        circuit, info = divider
        circuit.add_capacitor("Cp", info.device_node, "0", 1e-12)
        plain = SwecTransient(circuit, swec_options()).run(1e-9)
        traced = SwecTransient(
            circuit, swec_options(trace_conductance=True)).run(1e-9)
        assert traced.flops.total == plain.flops.total
        assert (traced.flops.device_evaluations
                == plain.flops.device_evaluations)
        assert len(traced.conductance_trace) == traced.accepted_steps


def fig8_inverter_engine():
    """A short Fig. 8 FET-RTD inverter march (rising input edge)."""
    vin = Pulse(0.0, 5.0, delay=0.5e-9, rise=0.3e-9, fall=0.3e-9,
                width=2e-9, period=5e-9)
    circuit, _ = fet_rtd_inverter(vin=vin)
    options = SwecOptions(
        step=StepControlOptions(epsilon=0.05, h_min=1e-13, h_max=0.2e-9,
                                h_initial=1e-12),
        dv_limit=0.5)
    return SwecTransient(circuit, options)


class TestTableOneAccounting:
    def test_fig8_inverter_flop_counts_are_pinned(self):
        """The Table-I bill of a K = 1 march, event for event: 33 DC
        chord iterations plus 305 steps, each one factorization, one
        solve and the chords of two RTDs (plus the eq.-5 predictor past
        the first step) and one MOSFET."""
        result = fig8_inverter_engine().run(1.5e-9)
        flops = result.flops
        assert flops.by_category() == {
            "device": 150696, "factor": 36504, "solve": 16900}
        assert flops.device_evaluations == 1622
        assert flops.factorizations == 338
        assert flops.linear_solves == 338
        assert result.accepted_steps == 305
        assert result.rejected_steps == 0
        assert result.dc_iterations == 33


class TestDcStart:
    def test_converged_start_is_reported(self):
        result = fig8_inverter_engine().run(0.2e-9)
        assert result.dc_converged is True
        assert 1 <= result.dc_iterations < 200
        assert result.convergence_failures == 0
        assert (f"dc start: converged after {result.dc_iterations} "
                "iterations") in result.summary()

    def test_no_dc_start_reports_nothing(self):
        engine = fig8_inverter_engine()
        engine.options.initialize_dc = False
        result = engine.run(0.2e-9)
        assert result.dc_converged is None
        assert result.dc_iterations == 0
        assert "dc start" not in result.summary()

    def test_dc_initialize_reports_non_convergence(self):
        stepper = fig8_inverter_engine()._stepper
        result = stepper._new_result()
        states = stepper._initial_state_stack(None)
        stepper._dc_initialize(states, result, max_iter=1)
        assert result.dc_iterations == 1
        assert result.dc_converged is False

    def test_non_converged_start_counts_as_convergence_failure(
            self, monkeypatch):
        monkeypatch.setattr(
            LinearStepper, "_dc_initialize",
            functools.partialmethod(LinearStepper._dc_initialize, max_iter=1))
        result = fig8_inverter_engine().run(0.2e-9)
        assert result.dc_converged is False
        assert result.convergence_failures == 1
        assert "dc start: NOT CONVERGED after 1 iterations" in result.summary()


class TestStrictDcStart:
    """``validate="strict"`` refuses a march from a non-converged DC
    start; ``off``/``warn`` report it on the result."""

    @pytest.fixture(autouse=True)
    def one_dc_iteration(self, monkeypatch):
        monkeypatch.setattr(
            LinearStepper, "_dc_initialize",
            functools.partialmethod(LinearStepper._dc_initialize, max_iter=1))

    @staticmethod
    def _transient_job(validate):
        engine = fig8_inverter_engine()
        return TransientJob(t_stop=0.2e-9, circuit=engine.circuit,
                            options=engine.options, validate=validate)

    @staticmethod
    def _ensemble_job(validate):
        engine = fig8_inverter_engine()
        return EnsembleTransientJob(
            t_stop=0.2e-9, circuit=engine.circuit, n_instances=2,
            options=engine.options, return_result=True, validate=validate)

    @pytest.mark.parametrize("job", ["_transient_job", "_ensemble_job"])
    def test_strict_raises_with_iteration_count(self, job):
        with pytest.raises(ConvergenceError, match="after 1 chord iterations"):
            getattr(self, job)("strict").run()

    @pytest.mark.parametrize("validate", ["off", "warn"])
    def test_off_and_warn_report_it(self, validate):
        result = self._transient_job(validate).run()
        assert result.dc_converged is False
        assert result.convergence_failures == 1
        ensemble = self._ensemble_job(validate).run()
        assert ensemble.dc_converged is False
        assert ensemble.instance(0).convergence_failures == 1

    def test_converged_start_passes_strict(self, monkeypatch):
        monkeypatch.undo()
        result = self._transient_job("strict").run()
        assert result.dc_converged is True


class TestVectorizedCurrents:
    def test_current_many_matches_scalar(self):
        rtd = SchulmanRTD(SCHULMAN_INGAAS)
        voltages = np.linspace(-1.0, 3.0, 501)
        scalar = np.array([rtd.current(float(v)) for v in voltages])
        vectorized = rtd.current_many(voltages)
        assert np.allclose(vectorized, scalar, rtol=1e-12, atol=1e-18)

    def test_waveform_uses_vectorized_path(self, divider):
        circuit, info = divider
        circuit.add_capacitor("Cp", info.device_node, "0", 1e-12)
        circuit.voltage_sources[0].waveform = Pulse(
            0.0, 2.0, delay=0.2e-9, rise=0.2e-9, fall=0.2e-9, width=1e-9,
            period=4e-9)
        options = swec_options()
        options.step.h_min = 1e-12
        engine = SwecTransient(circuit, options)
        result = engine.run(2e-9)
        currents = engine.device_current_waveform(result, info.device)
        for k, device in enumerate(circuit.devices):
            if device.name == info.device:
                terminals = engine.system.device_terminals()[k]
        states = result.states
        branch = states[:, terminals[0]] - (
            states[:, terminals[1]] if terminals[1] >= 0 else 0.0)
        looped = np.array([circuit.devices[0].current(float(v))
                           for v in branch])
        assert np.allclose(currents, looped, rtol=1e-12, atol=1e-18)


def _node_error(result, reference) -> float:
    """Largest node-voltage gap between *result*, linearly interpolated
    onto *reference*'s grid, and *reference*."""
    return max(
        float(np.max(np.abs(np.interp(reference.times, result.times,
                                      result.voltage(node))
                            - reference.voltage(node))))
        for node in result.node_names)


class TestMotionWeightedSteps:
    """The node-RC bound applies only to nodes that move, and the march
    ends on t_stop exactly."""

    def test_scalar_and_vector_controllers_take_the_same_steps(self):
        engine = fig8_inverter_engine()
        scalar = engine.run(3e-9)
        stepper = engine._stepper
        stepper.controller = EnsembleStepController(
            stepper.systems, stepper.circuits, stepper.options.step,
            scalar=False)
        vector = engine.run(3e-9)
        assert len(vector) == len(scalar)
        assert vector.rejected_steps == scalar.rejected_steps
        assert vector.step_limits == scalar.step_limits
        np.testing.assert_allclose(vector.step_sizes(), scalar.step_sizes(),
                                   rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("case", ["fig8_inverter", "mobile_buffer0"])
    def test_stays_close_to_a_fine_fixed_grid(self, case):
        """Within 0.06 V of a 0.2 ps backward-Euler grid (the inverter
        was 0.054 V off under plain eq. 12)."""
        if case == "fig8_inverter":
            engine = fig8_inverter_engine()
        else:
            circuit, _ = mobile_buffer(DC(0.0))
            engine = SwecTransient(circuit, SwecOptions(
                step=StepControlOptions(epsilon=0.1, h_min=1e-13,
                                        h_max=0.2e-9, h_initial=1e-12),
                dv_limit=0.2))
        t_stop = 3e-9
        result = engine.run(t_stop)
        reference = engine.run_grid(np.linspace(0.0, t_stop, 15001))
        assert _node_error(result, reference) < 0.06

    def test_lands_on_t_stop_without_a_sliver(self):
        """Advancing by ``t += h`` ended this march 7.75e-21 s short of
        6 ns and then took a sliver step."""
        circuit, _ = mobile_nand(DC(0.0), DC(GateInfo().input_high))
        options = SwecOptions(
            step=StepControlOptions(epsilon=0.1, h_min=1e-13, h_max=0.2e-9,
                                    h_initial=1e-12),
            dv_limit=0.2)
        result = SwecTransient(circuit, options).run(6e-9)
        assert result.times[-1] == 6e-9
        assert result.smallest_step >= 1e-13 * (1.0 - 1e-9)

    def test_last_step_absorbs_a_remainder_below_h_min(self,
                                                       rc_pulse_circuit):
        t_stop = 10e-9 + 0.4e-13
        result = SwecTransient(rc_pulse_circuit, swec_options()).run(t_stop)
        assert result.times[-1] == t_stop
        assert result.smallest_step >= 1e-13 * (1.0 - 1e-9)

    def test_remainder_below_h_min_is_one_step(self, rc_pulse_circuit):
        result = SwecTransient(rc_pulse_circuit, swec_options()).run(0.4e-13)
        assert result.times.tolist() == [0.0, 0.4e-13]


class TestStepLimitCounters:
    def test_every_accepted_step_has_one_limit(self):
        result = fig8_inverter_engine().run(1.5e-9)
        limits = result.step_limits
        assert sum(limits.values()) == result.accepted_steps
        assert limits["node_rc:out"] > 0
        assert limits["slope"] > 0
        assert set(limits) <= {"slope", "growth", "h_max", "breakpoint",
                               "dv_limit", "node_rc:out", "node_rc:in"}
        assert result.steps_at_hmin == 0
        assert result.smallest_step == result.step_sizes().min()
        assert result.largest_step == result.step_sizes().max()
        summary = result.summary()
        assert f"node_rc:out={limits['node_rc:out']}" in summary
        assert "at_h_min=0" in summary

    def test_ensemble_counts_and_instance_copies(self, rc_pulse_circuit):
        ensemble = SwecEnsembleTransient(
            [rc_pulse_circuit] * 2, swec_options()).run(5e-9)
        assert sum(ensemble.step_limits.values()) == ensemble.accepted_steps
        assert "step limits:" in ensemble.summary()
        single = ensemble.instance(1)
        assert single.step_limits == ensemble.step_limits
        assert single.steps_at_hmin == ensemble.steps_at_hmin
        assert single.largest_step == ensemble.largest_step

    def test_fixed_grid_has_no_limits(self, rc_pulse_circuit):
        result = SwecTransient(rc_pulse_circuit, swec_options()).run_grid(
            np.linspace(0.0, 1e-9, 11))
        assert result.step_limits == {}
        assert result.steps_at_hmin == 0
        assert result.largest_step == pytest.approx(1e-10)
        assert "step limits:" not in result.summary()
