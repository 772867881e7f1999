"""Tests for the MOBILE logic-gate family (extension of Fig. 9)."""

import numpy as np
import pytest

from repro.circuit import DC, Pulse
from repro.circuits_lib.logic_gates import (
    GateInfo,
    gate_clock,
    mobile_buffer,
    mobile_inverter,
    mobile_nand,
    mobile_nor,
)
from repro.swec import SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions

OPTS = SwecOptions(
    step=StepControlOptions(epsilon=0.1, h_min=1e-13, h_max=0.2e-9,
                            h_initial=1e-12),
    dv_limit=0.2)
HIGH = GateInfo().input_high


def evaluate(builder, *inputs) -> float:
    """Output voltage mid-way through the first clock-high phase."""
    circuit, info = builder(*[DC(v) for v in inputs])
    result = SwecTransient(circuit, OPTS).run(6e-9)
    assert not result.aborted
    return result.at(6e-9, info.output_node)


def as_bit(value: float) -> int:
    info = GateInfo()
    if abs(value - info.v_q_low) < 0.15:
        return 0
    if abs(value - info.v_q_high) < 0.15:
        return 1
    raise AssertionError(f"output {value:.3f} V is not a clean level")


class TestBuffer:
    def test_truth_table(self):
        assert as_bit(evaluate(mobile_buffer, 0.0)) == 0
        assert as_bit(evaluate(mobile_buffer, HIGH)) == 1


class TestInverter:
    def test_truth_table(self):
        assert as_bit(evaluate(mobile_inverter, 0.0)) == 1
        assert as_bit(evaluate(mobile_inverter, HIGH)) == 0


class TestNor:
    @pytest.mark.parametrize("a,b,expected", [
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    def test_truth_table(self, a, b, expected):
        value = evaluate(mobile_nor, a * HIGH, b * HIGH)
        assert as_bit(value) == expected


class TestNand:
    @pytest.mark.parametrize("a,b,expected", [
        (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_truth_table(self, a, b, expected):
        value = evaluate(mobile_nand, a * HIGH, b * HIGH)
        assert as_bit(value) == expected

    def test_resting_mid_does_not_clamp_the_step(self):
        """With b high, ``Mb`` in triode holds ``mid`` at 0 V behind
        0.2 S; plain eq. 12 clamped all 60,000 steps to 6 ns at h_min."""
        circuit, info = mobile_nand(DC(0.0), DC(HIGH))
        result = SwecTransient(circuit, OPTS).run(6e-9)
        assert len(result) <= 2000
        assert as_bit(result.at(6e-9, info.output_node)) == 1


class TestClockConstraint:
    def test_fast_edge_breaks_the_default_high_latch(self):
        """Documented MOBILE constraint: a clock edge fast against the
        latch RC drives the load RTD past its peak while the output
        lags, and the inverter's default-high state is lost."""
        fast_clock = Pulse(0.0, 1.15, delay=1e-9, rise=0.05e-9,
                           fall=0.05e-9, width=8e-9, period=20e-9)
        circuit, info = mobile_inverter(DC(0.0), clock=fast_clock)
        result = SwecTransient(circuit, OPTS).run(6e-9)
        # wrong state: stays low although the input is low
        assert result.at(6e-9, info.output_node) < 0.3

    def test_gate_clock_defaults(self):
        clock = gate_clock()
        assert clock.rise == pytest.approx(1e-9)
        assert clock.value(0.5e-9) == 0.0
        assert clock.value(5e-9) == pytest.approx(1.15)


class TestGateDynamics:
    def test_output_resets_when_clock_falls(self):
        circuit, info = mobile_buffer(DC(HIGH))
        result = SwecTransient(circuit, OPTS).run(15e-9)
        # clock high 1-10 ns (1 ns edges), low after ~11 ns
        assert result.at(8e-9, info.output_node) > 0.9
        assert abs(result.at(14.5e-9, info.output_node)) < 0.1

    def test_nand_internal_node_defined(self):
        circuit, info = mobile_nand(DC(0.0), DC(0.0))
        result = SwecTransient(circuit, OPTS).run(6e-9)
        mid = result.at(6e-9, "mid")
        assert np.isfinite(mid)
        assert -0.2 < mid < 1.3
