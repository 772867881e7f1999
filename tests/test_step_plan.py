"""The K = 1 step plan against the backend march it replaces.

:class:`~repro.core.stepper.LinearStepper` compiles a step plan for the
classic single-circuit dense march and runs it in place of the
backend's stamp, diagonal and solve.  The plan must reproduce that
march bitwise: every time, state, step count, step limit, DC field and
flop category.  Setting the stepper's private ``_plan`` to None forces
the backend march for the reference run.
"""

import numpy as np
import pytest

from repro.circuit import DC, Circuit, Pulse
from repro.circuits_lib import fet_rtd_inverter, mobile_dflipflop
from repro.circuits_lib.logic_gates import GateInfo, mobile_nand
from repro.core import stepper as stepper_module
from repro.core.stepper import LinearStepper
from repro.devices import SCHULMAN_INGAAS, SchulmanRTD
from repro.swec import SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions


def options(epsilon=0.1, dv_limit=0.2, **kwargs):
    step = StepControlOptions(epsilon=epsilon, h_min=1e-13, h_max=0.2e-9,
                              h_initial=1e-12)
    return SwecOptions(step=step, dv_limit=dv_limit, **kwargs)


def fig8_inverter():
    vin = Pulse(0.0, 5.0, delay=0.5e-9, rise=0.3e-9, fall=0.3e-9,
                width=2e-9, period=5e-9)
    return fet_rtd_inverter(vin=vin)[0]


def fig9_flipflop():
    period = 6e-9
    clock = Pulse(0.0, 1.15, delay=period / 2, rise=0.2e-9, fall=0.2e-9,
                  width=period / 2 - 0.2e-9, period=period)
    data = Pulse(0.0, 1.2, delay=period, rise=0.2e-9, fall=0.2e-9,
                 width=1.0, period=float("inf"))
    return mobile_dflipflop(clock=clock, data=data,
                            output_capacitance=2e-12)[0]


def nand01():
    return mobile_nand(DC(0.0), DC(GateInfo().input_high))[0]


def current_driven_rtd():
    """An RTD with a parallel capacitor, driven by a current pulse."""
    circuit = Circuit("current-driven-rtd")
    circuit.add_current_source(
        "I1", "0", "n1",
        Pulse(0.0, 2e-3, delay=0.2e-9, rise=0.3e-9, fall=0.3e-9,
              width=1e-9, period=3e-9))
    circuit.add_device("X1", "n1", "0", SchulmanRTD(SCHULMAN_INGAAS))
    circuit.add_capacitor("C1", "n1", "0", 0.1e-12)
    circuit.add_resistor("R1", "n1", "0", 2e3)
    return circuit


def march(circuit, opts, t_stop, *, plan):
    engine = SwecTransient(circuit, opts)
    assert engine._stepper._plan is not None
    if not plan:
        engine._stepper._plan = None
    return engine.run(t_stop)


CASES = {
    # eps = 0.2 with dv_limit = 0.5 halves three steps on the edges.
    "fig8_inverter_rejections": (fig8_inverter, options(0.2, 0.5), 5e-9, 3),
    "fig9_flipflop": (fig9_flipflop, options(), 12e-9, 0),
    "nand01": (nand01, options(), 0.3e-9, 0),
    "inverter_predictor_off": (
        fig8_inverter, options(0.05, 0.5, use_predictor=False), 2e-9, 0),
    "current_source": (current_driven_rtd, options(0.05, None), 3e-9, 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_reproduces_the_backend_march_bitwise(name):
    build, opts, t_stop, min_rejected = CASES[name]
    got = march(build(), opts, t_stop, plan=True)
    want = march(build(), opts, t_stop, plan=False)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert got.accepted_steps == want.accepted_steps > 1
    assert got.rejected_steps == want.rejected_steps >= min_rejected
    assert got.step_limits == want.step_limits
    assert got.steps_at_hmin == want.steps_at_hmin
    assert (got.dc_iterations, got.dc_converged) == \
        (want.dc_iterations, want.dc_converged)
    assert got.aborted == want.aborted
    assert got.flops.by_category() == want.flops.by_category()
    for counter in ("factorizations", "linear_solves", "device_evaluations"):
        assert getattr(got.flops, counter) == getattr(want.flops, counter)


def test_plan_aborts_at_max_points_like_the_backend_march():
    opts = options(0.2, 0.5, max_points=40)
    got = march(fig8_inverter(), opts, 5e-9, plan=True)
    want = march(fig8_inverter(), opts, 5e-9, plan=False)
    assert got.aborted and got.abort_reason == want.abort_reason
    assert got.states.tobytes() == want.states.tobytes()
    assert got.flops.by_category() == want.flops.by_category()


@pytest.fixture
def plan_forbidden(monkeypatch):
    """Make any use of the step plan fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the step plan ran")

    monkeypatch.setattr(stepper_module._DenseStepPlan, "stamp", refuse)
    monkeypatch.setattr(stepper_module._DenseStepPlan, "solve", refuse)


INELIGIBLE = {
    "trap": lambda: SwecTransient(fig8_inverter(), options(method="trap")),
    "fallback": lambda: SwecTransient(fig8_inverter(), options(fallback=True)),
    "trace_conductance": lambda: SwecTransient(
        fig8_inverter(), options(trace_conductance=True)),
    "k2": lambda: LinearStepper([fig8_inverter(), fig8_inverter()],
                                options(), default_backend="dense"),
    "sparse": lambda: SwecTransient(fig8_inverter(), options(backend="sparse")),
}


@pytest.mark.parametrize("name", sorted(INELIGIBLE))
def test_ineligible_configurations_keep_the_backend_march(name, plan_forbidden):
    result = INELIGIBLE[name]().run(0.5e-9)
    assert result.accepted_steps > 0


def test_eligible_configuration_takes_the_plan(plan_forbidden):
    with pytest.raises(AssertionError, match="the step plan ran"):
        SwecTransient(fig8_inverter(), options()).run(0.5e-9)


def test_floating_capacitor_keeps_the_backend_march(plan_forbidden):
    # A capacitor between two nodes puts two nonzeros in a row of C;
    # numpy's matmul sums those in its own order, so no plan is built.
    circuit = current_driven_rtd()
    circuit.add_capacitor("Cf", "n1", "n2", 0.05e-12)
    circuit.add_resistor("R2", "n2", "0", 1e3)
    engine = SwecTransient(circuit, options(0.05, None))
    assert engine._stepper._plan is None
    assert np.all(np.isfinite(engine.run(1e-9).states))
