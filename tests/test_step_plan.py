"""The K = 1 step plan against the backend march it replaces.

:class:`~repro.core.stepper.LinearStepper` compiles a step plan for the
classic single-circuit dense march and runs it in place of the
backend's stamp, diagonal and solve, in both marching modes (``run``
and ``run_grid``).  The plan must reproduce that march bitwise: every
time, state, step count, step limit, DC field and flop category.
Setting the stepper's private ``_plan`` to None forces the backend
march for the reference run.
"""

import numpy as np
import pytest

from repro.circuit import DC, Circuit, Pulse
from repro.circuits_lib import (
    fet_rtd_inverter,
    mobile_dflipflop,
    rtd_relaxation_oscillator,
)
from repro.circuits_lib.logic_gates import GateInfo, mobile_nand
from repro.core import stepper as stepper_module
from repro.circuit.parser import parse_netlist
from repro.core.stepper import LinearStepper
from repro.devices import SCHULMAN_INGAAS, SchulmanRTD
from repro.devices.base import TwoTerminalDevice
from repro.errors import SingularMatrixError
from repro.stochastic import path_normals
from repro.swec import SwecDC, SwecOptions, SwecTransient
from repro.swec.dc import SwecDCOptions
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


def march(circuit, opts, span, *, plan):
    """``run(span)``, or ``run_grid(span)`` when *span* is a grid."""
    engine = SwecTransient(circuit, opts)
    assert engine._stepper._plan is not None
    if not plan:
        engine._stepper._plan = None
    if np.ndim(span):
        return engine.run_grid(span)
    return engine.run(span)


def assert_bitwise(got, want):
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert got.accepted_steps == want.accepted_steps > 1
    assert got.rejected_steps == want.rejected_steps
    assert got.step_limits == want.step_limits
    assert got.steps_at_hmin == want.steps_at_hmin
    assert (got.dc_iterations, got.dc_converged) == \
        (want.dc_iterations, want.dc_converged)
    assert got.aborted == want.aborted
    assert got.flops.by_category() == want.flops.by_category()
    for counter in ("factorizations", "linear_solves", "device_evaluations"):
        assert getattr(got.flops, counter) == getattr(want.flops, counter)


def assert_grid_march(result, times):
    """A grid march takes exactly the grid's steps and records no
    step limits."""
    assert result.times.tobytes() == times.tobytes()
    assert result.accepted_steps == times.size - 1
    assert result.rejected_steps == 0
    assert result.step_limits == {}
    assert result.steps_at_hmin == 0
    assert not result.aborted


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
    assert_bitwise(got, want)
    assert got.rejected_steps >= min_rejected


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_plan_reproduces_the_backend_grid_march_bitwise(name):
    # The grid is the adaptive run's own time points.
    build, opts, t_stop, _ = CASES[name]
    times = march(build(), opts, t_stop, plan=True).times
    got = march(build(), opts, times, plan=True)
    want = march(build(), opts, times, plan=False)
    assert_bitwise(got, want)
    assert_grid_march(got, times)


def test_grid_plan_reproduces_the_oscillator_bitwise():
    # The RTD relaxation oscillator on the uniform grid of a PSS
    # shooting march (400 steps per period), from the zero state.
    circuit, info = rtd_relaxation_oscillator()
    times = np.linspace(0.0, 2.0 * info.period_guess, 801)
    opts = SwecOptions(initialize_dc=False)
    got = march(circuit, opts, times, plan=True)
    want = march(rtd_relaxation_oscillator()[0], opts, times, plan=False)
    assert_bitwise(got, want)
    assert_grid_march(got, times)
    out = got.voltage("out")
    assert out.max() - out.min() > 0.5


@pytest.mark.parametrize("plan", [True, False], ids=["plan", "backend"])
def test_grid_march_ignores_dv_limit_and_max_points(plan):
    times = np.linspace(0.0, 2e-9, 101)
    loose = march(fig8_inverter(), options(0.2, None), times, plan=plan)
    tight = march(fig8_inverter(), options(0.2, 1e-6, max_points=5), times,
                  plan=plan)
    assert_grid_march(tight, times)
    assert tight.states.tobytes() == loose.states.tobytes()


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
    "noise": lambda: LinearStepper([fig8_inverter()], options(),
                                   noise=[("out", 1e-9)],
                                   default_backend="dense"),
}

GRID = np.linspace(0.0, 0.5e-9, 26)


@pytest.mark.parametrize("name", sorted(INELIGIBLE))
def test_ineligible_configurations_keep_the_backend_march(name, plan_forbidden):
    engine = INELIGIBLE[name]()
    if getattr(engine, "num_noises", 0):
        # Noise needs the fixed grid, so only run_grid applies.
        normals = path_normals(np.random.SeedSequence(0).spawn(1),
                               GRID.size - 1, 1)
        result = engine.run_grid(GRID, normals=normals)
    else:
        assert engine.run(0.5e-9).accepted_steps > 0
        result = engine.run_grid(GRID)
    assert result.accepted_steps == GRID.size - 1


def test_eligible_configuration_takes_the_plan(plan_forbidden):
    engine = SwecTransient(fig8_inverter(), options())
    with pytest.raises(AssertionError, match="the step plan ran"):
        engine.run(0.5e-9)
    with pytest.raises(AssertionError, match="the step plan ran"):
        engine.run_grid(GRID)


def test_floating_capacitor_keeps_the_backend_march(plan_forbidden):
    # A capacitor between two nodes puts two nonzeros in a row of C;
    # numpy's matmul sums those in its own order, so no plan is built.
    circuit = current_driven_rtd()
    circuit.add_capacitor("Cf", "n1", "n2", 0.05e-12)
    circuit.add_resistor("R2", "n2", "0", 1e3)
    engine = SwecTransient(circuit, options(0.05, None))
    assert engine._stepper._plan is None
    assert np.all(np.isfinite(engine.run(1e-9).states))


# A DC-driven series resistor and RTD: the DC start takes several chord
# iterations, and with no capacitor the march is short, so the start is
# a large share of the run (the sweep point of perfbench sweep_cached).
DIVIDER_NETLIST = """* RTD divider
.param rser=37.5
.model paper RTD
Vs in 0 0.6
R1 in out {rser}
X1 out 0 paper
.end
"""


def divider():
    return parse_netlist(DIVIDER_NETLIST)


DIVIDER_OPTIONS = SwecOptions(step=StepControlOptions(
    epsilon=0.05, h_min=1e-13, h_max=5e-11, h_initial=1e-12))


@pytest.mark.parametrize("mode", ["run", "run_grid"])
def test_plan_dc_start_reproduces_the_backend_start_bitwise(mode):
    span = 2e-9
    if mode == "run_grid":
        span = march(divider(), DIVIDER_OPTIONS, span, plan=True).times
    got = march(divider(), DIVIDER_OPTIONS, span, plan=True)
    want = march(divider(), DIVIDER_OPTIONS, span, plan=False)
    assert got.dc_iterations > 2 and got.dc_converged
    assert_bitwise(got, want)


def test_dc_start_runs_on_the_plan(monkeypatch):
    calls = []
    original = stepper_module._DenseStepPlan.chord_solve

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(stepper_module._DenseStepPlan, "chord_solve",
                        counted)
    result = SwecTransient(divider(), DIVIDER_OPTIONS).run(2e-9)
    assert len(calls) == result.dc_iterations


@pytest.mark.parametrize("mode", ["fixed_point", "stepwise"])
def test_plan_dc_sweep_reproduces_the_backend_sweep_bitwise(mode):
    values = np.linspace(0.0, 1.2, 13)
    results = []
    for plan in (True, False):
        dc = SwecDC(divider(), SwecDCOptions(mode=mode, stepwise_solves=2))
        assert dc._stepper._plan is not None
        if not plan:
            dc._stepper._plan = None
        results.append(dc.sweep("Vs", values))
    got, want = results
    assert got.states.tobytes() == want.states.tobytes()
    assert got.iteration_counts == want.iteration_counts
    assert got.converged_flags == want.converged_flags
    assert got.flops.by_category() == want.flops.by_category()
    for counter in ("factorizations", "linear_solves", "device_evaluations"):
        assert getattr(got.flops, counter) == getattr(want.flops, counter)


class _NanAbove(TwoTerminalDevice):
    """A resistor-like device whose law returns NaN above 0.5 V."""

    def current(self, voltage):
        return float("nan") if voltage > 0.5 else 1e-3 * voltage


def nan_chord_circuit():
    circuit = Circuit("nan-chord")
    circuit.add_voltage_source(
        "V1", "in", "0",
        Pulse(0.0, 1.0, delay=0.1e-9, rise=0.2e-9, width=1e-9))
    circuit.add_resistor("R1", "in", "out", 10.0)
    circuit.add_device("X1", "out", "0", _NanAbove())
    circuit.add_capacitor("C1", "out", "0", 1e-13)
    return circuit


def floating_circuit():
    """R2 hangs between two nodes with no path to ground: ``G`` and
    ``C/h + G`` are singular."""
    circuit = Circuit("floating")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    circuit.add_resistor("R2", "a", "b", 1e3)
    return circuit


@pytest.mark.parametrize("build,initialize_dc,message", [
    (nan_chord_circuit, True, "matrix contains non-finite entries"),
    (floating_circuit, True,
     "MNA matrix is singular (floating node or short loop?)"),
    (floating_circuit, False,
     "MNA matrix is singular (floating node or short loop?)"),
], ids=["nan-chord", "singular-dc", "singular-step"])
def test_plan_failures_raise_the_backend_messages(build, initialize_dc,
                                                  message):
    opts = options(0.05, None, initialize_dc=initialize_dc)
    messages = []
    for plan in (True, False):
        with pytest.raises(SingularMatrixError) as failure:
            march(build(), opts, 2e-9, plan=plan)
        messages.append(str(failure.value))
    assert messages == [message, message]
