"""Numeric and counter pins for the SPICE, MLA and ACES baselines.

The baselines back the paper's comparisons: SPICE-style Newton-Raphson
the Fig. 8(c) non-convergence and the headline speedup, MLA (Bhattacharya
& Mazumder) Table I, and ACES PWL (Le, Pileggi & Devgan) Figs. 3 and
8(d).  Their transient marches share one backward-Euler step-halving
loop; these pins hold what a rewrite of that loop must not move:

* the accept path of each engine (the RC pulse, the Fig. 8 inverter and
  the MOBILE-latch false convergence under SPICE, the RTD-divider pulse
  under MLA and ACES);
* each engine's halving and regrowth, forced by a short iteration or
  segment-search bound that rejects some steps without aborting;
* each engine's failure branch, forced by a tight budget: SPICE aborting
  at its first failed step (``max_consecutive_failures=1``) and
  accepting non-converged iterates until a budget of three runs out,
  MLA aborting when a one-iteration Newton solve may not halve its step,
  and ACES aborting when a one-solve segment search may not halve its
  step.

Each pin keeps the point count, the final state, the time sum of the
states (a checksum of the whole trajectory), the final time and the
sum of the times to ``RTOL`` of each array's scale, and every integer
counter, the per-point Newton iteration counts, the Table-I flop
categories, the abort flag and reason and ACES's segment-search count
exactly.  ``baseline_pins.expected.json`` is regenerated with
``pytest --update-golden`` only for a change meant to move the numbers.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.baselines import AcesTransient, MlaTransient, SpiceTransient
from repro.baselines.aces import AcesOptions
from repro.baselines.mla import MlaOptions
from repro.analysis.waveforms import TransientResult
from repro.baselines.newton import (
    NewtonOptions,
    NewtonOutcome,
    step_halving_march,
)
from repro.baselines.spice import SpiceOptions
from repro.circuit import DC, Circuit, Pulse
from repro.circuits_lib import fet_rtd_inverter, mobile_dflipflop, rtd_divider
from repro.mna import MnaSystem

PINS = Path(__file__).with_name("baseline_pins.expected.json")

#: Float pins hold to this fraction of each array's largest magnitude.
RTOL = 1e-9


def _floats(array) -> list:
    return np.asarray(array, dtype=float).tolist()


def _payload(result, segment_iterations: int | None = None) -> dict:
    payload = {
        "points": len(result.times),
        "final_state": _floats(result.states[-1]),
        "summed_states": _floats(result.states.sum(axis=0)),
        "final_time": float(result.times[-1]),
        "summed_times": float(np.sum(result.times)),
        "accepted_steps": result.accepted_steps,
        "rejected_steps": result.rejected_steps,
        "convergence_failures": result.convergence_failures,
        "iteration_counts": list(result.iteration_counts),
        "flops": result.flops.by_category(),
        "device_evaluations": result.flops.device_evaluations,
        "factorizations": result.flops.factorizations,
        "linear_solves": result.flops.linear_solves,
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
    }
    if segment_iterations is not None:
        payload["segment_iterations"] = segment_iterations
    return payload


def _pin(golden_json, key: str, payload: dict) -> None:
    golden_json(PINS, payload, rtol=RTOL, key=key)


def _rc_pulse() -> Circuit:
    circuit = Circuit("rc-lowpass")
    circuit.add_voltage_source(
        "Vin", "in", "0",
        Pulse(0.0, 1.0, delay=1e-9, rise=0.01e-9, fall=0.01e-9,
              width=20e-9, period=50e-9))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


def _fig8_inverter() -> Circuit:
    vin = Pulse(0.0, 5.0, delay=1e-9, rise=0.3e-9, fall=0.3e-9,
                width=4e-9, period=10e-9)
    return fet_rtd_inverter(vin=vin)[0]


def _mobile_latch() -> Circuit:
    clock = Pulse(0.0, 1.15, delay=2e-9, rise=0.2e-9, fall=0.2e-9,
                  width=4.8e-9, period=10e-9)
    return mobile_dflipflop(clock=clock, data=DC(0.0))[0]


def _divider_pulse(amplitude: float = 1.0) -> Circuit:
    circuit, info = rtd_divider(resistance=10.0)
    circuit.voltage_sources[0].waveform = Pulse(
        0.0, amplitude, delay=0.2e-9, rise=0.1e-9, fall=0.1e-9, width=1e-9,
        period=4e-9)
    circuit.add_capacitor("Cp", info.device_node, "0", 1e-12)
    return circuit


ONE_ITERATION = NewtonOptions(max_iterations=1)


# ---------------------------------------------------------------------------
# SPICE


SPICE_RUNS = {
    "spice-rc-pulse": (_rc_pulse, SpiceOptions(h_initial=0.02e-9), 8e-9),
    "spice-fig8-inverter": (_fig8_inverter, SpiceOptions(h_initial=0.1e-9),
                            10e-9),
    "spice-mobile-latch": (_mobile_latch, SpiceOptions(h_initial=0.5e-9),
                           8e-9),
    "spice-halve-and-regrow": (
        _divider_pulse,
        SpiceOptions(h_initial=0.1e-9,
                     newton=NewtonOptions(max_iterations=3)), 2e-9),
    "spice-abort-first-failure": (
        _divider_pulse,
        SpiceOptions(h_initial=0.02e-9, max_consecutive_failures=1,
                     newton=ONE_ITERATION), 2e-9),
    "spice-accept-nonconverged": (
        _divider_pulse,
        SpiceOptions(h_initial=0.02e-9, max_consecutive_failures=3,
                     newton=ONE_ITERATION), 2e-9),
}


@pytest.mark.parametrize("key", sorted(SPICE_RUNS))
def test_spice_march_is_pinned(golden_json, key):
    build, options, t_stop = SPICE_RUNS[key]
    result = SpiceTransient(build(), options).run(t_stop)
    _pin(golden_json, key, _payload(result))


def test_spice_budget_one_aborts_at_first_failed_step():
    build, options, t_stop = SPICE_RUNS["spice-abort-first-failure"]
    result = SpiceTransient(build(), options).run(t_stop)
    assert result.aborted
    assert result.abort_reason.startswith("NR failed to converge at t=")
    # one failed step: every halving of it was rejected, none accepted
    assert result.rejected_steps == options.max_step_reductions + 1
    assert result.times[-1] < t_stop


def test_spice_accepts_nonconverged_iterates_until_budget():
    build, options, t_stop = SPICE_RUNS["spice-accept-nonconverged"]
    budget_one = SPICE_RUNS["spice-abort-first-failure"]
    first = SpiceTransient(budget_one[0](), budget_one[1]).run(t_stop)
    result = SpiceTransient(build(), options).run(t_stop)
    assert result.aborted
    # three failed steps; the first two were accepted non-converged
    assert result.rejected_steps == 3 * (options.max_step_reductions + 1)
    assert result.accepted_steps == first.accepted_steps + 2
    assert len(result.iteration_counts) == len(result.times)


def test_nonconverged_iterates_are_stamped_where_they_were_solved():
    """A step that fails every halving is accepted at ``t`` plus the
    last step tried, the step its iterate solved for.  The march used
    to stamp it at ``t + max(step, h_min)`` with the step already halved
    once more: half the step tried, and past ``t_stop`` once less than
    ``h_min`` was left."""
    circuit = Circuit("ramp-rc")
    circuit.add_voltage_source(
        "Vin", "in", "0", Pulse(0.0, 1.0, delay=0.0, rise=2e-9, width=1.0))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    system = MnaSystem(circuit)

    def attempt(x, b, c_over_h):
        # The iterate is the source vector it solved for: a ramp, so it
        # names the time it belongs to.
        return NewtonOutcome(x=b.copy(), iterations=1, converged=False)

    t_stop = 1e-9
    result = step_halving_march(
        TransientResult(circuit.nodes, engine="spice"), system,
        SpiceOptions(h_initial=0.25e-9, max_step_reductions=2), t_stop,
        None, np.zeros(system.size), None, attempt, "failed at t={t:.4g}",
        max_failures=1000)
    assert not result.aborted
    assert result.accepted_steps > 1
    for t, state in zip(result.times[1:], result.states[1:]):
        assert state.tobytes() == system.source_vector(t).tobytes()
    assert result.times[-1] <= t_stop


def test_spice_accept_path_never_fails():
    for key in ("spice-rc-pulse", "spice-fig8-inverter",
                "spice-mobile-latch"):
        build, options, t_stop = SPICE_RUNS[key]
        result = SpiceTransient(build(), options).run(t_stop)
        assert not result.aborted
        assert result.convergence_failures == 0
        assert result.times[-1] == pytest.approx(t_stop)


# ---------------------------------------------------------------------------
# MLA


MLA_RUNS = {
    "mla-divider-pulse": MlaOptions(h_initial=0.02e-9),
    "mla-halve-and-regrow": MlaOptions(
        h_initial=0.1e-9, newton=NewtonOptions(max_iterations=4)),
    "mla-abort-no-reduction": MlaOptions(
        h_initial=0.02e-9, max_step_reductions=0, newton=ONE_ITERATION),
}


@pytest.mark.parametrize("key", sorted(MLA_RUNS))
def test_mla_march_is_pinned(golden_json, key):
    amplitude = 2.0 if key == "mla-halve-and-regrow" else 1.0
    result = MlaTransient(_divider_pulse(amplitude), MLA_RUNS[key]).run(2e-9)
    _pin(golden_json, key, _payload(result))


def test_mla_aborts_at_first_failed_step():
    result = MlaTransient(_divider_pulse(),
                          MLA_RUNS["mla-abort-no-reduction"]).run(2e-9)
    assert result.aborted
    assert result.abort_reason.startswith("MLA NR failed at t=")
    assert result.rejected_steps == 1
    assert result.convergence_failures == 1
    assert result.accepted_steps > 0


# ---------------------------------------------------------------------------
# ACES


#: Without ``max_step_reductions=0`` a one-solve segment search halves
#: its step toward a segment boundary until the march stalls, so the
#: forced abort also forbids halving.
ACES_RUNS = {
    "aces-divider-pulse": AcesOptions(v_min=-0.5, v_max=3.0,
                                      h_initial=0.02e-9),
    "aces-halve-and-regrow": AcesOptions(
        v_min=-0.5, v_max=3.0, h_initial=0.1e-9, max_segment_iterations=3),
    "aces-abort-one-segment-solve": AcesOptions(
        v_min=-0.5, v_max=3.0, h_initial=0.02e-9,
        max_segment_iterations=1, max_step_reductions=0),
}


def _aces_run(key: str):
    amplitude = 2.0 if key == "aces-halve-and-regrow" else 1.0
    engine = AcesTransient(_divider_pulse(amplitude), ACES_RUNS[key])
    return engine.run(2e-9), engine.segment_iterations


@pytest.mark.parametrize("key", sorted(ACES_RUNS))
def test_aces_march_is_pinned(golden_json, key):
    result, segment_iterations = _aces_run(key)
    _pin(golden_json, key, _payload(result, segment_iterations))


def test_aces_records_no_newton_iterations():
    result, segment_iterations = _aces_run("aces-divider-pulse")
    assert not result.aborted
    assert result.iteration_counts == []
    assert segment_iterations > result.accepted_steps


def test_aces_aborts_when_segment_search_cannot_settle():
    result, _ = _aces_run("aces-abort-one-segment-solve")
    assert result.aborted
    assert result.abort_reason.startswith(
        "segment search failed to settle at t=")
    assert result.rejected_steps == 1
    assert result.iteration_counts == []


def test_aces_step_floor_aborts_a_search_that_never_settles():
    """A one-solve segment search on the divider pulse fails at every
    halving.  The march's step floor (1e-6 of the base step) turns that
    into an aborted result; without it the step halved until
    ``t + step == t`` and recording the point raised."""
    options = AcesOptions(v_min=-0.5, v_max=3.0, h_initial=0.02e-9,
                          max_segment_iterations=1)
    result = AcesTransient(_divider_pulse(1.0), options).run(2e-9)
    assert result.aborted
    assert result.abort_reason.startswith(
        "segment search failed to settle at t=")
    assert np.all(np.diff(result.times) > 0.0)
    assert result.times[-1] < 2e-9


# ---------------------------------------------------------------------------
# All three


def test_halving_runs_reject_steps_and_finish():
    build, options, t_stop = SPICE_RUNS["spice-halve-and-regrow"]
    results = [
        SpiceTransient(build(), options).run(t_stop),
        MlaTransient(_divider_pulse(2.0),
                     MLA_RUNS["mla-halve-and-regrow"]).run(2e-9),
        _aces_run("aces-halve-and-regrow")[0],
    ]
    for result in results:
        assert not result.aborted
        assert result.rejected_steps > 0
        assert result.convergence_failures == result.rejected_steps
        assert result.times[-1] == pytest.approx(t_stop)
