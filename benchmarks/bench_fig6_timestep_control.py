"""Fig. 6 / eqs. 10-12 regenerator: adaptive time-step behaviour.

Fig. 6 introduces the inverter RC model behind the step bounds.  The
reproducible artefact is the *behaviour*: the step size tracks the input
slope constraint ``3 eps |V|/alpha`` during edges and the node-RC bound
``eps C/G`` while the node charges, and the error actually stays near
the requested ``eps``.  The node-RC bound is motion-weighted (see
``repro.swec.timestep``): once the node has nearly settled, the step
grows past ``eps C/G``.
"""

import math

import numpy as np
import pytest

from conftest import print_series
from repro.circuit import Circuit, Pulse
from repro.swec import SwecOptions, SwecTransient
from repro.swec.timestep import StepControlOptions


def _rc():
    circuit = Circuit("fig6-rc")
    circuit.add_voltage_source(
        "Vin", "in", "0",
        Pulse(0.0, 1.0, delay=1e-9, rise=0.1e-9, fall=0.1e-9, width=4e-9,
              period=20e-9))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-12)
    return circuit


def _run(epsilon):
    engine = SwecTransient(_rc(), SwecOptions(
        step=StepControlOptions(epsilon=epsilon, h_min=1e-14,
                                h_max=1e-9, h_initial=1e-13)))
    return engine.run(8e-9)


def test_fig6_step_size_tracks_constraints(benchmark):
    result = benchmark(_run, 0.02)
    times = result.times[:-1]
    steps = result.step_sizes()
    print_series("Fig 6: accepted step size along the run",
                 {"t": times, "h": steps})
    edge = steps[(times >= 1.0e-9) & (times < 1.1e-9)]
    plateau = steps[(times > 1.5e-9) & (times < 3.5e-9)]
    settled = steps[(times > 4e-9) & (times < 5e-9)]
    # while `out` charges (input on its plateau), steps are governed by
    # eps*C/G = 0.02 * 1e-12/1e-3 = 20 ps
    assert plateau.mean() == pytest.approx(20e-12, rel=0.3)
    # edge steps governed by the slope bound -> much smaller
    assert edge.mean() < 0.5 * plateau.mean()
    # past ~3 tau `out` moves less than THETA*eps*|V| per step, so the
    # motion-weighted node-RC bound lets the step grow
    assert settled.mean() > 1.3 * plateau.mean()


def test_fig6_error_scales_with_epsilon():
    """Halving eps halves the observed error against the analytic RC
    response (first-order local error control)."""
    tau = 1e-9
    t_rise = 0.1e-9

    def exact(t):
        if t <= 1e-9:
            return 0.0
        if t <= 1e-9 + t_rise:
            # response to the finite ramp
            s = t - 1e-9
            return (s - tau * (1.0 - math.exp(-s / tau))) / t_rise
        s = t - 1e-9 - t_rise
        v_ramp_end = (t_rise - tau * (1.0 - math.exp(-t_rise / tau))) / t_rise
        return 1.0 + (v_ramp_end - 1.0) * math.exp(-s / tau)

    errors = {}
    for epsilon in (0.08, 0.02):
        result = _run(epsilon)
        grid = np.linspace(1.1e-9, 4e-9, 80)
        numeric = result.resample(grid, "out")
        analytic = np.array([exact(float(t)) for t in grid])
        errors[epsilon] = float(np.max(np.abs(numeric - analytic)))
    print(f"\n=== Fig 6: max error by eps: {errors} ===")
    assert errors[0.02] < errors[0.08]
