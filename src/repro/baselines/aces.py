"""ACES-style piecewise-linear (PWL) device simulator.

Le, Pileggi and Devgan (ICCAD 2003) replace Newton-Raphson with a
piecewise-linear approximation of each nanodevice's I-V curve; within one
time step every device is a segment conductance plus an offset current
source, so each step is a short sequence of *linear* solves with a segment
consistency check (Katzenelson-style search).

Paper Fig. 3(a) shows the catch: PWL segment slopes are *differential*
conductances, so NDR segments carry negative conductance — workable, but
the segment search can cycle and costs extra solves.  SWEC's chord (Fig.
3(b)) avoids that by construction.  This engine exists to reproduce the
Fig. 8(d) comparison and the Fig. 3 conductance contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.waveforms import TransientResult
from repro.baselines.newton import NewtonOutcome, step_halving_march
from repro.circuit.netlist import Circuit
from repro.errors import SingularMatrixError
from repro.mna.assembler import MnaSystem
from repro.mna.linsolve import LinearSolver
from repro.perf.flops import FlopCounter


class PwlApproximation:
    """Adaptive piecewise-linear fit of a device I-V curve.

    Starts from the interval endpoints and greedily inserts breakpoints
    where the linear interpolation error is largest, until *tolerance*
    (absolute current error) or *max_segments* is reached.
    """

    def __init__(self, device, v_min: float, v_max: float,
                 tolerance: float = None, max_segments: int = 64,
                 probe_points: int = 21) -> None:
        if v_max <= v_min:
            raise ValueError("need v_max > v_min")
        if max_segments < 1:
            raise ValueError("need at least one segment")
        self.device = device
        currents_scale = max(abs(device.current(v_min)),
                             abs(device.current(v_max)), 1e-12)
        self.tolerance = (1e-3 * currents_scale if tolerance is None
                          else tolerance)
        breakpoints = [float(v_min), float(v_max)]
        while len(breakpoints) - 1 < max_segments:
            worst_error = 0.0
            worst_v = None
            for v0, v1 in zip(breakpoints, breakpoints[1:]):
                i0, i1 = device.current(v0), device.current(v1)
                for k in range(1, probe_points - 1):
                    v = v0 + (v1 - v0) * k / (probe_points - 1)
                    interpolated = i0 + (i1 - i0) * (v - v0) / (v1 - v0)
                    error = abs(device.current(v) - interpolated)
                    if error > worst_error:
                        worst_error, worst_v = error, v
            if worst_v is None or worst_error <= self.tolerance:
                break
            breakpoints.append(worst_v)
            breakpoints.sort()
        self.voltages = np.array(breakpoints)
        self.currents = np.array([device.current(v) for v in breakpoints])

    @property
    def num_segments(self) -> int:
        return len(self.voltages) - 1

    def segment_of(self, voltage: float) -> int:
        """Segment index containing *voltage* (clamped at the ends)."""
        k = int(np.searchsorted(self.voltages, voltage, side="right")) - 1
        return min(max(k, 0), self.num_segments - 1)

    def segment_model(self, k: int) -> tuple[float, float]:
        """Return ``(g_k, i_offset)`` with ``i(v) = g_k v + i_offset``."""
        v0, v1 = self.voltages[k], self.voltages[k + 1]
        i0, i1 = self.currents[k], self.currents[k + 1]
        g = (i1 - i0) / (v1 - v0)
        return float(g), float(i0 - g * v0)

    def conductances(self) -> np.ndarray:
        """Differential conductance of every segment (Fig. 3(a) values)."""
        return np.array([self.segment_model(k)[0]
                         for k in range(self.num_segments)])

    def current(self, voltage: float) -> float:
        """PWL-interpolated current (with end-segment extrapolation)."""
        g, offset = self.segment_model(self.segment_of(voltage))
        return g * voltage + offset


@dataclass
class AcesOptions:
    """ACES engine tunables."""

    #: PWL fit window applied to every device.
    v_min: float = -1.0
    v_max: float = 6.0
    max_segments: int = 64
    pwl_tolerance: float | None = None
    #: Katzenelson search bound per time step.
    max_segment_iterations: int = 60
    h_initial: float | None = None
    max_step_reductions: int = 10
    growth_factor: float = 2.0


class AcesTransient:
    """Backward-Euler transient over PWL device models."""

    def __init__(self, circuit: Circuit,
                 options: AcesOptions | None = None) -> None:
        self.circuit = circuit
        self.options = options or AcesOptions()
        self.system = MnaSystem(circuit)
        self._g_base = self.system.conductance_base()
        self._terminals = self.system.device_terminals()
        self._mosfet_terminals = self.system.mosfet_terminals()
        opts = self.options
        self.approximations = [
            PwlApproximation(device, opts.v_min, opts.v_max,
                             tolerance=opts.pwl_tolerance,
                             max_segments=opts.max_segments)
            for device in circuit.devices
        ]
        #: Total segment-search iterations across the run (cost metric).
        self.segment_iterations = 0

    # ------------------------------------------------------------------

    def _segments(self, x: np.ndarray) -> list[int]:
        """The PWL segment each device's branch voltage lies in."""
        segments = []
        for approx, (anode, cathode) in zip(self.approximations,
                                            self._terminals):
            va = x[anode] if anode >= 0 else 0.0
            vc = x[cathode] if cathode >= 0 else 0.0
            segments.append(approx.segment_of(va - vc))
        return segments

    def _solve_with_segments(self, segments: list[int], x: np.ndarray,
                             b: np.ndarray, c_over_h: np.ndarray,
                             flops: FlopCounter) -> np.ndarray:
        """One linear solve with fixed PWL segments + MOSFET companions."""
        matrix = self._g_base + c_over_h
        rhs = b + c_over_h @ x
        for k, (anode, cathode) in enumerate(self._terminals):
            g, offset = self.approximations[k].segment_model(segments[k])
            self.system.stamp_conductance(matrix, anode, cathode, g)
            self.system.stamp_current(rhs, anode, cathode, offset)
        for (drain, gate, source), mosfet in zip(self._mosfet_terminals,
                                                 self.circuit.mosfets):
            vd = x[drain] if drain >= 0 else 0.0
            vg = x[gate] if gate >= 0 else 0.0
            vs = x[source] if source >= 0 else 0.0
            ids = mosfet.current(vg - vs, vd - vs)
            gm, gds = mosfet.partials(vg - vs, vd - vs)
            flops.count_device_eval("mosfet")
            self.system.stamp_conductance(matrix, drain, source, gds)
            self.system.stamp_transconductance(matrix, drain, source,
                                               gate, source, gm)
            equivalent = ids - gm * (vg - vs) - gds * (vd - vs)
            self.system.stamp_current(rhs, drain, source, equivalent)
        solver = LinearSolver(flops)
        solver.factor(matrix)
        return solver.solve(rhs)

    def _step(self, x: np.ndarray, b: np.ndarray, c_over_h: np.ndarray,
              flops: FlopCounter) -> NewtonOutcome:
        """Katzenelson-style segment search for one time step.

        The outcome's ``iterations`` counts its linear solves; a singular
        system fails the step.
        """
        segments = self._segments(x)
        for iteration in range(1, self.options.max_segment_iterations + 1):
            self.segment_iterations += 1
            try:
                x_new = self._solve_with_segments(segments, x, b, c_over_h,
                                                  flops)
            except SingularMatrixError:
                return NewtonOutcome(x=x, iterations=iteration,
                                     converged=False)
            new_segments = self._segments(x_new)
            if new_segments == segments:
                return NewtonOutcome(x=x_new, iterations=iteration,
                                     converged=True)
            # Move each assumption one segment toward the solution to
            # avoid ping-ponging across an NDR region.
            segments = [
                s + int(np.sign(ns - s)) if ns != s else s
                for s, ns in zip(segments, new_segments)
            ]
            x = x_new
        return NewtonOutcome(x=x, iterations=self.options.max_segment_iterations,
                             converged=False)

    # ------------------------------------------------------------------

    def run(self, t_stop: float, h: float | None = None,
            initial_state: np.ndarray | None = None) -> TransientResult:
        """Simulate ``[0, t_stop]`` from the zero state (capacitor
        initial voltages honoured).  No Newton iteration counts are
        booked; :attr:`segment_iterations` holds the search's cost."""
        result = TransientResult(self.circuit.nodes, engine="aces")

        def attempt(x, b, c_over_h):
            return self._step(x, b, c_over_h, result.flops)

        return step_halving_march(
            result, self.system, self.options, t_stop, h, initial_state,
            self.system.initial_state, attempt,
            "segment search failed to settle at t={t:.4g}",
            count_iterations=False)
