"""Modified Limiting Algorithm (MLA) baseline.

Re-implementation of the SPICE augmentation of Bhattacharya & Mazumder
(IEEE TCAD 2001) for circuits containing resonant tunneling diodes — the
comparator of the paper's Fig. 7 and Table I.  Two augmentations on top of
plain Newton-Raphson:

**RTD region-aware voltage limiting.**  The RTD I-V curve splits into
PDR1 / NDR / PDR2 at the peak and valley voltages.  A raw Newton update
that hops across a whole region is what produces the Fig. 2 oscillation,
so the limiter scales the update vector such that no RTD branch voltage
crosses more than one region boundary per iteration (and never by more
than a region width).

**Current/source stepping.**  When a limited Newton solve still fails, the
source value is approached through adaptively bisected sub-steps, each
warm-started from the last converged solution.

Both rescue mechanisms cost Newton iterations — that is exactly the flop
gap Table I reports against SWEC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.dcsweep import DCSweepResult
from repro.analysis.waveforms import TransientResult
from repro.circuit.netlist import Circuit
from repro.devices.rtd import SchulmanRTD
from repro.errors import AnalysisError
from repro.mna.assembler import MnaSystem
from repro.baselines.newton import (
    CompanionAssembler,
    NewtonOptions,
    newton_solve,
    step_halving_march,
)


@dataclass
class MlaOptions:
    """MLA engine tunables."""

    newton: NewtonOptions = field(default_factory=NewtonOptions)
    #: Fraction of a region width an update may penetrate past a boundary.
    boundary_overshoot: float = 0.10
    #: Maximum recursion depth of source sub-stepping (2^depth sub-steps).
    max_substep_depth: int = 8
    #: Transient step controls (mirrors the SPICE baseline).
    h_initial: float | None = None
    h_min_factor: float = 1e-6
    max_step_reductions: int = 12
    growth_factor: float = 2.0


class RtdRegionLimiter:
    """Scales Newton updates so RTD voltages respect region boundaries."""

    def __init__(self, system: MnaSystem,
                 boundary_overshoot: float = 0.10) -> None:
        self.system = system
        self.overshoot = boundary_overshoot
        self._limited: list[tuple[tuple[int, int], tuple[float, float]]] = []
        for (terminals, device) in zip(system.device_terminals(),
                                       system.circuit.devices):
            model = device.model
            if isinstance(model, SchulmanRTD):
                try:
                    v_peak, v_valley = model.ndr_region()
                except ValueError:
                    continue
                self._limited.append((terminals, (v_peak, v_valley)))

    @staticmethod
    def _branch(x: np.ndarray, terminals: tuple[int, int]) -> float:
        anode, cathode = terminals
        va = x[anode] if anode >= 0 else 0.0
        vc = x[cathode] if cathode >= 0 else 0.0
        return va - vc

    def _allowed_delta(self, v: float, dv: float,
                       region: tuple[float, float]) -> float:
        """Largest |update| keeping the move within one boundary hop."""
        v_peak, v_valley = region
        width = v_valley - v_peak
        margin = self.overshoot * width
        boundaries = sorted((v_peak, v_valley))
        if dv > 0.0:
            ahead = [b for b in boundaries if b > v + 1e-15]
            limit = (ahead[0] - v) + margin if ahead else width
        else:
            behind = [b for b in boundaries if b < v - 1e-15]
            limit = (v - behind[-1]) + margin if behind else width
        return max(limit, margin)

    def __call__(self, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
        scale = 1.0
        for terminals, region in self._limited:
            v = self._branch(x, terminals)
            dv = self._branch(dx, terminals)
            if dv == 0.0:
                continue
            allowed = self._allowed_delta(v, dv, region)
            if abs(dv) > allowed:
                scale = min(scale, allowed / abs(dv))
        return dx if scale >= 1.0 else dx * scale


class MlaDC:
    """DC sweep with RTD limiting and source sub-stepping."""

    def __init__(self, circuit: Circuit,
                 options: MlaOptions | None = None) -> None:
        self.circuit = circuit
        self.options = options or MlaOptions()
        self.system = MnaSystem(circuit)
        self.limiter = RtdRegionLimiter(self.system,
                                        self.options.boundary_overshoot)

    def _solve_value(self, assembler: CompanionAssembler, x: np.ndarray,
                     row: int, v_from: float, v_to: float,
                     result: DCSweepResult, depth: int = 0):
        """Solve at ``v_to``, recursively sub-stepping from ``v_from``."""
        b = self.system.source_vector(0.0)
        b[row] = v_to
        outcome = newton_solve(assembler, x, b, self.options.newton,
                               flops=result.flops, limiter=self.limiter)
        iterations = outcome.iterations
        if outcome.converged:
            return outcome.x, iterations, True
        if depth >= self.options.max_substep_depth:
            return outcome.x, iterations, False
        midpoint = 0.5 * (v_from + v_to)
        x_mid, it_mid, ok_mid = self._solve_value(
            assembler, x, row, v_from, midpoint, result, depth + 1)
        iterations += it_mid
        if not ok_mid:
            return x_mid, iterations, False
        x_end, it_end, ok_end = self._solve_value(
            assembler, x_mid, row, midpoint, v_to, result, depth + 1)
        return x_end, iterations + it_end, ok_end

    def sweep(self, source_name: str, values) -> DCSweepResult:
        """Sweep *source_name* through *values* (voltage sources only)."""
        values = [float(v) for v in values]
        if not values:
            raise AnalysisError("sweep needs at least one value")
        result = DCSweepResult(self.circuit.nodes, source_name, engine="mla")
        assembler = CompanionAssembler(self.system, flops=result.flops)
        row = self.system.vsource_index(source_name)
        x = self.system.initial_state()
        previous = 0.0
        for value in values:
            x_new, iterations, converged = self._solve_value(
                assembler, x, row, previous, value, result)
            if converged:
                x = x_new
                previous = value
            result.append(value, x_new, iterations, converged)
        return result

    def device_currents(self, result: DCSweepResult,
                        device_name: str) -> np.ndarray:
        """Current through a named device at every sweep point."""
        device, voltages = self.system.device_branch(device_name,
                                                     result.states)
        return np.array([device.current(v) for v in voltages])

    def device_voltages(self, result: DCSweepResult,
                        device_name: str) -> np.ndarray:
        """Branch voltage of a named device at every sweep point."""
        return self.system.device_branch(device_name, result.states)[1]


class MlaTransient:
    """Backward-Euler transient with RTD limiting and step reduction."""

    def __init__(self, circuit: Circuit,
                 options: MlaOptions | None = None) -> None:
        self.circuit = circuit
        self.options = options or MlaOptions()
        self.system = MnaSystem(circuit)
        self.limiter = RtdRegionLimiter(self.system,
                                        self.options.boundary_overshoot)

    def run(self, t_stop: float, h: float | None = None,
            initial_state: np.ndarray | None = None) -> TransientResult:
        """Simulate ``[0, t_stop]``."""
        opts = self.options
        system = self.system
        result = TransientResult(self.circuit.nodes, engine="mla")
        assembler = CompanionAssembler(system, flops=result.flops)

        def dc_start():
            outcome = newton_solve(assembler, system.initial_state(),
                                   system.source_vector(0.0), opts.newton,
                                   flops=result.flops, limiter=self.limiter)
            result.iteration_counts.append(outcome.iterations)
            if not outcome.converged:
                result.convergence_failures += 1
            return outcome.x

        def attempt(x, b, c_over_h):
            return newton_solve(assembler, x, b, opts.newton,
                                c_over_h=c_over_h, x_prev=x,
                                flops=result.flops, limiter=self.limiter)

        return step_halving_march(
            result, system, opts, t_stop, h, initial_state, dc_start, attempt,
            "MLA NR failed at t={t:.4g} at minimum step",
            h_min_factor=opts.h_min_factor)
