"""SWEC DC analysis: chord-conductance fixed point with continuation.

The paper's Section 5.1 sweeps a voltage divider (resistor + RTD) and plots
the device I-V, including the NDR branch.  At each sweep value we iterate

.. math::  (G_0 + G_{eq}(x_k))\\, x_{k+1} = b

where ``G_eq`` holds the chord conductances evaluated at the previous
iterate.  Each iteration is one small linear solve; warm-starting from the
previous sweep point (source continuation) keeps the iteration count at a
handful.  An adaptive damping factor handles the mild oscillation the
fixed point can exhibit near the NDR knees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.dcsweep import DCSweepResult
from repro.circuit.netlist import Circuit
from repro.core.backends import available_backends
from repro.core.stepper import LinearStepper
from repro.errors import AnalysisError, ConvergenceError
from repro.swec.engine import SwecOptions


@dataclass
class SwecDCOptions:
    """Fixed-point iteration tunables.

    ``mode`` selects between two sweep styles:

    ``"fixed_point"``
        Iterate the chord fixed point to ``tolerance`` at every sweep
        value (most accurate; a handful of solves per point).
    ``"stepwise"``
        The paper's step-wise philosophy applied to DC: treat the sweep as
        a quasi-static ramp and perform exactly ``stepwise_solves`` linear
        solves per value, with the chord conductances carried over from
        the previous point.  One solve per point — the Table I costing.

    ``backend`` names the :mod:`repro.core.backends` solver used for
    every chord solve — ``"dense"`` (default), ``"sparse"`` for
    grid-scale circuits, or ``"auto"`` to select by size.
    """

    max_iterations: int = 100
    tolerance: float = 1e-9
    initial_damping: float = 1.0
    min_damping: float = 0.05
    mode: str = "fixed_point"
    stepwise_solves: int = 1
    backend: str = "dense"

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if not 0.0 < self.min_damping <= self.initial_damping <= 1.0:
            raise ValueError("need 0 < min_damping <= initial_damping <= 1")
        if self.mode not in ("fixed_point", "stepwise"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.stepwise_solves < 1:
            raise ValueError("stepwise_solves must be >= 1")
        if self.backend not in available_backends():
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(available: {', '.join(available_backends())})")


class SwecDC:
    """Chord-conductance DC solver with source continuation.

    A K = 1 :class:`~repro.core.stepper.LinearStepper` caller: every
    point runs the stepper's chord fixed point ``G(x_k) x_{k+1} = b``
    (the one the transient march starts from) on the
    :mod:`repro.core.backends` solver named by
    :attr:`SwecDCOptions.backend`.
    """

    def __init__(self, circuit: Circuit,
                 options: SwecDCOptions | None = None) -> None:
        self.circuit = circuit
        self.options = options or SwecDCOptions()
        self._stepper = LinearStepper(
            [circuit],
            SwecOptions(use_predictor=False, backend=self.options.backend),
            default_backend="dense")
        self.system = self._stepper.system
        self.linearization = self._stepper.linearization

    @property
    def backend_name(self) -> str:
        """Registry name of the resolved solver backend."""
        return self._stepper.backend_name

    # ------------------------------------------------------------------

    def _force_source(self, b: np.ndarray, kind, location,
                      value: float) -> None:
        """Overwrite one source's contribution to *b* with *value*."""
        if kind == "v":
            b[location] = value
        else:
            p, n, source = location
            # Remove this source's own t=0 value, then inject ours
            # (identified by element, so parallel current sources on
            # the same node pair cannot be confused).
            self.system.stamp_current(b, p, n, -source.value(0.0))
            self.system.stamp_current(b, p, n, value)

    # ------------------------------------------------------------------

    def solve_point(self, b: np.ndarray, x: np.ndarray,
                    result: DCSweepResult) -> tuple[np.ndarray, int, bool]:
        """Damped chord fixed point for one source value."""
        opts = self.options
        self._stepper.backend.begin_run(result.flops)
        states, iterations, converged = self._stepper.chord_fixed_point(
            b[None, :], x[None, :], result.flops,
            max_iter=opts.max_iterations, tol=opts.tolerance,
            damping=opts.initial_damping, min_damping=opts.min_damping)
        return states[0], iterations, converged

    def solve_point_stepwise(self, b: np.ndarray, x: np.ndarray,
                             result: DCSweepResult):
        """Fixed number of chord solves (quasi-static ramp step)."""
        self._stepper.backend.begin_run(result.flops)
        solves = self.options.stepwise_solves
        states = x[None, :]
        for _ in range(solves):
            states = self._stepper.chord_solve(b[None, :], states, result.flops)
        return states[0], solves, True

    def sweep(self, source_name: str, values) -> DCSweepResult:
        """Sweep *source_name* through *values* with continuation.

        Returns a :class:`DCSweepResult`; warm starts mean later points
        typically converge in 2-4 chord iterations (``fixed_point`` mode)
        or exactly ``stepwise_solves`` solves (``stepwise`` mode).
        """
        values = [float(v) for v in values]
        if not values:
            raise AnalysisError("sweep needs at least one value")
        kind, location = self.system.source_slot(source_name)
        result = DCSweepResult(self.circuit.nodes, source_name, engine="swec")
        x = self.system.initial_state()
        stepwise = self.options.mode == "stepwise"
        for value in values:
            b = self.system.source_vector(0.0)
            self._force_source(b, kind, location, value)
            if stepwise:
                x, iterations, converged = self.solve_point_stepwise(
                    b, x, result)
            else:
                x, iterations, converged = self.solve_point(b, x, result)
            result.append(value, x, iterations, converged)
        return result

    def operating_point(self, overrides=None) -> np.ndarray:
        """Solve the DC bias point with every source at its ``t=0`` value.

        *overrides* maps independent-source names to forced DC values,
        applied on top of the ``t=0`` source vector — the small-signal
        (AC) analysis uses this to bias a circuit away from its stimulus
        waveform's initial value.  Returns the solved MNA state vector;
        raises :class:`~repro.errors.ConvergenceError` when the chord
        fixed point does not reach tolerance.
        """
        b = self.system.source_vector(0.0)
        for name, value in dict(overrides or {}).items():
            kind, location = self.system.source_slot(name)
            self._force_source(b, kind, location, float(value))
        result = DCSweepResult(self.circuit.nodes, source_name="(bias)",
                               engine="swec")
        x, iterations, converged = self.solve_point(
            b, self.system.initial_state(), result)
        if not converged:
            raise ConvergenceError(
                f"DC operating point of {self.circuit.name!r} did not "
                f"converge", iterations=iterations)
        return x

    # ------------------------------------------------------------------

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
