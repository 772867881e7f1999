"""SPICE3-style baseline simulator.

Implements the deterministic differential-conductance flow the paper
criticizes: Newton-Raphson at every DC point and every transient step,
with SPICE's standard rescue strategies (source stepping and Gmin stepping
for DC, time-step reduction for transient).  On circuits with
non-monotonic I-V curves this engine reproduces the pathologies of paper
Figs. 2 and 8(c): NR oscillation, convergence failures and false
convergence onto the wrong branch.

This is a faithful *algorithmic* substitute for the SPICE3 binary; see
DESIGN.md Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.dcsweep import DCSweepResult
from repro.analysis.waveforms import TransientResult
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError
from repro.mna.assembler import MnaSystem
from repro.baselines.newton import (
    CompanionAssembler,
    NewtonOptions,
    newton_solve,
    step_halving_march,
)


@dataclass
class SpiceOptions:
    """SPICE-style engine tunables."""

    newton: NewtonOptions = field(default_factory=NewtonOptions)
    #: Number of source-stepping ramp points for the DC rescue.
    source_steps: int = 10
    #: Gmin-stepping ladder (start, per-decade shrink, floor).
    gmin_start: float = 1e-2
    gmin_floor: float = 1e-12
    #: Transient base step; reduced on NR failure, grown back on success.
    h_initial: float | None = None
    h_min_factor: float = 1e-6
    max_step_reductions: int = 12
    growth_factor: float = 2.0
    #: Abort the march after this many consecutive step failures.
    max_consecutive_failures: int = 40
    #: Seed each step's Newton iteration with the previous solution
    #: (SPICE's strategy — see paper Section 3.1).  Setting this False
    #: reproduces the Fig. 2 scenario: an initial guess far from the
    #: solution of a non-monotonic system makes NR oscillate.
    warm_start: bool = True


class SpiceDC:
    """Operating-point and DC-sweep analysis, NR-based."""

    def __init__(self, circuit: Circuit,
                 options: SpiceOptions | None = None) -> None:
        self.circuit = circuit
        self.options = options or SpiceOptions()
        self.system = MnaSystem(circuit)

    # ------------------------------------------------------------------

    def operating_point(self, result_flops=None,
                        x0: np.ndarray | None = None):
        """Solve the DC operating point at ``t = 0``.

        Tries plain NR, then source stepping, then Gmin stepping — the
        SPICE3 playbook.  Returns ``(x, total_iterations, strategy)``;
        raises :class:`ConvergenceError` when everything fails.
        """
        assembler = CompanionAssembler(self.system, flops=result_flops)
        b = self.system.source_vector(0.0)
        x0 = self.system.initial_state() if x0 is None else x0
        total = 0

        outcome = newton_solve(assembler, x0, b, self.options.newton,
                               flops=result_flops)
        total += outcome.iterations
        if outcome.converged:
            return outcome.x, total, "direct"

        # Source stepping: ramp all sources from zero.
        x = self.system.initial_state()
        stepped_ok = True
        for k in range(1, self.options.source_steps + 1):
            fraction = k / self.options.source_steps
            outcome = newton_solve(assembler, x, b * fraction,
                                   self.options.newton, flops=result_flops)
            total += outcome.iterations
            if not outcome.converged:
                stepped_ok = False
                break
            x = outcome.x
        if stepped_ok:
            return x, total, "source-stepping"

        # Gmin stepping: shunt conductances, shrink towards zero.
        x = self.system.initial_state()
        gmin = self.options.gmin_start
        while gmin >= self.options.gmin_floor:
            outcome = newton_solve(assembler, x, b, self.options.newton,
                                   gmin=gmin, flops=result_flops)
            total += outcome.iterations
            if not outcome.converged:
                raise ConvergenceError(
                    "SPICE DC failed: direct, source-stepping and "
                    "gmin-stepping all diverged", iterations=total)
            x = outcome.x
            gmin /= 10.0
        outcome = newton_solve(assembler, x, b, self.options.newton,
                               flops=result_flops)
        total += outcome.iterations
        if not outcome.converged:
            raise ConvergenceError(
                "SPICE DC failed at final gmin removal", iterations=total)
        return outcome.x, total, "gmin-stepping"

    def sweep(self, source_name: str, values) -> DCSweepResult:
        """NR-based DC sweep with continuation warm starts."""
        values = [float(v) for v in values]
        if not values:
            raise AnalysisError("sweep needs at least one value")
        result = DCSweepResult(self.circuit.nodes, source_name,
                               engine="spice")
        assembler = CompanionAssembler(self.system, flops=result.flops)
        row = self.system.vsource_index(source_name)
        x = self.system.initial_state()
        for value in values:
            b = self.system.source_vector(0.0)
            b[row] = value
            outcome = newton_solve(assembler, x, b, self.options.newton,
                                   flops=result.flops)
            if outcome.converged:
                x = outcome.x
            result.append(value, outcome.x, outcome.iterations,
                          outcome.converged)
        return result


class SpiceTransient:
    """Backward-Euler transient with NR at every step.

    The previous accepted solution seeds each NR solve (the strategy the
    paper's Section 3.1 quotes as fragile near fast transitions); failures
    trigger time-step halving, and the march aborts after
    ``max_consecutive_failures`` — which is how the Fig. 8(c)
    non-convergence manifests here.
    """

    def __init__(self, circuit: Circuit,
                 options: SpiceOptions | None = None) -> None:
        self.circuit = circuit
        self.options = options or SpiceOptions()
        self.system = MnaSystem(circuit)

    def run(self, t_stop: float, h: float | None = None,
            initial_state: np.ndarray | None = None) -> TransientResult:
        """Simulate ``[0, t_stop]``; returns waveforms plus failure stats."""
        opts = self.options
        result = TransientResult(self.circuit.nodes, engine="spice")
        assembler = CompanionAssembler(self.system, flops=result.flops)

        def dc_start():
            try:
                x, iterations, _ = SpiceDC(self.circuit, opts).operating_point(
                    result.flops)
            except ConvergenceError:
                result.convergence_failures += 1
                return self.system.initial_state()
            result.iteration_counts.append(iterations)
            return x

        def attempt(x, b, c_over_h):
            guess = x if opts.warm_start else np.zeros_like(x)
            return newton_solve(assembler, guess, b, opts.newton,
                                c_over_h=c_over_h, x_prev=x,
                                flops=result.flops)

        return step_halving_march(
            result, self.system, opts, t_stop, h, initial_state, dc_start,
            attempt, "NR failed to converge at t={t:.4g} even at minimum "
            "step (oscillating={outcome.oscillating})",
            h_min_factor=opts.h_min_factor,
            max_failures=opts.max_consecutive_failures)
