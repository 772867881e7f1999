"""Newton-Raphson machinery for the deterministic baselines.

This module provides:

* :class:`CompanionAssembler` — residual/Jacobian assembly for the
  nonlinear MNA equations using differential-conductance companion models
  (exactly what SPICE linearizes with, and exactly what goes negative in
  an NDR region — the paper's Fig. 5).
* :func:`newton_solve` — damped NR iteration with oscillation detection.
  When the iterates enter a two-cycle (the paper's Fig. 2 scenario: the
  initial guess is on the wrong side of a non-monotonic curve), the solver
  reports ``oscillating=True`` instead of looping forever.
* :func:`step_halving_march` — the backward-Euler transient march with
  step halving that the SPICE, MLA and ACES baselines share; each engine
  supplies its initial state and its one-step attempt.
* :func:`scalar_newton` — the one-dimensional demonstrator used by the
  Fig. 2 reproduction bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.waveforms import TransientResult
from repro.errors import AnalysisError
from repro.mna.assembler import MnaSystem
from repro.mna.linsolve import LinearSolver
from repro.perf.flops import FlopCounter


@dataclass
class NewtonOptions:
    """Newton iteration tunables (SPICE-like defaults)."""

    max_iterations: int = 50
    abstol: float = 1e-9
    reltol: float = 1e-6
    damping: float = 1.0
    #: Per-iteration clamp on any node-voltage update, in volts.  SPICE
    #: calls this device limiting; ``None`` disables it.
    dv_limit: float | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")


@dataclass
class NewtonOutcome:
    """Result record of one Newton solve."""

    x: np.ndarray
    iterations: int
    converged: bool
    oscillating: bool = False
    residual: float = float("nan")
    #: max |x_k - x_{k-1}| per iteration, for diagnosis plots.
    update_history: list = field(default_factory=list)


class CompanionAssembler:
    """Residual and Jacobian of the nonlinear MNA equations.

    The equation solved is

    .. math::  F(x) = G_0 x + i_{dev}(x) + \\frac{C}{h}(x - x_{prev}) - b = 0

    with the ``C/h`` term absent for DC.  The Jacobian stamps each
    device's *differential* conductance — the quantity that is negative
    inside NDR and wrecks convergence.
    """

    def __init__(self, system: MnaSystem,
                 flops: FlopCounter | None = None) -> None:
        self.system = system
        self.circuit = system.circuit
        self.flops = flops
        self._g_base = system.conductance_base()
        self._device_terminals = system.device_terminals()
        self._mosfet_terminals = system.mosfet_terminals()

    def residual_and_jacobian(self, x: np.ndarray, b: np.ndarray,
                              c_over_h: np.ndarray | None = None,
                              x_prev: np.ndarray | None = None,
                              gmin: float = 0.0):
        """Return ``(F, J)`` at *x*.

        ``gmin`` adds a small conductance from every device terminal to
        ground (SPICE's Gmin), used by the Gmin-stepping fallback.
        """
        jacobian = self._g_base.copy()
        residual = self._g_base @ x - b
        for (anode, cathode), device in zip(self._device_terminals,
                                            self.circuit.devices):
            va = x[anode] if anode >= 0 else 0.0
            vc = x[cathode] if cathode >= 0 else 0.0
            v = va - vc
            current = device.current(v)
            conductance = device.differential_conductance(v)
            if self.flops is not None:
                self.flops.count_device_eval("rtd_current")
                self.flops.count_device_eval("rtd_conductance")
            if anode >= 0:
                residual[anode] += current
            if cathode >= 0:
                residual[cathode] -= current
            self.system.stamp_conductance(jacobian, anode, cathode,
                                          conductance)
            if gmin > 0.0:
                for terminal in (anode, cathode):
                    if terminal >= 0:
                        jacobian[terminal, terminal] += gmin
                        residual[terminal] += gmin * x[terminal]
        for (drain, gate, source), mosfet in zip(self._mosfet_terminals,
                                                 self.circuit.mosfets):
            vd = x[drain] if drain >= 0 else 0.0
            vg = x[gate] if gate >= 0 else 0.0
            vs = x[source] if source >= 0 else 0.0
            ids = mosfet.current(vg - vs, vd - vs)
            gm, gds = mosfet.partials(vg - vs, vd - vs)
            if self.flops is not None:
                self.flops.count_device_eval("mosfet")
            if drain >= 0:
                residual[drain] += ids
            if source >= 0:
                residual[source] -= ids
            self.system.stamp_conductance(jacobian, drain, source, gds)
            self.system.stamp_transconductance(jacobian, drain, source,
                                               gate, source, gm)
        if c_over_h is not None:
            jacobian += c_over_h
            residual += c_over_h @ (x - x_prev)
        return residual, jacobian


def newton_solve(assembler: CompanionAssembler, x0: np.ndarray,
                 b: np.ndarray, options: NewtonOptions | None = None,
                 c_over_h: np.ndarray | None = None,
                 x_prev: np.ndarray | None = None,
                 gmin: float = 0.0,
                 flops: FlopCounter | None = None,
                 limiter=None) -> NewtonOutcome:
    """Damped Newton-Raphson on the companion equations.

    ``limiter`` is an optional callable ``limiter(x, dx) -> dx`` applied
    to the raw update before damping — the hook MLA uses for RTD
    region-aware limiting.
    """
    options = options or NewtonOptions()
    solver = LinearSolver(flops)
    x = np.array(x0, dtype=float, copy=True)
    outcome = NewtonOutcome(x=x, iterations=0, converged=False)
    norm_prev2: float | None = None
    norm_prev1: float | None = None

    for iteration in range(1, options.max_iterations + 1):
        residual, jacobian = assembler.residual_and_jacobian(
            x, b, c_over_h=c_over_h, x_prev=x_prev, gmin=gmin)
        solver.factor(jacobian)
        dx = solver.solve(-residual)
        if limiter is not None:
            dx = limiter(x, dx)
        if options.dv_limit is not None:
            biggest = float(np.max(np.abs(dx))) if dx.size else 0.0
            if biggest > options.dv_limit:
                dx = dx * (options.dv_limit / biggest)
        x = x + options.damping * dx
        update = float(np.max(np.abs(dx))) if dx.size else 0.0
        outcome.update_history.append(update)
        outcome.iterations = iteration
        outcome.residual = float(np.max(np.abs(residual)))
        scale = float(np.max(np.abs(x))) if x.size else 0.0
        if update < options.abstol + options.reltol * scale:
            outcome.x = x
            outcome.converged = True
            return outcome
        # Two-cycle detection: updates alternate with near-equal magnitude
        # while not shrinking — the Fig. 2 oscillation pattern.
        if (norm_prev2 is not None
                and update > options.abstol * 10.0
                and abs(update - norm_prev2) < 0.05 * update
                and abs(update - norm_prev1) > 0.5 * update):
            outcome.x = x
            outcome.oscillating = True
            return outcome
        norm_prev2, norm_prev1 = norm_prev1, update

    outcome.x = x
    return outcome


def step_halving_march(result: TransientResult, system: MnaSystem,
                       options, t_stop: float, h: float | None,
                       initial_state: np.ndarray | None, start, attempt,
                       abort_reason: str, *, h_min_factor: float = 1e-6,
                       max_failures: int = 1,
                       count_iterations: bool = True) -> TransientResult:
    """Backward-Euler march over ``[0, t_stop]`` with step halving.

    The engine supplies ``start()``, its initial state when
    *initial_state* is not given, and ``attempt(x, b, c_over_h)``, one
    implicit step from the accepted state *x* to the sources *b*,
    returning a :class:`NewtonOutcome`.  *options* supplies
    ``h_initial``, ``max_step_reductions`` and ``growth_factor``.  The
    base step is *h*, else ``h_initial``, else ``t_stop / 1000``, and
    ``h_min`` is ``h_min_factor`` times it.

    A failed attempt books a convergence failure and a rejected step
    and halves the step, up to ``max_step_reductions`` times or until
    it falls below ``h_min``.  A converged attempt is accepted and the
    next step grows by ``growth_factor`` back toward the base.  A step
    that fails every halving counts against a budget of *max_failures*
    consecutive failed steps: within it the non-converged iterate is
    accepted at the time it was solved for, ``t`` plus the last step
    tried (never past *t_stop*), and the step resets to the base; when
    the budget runs out the march aborts with
    ``abort_reason.format(t=t, outcome=outcome)``.  With
    *count_iterations* each accepted outcome's ``iterations`` go to
    ``result.iteration_counts``.
    """
    if t_stop <= 0.0:
        raise AnalysisError(f"t_stop must be positive, got {t_stop!r}")
    x = (start() if initial_state is None
         else np.array(initial_state, dtype=float, copy=True))
    c_matrix = system.capacitance_matrix()
    h_base = h if h is not None else options.h_initial
    if h_base is None:
        h_base = t_stop / 1000.0
    h_min = h_base * h_min_factor
    t = 0.0
    result.append(t, x)
    step = h_base
    failures = 0

    while t < t_stop * (1.0 - 1e-12):
        step = min(step, t_stop - t)
        outcome = None
        for _ in range(options.max_step_reductions + 1):
            # The step the outcome solved for; never past t_stop.
            tried = step
            outcome = attempt(x, system.source_vector(t + tried),
                              c_matrix / tried)
            if outcome.converged:
                break
            result.convergence_failures += 1
            result.rejected_steps += 1
            step *= 0.5
            if step < h_min:
                break
        if outcome is not None and outcome.converged:
            failures = 0
            step = min(step * options.growth_factor, h_base)
        else:
            failures += 1
            if failures >= max_failures:
                result.aborted = True
                result.abort_reason = abort_reason.format(t=t, outcome=outcome)
                break
            # SPICE3 gives up here; to expose the *false convergence*
            # failure mode we accept the non-converged iterate, which
            # is what a damped simulator silently does.
            step = h_base
        t += tried
        x = outcome.x
        result.append(t, x)
        if count_iterations:
            result.iteration_counts.append(outcome.iterations)
        result.accepted_steps += 1
    return result


def scalar_newton(f, dfdx, x0: float, max_iterations: int = 60,
                  tolerance: float = 1e-12):
    """Scalar NR returning the full iterate list (paper Fig. 2 demo).

    Returns ``(iterates, converged, oscillating)``.  Oscillation means the
    tail of the iterate sequence alternates between two accumulation
    points — the behaviour Fig. 2 illustrates for a bad initial guess on a
    non-monotonic curve.
    """
    iterates = [float(x0)]
    x = float(x0)
    for _ in range(max_iterations):
        derivative = dfdx(x)
        if derivative == 0.0:
            break
        x_next = x - f(x) / derivative
        iterates.append(x_next)
        if abs(x_next - x) < tolerance:
            return iterates, True, False
        x = x_next
    tail = iterates[-8:]
    oscillating = False
    if len(tail) == 8:
        evens = tail[0::2]
        odds = tail[1::2]
        spread_e = max(evens) - min(evens)
        spread_o = max(odds) - min(odds)
        gap = abs(np.mean(evens) - np.mean(odds))
        oscillating = bool(gap > 10.0 * max(spread_e, spread_o, 1e-15))
    return iterates, False, oscillating
