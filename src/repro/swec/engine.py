"""The SWEC transient engine (paper Sections 3.2-3.4).

One backward-Euler linear solve per accepted time point:

.. math::

    \\left(G_{eq}(t_n) + \\tfrac{C}{h_n}\\right) x_{n+1}
        = b(t_{n+1}) + \\tfrac{C}{h_n}\\, x_n

``G_eq`` holds the step-wise equivalent (chord) conductances of every
nonlinear device, frozen across the step — that is the method's defining
move.  Because every chord is non-negative, the matrix stays an M-matrix-
like diffusive operator and the march cannot oscillate the way
Newton-Raphson does on NDR devices.

:class:`SwecTransient` is the K = 1 slice of the unified
:class:`~repro.core.stepper.LinearStepper` march — the same loop that
drives :class:`~repro.swec.ensemble.SwecEnsembleTransient` — with the
solver chosen through the :mod:`repro.core.backends` registry
(``dense`` by default; ``sparse``, ``stack`` or ``auto`` via
:attr:`SwecOptions.backend`).

A small safety net beyond the paper: an optional per-step voltage-change
limit rejects a step and halves ``h`` when the solution jumps more than
``dv_limit`` — this matters only for the stiff latch circuits and is
disabled by setting ``dv_limit=None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.waveforms import EnsembleTransientResult, TransientResult
from repro.circuit.netlist import Circuit
from repro.core.backends import available_backends
from repro.core.stepper import LinearStepper
from repro.errors import AnalysisError
from repro.swec.timestep import EnsembleStepController, StepControlOptions


@dataclass
class SwecOptions:
    """Engine tunables.

    Attributes
    ----------
    step:
        Adaptive step-control options (paper eqs. 10-12).
    use_predictor:
        Apply the eq. (5) Taylor predictor to the chord conductances.
    initialize_dc:
        Solve the chord fixed point at ``t = 0`` for a consistent initial
        state instead of starting from all-zeros.
    dv_limit:
        Optional max node-voltage change per step; exceeding it rejects
        the step and halves ``h``.  ``None`` disables rejection (pure
        paper behaviour).
    max_points:
        Hard cap on accepted points, guarding against ``h_min`` stalls.
    trace_conductance:
        When True, record the equivalent conductances actually stamped
        for the step ending at each accepted point (used by the Fig. 5
        bench).  The trace copies one ``n_devices`` vector per
        accepted point (``8 * T * n_devices`` bytes); under a K-wide
        ensemble that cost would multiply by K, so
        :class:`~repro.swec.ensemble.SwecEnsembleTransient` requires
        an explicit per-instance ``trace_instances`` selection.
    factor_rtol:
        Factorization-reuse knob.  ``None`` (default) refactorizes the
        system matrix at every solve, the pure paper behaviour.  A float
        enables the reuse cache on the ``dense`` and ``sparse``
        backends: when the stamped ``G + C/h`` is unchanged within this
        relative tolerance since the last factorization (common in
        slowly-varying regions and linear circuits at a settled step
        size), the cached LU is reused and only a back-substitution is
        paid.  ``0.0`` reuses only on bitwise-identical matrices; small
        values like ``1e-9`` trade a bounded matrix perturbation for
        fewer factorizations.  Skipped factorizations are reported in
        ``TransientResult.factor_reuses``.  The ``stack`` backend
        refactors unconditionally (batched LAPACK fuses factor+solve).
    backend:
        Solver backend name from the :mod:`repro.core.backends`
        registry — ``"dense"``, ``"sparse"``, ``"stack"`` or
        ``"auto"`` (select by system size and fill ratio).  ``None``
        keeps each engine's historical default: ``dense`` for
        :class:`SwecTransient`, ``stack`` for
        :class:`~repro.swec.ensemble.SwecEnsembleTransient`.
    fallback:
        When True, wrap the resolved backend in the
        :class:`~repro.core.FallbackBackend` degradation chain
        (``sparse`` → ``dense``, ``stack`` → ``dense``): a
        factorization failure switches engines and repeats the solve
        instead of aborting the run.  Degradations are recorded in
        ``result.fallback_events`` and the final ``result.backend``.
        Off by default — the pure paper behaviour raises
        :class:`~repro.errors.SingularMatrixError`.
    """

    step: StepControlOptions = field(default_factory=StepControlOptions)
    use_predictor: bool = True
    initialize_dc: bool = True
    dv_limit: float | None = None
    max_points: int = 2_000_000
    trace_conductance: bool = False
    factor_rtol: float | None = None
    #: Integration formula: ``"be"`` (backward Euler, the paper's choice)
    #: or ``"trap"`` (trapezoidal; second-order, used by the ablation).
    method: str = "be"
    #: Solver backend registry name (or None for the engine default).
    backend: str | None = None
    #: Graceful degradation: fall back along sparse/stack -> dense on
    #: factorization failure instead of raising.
    fallback: bool = False

    def __post_init__(self) -> None:
        if self.method not in ("be", "trap"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.factor_rtol is not None and self.factor_rtol < 0.0:
            raise ValueError(
                f"factor_rtol must be non-negative, got {self.factor_rtol!r}")
        if self.backend is not None and \
                self.backend not in available_backends():
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(available: {', '.join(available_backends())})")


class SwecTransient:
    """Step-wise equivalent conductance transient simulator.

    The K = 1 slice of the unified lockstep march: construction builds
    a single-instance :class:`~repro.core.stepper.LinearStepper` on the
    solver backend ``options.backend`` names (``dense`` when None), and
    :meth:`run`/:meth:`run_grid` adapt its ensemble result back to a
    scalar :class:`~repro.analysis.waveforms.TransientResult`.
    """

    def __init__(self, circuit: Circuit,
                 options: SwecOptions | None = None) -> None:
        self.circuit = circuit
        self.options = options or SwecOptions()
        trace = (0,) if self.options.trace_conductance else ()
        self._stepper = LinearStepper(
            [circuit], self.options, trace_instances=trace,
            default_backend="dense")
        self.system = self._stepper.system
        self.linearization = self._stepper.linearization
        self.controller: EnsembleStepController = self._stepper.controller

    @property
    def backend_name(self) -> str:
        """Registry name of the resolved solver backend."""
        return self._stepper.backend_name

    @property
    def backend(self):
        """The resolved :class:`~repro.core.backends.SolverBackend`."""
        return self._stepper.backend

    # ------------------------------------------------------------------

    @staticmethod
    def _scalar_result(ensemble: EnsembleTransientResult) -> TransientResult:
        """Collapse the K = 1 ensemble result to a scalar one."""
        result = ensemble.instance(0)
        result.engine = "swec"
        result.flops = ensemble.flops
        return result

    @staticmethod
    def _initial_states(initial_state) -> np.ndarray | None:
        if initial_state is None:
            return None
        states = np.asarray(initial_state, dtype=float)
        if states.ndim != 1:
            raise AnalysisError(
                f"initial state must be a 1-D vector, got shape "
                f"{states.shape}")
        return states

    # ------------------------------------------------------------------

    def run(self, t_stop: float,
            initial_state: np.ndarray | None = None) -> TransientResult:
        """Simulate from ``t = 0`` to *t_stop*; returns the waveforms."""
        return self._scalar_result(self._stepper.run(
            t_stop, initial_states=self._initial_states(initial_state)))

    def run_grid(self, times,
                 initial_state: np.ndarray | None = None) -> TransientResult:
        """March the implicit update on an explicit time grid.

        No adaptive control: the step sizes are exactly
        ``h_n = times[n+1] - times[n]``.  This is the per-instance
        reference :class:`~repro.swec.ensemble.SwecEnsembleTransient`
        is validated against, and the fixed-grid mode behind
        bit-reproducible stochastic ensembles.  Any solver backend
        applies.
        """
        return self._scalar_result(self._stepper.run_grid(
            times, initial_states=self._initial_states(initial_state)))

    # ------------------------------------------------------------------

    def device_current_waveform(self, result: TransientResult,
                                device_name: str) -> np.ndarray:
        """Current through a named two-terminal device over a result.

        Evaluated with the model's vectorized I-V law — one numpy pass
        over the whole waveform instead of a Python loop per point.
        """
        device, voltages = self.system.device_branch(device_name,
                                                     result.states)
        return device.current_many(voltages)
