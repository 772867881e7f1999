"""Transient result containers: one march record, two row shapes.

Every march records the same things: the accepted time points, one
state row per point and the engine diagnostics (step counts and
limits, the DC start, the abort flag, the flop counter).  The private
base class holds that record once; :class:`TransientResult` stores a
state vector per point (one circuit) and
:class:`EnsembleTransientResult` a ``(K, n)`` stack per point (a
lockstep ensemble).  Engines append rows during the march; the
containers handle interpolation and per-node access.
"""

from __future__ import annotations

import bisect
import copy

import numpy as np

from repro.errors import AnalysisError
from repro.perf.flops import FlopCounter


class _MarchRecord:
    """Accepted points and diagnostics of one march, for either row shape.

    Parameters
    ----------
    node_names:
        Non-ground node names, in MNA order.
    engine:
        Name of the engine that produced the result (for reports).
    """

    #: Message of the errors raised on a result with no points.
    _EMPTY = "empty transient result"

    def __init__(self, node_names, engine: str) -> None:
        self.node_names = tuple(node_names)
        self.engine = engine
        self._times: list[float] = []
        self._states: list[np.ndarray] = []
        self.flops = FlopCounter()
        self.accepted_steps = 0
        self.rejected_steps = 0
        #: Accepted steps per constraint that set them (adaptive SWEC
        #: marches): ``slope``, ``node_rc:<node>``, ``growth``,
        #: ``h_max``, ``breakpoint`` and ``dv_limit``.
        self.step_limits: dict[str, int] = {}
        #: Accepted steps taken at the ``h_min`` clamp.
        self.steps_at_hmin = 0
        #: Factorizations skipped by reusing the factor of an identical
        #: step matrix: the chordless sparse backend's per-run memo
        #: (:class:`~repro.core.backends.SparseBackend`), summed over
        #: the K instances of an ensemble; 0 on every other march.
        #: Skipped factorizations are not counted in
        #: ``flops.factorizations``.
        self.factor_reuses = 0
        #: True when the engine gave up before reaching t_stop.
        self.aborted = False
        self.abort_reason: str | None = None
        #: Chord fixed-point iterations of the DC start (0 without one).
        self.dc_iterations = 0
        #: Whether the DC start (of every instance) converged; None when
        #: no DC start ran.
        self.dc_converged: bool | None = None

    def append(self, t: float, state: np.ndarray) -> None:
        """Record an accepted time point (a state vector, or the
        ``(K, n)`` stack of every instance at once)."""
        if self._times and t <= self._times[-1]:
            raise AnalysisError(
                f"non-monotonic time points: {t} after {self._times[-1]}")
        self._times.append(float(t))
        self._states.append(np.array(state, dtype=float, copy=True))

    @property
    def times(self) -> np.ndarray:
        """Accepted time points as an array."""
        return np.array(self._times)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def t_final(self) -> float:
        """Last accepted time."""
        if not self._times:
            raise AnalysisError(self._EMPTY)
        return self._times[-1]

    def _node_column(self, node: str) -> int:
        try:
            return self.node_names.index(node)
        except ValueError:
            raise AnalysisError(
                f"node {node!r} not in result (have {self.node_names})"
            ) from None

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of *node*'s voltage over the accepted time points:
        ``(T,)`` for one circuit, ``(K, T)`` (one row per instance) for
        an ensemble."""
        return self.states[..., self._node_column(node)]

    @property
    def smallest_step(self) -> float | None:
        """Smallest accepted step (None with fewer than two points)."""
        return self._step_extreme(np.min)

    @property
    def largest_step(self) -> float | None:
        """Largest accepted step (None with fewer than two points)."""
        return self._step_extreme(np.max)

    def _step_extreme(self, pick) -> float | None:
        """*pick* (min or max) of the steps between accepted points."""
        if len(self._times) < 2:
            return None
        return float(pick(np.diff(self._times)))

    def _summary(self, shape: str, failures: str, details: list[str]) -> str:
        """The one-paragraph summary; *shape*, *failures* and *details*
        are the parts only one row shape reports."""
        lines = [
            f"engine={self.engine} {shape}points={len(self)} "
            f"t_final={self._times[-1] if self._times else 0.0:.4g}",
            f"steps: accepted={self.accepted_steps} "
            f"rejected={self.rejected_steps}{failures}",
        ]
        if len(self) >= 2:
            lines.append(f"step sizes: smallest={self.smallest_step:.4g} "
                         f"largest={self.largest_step:.4g}")
            if self.step_limits:
                ranked = sorted(self.step_limits.items(),
                                key=lambda item: (-item[1], item[0]))
                lines.append("step limits: " + " ".join(
                    f"{name}={count}" for name, count in ranked)
                    + f" (at_h_min={self.steps_at_hmin})")
        if self.dc_converged is not None:
            state = "converged" if self.dc_converged else "NOT CONVERGED"
            lines.append(
                f"dc start: {state} after {self.dc_iterations} iterations")
        lines.extend(details)
        if self.aborted:
            lines.append(f"ABORTED: {self.abort_reason}")
        lines.append(f"flops={self.flops.total:,}")
        return "\n".join(lines)


class TransientResult(_MarchRecord):
    """Time-domain simulation result.

    Parameters
    ----------
    node_names:
        Non-ground node names, in MNA order.
    engine:
        Name of the engine that produced the result (for reports).
    """

    def __init__(self, node_names, engine: str = "unknown") -> None:
        super().__init__(node_names, engine)
        self.convergence_failures = 0
        #: Per-accepted-point Newton iteration counts (empty for SWEC).
        self.iteration_counts: list[int] = []

    def record_dc_start(self, iterations: int, converged: bool | None) -> None:
        """Record the DC start; a non-converged one is a convergence failure."""
        self.dc_iterations = iterations
        self.dc_converged = converged
        if converged is False:
            self.convergence_failures += 1

    @property
    def states(self) -> np.ndarray:
        """State matrix, one row per accepted time point."""
        if not self._states:
            return np.zeros((0, len(self.node_names)))
        return np.vstack(self._states)

    def at(self, t: float, node: str) -> float:
        """Linearly interpolated voltage of *node* at time *t*.

        Times within a relative 1e-6 of the simulated range are clamped —
        adaptive marches accumulate last-step roundoff.
        """
        if not self._times:
            raise AnalysisError(self._EMPTY)
        slack = 1e-6 * max(abs(self._times[-1]), abs(self._times[0]))
        if self._times[-1] < t <= self._times[-1] + slack:
            t = self._times[-1]
        if self._times[0] - slack <= t < self._times[0]:
            t = self._times[0]
        if t < self._times[0] or t > self._times[-1]:
            raise AnalysisError(
                f"time {t} outside simulated range "
                f"[{self._times[0]}, {self._times[-1]}]")
        column = self._node_column(node)
        idx = bisect.bisect_left(self._times, t)
        if idx < len(self._times) and self._times[idx] == t:
            return float(self._states[idx][column])
        t0, t1 = self._times[idx - 1], self._times[idx]
        v0 = self._states[idx - 1][column]
        v1 = self._states[idx][column]
        return float(v0 + (v1 - v0) * (t - t0) / (t1 - t0))

    def resample(self, times: np.ndarray, node: str) -> np.ndarray:
        """Voltage of *node* interpolated onto a uniform grid *times*."""
        return np.interp(times, self.times, self.voltage(node))

    def final_voltages(self) -> dict[str, float]:
        """Node -> voltage at the last accepted time point."""
        if not self._states:
            raise AnalysisError(self._EMPTY)
        last = self._states[-1]
        return {name: float(last[k]) for k, name in enumerate(self.node_names)}

    def step_sizes(self) -> np.ndarray:
        """Accepted step sizes ``h_n = t_{n+1} - t_n``."""
        return np.diff(self.times)

    def summary(self) -> str:
        """One-paragraph diagnostic summary."""
        details = []
        if self.iteration_counts:
            counts = np.array(self.iteration_counts)
            details.append(
                f"newton iterations/point: mean={counts.mean():.2f} "
                f"max={counts.max()}")
        return self._summary(
            "", f" convergence_failures={self.convergence_failures}", details)

    def __repr__(self) -> str:
        return (f"TransientResult(engine={self.engine!r}, points={len(self)}, "
                f"nodes={len(self.node_names)})")


#: The run-level diagnostics :meth:`EnsembleTransientResult.instance`
#: copies; the flop counter stays empty and the DC start goes through
#: :meth:`TransientResult.record_dc_start`.
_RUN_DIAGNOSTICS = ("accepted_steps", "rejected_steps", "step_limits",
                    "steps_at_hmin", "aborted", "abort_reason",
                    "factor_reuses", "backend", "fallback_events")


class EnsembleTransientResult(_MarchRecord):
    """Time-domain result of a lockstep ensemble march.

    Stores the shared accepted time grid and the ``(K, n)`` state
    stack per point.  Per-instance access mirrors
    :class:`TransientResult`: :meth:`voltage` returns a ``(K, T)``
    waveform block and :meth:`instance` materializes one instance as a
    plain ``TransientResult`` with the run-level diagnostics (and an
    *empty* flop counter — the ensemble-level :attr:`flops` counts
    the whole batch and does not split into integer per-instance
    shares).
    """

    _EMPTY = "empty ensemble result"

    def __init__(self, node_names, n_instances: int,
                 engine: str = "swec-ensemble") -> None:
        super().__init__(node_names, engine)
        self.n_instances = int(n_instances)
        #: Name of the solver backend that marched this result.
        self.backend: str | None = None
        #: Backend degradations taken during the run (fallback chains).
        self.fallback_events: list = []
        #: instance index -> ``[(t, device_g_row), ...]`` for the
        #: instances named in ``trace_instances``.
        self.conductance_trace: dict[int, list] = {}

    @property
    def states(self) -> np.ndarray:
        """``(K, T, n)`` state stack over the shared grid."""
        if not self._states:
            return np.zeros((self.n_instances, 0, len(self.node_names)))
        return np.stack(self._states, axis=1)

    def final_voltages(self) -> dict[str, np.ndarray]:
        """Node name -> ``(K,)`` voltages at the last accepted point."""
        if not self._states:
            raise AnalysisError(self._EMPTY)
        last = self._states[-1]
        return {name: last[:, k].copy()
                for k, name in enumerate(self.node_names)}

    def instance(self, k: int) -> TransientResult:
        """Materialize instance *k* as a scalar ``TransientResult``."""
        if not 0 <= k < self.n_instances:
            raise AnalysisError(
                f"instance index {k} out of range [0, {self.n_instances})")
        result = TransientResult(self.node_names, engine=self.engine)
        # append() kept the times increasing: copy the grid and rows at once.
        result._times = list(self._times)
        result._states = list(np.array([states[k] for states in self._states]))
        for name in _RUN_DIAGNOSTICS:
            setattr(result, name, copy.copy(getattr(self, name)))
        result.record_dc_start(self.dc_iterations, self.dc_converged)
        if k in self.conductance_trace:
            result.conductance_trace = [  # type: ignore[attr-defined]
                (t, g.copy()) for t, g in self.conductance_trace[k]]
        return result

    def summary(self) -> str:
        """One-paragraph diagnostic summary."""
        details = [] if self.backend is None else [f"backend={self.backend}"]
        return self._summary(f"instances={self.n_instances} ", "", details)

    def __repr__(self) -> str:
        return (f"EnsembleTransientResult(instances={self.n_instances}, "
                f"points={len(self)}, nodes={len(self.node_names)})")
