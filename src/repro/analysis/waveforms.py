"""Transient result container.

A :class:`TransientResult` stores the accepted time points and state
vectors of a transient run together with engine diagnostics (step counts,
convergence failures, flop counter).  Engines append rows during the march;
the container handles interpolation and per-node access.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.errors import AnalysisError
from repro.perf.flops import FlopCounter


class TransientResult:
    """Time-domain simulation result.

    Parameters
    ----------
    node_names:
        Non-ground node names, in MNA order.
    engine:
        Name of the engine that produced the result (for reports).
    """

    def __init__(self, node_names, engine: str = "unknown") -> None:
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
        self.convergence_failures = 0
        #: Per-accepted-point Newton iteration counts (empty for SWEC).
        self.iteration_counts: list[int] = []
        #: Factorizations skipped by a reuse cache.  Always 0: every
        #: solve factors afresh.  Kept because the frozen
        #: ``perfbench/workloads.py::march_counters`` reads it.
        self.factor_reuses = 0
        #: True when the engine gave up before reaching t_stop.
        self.aborted = False
        self.abort_reason: str | None = None
        #: Chord fixed-point iterations of the DC start (0 without one).
        self.dc_iterations = 0
        #: Whether the DC start converged; None when no DC start ran.
        self.dc_converged: bool | None = None

    # ------------------------------------------------------------------
    # Construction (used by engines)
    # ------------------------------------------------------------------

    def record_dc_start(self, iterations: int, converged: bool | None) -> None:
        """Record the DC start; a non-converged one is a convergence failure."""
        self.dc_iterations = iterations
        self.dc_converged = converged
        if converged is False:
            self.convergence_failures += 1

    def append(self, t: float, state: np.ndarray) -> None:
        """Record an accepted time point."""
        if self._times and t <= self._times[-1]:
            raise AnalysisError(
                f"non-monotonic time points: {t} after {self._times[-1]}")
        self._times.append(float(t))
        self._states.append(np.array(state, dtype=float, copy=True))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        """Accepted time points as an array."""
        return np.array(self._times)

    @property
    def states(self) -> np.ndarray:
        """State matrix, one row per accepted time point."""
        if not self._states:
            return np.zeros((0, len(self.node_names)))
        return np.vstack(self._states)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def t_final(self) -> float:
        """Last accepted time."""
        if not self._times:
            raise AnalysisError("empty transient result")
        return self._times[-1]

    def _node_column(self, node: str) -> int:
        try:
            return self.node_names.index(node)
        except ValueError:
            raise AnalysisError(
                f"node {node!r} not in result (have {self.node_names})"
            ) from None

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of *node*'s voltage over the accepted time points."""
        column = self._node_column(node)
        return self.states[:, column]

    def at(self, t: float, node: str) -> float:
        """Linearly interpolated voltage of *node* at time *t*.

        Times within a relative 1e-6 of the simulated range are clamped —
        adaptive marches accumulate last-step roundoff.
        """
        if not self._times:
            raise AnalysisError("empty transient result")
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
            raise AnalysisError("empty transient result")
        last = self._states[-1]
        return {name: float(last[k]) for k, name in enumerate(self.node_names)}

    def step_sizes(self) -> np.ndarray:
        """Accepted step sizes ``h_n = t_{n+1} - t_n``."""
        return np.diff(self.times)

    @property
    def smallest_step(self) -> float | None:
        """Smallest accepted step (None with fewer than two points)."""
        return _step_extreme(self._times, np.min)

    @property
    def largest_step(self) -> float | None:
        """Largest accepted step (None with fewer than two points)."""
        return _step_extreme(self._times, np.max)

    def summary(self) -> str:
        """One-paragraph diagnostic summary."""
        lines = [
            f"engine={self.engine} points={len(self)} "
            f"t_final={self._times[-1] if self._times else 0.0:.4g}",
            f"steps: accepted={self.accepted_steps} "
            f"rejected={self.rejected_steps} "
            f"convergence_failures={self.convergence_failures}",
        ]
        lines.extend(_step_control_lines(self))
        lines.extend(_dc_start_lines(self))
        if self.iteration_counts:
            counts = np.array(self.iteration_counts)
            lines.append(
                f"newton iterations/point: mean={counts.mean():.2f} "
                f"max={counts.max()}")
        if self.aborted:
            lines.append(f"ABORTED: {self.abort_reason}")
        lines.append(f"flops={self.flops.total:,}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"TransientResult(engine={self.engine!r}, points={len(self)}, "
                f"nodes={len(self.node_names)})")


def _step_extreme(times: list[float], pick) -> float | None:
    """*pick* (min or max) of the steps between consecutive *times*."""
    if len(times) < 2:
        return None
    return float(pick(np.diff(times)))


def _step_control_lines(result) -> list[str]:
    """The summary lines describing what limited the steps."""
    if len(result) < 2:
        return []
    lines = [f"step sizes: smallest={result.smallest_step:.4g} "
             f"largest={result.largest_step:.4g}"]
    if result.step_limits:
        ranked = sorted(result.step_limits.items(),
                        key=lambda item: (-item[1], item[0]))
        lines.append("step limits: " + " ".join(
            f"{name}={count}" for name, count in ranked)
            + f" (at_h_min={result.steps_at_hmin})")
    return lines


def _dc_start_lines(result) -> list[str]:
    """The summary line describing a result's DC start, if one ran."""
    if result.dc_converged is None:
        return []
    state = "converged" if result.dc_converged else "NOT CONVERGED"
    return [f"dc start: {state} after {result.dc_iterations} iterations"]


class EnsembleTransientResult:
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

    def __init__(self, node_names, n_instances: int,
                 engine: str = "swec-ensemble") -> None:
        self.node_names = tuple(node_names)
        self.n_instances = int(n_instances)
        self.engine = engine
        self._times: list[float] = []
        self._states: list[np.ndarray] = []
        self.flops = FlopCounter()
        self.accepted_steps = 0
        self.rejected_steps = 0
        #: Accepted steps per limiting constraint and steps at the
        #: ``h_min`` clamp, as on :class:`TransientResult`.
        self.step_limits: dict[str, int] = {}
        self.steps_at_hmin = 0
        self.aborted = False
        self.abort_reason: str | None = None
        #: Always 0, as on :class:`TransientResult`.
        self.factor_reuses = 0
        #: Name of the solver backend that marched this result.
        self.backend: str | None = None
        #: Backend degradations taken during the run (fallback chains).
        self.fallback_events: list = []
        #: instance index -> ``[(t, device_g_row), ...]`` for the
        #: instances named in ``trace_instances``.
        self.conductance_trace: dict[int, list] = {}
        #: Chord fixed-point iterations of the DC start (0 without one).
        self.dc_iterations = 0
        #: Whether every instance's DC start converged; None when no DC
        #: start ran.
        self.dc_converged: bool | None = None

    # ------------------------------------------------------------------

    def append(self, t: float, states: np.ndarray) -> None:
        """Record an accepted time point for all instances at once."""
        if self._times and t <= self._times[-1]:
            raise AnalysisError(
                f"non-monotonic time points: {t} after {self._times[-1]}")
        self._times.append(float(t))
        self._states.append(np.array(states, dtype=float, copy=True))

    # ------------------------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        """Shared accepted time points."""
        return np.array(self._times)

    @property
    def states(self) -> np.ndarray:
        """``(K, T, n)`` state stack over the shared grid."""
        if not self._states:
            return np.zeros((self.n_instances, 0, len(self.node_names)))
        return np.stack(self._states, axis=1)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def t_final(self) -> float:
        """Last accepted time."""
        if not self._times:
            raise AnalysisError("empty ensemble result")
        return self._times[-1]

    def _node_column(self, node: str) -> int:
        try:
            return self.node_names.index(node)
        except ValueError:
            raise AnalysisError(
                f"node {node!r} not in result (have {self.node_names})"
            ) from None

    def voltage(self, node: str) -> np.ndarray:
        """``(K, T)`` voltage waveforms of *node*, one row per instance."""
        column = self._node_column(node)
        return self.states[:, :, column]

    @property
    def smallest_step(self) -> float | None:
        """Smallest accepted step (None with fewer than two points)."""
        return _step_extreme(self._times, np.min)

    @property
    def largest_step(self) -> float | None:
        """Largest accepted step (None with fewer than two points)."""
        return _step_extreme(self._times, np.max)

    def final_voltages(self) -> dict[str, np.ndarray]:
        """Node name -> ``(K,)`` voltages at the last accepted point."""
        if not self._states:
            raise AnalysisError("empty ensemble result")
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
        result.accepted_steps = self.accepted_steps
        result.rejected_steps = self.rejected_steps
        result.step_limits = dict(self.step_limits)
        result.steps_at_hmin = self.steps_at_hmin
        result.aborted = self.aborted
        result.abort_reason = self.abort_reason
        result.record_dc_start(self.dc_iterations, self.dc_converged)
        result.factor_reuses = self.factor_reuses
        result.backend = self.backend
        result.fallback_events = list(self.fallback_events)
        if k in self.conductance_trace:
            result.conductance_trace = [  # type: ignore[attr-defined]
                (t, g.copy()) for t, g in self.conductance_trace[k]]
        return result

    def summary(self) -> str:
        """One-paragraph diagnostic summary."""
        lines = [
            f"engine={self.engine} instances={self.n_instances} "
            f"points={len(self)} "
            f"t_final={self._times[-1] if self._times else 0.0:.4g}",
            f"steps: accepted={self.accepted_steps} "
            f"rejected={self.rejected_steps}",
        ]
        lines.extend(_step_control_lines(self))
        lines.extend(_dc_start_lines(self))
        if self.backend is not None:
            lines.append(f"backend={self.backend}")
        if self.aborted:
            lines.append(f"ABORTED: {self.abort_reason}")
        lines.append(f"flops={self.flops.total:,}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"EnsembleTransientResult(instances={self.n_instances}, "
                f"points={len(self)}, nodes={len(self.node_names)})")
