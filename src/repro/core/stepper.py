"""The shared SWEC marching loop: stamp -> factor -> solve -> advance.

Before this module the repo carried four hand-rolled copies of the same
recipe (scalar transient, DC fixed point, lockstep ensemble, AC sweep).
:class:`LinearStepper` owns it once, batch-first:
K same-topology circuit instances march together, and every
backend-specific operation — assembly representation, factorization,
solve, flop accounting — is delegated to a
:class:`~repro.core.backends.SolverBackend` chosen by name.  The scalar
:class:`~repro.swec.engine.SwecTransient` is literally the K = 1 slice
of this march; :class:`~repro.swec.ensemble.SwecEnsembleTransient` is a
thin alias that defaults to the batched ``stack`` backend.

Per accepted point the stepper

1. evaluates the chord conductances of all K states at once through
   its :class:`~repro.swec.conductance.SwecLinearization` (one
   vectorized law call per group of devices that share a parameter
   record; at K = 1 with few devices, one scalar call per device),
2. hands them to the backend's ``stamp`` as one ``(K, n_chords)``
   stack, devices then MOSFETs (dense ``(K, n, n)`` stack or sparse
   ``(K, nnz)`` data stack — the stepper never sees the matrix
   representation), and
3. solves the backward-Euler (or trapezoidal) update through the
   backend's ``solve_transient``.

The classic K = 1 dense backward-Euler march of a small noiseless
circuit, DC start included, runs a step plan compiled once per stepper
instead (:class:`_DenseStepPlan`): it stamps the same chords, as a
Python list, into its own ``G``, solves each step with one LAPACK
``dgesv`` on lists and is bitwise equal to the backend path.

One loop marches both modes: :meth:`LinearStepper.run` (the paper's
eq.-10/12 adaptive control, worst-case over the ensemble) and
:meth:`LinearStepper.run_grid` (an explicit shared grid, the
bit-reproducible mode that also carries the paper's eq.-13 noise
injections as implicit Euler-Maruyama, from pre-drawn normals).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.analysis.waveforms import EnsembleTransientResult
from repro.circuit.netlist import Circuit
from repro.circuit.sources import waveform_state_key
from repro.core.backends import DenseBackend, SolverBackend, create_backend
from repro.errors import AnalysisError
from repro.mna.assembler import MnaSystem
from repro.mna.batch import PLAN_MAX_SIZE
from repro.mna.linsolve import solve_lists
from repro.perf.flops import FlopCounter

__all__ = ["LinearStepper"]


def _check_same_topology(reference: Circuit, circuit: Circuit, index: int) -> None:
    """Raise unless *circuit* shares *reference*'s exact topology."""
    if circuit.nodes != reference.nodes:
        raise AnalysisError(
            f"ensemble instance {index} has different nodes "
            f"{circuit.nodes} vs {reference.nodes}"
        )
    for category in (
        "resistors",
        "capacitors",
        "inductors",
        "voltage_sources",
        "current_sources",
        "devices",
        "mosfets",
    ):
        ours = getattr(circuit, category)
        theirs = getattr(reference, category)
        if len(ours) != len(theirs):
            raise AnalysisError(
                f"ensemble instance {index} has {len(ours)} {category}, "
                f"instance 0 has {len(theirs)}"
            )
        for a, b in zip(ours, theirs):
            if a.name != b.name or a.nodes != b.nodes:
                raise AnalysisError(
                    f"ensemble instance {index}: {category[:-1]} "
                    f"{a.name!r} on {a.nodes} does not match instance "
                    f"0's {b.name!r} on {b.nodes}"
                )


class _SourceBank:
    """Vectorized ``b(t)`` assembly across instances.

    Per source slot, instances whose waveforms are value-identical
    (:func:`~repro.circuit.sources.waveform_state_key`) are grouped so
    each distinct waveform is evaluated once per time point.
    """

    def __init__(self, circuits: Sequence[Circuit], system: MnaSystem) -> None:
        self.n_instances = len(circuits)
        self.size = system.size
        self._vsrc: list[tuple[int, list]] = []
        for slot, source in enumerate(circuits[0].voltage_sources):
            row = system.vsource_index(source.name)
            waveforms = [c.voltage_sources[slot].waveform for c in circuits]
            self._vsrc.append((row, self._group(waveforms)))
        self._isrc: list[tuple[int, int, list]] = []
        for slot, source in enumerate(circuits[0].current_sources):
            p = system.node_index(source.nodes[0])
            q = system.node_index(source.nodes[1])
            waveforms = [c.current_sources[slot].waveform for c in circuits]
            self._isrc.append((p, q, self._group(waveforms)))

    @staticmethod
    def _group(waveforms) -> list:
        groups: dict = {}
        order: list = []
        for k, waveform in enumerate(waveforms):
            key = waveform_state_key(waveform)
            if key not in groups:
                groups[key] = (waveform, [])
                order.append(key)
            groups[key][1].append(k)
        grouped = [groups[key] for key in order]
        return [
            (waveform, np.asarray(indices, dtype=np.intp))
            for waveform, indices in grouped
        ]

    def assemble(self, t: float, out: np.ndarray) -> np.ndarray:
        """Fill *out* (a ``(K, n)`` buffer) with ``b(t)`` per instance."""
        out.fill(0.0)
        for row, groups in self._vsrc:
            if len(groups) == 1:
                out[:, row] = groups[0][0].value(t)
            else:
                for waveform, idx in groups:
                    out[idx, row] = waveform.value(t)
        for p, q, groups in self._isrc:
            for waveform, idx in groups:
                value = waveform.value(t)
                if p >= 0:
                    out[idx, p] -= value
                if q >= 0:
                    out[idx, q] += value
        return out


class _DenseStepPlan:
    """The K = 1 backward-Euler step of a small dense circuit on Python
    floats, compiled once per stepper.

    Both marching modes and the DC start take it in place of the
    backend's stamp, ``G`` diagonal and solve (eligibility:
    :meth:`LinearStepper._compile_plan`).  Each number is bitwise the
    :class:`~repro.core.backends.DenseBackend` path's:

    - ``G`` starts from ``G_base`` (column-major, its zeros made +0.0)
      and takes the chord stamps as plain float adds in the
      ``np.add.at`` order of :class:`~repro.mna.batch.ConductanceStamper`;
    - ``A = C/h + G`` is written at the nonzeros of ``C`` only: elsewhere
      ``0.0 + G`` is ``G``, which holds no -0.0;
    - ``C`` has at most one nonzero per row, so an entry of ``C x`` is
      one product, as in numpy's matmul;
    - every solve is one LAPACK ``dgesv`` on the column-major list
      (:func:`~repro.mna.linsolve.solve_lists`), with the checks and
      messages of :meth:`~repro.mna.linsolve.LinearSolver.factor_solve`.

    A march state is a one-row list ``[x]``: the list a solve returns is
    the next stamp's gather, the controller's input and the recorded
    point, so a step converts no state between list and array.
    """

    def __init__(self, stepper: "LinearStepper", c: np.ndarray) -> None:
        n = self.n = stepper.size
        self._num_nodes = stepper.system.num_nodes
        self._stepper = stepper
        self._g_base = (stepper.backend._g_base[0] + 0.0).ravel("F").tolist()
        stamper = stepper.backend._stamper
        positions = (stamper._positions % n) * n + stamper._positions // n
        self._stamps = list(zip(positions.tolist(), stamper._columns.tolist(),
                                stamper._signs.tolist()))
        values = c.tolist()
        self._c_entries = [
            (i, j, j * n + i, values[i][j]) for i, j in np.argwhere(c).tolist()
        ]
        sources = stepper._sources
        self._vsrc = [(row, groups[0][0]) for row, groups in sources._vsrc]
        self._isrc = [(p, q, groups[0][0]) for p, q, groups in sources._isrc]

    def stamp(self, states, prev_states, h_prev, h_next,
              flops: FlopCounter | None = None) -> list[list[float]]:
        """Evaluate the chords at *states* and stamp ``G``; returns its
        diagonal as the one row of a ``(1, n)`` stack."""
        chords = self._stepper._chords(states, prev_states, h_prev, h_next, flops)
        g = self._g = self._g_base[:]
        for position, column, sign in self._stamps:
            g[position] += sign * chords[column]
        return [g[:: self.n + 1]]

    def solve(self, t_next: float, h: float, states: list[list[float]]):
        """Solve ``(C/h + G) x = b(t_next) + C x_n / h`` from the state
        ``[x_n]``; returns ``[x]`` and its largest node-voltage change."""
        g, x = self._g, states[0]
        rhs = [0.0] * self.n
        for row, waveform in self._vsrc:
            rhs[row] = waveform.value(t_next)
        for p, q, waveform in self._isrc:
            value = waveform.value(t_next)
            if p >= 0:
                rhs[p] -= value
            if q >= 0:
                rhs[q] += value
        a = g[:]
        inv_h = 1.0 / h
        for i, j, position, c in self._c_entries:
            rhs[i] += c * x[j] / h
            a[position] = c * inv_h + g[position]
        solution = solve_lists(a, rhs)
        nodes = solution[: self._num_nodes]
        dv = max([abs(v - u) for v, u in zip(nodes, x)], default=0.0)
        return [solution], dv

    def chord_solve(self, b, states, flops) -> np.ndarray:
        """Stamp ``G(states)`` and solve ``G x = b`` (the DC form),
        booking what the backend's chord solve books."""
        self.stamp(states, None, None, None, flops)
        solution = solve_lists(self._g, b[0].tolist())
        if flops is not None:
            flops.count_factorization(self.n)
            flops.count_solve(self.n)
        return np.array([solution])

    def count_flops(self, result: EnsembleTransientResult) -> None:
        """Book the march's chord evaluations, factorizations and solves
        into ``result.flops``, as the per-step calls would have."""
        flops, stamped = result.flops, result.accepted_steps
        solves = stamped + result.rejected_steps
        # The first point of a march has no previous one to predict from.
        predicted = stamped - 1 if self._stepper.options.use_predictor else 0
        self._stepper.linearization.count_flops(flops, stamped, predicted)
        if solves:
            flops.count_factorization(self.n, count=solves)
            flops.count_solve(self.n, count=solves)


class LinearStepper:
    """Backend-agnostic lockstep SWEC march over K circuit instances.

    Parameters
    ----------
    circuits:
        A sequence of K :class:`~repro.circuit.Circuit` objects sharing
        one topology (same nodes and element names/connections; values,
        waveforms and device parameters are free), or a single circuit
        with ``n_instances=K`` for noise-/initial-state-only ensembles.
    options:
        :class:`~repro.swec.engine.SwecOptions`.  ``options.backend``
        selects the solver backend by registry name; ``None`` falls
        back to *default_backend*.
    n_instances:
        Instance count when *circuits* is a single circuit.
    noise:
        Optional ``(node, amplitude)`` white-noise current injections
        (the paper's eq.-13 ``B dW`` term); amplitudes are scalars or
        length-K arrays.  Noise requires the fixed-grid backward-Euler
        mode and pre-drawn normals (:meth:`run_grid`'s ``normals=``).
    trace_instances:
        Instance indices whose per-step device chord conductances are
        recorded (requires ``options.trace_conductance``); tracing is
        per-instance opt-in so the trace memory stays at
        ``8 * T * len(trace_instances) * n_devices`` bytes.
    default_backend:
        Registry name used when ``options.backend`` is ``None``
        (``"auto"`` resolves by system size and fill ratio).
    """

    def __init__(
        self,
        circuits,
        options=None,
        *,
        n_instances: int | None = None,
        noise: Sequence[tuple[str, object]] | Mapping | None = None,
        trace_instances: Sequence[int] = (),
        default_backend: str = "stack",
    ) -> None:
        from repro.swec.conductance import SwecLinearization
        from repro.swec.engine import SwecOptions
        from repro.swec.timestep import EnsembleStepController

        if isinstance(circuits, Circuit):
            if n_instances is None or n_instances < 1:
                raise AnalysisError("a single-circuit ensemble needs n_instances >= 1")
            circuits = [circuits] * int(n_instances)
        else:
            circuits = list(circuits)
            if not circuits:
                raise AnalysisError("ensemble needs at least one circuit")
            if n_instances is not None and n_instances != len(circuits):
                raise AnalysisError(
                    f"n_instances={n_instances} does not match the "
                    f"{len(circuits)} circuits given"
                )
        self.circuits = circuits
        self.n_instances = len(circuits)
        self.options = options or SwecOptions()
        for index, circuit in enumerate(circuits[1:], start=1):
            _check_same_topology(circuits[0], circuit, index)

        systems: dict[int, MnaSystem] = {}
        self.systems = []
        for circuit in circuits:
            if id(circuit) not in systems:
                systems[id(circuit)] = MnaSystem(circuit)
            self.systems.append(systems[id(circuit)])
        self.system = self.systems[0]
        self.size = self.system.size
        self.linearization = SwecLinearization(self.system, circuits)
        self.backend: SolverBackend = create_backend(
            self.options.backend, self.systems, default=default_backend
        )
        if getattr(self.options, "fallback", False):
            from repro.core.fallback import FallbackBackend

            self.backend = FallbackBackend(self.backend)

        self._sources = _SourceBank(circuits, self.system)
        # Branch voltages of the last stamped point of the current march
        # (a list on the scalar path): a march stamps each accepted point
        # once, in order, so they are the predictor's previous point.
        # Reset by _new_result.
        self._last_voltages: np.ndarray | list[float] | None = None
        # Single instance, few devices: the vectorized laws pay more in
        # numpy small-array overhead than they save, so the K = 1 slice
        # of small circuits evaluates chords through the linearization's
        # Python-float form, and the step controller takes its node-RC
        # bound on Python floats (numerically equivalent — the lockstep
        # tests bound the difference at 1e-10).
        n_nonlinear = self.linearization.n_devices + self.linearization.n_mosfets
        self._scalar_chords = self.n_instances == 1 and n_nonlinear <= 32
        self.controller = EnsembleStepController(
            self.systems, circuits, self.options.step, scalar=self._scalar_chords
        )

        self._noise_matrix = self._build_noise(noise)
        K = self.n_instances
        self.trace_instances = tuple(int(k) for k in trace_instances)
        self._plan = self._compile_plan()
        for k in self.trace_instances:
            if not 0 <= k < K:
                raise AnalysisError(f"trace instance {k} out of range [0, {K})")
        if self.options.trace_conductance and not self.trace_instances:
            raise AnalysisError(
                "trace_conductance on an ensemble needs explicit "
                "trace_instances=(...) — a full per-instance trace would "
                "hold K * T * n_devices floats"
            )
        if self.trace_instances and not self.options.trace_conductance:
            raise AnalysisError(
                "trace_instances needs options.trace_conductance=True "
                "(tracing is gated on the same flag as the scalar engine)"
            )

    def _compile_plan(self) -> _DenseStepPlan | None:
        """The K = 1 step plan, or None to keep the backend march.

        The one eligibility rule for both marching modes: backward
        Euler, no noise injections, the scalar chord loops (K = 1, at
        most 32 nonlinear devices), at most
        :data:`~repro.mna.batch.PLAN_MAX_SIZE` unknowns, exactly
        ``DenseBackend`` (no fallback wrapper), no conductance trace,
        and at most one nonzero per row of ``C`` (grounded capacitors,
        inductors).
        """
        if not (
            self.options.method == "be"
            and self._noise_matrix is None
            and self._scalar_chords
            and self.size <= PLAN_MAX_SIZE
            and type(self.backend) is DenseBackend
            and not self.trace_instances
        ):
            return None
        c = self.backend._c[0]
        if np.count_nonzero(c, axis=1).max(initial=0) > 1:
            return None
        return _DenseStepPlan(self, c)

    @property
    def backend_name(self) -> str:
        """Registry name of the resolved solver backend."""
        return self.backend.name

    # ------------------------------------------------------------------

    def _build_noise(self, noise) -> np.ndarray | None:
        if noise is None:
            return None
        if isinstance(noise, Mapping):
            noise = list(noise.items())
        noise = list(noise)
        if not noise:
            return None
        K, n = self.n_instances, self.size
        matrix = np.zeros((K, n, len(noise)))
        for column, entry in enumerate(noise):
            node, amplitude = entry[0], entry[1]
            index = self.system.node_index(node)
            if index < 0:
                raise AnalysisError("cannot inject noise at ground")
            amplitude = np.asarray(amplitude, dtype=float)
            if amplitude.ndim == 0:
                matrix[:, index, column] = float(amplitude)
            elif amplitude.shape == (K,):
                matrix[:, index, column] = amplitude
            else:
                raise AnalysisError(
                    f"noise amplitude for {node!r} must be a scalar or "
                    f"a length-{K} array, got shape {amplitude.shape}"
                )
        return matrix

    @property
    def num_noises(self) -> int:
        """Number of independent white-noise injections."""
        return 0 if self._noise_matrix is None else self._noise_matrix.shape[2]

    # ------------------------------------------------------------------
    # Chord conductances, all instances at once
    # ------------------------------------------------------------------

    def _chords(self, states, prev_states, h_prev, h_next, flops: FlopCounter | None):
        """Chord conductances at *states*, devices then MOSFET
        drain-source (the column order of ``MnaSystem.chord_pairs``).

        A list for the one instance on the scalar path, else a
        ``(K, n_chords)`` array.  The eq.-5 predictor applies when
        *prev_states* (None at a march's first point and in the DC
        start) are the states of the previous call in this march; its
        previous branch voltages are that call's gather.
        """
        lin = self.linearization
        predict = None
        if self.options.use_predictor and prev_states is not None and h_prev and h_next:
            predict = (0.5 * h_next, self._last_voltages, h_prev)
        if self._scalar_chords:
            voltages, vgs, vds = lin.branch_voltages(states[0])
            chords = lin.device_conductances(voltages, predict)
            chords += lin.mosfet_conductances(vgs, vds)
        else:
            voltages = lin.device_voltages(states)
            device_g, _ = lin.device_terms(voltages, predict=predict)
            if lin.n_mosfets:
                mosfet_g, _, _ = lin.mosfet_terms(*lin.mosfet_vgs_vds(states))
                chords = np.concatenate((device_g, mosfet_g), axis=1)
            else:
                chords = device_g
        self._last_voltages = voltages
        if flops is not None:
            K = self.n_instances
            lin.count_flops(flops, K, 0 if predict is None else K)
        return chords

    def _stamp(
        self, states, prev_states, h_prev, h_next, flops: FlopCounter | None
    ) -> np.ndarray:
        """Evaluate chords and stamp ``G`` into the backend; returns
        the ``(K, n_chords)`` chord stack (for the conductance trace)."""
        chords = self._chords(states, prev_states, h_prev, h_next, flops)
        if self._scalar_chords:
            chords = np.array([chords])
        self.backend.stamp(chords)
        return chords

    # ------------------------------------------------------------------
    # Initial states
    # ------------------------------------------------------------------

    def _initial_state_stack(self, initial_states) -> np.ndarray:
        K, n = self.n_instances, self.size
        if initial_states is None:
            return np.stack([system.initial_state() for system in self.systems])
        states = np.array(initial_states, dtype=float, copy=True)
        if states.shape == (n,):
            states = np.broadcast_to(states, (K, n)).copy()
        if states.shape != (K, n):
            raise AnalysisError(
                f"initial states must have shape ({n},) or ({K}, {n}), "
                f"got {states.shape}"
            )
        return states

    def _dc_initialize(
        self,
        states: np.ndarray,
        result: EnsembleTransientResult,
        t: float = 0.0,
        max_iter: int = 200,
        tol: float = 1e-9,
    ) -> np.ndarray:
        """:meth:`chord_fixed_point` at time *t* (DC operating points).

        The iteration count and whether every instance settled within
        *tol* are recorded on *result* (``dc_iterations``,
        ``dc_converged``): a march that starts from a non-converged
        state says so instead of silently using it.
        """
        b = self._sources.assemble(t, np.empty((self.n_instances, self.size)))
        states, result.dc_iterations, result.dc_converged = self.chord_fixed_point(
            b, states, result.flops, max_iter=max_iter, tol=tol
        )
        return states

    def chord_solve(
        self, b: np.ndarray, states: np.ndarray, flops: FlopCounter | None
    ) -> np.ndarray:
        """Stamp ``G(states)`` and solve ``G x = b`` for all K instances
        (through the step plan when there is one)."""
        if self._plan is not None:
            return self._plan.chord_solve(b, states, flops)
        self._stamp(states, None, None, None, flops)
        return self.backend.solve_conductance(b)

    def chord_fixed_point(
        self,
        b: np.ndarray,
        states: np.ndarray,
        flops: FlopCounter | None,
        *,
        max_iter: int,
        tol: float,
        damping: float = 1.0,
        min_damping: float = 0.05,
    ) -> tuple[np.ndarray, int, bool]:
        """Damped chord fixed point ``G(x) x = b`` (DC starts, SwecDC).

        Each instance halves its damping, never below *min_damping*,
        when its update stops shrinking.  Returns the undamped iterate
        once every instance moves less than *tol*, else the last damped
        state, with the iteration count and the converged flag.
        """
        damping = np.full(self.n_instances, float(damping))
        prev_delta = np.full(self.n_instances, np.inf)
        for iteration in range(1, max_iter + 1):
            new_states = self.chord_solve(b, states, flops)
            delta = np.max(np.abs(new_states - states), axis=1)
            if np.all(delta < tol):
                return new_states, iteration, True
            shrink = (delta >= prev_delta) & (damping > min_damping)
            damping[shrink] = np.maximum(damping[shrink] * 0.5, min_damping)
            prev_delta = delta
            states = states + damping[:, None] * (new_states - states)
        return states, max_iter, False

    # ------------------------------------------------------------------
    # Marching
    # ------------------------------------------------------------------

    def _new_result(self) -> EnsembleTransientResult:
        result = EnsembleTransientResult(self.system.circuit.nodes, self.n_instances)
        result.backend = self.backend_name
        result.conductance_trace = {k: [] for k in self.trace_instances}
        self.backend.begin_run(result.flops)
        self._last_voltages = None
        return result

    def _solve_step(
        self, t, h, states, b_buf, b2_buf, t_next, noise, prev_states, h_prev
    ) -> np.ndarray:
        """One implicit solve for the whole stack, BE or trapezoidal.

        A backend that refines on kept factors starts from the linear
        predictor ``x_n + (h / h_prev) (x_n - x_{n-1})``, or from
        ``x_n`` on a march's first step.
        """
        backend = self.backend
        trapezoidal = self.options.method == "trap"
        if trapezoidal:
            rhs = self._sources.assemble(t, b_buf)
            rhs += self._sources.assemble(t_next, b2_buf)
            rhs *= 0.5
            tmp = backend.c_matvec(states)
            tmp /= h
            rhs += tmp
            gx = backend.g_matvec(states)
            gx *= 0.5
            rhs -= gx
        else:
            rhs = self._sources.assemble(t_next, b_buf)
            tmp = backend.c_matvec(states)
            tmp /= h
            rhs += tmp
        if noise is not None:
            rhs += np.einsum("knm,km->kn", self._noise_matrix, noise) / h
        if not backend.refines:
            return backend.solve_transient(h, rhs, trapezoidal)
        start = states
        if prev_states is not None:
            start = states + (h / h_prev) * (states - prev_states)
        return backend.solve_transient(h, rhs, trapezoidal, start=start)

    def run(self, t_stop: float, initial_states=None) -> EnsembleTransientResult:
        """Adaptive lockstep march from ``t = 0`` to *t_stop*.

        The shared grid takes the worst-case (smallest) eq.-10/12 step
        over the ensemble each point.  Noise injections need a fixed
        grid — use :meth:`run_grid`.
        """
        if t_stop <= 0.0:
            raise AnalysisError(f"t_stop must be positive, got {t_stop!r}")
        if self._noise_matrix is not None:
            raise AnalysisError(
                "noise ensembles need the fixed-grid mode (run_grid); "
                "an adaptive grid would couple every path's step sizes "
                "to the noise realizations"
            )
        return self._march(0.0, float(t_stop), initial_states)

    def run_grid(
        self, times, initial_states=None, *, normals=None
    ) -> EnsembleTransientResult:
        """Lockstep march on an explicit shared grid.

        The steps are exactly ``h_n = times[n+1] - times[n]``:
        ``dv_limit`` and ``max_points`` do not apply and no step limits
        are recorded.  With noise injections configured, *normals*
        (required then) are pre-drawn **standard** normals of shape
        ``(K, T - 1, m)``, scaled by ``sqrt(h_n)`` internally; each
        step adds ``B dW_n / h_n`` to the right-hand side (implicit
        Euler-Maruyama; backward Euler only).  Draw them with
        :func:`repro.stochastic.vr.path_normals` (one seeded stream per
        instance, the bit-reproducible form that survives ensemble
        splitting) or :func:`~repro.stochastic.vr.antithetic_normals`.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise AnalysisError(
                f"need a 1-D grid with >= 2 points, got shape {times.shape}"
            )
        if np.any(np.diff(times) <= 0.0):
            raise AnalysisError("grid times must be strictly increasing")
        increments = self._increments(times, normals)
        return self._march(
            float(times[0]), float(times[-1]), initial_states, times, increments
        )

    def _increments(self, times: np.ndarray, normals) -> np.ndarray | None:
        """``(K, T-1, m)`` Wiener increments from *normals*, or None
        without noise."""
        if self._noise_matrix is None:
            if normals is not None:
                raise AnalysisError(
                    "normals= passed but no noise injections are configured"
                )
            return None
        if self.options.method != "be":
            raise AnalysisError(
                "noise injections integrate as implicit Euler-Maruyama "
                "on the backward-Euler path only"
            )
        if normals is None:
            raise AnalysisError(
                "a noisy grid needs normals= (draw them with "
                "repro.stochastic.path_normals)"
            )
        shape = (self.n_instances, times.size - 1, self._noise_matrix.shape[2])
        normals = np.asarray(normals, dtype=float)
        if normals.shape != shape:
            raise AnalysisError(
                f"normals must have shape {shape}, got {normals.shape}"
            )
        return normals * np.sqrt(np.diff(times))[None, :, None]

    def _march(
        self, t, t_stop, initial_states, times=None, increments=None
    ) -> EnsembleTransientResult:
        """The stamp -> solve -> record loop from *t* to *t_stop*.

        Without *times* each step is the eq.-10/12 controller's (with
        ``dv_limit`` rejections and the ``max_points`` cap); with them,
        the steps of that grid, plus the *increments* noise terms.
        """
        opts = self.options
        grid = times is not None
        K, n = self.n_instances, self.size
        result = self._new_result()
        states = self._initial_state_stack(initial_states)
        if opts.initialize_dc and initial_states is None:
            states = self._dc_initialize(states, result, t=t)
        plan = self._plan
        if plan is not None:
            states = [states[0].tolist()]

        b_buf = np.empty((K, n))
        b2_buf = np.empty((K, n))
        nn = self.system.num_nodes
        n_devices = self.linearization.n_devices

        result.append(t, states)
        controller = self.controller
        h_min = opts.step.h_min
        at_h_min = h_min * (1.0 + 1e-9)
        dv_limit = None if grid else opts.dv_limit
        limits = result.step_limits
        h = None if grid else controller.initial_step(t_stop)
        h_prev: float | None = None
        prev_states: np.ndarray | None = None
        limit = None
        noise = None

        while t < t_stop:
            if grid:
                step = len(result) - 1
                t_next = float(times[step + 1])
                h = t_next - t
                if increments is not None:
                    noise = increments[:, step, :]
            elif len(result) >= opts.max_points:
                result.aborted = True
                result.abort_reason = (
                    f"max_points={opts.max_points} reached at t={t:.4g}"
                )
                break
            if plan is None:
                chords = self._stamp(states, prev_states, h_prev, h, result.flops)
            else:
                chords, diagonal = None, plan.stamp(states, prev_states, h_prev, h)
            if not grid:
                if plan is None:
                    diagonal = self.backend.g_diagonal()
                # A source breakpoint ends the last step's evidence of how
                # the nodes move: the step after one takes plain eq. 12.
                h = controller.next_step_from_diagonal(
                    t,
                    h if h_prev is None else h_prev,
                    diagonal,
                    t_stop,
                    states,
                    None if limit == "breakpoint" else prev_states,
                )
                limit = controller.limit

            while True:
                if not grid:
                    # The controller makes a step that lands on t_stop
                    # exactly t_stop - t; the point is then t_stop itself.
                    t_next = t_stop if h == t_stop - t else t + h
                if plan is not None:
                    new_states, dv = plan.solve(t_next, h, states)
                else:
                    new_states = self._solve_step(
                        t, h, states, b_buf, b2_buf, t_next, noise, prev_states, h_prev
                    )
                    if dv_limit is not None:
                        dv = float(np.abs(new_states[:, :nn] - states[:, :nn]).max())
                # Halve only while both halves can stay >= h_min.
                if (
                    dv_limit is not None
                    and dv > dv_limit
                    and h > h_min * 1.001
                    and t_stop - t >= 2.0 * h_min
                ):
                    result.rejected_steps += 1
                    h = max(h * 0.5, h_min)
                    limit = "dv_limit"
                    continue
                break

            prev_states, h_prev = states, h
            states = new_states
            t = t_next
            result.append(t, states)
            result.accepted_steps += 1
            if not grid:
                limits[limit] = limits.get(limit, 0) + 1
                if h <= at_h_min:
                    result.steps_at_hmin += 1
            for k in self.trace_instances:
                result.conductance_trace[k].append((t, chords[k, :n_devices].copy()))
        if plan is not None:
            plan.count_flops(result)
        # Re-read the name: a degradation chain may have switched the
        # active engine mid-run.
        result.backend = self.backend_name
        result.fallback_events = list(getattr(self.backend, "events", ()))
        result.factor_reuses = self.backend.factor_reuses
        return result
