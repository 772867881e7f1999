"""Shooting-Newton periodic steady-state on the SWEC march.

The shooting method treats one marched period as a map: ``Phi(x0)``
integrates the circuit from state ``x0`` over ``[0, T]`` on a fixed
``steps_per_period`` backward-Euler grid (the existing
:class:`~repro.swec.SwecTransient` march, any solver backend) and
returns the endpoint.  A periodic steady state is a fixed point
``Phi(x*) = x*``; Newton's method on the residual ``r = Phi(x0) - x0``
needs the sensitivity ``M = dPhi/dx0`` — the monodromy matrix.

``M`` is never formed.  Newton's linear system is solved by GMRES,
which only needs products ``M v``, and each product re-runs the
differentiated march (matrix-free Newton–Krylov shooting, after
Telichevesky, Kundert & White, DAC 1995).  Each BE step solved

.. math:: A_n x_{n+1} = b(t_{n+1}) + (C/h)\\,x_n,
          \\qquad A_n = G_{base} + G_{chord}(x_n) + C/h,

so ``dx_{n+1}/dx_n = A_n^{-1} (C/h - D_n)`` where ``D_n`` collects the
state dependence of the chord stamps: a two-terminal device stamped
``g_{ch}(v_n) w_{n+1}`` contributes ``g_{ch}'(v_n) w_{n+1}``, and the
chord/tangent identity ``g_{ch}'(v)\\,v = dI/dV - g_{ch}`` turns that
into the device's tangent conductance minus its chord.  ``M v`` chains
``v <- A_n^{-1} (C/h - D_n) v`` along the march's stored states,
factoring each ``A_n`` with the march's own solver backend (SuperLU on
``sparse``, LAPACK on ``dense``/``stack``) and booking the work it
runs.  ``sparse`` keeps factors across the products of one Newton solve
as its march does: on a chordless (linear) circuit the factor of each
distinct step ``h`` (at most 16, :data:`~repro.core.backends.
SPARSE_FACTOR_MEMO`; 7-11 on a uniform period grid), else the last
factor, refined on.
Beyond the marched trajectory a product keeps O(n + n_devices)
numbers per step.  The products are exact for the
*discretized* map, so driven Newton converges quadratically (linear
circuits in one iteration).  The autonomous period column below is
the endpoint velocity, a first-order estimate of ``dPhi/dT``, so
autonomous Newton converges linearly: 5-6 iterations on the RTD
oscillators of the golden corpus.

Two modes:

* **driven** — the period is imposed by the sources (or ``period=``);
  plain Newton ``(M - I) d = -r``.  Linear circuits converge in one
  iteration.
* **autonomous** — free-running oscillators have no imposed period and
  a translation-invariant orbit, so ``T`` joins the unknowns and a
  phase condition pins one state component: the bordered system

  .. math:: \\begin{pmatrix} M - I & f_T T \\\\ e_k^\\top & 0
            \\end{pmatrix}
            \\begin{pmatrix} d \\\\ dT/T \\end{pmatrix}
            = \\begin{pmatrix} -r \\\\ 0 \\end{pmatrix}

  with ``f_T`` the endpoint state velocity.  The period unknown is the
  relative change ``dT/T``, which puts its column on the scale of the
  state columns.  The phase row pins ``d_k = 0``, so GMRES solves the
  system with that row eliminated: column ``k`` of ``M - I`` carries
  the period column, and unknown ``k`` is ``dT/T``.  The initial guess
  comes from a short adaptive settle march plus a level-crossing
  period estimate, refined on the fixed grid.

GMRES stops at an absolute residual of ``1e-3 * tolerance``, so a
linear circuit still closes in one Newton step; a GMRES run that
misses it raises :class:`~repro.errors.PSSError`.  The converged orbit
satisfies ``max|x(T) - x(0)| < tolerance`` on the discrete map;
anything less raises :class:`~repro.errors.PSSError`
(converged-or-raised, never silently wrong).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, gmres

from repro.analysis.measure import crossing_times
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Pulse, Sine
from repro.errors import AnalysisError, PSSError, SingularMatrixError
from repro.mna.batch import ConductanceStamper, tangent_incidence
from repro.perf.flops import FlopCounter

__all__ = [
    "Monodromy",
    "PSSOptions",
    "PSSResult",
    "ShootingPSS",
    "detect_drive_period",
    "run_pss",
]

#: Branch voltages smaller than this skip the chord-derivative
#: correction (the chord tends to the tangent there, so the correction
#: term ``(dI/dV - g_ch)/v`` is a removable 0/0).
_V_EPS = 1e-12

#: GMRES stops at an absolute residual of this fraction of
#: ``PSSOptions.tolerance``.
_KRYLOV_TOLERANCE = 1e-3

#: Krylov basis size between GMRES restarts.  The basis holds this
#: many state vectors.
_KRYLOV_RESTART = 60

#: GMRES restart cycles before the solve counts as failed.
_KRYLOV_CYCLES = 4


@dataclass
class PSSOptions:
    """Tunables for the shooting analysis.

    Attributes
    ----------
    period:
        Fixed drive period for a driven circuit.  ``None`` auto-detects
        it from the periodic source waveforms; if none exist the
        circuit is treated as autonomous (which then needs
        ``period_guess``).
    period_guess:
        Rough period scale of an autonomous oscillator — it only sets
        the settle horizon and the crossing-detection window, so a
        factor-of-two error is harmless.  Implies autonomous mode.
    steps_per_period:
        Uniform BE steps per period.  The converged orbit is the fixed
        point of *this* grid's map; oracle comparisons must march the
        same grid.
    tolerance:
        Convergence threshold on ``max|x(T) - x(0)|``.  GMRES solves
        each Newton system to an absolute residual of ``1e-3`` times
        this.
    max_iterations:
        Newton iteration cap; exceeding it raises
        :class:`~repro.errors.PSSError`.
    phase_node:
        Node whose state component is pinned by the autonomous phase
        condition (default: the largest-swing node of the settle tail).
    settle_periods:
        Autonomous settle horizon, in units of ``period_guess``.
    refine_periods:
        Fixed-grid periods marched after the settle to refine the
        period estimate and the starting state.
    swec:
        March options (:class:`~repro.swec.SwecOptions` or a flat
        mapping).  ``use_predictor`` and ``initialize_dc`` are forced
        off and ``method`` to ``"be"`` — the predictor carries history
        across the period boundary and breaks the fixed-point map.
    backend:
        Solver backend for every march (``dense``/``sparse``/
        ``stack``/``auto``); overrides any ``swec`` setting.
    """

    period: float | None = None
    period_guess: float | None = None
    steps_per_period: int = 400
    tolerance: float = 1e-9
    max_iterations: int = 10
    phase_node: str | None = None
    settle_periods: float = 5.0
    refine_periods: int = 2
    swec: Any = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.period is not None and self.period <= 0.0:
            raise AnalysisError(
                f"period must be positive, got {self.period!r}")
        if self.period_guess is not None and self.period_guess <= 0.0:
            raise AnalysisError(
                f"period_guess must be positive, got {self.period_guess!r}")
        if self.period is not None and self.period_guess is not None:
            raise AnalysisError(
                "give period= (driven) or period_guess= (autonomous), "
                "not both")
        if self.steps_per_period < 8:
            raise AnalysisError(
                f"steps_per_period must be >= 8, got "
                f"{self.steps_per_period!r}")
        if self.tolerance <= 0.0:
            raise AnalysisError(
                f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise AnalysisError(
                f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if self.refine_periods < 1:
            raise AnalysisError(
                f"refine_periods must be >= 1, got {self.refine_periods!r}")


class PSSResult:
    """One converged periodic orbit.

    ``times``/``states`` hold the closing period on its uniform grid
    (``steps_per_period + 1`` points, endpoint included); the
    periodicity defect ``max|states[-1] - states[0]|`` is below the
    requested tolerance by construction.
    """

    def __init__(self, node_names, times, states, *, period, mode,
                 iterations, residual, residual_history, phase_node,
                 backend, flops, factor_reuses=0) -> None:
        self.node_names = tuple(node_names)
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        #: Converged period of the discrete map (equals the drive
        #: period in driven mode).
        self.period = float(period)
        #: ``"driven"`` or ``"autonomous"``.
        self.mode = mode
        self.iterations = int(iterations)
        #: Final periodicity residual ``max|x(T) - x(0)|``.
        self.residual = float(residual)
        #: Residual after each Newton iteration, first to last.
        self.residual_history = tuple(float(r) for r in residual_history)
        #: Pinned phase node (autonomous mode only).
        self.phase_node = phase_node
        #: Resolved solver backend the marches ran on.
        self.backend = backend
        #: Merged work counters: every Newton march and every ``M v``
        #: product, each booking the factorizations and solves its
        #: backend ran.
        self.flops = flops if flops is not None else FlopCounter()
        #: Factorizations the marches and products skipped by reusing
        #: a kept factor (``sparse`` only), so
        #: ``flops.factorizations + factor_reuses`` counts the step
        #: matrices solved on every backend.
        self.factor_reuses = int(factor_reuses)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def frequency(self) -> float:
        """Fundamental frequency ``1 / period``."""
        return 1.0 / self.period

    def _node_column(self, node: str | None) -> int:
        if node is None:
            return len(self.node_names) - 1
        try:
            return self.node_names.index(node)
        except ValueError:
            raise AnalysisError(
                f"no node named {node!r} "
                f"(has: {', '.join(self.node_names)})") from None

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of *node*'s voltage over the closing period."""
        return self.states[:, self._node_column(node)]

    def amplitude(self, node: str | None = None) -> float:
        """Half the peak-to-peak swing of *node* (default: last node)."""
        return 0.5 * self.peak_to_peak(node)

    def peak_to_peak(self, node: str | None = None) -> float:
        """Peak-to-peak swing of *node* over one period."""
        v = self.states[:, self._node_column(node)]
        return float(v.max() - v.min())

    def mean(self, node: str | None = None) -> float:
        """Period-average of *node* (endpoint excluded: uniform grid)."""
        return float(np.mean(self.states[:-1, self._node_column(node)]))

    def harmonic(self, node: str | None = None, order: int = 1) -> complex:
        """Complex Fourier coefficient of harmonic *order*.

        Order 0 is the mean; order ``k >= 1`` is ``c_k`` in
        ``v(t) = c_0 + sum_k 2 Re(c_k exp(2j pi k t / T))``, computed
        by FFT over the uniform one-period grid (endpoint dropped).
        """
        v = self.states[:-1, self._node_column(node)]
        if not 0 <= order < len(v) // 2:
            raise AnalysisError(
                f"harmonic order {order} out of range for "
                f"{len(v)} samples per period")
        return complex(np.fft.rfft(v)[order] / len(v))

    def harmonic_magnitude(self, node: str | None = None,
                           order: int = 1) -> float:
        """Amplitude of harmonic *order* (``2|c_k|`` for ``k >= 1``)."""
        coefficient = self.harmonic(node, order)
        return abs(coefficient) if order == 0 else 2.0 * abs(coefficient)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PSSResult(mode={self.mode!r}, period={self.period:.6e}, "
                f"iterations={self.iterations}, "
                f"residual={self.residual:.3e})")


def detect_drive_period(circuit: Circuit) -> float | None:
    """Common period of the circuit's periodic sources, if any.

    ``Pulse``/``Clock`` waveforms contribute their period, ``Sine``
    waveforms ``1/frequency``; DC and aperiodic sources are ignored.
    Returns ``None`` for a source-free (autonomous) circuit; raises
    :class:`~repro.errors.PSSError` when two sources disagree — pass
    ``period=`` explicitly in that case.
    """
    periods = []
    for source in list(circuit.voltage_sources) + \
            list(circuit.current_sources):
        waveform = source.waveform
        if isinstance(waveform, Pulse) and math.isfinite(waveform.period):
            periods.append(float(waveform.period))
        elif isinstance(waveform, Sine):
            periods.append(1.0 / float(waveform.frequency))
    if not periods:
        return None
    reference = periods[0]
    for period in periods[1:]:
        if abs(period - reference) > 1e-9 * reference:
            raise PSSError(
                f"sources disagree on the drive period "
                f"({sorted(set(periods))}); pass period= explicitly")
    return reference


def _correction_scale(chord, v, w) -> np.ndarray:
    """``w / v`` where the chord-derivative correction applies, else 0.

    A clamped chord (``g <= 0``) has no state dependence, and below
    :data:`_V_EPS` the correction is a removable 0/0.
    """
    active = (chord > 0.0) & (np.abs(v) > _V_EPS)
    return np.where(active, w / np.where(active, v, 1.0), 0.0)


class _ChordSensitivity:
    """Per-step chords and the chord-derivative term ``D_n``.

    ``D_n v = E (c_n * (P v))``: ``P`` maps a state to the controlling
    branch voltages (device branches, MOSFET drain-source, MOSFET
    gate-source), ``c_n`` holds one coefficient per control branch and
    step, and ``E`` scatters the resulting currents into the device and
    MOSFET drain-source stamps.  Two products per step and no
    ``(n, n)`` matrix; ``P`` and ``E`` are sparse on the sparse backend
    and plain arrays for the small dense systems, where numpy beats
    scipy's per-call sparse dispatch.
    """

    def __init__(self, system, linearization, dense: bool) -> None:
        self._linearization = linearization
        self._control, output = tangent_incidence(system)
        self._output = output.T.tocsr()
        if dense:
            self._control = self._control.toarray()
            self._output = self._output.toarray()
        self.coupled = self._control.shape[0] > 0

    def step_terms(self, states: np.ndarray):
        """``(chords, coefficients)`` for every step of a march.

        ``chords[n]`` are the clamped chords the march stamped at
        ``x_n`` (devices, then MOSFETs); ``coefficients[n]`` are the
        ``c_n`` of ``D_n``, each a tangent minus a chord (or a ``gm``)
        times ``w_{n+1} / v_n``.  Both are ``(steps, count)`` arrays;
        the linearization forms chord and tangent from one law pass over
        all steps.
        """
        lin = self._linearization
        v = lin.device_voltages(states[:-1])
        w = lin.device_voltages(states[1:])
        chord, tangent = lin.device_terms(v, tangent=True)
        vgs, vds = lin.mosfet_vgs_vds(states[:-1])
        _, wds = lin.mosfet_vgs_vds(states[1:])
        mosfet_chord, gm, gds = lin.mosfet_terms(vgs, vds, partials=True)
        device_scale = _correction_scale(chord, v, w)
        mosfet_scale = _correction_scale(mosfet_chord, vds, wds)
        coefficients = np.concatenate((
            (tangent - chord) * device_scale,
            (gds - mosfet_chord) * mosfet_scale,
            gm * mosfet_scale,
        ), axis=1)
        return np.concatenate((chord, mosfet_chord), axis=1), coefficients

    def apply(self, coefficients: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``D_n v`` for the step whose coefficients are given."""
        return self._output @ (coefficients * (self._control @ v))


class _DenseStepSolver:
    """``A_n`` on dense LAPACK ``getrf``/``getrs``: the dense and stack
    backends' family.

    ``A_n = C/h + G_base`` plus the chord stamps is assembled in one
    ``(n, n)`` buffer, factored and solved — one factorization alive at
    a time.  These are the routines
    :class:`~repro.mna.linsolve.LinearSolver` wraps, called directly:
    at n = 4-6 that wrapper's per-call finiteness checks cost as much
    as the LAPACK work, and a product repeats them on matrices the
    march already factored through them.  A sweep checks each pivot
    through ``getrf``'s ``info``, and :class:`Monodromy` checks the
    product's finiteness once.  Each sweep books one factorization and
    one solve per step.
    """

    #: Every step factors afresh.
    factor_reuses = 0

    def __init__(self, system) -> None:
        self._base = system.conductance_base()
        self._c = system.capacitance_matrix()
        self._a = np.empty(self._base.shape)
        self._stamper = ConductanceStamper(system.chord_pairs(), system.size)
        self._flops = None

    def begin(self, flops: FlopCounter | None) -> None:
        """Book the sweeps of a new operator into *flops*."""
        self._flops = flops

    def sweep(self, x, steps, chords, coefficients, sensitivity):
        """Chain ``x <- A_n^{-1} (C/h - D_n) x`` over every step."""
        a, base, c = self._a, self._base, self._c
        flat = a.reshape(-1)
        positions, entries = self._stamper.flat_entries(chords)
        for n, h in enumerate(steps):
            rhs = c @ x
            rhs /= h
            if sensitivity.coupled:
                rhs -= sensitivity.apply(coefficients[n], x)
            np.multiply(c, 1.0 / h, out=a)
            a += base
            np.add.at(flat, positions, entries[n])
            lu, piv, info = lapack.dgetrf(a)
            if info > 0:
                raise SingularMatrixError(
                    f"step matrix {n} of the period is singular")
            x, _ = lapack.dgetrs(lu, piv, rhs)
        if self._flops is not None:
            self._flops.count_factorization(len(x), count=len(steps))
            self._flops.count_solve(len(x), count=len(steps))
        return x


class _BackendStepSolver:
    """``A_n`` through a solver backend's own stamp/factor/solve.

    The sparse family: the backend's cached pattern, CSC plan and
    SuperLU factor, exactly as the march factors — including its kept
    factors, which live across every product of this operator.  The
    backend books the work it runs, reuses included.
    """

    def __init__(self, backend) -> None:
        self._backend = backend

    def begin(self, flops: FlopCounter | None) -> None:
        """Start a new operator from empty caches, booking into *flops*."""
        self._backend.begin_run(flops)

    @property
    def factor_reuses(self) -> int:
        """Factorizations skipped since :meth:`begin`."""
        return self._backend.factor_reuses

    def sweep(self, x, steps, chords, coefficients, sensitivity):
        """Chain ``x <- A_n^{-1} (C/h - D_n) x`` over every step."""
        backend = self._backend
        for n, h in enumerate(steps):
            rhs = backend.c_matvec(x[None, :])
            rhs /= h
            if sensitivity.coupled:
                rhs[0] -= sensitivity.apply(coefficients[n], x)
            backend.stamp(chords[None, n])
            x = backend.solve_transient(h, rhs)[0]
        return x


class Monodromy:
    """Matrix-free monodromy ``M = dPhi/dx0`` of one marched period.

    :meth:`matvec` chains ``v <- A_n^{-1} (C/h - D_n) v`` along the
    march's stored states, where ``A_n`` is the matrix the march
    factored at step ``n`` (base stamps + clamped chords + ``C/h``),
    assembled and factored again in the march backend's solver family
    (the chordless sparse backend reuses the factor of a repeated
    step instead).  Per step the operator stores only ``h``, the
    chords and the ``D_n`` coefficients — O(n_devices) numbers.  ``velocity`` is the endpoint
    state velocity ``f_T``, the autonomous period column.  Each
    product books into *flops* the work its step solver ran;
    :attr:`factor_reuses` counts the factorizations they skipped.
    """

    def __init__(self, step_solver, sensitivity: _ChordSensitivity,
                 times: np.ndarray, states: np.ndarray,
                 flops: FlopCounter | None = None) -> None:
        states = np.asarray(states, dtype=float)
        step_solver.begin(flops)
        self._step_solver = step_solver
        self._sensitivity = sensitivity
        self._h = np.diff(np.asarray(times, dtype=float))
        self._chords, self._coefficients = sensitivity.step_terms(states)
        self.size = states.shape[1]
        self.velocity = (states[-1] - states[-2]) / self._h[-1]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The product ``M v``."""
        x = self._step_solver.sweep(
            np.array(v, dtype=float).reshape(self.size), self._h.tolist(),
            self._chords, self._coefficients, self._sensitivity)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("monodromy product is non-finite")
        return x

    @property
    def factor_reuses(self) -> int:
        """Factorizations the products so far skipped by reusing one."""
        return self._step_solver.factor_reuses


class ShootingPSS:
    """Shooting-Newton periodic steady-state analysis of one circuit.

    Construction resolves the mode (driven vs. autonomous, see
    :class:`PSSOptions`) and builds the SWEC march; :meth:`run`
    executes the pipeline and returns a :class:`PSSResult` or raises
    :class:`~repro.errors.PSSError`.
    """

    def __init__(self, circuit: Circuit,
                 options: PSSOptions | None = None) -> None:
        from repro.runtime.jobs import _swec_options, apply_backend
        from repro.swec import SwecOptions, SwecTransient

        self.circuit = circuit
        self.options = options or PSSOptions()
        swec = apply_backend(self.options.swec, self.options.backend)
        if isinstance(swec, Mapping):
            swec = _swec_options(dict(swec))
        if swec is None:
            swec = SwecOptions()
        # The predictor extrapolates chords from march history, which
        # crosses the period boundary between Newton iterations and
        # floors the achievable periodicity at ~1e-7; BE is the one
        # formula the matrix-free monodromy differentiates.
        self._swec = replace(swec, use_predictor=False,
                             initialize_dc=False, method="be",
                             trace_conductance=False)
        self.engine = SwecTransient(circuit, self._swec)
        self.system = self.engine.system
        self.linearization = self.engine.linearization
        sparse_family = self.backend_name == "sparse"
        self._sensitivity = _ChordSensitivity(
            self.system, self.linearization, dense=not sparse_family)
        self._dense_solver = None if sparse_family else _DenseStepSolver(
            self.system)
        period = self.options.period
        if period is None and self.options.period_guess is None:
            period = detect_drive_period(circuit)
        self.mode = "autonomous" if period is None else "driven"
        self._period = period
        if self.mode == "autonomous" and self.options.period_guess is None:
            raise PSSError(
                f"circuit {circuit.name!r} has no periodic source; "
                f"autonomous analysis needs period_guess=")

    @property
    def backend_name(self) -> str:
        """Registry name of the resolved solver backend."""
        return self.engine.backend_name

    # ------------------------------------------------------------------
    # Marching
    # ------------------------------------------------------------------

    def _march(self, x0: np.ndarray, period: float,
               periods: int, flops: FlopCounter):
        """March ``periods`` uniform periods from *x0*; merge flops."""
        steps = self.options.steps_per_period * periods
        grid = np.linspace(0.0, period * periods, steps + 1)
        result = self.engine.run_grid(grid, initial_state=x0)
        flops.merge(result.flops)
        self._factor_reuses += result.factor_reuses
        if result.aborted:
            raise PSSError(
                f"period march aborted: {result.abort_reason}")
        return result

    def _settle_options(self, period_guess: float):
        """Adaptive step control scaled to the expected period."""
        from repro.swec.timestep import StepControlOptions

        if self.options.swec is not None:
            return self._swec
        return replace(self._swec, step=StepControlOptions(
            epsilon=0.2, h_min=1e-18,
            h_max=period_guess / 128.0,
            h_initial=period_guess / 4096.0))

    # ------------------------------------------------------------------
    # Newton–Krylov linear algebra
    # ------------------------------------------------------------------

    def monodromy(self, times: np.ndarray, states: np.ndarray,
                  flops: FlopCounter | None = None) -> Monodromy:
        """Matrix-free ``M = dPhi/dx0`` along one marched period."""
        step_solver = self._dense_solver or _BackendStepSolver(
            self.engine.backend)
        return Monodromy(step_solver, self._sensitivity, times, states,
                         flops)

    @staticmethod
    def newton_operator(monodromy: Monodromy, period: float | None = None,
                        phase_index: int | None = None) -> LinearOperator:
        """Newton's shooting matrix as a :class:`LinearOperator`.

        ``M - I`` in driven mode (*phase_index* ``None``).  In
        autonomous mode, the bordered system with its phase row
        eliminated: the row pins ``d[phase_index] = 0``, so that column
        of ``M - I`` is free to carry the period column
        ``f_T * period``, and entry ``phase_index`` of the unknown is
        the relative period change ``dT/T``.  Same solution, one
        Krylov dimension fewer than the ``(n + 1)`` bordered matrix.
        """
        n = monodromy.size
        if phase_index is None:
            def driven(d):
                d = np.ravel(d)
                return monodromy.matvec(d) - d

            return LinearOperator((n, n), matvec=driven, dtype=float)
        column = monodromy.velocity * period

        def bordered(z):
            z = np.ravel(z)
            d = z.copy()
            d[phase_index] = 0.0
            return monodromy.matvec(d) - d + column * z[phase_index]

        return LinearOperator((n, n), matvec=bordered, dtype=float)

    def _krylov_solve(self, operator: LinearOperator, rhs: np.ndarray,
                      iteration: int, defect: float) -> np.ndarray:
        """GMRES on the Newton system to ``1e-3 * tolerance``; or raise."""
        atol = _KRYLOV_TOLERANCE * self.options.tolerance
        size = operator.shape[0]
        try:
            solution, info = gmres(
                operator, rhs, rtol=0.0, atol=atol,
                restart=min(size, _KRYLOV_RESTART), maxiter=_KRYLOV_CYCLES)
        except SingularMatrixError as exc:
            raise PSSError(
                f"shooting Jacobian product failed: {exc}",
                iterations=iteration, residual=defect) from exc
        if info != 0 or not np.all(np.isfinite(solution)):
            raise PSSError(
                f"GMRES did not solve the shooting Newton system to "
                f"{atol:g} (is the circuit missing dynamics?)",
                iterations=iteration, residual=defect)
        return solution

    # ------------------------------------------------------------------
    # Autonomous period bootstrap
    # ------------------------------------------------------------------

    def _crossing_period(self, times, values) -> tuple[float | None, float]:
        """Mean rising-crossing interval of the mid-level, and level."""
        level = 0.5 * (float(values.min()) + float(values.max()))
        crossings = crossing_times(times, values, level, "rising")
        if len(crossings) < 3:
            return None, level
        intervals = np.diff(crossings[-4:])
        return float(np.mean(intervals)), level

    def _pick_phase_node(self, result) -> str:
        """Largest-swing node of a settle march (the phase pin)."""
        if self.options.phase_node is not None:
            return self.options.phase_node
        swings = {
            name: float(np.ptp(result.voltage(name)))
            for name in result.node_names
        }
        return max(swings, key=swings.get)

    def _bootstrap(self, flops: FlopCounter):
        """Settle, detect crossings, refine: ``(x0, T0, phase_node)``."""
        from repro.swec import SwecTransient

        guess = float(self.options.period_guess)
        settle_time = self.options.settle_periods * guess
        settle_engine = SwecTransient(
            self.circuit, self._settle_options(guess))
        period = None
        for attempt in range(2):
            horizon = settle_time * (2.0 ** attempt)
            settle = settle_engine.run(horizon)
            flops.merge(settle.flops)
            self._factor_reuses += settle.factor_reuses
            phase_node = self._pick_phase_node(settle)
            tail = settle.times > settle.times[-1] / 3.0
            period, _ = self._crossing_period(
                settle.times[tail], settle.voltage(phase_node)[tail])
            if period is not None:
                break
        if period is None:
            raise PSSError(
                f"no oscillation detected on {phase_node!r} within "
                f"{horizon:.3e} s; check period_guess= or the circuit "
                f"(is the DC point stable?)")
        x0 = settle.states[-1]
        refine = self._march(x0, period, self.options.refine_periods,
                             flops)
        refined, _ = self._crossing_period(
            refine.times, refine.voltage(phase_node))
        if refined is not None:
            period = refined
        return refine.states[-1], period, phase_node

    # ------------------------------------------------------------------
    # Newton iterations
    # ------------------------------------------------------------------

    def _result(self, march, *, period, iterations, residual, history,
                phase_node, flops) -> PSSResult:
        return PSSResult(
            march.node_names, march.times, march.states,
            period=period, mode=self.mode, iterations=iterations,
            residual=residual, residual_history=history,
            phase_node=phase_node, backend=self.backend_name,
            flops=flops, factor_reuses=self._factor_reuses)

    def run(self, initial_state: np.ndarray | None = None) -> PSSResult:
        """Execute the shooting pipeline; converged orbit or raise.

        *initial_state* overrides the starting guess (driven mode) or
        the post-settle state (autonomous mode, e.g. to re-seed from a
        brute-force march).
        """
        flops = FlopCounter()
        self._factor_reuses = 0
        tolerance = self.options.tolerance
        history: list[float] = []
        if self.mode == "autonomous":
            if initial_state is None:
                x0, period, phase_node = self._bootstrap(flops)
            else:
                x0 = np.asarray(initial_state, dtype=float)
                period = float(self.options.period_guess)
                phase_node = self.options.phase_node or \
                    self.circuit.nodes[-1]
            phase_index = self.system.node_index(phase_node)
        else:
            period = float(self._period)
            phase_node = None
            x0 = (self.system.initial_state() if initial_state is None
                  else np.asarray(initial_state, dtype=float))
        for iteration in range(1, self.options.max_iterations + 1):
            march = self._march(x0, period, 1, flops)
            residual = march.states[-1] - march.states[0]
            defect = float(np.max(np.abs(residual)))
            history.append(defect)
            if defect < tolerance:
                return self._result(
                    march, period=period, iterations=iteration - 1,
                    residual=defect, history=history,
                    phase_node=phase_node, flops=flops)
            monodromy = self.monodromy(march.times, march.states, flops)
            if self.mode == "autonomous":
                operator = self.newton_operator(monodromy, period,
                                                phase_index)
                delta = self._krylov_solve(operator, -residual,
                                           iteration, defect)
                relative_dt = float(delta[phase_index])
                delta[phase_index] = 0.0
                x0 = x0 + delta
                period = period + period * relative_dt
                if not math.isfinite(period) or period <= 0.0:
                    raise PSSError(
                        f"shooting period update diverged to "
                        f"{period!r}; check period_guess=",
                        iterations=iteration, residual=defect)
            else:
                operator = self.newton_operator(monodromy)
                x0 = x0 + self._krylov_solve(operator, -residual,
                                             iteration, defect)
            self._factor_reuses += monodromy.factor_reuses
            if not np.all(np.isfinite(x0)):
                raise PSSError(
                    "shooting Newton update diverged (non-finite state)",
                    iterations=iteration, residual=defect)
        raise PSSError(
            f"shooting Newton did not reach tolerance {tolerance:g} in "
            f"{self.options.max_iterations} iterations",
            iterations=self.options.max_iterations,
            residual=history[-1])


def run_pss(circuit: Circuit, options: PSSOptions | None = None,
            **kwargs) -> PSSResult:
    """One-call front door: ``run_pss(circuit, period=...)``.

    Keyword arguments build a :class:`PSSOptions` when *options* is
    omitted; see that class for the knobs.
    """
    if options is None:
        options = PSSOptions(**kwargs)
    elif kwargs:
        options = replace(options, **kwargs)
    return ShootingPSS(circuit, options).run()
