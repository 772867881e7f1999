"""Small-signal AC analysis: vectorized complex frequency sweeps.

:class:`ACAnalysis` linearizes a circuit about its DC operating point
(:mod:`repro.ac.linearize`) and solves

.. math::  (G_0 + j \\omega C)\\, X(\\omega) = b_{ac}

for a unit-amplitude excitation of one independent source.  The solve
strategy resolves against the :mod:`repro.core.backends` registry
through the ``backend=`` knob:

``stack`` (the default)
    All frequency matrices are assembled as one ``(F, n, n)`` complex
    stack and handed to batched LAPACK via
    :func:`repro.mna.batch.solve_stack`, chunked so memory stays
    bounded.
``sparse``
    One complex SuperLU factor/solve per frequency on CSR matrices —
    the grid-scale path where dense ``(F, n, n)`` chunks would thrash.
``dense``
    The per-frequency Python loop (:meth:`ACAnalysis.solve_loop`) —
    the reference implementation the batched paths are validated (and
    benchmarked) against.
``auto``
    Selects ``sparse`` for large, sparse systems and ``stack``
    otherwise (:func:`repro.core.backends.select_backend`).
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.ac.linearize import SmallSignalSystem, linearize
from repro.ac.result import ACResult
from repro.circuit.netlist import Circuit
from repro.core.backends import available_backends, select_backend
from repro.errors import AnalysisError, SingularMatrixError
from repro.mna.batch import solve_stack
from repro.swec.dc import SwecDCOptions

#: Frequency-grid spacings (``decade`` = points *per decade*, SPICE
#: ``.AC DEC`` style).
GRID_SCALES = ("linear", "log", "decade")


def resolve_ac_backend(name: str | None, system) -> str:
    """Resolve an AC ``backend=`` name to a concrete solve strategy.

    ``None`` means the default ``stack``; ``auto`` picks ``sparse``
    for large low-fill systems (:func:`repro.core.backends.
    select_backend` on *system*) and ``stack`` otherwise.  Each
    registry name has its own complex solve path here; other names
    raise.
    """
    if name is None:
        return "stack"
    if name not in available_backends():
        raise AnalysisError(
            f"AC analysis implements backends "
            f"{', '.join(available_backends())}; got {name!r}")
    if name == "auto":
        return "sparse" if select_backend([system]) == "sparse" \
            else "stack"
    return name


def frequency_grid(f_start: float, f_stop: float, n_points: int = 101,
                   scale: str = "log") -> np.ndarray:
    """Build an analysis frequency grid in Hz.

    ``scale="linear"`` spaces *n_points* evenly on ``[f_start,
    f_stop]``; ``"log"`` geometrically; ``"decade"`` reads *n_points*
    as points **per decade** (the SPICE ``.AC DEC`` convention) and
    derives the total count from the band width.
    """
    if scale not in GRID_SCALES:
        raise AnalysisError(
            f"scale must be one of {GRID_SCALES}, got {scale!r}")
    # ``decade`` reads n_points per decade, so 1 is legal there
    # (SPICE's ``.AC DEC 1``); the total is clamped to >= 2 below.
    if n_points < (1 if scale == "decade" else 2):
        raise AnalysisError(f"need at least 2 points, got {n_points}")
    if not f_start < f_stop:
        raise AnalysisError(
            f"need f_start < f_stop, got [{f_start!r}, {f_stop!r}]")
    if scale == "linear":
        if f_start < 0.0:
            raise AnalysisError(
                f"frequencies must be non-negative, got {f_start!r}")
        return np.linspace(f_start, f_stop, n_points)
    if f_start <= 0.0:
        raise AnalysisError(
            f"{scale} scale needs a positive f_start, got {f_start!r}")
    if scale == "decade":
        decades = math.log10(f_stop / f_start)
        n_points = max(2, int(round(n_points * decades)) + 1)
    return np.geomspace(f_start, f_stop, n_points)


def solve_many(small: SmallSignalSystem, frequencies,
               rhs_columns) -> np.ndarray:
    """Chunked batched solves of ``(G0 + j w C) X = rhs`` per column.

    A thin wrapper over :func:`repro.mna.batch.solve_stack` (shared
    with the ensemble transient engine): *rhs_columns* is an ``(n, k)``
    matrix of right-hand sides (an excitation vector, noise
    injections, ...), solved for every frequency at once; returns the
    ``(F, n, k)`` complex solution stack.  The AC layer only supplies
    the lazy per-chunk assembly — chunk sizing and memory bounding are
    ``solve_stack``'s (:data:`repro.mna.batch.CHUNK_ENTRIES`, ~64 MB
    of complex entries at a time).
    """
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.ndim != 1 or frequencies.size == 0:
        raise AnalysisError("need a 1-D, non-empty frequency grid")
    rhs = np.asarray(rhs_columns, dtype=complex)
    n = small.size
    if rhs.shape[:1] != (n,) or rhs.ndim != 2:
        raise AnalysisError(
            f"rhs columns must have shape ({n}, k), got {rhs.shape}")
    omega = 2.0 * np.pi * frequencies

    def matrices(lo: int, hi: int) -> np.ndarray:
        w = omega[lo:hi]
        return (small.g0[None, :, :]
                + 1j * w[:, None, None] * small.c[None, :, :])

    def describe(lo: int, hi: int) -> str:
        return (f"the small-signal sweep [{frequencies[lo]:.4g}, "
                f"{frequencies[hi - 1]:.4g}] Hz")

    try:
        return solve_stack(
            matrices,
            np.broadcast_to(rhs[None, :, :], (omega.size, *rhs.shape)),
            describe=describe, dtype=complex)
    except SingularMatrixError as exc:
        raise AnalysisError(str(exc)) from exc


def solve_many_sparse(small: SmallSignalSystem, frequencies,
                      rhs_columns) -> np.ndarray:
    """Sparse counterpart of :func:`solve_many`: SuperLU per frequency.

    Fixes the CSC pattern of ``G0 + jwC`` once, ordered by the
    pattern's fill-reducing :func:`~repro.mna.sparse.symmetric_ordering`,
    and pays one complex O(nnz) factorization per frequency point
    (:class:`~repro.mna.sparse.SparseSolver`) — the path ``auto``
    selects for grid-scale circuits, where a dense ``(F, n, n)``
    chunk no longer fits the cache (or memory).
    """
    from scipy import sparse as scipy_sparse

    from repro.mna.sparse import SparseSolver, symmetric_ordering

    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.ndim != 1 or frequencies.size == 0:
        raise AnalysisError("need a 1-D, non-empty frequency grid")
    rhs = np.asarray(rhs_columns, dtype=complex)
    n = small.size
    if rhs.shape[:1] != (n,) or rhs.ndim != 2:
        raise AnalysisError(
            f"rhs columns must have shape ({n}, k), got {rhs.shape}")
    pattern = (small.g0 != 0) | (small.c != 0)
    q = symmetric_ordering(scipy_sparse.csc_matrix(pattern))
    matrix = scipy_sparse.csc_matrix(pattern[np.ix_(q, q)], dtype=complex)
    # Entry i of the ordered CSC data sits at (rows[i], cols[i]) of A.
    rows = q[matrix.indices]
    cols = q[np.repeat(np.arange(n), np.diff(matrix.indptr))]
    g0_data = small.g0[rows, cols]
    c_data = small.c[rows, cols]
    rhs = rhs[q]
    solver = SparseSolver()
    out = np.empty((frequencies.size, n, rhs.shape[1]), dtype=complex)
    try:
        for index, frequency in enumerate(frequencies):
            np.multiply(c_data, 2j * np.pi * float(frequency),
                        out=matrix.data)
            matrix.data += g0_data
            solver.factor(matrix)
            # SuperLU back-substitutes all rhs columns in one call.
            out[index][q] = solver.solve(rhs)
    except SingularMatrixError as exc:
        raise AnalysisError(
            f"singular small-signal system at "
            f"{frequencies[index]:.4g} Hz: {exc}") from exc
    return out


class ACAnalysis:
    """Frequency-domain analysis of one circuit about one bias point.

    Parameters
    ----------
    circuit:
        The circuit to analyse (any :class:`~repro.circuit.Circuit`).
    source:
        Independent source carrying the unit AC excitation; defaults
        to the circuit's first voltage source (then current source).
    bias:
        Source-name -> DC value overrides for the operating point —
        e.g. ``{"Vin": 2.0}`` to bias an inverter inside its
        transition region regardless of its transient stimulus.
    dc_options:
        :class:`~repro.swec.dc.SwecDCOptions` for the bias solve.
    backend:
        Solver backend name from the :mod:`repro.core.backends`
        registry — ``"stack"`` (default, chunked batched LAPACK),
        ``"sparse"`` (SuperLU per frequency), ``"dense"`` (the
        per-frequency reference loop) or ``"auto"`` (by system size
        and fill ratio).
    """

    def __init__(self, circuit: Circuit, source: str | None = None,
                 bias: Mapping[str, float] | None = None,
                 dc_options: SwecDCOptions | None = None,
                 backend: str | None = None) -> None:
        self.circuit = circuit
        self.small: SmallSignalSystem = linearize(circuit, bias, dc_options)
        self.source = source or self.small.default_source()
        self._rhs = self.small.excitation(self.source)
        self.backend_name = resolve_ac_backend(backend, self.small.system)

    @property
    def bias_voltages(self) -> dict[str, float]:
        """Node name -> operating-point voltage."""
        return self.small.bias_voltages()

    # ------------------------------------------------------------------

    def _result(self, frequencies: np.ndarray,
                states: np.ndarray) -> ACResult:
        return ACResult(frequencies, states, self.small.node_names,
                        source_name=self.source,
                        circuit_name=self.circuit.name)

    def solve(self, frequencies) -> ACResult:
        """Sweep *frequencies* through the resolved solver backend.

        ``stack`` is one :func:`solve_many` call — within each chunk,
        assembly is a single broadcast expression and the solve one
        batched LAPACK call; ``sparse`` routes through
        :func:`solve_many_sparse`; ``dense`` through the
        :meth:`solve_loop` reference.
        """
        frequencies = np.asarray(frequencies, dtype=float)
        if self.backend_name == "dense":
            return self.solve_loop(frequencies)
        solver = solve_many_sparse if self.backend_name == "sparse" \
            else solve_many
        states = solver(self.small, frequencies,
                        self._rhs[:, None])[:, :, 0]
        return self._result(frequencies, states)

    def noise(self, frequencies, temperature: float | None = None):
        """Johnson noise spectra about this analysis' operating point.

        Reuses the existing linearization — no second bias solve — and
        this analysis' resolved solver backend.  See
        :func:`repro.ac.noise.johnson_noise`.
        """
        from repro.ac.noise import johnson_noise

        kwargs = {} if temperature is None else \
            {"temperature": temperature}
        return johnson_noise(self.small, frequencies,
                             backend=self.backend_name, **kwargs)

    def solve_loop(self, frequencies) -> ACResult:
        """Reference sweep: one Python-level solve per frequency.

        Numerically equivalent to :meth:`solve` (same LAPACK routines,
        one matrix at a time); kept for validation and as the baseline
        ``benchmarks/bench_ac.py`` measures the vectorized path
        against.
        """
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.ndim != 1 or frequencies.size == 0:
            raise AnalysisError("need a 1-D, non-empty frequency grid")
        states = np.empty((frequencies.size, self.small.size),
                          dtype=complex)
        for k, frequency in enumerate(frequencies):
            matrix = (self.small.g0
                      + 2j * np.pi * frequency * self.small.c)
            try:
                states[k] = np.linalg.solve(matrix, self._rhs)
            except np.linalg.LinAlgError as exc:
                raise AnalysisError(
                    f"singular small-signal system at "
                    f"{frequency:.4g} Hz: {exc}") from exc
        return self._result(frequencies, states)

    def sweep(self, f_start: float, f_stop: float, n_points: int = 101,
              scale: str = "log") -> ACResult:
        """Convenience: :func:`frequency_grid` + :meth:`solve`."""
        return self.solve(frequency_grid(f_start, f_stop, n_points, scale))
