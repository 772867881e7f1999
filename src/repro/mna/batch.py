"""Index-based batch assembly and chunked batched dense solves.

Three pieces shared by every stacked-system path in the repo:

:class:`ConductanceStamper`
    Scatter indices of the two-terminal stamps of ``(i, j)`` index
    pairs (:func:`~repro.mna.assembler.stamp_entries`), built once per
    analysis; it stamps a whole column of conductances into a dense
    ``(n, n)`` matrix — or a ``(K, n, n)`` stack, one conductance row
    per instance — without a Python loop over devices.

:func:`solve_stack`
    Chunked batched ``numpy.linalg.solve`` over a ``(B, n, n)`` stack
    of systems.  The AC sweeps (:mod:`repro.ac.analysis`, complex
    ``(F, n, n)`` frequency stacks) and the ensemble transient engine
    (:mod:`repro.swec.ensemble`, real ``(K, n, n)`` instance stacks)
    both route through it, so memory bounding and singular-system
    reporting live in one place.

:func:`tangent_incidence`
    The branch incidences of a circuit's device stamps, shared by the
    AC tangent stamps and the PSS chord-derivative products.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import sparse

from repro.errors import SingularMatrixError
from repro.mna.assembler import stamp_entries

#: Matrix entries per solve chunk (~64 MB at complex128, ~32 MB at
#: float64) — the same bound the AC sweeps have always used.
CHUNK_ENTRIES = 4_000_000


def solve_stack(matrices, rhs, *, chunk_entries: int | None = None,
                describe: Callable[[int, int], str] | None = None,
                dtype=None) -> np.ndarray:
    """Solve a stack of linear systems with chunked batched LAPACK.

    Parameters
    ----------
    matrices:
        ``(B, n, n)`` array stack, or a callable ``matrices(lo, hi)``
        returning the ``(hi - lo, n, n)`` chunk — the lazy form lets
        callers assemble huge stacks chunk by chunk (the AC sweep
        never materializes its full ``(F, n, n)`` complex stack).
    rhs:
        ``(B, n)`` right-hand sides, or ``(B, n, k)`` for multiple
        columns per system.  A ``numpy.broadcast_to`` view is fine —
        it is only ever sliced.
    chunk_entries:
        Matrix entries per chunk; defaults to :data:`CHUNK_ENTRIES`.
    describe:
        Optional ``describe(lo, hi)`` callback naming the chunk in the
        :class:`~repro.errors.SingularMatrixError` message.
    dtype:
        Result dtype; defaults to the rhs dtype (callers passing a
        lazy complex ``matrices`` with a real rhs must say so).

    Returns the ``(B, n)`` or ``(B, n, k)`` solution stack, matching
    the rhs rank.
    """
    rhs = np.asarray(rhs)
    if rhs.ndim not in (2, 3):
        raise ValueError(
            f"rhs must have shape (B, n) or (B, n, k), got {rhs.shape}")
    squeeze = rhs.ndim == 2
    rhs3 = rhs[:, :, None] if squeeze else rhs
    batch, n = rhs3.shape[0], rhs3.shape[1]
    if dtype is None:
        dtype = rhs.dtype if np.iscomplexobj(rhs) else float
    out = np.empty((batch, n, rhs3.shape[2]), dtype=dtype)
    entries = CHUNK_ENTRIES if chunk_entries is None else int(chunk_entries)
    chunk = max(1, entries // max(n * n, 1))
    for lo in range(0, batch, chunk):
        hi = min(lo + chunk, batch)
        block = matrices(lo, hi) if callable(matrices) else matrices[lo:hi]
        try:
            out[lo:hi] = np.linalg.solve(block, rhs3[lo:hi])
        except np.linalg.LinAlgError as exc:
            context = describe(lo, hi) if describe is not None else \
                f"batch [{lo}, {hi})"
            raise SingularMatrixError(
                f"singular system in {context}: {exc}") from exc
    return out[:, :, 0] if squeeze else out


class ConductanceStamper:
    """Scatter-index stamping of two-terminal conductances.

    Parameters
    ----------
    pairs:
        ``(i, j)`` row/column index pairs, one per conductance to be
        stamped; ``-1`` means ground (that side does not stamp).
    size:
        System dimension ``n``.

    ``stamp(matrix, values)`` adds each ``values[..., k]`` between
    ``pairs[k]`` as the entries of
    :func:`~repro.mna.assembler.stamp_entries`, in one ``np.add.at``
    scatter, with an optional leading batch axis on both arguments.
    Entries run device by device, so each matrix entry sums its
    stamps in device order.
    """

    def __init__(self, pairs, size: int) -> None:
        self.size = int(size)
        self.n_values = len(pairs)
        rows, cols, columns, signs = stamp_entries(pairs)
        self._positions = (rows * self.size + cols).astype(np.intp)
        self._columns = columns
        self._signs = signs
        self._plans: dict[int, tuple] = {}

    def stamp(self, matrix: np.ndarray, values: np.ndarray) -> None:
        """Stamp *values* into *matrix* in place.

        *matrix* is ``(n, n)`` or a C-contiguous ``(K, n, n)`` stack;
        *values* correspondingly ``(n_values,)`` or ``(K, n_values)``.
        The stack is gathered and scattered as flat arrays: instance
        ``k``'s entries sit ``k * n * n`` further on, so no two
        instances share a position and each keeps its device-then-entry
        order.
        """
        if self._positions.size == 0:
            return
        if not matrix.flags.c_contiguous:
            # reshape on a non-contiguous array would copy and the
            # in-place scatter would be lost.
            raise ValueError("stamp target must be C-contiguous")
        positions, columns, signs = self._batch_plan(matrix.size // self.size ** 2)
        values = np.asarray(values, dtype=float).reshape(-1)
        np.add.at(matrix.reshape(-1), positions, values.take(columns) * signs)

    def flat_entries(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, entries)`` that stamp each row of *values*.

        For a ``(rows, n_values)`` array, ``np.add.at(matrix.reshape(-1),
        positions, entries[k])`` adds row ``k`` into an ``(n, n)``
        matrix exactly as :meth:`stamp` would — the form for a caller
        that stamps many value rows one matrix at a time.
        """
        values = np.asarray(values, dtype=float)
        return self._positions, values[..., self._columns] * self._signs

    def _batch_plan(self, batch: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(positions, value columns, signs)`` for a batch of stacks."""
        plan = self._plans.get(batch)
        if plan is None:
            offsets = np.arange(batch, dtype=np.intp)[:, None]
            plan = ((offsets * self.size ** 2 + self._positions).reshape(-1),
                    (offsets * self.n_values + self._columns).reshape(-1),
                    np.tile(self._signs, batch))
            self._plans[batch] = plan
        return plan


def _branch_incidence(pairs, size: int) -> sparse.csr_matrix:
    """``(len(pairs), size)`` map from a state to the branch voltages
    ``x[plus] - x[minus]`` of *pairs* (index -1 is ground)."""
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    row, end = np.nonzero(ends >= 0)
    return sparse.csr_matrix((1.0 - 2.0 * end, (row, ends[row, end])),
                             shape=(len(pairs), size))


def tangent_incidence(system) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """``(P, E)``: the device stamps of *system* as incidences.

    ``P`` maps a state to the controlling branch voltages (the chord
    pairs of :meth:`~repro.mna.assembler.MnaSystem.chord_pairs`, then
    MOSFET gate-source) and ``E`` to the stamped branches (the chord
    pairs, then MOSFET drain-source again), so ``E^T diag(c) P`` stamps
    one conductance per device and a ``gds`` and a ``gm`` per MOSFET.
    """
    mosfets = system.mosfet_terminals()
    pairs = system.chord_pairs()
    control = _branch_incidence(
        pairs + tuple((g, s) for _d, g, s in mosfets), system.size)
    return control, _branch_incidence(
        pairs + tuple((d, s) for d, _g, s in mosfets), system.size)
