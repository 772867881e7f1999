"""Index-based batch assembly and batched dense solves.

Four pieces shared by every stacked-system path in the repo:

:class:`ConductanceStamper`
    Scatter indices of the two-terminal stamps of ``(i, j)`` index
    pairs (:func:`~repro.mna.assembler.stamp_entries`), built once per
    analysis; it stamps a whole column of conductances into a dense
    ``(n, n)`` matrix — or a ``(K, n, n)`` stack, one conductance row
    per instance — without a Python loop over devices.

:func:`solve_stack`
    Chunked batched ``numpy.linalg.solve`` over a ``(B, n, n)`` stack
    of systems.  The AC sweeps (:mod:`repro.ac.analysis`, complex
    ``(F, n, n)`` frequency stacks) route through it, and so does the
    ``stack`` solver backend for systems larger than
    :data:`PLAN_MAX_SIZE` and for every instance its
    :class:`StackProgram` rejects, so memory bounding and
    singular-system reporting live in one place.

:class:`StackProgram`
    A straight-line LU of one sparsity pattern, replayed over the
    instance axis of a real ``(K, n, n)`` stack: the ``stack``
    backend's solve for systems of at most :data:`PLAN_MAX_SIZE`
    unknowns.

:func:`tangent_incidence`
    The branch incidences of a circuit's device stamps, shared by the
    AC tangent stamps and the PSS chord-derivative products.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.errors import SingularMatrixError
from repro.mna.assembler import stamp_entries

#: Matrix entries per solve chunk (~64 MB at complex128, ~32 MB at
#: float64) — the same bound the AC sweeps have always used.
CHUNK_ENTRIES = 4_000_000

#: Largest system the straight-line solves take: the K = 1 step plan of
#: :mod:`repro.core.stepper` and :class:`StackProgram`.  Past it a
#: LAPACK call costs less than a program's Python-level ufunc calls.
PLAN_MAX_SIZE = 12

#: Largest growth ``max |U| / max |A|`` a :class:`StackProgram` solve
#: accepts: partial pivoting's worst case ``2**(n - 1)`` (Wilkinson) at
#: ``n =`` :data:`PLAN_MAX_SIZE`.
PROGRAM_MAX_GROWTH = 2.0 ** (PLAN_MAX_SIZE - 1)


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


class StackProgram:
    """Straight-line LU of one sparsity pattern over a ``(K, n, n)`` stack.

    The refactorization of KLU (Davis & Palamadai Natarajan, ACM TOMS
    2010) and Kundert's Sparse 1.3: the elimination order is fixed once
    per pattern and only the numeric work repeats, here for all K
    instances at once.

    Parameters
    ----------
    pattern:
        ``(n, n)`` boolean union pattern: every entry any instance's
        matrix may hold nonzero.
    n_instances:
        Stack width K; the program preallocates its buffers for it.

    A structural transversal (a maximum bipartite matching of rows to
    columns) orders the rows so that every pivot is structurally
    nonzero, and symbolic elimination in that order gives the fill.
    Each entry of ``L + U`` is then one row of an ``(nnz, K)`` work
    array, and the elimination and both substitutions are one fixed
    list of ufunc calls (``out=``) on those rows.  :meth:`solve`
    gathers the stack's entries with one ``take``, replays the list
    and returns the solutions.

    The order depends on the pattern only, and every call works on one
    instance's own column, so an instance's solution is bitwise the
    same in any stack and any chunk of a run.  Without pivoting the
    factors can grow, so :meth:`solve` also names the instances whose
    solution is not finite or whose largest ``U`` entry exceeds
    :data:`PROGRAM_MAX_GROWTH` times their largest matrix entry; the
    caller solves those with :func:`solve_stack`.  Only the ``U``
    entries that elimination updates can exceed it, so a pattern
    without such entries (the FET-RTD inverter's) skips the growth
    check.  A pattern with no transversal is structurally singular and
    raises ``ValueError``.
    """

    def __init__(self, pattern: np.ndarray, n_instances: int) -> None:
        pattern = np.asarray(pattern, dtype=bool)
        n = pattern.shape[0]
        rows = maximum_bipartite_matching(sparse.csr_matrix(pattern),
                                          perm_type="row")
        if np.any(rows < 0):
            raise ValueError("pattern is structurally singular")
        filled = pattern[rows]
        below, right = [], []
        for k in range(n):
            below.append(np.flatnonzero(filled[k + 1:, k]) + k + 1)
            right.append(np.flatnonzero(filled[k, k + 1:]) + k + 1)
            filled[np.ix_(below[k], right[k])] = True
        # The U entries that elimination updates come first, so the
        # growth check reads one slice: the rest keep matrix entries.
        # A fill slot gathers its own position, which holds 0.
        grown = {(i, j) for k in range(n) for i in below[k]
                 for j in right[k] if i <= j}
        entries = sorted(map(tuple, np.argwhere(filled).tolist()),
                         key=lambda entry: entry not in grown)
        self._grown = len(grown)
        # Flat positions in the stack: entry by instance, as the work.
        positions = np.array([rows[i] * n + j for i, j in entries],
                             dtype=np.intp)
        self._gather = positions[:, None] \
            + n * n * np.arange(n_instances, dtype=np.intp)
        self._shape = (n_instances, n, n)
        self._work = np.empty((len(entries), n_instances))
        self._rhs = np.empty((n_instances, n))
        self._x = np.empty((n, n_instances))
        self._no_growth = np.zeros((1, n_instances))
        self._ops = self._program(
            {entry: self._work[s] for s, entry in enumerate(entries)},
            below, right, [self._rhs[:, row] for row in rows])

    def _program(self, a, below, right, b) -> list:
        """The ufunc calls ``(ufunc, in1, in2, out)`` of one solve.

        *a* maps an entry of ``L + U`` to its work row and *b* gives
        each permuted right-hand-side row; a row of the solution reads
        *b* until its first write.  A pivot row with no ``U`` entry
        right of the diagonal is solved in the forward sweep, where its
        column of ``L`` multiplies the solved unknown and is never
        divided by the pivot.
        """
        x, t = self._x, np.empty(self._x.shape[1])
        ops = []

        def update(target, coefficient, value):
            ops.append((np.multiply, coefficient, value, t))
            ops.append((np.subtract, b[target], t, x[target]))
            b[target] = x[target]

        for k, lower in enumerate(below):
            if right[k].size:
                for i in lower:
                    ops.append((np.divide, a[i, k], a[k, k], a[i, k]))
                    for j in right[k]:
                        ops.append((np.multiply, a[i, k], a[k, j], t))
                        ops.append((np.subtract, a[i, j], t, a[i, j]))
        for k, lower in enumerate(below):
            if not right[k].size:
                ops.append((np.divide, b[k], a[k, k], x[k]))
                b[k] = x[k]
            for i in lower:
                update(i, a[i, k], b[k])
        for k in reversed(range(len(below))):
            if right[k].size:
                for j in right[k]:
                    update(k, a[k, j], x[j])
                ops.append((np.divide, b[k], a[k, k], x[k]))
        return ops

    @np.errstate(all="ignore")
    def solve(self, matrices: np.ndarray,
              rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Solve the ``(K, n, n)`` stack for the ``(K, n)`` *rhs*.

        Returns ``(solutions, rejected)``: the ``(K, n)`` solutions and
        None, or the indices of the instances that failed the checks,
        whose rows of ``solutions`` are to be solved again.
        """
        if matrices.shape != self._shape:
            # The clipped take would read a wrong-sized stack silently.
            raise ValueError(f"expected a {self._shape} stack, "
                             f"got {matrices.shape}")
        work, x, grown = self._work, self._x, self._grown
        matrices.take(self._gather, out=work, mode="clip")
        self._rhs[...] = rhs
        if grown:
            scale = np.maximum.reduce(np.abs(work), axis=0)
        for ufunc, in1, in2, out in self._ops:
            ufunc(in1, in2, out=out)
        solutions = x.T.copy()
        # Entries no update reached are matrix entries: only the grown
        # ones can fail the bound.  The maximum propagates NaN and the
        # sum any inf or NaN, so when both pass every instance passes;
        # else each is tested alone.
        growth = np.abs(work[:grown]) / scale if grown else self._no_growth
        if np.maximum.reduce(growth, axis=None) <= PROGRAM_MAX_GROWTH \
                and math.isfinite(x.sum()):
            return solutions, None
        accepted = ((growth <= PROGRAM_MAX_GROWTH).all(axis=0)
                    & np.isfinite(x).all(axis=0))
        rejected = np.flatnonzero(~accepted)
        return solutions, rejected if rejected.size else None


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
