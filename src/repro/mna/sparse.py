"""Sparse-matrix path for large circuits.

The paper's Section 1 motivation — "the high computational complexity at
each time step makes the traditional circuit simulators unable to
analyze practical circuits" — only bites at scale, so the scaling
ablations need more than dense LU.  This module mirrors the dense
assembly with ``scipy.sparse``:

* :class:`SparseOperators` caches the *symbolic* sparsity pattern once:
  the union structure of ``G_base``, ``C`` and every device incidence is
  one sorted array of ``row * n + col`` keys built at construction, and
  one ``searchsorted`` into it places ``G_base``, ``C``, the diagonal
  and each device's four stamp entries inside the shared CSR data
  array.  The per-step system ``G_base + sum_k g_k * E_k + C/h`` is
  then assembled by filling a data vector — O(nnz) with no structural
  churn or Python loops over matrix entries.
* The same construction fixes a *CSC plan* for the **ordered** matrix
  ``A[q][:, q]``: :func:`symmetric_ordering` computes the
  fill-reducing permutation :attr:`SparseOperators.ordering` once per
  pattern, and :attr:`SparseOperators.csc_order` maps a CSR data
  vector straight onto the CSC data of the ordered matrix.  A caller
  holding one :meth:`SparseOperators.csc_matrix` overwrites its
  ``.data`` with ``np.take(data, csc_order)`` each step, so no
  per-step ``csr_matrix(...)`` construction, ``.tocsc()`` conversion
  or permutation remains; right-hand sides go in as ``rhs[q]`` and
  solutions come back through ``x[q] = y``.
* :func:`symmetric_ordering` is the one place a column ordering is
  computed.  The MNA pattern is structurally symmetric (two-terminal
  stamps and the source incidence ``B``/``B^T``), so the ordering is
  minimum degree on ``A^T + A`` with SuperLU's ``SymmetricMode``,
  postordered along the elimination tree.  Both steps read the
  pattern only, so one probe factorization fixes the ordering for
  every matrix on that pattern.  On the 30x30 RTD mesh it has about
  two thirds of COLAMD's fill.
* :class:`SparseSolver` wraps ``splu`` with the natural column order:
  it factors the matrix it is handed, already ordered by its caller,
  with partial pivoting at SuperLU's default threshold.  Flop counts
  are *estimates* derived from the factor's fill-in (exact flop
  counting inside SuperLU is not exposed; the estimate
  ``2 * nnz(L+U) ** 1.5 / sqrt(n)`` reduces to the dense formula for
  full matrices).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.errors import SingularMatrixError
from repro.mna.assembler import MnaSystem
from repro.perf.flops import FlopCounter


def symmetric_ordering(pattern) -> np.ndarray:
    """Fill-reducing symmetric permutation ``q`` of a square *pattern*.

    Factoring ``A[q][:, q]`` in natural order reproduces SuperLU's
    minimum-degree ``A^T + A`` column ordering of ``A`` (etree
    postorder included) for every matrix ``A`` on *pattern*.  The
    ordering is structural, so one probe factorization of the pattern
    filled with seeded values fixes it; the values only let SuperLU
    finish.  A probe that fails (a structurally singular pattern)
    yields the identity, and the real factorization then reports the
    singular system.
    """
    pattern = sparse.csc_matrix(pattern)
    values = np.random.default_rng(0).uniform(1.0, 2.0, pattern.nnz)
    probe = sparse.csc_matrix(
        (values, pattern.indices, pattern.indptr), shape=pattern.shape)
    try:
        lu = splu(probe, permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
    except RuntimeError:
        return np.arange(pattern.shape[0], dtype=np.intp)
    return np.argsort(lu.perm_c)


class SparseOperators:
    """CSR views of an :class:`MnaSystem` for scalable assembly.

    The constructor performs the one-time symbolic analysis: the union
    sparsity pattern of every stamp the transient march can produce, the
    scatter of ``G_base`` and ``C`` into that pattern, and the data-array
    slots (with signs) of each nonlinear device's conductance stamp.
    """

    def __init__(self, system: MnaSystem) -> None:
        self.system = system
        self.size = system.size
        self.g_base = sparse.csr_matrix(system.conductance_base())
        self.c_matrix = sparse.csr_matrix(system.capacitance_matrix())
        pairs = system.chord_pairs()

        # --- symbolic sparsity pattern, computed once -------------------
        # Every entry is keyed row * n + col; the sorted unique keys are
        # the union pattern in CSR order, and each lookup below is one
        # searchsorted into them.
        n = self.size
        g_base, c_matrix = self.g_base.tocoo(), self.c_matrix.tocoo()
        g_keys = g_base.row.astype(np.int64) * n + g_base.col
        c_keys = c_matrix.row.astype(np.int64) * n + c_matrix.col
        # Stamp entries chord by chord in (i,i), (j,j), (i,j), (j,i)
        # order; a grounded terminal (-1) drops the entries it touches.
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        i, j = ends[:, 0], ends[:, 1]
        rows = np.stack((i, j, i, j), axis=1)
        cols = np.stack((i, j, j, i), axis=1)
        both = (i >= 0) & (j >= 0)
        chord, slot = np.nonzero(np.stack((i >= 0, j >= 0, both, both), axis=1))
        stamp_keys = rows[chord, slot] * n + cols[chord, slot]
        keys = np.unique(np.concatenate((g_keys, c_keys, stamp_keys)))
        self._nnz = keys.size
        union = sparse.csr_matrix(
            (np.ones(self._nnz), (keys // n, keys % n)), shape=(n, n))
        self._indptr = union.indptr
        self._indices = union.indices
        # CSC plan of the ordered matrix A[q][:, q]: permuting the
        # pattern with the data positions as values yields, in CSC
        # order, the CSR slot of every entry.
        q = self._ordering = symmetric_ordering(union)
        order = sparse.csr_matrix(
            (np.arange(self._nnz, dtype=float), union.indices,
             union.indptr), shape=union.shape)[q][:, q].tocsc()
        order.sort_indices()
        self._csc_order = order.data.astype(np.intp)
        self._csc_indices = order.indices
        self._csc_indptr = order.indptr
        self._base_data = np.zeros(self._nnz)
        self._base_data[np.searchsorted(keys, g_keys)] = g_base.data
        self._c_data = np.zeros(self._nnz)
        self._c_data[np.searchsorted(keys, c_keys)] = c_matrix.data
        self._stamp_positions = np.searchsorted(keys, stamp_keys)
        self._stamp_columns = chord
        self._stamp_signs = np.array([1.0, 1.0, -1.0, -1.0])[slot]
        diagonal = np.arange(n, dtype=np.int64) * (n + 1)
        found = np.searchsorted(keys, diagonal)
        present = np.append(keys, -1)[found] == diagonal
        self._diag_positions = np.where(present, found, 0).astype(np.intp)
        self._diag_mask = present.astype(float)

    # ------------------------------------------------------------------
    # Batch-assembly views (the sparse solver backend's contract)
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Nonzeros of the cached union pattern."""
        return int(self._nnz)

    @property
    def base_data(self) -> np.ndarray:
        """``G_base`` scattered onto the union pattern (read-only view)."""
        return self._base_data

    @property
    def c_data(self) -> np.ndarray:
        """``C`` scattered onto the union pattern (read-only view)."""
        return self._c_data

    def stamp_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened ``(positions, columns, signs)`` stamp scatter.

        Mirrors :class:`~repro.mna.batch.ConductanceStamper` on the
        union *data* array: entry ``i`` adds
        ``values[..., columns[i]] * signs[i]`` at ``positions[i]``,
        where ``values`` are the chord conductances in the column order
        of :meth:`~repro.mna.assembler.MnaSystem.chord_pairs`.  Entries
        are emitted chord-by-chord in stamp order, so batched
        ``np.add.at`` accumulation adds each entry's contributions in
        chord order.
        """
        return self._stamp_positions, self._stamp_columns, self._stamp_signs

    def diagonal_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, mask)`` of the main diagonal in the data array.

        Rows whose diagonal entry is absent from the pattern (pure
        branch-current rows) carry position 0 and mask 0.0, so
        ``data[positions] * mask`` yields the diagonal with structural
        zeros reported as 0.0.
        """
        return self._diag_positions, self._diag_mask

    def matrix_from_data(self, data: np.ndarray) -> sparse.csr_matrix:
        """CSR matrix over the cached pattern with *data* values."""
        return sparse.csr_matrix(
            (data, self._indices, self._indptr),
            shape=(self.size, self.size))

    @property
    def ordering(self) -> np.ndarray:
        """Symmetric fill-reducing permutation ``q`` of the pattern.

        The CSC plan holds ``A[q][:, q]``: solve it for ``rhs[q]`` and
        scatter the solution back with ``x[q] = y``.
        """
        return self._ordering

    @property
    def csc_order(self) -> np.ndarray:
        """CSR-to-ordered-CSC data permutation.

        ``csc.data = data[csc_order]`` holds ``A[q][:, q]`` for the CSR
        data vector *data* of ``A``.
        """
        return self._csc_order

    def csc_matrix(self) -> sparse.csc_matrix:
        """Zero-valued CSC matrix over the ordered pattern.

        Fill its ``.data`` with ``np.take(data, csc_order, out=...)``
        to hold ``A[q][:, q]`` for the CSR data vector *data* of ``A``.
        """
        return sparse.csc_matrix(
            (np.zeros(self._nnz), self._csc_indices.copy(),
             self._csc_indptr.copy()), shape=(self.size, self.size))


class SparseSolver:
    """``splu``-backed factor/solve pair with flop estimates.

    The solver never orders: it factors with the natural column order,
    and its callers hand it a matrix already permuted by the pattern's
    :func:`symmetric_ordering` (computed once per pattern, not per
    factorization).
    """

    def __init__(self, flops: FlopCounter | None = None) -> None:
        self.flops = flops
        self._lu = None
        self._n = 0
        self._fill = 0

    def factor(self, matrix: sparse.csc_matrix) -> None:
        """Factor a sparse CSC matrix in its given column order.

        A failed call leaves no factorization behind for :meth:`solve`.
        """
        self._lu = None
        if matrix.shape[0] != matrix.shape[1]:
            raise SingularMatrixError(
                f"expected square matrix, got {matrix.shape}")
        self._n = matrix.shape[0]
        try:
            lu = splu(matrix.tocsc(), permc_spec="NATURAL",
                      options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularMatrixError(str(exc)) from exc
        self._lu = lu
        self._fill = lu.L.nnz + lu.U.nnz
        if self.flops is not None:
            estimate = int(2.0 * self._fill ** 1.5
                           / max(np.sqrt(self._n), 1.0))
            self.flops.add("factor", estimate)
            self.flops.factorizations += 1

    @property
    def fill(self) -> int:
        """``nnz(L) + nnz(U)`` of the current factorization."""
        return self._fill

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute against the cached factorization.

        Real and complex systems alike (the AC sweeps factor
        ``G0 + jwC`` through this solver).
        """
        if self._lu is None:
            raise SingularMatrixError("factor() before solve()")
        rhs = np.asarray(
            rhs, dtype=complex if np.iscomplexobj(rhs) else float)
        solution = self._lu.solve(rhs)
        if self.flops is not None:
            self.flops.add("solve", 2 * self._fill)
            self.flops.linear_solves += 1
        if not np.all(np.isfinite(solution)):
            raise SingularMatrixError("sparse solution is non-finite")
        return solution
