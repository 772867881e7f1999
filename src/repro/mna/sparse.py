"""Sparse-matrix path for large circuits.

The paper's Section 1 motivation — "the high computational complexity at
each time step makes the traditional circuit simulators unable to
analyze practical circuits" — only bites at scale, so the scaling
ablations need more than dense LU.  This module assembles the same
matrices with ``scipy.sparse`` and never builds an ``n x n`` array:

* :class:`SparseOperators` caches the *symbolic* sparsity pattern once:
  the summed triplets of ``G_base`` and ``C``
  (:func:`~repro.mna.assembler.summed_keys`) and every device's
  :func:`~repro.mna.assembler.stamp_entries` form one sorted array of
  ``row * n + col`` keys, and one ``searchsorted`` into it places
  ``G_base``, ``C``, the diagonal and each device's four stamp
  entries inside the shared CSR data array.  The per-step system
  ``G_base + sum_k g_k * E_k + C/h`` is then assembled by filling a
  data vector — O(nnz) with no structural churn or Python loops over
  matrix entries.
* The same construction fixes a *CSC plan* for the **ordered** matrix
  ``A[q][:, q]``: :func:`symmetric_ordering` computes the
  fill-reducing permutation :attr:`SparseOperators.ordering` once per
  pattern, and :attr:`SparseOperators.csc_order` maps a CSR data
  vector straight onto the CSC data of the ordered matrix.  A caller
  holding one :meth:`SparseOperators.csc_matrix` overwrites its
  ``.data`` with ``np.take(data, csc_order)`` each step, so no
  per-step ``csr_matrix(...)`` construction, ``.tocsc()`` conversion
  or permutation remains; a :class:`SparseSolver` told ``q``
  (:attr:`SparseSolver.ordering`) takes right-hand sides in as
  ``rhs[q]`` and returns solutions through ``x[q] = y``.
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
  full matrices).  The fill is read from ``SuperLU.nnz``, the stored
  size of the factors, without materializing ``L`` and ``U``.
* :meth:`SparseSolver.refine` solves a *nearby* matrix on a kept
  factor by fixed-precision iterative refinement (Wilkinson, *Rounding
  Errors in Algebraic Processes*, 1963; Higham, *Accuracy and
  Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 12): a few
  back-substitutions and residual products instead of a factorization,
  or None when the correction stalls.  It sweeps in the factor's own
  ordering, on the ordered matrix of the *product plan*
  (:meth:`SparseOperators.product_matrix`: ``A[q][:, q]`` in CSR with
  each row's entries in ``A``'s order, so its products are ``A``'s to
  the bit), and starts from a guess at the solution when its caller
  has one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.errors import SingularMatrixError
from repro.mna.assembler import MnaSystem, stamp_entries, summed_keys
from repro.perf.flops import FlopCounter

# The three refinement constants were measured on the benchmark march:
# the 30x30 RTD mesh, 40 steps of 5 ps, three seeded starts (117 steps),
# each step refined on the one factor the march keeps and started from
# the march's linear predictor.

#: Residual-correction sweeps :meth:`SparseSolver.refine` may spend.
#: A step needs 4-6 (5 on 74 of the 117 steps, 6 on 23); started from
#: ``LU^-1 rhs`` instead, it needed 4-7 (7 on 84).  A sweep (one
#: back-substitution and one residual product) costs about 50 us
#: against about 1.3 ms for a SuperLU factorization, so 8 sweeps still
#: cost under a third of a factorization.
REFINE_SWEEPS = 8

#: Largest accepted correction, relative to ``max|x|`` (4.5 ulps).
#: Continued past convergence, corrections settle at the rounding floor:
#: at most 3.4e-16 of ``max|x|`` (median 3.9e-17) over the 117 steps.
REFINE_TOLERANCE = 1e-15

#: Each sweep must shrink the correction at least by this factor.  While
#: converging a sweep shrinks it at least 200-fold (240-fold in the
#: median), and the sweep that reaches the floor at least 17-fold; at
#: the rounding floor the ratio hovers around 1 and reaches 2.5.  So a
#: sweep that fails to halve the correction has stalled or diverges.
REFINE_RATE = 0.5


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
    :attr:`c_matrix` is ``C`` alone in CSR form, for ``C x`` products.
    """

    def __init__(self, system: MnaSystem) -> None:
        n = self.size = system.size

        # --- symbolic sparsity pattern, computed once -------------------
        # Every entry is keyed row * n + col; the sorted unique keys are
        # the union pattern in CSR order, and each lookup below is one
        # searchsorted into them.
        g_keys, g_data = summed_keys(system.conductance_triplets(), n)
        c_keys, c_data = summed_keys(system.capacitance_triplets(), n)
        self.c_matrix = sparse.csr_matrix(
            (c_data, (c_keys // n, c_keys % n)), shape=(n, n))
        rows, cols, columns, signs = stamp_entries(system.chord_pairs())
        stamp_keys = rows * n + cols
        keys = np.unique(np.concatenate((g_keys, c_keys, stamp_keys)))
        #: Nonzeros of the cached union pattern.
        self.nnz = keys.size
        union = sparse.csr_matrix(
            (np.ones(self.nnz), (keys // n, keys % n)), shape=(n, n))
        self._indptr = union.indptr
        self._indices = union.indices
        # CSC plan of the ordered matrix A[q][:, q]: permuting the
        # pattern with the data positions as values yields, in CSC
        # order, the CSR slot of every entry.
        #: Symmetric fill-reducing permutation ``q`` of the pattern: the
        #: CSC plan holds ``A[q][:, q]``; solve it for ``rhs[q]`` and
        #: scatter the solution back with ``x[q] = y``.
        q = self.ordering = symmetric_ordering(union)
        rows = sparse.csr_matrix(
            (np.arange(self.nnz, dtype=float), union.indices,
             union.indptr), shape=union.shape)[q]
        order = rows[:, q].tocsc()
        order.sort_indices()
        #: CSR-to-ordered-CSC data permutation: ``data[csc_order]``
        #: holds ``A[q][:, q]`` for the CSR data vector *data* of ``A``.
        self.csc_order = order.data.astype(np.intp)
        self._csc_indices = order.indices
        self._csc_indptr = order.indptr
        # Product plan of the same ordered matrix, in CSR: row i is row
        # q[i] of A with its entries in A's column order, relabeled, so
        # a product sums each row as A's own product does.
        #: CSR-to-product-plan data permutation: ``data[product_order]``
        #: fills :meth:`product_matrix` with ``A[q][:, q]``.
        self.product_order = rows.data.astype(np.intp)
        self._product_indices = np.argsort(q)[rows.indices].astype(
            rows.indices.dtype)
        self._product_indptr = rows.indptr
        #: ``G_base`` and ``C`` scattered onto the union pattern.
        self.base_data = np.zeros(self.nnz)
        self.base_data[np.searchsorted(keys, g_keys)] = g_data
        self.c_data = np.zeros(self.nnz)
        self.c_data[np.searchsorted(keys, c_keys)] = c_data
        self._stamp_positions = np.searchsorted(keys, stamp_keys)
        self._stamp_columns = columns
        self._stamp_signs = signs
        diagonal = np.arange(n, dtype=np.int64) * (n + 1)
        found = np.searchsorted(keys, diagonal)
        present = np.append(keys, -1)[found] == diagonal
        self._diag_positions = np.where(present, found, 0).astype(np.intp)
        self._diag_mask = present.astype(float)

    # ------------------------------------------------------------------
    # Batch-assembly views (the sparse solver backend's contract)
    # ------------------------------------------------------------------

    def stamp_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened ``(positions, columns, signs)`` stamp scatter: the
        :func:`~repro.mna.assembler.stamp_entries` of the chord pairs in
        the union *data* array.  Entry ``i`` adds ``values[...,
        columns[i]] * signs[i]`` at ``positions[i]``, in chord order.
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

    def product_matrix(self) -> sparse.csr_matrix:
        """Zero-valued CSR matrix over the ordered pattern, for products.

        Fill its ``.data`` with ``np.take(data, product_order, out=...)``
        to hold ``A[q][:, q]`` for the CSR data vector *data* of ``A``.
        Each row keeps ``A``'s entries in ``A``'s column order, so its
        product with ``x[q]`` is ``(A @ x)[q]`` to the bit; the CSC plan,
        summed column by column, rounds differently.
        """
        return sparse.csr_matrix(
            (np.zeros(self.nnz), self._product_indices.copy(),
             self._product_indptr.copy()), shape=(self.size, self.size))

    def csc_matrix(self) -> sparse.csc_matrix:
        """Zero-valued CSC matrix over the ordered pattern.

        Fill its ``.data`` with ``np.take(data, csc_order, out=...)``
        to hold ``A[q][:, q]`` for the CSR data vector *data* of ``A``.
        """
        return sparse.csc_matrix(
            (np.zeros(self.nnz), self._csc_indices.copy(),
             self._csc_indptr.copy()), shape=(self.size, self.size))


class SparseSolver:
    """``splu``-backed factor/solve pair with flop estimates.

    The solver never orders: it factors with the natural column order,
    and its callers hand it a matrix already permuted by the pattern's
    :func:`symmetric_ordering` (computed once per pattern, not per
    factorization), setting :attr:`ordering` when the solver should
    permute the vectors it solves for.
    """

    def __init__(self, flops: FlopCounter | None = None) -> None:
        self.flops = flops
        #: Symmetric permutation ``q`` of the matrix :meth:`factor` is
        #: handed, which then holds ``A[q][:, q]``: :meth:`solve` and
        #: :meth:`refine` take and return vectors of ``A``'s own system.
        #: None when the factored matrix is ``A`` itself.
        self.ordering = None
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
        # The stored size of the supernodal factors; ``lu.L``/``lu.U``
        # would build both as CSC matrices just to count them.
        self._fill = lu.nnz
        if self.flops is not None:
            estimate = int(2.0 * self._fill ** 1.5
                           / max(np.sqrt(self._n), 1.0))
            self.flops.add("factor", estimate)
            self.flops.factorizations += 1

    @property
    def fill(self) -> int:
        """Stored entries of the current factorization (``SuperLU.nnz``).

        Equals ``nnz(L) + nnz(U)`` on grid-scale patterns (the RTD,
        RC and power-grid meshes from 5x5 up).  On patterns of a few
        dozen unknowns SuperLU keeps relaxed supernodes as dense blocks,
        and the count includes their explicit zeros, which the
        triangular solves also touch: 132 against 59 on the 11-unknown
        ``rc_mesh(3, 3)``.
        """
        return self._fill

    def refine(self, matrix: sparse.spmatrix, rhs: np.ndarray,
               start: np.ndarray | None = None) -> np.ndarray | None:
        """Solve ``A x = rhs`` by residual correction on this factor.

        *matrix* is a nearby matrix on the factored one's pattern, in the
        factor's own ordering, as :meth:`factor` is handed it: with
        :attr:`ordering` ``q`` it holds ``A[q][:, q]``.  *rhs*, *start*
        and the solution are vectors of ``A``'s own system, permuted
        into and out of that ordering once each; the sweeps run in it.

        Starting from ``x = LU^-1 rhs``, or, given a *start* (a guess at
        the solution, such as the march's predictor), from
        ``x = start + LU^-1 (rhs - A start)``, each sweep adds
        ``LU^-1 (rhs - A x)``; *x* is accepted once a correction's
        largest entry is at most :data:`REFINE_TOLERANCE` of ``max|x|``.
        A sweep that fails to shrink the correction by
        :data:`REFINE_RATE` (the first is measured against ``max|x|``),
        a non-finite value or :data:`REFINE_SWEEPS` spent sweeps return
        None instead, and the caller factors ``A`` afresh.

        Every back-substitution books its ``solve`` flops and every
        residual product, the start's included, ``2 nnz`` flops under
        ``residual``, accepted or not; counting the linear solve is the
        caller's.
        """
        if self._lu is None:
            raise SingularMatrixError("factor() before refine()")
        q = self.ordering
        if q is not None:
            rhs = rhs[q]
            start = None if start is None else start[q]
        substitute = self._lu.solve
        if start is None:
            x = substitute(rhs)
        else:
            x = start + substitute(rhs - matrix @ start)
        previous = float(np.abs(x).max())
        solution = None
        for sweeps in range(1, REFINE_SWEEPS + 1):
            correction = substitute(rhs - matrix @ x)
            x += correction
            size = float(np.abs(correction).max())
            scale = float(np.abs(x).max())
            if not math.isfinite(scale) or not size <= REFINE_RATE * previous:
                break
            if size <= REFINE_TOLERANCE * scale:
                solution = x
                break
            previous = size
        if self.flops is not None:
            self.flops.add("solve", 2 * self._fill * (sweeps + 1))
            self.flops.add("residual",
                           2 * matrix.nnz * (sweeps + (start is not None)))
        if solution is None or q is None:
            return solution
        unordered = np.empty_like(solution)
        unordered[q] = solution
        return unordered

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute against the cached factorization.

        Real and complex systems alike (the AC sweeps factor
        ``G0 + jwC`` through this solver).
        """
        if self._lu is None:
            raise SingularMatrixError("factor() before solve()")
        rhs = np.asarray(
            rhs, dtype=complex if np.iscomplexobj(rhs) else float)
        q = self.ordering
        if q is None:
            solution = self._lu.solve(rhs)
        else:
            solution = np.empty_like(rhs)
            solution[q] = self._lu.solve(rhs[q])
        if self.flops is not None:
            self.flops.add("solve", 2 * self._fill)
            self.flops.linear_solves += 1
        if not np.all(np.isfinite(solution)):
            raise SingularMatrixError("sparse solution is non-finite")
        return solution
