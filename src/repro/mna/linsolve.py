"""Dense linear solves with flop accounting.

All paper circuits are tiny (a handful of nodes), so the default path is
dense LU.  :class:`LinearSolver` calls LAPACK ``dgetrf``/``dgetrs``
directly, or ``dgesv`` (the two in one call) when one solve follows
each factorization.  At the sizes SWEC marches (n ~ 8) the
``scipy.linalg`` ``lu_factor``/``lu_solve`` wrappers cost about ten
times the LAPACK work they wrap; they call the very same routines, so
skipping them leaves every result bitwise unchanged.  The checks live
here instead: a square, finite matrix, no zero or non-finite pivot, a
right-hand side of matching length and a finite solution — each
failure raises :class:`~repro.errors.SingularMatrixError`.
:func:`solve_lists` is the same fused solve on Python lists, for the
K = 1 step plan that holds its matrix and right-hand side as lists.

The factorization is cached between calls; engines that keep the matrix
fixed across several solves (e.g. Newton with a frozen Jacobian, or
linear circuits with a constant step) pay it once, and the flop counter
reflects that.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

from repro.errors import SingularMatrixError
from repro.perf.flops import FlopCounter


def solve_dense(matrix: np.ndarray, rhs: np.ndarray,
                flops: FlopCounter | None = None) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` once, counting flops into *flops*."""
    return LinearSolver(flops).factor_solve(matrix, rhs)


#: Largest array whose finiteness :func:`_all_finite` tests on Python
#: floats (an 8 x 8 matrix); numpy's two calls are cheaper above it.
_SCALAR_CHECK_MAX = 64


def _finite(values: list[float]) -> bool:
    """Whether every float in *values* is finite.

    A NaN or infinite entry makes the sum of the entries non-finite, so
    a finite sum settles it; a sum that overflowed from finite entries
    falls back to the per-entry test.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _all_finite(array: np.ndarray) -> bool:
    """``np.isfinite(array).all()``, cheaper for the small arrays SWEC
    solves."""
    if array.size > _SCALAR_CHECK_MAX:
        return bool(np.isfinite(array).all())
    # Memory order: no copy of a column-major matrix, same finiteness.
    return _finite(array.ravel("K").tolist())


_SINGULAR = "MNA matrix is singular (floating node or short loop?)"


def solve_lists(matrix: list[float], rhs: list[float]) -> list[float]:
    """:meth:`LinearSolver.factor_solve` of the column-major ``n x n``
    *matrix* on Python lists, bitwise: one ``dgesv``, which factors the
    fresh array in place, with the same three checks and messages run on
    the lists.  Returns the solution as a list; books no flops."""
    if not _finite(matrix):
        raise SingularMatrixError("matrix contains non-finite entries")
    n = len(rhs)
    lu, _piv, solution, info = lapack.dgesv(
        np.array(matrix).reshape(n, n).T, rhs, overwrite_a=1)
    if info > 0 or not _finite(lu.diagonal().tolist()):
        raise SingularMatrixError(_SINGULAR)
    x = solution.tolist()
    if not _finite(x):
        raise SingularMatrixError("solution contains non-finite entries")
    return x


class LinearSolver:
    """LU-based solver with an explicit factor/solve split.

    Parameters
    ----------
    flops:
        Optional :class:`FlopCounter`; factorizations and substitutions
        are recorded into it when given.
    """

    def __init__(self, flops: FlopCounter | None = None) -> None:
        self.flops = flops
        self._lu = None
        self._piv = None
        self._n = 0

    def factor(self, matrix: np.ndarray) -> None:
        """Factor *matrix*; raises :class:`SingularMatrixError` if unusable.

        A failed call leaves no factorization behind for :meth:`solve`.
        """
        self._lu = None
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise SingularMatrixError(
                f"expected a square matrix, got shape {matrix.shape}")
        if not _all_finite(matrix):
            raise SingularMatrixError("matrix contains non-finite entries")
        n = matrix.shape[0]
        if n:
            # getrf copies its input (overwrite_a=0) and reports the
            # first exactly-zero pivot of U through info > 0; a pivot
            # that overflowed shows up non-finite on U's diagonal.
            lu, piv, info = lapack.dgetrf(matrix)
            if info > 0 or not _all_finite(lu.diagonal()):
                raise SingularMatrixError(_SINGULAR)
        else:
            lu, piv = matrix.copy(), np.empty(0, dtype=np.int32)
        self._lu, self._piv, self._n = lu, piv, n
        if self.flops is not None:
            self.flops.count_factorization(n)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute against the cached factorization.

        *rhs* is ``(n,)`` or ``(n, k)``; the solution has its shape.
        """
        if self._lu is None:
            raise SingularMatrixError("factor() must be called before solve()")
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self._n:
            raise SingularMatrixError(
                f"rhs length {rhs.shape[0]} does not match matrix size {self._n}")
        if self._n:
            solution, _info = lapack.dgetrs(self._lu, self._piv, rhs)
        else:
            solution = rhs.copy()
        if self.flops is not None:
            self.flops.count_solve(self._n)
        if not _all_finite(solution):
            raise SingularMatrixError("solution contains non-finite entries")
        return solution

    def factor_solve(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """:meth:`factor` then :meth:`solve` in one LAPACK ``dgesv`` call.

        Same checks, messages and flop counts as the two calls, and the
        factorization stays cached for later :meth:`solve` calls.
        ``dgesv`` is ``dgetrf`` followed by ``dgetrs``, so the solution
        is bitwise theirs.  An empty system or a mismatched *rhs* takes
        the two calls themselves.
        """
        self._lu = None
        matrix = np.asarray(matrix, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if (matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]
                or not matrix.shape[0] or rhs.shape[0] != matrix.shape[0]):
            self.factor(matrix)
            return self.solve(rhs)
        if not _all_finite(matrix):
            raise SingularMatrixError("matrix contains non-finite entries")
        lu, piv, solution, info = lapack.dgesv(matrix, rhs)
        if info > 0 or not _all_finite(lu.diagonal()):
            raise SingularMatrixError(_SINGULAR)
        n = matrix.shape[0]
        self._lu, self._piv, self._n = lu, piv, n
        if self.flops is not None:
            self.flops.count_factorization(n)
            self.flops.count_solve(n)
        if not _all_finite(solution):
            raise SingularMatrixError("solution contains non-finite entries")
        return solution

    @property
    def size(self) -> int:
        """Dimension of the factored system (0 before factoring)."""
        return self._n
