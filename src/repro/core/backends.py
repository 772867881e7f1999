"""Pluggable solver backends: one factor/solve contract, four engines.

Every analysis in this repo reduces to the same recipe — stamp a linear
system, solve it, advance — but until this module each engine hard-wired
its own solver: the scalar transient called dense LAPACK, the ensemble
march batched ``np.linalg.solve``, and the scipy-sparse path was only
reachable from one engine.  A :class:`SolverBackend` owns the
backend-specific half of that recipe for a stack of K same-topology
:class:`~repro.mna.assembler.MnaSystem` instances:

``dense``
    Per-instance dense assembly with LAPACK LU
    (:class:`~repro.mna.linsolve.LinearSolver`), one fused ``dgesv``
    per solve.  The classic K = 1 SWEC path.
``sparse``
    CSR assembly on the cached symbolic pattern of
    :class:`~repro.mna.sparse.SparseOperators` with SuperLU solves
    (:class:`~repro.mna.sparse.SparseSolver`), vectorized over the
    batch axis — grid-scale circuits, now for every analysis (the
    sparse *ensemble* march did not exist before this layer).
``stack``
    Batched dense solves of the ``(K, n, n)`` stack.  Up to
    :data:`~repro.mna.batch.PLAN_MAX_SIZE` unknowns, one straight-line
    LU (:class:`~repro.mna.batch.StackProgram`) whose elimination
    order is fixed once per pattern, replayed on all K instances at
    once; an instance it rejects, and every larger system, takes the
    chunked batched LAPACK of :func:`~repro.mna.batch.solve_stack`.
    The lockstep-ensemble hot path.
``auto``
    Not a backend but a selector: :func:`select_backend` picks by
    system size, batch width and fill ratio.

Backends are addressed by name through one fixed registry
(:data:`BACKENDS`, :func:`get_backend`, :func:`available_backends`),
which is what the ``backend=`` knob threaded through
:class:`~repro.swec.SwecOptions`, the runtime jobs, the sweep specs,
the AC sweeps and the CLIs resolves against.

``dense`` and ``stack`` factor afresh at every solve.  ``sparse``
keeps SuperLU factors for the current run, at most
:data:`SPARSE_FACTOR_MEMO` of them (0 factors at every step):

* systems without chord stamps (no nonlinear device, so
  :meth:`~repro.mna.assembler.MnaSystem.chord_pairs` is empty) solve
  the exact matrix ``scale G_base + C/h`` at every step, so the factors
  are keyed on ``(scale, h)`` and a repeated step back-substitutes only
  (the transient-matrix reuse of Telichevesky, Kundert & White, DAC
  1995);
* chorded systems keep each instance's last factor and solve the next
  step matrix by fixed-precision iterative refinement on it
  (:meth:`~repro.mna.sparse.SparseSolver.refine`; Wilkinson 1963,
  Higham 2002 ch. 12), refactoring when it stalls.  The refinement
  sweeps in the factor's ordering, starts from the march's linear
  predictor ``x_n + (h / h_prev) (x_n - x_{n-1})`` and stops once the
  error its measured contraction leaves is within tolerance (the
  simplified-Newton test of Hairer & Wanner, *Solving ODEs II*,
  IV.8): on the 30x30 RTD mesh a step then takes 5.0
  back-substitutions, where stopping on the last correction took 6.0
  and a start from ``LU^-1 b`` 7.4, and one factor serves a 40-step
  march.

Each such solve counts one :attr:`~SolverBackend.factor_reuses` per
instance.

Flop accounting lives *inside* the backends so the
:class:`~repro.perf.flops.FlopCounter` event counters (factorizations,
linear solves) are comparable across them: a march of a chorded system
records the same number of factor/solve events whichever backend
executes it, and on every backend ``factorizations + factor_reuses``
counts the step matrices solved (the flop totals still reflect each
algorithm's own cost model — dense ``2/3 n^3`` versus the SuperLU
fill-in estimate).  A reused factor books no factorization; its solves
book the fill of the factor they use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError, SingularMatrixError
from repro.mna.assembler import summed_keys
from repro.mna.batch import (
    PLAN_MAX_SIZE,
    ConductanceStamper,
    StackProgram,
    solve_stack,
)
from repro.mna.linsolve import LinearSolver
from repro.mna.sparse import SparseOperators, SparseSolver
from repro.perf.flops import FlopCounter

__all__ = [
    "AUTO_SPARSE_MAX_DENSITY",
    "AUTO_SPARSE_MIN_SIZE",
    "BACKENDS",
    "DenseBackend",
    "SPARSE_FACTOR_MEMO",
    "SolverBackend",
    "SparseBackend",
    "StackBackend",
    "available_backends",
    "create_backend",
    "get_backend",
    "select_backend",
    "system_density",
]

#: Smallest system size for which ``auto`` considers the sparse path.
AUTO_SPARSE_MIN_SIZE = 192

#: Largest fill ratio for which ``auto`` considers the sparse path.
AUTO_SPARSE_MAX_DENSITY = 0.05

#: Most SuperLU factorizations a sparse backend keeps, summed over its
#: K instances; a chorded stack keeps K (one each) or, for K > 16,
#: none.  A uniform period grid of 100 or 400 steps (``np.linspace``)
#: has only 7-11 distinct floating-point steps, so 16 holds every step
#: matrix of a K = 1 shooting period, while a 40x40 power grid (about
#: 0.7 MB per SuperLU factor) keeps at most ~11 MB.
SPARSE_FACTOR_MEMO = 16


class SolverBackend:
    """Assembly + factor/solve engine for K same-topology systems.

    Subclasses own the matrix representation; callers see one
    batch-first contract (every array carries a leading instance axis,
    K = 1 included):

    ``stamp(chords)``
        Assemble ``G = G_base + stamps`` for all K instances from the
        ``(K, n_chords)`` chord conductances, in the column order of
        :meth:`~repro.mna.assembler.MnaSystem.chord_pairs`.
    ``g_diagonal()``
        ``(K, n)`` diagonal of the stamped ``G`` (the eq.-12 node-RC
        step bound needs nothing else).
    ``c_matvec(states)`` / ``g_matvec(states)``
        ``(K, n)`` products ``C x`` and ``G x`` per instance.
    ``solve_transient(h, rhs, trapezoidal=False, start=None)``
        Factor and solve ``(G + C/h) x = rhs`` (or the trapezoidal
        ``G/2 + C/h``) for all K right-hand sides.  A backend whose
        :attr:`refines` is set solves on kept factors by iterative
        refinement and starts it from *start*, a ``(K, n)`` guess at
        the solution, when given one; every other backend ignores it.
    ``solve_conductance(rhs)``
        Factor and solve ``G x = rhs`` — the DC / chord-fixed-point
        form.

    ``begin_run(flops)`` rebinds the flop counter and starts a run:
    :attr:`factor_reuses` (factorizations skipped by reusing a factor
    of the same matrix, or by refining on one of a nearby matrix)
    returns to 0.  Every solve factors afresh — SWEC
    restamps its chords at every step, so the stamped matrix changes at
    almost every solve — except on a ``sparse`` stack, which keeps
    factors for the run (see :class:`SparseBackend`).
    """

    #: Registry key; subclasses override.
    name = "?"

    #: Whether :meth:`solve_transient` refines on kept factors, and so
    #: gains from a ``start``.
    refines = False

    def __init__(self, systems, *, flops: FlopCounter | None = None) -> None:
        systems = list(systems)
        if not systems:
            raise AnalysisError("a solver backend needs >= 1 system")
        self.systems = systems
        self.system = systems[0]
        self.n_instances = len(systems)
        self.size = self.system.size
        self.flops = flops
        self.factor_reuses = 0

    # -- interface ------------------------------------------------------

    def stamp(self, chords: np.ndarray) -> None:
        """Assemble ``G`` for every instance from chord conductances."""
        raise NotImplementedError

    def g_diagonal(self) -> np.ndarray:
        """``(K, n)`` diagonal of the stamped conductance matrices."""
        raise NotImplementedError

    def c_matvec(self, states: np.ndarray) -> np.ndarray:
        """``(K, n)`` products ``C x`` per instance."""
        raise NotImplementedError

    def g_matvec(self, states: np.ndarray) -> np.ndarray:
        """``(K, n)`` products ``G x`` per instance (stamped ``G``)."""
        raise NotImplementedError

    def solve_transient(
        self,
        h: float,
        rhs: np.ndarray,
        trapezoidal: bool = False,
        start: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve ``(scale G + C/h) x = rhs`` for the whole stack."""
        raise NotImplementedError

    def solve_conductance(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``G x = rhs`` for the whole stack (DC form)."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------

    def begin_run(self, flops: FlopCounter | None) -> None:
        """Point flop accounting at *flops* and zero the reuse count."""
        self.flops = flops
        self.factor_reuses = 0


class _DenseStorageBackend(SolverBackend):
    """Shared ``(K, n, n)`` dense storage for the dense/stack backends."""

    def __init__(self, systems, **kwargs) -> None:
        super().__init__(systems, **kwargs)
        K, n = self.n_instances, self.size
        self._g_base = np.empty((K, n, n))
        self._c = np.empty((K, n, n))
        bases: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k, system in enumerate(self.systems):
            if id(system) not in bases:
                bases[id(system)] = (
                    system.conductance_base(),
                    system.capacitance_matrix(),
                )
            self._g_base[k], self._c[k] = bases[id(system)]
        self._g = np.empty((K, n, n))
        self._a = np.empty((K, n, n))
        self._stamper = ConductanceStamper(self.system.chord_pairs(), n)

    def stamp(self, chords: np.ndarray) -> None:
        np.copyto(self._g, self._g_base)
        self._stamper.stamp(self._g, chords)

    def g_diagonal(self) -> np.ndarray:
        return np.diagonal(self._g, axis1=-2, axis2=-1)

    def c_matvec(self, states: np.ndarray) -> np.ndarray:
        return np.matmul(self._c, states[:, :, None])[:, :, 0]

    def g_matvec(self, states: np.ndarray) -> np.ndarray:
        return np.matmul(self._g, states[:, :, None])[:, :, 0]

    def _system_matrix(self, h: float, trapezoidal: bool) -> np.ndarray:
        np.multiply(self._c, 1.0 / h, out=self._a)
        if trapezoidal:
            # One transient temporary on the rare trapezoidal path; the
            # backward-Euler hot path is allocation-free.
            self._a += 0.5 * self._g
        else:
            self._a += self._g
        return self._a


class DenseBackend(_DenseStorageBackend):
    """Per-instance dense LU: one fused LAPACK ``dgesv`` per solve.

    This is the classic single-instance SWEC path: one
    :class:`~repro.mna.linsolve.LinearSolver` per instance, each solve
    one :meth:`~repro.mna.linsolve.LinearSolver.factor_solve` call.
    For K > 1 it is the serial reference the ``stack`` backend is
    benchmarked against.
    """

    name = "dense"

    def __init__(self, systems, **kwargs) -> None:
        super().__init__(systems, **kwargs)
        self._solvers = [LinearSolver(self.flops) for _ in range(self.n_instances)]

    def begin_run(self, flops: FlopCounter | None) -> None:
        super().begin_run(flops)
        for solver in self._solvers:
            solver.flops = flops

    def _factor_solve(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        out = np.empty((self.n_instances, self.size))
        for k, solver in enumerate(self._solvers):
            out[k] = solver.factor_solve(matrices[k], rhs[k])
        return out

    def solve_transient(
        self,
        h: float,
        rhs: np.ndarray,
        trapezoidal: bool = False,
        start: np.ndarray | None = None,
    ) -> np.ndarray:
        return self._factor_solve(self._system_matrix(h, trapezoidal), rhs)

    def solve_conductance(self, rhs: np.ndarray) -> np.ndarray:
        return self._factor_solve(self._g, rhs)


class StackBackend(_DenseStorageBackend):
    """Batched dense solves over the ``(K, n, n)`` stack.

    Systems of at most :data:`~repro.mna.batch.PLAN_MAX_SIZE` unknowns
    solve through one :class:`~repro.mna.batch.StackProgram`, built
    once per backend from the union pattern of ``G_base``, ``C`` and
    the chord stamp positions: a straight-line LU whose every call runs
    on all K instances at once.  An instance the program rejects (a
    non-finite solution, or growth past
    :data:`~repro.mna.batch.PROGRAM_MAX_GROWTH`) and every instance of
    a larger system go through :func:`~repro.mna.batch.solve_stack`
    (one LAPACK batch call per chunk, bounded chunk memory), where
    LAPACK factors each matrix on its own.  So an instance's solution
    never depends on K or on its neighbours.  The lockstep-ensemble hot
    path, and a correct K = 1 backend.
    """

    name = "stack"

    def __init__(self, systems, **kwargs) -> None:
        super().__init__(systems, **kwargs)
        self._program = None
        n = self.size
        if not 0 < n <= PLAN_MAX_SIZE:
            return
        pattern = np.zeros(n * n, dtype=bool)
        for rows, cols, _ in (self.system.conductance_triplets(),
                              self.system.capacitance_triplets()):
            pattern[rows * n + cols] = True
        pattern[self._stamper._positions] = True
        pattern = pattern.reshape(n, n)
        # Same-topology instances share the pattern; a stack that
        # strays from it, or one with no transversal, keeps LAPACK.
        if self._g_base[:, ~pattern].any() or self._c[:, ~pattern].any():
            return
        try:
            self._program = StackProgram(pattern, self.n_instances)
        except ValueError:
            pass

    def _solve(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        if self._program is None:
            solution = solve_stack(matrices, rhs)
            lapack = np.arange(self.n_instances)
        else:
            solution, lapack = self._program.solve(matrices, rhs)
            if lapack is not None:
                solution[lapack] = solve_stack(
                    matrices[lapack], rhs[lapack],
                    describe=lambda lo, hi: (
                        f"stack instance(s) {lapack[lo:hi].tolist()[:8]}"))
        if self.flops is not None:
            self.flops.count_factorization(self.size, count=self.n_instances)
            self.flops.count_solve(self.size, count=self.n_instances)
        if lapack is not None:
            finite = np.isfinite(solution[lapack]).all(axis=1)
            if not finite.all():
                raise SingularMatrixError(
                    f"non-finite solution for instance(s) "
                    f"{lapack[~finite].tolist()[:8]}"
                )
        return solution

    def solve_transient(
        self,
        h: float,
        rhs: np.ndarray,
        trapezoidal: bool = False,
        start: np.ndarray | None = None,
    ) -> np.ndarray:
        return self._solve(self._system_matrix(h, trapezoidal), rhs)

    def solve_conductance(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(self._g, rhs)


class SparseBackend(SolverBackend):
    """SuperLU factor/solve on the cached CSR pattern, batch-first.

    Assembly is data-array arithmetic on the one-time symbolic pattern
    of :class:`~repro.mna.sparse.SparseOperators` — the conductance
    stamps of all K instances scatter into a ``(K, nnz)`` stack in one
    ``np.add.at`` call — and each instance pays an O(nnz) SuperLU
    factor instead of the dense O(n^3).  The factor reads one
    preallocated CSC matrix whose ``.data`` is permuted in from the
    CSR data row: the pattern's CSC plan holds the matrix already
    symmetrically ordered by the fill-reducing permutation ``q``
    computed once per pattern, so SuperLU never reorders, and each
    solver, told ``q``, takes right-hand sides as ``rhs[q]`` and
    returns solutions through ``x[q] = y``.

    Without chord stamps the transient matrix is exactly
    ``scale G_base + C/h``, so a chordless stack keeps each step's K
    factors keyed on ``(scale, h)`` until the next :meth:`begin_run`,
    least recently used first out; a repeated step only
    back-substitutes.  A chorded stack restamps every step, keeps the
    K factors it made last and solves each later step on them by
    :meth:`~repro.mna.sparse.SparseSolver.refine`, from the caller's
    ``start`` when it passes one; a refined step books one linear solve
    and one reuse per instance.  Either keeps at most
    :data:`SPARSE_FACTOR_MEMO` factors in all.
    """

    name = "sparse"

    def __init__(self, systems, **kwargs) -> None:
        super().__init__(systems, **kwargs)
        operators: dict[int, SparseOperators] = {}
        self._ops = []
        for system in self.systems:
            if id(system) not in operators:
                operators[id(system)] = SparseOperators(system)
            self._ops.append(operators[id(system)])
        pattern = self._ops[0]
        self._nnz = pattern.nnz
        for ops in self._ops:
            if ops.nnz != self._nnz:
                raise AnalysisError(
                    "sparse backend needs one shared sparsity pattern "
                    "across the instance stack"
                )
        K = self.n_instances
        self._base_data = np.stack([ops.base_data for ops in self._ops])
        self._c_data = np.stack([ops.c_data for ops in self._ops])
        self._g_data = np.empty((K, self._nnz))
        positions, columns, signs = pattern.stamp_indices()
        self._positions = positions
        self._columns = columns
        self._signs = signs
        self._diag_positions, self._diag_mask = pattern.diagonal_positions()
        # One CSC matrix for the shared pattern, refilled in place per
        # solve: SuperLU keeps its own factors, so aliasing it across
        # steps and instances is safe.
        self._csc = pattern.csc_matrix()
        self._csc_order = pattern.csc_order
        # The same ordered matrix for the refinements' residual products.
        self._product = pattern.product_matrix()
        self._product_order = pattern.product_order
        self._ordering = pattern.ordering
        # Chordless: (scale, h) -> the K factors of that step matrix,
        # oldest use first.  Chorded: the K factors of the last step
        # matrix factored, with the mask of the chords that were exactly
        # 0 in it.  Neither when the bound cannot hold K factors.
        self._memo_entries = SPARSE_FACTOR_MEMO // K
        chordless = not self.system.chord_pairs()
        self._memo = {} if chordless and self._memo_entries else None
        self.refines = not chordless and self._memo_entries > 0
        self._kept = self._kept_zero = self._zero = None

    def begin_run(self, flops: FlopCounter | None) -> None:
        super().begin_run(flops)
        if self._memo is not None:
            self._memo.clear()
        self._kept = None

    def stamp(self, chords: np.ndarray) -> None:
        if self.refines:
            self._zero = np.asarray(chords) == 0.0
        np.copyto(self._g_data, self._base_data)
        if self._positions.size == 0:
            return
        contributions = np.asarray(chords, dtype=float)[:, self._columns] * self._signs
        rows = np.arange(self.n_instances, dtype=np.intp)[:, None]
        np.add.at(self._g_data, (rows, self._positions[None, :]), contributions)

    def g_diagonal(self) -> np.ndarray:
        return self._g_data[:, self._diag_positions] * self._diag_mask

    def c_matvec(self, states: np.ndarray) -> np.ndarray:
        out = np.empty((self.n_instances, self.size))
        for k, ops in enumerate(self._ops):
            out[k] = ops.c_matrix @ states[k]
        return out

    def g_matvec(self, states: np.ndarray) -> np.ndarray:
        out = np.empty((self.n_instances, self.size))
        for k, ops in enumerate(self._ops):
            out[k] = ops.matrix_from_data(self._g_data[k]) @ states[k]
        return out

    def _factor(self, data: np.ndarray) -> list:
        """One factored solver per instance for the ``(K, nnz)`` *data*."""
        matrix, solvers = self._csc, []
        for k in range(self.n_instances):
            np.take(data[k], self._csc_order, out=matrix.data)
            solver = SparseSolver(self.flops)
            solver.ordering = self._ordering
            solver.factor(matrix)
            solvers.append(solver)
        return solvers

    def _solve(self, solvers: list, rhs: np.ndarray) -> np.ndarray:
        out = np.empty((self.n_instances, self.size))
        for k, solver in enumerate(solvers):
            out[k] = solver.solve(rhs[k])
        return out

    def _solve_kept(
        self, data: np.ndarray, rhs: np.ndarray, start: np.ndarray | None
    ) -> np.ndarray:
        """Refine every instance on its kept factor, or refactor them all.

        Each refinement runs on the pattern's ordered product matrix,
        refilled with the instance's step matrix, and starts from the
        instance's row of *start* when there is one.  The
        stack factors afresh, exactly as :meth:`_factor` does, and
        keeps the new factors when it has none, when the set of chords
        that are exactly 0 changed since its factors were made (a
        clamped chord can strand a node, which only SuperLU may rule
        on) or when :meth:`~repro.mna.sparse.SparseSolver.refine` gives
        up on any instance.
        """
        kept = self._kept
        if kept is not None and np.array_equal(self._zero, self._kept_zero):
            out = np.empty((self.n_instances, self.size))
            matrix = self._product
            for k, solver in enumerate(kept):
                np.take(data[k], self._product_order, out=matrix.data)
                solution = solver.refine(
                    matrix, rhs[k], None if start is None else start[k]
                )
                if solution is None:
                    break
                out[k] = solution
            else:
                self.factor_reuses += self.n_instances
                if self.flops is not None:
                    self.flops.linear_solves += self.n_instances
                return out
        # Cleared first: a failed factorization leaves nothing to refine on.
        self._kept = None
        solvers = self._factor(data)
        self._kept, self._kept_zero = solvers, self._zero
        return self._solve(solvers, rhs)

    def solve_transient(
        self,
        h: float,
        rhs: np.ndarray,
        trapezoidal: bool = False,
        start: np.ndarray | None = None,
    ) -> np.ndarray:
        scale = 0.5 if trapezoidal else 1.0
        if self.refines:
            return self._solve_kept(
                scale * self._g_data + self._c_data / h, rhs, start
            )
        memo = self._memo
        solvers = None if memo is None else memo.pop((scale, h), None)
        if solvers is None:
            solvers = self._factor(scale * self._g_data + self._c_data / h)
            if memo is not None and len(memo) == self._memo_entries:
                del memo[next(iter(memo))]
        else:
            self.factor_reuses += self.n_instances
        if memo is not None:
            memo[scale, h] = solvers
        return self._solve(solvers, rhs)

    def solve_conductance(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(self._factor(self._g_data), rhs)


#: Name -> backend class.  ``auto`` is resolved by :func:`select_backend`
#: before this registry is consulted.
BACKENDS: dict[str, type] = {
    DenseBackend.name: DenseBackend,
    SparseBackend.name: SparseBackend,
    StackBackend.name: StackBackend,
}


def available_backends() -> tuple[str, ...]:
    """Legal ``backend=`` names (registered backends plus ``auto``)."""
    return tuple(sorted(BACKENDS)) + ("auto",)


def get_backend(name: str) -> type:
    """Look up a registered backend class by name."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise AnalysisError(
            f"unknown solver backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        ) from None


def system_density(system) -> float:
    """Estimated fill ratio of the transient system matrix.

    Counts the union pattern the march can produce — the nonzeros of
    ``G_base`` and ``C`` (unique keys of the system's triplets) plus up
    to four entries per two-terminal stamp — without building the
    sparse operators.
    """
    n = system.size
    if n == 0:
        return 1.0
    g_keys, _ = summed_keys(system.conductance_triplets(), n)
    c_keys, _ = summed_keys(system.capacitance_triplets(), n)
    nnz = np.union1d(g_keys, c_keys).size + 4 * len(system.chord_pairs())
    return min(1.0, nnz / float(n * n))


def select_backend(systems) -> str:
    """Resolve ``auto`` to a concrete backend name.

    Large, sparse systems (size >= :data:`AUTO_SPARSE_MIN_SIZE`, fill
    ratio <= :data:`AUTO_SPARSE_MAX_DENSITY`) take the sparse path;
    otherwise batches take ``stack`` and single instances ``dense``.
    """
    systems = list(systems)
    system = systems[0]
    if (
        system.size >= AUTO_SPARSE_MIN_SIZE
        and system_density(system) <= AUTO_SPARSE_MAX_DENSITY
    ):
        return "sparse"
    return "stack" if len(systems) > 1 else "dense"


def create_backend(
    name: str | None,
    systems,
    *,
    default: str = "dense",
    flops: FlopCounter | None = None,
) -> SolverBackend:
    """Instantiate the backend *name* (or *default*) for *systems*.

    ``"auto"`` (and ``None`` with ``default="auto"``) resolves through
    :func:`select_backend` first.
    """
    systems = list(systems)
    resolved = default if name is None else name
    if resolved == "auto":
        resolved = select_backend(systems)
    cls = get_backend(resolved)
    return cls(systems, flops=flops)
