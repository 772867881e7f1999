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
    The chunked batched-LAPACK path of
    :func:`~repro.mna.batch.solve_stack`: one ``np.linalg.solve`` call
    per ``(K, n, n)`` chunk.  The lockstep-ensemble hot path.
``auto``
    Not a backend but a selector: :func:`select_backend` picks by
    system size, batch width and fill ratio.

Backends are addressed by name through a registry
(:func:`get_backend` / :func:`register_backend`), which is what the
``backend=`` knob threaded through :class:`~repro.swec.SwecOptions`,
the runtime jobs, the sweep specs and the CLIs resolves against.

Flop accounting lives *inside* the backends so the
:class:`~repro.perf.flops.FlopCounter` event counters (factorizations,
linear solves) are comparable across them: one transient march records
the same number of factor/solve events whichever backend executes it
(the flop totals still reflect each algorithm's own cost model — dense
``2/3 n^3`` versus the SuperLU fill-in estimate).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError, SingularMatrixError
from repro.mna.batch import ConductanceStamper, solve_stack
from repro.mna.linsolve import LinearSolver
from repro.perf.flops import FlopCounter

__all__ = [
    "AUTO_SPARSE_MAX_DENSITY",
    "AUTO_SPARSE_MIN_SIZE",
    "BACKENDS",
    "DenseBackend",
    "SolverBackend",
    "SparseBackend",
    "StackBackend",
    "available_backends",
    "create_backend",
    "get_backend",
    "register_backend",
    "select_backend",
    "system_density",
]

#: Smallest system size for which ``auto`` considers the sparse path.
AUTO_SPARSE_MIN_SIZE = 192

#: Largest fill ratio for which ``auto`` considers the sparse path.
AUTO_SPARSE_MAX_DENSITY = 0.05


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
    ``solve_transient(h, rhs, trapezoidal=False)``
        Factor and solve ``(G + C/h) x = rhs`` (or the trapezoidal
        ``G/2 + C/h``) for all K right-hand sides.
    ``solve_conductance(rhs)``
        Factor and solve ``G x = rhs`` — the DC / chord-fixed-point
        form.

    ``begin_run(flops)`` rebinds the flop counter.  Every solve
    factors afresh: SWEC restamps its chords at every step, so the
    stamped matrix changes at almost every solve.
    """

    #: Registry key; subclasses override.
    name = "?"

    def __init__(
        self,
        systems,
        *,
        flops: FlopCounter | None = None,
        chunk_entries: int | None = None,
    ) -> None:
        systems = list(systems)
        if not systems:
            raise AnalysisError("a solver backend needs >= 1 system")
        self.systems = systems
        self.system = systems[0]
        self.n_instances = len(systems)
        self.size = self.system.size
        self.flops = flops
        self.chunk_entries = chunk_entries

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
        self, h: float, rhs: np.ndarray, trapezoidal: bool = False
    ) -> np.ndarray:
        """Solve ``(scale G + C/h) x = rhs`` for the whole stack."""
        raise NotImplementedError

    def solve_conductance(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``G x = rhs`` for the whole stack (DC form)."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------

    def begin_run(self, flops: FlopCounter | None) -> None:
        """Point flop accounting at *flops*."""
        self.flops = flops
        self._rebind_flops()

    def _rebind_flops(self) -> None:
        """Hook for subclasses holding per-instance solver objects."""


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


class _PerInstanceSolvers:
    """One factor/solve object per instance (dense LU, SuperLU), each
    counting into the backend's flop counter."""

    def _make_solvers(self, factory) -> None:
        self._solvers = [factory(self.flops) for _ in range(self.n_instances)]

    def _rebind_flops(self) -> None:
        for solver in self._solvers:
            solver.flops = self.flops


class DenseBackend(_PerInstanceSolvers, _DenseStorageBackend):
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
        self._make_solvers(LinearSolver)

    def _factor_solve(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        out = np.empty((self.n_instances, self.size))
        for k, solver in enumerate(self._solvers):
            out[k] = solver.factor_solve(matrices[k], rhs[k])
        return out

    def solve_transient(
        self, h: float, rhs: np.ndarray, trapezoidal: bool = False
    ) -> np.ndarray:
        return self._factor_solve(self._system_matrix(h, trapezoidal), rhs)

    def solve_conductance(self, rhs: np.ndarray) -> np.ndarray:
        return self._factor_solve(self._g, rhs)


class StackBackend(_DenseStorageBackend):
    """Chunked batched ``np.linalg.solve`` over the ``(K, n, n)`` stack.

    One LAPACK batch call per chunk (:func:`~repro.mna.batch.solve_stack`
    bounds chunk memory) factors and solves the whole chunk.  The
    lockstep-ensemble hot path, and a correct K = 1 backend.
    """

    name = "stack"

    def _solve(self, matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        solution = solve_stack(matrices, rhs, chunk_entries=self.chunk_entries)
        if self.flops is not None:
            self.flops.count_factorization(self.size, count=self.n_instances)
            self.flops.count_solve(self.size, count=self.n_instances)
        if not np.all(np.isfinite(solution)):
            bad = np.flatnonzero(~np.all(np.isfinite(solution), axis=1))
            raise SingularMatrixError(
                f"non-finite solution for instance(s) {bad.tolist()[:8]}"
            )
        return solution

    def solve_transient(
        self, h: float, rhs: np.ndarray, trapezoidal: bool = False
    ) -> np.ndarray:
        return self._solve(self._system_matrix(h, trapezoidal), rhs)

    def solve_conductance(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(self._g, rhs)


class SparseBackend(_PerInstanceSolvers, SolverBackend):
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
    right-hand side goes in as ``rhs[q]`` and its solution comes back
    through ``x[q] = y``.
    """

    name = "sparse"

    def __init__(self, systems, **kwargs) -> None:
        super().__init__(systems, **kwargs)
        from repro.mna.sparse import SparseOperators, SparseSolver

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
        self._ordering = pattern.ordering
        self._make_solvers(SparseSolver)

    def stamp(self, chords: np.ndarray) -> None:
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

    def _factor_solve(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        out = np.empty((self.n_instances, self.size))
        matrix, q = self._csc, self._ordering
        for k, solver in enumerate(self._solvers):
            np.take(data[k], self._csc_order, out=matrix.data)
            solver.factor(matrix)
            out[k][q] = solver.solve(rhs[k][q])
        return out

    def solve_transient(
        self, h: float, rhs: np.ndarray, trapezoidal: bool = False
    ) -> np.ndarray:
        scale = 0.5 if trapezoidal else 1.0
        data = scale * self._g_data + self._c_data / h
        return self._factor_solve(data, rhs)

    def solve_conductance(self, rhs: np.ndarray) -> np.ndarray:
        return self._factor_solve(self._g_data, rhs)


#: Name -> backend class.  ``auto`` is resolved by :func:`select_backend`
#: before this registry is consulted.
BACKENDS: dict[str, type] = {
    DenseBackend.name: DenseBackend,
    SparseBackend.name: SparseBackend,
    StackBackend.name: StackBackend,
}


def register_backend(cls: type) -> type:
    """Register a :class:`SolverBackend` subclass under ``cls.name``.

    Returns the class, so it can be used as a decorator.  Registered
    names immediately become legal ``backend=`` values for the
    transient/DC engines and everywhere their knob is threaded
    (SwecOptions, SwecDCOptions, jobs, sweep specs, CLIs).  The AC
    sweeps are the exception: they need a complex-dtype solve per
    strategy and accept only :data:`repro.ac.analysis.AC_BACKENDS`.
    """
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name or name == "?":
        raise ValueError(f"backend class {cls!r} needs a name attribute")
    if name == "auto":
        raise ValueError('"auto" is reserved for the selector')
    BACKENDS[name] = cls
    return cls


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
    ``G_base`` and ``C`` plus up to four entries per two-terminal
    stamp — without building the sparse operators.
    """
    n = system.size
    if n == 0:
        return 1.0
    pattern = (system.conductance_base() != 0.0) | (system.capacitance_matrix() != 0.0)
    nnz = int(np.count_nonzero(pattern))
    nnz += 4 * len(system.chord_pairs())
    return min(1.0, nnz / float(n * n))


def select_backend(systems, n_instances: int | None = None) -> str:
    """Resolve ``auto`` to a concrete backend name.

    Large, sparse systems (size >= :data:`AUTO_SPARSE_MIN_SIZE`, fill
    ratio <= :data:`AUTO_SPARSE_MAX_DENSITY`) take the sparse path;
    otherwise batches take ``stack`` and single instances ``dense``.
    """
    systems = list(systems)
    k = len(systems) if n_instances is None else int(n_instances)
    system = systems[0]
    if (
        system.size >= AUTO_SPARSE_MIN_SIZE
        and system_density(system) <= AUTO_SPARSE_MAX_DENSITY
    ):
        return "sparse"
    return "stack" if k > 1 else "dense"


def create_backend(
    name: str | None,
    systems,
    *,
    default: str = "dense",
    flops: FlopCounter | None = None,
    chunk_entries: int | None = None,
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
    return cls(systems, flops=flops, chunk_entries=chunk_entries)
