"""Modified nodal analysis: stamping, assembly and linear solution.

:class:`~repro.mna.assembler.MnaSystem` turns a
:class:`~repro.circuit.Circuit` into the matrices of the paper's eq. (1),

.. math::  G(t)\\,V(t) + C\\,\\dot V(t) = b\\,u_s(t)

with voltage sources and inductors handled through branch-current
augmentation.  Engines own the time discretization; this package owns the
matrix structure and the solver primitives the
:mod:`repro.core.backends` registry composes: dense LU
(:class:`~repro.mna.linsolve.LinearSolver`), SuperLU on a cached
symbolic pattern ordered once (:class:`~repro.mna.sparse.SparseOperators` /
:class:`~repro.mna.sparse.SparseSolver`), and chunked batched LAPACK
(:func:`~repro.mna.batch.solve_stack`).
"""

from repro.mna.assembler import MnaSystem
from repro.mna.batch import ConductanceStamper, solve_stack
from repro.mna.linsolve import LinearSolver, solve_dense
from repro.mna.sparse import SparseOperators, SparseSolver

__all__ = ["ConductanceStamper", "LinearSolver", "MnaSystem",
           "SparseOperators", "SparseSolver", "solve_dense", "solve_stack"]
