"""Unified solver-backend core: one assembly/solve pipeline.

Nano-Sim's pitch is that SWEC chord linearization turns *every*
analysis into "stamp a linear system, solve, advance".  This package
makes that literal:

- :mod:`repro.core.backends` defines the :class:`SolverBackend`
  contract and the registry of implementations — ``dense`` (one fused
  LAPACK ``dgesv`` per solve), ``sparse`` (SuperLU on
  the cached CSR pattern), ``stack`` (chunked batched
  ``np.linalg.solve``) and the ``auto`` selector.
- :mod:`repro.core.stepper` owns the shared transient marching loop
  (:class:`LinearStepper`): chord evaluation, stamping, adaptive or
  fixed-grid advance, noise injection — with every factor/solve
  delegated to the chosen backend.

The transient engines (:class:`~repro.swec.SwecTransient` as the
K = 1 slice, :class:`~repro.swec.SwecEnsembleTransient` as the batched
default), :class:`~repro.swec.SwecDC`, the AC sweeps and the
circuit-noise Monte-Carlo all resolve their ``backend=`` knob against
this registry.
"""

from repro.core.backends import (
    AUTO_SPARSE_MAX_DENSITY,
    AUTO_SPARSE_MIN_SIZE,
    BACKENDS,
    DenseBackend,
    SolverBackend,
    SparseBackend,
    StackBackend,
    available_backends,
    create_backend,
    get_backend,
    select_backend,
    system_density,
)
from repro.core.fallback import FALLBACK_CHAIN, FallbackBackend
from repro.core.stepper import LinearStepper

__all__ = [
    "AUTO_SPARSE_MAX_DENSITY",
    "AUTO_SPARSE_MIN_SIZE",
    "BACKENDS",
    "DenseBackend",
    "FALLBACK_CHAIN",
    "FallbackBackend",
    "LinearStepper",
    "SolverBackend",
    "SparseBackend",
    "StackBackend",
    "available_backends",
    "create_backend",
    "get_backend",
    "select_backend",
    "system_density",
]
