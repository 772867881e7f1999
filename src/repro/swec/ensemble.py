"""Ensemble-vectorized SWEC transient: K circuit instances per solve.

SWEC replaces Newton iteration with exactly one linear solve per time
point, so every instance of a shared-topology circuit follows the *same*
computational recipe — ideal for lockstep batching.
:class:`SwecEnsembleTransient` is the batched face of the unified
:class:`~repro.core.stepper.LinearStepper` march: K instances of one
topology (differing in device parameters, source waveforms, element
values, initial states and/or noise realizations) march together on a
shared time grid, with every factor/solve delegated to a
:mod:`repro.core.backends` solver backend:

``stack`` (the default)
    One chunked batched ``np.linalg.solve`` per time point over the
    scatter-stamped ``(K, n, n)`` stack — the lockstep hot path.
``sparse``
    SuperLU on the cached CSR pattern, one O(nnz) factor per instance
    — grid-scale ensembles that would not fit (or crawl) as dense
    stacks.
``dense``
    One LAPACK LU per instance — the serial reference the stack path
    is benchmarked against.

Two marching modes:

adaptive (:meth:`LinearStepper.run`)
    The paper's eq.-10/12 step control, taken worst-case over the
    ensemble: shared waveforms are evaluated once for the slope bound
    and the node-RC bound is the minimum over all instances.  With
    K = 1 this *is* :class:`~repro.swec.engine.SwecTransient`'s march
    (the scalar engine is the same stepper).
fixed grid (:meth:`LinearStepper.run_grid`)
    An explicit shared grid — the mode behind bit-reproducible
    stochastic ensembles.  White-noise current injections (the paper's
    eq. 13 ``B dW`` term) enter the backward-Euler right-hand side as
    ``B dW_n / h_n``, i.e. an *implicit* Euler-Maruyama step that
    stays stable on stiff parasitic RC meshes where the explicit EM
    integrator needs tiny steps.  The increments come in pre-drawn as
    ``normals=`` (:func:`repro.stochastic.vr.path_normals`, one seeded
    stream per instance), so results are bit-identical for any solve
    chunk size, worker count or ensemble split.

Memory on the ``stack``/``dense`` backends scales as a handful of
``(K, n, n)`` float stacks — about ``48 * K * n**2`` bytes — plus the
``(K, T, n)`` result; the ``sparse`` backend replaces the matrix
stacks with ``(K, nnz)`` data arrays.  Conductance tracing is opt-in
*per instance* (``trace_instances``), bounding the trace at
``8 * T * len(trace_instances) * n_devices`` bytes instead of a full
``device_g`` copy per instance per step.
"""

from __future__ import annotations

from repro.analysis.waveforms import EnsembleTransientResult
from repro.core.stepper import LinearStepper

__all__ = ["EnsembleTransientResult", "SwecEnsembleTransient"]


class SwecEnsembleTransient(LinearStepper):
    """Lockstep SWEC transient over K same-topology circuit instances.

    A :class:`~repro.core.stepper.LinearStepper` whose default solver
    backend is ``stack`` (chunked batched LAPACK); set
    ``options.backend`` to ``"sparse"`` for grid-scale ensembles or
    ``"auto"`` to select by size.  See the module docstring and
    :class:`~repro.core.stepper.LinearStepper` for the parameters
    (``circuits``, ``options``, ``n_instances``, ``noise``,
    ``trace_instances``) and the
    :meth:`~repro.core.stepper.LinearStepper.run` /
    :meth:`~repro.core.stepper.LinearStepper.run_grid` marching modes.
    """

    def __init__(self, circuits, options=None, **kwargs) -> None:
        kwargs.setdefault("default_backend", "stack")
        super().__init__(circuits, options, **kwargs)
