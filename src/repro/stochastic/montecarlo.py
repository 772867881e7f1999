"""Monte-Carlo ensemble statistics over EM runs.

Summarizes Euler-Maruyama ensembles with the statistics the
performance-prediction experiments need: pointwise mean/std bands with
standard errors, empirical confidence intervals, and convergence studies
(weak and strong error versus step size, after Higham's SIAM Review
exposition the paper cites as [13]).  :func:`run_ensemble` and
:func:`run_ensemble_parallel` are thin front doors to the SDE driver of
:mod:`repro.stochastic.vr`; the error studies call
:func:`~repro.stochastic.em.euler_maruyama` on shared Brownian paths.

Circuit-noise ensembles go through the lockstep SWEC engine
(:func:`run_circuit_ensemble` / :func:`run_circuit_ensemble_parallel`):
K noise realizations of one circuit march on a shared fixed grid with
one batched solve per time point — the implicit Euler-Maruyama form of
the paper's eq. (13), with per-path ``SeedSequence`` streams so results
are bit-identical for any worker count or chunk split.  Both are thin
front doors to the circuit-noise driver of :mod:`repro.stochastic.vr`.
A plain run is that driver with no upgrades and keeps the empirical
quantile band of :class:`EnsembleStatistics`; switching on any
variance-reduction knob (``control_variate=``, ``antithetic=``,
``target_ci=`` / ``target_rel_ci=``) returns the richer
:class:`~repro.stochastic.vr.VarianceReducedStatistics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.stochastic.em import euler_maruyama
from repro.stochastic.sde import LinearSDE


@dataclass
class EnsembleStatistics:
    """Pointwise ensemble statistics of one state component."""

    times: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    standard_error: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_paths: int
    confidence: float

    def band_width(self) -> np.ndarray:
        """Upper minus lower confidence envelope."""
        return self.upper - self.lower


def ensemble_statistics(
    times: np.ndarray, values: np.ndarray, confidence: float = 0.95
) -> EnsembleStatistics:
    """Summarize a ``(n_paths, len(times))`` component sample.

    The confidence band is empirical (quantiles of the path ensemble),
    not Gaussian-assumed — NDR-linearized circuits can be skewed.
    """
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence!r}")
    values = np.asarray(values, dtype=float)
    n_paths = values.shape[0]
    if n_paths < 2:
        raise AnalysisError(f"ensemble statistics need >= 2 paths, got {n_paths}")
    tail = 0.5 * (1.0 - confidence)
    std = values.std(axis=0, ddof=1)
    return EnsembleStatistics(
        times=np.asarray(times, dtype=float),
        mean=values.mean(axis=0),
        std=std,
        standard_error=std / np.sqrt(n_paths),
        lower=np.quantile(values, tail, axis=0),
        upper=np.quantile(values, 1.0 - tail, axis=0),
        n_paths=n_paths,
        confidence=confidence,
    )


def run_ensemble(
    sde: LinearSDE,
    x0,
    t_final: float,
    steps: int,
    n_paths: int,
    rng=None,
    component: int = 0,
    confidence: float = 0.95,
    antithetic: bool = False,
) -> EnsembleStatistics:
    """Integrate an ensemble and summarize one component; one generator
    ``default_rng(rng)`` draws every path (the SDE driver's ``rng`` draw)."""
    from repro.stochastic.vr import _sde_mc

    return _sde_mc(sde, x0, t_final, steps, n_paths, seed=rng, component=component,
                   confidence=confidence, antithetic=antithetic)


def run_ensemble_parallel(
    sde_builder,
    t_final: float,
    steps: int,
    n_paths: int,
    chunks: int = 4,
    x0=None,
    component: int = 0,
    confidence: float = 0.95,
    antithetic: bool = False,
    runner=None,
    params: dict | None = None,
) -> EnsembleStatistics:
    """One large ensemble, integrated as *chunks* parallel sub-ensembles.

    *sde_builder* is a picklable :class:`LinearSDE`, a builder callable,
    or an :data:`~repro.runtime.SDE_BUILDERS` name (resolved with
    *params* inside each worker).  Per-path seed streams are spawned
    from the runner's base seed *before* chunking — path *i* always
    draws from child *i* of ``SeedSequence(runner.seed)`` no matter
    which chunk executes it — so for a fixed runner seed the statistics
    are bit-identical at any ``chunks`` value and any worker count.
    With the default runner, each call draws fresh entropy (independent
    replications) that ``BatchReport.seed`` records for replay.

    ``antithetic`` assigns each *pair* of consecutive paths one seed
    stream and mirrors its increments; ``n_paths`` must then split into
    even chunks, i.e. be divisible by ``2 * chunks``.  A thin front door
    to the SDE driver of :mod:`repro.stochastic.vr`.
    """
    from repro.runtime import BatchRunner
    from repro.stochastic.vr import _sde_mc

    if chunks < 1:
        raise AnalysisError(f"chunks must be >= 1, got {chunks!r}")
    if n_paths < chunks:
        raise AnalysisError(f"n_paths ({n_paths}) must be >= chunks ({chunks})")
    if antithetic and n_paths % (2 * chunks) != 0:
        raise AnalysisError(
            f"antithetic parallel ensembles need n_paths divisible by "
            f"2 * chunks ({2 * chunks}), got {n_paths}"
        )
    runner = runner or BatchRunner()
    return _sde_mc(
        sde_builder, x0, t_final, steps, n_paths, params=params, seed=runner.seed,
        component=component, confidence=confidence, antithetic=antithetic,
        chunks=chunks, runner=runner,
    )


def run_circuit_ensemble(
    circuit,
    noise,
    t_stop: float,
    steps: int,
    n_paths: int,
    node: str | None = None,
    seed=None,
    options=None,
    confidence: float = 0.95,
    return_result: bool = False,
    backend: str | None = None,
    control_variate: bool = False,
    antithetic: bool = False,
    target_ci: float | None = None,
    target_rel_ci: float | None = None,
    max_trials: int | None = None,
    batch_size: int | None = None,
):
    """K circuit-noise realizations through the lockstep SWEC engine.

    *circuit* is a :class:`~repro.circuit.Circuit` (voltage sources
    and all — unlike :class:`~repro.stochastic.sde.CircuitSDE`, the
    implicit march needs no Norton rewrite) and *noise* the
    ``(node, amplitude)`` white-noise current injections of eq. (13).
    All ``n_paths`` instances march a shared uniform grid of *steps*
    backward-Euler-Maruyama steps with one batched solve per point;
    path *i* always draws from child *i* of ``SeedSequence(seed)`` (or
    of a passed ``SeedSequence``), so the statistics are
    bit-reproducible and split-invariant.

    Returns :class:`EnsembleStatistics` of the voltage at *node*
    (default: the first noise injection node), or the raw
    :class:`~repro.swec.ensemble.EnsembleTransientResult` with
    ``return_paths``-style ``return_result=True``.  *backend* names
    the :mod:`repro.core.backends` solver for the march (``sparse``
    turns grid-mesh noise ensembles tractable); it overrides any
    ``options.backend`` setting.

    A thin front door to the one Monte-Carlo driver of
    :mod:`repro.stochastic.vr`; a plain run is that driver with no
    upgrades.  Any variance-reduction knob (``control_variate=``,
    ``antithetic=``, ``target_ci=``/``target_rel_ci=``) switches on its
    adaptive estimator: paths then run in ``batch_size`` batches up to
    ``max_trials`` (default: ``n_paths``) and the result is a
    :class:`~repro.stochastic.vr.VarianceReducedStatistics` with a
    Gaussian confidence band.
    """
    from repro.stochastic.vr import _circuit_mc

    return _circuit_mc(
        circuit, noise, t_stop, steps, n_paths, node=node, seed=seed,
        options=options, confidence=confidence, return_result=return_result,
        backend=backend, control_variate=control_variate,
        antithetic=antithetic, target_ci=target_ci,
        target_rel_ci=target_rel_ci, max_trials=max_trials,
        batch_size=batch_size,
    )


def run_circuit_ensemble_parallel(
    builder,
    noise,
    t_stop: float,
    steps: int,
    n_paths: int,
    chunks: int = 4,
    node: str | None = None,
    seed: int = 0,
    options=None,
    confidence: float = 0.95,
    params: dict | None = None,
    runner=None,
    backend: str | None = None,
    control_variate: bool = False,
    antithetic: bool = False,
    target_ci: float | None = None,
    target_rel_ci: float | None = None,
    max_trials: int | None = None,
    batch_size: int | None = None,
) -> EnsembleStatistics:
    """One large circuit-noise ensemble as *chunks* lockstep batches.

    *builder* is a :mod:`repro.circuits_lib` circuit builder (or its
    name), invoked once with *params*; the Monte-Carlo driver of
    :mod:`repro.stochastic.vr` splits each march over
    ``chunks`` :class:`~repro.runtime.EnsembleTransientJob` sub-jobs on
    *runner*.  Path *i* uses child *i* of ``SeedSequence(seed)`` no
    matter which chunk executes it, and every path marches the same
    fixed grid independently, so the result is bit-identical to
    :func:`run_circuit_ensemble` for any ``chunks`` value and any
    worker count.

    The variance-reduction knobs mirror :func:`run_circuit_ensemble`;
    with any switched on, the stopping decisions are made on the
    concatenated (canonically ordered) paths of each round, so serial
    and chunked adaptive runs stop at the same trial count with
    identical statistics.
    """
    from repro.runtime.jobs import materialize_circuit, plain_circuit
    from repro.stochastic.vr import _circuit_mc

    built = materialize_circuit(None, builder, None, dict(params or {}))
    return _circuit_mc(
        plain_circuit(built), noise, t_stop, steps, n_paths, node=node,
        seed=seed, options=options, confidence=confidence, backend=backend,
        control_variate=control_variate, antithetic=antithetic,
        target_ci=target_ci, target_rel_ci=target_rel_ci,
        max_trials=max_trials, batch_size=batch_size, chunks=chunks,
        runner=runner,
    )


def weak_error_study(
    sde: LinearSDE,
    x0,
    t_final: float,
    exact_mean_final: float,
    step_counts,
    n_paths: int = 20000,
    rng=None,
    component: int = 0,
) -> dict[int, float]:
    """Weak error ``|E[X_L] - E[X(T)]|`` versus number of steps.

    EM converges weakly at order 1: halving ``dt`` should halve the
    error (up to Monte-Carlo noise; use ``antithetic`` ensembles and
    large ``n_paths``).
    """
    errors: dict[int, float] = {}
    generator = np.random.default_rng(rng)
    for steps in step_counts:
        result = euler_maruyama(
            sde,
            x0,
            t_final,
            int(steps),
            n_paths=n_paths,
            rng=generator,
            antithetic=(n_paths % 2 == 0),
        )
        final_mean = result.component(component)[:, -1].mean()
        errors[int(steps)] = abs(final_mean - exact_mean_final)
    return errors


def strong_error_study(
    sde: LinearSDE,
    x0,
    t_final: float,
    fine_steps: int,
    coarsenings,
    n_paths: int = 256,
    rng=None,
    component: int = 0,
) -> dict[int, float]:
    """Strong error ``E|X_L - X_ref(T)|`` versus step size.

    A fine-grid EM solution serves as the reference; coarser runs reuse
    the *same* Brownian increments (summed in blocks), so differences
    measure discretization error only.  EM converges strongly at order
    1/2 for multiplicative noise and order 1 for the additive noise used
    here.
    """
    generator = np.random.default_rng(rng)
    dt_fine = t_final / fine_steps
    dw_fine = generator.normal(
        0.0, math.sqrt(dt_fine), size=(n_paths, fine_steps, sde.num_noises)
    )
    reference = euler_maruyama(
        sde, x0, t_final, fine_steps, n_paths=n_paths, dw=dw_fine
    )
    reference_final = reference.component(component)[:, -1]
    errors: dict[int, float] = {}
    for factor in coarsenings:
        factor = int(factor)
        if fine_steps % factor != 0:
            raise AnalysisError(
                f"coarsening {factor} does not divide fine_steps {fine_steps}"
            )
        coarse_steps = fine_steps // factor
        blocks = dw_fine.reshape(n_paths, coarse_steps, factor, sde.num_noises)
        dw_coarse = blocks.sum(axis=2)
        coarse = euler_maruyama(
            sde, x0, t_final, coarse_steps, n_paths=n_paths, dw=dw_coarse
        )
        coarse_final = coarse.component(component)[:, -1]
        errors[factor] = float(np.mean(np.abs(coarse_final - reference_final)))
    return errors
