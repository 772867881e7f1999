"""Variance-reduced, adaptively-stopping Monte-Carlo (beyond-paper layer).

The paper criticizes performance prediction that needs "hundreds to over
thousands of Monte Carlo simulations at each time point"; this module
attacks the constant in front of that count.  Three estimator upgrades
layer over the lockstep ensemble engine, composable and individually
switchable:

control variates
    Every noisy path is paired with a *control* path — the same noise
    increments driven through a linearized companion circuit
    (:func:`linearized_control_circuit`) whose discrete expectation is
    known exactly (one noise-free march of the linear system).  The
    optimal coefficient is estimated from a pilot batch and frozen, so
    the post-pilot estimate stays unbiased; for a linear circuit the
    control is the signal itself and the estimator variance collapses
    to zero.

antithetic variates
    Gaussian increments are mirrored in pairs: path ``2q`` draws from
    pair stream ``q``, path ``2q + 1`` uses the negated draws.  Pair
    stream ``q`` is child ``q`` of one ``SeedSequence`` whichever batch
    draws it, so any chunk split at even path boundaries reproduces
    bit-identically.

adaptive trial counts
    Paths are consumed in batches; after each batch the running
    confidence interval is evaluated and the run stops at
    ``target_ci`` (absolute half-width) or ``target_rel_ci``
    (half-width relative to the peak mean), with ``max_trials`` as the
    backstop.  Batches are marched ahead, several in one wider
    ``(K, n, n)`` stack march: first as many as an estimate needs,
    then the CLT prediction of the batches still missing, never more
    than were already consumed.  A run marches at most as many unused
    paths as used ones, and the statistics are bitwise those of one
    march per batch.

All three run over the one circuit-noise Monte-Carlo driver,
:func:`_circuit_mc`; the SDE ensembles have one driver of their own,
:func:`_sde_mc`, with the same adaptive estimator (antithetic pairs and
CI targets).  A plain ensemble is either driver with no upgrades: one
march of every path, reduced to :class:`EnsembleStatistics` with the
empirical quantile band.  Upgraded runs return
:class:`VarianceReducedStatistics` (pointwise, a drop-in extension of
:class:`~repro.stochastic.montecarlo.EnsembleStatistics`) with an
sde_mc-style scalar :class:`MCStatistics` summary.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from repro.errors import AnalysisError
from repro.stochastic.montecarlo import EnsembleStatistics, ensemble_statistics

#: Smallest conductance substituted for a dead or negative linearized
#: branch, keeping every node of the control circuit connected.
G_FLOOR = 1e-12


@dataclass
class MCStatistics:
    """Scalar Monte-Carlo summary at the widest-CI grid point.

    The shape follows the ``MCStatistics`` record of the sde_mc
    control-variate literature: one mean, one deviation, one standard
    error and one confidence half-width, plus the bookkeeping that
    tells how the estimate was produced.
    """

    sample_mean: float
    sample_std: float
    standard_error: float
    ci_halfwidth: float
    confidence: float
    #: Raw paths actually simulated (the cost).
    n_paths: int
    #: Independent samples behind the estimate (pairs count once,
    #: control-variate pilot paths are excluded).
    n_samples: int
    n_batches: int
    stopped_early: bool
    control_variate: bool
    antithetic: bool
    #: Estimated naive-paths / reduced-paths ratio at matched CI width.
    variance_reduction: float
    time_elapsed: float


@dataclass
class VarianceReducedStatistics(EnsembleStatistics):
    """Pointwise statistics of a variance-reduced ensemble.

    Extends :class:`~repro.stochastic.montecarlo.EnsembleStatistics`
    with the estimator bookkeeping.  The confidence band here is
    Gaussian (``mean ± z · se``) — the same interval the adaptive
    stopping rule evaluates — not the empirical quantile band of the
    plain ensemble.  ``n_paths`` counts the independent samples behind
    the estimate; ``n_simulated`` counts raw paths marched.
    """

    n_simulated: int = 0
    n_batches: int = 0
    stopped_early: bool = False
    control_variate: bool = False
    antithetic: bool = False
    #: Plain-MC statistics over every simulated path, for comparison.
    naive_mean: np.ndarray | None = None
    naive_std: np.ndarray | None = None
    naive_standard_error: np.ndarray | None = None
    #: Frozen pilot-batch coefficient ``c(t)`` (control variates only).
    cv_coefficient: np.ndarray | None = None
    #: Pilot signal/control correlation at the widest-variance point.
    cv_correlation: float | None = None
    #: Exact discrete mean of the control (noise-free linear march).
    control_mean: np.ndarray | None = None
    variance_reduction: float = 1.0
    time_elapsed: float = 0.0

    def summary(self) -> MCStatistics:
        """Scalar summary at the widest-CI grid point."""
        w = int(np.argmax(self.standard_error))
        z = norm.ppf(0.5 * (1.0 + self.confidence))
        return MCStatistics(
            sample_mean=float(self.mean[w]),
            sample_std=float(self.std[w]),
            standard_error=float(self.standard_error[w]),
            ci_halfwidth=float(z * self.standard_error[w]),
            confidence=self.confidence,
            n_paths=self.n_simulated,
            n_samples=self.n_paths,
            n_batches=self.n_batches,
            stopped_early=self.stopped_early,
            control_variate=self.control_variate,
            antithetic=self.antithetic,
            variance_reduction=self.variance_reduction,
            time_elapsed=self.time_elapsed,
        )


def path_normals(seeds, steps: int, m: int) -> np.ndarray:
    """``(len(seeds), steps, m)`` standard normals, one stream per seed.

    The one per-path draw behind every noisy
    :meth:`~repro.core.stepper.LinearStepper.run_grid` (its
    ``normals=``): the plain ensembles draw with it as the
    variance-reduction batches do, so a variance-reduction run with no
    upgrades enabled reproduces the plain ensemble bit-for-bit.
    """
    return np.stack(
        [np.random.default_rng(seed).standard_normal((steps, m)) for seed in seeds]
    )


def antithetic_normals(pair_seeds, steps: int, m: int) -> np.ndarray:
    """``(2 * len(pair_seeds), steps, m)`` mirrored standard normals.

    Path ``2q`` carries pair stream ``q``'s draws, path ``2q + 1`` the
    negated draws.  The interleaved layout keeps any chunk split at an
    even path boundary bit-reproducible.
    """
    half = path_normals(pair_seeds, steps, m)
    out = np.empty((2 * half.shape[0], steps, m))
    out[0::2] = half
    out[1::2] = -half
    return out


def _node_voltage(result, node: str) -> float:
    from repro.circuit.netlist import is_ground

    if is_ground(node):
        return 0.0
    return float(result.voltage(node)[0, 0])


def linearized_control_circuit(circuit, options=None):
    """Linear companion of *circuit* for control-variate estimation.

    Linear elements (R, L, C, independent sources) are copied verbatim;
    every nonlinear device is replaced by a resistor at its DC
    operating point — the differential conductance ``dI/dV`` where that
    is positive (best small-signal correlation), else the chord
    conductance ``I/V`` (non-negative, so NDR devices yield a *stable*
    control), else :data:`G_FLOOR`.  Node names, noise-injection sites
    and initial conditions all survive, so the control can be driven
    with the exact noise increments of the noisy ensemble.

    The control's quality only affects the variance of the estimate,
    never its bias: the estimator subtracts the control's own exact
    discrete mean.
    """
    from repro.circuit.elements import (
        Capacitor,
        CurrentSource,
        Inductor,
        MosfetInstance,
        Resistor,
        TwoTerminalDeviceInstance,
        VoltageSource,
    )
    from repro.circuit.netlist import Circuit
    from repro.swec.ensemble import SwecEnsembleTransient

    if not circuit.nonlinear():
        return circuit

    # DC operating point from the engine's own initialization: a
    # noise-free two-point march whose t=0 states are the solved OP.
    probe = SwecEnsembleTransient(circuit, options, n_instances=1)
    op = probe.run_grid(np.array([0.0, 1e-15]))

    def linearized_conductance(candidates) -> float:
        for g in candidates:
            if math.isfinite(g) and g > G_FLOOR:
                return g
        return G_FLOOR

    control = Circuit(f"{circuit.name}-control")
    for element in circuit.elements():
        if isinstance(element, Resistor):
            control.add_resistor(element.name, *element.nodes, element.resistance)
        elif isinstance(element, Capacitor):
            control.add_capacitor(
                element.name,
                *element.nodes,
                element.capacitance,
                initial_voltage=element.initial_voltage,
            )
        elif isinstance(element, Inductor):
            control.add_inductor(
                element.name,
                *element.nodes,
                element.inductance,
                initial_current=element.initial_current,
            )
        elif isinstance(element, VoltageSource):
            control.add_voltage_source(element.name, *element.nodes, element.waveform)
        elif isinstance(element, CurrentSource):
            control.add_current_source(element.name, *element.nodes, element.waveform)
        elif isinstance(element, TwoTerminalDeviceInstance):
            v = _node_voltage(op, element.anode) - _node_voltage(op, element.cathode)
            g = linearized_conductance(
                (
                    float(element.differential_conductance(v)),
                    float(element.chord_conductance(v)),
                )
            )
            control.add_resistor(element.name, *element.nodes, 1.0 / g)
        elif isinstance(element, MosfetInstance):
            vg = _node_voltage(op, element.gate)
            vs = _node_voltage(op, element.source)
            vd = _node_voltage(op, element.drain)
            g = linearized_conductance(
                (
                    float(element.chord_conductance(vg - vs, vd - vs)),
                    float(element.partials(vg - vs, vd - vs)[1]),
                )
            )
            control.add_resistor(element.name, element.drain, element.source, 1.0 / g)
        else:  # pragma: no cover - no further element kinds exist today
            raise AnalysisError(
                f"control variates cannot linearize element "
                f"{type(element).__name__} ({element.name!r})"
            )
    return control


@dataclass
class _BatchPlan:
    """Resolved batching of a variance-reduced run."""

    max_trials: int
    batch_size: int
    #: Paths per independent sample (2 for antithetic pairs).
    pps: int
    batches: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        offset = 0
        while offset < self.max_trials:
            size = min(self.batch_size, self.max_trials - offset)
            size = self.pps * (size // self.pps)
            if size == 0:  # pragma: no cover - excluded by validation
                break
            self.batches.append((offset, size))
            offset += size


def _resolve_batching(
    max_trials: int,
    batch_size: int | None,
    antithetic: bool,
    control_variate: bool,
) -> _BatchPlan:
    pps = 2 if antithetic else 1
    if max_trials < 2 * pps:
        raise AnalysisError(
            f"adaptive ensembles need max_trials >= {2 * pps}, got {max_trials}"
        )
    if antithetic and max_trials % 2:
        raise AnalysisError(
            f"antithetic ensembles need an even max_trials, got {max_trials}"
        )
    if batch_size is None:
        batch_size = min(64, max_trials)
        if control_variate and batch_size >= max_trials:
            batch_size = max_trials // 2
        batch_size = max(2 * pps, pps * (batch_size // pps))
    if batch_size < 2 * pps:
        raise AnalysisError(
            f"batch_size must be >= {2 * pps}"
            f"{' (antithetic pairs)' if antithetic else ''}, got {batch_size}"
        )
    if antithetic and batch_size % 2:
        raise AnalysisError(
            f"antithetic ensembles need an even batch_size, got {batch_size}"
        )
    if control_variate and max_trials < batch_size + 2 * pps:
        raise AnalysisError(
            f"control variates spend the first batch as a pilot: need "
            f"max_trials >= batch_size + {2 * pps} "
            f"(got max_trials={max_trials}, batch_size={batch_size})"
        )
    return _BatchPlan(max_trials, batch_size, pps)


def _pilot_coefficient(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Pointwise optimal coefficient and scalar pilot correlation."""
    yc = y - y.mean(axis=0)
    xc = x - x.mean(axis=0)
    var_x = np.einsum("pt,pt->t", xc, xc)
    var_y = np.einsum("pt,pt->t", yc, yc)
    cov = np.einsum("pt,pt->t", yc, xc)
    c = np.divide(cov, var_x, out=np.zeros_like(cov), where=var_x > 0.0)
    w = int(np.argmax(var_y))
    denom = math.sqrt(float(var_x[w]) * float(var_y[w]))
    correlation = float(cov[w]) / denom if denom > 0.0 else 0.0
    return c, correlation


def _collapse(values: np.ndarray, pps: int) -> np.ndarray:
    """Average antithetic pairs into independent samples."""
    if pps == 1:
        return values
    return 0.5 * (values[0::2] + values[1::2])


@dataclass
class _Estimate:
    mean: np.ndarray
    std: np.ndarray
    standard_error: np.ndarray
    n_samples: int
    cv_coefficient: np.ndarray | None
    cv_correlation: float | None

    def halfwidth(self, z: float) -> np.ndarray:
        return z * self.standard_error


def _evaluate(ys, xs, control_mean, plan, control_variate) -> _Estimate | None:
    values = np.concatenate(ys, axis=0)
    samples = _collapse(values, plan.pps)
    coefficient = correlation = None
    if control_variate:
        controls = _collapse(np.concatenate(xs, axis=0), plan.pps)
        pilot = plan.batches[0][1] // plan.pps
        if samples.shape[0] - pilot < 2:
            return None
        coefficient, correlation = _pilot_coefficient(
            samples[:pilot], controls[:pilot]
        )
        samples = samples[pilot:] - coefficient * (controls[pilot:] - control_mean)
    if samples.shape[0] < 2:
        return None
    std = samples.std(axis=0, ddof=1)
    return _Estimate(
        mean=samples.mean(axis=0),
        std=std,
        standard_error=std / math.sqrt(samples.shape[0]),
        n_samples=samples.shape[0],
        cv_coefficient=coefficient,
        cv_correlation=correlation,
    )


def _goals(estimate: _Estimate, target_ci, target_rel_ci) -> list[float]:
    """The half-widths that each meet a CI target (none without one)."""
    goals = [] if target_ci is None else [target_ci]
    if target_rel_ci is not None:
        goals.append(target_rel_ci * float(np.max(np.abs(estimate.mean))))
    return goals


def _target_met(
    estimate: _Estimate,
    z: float,
    target_ci: float | None,
    target_rel_ci: float | None,
) -> bool:
    width = float(np.max(estimate.halfwidth(z)))
    return any(width <= goal for goal in _goals(estimate, target_ci, target_rel_ci))


def _batches_ahead(plan, used, simulated, estimate, z, target_ci, target_rel_ci):
    """Plan batches to march at once after *used* were consumed.

    The CLT prediction of the paths still missing, ``n (w/goal)^2 - n``,
    in whole batches: at least one, and never more than were already
    consumed, so unused paths never outnumber used ones.
    """
    cap = min(used, len(plan.batches) - used)
    goal = max(_goals(estimate, target_ci, target_rel_ci), default=0.0)
    if not goal > 0.0:
        return cap
    ratio = float(np.max(estimate.halfwidth(z))) / goal
    extra = simulated * ratio * ratio - simulated
    if not extra < cap * plan.batch_size:
        return cap
    return max(1, math.ceil(extra / plan.batch_size))


def _march(sample, batches) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """March *batches* in one ``sample`` call; split the rows per batch."""
    sizes = [size for _, size in batches]
    cuts = np.cumsum(sizes)[:-1]
    signal, control = sample(batches[0][0], sum(sizes))
    signals = np.split(np.asarray(signal, dtype=float), cuts)
    if control is None:
        return [(y, None) for y in signals]
    return list(zip(signals, np.split(np.asarray(control, dtype=float), cuts)))


def _adaptive_mc(
    sample,
    *,
    times: np.ndarray,
    plan: _BatchPlan,
    confidence: float,
    control_variate: bool,
    antithetic: bool,
    target_ci: float | None,
    target_rel_ci: float | None,
    control_mean: np.ndarray | None,
) -> VarianceReducedStatistics:
    """Run batches from *sample* until the CI target or the backstop.

    *sample(offset, size)* marches raw paths ``offset .. offset + size``
    and returns ``(signal, control)`` arrays of shape ``(size, T)``
    (control is None without control variates).  One call marches
    several plan batches ahead (:func:`_batches_ahead`; the first
    march ends where an estimate can first exist); they are then
    consumed one batch at a time, in canonical path order, so any
    execution split that preserves the order is bit-reproducible.
    """
    start = time.perf_counter()
    z = float(norm.ppf(0.5 * (1.0 + confidence)))
    ys: list[np.ndarray] = []
    xs: list[np.ndarray] = []
    marched: list[tuple[np.ndarray, np.ndarray | None]] = []
    simulated = 0
    n_batches = 0
    estimate = None
    stopped_early = False
    for _, size in plan.batches:
        if not marched:
            ahead = 2 if control_variate else 1
            if estimate is not None:
                ahead = _batches_ahead(
                    plan, n_batches, simulated, estimate, z, target_ci, target_rel_ci
                )
            marched = _march(sample, plan.batches[n_batches : n_batches + ahead])
        signal, control = marched.pop(0)
        ys.append(signal)
        if control is not None:
            xs.append(control)
        simulated += size
        n_batches += 1
        estimate = _evaluate(ys, xs, control_mean, plan, control_variate)
        if estimate is not None and _target_met(estimate, z, target_ci, target_rel_ci):
            stopped_early = simulated < plan.max_trials
            break
    if estimate is None:  # pragma: no cover - excluded by batch validation
        raise AnalysisError("adaptive ensemble produced no estimate")

    values = np.concatenate(ys, axis=0)
    naive_std = values.std(axis=0, ddof=1)
    naive_variance = float(np.max(naive_std) ** 2)
    est_variance = float(np.max(estimate.std) ** 2)
    if plan.pps * est_variance > 0.0:
        factor = naive_variance / (plan.pps * est_variance)
    else:
        factor = math.inf if naive_variance > 0.0 else 1.0
    return VarianceReducedStatistics(
        times=times,
        mean=estimate.mean,
        std=estimate.std,
        standard_error=estimate.standard_error,
        lower=estimate.mean - z * estimate.standard_error,
        upper=estimate.mean + z * estimate.standard_error,
        n_paths=estimate.n_samples,
        confidence=confidence,
        n_simulated=simulated,
        n_batches=n_batches,
        stopped_early=stopped_early,
        control_variate=control_variate,
        antithetic=antithetic,
        naive_mean=values.mean(axis=0),
        naive_std=naive_std,
        naive_standard_error=naive_std / math.sqrt(values.shape[0]),
        cv_coefficient=estimate.cv_coefficient,
        cv_correlation=estimate.cv_correlation,
        control_mean=control_mean,
        variance_reduction=factor,
        time_elapsed=time.perf_counter() - start,
    )


class _PathSeeds:
    """The first *count* children of *parent*, each built when a batch
    slices it out.

    Child ``i`` is ``SeedSequence(entropy, spawn_key=spawn_key + (i,),
    pool_size=pool_size)`` of a parent that has spawned nothing, exactly
    what ``parent.spawn`` builds, so an estimate that stops early builds
    at most as many unused streams as used ones, not ``max_trials``.
    """

    def __init__(self, parent: np.random.SeedSequence, count: int) -> None:
        self._parent = parent
        self._count = count

    def __getitem__(self, window: slice) -> list:
        parent = self._parent
        return [
            np.random.SeedSequence(
                parent.entropy,
                spawn_key=parent.spawn_key + (i,),
                pool_size=parent.pool_size,
            )
            for i in range(*window.indices(self._count))
        ]


def _spawn_children(seed, count: int):
    if isinstance(seed, np.random.SeedSequence):
        # spawn() also advances the caller's n_children_spawned, so a
        # caller's SeedSequence still hands out fresh children afterwards.
        return seed.spawn(count)
    return _PathSeeds(np.random.SeedSequence(seed), count)


def _streams(children, offset: int, size: int, pps: int):
    """The seed streams of paths ``offset .. offset + size``: one per
    path, or one per antithetic pair (*pps* = 2)."""
    return children[offset // pps : (offset + size) // pps]


def _seeded_normals(seeds, steps: int, m: int, antithetic: bool) -> np.ndarray:
    """The normals a noisy march draws from its seed streams: one path
    per stream, or one mirrored pair per stream with *antithetic*."""
    draw = antithetic_normals if antithetic else path_normals
    return draw(seeds, steps, m)


def _windows(offset: int, size: int, chunks: int, pps: int) -> list:
    """Split paths ``offset .. offset + size`` into at most *chunks*
    ``(start, count)`` windows of whole units of *pps* paths."""
    units = size // pps
    parts = min(chunks, units)
    base, extra = divmod(units, parts)
    windows = []
    for k in range(parts):
        count = pps * (base + (1 if k < extra else 0))
        windows.append((offset, count))
        offset += count
    return windows


def run_circuit_ensemble_vr(
    circuit,
    noise,
    t_stop: float,
    steps: int,
    *,
    node: str | None = None,
    seed=None,
    options=None,
    confidence: float = 0.95,
    backend: str | None = None,
    control_variate: bool = False,
    antithetic: bool = False,
    target_ci: float | None = None,
    target_rel_ci: float | None = None,
    max_trials: int = 256,
    batch_size: int | None = None,
    chunks: int | None = None,
    runner=None,
) -> VarianceReducedStatistics:
    """Variance-reduced circuit-noise ensemble through the SWEC engine.

    The adaptive estimator of the module's one circuit-noise driver,
    with or without upgrades; the front doors
    :func:`~repro.stochastic.montecarlo.run_circuit_ensemble` and
    :func:`~repro.stochastic.montecarlo.run_circuit_ensemble_parallel`
    reach it when an upgrade is switched on.  *chunks*/*runner* select
    the parallel sampler (batches split over
    :class:`~repro.runtime.EnsembleTransientJob` chunks).  Path stream
    ``i`` (pair stream with *antithetic*) is child ``i`` of
    ``SeedSequence(seed)``, built when its batch runs, so serial and
    chunked runs are bit-identical at any worker count.
    """
    return _circuit_mc(
        circuit, noise, t_stop, steps, max_trials, node=node, seed=seed,
        options=options, confidence=confidence, backend=backend,
        control_variate=control_variate, antithetic=antithetic,
        target_ci=target_ci, target_rel_ci=target_rel_ci,
        batch_size=batch_size, chunks=chunks, runner=runner, adaptive=True,
    )


def _circuit_mc(circuit, noise, t_stop, steps, n_paths, *, node=None,
               seed=None, options=None, confidence=0.95, return_result=False,
               backend=None, control_variate=False, antithetic=False,
               target_ci=None, target_rel_ci=None, max_trials=None,
               batch_size=None, chunks=None, runner=None, adaptive=False):
    """The one circuit-noise Monte-Carlo driver.

    Checks the run before anything marches, then draws every path from
    :func:`_sampler`.  A plain run (no control variate, no antithetic
    pairs, no CI target, not *adaptive*) is one ``sample(0, n_paths)``
    reduced by :func:`~repro.stochastic.montecarlo.ensemble_statistics`,
    or with *return_result* the raw result of that march.  Otherwise
    :func:`_adaptive_mc` consumes the sampler in batches up to
    ``max_trials`` (default *n_paths*).
    """
    from repro.runtime.jobs import _swec_options, apply_backend

    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence!r}")
    if steps < 1:
        raise AnalysisError(f"steps must be >= 1, got {steps!r}")
    if chunks is not None and chunks < 1:
        raise AnalysisError(f"chunks must be >= 1, got {chunks!r}")
    noise = list(noise.items()) if hasattr(noise, "items") else list(noise)
    if not noise:
        raise AnalysisError("need at least one (node, amplitude) injection")
    node = noise[0][0] if node is None else node
    adaptive = (adaptive or control_variate or antithetic
                or target_ci is not None or target_rel_ci is not None)
    if adaptive:
        if return_result:
            raise AnalysisError(
                "return_result= is incompatible with variance reduction "
                "(the raw path stack is consumed batch by batch)"
            )
        n_paths = max_trials or n_paths
        plan = _resolve_batching(n_paths, batch_size, antithetic, control_variate)
    elif n_paths < 1:
        raise AnalysisError(f"n_paths must be >= 1, got {n_paths!r}")
    options = apply_backend(options, backend)
    if isinstance(options, dict):
        options = _swec_options(options)
    times = np.linspace(0.0, float(t_stop), int(steps) + 1)
    control = linearized_control_circuit(circuit, options) if control_variate else None
    control_mean = None
    if control is not None:
        control_mean = _control_mean(control, noise, times, options, node)
    pps = 2 if antithetic else 1
    sample, march = _sampler(
        circuit, control, noise, times, options, node,
        _spawn_children(seed, n_paths // pps), pps, chunks, runner,
    )
    if not adaptive:
        if return_result:
            return march(0, n_paths)[0][0]  # one circuit, one march
        return ensemble_statistics(times, sample(0, n_paths)[0], confidence)
    return _adaptive_mc(
        sample,
        times=times,
        plan=plan,
        confidence=confidence,
        control_variate=control_variate,
        antithetic=antithetic,
        target_ci=target_ci,
        target_rel_ci=target_rel_ci,
        control_mean=control_mean,
    )


def _control_mean(control, noise, times, options, node) -> np.ndarray:
    """Exact discrete mean of the control: one noise-free march."""
    from repro.swec.ensemble import SwecEnsembleTransient

    engine = SwecEnsembleTransient(control, options, n_instances=1, noise=noise)
    zeros = np.zeros((1, times.size - 1, len(noise)))
    return engine.run_grid(times, normals=zeros).voltage(node)[0]


def _sampler(circuit, control, noise, times, options, node, children, pps,
             chunks, runner):
    """``(sample, march)`` over the paths of one run.

    ``march(offset, size)`` marches paths ``offset .. offset + size`` of
    *circuit* (and *control*) and returns each circuit's results: one
    in-process march, or one per *chunks* job run by *runner*.
    ``sample`` returns their ``(signal, control)`` voltages at *node*.
    """
    from repro.runtime import BatchRunner
    from repro.runtime.jobs import EnsembleTransientJob
    from repro.swec.ensemble import SwecEnsembleTransient

    circuits = [circuit] if control is None else [circuit, control]
    steps, m = times.size - 1, len(noise)
    engines: dict[tuple[int, int], object] = {}

    def march_in_process(offset, size):
        seeds = _streams(children, offset, size, pps)
        normals = _seeded_normals(seeds, steps, m, pps == 2)
        results = []
        for which, circ in enumerate(circuits):
            if (which, size) not in engines:
                engines[which, size] = SwecEnsembleTransient(
                    circ, options, n_instances=size, noise=noise
                )
            results.append([engines[which, size].run_grid(times, normals=normals)])
        return results

    def march_chunks(offset, size):
        windows = _windows(offset, size, chunks, pps)
        jobs = [EnsembleTransientJob(
            t_stop=float(times[-1]), circuit=circ, n_instances=count,
            steps=steps, noise=noise, options=options,
            path_seeds=_streams(children, start, count, pps),
            antithetic=pps == 2, return_result=True, label=f"{circ.name}-{start}",
        ) for circ in circuits for start, count in windows]
        report = runner.run(jobs)
        report.raise_failures()
        results = report.values()
        parts = len(windows)
        return [results[k : k + parts] for k in range(0, len(results), parts)]

    def sample(offset, size):
        volts = [
            np.concatenate([result.voltage(node) for result in results])
            for results in march(offset, size)
        ]
        return volts[0], volts[1] if control is not None else None

    if chunks is None:
        march = march_in_process
    else:
        runner = runner or BatchRunner()
        march = march_chunks
    return sample, march


def run_sde_ensemble_vr(
    sde,
    x0,
    t_final: float,
    steps: int,
    *,
    component: int = 0,
    confidence: float = 0.95,
    antithetic: bool = False,
    target_ci: float | None = None,
    target_rel_ci: float | None = None,
    max_trials: int = 256,
    batch_size: int | None = None,
    seed=None,
) -> VarianceReducedStatistics:
    """Adaptive (optionally antithetic) Euler-Maruyama ensemble.

    The adaptive estimator of the one SDE driver, :func:`_sde_mc`, as
    :func:`run_circuit_ensemble_vr` is of the circuit one.  Control
    variates are a circuit-level feature (the linearized companion); for
    the already-linear SDEs they would be the identity.
    """
    return _sde_mc(
        sde, x0, t_final, steps, max_trials, seed=seed, component=component,
        confidence=confidence, antithetic=antithetic, target_ci=target_ci,
        target_rel_ci=target_rel_ci, batch_size=batch_size, adaptive=True,
    )


def _sde_mc(sde, x0, t_final, steps, n_paths, *, params=None, seed=None,
            path_seeds=None, component=0, confidence=0.95, antithetic=False,
            return_paths=False, target_ci=None, target_rel_ci=None,
            max_trials=None, batch_size=None, chunks=None, runner=None,
            adaptive=False):
    """The one SDE Monte-Carlo driver: Euler-Maruyama paths of *sde*.

    With no *path_seeds*, *chunks* or CI target, one generator
    ``default_rng(seed)`` draws every path in ``euler_maruyama``'s own
    layout (antithetic blocks ``[half, -half]``): the draw stored service
    records are keyed on.  Otherwise each path, or antithetic pair, has
    its own stream (*path_seeds*, or child ``i`` of
    ``SeedSequence(seed)``), marched in process or split over *chunks*
    :class:`~repro.runtime.EnsembleJob` windows on *runner*, which carry
    *sde* as given (a builder is called with *params* in the worker).
    A plain run is one ``march(0, n_paths)``, raw with *return_paths* or
    reduced by ``ensemble_statistics``; an adaptive one feeds
    :func:`_adaptive_mc` batches up to ``max_trials`` (default *n_paths*).
    """
    from repro.runtime.jobs import EnsembleJob
    from repro.stochastic.em import EMResult, euler_maruyama
    from repro.stochastic.sde import LinearSDE

    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence!r}")
    adaptive = adaptive or target_ci is not None or target_rel_ci is not None
    if adaptive:
        n_paths = max_trials or n_paths
        plan = _resolve_batching(n_paths, batch_size, antithetic, False)
    pps = 2 if antithetic else 1
    if path_seeds is None and (adaptive or chunks is not None):
        path_seeds = _spawn_children(seed, n_paths // pps)

    def march_chunks(offset, size):
        direct = isinstance(sde, LinearSDE)
        report = runner.run([EnsembleJob(
            t_final=t_final, steps=steps, n_paths=count,
            sde=sde if direct else None, builder=None if direct else sde,
            params=dict(params or {}), x0=x0, component=component,
            antithetic=antithetic, path_seeds=_streams(path_seeds, start, count, pps),
            return_paths=True, label=f"chunk-{k}",
        ) for k, (start, count) in enumerate(_windows(offset, size, chunks, pps))])
        report.raise_failures()
        results = report.values()
        return EMResult(results[0].times, np.concatenate([r.paths for r in results]))

    def march_in_process(offset, size):
        initial = np.zeros(sde.dimension) if x0 is None else np.asarray(x0, dtype=float)
        if path_seeds is None:
            return euler_maruyama(sde, initial, t_final, steps, size,
                                  np.random.default_rng(seed), antithetic=antithetic)
        dw = _seeded_normals(_streams(path_seeds, offset, size, pps), steps,
                             sde.num_noises, antithetic) * math.sqrt(t_final / steps)
        return euler_maruyama(sde, initial, t_final, steps, n_paths=size, dw=dw)

    march = march_in_process if chunks is None else march_chunks
    if adaptive:
        return _adaptive_mc(
            lambda offset, size: (march(offset, size).component(component), None),
            times=np.linspace(0.0, float(t_final), int(steps) + 1), plan=plan,
            confidence=confidence, control_variate=False, antithetic=antithetic,
            target_ci=target_ci, target_rel_ci=target_rel_ci, control_mean=None)
    result = march(0, n_paths)
    if return_paths:
        return result
    return ensemble_statistics(result.times, result.component(component), confidence)
