"""The Euler-Maruyama integrator (paper eq. 18).

.. math::

    X_{j+1} = X_j + (A(\\tau_j) X_j + f(\\tau_j))\\,\\Delta t
                  + S\\,(W(\\tau_{j+1}) - W(\\tau_j))

The integrator is vectorized over an ensemble of paths: one matrix-matrix
product per time step integrates every path simultaneously, which is what
makes the statistical simulator practical (the paper's alternative — a
full deterministic run per Monte-Carlo sample — is the "hundreds to over
thousands of Monte Carlo simulations at each time point" it criticizes).

Passing explicit increments (``dw``) reuses one Brownian path across
solvers or step sizes — required for strong-convergence measurements.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError
from repro.stochastic.sde import LinearSDE


class EMResult:
    """Ensemble trajectory container.

    Attributes
    ----------
    times:
        ``(steps + 1,)`` grid.
    paths:
        ``(n_paths, steps + 1, dimension)`` state trajectories.
    """

    def __init__(self, times: np.ndarray, paths: np.ndarray) -> None:
        self.times = times
        self.paths = paths

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dimension(self) -> int:
        return self.paths.shape[2]

    def component(self, index: int) -> np.ndarray:
        """``(n_paths, steps + 1)`` trajectories of state *index*."""
        return self.paths[:, :, index]

    def mean(self, index: int = 0) -> np.ndarray:
        """Ensemble mean trajectory of component *index*."""
        return self.component(index).mean(axis=0)

    def std(self, index: int = 0) -> np.ndarray:
        """Ensemble standard deviation (ddof=1) of component *index*."""
        if self.n_paths < 2:
            raise AnalysisError("need >= 2 paths for a standard deviation")
        return self.component(index).std(axis=0, ddof=1)

    def quantile(self, q: float, index: int = 0) -> np.ndarray:
        """Pointwise ensemble quantile trajectory."""
        return np.quantile(self.component(index), q, axis=0)

    def running_max(self, index: int = 0) -> np.ndarray:
        """Per-path running maximum of component *index*."""
        return np.maximum.accumulate(self.component(index), axis=1)

    def window_peaks(self, t_start: float, t_stop: float, index: int = 0) -> np.ndarray:
        """Per-path maximum of component *index* within a time window."""
        mask = (self.times >= t_start) & (self.times <= t_stop)
        if not mask.any():
            raise AnalysisError("window contains no grid points")
        return self.component(index)[:, mask].max(axis=1)


def euler_maruyama(
    sde: LinearSDE,
    x0,
    t_final: float,
    steps: int,
    n_paths: int = 1,
    rng=None,
    dw: np.ndarray | None = None,
    antithetic: bool = False,
) -> EMResult:
    """Integrate *sde* from *x0* over ``[0, t_final]`` with EM.

    Parameters
    ----------
    x0:
        Initial state, shape ``(dimension,)`` (shared by all paths) or
        ``(n_paths, dimension)``.
    steps:
        Number of EM steps ``L``; ``dt = t_final / L`` (paper's notation).
    n_paths:
        Ensemble size.
    rng:
        Seed or ``numpy.random.Generator``.
    dw:
        Optional pre-drawn increments with shape
        ``(n_paths, steps, num_noises)``.  Overrides ``rng``.
    antithetic:
        Draw increments in antithetic pairs (``n_paths`` must be even).
    """
    if steps < 1:
        raise AnalysisError(f"steps must be >= 1, got {steps!r}")
    if t_final <= 0.0:
        raise AnalysisError(f"t_final must be positive, got {t_final!r}")
    if n_paths < 1:
        raise AnalysisError(f"n_paths must be >= 1, got {n_paths!r}")

    dimension = sde.dimension
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        if x0.shape != (dimension,):
            raise AnalysisError(f"x0 must have shape ({dimension},), got {x0.shape}")
        x = np.tile(x0, (n_paths, 1))
    else:
        if x0.shape != (n_paths, dimension):
            raise AnalysisError(
                f"x0 must have shape ({n_paths}, {dimension}), got {x0.shape}"
            )
        x = x0.copy()

    dt = t_final / steps
    times = np.linspace(0.0, t_final, steps + 1)

    if dw is None:
        if antithetic and n_paths % 2 != 0:
            raise AnalysisError("antithetic sampling needs even n_paths")
        dw = np.random.default_rng(rng).normal(
            0.0, np.sqrt(dt), size=(n_paths // 2 if antithetic else n_paths,
                                    steps, sde.num_noises)
        )
        if antithetic:  # the blocks [half, -half]
            dw = np.concatenate([dw, -dw], axis=0)
    else:
        dw = np.asarray(dw, dtype=float)
        if dw.shape != (n_paths, steps, sde.num_noises):
            raise AnalysisError(
                f"dw must have shape ({n_paths}, {steps}, "
                f"{sde.num_noises}), got {dw.shape}"
            )

    trajectories = np.empty((n_paths, steps + 1, dimension))
    trajectories[:, 0, :] = x
    noise_t = sde.noise.T  # (m, n): right-multiplication form
    for j in range(steps):
        t = times[j]
        x = x + dt * sde.drift(x, t) + dw[:, j, :] @ noise_t
        trajectories[:, j + 1, :] = x
    return EMResult(times, trajectories)
