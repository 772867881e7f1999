"""Windowed peak-performance prediction (paper Section 4.2, Fig. 10).

"Following the Black-Scholes approach we can predict the peak performance
within certain time window" — the quantity of interest is the running
maximum of the stochastic node voltage, the same mathematical object as
the running maximum of an asset price in barrier-option pricing.

Closed forms exist for driftless Brownian motion via the reflection
principle:

.. math::

    P\\left[\\max_{[0,T]} \\sigma W \\le m\\right]
        = 2\\Phi\\!\\left(\\frac{m}{\\sigma\\sqrt T}\\right) - 1,
    \\qquad
    \\mathbb E\\left[\\max_{[0,T]} \\sigma W\\right]
        = \\sigma\\sqrt{2T/\\pi}.

For the OU dynamics of a real RC node no simple closed form exists, so
:func:`predict_peak` estimates the window-peak distribution from an EM
ensemble and reports mean, quantiles and exceedance probabilities, with
the Brownian closed form available as a short-horizon sanity bound
(``t << RC`` makes OU look like Brownian motion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from repro.errors import AnalysisError
from repro.stochastic.em import EMResult
from repro.stochastic.sde import LinearSDE
from repro.stochastic.vr import _sde_mc


def brownian_max_cdf(level: float, t_final: float, sigma: float = 1.0) -> float:
    """``P[max_{[0,T]} sigma*W <= level]`` by the reflection principle."""
    if t_final <= 0.0 or sigma <= 0.0:
        raise AnalysisError("need positive horizon and sigma")
    if level <= 0.0:
        return 0.0
    return float(2.0 * norm.cdf(level / (sigma * np.sqrt(t_final))) - 1.0)


def expected_brownian_max(t_final: float, sigma: float = 1.0) -> float:
    """``E[max_{[0,T]} sigma*W] = sigma sqrt(2T/pi)``."""
    if t_final <= 0.0 or sigma <= 0.0:
        raise AnalysisError("need positive horizon and sigma")
    return float(sigma * np.sqrt(2.0 * t_final / np.pi))


def peak_exceedance_probability(
    result: EMResult,
    threshold: float,
    t_start: float,
    t_stop: float,
    component: int = 0,
) -> float:
    """Fraction of ensemble paths whose window peak exceeds *threshold*.

    This is the signal-integrity question of the paper's Section 4: "if
    the transient voltage drop at a certain time point exceeds certain
    constraints, the whole design is still going to fail".
    """
    peaks = result.window_peaks(t_start, t_stop, index=component)
    return float(np.mean(peaks > threshold))


@dataclass
class PeakPrediction:
    """Window-peak summary of an EM ensemble."""

    t_start: float
    t_stop: float
    mean_peak: float
    std_peak: float
    quantile_50: float
    quantile_95: float
    quantile_99: float
    n_paths: int

    def exceedance(self, peaks: np.ndarray, threshold: float) -> float:
        """Empirical ``P[peak > threshold]`` given raw window peaks."""
        return float(np.mean(peaks > threshold))


def predict_peak(
    sde: LinearSDE,
    x0,
    t_start: float,
    t_stop: float,
    steps: int,
    n_paths: int = 2000,
    rng=None,
    component: int = 0,
) -> tuple[PeakPrediction, np.ndarray]:
    """Estimate the window-peak distribution of one state component.

    Integrates an EM ensemble over ``[0, t_stop]`` and extracts per-path
    maxima inside ``[t_start, t_stop]``.  Returns the summary record and
    the raw per-path peaks (for custom thresholds).
    """
    if not 0.0 <= t_start < t_stop:
        raise AnalysisError("need 0 <= t_start < t_stop")
    result = _sde_mc(sde, x0, t_stop, steps, n_paths, seed=rng, return_paths=True)
    peaks = result.window_peaks(t_start, t_stop, index=component)
    prediction = PeakPrediction(
        t_start=t_start,
        t_stop=t_stop,
        mean_peak=float(peaks.mean()),
        std_peak=float(peaks.std(ddof=1)),
        quantile_50=float(np.quantile(peaks, 0.50)),
        quantile_95=float(np.quantile(peaks, 0.95)),
        quantile_99=float(np.quantile(peaks, 0.99)),
        n_paths=n_paths,
    )
    return prediction, peaks
