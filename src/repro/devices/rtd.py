"""Schulman physics-based resonant tunneling diode model.

Implements the I-V equation of Schulman, De Los Santos and Chow (IEEE EDL
1996), which the paper adopts as eq. (4):

.. math::

    J_1(V) = A \\,
        \\ln\\!\\frac{1 + e^{(B - C + n_1 V) q / kT}}
                    {1 + e^{(B - C - n_1 V) q / kT}}
        \\left[ \\frac{\\pi}{2} + \\tan^{-1}\\frac{C - n_1 V}{D} \\right]

    J_2(V) = H \\left( e^{n_2 q V / kT} - 1 \\right)

    J(V) = J_1(V) + J_2(V)

``J_1`` produces the resonance peak and the NDR region, ``J_2`` the
thermionic valley-to-second-rise current.  The curve has three regions
(paper Fig. 4): PDR1, NDR, PDR2.

Three parameter sets ship with the model:

``NANO_SIM_DATE05``
    The exact values printed in the paper's Section 5.2 (FET-RTD inverter
    experiment).  Peak sits near ``V = C/n1 ~ 4.3 V``.
``SCHULMAN_INGAAS``
    Representative InGaAs/AlAs values in the spirit of the original
    Schulman paper — sub-volt peak, realistic peak-to-valley ratio.
``RTD_LOGIC``
    A set tuned for the MOBILE latch experiments: sub-volt peak and a
    pronounced valley, so two stacked RTDs latch at practical bias.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.constants import thermal_voltage
from repro.devices.base import TwoTerminalDevice

#: Largest exponent fed to math.exp; larger arguments use asymptotics.
_EXP_CLIP = 700.0


def _softplus(x: float) -> float:
    """Numerically stable ``ln(1 + e^x)``."""
    if x > _EXP_CLIP:
        return x
    if x < -_EXP_CLIP:
        return 0.0
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _logistic(x: float) -> float:
    """Numerically stable ``e^x / (1 + e^x)``."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-min(x, _EXP_CLIP)))
    ex = math.exp(max(x, -_EXP_CLIP))
    return ex / (1.0 + ex)


def _exp_clipped(x: float) -> float:
    return math.exp(min(x, _EXP_CLIP))


def _softplus_logistic(x: float) -> tuple[float, float]:
    """``(_softplus(x), _logistic(x))`` bitwise, from one ``exp(-|x|)``.

    Inside the clip both functions take ``exp(-|x|)`` (``exp(-x)`` for
    ``x > 0``, ``exp(x)`` otherwise); past it the scalar functions
    themselves answer.
    """
    if abs(x) > _EXP_CLIP:
        return _softplus(x), _logistic(x)
    e = math.exp(-abs(x))
    if x > 0.0:
        return x + math.log1p(e), 1.0 / (1.0 + e)
    return math.log1p(e), (1.0 / (1.0 + e) if x >= 0.0 else e / (1.0 + e))


#: ``exp(-_EXP_CLIP)``, the smallest ``exp`` the logistic uses; computed
#: by numpy's ``exp`` so it has the bits numpy gives that argument.
_EXP_FLOOR = float(np.exp(np.array([-_EXP_CLIP]))[0])


def _logistic_from_exp(x: np.ndarray, abs_x: np.ndarray,
                       exp_neg_abs: np.ndarray) -> np.ndarray:
    """Vectorized stable logistic from ``exp(-|x|)``, mirroring the
    scalar ``_logistic`` and its clip: ``exp(-min(|x|, _EXP_CLIP))``
    differs from ``exp(-|x|)`` only past the clip, where it is
    ``_EXP_FLOOR``."""
    e = np.where(abs_x > _EXP_CLIP, _EXP_FLOOR, exp_neg_abs)
    denominator = 1.0 + e
    return np.where(x >= 0.0, 1.0 / denominator, e / denominator)


#: SchulmanRTD -> its ``chord_pair`` inside ``chord_epsilon``.  Kept
#: outside the model so the model's attributes (which the service
#: fingerprints) stay its parameters.
_ORIGIN_PAIRS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class SchulmanParameters:
    """Parameter record for the Schulman RTD equations.

    Attributes use the paper's symbols.  ``a`` (amperes), ``b``, ``c``, ``d``
    (volts), ``n1``, ``n2`` (dimensionless level factors), ``h`` (amperes),
    ``temperature`` (kelvin).
    """

    a: float
    b: float
    c: float
    d: float
    n1: float
    n2: float
    h: float
    temperature: float = 300.0

    def scaled(self, area_factor: float) -> "SchulmanParameters":
        """Return a copy with currents scaled by *area_factor*.

        Scaling ``A`` and ``H`` models a device of different junction area;
        the voltage landmarks (peak/valley positions) are unchanged.  The
        MOBILE flip-flop relies on unequal areas between its two RTDs.
        """
        if area_factor <= 0.0:
            raise ValueError(
                f"area_factor must be positive, got {area_factor!r}")
        return replace(self, a=self.a * area_factor, h=self.h * area_factor)


#: Exact parameter values printed in the paper (Section 5.2).
NANO_SIM_DATE05 = SchulmanParameters(
    a=1e-4, b=2.0, c=1.5, d=0.3, n1=0.35, n2=0.0172, h=1.43e-8)

#: Representative sub-volt InGaAs/AlAs-style device (cf. Schulman 1996).
SCHULMAN_INGAAS = SchulmanParameters(
    a=1.2e-3, b=0.068, c=0.1035, d=0.0088, n1=0.1862, n2=0.0466, h=2.4e-6)

#: Tuned for MOBILE latch experiments: peak ~0.48 V, valley ~0.89 V,
#: peak-to-valley ratio ~16, strong second rise before 1.5 V.
RTD_LOGIC = SchulmanParameters(
    a=2.5e-3, b=0.30, c=0.22, d=0.01, n1=0.40, n2=0.10, h=5.0e-5)


class SchulmanRTD(TwoTerminalDevice):
    """Resonant tunneling diode with the Schulman I-V law.

    Parameters
    ----------
    parameters:
        A :class:`SchulmanParameters` record; defaults to the paper's set.

    >>> rtd = SchulmanRTD()
    >>> rtd.current(0.0)
    0.0
    """

    def __init__(self,
                 parameters: SchulmanParameters = NANO_SIM_DATE05) -> None:
        self.parameters = parameters
        self._vt = thermal_voltage(parameters.temperature)

    # ------------------------------------------------------------------
    # I-V law (paper eq. 4)
    # ------------------------------------------------------------------

    def resonance_current(self, voltage: float) -> float:
        """Resonant component ``J_1(V)``."""
        p = self.parameters
        upper = (p.b - p.c + p.n1 * voltage) / self._vt
        lower = (p.b - p.c - p.n1 * voltage) / self._vt
        log_term = _softplus(upper) - _softplus(lower)
        angle = math.pi / 2.0 + math.atan((p.c - p.n1 * voltage) / p.d)
        return p.a * log_term * angle

    def thermionic_current(self, voltage: float) -> float:
        """Valley/second-rise component ``J_2(V)``."""
        p = self.parameters
        return p.h * (_exp_clipped(p.n2 * voltage / self._vt) - 1.0)

    def current(self, voltage: float) -> float:
        """Total current ``J(V) = J_1(V) + J_2(V)``."""
        return self.resonance_current(voltage) + self.thermionic_current(voltage)

    def chord_pair(self, voltage: float) -> tuple[float, float]:
        """``(I/V, (V dI/dV - I)/V^2)`` from one scalar pass of the law.

        The scalar twin of :meth:`_law_many`: the softplus and logistic
        terms share one ``exp``, and the arctangent and the thermionic
        ``exp`` serve both ``I`` and ``dI/dV``.  Bitwise equal to the
        base method's separate :meth:`current` and
        :meth:`differential_conductance` calls; inside
        ``chord_epsilon`` it returns the base method's pair.
        """
        if abs(voltage) < self.chord_epsilon:
            # Both limits there are constants of the model (dI/dV(0) and
            # I''(0)/2): the base method's pair, evaluated once per model.
            pair = _ORIGIN_PAIRS.get(self)
            if pair is None:
                pair = _ORIGIN_PAIRS[self] = super().chord_pair(voltage)
            return pair
        p, vt = self.parameters, self._vt
        n1v = p.n1 * voltage
        soft_upper, logistic_upper = _softplus_logistic((p.b - p.c + n1v) / vt)
        soft_lower, logistic_lower = _softplus_logistic((p.b - p.c - n1v) / vt)
        log_term = soft_upper - soft_lower
        u = (p.c - n1v) / p.d
        angle = math.pi / 2.0 + math.atan(u)
        growth = _exp_clipped(p.n2 * voltage / vt)
        i = p.a * log_term * angle + p.h * (growth - 1.0)
        dlog = (p.n1 / vt) * (logistic_upper + logistic_lower)
        dangle = -(p.n1 / p.d) / (1.0 + u * u)
        g = p.a * (dlog * angle + log_term * dangle) + (p.h * p.n2 / vt) * growth
        return i / voltage, (voltage * g - i) / (voltage * voltage)

    def current_many(self, voltages) -> np.ndarray:
        """Vectorized I-V law: eq. (4) over an array of voltages."""
        return self._law_many(voltages, slope=False)[0]

    def _law_many(self, voltages, slope: bool = True):
        """``(J, dJ/dV)`` over an array of voltages in one numpy pass.

        The softplus and logistic terms share one ``exp(-|x|)`` per
        argument, and the arctangent and the thermionic ``exp`` serve
        both outputs.  Mirrors the scalar clipping (``exp`` arguments
        capped at ``_EXP_CLIP``, softplus in its stable form
        ``log1p(exp(-|x|)) + max(x, 0)``).  With ``slope=False`` the
        derivative is skipped and returned as None.
        """
        p = self.parameters
        v = np.asarray(voltages, dtype=float)
        upper = (p.b - p.c + p.n1 * v) / self._vt
        lower = (p.b - p.c - p.n1 * v) / self._vt
        abs_upper, abs_lower = np.abs(upper), np.abs(lower)
        exp_upper, exp_lower = np.exp(-abs_upper), np.exp(-abs_lower)
        log_term = ((np.log1p(exp_upper) + np.maximum(upper, 0.0))
                    - (np.log1p(exp_lower) + np.maximum(lower, 0.0)))
        u = (p.c - p.n1 * v) / p.d
        angle = math.pi / 2.0 + np.arctan(u)
        growth = np.exp(np.minimum(p.n2 * v / self._vt, _EXP_CLIP))
        current = p.a * log_term * angle + p.h * (growth - 1.0)
        if not slope:
            return current, None
        dlog = (p.n1 / self._vt) * (
            _logistic_from_exp(upper, abs_upper, exp_upper)
            + _logistic_from_exp(lower, abs_lower, exp_lower))
        dangle = -(p.n1 / p.d) / (1.0 + u * u)
        dj1 = p.a * (dlog * angle + log_term * dangle)
        dj2 = (p.h * p.n2 / self._vt) * growth
        return current, dj1 + dj2

    def batch_key(self):
        """Hashable key under which ensemble instances may be grouped.

        Two ``SchulmanRTD`` objects with equal (frozen) parameter
        records evaluate identically, so the lockstep engine batches
        them through one ``current_many`` call even when each circuit
        instance was built with its own model object.
        """
        return (SchulmanRTD, self.parameters)

    # ------------------------------------------------------------------
    # Analytic derivatives (paper eq. 8, re-derived)
    # ------------------------------------------------------------------

    def differential_conductance_many(self, voltages) -> np.ndarray:
        """Vectorized analytic ``dJ/dV``, mirroring the scalar form."""
        return self._law_many(voltages)[1]

    def differential_conductance(self, voltage: float) -> float:
        """Analytic ``dJ/dV`` — negative inside the NDR region."""
        p = self.parameters
        upper = (p.b - p.c + p.n1 * voltage) / self._vt
        lower = (p.b - p.c - p.n1 * voltage) / self._vt
        log_term = _softplus(upper) - _softplus(lower)
        dlog = (p.n1 / self._vt) * (_logistic(upper) + _logistic(lower))
        u = (p.c - p.n1 * voltage) / p.d
        angle = math.pi / 2.0 + math.atan(u)
        dangle = -(p.n1 / p.d) / (1.0 + u * u)
        dj1 = p.a * (dlog * angle + log_term * dangle)
        dj2 = (p.h * p.n2 / self._vt) * _exp_clipped(p.n2 * voltage / self._vt)
        return dj1 + dj2

    # ------------------------------------------------------------------
    # Landmark extraction (used by Fig. 4 / Fig. 5 experiments)
    # ------------------------------------------------------------------

    def peak(self, v_max: float = None, points: int = 4001):
        """Locate the (first) current peak as ``(V_peak, I_peak)``.

        Scans ``[0, v_max]`` for the first sign change of ``dJ/dV`` and
        refines it by bisection.  ``v_max`` defaults to just past the
        resonance alignment voltage ``C/n1``.
        """
        p = self.parameters
        if v_max is None:
            v_max = 1.5 * p.c / p.n1
        return self._first_conductance_zero(1e-6, v_max, points, falling=True)

    def valley(self, v_max: float = None, points: int = 4001):
        """Locate the valley (current minimum past the peak)."""
        p = self.parameters
        if v_max is None:
            v_max = 8.0 * p.c / p.n1
        v_peak, _ = self.peak()
        return self._first_conductance_zero(
            v_peak * 1.0001, v_max, points, falling=False)

    def _first_conductance_zero(self, v_lo: float, v_hi: float, points: int,
                                falling: bool):
        step = (v_hi - v_lo) / (points - 1)
        prev_v = v_lo
        prev_g = self.differential_conductance(prev_v)
        for k in range(1, points):
            v = v_lo + k * step
            g = self.differential_conductance(v)
            crossed = (prev_g > 0.0 >= g) if falling else (prev_g < 0.0 <= g)
            if crossed:
                lo, hi = prev_v, v
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    gm = self.differential_conductance(mid)
                    if (gm > 0.0) == falling:
                        lo = mid
                    else:
                        hi = mid
                v_star = 0.5 * (lo + hi)
                return v_star, self.current(v_star)
            prev_v, prev_g = v, g
        raise ValueError(
            f"no {'peak' if falling else 'valley'} found in "
            f"[{v_lo:.3g}, {v_hi:.3g}]")

    def peak_to_valley_ratio(self) -> float:
        """Peak current divided by valley current."""
        _, i_peak = self.peak()
        _, i_valley = self.valley()
        return i_peak / i_valley

    def ndr_region(self) -> tuple[float, float]:
        """Return ``(V_peak, V_valley)`` — the NDR region boundaries."""
        v_peak, _ = self.peak()
        v_valley, _ = self.valley()
        return v_peak, v_valley

    def __repr__(self) -> str:
        return f"SchulmanRTD({self.parameters!r})"
