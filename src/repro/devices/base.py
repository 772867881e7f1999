"""Base protocol for two-terminal nonlinear devices.

Subclasses must implement :meth:`current`; analytic derivatives are strongly
preferred but a careful central-difference fallback is provided so that
tabulated or experimental devices work out of the box.

Conductance vocabulary (paper Section 3.2, Fig. 3):

differential conductance
    ``g(V) = dI/dV`` — the slope SPICE linearizes around.  Negative inside
    an NDR region, which is what breaks Newton-Raphson.
chord conductance
    ``G_eq(V) = I(V)/V`` — the SWEC equivalent conductance: the slope of the
    chord from the origin to the operating point.  For any device whose
    current has the sign of its voltage (passive device), the chord is
    positive for ``V != 0``.
"""

from __future__ import annotations

import math

import numpy as np


class TwoTerminalDevice:
    """Abstract two-terminal nonlinear device model.

    A custom model implements :meth:`current` (and ideally an analytic
    :meth:`differential_conductance`); the chord methods, their
    vectorized forms and the SWEC step's :meth:`chord_pair` all follow
    from those two.
    """

    #: Voltage magnitude below which the chord conductance switches to its
    #: analytic limit ``dI/dV(0)`` to avoid 0/0.
    chord_epsilon: float = 1e-9

    #: Step used by the finite-difference fallbacks.
    fd_step: float = 1e-6

    def current(self, voltage: float) -> float:
        """Return device current (amperes) at *voltage* (volts)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Derivatives — override with analytic forms where possible.
    # ------------------------------------------------------------------

    def differential_conductance(self, voltage: float) -> float:
        """Return ``dI/dV`` at *voltage*; finite-difference fallback."""
        h = self.fd_step * max(1.0, abs(voltage))
        return (self.current(voltage + h) - self.current(voltage - h)) / (2.0 * h)

    def chord_conductance(self, voltage: float) -> float:
        """Return the SWEC equivalent conductance ``I(V)/V``.

        At ``V -> 0`` the chord tends to the differential conductance at the
        origin, which is the value returned inside ``chord_epsilon``.
        """
        if abs(voltage) < self.chord_epsilon:
            return self.differential_conductance(0.0)
        return self.current(voltage) / voltage

    def chord_conductance_derivative(self, voltage: float) -> float:
        """Return ``dG_eq/dV = (V dI/dV - I) / V^2`` (paper eq. 8).

        Used by the first-order Taylor predictor of eq. (5).  Near the
        origin the quotient rule degenerates; L'Hopital gives
        ``I''(0) / 2``, estimated by finite differences.
        """
        if abs(voltage) < self.chord_epsilon:
            h = self.fd_step
            second = (self.current(h) - 2.0 * self.current(0.0)
                      + self.current(-h)) / (h * h)
            return 0.5 * second
        i = self.current(voltage)
        g = self.differential_conductance(voltage)
        return (voltage * g - i) / (voltage * voltage)

    def chord_pair(self, voltage: float) -> tuple[float, float]:
        """Return ``(chord_conductance(V), chord_conductance_derivative(V))``.

        The SWEC step needs both when the eq.-5 predictor is on; this
        evaluates ``I(V)`` once for the pair instead of once per method,
        with bitwise the same results.  Every model gets it for free from
        :meth:`current` and :meth:`differential_conductance`; a model may
        override it to share more of its arithmetic, and must override it
        if it overrides either chord method.
        """
        if abs(voltage) < self.chord_epsilon:
            return (self.chord_conductance(voltage),
                    self.chord_conductance_derivative(voltage))
        i = self.current(voltage)
        g = self.differential_conductance(voltage)
        return i / voltage, (voltage * g - i) / (voltage * voltage)

    def current_many(self, voltages) -> np.ndarray:
        """Vectorized :meth:`current` over an array of branch voltages.

        Waveform post-processing and the ensemble transient engine
        evaluate whole voltage arrays at once.  Models with closed-form
        numpy implementations override this; the fallback loops over
        the scalar method.
        """
        v = np.asarray(voltages, dtype=float)
        flat = np.fromiter((self.current(float(x)) for x in v.ravel()),
                           dtype=float, count=v.size)
        return flat.reshape(v.shape)

    def differential_conductance_many(self, voltages) -> np.ndarray:
        """Vectorized :meth:`differential_conductance`.

        The fallback loops over the scalar method, so models that only
        override the scalar derivative stay exactly consistent with it;
        models with closed-form numpy derivatives override this too.
        """
        v = np.asarray(voltages, dtype=float)
        flat = np.fromiter(
            (self.differential_conductance(float(x)) for x in v.ravel()),
            dtype=float, count=v.size)
        return flat.reshape(v.shape)

    def chord_terms_many(self, voltages, slope: bool = True):
        """``(chord, chord derivative, dI/dV)`` from one law evaluation.

        The vectorized kernel behind every SWEC quantity: one
        :meth:`_law_many` call gives ``I`` and ``dI/dV``, from which
        follow the chord ``I/V`` (paper eq. 3), its derivative
        ``(V dI/dV - I)/V^2`` (eq. 8) and the tangent ``dI/dV`` itself.
        Inside ``chord_epsilon`` the chord is ``dI/dV(0)`` and the
        derivative its L'Hopital limit ``I''(0) / 2``, estimated by
        finite differences, as in the scalar methods.  With
        ``slope=False`` only :meth:`current_many` runs, and the
        derivative and tangent are None.
        """
        v = np.asarray(voltages, dtype=float)
        small = np.abs(v) < self.chord_epsilon
        safe = np.where(small, 1.0, v)
        if slope:
            i, g = self._law_many(v)
        else:
            i, g = self.current_many(v), None
        chord = i / safe
        derivative = None if g is None else (safe * g - i) / (safe * safe)
        if small.any():
            chord = np.where(small, self.differential_conductance(0.0), chord)
            if slope:
                h = self.fd_step
                second = (self.current(h) - 2.0 * self.current(0.0)
                          + self.current(-h)) / (h * h)
                derivative = np.where(small, 0.5 * second, derivative)
        return chord, derivative, g

    def _law_many(self, voltages) -> tuple[np.ndarray, np.ndarray]:
        """``(I, dI/dV)`` over an array of voltages.

        One :meth:`current_many` and one
        :meth:`differential_conductance_many` call; a model whose law
        shares arithmetic between the two overrides this with one pass.
        """
        return (self.current_many(voltages),
                self.differential_conductance_many(voltages))

    # ------------------------------------------------------------------
    # Conveniences shared by every model
    # ------------------------------------------------------------------

    def batch_key(self):
        """Hashable key under which ensemble instances may be grouped.

        The lockstep transient engine evaluates all circuit instances
        whose device shares a key through one vectorized call.  The
        safe default is object identity; models whose behaviour is
        fully determined by a hashable parameter record (e.g.
        :class:`~repro.devices.rtd.SchulmanRTD`) override this so
        per-instance model objects with equal parameters still batch.
        """
        return id(self)

    def is_passive_at(self, voltage: float) -> bool:
        """True when current has the sign of voltage (chord >= 0) there."""
        i = self.current(voltage)
        return i == 0.0 or math.copysign(1.0, i) == math.copysign(1.0, voltage)

    def sample_iv(self, v_start: float, v_stop: float, points: int):
        """Return ``(voltages, currents)`` tuples sampling the I-V curve.

        Plain lists, not arrays — device models are scalar by design so the
        engines can call them one operating point at a time.
        """
        if points < 2:
            raise ValueError(f"need at least 2 points, got {points}")
        step = (v_stop - v_start) / (points - 1)
        voltages = [v_start + k * step for k in range(points)]
        currents = [self.current(v) for v in voltages]
        return voltages, currents


class TabulatedDevice(TwoTerminalDevice):
    """Device defined by measured ``(V, I)`` samples, linearly interpolated.

    Useful for importing experimental nanodevice curves.  Outside the table
    the end segments are extrapolated.
    """

    def __init__(self, voltages, currents) -> None:
        voltages = [float(v) for v in voltages]
        currents = [float(i) for i in currents]
        if len(voltages) != len(currents):
            raise ValueError("voltages and currents must have equal length")
        if len(voltages) < 2:
            raise ValueError("need at least two table points")
        if any(b <= a for a, b in zip(voltages, voltages[1:])):
            raise ValueError("table voltages must be strictly increasing")
        self.voltages = voltages
        self.currents = currents

    def _segment(self, voltage: float) -> int:
        lo, hi = 0, len(self.voltages) - 2
        if voltage <= self.voltages[0]:
            return 0
        if voltage >= self.voltages[-1]:
            return hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.voltages[mid] <= voltage:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def current(self, voltage: float) -> float:
        k = self._segment(voltage)
        v0, v1 = self.voltages[k], self.voltages[k + 1]
        i0, i1 = self.currents[k], self.currents[k + 1]
        return i0 + (i1 - i0) * (voltage - v0) / (v1 - v0)

    def differential_conductance(self, voltage: float) -> float:
        k = self._segment(voltage)
        v0, v1 = self.voltages[k], self.voltages[k + 1]
        i0, i1 = self.currents[k], self.currents[k + 1]
        return (i1 - i0) / (v1 - v0)
