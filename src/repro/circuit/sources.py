"""Time-domain waveforms for independent sources.

Every waveform exposes two methods:

``value(t)``
    The source value (volts or amperes) at time ``t``.
``slope(t)``
    The time derivative at ``t``.  The SWEC adaptive step controller uses
    the input slope ``alpha = dV_in/dt`` in its error bound (paper eq. 11),
    so slopes are first-class citizens rather than finite differences.

Waveforms are immutable; building a new stimulus means building a new
object.  All of them are plain Python over floats — they are evaluated once
per accepted time point, never in an inner loop.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence


class Waveform:
    """Base class for source waveforms."""

    def value(self, t: float) -> float:
        """Return the waveform value at time *t*."""
        raise NotImplementedError

    def slope(self, t: float) -> float:
        """Return the time derivative at time *t*."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Return times where the derivative is discontinuous.

        Transient engines refuse to step across a breakpoint: they shorten
        the step to land exactly on it, which keeps sharp edges sharp.
        """
        return ()


class DC(Waveform):
    """Constant source.

    >>> DC(5.0).value(1e-9)
    5.0
    """

    def __init__(self, level: float) -> None:
        self.level = float(level)

    def value(self, t: float) -> float:
        return self.level

    def slope(self, t: float) -> float:
        return 0.0

    def __repr__(self) -> str:
        return f"DC({self.level!r})"


class Step(Waveform):
    """Ideal-ish step from *initial* to *final* at *time* over *rise*.

    A zero *rise* is replaced with a very small ramp so the slope stays
    finite (the adaptive controller divides by it).
    """

    _MIN_RISE = 1e-15

    def __init__(self, initial: float, final: float, time: float,
                 rise: float = 0.0) -> None:
        self.initial = float(initial)
        self.final = float(final)
        self.time = float(time)
        self.rise = max(float(rise), self._MIN_RISE)

    def value(self, t: float) -> float:
        if t <= self.time:
            return self.initial
        if t >= self.time + self.rise:
            return self.final
        fraction = (t - self.time) / self.rise
        return self.initial + (self.final - self.initial) * fraction

    def slope(self, t: float) -> float:
        if self.time < t < self.time + self.rise:
            return (self.final - self.initial) / self.rise
        return 0.0

    def breakpoints(self) -> tuple[float, ...]:
        return (self.time, self.time + self.rise)

    def __repr__(self) -> str:
        return (f"Step({self.initial!r}, {self.final!r}, time={self.time!r}, "
                f"rise={self.rise!r})")


class Pulse(Waveform):
    """SPICE-style periodic pulse.

    Parameters mirror the SPICE ``PULSE(V1 V2 TD TR TF PW PER)`` source:
    initial value, pulsed value, delay, rise time, fall time, pulse width
    and period.  Zero rise/fall times are nudged to a tiny positive value.
    """

    _MIN_EDGE = 1e-15

    def __init__(self, initial: float, pulsed: float, delay: float = 0.0,
                 rise: float = 0.0, fall: float = 0.0,
                 width: float = 0.0, period: float = math.inf) -> None:
        if width < 0.0:
            raise ValueError(f"pulse width must be >= 0, got {width!r}")
        self.initial = float(initial)
        self.pulsed = float(pulsed)
        self.delay = float(delay)
        self.rise = max(float(rise), self._MIN_EDGE)
        self.fall = max(float(fall), self._MIN_EDGE)
        self.width = float(width)
        self.period = float(period)
        cycle = self.rise + self.width + self.fall
        if self.period < cycle:
            raise ValueError(
                f"period {period!r} shorter than rise+width+fall {cycle!r}")

    def _phase(self, t: float) -> float:
        """Time within the current cycle, after the initial delay."""
        local = t - self.delay
        if local < 0.0 or not math.isfinite(self.period):
            return local
        return local % self.period

    def value(self, t: float) -> float:
        phase = self._phase(t)
        if phase < 0.0:
            return self.initial
        if phase < self.rise:
            return self.initial + (self.pulsed - self.initial) * phase / self.rise
        if phase < self.rise + self.width:
            return self.pulsed
        if phase < self.rise + self.width + self.fall:
            fraction = (phase - self.rise - self.width) / self.fall
            return self.pulsed + (self.initial - self.pulsed) * fraction
        return self.initial

    def slope(self, t: float) -> float:
        phase = self._phase(t)
        if 0.0 < phase < self.rise:
            return (self.pulsed - self.initial) / self.rise
        start_fall = self.rise + self.width
        if start_fall < phase < start_fall + self.fall:
            return (self.initial - self.pulsed) / self.fall
        return 0.0

    def breakpoints(self) -> tuple[float, ...]:
        edges = (0.0, self.rise, self.rise + self.width,
                 self.rise + self.width + self.fall)
        # One period's worth; engines re-fold periodic breakpoints.
        return tuple(self.delay + e for e in edges)

    def periodic_breakpoints(self, t_stop: float) -> tuple[float, ...]:
        """All breakpoints in ``[0, t_stop]``, unrolled over periods."""
        base = (0.0, self.rise, self.rise + self.width,
                self.rise + self.width + self.fall)
        points: list[float] = []
        if not math.isfinite(self.period):
            return tuple(p for p in (self.delay + e for e in base)
                         if 0.0 <= p <= t_stop)
        k = 0
        while self.delay + k * self.period <= t_stop:
            for e in base:
                p = self.delay + k * self.period + e
                if 0.0 <= p <= t_stop:
                    points.append(p)
            k += 1
        return tuple(points)

    def __repr__(self) -> str:
        return (f"Pulse({self.initial!r}, {self.pulsed!r}, "
                f"delay={self.delay!r}, rise={self.rise!r}, "
                f"fall={self.fall!r}, width={self.width!r}, "
                f"period={self.period!r})")


class Clock(Pulse):
    """Square clock: 50% duty cycle, given period, low/high levels.

    Convenience wrapper over :class:`Pulse` used by the flip-flop
    experiments (paper Fig. 9(b)).
    """

    def __init__(self, low: float, high: float, period: float,
                 rise: float = 0.0, delay: float = 0.0) -> None:
        if period <= 0.0:
            raise ValueError(f"clock period must be positive, got {period!r}")
        edge = max(rise, period * 1e-4)
        width = period / 2.0 - edge
        if width <= 0.0:
            raise ValueError("clock edges longer than half the period")
        super().__init__(low, high, delay=delay, rise=edge, fall=edge,
                         width=width, period=period)


class Sine(Waveform):
    """Sinusoidal source ``offset + amplitude * sin(2 pi f (t - delay))``."""

    def __init__(self, offset: float, amplitude: float, frequency: float,
                 delay: float = 0.0) -> None:
        if frequency <= 0.0:
            raise ValueError(f"frequency must be positive, got {frequency!r}")
        self.offset = float(offset)
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.delay = float(delay)

    def value(self, t: float) -> float:
        if t < self.delay:
            return self.offset
        phase = 2.0 * math.pi * self.frequency * (t - self.delay)
        return self.offset + self.amplitude * math.sin(phase)

    def slope(self, t: float) -> float:
        if t < self.delay:
            return 0.0
        omega = 2.0 * math.pi * self.frequency
        return self.amplitude * omega * math.cos(omega * (t - self.delay))

    def breakpoints(self) -> tuple[float, ...]:
        return (self.delay,)

    def __repr__(self) -> str:
        return (f"Sine({self.offset!r}, {self.amplitude!r}, "
                f"{self.frequency!r}, delay={self.delay!r})")


class PiecewiseLinear(Waveform):
    """Piecewise-linear waveform through ``(time, value)`` points.

    Before the first point the waveform holds the first value; after the
    last point it holds the last value.

    >>> w = PiecewiseLinear([(0.0, 0.0), (1.0, 2.0)])
    >>> w.value(0.5)
    1.0
    """

    def __init__(self, points: Sequence[tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ValueError("PWL waveform needs at least two points")
        times = [float(t) for t, _ in points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PWL times must be strictly increasing")
        self.times = tuple(times)
        self.values = tuple(float(v) for _, v in points)

    def value(self, t: float) -> float:
        if t <= self.times[0]:
            return self.values[0]
        if t >= self.times[-1]:
            return self.values[-1]
        idx = bisect.bisect_right(self.times, t) - 1
        t0, t1 = self.times[idx], self.times[idx + 1]
        v0, v1 = self.values[idx], self.values[idx + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def slope(self, t: float) -> float:
        if t <= self.times[0] or t >= self.times[-1]:
            return 0.0
        idx = bisect.bisect_right(self.times, t) - 1
        t0, t1 = self.times[idx], self.times[idx + 1]
        v0, v1 = self.values[idx], self.values[idx + 1]
        return (v1 - v0) / (t1 - t0)

    def breakpoints(self) -> tuple[float, ...]:
        return self.times

    def __repr__(self) -> str:
        pts = list(zip(self.times, self.values))
        return f"PiecewiseLinear({pts!r})"


def waveform_state_key(waveform: Waveform):
    """Structural deduplication key for waveform evaluations.

    Instances built by independent builder calls carry distinct but
    value-identical waveform objects (K ``fet_rtd_inverter()`` calls
    make K equal ``Pulse``\\ s); keying on ``(type, attribute state)``
    lets batched engines share one evaluation per time point.
    Waveforms with unhashable state fall back to object identity —
    never wrong, just unshared.
    """
    try:
        state = tuple(sorted(vars(waveform).items()))
        hash(state)
    except TypeError:
        return ("id", id(waveform))
    return (type(waveform), state)


def as_waveform(value: "Waveform | float | int") -> Waveform:
    """Coerce a bare number to a :class:`DC` waveform.

    Circuit-building helpers accept either a waveform or a plain number;
    this keeps ``circuit.add_voltage_source("V1", "in", "0", 5.0)`` terse.
    """
    if isinstance(value, Waveform):
        return value
    return DC(float(value))
