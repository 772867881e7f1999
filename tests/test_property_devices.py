"""Property-based tests (hypothesis) for device-model invariants.

These encode the paper's central mathematical claim as properties: for
any passive device at any bias, the chord conductance is non-negative —
even where the differential conductance is negative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.circuit.elements import TwoTerminalDeviceInstance
from repro.devices import (
    Diode,
    MultiPeakRTT,
    NANO_SIM_DATE05,
    QuantizedNanowire,
    RTD_LOGIC,
    SCHULMAN_INGAAS,
    SchulmanParameters,
    SchulmanRTD,
    TabulatedDevice,
    TwoTerminalDevice,
    nmos,
)

voltages = st.floats(min_value=-5.0, max_value=5.0,
                     allow_nan=False, allow_infinity=False)
positive_voltages = st.floats(min_value=1e-6, max_value=5.0,
                              allow_nan=False, allow_infinity=False)

# Schulman parameter space around physically sensible values.
schulman_params = st.builds(
    SchulmanParameters,
    a=st.floats(1e-5, 1e-2),
    b=st.floats(0.05, 2.5),
    c=st.floats(0.05, 1.6),
    d=st.floats(0.005, 0.5),
    n1=st.floats(0.05, 0.5),
    n2=st.floats(0.005, 0.2),
    h=st.floats(1e-9, 1e-4),
)


class TestRtdProperties:
    @given(params=schulman_params, v=voltages)
    @settings(max_examples=200, deadline=None)
    def test_current_finite_everywhere(self, params, v):
        assert math.isfinite(SchulmanRTD(params).current(v))

    @given(params=schulman_params, v=positive_voltages)
    @settings(max_examples=200, deadline=None)
    def test_chord_nonnegative_at_positive_bias(self, params, v):
        """THE paper claim, over the whole parameter space."""
        assert SchulmanRTD(params).chord_conductance(v) >= 0.0

    @given(params=schulman_params, v=positive_voltages)
    @settings(max_examples=100, deadline=None)
    def test_passivity(self, params, v):
        rtd = SchulmanRTD(params)
        assert rtd.current(v) >= 0.0
        assert rtd.current(-v) <= 0.0

    @given(params=schulman_params)
    @settings(max_examples=50, deadline=None)
    def test_zero_bias_zero_current(self, params):
        assert SchulmanRTD(params).current(0.0) == pytest.approx(
            0.0, abs=1e-15)

    @given(v=st.floats(0.01, 3.0), factor=st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_area_scaling_linear_in_current(self, v, factor):
        base = SchulmanRTD(SCHULMAN_INGAAS)
        scaled = SchulmanRTD(SCHULMAN_INGAAS.scaled(factor))
        assert scaled.current(v) == pytest.approx(
            factor * base.current(v), rel=1e-9)

    @given(params=schulman_params, v=st.floats(0.05, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_analytic_derivative_consistent(self, params, v):
        rtd = SchulmanRTD(params)
        h = 1e-6 * max(1.0, abs(v))
        numeric = (rtd.current(v + h) - rtd.current(v - h)) / (2.0 * h)
        analytic = rtd.differential_conductance(v)
        scale = max(abs(numeric), abs(analytic), 1e-12)
        assert abs(analytic - numeric) / scale < 1e-3


class TestNanowireProperties:
    @given(v=voltages)
    @settings(max_examples=100, deadline=None)
    def test_odd_current(self, v):
        wire = QuantizedNanowire()
        assert wire.current(-v) == pytest.approx(-wire.current(v),
                                                 rel=1e-9, abs=1e-15)

    @given(v1=voltages, v2=voltages)
    @settings(max_examples=100, deadline=None)
    def test_monotone_current(self, v1, v2):
        wire = QuantizedNanowire()
        lo, hi = sorted((v1, v2))
        assert wire.current(lo) <= wire.current(hi) + 1e-15

    @given(v=voltages)
    @settings(max_examples=100, deadline=None)
    def test_conductance_bounded(self, v):
        wire = QuantizedNanowire()
        g = wire.conductance_staircase(v)
        total = (wire.contact_conductance
                 + wire.num_channels() * wire.quantum)
        assert 0.0 <= g <= total * (1.0 + 1e-9)


class TestMosfetProperties:
    @given(vgs=st.floats(-2.0, 6.0), vds=st.floats(-5.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_chord_nonnegative(self, vgs, vds):
        assert nmos().chord_conductance(vgs, vds) >= 0.0

    @given(vgs=st.floats(-2.0, 6.0), vds=st.floats(-5.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_current_sign_follows_vds(self, vgs, vds):
        ids = nmos().current(vgs, vds)
        if vds > 0:
            assert ids >= 0.0
        elif vds < 0:
            assert ids <= 0.0
        else:
            assert ids == 0.0

    @given(vgs=st.floats(1.01, 6.0), vds=st.floats(0.0, 5.0),
           dv=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_vds(self, vgs, vds, dv):
        m = nmos()
        assert m.current(vgs, vds + dv) >= m.current(vgs, vds) - 1e-15

    @given(vgs=st.floats(-2.0, 6.0), vds=st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_partials_finite(self, vgs, vds):
        gm, gds = nmos().partials(vgs, vds)
        assert math.isfinite(gm) and math.isfinite(gds)


class TestDiodeProperties:
    @given(v=st.floats(-10.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_finite_and_monotone_slope(self, v):
        d = Diode()
        assert math.isfinite(d.current(v))
        assert d.differential_conductance(v) > 0.0

    @given(v=positive_voltages)
    @settings(max_examples=100, deadline=None)
    def test_chord_nonnegative(self, v):
        assert Diode().chord_conductance(v) >= 0.0


class TestRttProperties:
    @given(v=st.floats(0.01, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_chord_positive(self, v):
        assert MultiPeakRTT().chord_conductance(v) > 0.0

    @given(v=st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_finite(self, v):
        assert math.isfinite(MultiPeakRTT().current(v))


#: Every shipped two-terminal model, built fresh per example.
TWO_TERMINAL_MODELS = {
    "schulman-paper": SchulmanRTD,
    "schulman-ingaas": lambda: SchulmanRTD(SCHULMAN_INGAAS),
    "schulman-logic": lambda: SchulmanRTD(RTD_LOGIC),
    "diode": Diode,
    "nanowire": QuantizedNanowire,
    "rtt": MultiPeakRTT,
    "tabulated": lambda: TabulatedDevice([-1.0, 0.0, 0.4, 0.8, 1.5],
                                         [-2e-3, 0.0, 1e-3, 2e-4, 3e-3]),
}

#: The origin and the chord_epsilon band around it, where both chord
#: methods switch to their analytic limits.
_EPS = TwoTerminalDevice.chord_epsilon
near_origin = st.sampled_from(
    [0.0, -0.0, 0.5 * _EPS, -0.5 * _EPS, 0.999 * _EPS, -0.999 * _EPS,
     _EPS, -_EPS])


def _bits(pair):
    return [float(x).hex() for x in pair]


class TestChordPairProperties:
    """chord_pair is the SWEC step's one device-law evaluation; it must
    equal the two chord methods it replaced, bit for bit."""

    @given(name=st.sampled_from(sorted(TWO_TERMINAL_MODELS)),
           v=st.one_of(near_origin, voltages),
           multiplicity=st.sampled_from([1.0, 0.5, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_pair_equals_separate_methods(self, name, v, multiplicity):
        model = TWO_TERMINAL_MODELS[name]()
        device = TwoTerminalDeviceInstance("X1", "a", "0", model,
                                           multiplicity=multiplicity)
        for target in (model, device):
            expected = (target.chord_conductance(v),
                        target.chord_conductance_derivative(v))
            assert _bits(target.chord_pair(v)) == _bits(expected)


# ---------------------------------------------------------------------------
# chord_terms_many: the lockstep march's one law pass per model group


def _reference_schulman_law(rtd, v):
    """The Schulman ``(J, dJ/dV)`` as two separate passes: the current
    with its own softplus terms, the derivative with a mask-indexed
    logistic.  The fused pass must reproduce both bit for bit."""
    p, vt, clip = rtd.parameters, rtd._vt, 700.0

    def softplus(x):
        return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)

    def logistic(x):
        out = np.empty_like(x)
        positive = x >= 0.0
        out[positive] = 1.0 / (1.0 + np.exp(-np.minimum(x[positive], clip)))
        ex = np.exp(np.maximum(x[~positive], -clip))
        out[~positive] = ex / (1.0 + ex)
        return out

    upper = (p.b - p.c + p.n1 * v) / vt
    lower = (p.b - p.c - p.n1 * v) / vt
    log_term = softplus(upper) - softplus(lower)
    angle = math.pi / 2.0 + np.arctan((p.c - p.n1 * v) / p.d)
    current = p.a * log_term * angle + p.h * (
        np.exp(np.minimum(p.n2 * v / vt, clip)) - 1.0)
    dlog = (p.n1 / vt) * (logistic(upper) + logistic(lower))
    u = (p.c - p.n1 * v) / p.d
    dangle = -(p.n1 / p.d) / (1.0 + u * u)
    slope = p.a * (dlog * (math.pi / 2.0 + np.arctan(u))
                   + log_term * dangle) + (p.h * p.n2 / vt) * np.exp(
                       np.minimum(p.n2 * v / vt, clip))
    return current, slope


def _reference_chord_pair(model, voltages):
    """Chord and chord derivative from separate law calls: the chord
    from ``I / V``, the derivative from the quotient rule, both with
    the ``chord_epsilon`` limits of the scalar methods."""
    v = np.asarray(voltages, dtype=float)
    small = np.abs(v) < model.chord_epsilon
    safe = np.where(small, 1.0, v)
    if isinstance(model, SchulmanRTD):
        i, g = _reference_schulman_law(model, safe)
    else:
        i = model.current_many(safe)
        g = model.differential_conductance_many(safe)
    chord = np.where(small, model.differential_conductance(0.0), i / safe)
    h = model.fd_step
    second = (model.current(h) - 2.0 * model.current(0.0)
              + model.current(-h)) / (h * h)
    derivative = np.where(small, 0.5 * second,
                          (safe * g - i) / (safe * safe))
    return chord, derivative


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


#: Past about +-60 V the paper-set softplus arguments leave +-700,
#: where the scalar logistic clips its exp and the softplus does not.
beyond_clip = st.sampled_from([-1e5, -1e3, -60.0, 60.0, 1e3, 1e5])
voltage_arrays = arrays(
    np.float64,
    array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
    elements=st.one_of(near_origin, voltages, beyond_clip))


class TestChordPairManyProperties:
    """chord_terms_many replaced the chord and chord-derivative calls of
    the vectorized march; it must equal them bit for bit."""

    @given(name=st.sampled_from(sorted(TWO_TERMINAL_MODELS)),
           v=voltage_arrays)
    @settings(max_examples=300, deadline=None)
    def test_pair_many_equals_separate_methods(self, name, v):
        model = TWO_TERMINAL_MODELS[name]()
        chord, derivative, _ = model.chord_terms_many(v)
        expected_chord, expected_derivative = _reference_chord_pair(model, v)
        assert _same_bits(chord, model.chord_terms_many(v, slope=False)[0])
        assert _same_bits(chord, expected_chord)
        assert _same_bits(derivative, expected_derivative)
        assert _same_bits(derivative, model.chord_terms_many(v)[1])

    @pytest.mark.parametrize("parameters", [NANO_SIM_DATE05,
                                            SCHULMAN_INGAAS, RTD_LOGIC])
    def test_schulman_law_on_a_dense_grid(self, parameters):
        rtd = SchulmanRTD(parameters)
        v = np.concatenate([np.linspace(-10.0, 10.0, 200_001),
                            [-1e5, -1e3, 1e3, 1e5]])
        current, slope = _reference_schulman_law(rtd, v)
        assert _same_bits(rtd.current_many(v), current)
        assert _same_bits(rtd.differential_conductance_many(v), slope)
        chord, derivative, _ = rtd.chord_terms_many(v)
        expected_chord, expected_derivative = _reference_chord_pair(rtd, v)
        assert _same_bits(chord, expected_chord)
        assert _same_bits(derivative, expected_derivative)


class TestSchulmanScalarPair:
    """SchulmanRTD.chord_pair shares one scalar pass between I and
    dI/dV; it must equal the separate current and
    differential_conductance calls bit for bit, past the exp clip too."""

    @given(parameters=st.sampled_from([NANO_SIM_DATE05, SCHULMAN_INGAAS,
                                       RTD_LOGIC]),
           v=st.one_of(near_origin, voltages, beyond_clip,
                       st.floats(-1e6, 1e6)))
    @settings(max_examples=500, deadline=None)
    def test_fused_pair_equals_separate_law_calls(self, parameters, v):
        rtd = SchulmanRTD(parameters)
        if abs(v) < rtd.chord_epsilon:
            expected = (rtd.chord_conductance(v),
                        rtd.chord_conductance_derivative(v))
        else:
            i = rtd.current(v)
            g = rtd.differential_conductance(v)
            expected = (i / v, (v * g - i) / (v * v))
        assert _bits(rtd.chord_pair(v)) == _bits(expected)
