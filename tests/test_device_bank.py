"""Equivalence tests for the grouped device kernel.

One kernel, :class:`~repro.swec.conductance.SwecLinearization`
(``device_terms``/``mosfet_terms`` over grouped device laws, with
:func:`~repro.devices.mosfet.mosfet_law_stack` for the MOSFETs),
replaced three separate device evaluations: the lockstep march's group
build, the PSS ``step_terms`` (which ran the RTD law twice and called
``partials`` per MOSFET per step) and the AC ``tangent_conductances``
loops.  Each test keeps the replaced path as a test-local oracle and
pins the kernel to it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ac.linearize import stamp_tangent, tangent_conductances
from repro.circuit import Pulse
from repro.circuits_lib import fet_rtd_inverter, rtd_relaxation_oscillator
from repro.circuits_lib.logic_gates import mobile_nand
from repro.devices import nmos, pmos
from repro.devices.mosfet import mosfet_law_stack
from repro.pss import PSSOptions, ShootingPSS
from repro.pss.engine import _correction_scale
from repro.swec import SwecDC

# ---------------------------------------------------------------------------
# The vectorized level-1 law against the scalar methods

mosfet_models = st.builds(
    lambda polarity, kp, vth, lam: (nmos if polarity > 0 else pmos)(
        kp=kp, vth=vth, channel_modulation=lam),
    polarity=st.sampled_from([1, -1]),
    kp=st.floats(1e-6, 1e-2),
    vth=st.floats(0.1, 2.0),
    lam=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)))

#: Terminal voltages covering both Vds signs, the Vds -> 0 chord limit
#: and sub-threshold gates.
terminal_voltages = st.one_of(
    st.floats(-5.0, 5.0),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12]))


def _bits(values):
    """Float bit patterns with the sign of zero dropped."""
    return [float(v).hex() if v != 0.0 else "0" for v in values]


class TestMosfetLawStack:
    @given(cases=st.lists(st.tuples(mosfet_models, terminal_voltages,
                                    terminal_voltages),
                          min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_current_partials_and_chord(self, cases):
        models = [model for model, _, _ in cases]
        vgs = np.array([v for _, v, _ in cases])
        vds = np.array([v for _, _, v in cases])
        params = {name: np.array([getattr(m, name) for m in models])
                  for name in ("kp", "w", "l", "vth", "polarity",
                               "channel_modulation")}
        ids, gm, gds, chord = mosfet_law_stack(vgs, vds, **params)
        scalar = [(m.current(a, b), *m.partials(a, b),
                   m.chord_conductance(a, b))
                  for m, a, b in zip(models, vgs.tolist(), vds.tolist())]
        expected = list(zip(*scalar))
        for got, want in zip((ids, gm, gds, chord), expected):
            assert _bits(got) == _bits(want)
        _, none_gm, none_gds, chord_only = mosfet_law_stack(
            vgs, vds, partials=False, **params)
        assert none_gm is None and none_gds is None
        assert _bits(chord_only) == _bits(chord)


# ---------------------------------------------------------------------------
# PSS step_terms against the two-pass version it replaced


def _two_pass_step_terms(shoot, states):
    """``step_terms`` as it was: grouped chord and tangent law calls
    (two RTD passes) and one ``partials`` call per MOSFET per step."""
    lin, circuit = shoot.linearization, shoot.circuit
    multiplicity_all = np.array([d.multiplicity for d in circuit.devices])
    groups: dict = {}
    for k, device in enumerate(circuit.devices):
        model = device.model
        groups.setdefault(model.batch_key(), (model, []))[1].append(k)
    v = lin.device_voltages(states[:-1])
    w = lin.device_voltages(states[1:])
    chord = np.empty_like(v)
    tangent = np.empty_like(v)
    for model, indices in groups.values():
        idx = np.asarray(indices, dtype=np.intp)
        multiplicity = multiplicity_all[idx]
        voltages = v[:, idx]
        small = np.abs(voltages) < model.chord_epsilon
        safe = np.where(small, 1.0, voltages)
        chords = model.current_many(safe) / safe
        if small.any():
            chords = np.where(small, model.differential_conductance(0.0),
                              chords)
        chord[:, idx] = multiplicity * chords
        tangent[:, idx] = multiplicity * \
            model.differential_conductance_many(voltages)
    np.maximum(chord, 0.0, out=chord)
    vgs, vds = lin.mosfet_vgs_vds(states[:-1])
    _, wds = lin.mosfet_vgs_vds(states[1:])
    mosfet_chord = np.empty_like(vds)
    gm = np.empty_like(vds)
    gds = np.empty_like(vds)
    for j, mosfet in enumerate(circuit.mosfets):
        mosfet_chord[:, j] = [mosfet.chord_conductance(a, b) for a, b in
                              zip(vgs[:, j].tolist(), vds[:, j].tolist())]
        gm[:, j], gds[:, j] = np.array([
            mosfet.partials(a, b)
            for a, b in zip(vgs[:, j].tolist(), vds[:, j].tolist())
        ]).T
    np.maximum(mosfet_chord, 0.0, out=mosfet_chord)
    device_scale = _correction_scale(chord, v, w)
    mosfet_scale = _correction_scale(mosfet_chord, vds, wds)
    coefficients = np.concatenate((
        (tangent - chord) * device_scale,
        (gds - mosfet_chord) * mosfet_scale,
        gm * mosfet_scale,
    ), axis=1)
    return np.concatenate((chord, mosfet_chord), axis=1), coefficients


def _oscillator():
    circuit, info = rtd_relaxation_oscillator()
    return circuit, 0.1 * info.period_guess


def _mosfet_nand():
    edge = 0.5e-9
    a = Pulse(0.0, 1.2, delay=2e-9, rise=edge, fall=edge, width=8e-9,
              period=20e-9)
    b = Pulse(0.0, 1.2, delay=6e-9, rise=edge, fall=edge, width=8e-9,
              period=20e-9)
    circuit, _ = mobile_nand(a, b)
    return circuit, 0.2e-9


@pytest.mark.parametrize("build", [_oscillator, _mosfet_nand],
                         ids=["rtd_oscillator", "mobile_nand"])
def test_step_terms_match_two_pass_version(build):
    circuit, horizon = build()
    steps = 48
    shoot = ShootingPSS(circuit, PSSOptions(period=horizon,
                                            steps_per_period=steps))
    x0 = np.random.default_rng(3).uniform(0.0, 1.0, shoot.system.size)
    march = shoot.engine.run_grid(np.linspace(0.0, horizon, steps + 1),
                                  initial_state=x0)
    chords, coefficients = shoot._sensitivity.step_terms(march.states)
    expected_chords, expected_coefficients = _two_pass_step_terms(
        shoot, march.states)
    assert chords.tobytes() == expected_chords.tobytes()
    assert coefficients.tobytes() == expected_coefficients.tobytes()
    # The comparison exercises every term, not only zeros.
    assert np.count_nonzero(coefficients) > 0


# ---------------------------------------------------------------------------
# AC tangents against the per-device loop they replaced


def _looped_tangents(circuit, system, state):
    """``tangent_conductances`` as it was: one scalar call per element."""
    device_g = np.zeros(len(circuit.devices))
    for k, (anode, cathode) in enumerate(system.device_terminals()):
        va = state[anode] if anode >= 0 else 0.0
        vc = state[cathode] if cathode >= 0 else 0.0
        device_g[k] = circuit.devices[k].differential_conductance(va - vc)
    mosfet_partials = []
    for k, (drain, gate, source) in enumerate(system.mosfet_terminals()):
        vd = state[drain] if drain >= 0 else 0.0
        vg = state[gate] if gate >= 0 else 0.0
        vs = state[source] if source >= 0 else 0.0
        mosfet_partials.append(circuit.mosfets[k].partials(vg - vs, vd - vs))
    return device_g, mosfet_partials


@pytest.mark.parametrize("vin", [0.0, 1.5, 2.5, 5.0])
def test_tangent_conductances_match_per_device_loop(vin):
    circuit, _ = fet_rtd_inverter(vin=vin)
    dc = SwecDC(circuit)
    state = dc.operating_point()
    device_g, mosfet_partials = tangent_conductances(circuit, dc.system,
                                                     state)
    expected_g, expected_partials = _looped_tangents(circuit, dc.system,
                                                     state)
    np.testing.assert_allclose(device_g, expected_g, rtol=1e-13, atol=0.0)
    assert device_g.shape == expected_g.shape
    assert mosfet_partials == expected_partials


def _looped_stamp(system, matrix, device_g, mosfet_partials):
    """``stamp_tangent`` as it was: one stamp call per element."""
    for k, (anode, cathode) in enumerate(system.device_terminals()):
        system.stamp_conductance(matrix, anode, cathode, device_g[k])
    for k, (drain, gate, source) in enumerate(system.mosfet_terminals()):
        gm, gds = mosfet_partials[k]
        system.stamp_conductance(matrix, drain, source, gds)
        system.stamp_transconductance(matrix, drain, source, gate, source, gm)


@pytest.mark.parametrize("build", [lambda: fet_rtd_inverter(vin=2.5),
                                   lambda: _mosfet_nand()],
                         ids=["fet_rtd_inverter", "mobile_nand"])
def test_stamp_tangent_matches_per_element_stamps(build):
    circuit, _ = build()
    dc = SwecDC(circuit)
    state = np.random.default_rng(7).uniform(0.0, 1.5, dc.system.size)
    device_g, mosfet_partials = tangent_conductances(circuit, dc.system,
                                                     state)
    base = dc.system.conductance_base()
    stamped, looped = base.copy(), base.copy()
    stamp_tangent(dc.system, stamped, device_g, mosfet_partials)
    _looped_stamp(dc.system, looped, device_g, mosfet_partials)
    # The incidence product sums each entry in another order: a few
    # float64 ulps of the largest stamped value.
    scale = np.max(np.abs(looped))
    np.testing.assert_allclose(stamped, looped, rtol=0.0,
                               atol=8 * np.finfo(float).eps * scale)
    assert np.count_nonzero(stamped - base) > 0
