"""Equivalent-conductance evaluation for the SWEC engines.

:class:`SwecLinearization` is the one device kernel: given the states
of a march, it computes the chord conductance of every nonlinear device
(two-terminal and MOSFET drain-source, the column order of
:meth:`~repro.mna.assembler.MnaSystem.chord_pairs`).  It optionally
applies the paper's eq. (5) first-order Taylor predictor

.. math::  G_{eq}(n+1) = G_{eq}(n) + \\frac{h_n}{2} G'_{eq}(n),
           \\qquad G'_{eq} = \\frac{dG_{eq}}{dV} \\frac{dV}{dt}

where ``dV/dt`` is estimated from the last two accepted points (eq. 9).

The paper's central claim is encoded in the clamp at 0: the returned
values are chords through the origin, which are non-negative for
passive devices even inside an NDR region.
"""

from __future__ import annotations

import numpy as np

from repro.devices.mosfet import mosfet_law_stack
from repro.mna.assembler import MnaSystem
from repro.perf.flops import FlopCounter


def _gather_arrays(indices) -> tuple[np.ndarray, np.ndarray]:
    """``(clipped indices, ground mask)`` for a vectorized gather.

    Ground terminals carry index ``-1``; clipping them to 0 keeps the
    fancy index legal and the 0.0 mask zeroes the gathered value, so
    ``state[..., idx] * mask`` reproduces the per-terminal
    ``state[k] if k >= 0 else 0.0`` lookup in one shot.
    """
    idx = np.asarray(indices, dtype=np.intp)
    mask = (idx >= 0).astype(float)
    return np.maximum(idx, 0), mask


class SwecLinearization:
    """The nonlinear devices of K same-topology circuits: terminal
    gathers and the chord law, grouped once per march.

    Parameters
    ----------
    system:
        Assembled MNA view of the first circuit (the shared topology).
    circuits:
        The K circuits whose devices the grouped law evaluates; default
        ``[system.circuit]``.

    Every SWEC quantity comes from one device law ``(I, dI/dV)``: the
    eq.-3 chord ``I/V``, the eq.-5/8 predictor slope ``d(I/V)/dV`` and
    the tangent ``dI/dV`` of the small-signal and shooting
    linearizations.  Two forms evaluate it:

    - the grouped form (:meth:`device_terms`, :meth:`mosfet_terms`) on
      ``(rows, n_devices)`` voltage stacks from :meth:`device_voltages`
      and :meth:`mosfet_vgs_vds`: the lockstep march, the PSS monodromy
      and the AC linearization.  Two-terminal device slots whose K
      models share one ``batch_key`` are grouped across slots, one law
      call (:meth:`~repro.devices.base.TwoTerminalDevice.
      chord_terms_many`) per key: a 20x20 RTD mesh pays one law pass
      per step instead of 400.  A slot whose instances carry different
      models adds one call per distinct model.  MOSFET parameters are
      stacked ``(K, n_mosfets)`` for the parameter-vectorized level-1
      law (:func:`~repro.devices.mosfet.mosfet_law_stack`).  A
      linearization of one circuit takes any number of rows (the
      shooting monodromy passes one per step);
    - the K = 1 form on Python floats (:meth:`branch_voltages`, then
      :meth:`device_conductances` and :meth:`mosfet_conductances`), one
      scalar law call per device of the first circuit: at K = 1 with a
      handful of devices numpy's per-call overhead costs more than the
      vectorization saves.

    Both fold multiplicities in, take the predictor as ``(h_next / 2,
    previous voltages, h_prev)`` and clamp the chords at 0, and
    :meth:`count_flops` books either.
    """

    def __init__(self, system: MnaSystem, circuits=None) -> None:
        circuits = [system.circuit] if circuits is None else list(circuits)
        device_terminals = system.device_terminals()
        mosfet_terminals = system.mosfet_terminals()
        terminals = np.asarray(device_terminals, dtype=np.intp).reshape(-1, 2)
        self._anode_idx, self._anode_mask = _gather_arrays(terminals[:, 0])
        self._cathode_idx, self._cathode_mask = \
            _gather_arrays(terminals[:, 1])
        mosfets = np.asarray(mosfet_terminals, dtype=np.intp).reshape(-1, 3)
        self._drain_idx, self._drain_mask = _gather_arrays(mosfets[:, 0])
        self._gate_idx, self._gate_mask = _gather_arrays(mosfets[:, 1])
        self._source_idx, self._source_mask = _gather_arrays(mosfets[:, 2])
        # The same terminals as plain index tuples, for the scalar
        # gather of branch_voltages (ground stays -1).
        self._device_pairs = device_terminals
        self._mosfet_triples = mosfet_terminals
        self._devices = circuits[0].devices
        self._mosfets = circuits[0].mosfets

        n_instances, n_devices = len(circuits), len(self._devices)
        self.n_devices = n_devices
        self.n_mosfets = len(self._mosfets)
        multiplicity = np.array(
            [[device.multiplicity for device in circuit.devices]
             for circuit in circuits]).reshape(n_instances, n_devices)
        uniform: dict = {}
        mixed: list = []
        for j in range(n_devices):
            slot: dict = {}
            for k, circuit in enumerate(circuits):
                model = circuit.devices[j].model
                slot.setdefault(model.batch_key(), (model, []))[1].append(k)
            if len(slot) == 1:
                [(key, (model, _))] = slot.items()
                uniform.setdefault(key, (model, []))[1].append(j)
            else:
                mixed.extend((model, (np.asarray(rows, dtype=np.intp), j))
                             for model, rows in slot.values())
        uniform_groups = [
            (model, (slice(None), np.asarray(slots, dtype=np.intp)))
            for model, slots in uniform.values()]
        #: (model, index into the (K, n_devices) arrays, multiplicities)
        self._groups = [(model, at, multiplicity[at])
                        for model, at in uniform_groups + mixed]
        self._mosfet_params = {
            name: np.array([[getattr(mosfet.model, name)
                             for mosfet in circuit.mosfets]
                            for circuit in circuits],
                           dtype=float).reshape(n_instances, self.n_mosfets)
            for name in ("kp", "w", "l", "vth", "polarity",
                         "channel_modulation")}

    # ------------------------------------------------------------------
    # Branch voltage extraction
    # ------------------------------------------------------------------

    def device_voltages(self, state: np.ndarray) -> np.ndarray:
        """Branch voltage of each two-terminal device.

        *state* is ``(n,)`` or a ``(K, n)`` stack; the result matches
        with a trailing device axis.
        """
        state = np.asarray(state, dtype=float)
        va = state[..., self._anode_idx] * self._anode_mask
        vc = state[..., self._cathode_idx] * self._cathode_mask
        return va - vc

    def mosfet_vgs_vds(self, state: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """``(vgs, vds)``: two arrays over the MOSFETs.

        *state* is ``(n,)`` or a ``(K, n)`` stack; each array is
        ``(..., n_mosfets)``.
        """
        state = np.asarray(state, dtype=float)
        vd = state[..., self._drain_idx] * self._drain_mask
        vg = state[..., self._gate_idx] * self._gate_mask
        vs = state[..., self._source_idx] * self._source_mask
        return vg - vs, vd - vs

    def branch_voltages(self, state: np.ndarray | list[float]
                        ) -> tuple[list[float], list[float], list[float]]:
        """``(device voltages, vgs, vds)`` of one ``(n,)`` state (an
        array or a list) as lists.

        At most one ``tolist`` and precomputed index tuples instead of
        the masked numpy gathers; the values are bitwise those of
        :meth:`device_voltages` and :meth:`mosfet_vgs_vds`.
        """
        values = state if isinstance(state, list) else state.tolist()
        # Index -1 (ground) reads state[0] * 0.0, the masked gather's
        # value, so even the sign of a zero voltage matches.
        values = [*values, values[0] * 0.0 if values else 0.0]
        devices = [values[a] - values[c] for a, c in self._device_pairs]
        vgs = [values[g] - values[s] for _d, g, s in self._mosfet_triples]
        vds = [values[d] - values[s] for d, _g, s in self._mosfet_triples]
        return devices, vgs, vds

    # ------------------------------------------------------------------
    # Chord conductances (paper Section 3.2 / eq. 5)
    # ------------------------------------------------------------------

    def device_terms(self, voltages: np.ndarray, *, predict=None,
                     tangent: bool = False):
        """``(chords, tangents)`` of every two-terminal device.

        *voltages* is the ``(rows, n_devices)`` branch-voltage stack.
        The chords are ``m I/V``, clamped at 0: the chord of a passive
        device is mathematically >= 0, and the eq.-5 predictor
        ``predict = (h_next / 2, previous voltages, h_prev)``, added
        before the clamp as ``h_next/2 * m dG/dV * dV/dt``, may
        overshoot.  With *tangent* the second array holds ``m dI/dV``,
        else it is None.  A chord-only call evaluates ``I`` alone.
        """
        chords = np.empty_like(voltages)
        tangents = np.empty_like(voltages) if tangent else None
        slope = tangent or predict is not None
        if predict is not None:
            half_h, previous, h_prev = predict
            dv_dt = (voltages - previous) / h_prev
        for model, at, multiplicity in self._groups:
            chord, derivative, g = model.chord_terms_many(voltages[at], slope)
            chord = multiplicity * chord
            if predict is not None:
                chord += half_h * (multiplicity * derivative) * dv_dt[at]
            chords[at] = chord
            if tangent:
                tangents[at] = multiplicity * g
        np.maximum(chords, 0.0, out=chords)
        return chords, tangents

    def mosfet_terms(self, vgs: np.ndarray, vds: np.ndarray,
                     partials: bool = False):
        """``(chords, gm, gds)`` of every MOSFET from one law pass.

        The chords ``Ids/Vds`` are clamped at 0; ``gm`` and ``gds`` are
        None unless *partials*.
        """
        _, gm, gds, chords = mosfet_law_stack(
            vgs, vds, partials=partials, **self._mosfet_params)
        np.maximum(chords, 0.0, out=chords)
        return chords, gm, gds

    def device_conductances(self, voltages: list[float],
                            predict=None) -> list[float]:
        """K = 1 :meth:`device_terms` on Python floats.

        *voltages* (and the previous voltages inside *predict*) are
        :meth:`branch_voltages` lists.  With the predictor on, each
        device's ``chord_pair`` gives the chord and its derivative in
        one call; without it, its ``chord_conductance`` gives the chord
        alone.  Python floats round exactly like numpy's float64
        scalars and cost less per operation.
        """
        conductances = []
        if predict is None:
            for device, v in zip(self._devices, voltages):
                g = device.chord_conductance(v)
                conductances.append(0.0 if g < 0.0 else g)
            return conductances
        half_h, previous, h_prev = predict
        for device, v, v_prev in zip(self._devices, voltages, previous):
            g, dg_dv = device.chord_pair(v)
            g = g + half_h * dg_dv * ((v - v_prev) / h_prev)
            conductances.append(0.0 if g < 0.0 else g)
        return conductances

    def mosfet_conductances(self, vgs: list[float],
                            vds: list[float]) -> list[float]:
        """K = 1 MOSFET chords ``Ids/Vds`` (paper eq. 3), clamped at 0."""
        conductances = []
        for mosfet, a, b in zip(self._mosfets, vgs, vds):
            g = mosfet.chord_conductance(a, b)
            conductances.append(0.0 if g < 0.0 else g)
        return conductances

    def count_flops(self, flops: FlopCounter, points: int,
                    predicted: int) -> None:
        """Book the chords of *points* instance-points, *predicted* of
        them Taylor-corrected.

        A chord is one current evaluation plus a division — cheaper
        than the Jacobian's current+derivative pair; the predictor adds
        the derivative's share.
        """
        for kind, count in (
            ("rtd_current", self.n_devices * points),
            ("rtd_conductance", self.n_devices * predicted),
            ("mosfet", self.n_mosfets * points),
        ):
            if count > 0:
                flops.count_device_eval(kind, count=count)
