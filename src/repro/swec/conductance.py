"""Equivalent-conductance evaluation for the SWEC engines.

Given a state vector, :class:`SwecLinearization` computes the chord
conductance of every nonlinear device (two-terminal and MOSFET) and stamps
them into a conductance matrix.  It optionally applies the paper's eq. (5)
first-order Taylor predictor

.. math::  G_{eq}(n+1) = G_{eq}(n) + \\frac{h_n}{2} G'_{eq}(n),
           \\qquad G'_{eq} = \\frac{dG_{eq}}{dV} \\frac{dV}{dt}

where ``dV/dt`` is estimated from the last two accepted points (eq. 9).

The paper's central claim is encoded in :meth:`device_conductances`: the
returned values are chords through the origin, which are non-negative for
passive devices even inside an NDR region.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Circuit
from repro.devices.mosfet import mosfet_law_stack
from repro.mna.assembler import MnaSystem
from repro.mna.batch import ConductanceStamper
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


class DeviceBank:
    """The nonlinear devices of K same-topology circuits, grouped once
    for vectorized evaluation.

    Every SWEC quantity comes from one device law ``(I, dI/dV)``: the
    eq.-3 chord ``I/V``, the eq.-5/8 predictor slope ``d(I/V)/dV`` and
    the tangent ``dI/dV`` of the small-signal and shooting
    linearizations.  The bank evaluates them for the lockstep march,
    the PSS monodromy and the AC linearization alike, each group in
    one law call (:meth:`~repro.devices.base.TwoTerminalDevice.
    chord_terms_many`, :func:`~repro.devices.mosfet.mosfet_law_stack`).

    Two-terminal device slots whose K models share one ``batch_key``
    are grouped across slots by that key, one ``(K, n_slots)`` call
    per key: a 20x20 RTD mesh pays one law pass per step instead of
    400.  A slot whose instances carry different models adds one call
    per distinct model.  Multiplicities are folded into every output.
    MOSFET parameters are stacked ``(K, n_mosfets)`` for the
    parameter-vectorized level-1 law.  A bank of one circuit takes any
    number of rows (the shooting monodromy passes one per step).
    """

    def __init__(self, circuits) -> None:
        n_instances, n_devices = len(circuits), len(circuits[0].devices)
        self.n_devices = n_devices
        self.n_mosfets = len(circuits[0].mosfets)
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

    def device_terms(self, voltages: np.ndarray, *, predict=None,
                     tangent: bool = False):
        """``(chords, tangents)`` of every two-terminal device.

        *voltages* is the ``(rows, n_devices)`` branch-voltage stack.
        The chords are ``m I/V``, clamped at 0: the chord of a passive
        device is mathematically >= 0, and the eq.-5 predictor
        ``predict = (h_next / 2, dV/dt)``, added before the clamp as
        ``h_next/2 * m dG/dV * dV/dt``, may overshoot.  With *tangent*
        the second array holds ``m dI/dV``, else it is None.  A
        chord-only call evaluates ``I`` alone.
        """
        chords = np.empty_like(voltages)
        tangents = np.empty_like(voltages) if tangent else None
        slope = tangent or predict is not None
        for model, at, multiplicity in self._groups:
            chord, derivative, g = model.chord_terms_many(voltages[at], slope)
            chord = multiplicity * chord
            if predict is not None:
                half_h, dv_dt = predict
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


class SwecLinearization:
    """Computes and stamps step-wise equivalent conductances.

    Parameters
    ----------
    system:
        Assembled MNA view of the circuit.
    use_predictor:
        Apply the eq. (5) Taylor correction when a previous point is
        available.  On by default, matching the paper.

    Branch-voltage extraction and stamping are index-based: terminal
    index arrays are precomputed once so :meth:`device_voltages`,
    :meth:`mosfet_vgs_vds` and :meth:`stamp` run as numpy gathers and
    scatters with no per-device Python loop, and all three accept an
    optional leading batch axis (a ``(K, n)`` state stack or a
    ``(K, n, n)`` matrix stack) — the ensemble engine's hot path.
    :meth:`branch_voltages` is the single-state form on Python floats,
    for the scalar chord loops.
    """

    def __init__(self, system: MnaSystem, use_predictor: bool = True) -> None:
        self.system = system
        self.circuit: Circuit = system.circuit
        self.use_predictor = use_predictor
        self._device_terminals = system.device_terminals()
        self._mosfet_terminals = system.mosfet_terminals()
        terminals = np.asarray(self._device_terminals,
                               dtype=np.intp).reshape(-1, 2)
        self._anode_idx, self._anode_mask = _gather_arrays(terminals[:, 0])
        self._cathode_idx, self._cathode_mask = \
            _gather_arrays(terminals[:, 1])
        mosfets = np.asarray(self._mosfet_terminals,
                             dtype=np.intp).reshape(-1, 3)
        self._drain_idx, self._drain_mask = _gather_arrays(mosfets[:, 0])
        self._gate_idx, self._gate_mask = _gather_arrays(mosfets[:, 1])
        self._source_idx, self._source_mask = _gather_arrays(mosfets[:, 2])
        # The same terminals as plain index tuples, for the scalar
        # gather of branch_voltages (ground stays -1).
        self._device_pairs = tuple(
            (int(a), int(c)) for a, c in self._device_terminals)
        self._mosfet_triples = tuple(
            (int(d), int(g), int(s)) for d, g, s in self._mosfet_terminals)
        # MOSFETs stamp their chord across drain-source, exactly like a
        # two-terminal device (paper eq. 3).
        self._stamper = ConductanceStamper(
            list(self._device_terminals)
            + [(drain, source)
               for drain, _gate, source in self._mosfet_terminals],
            system.size)

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

    def branch_voltages(self, state: np.ndarray
                        ) -> tuple[list[float], list[float], list[float]]:
        """``(device voltages, vgs, vds)`` of one ``(n,)`` state as lists.

        One ``tolist`` and precomputed index tuples instead of the
        masked numpy gathers; the values are bitwise those of
        :meth:`device_voltages` and :meth:`mosfet_vgs_vds`.  The K = 1
        march gathers each point once this way and hands the lists to
        :meth:`device_conductances` and :meth:`mosfet_conductances`.
        """
        values = state.tolist()
        # Index -1 (ground) reads state[0] * 0.0, the masked gather's
        # value, so even the sign of a zero voltage matches.
        values.append(values[0] * 0.0 if values else 0.0)
        devices = [values[a] - values[c] for a, c in self._device_pairs]
        vgs = [values[g] - values[s] for _d, g, s in self._mosfet_triples]
        vds = [values[d] - values[s] for d, _g, s in self._mosfet_triples]
        return devices, vgs, vds

    # ------------------------------------------------------------------
    # Chord conductances (paper Section 3.2 / eq. 5)
    # ------------------------------------------------------------------

    def device_conductances(self, state: np.ndarray,
                            prev_state: np.ndarray | None = None,
                            h_prev: float | None = None,
                            h_next: float | None = None,
                            flops: FlopCounter | None = None, *,
                            voltages: list[float] | None = None,
                            prev_voltages: list[float] | None = None
                            ) -> np.ndarray:
        """Chord conductance per two-terminal device, Taylor-corrected.

        ``prev_state``/``h_prev`` provide the finite-difference ``dV/dt``
        of eq. (9); ``h_next`` is the step the prediction targets.  With
        the predictor on, each device's ``chord_pair`` gives the chord
        and its derivative in one call; without it, its
        ``chord_conductance`` gives the chord alone.  How many law
        evaluations a call costs is the model's business: the base
        :meth:`~repro.devices.base.TwoTerminalDevice.chord_pair`
        evaluates ``current`` and ``differential_conductance`` once
        each, and :class:`~repro.devices.rtd.SchulmanRTD` shares one
        pass between them.  The loop runs on Python floats, which round
        exactly like numpy's float64 scalars and cost less per operation.

        *voltages* and *prev_voltages* are the device voltages of
        *state* and *prev_state* (:meth:`branch_voltages`) when the
        caller has them already; the K = 1 march passes both, so each
        point is gathered once.
        """
        devices = self.circuit.devices
        if voltages is None:
            voltages = self.device_voltages(state).tolist()
        predict = (self.use_predictor and prev_state is not None
                   and h_prev and h_next)
        conductances = []
        if predict:
            if prev_voltages is None:
                prev_voltages = self.device_voltages(prev_state).tolist()
            half_h = 0.5 * h_next
            for device, v, v_prev in zip(devices, voltages, prev_voltages):
                g, dg_dv = device.chord_pair(v)
                g = g + half_h * dg_dv * ((v - v_prev) / h_prev)
                # The chord of a passive device is mathematically >= 0;
                # the predictor extrapolation may overshoot, so clamp.
                conductances.append(0.0 if g < 0.0 else g)
        else:
            for device, v in zip(devices, voltages):
                g = device.chord_conductance(v)
                conductances.append(0.0 if g < 0.0 else g)
        if flops is not None and devices:
            # The chord is one current evaluation plus a division —
            # cheaper than the Jacobian's current+derivative pair; the
            # predictor adds the derivative's share.
            flops.count_device_eval("rtd_current", count=len(devices))
            if predict:
                flops.count_device_eval("rtd_conductance", count=len(devices))
        return np.array(conductances, dtype=float)

    def mosfet_conductances(self, state: np.ndarray,
                            flops: FlopCounter | None = None, *,
                            vgs_vds: tuple[list[float], list[float]] | None = None
                            ) -> np.ndarray:
        """Chord conductance ``Ids/Vds`` per MOSFET (paper eq. 3).

        *vgs_vds* are the terminal voltages of *state* as lists
        (:meth:`branch_voltages`) when the caller has them already.
        """
        mosfets = self.circuit.mosfets
        if vgs_vds is None:
            vgs, vds = self.mosfet_vgs_vds(state)
            vgs_vds = vgs.tolist(), vds.tolist()
        conductances = []
        for mosfet, a, b in zip(mosfets, *vgs_vds):
            g = mosfet.chord_conductance(a, b)
            conductances.append(0.0 if g < 0.0 else g)
        if flops is not None and mosfets:
            flops.count_device_eval("mosfet", count=len(mosfets))
        return np.array(conductances, dtype=float)

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------

    def stamp(self, matrix: np.ndarray, device_g: np.ndarray,
              mosfet_g: np.ndarray) -> None:
        """Stamp all equivalent conductances into *matrix* in place.

        *matrix* is ``(n, n)`` or a C-contiguous ``(K, n, n)`` stack;
        the conductance arrays carry the matching leading batch axis.
        """
        self._stamper.stamp(
            matrix, np.concatenate((device_g, mosfet_g), axis=-1))

    def conductance_matrix(self, base: np.ndarray, state: np.ndarray,
                           prev_state: np.ndarray | None = None,
                           h_prev: float | None = None,
                           h_next: float | None = None,
                           flops: FlopCounter | None = None) -> np.ndarray:
        """Return ``G(t_n)``: the base stamps plus all equivalent
        conductances evaluated at *state*."""
        matrix = base.copy()
        device_g = self.device_conductances(
            state, prev_state, h_prev, h_next, flops)
        mosfet_g = self.mosfet_conductances(state, flops)
        self.stamp(matrix, device_g, mosfet_g)
        return matrix
