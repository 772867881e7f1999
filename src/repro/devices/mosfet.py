"""Level-1 (Shichman-Hodges) MOSFET model.

The paper uses this model (its eq. 2) to illustrate SWEC's equivalent
conductance (its eq. 3): the device is treated as a gate-controlled
drain-source conductance ``G_eq = Ids/Vds`` that is re-evaluated at every
accepted time point and held constant within the step.

Both polarities are supported; a PMOS is modelled as an NMOS in mirrored
coordinates.  Negative ``Vds`` on an NMOS swaps the roles of drain and
source (the level-1 device is symmetric).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MosfetModel:
    """Level-1 MOSFET parameter record plus evaluation methods.

    Attributes
    ----------
    kp:
        Transconductance parameter ``k`` in A/V^2 (``k = mu Cox``).
    w, l:
        Effective channel width and length (any consistent unit).
    vth:
        Threshold voltage in volts (positive for NMOS, negative for PMOS).
    polarity:
        ``+1`` for NMOS, ``-1`` for PMOS.
    channel_modulation:
        Channel-length modulation ``lambda`` in 1/V; the paper sets it to
        zero, we keep it configurable for the ablation benches.
    """

    kp: float = 2e-5
    w: float = 10e-6
    l: float = 1e-6
    vth: float = 1.0
    polarity: int = 1
    channel_modulation: float = 0.0

    def __post_init__(self) -> None:
        if self.kp <= 0.0:
            raise ValueError(f"kp must be positive, got {self.kp!r}")
        if self.w <= 0.0 or self.l <= 0.0:
            raise ValueError("channel dimensions must be positive")
        if self.polarity not in (1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity!r}")

    @property
    def beta(self) -> float:
        """Gain factor ``k W / L`` in A/V^2."""
        return self.kp * self.w / self.l

    # ------------------------------------------------------------------
    # Core evaluation in NMOS coordinates
    # ------------------------------------------------------------------

    def _ids_nmos(self, vgs: float, vds: float) -> float:
        """NMOS-coordinate drain current for ``vds >= 0`` (paper eq. 2)."""
        vov = vgs - abs(self.vth)
        if vov <= 0.0:
            return 0.0
        clm = 1.0 + self.channel_modulation * vds
        if vds < vov:
            return self.beta * (vov - vds / 2.0) * vds * clm
        return 0.5 * self.beta * vov * vov * clm

    def _partials_nmos(self, vgs: float, vds: float) -> tuple[float, float]:
        """``(gm, gds)`` in NMOS coordinates for ``vds >= 0``."""
        vov = vgs - abs(self.vth)
        if vov <= 0.0:
            return 0.0, 0.0
        clm = 1.0 + self.channel_modulation * vds
        lam = self.channel_modulation
        if vds < vov:
            gm = self.beta * vds * clm
            gds = (self.beta * (vov - vds) * clm
                   + self.beta * (vov - vds / 2.0) * vds * lam)
            return gm, gds
        gm = self.beta * vov * clm
        gds = 0.5 * self.beta * vov * vov * lam
        return gm, gds

    # ------------------------------------------------------------------
    # Public API in true terminal coordinates
    # ------------------------------------------------------------------

    def current(self, vgs: float, vds: float) -> float:
        """Drain-source current, handling polarity and ``Vds`` sign."""
        s = self.polarity
        vgs_eff, vds_eff = s * vgs, s * vds
        if vds_eff >= 0.0:
            return s * self._ids_nmos(vgs_eff, vds_eff)
        # Swap drain and source: Vgd becomes the controlling voltage.
        return -s * self._ids_nmos(vgs_eff - vds_eff, -vds_eff)

    def partials(self, vgs: float, vds: float) -> tuple[float, float]:
        """Return ``(gm, gds) = (dIds/dVgs, dIds/dVds)``."""
        s = self.polarity
        vgs_eff, vds_eff = s * vgs, s * vds
        if vds_eff >= 0.0:
            return self._partials_nmos(vgs_eff, vds_eff)
        gm_sw, gds_sw = self._partials_nmos(vgs_eff - vds_eff, -vds_eff)
        # Ids = -Ids_sw(vgs-vds, -vds):
        #   dIds/dVgs = -gm_sw ; dIds/dVds = gm_sw + gds_sw
        return -gm_sw, gm_sw + gds_sw

    def chord_conductance(self, vgs: float, vds: float) -> float:
        """SWEC equivalent conductance ``Ids/Vds`` (paper eq. 3).

        At ``Vds -> 0`` the limit is the triode channel conductance
        ``beta * (Vgs - Vth)``; zero below threshold.
        """
        s = self.polarity
        vgs_eff, vds_eff = s * vgs, s * vds
        if abs(vds_eff) < 1e-12:
            vov = vgs_eff - abs(self.vth)
            return self.beta * vov if vov > 0.0 else 0.0
        return self.current(vgs, vds) / vds

    def is_on(self, vgs: float) -> bool:
        """True when the channel conducts (``|Vov| > 0``)."""
        return self.polarity * vgs - abs(self.vth) > 0.0


# ----------------------------------------------------------------------
# Parameter-stacked evaluation (ensemble hot path)
# ----------------------------------------------------------------------
#
# The lockstep transient engine marches K circuit instances whose
# MOSFETs may each carry different parameters.  Because the level-1
# model is a handful of polynomial branches, the parameters themselves
# vectorize: every argument below may be a scalar or an array
# broadcastable against the voltage arrays, and the arithmetic mirrors
# the scalar methods branch for branch so results match bitwise.


def mosfet_law_stack(vgs, vds, *, kp, w, l, vth, polarity,
                     channel_modulation, partials: bool = True):
    """Vectorized level-1 law with stacked parameters.

    Returns ``(Ids, gm, gds, chord)``: :meth:`MosfetModel.current`,
    :meth:`MosfetModel.partials` and the SWEC equivalent conductance
    ``Ids/Vds`` of :meth:`MosfetModel.chord_conductance` (paper eq. 3),
    all from one pass.  With ``partials=False`` ``gm`` and ``gds`` are
    None.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    s = np.asarray(polarity, dtype=float)
    beta = np.asarray(kp, dtype=float) * np.asarray(w, dtype=float) \
        / np.asarray(l, dtype=float)
    vth_abs = np.abs(np.asarray(vth, dtype=float))
    lam = np.asarray(channel_modulation, dtype=float)
    vgs_eff, vds_eff = s * vgs, s * vds
    # Negative Vds swaps drain and source (the device is symmetric): the
    # NMOS-coordinate law runs at (Vgs - Vds, -Vds) and Ids flips sign.
    forward = vds_eff >= 0.0
    vg = np.where(forward, vgs_eff, vgs_eff - vds_eff)
    vd = np.where(forward, vds_eff, -vds_eff)
    vov = vg - vth_abs
    on = vov > 0.0
    triode = vd < vov
    clm = 1.0 + lam * vd
    triode_term = beta * (vov - vd / 2.0) * vd
    saturated_term = 0.5 * beta * vov * vov
    ids = np.where(on, np.where(triode, triode_term, saturated_term) * clm,
                   0.0)
    current = np.where(forward, s, -s) * ids
    small = np.abs(vds_eff) < 1e-12
    vov_eff = vgs_eff - vth_abs
    limit = np.where(vov_eff > 0.0, beta * vov_eff, 0.0)
    chord = np.where(small, limit, current / np.where(small, 1.0, vds))
    if not partials:
        return current, None, None, chord
    gm = np.where(on, np.where(triode, beta * vd, beta * vov) * clm, 0.0)
    gds = np.where(on, np.where(
        triode, beta * (vov - vd) * clm + triode_term * lam,
        saturated_term * lam), 0.0)
    # Ids = -Ids_sw(vgs - vds, -vds):
    #   dIds/dVgs = -gm_sw ; dIds/dVds = gm_sw + gds_sw
    return (current, np.where(forward, gm, -gm),
            np.where(forward, gds, gm + gds), chord)


def mosfet_chord_stack(vgs, vds, *, kp, w, l, vth, polarity,
                       channel_modulation) -> np.ndarray:
    """Vectorized SWEC equivalent conductance ``Ids/Vds`` (paper eq. 3)."""
    return mosfet_law_stack(
        vgs, vds, kp=kp, w=w, l=l, vth=vth, polarity=polarity,
        channel_modulation=channel_modulation, partials=False)[3]


def nmos(kp: float = 2e-5, w: float = 10e-6, l: float = 1e-6,
         vth: float = 1.0, channel_modulation: float = 0.0) -> MosfetModel:
    """Build an NMOS level-1 model."""
    return MosfetModel(kp=kp, w=w, l=l, vth=abs(vth), polarity=1,
                       channel_modulation=channel_modulation)


def pmos(kp: float = 1e-5, w: float = 20e-6, l: float = 1e-6,
         vth: float = -1.0, channel_modulation: float = 0.0) -> MosfetModel:
    """Build a PMOS level-1 model (``vth`` may be given as +/-)."""
    return MosfetModel(kp=kp, w=w, l=l, vth=-abs(vth), polarity=-1,
                       channel_modulation=channel_modulation)
