"""Periodic steady-state analysis by the shooting-Newton method.

Transient marching finds a periodic orbit the slow way: integrate until
the transients die out, which for a high-Q or slowly-contracting
circuit means tens to hundreds of periods.  Shooting instead treats one
marched period as a map and Newton-solves for its fixed point.  Each
Newton system is solved by GMRES on matrix-free products with the
monodromy ``dPhi/dx0``, which re-run the differentiated march with the
same per-element tangents the AC analysis uses — 6 iterations on the
RTD relaxation oscillator, 5-7x cheaper than the brute-force march,
with the residual ``max|x(T) - x(0)|`` certified below tolerance.

* :func:`run_pss` / :class:`ShootingPSS` — the engine, driven
  (fixed/auto-detected period) or autonomous (period is an unknown,
  pinned by a phase condition);
* :class:`PSSOptions` — tolerances, grid density, settle horizon;
* :class:`PSSResult` — one closing period plus harmonic/amplitude/
  period accessors;
* :func:`detect_drive_period` — the source-waveform period scan used
  by driven mode.

Quick start::

    from repro.circuits_lib import rtd_relaxation_oscillator
    from repro.pss import run_pss

    circuit, info = rtd_relaxation_oscillator()
    orbit = run_pss(circuit, period_guess=info.period_guess)
    print(orbit.period, orbit.iterations, orbit.residual)

``python -m repro.pss`` (or the ``repro-pss`` script) drives the same
machinery from the command line; :class:`~repro.runtime.PSSJob` and
sweep specs with ``analysis = "pss"`` run it on the batch runtime.
"""

from repro.pss.engine import (
    PSSOptions,
    PSSResult,
    ShootingPSS,
    detect_drive_period,
    run_pss,
)

__all__ = [
    "PSSOptions",
    "PSSResult",
    "ShootingPSS",
    "detect_drive_period",
    "run_pss",
]
