"""Baseline simulators the paper compares against.

``newton``
    Generic Newton-Raphson machinery (companion models, damping,
    oscillation detection) shared by the SPICE and MLA baselines, the
    step-halving transient march all three baselines run, and the scalar
    NR demo of paper Fig. 2.
``spice``
    A SPICE3-style simulator: NR at every time point, source/Gmin stepping
    for DC, time-step reduction on non-convergence.  Exhibits the NDR
    failure the paper shows in Fig. 8(c).
``mla``
    Bhattacharya & Mazumder's Modified Limiting Algorithm: NR augmented
    with RTD region-aware voltage limiting and current/source stepping.
    The Table I comparator.
``aces``
    An ACES-style piecewise-linear device simulator with Katzenelson
    segment search (Fig. 3(a), Fig. 8(d)).
"""

from repro.baselines.aces import AcesTransient, PwlApproximation
from repro.baselines.mla import MlaDC, MlaTransient
from repro.baselines.newton import (
    NewtonOptions,
    NewtonOutcome,
    newton_solve,
    scalar_newton,
)
from repro.baselines.spice import SpiceDC, SpiceTransient, SpiceOptions

__all__ = [
    "AcesTransient",
    "MlaDC",
    "MlaTransient",
    "NewtonOptions",
    "NewtonOutcome",
    "PwlApproximation",
    "SpiceDC",
    "SpiceOptions",
    "SpiceTransient",
    "newton_solve",
    "scalar_newton",
]
