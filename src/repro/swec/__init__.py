"""Step-Wise Equivalent Conductance (SWEC) engines — the paper's core.

``SwecTransient`` marches the linearized system

.. math::  (G_{eq}(t_n) + C/h_n)\\, x_{n+1} = b(t_{n+1}) + (C/h_n)\\, x_n

with one linear solve per time point: no Newton iterations, hence no NDR
convergence failure.  ``SwecDC`` performs source-continuation sweeps using
the chord-conductance fixed point.  ``SwecLinearization`` is the one
device kernel: it computes the equivalent conductances (with the eq.-5
Taylor predictor) and the tangents of every device, grouped across K
instances or on Python floats at K = 1, as one chord stack in the
column order of ``MnaSystem.chord_pairs``.  ``StepControlOptions``
tunes the eq.-10/12 step bound.
``SwecEnsembleTransient`` marches K same-topology circuit instances in
lockstep, one batched LAPACK call per time point.  Both transients are
faces of the unified :class:`~repro.core.stepper.LinearStepper` march
(``SwecTransient`` is its K = 1 slice), with the per-point
factor/solve delegated to a :mod:`repro.core.backends` solver backend
(``backend="dense"/"sparse"/"stack"/"auto"``).
"""

from repro.swec.conductance import SwecLinearization
from repro.swec.dc import SwecDC
from repro.swec.engine import SwecOptions, SwecTransient
from repro.swec.ensemble import EnsembleTransientResult, SwecEnsembleTransient
from repro.swec.timestep import StepControlOptions

__all__ = [
    "EnsembleTransientResult",
    "StepControlOptions",
    "SwecDC",
    "SwecEnsembleTransient",
    "SwecLinearization",
    "SwecOptions",
    "SwecTransient",
]
