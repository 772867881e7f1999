"""Stochastic transient simulation (paper Section 4).

The paper models uncertain nanocircuit inputs as white noise — formally a
Wiener-process differential ``dW`` — and integrates the resulting linear
stochastic differential equation

.. math::  C\\,dX = (-G(t)X + b(t))\\,dt + B\\,dW

with the Euler-Maruyama method under the Ito convention (its eqs. 13-19).
This package provides the Wiener process substrate, the Ito/Stratonovich
sum contrast of eqs. (15)-(16), the EM integrator, exact Ornstein-
Uhlenbeck references for validation, Monte-Carlo ensemble statistics and
the windowed peak-performance predictor (the "Black-Scholes approach").
Beyond the paper, :mod:`repro.stochastic.vr` layers variance reduction on
top of the Monte-Carlo engine: control variates from a linearized
companion circuit, antithetic path pairs and CI-targeted adaptive
stopping.
"""

from repro.stochastic.analytic import OrnsteinUhlenbeck, VectorOrnsteinUhlenbeck
from repro.stochastic.em import EMResult, euler_maruyama
from repro.stochastic.ito import (
    ito_integral,
    midpoint_integral,
    stratonovich_integral,
)
from repro.stochastic.montecarlo import (
    EnsembleStatistics,
    ensemble_statistics,
    run_circuit_ensemble,
    run_circuit_ensemble_parallel,
    run_ensemble,
    run_ensemble_parallel,
)
from repro.stochastic.peak import (
    brownian_max_cdf,
    expected_brownian_max,
    peak_exceedance_probability,
    predict_peak,
)
from repro.stochastic.nonlinear import (
    GeometricBrownianMotion,
    ScalarSDE,
    euler_maruyama_scalar,
    milstein,
)
from repro.stochastic.sde import CircuitSDE, LinearSDE
from repro.stochastic.vr import (
    MCStatistics,
    VarianceReducedStatistics,
    antithetic_normals,
    linearized_control_circuit,
    path_normals,
    run_circuit_ensemble_vr,
    run_sde_ensemble_vr,
)
from repro.stochastic.spectrum import (
    corner_frequency,
    fit_corner_frequency,
    ou_psd,
    periodogram_psd,
)
from repro.stochastic.wiener import WienerProcess, brownian_bridge

__all__ = [
    "GeometricBrownianMotion",
    "ScalarSDE",
    "corner_frequency",
    "euler_maruyama_scalar",
    "fit_corner_frequency",
    "milstein",
    "ou_psd",
    "periodogram_psd",
    "brownian_max_cdf",
    "brownian_bridge",
    "CircuitSDE",
    "EMResult",
    "EnsembleStatistics",
    "euler_maruyama",
    "expected_brownian_max",
    "ito_integral",
    "LinearSDE",
    "midpoint_integral",
    "OrnsteinUhlenbeck",
    "peak_exceedance_probability",
    "predict_peak",
    "ensemble_statistics",
    "run_circuit_ensemble",
    "run_circuit_ensemble_parallel",
    "run_ensemble",
    "run_ensemble_parallel",
    "stratonovich_integral",
    "VectorOrnsteinUhlenbeck",
    "WienerProcess",
    "MCStatistics",
    "VarianceReducedStatistics",
    "antithetic_normals",
    "linearized_control_circuit",
    "path_normals",
    "run_circuit_ensemble_vr",
    "run_sde_ensemble_vr",
]
