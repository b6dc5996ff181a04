"""Spectral solver and estimate-verification laboratory for dissipative
surface-transport dynamics with fractional diffusion.

The package has four layers:

- :mod:`sqglab.spectral` — orthonormal Fourier/sine bases, transforms,
  fractional Laplacians, Riesz-transform velocities, norms;
- :mod:`sqglab.dynamics` — exponential time differencing for the
  advection–diffusion evolution, plus an independent Picard-iteration
  reference integrator;
- :mod:`sqglab.estimates` / :mod:`sqglab.operators` — a battery of
  inequality monitors (maximum principles, pointwise dissipation bounds,
  energy envelopes) and dense-matrix fractional-operator quadratures
  checked against eigendecomposition oracles;
- :mod:`sqglab.critical` / :mod:`sqglab.cli` — studies marching the
  dissipation order toward its critical value, and the command-line
  driver that packages them as reproducible experiments.
"""

from __future__ import annotations

from .dynamics import (
    SimulationState,
    SqgParams,
    StepperConfig,
    RunResult,
    advective_speed,
    default_dt,
    embed_odd_extension,
    etd_coefficients,
    integrate,
    nonlinear_rhs,
    picard_reference,
    restrict_odd_extension,
)
from .errors import (
    BasisError,
    BlowUpError,
    CflWarning,
    ConfigError,
    ConvergenceError,
    FieldError,
    NonFiniteError,
    SingularOperatorError,
    SqgError,
    ZeroModeError,
)
from .fields import gaussian_bump_field, random_smooth_field, shear_field
from .spectral import (
    Basis,
    DomainSpec,
    PhysicalField,
    SpectralField,
    cosine_field,
    dealias,
    fractional_laplacian,
    from_modes,
    grid_lp_norm,
    lq_norm,
    riesz_transform,
    sine_mode_field,
    sobolev_norm,
    to_physical,
    to_spectral,
    velocity_from_theta,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # domains and fields
    "Basis",
    "DomainSpec",
    "SpectralField",
    "PhysicalField",
    "to_physical",
    "to_spectral",
    "from_modes",
    "cosine_field",
    "sine_mode_field",
    "random_smooth_field",
    "shear_field",
    "gaussian_bump_field",
    # multipliers and norms
    "fractional_laplacian",
    "riesz_transform",
    "velocity_from_theta",
    "dealias",
    "sobolev_norm",
    "lq_norm",
    "grid_lp_norm",
    # time stepping
    "SqgParams",
    "StepperConfig",
    "SimulationState",
    "RunResult",
    "etd_coefficients",
    "nonlinear_rhs",
    "advective_speed",
    "default_dt",
    "integrate",
    "picard_reference",
    "embed_odd_extension",
    "restrict_odd_extension",
    # errors
    "SqgError",
    "BasisError",
    "ZeroModeError",
    "BlowUpError",
    "ConvergenceError",
    "SingularOperatorError",
    "NonFiniteError",
    "ConfigError",
    "FieldError",
    "CflWarning",
]
