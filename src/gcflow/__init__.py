"""Pseudospectral toolkit for non-conservative interacting-diffusion flows on
the torus: direct time-stepping, a variational log-density integrator, a
transport metric with reaction, and a relaxation-rate experiment harness."""

__version__ = "0.1.0"

from .spectral import Grid, RealField, Spectrum  # noqa: F401
from .thermo import ModelParams, RateConstants, make_params, rate_constants  # noqa: F401
