"""Quantum plasma fluid moment hierarchy.

Numerical library for the closed third-order moment description of an
electrostatic quantum plasma: velocity moments of tabulated phase-space
distributions, the generalized linear dispersion relation and its
classical/quantum limits, the wave-driven pressure anisotropy, the 1D
nonlinear fluid-Poisson dynamics, traveling-wave solutions with their
stability boundary, and the closed-form free-particle Wigner evolution.
"""

from . import (csvio, dispersion, fluid1d, linear_response, moments, ode,
               params, traveling, wigner)
from .params import PlasmaParams, nondimensional, si_electron

__version__ = "0.1.0"

__all__ = [
    "params", "moments", "dispersion", "linear_response", "fluid1d",
    "traveling", "wigner", "ode", "csvio",
    "PlasmaParams", "nondimensional", "si_electron", "__version__",
]
