"""First-order pressure-dyad response to an electrostatic plane wave.

For a wave along z with potential amplitude dphi at (k, omega^2), the
linearized hierarchy gives

    dP_ij = -(e dphi k^2 / (m omega^2))
            * (P0_ij + P0_iz d_jz + P0_jz d_iz + n0 hbar^2 k^2 d_iz d_jz / (4 m))

so the wave drives the zz component three times harder than the
transverse ones even for an isotropic equilibrium, plus a quantum
contribution: a propagating wave is itself a source of pressure
anisotropy, which is why a scalar-pressure closure cannot be consistent
here.  ``delta_P`` evaluates the formula on a whole k grid in one call:
k and omega^2 broadcast, and the result has shape k.shape + (3, 3).

Symmetrization convention used throughout the hierarchy: a bracketed
index group is expanded as the minimal sum over permutations of the free
indices needed to make the tensor symmetric.  For the two free indices
above this is the two-term sum written out explicitly; the three-index
analogues in the heat-flux equation expand to three cyclic terms.  That
convention is what reproduces the 1D coefficients (3 p du, 4 Q du) and
the general dispersion relation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .params import PlasmaParams

__all__ = ["delta_P", "anisotropic_dyad"]

_SYM_ATOL = 1e-12


def delta_P(k, omega_sq, delta_phi: float, P0: np.ndarray,
            params: PlasmaParams) -> np.ndarray:
    """First-order pressure perturbation tensor, shape ``k.shape + (3, 3)``.

    ``k`` and ``omega_sq`` broadcast against each other; each 3x3 block is
    exactly symmetric, linear in delta_phi, and diagonal for diagonal P0.
    Raises ``ConfigError`` unless every 0 < omega^2 < inf and P0 is a
    finite, symmetric 3x3 matrix, and when the tensor overflows (it is
    computed under ``np.errstate``, so it never warns).
    """
    k, omega_sq = np.broadcast_arrays(np.asarray(k, dtype=float),
                                      np.asarray(omega_sq, dtype=float))
    bad = omega_sq[~((omega_sq > 0.0) & (omega_sq < np.inf))]
    if bad.size:
        raise ConfigError(f"linear response requires 0 < omega^2 < inf, got {bad[0]}")
    P0 = np.asarray(P0, dtype=float)
    if P0.shape != (3, 3):
        raise ConfigError(f"P0 must be 3x3, got shape {P0.shape}")
    if not np.all(np.isfinite(P0)):
        raise ConfigError("P0 must be finite")
    scale = max(float(np.max(np.abs(P0))), 1.0)
    if np.max(np.abs(P0 - P0.T)) > _SYM_ATOL * scale:
        raise ConfigError("P0 must be symmetric")
    with np.errstate(over="ignore", invalid="ignore"):
        P0 = 0.5 * (P0 + P0.T)
        k2 = k * k
        coeff = params.e * delta_phi * k2 / (params.m * omega_sq)
        col_z = np.outer(P0[:, 2], [0.0, 0.0, 1.0])
        tensor = np.broadcast_to(P0 + col_z + col_z.T, k.shape + (3, 3)).copy()
        # hbar * hbar, not hbar**2: a Python float ** raises OverflowError
        tensor[..., 2, 2] += params.n0 * (params.hbar * params.hbar) * k2 / (4.0 * params.m)
        dP = -coeff[..., None, None] * tensor
    bad = ~np.all(np.isfinite(dP), axis=(-2, -1))
    if bad.any():
        raise ConfigError(f"pressure response overflows at k = {float(k[bad][0])!r}")
    return dP


def anisotropic_dyad(n: float, T_perp: float, T_par: float,
                     params: PlasmaParams) -> np.ndarray:
    """Equilibrium pressure dyad n kB diag(T_perp, T_perp, T_par)."""
    if n < 0.0 or T_perp < 0.0 or T_par < 0.0:
        raise ConfigError("density and temperatures must be non-negative")
    with np.errstate(over="ignore"):
        dyad = n * params.kB * np.diag([T_perp, T_perp, T_par])
    if not np.all(np.isfinite(dyad)):
        raise ConfigError(f"pressure dyad n kB T overflows: n = {n!r}, "
                          f"T_perp = {T_perp!r}, T_par = {T_par!r}")
    return dyad
