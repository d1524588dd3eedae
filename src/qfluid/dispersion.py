"""Linear dispersion relations of the electrostatic moment hierarchy.

The third-order hierarchy (density, velocity, pressure, heat flux) closed
by dropping the fourth moment yields, for plane waves along z,

    omega^2 = (wp^2/2) * [1 + sqrt(1 + tau + eta)],
    tau = 12 kB T0_par k^2 / (m wp^2),     eta = (hbar k^2 / (m wp))^2.

The perpendicular temperature does not enter.  Limits implemented
alongside it:

- quantum Langmuir:      wp^2 + 3 (kB T0_par/m) k^2 + hbar^2 k^4/(4 m^2)
- Bohm-Gross (classical adiabatic, gamma = 3)
- generic adiabatic:     wp^2 + gamma (kB T0_par/m) k^2
- temperature closure:   wp^2 + (5/3)(kB T0_par/m) k^2 + hbar^2 k^4/(12 m^2)

Evaluation is done through the dimensionless combinations tau and eta so
SI-scale magnitudes (hbar^2 k^4 etc.) never appear as raw intermediates.

The closed hierarchy also supports, at every k, a non-oscillatory
companion branch omega^2 = (wp^2/2)[1 - sqrt(1 + tau + eta)] < 0, i.e. a
growing/damped pair with rate increasing with k.  ``companion_growth_rate``
exposes that rate; the time-domain solver uses it to build its stabilizing
filter.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .params import PlasmaParams

__all__ = [
    "general_omega_sq",
    "quantum_langmuir_omega_sq",
    "bohm_gross_omega_sq",
    "adiabatic_omega_sq",
    "temperature_closure_omega_sq",
    "companion_growth_rate",
    "RELATIONS",
    "k_grid",
    "evaluate",
]

# a `qfluid response` sweep peaks at ~830 bytes per k point (its 3x3
# tensors and CSV text), so this keeps a sweep near the Wigner module's
# 256 MiB workspace bound
_MAX_K_POINTS = 2**18


def _tau_eta(k, params: PlasmaParams):
    """Dimensionless thermal and quantum strengths at wavenumber k."""
    k = np.asarray(k, dtype=float)
    wp = params.omega_p
    tau = 12.0 * params.vt2_par * k**2 / (wp * wp)
    eta = (params.hbar * k**2 / (params.m * wp)) ** 2
    return tau, eta, wp


def general_omega_sq(k, params: PlasmaParams):
    """Squared frequency of the closed third-order hierarchy.

    Valid for any real k (k = 0 gives exactly wp^2); independent of
    T0_perp.  Returns omega^2; callers take the positive root.
    """
    tau, eta, wp = _tau_eta(k, params)
    return 0.5 * (wp * wp) * (1.0 + np.sqrt(1.0 + tau + eta))


def quantum_langmuir_omega_sq(k, params: PlasmaParams):
    """Long-wavelength limit: wp^2 + 3 (kB T0_par/m) k^2 + hbar^2 k^4 / (4 m^2)."""
    k = np.asarray(k, dtype=float)
    wp = params.omega_p
    return wp * wp + 3.0 * params.vt2_par * k**2 + (params.hbar * k**2 / (2.0 * params.m)) ** 2


def adiabatic_omega_sq(k, params: PlasmaParams, gamma: float):
    """Scalar-pressure adiabatic relation wp^2 + gamma (kB T0_par/m) k^2."""
    if not 0.0 < gamma < np.inf:
        raise ConfigError(f"adiabatic exponent must be positive and finite, got {gamma}")
    k = np.asarray(k, dtype=float)
    wp = params.omega_p
    return wp * wp + gamma * params.vt2_par * k**2


def bohm_gross_omega_sq(k, params: PlasmaParams):
    """Classical warm-plasma relation; identical to the adiabatic form with gamma = 3."""
    return adiabatic_omega_sq(k, params, 3.0)


def temperature_closure_omega_sq(k, params: PlasmaParams):
    """Relation from closing at the temperature equation instead.

    wp^2 + (5/3)(kB T0_par/m) k^2 + hbar^2 k^4 / (12 m^2).  Its quartic
    coefficient is 1/3 of the quantum Langmuir one, so it matches neither
    the classical nor the zero-temperature limits of the hierarchy.
    """
    k = np.asarray(k, dtype=float)
    wp = params.omega_p
    return (wp * wp + (5.0 / 3.0) * params.vt2_par * k**2
            + (params.hbar * k**2) ** 2 / (12.0 * (params.m * params.m)))


def companion_growth_rate(k, params: PlasmaParams):
    """Growth rate of the non-oscillatory companion branch at wavenumber k.

    The closed hierarchy's quartic in omega has a second root
    omega^2 = (wp^2/2)[1 - sqrt(1 + tau + eta)] <= 0; perturbations at k
    grow like exp(rate * t) with rate = sqrt(-omega^2).  Zero at k = 0,
    increasing with k (~ sqrt(k) thermally, ~ k with the quantum term).
    """
    tau, eta, wp = _tau_eta(k, params)
    minus_branch = 0.5 * (wp * wp) * (1.0 - np.sqrt(1.0 + tau + eta))
    return np.sqrt(np.maximum(-minus_branch, 0.0))


RELATIONS = {
    "general": general_omega_sq,
    "quantum-langmuir": quantum_langmuir_omega_sq,
    "bohm-gross": bohm_gross_omega_sq,
    "adiabatic": adiabatic_omega_sq,
    "temperature-closure": temperature_closure_omega_sq,
}


def k_grid(k_min: float, k_max: float, n_points: int,
           log_spacing: bool = False) -> np.ndarray:
    """Uniform or log-uniform wavenumber grid on [k_min, k_max].

    Raises ``ConfigError`` unless 0 <= k_min < k_max < inf (k_min > 0 for
    log spacing) and 2 <= n_points <= 2**18.
    """
    if not (0.0 <= k_min < k_max < np.inf):
        raise ConfigError(f"need 0 <= k_min < k_max < inf, got [{k_min}, {k_max}]")
    if not 2 <= n_points <= _MAX_K_POINTS:
        raise ConfigError(f"n_points must be between 2 and the {_MAX_K_POINTS}-point "
                          f"sweep limit, got {n_points}")
    if log_spacing:
        if k_min <= 0.0:
            raise ConfigError("log spacing requires k_min > 0")
        return np.geomspace(k_min, k_max, n_points)
    return np.linspace(k_min, k_max, n_points)


def evaluate(relation_tag: str, k, params: PlasmaParams,
             gamma: float | None = None) -> np.ndarray:
    """omega^2 of the relation named ``relation_tag`` (a key of ``RELATIONS``) at k.

    ``gamma`` is the adiabatic exponent; it is required by "adiabatic"
    and ignored by every other relation.  At a huge finite k, k^2 or k^4
    overflows: omega^2 is computed under ``np.errstate`` and a value that
    is not finite raises ``ConfigError`` naming the first such k instead
    of warning.
    """
    if relation_tag not in RELATIONS:
        raise ConfigError(f"unknown relation {relation_tag!r} (choices: {sorted(RELATIONS)})")
    fn = RELATIONS[relation_tag]
    if relation_tag == "adiabatic" and gamma is None:
        raise ConfigError("relation 'adiabatic' requires gamma")
    with np.errstate(over="ignore", invalid="ignore"):
        om2 = fn(k, params, gamma) if relation_tag == "adiabatic" else fn(k, params)
    k, bad = np.broadcast_arrays(np.asarray(k, dtype=float), ~np.isfinite(om2))
    if bad.any():
        raise ConfigError(f"omega^2 is not finite at k = {float(k[bad][0])!r} "
                          f"(k^2 or k^4 overflows); lower k_max")
    return om2
