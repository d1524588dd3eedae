"""Physical parameters, derived scales, and nondimensionalization.

Everything downstream (dispersion relations, the 1D fluid solver, the
traveling-wave reduction) reads its constants from a ``PlasmaParams``
instance.  Two presets are provided, both built by ``preset``: a
nondimensional one in which e = m = eps0 = kB = 1, and an SI electron
preset with CODATA constants and no default density.

Sign convention: ``e`` is the (positive) magnitude of the elementary
charge; the momentum equation carries the force term +(e/m) d(phi)/dx and
Poisson's equation reads d2(phi)/dx2 = (e/eps0)(n - n0).  These two are
mutually consistent for electrons on a fixed ion background and must not
be "corrected" independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

__all__ = [
    "PlasmaParams",
    "nondimensional",
    "si_electron",
    "PRESETS",
    "preset",
    "parse_params_config",
    "load_params_config",
]

# CODATA 2018 recommended values (SI)
_E_SI = 1.602176634e-19        # elementary charge [C]
_ME_SI = 9.1093837015e-31      # electron mass [kg]
_EPS0_SI = 8.8541878128e-12    # vacuum permittivity [F/m]
_HBAR_SI = 1.054571817e-34     # reduced Planck constant [J s]
_KB_SI = 1.380649e-23          # Boltzmann constant [J/K]


@dataclass(frozen=True)
class PlasmaParams:
    """Equilibrium plasma parameters and physical constants.

    Attributes
    ----------
    n0 : equilibrium number density [m^-3]
    m : particle mass [kg]
    e : elementary charge magnitude [C]
    eps0 : vacuum permittivity [F/m]
    hbar : reduced Planck constant [J s]
    T0_par : equilibrium temperature parallel to the wave vector [K]
    T0_perp : equilibrium temperature perpendicular to the wave vector [K]
    kB : Boltzmann constant [J/K]
    """

    n0: float
    m: float
    e: float
    eps0: float
    hbar: float
    T0_par: float = 0.0
    T0_perp: float = 0.0
    kB: float = 1.0

    def __post_init__(self):
        for name in ("n0", "m", "e", "eps0", "kB"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"parameter {name!r} must be finite and positive, got {value!r}")
        # hbar = 0 is the formal classical limit and is used throughout
        for name in ("hbar", "T0_par", "T0_perp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"parameter {name!r} must be finite and non-negative, got {value!r}")
        # m eps0 can underflow to 0, and e^2 n0 / (m eps0) to 0 or inf
        if not (self.m * self.eps0 > 0.0 and 0.0 < self.omega_p < math.inf):
            raise ConfigError("derived plasma frequency is not finite and positive")

    @property
    def omega_p(self) -> float:
        """Plasma frequency sqrt(e^2 n0 / (m eps0)) [rad/s]."""
        return math.sqrt(self.e * self.e * self.n0 / (self.m * self.eps0))

    @property
    def vt2_par(self) -> float:
        """Squared parallel thermal speed kB T0_par / m [m^2/s^2]."""
        return self.kB * self.T0_par / self.m

    def with_(self, **changes) -> "PlasmaParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def nondimensional(hbar: float = 1.0, T0_par: float = 0.0, T0_perp: float = 0.0,
                   n0: float = 1.0) -> PlasmaParams:
    """Nondimensional preset: e = m = eps0 = kB = 1; hbar and temperatures free.

    With the default n0 = 1 the plasma frequency is exactly 1.
    """
    return PlasmaParams(n0=n0, m=1.0, e=1.0, eps0=1.0, hbar=hbar,
                        T0_par=T0_par, T0_perp=T0_perp, kB=1.0)


def si_electron(n0: float) -> PlasmaParams:
    """SI electron preset with CODATA 2018 constants, at zero temperature."""
    return PlasmaParams(n0=n0, m=_ME_SI, e=_E_SI, eps0=_EPS0_SI, hbar=_HBAR_SI, kB=_KB_SI)


PRESETS = ("nondim", "si-electron")
_FLOAT_KEYS = tuple(f.name for f in fields(PlasmaParams))


def preset(name: str, **changes: float) -> PlasmaParams:
    """The preset ``name`` (one of ``PRESETS``) with the fields in ``changes`` replaced.

    "si-electron" has no default density, so ``changes`` must give n0;
    an unknown name or a missing n0 raises ``ConfigError``.
    """
    if name == "nondim":
        base = nondimensional()
    elif name == "si-electron":
        if "n0" not in changes:
            raise ConfigError("preset 'si-electron' requires n0")
        base = si_electron(n0=changes["n0"])
    else:
        raise ConfigError(f"unknown preset {name!r} (choices: {list(PRESETS)})")
    return base.with_(**changes)


def parse_params_config(text: str) -> PlasmaParams:
    """Parse a key=value parameter config.

    Lines are ``key = value`` with '#' comments.  A ``preset`` key names
    a preset (``preset``) whose fields the other keys replace; the
    "si-electron" preset needs an ``n0`` key.  Without a preset every
    parameter field must be given.  Unknown keys are an error.
    """
    values: dict[str, float] = {}
    name: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "preset":
            name = val
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: key {key!r} has non-numeric value {val!r}") from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if name is not None:
        return preset(name, **values)
    missing = [k for k in _FLOAT_KEYS if k not in values]
    if missing:
        raise ConfigError(f"no preset given and parameters missing: {missing}")
    return PlasmaParams(**values)


def load_params_config(path) -> PlasmaParams:
    """Read and parse a key=value parameter config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_params_config(text)
