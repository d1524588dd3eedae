"""Velocity moments of a tabulated phase-space distribution.

Given f(v) sampled on a 1D or 3D velocity grid, computes the hierarchy

    n      = int f dv
    n u_i  = int v_i f dv
    P_ij   = m int (v-u)_i (v-u)_j f dv
    Q_ijk  = m int (v-u)_i (v-u)_j (v-u)_k f dv
    R_ijkl = m int (v-u)_i (v-u)_j (v-u)_k (v-u)_l f dv

plus the scalar reductions p = trace(P)/3 (or P_xx in 1D) and
q_i = Q_jji / 2.  f may be negative (Wigner functions are quasi-
distributions); only the density must come out positive for the bulk
velocity to be defined.

Every moment is a contraction of f with one small matrix per grid axis,
taken an axis at a time: [w, w v] gives n and u, then w (v - u)^j for
j = 0..4 gives the (5,)*d array of all mixed central moments to fourth
order.  Each of n, u, P, Q and R is one gather from its contraction,
indexed by the count of each axis among the tensor's indices (P_xy
reads c[1, 1, 0], R_xxzz reads c[2, 0, 2]), so permuted components are
bitwise equal.  Each contraction is an elementwise product summed
pairwise along the contracted axis, in numpy's own loops: ``tensordot``
or ``matmul`` would call BLAS, whose worker threads spin on after the
call and burn CPU.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .csvio import read_csv, write_csv
from .errors import ConfigError, MomentError

__all__ = [
    "VelocityGrid",
    "MomentSet",
    "compute_moments",
    "maxwellian",
    "load_distribution_csv",
    "save_distribution_csv",
]

_MIN_NODES = 8
_BOUNDARY_RTOL = 1e-10  # boundary |f| over max |f| above which boundary_ok is False


@dataclass(frozen=True, eq=False)
class VelocityGrid:
    """Per-axis quadrature nodes for velocity-space integrals.

    ``axes`` is a sequence of 1D node arrays, one per velocity dimension
    (1 or 3), stored as a tuple of float arrays.  Nodes must be finite and
    strictly increasing, with at least 8 per axis.  The quadrature weights
    are the trapezoid rule's, built from the nodes.  Instances compare and
    hash by identity.
    """

    axes: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(np.asarray(a, dtype=float) for a in self.axes))
        if len(self.axes) not in (1, 3):
            raise ConfigError(f"velocity grid must be 1D or 3D, got {len(self.axes)} axes")
        for ax, nodes in enumerate(self.axes):
            if nodes.ndim != 1:
                raise ConfigError(f"axis {ax}: nodes must be a 1D array")
            if len(nodes) < _MIN_NODES:
                raise ConfigError(f"axis {ax}: need at least {_MIN_NODES} nodes, got {len(nodes)}")
            if not (np.all(np.diff(nodes) > 0) and np.isfinite(nodes).all()):
                raise ConfigError(f"axis {ax}: nodes must be finite and strictly increasing")

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @cached_property
    def weights(self) -> tuple[np.ndarray, ...]:
        """Trapezoid weights per axis: half of each node spacing on either side."""
        out = []
        for nodes in self.axes:
            w = np.zeros_like(nodes)
            half = 0.5 * np.diff(nodes)
            w[:-1] += half
            w[1:] += half
            out.append(w)
        return tuple(out)

    @classmethod
    def uniform(cls, d: int, v_max: float, n: int) -> "VelocityGrid":
        """Uniform symmetric grid of n nodes on [-v_max, v_max] along each of d axes."""
        return cls(axes=(np.linspace(-v_max, v_max, n),) * d)


@dataclass(frozen=True)
class MomentSet:
    """Moments of one distribution: n, u, P, Q, R plus scalar p and q.

    ``boundary_ok`` is False when the tabulated distribution had not
    decayed below threshold at the grid boundary, in which case the
    moments may be truncation-polluted.
    """

    n: float
    u: np.ndarray          # (d,)
    P: np.ndarray          # (d, d)
    Q: np.ndarray          # (d, d, d)
    R: np.ndarray          # (d, d, d, d)
    p: float
    q: np.ndarray          # (d,)
    boundary_ok: bool = True

    @property
    def d(self) -> int:
        return len(self.u)

    def to_dict(self) -> dict:
        """Flat name -> value mapping for serialization / diagnostics."""
        out = {"n": self.n, "p": self.p, "boundary_ok": self.boundary_ok}
        names = "xyz"[: self.d]
        for i, ni in enumerate(names):
            out[f"u_{ni}"] = float(self.u[i])
            out[f"q_{ni}"] = float(self.q[i])
        for idx in itertools.combinations_with_replacement(range(self.d), 2):
            out["P_" + "".join(names[i] for i in idx)] = float(self.P[idx])
        for idx in itertools.combinations_with_replacement(range(self.d), 3):
            out["Q_" + "".join(names[i] for i in idx)] = float(self.Q[idx])
        for idx in itertools.combinations_with_replacement(range(self.d), 4):
            out["R_" + "".join(names[i] for i in idx)] = float(self.R[idx])
        return out


def _boundary_max(f: np.ndarray) -> float:
    """Largest |f| on any outermost grid slice."""
    worst = 0.0
    for ax in range(f.ndim):
        first = np.take(f, 0, axis=ax)
        last = np.take(f, -1, axis=ax)
        worst = max(worst, float(np.max(np.abs(first))), float(np.max(np.abs(last))))
    return worst


def _contract(f: np.ndarray, columns) -> np.ndarray:
    """c[j_1, ..., j_d] = sum of f[a_1, ..., a_d] C_1[a_1, j_1] ... C_d[a_d, j_d]
    over the per-axis matrices C_1 ... C_d of ``columns``, one axis at a time.

    Each product is laid out with the contracted axis last and contiguous,
    so ``np.sum`` adds along it pairwise.
    """
    for C in columns:
        f = np.multiply(np.moveaxis(f, 0, -1)[..., None, :], C.T, order="C").sum(axis=-1)
    return f


@cache
def _counts(d: int, rank: int) -> tuple[np.ndarray, ...]:
    """Index arrays that gather a rank-``rank`` tensor over d axes from an
    array with one axis per velocity axis: entry [i_1, ..., i_rank] reads
    it at the count of each axis among i_1 ... i_rank.  Cached: building
    them costs more than a 1D table's contractions."""
    idx = np.indices((d,) * rank)
    return tuple((idx == ax).sum(0) for ax in range(d))


def compute_moments(f: np.ndarray, grid: VelocityGrid, mass: float = 1.0) -> MomentSet:
    """Moments of f tabulated on ``grid`` by tensor-product quadrature.

    n and u, and P, Q and R (times ``mass``), are gathered from the first
    and the central-moment contraction by ``_counts`` (see the module
    docstring).  The density check is scaled by the integral of |f|.

    Raises ``ConfigError`` for a misshapen or non-finite f or a mass that
    is not finite and positive, and ``MomentError`` when the density is
    nonpositive within quadrature tolerance (the bulk velocity is then
    undefined).  A boundary decay violation (max |f| on the boundary above
    ``_BOUNDARY_RTOL`` times the global max) only flags the result.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ConfigError(f"distribution shape {f.shape} does not match grid {grid.shape}")
    if not (math.isfinite(mass) and mass > 0):
        raise ConfigError(f"mass must be finite and positive, got {mass!r}")

    fmax = float(np.max(np.abs(f)))
    if not math.isfinite(fmax):
        raise ConfigError("distribution holds a non-finite value")
    boundary_ok = fmax == 0.0 or _boundary_max(f) <= _BOUNDARY_RTOL * fmax

    first = _contract(f, [np.column_stack([w, w * v]) for v, w in zip(grid.axes, grid.weights)])
    n = float(first[_counts(grid.d, 0)])
    abs_scale = _contract(np.abs(f), [w[:, None] for w in grid.weights]).item()
    if n <= 1e-12 * abs_scale or n <= 0.0:
        raise MomentError(f"density nonpositive within quadrature tolerance (n = {n:.3e})")
    u = first[_counts(grid.d, 1)] / n

    c = _contract(f, [w[:, None] * np.vander(v - u_ax, 5, increasing=True)
                      for v, w, u_ax in zip(grid.axes, grid.weights, u)])
    P, Q, R = (mass * c[_counts(grid.d, rank)] for rank in (2, 3, 4))
    p = float(np.trace(P)) / 3.0 if grid.d == 3 else float(P[0, 0])
    q = 0.5 * np.einsum("jji->i", Q)
    return MomentSet(n=n, u=u, P=P, Q=Q, R=R, p=p, q=q, boundary_ok=boundary_ok)


def maxwellian(grid: VelocityGrid, density: float, temperature,
               drift=None, mass: float = 1.0, kB: float = 1.0) -> np.ndarray:
    """Tabulated (bi-)Maxwellian on ``grid``.

    ``temperature`` is a scalar or a per-axis sequence (anisotropic);
    ``drift`` a scalar (1D) or d-vector.  Normalized so the exact density
    is ``density``.  Raises ``ConfigError`` unless T, mass, kB and
    kB T / mass are finite and positive and density and drift finite.
    """
    d = grid.d
    T = np.broadcast_to(np.asarray(temperature, dtype=float), (d,))
    w = np.zeros(d) if drift is None else np.broadcast_to(np.asarray(drift, dtype=float), (d,))
    with np.errstate(all="ignore"):
        theta = kB * T / mass
    # theta is finite and positive only if its positive factors are finite
    if not (mass > 0 and kB > 0 and np.all((T > 0) & (theta > 0) & np.isfinite(theta))
            and np.all(np.isfinite([density, *w]))):
        raise ConfigError("maxwellian needs T, mass, kB, kB T / mass finite and > 0, density and "
                          f"drift finite: {density=} {temperature=} {drift=} {mass=} {kB=}")
    out = density / np.prod(np.sqrt(2.0 * np.pi * theta))
    for v, w_ax, theta_ax in zip(grid.axes, w, theta):
        out = np.multiply.outer(out, np.exp(-0.5 * (v - w_ax) ** 2 / theta_ax))
    return out


def save_distribution_csv(path, f: np.ndarray, grid: VelocityGrid) -> None:
    """Write a tabulated distribution as CSV (axis columns + value column)."""
    names = (["v1", "v2", "v3"] if grid.d == 3 else ["v"]) + ["f"]
    cols = [*np.meshgrid(*grid.axes, indexing="ij"), f]
    write_csv(path, [(name, np.ravel(c).astype(float)) for name, c in zip(names, cols)])


def load_distribution_csv(path) -> tuple[np.ndarray, VelocityGrid]:
    """Read a distribution table such as ``save_distribution_csv`` writes.

    The file is parsed by ``csvio.read_csv``, so '#' lines are comments.
    1D files have columns (v, f); 3D files (v1, v2, v3, f), one row per
    node of a tensor-product grid in row-major order (v1 outermost, v3
    innermost), each node once.  Every value must be a finite number.
    The grid is the distinct values of each v column.  Anything else raises
    ``ConfigError``.
    """
    _, cols = read_csv(path)
    if list(cols) not in (["v", "f"], ["v1", "v2", "v3", "f"]):
        raise ConfigError(f"unrecognized distribution header {list(cols)!r} "
                          "(expected v,f or v1,v2,v3,f)")
    for name, col in cols.items():
        if col.dtype.kind != "f" or not np.isfinite(col).all():
            raise ConfigError(f"distribution column {name!r} must hold finite numbers")
    *vs, f = cols.values()
    axes = [np.unique(v) for v in vs]
    shape = tuple(len(a) for a in axes)
    nodes = np.meshgrid(*axes, indexing="ij", copy=False)
    if np.prod(shape) != len(f) or not all(
            (v.reshape(shape) == g).all() for v, g in zip(vs, nodes)):
        raise ConfigError("distribution rows must list each node of a tensor-product grid "
                          "once, in row-major order")
    return f.reshape(shape), VelocityGrid(axes)
