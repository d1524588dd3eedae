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
order.  P, Q and R are copied from its entries, so permuted components
are bitwise equal.  Each contraction is an elementwise product summed
pairwise along the contracted axis, in numpy's own loops: ``tensordot``
or ``matmul`` would call BLAS, whose worker threads spin on after the
call and burn CPU.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


@dataclass(frozen=True)
class VelocityGrid:
    """Per-axis quadrature nodes and weights for velocity-space integrals.

    ``axes`` and ``weights`` are tuples of 1D arrays, one pair per velocity
    dimension (1 or 3).  Nodes must be strictly increasing and weights
    positive, with at least 8 nodes per axis.
    """

    axes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.axes) not in (1, 3):
            raise ConfigError(f"velocity grid must be 1D or 3D, got {len(self.axes)} axes")
        if len(self.weights) != len(self.axes):
            raise ConfigError("axes and weights length mismatch")
        for ax, (nodes, w) in enumerate(zip(self.axes, self.weights)):
            if nodes.ndim != 1 or w.shape != nodes.shape:
                raise ConfigError(f"axis {ax}: nodes and weights must be matching 1D arrays")
            if len(nodes) < _MIN_NODES:
                raise ConfigError(f"axis {ax}: need at least {_MIN_NODES} nodes, got {len(nodes)}")
            if not np.all(np.diff(nodes) > 0):
                raise ConfigError(f"axis {ax}: nodes must be strictly increasing")
            if not np.all(w > 0):
                raise ConfigError(f"axis {ax}: weights must be positive")

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @classmethod
    def uniform(cls, d: int, v_max: float, n: int, center: float = 0.0) -> "VelocityGrid":
        """Uniform symmetric grid on [center - v_max, center + v_max] with trapezoid weights."""
        nodes = np.linspace(center - v_max, center + v_max, n)
        w = _trapezoid_weights(nodes)
        return cls(axes=(nodes,) * d, weights=(w,) * d)

    @classmethod
    def from_nodes(cls, *axes: np.ndarray) -> "VelocityGrid":
        """Trapezoid-weight grid from user-supplied (possibly nonuniform) nodes."""
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        return cls(axes=axes, weights=tuple(_trapezoid_weights(a) for a in axes))


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


def _symmetric_tensor(rank: int, d: int, component) -> np.ndarray:
    """Fill a rank-``rank`` tensor from canonically ordered components.

    ``component(idx)`` is evaluated once per sorted index tuple and the
    value is broadcast to every permutation, making permutation symmetry
    exact by construction.
    """
    T = np.empty((d,) * rank)
    for idx in itertools.combinations_with_replacement(range(d), rank):
        val = component(idx)
        for perm in set(itertools.permutations(idx)):
            T[perm] = val
    return T


def _contract(f: np.ndarray, columns) -> np.ndarray:
    """c[j_1, ..., j_d] = sum of f[a_1, ..., a_d] C_1[a_1, j_1] ... C_d[a_d, j_d]
    over the per-axis matrices C_1 ... C_d of ``columns``, one axis at a time.

    Each product is laid out with the contracted axis last and contiguous,
    so ``np.sum`` adds along it pairwise.
    """
    for C in columns:
        f = np.multiply(np.moveaxis(f, 0, -1)[..., None, :], C.T, order="C").sum(axis=-1)
    return f


def _entry(c: np.ndarray, idx: tuple[int, ...]) -> float:
    """c at the count of each axis in the sorted index tuple ``idx``."""
    return float(c[tuple(idx.count(ax) for ax in range(c.ndim))])


def compute_moments(f: np.ndarray, grid: VelocityGrid, mass: float = 1.0,
                    boundary_threshold: float = 1e-10) -> MomentSet:
    """Moments of f tabulated on ``grid`` by tensor-product quadrature.

    The component of P, Q or R whose sorted indices hold axis a k_a times
    is ``mass * c[k_1, ..., k_d]`` of the central-moment array c (see the
    module docstring).  The density check is scaled by the integral of |f|.

    Raises ``ConfigError`` for a misshapen or non-finite f or a mass that
    is not finite and positive, and ``MomentError`` when the density is
    nonpositive within quadrature tolerance (the bulk velocity is then
    undefined).  A boundary decay violation (max |f| on the boundary above
    ``boundary_threshold`` times the global max) only flags the result.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ConfigError(f"distribution shape {f.shape} does not match grid {grid.shape}")
    if not (math.isfinite(mass) and mass > 0):
        raise ConfigError(f"mass must be finite and positive, got {mass!r}")

    fmax = float(np.max(np.abs(f)))
    if not math.isfinite(fmax):
        raise ConfigError("distribution holds a non-finite value")
    boundary_ok = fmax == 0.0 or _boundary_max(f) <= boundary_threshold * fmax

    first = _contract(f, [np.column_stack([w, w * v]) for v, w in zip(grid.axes, grid.weights)])
    n = _entry(first, ())
    abs_scale = _entry(_contract(np.abs(f), [w[:, None] for w in grid.weights]), ())
    if n <= 1e-12 * abs_scale or n <= 0.0:
        raise MomentError(f"density nonpositive within quadrature tolerance (n = {n:.3e})")
    u = np.array([_entry(first, (ax,)) / n for ax in range(grid.d)])

    c = _contract(f, [w[:, None] * np.vander(v - u_ax, 5, increasing=True)
                      for v, w, u_ax in zip(grid.axes, grid.weights, u)])
    P, Q, R = (_symmetric_tensor(rank, grid.d, lambda idx: mass * _entry(c, idx))
               for rank in (2, 3, 4))
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
    Grid weights are rebuilt by the trapezoid rule.  Anything else raises
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
    return f.reshape(shape), VelocityGrid.from_nodes(*axes)
