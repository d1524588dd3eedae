"""The benchmark's workloads: seeded inputs, the operations of one pass and their checks.

A workload draws its inputs from a seed when it is constructed and builds
them (states, damping filters, input files) in ``prepare``.  Its ``ops``
are the operations of one pass.  Each operation has a ``run`` part, the
call into qfluid that a pass times, and a ``check`` part that compares
the output with a reference that does not come from the code under test:
the dispersion relation and the pressure response written out below, the
stability boundary H = 2, the closed-form Wigner function, the exact
moments of a Maxwellian, and the continuity integral.

Draws, per pass (see README.md for why each workload exists):

fluid_modes  three eigenmode runs on N = 256, ten predicted periods each,
             one per regime of acceptance criterion 3.  Each regime fixes
             the plasma (T0_par, hbar) to within +-5% of a criterion-3
             point and draws the probe mode from two neighbouring modes:
               classical  T0_par = 0.0075,  hbar = 0,      mode 1 or 2
               mixed      T0_par = 7.41e-4, hbar = 0.0157, mode 3 or 4
               quantum    T0_par = 0,       hbar = 0.016,  mode 4 or 5
             The amplitude is log-uniform in [5e-7, 2e-6].  The stiff time
             step depends on the plasma, not on the mode, so every seed
             costs about the same number of steps.
wave_frame   three trajectories with H uniform in [0.25, 1.75] and launch
             density ratio n(0)/n0 uniform in [0.64, 0.80], integrated at
             tol 1e-9 to xi = 220 with 8192 samples (at least 24 periods;
             the samples pin the step count near 8192); an eigenvalue
             table at four H drawn from [0, 1.9] and four from [2.1, 3];
             and stability_threshold(1, 3, tol=1e-6).
cli_batch    a fixed mix of subcommands.  The seed draws the tabulated 3-D
             Maxwellian (density in [0.5, 2], drift components in
             [-0.5, 0.5], temperatures per axis in [0.5, 1.5], 40 nodes per
             axis spanning +-8 thermal widths), T0_par in [0.05, 0.2] and
             hbar in [0.2, 1] for the dispersion and response sweeps, H in
             [0.8, 1.2] for `tw run`, and the fine-grid fluid amplitude.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qfluid import cli, fluid1d, traveling
from qfluid.params import nondimensional


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # problems found in the output; empty when correct


def omega_ref(k, params) -> float:
    """omega from omega^2 = (wp^2/2)[1 + sqrt(1 + tau + eta)], written out from the paper."""
    wp2 = params.n0 * params.e**2 / (params.eps0 * params.m)
    tau = 12.0 * params.kB * params.T0_par * k**2 / (params.m * wp2)
    eta = params.hbar**2 * k**4 / (params.m**2 * wp2)
    return math.sqrt(0.5 * wp2 * (1.0 + math.sqrt(1.0 + tau + eta)))


def _jitter(rng, center: float) -> float:
    return center * rng.uniform(0.95, 1.05)


class FluidModes:
    """Eigenmode runs on the N = 256 grid checked against the dispersion relation."""

    name = "fluid_modes"
    # regime -> (T0_par, hbar, probe modes); criterion-3 strengths at these modes
    REGIMES = {
        "classical": (0.0075, 0.0, (1, 2)),
        "mixed": (0.08 / 108.0, math.sqrt(0.02) / 9.0, (3, 4)),
        "quantum": (0.0, 0.016, (4, 5)),
    }
    PERIODS = 10.0

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.runs = []
        for regime, (T, hbar, modes) in self.REGIMES.items():
            self.runs.append({
                "regime": regime,
                "mode": int(rng.choice(modes)),
                "T0_par": _jitter(rng, T),
                "hbar": _jitter(rng, hbar),
                "amplitude": float(10.0 ** rng.uniform(math.log10(5e-7), math.log10(2e-6))),
            })
        self.inputs = {"runs": self.runs}
        self.periods_per_pass = self.PERIODS * len(self.runs)
        self.ops: list[Op] = []

    def prepare(self) -> None:
        grid = fluid1d.Grid1D(256, 2.0 * math.pi)
        self.ops = []
        for spec in self.runs:
            params = nondimensional(hbar=spec["hbar"], T0_par=spec["T0_par"])
            mode = spec["mode"]
            omega = omega_ref(mode * grid.k_fundamental, params)
            state = fluid1d.eigenmode_state(grid, params, mode, spec["amplitude"])
            damping = fluid1d.SpectralDamping.tailored(grid, params, protect_modes=mode)
            t_end = self.PERIODS * 2.0 * math.pi / omega
            self.ops.append(Op(
                name=f"evolve[{spec['regime']}, mode {mode}]",
                run=self._runner(state, params, t_end, damping, mode),
                check=self._checker(omega, float(np.mean(state.n)))))

    @staticmethod
    def _runner(state, params, t_end, damping, mode):
        def run():
            out = fluid1d.evolve(state, params, t_end, damping=damping, probe_mode=mode)
            return out, fluid1d.measure_frequency(out.t, out.mode["u"].real)
        return run

    @staticmethod
    def _checker(omega: float, mean_n0: float):
        def check(result) -> list[str]:
            out, measured = result
            problems = []
            rel = abs(measured - omega) / omega
            if not rel < 1e-2:
                problems.append(f"frequency off by {rel:.3e} of the dispersion relation")
            drift = float(np.max(np.abs(out.mass - mean_n0))) / mean_n0
            final = abs(float(np.mean(out.final.n)) - mean_n0) / mean_n0
            if not max(drift, final) < 1e-10:
                problems.append(f"mean density drifted by {max(drift, final):.3e}")
            return problems
        return check


def amplitude_drift(traj) -> tuple[float, float]:
    """(periods covered, relative change of |u - u_eq| between first and last two periods)."""
    du = traj.u - (traj.cfg.u0 + traj.cfg.v)
    crossings = np.nonzero(np.sign(du[:-1]) * np.sign(du[1:]) < 0)[0]
    if len(crossings) < 3:
        return 0.0, math.inf
    periods = (len(crossings) - 1) / 2.0
    period = 2.0 * (traj.xi[crossings[-1]] - traj.xi[crossings[0]]) / (len(crossings) - 1)
    first = np.max(np.abs(du[traj.xi <= traj.xi[0] + 2.0 * period]))
    last = np.max(np.abs(du[traj.xi >= traj.xi[-1] - 2.0 * period]))
    return periods, float(abs(last - first) / first)


def continuity_violation(n, u, v: float, n0: float, u0: float) -> float:
    """max |n (u - v) / (n0 u0) - 1|: zero for the exact continuity integral."""
    return float(np.max(np.abs(n * (u - v) / (n0 * u0) - 1.0)))


class WaveFrame:
    """Wave-frame trajectories, an equilibrium eigenvalue table and the H = 2 bisection."""

    name = "wave_frame"
    XI_MAX = 220.0
    SAMPLES = 8192
    TOL = 1e-9

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.trajectories = [{"H": float(rng.uniform(0.25, 1.75)),
                              "density_ratio": float(rng.uniform(0.64, 0.80))}
                             for _ in range(3)]
        self.table_H = sorted([float(h) for h in rng.uniform(0.0, 1.9, 4)]
                              + [float(h) for h in rng.uniform(2.1, 3.0, 4)])
        self.inputs = {"trajectories": self.trajectories, "table_H": self.table_H}
        self.periods_per_pass = 0.0
        self.ops: list[Op] = []

    def prepare(self) -> None:
        self.ops = []
        for spec in self.trajectories:
            cfg = traveling.wave_frame_config(spec["H"])
            start = traveling.reference_oscillation_state(cfg, density_ratio=spec["density_ratio"])
            self.ops.append(Op(
                name=f"integrate[H={spec['H']:.3f}, n(0)/n0={spec['density_ratio']:.3f}]",
                run=self._integrator(start, cfg), check=self._check_trajectory))
        configs = [traveling.wave_frame_config(h) for h in self.table_H]
        self.ops.append(Op("eigenvalue table", lambda: self._table(configs), self._check_table))
        self.ops.append(Op("stability_threshold(1, 3)",
                           lambda: traveling.stability_threshold(1.0, 3.0, tol=1e-6),
                           self._check_threshold))

    def _integrator(self, start, cfg):
        return lambda: traveling.integrate(start, cfg, self.XI_MAX, tol=self.TOL,
                                           n_samples=self.SAMPLES)

    @staticmethod
    def _check_trajectory(traj) -> list[str]:
        if not traj.completed:
            return [f"halted: {traj.halt_reason}"]
        problems = []
        cfg = traj.cfg
        violation = continuity_violation(traj.n, traj.u, cfg.v, cfg.params.n0, cfg.u0)
        if not violation < 5e-16:
            problems.append(f"continuity violated by {violation:.3e}")
        periods, drift = amplitude_drift(traj)
        if not periods >= 20.0:
            problems.append(f"only {periods} periods")
        if not drift < 1e-2:
            problems.append(f"amplitude drift {drift:.3e}")
        if not all(np.all(np.isfinite(a)) for a in (traj.n, traj.p, traj.Q, traj.E)):
            problems.append("non-finite fields")
        return problems

    @staticmethod
    def _table(configs):
        return [(cfg.H, traveling.equilibrium_eigenvalues(cfg), traveling.classify_equilibrium(cfg))
                for cfg in configs]

    @staticmethod
    def _check_table(rows) -> list[str]:
        problems = []
        for H, eigs, label in rows:
            expected = "center-like" if H < 2.0 else "unstable"
            if label != expected:
                problems.append(f"H = {H:.4f} classified {label}, expected {expected}")
            if len(eigs) != 5 or not np.all(np.isfinite(eigs)):
                problems.append(f"H = {H:.4f}: bad eigenvalues {eigs}")
        return problems

    @staticmethod
    def _check_threshold(h_crit) -> list[str]:
        return [] if abs(h_crit - 2.0) <= 1e-6 else [f"threshold {h_crit!r} not within 2 +- 1e-6"]


def _read_table(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """A qfluid CSV as (comment lines, numeric columns), parsed without qfluid."""
    with open(path, encoding="utf-8") as fh:
        comments = []
        line = fh.readline()
        while line.startswith("#"):
            comments.append(line.rstrip("\n"))
            line = fh.readline()
        names = line.strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=str)
    columns = {}
    for i, name in enumerate(names):
        try:
            columns[name] = data[:, i].astype(float)
        except ValueError:
            columns[name] = data[:, i]
    return comments, columns


def _digest(paths) -> dict[str, str]:
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


class CliBatch:
    """In-process `qfluid` subcommands writing CSV, checked from the files they write."""

    name = "cli_batch"
    WIGNER_TIMES = (0.0, 2.0, 4.0, 6.0)
    FLUID_GRID = 4096
    FLUID_PERIODS = 0.5
    MAXWELLIAN_NODES = 40

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.maxwellian = {
            "density": float(rng.uniform(0.5, 2.0)),
            "drift": [float(w) for w in rng.uniform(-0.5, 0.5, 3)],
            "temperature": [float(t) for t in rng.uniform(0.5, 1.5, 3)],
        }
        self.tpar = float(rng.uniform(0.05, 0.2))
        self.hbar = float(rng.uniform(0.2, 1.0))
        self.tw_H = float(rng.uniform(0.8, 1.2))
        self.fluid_amplitude = float(10.0 ** rng.uniform(math.log10(5e-7), math.log10(2e-6)))
        self.inputs = {"maxwellian": self.maxwellian, "tpar": self.tpar, "hbar": self.hbar,
                       "tw_H": self.tw_H, "fluid_amplitude": self.fluid_amplitude}
        self.periods_per_pass = self.FLUID_PERIODS
        self.digests: dict[str, dict[str, str]] = {}  # op name -> output digests of its first pass
        self.ops: list[Op] = []

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write_maxwellian(self) -> str:
        m = self.maxwellian
        axes = [np.linspace(w - 8.0 * math.sqrt(T), w + 8.0 * math.sqrt(T), self.MAXWELLIAN_NODES)
                for w, T in zip(m["drift"], m["temperature"])]
        V = np.meshgrid(*axes, indexing="ij")
        f = m["density"] / math.prod(math.sqrt(2.0 * math.pi * T) for T in m["temperature"])
        for v, w, T in zip(V, m["drift"], m["temperature"]):
            f = f * np.exp(-0.5 * (v - w) ** 2 / T)
        path = self._path("maxwellian.csv")
        np.savetxt(path, np.column_stack([v.ravel() for v in V] + [f.ravel()]),
                   fmt="%.16e", delimiter=",", header="v1,v2,v3,f", comments="")
        return path

    def prepare(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        maxwellian = self._write_maxwellian()
        wigner_out = self._path("wigner.csv")
        tpar, hbar = repr(self.tpar), repr(self.hbar)
        commands = [
            ("wigner", ["wigner", "-o", wigner_out],
             [self._path(f"wigner_t{t:g}.csv") for t in self.WIGNER_TIMES], self._check_wigner),
            ("moments", ["moments", "--input", maxwellian, "-o", self._path("moments.csv")],
             [self._path("moments.csv")], self._check_moments),
            ("dispersion", ["dispersion", "--relation", "all", "--tpar", tpar, "--hbar", hbar,
                            "-o", self._path("dispersion.csv")],
             [self._path("dispersion.csv")], self._check_dispersion),
            ("response", ["response", "--p-iso", "1.0", "--tpar", tpar, "--hbar", hbar,
                          "-o", self._path("response.csv")],
             [self._path("response.csv")], self._check_response),
            ("tw-run", ["tw", "run", "--H", repr(self.tw_H), "-o", self._path("tw_run.csv")],
             [self._path("tw_run.csv")], self._check_tw_run),
            ("fluid", ["fluid", "--grid", str(self.FLUID_GRID), "--tpar", "0.001", "--hbar", "0",
                       "--periods", repr(self.FLUID_PERIODS),
                       "--amplitude", repr(self.fluid_amplitude), "-o", self._path("fluid.csv")],
             [self._path("fluid.csv")], self._check_fluid),
        ]
        self.ops = [Op(name, self._runner(argv), self._checker(name, outputs, check))
                    for name, argv, outputs, check in commands]

    @staticmethod
    def _runner(argv):
        return lambda: cli.main(list(argv))

    def _checker(self, name, outputs, content_check):
        """Exit code 0; bytes identical to the first checked pass, whose contents are checked."""
        def check(rc) -> list[str]:
            if rc != 0:
                return [f"exit code {rc}"]
            digests = _digest(outputs)
            expected = self.digests.get(name)
            if digests == expected:
                return []
            problems = content_check(outputs)
            if expected is None:
                if not problems:
                    self.digests[name] = digests
            else:
                problems.append("output bytes differ from the first pass")
            return problems
        return check

    def _check_wigner(self, paths) -> list[str]:
        x = np.linspace(-12.0, 12.0, 256)
        v = np.linspace(-4.0, 4.0, 256)
        X, V = np.meshgrid(x, v, indexing="ij")
        problems = []
        for t, path in zip(self.WIGNER_TIMES, paths):
            _, cols = _read_table(path)
            if not (np.array_equal(cols["x_bar"], X.ravel()) and np.array_equal(cols["v_bar"], V.ravel())):
                problems.append(f"{os.path.basename(path)}: unexpected (x, v) grid")
                continue
            exact = np.exp(-((X - V * t) ** 2) - V**2).ravel()
            err = float(np.max(np.abs(cols["f_bar"] - exact)))
            if not err < 1e-6:
                problems.append(f"t = {t:g}: Wigner panel off the closed form by {err:.3e}")
        return problems

    def _check_moments(self, paths) -> list[str]:
        _, cols = _read_table(paths[0])
        got = dict(zip(cols["component"], cols["value"]))
        m = self.maxwellian
        n = m["density"]
        expected = {"n": n}
        for i, a in enumerate("xyz"):
            expected[f"u_{a}"] = m["drift"][i]
            for j, b in enumerate("xyz"):
                if j >= i:
                    expected[f"P_{a}{b}"] = n * m["temperature"][i] if i == j else 0.0
        scale = {"n": n, "u": 1.0, "P": n * max(m["temperature"])}
        problems = []
        for key, value in expected.items():
            err = abs(float(got[key]) - value) / scale[key[0]]
            if not err < 1e-9:
                problems.append(f"moment {key} = {got[key]} vs exact {value!r}")
        if got.get("boundary_ok") != "True":
            problems.append("moments flagged the Maxwellian as not decayed at the boundary")
        return problems

    def _check_dispersion(self, paths) -> list[str]:
        _, cols = _read_table(paths[0])
        params = nondimensional(hbar=self.hbar, T0_par=self.tpar)
        exact = np.array([omega_ref(k, params) ** 2 for k in cols["k"]])
        err = float(np.max(np.abs(cols["omega_sq_general"] - exact) / exact))
        return [] if err < 1e-12 else [f"general relation off by {err:.3e}"]

    def _check_response(self, paths) -> list[str]:
        _, cols = _read_table(paths[0])
        params = nondimensional(hbar=self.hbar, T0_par=self.tpar)
        k = cols["k"]
        om2 = np.array([omega_ref(kk, params) ** 2 for kk in k])
        # isotropic p0 = 1, dphi = 1: dP_xx = -(e dphi k^2 / (m omega^2)) p0
        dP_xx = -(k**2) / om2
        dP_zz = dP_xx * (3.0 + params.n0 * params.hbar**2 * k**2 / (4.0 * params.m))
        problems = []
        for name, exact in (("omega_sq", om2), ("dP_xx", dP_xx), ("dP_yy", dP_xx), ("dP_zz", dP_zz)):
            err = float(np.max(np.abs(cols[name] - exact) / np.abs(exact)))
            if not err < 1e-12:
                problems.append(f"{name} off the closed form by {err:.3e}")
        if any(np.any(cols[name] != 0.0) for name in ("dP_xy", "dP_xz", "dP_yz")):
            problems.append("off-diagonal pressure response is not zero")
        return problems

    def _check_tw_run(self, paths) -> list[str]:
        comments, cols = _read_table(paths[0])
        problems = [c for c in comments if c.startswith("# halted")]
        # `tw run` defaults: v = 0, u0 = 1, nondimensional n0 = 1
        violation = continuity_violation(cols["n"], cols["u"], 0.0, 1.0, 1.0)
        if not violation < 5e-16:
            problems.append(f"continuity violated by {violation:.3e}")
        return problems

    def _check_fluid(self, paths) -> list[str]:
        _, cols = _read_table(paths[0])
        mean_n = cols["mean_n"]
        drift = float(np.max(np.abs(mean_n - mean_n[0])) / mean_n[0])
        return [] if drift < 1e-10 else [f"mean density drifted by {drift:.3e}"]


WORKLOADS = {cls.name: cls for cls in (FluidModes, WaveFrame, CliBatch)}


def build(name: str, seed: int, workdir: str):
    """The named workload with inputs drawn from ``seed``; call ``prepare`` before a pass."""
    return WORKLOADS[name](seed, workdir)
