"""Command-line interface.

One subcommand per physics module, CSV output only.  Every output file
records the exact command in its first comment line, so any result can
be reproduced from its own header.  Exit codes: 0 success, 2 bad
configuration, 3 numerical failure (singularity, CFL, vacuum), 4 I/O.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys

import numpy as np

from . import dispersion, fluid1d, linear_response, moments, traveling, wigner
from .csvio import write_csv
from .errors import ConfigError, NumericalError, SonicSingularityError
from .params import PRESETS, PlasmaParams, load_params_config, preset

__all__ = ["main", "build_parser"]


def _add_param_options(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("plasma parameters")
    source = g.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=PRESETS,
                        help="parameter preset (default: nondim)")
    source.add_argument("--config", metavar="FILE",
                        help="complete key=value parameter file; flags override its keys")
    g.add_argument("--n0", type=float, default=None, help="number density")
    g.add_argument("--hbar", type=float, default=None, help="reduced Planck constant")
    g.add_argument("--tpar", type=float, default=None, help="parallel temperature T0_par")
    g.add_argument("--tperp", type=float, default=None, help="perpendicular temperature T0_perp")


def _params_from(args) -> PlasmaParams:
    flags = {name: value for name, value in (("n0", args.n0), ("hbar", args.hbar),
                                             ("T0_par", args.tpar), ("T0_perp", args.tperp))
             if value is not None}
    if args.config:
        return load_params_config(args.config).with_(**flags)
    return preset(args.preset or "nondim", **flags)


def _cmd_dispersion(args, command: str) -> None:
    params = _params_from(args)
    ks = dispersion.k_grid(args.kmin, args.kmax, args.n, log_spacing=args.log)
    if args.relation == "all":
        cols = [("k", ks)] + [
            (f"omega_sq_{tag.replace('-', '_')}", dispersion.evaluate(tag, ks, params, args.gamma))
            for tag in dispersion.RELATIONS]
    else:
        om2 = dispersion.evaluate(args.relation, ks, params, args.gamma)
        cols = [("k", ks), ("omega_sq", om2), ("omega", np.sqrt(om2)),
                ("relation_tag", np.full(len(ks), args.relation))]
    write_csv(args.output, cols, command=command)


def _cmd_response(args, command: str) -> None:
    params = _params_from(args)
    if not math.isfinite(args.dphi):
        raise ConfigError(f"--dphi must be finite, got {args.dphi!r}")
    ks = dispersion.k_grid(args.kmin, args.kmax, args.n)
    if ks[0] <= 0.0:
        raise ConfigError("response sweep requires --kmin > 0 (k = 0 carries no wave)")
    P0 = linear_response.anisotropic_dyad(params.n0, params.T0_perp, params.T0_par, params)
    if args.p_iso is not None:
        if not 0.0 <= args.p_iso < math.inf:
            raise ConfigError(f"--p-iso must be finite and non-negative, got {args.p_iso!r}")
        P0 = args.p_iso * np.eye(3)
    om2 = dispersion.evaluate("general", ks, params)
    dP = linear_response.delta_P(ks, om2, args.dphi, P0, params)
    cols = [("k", ks), ("omega_sq", om2)] + [
        (f"dP_{name}", dP[:, i, j]) for name, (i, j) in (
            ("xx", (0, 0)), ("yy", (1, 1)), ("zz", (2, 2)),
            ("xy", (0, 1)), ("xz", (0, 2)), ("yz", (1, 2)))]
    write_csv(args.output, cols, command=command)


def _cmd_fluid(args, command: str) -> None:
    params = _params_from(args)
    grid = fluid1d.Grid1D(n_points=args.grid, length=args.length)
    omega = fluid1d.mode_frequency(grid, params, args.mode)
    if args.ic == "eigenmode":
        state = fluid1d.eigenmode_state(grid, params, args.mode, args.amplitude)
    else:
        state = fluid1d.perturbed_state(grid, params, args.mode, args.amplitude,
                                        fields=tuple(args.ic_fields.split(",")))
    t_end = args.tmax if args.tmax is not None else args.periods * 2.0 * np.pi / omega
    damping = None if args.no_stabilize else fluid1d.SpectralDamping.tailored(grid, params)
    try:
        run = fluid1d.evolve(state, params, t_end, dt=args.dt, damping=damping,
                             probe_mode=args.mode, sample_every=args.sample_every,
                             steepening_limit=args.steepening_limit)
    except NumericalError as exc:
        if args.no_stabilize:
            exc.args = (f"{exc}; the stabilising filter is off (--no-stabilize), and without "
                        f"it the closure's companion branch grows from rounding noise at any dt",)
        raise
    cols = [("t", run.t)]
    for name in ("n", "u", "p", "Q"):
        cols.append((f"{name}_mode_re", run.mode[name].real))
        cols.append((f"{name}_mode_im", run.mode[name].imag))
    cols.append(("mean_n", run.mass))
    write_csv(args.output, cols, command=command,
              extra_comments=(f"probe: fourier mode {args.mode}, omega_predicted={omega!r}",
                              f"steps: taken={run.n_steps}, dt={run.dt!r}, "
                              f"dt_bound={run.dt_bound}, halvings={run.n_halvings}"))
    if args.snapshot:
        s = run.final
        phi = fluid1d.solve_poisson(s.n, grid, params)
        write_csv(args.snapshot, [("x", grid.x), ("n", s.n), ("u", s.u),
                                  ("p", s.p), ("Q", s.Q), ("phi", phi)],
                  command=command, extra_comments=(f"snapshot at t={s.t!r}",))


def _cmd_tw_run(args, command: str) -> None:
    cfg = traveling.wave_frame_config(args.H, u0=args.u0, v=args.v)
    start = traveling.reference_oscillation_state(
        cfg, density_ratio=args.density_ratio, p0_scale=args.p0_scale)
    traj = traveling.integrate(start, cfg, args.xi_max, tol=args.tol,
                               n_samples=args.samples)
    if len(traj.xi) == 1:
        raise SonicSingularityError(f"no step from the launch state: {traj.halt_reason}")
    momentum_drift, energy_drift = traj.flux_drifts()
    comments = (f"steps: accepted={traj.n_steps}, rejected={traj.n_rejected}, "
                f"rhs_calls={traj.n_rhs}",
                f"invariants: momentum_flux_drift={momentum_drift:.3e}, "
                f"energy_flux_drift={energy_drift:.3e}")
    if not traj.completed:
        comments += (f"halted: {traj.halt_reason}",)
    write_csv(args.output, [("xi", traj.xi), ("n", traj.n), ("u", traj.u),
                            ("p", traj.p), ("Q", traj.Q), ("phi", traj.phi),
                            ("E", traj.E)],
              command=command, extra_comments=comments)


def _float_list(text: str, option: str) -> list[float]:
    """Parse a comma list of numbers given to ``option``."""
    try:
        return [float(item) for item in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option} expects a comma list of numbers, got {text!r}") from None


def _cmd_tw_stability(args, command: str) -> None:
    hs = np.array(_float_list(args.H, "--H"))
    cols = {name: [] for name in ["H", "max_real", "classification"]
            + [f"eig{i}_{part}" for i in range(5) for part in ("re", "im")]}
    for H in hs:
        cfg = traveling.wave_frame_config(float(H), u0=args.u0)
        eigs = traveling.equilibrium_eigenvalues(cfg, p0=args.p0)
        eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
        cols["H"].append(H)
        cols["max_real"].append(float(np.max(eigs.real)))
        cols["classification"].append(traveling.classify_equilibrium(cfg, p0=args.p0))
        for i in range(5):
            cols[f"eig{i}_re"].append(eigs[i].real)
            cols[f"eig{i}_im"].append(eigs[i].imag)
    write_csv(args.output, [(k, np.array(v)) for k, v in cols.items()], command=command)


def _cmd_wigner(args, command: str) -> None:
    times = _float_list(args.times, "--times")
    paths = [args.output] if len(times) == 1 else [
        _suffixed(args.output, f"_t{t_bar:g}") for t_bar in times]
    first_time = {}
    for t_bar, path in zip(times, paths):
        if path in first_time:
            raise ConfigError(f"--times {first_time[path]!r} and {t_bar!r} would both write {path}")
        first_time[path] = t_bar
    half_max = sys.float_info.max / 2  # the grids span [-max, max]
    if not (0.0 < args.x_max <= half_max and 0.0 < args.v_max <= half_max):
        raise ConfigError(f"--x-max and --v-max must be positive and at most {half_max:.6g}")
    if args.nx < 1 or args.nv < 1:
        raise ConfigError("--nx and --nv must be at least 1")
    x_bar = np.linspace(-args.x_max, args.x_max, args.nx)
    v_bar = np.linspace(-args.v_max, args.v_max, args.nv)
    # the wigner module works in hbar = m = 1; with sigma = 1 too, x = x_bar,
    # v = v_bar, t = t_bar and f_bar = pi f
    wfgs = [wigner.evolve_free_gaussian(
        1.0, t_bar, max(args.x_max + 2.0, 8.0 * math.sqrt(1.0 + t_bar * t_bar)),
        n_points=args.npsi) for t_bar in times]
    for wfg in wfgs:   # every panel is checked before one is computed or written
        wigner.s_grid(wfg, v_bar, x_bar)
    panels = [np.pi * wigner.wigner_transform(wfg, v=v_bar, x=x_bar).f for wfg in wfgs]
    X, V = np.meshgrid(x_bar, v_bar, indexing="ij")
    for t_bar, path, f_bar in zip(times, paths, panels):
        write_csv(path, [("x_bar", X.ravel()), ("v_bar", V.ravel()),
                         ("f_bar", f_bar.T.ravel())],
                  command=command, extra_comments=(f"t_bar={t_bar!r}, rows: x outer, v inner",))


def _cmd_moments(args, command: str) -> None:
    params = _params_from(args)
    f, grid = moments.load_distribution_csv(args.input)
    mset = moments.compute_moments(f, grid, mass=params.m)
    items = sorted(mset.to_dict().items())
    write_csv(args.output, [("component", np.array([k for k, _ in items])),
                            ("value", np.array([str(v) for _, v in items]))],
              command=command)


def _suffixed(path: str, suffix: str) -> str:
    if path.endswith(".csv"):
        return path[:-4] + suffix + ".csv"
    return path + suffix


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfluid",
        description="Quantum plasma fluid moment hierarchy: dispersion, linear "
                    "response, 1D dynamics, traveling waves, phase-space transform.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("dispersion", help="dispersion relation sweep or comparison")
    p.add_argument("--relation", default="general",
                   choices=sorted(dispersion.RELATIONS) + ["all"])
    p.add_argument("--kmin", type=float, default=0.0)
    p.add_argument("--kmax", type=float, default=2.0)
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--log", action="store_true", help="log-uniform k grid")
    p.add_argument("--gamma", type=float, default=5.0 / 3.0,
                   help="adiabatic exponent for the scalar-pressure relation")
    p.add_argument("-o", "--output", default="dispersion.csv")
    _add_param_options(p)
    p.set_defaults(func=_cmd_dispersion)

    p = subs.add_parser("response", help="pressure-dyad perturbation k-sweep")
    p.add_argument("--kmin", type=float, default=0.1)
    p.add_argument("--kmax", type=float, default=2.0)
    p.add_argument("--n", type=int, default=96)
    p.add_argument("--dphi", type=float, default=1.0, help="potential amplitude")
    p.add_argument("--p-iso", type=float, default=None,
                   help="use an isotropic equilibrium pressure instead of the dyad from T0")
    p.add_argument("-o", "--output", default="response.csv")
    _add_param_options(p)
    p.set_defaults(func=_cmd_response)

    p = subs.add_parser("fluid", help="1D fluid-Poisson time-domain run")
    p.add_argument("--length", type=float, default=2.0 * np.pi)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--mode", type=int, default=1, help="perturbed Fourier mode")
    p.add_argument("--amplitude", type=float, default=1e-6,
                   help="relative perturbation amplitude")
    p.add_argument("--ic", choices=["eigenmode", "perturb"], default="eigenmode")
    p.add_argument("--ic-fields", default="n",
                   help="comma list of fields to perturb when --ic perturb")
    p.add_argument("--periods", type=float, default=10.0,
                   help="run length in predicted oscillation periods")
    p.add_argument("--tmax", type=float, default=None, help="run length in time units")
    p.add_argument("--dt", type=float, default=None, help="time step (default: auto)")
    p.add_argument("--sample-every", type=int, default=1)
    p.add_argument("--no-stabilize", action="store_true",
                   help="disable the filter on the closure's companion pair")
    p.add_argument("--steepening-limit", type=float, default=100.0,
                   help="halt when max|du/dx| exceeds this many omega_p")
    p.add_argument("--snapshot", default=None, help="write final field snapshot CSV")
    p.add_argument("-o", "--output", default="fluid.csv")
    _add_param_options(p)
    p.set_defaults(func=_cmd_fluid)

    p = subs.add_parser("tw", help="traveling-wave (wave-frame) analysis")
    tw_subs = p.add_subparsers(dest="tw_command", required=True)

    q = tw_subs.add_parser("run", help="integrate wave-frame oscillations")
    q.add_argument("--H", type=float, default=1.0, help="quantum parameter")
    q.add_argument("--u0", type=float, default=1.0)
    q.add_argument("--v", type=float, default=0.0)
    q.add_argument("--density-ratio", type=float, default=2.0 / 3.0,
                   help="n(0)/n0 for the launch state")
    q.add_argument("--p0-scale", type=float, default=1.0,
                   help="p(0) in units of m n0 u0^2")
    q.add_argument("--xi-max", type=float, default=60.0)
    q.add_argument("--tol", type=float, default=1e-9)
    q.add_argument("--samples", type=int, default=2048)
    q.add_argument("-o", "--output", default="tw_run.csv")
    q.set_defaults(func=_cmd_tw_run)

    q = tw_subs.add_parser("stability", help="equilibrium eigenvalues vs H")
    q.add_argument("--H", default="0,0.5,1,1.5,1.9,2.1,2.5,3",
                   help="comma list of quantum parameters")
    q.add_argument("--u0", type=float, default=1.0)
    q.add_argument("--p0", type=float, default=None)
    q.add_argument("-o", "--output", default="tw_stability.csv")
    q.set_defaults(func=_cmd_tw_stability)

    p = subs.add_parser("wigner", help="free-packet phase-space distribution")
    p.add_argument("--times", default="0,2,4,6", help="comma list of rescaled times")
    p.add_argument("--x-max", type=float, default=12.0)
    p.add_argument("--v-max", type=float, default=4.0)
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--nv", type=int, default=256)
    p.add_argument("--npsi", type=int, default=1024,
                   help="wavefunction grid size for the transform")
    p.add_argument("-o", "--output", default="wigner.csv")
    p.set_defaults(func=_cmd_wigner)

    p = subs.add_parser("moments", help="moments of a tabulated distribution")
    p.add_argument("--input", required=True, help="distribution CSV (v,f or v1,v2,v3,f)")
    p.add_argument("-o", "--output", default="moments.csv")
    _add_param_options(p)
    p.set_defaults(func=_cmd_moments)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    command = "qfluid " + shlex.join(list(argv))
    try:
        args.func(args, command)
        return 0
    except ConfigError as exc:
        print(f"qfluid: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"qfluid: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qfluid: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
