"""Command-line interface.

One subcommand per physics module, CSV output only.  Every output file
records the exact command in its first comment line, so any result can
be reproduced from its own header.  Exit codes: 0 success, 2 bad
configuration, 3 numerical failure (singularity, CFL, vacuum), 4 I/O.
"""

from __future__ import annotations

import argparse
import shlex
import sys

import numpy as np

from . import dispersion, fluid1d, linear_response, moments, traveling, wigner
from .csvio import write_csv
from .errors import ConfigError, NumericalError
from .params import PlasmaParams, load_params_config, nondimensional, si_electron

__all__ = ["main", "build_parser"]


def _add_param_options(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("plasma parameters")
    g.add_argument("--preset", choices=["nondim", "si-electron"], default="nondim",
                   help="parameter preset (default: nondim)")
    g.add_argument("--config", metavar="FILE",
                   help="key=value parameter file; flags override its keys")
    g.add_argument("--n0", type=float, default=None, help="number density")
    g.add_argument("--hbar", type=float, default=None, help="reduced Planck constant")
    g.add_argument("--tpar", type=float, default=None, help="parallel temperature T0_par")
    g.add_argument("--tperp", type=float, default=None, help="perpendicular temperature T0_perp")


def _params_from(args) -> PlasmaParams:
    if args.config:
        base = load_params_config(args.config)
    elif args.preset == "si-electron":
        if args.n0 is None:
            raise ConfigError("preset si-electron requires --n0")
        base = si_electron(n0=args.n0)
    else:
        base = nondimensional()
    overrides = {}
    if args.n0 is not None:
        overrides["n0"] = args.n0
    if args.hbar is not None:
        overrides["hbar"] = args.hbar
    if args.tpar is not None:
        overrides["T0_par"] = args.tpar
    if args.tperp is not None:
        overrides["T0_perp"] = args.tperp
    return base.with_(**overrides) if overrides else base


def _cmd_dispersion(args, command: str) -> None:
    params = _params_from(args)
    if args.relation == "all":
        ks = dispersion.k_grid(args.kmin, args.kmax, args.n, log_spacing=args.log)
        cols = [("k", ks)]
        for tag in ("general", "quantum-langmuir", "bohm-gross", "adiabatic",
                    "temperature-closure"):
            fn = dispersion.RELATIONS[tag]
            om2 = fn(ks, params, args.gamma) if tag == "adiabatic" else fn(ks, params)
            cols.append((f"omega_sq_{tag.replace('-', '_')}", om2))
        write_csv(args.output, cols, command=command)
    else:
        pts = dispersion.sweep(args.relation, args.kmin, args.kmax, args.n, params,
                               log_spacing=args.log, gamma=args.gamma)
        write_csv(args.output, [
            ("k", np.array([p.k for p in pts])),
            ("omega_sq", np.array([p.omega_sq for p in pts])),
            ("omega", np.array([p.omega for p in pts])),
            ("relation_tag", np.array([p.relation_tag for p in pts])),
        ], command=command)


def _cmd_response(args, command: str) -> None:
    params = _params_from(args)
    ks = np.linspace(args.kmin, args.kmax, args.n)
    if ks[0] <= 0.0:
        raise ConfigError("response sweep requires --kmin > 0 (k = 0 carries no wave)")
    P0 = linear_response.anisotropic_dyad(params.n0, params.T0_perp, params.T0_par, params)
    if args.p_iso is not None:
        P0 = args.p_iso * np.eye(3)
    rows = {name: [] for name in ("omega_sq", "dP_xx", "dP_yy", "dP_zz",
                                  "dP_xy", "dP_xz", "dP_yz")}
    for k in ks:
        om2 = float(dispersion.general_omega_sq(k, params))
        dP = linear_response.delta_P(linear_response.PerturbationInput(
            k=float(k), omega_sq=om2, delta_phi=args.dphi, P0=P0, params=params))
        rows["omega_sq"].append(om2)
        for name, (i, j) in (("dP_xx", (0, 0)), ("dP_yy", (1, 1)), ("dP_zz", (2, 2)),
                             ("dP_xy", (0, 1)), ("dP_xz", (0, 2)), ("dP_yz", (1, 2))):
            rows[name].append(dP[i, j])
    write_csv(args.output, [("k", ks)] + [(n, np.array(v)) for n, v in rows.items()],
              command=command)


def _cmd_fluid(args, command: str) -> None:
    params = _params_from(args)
    grid = fluid1d.Grid1D(n_points=args.grid, length=args.length,
                          derivative_scheme=args.scheme)
    if args.ic == "eigenmode":
        state = fluid1d.eigenmode_state(grid, params, args.mode, args.amplitude)
    else:
        state = fluid1d.perturbed_state(grid, params, args.mode, args.amplitude,
                                        fields=tuple(args.ic_fields.split(",")))
    k = args.mode * grid.k_fundamental
    omega = float(np.sqrt(dispersion.general_omega_sq(k, params)))
    t_end = args.tmax if args.tmax is not None else args.periods * 2.0 * np.pi / omega
    damping = None if args.no_stabilize else fluid1d.SpectralDamping.tailored(
        grid, params, protect_modes=args.protect_modes)
    run = fluid1d.evolve(state, params, t_end, dt=args.dt, damping=damping,
                         probe_mode=args.mode, sample_every=args.sample_every,
                         steepening_limit=args.steepening_limit)
    cols = [("t", run.t)]
    for name in ("n", "u", "p", "Q"):
        cols.append((f"{name}_mode_re", run.mode[name].real))
        cols.append((f"{name}_mode_im", run.mode[name].imag))
    cols.append(("mean_n", run.mass))
    write_csv(args.output, cols, command=command,
              extra_comments=(f"probe: fourier mode {args.mode}, omega_predicted={omega!r}",))
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
    comments = ()
    if not traj.completed:
        comments = (f"halted: {traj.halt_reason}",)
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


def _cmd_tw_threshold(args, command: str) -> None:
    h_crit = traveling.stability_threshold(args.h_lo, args.h_hi, tol=args.tol)
    write_csv(args.output, [("h_crit", np.array([h_crit])),
                            ("h_lo", np.array([args.h_lo])),
                            ("h_hi", np.array([args.h_hi])),
                            ("tol", np.array([args.tol]))], command=command)


def _cmd_wigner(args, command: str) -> None:
    times = _float_list(args.times, "--times")
    x_bar = np.linspace(-args.x_max, args.x_max, args.nx)
    v_bar = np.linspace(-args.v_max, args.v_max, args.nv)
    for t_bar in times:
        # rescaled units: sigma = m = hbar = 1, so x = x_bar, v = v_bar, t = t_bar
        half_width = max(args.x_max + 2.0, 8.0 * float(np.sqrt(1.0 + t_bar**2)))
        wfg = wigner.evolve_free_gaussian(1.0, t_bar, half_width, n_points=args.npsi)
        table = wigner.wigner_transform(wfg, v=v_bar, x=x_bar)
        _, _, f_bar = table.rescaled(1.0)
        X, V = np.meshgrid(x_bar, v_bar, indexing="ij")
        path = args.output if len(times) == 1 else _suffixed(args.output, f"_t{t_bar:g}")
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
    p.add_argument("--scheme", choices=["spectral", "fd6"], default="spectral",
                   help="derivative scheme for the fluxes")
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
                   help="disable the short-wave stabilizing filter")
    p.add_argument("--protect-modes", type=int, default=1,
                   help="lowest modes excluded from the stabilizing filter")
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

    q = tw_subs.add_parser("threshold", help="bisect the stability boundary in H")
    q.add_argument("--h-lo", type=float, default=1.0)
    q.add_argument("--h-hi", type=float, default=3.0)
    q.add_argument("--tol", type=float, default=1e-6)
    q.add_argument("-o", "--output", default="tw_threshold.csv")
    q.set_defaults(func=_cmd_tw_threshold)

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
