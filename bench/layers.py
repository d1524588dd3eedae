"""Per-layer metrics: which qfluid functions the traced run wraps, and what it reports.

Layers are the modules of ``src/qfluid``.  Each function is wrapped where
it is looked up at call time: ``cli`` binds ``write_csv`` with
``from .csvio import``, so the csvio span wraps ``qfluid.cli.write_csv``,
and ``traveling`` binds ``integrate_adaptive``, so the ode span wraps
``qfluid.traveling.integrate_adaptive``.  Calls such as ``step`` -> ``rhs``
go through module globals, so wrapping the module attribute catches them.

Every metric covers one traced set-up plus one traced pass.  ``count``
metrics repeat exactly between traced runs of one seed; ``time`` metrics
are medians over the run's traced passes.  A layer that a workload does
not exercise reports 0.
"""

from __future__ import annotations

import os

import numpy as np

from qfluid import cli, dispersion, fluid1d, linear_response, moments, traveling, wigner

CLI_SUBCOMMANDS = ("wigner", "moments", "dispersion", "response", "tw-run", "fluid")

# name -> (unit, better, kind)
METRICS = {
    "fluid1d.evolve.calls": ("count", "lower", "count"),
    "fluid1d.evolve.s": ("s", "lower", "time"),
    "fluid1d.step.calls": ("count", "lower", "count"),
    "fluid1d.step.self_s": ("s", "lower", "time"),
    "fluid1d.step.us_per_call": ("us", "lower", "time"),
    "fluid1d.rhs.calls": ("count", "lower", "count"),
    "fluid1d.rhs.self_s": ("s", "lower", "time"),
    "fluid1d.rhs.us_per_call": ("us", "lower", "time"),
    "fluid1d.auto_dt.calls": ("count", "lower", "count"),
    "fluid1d.auto_dt.self_s": ("s", "lower", "time"),
    "fluid1d.measure_frequency.self_s": ("s", "lower", "time"),
    "fluid1d.steps_per_period": ("1", "lower", "count"),
    "fluid1d.fft_calls_per_step": ("1", "lower", "count"),
    "fluid1d.fft_points_per_step": ("1", "lower", "count"),
    "fluid1d.SpectralDamping.tailored.s": ("s", "lower", "time"),
    "dispersion.general_omega_sq.calls": ("count", "lower", "count"),
    "dispersion.general_omega_sq.self_s": ("s", "lower", "time"),
    "traveling.integrate.calls": ("count", "lower", "count"),
    "traveling.integrate.s": ("s", "lower", "time"),
    "traveling.traveling_rhs.calls": ("count", "lower", "count"),
    "traveling.traveling_rhs.self_s": ("s", "lower", "time"),
    "traveling.traveling_rhs.us_per_call": ("us", "lower", "time"),
    "traveling.equilibrium_eigenvalues.calls": ("count", "lower", "count"),
    "traveling.equilibrium_eigenvalues.self_s": ("s", "lower", "time"),
    "traveling.stability_threshold.s": ("s", "lower", "time"),
    "traveling.classify_calls_per_threshold": ("1", "lower", "count"),
    "ode.integrate_adaptive.self_s": ("s", "lower", "time"),
    "ode.steps": ("count", "lower", "count"),
    "ode.rejected": ("count", "lower", "count"),
    "ode.accept_ratio": ("1", "higher", "count"),
    "ode.rhs_calls_per_step": ("1", "lower", "count"),
    "ode.us_per_step": ("us", "lower", "time"),
    "wigner.wigner_transform.calls": ("count", "lower", "count"),
    "wigner.wigner_transform.s": ("s", "lower", "time"),
    "wigner.wigner_transform.ns_per_point": ("ns", "lower", "time"),
    "wigner.kernel_mb_computed": ("MiB", "lower", "count"),
    "wigner.evolve_free_gaussian.s": ("s", "lower", "time"),
    "moments.compute_moments.calls": ("count", "lower", "count"),
    "moments.compute_moments.ns_per_node": ("ns", "lower", "time"),
    "moments.load_distribution_csv.s": ("s", "lower", "time"),
    "moments.load_distribution_csv.rows_per_s": ("1/s", "higher", "time"),
    "linear_response.delta_P.calls": ("count", "lower", "count"),
    "linear_response.delta_P.us_per_call": ("us", "lower", "time"),
    "csvio.write_csv.calls": ("count", "lower", "count"),
    "csvio.write_csv.s": ("s", "lower", "time"),
    "csvio.write_csv.rows": ("count", "lower", "count"),
    "csvio.write_csv.mb": ("MiB", "lower", "count"),
    "csvio.write_csv.rows_per_s": ("1/s", "higher", "time"),
    **{f"cli.main.{sub}.s": ("s", "lower", "time") for sub in CLI_SUBCOMMANDS},
    "cli.main.self_s": ("s", "lower", "time"),
    "trace.overhead_frac": ("1", "lower", "time"),
}


def _fft_points(args, kwargs) -> int:
    """Real samples transformed by an rfft call."""
    a = np.asarray(args[0])
    return int(a.size)


def _irfft_points(args, kwargs) -> int:
    """Real samples produced by an irfft call."""
    a = np.asarray(args[0])
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is None:
        n = 2 * (a.shape[-1] - 1)
    return int(n * (a.size // a.shape[-1]))


def _ode_result(tracer, idx, args, kwargs, result) -> None:
    tracer.counts["ode.steps"] += result.n_steps
    tracer.counts["ode.rejected"] += result.n_rejected


def _kernel_mib(wfg, v, x) -> float:
    """Size of the kernel (len(v) x n_s) and G (n_s x len(x)) complex matrices.

    Computed, not measured: n_s follows the s-grid sizing rule that
    ``wigner.wigner_transform`` applies to a wavefunction with an analytic
    amplitude, as the CLI passes it (m = hbar = 1).
    """
    amp = np.abs(wfg.psi)
    above = np.nonzero(amp > 1e-13 * float(np.max(amp)))[0]
    s_half = max(2.0 * float(wfg.x[above[-1]] - wfg.x[above[0]]), 8.0 * wfg.dx)
    kappa = float(np.max(np.abs(v)))
    ds = min(wfg.dx, 0.8 / max(kappa, 1.0 / s_half))
    n_s = int(2.0 * s_half / ds) | 1
    return 16.0 * n_s * (len(v) + len(x)) / 2**20


def _wigner_result(tracer, idx, args, kwargs, table) -> None:
    tracer.counts["wigner.points"] += len(table.x) * len(table.v)
    tracer.counts["wigner.kernel_mib"] += _kernel_mib(args[0], table.v, table.x)


def _moments_nodes(tracer, idx, args, kwargs, result) -> None:
    tracer.counts["moments.nodes"] += np.size(args[0])


def _distribution_rows(tracer, idx, args, kwargs, result) -> None:
    tracer.counts["moments.rows"] += np.size(result[0])


def _csv_written(tracer, idx, args, kwargs, result) -> None:
    tracer.counts["csvio.rows"] += len(np.atleast_1d(args[1][0][1]))
    tracer.counts["csvio.bytes"] += os.path.getsize(args[0])


def _cli_subcommand(tracer, idx, args, kwargs, result) -> None:
    argv = list(args[0])
    sub = "tw-" + argv[1] if argv[0] == "tw" else argv[0]
    tracer.counts[f"cli.main.{sub}.s"] += tracer.ends[idx] - tracer.starts[idx]


def install(tr) -> None:
    """Wrap every function the per-layer metrics need."""
    for attr in ("evolve", "step", "rhs", "auto_dt", "measure_frequency"):
        tr.span(fluid1d, attr, f"fluid1d.{attr}")
    tr.span(fluid1d.SpectralDamping, "tailored", "fluid1d.SpectralDamping.tailored")
    tr.count_calls(np.fft, "rfft", "fft", _fft_points)
    tr.count_calls(np.fft, "irfft", "fft", _irfft_points)
    tr.span(dispersion, "general_omega_sq", "dispersion.general_omega_sq")
    for attr in ("integrate", "traveling_rhs", "equilibrium_eigenvalues",
                 "classify_equilibrium", "stability_threshold"):
        tr.span(traveling, attr, f"traveling.{attr}")
    tr.span(traveling, "integrate_adaptive", "ode.integrate_adaptive", _ode_result)
    tr.span(wigner, "wigner_transform", "wigner.wigner_transform", _wigner_result)
    tr.span(wigner, "evolve_free_gaussian", "wigner.evolve_free_gaussian")
    tr.span(moments, "compute_moments", "moments.compute_moments", _moments_nodes)
    tr.span(moments, "load_distribution_csv", "moments.load_distribution_csv", _distribution_rows)
    tr.span(linear_response, "delta_P", "linear_response.delta_P")
    tr.span(cli, "write_csv", "csvio.write_csv", _csv_written)
    tr.span(cli, "main", "cli.main", _cli_subcommand)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tr, periods: float) -> dict[str, float]:
    """Every metric in METRICS except trace.overhead_frac, from one traced set-up and pass."""
    summary = tr.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name):
        return summary.get(name, zero)

    counts = tr.counts
    out: dict[str, float] = {}
    for name in ("fluid1d.evolve", "fluid1d.step", "fluid1d.rhs", "fluid1d.auto_dt",
                 "dispersion.general_omega_sq", "traveling.integrate",
                 "traveling.traveling_rhs", "traveling.equilibrium_eigenvalues",
                 "wigner.wigner_transform", "moments.compute_moments",
                 "linear_response.delta_P", "csvio.write_csv"):
        out[f"{name}.calls"] = span(name)["calls"]
    for name in ("fluid1d.evolve", "fluid1d.SpectralDamping.tailored", "traveling.integrate",
                 "traveling.stability_threshold", "wigner.wigner_transform",
                 "wigner.evolve_free_gaussian", "moments.load_distribution_csv",
                 "csvio.write_csv"):
        out[f"{name}.s"] = span(name)["s"]
    for name in ("fluid1d.step", "fluid1d.rhs", "fluid1d.auto_dt", "fluid1d.measure_frequency",
                 "dispersion.general_omega_sq", "traveling.traveling_rhs",
                 "traveling.equilibrium_eigenvalues", "ode.integrate_adaptive", "cli.main"):
        out[f"{name}.self_s"] = span(name)["self_s"]
    for name in ("fluid1d.step", "fluid1d.rhs", "traveling.traveling_rhs", "linear_response.delta_P"):
        out[f"{name}.us_per_call"] = 1e6 * _ratio(span(name)["s"], span(name)["calls"])

    steps = span("fluid1d.step")["calls"]
    out["fluid1d.steps_per_period"] = _ratio(steps, periods)
    out["fluid1d.fft_calls_per_step"] = _ratio(tr.counted_within("fluid1d.step", "fft.calls"), steps)
    out["fluid1d.fft_points_per_step"] = _ratio(tr.counted_within("fluid1d.step", "fft.size"), steps)

    in_threshold = tr.within("traveling.stability_threshold")
    classify = sum(1 for name, inside in zip(tr.names, in_threshold)
                   if inside and name == "traveling.classify_equilibrium")
    out["traveling.classify_calls_per_threshold"] = _ratio(
        classify, span("traveling.stability_threshold")["calls"])

    ode_steps, rejected = counts["ode.steps"], counts["ode.rejected"]
    in_ode = tr.within("ode.integrate_adaptive")
    ode_rhs = sum(1 for name, inside in zip(tr.names, in_ode)
                  if inside and name == "traveling.traveling_rhs")
    out["ode.steps"] = ode_steps
    out["ode.rejected"] = rejected
    out["ode.accept_ratio"] = _ratio(ode_steps, ode_steps + rejected)
    out["ode.rhs_calls_per_step"] = _ratio(ode_rhs, ode_steps + rejected)
    out["ode.us_per_step"] = 1e6 * _ratio(span("ode.integrate_adaptive")["s"], ode_steps)

    out["wigner.wigner_transform.ns_per_point"] = 1e9 * _ratio(
        span("wigner.wigner_transform")["s"], counts["wigner.points"])
    out["wigner.kernel_mb_computed"] = counts["wigner.kernel_mib"]
    out["moments.compute_moments.ns_per_node"] = 1e9 * _ratio(
        span("moments.compute_moments")["s"], counts["moments.nodes"])
    out["moments.load_distribution_csv.rows_per_s"] = _ratio(
        counts["moments.rows"], span("moments.load_distribution_csv")["s"])
    out["csvio.write_csv.rows"] = counts["csvio.rows"]
    out["csvio.write_csv.mb"] = counts["csvio.bytes"] / 2**20
    out["csvio.write_csv.rows_per_s"] = _ratio(counts["csvio.rows"], span("csvio.write_csv")["s"])
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}.s"] = counts[f"cli.main.{sub}.s"]
    return out
