import contextlib
import dataclasses
import io
import math
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfluid import dispersion, fluid1d, ode, wigner
from qfluid.cli import main
from qfluid.csvio import read_csv
from qfluid.moments import VelocityGrid, maxwellian, save_distribution_csv
from qfluid.params import PlasmaParams, nondimensional, preset
from qfluid.traveling import integrate, reference_oscillation_state, wave_frame_config
from qfluid.wigner import analytic_wigner


def run(tmp_path, argv):
    """Run the CLI from inside tmp_path (outputs are relative)."""
    import os
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(argv)
    finally:
        os.chdir(cwd)


def test_dispersion_sweep_first_row_is_plasma_frequency(tmp_path):
    code = run(tmp_path, ["dispersion", "--relation", "general", "--kmin", "0",
                          "--kmax", "2", "--n", "101", "-o", "disp.csv"])
    assert code == 0
    cmd, cols = read_csv(tmp_path / "disp.csv")
    assert cmd.startswith("qfluid dispersion")
    assert len(cols["k"]) == 101
    assert cols["omega_sq"][0] == 1.0
    assert cols["omega"][0] == 1.0
    assert cols["relation_tag"][0] == "general"
    assert np.all(np.diff(cols["omega_sq"]) >= 0)


def test_dispersion_comparison_mode_emits_all_relations(tmp_path):
    code = run(tmp_path, ["dispersion", "--relation", "all", "--kmin", "0.1",
                          "--kmax", "1", "--n", "16", "--tpar", "0.2",
                          "-o", "all.csv"])
    assert code == 0
    _, cols = read_csv(tmp_path / "all.csv")
    names = {"omega_sq_general", "omega_sq_quantum_langmuir", "omega_sq_bohm_gross",
             "omega_sq_adiabatic", "omega_sq_temperature_closure"}
    assert names <= set(cols)
    assert np.array_equal(cols["omega_sq_bohm_gross"],
                          3 * 0.2 * cols["k"] ** 2 + 1.0)


def test_output_is_deterministic(tmp_path):
    argv = ["dispersion", "--kmax", "3", "--n", "64", "-o", "a.csv"]
    assert run(tmp_path, argv) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert run(tmp_path, argv) == 0
    assert (tmp_path / "a.csv").read_bytes() == first


def test_header_command_reruns_identically(tmp_path):
    argv = ["dispersion", "--relation", "quantum-langmuir", "--kmax", "2",
            "--n", "32", "--hbar", "0.7", "-o", "out.csv"]
    assert run(tmp_path / "first" if (tmp_path / "first").mkdir() is None else tmp_path,
               argv) == 0
    cmd, _ = read_csv(tmp_path / "first" / "out.csv")
    assert cmd.startswith("qfluid ")
    rerun_argv = shlex.split(cmd)[1:]
    second = tmp_path / "second"
    second.mkdir()
    assert run(second, rerun_argv) == 0
    assert (second / "out.csv").read_bytes() == (tmp_path / "first" / "out.csv").read_bytes()


def test_response_sweep_reports_anisotropy(tmp_path):
    code = run(tmp_path, ["response", "--kmin", "0.5", "--kmax", "1.5", "--n", "8",
                          "--p-iso", "1.0", "--hbar", "0", "-o", "resp.csv"])
    assert code == 0
    _, cols = read_csv(tmp_path / "resp.csv")
    assert np.allclose(cols["dP_zz"] / cols["dP_xx"], 3.0, rtol=1e-12)
    assert np.all(cols["dP_xy"] == 0.0)


def test_fluid_run_writes_probe_and_snapshot(tmp_path):
    code = run(tmp_path, ["fluid", "--grid", "64", "--periods", "1",
                          "--amplitude", "1e-6", "--tpar", "0.05",
                          "--hbar", "0.2", "-o", "probe.csv",
                          "--snapshot", "snap.csv"])
    assert code == 0
    _, probe = read_csv(tmp_path / "probe.csv")
    assert {"t", "n_mode_re", "u_mode_re", "p_mode_re", "Q_mode_re",
            "mean_n"} <= set(probe)
    assert len(probe["t"]) > 10
    _, snap = read_csv(tmp_path / "snap.csv")
    assert {"x", "n", "u", "p", "Q", "phi"} <= set(snap)
    assert len(snap["x"]) == 64
    assert np.mean(snap["n"]) == pytest.approx(1.0, rel=1e-10)


def test_fluid_cfl_violation_exits_3(tmp_path):
    code = run(tmp_path, ["fluid", "--grid", "64", "--periods", "1",
                          "--dt", "10.0", "-o", "x.csv"])
    assert code == 3


def test_fluid_steepening_failure_names_its_cause(tmp_path, capsys):
    # the step halves to follow a steepening wave until its velocity gradient
    # passes the steepening limit, so the message names that cause, not a dt
    assert run(tmp_path, ["fluid", "--amplitude", "0.1", "-o", "x.csv"]) == 3
    err = capsys.readouterr().err
    assert "velocity gradient exceeded 100.0 omega_p" in err and "at t = 11.4" in err
    assert "suggested dt" not in err
    assert not list(tmp_path.iterdir())


def test_fluid_breaking_wave_exits_3_without_a_step_size(tmp_path, capsys):
    # a wave this large empties a trough before it steepens past the limit
    assert run(tmp_path, ["fluid", "--amplitude", "0.5", "-o", "x.csv"]) == 3
    err = capsys.readouterr().err
    assert "density reached n <= 0" in err
    assert "suggested dt" not in err
    assert not list(tmp_path.iterdir())


def test_fluid_header_reports_its_steps(tmp_path):
    argv = ["fluid", "--grid", "64", "--periods", "1", "--tpar", "0.05", "--hbar", "0.2",
            "-o", "probe.csv"]
    assert run(tmp_path, argv) == 0
    first = (tmp_path / "probe.csv").read_bytes()
    assert run(tmp_path, argv) == 0
    assert (tmp_path / "probe.csv").read_bytes() == first
    params = nondimensional(hbar=0.2, T0_par=0.05)
    grid = fluid1d.Grid1D(64, 2.0 * np.pi)
    omega = math.sqrt(float(dispersion.general_omega_sq(grid.k_fundamental, params)))
    reference = fluid1d.evolve(fluid1d.eigenmode_state(grid, params, 1, 1e-6), params,
                               2.0 * np.pi / omega,
                               damping=fluid1d.SpectralDamping.tailored(grid, params))
    line = (f"# steps: taken={reference.n_steps}, dt={reference.dt!r}, "
            f"dt_bound={reference.dt_bound}, halvings={reference.n_halvings}")
    assert line in first.decode().splitlines()
    assert reference.dt * reference.n_steps == pytest.approx(reference.t[-1], rel=1e-12)


def probe_series(path, name):
    """Complex probe coefficients of field ``name`` from a ``fluid`` CSV."""
    _, cols = read_csv(path)
    return cols["t"], cols[f"{name}_mode_re"] + 1j * cols[f"{name}_mode_im"]


def test_default_fluid_run_keeps_its_eigenmode(tmp_path):
    # the filter damps only the companion pair, so the default eigenmode
    # keeps its amplitude and the omega measured from the CSV is the
    # predicted one.  Measured: 7.1e-11 of the amplitude, omega within 3.0e-5
    # (the zero-crossing fit at 19 samples per period)
    assert run(tmp_path, ["fluid", "-o", "probe.csv"]) == 0
    text = (tmp_path / "probe.csv").read_text()
    omega = float(re.search(r"omega_predicted=(\S+)", text).group(1))
    assert "halvings=0" in text
    t, n = probe_series(tmp_path / "probe.csv", "n")
    assert np.max(np.abs(n - 1e-6 * np.exp(-1j * omega * t))) < 1e-9 * 1e-6
    measured = fluid1d.measure_frequency(t, n.real)
    assert abs(measured - omega) < 1e-4 * omega


def test_si_twin_of_the_default_fluid_run_is_the_same_run(tmp_path):
    # the si-electron preset at n0 = 1e28 on L = 2 pi l, l = sqrt(hbar/(m omega_p)),
    # is the nondim default run in other units: t by 1/omega_p, n by n0 and u
    # by omega_p l.  Measured: 2.1e-12 of the amplitude in n, 1.8e-12 in u; a
    # companion pair left to grow from rounding noise makes them differ by 0.47
    si = preset("si-electron", n0=1e28)
    ell = math.sqrt(si.hbar / (si.m * si.omega_p))
    assert run(tmp_path, ["fluid", "--preset", "si-electron", "--n0", "1e28",
                          "--length", repr(2.0 * math.pi * ell), "-o", "si.csv"]) == 0
    assert run(tmp_path, ["fluid", "-o", "nondim.csv"]) == 0
    for name, scale in (("n", si.n0), ("u", si.omega_p * ell)):
        t_si, z_si = probe_series(tmp_path / "si.csv", name)
        t, z = probe_series(tmp_path / "nondim.csv", name)
        assert len(t) == len(t_si) == 192
        assert np.max(np.abs(t_si * si.omega_p - t)) < 1e-12 * t[-1]
        assert np.max(np.abs(z_si / scale - z)) < 1e-9 * abs(z[0])


@pytest.mark.parametrize("argv", [
    ["--grid", "64", "--periods", "100"],
    ["--ic", "perturb", "--ic-fields", "n,u"],
    ["--amplitude", "0.01"],
    ["--amplitude", "0.05"],
], ids=" ".join)
def test_fluid_runs_to_the_end_without_halving(tmp_path, argv):
    # the filter must damp the companion pair at the probe mode too: left
    # undamped, it grows from rounding noise until each of these exits 3
    assert run(tmp_path, ["fluid", *argv, "-o", "probe.csv"]) == 0
    assert "halvings=0" in (tmp_path / "probe.csv").read_text()


# option -> (values of a small, short run; values that should be refused or
# fail cleanly: 0, negatives, nan, inf, 1e308, tiny and huge scales, a step
# too small to finish and the filter off); True is a bare flag
FLUID_OPTIONS = {
    "--grid": (["8", "16", "32"], ["0", "-8", "7", "nan", "1e308"]),
    "--periods": (["0.2", "1"], ["0", "-1", "nan", "inf", "1e308"]),
    "--tpar": ([None, "0", "0.01", "0.1"], ["-1", "nan", "inf", "1e308"]),
    "--hbar": ([None, "0", "0.3", "1"], ["-0.5", "nan", "inf", "1e308"]),
    "--amplitude": ([None, "1e-6", "1e-2"], ["0", "0.5", "2", "-1e-3", "nan", "inf",
                                            "1e308", "-1e308"]),
    "--dt": ([None, "0.05"], ["0.5", "1e-300", "5e-324", "0", "-0.1", "nan", "inf",
                              "1e308"]),
    "--mode": ([None, "1", "2"], ["9", "0", "-1", "nan", "1e308"]),
    "--no-stabilize": ([None], [True]),
    "--n0": ([None, "0.5", "4"], ["0", "-1", "nan", "inf", "1e-200", "1e200", "1e308"]),
    "--length": ([None, "1", "20"], ["0", "-1", "nan", "inf", "1e-300", "1e200", "1e308"]),
}


@st.composite
def spoiled_argv(draw, command, options):
    """A ``qfluid <command>`` argv with up to three options set to a spoiling
    value; a value of True is a bare flag and None leaves the option out."""
    spoiled = draw(st.sets(st.sampled_from(sorted(options)), max_size=3))
    argv = command.split()
    for name, (good, bad) in options.items():
        value = draw(st.sampled_from(bad if name in spoiled else good))
        if value is True:
            argv.append(name)
        elif value is not None:
            argv.append(f"{name}={value}")
    return argv


def assert_documented_exit(argv):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(Path(tmp), argv + ["-o", "out.csv"])
        assert code in {0, 2, 3, 4}
        assert "Traceback" not in err.getvalue()
        if code:
            assert not list(Path(tmp).iterdir())


@settings(max_examples=60, deadline=20_000)
@given(argv=spoiled_argv("fluid", FLUID_OPTIONS))
@example(argv=["fluid", "--grid", "16", "--periods", "0.2", "--n0", "1e-200", "--length", "1e200"])
@example(argv=["fluid", "--grid", "16", "--periods", "0.2", "--no-stabilize", "--hbar", "1e153"])
def test_fluid_argv_fuzz_exits_with_a_documented_code(argv):
    assert_documented_exit(argv)


# option -> (values of a small run; values that should be refused or fail
# cleanly: 0, negatives, nan, inf, 1e308 and an empty list)
WIGNER_OPTIONS = {
    "--times": (["0", "6", "0,2", "1.5,0"], ["", "-1", "0,-2", "nan", "inf", "1e308"]),
    "--x-max": ([None, "1", "4"], ["0", "-1", "nan", "inf", "1e308"]),
    "--v-max": ([None, "0.5", "4"], ["0", "-1", "nan", "inf", "1e308"]),
    "--nx": (["1", "4", "16"], ["0", "-3", "nan", "1e308"]),
    "--nv": (["1", "4", "16"], ["0", "-3", "nan", "1e308"]),
    "--npsi": (["64", "128"], ["0", "1", "-4", "16", "nan", "1e308"]),
}


@settings(max_examples=40, deadline=2_000)
@given(argv=spoiled_argv("wigner", WIGNER_OPTIONS))
def test_wigner_argv_fuzz_exits_with_a_documented_code(argv):
    assert_documented_exit(argv)


# plasma parameters shared by the sweeps: good values, then 0 where it is
# unphysical, negatives, nan, inf and 1e308
PARAM_OPTIONS = {
    "--n0": ([None, "1", "2.5"], ["0", "-1", "nan", "inf", "1e308"]),
    "--hbar": ([None, "0", "0.5"], ["-0.5", "nan", "inf", "1e308"]),
    "--tpar": ([None, "0", "0.1"], ["-1", "nan", "inf", "1e308"]),
    "--tperp": ([None, "0.1", "1"], ["-1", "nan", "inf", "1e308"]),
}
# k ranges: kmin = 5 above the default kmax = 2, or kmax below kmin, reverses one
DISPERSION_OPTIONS = {
    "--relation": ([None, "all", "bohm-gross", "adiabatic"], ["all"]),
    "--kmin": ([None, "0.1", "1"], ["-1", "5", "nan", "inf", "1e308"]),
    "--kmax": ([None, "3"], ["0", "-1", "nan", "inf", "1e308"]),
    "--n": (["4", "32"], ["0", "1", "-4", "nan", "1e308"]),
    "--log": ([None, True], [True]),
    "--gamma": ([None, "1.4"], ["0", "-1", "nan", "inf", "1e308"]),
    **PARAM_OPTIONS,
}
RESPONSE_OPTIONS = {
    "--kmin": ([None, "0.5"], ["0", "-1", "5", "nan", "inf", "1e308"]),
    "--kmax": ([None, "3"], ["0", "-1", "nan", "inf", "1e308"]),
    "--n": (["4", "32"], ["0", "1", "-4", "nan", "1e308"]),
    "--dphi": ([None, "0.5", "-2"], ["nan", "inf", "1e308"]),
    "--p-iso": ([None, "0", "1"], ["-1", "nan", "inf", "1e308"]),
    **PARAM_OPTIONS,
}


@settings(max_examples=40, deadline=2_000)
@given(argv=spoiled_argv("dispersion", DISPERSION_OPTIONS))
def test_dispersion_argv_fuzz_exits_with_a_documented_code(argv):
    assert_documented_exit(argv)


@settings(max_examples=40, deadline=2_000)
@given(argv=spoiled_argv("response", RESPONSE_OPTIONS))
def test_response_argv_fuzz_exits_with_a_documented_code(argv):
    assert_documented_exit(argv)


# wave-frame runs: --xi-max <= 5 and --samples <= 64 keep each example short;
# --u0 stays O(1) among the good values, since the wavelength scales with it.
# --tol draws no good value above 1e-6: at 1e-5 and looser a run that
# reaches the singular set creeps along it to the step cap (about 26 s),
# which test_traveling.py's strict xfail records
TW_RUN_OPTIONS = {
    "--H": ([None, "0", "1", "1.8", "2.5"], ["-1", "nan", "inf", "1e308"]),
    "--u0": ([None, "1", "-1.5"], ["0", "1e-200", "1e-160", "nan", "inf", "1e308"]),
    "--v": ([None, "0.2", "-0.7"], ["nan", "inf", "1e308", "-1e308"]),
    "--density-ratio": ([None, "0.7", "0.95"], ["0", "-1", "1e-300", "nan", "inf", "1e308"]),
    "--p0-scale": ([None, "0", "0.5"], ["-1", "1e200", "nan", "inf", "1e308"]),
    "--xi-max": (["1", "5"], ["0", "-1", "nan", "inf"]),
    "--tol": ([None, "1e-6", "1e-8"], ["0", "-1", "nan", "inf", "1e308", "1e-320", "5e-324"]),
    "--samples": (["16", "64"], ["0", "-4", "2000000", "nan"]),
}
TW_STABILITY_OPTIONS = {
    "--H": ([None, "1.5", "0,1,3", "2.1,0.5"], ["", "1,x", "-1", "nan", "inf", "1e308"]),
    "--u0": ([None, "1", "2"], ["0", "1e-200", "1e-160", "nan", "inf", "1e308"]),
    "--p0": ([None, "0", "0.5"], ["-1", "nan", "inf", "1e308"]),
}


@settings(max_examples=25, deadline=2_000)
@given(argv=spoiled_argv("tw run", TW_RUN_OPTIONS))
def test_tw_run_argv_fuzz_exits_with_a_documented_code(argv):
    assert_documented_exit(argv)


@settings(max_examples=25, deadline=2_000)
@given(argv=spoiled_argv("tw stability", TW_STABILITY_OPTIONS))
def test_tw_stability_argv_fuzz_exits_with_a_documented_code(argv):
    assert_documented_exit(argv)


def test_unfiltered_fluid_failure_names_the_filter(tmp_path, capsys):
    # without the filter the companion branch grows from rounding noise at
    # any dt, so the message must point at --no-stabilize, not at dt alone
    assert run(tmp_path, ["fluid", "--no-stabilize", "-o", "x.csv"]) == 3
    err = capsys.readouterr().err
    assert "--no-stabilize" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_tw_run_reproduces_reference_oscillations(tmp_path):
    code = run(tmp_path, ["tw", "run", "--H", "1", "--xi-max", "30",
                          "-o", "tw.csv"])
    assert code == 0
    _, cols = read_csv(tmp_path / "tw.csv")
    assert {"xi", "n", "u", "p", "Q", "phi", "E"} <= set(cols)
    assert cols["n"][0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert cols["u"][0] == pytest.approx(1.5, rel=1e-12)
    assert np.max(cols["n"]) < 3.0       # bounded
    assert np.min(cols["n"]) > 0.3
    assert np.max(np.abs(cols["E"])) > 0.01  # field actually oscillates


def test_tw_run_header_reports_its_steps(tmp_path):
    argv = ["tw", "run", "--H", "1", "--xi-max", "20", "-o", "tw.csv"]
    assert run(tmp_path, argv) == 0
    first = (tmp_path / "tw.csv").read_bytes()
    assert run(tmp_path, argv) == 0
    assert (tmp_path / "tw.csv").read_bytes() == first
    cfg = wave_frame_config(1.0)
    traj = integrate(reference_oscillation_state(cfg, density_ratio=2.0 / 3.0), cfg, 20.0)
    assert traj.completed
    line = (f"# steps: accepted={traj.n_steps}, rejected={traj.n_rejected}, "
            f"rhs_calls={traj.n_rhs}")
    assert line in first.decode().splitlines()
    momentum_drift, energy_drift = traj.flux_drifts()
    line = (f"# invariants: momentum_flux_drift={momentum_drift:.3e}, "
            f"energy_flux_drift={energy_drift:.3e}")
    assert line in first.decode().splitlines()
    # f at the start, the starting-step probe, 11 calls per attempt, one
    # more per accepted step and 3 per step that held a sample
    interpolant = traj.n_rhs - (2 + 12 * traj.n_steps + 11 * traj.n_rejected)
    assert interpolant % 3 == 0 and traj.n_steps - 1 <= interpolant // 3 <= traj.n_steps


def test_tw_run_flux_drift_that_overflows_reads_nan(tmp_path):
    # u ~ 1e118 passes the launch checks, but m n0 u0 u^2 overflows
    argv = ["tw", "run", "--H", "0", "--p0-scale", "0", "--v", "1e118", "--u0", "1e102",
            "--xi-max", "1", "--samples", "8", "-o", "tw.csv"]
    assert run(tmp_path, argv) == 0
    lines = (tmp_path / "tw.csv").read_text().splitlines()
    assert "# invariants: momentum_flux_drift=0.000e+00, energy_flux_drift=nan" in lines


def test_tw_stability_table(tmp_path):
    code = run(tmp_path, ["tw", "stability", "--H", "1,3", "-o", "st.csv"])
    assert code == 0
    _, cols = read_csv(tmp_path / "st.csv")
    assert list(cols["classification"]) == ["center-like", "unstable"]
    assert cols["max_real"][0] < 1e-8
    assert cols["max_real"][1] > 1e-3


def test_tw_stability_far_above_the_boundary(tmp_path, capsys):
    # the closed form needs no solve, so no singular-matrix guard can misfire
    # where 1 - H^2/4 is large; H = 2 itself is singular, exit 3
    assert run(tmp_path, ["tw", "stability", "--H", "2001,1e200", "--u0", "3",
                          "-o", "st.csv"]) == 0
    _, cols = read_csv(tmp_path / "st.csv")
    assert list(cols["classification"]) == ["unstable", "unstable"]
    assert np.all(cols["max_real"] > 0.0)
    assert run(tmp_path, ["tw", "stability", "--H", "2", "-o", "h2.csv"]) == 3
    assert "H = 2" in capsys.readouterr().err
    assert not (tmp_path / "h2.csv").exists()


def test_wigner_panels(tmp_path):
    code = run(tmp_path, ["wigner", "--times", "0,2", "--nx", "32", "--nv", "32",
                          "--npsi", "512", "-o", "wig.csv"])
    assert code == 0
    for t in (0, 2):
        _, cols = read_csv(tmp_path / f"wig_t{t}.csv")
        expected = analytic_wigner(cols["x_bar"], cols["v_bar"], float(t))
        assert np.max(np.abs(cols["f_bar"] - expected)) < 1e-8


def test_moments_subcommand(tmp_path):
    g = VelocityGrid.uniform(1, 8.0, 64)
    f = maxwellian(g, density=1.5, temperature=0.7)
    save_distribution_csv(tmp_path / "dist.csv", f, g)
    code = run(tmp_path, ["moments", "--input", "dist.csv", "-o", "mom.csv"])
    assert code == 0
    _, cols = read_csv(tmp_path / "mom.csv")
    table = dict(zip(cols["component"], cols["value"]))
    assert float(table["n"]) == pytest.approx(1.5, rel=1e-9)
    assert float(table["P_xx"]) == pytest.approx(1.5 * 0.7, rel=1e-8)


def _v3_outermost(header, rows):
    return [header] + [rows[i] for i in np.arange(len(rows)).reshape(8, 8, 8).T.ravel()]


# name -> (spoil (header, rows) -> lines, what the error names); the first
# case is a valid file
DISTRIBUTION_SPOILERS = {
    "comment lines": (lambda h, rows: ["# command: qfluid demo", h, *rows[:5], "# a note",
                                       *rows[5:]], None),
    "header only": (lambda h, rows: [h], "need at least 8 nodes, got 0"),
    "text cell": (lambda h, rows: [h, "x" + rows[0][rows[0].index(","):], *rows[1:]],
                  "column 'v1' must hold finite numbers"),
    "ragged row": (lambda h, rows: [h, *rows[:7], rows[7].rsplit(",", 1)[0], *rows[8:]],
                   "one value per header column"),
    "v3 outermost": (_v3_outermost, "row-major order"),
    "a node twice": (lambda h, rows: [h, rows[0], rows[0], *rows[2:]], "row-major order"),
    "unknown header": (lambda h, rows: ["u1,u2,u3,f", *rows], "expected v,f or v1,v2,v3,f"),
    "text f column": (lambda h, rows: [h, *(r.rsplit(",", 1)[0] + ",high" for r in rows)],
                      "column 'f' must hold finite numbers"),
    "nan f value": (lambda h, rows: [h, rows[0].rsplit(",", 1)[0] + ",nan", *rows[1:]],
                    "column 'f' must hold finite numbers"),
}


def write_distribution(directory, spoiler=None):
    """dist.csv: a Maxwellian on an 8^3 grid, spoiled by ``spoiler`` if given."""
    g = VelocityGrid.uniform(3, 6.0, 8)
    save_distribution_csv(directory / "dist.csv", maxwellian(g, 1.0, 1.0), g)
    if spoiler is not None:
        header, *rows = (directory / "dist.csv").read_text().splitlines()
        lines = DISTRIBUTION_SPOILERS[spoiler][0](header, rows)
        (directory / "dist.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("spoiler", list(DISTRIBUTION_SPOILERS)[1:])
def test_bad_moments_input_exits_2_without_traceback(tmp_path, capsys, spoiler):
    write_distribution(tmp_path, spoiler)
    assert run(tmp_path, ["moments", "--input", "dist.csv", "-o", "out.csv"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert DISTRIBUTION_SPOILERS[spoiler][1] in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["dist.csv"]


def test_moments_input_may_carry_comment_lines(tmp_path):
    write_distribution(tmp_path)
    assert run(tmp_path, ["moments", "--input", "dist.csv", "-o", "plain.csv"]) == 0
    write_distribution(tmp_path, "comment lines")
    assert run(tmp_path, ["moments", "--input", "dist.csv", "-o", "commented.csv"]) == 0
    plain, commented = ((tmp_path / name).read_text().splitlines()[1:]
                        for name in ("plain.csv", "commented.csv"))
    assert commented == plain


# option -> values: unset, usable, then 0, negatives, nan, inf and 1e308
PARAM_VALUES = {
    "--preset": [None, "nondim", "si-electron"],
    "--n0": [None, "2.5", "0", "-1", "nan", "inf", "1e308"],
    "--hbar": [None, "0.5", "0", "-0.5", "nan", "inf", "1e308"],
    "--tpar": [None, "0.1", "0", "-1", "nan", "inf", "1e308"],
    "--tperp": [None, "0.1", "0", "-1", "nan", "inf", "1e308"],
}


@st.composite
def moments_case(draw):
    """A spoiler for the input file (or None) and a ``qfluid moments`` argv."""
    spoiler = draw(st.sampled_from([None, *DISTRIBUTION_SPOILERS]))
    argv = ["moments", "--input", "dist.csv"]
    for name, values in PARAM_VALUES.items():
        value = draw(st.sampled_from(values))
        if value is not None:
            argv.append(f"{name}={value}")
    return spoiler, argv


@settings(max_examples=60, deadline=20_000)
@given(case=moments_case())
def test_moments_argv_fuzz_exits_with_a_documented_code(case):
    spoiler, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        write_distribution(Path(tmp), spoiler)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(Path(tmp), argv + ["-o", "out.csv"])
        assert code in {0, 2, 3, 4}
        assert "Traceback" not in err.getvalue()
        if code:
            assert [p.name for p in Path(tmp).iterdir()] == ["dist.csv"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "plasma.cfg"
    cfg.write_text("preset = nondim\nT0_par = 0.1\nhbar = 0\n")
    run(tmp_path, ["dispersion", "--relation", "bohm-gross", "--config",
                   str(cfg), "--kmin", "0", "--kmax", "1", "--n", "2",
                   "-o", "c1.csv"])
    run(tmp_path, ["dispersion", "--relation", "bohm-gross", "--config",
                   str(cfg), "--tpar", "0.2", "--kmin", "0", "--kmax", "1",
                   "--n", "2", "-o", "c2.csv"])
    _, c1 = read_csv(tmp_path / "c1.csv")
    _, c2 = read_csv(tmp_path / "c2.csv")
    assert c1["omega_sq"][1] == pytest.approx(1.0 + 3 * 0.1)
    assert c2["omega_sq"][1] == pytest.approx(1.0 + 3 * 0.2)  # flag wins


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = nondim\nvelocity = 3\n")
    code = run(tmp_path, ["dispersion", "--config", str(cfg), "-o", "x.csv"])
    assert code == 2
    assert "velocity" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dispersion", "response", "fluid", "moments"])
def test_config_whose_plasma_frequency_overflows_exits_2(tmp_path, capsys, command):
    # e^2 overflows a float: a config error, not an OverflowError traceback
    (tmp_path / "big.cfg").write_text("preset = nondim\ne = 1e200\n")
    argv = [command, "--config", "big.cfg", "-o", "x.csv"]
    if command == "moments":
        write_distribution(tmp_path)
        argv += ["--input", "dist.csv"]
    inputs = sorted(p.name for p in tmp_path.iterdir())
    assert run(tmp_path, argv) == 2
    err = capsys.readouterr().err
    assert "derived plasma frequency is not finite" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


# config key -> (values of a valid file; spoiling values: 0, a negative, nan,
# inf, tiny and huge magnitudes, nothing and text); None leaves the key out
CONFIG_SPOILERS = ["0", "-1", "nan", "inf", "1e-200", "1e200", "1e308", "", "fast"]
CONFIG_KEYS = {
    "preset": (["nondim"], [None, "si-electron", "cgs", ""]),
    **{f.name: ([None, "1", "0.5"], CONFIG_SPOILERS) for f in dataclasses.fields(PlasmaParams)},
}
# lines that are not a known key=value: an unknown key, no '=', bytes that
# are not UTF-8, a comment
CONFIG_JUNK = [b"charge = 2", b"just some words", b"hbar \xff= 1", b"\xfe\xff",
               b"# comment = 1"]


@st.composite
def config_file(draw):
    """Config file bytes with up to three keys spoiled and maybe one junk line."""
    spoiled = draw(st.sets(st.sampled_from(sorted(CONFIG_KEYS)), max_size=3))
    lines = [f"{key} = {value}".encode() for key, (good, bad) in CONFIG_KEYS.items()
             if (value := draw(st.sampled_from(bad if key in spoiled else good))) is not None]
    lines += draw(st.lists(st.sampled_from(CONFIG_JUNK), max_size=1))
    return b"\n".join(draw(st.permutations(lines)))


@settings(max_examples=40, deadline=2_000)
@given(text=config_file())
@example(text=b"preset = nondim\ne = 1e200")
@example(text=b"preset = nondim\nm = 1e200")
@example(text=b"preset = nondim\nm = 1e308")
@example(text=b"preset = nondim\nm = 1e250")
@example(text=b"preset = nondim\nn0 = 1e200")
@example(text=b"preset = nondim\nn0 = 1e-200")
def test_config_file_fuzz_exits_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plasma.cfg"
        path.write_bytes(text)
        assert_documented_exit(["dispersion", "--relation", "all", "--config", str(path)])
        assert_documented_exit(["fluid", "--grid", "16", "--periods", "0.2", "--config", str(path)])


def test_heavy_particle_config_runs_the_fluid(tmp_path, capsys, recwarn):
    # m^2 = 1e400 overflows a float, but the run steps in plasma units,
    # where m = 1e200 is hbar/(m omega_p) = 1e-100 and no parameter is squared
    (tmp_path / "heavy.cfg").write_text("preset = nondim\nm = 1e200\n")
    assert run(tmp_path, ["fluid", "--config", "heavy.cfg", "-o", "heavy.csv"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert (tmp_path / "heavy.csv").exists()


def test_light_particle_config_exits_3_on_the_steepening_limit(tmp_path, capsys, recwarn):
    # in plasma units m = 1e-200 is hbar/(m omega_p) = 1e100: the mode
    # oscillates at ~7e49 omega_p, so its velocity gradient passes the
    # default --steepening-limit of 100 omega_p at the first step
    (tmp_path / "light.cfg").write_text("preset = nondim\nm = 1e-200\n")
    assert run(tmp_path, ["fluid", "--config", "light.cfg", "-o", "light.csv"]) == 3
    err = capsys.readouterr().err
    assert "velocity gradient exceeded 100.0 omega_p" in err and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "light.csv").exists()


def test_wigner_times_that_share_a_file_name_are_both_named(tmp_path, capsys):
    argv = ["wigner", "--times", "0.1234561,0.1234562", "--nx", "4", "--nv", "4", "-o", "w.csv"]
    assert run(tmp_path, argv) == 2
    assert "--times 0.1234561 and 0.1234562 would both write w_t0.123456.csv" in capsys.readouterr().err


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert run(tmp_path, ["dispersion", "--relation", "wrong"]) == 2
    assert run(tmp_path, ["no-such-command"]) == 2
    # the stability table is closed-form: no tolerance to set
    assert run(tmp_path, ["tw", "stability", "--tol", "0"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_line_break_in_the_command_exits_2_without_a_file(tmp_path, capsys):
    # the command goes into the header line, which read_csv could not parse back
    assert run(tmp_path, ["dispersion", "--n", "3", "-o", "a\nb.csv"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "line break" in err
    assert not list(tmp_path.iterdir())


def test_wigner_checks_every_panel_before_it_computes_one(tmp_path, capsys, monkeypatch):
    # the t_bar = 0 panel fits the workspace, the t_bar = 6 one does not
    transforms = []
    monkeypatch.setattr(wigner, "wigner_transform", lambda *a, **k: transforms.append(a))
    assert run(tmp_path, ["wigner", "--times", "0,6", "--v-max", "1000", "-o", "w.csv"]) == 2
    assert "MiB workspace" in capsys.readouterr().err
    assert transforms == []
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["fluid", "--tmax", "-1"],
    ["fluid", "--tmax", "0"],
    ["fluid", "--dt", "0"],
    ["fluid", "--dt", "-0.01"],
    ["fluid", "--sample-every", "0"],
    ["fluid", "--mode", "200"],
    ["fluid", "--grid", "16", "--mode", "6"],
    ["fluid", "--grid", "16", "--periods", "0.2", "--n0", "1e-200", "--length", "1e200"],
    ["fluid", "--grid", "16", "--periods", "0.2", "--no-stabilize", "--hbar", "1e153"],
    ["dispersion", "--relation", "all", "--log", "--kmin", "0"],
    ["dispersion", "--relation", "all", "--kmin", "2", "--kmax", "1"],
    ["response", "--n", "0"],
    ["response", "--kmin", "2", "--kmax", "1", "--n", "4"],
    ["tw", "stability", "--H", "1,x"],
    ["wigner", "--times", "0,x"],
    ["wigner", "--times", "nan"],
    ["wigner", "--nv", "0"],
    ["wigner", "--npsi", "0"],
    ["wigner", "--nx", "0"],
    ["wigner", "--x-max", "-1"],
    ["wigner", "--v-max", "0"],
    ["tw", "run", "--tol", "0"],
    ["tw", "run", "--tol", "-1"],
    ["tw", "run", "--samples", "0"],
    ["tw", "run", "--samples", "-3"],
    ["fluid", "--periods", "0.1", "--steepening-limit", "nan"],
    ["fluid", "--periods", "0.1", "--steepening-limit", "-1"],
    ["fluid", "--length", "inf", "--periods", "0.1"],
    ["fluid", "--length", "1e-300"],
    ["response", "--dphi", "nan"],
    ["response", "--dphi", "inf"],
    ["wigner", "--v-max", "1000", "--times", "6"],
    ["wigner", "--times", "0,-1", "--nx", "8", "--nv", "8"],
    ["wigner", "--times", "0,6", "--v-max", "1000"],
    ["wigner", "--times", "0,6", "--v-max", "80000", "--nx", "1", "--nv", "1"],
    ["wigner", "--times", "1e200", "--nx", "8", "--nv", "8"],
    ["wigner", "--x-max", "1e308", "--nx", "8", "--nv", "8"],
    ["wigner", "--v-max", "1e308", "--nx", "8", "--nv", "8"],
    ["wigner", "--x-max", "1e160", "--nx", "4", "--nv", "4"],
    ["wigner", "--npsi", "16", "--nx", "4", "--nv", "4"],
    ["wigner", "--times", "1.3e154", "--nx", "4", "--nv", "4"],
    ["wigner", "--times", "0.1234561,0.1234562", "--nx", "4", "--nv", "4"],
    ["wigner", "--times", "2,2", "--nx", "4", "--nv", "4"],
    ["wigner", "--times", "0", "--nx", "20000", "--nv", "20000"],
    ["tw", "run", "--v", "nan"],
    ["tw", "run", "--u0", "nan"],
    ["tw", "run", "--p0-scale", "nan"],
    ["tw", "run", "--u0", "1e200"],
    ["tw", "run", "--u0", "1e-160"],
    ["tw", "run", "--xi-max", "inf"],
    ["tw", "stability", "--H", "1.9", "--u0", "1e-160"],
    ["tw", "stability", "--p0", "nan", "--H", "1"],
    ["tw", "stability", "--p0", "-5", "--H", "1"],
    ["response", "--p-iso", "nan"],
    ["response", "--p-iso", "inf"],
    ["response", "--p-iso", "-1"],
    ["dispersion", "--kmax", "inf"],
    ["response", "--kmax", "inf"],
    ["dispersion", "--relation", "adiabatic", "--gamma", "inf"],
    ["fluid", "--amplitude", "nan"],
    ["fluid", "--amplitude", "inf"],
    ["dispersion", "--n", "100000000000"],
    ["dispersion", "--kmax", "1e200", "--n", "4"],
    ["response", "--kmax", "1e200", "--n", "4"],
    ["response", "--p-iso", "1e308", "--n", "4"],
    ["response", "--n0", "2.5", "--tpar", "1e308", "--n", "4"],
    ["response", "--hbar", "1e155", "--kmin", "1e-10", "--kmax", "1e-9", "--n", "4"],
    ["tw", "run", "--samples", "100000000000"],
    ["tw", "run", "--tol", "1e-320", "--xi-max", "1", "--samples", "4"],
    ["tw", "run", "--tol", "5e-324", "--xi-max", "1", "--samples", "4"],
    ["fluid", "--ic", "perturb", "--mode", "0", "--periods", "1", "--snapshot", "s.csv"],
    ["fluid", "--grid", "16", "--tpar", "1e300", "--periods", "0.2"],
    ["fluid", "--grid", "16", "--tpar", "1e300", "--amplitude", "1e-30", "--periods", "0.2"],
], ids=" ".join)
def test_bad_run_input_exits_2_without_traceback(tmp_path, capsys, argv):
    assert run(tmp_path, argv + ["-o", "out.csv"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_wave_frame_step_underflow_writes_a_partial_trajectory(tmp_path):
    # like a sonic halt: exit 0 with the rows reached and a # halted: line
    assert run(tmp_path, ["tw", "run", "--H", "2.5", "--density-ratio", "0.95",
                          "-o", "tw.csv"]) == 0
    lines = (tmp_path / "tw.csv").read_text().splitlines()
    assert any(line.startswith("# halted: step size underflow") for line in lines)
    _, cols = read_csv(tmp_path / "tw.csv")
    assert len(cols["xi"]) >= 2


def test_wave_frame_step_limit_writes_a_partial_trajectory(tmp_path, monkeypatch):
    # a span too long to finish (--xi-max 1e300) halts at the integrator's
    # step cap, here lowered so the test is quick
    monkeypatch.setattr(ode, "_MAX_STEPS", 200)
    assert run(tmp_path, ["tw", "run", "--xi-max", "1e300", "-o", "tw.csv"]) == 0
    text = (tmp_path / "tw.csv").read_text()
    accepted, rejected = re.search(r"# steps: accepted=(\d+), rejected=(\d+)", text).groups()
    assert int(accepted) + int(rejected) == 200
    assert "\n# halted: step limit of 200 attempts reached at x = " in text
    _, cols = read_csv(tmp_path / "tw.csv")
    assert len(cols["xi"]) == 2 and 0.0 < cols["xi"][-1] < 100.0


@pytest.mark.parametrize("argv", [
    ["tw", "run", "--p0-scale", "1e200"],
    ["tw", "run", "--density-ratio", "1e-300"],
    ["tw", "run", "--density-ratio", "inf"],
    ["tw", "run", "--v", "1e308"],
], ids=" ".join)
def test_singular_launch_state_exits_3_without_traceback(tmp_path, capsys, argv):
    # singular at the launch point: the derivative matrix's norm cubed
    # overflows, or u0 / ratio is lost next to v, a launch at u = v
    assert run(tmp_path, argv + ["-o", "out.csv"]) == 3
    err = capsys.readouterr().err
    assert "no step from the launch state" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sub", ["dispersion", "response"])
def test_infinite_kmax_is_named_without_warnings(tmp_path, capsys, recwarn, sub):
    assert run(tmp_path, [sub, "--kmax", "inf", "-o", "out.csv"]) == 2
    assert "k_max" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


OVERFLOWING_SWEEPS = [
    (["dispersion", "--kmax", "1e200", "--n", "4"], "omega^2 is not finite at k = 3.33"),
    (["dispersion", "--relation", "all", "--kmax", "1e200", "--n", "4"], "at k = 3.33"),
    (["response", "--kmax", "1e200", "--n", "4"], "omega^2 is not finite at k = 3.33"),
    (["response", "--p-iso", "1e308", "--n", "4"], "pressure response overflows at k = 0.1"),
    (["dispersion", "--n", "100000000000"], "262144-point sweep limit"),
    (["fluid", "--amplitude", "1e308"], "amplitude 1e+308"),
    (["fluid", "--ic", "perturb", "--ic-fields", "u", "--amplitude", "1e308"], "amplitude 1e+308"),
]


@pytest.mark.parametrize("argv, named", OVERFLOWING_SWEEPS,
                         ids=[" ".join(argv) for argv, _ in OVERFLOWING_SWEEPS])
def test_overflowing_sweep_is_named_without_warnings(tmp_path, capsys, recwarn, argv, named):
    assert run(tmp_path, argv + ["-o", "out.csv"]) == 2
    assert named in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_infinite_xi_max_is_named_without_warnings(tmp_path, capsys, recwarn):
    assert run(tmp_path, ["tw", "run", "--xi-max", "inf", "-o", "out.csv"]) == 2
    assert "xi_max" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_tiny_fluid_domain_is_named_in_the_error(tmp_path, capsys):
    assert run(tmp_path, ["fluid", "--length", "1e-300", "-o", "out.csv"]) == 2
    assert "domain of length 1e-300" in capsys.readouterr().err


def test_si_preset_requires_density(tmp_path, capsys):
    code = run(tmp_path, ["dispersion", "--preset", "si-electron", "-o", "x.csv"])
    assert code == 2
    assert "n0" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["nondim", "si-electron"])
def test_config_and_preset_are_exclusive(tmp_path, capsys, name):
    (tmp_path / "nd.cfg").write_text("preset = nondim\n")
    argv = ["dispersion", "--config", "nd.cfg", "--preset", name, "--n0", "1e28", "-o", "x.csv"]
    assert run(tmp_path, argv) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["nd.cfg"]


def test_config_file_must_be_complete_on_its_own(tmp_path, capsys):
    # a flag overrides a key of the file but cannot supply a missing one
    (tmp_path / "si.cfg").write_text("preset = si-electron\nT0_par = 300\n")
    assert run(tmp_path, ["dispersion", "--config", "si.cfg", "--n0", "1e28", "-o", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "requires n0" in err


def test_io_error_exits_4(tmp_path):
    code = run(tmp_path, ["dispersion", "-o", "missing_dir/out.csv"])
    assert code == 4
