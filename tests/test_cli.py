import contextlib
import io
import math
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfluid import dispersion, fluid1d, ode
from qfluid.cli import main
from qfluid.csvio import read_csv
from qfluid.moments import VelocityGrid, maxwellian, save_distribution_csv
from qfluid.params import nondimensional
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
    # a steepening wave outgrows any fixed step, so the message names the
    # cause instead of a dt
    assert run(tmp_path, ["fluid", "--amplitude", "0.5", "-o", "x.csv"]) == 3
    err = capsys.readouterr().err
    assert "steepen" in err and "at t = " in err and "max(|u| + |c - c0|) grew" in err
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


# option -> (values of a small, short run; values that should be refused or
# fail cleanly: 0, negatives, nan, inf, 1e308 and a step too small to finish)
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
}


@st.composite
def fluid_argv(draw):
    """A ``qfluid fluid`` argv with up to three options set to a spoiling value."""
    spoiled = draw(st.sets(st.sampled_from(sorted(FLUID_OPTIONS)), max_size=3))
    argv = ["fluid"]
    for name, (good, bad) in FLUID_OPTIONS.items():
        value = draw(st.sampled_from(bad if name in spoiled else good))
        if value is not None:
            argv.append(f"{name}={value}")
    return argv


@settings(max_examples=60, deadline=20_000)
@given(argv=fluid_argv())
def test_fluid_argv_fuzz_exits_with_a_documented_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(Path(tmp), argv + ["-o", "out.csv"])
        assert code in {0, 2, 3, 4}
        assert "Traceback" not in err.getvalue()
        if code:
            assert not list(Path(tmp).iterdir())


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
    assert traj.n_rhs == 1 + 6 * (traj.n_steps + traj.n_rejected)


def test_tw_stability_table(tmp_path):
    code = run(tmp_path, ["tw", "stability", "--H", "1,3", "-o", "st.csv"])
    assert code == 0
    _, cols = read_csv(tmp_path / "st.csv")
    assert list(cols["classification"]) == ["center-like", "unstable"]
    assert cols["max_real"][0] < 1e-8
    assert cols["max_real"][1] > 1e-3


def test_tw_threshold(tmp_path):
    code = run(tmp_path, ["tw", "threshold", "-o", "th.csv"])
    assert code == 0
    _, cols = read_csv(tmp_path / "th.csv")
    assert cols["h_crit"][0] == pytest.approx(2.0, abs=1e-6)


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


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert run(tmp_path, ["dispersion", "--relation", "wrong"]) == 2
    assert run(tmp_path, ["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [
    ["fluid", "--tmax", "-1"],
    ["fluid", "--tmax", "0"],
    ["fluid", "--dt", "0"],
    ["fluid", "--dt", "-0.01"],
    ["fluid", "--sample-every", "0"],
    ["fluid", "--mode", "200"],
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
    ["tw", "threshold", "--tol", "0"],
    ["tw", "threshold", "--tol", "-1"],
    ["tw", "threshold", "--tol", "nan"],
    ["tw", "run", "--tol", "0"],
    ["tw", "run", "--tol", "-1"],
    ["tw", "run", "--samples", "0"],
    ["tw", "run", "--samples", "-3"],
    ["fluid", "--periods", "0.1", "--protect-modes", "-5"],
    ["fluid", "--periods", "0.1", "--steepening-limit", "nan"],
    ["fluid", "--periods", "0.1", "--steepening-limit", "-1"],
    ["fluid", "--length", "inf", "--periods", "0.1"],
    ["fluid", "--length", "1e-300"],
    ["response", "--dphi", "nan"],
    ["response", "--dphi", "inf"],
    ["wigner", "--v-max", "1000", "--times", "6"],
    ["wigner", "--times", "0,-1", "--nx", "8", "--nv", "8"],
    ["wigner", "--times", "0,6", "--v-max", "1000"],
    ["wigner", "--times", "0,6", "--v-max", "40000", "--nx", "1", "--nv", "1"],
    ["wigner", "--times", "1e200", "--nx", "8", "--nv", "8"],
    ["tw", "run", "--v", "nan"],
    ["tw", "run", "--u0", "nan"],
    ["tw", "run", "--p0-scale", "nan"],
    ["tw", "run", "--u0", "1e200"],
    ["tw", "run", "--xi-max", "inf"],
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
    ["response", "--hbar", "1e155", "--kmin", "1e-10", "--kmax", "1e-9", "--n", "4"],
    ["tw", "threshold", "--h-lo", "3", "--h-hi", "0.5"],
    ["tw", "run", "--samples", "100000000000"],
    ["fluid", "--ic", "perturb", "--mode", "0", "--periods", "1", "--snapshot", "s.csv"],
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
], ids=" ".join)
def test_singular_launch_state_exits_3_without_traceback(tmp_path, capsys, argv):
    # the derivative matrix's norm cubed overflows: singular at the launch point
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
