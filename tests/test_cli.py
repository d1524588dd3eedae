import shlex

import numpy as np
import pytest

from qfluid.cli import main
from qfluid.csvio import read_csv
from qfluid.moments import VelocityGrid, maxwellian, save_distribution_csv
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
    ["tw", "stability", "--H", "1,x"],
    ["wigner", "--times", "0,x"],
], ids=" ".join)
def test_bad_run_input_exits_2_without_traceback(tmp_path, capsys, argv):
    assert run(tmp_path, argv + ["-o", "out.csv"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_si_preset_requires_density(tmp_path, capsys):
    code = run(tmp_path, ["dispersion", "--preset", "si-electron", "-o", "x.csv"])
    assert code == 2
    assert "n0" in capsys.readouterr().err


def test_io_error_exits_4(tmp_path):
    code = run(tmp_path, ["dispersion", "-o", "missing_dir/out.csv"])
    assert code == 4
