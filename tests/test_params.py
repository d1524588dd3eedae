import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfluid.errors import ConfigError
from qfluid.params import (PRESETS, PlasmaParams, load_params_config, nondimensional,
                           parse_params_config, preset, si_electron)
from qfluid.traveling import WaveFrameConfig

# frozen from a 50-digit evaluation of sqrt(e^2 n0 / (m eps0)) with CODATA values
OMEGA_P_N0_1E28 = 5.641460231180627578e15
# frozen from hbar * omega_p / (m u0^2) at n0 = 1e28, u0 = 1e6 m/s
H_SI_U0_1E6 = 0.6530985148369309


def test_unit_parameters_give_unit_plasma_frequency():
    p = nondimensional()
    assert p.omega_p == 1.0


def test_omega_p_square_root_scaling():
    p = nondimensional()
    p4 = p.with_(n0=4.0 * p.n0)
    assert p4.omega_p == pytest.approx(2.0 * p.omega_p, rel=1e-15)


def test_omega_p_si_electron_against_frozen_oracle():
    p = si_electron(n0=1e28)
    assert p.omega_p == pytest.approx(OMEGA_P_N0_1E28, rel=1e-15)


def test_wave_frame_H_si_against_frozen_oracle():
    cfg = WaveFrameConfig(v=0.0, u0=1e6, params=si_electron(n0=1e28))
    assert cfg.H == pytest.approx(H_SI_U0_1E6, rel=1e-15)


@given(n0=st.floats(1e-3, 1e9), hbar=st.floats(1e-6, 1e3), u0=st.floats(1e-4, 1e4))
def test_h_two_evaluation_routes_agree(n0, hbar, u0):
    p = nondimensional(hbar=hbar, n0=n0)
    direct = hbar * math.sqrt(p.e**2 * n0 / (p.m * p.eps0)) / (p.m * u0**2)
    via_omega_p = hbar * p.omega_p / (p.m * u0**2)
    H = WaveFrameConfig(v=0.0, u0=u0, params=p).H
    assert H == pytest.approx(direct, rel=1e-14)
    assert H == pytest.approx(via_omega_p, rel=1e-14)


def test_params_are_immutable():
    p = nondimensional()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.n0 = 2.0


@pytest.mark.parametrize("bad", [
    dict(n0=-1.0), dict(n0=0.0), dict(m=0.0), dict(e=-2.0),
    dict(eps0=0.0), dict(T0_par=-0.1), dict(hbar=-1.0),
    dict(n0=float("nan")), dict(m=float("inf")),
    # omega_p out of range: e^2 overflows; m eps0 overflows (omega_p = 0)
    # or underflows to 0
    dict(e=1e200), dict(m=1e200, eps0=1e200), dict(m=1e-200, eps0=1e-200),
])
def test_invalid_parameters_rejected(bad):
    base = dict(n0=1.0, m=1.0, e=1.0, eps0=1.0, hbar=1.0)
    base.update(bad)
    with pytest.raises(ConfigError):
        PlasmaParams(**base)


def test_classical_limit_hbar_zero_is_allowed():
    assert nondimensional(hbar=0.0).hbar == 0.0


def test_config_preset_with_overrides():
    p = parse_params_config("""
        # comment line
        preset = nondim
        hbar = 0.5   # inline comment
        T0_par = 0.25
    """)
    assert p.hbar == 0.5
    assert p.T0_par == 0.25
    assert p.e == 1.0 and p.kB == 1.0


def test_config_si_preset():
    p = parse_params_config("preset = si-electron\nn0 = 1e28\n")
    assert p.omega_p == pytest.approx(OMEGA_P_N0_1E28, rel=1e-15)


def test_preset_replaces_fields():
    assert preset("nondim") == nondimensional()
    assert preset("nondim", hbar=0.5, T0_par=0.1) == nondimensional(hbar=0.5, T0_par=0.1)
    assert preset("si-electron", n0=1e28, T0_par=300.0) == si_electron(1e28).with_(T0_par=300.0)
    assert set(PRESETS) == {"nondim", "si-electron"}


def test_preset_rejects_unknown_names_and_si_without_density():
    with pytest.raises(ConfigError, match="unknown preset 'cgs'"):
        preset("cgs")
    with pytest.raises(ConfigError, match="requires n0"):
        preset("si-electron", hbar=1.0)


def test_config_si_preset_requires_density():
    # the density has no SI default: n0 = 1 m^-3 would give omega_p = 56.4 rad/s
    with pytest.raises(ConfigError, match="requires n0"):
        parse_params_config("preset = si-electron\nT0_par = 300\n")
    with pytest.raises(ConfigError, match="unknown preset 'cgs'"):
        parse_params_config("preset = cgs\n")


def test_config_unknown_key_fails_fast():
    with pytest.raises(ConfigError, match="unknown key 'charge'"):
        parse_params_config("preset = nondim\ncharge = 2\n")


def test_config_manual_entry_requires_all_fields():
    with pytest.raises(ConfigError, match="missing"):
        parse_params_config("n0 = 1\nm = 1\n")


def test_config_manual_entry_complete():
    text = "\n".join(f"{k} = 1.0" for k in
                     ("n0", "m", "e", "eps0", "hbar", "T0_par", "T0_perp", "kB"))
    p = parse_params_config(text)
    assert p.omega_p == 1.0


def test_config_non_numeric_value():
    with pytest.raises(ConfigError, match="non-numeric"):
        parse_params_config("preset = nondim\nhbar = fast\n")


def test_config_bad_line():
    with pytest.raises(ConfigError, match="key=value"):
        parse_params_config("just some words\n")


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "plasma.cfg"
    path.write_bytes(b"preset = nondim\nhbar = \xff\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_params_config(path)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "plasma.cfg"
    path.write_text("preset = nondim\nhbar = 2.0\n")
    assert load_params_config(path).hbar == 2.0
