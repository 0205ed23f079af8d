import json
import math
import os

import numpy as np
import pytest

import atomoptomech as am
from atomoptomech import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_defaults_without_file(self, monkeypatch):
        monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
        p = cli.build_params(_Namespace())
        assert p.omega_m == pytest.approx(2 * math.pi * 4e7)
        assert p.kappa == pytest.approx(2 * math.pi * 2.5e6)
        assert p.gamma_a == pytest.approx(20 * p.kappa)
        assert p.gamma_m == pytest.approx(1e-3 * p.omega_m)
        assert p.n_atoms == 1e7
        assert p.delta == pytest.approx(-p.omega_m)
        assert p.cavity_length == 1e-3
        assert p.mirror_mass == 1e-13
        assert p.temperature == 0.0

    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# nothing but a comment\n\n")
        p = cli.build_params(_Namespace(config=str(cfg)))
        assert p == am.SystemParams()

    def test_file_then_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_atoms = 1e6\ntemperature = 0.5  # kelvin\n")
        ns = _Namespace(config=str(cfg), temperature=0.25)
        p = cli.build_params(ns)
        assert p.n_atoms == 1e6
        assert p.temperature == 0.25

    def test_missing_output_dir_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "spectrum", "--case", "1", "--g", "25", "--points", "3",
            "--out", str(tmp_path / "nosuchdir" / "x.csv"),
        )
        assert code == cli.EXIT_CONFIG

    def test_scaled_flags(self):
        p = cli.build_params(_Namespace(g=50.0, delta=-1.0, gamma_a=10.0, gamma_m=2e-3))
        assert p.coupling_G == pytest.approx(50 * p.kappa)
        assert p.delta == pytest.approx(-p.omega_m)
        assert p.gamma_a == pytest.approx(10 * p.kappa)
        assert p.gamma_m == pytest.approx(2e-3 * p.omega_m)

    def test_malformed_number_names_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kappa = fast\n")
        with pytest.raises(cli.ConfigError, match="kappa"):
            cli.parse_config_file(str(cfg))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("cavity_finesse = 1e4\n")
        with pytest.raises(cli.ConfigError, match="cavity_finesse"):
            cli.parse_config_file(str(cfg))

    def test_env_var_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("n_atoms = 12345\n")
        monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
        p = cli.build_params(_Namespace())
        assert p.n_atoms == 12345

    def test_case_preset(self):
        p = cli.build_params(_Namespace(case="2.5"))
        assert p.delta_r == 2.5 and p.gamma_r == 2.5

    def test_wavelength_flag(self):
        p = cli.build_params(_Namespace(wavelength=780e-9))
        assert p.omega_c == pytest.approx(2 * math.pi * 299792458.0 / 780e-9)


class _Namespace:
    """argparse.Namespace stand-in returning None for unset flags."""

    def __init__(self, **kw):
        self.__dict__.update(kw)

    def __getattr__(self, name):
        return None


class TestSteadyCommand:
    def test_json_record(self, capsys):
        code, out, err = run_cli(capsys, "steady", "--case", "1", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["excitation"] == pytest.approx(0.2545, abs=0.002)
        assert rec["p_s"] == 0.0
        assert rec["residual"] <= 1e-10

    def test_case_2p5_reports_both_branches(self, capsys):
        code, out, err = run_cli(capsys, "steady", "--case", "2.5", "--json")
        assert code == 0
        assert json.loads(out)["branch_count"] == 2

    def test_no_root_is_a_numeric_failure(self, capsys):
        code, out, err = run_cli(capsys, "steady", "--delta-r", "1e200", "--json")
        assert code == cli.EXIT_NUMERIC
        assert "numeric failure" in err
        assert "Traceback" not in err + out

    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "steady", "--case", "8")
        assert code == 0
        assert "|beta|^2" in out
        assert "branches" in out

    def test_config_error_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kappa = nope\n")
        code, out, err = run_cli(capsys, "steady", "--config", str(cfg))
        assert code == cli.EXIT_CONFIG
        assert "kappa" in err


class TestSpectrumCommand:
    def test_csv_structure_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        common = ["spectrum", "--case", "1", "--g", "25", "--g", "50",
                  "--points", "21", "--omega-min", "0.9", "--omega-max", "1.1"]
        code, _, _ = run_cli(capsys, *common, "--out", str(out1))
        assert code == 0
        code, _, _ = run_cli(capsys, *common, "--out", str(out2))
        assert code == 0
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        lines = b1.decode().splitlines()
        assert lines[0] == "omega_over_omega_m,s_out_g25,s_out_g50"
        assert len(lines) == 22
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.9)

    def test_zero_frequency_at_finite_temperature(self, capsys):
        # omega = 0 at T > 0 takes the finite limit of the thermal weight
        code, out, err = run_cli(
            capsys, "spectrum", "--temperature", "1e-3", "--omega-min", "0",
            "--points", "5", "--g", "25",
        )
        assert code == 0 and err == ""
        first = out.splitlines()[1].split(",")
        assert float(first[0]) == 0.0
        assert math.isfinite(float(first[1]))

    def test_svg_written(self, capsys, tmp_path):
        svg = tmp_path / "plot.svg"
        code, _, _ = run_cli(
            capsys, "spectrum", "--case", "2.5", "--g", "50", "--points", "11",
            "--svg", str(svg), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text
        assert "omega / omega_m" in text and "S_out" in text


class TestEntangleCommand:
    def test_csv_columns(self, capsys, tmp_path):
        out = tmp_path / "e.csv"
        code, _, _ = run_cli(
            capsys, "entangle", "--case", "1", "--g", "25",
            "--delta-min", "0.8", "--delta-max", "1.6", "--points", "9",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta_over_omega_m,stable,e_n,nu"
        assert len(lines) == 10
        row = lines[1].split(",")
        assert row[1] in ("true", "false")


class TestReproduceCommand:
    def test_fig2_panel_set(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "reproduce", "fig2", "--outdir", str(tmp_path),
            "--points", "15",
        )
        assert code == 0
        for tag in "abc":
            csv = tmp_path / f"fig2{tag}.csv"
            assert csv.exists()
            lines = csv.read_text().splitlines()
            assert lines[0].count(",") == 4  # x column + 4 coupling columns
            assert len(lines) == 16
            assert (tmp_path / f"fig2{tag}.svg").exists()

    def test_fig3_fig4_panel_sets(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "reproduce", "fig3", "--outdir", str(tmp_path), "--points", "7",
        )
        assert code == 0
        for tag in "ab":
            lines = (tmp_path / f"fig3{tag}.csv").read_text().splitlines()
            assert lines[0] == "delta_over_omega_m,e_n_case1,e_n_case8"
            assert len(lines) == 8
        code, _, _ = run_cli(
            capsys, "reproduce", "fig4", "--outdir", str(tmp_path), "--points", "7",
        )
        assert code == 0
        for tag in "ab":
            lines = (tmp_path / f"fig4{tag}.csv").read_text().splitlines()
            assert lines[0].startswith("delta_over_omega_m,e_n_n1e")
            assert len(lines) == 8


class TestVerifyCommand:
    def test_default_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--points", "40")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_seed_independent(self, capsys):
        code1, _, _ = run_cli(capsys, "verify", "--seed", "42", "--points", "25")
        code2, _, _ = run_cli(capsys, "verify", "--seed", "43", "--points", "25")
        assert code1 == 0 and code2 == 0

    def test_perturbed_closed_form_fails(self):
        # mutation sanity: a deliberately perturbed coefficient must trip
        # the equivalence check
        from atomoptomech.selfcheck import check_transfer_equivalence

        def perturbed(params, couplings, ss, omega):
            t = am.transfer_closed_form(params, couplings, ss, omega)
            from dataclasses import replace

            return replace(t, c_c=t.c_c * (1.0 + 1e-6))

        name, passed, detail = check_transfer_equivalence(
            n_points=10, seed=7, closed_form=perturbed
        )
        assert not passed
