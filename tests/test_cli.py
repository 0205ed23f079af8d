import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import atomoptomech as am
from atomoptomech import cli
from atomoptomech import svg as svg_module
from atomoptomech.svg import line_plot


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Each command run small, writing its files (if any) into the working
# directory.
RUN_ARGV = {
    "steady": ["steady"],
    "spectrum": ["spectrum", "--points", "3", "--out", "s.csv", "--svg", "s.svg"],
    "entangle": ["entangle", "--points", "3", "--out", "e.csv", "--svg", "e.svg"],
    "reproduce": ["reproduce", "all", "--points", "3", "--outdir", "out"],
    "verify": ["verify", "--points", "1"],
}


class TestConfig:
    def test_defaults_without_file(self):
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

    def test_environment_names_no_config(self, capsys, tmp_path, monkeypatch):
        # a run's parameters come from its argv alone: ATOMOPTOMECH_CONFIG,
        # naming a file with another mirror mass or naming nothing, changes
        # no output, message, exit code or file
        cfg = tmp_path / "env.cfg"
        cfg.write_text("mirror_mass = 2e-13\n")
        for argv in (["steady", "--json"], RUN_ARGV["spectrum"], RUN_ARGV["entangle"]):
            runs = []
            for value in (None, str(cfg), str(tmp_path / "gone.cfg")):
                if value is None:
                    monkeypatch.delenv("ATOMOPTOMECH_CONFIG", raising=False)
                else:
                    monkeypatch.setenv("ATOMOPTOMECH_CONFIG", value)
                work = tmp_path / f"{argv[0]}{len(runs)}"
                work.mkdir()
                monkeypatch.chdir(work)
                result = run_cli(capsys, *argv)
                runs.append((result, {f.name: f.read_bytes() for f in work.iterdir()}))
            assert runs[0][0][0] == cli.EXIT_OK
            assert runs[1] == runs[0] and runs[2] == runs[0], argv

    def test_repeated_key_is_config_error(self, capsys, tmp_path):
        # a later line may not silently overwrite an earlier one
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("delta_r = 2\n# a comment\ndelta_r = 3\n")
        code, out, err = run_cli(capsys, "steady", "--config", str(cfg))
        assert code == cli.EXIT_CONFIG and out == ""
        assert err == f"config error: {cfg}:3: key 'delta_r' already set on line 1\n"

    def test_missing_explicit_config_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "steady", "--config", str(tmp_path / "gone.cfg"))
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error:")

    def test_case_preset(self, tmp_path):
        p = cli.build_params(_Namespace(case="2.5"))
        assert p.delta_r == 2.5 and p.gamma_r == 2.5
        # a flag overrides the file, --case included
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta_r = 3\ngamma_r = 4\n")
        p = cli.build_params(_Namespace(config=str(cfg), case="8"))
        assert p.delta_r == 8.0 and p.gamma_r == 8.0

    # omega_c is the one input for the cavity frequency, so a wavelength
    # is refused whatever its value, and never reaches a division
    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_bad_wavelength_flag_is_config_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["steady", "--wavelength", value])
        assert exc.value.code == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and f"error: unrecognized arguments: --wavelength {value}" in err

    @pytest.mark.parametrize("value", ["1e-6", "0", "-1", "inf", "nan"])
    def test_bad_wavelength_in_config_file_is_config_error(self, capsys, tmp_path, value):
        cfg = tmp_path / "wl.cfg"
        cfg.write_text(f"wavelength = {value}\n")
        code, out, err = run_cli(capsys, "steady", "--config", str(cfg))
        assert code == cli.EXIT_CONFIG and out == ""
        assert err == f"config error: {cfg}:1: unknown key 'wavelength'\n"

    @pytest.mark.parametrize("command", ["steady", "spectrum", "entangle"])
    @pytest.mark.parametrize("flag", ["--delta-r", "--gamma-r"])
    def test_case_refuses_the_fields_it_sets(self, capsys, tmp_path, monkeypatch, command, flag):
        # --case sets delta_r and gamma_r, so neither flag may be
        # overwritten by it: a configuration error, and no file written
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *RUN_ARGV[command], "--case", "1", flag, "3")
        assert code == cli.EXIT_CONFIG and out == ""
        assert err == f"config error: --case sets delta_r and gamma_r; drop {flag} or --case\n"
        assert list(tmp_path.iterdir()) == []


# The SI flags by argparse dest, which is the SystemParams field each sets.
SI_FLAGS = (
    "omega_m", "kappa", "n_atoms", "delta_r", "gamma_r", "cavity_length", "mirror_mass",
    "omega_c", "temperature",
)


class TestParamTable:
    def test_every_field_is_a_config_key(self, tmp_path):
        keys = [f.name for f in dataclasses.fields(am.SystemParams)]
        assert {"gamma_a", "gamma_m", "delta"} <= set(keys)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k} = 0.75\n" for k in keys))
        values = cli.parse_config_file(str(cfg))
        assert sorted(values) == sorted(keys)
        p = cli.build_params(_Namespace(config=str(cfg)))
        assert p == am.SystemParams(**{k: 0.75 for k in keys})

    def test_readme_lists_exactly_the_config_keys(self):
        # the first sentence after "fields:" in the README's "Config files"
        # paragraph names exactly the SystemParams fields
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        paragraph = text.split("### Config files\n\n", 1)[1].split("\n\n", 1)[0]
        listed = " ".join(paragraph.split()).split("fields:", 1)[1].split(".", 1)[0]
        names = re.findall(r"`(\w+)`", listed)
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(am.SystemParams))

    def test_one_flag_per_field(self):
        # no field has a second flag that could silently overwrite the first
        keys = [key for _, key, _, _ in cli.PARAM_FLAGS]
        assert len(keys) == len(set(keys)) == len(dataclasses.fields(am.SystemParams))

    @pytest.mark.parametrize("dest", SI_FLAGS)
    def test_si_flag_sets_its_field(self, dest):
        p = cli.build_params(_Namespace(**{dest: 0.75}))
        assert p == am.SystemParams().replace(**{dest: 0.75})

    @pytest.mark.parametrize(
        "dest, field, scale",
        [
            ("g", "coupling_G", "kappa"),
            ("gamma_a", "gamma_a", "kappa"),
            ("gamma_m", "gamma_m", "omega_m"),
            ("delta", "delta", "omega_m"),
        ],
    )
    def test_scaled_flag_is_taken_after_the_si_flags(self, dest, field, scale, tmp_path):
        # the scale is the SI flag's value, else the file's; the scaled
        # flag beats the file's value of its own field
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{scale} = 7.0\n{field} = 11.0\n")
        ns = _Namespace(config=str(cfg), **{dest: -1.5, scale: 3.0})
        assert getattr(cli.build_params(ns), field) == -1.5 * 3.0
        ns = _Namespace(config=str(cfg), **{dest: -1.5})
        assert getattr(cli.build_params(ns), field) == -1.5 * 7.0

    def test_a_flag_beats_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_c = 1e15\n")
        assert cli.build_params(_Namespace(config=str(cfg))).omega_c == 1e15
        assert cli.build_params(_Namespace(config=str(cfg), omega_c=2e15)).omega_c == 2e15


# A command takes no flag for a field it sets itself: spectrum sweeps G
# (its own repeatable --g), entangle sweeps delta, and reproduce sets G,
# delta, delta_r and gamma_r for every panel.  No command takes a second
# flag for a field: G is --g in units of kappa, and the cavity frequency is
# --omega-c.
REMOVED_FLAGS = [
    ("entangle", "--delta", "0.7"),
    ("reproduce", "--g", "60"),
    ("reproduce", "--delta", "0.5"),
    ("reproduce", "--delta-r", "2"),
    ("reproduce", "--gamma-r", "2"),
    ("reproduce", "--case", "8"),
] + [
    (command, flag, value)
    for command in RUN_ARGV
    for flag, value in (("--coupling-g", "1e8"), ("--wavelength", "1e-6"))
]


@pytest.mark.parametrize(
    "command, flag, value", REMOVED_FLAGS, ids=[f"{c}{f}" for c, f, _ in REMOVED_FLAGS]
)
def test_removed_flag_exits_2_and_writes_nothing(capsys, tmp_path, monkeypatch, command, flag,
                                                  value):
    # the full flag must not be read as a kept flag it prefixes
    # (entangle --delta as --delta-min, say): argparse rejects it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(RUN_ARGV[command] + [flag, value])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {flag} {value}" in err or (
        f"error: ambiguous option: {flag} could match" in err
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--case", "2.5", "--omega-min", "0.5", "--omega-max", "1.5", "--points",
         "3", "--g", "25", "--g", "50", "--g", "75", "--g", "100"],
        ["entangle", "--case", "1", "--g", "25", "--delta-min", "0", "--delta-max", "3",
         "--points", "3"],
    ],
    ids=["spectrum", "entangle"],
)
def test_benchmark_argv_still_parse(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_OK and err == ""
    assert len(out.splitlines()) == 4


USAGE = "usage: atomoptomech [-h] {steady,spectrum,entangle,reproduce,verify} ..."

# command -> (the fields it sets itself, or None for no parameter flags;
# its own flags)
COMMAND_FLAGS = {
    "steady": ((), ["--json"]),
    "spectrum": (("coupling_G",),
                 ["--g", "--omega-min", "--omega-max", "--points", "--out", "--svg"]),
    "entangle": (("delta",), ["--delta-min", "--delta-max", "--points", "--out", "--svg"]),
    "reproduce": (("coupling_G", "delta", "delta_r", "gamma_r"), ["--outdir", "--points"]),
    "verify": (None, ["--seed", "--points"]),
}


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv) + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestParser:
    # main adds flags only to the invoked command's parser; every command
    # must still be listed, and each must get all of its flags

    def test_top_level_help_lists_every_command(self, capsys):
        out = _help(capsys)
        assert out.startswith(USAGE + "\n")
        for name, (help_text, _, _) in cli.COMMANDS.items():
            assert re.search(rf"^    {name} +{re.escape(help_text)}$", out, re.M), name
        assert list(cli.COMMANDS) == list(COMMAND_FLAGS)

    @pytest.mark.parametrize("argv", [["--nope"], ["steady", "--nope"], ["nope"]])
    def test_usage_line_names_every_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines()[0] == USAGE

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_command_help_names_all_its_flags(self, capsys, command):
        sets, own = COMMAND_FLAGS[command]
        want = {"--help", *own}
        if sets is not None:
            want |= {"--config"} | {
                "--" + dest.lower().replace("_", "-")
                for dest, key, _, _ in cli.PARAM_FLAGS if key not in sets
            }
            if "delta_r" not in sets:
                want.add("--case")
        out = _help(capsys, command)
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == want


def _moved_value(key: str, unit: str) -> str:
    """Twice a parameter flag's default, in the flag's unit, or 1 where the
    default is 0."""
    p = am.SystemParams()
    default = getattr(p, key)
    if unit != "SI":
        default /= getattr(p, unit)
    return repr(2.0 * default or 1.0)


SWEPT_FLAGS = [
    (command, "--" + dest.lower().replace("_", "-"), _moved_value(key, unit))
    for command in ("spectrum", "entangle")
    for dest, key, unit, _ in cli.PARAM_FLAGS
    if key not in COMMAND_FLAGS[command][0]
]


@pytest.mark.parametrize(
    "command, flag, value", SWEPT_FLAGS, ids=[f"{c}{f}" for c, f, _ in SWEPT_FLAGS]
)
def test_no_parameter_flag_is_ignored(capsys, command, flag, value):
    # a flag a command takes must reach its output: moving it off its
    # default moves some cell of the CSV
    code, base, err = run_cli(capsys, command, "--points", "5")
    assert code == cli.EXIT_OK and err == ""
    code, moved, err = run_cli(capsys, command, "--points", "5", flag, value)
    assert code == cli.EXIT_OK and err == ""
    assert moved != base


@pytest.mark.parametrize("command", ["steady", "spectrum", "entangle", "reproduce"])
def test_phonon_number_flag_is_gone(capsys, tmp_path, monkeypatch, command):
    # the bath is set by --temperature alone; the thermal phonon number is
    # worked out from it
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            cli.main(RUN_ARGV[command] + ["--n-thermal", "3"])
    assert exc.value.code == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "error: unrecognized arguments: --n-thermal 3" in err
    assert list(tmp_path.iterdir()) == []


def test_phonon_number_config_key_is_gone(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_thermal = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "steady", "--config", str(cfg))
    assert code == cli.EXIT_CONFIG and out == ""
    assert err == f"config error: {cfg}:1: unknown key 'n_thermal'\n"


THERMAL_OVERFLOW = "thermal noise weight overflows at temperature = 1e+300 K"
ROOT_OVERFLOW = "excitation root beta overflows at delta_r = 1e+200, gamma_r = 1"


@pytest.mark.parametrize(
    "argv, err_line",
    [
        (["entangle", "--out", "e.csv"], f"numeric failure: {THERMAL_OVERFLOW}"),
        # the root is solved before the drift, so its overflow is named first
        (["entangle", "--delta-r", "1e200", "--out", "e.csv"],
         f"numeric failure: {ROOT_OVERFLOW}"),
        (["reproduce", "fig3"], f"error: fig3 failed: OverflowError: {THERMAL_OVERFLOW}"),
        (["reproduce", "fig4"], f"error: fig4 failed: OverflowError: {THERMAL_OVERFLOW}"),
    ],
    ids=["entangle", "entangle-no-root", "fig3", "fig4"],
)
def test_overflowing_thermal_weight_fails_the_drift_too(capsys, tmp_path, monkeypatch, argv,
                                                        err_line):
    # the drift's phonon diffusion reads the same thermal weight as the
    # spectrum, so entangle and the entanglement panels fail as spectrum
    # and fig2 do, with no NumPy warning and no file written
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv, "--temperature", "1e300", "--points", "5")
    assert code == cli.EXIT_NUMERIC and out == ""
    assert err == err_line + "\n"
    assert list(tmp_path.iterdir()) == []


def test_hot_mirror_below_the_overflow_runs_clean(capsys):
    # from about 1e74 K the fourth powers of the covariance leave the
    # double range; the symplectic eigenvalue takes them in power-of-two
    # units, so the stable rows keep a finite nu and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "entangle", "--temperature", "5e299", "--points", "3")
    assert code == cli.EXIT_OK and err == ""
    row = out.splitlines()[1].split(",")
    assert row[1] == "true" and math.isfinite(float(row[3]))


def test_import_leaves_the_verify_and_json_modules_unloaded():
    # selfcheck (verify) and json (steady --json) load on use; svg loads
    # with the CLI, so a tracer installed after the import can wrap line_plot
    src = os.path.dirname(os.path.dirname(am.__file__))
    code = (
        "import sys, atomoptomech.cli; "
        "print(sorted(m for m in ('json', 'atomoptomech.selfcheck', 'atomoptomech.svg') "
        "if m in sys.modules))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-c", code], env={**env, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "['atomoptomech.svg']"


def _closed_pipe():
    """The write end of a pipe whose read end is closed: every write that
    reaches it raises BrokenPipeError."""
    r, w = os.pipe()
    os.close(r)
    return w


def test_closed_stdout_exits_141_quietly(capsys, monkeypatch):
    # line-buffered, so the first print's write raises BrokenPipeError; what
    # is left buffered goes to devnull, so closing the stream flushes cleanly
    with os.fdopen(_closed_pipe(), "w", buffering=1) as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = cli.main(["steady", "--case", "1"])
        closed.write("left in the buffer")
    assert code == cli.EXIT_PIPE == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_exits_141_with_empty_stderr(unbuffered):
    # a real process writing to a pipe that its reader has closed, with
    # stdout block-buffered (the error comes from main's flush) and
    # unbuffered (from a print): no message, and no "Exception ignored" at exit
    src = os.path.dirname(os.path.dirname(am.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    w = _closed_pipe()
    try:
        out = subprocess.run(
            [sys.executable, "-m", "atomoptomech.cli", "steady", "--case", "1"],
            stdout=w, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(w)
    assert (out.returncode, out.stderr) == (141, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_reader_leaving_mid_csv_exits_141_with_empty_stderr(unbuffered):
    # `spectrum | head -1`: the reader takes one line of the 148 kB CSV and
    # closes the pipe while the CLI is still writing, so the next write
    # fails, also where stdout is unbuffered and a single write of the whole
    # CSV would end short without an error
    src = os.path.dirname(os.path.dirname(am.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "atomoptomech.cli", "spectrum"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"omega_over_omega_m,s_out_g25,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (141, b"")


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
        assert code == cli.EXIT_NUMERIC and out == ""
        assert err == f"numeric failure: {ROOT_OVERFLOW}\n"

    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "steady", "--case", "8")
        assert code == 0
        assert "|beta|^2" in out
        assert "branches" in out

    def test_nan_atom_number_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "steady", "--n-atoms", "nan")
        assert code == cli.EXIT_CONFIG
        assert "n_atoms" in err and out == ""

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

    @pytest.mark.parametrize("temperature", ["5e299", "1e-320"])
    def test_extreme_finite_temperature_gives_finite_cells(self, capsys, temperature):
        # the thermal weight stays finite up to about 7e299 K, and a k_B T
        # that underflows to 0 is the T = 0 weight, with no NumPy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "spectrum", "--temperature", temperature, "--omega-min", "-1",
                "--points", "5", "--g", "25",
            )
        assert code == 0 and err == ""
        assert all(math.isfinite(float(line.split(",")[1])) for line in out.splitlines()[1:])

    def test_overflowing_thermal_weight_is_a_numeric_failure(self, capsys, tmp_path):
        # a temperature at which the thermal weight, about
        # (gamma_m / omega_m) 2 k_B T / hbar, overflows: a failure that
        # names the temperature, with no NumPy warning and no file written
        message = "thermal noise weight overflows at temperature = 1e+300 K"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "spectrum", "--temperature", "1e300", "--points", "5",
                "--out", str(tmp_path / "s.csv"),
            )
            assert code == cli.EXIT_NUMERIC and out == ""
            assert err == f"numeric failure: {message}\n"
            code, out, err = run_cli(
                capsys, "reproduce", "fig2", "--temperature", "1e300", "--points", "5",
                "--outdir", str(tmp_path),
            )
        assert code == cli.EXIT_NUMERIC and out == ""
        assert err == f"error: fig2 failed: OverflowError: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_columns_keep_the_couplings_digits(self, capsys, tmp_path):
        # each column is named by its coupling to the CSV's 12 significant
        # digits, so two couplings never share a name
        svg = tmp_path / "s.svg"
        code, out, err = run_cli(
            capsys, "spectrum", "--g", "123456.7", "--g", "25", "--g", "25.0000001",
            "--points", "1", "--svg", str(svg),
        )
        assert code == 0 and err == ""
        header = "omega_over_omega_m,s_out_g123456.7,s_out_g25,s_out_g25.0000001"
        assert out.splitlines()[0] == header
        text = svg.read_text()
        for g in ("123456.7", "25", "25.0000001"):
            assert f">G = {g} kappa<" in text

    def test_discarded_cold_branch_warns_nothing(self, capsys):
        # at T = 0 the weight of a positive frequency is 0, and the
        # negative-frequency branch, which overflows here, is not evaluated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "spectrum", "--gamma-m=3.2e52", "--omega-m=2.3e139",
                                     "--points", "2")
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 3

    def test_all_pole_panel_warns_nothing(self, capsys):
        # a panel of scales far below 1 in which every shift is a pole: y
        # overflows at some of them in the back substitution, with no
        # warning, and every cell is empty
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "spectrum", "--delta=8.878003381327961e-182",
                "--kappa=1.330945341376443e-246", "--cavity-length=5.839728458146981e-98",
                "--delta-r=6.127552702793995", "--gamma-r=0.023171158289309518",
            )
        assert code == 0 and err == ""
        header = "omega_over_omega_m,s_out_g25,s_out_g50,s_out_g75,s_out_g100\n"
        assert out == header + "".join("%.12g,,,,\n" % x for x in np.linspace(0.5, 1.5, 2000))

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

    def test_no_root_rows_are_unstable(self, capsys, tmp_path):
        # a root out of floating-point reach at this delta_r fails the
        # sweep, as it fails steady and spectrum, with no row and no file
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "entangle", "--delta-r", "1e200", "--points", "3",
                                     "--out", str(tmp_path / "e.csv"))
        assert code == cli.EXIT_NUMERIC and out == ""
        assert err == f"numeric failure: {ROOT_OVERFLOW}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (("spectrum", "--g", "1e300", "--points", "3"), "intracavity photon number |c_s|^2"),
        (("entangle", "--g", "1e300", "--points", "3"), "intracavity photon number |c_s|^2"),
        (("steady", "--g", "1e300"), "intracavity photon number |c_s|^2"),
        # |c_s|^2 is in range, but a quantity built from it is not
        (("spectrum", "--g", "1e150", "--points", "3"), "atom-cavity coupling g1"),
        (
            ("entangle", "--g", "1e150", "--points", "3"),
            "static mirror displacement x_s = g0 |c_s|^2 / omega_m",
        ),
        # the inferred drive (gamma_a - Im K) / gamma_r overflows, and g1
        # names gamma_r after the coupling
        (("spectrum", "--gamma-r=1e-300", "--points", "3"), "atom-cavity coupling g1"),
        # m omega_m underflows to 0: g0 is finite, but x_s is not
        (("steady", "--omega-m=1e-200", "--mirror-mass=1e-200"),
         "static mirror displacement x_s = g0 |c_s|^2 / omega_m"),
    ],
    ids=["spectrum-g", "entangle-g", "steady-g", "spectrum-g1e150", "entangle-g1e150",
         "spectrum-gamma-r", "steady-m-omega-m"],
)
def test_overflowing_rate_is_a_numeric_failure(capsys, argv, quantity):
    # a valid coupling so large, or gamma_r so small, that a steady-state
    # quantity or a coupling overflows: a failure that names the quantity
    # and the fields, with no NumPy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_NUMERIC
    assert err.startswith(f"numeric failure: {quantity} overflows at coupling_G")
    assert "Traceback" not in out + err


def test_underflowing_hbar_omega_m_is_a_named_overflow(capsys):
    # hbar omega_m underflows to 0 in the omega = 0 limit of the thermal
    # weight: no ZeroDivisionError, but the weight's overflow, named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "spectrum", "--temperature=1", "--omega-m=1e-300",
                                 "--mirror-mass=1e300", "--points", "1")
    assert code == cli.EXIT_NUMERIC and out == ""
    assert err == "numeric failure: thermal noise weight overflows at temperature = 1 K\n"


@pytest.mark.parametrize(
    "knobs",
    [
        ["--cavity-length=2.8457935238249142e+150", "--temperature=6.336390961795874e+191"],
        ["--n-atoms=5.531846617990012e+120", "--temperature=2.0057259393614427e+192",
         "--kappa=1.2372320914521237e-100", "--mirror-mass=0.3724961390665021",
         "--cavity-length=3.4516644986097546e+201", "--case", "1",
         "--delta-min=2.0144841417483352", "--delta-max=-0.36153133869756715", "--points", "1"],
    ],
    ids=["long-cavity", "many-atoms"],
)
def test_underflowing_nu_is_a_named_overflow(capsys, tmp_path, knobs):
    # nu underflows to 0 at a stable point: E_N's overflow, named, with no
    # divide warning, no stable row with an empty e_n and no file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "entangle", *knobs, "--out", str(tmp_path / "e.csv"))
    assert code == cli.EXIT_NUMERIC and out == ""
    assert err == "numeric failure: log-negativity E_N = -ln(2 nu) overflows at nu = 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, knobs, err_line",
    [
        ("entangle", ["--gamma-r=1e-300"], "atom-cavity coupling g1 overflows at coupling_G = "
         "3.92699e+08 rad/s, delta_r = 1, gamma_r = 1e-300"),
        ("spectrum", ["--delta-r=-1e102", "--gamma-r=1e-200"], "shifted atomic detuning "
         "delta_a' overflows at coupling_G = 3.92699e+08 rad/s, delta_r = -1e+102, "
         "gamma_r = 1e-200"),
    ],
)
def test_drive_overflow_names_delta_r_and_gamma_r(capsys, command, knobs, err_line):
    # the inferred drive is (gamma_a - Im K) / gamma_r and the bare atomic
    # detuning delta_r times it, so the couplings built from them name both
    code, out, err = run_cli(capsys, command, *knobs, "--points", "3")
    assert code == cli.EXIT_NUMERIC and out == ""
    assert err == f"numeric failure: {err_line}\n"


# |delta_r| and gamma_r log-uniform over the whole double range; delta_r of
# both signs and 0
_MAGNITUDE = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)


def _runs_or_fails_on_one_overflow_line(argv):
    # exit 0 with nothing on stderr, or exit 1 with one line naming the
    # overflow, and no warning either way
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err and "RuntimeWarning" not in out + err
    if code == cli.EXIT_OK:
        assert err == ""
    else:
        assert code == cli.EXIT_NUMERIC and out == "", (argv, code, err)
        assert re.fullmatch(r"numeric failure: [^\n]* overflows at [^\n]*\n", err), err


@given(
    delta_r=st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda m: -m)),
    gamma_r=_MAGNITUDE,
)
def test_every_root_runs_or_fails_on_one_overflow_line(delta_r, gamma_r):
    # a root exists for every finite (delta_r, gamma_r), so the only failure
    # left is floating-point range.  A negative value in exponent form needs
    # the --flag=value spelling.
    knobs = [f"--delta-r={delta_r!r}", f"--gamma-r={gamma_r!r}"]
    for argv in (["steady"], ["spectrum", "--points", "3"], ["entangle", "--points", "3"]):
        _runs_or_fails_on_one_overflow_line(argv + knobs)


@given(temperature=st.one_of(st.just(0.0), _MAGNITUDE), cavity_length=_MAGNITUDE)
def test_every_bath_and_cavity_runs_or_fails_on_one_overflow_line(temperature, cavity_length):
    # a hot bath and a long cavity push the mirror and cavity variances
    # apart, down to a nu that underflows to 0
    _runs_or_fails_on_one_overflow_line([
        "entangle", "--points", "3",
        f"--temperature={temperature!r}", f"--cavity-length={cavity_length!r}",
    ])


@pytest.mark.parametrize("g", ["-5", "nan", "inf"])
def test_bad_spectrum_coupling_is_config_error(capsys, g):
    # each --g sets coupling_G for its own column, so each is validated
    # like the default one, before any column is written
    code, out, err = run_cli(capsys, "spectrum", "--g", "25", "--g", g, "--points", "2")
    assert code == cli.EXIT_CONFIG and out == ""
    assert err.startswith("config error: coupling_G must be finite and non-negative")


BAD_GRID_FLAGS = [
    (("entangle", "--points", "2", "--delta-max", "inf"), "--delta-max"),
    (("entangle", "--delta-min", "nan"), "--delta-min"),
    (("spectrum", "--omega-min", "inf"), "--omega-min"),
    (("reproduce", "all", "--points", "-1"), "--points"),
    (("spectrum", "--points", "-1"), "--points"),
    (("verify", "--points", "0"), "--points"),
    (("verify", "--points", "-1"), "--points"),
    (("verify", "--seed", "-1"), "--seed"),
]


@pytest.mark.parametrize(
    "argv, flag", BAD_GRID_FLAGS, ids=[f"{a[0]}{f}={a[a.index(f) + 1]}" for a, f in BAD_GRID_FLAGS]
)
def test_bad_grid_flag_is_rejected_when_parsed(capsys, tmp_path, argv, flag):
    # a non-finite grid bound, a negative point count (none for verify) or
    # a negative seed is argparse's error, naming the flag, before any
    # NumPy work
    if argv[0] == "reproduce":
        argv += ("--outdir", str(tmp_path / "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
    assert exc.value.code == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and f"error: argument {flag}: must be " in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, axis", [("spectrum", "omega"), ("entangle", "delta")])
def test_grid_overflowing_in_rad_per_s_is_a_config_error(capsys, tmp_path, command, axis):
    # finite bounds, but bound x omega_m overflows: a config error naming
    # the flags, with no warning and no file written
    out_path = tmp_path / "out.csv"
    argv = [command, f"--{axis}-min", "1e300", f"--{axis}-max", "1e300", "--points", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == cli.EXIT_CONFIG and out == ""
    assert err.startswith(f"config error: --{axis}-min 1e+300 to --{axis}-max 1e+300 ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, header",
    [("spectrum", "omega_over_omega_m,s_out_g25,s_out_g50,s_out_g75,s_out_g100"),
     ("entangle", "delta_over_omega_m,stable,e_n,nu")],
)
def test_zero_points_writes_the_header_only(capsys, command, header):
    code, out, err = run_cli(capsys, command, "--points", "0")
    assert code == cli.EXIT_OK and err == ""
    assert out == header + "\n"


def test_overflowing_backaction_shift_is_a_numeric_failure(capsys):
    # one atom, so the photon number stays in range and the cavity
    # backaction K, of order G^2 / (kappa + i delta), is what overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "entangle", "--case", "8", "--n-atoms", "1",
            "--g", repr(1e160 / am.SystemParams().kappa), "--points", "3",
        )
    assert code == cli.EXIT_NUMERIC
    assert err.startswith("numeric failure: cavity backaction K overflows at coupling_G")
    assert "coupling_G" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("entangle", "--omega-m", "1e300", "--points", "3"),
        ("entangle", "--kappa", "1e300", "--points", "3"),
    ],
    ids=["entangle-omega-m", "entangle-kappa"],
)
def test_huge_rate_gives_unstable_rows_without_warnings(capsys, argv):
    # kappa^2 + delta^2 overflows, but the backaction K does not: it is
    # taken in units of max(kappa, |delta|), so every row is data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.split(",")[1:] == ["false", "", ""] for line in lines[1:])


def _csv_per_cell(header, columns):
    # the writer as it was, one Python format per cell: the reference the
    # column-at-a-time writer must equal
    cells = [
        [v if isinstance(v, str) else "%.12g" % v if math.isfinite(v) else "" for v in values]
        for values in (np.asarray(c).tolist() for c in columns)
    ]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _fixed2_per_value(values):
    # the plot's pixel text as it was, one Python format per value
    return ["%.2f" % v for v in values.tolist()]


class TestCsv:
    def test_inf_and_nan_are_empty_cells(self):
        text = cli._csv(
            ["x", "y"], [np.array([1 / 3, 2.0, 1e-20]), np.array([np.inf, -np.inf, np.nan])]
        )
        assert text == "x,y\n0.333333333333,\n2,\n1e-20,\n"

    def test_string_column_passes_through(self):
        text = cli._csv(["x", "stable"], [np.array([0.5, 1.5]), ["true", "false"]])
        assert text == "x,stable\n0.5,true\n1.5,false\n"

    def test_empty_columns_write_the_header_only(self):
        assert cli._csv(["x", "y"], [np.empty(0), np.empty(0)]) == "x,y\n"

    @pytest.mark.parametrize(
        "columns",
        [
            [[np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e300, 1 / 3, 2.0]],
            [np.array([0.0, 1.0, np.nan]), ["true", "false", "true"], [1e-300, -np.inf, 5e300]],
            [np.empty(0), np.empty(0)],
            [["a", "b"]],
        ],
        ids=["specials", "mixed", "empty", "strings"],
    )
    def test_equals_the_per_cell_reference(self, columns):
        header = [f"c{k}" for k in range(len(columns))]
        assert cli._csv(header, columns) == _csv_per_cell(header, columns)


class TestLinePlot:
    def test_nan_breaks_the_polyline(self):
        svg = line_plot([0, 1, 2, 3, 4], [[1.0, 2.0, np.nan, 3.0, 4.0]], ["y"], "x", "y")
        assert svg.count("<polyline") == 2

    @pytest.mark.parametrize("gap", [np.inf, -np.inf])
    def test_inf_breaks_the_polyline(self, gap):
        svg = line_plot([0, 1, 2, 3, 4], [[1.0, 2.0, gap, 3.0, 4.0]], ["y"], "x", "y")
        assert svg.count("<polyline") == 2
        assert "inf" not in svg

    def test_points_pinned(self):
        # the second series' lone point after its NaN draws no polyline
        svg = line_plot(
            [0.0, 0.5, 1.0, 2.0],
            [[1.0, 2.0, 4.0, 3.0], [0.5, 1.5, np.nan, 2.5]],
            ["a", "b"],
            "x",
            "y",
        )
        assert re.findall(r'points="([^"]*)"', svg) == [
            "70.00,358.12 207.50,251.62 345.00,38.64 620.00,145.13",
            "70.00,411.36 207.50,304.87",
        ]

    def test_all_nan_series_draws_nothing(self):
        svg = line_plot([0, 1, 2], [[np.nan] * 3], ["y"], "x", "y")
        assert "<polyline" not in svg

    def test_y_ticks_from_finite_values_only(self):
        svg = line_plot([0, 1, 2, 3, 4], [[1.0, 2.0, np.nan, 3.0, 4.0]], ["y"], "x", "y")
        # the finite range 1..4, padded by 5% on each side
        ticks = re.findall(r'text-anchor="end">([^<]*)</text>', svg)
        assert ticks == ["0.85", "1.68", "2.5", "3.33", "4.15"]

    @pytest.mark.parametrize(
        "x, series",
        [
            ([0, 1, 2, 3, 4, 5], [[1.0, np.nan, np.nan, 2.0, 3.0, np.inf],
                                  [-np.inf, np.inf, 0.5, 0.7, np.nan, 0.9]]),
            ([0, 1, 2, 3, 4], [[np.nan, 1.0, np.nan, 2.0, 3.0]]),
            ([0, 1, 2], [[np.nan] * 3, [0.0, 1.0, 2.0]]),
            ([0.5], [[2.0]]),
        ],
        ids=["nan-and-inf-runs", "lone-point", "all-nan", "single-x"],
    )
    def test_equals_the_per_point_reference(self, monkeypatch, x, series):
        labels = [f"y{k}" for k in range(len(series))]
        svg = line_plot(x, series, labels, "x", "y")
        monkeypatch.setattr(svg_module, "_fixed2", _fixed2_per_value)
        assert svg == line_plot(x, series, labels, "x", "y")


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
        for tag, case in zip("abc", ("1", "2.5", "8")):
            title = f">panel {tag}: delta_r = gamma_r = {case}<"
            assert title in (tmp_path / f"fig2{tag}.svg").read_text()

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

    def test_zero_points_writes_header_only_panels(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "reproduce", "all", "--outdir", str(tmp_path), "--points", "0",
        )
        assert code == cli.EXIT_OK and err == ""
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 7 and len(list(tmp_path.glob("*.svg"))) == 7
        for csv in csvs:
            assert csv.read_text().count("\n") == 1, csv.name

    def test_failed_panel_is_isolated_and_named(self, capsys, tmp_path, monkeypatch):
        def broken(params, outdir, points):
            raise KeyError("no such panel")

        monkeypatch.setattr(cli, "_reproduce_fig3", broken)
        code, _, err = run_cli(
            capsys, "reproduce", "all", "--outdir", str(tmp_path), "--points", "5",
        )
        assert code == cli.EXIT_NUMERIC
        assert "error: fig3 failed: KeyError: 'no such panel'" in err
        for name in ("fig2a", "fig2b", "fig2c", "fig4a", "fig4b"):
            assert (tmp_path / f"{name}.csv").exists() and (tmp_path / f"{name}.svg").exists()
        assert not (tmp_path / "fig3a.csv").exists()


class TestVerifyCommand:
    def test_default_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--points", "40")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_seed_independent(self, capsys):
        code1, _, _ = run_cli(capsys, "verify", "--seed", "42", "--points", "25")
        code2, _, _ = run_cli(capsys, "verify", "--seed", "43", "--points", "25")
        assert code1 == 0 and code2 == 0

    def test_nan_lyapunov_row_fails_the_check(self, monkeypatch):
        # a system that fails inside the stack comes back NaN; the check
        # must report it, not skip it
        from atomoptomech import selfcheck

        solve = selfcheck.steady_covariance

        def one_nan(ds):
            v = solve(ds)
            v[3] = np.nan
            return v

        monkeypatch.setattr(selfcheck, "steady_covariance", one_nan)
        _, passed, detail = selfcheck.check_lyapunov_residuals()
        assert not passed and detail.endswith("nan")

    def test_nan_closed_form_route_fails_the_check(self, monkeypatch):
        # a NaN coefficient among finite ones must fail the check, not be
        # dropped by the fold over the worst error
        from dataclasses import replace

        from atomoptomech import selfcheck

        closed = selfcheck.transfer_closed_form

        def nan_a_c(params, couplings, ss, omega):
            return replace(closed(params, couplings, ss, omega), a_c=complex("nan"))

        monkeypatch.setattr(selfcheck, "transfer_closed_form", nan_a_c)
        _, passed, detail = selfcheck.check_transfer_equivalence(n_points=20, seed=3)
        assert not passed and detail.endswith("nan")

    def test_nan_root_residual_fails_the_check(self, monkeypatch):
        from atomoptomech import selfcheck

        equation = selfcheck.excitation_equation

        def nan_at_case_2p5(beta, dr, gr):
            return complex("nan") if dr == 2.5 else equation(beta, dr, gr)

        monkeypatch.setattr(selfcheck, "excitation_equation", nan_at_case_2p5)
        _, passed, detail = selfcheck.check_root_residuals(seed=0)
        assert not passed and detail.endswith("nan")

    def test_run_verification_prints_every_check_in_order(self, monkeypatch, capsys):
        # one failing check is counted once and the others still run, each
        # printed on its own line in the fixed order
        from atomoptomech import selfcheck

        monkeypatch.setattr(selfcheck, "excitation_equation", lambda beta, dr, gr: complex("nan"))
        assert selfcheck.run_verification(1234, 20) == 1
        lines = capsys.readouterr().out.splitlines()
        names = [
            "excitation-equation residuals",
            "reference excitation fractions",
            "transfer-route equivalence",
            "shot-noise floor",
            "Lyapunov residuals",
            "symplectic eigenvalue closed forms",
        ]
        assert [line[6:44].rstrip() for line in lines] == names
        assert [line[:4] for line in lines] == ["FAIL"] + ["PASS"] * 5
        code, out, _ = run_cli(capsys, "verify", "--points", "20")
        assert code == 1 and out.endswith("1 failure(s)\n")

    def test_perturbed_minus_omega_half_fails(self, monkeypatch):
        # the -w coefficients the spectrum reads off the +w factorization
        # are checked too, not only the +w half
        from dataclasses import replace

        from atomoptomech import selfcheck

        pair = selfcheck.transfer_pair

        def perturbed(*args):
            tp, tm = pair(*args)
            return tp, replace(tm, b_c=tm.b_c * (1.0 + 1e-6))

        monkeypatch.setattr(selfcheck, "transfer_pair", perturbed)
        _, passed, detail = selfcheck.check_transfer_equivalence(n_points=10, seed=7)
        assert not passed, detail

    def test_perturbed_closed_form_fails(self, monkeypatch):
        # mutation sanity: a deliberately perturbed coefficient must trip
        # the equivalence check
        from dataclasses import replace

        from atomoptomech import selfcheck

        closed = selfcheck.transfer_closed_form

        def perturbed(params, couplings, ss, omega):
            t = closed(params, couplings, ss, omega)
            return replace(t, c_c=t.c_c * (1.0 + 1e-6))

        monkeypatch.setattr(selfcheck, "transfer_closed_form", perturbed)
        name, passed, detail = selfcheck.check_transfer_equivalence(n_points=10, seed=7)
        assert not passed
