"""Command-line interface: steady, spectrum, entangle, reproduce, verify.

The parameter flags come from one table, PARAM_FLAGS, and a command takes
none for a field it sets itself.  Each field has one flag.  Units at the CLI
mirror the way operating points are usually quoted: ``--g`` and
``--gamma-a`` in units of kappa, ``--delta`` and ``--gamma-m`` in units of
omega_m, everything else SI.  ``--case`` presets delta_r and gamma_r and
refuses ``--delta-r`` and ``--gamma-r``.  Config files are flat
``key = value`` text with SI values, keyed by the SystemParams fields,
each at most once; flags override file values.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .entanglement import detuning_sweep
from .params import SystemParams, validate
from .spectrum import PoleAtOmega, spectrum_sweep
from .steadystate import fixed_point

# Imported with the CLI, not on use like selfcheck and json: perfbench's
# tracer wraps only functions of modules loaded when the CLI module is, and
# line_plot is part of its output layer.
from .svg import line_plot

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader of stdout closed it

# What a command can raise on valid input: a pole at a verify spot check's
# frequency, or an overflow: a Python-float power, an excitation root out of
# floating-point reach, or a steady-state quantity or coupling that
# params.check_finite names.
_NUMERIC_ERRORS = (PoleAtOmega, OverflowError)

CASE_PRESETS = {"1": (1.0, 1.0), "2.5": (2.5, 2.5), "8": (8.0, 8.0)}
# The couplings of a spectrum panel [units of kappa]: fig2's, and the
# default of ``spectrum``.
PANEL_COUPLINGS = (25.0, 50.0, 75.0, 100.0)


class ConfigError(Exception):
    pass


def _run_config(args, *paths) -> SystemParams:
    """The validated parameters of a run whose output files are ``paths``;
    each path that is given must name an existing directory."""
    params = build_params(args)
    validate(params)
    for path in paths:
        if path:
            parent = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(parent):
                raise ConfigError(f"output directory {parent!r} does not exist")
    return params


def parse_config_file(path: str) -> dict:
    """Flat key = value config: SI values, keyed by a SystemParams field,
    each set on one line only."""
    allowed = {f.name for f in fields(SystemParams)}
    values, seen = {}, {}  # key -> value, and the line that set it
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in allowed:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
            seen[key] = lineno
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: key {key!r} has malformed number {val!r}")
    return values


# One row per parameter flag: (argparse dest, config key it sets, unit, help).
# The flag is the dest in lower case with dashes.  An "SI" value is set as it
# is; a "kappa" or "omega_m" value is multiplied by that field once the SI
# flags are in.
PARAM_FLAGS = (
    ("omega_m", "omega_m", "SI", "mechanical angular frequency [rad/s]"),
    ("kappa", "kappa", "SI", "cavity decay rate [rad/s]"),
    ("gamma_a", "gamma_a", "kappa", "collective atomic decay"),
    ("gamma_m", "gamma_m", "omega_m", "mechanical damping"),
    ("n_atoms", "n_atoms", "SI", "atom count"),
    ("g", "coupling_G", "kappa", "atom-cavity coupling"),
    ("delta", "delta", "omega_m", "effective cavity detuning"),
    ("delta_r", "delta_r", "SI", "dimensionless effective atomic detuning"),
    ("gamma_r", "gamma_r", "SI", "dimensionless effective atomic decay"),
    ("cavity_length", "cavity_length", "SI", "cavity length [m]"),
    ("mirror_mass", "mirror_mass", "SI", "mirror mass [kg]"),
    ("omega_c", "omega_c", "SI", "cavity angular frequency [rad/s]"),
    ("temperature", "temperature", "SI", "mechanical bath temperature [K]"),
)


def build_params(args) -> SystemParams:
    """Defaults <- config file <- SI flags <- scaled flags <- ``--case``;
    ``--case`` sets delta_r and gamma_r, so their flags may not come with it."""
    params = SystemParams(**(parse_config_file(args.config) if args.config else {}))

    flags = [(key, unit, getattr(args, dest, None)) for dest, key, unit, _ in PARAM_FLAGS]
    flags = [(key, unit, val) for key, unit, val in flags if val is not None]
    params = params.replace(**{key: val for key, unit, val in flags if unit == "SI"})
    params = params.replace(
        **{key: val * getattr(params, unit) for key, unit, val in flags if unit != "SI"}
    )

    case = getattr(args, "case", None)
    if case is not None:
        for key in ("delta_r", "gamma_r"):
            if getattr(args, key, None) is not None:
                flag = "--" + key.replace("_", "-")
                raise ConfigError(f"--case sets delta_r and gamma_r; drop {flag} or --case")
        params = params.with_case(*CASE_PRESETS[case])
    return params


def _add_param_flags(p: argparse.ArgumentParser, sets: tuple = ()):
    """The config and parameter flags, but none for a field in ``sets``,
    which the command sets itself (``--case`` sets delta_r and gamma_r)."""
    p.add_argument("--config", help="config file path (key = value, SI units)")
    for dest, key, unit, help_text in PARAM_FLAGS:
        if key in sets:
            continue
        if unit != "SI":
            help_text += f" [units of {unit}]"
        p.add_argument("--" + dest.lower().replace("_", "-"), dest=dest, help=help_text, type=float)
    if "delta_r" not in sets:
        p.add_argument("--case", choices=sorted(CASE_PRESETS),
                       help="preset delta_r = gamma_r value; not with --delta-r or --gamma-r")


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(header, columns) -> str:
    """CSV text of equal-length columns: numbers to 12 significant digits,
    NaN and inf as an empty cell, strings as they are.  The whole table is
    formatted row-major by one ``%``; an empty cell is an empty ``%s``."""
    columns = [np.asarray(c) for c in columns]
    specs = ["%s" if c.dtype.kind == "U" else "%.12g" for c in columns]
    cells = [c.tolist() for c in columns]
    rows = [",".join(specs)] * (len(cells[0]) if cells else 0)
    blank = {}  # row -> its specs, where it has an empty cell
    for k, column in enumerate(columns):
        if specs[k] != "%s":
            for i in np.flatnonzero(~np.isfinite(column)).tolist():
                blank.setdefault(i, list(specs))[k] = "%s"
                cells[k][i] = ""
    for i, row in blank.items():
        rows[i] = ",".join(row)
    flat = [None] * (len(rows) * len(cells))
    for k, values in enumerate(cells):
        flat[k::len(cells)] = values
    return ",".join(header) + "\n" + "\n".join([*rows, ""]) % tuple(flat)


def spectrum_csv(table) -> str:
    header = ["omega_over_omega_m"] + [f"s_out_g{g:.12g}" for g in table.g_over_kappa]
    return _csv(header, [table.omega_over_omega_m, *table.s_out.T])


def _spectrum_svg(table, title="") -> str:
    labels = [f"G = {g:.12g} kappa" for g in table.g_over_kappa]
    return line_plot(
        table.omega_over_omega_m, table.s_out.T, labels, "omega / omega_m", "S_out", title=title
    )


def entangle_csv(table) -> str:
    stable = ["true" if s else "false" for s in table.stable]
    return _csv(
        ["delta_over_omega_m", "stable", "e_n", "nu"],
        [table.delta_over_omega_m, stable, table.e_n, table.nu],
    )


def _emit(args, csv_text: str, svg) -> int:
    """Write the CSV to ``--out`` (stdout without it), and the plot that
    ``svg()`` renders to ``--svg`` when that is given."""
    if args.out:
        _write_text(args.out, csv_text)
        print(f"wrote {args.out}")
    else:
        # Pieces of at most PIPE_BUF (4096) bytes, as the CSV is ASCII: a pipe
        # takes such a write whole or fails it with EPIPE, where an unbuffered
        # stdout would drop the rest of a longer write unreported.
        for i in range(0, len(csv_text), 4096):
            sys.stdout.write(csv_text[i : i + 4096])
    if args.svg:
        _write_text(args.svg, svg())
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_steady(args) -> int:
    params = build_params(args)
    warnings = validate(params)
    ss = fixed_point(params)
    if args.json:
        import json

        record = {
            "beta_re": ss.beta.real,
            "beta_im": ss.beta.imag,
            "excitation": ss.excitation,
            "c_s_re": ss.c_s.real,
            "c_s_im": ss.c_s.imag,
            "x_s": ss.x_s,
            "p_s": ss.p_s,
            "residual": ss.residual,
            "branch_count": ss.branch_count,
            "warnings": warnings,
        }
        print(json.dumps(record, sort_keys=True))
        return EXIT_OK
    print(f"beta         = {ss.beta.real:+.9f} {ss.beta.imag:+.9f}i")
    print(f"|beta|^2     = {ss.excitation:.9f}")
    print(f"c_s          = {ss.c_s.real:+.6e} {ss.c_s.imag:+.6e}i")
    print(f"x_s          = {ss.x_s:.6e}")
    print(f"p_s          = {ss.p_s:.1f}")
    print(f"residual     = {ss.residual:.3e}")
    print(f"branches     = {ss.branch_count}")
    for w in warnings:
        print(f"warning      : {w}")
    return EXIT_OK


def _grid(args, axis: str, omega_m: float) -> np.ndarray:
    """The sweep grid of ``--{axis}-min/max`` [omega_m] and ``--points`` in
    rad/s; a config error, naming the flags, where it is not finite."""
    lo, hi = getattr(args, axis + "_min"), getattr(args, axis + "_max")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo, hi, args.points) * omega_m
    if not np.isfinite(grid).all():
        raise ConfigError(f"--{axis}-min {lo:g} to --{axis}-max {hi:g} [omega_m] is not "
                          f"finite in rad/s at omega_m = {omega_m:.6g} rad/s")
    return grid


def cmd_spectrum(args) -> int:
    params = _run_config(args, args.out, args.svg)
    couplings = tuple(args.couplings or PANEL_COUPLINGS)
    for g in couplings:  # the sweep sets coupling_G per column
        validate(params.replace(coupling_G=g * params.kappa))
    table = spectrum_sweep(params, couplings, _grid(args, "omega", params.omega_m))
    return _emit(args, spectrum_csv(table), lambda: _spectrum_svg(table))


def cmd_entangle(args) -> int:
    params = _run_config(args, args.out, args.svg)
    table = detuning_sweep(params, _grid(args, "delta", params.omega_m))
    return _emit(
        args,
        entangle_csv(table),
        lambda: line_plot(table.delta_over_omega_m, [table.e_n], ["E_N"], "Delta / omega_m", "E_N"),
    )


def _reproduce_fig2(params, outdir, points):
    files = []
    p = params.replace(delta=-params.omega_m)
    grid = np.linspace(0.5, 1.5, points) * p.omega_m
    for tag, case in zip("abc", CASE_PRESETS):
        table = spectrum_sweep(p.with_case(*CASE_PRESETS[case]), PANEL_COUPLINGS, grid)
        csv_path = os.path.join(outdir, f"fig2{tag}.csv")
        _write_text(csv_path, spectrum_csv(table))
        svg_path = os.path.join(outdir, f"fig2{tag}.svg")
        _write_text(svg_path, _spectrum_svg(table, f"panel {tag}: delta_r = gamma_r = {case}"))
        files += [csv_path, svg_path]
    return files


def _entangle_panels(fig, params, outdir, points, columns):
    """One CSV and one SVG of E_N per G panel; ``columns`` holds a
    (CSV label, legend, params) per curve."""
    files = []
    grid = np.linspace(0.0, 3.0, points) * params.omega_m
    xs = grid / params.omega_m
    for tag, g in (("a", 25.0), ("b", 100.0)):
        cols = [detuning_sweep(p.replace(coupling_G=g * p.kappa), grid).e_n for _, _, p in columns]
        csv_path = os.path.join(outdir, f"{fig}{tag}.csv")
        header = ["delta_over_omega_m"] + [c[0] for c in columns]
        _write_text(csv_path, _csv(header, [xs, *cols]))
        svg_path = os.path.join(outdir, f"{fig}{tag}.svg")
        legends = [c[1] for c in columns]
        title = f"panel {tag}: G = {g:g} kappa"
        _write_text(svg_path, line_plot(xs, cols, legends, "Delta / omega_m", "E_N", title=title))
        files += [csv_path, svg_path]
    return files


def _reproduce_fig3(params, outdir, points):
    columns = [
        (f"e_n_case{t}", f"delta_r = gamma_r = {t}", params.with_case(*CASE_PRESETS[t]))
        for t in ("1", "8")
    ]
    return _entangle_panels("fig3", params, outdir, points, columns)


def _reproduce_fig4(params, outdir, points):
    columns = []
    for n_atoms in (1e6, 1e7):
        label = f"e_n_n{n_atoms:.0e}".replace("+0", "")
        columns.append((label, label, params.replace(n_atoms=n_atoms).with_case(*CASE_PRESETS["1"])))
    return _entangle_panels("fig4", params, outdir, points, columns)


def cmd_reproduce(args) -> int:
    params = _run_config(args)
    os.makedirs(args.outdir, exist_ok=True)
    jobs = {
        "fig2": (_reproduce_fig2, 2000),
        "fig3": (_reproduce_fig3, 500),
        "fig4": (_reproduce_fig4, 500),
    }
    failures = 0
    targets = [args.figure] if args.figure != "all" else ["fig2", "fig3", "fig4"]
    for name in targets:
        fn, default_points = jobs[name]
        try:
            files = fn(params, args.outdir, default_points if args.points is None else args.points)
            for f in files:
                print(f"wrote {f}")
        except Exception as exc:  # noqa: BLE001 - panel isolation is the contract
            failures += 1
            print(f"error: {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_NUMERIC if failures else EXIT_OK


def cmd_verify(args) -> int:
    from .selfcheck import run_verification

    failures = run_verification(seed=args.seed, n_equivalence=args.points)
    print(f"{failures} failure(s)")
    return min(failures, 125)


def _checked(kind, ok, need: str):
    """argparse type: a ``kind`` value for which ``ok`` holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names a malformed value's type by it
    return parse


_finite = _checked(float, math.isfinite, "a finite number")
_count = _checked(int, lambda n: n >= 0, "an integer >= 0")


def _steady_flags(p):
    _add_param_flags(p)
    p.add_argument("--json", action="store_true", help="emit a single JSON record")


def _grid_flags(p, axis: str, lo: float, hi: float, points: int):
    """The sweep grid ``--{axis}-min/max`` [omega_m] and ``--points``, and
    the output paths."""
    p.add_argument(f"--{axis}-min", type=_finite, default=lo, help="grid start [omega_m]")
    p.add_argument(f"--{axis}-max", type=_finite, default=hi, help="grid end [omega_m]")
    p.add_argument("--points", type=_count, default=points)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--svg", help="SVG output path")


def _spectrum_flags(p):
    _add_param_flags(p, sets=("coupling_G",))
    p.add_argument("--g", dest="couplings", type=float, action="append",
                   help="atom-cavity coupling [units of kappa], repeatable; "
                        "default 25, 50, 75 and 100")
    _grid_flags(p, "omega", 0.5, 1.5, 2000)


def _entangle_flags(p):
    _add_param_flags(p, sets=("delta",))
    _grid_flags(p, "delta", 0.0, 3.0, 500)


def _reproduce_flags(p):
    _add_param_flags(p, sets=("coupling_G", "delta", "delta_r", "gamma_r"))
    p.add_argument("figure", choices=("fig2", "fig3", "fig4", "all"))
    p.add_argument("--outdir", default=".")
    p.add_argument("--points", type=_count, help="default 2000 for fig2, 500 for fig3 and fig4")


def _verify_flags(p):
    p.add_argument("--seed", type=_count, default=1234)
    p.add_argument("--points", type=_checked(int, lambda n: n >= 1, "an integer >= 1"),
                   default=200, help="number of random points for the equivalence check")


# name -> (help, command, flags).  main creates every subparser, so the
# top-level help, the usage line and an unknown command's error name all of
# them, but adds flags only to the one that is invoked.
COMMANDS = {
    "steady": ("solve and print the steady state", cmd_steady, _steady_flags),
    "spectrum": ("output intensity squeezing spectrum sweep", cmd_spectrum, _spectrum_flags),
    "entangle": ("log-negativity detuning sweep", cmd_entangle, _entangle_flags),
    "reproduce": ("regenerate the reference figure data sets", cmd_reproduce, _reproduce_flags),
    "verify": ("run the built-in oracle cross-checks", cmd_verify, _verify_flags),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="atomoptomech",
        description=(
            "Steady states, output intensity squeezing spectra, stability and "
            "steady-state entanglement for a cavity driven through an "
            "atomic-ensemble mirror."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The top-level parser takes no option with a value, so the first
    # command name in argv is the command.
    invoked = next((a for a in argv if a in COMMANDS), None)
    for name, (help_text, _, add_flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == invoked:
            add_flags(p)

    args = parser.parse_args(argv)
    try:
        code = COMMANDS[args.command][1](args)
        sys.stdout.flush()  # a closed pipe fails here, not as the interpreter exits
        return code
    except BrokenPipeError:  # what stdout still buffers goes to devnull at exit
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_PIPE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
