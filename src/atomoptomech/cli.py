"""Command-line interface: steady, spectrum, entangle, reproduce, verify.

Units at the CLI mirror the way operating points are usually quoted:
``--g`` and ``--gamma-a`` in units of kappa, ``--delta`` and ``--gamma-m``
in units of omega_m, everything else SI.  Config files are flat
``key = value`` text with SI values and keys named exactly after the
SystemParams fields; flags override file values.  The environment variable
ATOMOPTOMECH_CONFIG supplies a default config path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .entanglement import detuning_sweep
from .params import C_LIGHT, SystemParams, param_names, validate
from .selfcheck import run_verification
from .spectrum import PoleAtOmega, spectrum_sweep
from .steadystate import NoRoot, fixed_point
from .svg import line_plot

ENV_CONFIG = "ATOMOPTOMECH_CONFIG"

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2

# What a command can raise on valid input: no excitation root, a pole at a
# verify spot check's frequency, or a Python-float power that overflows.
_NUMERIC_ERRORS = (NoRoot, PoleAtOmega, OverflowError)

CASE_PRESETS = {"1": (1.0, 1.0), "2.5": (2.5, 2.5), "8": (8.0, 8.0)}


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
    """Flat key = value config (SI units, SystemParams field names)."""
    allowed = set(param_names()) | {"backaction_weight", "wavelength"}
    values = {}
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
            if key == "backaction_weight":
                values[key] = val
                continue
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: key {key!r} has malformed number {val!r}")
    return values


def build_params(args) -> SystemParams:
    """Defaults <- config file <- SI flags <- scaled flags, in that order."""
    file_vals: dict = {}
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if path:
        if not os.path.exists(path) and getattr(args, "config", None) is None:
            # A stale env var pointing nowhere is not an error, but say so.
            print(f"warning: {ENV_CONFIG}={path} does not exist; ignored", file=sys.stderr)
        else:
            file_vals = parse_config_file(path)

    wavelength = file_vals.pop("wavelength", None)
    params = SystemParams(**file_vals)
    if wavelength is not None:
        params = params.replace(omega_c=2 * math.pi * C_LIGHT / wavelength)

    si_flags = (
        "omega_m",
        "kappa",
        "n_atoms",
        "coupling_G",
        "cavity_length",
        "mirror_mass",
        "omega_c",
        "temperature",
        "n_thermal",
        "chi",
        "delta_a",
        "delta_r",
        "gamma_r",
        "backaction_weight",
    )
    updates = {}
    for name in si_flags:
        val = getattr(args, name, None)
        if val is not None:
            updates[name] = val
    if getattr(args, "wavelength", None) is not None:
        updates["omega_c"] = 2 * math.pi * C_LIGHT / args.wavelength
    if updates:
        params = params.replace(**updates)

    scaled = {}
    g_flag = getattr(args, "g", None)
    if g_flag is not None and not isinstance(g_flag, list):
        scaled["coupling_G"] = g_flag * params.kappa
    if getattr(args, "gamma_a", None) is not None:
        scaled["gamma_a"] = args.gamma_a * params.kappa
    if getattr(args, "gamma_m", None) is not None:
        scaled["gamma_m"] = args.gamma_m * params.omega_m
    if getattr(args, "delta", None) is not None:
        scaled["delta"] = args.delta * params.omega_m
    if scaled:
        params = params.replace(**scaled)

    case = getattr(args, "case", None)
    if case is not None:
        dr, gr = CASE_PRESETS[case]
        params = params.replace(delta_r=dr, gamma_r=gr)
    return params


def _add_param_flags(p: argparse.ArgumentParser, repeatable_g: bool = False):
    p.add_argument("--config", help="config file path (key = value, SI units)")
    p.add_argument("--omega-m", type=float, help="mechanical angular frequency [rad/s]")
    p.add_argument("--kappa", type=float, help="cavity decay rate [rad/s]")
    p.add_argument("--gamma-a", type=float, help="collective atomic decay [units of kappa]")
    p.add_argument("--gamma-m", type=float, help="mechanical damping [units of omega_m]")
    p.add_argument("--n-atoms", type=float, help="atom count")
    if repeatable_g:
        p.add_argument(
            "--g",
            type=float,
            action="append",
            help="atom-cavity coupling [units of kappa], repeatable",
        )
    else:
        p.add_argument("--g", type=float, help="atom-cavity coupling [units of kappa]")
    p.add_argument("--coupling-g", dest="coupling_G", type=float,
                   help="atom-cavity coupling [rad/s] (SI alternative to --g)")
    p.add_argument("--delta", type=float, help="effective cavity detuning [units of omega_m]")
    p.add_argument("--delta-r", type=float, help="dimensionless effective atomic detuning")
    p.add_argument("--gamma-r", type=float, help="dimensionless effective atomic decay")
    p.add_argument("--case", choices=sorted(CASE_PRESETS), help="preset delta_r = gamma_r value")
    p.add_argument("--cavity-length", type=float, help="cavity length [m]")
    p.add_argument("--mirror-mass", type=float, help="mirror mass [kg]")
    p.add_argument("--omega-c", type=float, help="cavity angular frequency [rad/s]")
    p.add_argument("--wavelength", type=float, help="cavity wavelength [m] (alternative to --omega-c)")
    p.add_argument("--temperature", type=float, help="mechanical bath temperature [K]")
    p.add_argument("--n-thermal", type=float, help="mean thermal phonon number")
    p.add_argument("--chi", type=float, help="collective drive amplitude [rad/s] (optional)")
    p.add_argument("--delta-a", type=float, help="bare atomic detuning [rad/s] (optional)")
    p.add_argument(
        "--backaction-weight",
        choices=("delta", "kappa"),
        help="weight of the backaction term when inferring the drive amplitude",
    )


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(header, columns) -> str:
    """CSV text of equal-length columns, formatted a column at a time:
    numbers to 12 significant digits, NaN and inf as an empty cell, strings
    as they are."""
    cells = [
        [v if isinstance(v, str) else "%.12g" % v if math.isfinite(v) else "" for v in values]
        for values in (np.asarray(c).tolist() for c in columns)
    ]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def spectrum_csv(table) -> str:
    header = ["omega_over_omega_m"] + [f"s_out_g{g:g}" for g in table.g_over_kappa]
    return _csv(header, [table.omega_over_omega_m, *table.s_out.T])


def _spectrum_svg(table, title="") -> str:
    labels = [f"G = {g:g} kappa" for g in table.g_over_kappa]
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
        sys.stdout.write(csv_text)
    if args.svg:
        _write_text(args.svg, svg())
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_steady(args) -> int:
    params = build_params(args)
    warnings = validate(params)
    ss = fixed_point(params)
    if args.json:
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


def cmd_spectrum(args) -> int:
    params = _run_config(args, args.out, args.svg)
    table = spectrum_sweep(
        params,
        tuple(args.g) if args.g else (25.0, 50.0, 75.0, 100.0),
        np.linspace(args.omega_min, args.omega_max, args.points) * params.omega_m,
    )
    return _emit(args, spectrum_csv(table), lambda: _spectrum_svg(table))


def cmd_entangle(args) -> int:
    params = _run_config(args, args.out, args.svg)
    table = detuning_sweep(
        params, np.linspace(args.delta_min, args.delta_max, args.points) * params.omega_m
    )
    return _emit(
        args,
        entangle_csv(table),
        lambda: line_plot(table.delta_over_omega_m, [table.e_n], ["E_N"], "Delta / omega_m", "E_N"),
    )


def _reproduce_fig2(params, outdir, points):
    files = []
    for tag, case in (("a", (1.0, 1.0)), ("b", (2.5, 2.5)), ("c", (8.0, 8.0))):
        p = params.replace(delta=-params.omega_m)
        grid = np.linspace(0.5, 1.5, points) * p.omega_m
        table = spectrum_sweep(p.with_case(*case), (25.0, 50.0, 75.0, 100.0), grid)
        csv_path = os.path.join(outdir, f"fig2{tag}.csv")
        _write_text(csv_path, spectrum_csv(table))
        svg_path = os.path.join(outdir, f"fig2{tag}.svg")
        _write_text(svg_path, _spectrum_svg(table, f"panel {tag}: delta_r = gamma_r = {case[0]:g}"))
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
    cases = (("1", (1.0, 1.0)), ("8", (8.0, 8.0)))
    columns = [(f"e_n_case{t}", f"delta_r = gamma_r = {t}", params.with_case(*c)) for t, c in cases]
    return _entangle_panels("fig3", params, outdir, points, columns)


def _reproduce_fig4(params, outdir, points):
    columns = []
    for n_atoms in (1e6, 1e7):
        label = f"e_n_n{n_atoms:.0e}".replace("+0", "")
        columns.append((label, label, params.replace(n_atoms=n_atoms).with_case(1.0, 1.0)))
    return _entangle_panels("fig4", params, outdir, points, columns)


def cmd_reproduce(args) -> int:
    params = _run_config(args)
    os.makedirs(args.outdir, exist_ok=True)
    jobs = {
        "fig2": (_reproduce_fig2, args.points or 2000),
        "fig3": (_reproduce_fig3, args.points or 500),
        "fig4": (_reproduce_fig4, args.points or 500),
    }
    failures = 0
    targets = [args.figure] if args.figure != "all" else ["fig2", "fig3", "fig4"]
    for name in targets:
        fn, pts = jobs[name]
        try:
            files = fn(params, args.outdir, pts)
            for f in files:
                print(f"wrote {f}")
        except Exception as exc:  # noqa: BLE001 - panel isolation is the contract
            failures += 1
            print(f"error: {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_NUMERIC if failures else EXIT_OK


def cmd_verify(args) -> int:
    failures = run_verification(seed=args.seed, n_equivalence=args.points)
    print(f"{failures} failure(s)")
    return min(failures, 125)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="atomoptomech",
        description=(
            "Steady states, output intensity squeezing spectra, stability and "
            "steady-state entanglement for a cavity driven through an "
            "atomic-ensemble mirror."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_steady = sub.add_parser("steady", help="solve and print the steady state")
    _add_param_flags(p_steady)
    p_steady.add_argument("--json", action="store_true", help="emit a single JSON record")
    p_steady.set_defaults(func=cmd_steady)

    p_spec = sub.add_parser("spectrum", help="output intensity squeezing spectrum sweep")
    _add_param_flags(p_spec, repeatable_g=True)
    p_spec.add_argument("--omega-min", type=float, default=0.5, help="grid start [omega_m]")
    p_spec.add_argument("--omega-max", type=float, default=1.5, help="grid end [omega_m]")
    p_spec.add_argument("--points", type=int, default=2000)
    p_spec.add_argument("--out", help="CSV output path")
    p_spec.add_argument("--svg", help="SVG output path")
    p_spec.set_defaults(func=cmd_spectrum)

    p_ent = sub.add_parser("entangle", help="log-negativity detuning sweep")
    _add_param_flags(p_ent)
    p_ent.add_argument("--delta-min", type=float, default=0.0, help="grid start [omega_m]")
    p_ent.add_argument("--delta-max", type=float, default=3.0, help="grid end [omega_m]")
    p_ent.add_argument("--points", type=int, default=500)
    p_ent.add_argument("--out", help="CSV output path")
    p_ent.add_argument("--svg", help="SVG output path")
    p_ent.set_defaults(func=cmd_entangle)

    p_rep = sub.add_parser("reproduce", help="regenerate the reference figure data sets")
    _add_param_flags(p_rep)
    p_rep.add_argument("figure", choices=("fig2", "fig3", "fig4", "all"))
    p_rep.add_argument("--outdir", default=".")
    p_rep.add_argument("--points", type=int, default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    p_ver = sub.add_parser("verify", help="run the built-in oracle cross-checks")
    p_ver.add_argument("--seed", type=int, default=1234)
    p_ver.add_argument("--points", type=int, default=200,
                       help="number of random points for the equivalence check")
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
