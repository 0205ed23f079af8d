#!/usr/bin/env python3
"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --rep K \
        --mode setup|pass --trace 0|1 --outdir DIR

Run from the repository root; ``run.py`` starts it once per repetition, so
every repetition starts from the state a CLI user starts from.  ``setup``
mode only measures set-up: the import of ``atomoptomech`` from ``src/`` and
the first ``fixed_point(SystemParams())``.  ``pass`` mode then runs one
workload pass, checks its outputs against the oracles in ``checks.py`` and,
with ``--trace 1``, records per-layer spans (``tracer.py``).  The last line
of standard output is one JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time

from tracer import Target, Tracer

PACKAGE = "atomoptomech"
# Every reported time is CPU time of this process, all threads.  The host
# is a shared VM: its wall clock also counts time the hypervisor gives to
# other guests (steal), which moved whole runs by 20-30%.
cpu_clock = time.process_time

SPECTRUM_G = (25.0, 50.0, 75.0, 100.0)
SPECTRUM_POINTS = 2000
SPECTRUM_CHECKED_CELLS = 64
ENTANGLE_POINTS = 500
ENTANGLE_CHECKED_ROWS = 24
ENTANGLE_CHECKED_UNSTABLE = 4
# Cold points per pass: a 10 x 10 jittered grid over (delta_r, gamma_r), so
# every pass covers the root-finding cost range the same way.
COLD_GRID = 10


def _batch(shape) -> int:
    return math.prod(shape[:-2])


def _solve_complex_flops(args, result):
    # (2/3) n^3 complex multiply-adds per system, 8 real flops each.
    shape = getattr(args[0], "shape", None) or (len(args[0]), len(args[0]))
    n = shape[-1]
    return {"flops": _batch(shape) * (2.0 / 3.0) * n**3 * 8.0}


def _lyapunov_flops(args, result):
    # The n x n Lyapunov equation is an n^2 x n^2 real system:
    # (2/3) (n^2)^3 multiply-adds, 2 flops each.
    shape = getattr(args[0], "shape", None) or (len(args[0]), len(args[0]))
    nn = shape[-1] ** 2
    return {"flops": _batch(shape) * (2.0 / 3.0) * nn**3 * 2.0}


def _branches(args, result):
    return {"branches": len(result)}


# Layer -> functions, named by defining module.  Each layer has the
# per-layer metrics of BENCHMARK.json; time outside these functions (CLI
# parsing, fixed_point, transfer_direct, the sweep loops) is not attributed.
LAYERS = {
    "steadystate.solve_beta": [
        Target("steadystate", "solve_beta", extra=_branches),
        Target("_kernels", "beta_roots"),
        Target("numerics", "newton2d_multistart"),
    ],
    "params.derive_couplings": [Target("params", "derive_couplings")],
    "spectrum.build_matrix": [Target("spectrum", "build_matrix")],
    "spectrum.transfer_closed_form": [Target("spectrum", "transfer_closed_form")],
    "numerics.solve_complex": [
        Target("numerics", "solve_complex", extra=_solve_complex_flops)
    ],
    "numerics.lyapunov_solve": [
        Target("numerics", "lyapunov_solve", extra=_lyapunov_flops)
    ],
    "numerics.routh": [
        Target("numerics", "routh_hurwitz_stable"),
        Target("numerics", "routh_hurwitz_flags"),
        Target("numerics", "char_poly", counted=False),
    ],
    "numerics.symplectic_nu": [Target("numerics", "symplectic_nu")],
    "entanglement.build_drift": [Target("entanglement", "build_drift")],
    "cli.output": [
        Target("cli", "spectrum_csv"),
        Target("cli", "entangle_csv"),
        Target("cli", "_write_text"),
        Target("svg", "line_plot"),
    ],
}


def setup():
    """Import the package from ``src/`` and solve the default fixed point."""
    t0 = cpu_clock()
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import atomoptomech as am

    am.fixed_point(am.SystemParams())
    setup_s = cpu_clock() - t0
    if not os.path.abspath(am.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: {PACKAGE} imported from {am.__file__}, not from {src}")
    return am, setup_s


def import_cli():
    """Import the CLI module; returns the CPU seconds it took.  Every CLI
    invocation pays this, so it is part of a CLI workload's pass.  It runs
    before the tracer is installed, so the tracer finds the CLI's bindings."""
    t0 = cpu_clock()
    from atomoptomech import cli  # noqa: F401

    return cpu_clock() - t0


def cli_run(am, job):
    """One CLI invocation in this interpreter; returns its exit code."""
    from atomoptomech import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(job["argv"])


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def _cell(text):
    return None if text == "" else float(text)


def _rng(args):
    """Generator for this (seed, pass); seed sequences take no negative entries."""
    import numpy as np

    return np.random.default_rng([args.seed % 2**63, args.rep % 2**63])


# --- spectrum-panel ------------------------------------------------------


def spectrum_prepare(am, args):
    import_s = import_cli()
    csv = os.path.join(args.outdir, f"spectrum-{args.rep}.csv")
    svg = os.path.join(args.outdir, f"spectrum-{args.rep}.svg")
    argv = ["spectrum", "--case", "2.5", "--omega-min", "0.5", "--omega-max", "1.5"]
    argv += ["--points", str(SPECTRUM_POINTS), "--out", csv, "--svg", svg]
    for g in SPECTRUM_G:
        argv += ["--g", f"{g:g}"]
    return {"argv": argv, "csv": csv, "svg": svg, "import_s": import_s}


def spectrum_check(am, args, job):
    """One structure check (CSV header, rows and grid; SVG parses) plus
    the seeded cells.  A malformed file fails every check of the pass."""
    import xml.etree.ElementTree as ET

    import numpy as np

    import checks

    cells = SPECTRUM_POINTS * len(SPECTRUM_G)
    checked = 1 + SPECTRUM_CHECKED_CELLS
    rows = _read_csv(job["csv"])
    header = ["omega_over_omega_m"] + [f"s_out_g{g:g}" for g in SPECTRUM_G]
    if rows[0] != header or len(rows) != SPECTRUM_POINTS + 1:
        return {"checked": checked, "failed": checked, "poles": 0, "why": "malformed CSV"}
    if not ET.parse(job["svg"]).getroot().tag.endswith("svg"):
        return {"checked": checked, "failed": checked, "poles": 0, "why": "malformed SVG"}
    grid = np.linspace(0.5, 1.5, SPECTRUM_POINTS)
    values = {}
    for i, row in enumerate(rows[1:]):
        try:
            x = float(row[0])
            vals = [_cell(c) for c in row[1:]]
        except ValueError:
            x, vals = math.nan, []
        if len(vals) != len(SPECTRUM_G) or not abs(x - grid[i]) <= checks.CSV_REL * grid[i]:
            return {"checked": checked, "failed": checked, "poles": 0, "why": "malformed CSV row"}
        for c, v in enumerate(vals):
            values[i, c] = v
    poles = sum(v is None for v in values.values())

    base = am.SystemParams(delta_r=2.5, gamma_r=2.5)
    states = {}
    failed = 0
    rng = _rng(args)
    for flat in rng.choice(cells, size=SPECTRUM_CHECKED_CELLS, replace=False):
        i, c = divmod(int(flat), len(SPECTRUM_G))
        if c not in states:
            p = base.replace(coupling_G=SPECTRUM_G[c] * base.kappa)
            ss = am.fixed_point(p)
            res_ok = checks.fixed_point_residual(ss.beta, p.delta_r, p.gamma_r) <= checks.RESIDUAL_TOL
            states[c] = (p, ss, am.derive_couplings(p, ss), res_ok)
        p, ss, cpl, res_ok = states[c]
        want, tol = checks.spectrum_cell(am, p, ss, cpl, grid[i] * p.omega_m)
        got = values[i, c]
        if want is None or got is None:
            ok = want is None and got is None
        else:
            ok = abs(got - want) <= tol + checks.CSV_REL * abs(want)
        failed += not (ok and res_ok)
    return {"checked": checked, "failed": failed, "poles": poles}


# --- entangle-panel ------------------------------------------------------


def entangle_prepare(am, args):
    import_s = import_cli()
    csv = os.path.join(args.outdir, f"entangle-{args.rep}.csv")
    argv = ["entangle", "--case", "1", "--g", "25", "--delta-min", "0", "--delta-max", "3"]
    argv += ["--points", str(ENTANGLE_POINTS), "--out", csv]
    return {"argv": argv, "csv": csv, "import_s": import_s}


def entangle_check(am, args, job):
    """One structure check (CSV header, rows, grid and cell syntax) plus the
    seeded rows.  A malformed file fails every check of the pass."""
    import numpy as np

    import checks

    checked = 1 + ENTANGLE_CHECKED_ROWS + ENTANGLE_CHECKED_UNSTABLE
    rows = _read_csv(job["csv"])
    if rows[0] != ["delta_over_omega_m", "stable", "e_n", "nu"] or len(rows) != ENTANGLE_POINTS + 1:
        return {"checked": checked, "failed": checked, "unstable": 0, "why": "malformed CSV"}
    grid = np.linspace(0.0, 3.0, ENTANGLE_POINTS)
    parsed = []
    for i, row in enumerate(rows[1:]):
        try:
            x, stable, e_n, nu = float(row[0]), row[1], _cell(row[2]), _cell(row[3])
            ok = abs(x - grid[i]) <= checks.CSV_REL * max(grid[i], 1.0) and stable in ("true", "false")
        except (ValueError, IndexError):
            ok = False
        if not ok:
            return {"checked": checked, "failed": checked, "unstable": 0, "why": "malformed CSV row"}
        parsed.append((stable == "true", e_n, nu))
    unstable = [i for i, r in enumerate(parsed) if not r[0]]

    # Seeded rows, then unstable rows not already drawn; when there are too
    # few unstable rows, stable ones make up the count.
    rng = _rng(args)
    order = [int(i) for i in rng.permutation(ENTANGLE_POINTS)]
    sample = order[:ENTANGLE_CHECKED_ROWS]
    extra = [i for i in rng.permutation(unstable).tolist() if i not in sample]
    extra += [i for i in order[ENTANGLE_CHECKED_ROWS:] if i not in extra]
    sample += extra[:ENTANGLE_CHECKED_UNSTABLE]
    base = am.SystemParams(delta_r=1.0, gamma_r=1.0)
    base = base.replace(coupling_G=25.0 * base.kappa)
    failed = 0
    for i in sample:
        p = base.replace(delta=float(grid[i]) * base.omega_m)
        failed += not checks.entanglement_ok(am, p, *parsed[i])
    return {"checked": checked, "failed": failed, "unstable": len(unstable)}


# --- cold-points ---------------------------------------------------------


def cold_prepare(am, args):
    """Operating points drawn from (seed, rep); the library sees only these."""
    import numpy as np

    rng = _rng(args)
    n = COLD_GRID * COLD_GRID
    ix, iy = np.divmod(np.arange(n), COLD_GRID)
    delta_r = 0.8 + 7.2 * (ix + rng.random(n)) / COLD_GRID
    gamma_r = 0.8 + 7.2 * (iy + rng.random(n)) / COLD_GRID
    g = rng.uniform(5.0, 100.0, n)
    delta = rng.uniform(-2.0, 2.0, n)
    omega = rng.uniform(-2.0, 2.0, n)
    base = am.SystemParams()
    points = [
        (
            base.replace(
                delta_r=float(delta_r[k]),
                gamma_r=float(gamma_r[k]),
                coupling_G=float(g[k]) * base.kappa,
                delta=float(delta[k]) * base.omega_m,
            ),
            float(omega[k]) * base.omega_m,
        )
        for k in rng.permutation(n)
    ]
    return {"points": points, "results": [], "latency_s": []}


def cold_run(am, job):
    clock = cpu_clock
    results, latency = job["results"], job["latency_s"]
    for p, w in job["points"]:
        t0 = clock()
        try:
            ss = am.fixed_point(p)
            cpl = am.derive_couplings(p, ss)
            try:
                routes = (
                    am.transfer_direct(p, cpl, ss, w),
                    am.transfer_closed_form(p, cpl, ss, w),
                )
            except am.PoleAtOmega:
                routes = None
            en = am.entanglement_at(p)
            results.append((ss, routes, en))
        except Exception as exc:  # noqa: BLE001 - counted as a failed point
            results.append(exc)
        latency.append(clock() - t0)
    return 0


def cold_check(am, args, job):
    import checks

    failed = poles = unstable = 0
    for (p, _), res in zip(job["points"], job["results"]):
        if isinstance(res, Exception):
            failed += 1
            continue
        ss, routes, en = res
        poles += routes is None
        unstable += not en.stable
        ok = checks.fixed_point_residual(ss.beta, p.delta_r, p.gamma_r) <= checks.RESIDUAL_TOL
        ok = ok and (routes is None or checks.route_error(*routes) <= checks.ROUTE_TOL)
        ok = ok and checks.entanglement_ok(am, p, en.stable, en.e_n, en.nu)
        failed += not ok
    return {"checked": len(job["points"]), "failed": failed, "poles": poles, "unstable": unstable}


# name -> (prepare, run, check, result points per pass, checks per pass)
WORKLOADS = {
    "spectrum-panel": (
        spectrum_prepare, cli_run, spectrum_check,
        SPECTRUM_POINTS * len(SPECTRUM_G), 1 + SPECTRUM_CHECKED_CELLS,
    ),
    "entangle-panel": (
        entangle_prepare, cli_run, entangle_check,
        ENTANGLE_POINTS, 1 + ENTANGLE_CHECKED_ROWS + ENTANGLE_CHECKED_UNSTABLE,
    ),
    "cold-points": (
        cold_prepare, cold_run, cold_check, COLD_GRID * COLD_GRID, COLD_GRID * COLD_GRID,
    ),
}


def run_pass(am, args):
    prepare, run, check, points, checks_per_pass = WORKLOADS[args.workload]
    job = prepare(am, args)
    steady = sys.modules.get(f"{PACKAGE}.steadystate")
    cached = getattr(getattr(steady, "solve_beta", None), "cache_info", None)
    cache0 = cached() if cached else None
    tracer = None
    if args.trace:
        tracer = Tracer(PACKAGE, LAYERS)
        tracer.install()
    t0, c0 = time.perf_counter(), cpu_clock()
    try:
        rc = run(am, job)
    finally:
        cpu_s = cpu_clock() - c0 + job.get("import_s", 0.0)
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    cache1 = cached() if cached else None
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "points": points,
        "peak_rss_mib": peak_rss_mib,
        "poles": 0,
        "unstable": 0,
    }
    if rc != 0:
        record.update(checked=checks_per_pass, failed=checks_per_pass, why=f"exit code {rc}")
    else:
        record.update(check(am, args, job))
    if "latency_s" in job:
        record["latency_s"] = job["latency_s"]
    if tracer is not None:
        record["layers"] = tracer.snapshot()
        record["absent"] = tracer.absent
        if cache0 is not None:
            record["cache"] = {
                "hits": cache1.hits - cache0.hits,
                "misses": cache1.misses - cache0.misses,
            }
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    am, setup_s = setup()
    record = {"setup_s": setup_s}
    if args.mode == "pass":
        record.update(run_pass(am, args))
    import numpy

    record["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_enabled": getattr(am, "NUMBA_ENABLED", None),
        "nproc": os.cpu_count(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
