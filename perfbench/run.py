#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload spectrum-panel|entangle-panel|cold-points \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a fresh interpreter
(``worker.py``): set-up probes, then workload passes, each followed by one
more probe, until ``--seconds`` is spent.  Times are CPU time of the
worker process.  The last line of standard output is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``);
the line before it holds the environment, the per-repetition figures and
every traced layer.  Workloads and metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Set-up probes per run, besides the set-up of every pass: a few before the
# first pass, then one after every pass, so they sample the whole run.
SETUP_PROBES_FIRST = 3
SETUP_PROBES_MIN = 12
# The whole run, with its last repetition, ends well inside 180 s.
DEADLINE_S = 170.0


def run_worker(args, rep, mode, trace, outdir, timeout):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--rep", str(rep), "--mode", mode, "--trace", str(trace), "--outdir", outdir]
    env = dict(os.environ)
    env.pop("ATOMOPTOMECH_CONFIG", None)  # the CLI would read a user config file
    env.pop("PYTHONPATH", None)
    # Times are CPU time of the worker, and an idle BLAS thread spins on CPU
    # after NumPy starts it (about 0.07 s of every set-up).  The library
    # makes no BLAS-sized calls, so one BLAS thread costs it nothing.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(timeout, 1.0), env=env
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, (out.stderr.strip().splitlines() or [f"exit {out.returncode}"])[-1]
    return json.loads(lines[-1]), None


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha(root):
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def end_to_end(workload, setups, passes):
    cpus = [r["cpu_s"] for r in passes]
    points = passes[0]["points"]
    if workload == "cold-points":
        lat_ms = [1e3 * t for r in passes for t in r["latency_s"]]
    else:
        # A sweep is one CLI call: its per-point latency is the pass's time
        # per result point.
        lat_ms = [1e3 * r["cpu_s"] / r["points"] for r in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "points_per_s": (statistics.median(r["points"] / r["cpu_s"] for r in passes), "1/s"),
        "point_p50_ms": (statistics.median(lat_ms), "ms"),
        "point_p95_ms": (statistics.quantiles(lat_ms, n=20, method="inclusive")[-1], "ms"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in passes), "MiB"),
    }, {"latency_samples": len(lat_ms), "points_per_pass": points}


def _layer_totals(traced):
    totals = {}
    for r in traced:
        for name, s in r["layers"].items():
            t = totals.setdefault(name, {})
            for k, v in s.items():
                t[k] = t.get(k, 0.0) + v
    return totals


def per_layer(passes, traced, untraced):
    n = len(traced)
    tot = _layer_totals(traced)
    points = sum(r["points"] for r in traced)

    def layer(name):
        return tot.get(name, {"calls": 0, "self_s": 0.0})

    def ratio(a, b):
        return a / b if b else 0.0

    sb, sc, ly, ro = (
        layer("steadystate.solve_beta"),
        layer("numerics.solve_complex"),
        layer("numerics.lyapunov_solve"),
        layer("numerics.routh"),
    )
    hits = sum(r.get("cache", {}).get("hits", 0) for r in traced)
    misses = sum(r.get("cache", {}).get("misses", 0) for r in traced)
    all_points = sum(r["points"] for r in passes)
    m = {
        "steadystate.solve_beta.calls": (sb["calls"] / n, "count"),
        "steadystate.solve_beta.self_s": (sb["self_s"] / n, "s"),
        "steadystate.solve_beta.hit_ratio": (ratio(hits, hits + misses), "fraction"),
        "steadystate.branches_per_solve": (ratio(sb.get("branches", 0.0), sb["calls"]), "count"),
        "numerics.solve_complex.calls": (sc["calls"] / n, "count"),
        "numerics.solve_complex.self_s": (sc["self_s"] / n, "s"),
        "numerics.solve_complex.mflops_computed": (
            ratio(sc.get("flops", 0.0), sc["self_s"]) / 1e6, "MFLOP/s"),
        "numerics.lyapunov_solve.calls": (ly["calls"] / n, "count"),
        "numerics.lyapunov_solve.self_s": (ly["self_s"] / n, "s"),
        "numerics.lyapunov_solve.mflops_computed": (
            ratio(ly.get("flops", 0.0), ly["self_s"]) / 1e6, "MFLOP/s"),
        "numerics.routh.calls": (ro["calls"] / n, "count"),
        "numerics.routh.self_s": (ro["self_s"] / n, "s"),
        "numerics.routh.calls_per_point": (ratio(ro["calls"], points), "count"),
        "spectrum.pole_fraction": (ratio(sum(r["poles"] for r in passes), all_points), "fraction"),
        "entanglement.unstable_fraction": (
            ratio(sum(r["unstable"] for r in passes), all_points), "fraction"),
        "cli.output.self_s": (layer("cli.output")["self_s"] / n, "s"),
        "trace_overhead_frac": (
            statistics.median(r["cpu_s"] for r in traced)
            / statistics.median(r["cpu_s"] for r in untraced) - 1.0, "fraction"),
    }
    for name in (
        "spectrum.build_matrix",
        "spectrum.transfer_closed_form",
        "numerics.symplectic_nu",
        "entanglement.build_drift",
        "params.derive_couplings",
    ):
        m[f"{name}.calls"] = (layer(name)["calls"] / n, "count")
        m[f"{name}.self_s"] = (layer(name)["self_s"] / n, "s")
    layers = {name: {k: v / n for k, v in s.items()} for name, s in tot.items()}
    self_sum = sum(s["self_s"] for s in layers.values())
    top = max(layers, key=lambda k: layers[k]["self_s"]) if layers else None
    detail = {
        "layers_per_pass": layers,
        "largest_self_time": top,
        "self_s_sum_per_pass": self_sum,
        "traced_cpu_s": statistics.median(r["cpu_s"] for r in traced),
        "self_s_sum_over_cpu": [
            sum(s["self_s"] for s in r["layers"].values()) / r["cpu_s"] for r in traced
        ],
        "absent": sorted({a for r in traced for a in r.get("absent", [])}),
    }
    return m, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="atomoptomech benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "atomoptomech", "__init__.py")):
        print(f"error: no src/atomoptomech under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    outdir = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(outdir, exist_ok=True)
    try:
        return measure(args, root, outdir, start)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(outdir))
        except OSError:
            pass


def measure(args, root, outdir, start) -> int:
    def remaining():
        return start + DEADLINE_S - time.perf_counter()

    # Warm-up: the first interpreter in a checkout compiles the bytecode,
    # which a user pays once, not per run.
    warm, err = run_worker(args, -1, "setup", 0, outdir, remaining())
    if warm is None:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1
    setups, passes, errors = [], [], []
    probe_s = []

    def probe():
        t0 = time.perf_counter()
        rec, err = run_worker(args, -1 - len(probe_s), "setup", 0, outdir, remaining())
        probe_s.append(time.perf_counter() - t0)
        if rec is None:
            errors.append(err)
        else:
            setups.append(rec["setup_s"])

    for _ in range(SETUP_PROBES_FIRST):
        probe()

    # Passes alternate untraced/traced in a traced run, so the overhead of
    # tracing is measured in the same run.
    min_passes = 3
    attempted = failed = 0
    rep = 0
    durations = []  # a pass and the probe after it
    while True:
        trace = args.trace and rep % 2 == 1
        t0 = time.perf_counter()
        rec, err = run_worker(args, rep, "pass", int(trace), outdir, remaining())
        rep += 1
        if rec is None:
            errors.append(err)
            attempted += WORKLOADS[args.workload][4]
            failed += WORKLOADS[args.workload][4]
        else:
            rec["traced"] = bool(trace)
            passes.append(rec)
            setups.append(rec["setup_s"])
            attempted += rec["checked"]
            failed += rec["failed"]
        probe()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        nxt = statistics.median(durations)
        owed = max(0, SETUP_PROBES_MIN - len(probe_s)) * statistics.median(probe_s)
        if remaining() < 2 * nxt:
            break
        if rep >= min_passes and elapsed + nxt + owed > args.seconds:
            break
    while len(probe_s) < SETUP_PROBES_MIN and remaining() > 10.0:
        probe()

    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    if not untraced or (args.trace and not traced) or not setups:
        print(f"error: no complete pass: {errors[-1] if errors else 'no time left'}",
              file=sys.stderr)
        return 1
    e2e, e2e_detail = end_to_end(args.workload, setups, untraced)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": dict(passes[0]["env"], git_sha=git_sha(root), src_sha256=source_digest(root)),
        "passes": len(passes),
        "setup_probes": len(probe_s),
        "setup_s": setups,
        "cpu_s": [r["cpu_s"] for r in passes],
        "wall_s": [r["wall_s"] for r in passes],
        "errors": errors,
        "failure_notes": sorted({r["why"] for r in passes if "why" in r}),
        **e2e_detail,
    }
    if args.trace:
        metrics, layer_detail = per_layer(passes, traced, untraced)
        detail.update(layer_detail)
    else:
        metrics = e2e
        metrics["ok_fraction"] = (1.0 - failed / attempted, "fraction")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
