"""Acceptance suite: the package's quantitative exit criteria.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
failures also carry the detail in the assertion message).  Reference
targets and tolerances are frozen here.

Known state of this build (see README "Verification status"): criteria 1,
2, 3 and 7 pass, criterion 4's complete-squeezing floor passes, while the
coupling-ordering clause of criterion 4 and the entanglement-magnitude
criteria 5 and 6 are NOT met by the model as parameterized; the assertions
are kept at their stated tolerances rather than loosened to match.
"""

import time

import numpy as np
import pytest
from conftest import eig_stable, random_covariance, symplectic_nu_oracle, symplectic_spectrum

import atomoptomech as am
from atomoptomech.entanglement import is_stable
from atomoptomech.selfcheck import random_stable_operating_point


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _refined_min(params, couplings, ss, grid, rounds=6, width=2, sub=81):
    """Minimum of the spectrum over the grid, with local refinement around
    the coarse argmin (the squeezing dips are much narrower than the panel
    grid spacing)."""
    vals = am.output_spectrum(params, couplings, ss, grid).s_out
    # a pole comes back as NaN from an array call; it must still fail here
    assert np.all(np.isfinite(vals))
    i = int(np.argmin(vals))
    lo = grid[max(i - width, 0)]
    hi = grid[min(i + width, len(grid) - 1)]
    best = float(vals[i])
    for _ in range(rounds):
        xs = np.linspace(lo, hi, sub)
        sv = am.output_spectrum(params, couplings, ss, xs).s_out
        assert np.all(np.isfinite(sv))
        j = int(np.argmin(sv))
        best = min(best, float(sv[j]))
        lo = xs[max(j - 1, 0)]
        hi = xs[min(j + 1, sub - 1)]
    return best


def _panel_minima(case, g_list, points=2000):
    p0 = am.SystemParams()
    out = []
    for gk in g_list:
        p = p0.replace(
            delta_r=case, gamma_r=case, coupling_G=gk * p0.kappa, delta=-p0.omega_m
        )
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        grid = np.linspace(0.5, 1.5, points) * p0.omega_m
        out.append(_refined_min(p, cpl, ss, grid))
    return out


def _peak(rows):
    best = None
    for r in rows:
        if r.e_n is not None and (best is None or r.e_n > best.e_n):
            best = r
    return best


def test_criterion_1_steady_state_excitations():
    t0 = time.perf_counter()
    excs = {c: abs(am.solve_beta(c, c)[0]) ** 2 for c in (1.0, 2.5, 8.0)}
    b1 = am.solve_beta(1.0, 1.0)[0]
    b8 = am.solve_beta(8.0, 8.0)[0]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(excs[1.0] - 0.255) <= 0.003
        and abs(excs[2.5] - 0.069) <= 0.003
        and abs(excs[8.0] - 0.008) <= 0.003
        and abs(b1.real + 0.411) <= 0.005
        and abs(b1.imag + 0.291) <= 0.005
        and abs(b8.real + 0.062) <= 0.005
        and abs(b8.imag + 0.061) <= 0.005
    )
    detail = (
        f"excitations {excs[1.0]:.4f}/{excs[2.5]:.4f}/{excs[8.0]:.4f}, "
        f"roots {b1:.4f}, {b8:.4f} ({elapsed*1e3:.0f} ms)"
    )
    assert ok, _report(1, ok, detail)
    _report(1, ok, detail)


def test_criterion_2_transfer_route_equivalence():
    rng = np.random.default_rng(20240501)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        p, ss, cpl = random_stable_operating_point(rng)
        w = rng.uniform(-2.0, 2.0) * p.omega_m
        td = am.transfer_direct(p, cpl, ss, w)
        tc = am.transfer_closed_form(p, cpl, ss, w)
        for a, b in ((td.a_c, tc.a_c), (td.b_c, tc.b_c), (td.c_c, tc.c_c),
                     (td.d_c, tc.d_c), (td.f_c, tc.f_c)):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    detail = f"worst relative deviation {worst:.2e} over 200 points ({elapsed:.2f} s)"
    assert ok, _report(2, ok, detail)
    _report(2, ok, detail)


def test_criterion_3_shot_noise_floor():
    p = am.SystemParams(coupling_G=0.0, temperature=0.0)
    ss = am.fixed_point(p)
    cpl = am.derive_couplings(p, ss)
    devs = [
        abs(am.output_spectrum(p, cpl, ss, w).s_out - 1.0)
        for w in np.linspace(0.5, 1.5, 100) * p.omega_m
    ]
    ok = max(devs) <= 1e-10
    detail = f"max |S-1| = {max(devs):.2e} on 100 frequencies"
    assert ok, _report(3, ok, detail)
    _report(3, ok, detail)


def test_criterion_4_squeezing_panels():
    t0 = time.perf_counter()
    mins_b = _panel_minima(2.5, (50, 75, 100))
    floor_ok = all(m < 0.05 for m in mins_b)
    mins_a = _panel_minima(1.0, (25, 50, 75, 100))
    elapsed = time.perf_counter() - t0
    ordering_ok = all(mins_a[i] >= mins_a[i + 1] for i in range(3))
    ok = floor_ok and ordering_ok
    detail = (
        f"complete-squeezing minima {['%.3g' % m for m in mins_b]} (floor "
        f"{'ok' if floor_ok else 'violated'}); dip ordering "
        f"{['%.3g' % m for m in mins_a]} ({'ok' if ordering_ok else 'violated'}) "
        f"({elapsed:.1f} s)"
    )
    assert ok, _report(4, ok, detail)
    _report(4, ok, detail)


def test_criterion_5_entanglement_peak():
    p = am.SystemParams(n_thermal=0.0)
    grid = np.linspace(0.0, 3.0, 500) * p.omega_m
    t0 = time.perf_counter()
    rows_high = am.detuning_sweep(p, (1.0, 1.0), 25.0, grid)
    rows_low = am.detuning_sweep(p, (8.0, 8.0), 25.0, grid)
    elapsed = time.perf_counter() - t0
    peak = _peak(rows_high)
    peak_low = _peak(rows_low)
    value_ok = peak is not None and abs(peak.e_n - 0.34) <= 0.05
    location_ok = peak is not None and abs(peak.delta_over_omega_m - 1.22) <= 0.10
    order_ok = (
        peak is not None and peak_low is not None and peak.e_n > peak_low.e_n
    )
    ok = value_ok and location_ok and order_ok
    detail = (
        f"peak {peak.e_n:.4f} at {peak.delta_over_omega_m:.3f} omega_m "
        f"(target 0.34+-0.05 at 1.22+-0.10); low-excitation peak "
        f"{peak_low.e_n:.4f} ({elapsed:.1f} s)"
    )
    assert ok, _report(5, ok, detail)
    _report(5, ok, detail)


def test_criterion_6_atom_number_coincidence():
    p = am.SystemParams(n_thermal=0.0)
    grid = np.linspace(0.0, 3.0, 500) * p.omega_m
    peaks = {}
    for n_atoms in (1e6, 1e7):
        rows = am.detuning_sweep(p.replace(n_atoms=n_atoms), (1.0, 1.0), 100.0, grid)
        peaks[n_atoms] = _peak(rows)
    p6, p7 = peaks[1e6], peaks[1e7]
    ok = (
        p6 is not None
        and p7 is not None
        and abs(p6.e_n - p7.e_n) <= 0.02
        and abs(p6.delta_over_omega_m - p7.delta_over_omega_m) <= 0.05
    )
    detail = (
        f"peaks {p6.e_n:.4f}@{p6.delta_over_omega_m:.3f} (1e6 atoms) vs "
        f"{p7.e_n:.4f}@{p7.delta_over_omega_m:.3f} (1e7 atoms)"
    )
    assert ok, _report(6, ok, detail)
    _report(6, ok, detail)


def test_criterion_7_property_suite():
    rng = np.random.default_rng(7777)
    # Lyapunov residuals on solved operating points
    worst_res = 0.0
    for _ in range(20):
        p, ss, cpl = random_stable_operating_point(rng)
        ds = am.build_drift(p, cpl, ss)
        scale = np.max(np.abs(ds.j))
        v = am.steady_covariance(ds)
        res = np.max(np.abs(ds.j / scale @ v + v @ ds.j.T / scale + ds.d / scale))
        worst_res = max(worst_res, res / np.max(np.abs(ds.d / scale)))
        # reduced covariance obeys the uncertainty bound
        assert np.all(symplectic_spectrum(v[:4, :4]) >= 0.5 - 1e-9)
        # log-negativity is non-negative wherever defined
        assert am.log_negativity(v).e_n >= 0.0
    assert worst_res <= 1e-9

    # closed-form symplectic eigenvalue vs the eigen-oracle
    worst_nu = 0.0
    for _ in range(100):
        v4 = random_covariance(rng)
        worst_nu = max(worst_nu, abs(am.symplectic_nu(v4) - symplectic_nu_oracle(v4)))
    assert worst_nu <= 1e-9

    # Routh-Hurwitz vs the eigenvalue-sign oracle
    mismatches = 0
    for _ in range(500):
        j = rng.normal(size=(6, 6))
        shift = np.max(np.linalg.eigvals(j).real)
        margin = rng.uniform(0.05, 1.0)
        j -= (shift + margin) * np.eye(6) if rng.random() < 0.5 else (shift - margin) * np.eye(6)
        if am.routh_hurwitz_stable(am.char_poly(j)) != eig_stable(j):
            mismatches += 1
    ok = mismatches == 0
    detail = (
        f"lyapunov residual {worst_res:.2e}, nu deviation {worst_nu:.2e}, "
        f"routh mismatches {mismatches}/500"
    )
    assert ok, _report(7, ok, detail)
    _report(7, ok, detail)
