"""Shared fixtures and test-only oracles.

The eigenvalue-based oracles (QR eigensolver via numpy.linalg) live here,
in the test suite only; the shipped library never calls a general
eigensolver.
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import atomoptomech as am

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("atomoptomech", derandomize=True, database=None, deadline=None)
settings.load_profile("atomoptomech")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from the package's
    # source, at collection, in its home directory: give it a temporary one,
    # removed when the run ends, so a run leaves no .hypothesis/ behind.
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="atomoptomech-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def default_params():
    return am.SystemParams()


@pytest.fixture(scope="session")
def steady_case1(default_params):
    p = default_params
    ss = am.fixed_point(p)
    return p, ss, am.derive_couplings(p, ss)


def eig_stable(j):
    """Eigenvalue-sign stability verdict (test-only oracle)."""
    return bool(np.max(np.linalg.eigvals(np.asarray(j, dtype=float)).real) < 0)


def poly_from_eigs(j):
    """Characteristic polynomial coefficients from QR eigenvalues."""
    eigs = np.linalg.eigvals(np.asarray(j, dtype=float))
    coeffs = np.array([1.0 + 0.0j])
    for lam in eigs:
        coeffs = np.convolve(coeffs, [1.0, -lam])
    return coeffs.real


def symplectic_nu_oracle(v4):
    """Smallest symplectic eigenvalue of the partial transpose via the
    spectrum of i Omega V-tilde (test-only oracle)."""
    v4 = np.asarray(v4, dtype=float)
    flip = np.diag([1.0, -1.0, 1.0, 1.0])
    vt = flip @ v4 @ flip
    omega2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.block(
        [[omega2, np.zeros((2, 2))], [np.zeros((2, 2)), omega2]]
    )
    eigs = np.linalg.eigvals(1j * omega @ vt)
    return float(np.min(np.abs(eigs)))


def symplectic_spectrum(v4):
    """Both symplectic eigenvalues of an (untransposed) covariance."""
    v4 = np.asarray(v4, dtype=float)
    omega2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.block([[omega2, np.zeros((2, 2))], [np.zeros((2, 2)), omega2]])
    eigs = np.abs(np.linalg.eigvals(1j * omega @ v4))
    return np.sort(eigs)[::2]  # pairs (+nu, -nu) -> unique values


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def random_covariance(rng):
    """Random valid two-mode covariance: symplectic conjugation of a
    thermal-diagonal state by rotations, local squeezers, a beamsplitter
    and a two-mode squeezer."""
    a = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.5, 2.0)
    d = np.diag([a, a, b, b])
    blocks = []
    blocks.append(np.block([
        [_rot(rng.uniform(0, 2 * np.pi)), np.zeros((2, 2))],
        [np.zeros((2, 2)), _rot(rng.uniform(0, 2 * np.pi))],
    ]))
    r1, r2 = rng.uniform(-0.8, 0.8, size=2)
    blocks.append(np.diag([np.exp(r1), np.exp(-r1), np.exp(r2), np.exp(-r2)]))
    th = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(th), np.sin(th)
    blocks.append(np.block([
        [c * np.eye(2), s * np.eye(2)],
        [-s * np.eye(2), c * np.eye(2)],
    ]))
    r = rng.uniform(0.0, 0.8)
    ch, sh = np.cosh(r), np.sinh(r)
    z = np.diag([1.0, -1.0])
    blocks.append(np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]]))
    smat = np.eye(4)
    for blk in blocks:
        smat = smat @ blk
    return smat @ d @ smat.T
