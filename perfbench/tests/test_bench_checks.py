import numpy as np
import pytest

import checks

TOL = 1e-9


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_true_negative_eigenpair_is_accepted(rng):
    x = _hermitian(rng, 6)
    evals, evecs = np.linalg.eigh(x)
    assert evals[0] < 0
    assert checks.negative_eigenpair(x, evals[0], evecs[:, 0], TOL) is None


def test_forged_eigenpair_is_rejected(rng):
    x = _hermitian(rng, 6)
    evals, evecs = np.linalg.eigh(x)
    # The top eigenvector with the bottom eigenvalue claimed.
    assert checks.negative_eigenpair(x, evals[0], evecs[:, -1], TOL) is not None


def test_roundoff_certificate_on_scaled_psd_is_rejected(rng):
    g = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    x = (g @ g.conj().T) * 1e6
    evals, evecs = np.linalg.eigh(x)
    assert abs(evals[0]) < 1e-6 * evals[-1]
    assert checks.negative_eigenpair(x, evals[0], evecs[:, 0], TOL) is not None


def _unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_product_pair_with_negative_expectation_is_accepted(rng):
    z, y = _unit(rng, 2), _unit(rng, 3)
    p = np.kron(z, y)
    w = np.eye(6) - 2.0 * np.outer(p, p.conj())
    assert checks.product_pair(w, z, y, -1.0, TOL) is None


def test_product_pair_with_wrong_expectation_or_norm_is_rejected(rng):
    z, y = _unit(rng, 2), _unit(rng, 3)
    p = np.kron(z, y)
    w = np.eye(6) - 2.0 * np.outer(p, p.conj())
    assert checks.product_pair(w, z, y, -1.5, TOL) is not None
    assert checks.product_pair(w, 2 * z, y, -1.0, TOL) is not None
    assert checks.product_pair(np.eye(6), z, y, 1.0, TOL) is not None


def test_sr_k_value_checks_rank_expectation_and_floor(rng):
    w = _hermitian(rng, 9)
    z, y = _unit(rng, 3), _unit(rng, 3)
    v = np.kron(z, y)
    value = float(np.real(np.vdot(v, w @ v)))
    assert checks.sr_k_value(w, 3, 3, 1, value, v) is None
    assert "Schmidt rank" in checks.sr_k_value(w, 3, 3, 1, 0.0, _unit(rng, 9))
    assert "expectation" in checks.sr_k_value(w, 3, 3, 1, value + 1e-3, v)
    bottom = np.linalg.eigh(w)[1][:, 0]
    below = float(np.linalg.eigvalsh(w)[0]) - 1.0
    assert checks.sr_k_value(w, 3, 3, 3, below, bottom) is not None


def test_schmidt_rank_and_partial_transpose():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert checks.schmidt_rank(bell, 2, 2) == 2
    pt = checks.partial_transpose(np.outer(bell, bell.conj()), 2, 2)
    assert checks.lambda_min(pt) == pytest.approx(-0.5)
