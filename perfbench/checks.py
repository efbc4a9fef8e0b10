"""Independent arithmetic for known answers and certificate re-checks.

Nothing here calls conekit: every certificate the library returns is
re-derived from its data with plain numpy.  The numpy.linalg functions are
bound at import, before the tracer patches the module, so checks never show
up in a trace.
"""

import numpy as np
from numpy.linalg import eigvalsh, norm, svd

EPS = np.finfo(float).eps
# A certificate value must clear roundoff by this factor times eps*||X||*dim.
ROUNDOFF_MARGIN = 8.0


def hermitian(x):
    return (x + x.conj().T) / 2.0


def spectral_norm(x):
    """Largest absolute eigenvalue of the Hermitian part."""
    evals = eigvalsh(hermitian(x))
    return float(max(abs(evals[0]), abs(evals[-1])))


def lambda_min(x):
    return float(eigvalsh(hermitian(x))[0])


def partial_transpose(x, m, n):
    """Transpose of the second factor, written out independently of conekit."""
    return x.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)


def schmidt_rank(v, m, n, rtol=1e-9):
    s = svd(np.asarray(v).reshape(m, n), compute_uv=False)
    return int(np.count_nonzero(s > rtol * s[0]))


def roundoff_floor(x):
    """Size below which an expectation of x is indistinguishable from 0."""
    return ROUNDOFF_MARGIN * EPS * x.shape[0] * max(spectral_norm(x), 1e-300)


def negative_eigenpair(x, eigenvalue, vector, tol):
    """Reason the eigenpair certificate fails to prove x is not PSD, or None.

    The Rayleigh quotient of the stored vector must be negative beyond both
    the caller's tolerance and roundoff, and agree with the claimed
    eigenvalue within the Hermitian residual bound |mu - lambda| <= ||Xv - mu v||.
    """
    h = hermitian(np.asarray(x, dtype=complex))
    v = np.asarray(vector, dtype=complex)
    nv = norm(v)
    if not nv > 0:
        return "certificate vector is zero"
    v = v / nv
    hv = h @ v
    rayleigh = float(np.real(np.vdot(v, hv)))
    residual = float(norm(hv - eigenvalue * v))
    if abs(rayleigh - eigenvalue) > residual + roundoff_floor(h):
        return f"rayleigh quotient {rayleigh:.3e} disagrees with eigenvalue {eigenvalue:.3e}"
    if not rayleigh < -max(tol, roundoff_floor(h)):
        return f"rayleigh quotient {rayleigh:.3e} is not negative beyond roundoff"
    return None


def product_pair(w, z, y, expectation, tol):
    """Reason the (z, y) certificate fails to prove w is not block-positive, or None."""
    z = np.asarray(z, dtype=complex)
    y = np.asarray(y, dtype=complex)
    for name, vec in (("z", z), ("y", y)):
        if abs(norm(vec) - 1.0) > 1e-9:
            return f"{name} is not a unit vector"
    p = np.kron(z, y)
    value = float(np.real(np.vdot(p, hermitian(w) @ p)))
    scale = max(spectral_norm(w), 1e-300)
    if abs(value - expectation) > 1e-9 * scale:
        return f"product expectation {value:.3e} disagrees with reported {expectation:.3e}"
    if not value < -max(tol, roundoff_floor(w)):
        return f"product expectation {value:.3e} is not negative beyond roundoff"
    return None


def sr_k_value(w, m, n, k, value, v):
    """Reason the min_sr_k_expectation answer (value, v) is wrong, or None.

    v must be a unit vector of Schmidt rank at most k whose expectation is
    the returned value, and that value cannot lie below lambda_min(w).
    """
    scale = spectral_norm(w)
    v = np.asarray(v, dtype=complex)
    if abs(norm(v) - 1.0) > 1e-9:
        return "returned vector is not a unit vector"
    rank = schmidt_rank(v, m, n)
    if rank > k:
        return f"returned vector has Schmidt rank {rank} > {k}"
    actual = float(np.real(np.vdot(v, hermitian(w) @ v)))
    if abs(actual - value) > 1e-9 * scale:
        return f"value {value:.6e} is not the expectation {actual:.6e} of the vector"
    if value < lambda_min(w) - 1e-9 * scale:
        return f"value {value:.6e} lies below lambda_min"
    return None
