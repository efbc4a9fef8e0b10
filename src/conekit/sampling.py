"""Seeded random ensembles used by the samplers and verification suites.

Every function takes an explicit numpy Generator, so determinism is always
owned by the caller; suites derive one generator per trial.
"""

import numpy as np

from .bipartite import BipartiteDims, _check_k, kron, partial_transpose, product_vec
from .errors import DegenerateSampleError

PPT_REJECTION_CAP = 1000
# Fresh Ginibre draws random_exact_kraus_ops tries before giving up.
EXACT_KRAUS_ATTEMPTS = 16
# random_ppt draws induced states with environment K = PPT_ENVIRONMENT * mn.
PPT_ENVIRONMENT = 5


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex Gaussian matrix with unit-variance entries."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = ginibre(rng, dim, 1)[:, 0]
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(ginibre(rng, dim, dim))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_product_vector(rng: np.random.Generator, dims: BipartiteDims) -> np.ndarray:
    return product_vec(
        random_unit_vector(rng, dims.m), random_unit_vector(rng, dims.n)
    )


def random_vector_with_sr(
    rng: np.random.Generator, dims: BipartiteDims, r: int
) -> np.ndarray:
    """Unit vector with Schmidt rank exactly r (planted orthonormal frames)."""
    _check_k(r, dims)
    left = haar_unitary(rng, dims.m)[:, :r]
    right = haar_unitary(rng, dims.n)[:, :r]
    # Coefficients bounded away from zero keep the planted rank unambiguous.
    coeffs = rng.uniform(0.3, 1.0, size=r)
    v = np.einsum("t,it,jt->ij", coeffs, left, right).reshape(dims.total)
    return v / np.linalg.norm(v)


def random_operator_with_osr(
    rng: np.random.Generator, dims: BipartiteDims, k: int
) -> np.ndarray:
    """Sum of k Gaussian product terms; operator Schmidt rank at most k."""
    _check_k(k, dims)
    out = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for _ in range(k):
        out += kron(ginibre(rng, dims.m, dims.m), ginibre(rng, dims.n, dims.n))
    return out


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Trace-one Wishart matrix G G* from a square Ginibre G."""
    g = ginibre(rng, dim, dim)
    x = g @ g.conj().T
    return x / np.trace(x).real


def random_ppt(rng: np.random.Generator, dims: BipartiteDims) -> np.ndarray:
    """Trace-one PPT matrix, rejection-sampled from the induced Wishart ensemble.

    Draws use G of shape (mn, K) with environment K = 5mn.  Random induced
    states are PPT with probability tending to one once K exceeds about 4mn
    (Aubrun, "Partial transposition of random states and non-centered
    semicircular distributions", arXiv:1011.0275), so almost every draw is
    accepted from 2x2 to 8x8.  A smaller environment such as 2mn accepts
    ~1% of draws at 4x4 and almost none from 4x5 on.
    """
    total = dims.total
    for _ in range(PPT_REJECTION_CAP):
        g = ginibre(rng, total, PPT_ENVIRONMENT * total)
        x = g @ g.conj().T
        x /= np.trace(x).real
        if np.linalg.eigvalsh(partial_transpose(x, dims))[0] >= 0.0:
            return x
    raise DegenerateSampleError(
        f"no PPT sample within {PPT_REJECTION_CAP} rejection attempts"
    )


def random_separable(rng: np.random.Generator, dims: BipartiteDims) -> np.ndarray:
    """Trace-one conic combination of mn random product projectors."""
    x = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for _ in range(dims.total):
        p = random_product_vector(rng, dims)
        x += rng.uniform(0.1, 1.0) * np.outer(p, p.conj())
    return x / np.trace(x).real


def random_exact_kraus_ops(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """Ginibre Kraus operators normalized so that sum A_i* A_i = I exactly."""
    for _ in range(EXACT_KRAUS_ATTEMPTS):
        ops = [ginibre(rng, dim, dim) for _ in range(count)]
        s = sum(a.conj().T @ a for a in ops)
        evals, evecs = np.linalg.eigh(s)
        if evals[0] <= 1e-12 * evals[-1]:
            continue
        inv_sqrt = (evecs * (evals ** -0.5)) @ evecs.conj().T
        return [a @ inv_sqrt for a in ops]
    raise DegenerateSampleError("normalization matrix stayed singular; resampling failed")
