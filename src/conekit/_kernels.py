"""Hot inner loop of the product/low-Schmidt-rank expectation minimizer.

The kernel alternates two constrained eigen-solves over the tensor factors
of v = sum_t x_t (x) y_t.
"""

import numpy as np


def prepare_layouts(w: np.ndarray, m: int, n: int):
    """Pre-permuted copies of w consumed by the kernel's 2-d contractions.

    wx[j, (i*m+i2)*n+l] = W[(i,j),(i2,l)] feeds the x-step, and
    wy[i, (j*n+l)*m+i2] = W[(i,j),(i2,l)] feeds the y-step.
    """
    w4 = w.reshape(m, n, m, n)
    wx = np.ascontiguousarray(w4.transpose(1, 0, 2, 3)).reshape(n, m * m * n)
    wy = np.ascontiguousarray(w4.transpose(0, 1, 3, 2)).reshape(m, n * n * m)
    return wx, wy


def _bottom_block_vector(layout, frame, k, m, n):
    """Bottom eigenvector of the (k*m) Hermitian contraction of W with frame.

    layout is wx (m, n as given) or wy (roles of m and n swapped); frame is
    the orthonormal (n, k) frame of the factor held fixed.  Returns the
    eigenvalues and the eigenvector unpacked as an (m, k) factor matrix.
    """
    a = ((frame.conj().T @ layout).reshape(k * m * m, n) @ frame).reshape(k, m, m, k)
    h = a.transpose(0, 1, 3, 2).reshape(k * m, k * m)
    evals, evecs = np.linalg.eigh((h + h.conj().T) * 0.5)
    return evals, evecs[:, 0].reshape(k, m).T


def seesaw_minimize(m, n, k, wx, wy, y0, iters, ftol):
    """Minimize v* W v over unit v = sum_{t<k} x_t (x) y_t.

    With the k-column frame y held orthonormal, the optimal stacked x is the
    bottom eigenvector of a (k*m) Hermitian contraction of W, and symmetrically
    for y; each half-step minimizes over a superset of the current iterate, so
    the value is nonincreasing.  Returns (value, x_frame, y_frame) with
    v = sum_t x[:, t] (x) y[:, t] of unit norm.
    """
    y_frame, _ = np.linalg.qr(y0)
    x_pair = np.zeros((m, k), dtype=np.complex128)
    y_pair = np.zeros((n, k), dtype=np.complex128)
    val = np.inf
    prev = np.inf
    for _ in range(iters):
        _, x_stack = _bottom_block_vector(wx, y_frame, k, m, n)
        x_pair, _ = np.linalg.qr(x_stack)
        evals, y_pair = _bottom_block_vector(wy, x_pair, k, n, m)
        val = evals[0]
        y_frame, _ = np.linalg.qr(y_pair)
        if prev - val < ftol * (1.0 + abs(val)):
            break
        prev = val
    return val, x_pair, y_pair
