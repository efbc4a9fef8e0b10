"""Dense complex linear algebra on a bipartite space C^m (x) C^n.

The index convention is row-major throughout: the product basis vector
e_i (x) f_j lives at flat index i*n + j, which is exactly numpy's reshape
order for an (m, n) array.  Every reshuffle (partial transpose,
realignment) is derived from that single convention.

The numerical rules behind every rank and verdict are decided here once:
the rank rule (`_rank_from_singulars`), the zero refusal of `sr`, `osr`
and the decompositions (`_nonzero_rank`), the stacked rank passes
(`_schmidt_ranks`, `_op_ranks`), the rescaling of an array whose norm
overflows or underflows (`_largest_part`) and the range of a rank bound k
(`_check_k`).
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimError, NormError, PreconditionError, ZeroInputError

DEFAULT_TOL = 1e-9
# Bytes of operators per stacked realignment SVD in _op_ranks: four 64 x 64
# complex operators at 8x8, so the stack, and the peak memory of a large
# family, stay bounded, while a whole family at 4x4 or below is one stack.
OSR_STACK_BYTES = 4 * 64 * 64 * 16


@dataclass(frozen=True)
class BipartiteDims:
    """Dimension pair (m, n) of the two tensor factors."""

    m: int
    n: int

    def __post_init__(self):
        for value in (self.m, self.n):
            if not _is_int(value):
                raise DimError(f"factor dimensions must be integers, got {value!r}")
        if self.m < 1 or self.n < 1:
            raise DimError(f"factor dimensions must be >= 1, got ({self.m}, {self.n})")

    @property
    def d(self) -> int:
        """min(m, n), the maximal Schmidt rank."""
        return min(self.m, self.n)

    @property
    def total(self) -> int:
        """Total dimension m*n of the composite space."""
        return self.m * self.n


def _as_complex(x) -> np.ndarray:
    # numpy's own ValueError or TypeError on non-numeric or ragged input
    # becomes a refusal.
    try:
        return np.asarray(x, dtype=np.complex128)
    except (ValueError, TypeError) as exc:
        raise PreconditionError(f"input is not a numeric array: {exc}") from exc


def as_vector(dims: BipartiteDims, v) -> np.ndarray:
    """Coerce to a finite complex vector of length dims.total."""
    arr = _as_complex(v)
    if arr.shape != (dims.total,):
        raise DimError(f"expected vector of length {dims.total}, got shape {arr.shape}")
    return _finite(arr)


def as_matrix(dims: BipartiteDims, x) -> np.ndarray:
    """Coerce to a finite complex square matrix of side dims.total."""
    arr = _as_complex(x)
    if arr.shape != (dims.total, dims.total):
        raise DimError(
            f"expected {dims.total}x{dims.total} matrix, got shape {arr.shape}"
        )
    return _finite(arr)


def _finite(arr: np.ndarray) -> np.ndarray:
    # Runs on every coerced argument; count_nonzero costs about half of
    # .all() on desk-sized arrays.
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise PreconditionError("input has NaN or infinite entries")
    return arr


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices, row-major index pairing."""
    a = _as_complex(a)
    b = _as_complex(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimError(f"first factor must be square, got shape {a.shape}")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimError(f"second factor must be square, got shape {b.shape}")
    # The outer product of the index pairs, (i, j, k, l) -> a[i, k] b[j, l]:
    # the same products as np.kron without its generic axis bookkeeping.
    total = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(total, total)


def product_vec(u, v) -> np.ndarray:
    """The simple tensor u (x) v as a flat vector."""
    u = _as_complex(u)
    v = _as_complex(v)
    if u.ndim != 1 or v.ndim != 1:
        raise DimError("product_vec expects two 1-d vectors")
    return (u[:, None] * v[None, :]).reshape(-1)


def basis_vec(dim: int, i: int) -> np.ndarray:
    """Standard basis vector e_i of C^dim."""
    e = np.zeros(dim, dtype=np.complex128)
    e[i] = 1.0
    return e


def max_entangled_vector(dims: BipartiteDims) -> np.ndarray:
    """Unit vector sum_i e_i (x) f_i / sqrt(d); Schmidt rank d."""
    v = np.eye(dims.m, dims.n, dtype=np.complex128).reshape(dims.total)
    return v / np.sqrt(dims.d)


def swap_operator(dims: BipartiteDims) -> np.ndarray:
    """Flip operator F(x (x) y) = y (x) x; requires m == n."""
    if dims.m != dims.n:
        raise DimError("swap operator needs equal factor dimensions")
    m = dims.m
    # Row i*m + j holds a one at column j*m + i: the identity with its
    # column pair (i, j) swapped.
    eye = np.eye(m * m, dtype=np.complex128)
    return eye.reshape(m * m, m, m).transpose(0, 2, 1).reshape(m * m, m * m)


def partial_transpose(x, dims: BipartiteDims) -> np.ndarray:
    """Transpose of the second tensor factor (block-wise n x n transpose)."""
    x = as_matrix(dims, x)
    m, n = dims.m, dims.n
    return (
        x.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(dims.total, dims.total)
    )


def realign(a, dims: BipartiteDims) -> np.ndarray:
    """Reshuffle an (mn x mn) operator into the (m^2 x n^2) realignment matrix.

    Row index is the first-factor pair (i, k), column index the second-factor
    pair (j, l); a tensor product R (x) S realigns to the rank-one matrix
    vec(R) vec(S)^T, so the singular values of the realignment are exactly
    the operator Schmidt coefficients.
    """
    return _realign(as_matrix(dims, a), dims)


def _realign(a: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    # The reshuffle of an already coerced operator.
    m, n = dims.m, dims.n
    return a.reshape(m, n, m, n).swapaxes(1, 2).reshape(m * m, n * n)


def _realign_singulars(ops, dims: BipartiteDims) -> np.ndarray:
    # The singular values of each realignment of k coerced (mn, mn)
    # operators (a list or a stack), shape (k, r), from a values-only SVD.
    # Each operator is reshuffled straight into the stacked copy.  A stack
    # with an exact zero is first cut down to the realigned rows and columns
    # that are nonzero somewhere in it: that adds or drops only zero singular
    # values, which the rank rule never counts, so every rank is unchanged.
    # A rank-one operator e_i v* realigns to an m x n block of its m^2 x n^2
    # matrix.  An all-zero stack gives one zero singular value per operator.
    # The zero tests read the real and imaginary parts as one float array,
    # several times faster than comparing complex entries.
    m, n = dims.m, dims.n
    realigned = np.stack([a.reshape(m, n, m, n).swapaxes(1, 2) for a in ops])
    realigned = realigned.reshape(len(realigned), m * m, n * n)
    parts = realigned.view(np.float64) != 0.0  # (k, m^2, 2 n^2)
    if np.count_nonzero(parts) != parts.size:
        rows = np.flatnonzero(parts.any(axis=(0, 2)))
        pairs = parts.any(axis=(0, 1))
        cols = np.flatnonzero(pairs[0::2] | pairs[1::2])
        if rows.size == 0:
            return np.zeros((len(realigned), 1))
        if rows.size < m * m or cols.size < n * n:
            realigned = realigned[:, rows[:, None], cols]
    return np.linalg.svd(realigned, compute_uv=False)


def _rank_from_singulars(s: np.ndarray, tol: float):
    # The rank rule: values at or above tol times the largest count, and a
    # spectrum whose largest value is not positive has rank 0.  s is one
    # nonincreasing spectrum (an int is returned) or a stack of them on the
    # last axis (an array of counts).  count_nonzero with an axis is a slow
    # Python path, and sr and osr take the 1-d branch on every call.
    if s.ndim == 1:
        return int(np.count_nonzero(s >= tol * s[0])) if s[0] > 0.0 else 0
    top = s[..., :1]
    return np.add.reduce((s >= tol * top) & (top > 0.0), axis=-1)


def _nonzero_rank(s: np.ndarray, tol: float, of: str) -> int:
    # The rank of one spectrum of a vector or of an operator's realignment
    # (of names which), refusing a zero input.  Zero is read off the largest
    # singular value: a norm underflows to 0 below about 1e-162.
    if s[0] == 0.0:
        verb = "Schmidt-decompose" if of == "vector" else "decompose"
        raise ZeroInputError(f"cannot {verb} the zero {of}")
    return _rank_from_singulars(s, tol)


def _schmidt_ranks(vecs: np.ndarray, dims: BipartiteDims, tol: float) -> list[int]:
    # The Schmidt rank of each row of a coerced (k, mn) stack of vectors,
    # from one stacked SVD of their (m, n) reshapes; a zero row has rank 0.
    singulars = np.linalg.svd(vecs.reshape(-1, dims.m, dims.n), compute_uv=False)
    return _rank_from_singulars(singulars, tol).tolist()


def _op_ranks(dims: BipartiteDims, ops: list, tol: float) -> list[int]:
    # The OSR of each coerced operator, zero ones included (rank 0), from
    # one `_realign_singulars` SVD per stack of OSR_STACK_BYTES.
    per_stack = max(1, OSR_STACK_BYTES // (16 * dims.total * dims.total))
    ranks = []
    for start in range(0, len(ops), per_stack):
        singulars = _realign_singulars(ops[start:start + per_stack], dims)
        ranks += _rank_from_singulars(singulars, tol).tolist()
    return ranks


def _largest_part(x: np.ndarray) -> float:
    # The largest |Re| or |Im| entry of x, 0 only for an exact zero: x over
    # it has a norm in [1, sqrt(2 x.size)], free of overflow and underflow.
    return float(np.maximum(np.abs(x.real), np.abs(x.imag)).max())


def _check_k(k, dims: BipartiteDims):
    # The range check of a Schmidt-rank or OSR bound: an integer in [1, d].
    if not (_is_int(k) and 1 <= k <= dims.d):
        raise PreconditionError(f"k must be an integer in [1, {dims.d}], got {k!r}")


def _check_tol(tol: float):
    if not (0.0 < tol < 1.0):
        raise PreconditionError(f"tol must lie in (0, 1), got {tol}")


def _is_int(value) -> bool:
    # Python and numpy integers; a bool is an int to Python but never a count.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SchmidtDecomp:
    """SVD data of a bipartite vector: v = sum_i coeffs[i] left[i] (x) right[i]."""

    dims: BipartiteDims
    coeffs: np.ndarray  # nonincreasing, length d
    left: np.ndarray  # (d, m), orthonormal rows
    right: np.ndarray  # (d, n), orthonormal rows
    rank: int
    tol: float

    def reconstruct(self) -> np.ndarray:
        """Rebuild the vector from all stored triplets."""
        return np.einsum("t,ti,tj->ij", self.coeffs, self.left, self.right).reshape(
            self.dims.total
        )


@dataclass(frozen=True)
class OpSchmidtDecomp:
    """Realignment SVD of an operator: a = sum_i coeffs[i] left[i] (x) right[i]."""

    dims: BipartiteDims
    coeffs: np.ndarray  # nonincreasing, length min(m^2, n^2)
    left: np.ndarray  # (r, m, m), orthonormal in the Frobenius inner product
    right: np.ndarray  # (r, n, n), orthonormal in the Frobenius inner product
    rank: int
    tol: float

    def reconstruct(self) -> np.ndarray:
        """Rebuild the operator from all stored triplets."""
        total = self.dims.total
        return np.einsum("t,tik,tjl->ijkl", self.coeffs, self.left, self.right).reshape(
            total, total
        )


def schmidt_decompose(v, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> SchmidtDecomp:
    """Schmidt decomposition of a bipartite vector via SVD of its (m, n) reshape."""
    _check_tol(tol)
    v = as_vector(dims, v)
    u, s, vh = np.linalg.svd(v.reshape(dims.m, dims.n), full_matrices=False)
    return SchmidtDecomp(
        dims=dims,
        coeffs=s,
        left=np.ascontiguousarray(u.T),
        right=np.ascontiguousarray(vh),
        rank=_nonzero_rank(s, tol, "vector"),
        tol=tol,
    )


def op_schmidt_decompose(
    a, dims: BipartiteDims, tol: float = DEFAULT_TOL
) -> OpSchmidtDecomp:
    """Operator Schmidt decomposition via SVD of the realignment matrix."""
    _check_tol(tol)
    a = as_matrix(dims, a)
    u, s, vh = np.linalg.svd(_realign(a, dims), full_matrices=False)
    m, n = dims.m, dims.n
    r = s.shape[0]
    return OpSchmidtDecomp(
        dims=dims,
        coeffs=s,
        left=np.ascontiguousarray(u.T).reshape(r, m, m),
        right=np.ascontiguousarray(vh).reshape(r, n, n),
        rank=_nonzero_rank(s, tol, "operator"),
        tol=tol,
    )


def sr(v, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> int:
    """Schmidt rank of a vector: singular values of its (m, n) reshape at or
    above tol times the largest.

    Only the singular values are computed; `schmidt_decompose` applies the
    same rule and also returns the Schmidt vectors.  A zero vector, read off
    the largest singular value, raises `ZeroInputError`.
    """
    _check_tol(tol)
    s = np.linalg.svd(as_vector(dims, v).reshape(dims.m, dims.n), compute_uv=False)
    return _nonzero_rank(s, tol, "vector")


def osr(a, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> int:
    """Operator Schmidt rank of an operator: singular values of its
    realignment at or above tol times the largest.

    Only the singular values are computed, and only of the realignment's
    rows and columns that are not identically zero (`_realign_singulars`,
    shared with `_op_ranks`); `op_schmidt_decompose` applies the same
    rule to the full SVD and also returns the factors.  A zero operator,
    read off the largest singular value, raises `ZeroInputError`.
    """
    _check_tol(tol)
    return _nonzero_rank(_realign_singulars([as_matrix(dims, a)], dims)[0], tol, "operator")


def complete_orthonormal_basis(x: np.ndarray) -> np.ndarray:
    """Unitary whose first column is x (unit), as a phase-corrected reflection.

    With phi = x[0]/|x[0]| (1 when x[0] = 0) and y = x/phi, the basis is
    B = -phi (I - (y + e_0)(y + e_0)* / (1 + y[0])), a Householder
    reflection (Golub & Van Loan, Matrix Computations, sec. 5.1) times a
    phase.  B e_0 = x, and since y[0] = |x[0]| >= 0 the denominator is at
    least 1, so no cancellation occurs for any unit x.
    """
    a = abs(x[0])
    phi = x[0] / a if a > 0.0 else 1.0
    h = x / phi
    h[0] += 1.0
    return -phi * (np.eye(x.shape[0]) - np.outer(h, h.conj() / (1.0 + a)))


def lift_product_to_target(
    u, v, w, dims: BipartiteDims, norm_tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Unitary U with U(u (x) v) = w, for unit u, v, w.

    u (x) v and w are each completed to a unitary basis by one
    phase-corrected Householder reflection (`complete_orthonormal_basis`),
    and U = B_w B_{u(x)v}*, which sends the first column of one basis to
    the first column of the other, so the image of the product vector is
    exact up to rounding.  norm_tol must lie in (0, 1).

    The two factors of U are built apart: `_source_adjoint` checks u and v
    and returns B_{u(x)v}*, and `_lift_from` checks w and multiplies.  A
    caller that lifts one product vector onto many targets builds the
    source factor once; every U it gets has the bits this function returns.
    Refusals come in this order: norm_tol, w's shape and finiteness, u and
    v's shapes, their finiteness, then the unit norms of u, v and w.
    """
    _check_tol(norm_tol)
    w = as_vector(dims, w)
    return _lift_from(_source_adjoint(u, v, dims, norm_tol), w, dims, norm_tol)


def _source_adjoint(u, v, dims: BipartiteDims, norm_tol: float) -> np.ndarray:
    # B_{u(x)v}*, the right factor of every lift of u (x) v, after the
    # checks on u, v and norm_tol.
    _check_tol(norm_tol)
    u = _as_complex(u)
    v = _as_complex(v)
    if u.shape != (dims.m,) or v.shape != (dims.n,):
        raise DimError("u must live in C^m and v in C^n")
    u, v = _finite(u), _finite(v)
    for name, vec in (("u", u), ("v", v)):
        if abs(np.linalg.norm(vec) - 1.0) > norm_tol:
            raise NormError(f"{name} must be a unit vector")
    source = product_vec(u, v)
    return complete_orthonormal_basis(source / np.linalg.norm(source)).conj().T


def _lift_from(
    b_source_adjoint: np.ndarray, w, dims: BipartiteDims, norm_tol: float
) -> np.ndarray:
    # The lift onto w from a source factor built by `_source_adjoint`.
    # Each w is normalized by the norm of the 1-d vector itself: row norms
    # of a stack sum in another order and move the last bits.
    w = as_vector(dims, w)
    norm = np.linalg.norm(w)
    if abs(norm - 1.0) > norm_tol:
        raise NormError("w must be a unit vector")
    return complete_orthonormal_basis(w / norm) @ b_source_adjoint
