"""Dense complex linear algebra on a bipartite space C^m (x) C^n.

The index convention is row-major throughout: the product basis vector
e_i (x) f_j lives at flat index i*n + j, which is exactly numpy's reshape
order for an (m, n) array.  Every reshuffle (partial transpose,
realignment) is derived from that single convention.

The numerical rules behind every rank and verdict are decided here once:
the rank rule (`_rank_from_singulars`), the zero and subnormal rules of
`sr`, `osr` and the decompositions (`_nonzero_rank`), the stacked rank
passes (`_schmidt_ranks`, and `_op_ranks`, which ranks a one-row operator
e_i w* by SR(w) and every other nonzero one by its whole realignment),
the row rule that lets the Kraus passes skip each operator's zero rows
(`_nonzero_rows`), the rescaling of an array whose norm overflows or
underflows (`_largest_part`, divided out by `_over_part`), the
Schmidt-aligned basis of the exact rank-one families
(`_schmidt_aligned_basis`), and every module's argument rules:
`_check_tol`, `_check_k`, `_check_seed`, `_check_count` and the
unit-vector test `_unit_norm`.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimError, NormError, PreconditionError, ZeroInputError

DEFAULT_TOL = 1e-9

# The least normal float, and the exact scale of a value below it: 2**54
# lifts the least subnormal, 2**-1074, to 2**-1020.
_TINY = np.finfo(np.float64).tiny
_SUBNORMAL_SCALE = 2.0**54


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
    return _finite(_square(dims, x))


def _square(dims: BipartiteDims, x) -> np.ndarray:
    # The coercion and shape check of `as_matrix`, without its finiteness
    # pass.
    arr = _as_complex(x)
    if arr.shape != (dims.total, dims.total):
        raise DimError(
            f"expected {dims.total}x{dims.total} matrix, got shape {arr.shape}"
        )
    return arr


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


def _nonzero_rank(mat: np.ndarray, s: np.ndarray, tol: float, of: str) -> int:
    # The rank of the spectrum s of mat, a vector's reshape or an operator's
    # realignment (of names which), refusing a zero input.  Zero is read off
    # the largest singular value: a norm underflows to 0 below about
    # 1e-162.  Below the normal range, tol * s[0] can underflow to 0 and
    # count the zero singular values, so the spectrum is taken again of mat
    # scaled by 2**54, exactly.
    if s[0] < _TINY:
        if s[0] == 0.0:
            verb = "Schmidt-decompose" if of == "vector" else "decompose"
            raise ZeroInputError(f"cannot {verb} the zero {of}")
        s = np.linalg.svd(mat * _SUBNORMAL_SCALE, compute_uv=False)
    return _rank_from_singulars(s, tol)


def _schmidt_ranks(vecs: np.ndarray, dims: BipartiteDims, tol: float) -> list[int]:
    # The Schmidt rank of each row of a coerced (k, mn) stack of vectors,
    # from one stacked SVD of their (m, n) reshapes; a zero row has rank 0.
    singulars = np.linalg.svd(vecs.reshape(-1, dims.m, dims.n), compute_uv=False)
    return _rank_from_singulars(singulars, tol).tolist()


def _nonzero_rows(ops: list) -> list:
    # The row rule: one row index per coerced operator (`_rows_of`).
    return [_rows_of(a) for a in ops]


def _rows_of(a: np.ndarray):
    # The row rule on one operator, for the Kraus passes to take a[rows] in
    # place of a.  It is the array of the rows that hold a nonzero entry (a
    # -0.0 is zero; a NaN or inf is nonzero) when some row is zero;
    # otherwise it is slice(None), so that a[rows] is a view, not a copy.
    # One `a.any(axis=1)` finds the rows in every memory layout: C- or
    # F-ordered, or strided.
    index = a.any(axis=1).nonzero()[0]
    return slice(None) if index.size == len(a) else index


def _matrix_rows(dims: BipartiteDims, x):
    # One read of a Kraus operator (the one-read rule of `kraus`): (a, rows),
    # a coerced and shape-checked as by `as_matrix` and rows its row index
    # (`_rows_of`), with finiteness checked on those rows only.  A NaN or
    # inf is nonzero, so it lies in them.
    a = _square(dims, x)
    rows = _rows_of(a)
    _finite(a[rows])
    return a, rows


def _op_ranks(dims: BipartiteDims, ops: list, tol: float, rows=None) -> list[int]:
    # The OSR of each coerced operator, zero ones included (rank 0), by the
    # row rule (`_nonzero_rows`, found here unless the caller passes them).
    # An operator with no nonzero row has rank 0 and takes no SVD.  One that
    # is nonzero in row i only is e_i w*, whose OSR is SR(w): those rows
    # share one `_schmidt_ranks` SVD.  Every other operator is ranked from
    # its whole realignment, all of them in one stacked values-only SVD.
    m, n = dims.m, dims.n
    if rows is None:
        rows = _nonzero_rows(ops)
    one = [i for i, r in enumerate(rows) if not isinstance(r, slice) and r.size == 1]
    whole = [i for i, r in enumerate(rows) if isinstance(r, slice) or r.size > 1]
    ranks = [0] * len(ops)
    if one:
        lines = np.stack([ops[i][rows[i][0]] for i in one])
        for i, rank in zip(one, _schmidt_ranks(lines, dims, tol)):
            ranks[i] = rank
    if whole:
        # Each operator is reshuffled straight into the stacked copy.
        stack = np.stack([ops[i].reshape(m, n, m, n).swapaxes(1, 2) for i in whole])
        singulars = np.linalg.svd(stack.reshape(len(whole), m * m, n * n), compute_uv=False)
        for i, rank in zip(whole, _rank_from_singulars(singulars, tol).tolist()):
            ranks[i] = rank
    return ranks


def _largest_part(x: np.ndarray) -> float:
    # The largest |Re| or |Im| entry of x, 0 only for an exact zero: x over
    # it has a norm in [1, sqrt(2 x.size)], free of overflow and underflow.
    return float(np.maximum(np.abs(x.real), np.abs(x.imag)).max())


def _over_part(x: np.ndarray, c: float) -> np.ndarray:
    # x / c for c = _largest_part(x) > 0.  numpy divides a complex array by
    # c through 1/c, which overflows for a subnormal c, so there x and c are
    # first scaled by 2**54, exactly; a normal c keeps the bits of x / c.
    if c < _TINY:
        return (x * _SUBNORMAL_SCALE) / (c * _SUBNORMAL_SCALE)
    return x / c


def _check_k(k, dims: BipartiteDims):
    # The range check of a Schmidt-rank or OSR bound: an integer in [1, d].
    if not (_is_int(k) and 1 <= k <= dims.d):
        raise PreconditionError(f"k must be an integer in [1, {dims.d}], got {k!r}")


def _check_tol(tol: float):
    # A real number in (0, 1): a string, complex, None or array is refused
    # before Python or numpy compares it, and an int or bool by the range.
    # The float test first skips the slower ABC test for the usual tol.
    if not ((isinstance(tol, float) or isinstance(tol, numbers.Real)) and 0.0 < tol < 1.0):
        raise PreconditionError(f"tol must lie in (0, 1), got {tol}")


def _check_seed(seed):
    # The seed rule: an integer in [0, 2**64), one unsigned 64-bit word.
    if not _is_int(seed):
        raise PreconditionError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise PreconditionError(f"seed must be nonnegative and below 2**64, got {seed}")


def _check_count(name: str, value):
    if not (_is_int(value) and value >= 1):
        raise PreconditionError(f"{name} must be an integer >= 1, got {value!r}")


@np.errstate(over="ignore")
def _unit_norm(name: str, vecs: np.ndarray, tol: float):
    # The unit-vector rule on a coerced vector, or on each row of a coerced
    # (K, D) stack; returns the norm, or the (K, 1) row norms, to divide by.
    # A norm past the float range is inf and refused, without numpy's
    # overflow warning.
    if vecs.ndim == 1:
        norms = np.linalg.norm(vecs)
        far = abs(norms - 1.0) > tol
    else:
        norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
        far = np.count_nonzero(abs(norms - 1.0) > tol)
    if far:
        raise NormError(f"{name} must be a unit vector")
    return norms


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
    mat = v.reshape(dims.m, dims.n)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtDecomp(
        dims=dims,
        coeffs=s,
        left=np.ascontiguousarray(u.T),
        right=np.ascontiguousarray(vh),
        rank=_nonzero_rank(mat, s, tol, "vector"),
        tol=tol,
    )


def op_schmidt_decompose(
    a, dims: BipartiteDims, tol: float = DEFAULT_TOL
) -> OpSchmidtDecomp:
    """Operator Schmidt decomposition via SVD of the realignment matrix."""
    _check_tol(tol)
    mat = _realign(as_matrix(dims, a), dims)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    m, n = dims.m, dims.n
    r = s.shape[0]
    return OpSchmidtDecomp(
        dims=dims,
        coeffs=s,
        left=np.ascontiguousarray(u.T).reshape(r, m, m),
        right=np.ascontiguousarray(vh).reshape(r, n, n),
        rank=_nonzero_rank(mat, s, tol, "operator"),
        tol=tol,
    )


def sr(v, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> int:
    """Schmidt rank of a vector: singular values of its (m, n) reshape at or
    above tol times the largest.

    Only the singular values are computed; `schmidt_decompose` applies the
    same rule and also returns the Schmidt vectors.  A zero vector, read off
    the largest singular value, raises `ZeroInputError`.  A vector whose
    largest singular value is subnormal is ranked as it is scaled by 2**54.
    """
    _check_tol(tol)
    mat = as_vector(dims, v).reshape(dims.m, dims.n)
    return _nonzero_rank(mat, np.linalg.svd(mat, compute_uv=False), tol, "vector")


def osr(a, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> int:
    """Operator Schmidt rank of an operator: singular values of its
    realignment at or above tol times the largest.

    Only the singular values are computed; `op_schmidt_decompose` applies
    the same rule and also returns the factors.  A zero operator, read off
    the largest singular value, raises `ZeroInputError`.  An operator whose
    largest singular value is subnormal is ranked as it is scaled by 2**54.
    """
    _check_tol(tol)
    mat = _realign(as_matrix(dims, a), dims)
    return _nonzero_rank(mat, np.linalg.svd(mat, compute_uv=False), tol, "operator")


def complete_orthonormal_basis(x: np.ndarray) -> np.ndarray:
    """Unitary whose first column is x (unit), as a phase-corrected reflection.

    With phi = x[0]/|x[0]| (1 when x[0] = 0) and y = x/phi, the basis is
    B = -phi (I - (y + e_0)(y + e_0)* / (1 + y[0])), a Householder
    reflection (Golub & Van Loan, Matrix Computations, sec. 5.1) times a
    phase.  B e_0 = x, and since y[0] = |x[0]| >= 0 the denominator is at
    least 1, so no cancellation occurs for any unit x.  x is one vector
    (D,), and B is (D, D).

    The phase is taken from a copy of x[0] scaled by 2**54, exactly, when
    |x[0]| is below the normal range: numpy's complex division scales by
    1/|x[0]|, which overflows for a subnormal |x[0]|.  A normal |x[0]| is
    not scaled, so its basis keeps its bits.
    """
    minus_phi, h, a = _reflection(x)
    b = h[:, None] * (h.conj() / (1.0 + a))
    np.subtract(_identity(x.shape[0]), b, out=b)
    return np.multiply(minus_phi, b, out=b)


def _reflection(x: np.ndarray):
    # The factors of B = -phi (I - h h* / (1 + a)) for a unit x (D,) or a
    # stack (..., D) of unit rows: (-phi, h = x/phi + e_0, a = |x[0]|), the
    # phase rules of `complete_orthonormal_basis`; -phi and a are scalars
    # for one vector and (..., 1) arrays for a stack.
    if x.ndim == 1:
        a = abs(x[0])
        first = x[0] * _SUBNORMAL_SCALE if a < _TINY else x[0]
        phi = first / abs(first) if a > 0.0 else 1.0
        minus_phi = -phi
    else:
        first = x[..., :1]
        a = np.hypot(first.real, first.imag)
        nonzero = a > 0.0
        first = np.where(a < _TINY, first * _SUBNORMAL_SCALE, first)
        phi = np.divide(
            first, np.hypot(first.real, first.imag), out=np.ones_like(first), where=nonzero
        )
        minus_phi = np.where(nonzero, -phi, -1.0)
    h = x / phi
    head = h[..., :1]
    head += 1.0
    return minus_phi, h, a


@functools.lru_cache(maxsize=8)
def _identity(side: int) -> np.ndarray:
    # The read-only identity of a recent side, built once: np.eye costs
    # about 1.5 us a call, a fifth of a 1-d basis at side 4.
    eye = np.eye(side)
    eye.flags.writeable = False
    return eye


def _schmidt_aligned_basis(coeffs, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # The (mn, mn) unitary of columns sum_{i<r} H_is a_i (x) b_i, r =
    # len(coeffs) <= d and H = complete_orthonormal_basis of the unit coeffs
    # (column 0 is sum_i coeffs_i a_i (x) b_i), then the products a_i (x) b_j
    # off the block i = j < r, row-major; a_i, b_j are the columns of the
    # unitaries left and right.  Summed over i in order: a matmul moves bits.
    products = kron(left, right)  # column i*n + j is a_i (x) b_j
    diagonal = np.arange(len(coeffs)) * (right.shape[0] + 1)  # columns i*n + i
    rotation = complete_orthonormal_basis(coeffs)
    rotated = np.zeros((products.shape[0], len(coeffs)), dtype=np.complex128)
    for i, col in enumerate(diagonal):
        rotated += products[:, col, None] * rotation[i]
    return np.hstack([rotated, np.delete(products, diagonal, axis=1)])


def lift_product_to_target(
    u, v, w, dims: BipartiteDims, norm_tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Unitary U with U(u (x) v) = w, for unit u, v, w.

    u (x) v and w are each completed to a unitary basis by one
    phase-corrected Householder reflection (`complete_orthonormal_basis`),
    and U = B_w B_{u(x)v}*, which sends the first column of one basis to
    the first column of the other, so the image of the product vector is
    exact up to rounding.  norm_tol must lie in (0, 1).

    The source factor is built apart: `_source_adjoint` checks u and v and
    returns B_{u(x)v}*.  A caller that lifts one product vector onto many
    targets and needs only the images q = U (u (x) v) builds it once and
    reflects c = B_{u(x)v}* (u (x) v) onto each target (`_target_images`).
    Refusals come in this order: norm_tol, w's shape and finiteness, u and
    v's shapes, their finiteness, then the unit norms of u, v and w.
    """
    _check_tol(norm_tol)
    w = as_vector(dims, w)
    b_source_adjoint = _source_adjoint(u, v, dims, norm_tol)
    return complete_orthonormal_basis(w / _unit_norm("w", w, norm_tol)) @ b_source_adjoint


def _source_adjoint(u, v, dims: BipartiteDims, norm_tol: float) -> np.ndarray:
    # B_{u(x)v}*, the right factor of every lift of u (x) v, after the
    # checks on u and v; norm_tol is a checked tolerance.
    u = _as_complex(u)
    v = _as_complex(v)
    if u.shape != (dims.m,) or v.shape != (dims.n,):
        raise DimError("u must live in C^m and v in C^n")
    u, v = _finite(u), _finite(v)
    _unit_norm("u", u, norm_tol)
    _unit_norm("v", v, norm_tol)
    source = product_vec(u, v)
    return complete_orthonormal_basis(source / np.linalg.norm(source)).conj().T


def _target_images(ws: np.ndarray, c: np.ndarray, norm_tol: float) -> np.ndarray:
    # B_w c for each row w of a coerced (K, D) stack, after the unit-norm
    # check of each w, as one (K, D) array: the reflection applied to c,
    # -phi (c - h (h* c) / (1 + a)), without forming B_w.
    minus_phi, h, a = _reflection(ws / _unit_norm("w", ws, norm_tol))
    return minus_phi * (c - h * ((h.conj() @ c)[..., None] / (1.0 + a)))
