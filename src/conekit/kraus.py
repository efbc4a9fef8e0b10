"""Kraus families and the explicit conjugation constructions of the toolkit.

A family carries its normalization mode (exact resolution of identity or
contraction) and an optional certified bound on the operator Schmidt rank of
its coefficients; a family is local exactly when that bound is 1, so every
coefficient is a product operator.  The constructions below build the
families used by the verification suites: unitary lifts of product states,
rank-one contractive embeddings of low-Schmidt-rank vectors, identity
completions, and the rank-one collapse scheme that reaches any pure state
from PPT inputs.

Validation reads each operator once (the one-read rule): it coerces the
operator, checks its shape, finds its nonzero rows by the row rule
(`bipartite._rows_of`) and checks finiteness on those rows only.  A NaN or
inf counts as nonzero, so it always lies in them.  The image takes the
operators and rows that validation read.

Each sum is one product over the operators' nonzero rows.  The
normalization sum is R* R, where R stacks every operator's rows A_i[R_i];
the image is L R over the terms whose input is nonzero, where L holds the
column blocks A_i[R_i]* X_i[R_i, R_i].  One product rounds within the same
inner-product bound as the per-operator loop, but not with its bits; a
family of one operator keeps them.  The OSR pass takes no SVD of a zero
operator, ranks every one-row operator e_i w* by SR(w) in one stacked
SVD, and every other one by its whole realignment.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .bipartite import (
    DEFAULT_TOL,
    BipartiteDims,
    _check_count,
    _check_k,
    _check_seed,
    _check_tol,
    _finite,
    _is_int,
    _largest_part,
    _matrix_rows,
    _nonzero_rows,
    _op_ranks,
    _schmidt_aligned_basis,
    _schmidt_ranks,
    _unit_norm,
    as_matrix,
    as_vector,
    kron,
    lift_product_to_target,
    product_vec,
    sr,
)
from .errors import DimError, PreconditionError
from .membership import MembershipReport, Verdict, hermitian_part
from .sampling import random_exact_kraus_ops, random_operator_with_osr

EXACT_RESIDUAL_BOUND = 1e-9
CONTRACTIVE_EXCESS_BOUND = 1e-9
COMPLETION_MODE_CUTOFF = 1e-12


class Mode(str, enum.Enum):
    EXACT = "exact"
    CONTRACTIVE = "contractive"


class Locality(str, enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"


@dataclass
class KrausFamily:
    """Ordered coefficient operators, a sequence or (K, D, D) stack, with
    normalization metadata.

    The mode is coerced through `Mode`, so "exact" and "contractive" are
    accepted as strings; any other value is refused.  osr_bound must be
    None or an integer, and seed None or a seed (`bipartite._check_seed`).
    """

    dims: BipartiteDims
    ops: list
    mode: Mode
    osr_bound: int | None = None
    seed: int | None = None

    def __post_init__(self):
        self.mode = _as_mode(self.mode)
        if self.osr_bound is not None and not _is_int(self.osr_bound):
            raise PreconditionError(f"osr_bound must be an integer or None, got {self.osr_bound!r}")
        if self.seed is not None:
            _check_seed(self.seed)

    @property
    def locality(self) -> Locality:
        """LOCAL iff the certified OSR bound is 1: every coefficient is a product."""
        return Locality.LOCAL if self.osr_bound == 1 else Locality.GLOBAL


def _as_mode(mode) -> Mode:
    """mode as a Mode member; its value ("exact", "contractive") is accepted too."""
    try:
        return Mode(mode)
    except ValueError as exc:
        raise PreconditionError(f"unknown Kraus family mode {mode!r}") from exc


@dataclass
class ConicCombination:
    """Nonnegative weights paired with a sequence or (K, D, D) stack of matrices."""

    dims: BipartiteDims
    weights: np.ndarray
    terms: list


def _normalization_sum(dims: BipartiteDims, ops: list, rows=None) -> np.ndarray:
    # The operator sum A_i* A_i over already coerced operators as one
    # product R* R (module docstring); the rows are found here unless the
    # caller passes them.
    if rows is None:
        rows = _nonzero_rows(ops)
    r = _joined([a[i] for a, i in zip(ops, rows)], dims.total)
    return r.conj().T @ r


def _joined(blocks: list, total: int, axis: int = 0) -> np.ndarray:
    # The blocks concatenated along axis, from an empty (0, total) or
    # (total, 0) block: no blocks join to a zero-size array, whose products
    # are zero matrices.
    empty = np.empty((0, total) if axis == 0 else (total, 0), dtype=np.complex128)
    return np.concatenate([empty, *blocks], axis=axis)


def validate(family: KrausFamily, tol: float = DEFAULT_TOL) -> MembershipReport:
    """Check normalization and the declared OSR bound.

    The verdict is In iff every declared invariant holds; otherwise the
    certificate names each violated invariant with its residual.  A local
    family is one whose bound is 1, so the OSR check covers locality too.
    """
    return _validate(family, tol)[0]


def _validate(family: KrausFamily, tol: float):
    # (validate's report, the coerced operators, their rows), each operator
    # read once (module docstring), so that `_validated_image` takes the
    # operators and rows this pass checked.
    _check_tol(tol)
    if not _length("Kraus operators", family.ops):
        raise PreconditionError("cannot validate an empty Kraus family")
    ops, rows = zip(*[_matrix_rows(family.dims, x) for x in family.ops])
    s = _normalization_sum(family.dims, ops, rows)
    evals = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
    violations = []
    if family.mode is Mode.EXACT:
        residual = float(np.linalg.norm(s - np.eye(family.dims.total)))
        if residual > EXACT_RESIDUAL_BOUND:
            violations.append({"invariant": "exact_normalization", "residual": residual})
    else:
        residual = float(max(0.0, evals[-1] - 1.0))
        if evals[-1] > 1.0 + CONTRACTIVE_EXCESS_BOUND:
            violations.append({"invariant": "contractive_normalization", "residual": residual})
    if family.osr_bound is not None:
        ranks = _op_ranks(family.dims, ops, tol, rows)
        bad = [i for i, r in enumerate(ranks) if r > family.osr_bound]
        if bad:
            violations.append(
                {
                    "invariant": "osr_bound",
                    "ops": bad,
                    "ranks": [ranks[i] for i in bad],
                    "bound": family.osr_bound,
                }
            )
    cert = {
        "kind": "kraus_validation",
        "mode": family.mode.value,
        "normalization_residual": residual,
        "violations": violations,
    }
    verdict = Verdict.IN if not violations else Verdict.OUT
    return MembershipReport(verdict, float(evals[0]), tol, cert), ops, rows


def apply(family: KrausFamily, inputs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The conjugation sum A_i* X_i A_i of a validated family.

    The family is validated on every call, so operators replaced or changed
    in place since an earlier validation are checked again.
    """
    return _validated_image(family, inputs, tol)[0]


def _validated_image(family: KrausFamily, inputs, tol: float):
    """(A_i* X_i A_i, validate report), refusing a family that is not In.

    The operators are read once, by `_validate`, and the sum conjugates the
    operators and rows that pass checked.  `_validate` covers every
    operator, whatever its input.  Each distinct input object is coerced
    and checked once, at its first slot, so the first bad input still
    raises first.  The table keyed by `id` holds each object for the call,
    so no id is reused, and dies with the call.  An input that is exactly
    zero is checked like any other, but its term is left out of the sum:
    it adds nothing.  The sum is one product L R over the other terms
    (module docstring).
    """
    report, ops, rows = _validate(family, tol)
    if report.verdict is not Verdict.IN:
        raise PreconditionError(
            f"family fails validation: {report.certificate['violations']}"
        )
    if _length("inputs", inputs) != len(family.ops):
        raise DimError(
            f"need one input per operator, got {len(inputs)} for {len(family.ops)}"
        )
    checked = {}  # id(input) -> (input, coerced, nonzero)
    left, right = [], []
    for a, r, x in zip(ops, rows, inputs):
        if id(x) not in checked:
            arr = as_matrix(family.dims, x)
            checked[id(x)] = (x, arr, bool(arr.any()))
        _, x, nonzero = checked[id(x)]
        if nonzero:
            b = a[r]
            left.append(b.conj().T @ x[r][:, r])
            right.append(b)
    total = family.dims.total
    return _joined(left, total, axis=1) @ _joined(right, total), report


def _factor_counts(count: int) -> tuple[int, int]:
    for a in range(int(np.sqrt(count)), 0, -1):
        if count % a == 0:
            return a, count // a
    return 1, count


def random_family(
    dims: BipartiteDims,
    count: int,
    k: int,
    mode: Mode,
    seed: int,
) -> KrausFamily:
    """Seeded random family whose coefficients respect the requested OSR bound.

    Contractive mode rescales a draw of planted OSR k globally, keeping k.
    Exact mode normalizes product families (k = 1) factor-wise and
    polar-normalizes Ginibre draws at k = d, leaving the bound open.  At
    1 < k < d it raises `PreconditionError`, as no known completion
    certifies k (rank-one `eigh` modes certify d): draw `Mode.CONTRACTIVE`
    at k, or use `collapse_construction`.
    """
    _check_count("count", count)
    _check_k(k, dims)
    _check_seed(seed)
    mode = _as_mode(mode)
    if mode is Mode.EXACT and 1 < k < dims.d:
        raise PreconditionError(
            f"random_family cannot certify an exact family at 1 < k < d (k = {k}, "
            f"d = {dims.d}): draw Mode.CONTRACTIVE at k, or use collapse_construction"
        )
    rng = np.random.default_rng(seed)
    if mode is Mode.EXACT and k == 1:
        cb, cc = _factor_counts(count)
        left = random_exact_kraus_ops(rng, dims.m, cb)
        right = random_exact_kraus_ops(rng, dims.n, cc)
        ops = [kron(b, c) for b in left for c in right]
        return KrausFamily(dims, ops, Mode.EXACT, osr_bound=1, seed=seed)
    if mode is Mode.EXACT:  # k == d
        ops = random_exact_kraus_ops(rng, dims.total, count)
        return KrausFamily(dims, ops, Mode.EXACT, osr_bound=None, seed=seed)

    # Scaled to lambda_max(sum A*A) = 1.
    ops = [random_operator_with_osr(rng, dims, k) for _ in range(count)]
    scale = 1.0 / np.sqrt(np.linalg.eigvalsh(_normalization_sum(dims, ops))[-1])
    return KrausFamily(dims, [a * scale for a in ops], mode, osr_bound=k, seed=seed)


def complete_to_identity(partial: KrausFamily, *, tol: float = DEFAULT_TOL) -> KrausFamily:
    """Append rank-one operators so the family resolves the identity.

    The deficit I - sum A_i* A_i is decomposed by one `eigh`, which also
    decides contractivity: a least eigenvalue below -1e-9 is refused.  Each
    retained mode (eigenvalue above 1e-12), largest first, becomes
    sqrt(mu_j) e_j u_j* on the standard product basis vector e_j.  The
    certified bound of the result is recomputed rather than inherited: the
    partial operators' OSRs come from their realignment SVDs, and each
    appended operator's OSR is the Schmidt rank of its eigenvector u_j.
    """
    _check_tol(tol)
    dims = partial.dims
    total = dims.total
    read = [_matrix_rows(dims, a) for a in partial.ops]
    ops, rows = [a for a, _ in read], [r for _, r in read]
    remainder = np.eye(total) - _normalization_sum(dims, ops, rows)
    evals, evecs = np.linalg.eigh((remainder + remainder.conj().T) / 2.0)
    if evals[0] < -CONTRACTIVE_EXCESS_BOUND:
        raise PreconditionError(
            f"partial family is not contractive (largest eigenvalue {1.0 - evals[0]:.12f})"
        )
    keep = evals > COMPLETION_MODE_CUTOFF
    mu = evals[keep][::-1]  # largest deficit first
    kept = evecs[:, keep][:, ::-1].T
    # sqrt(mu_j) e_j u_j*, with np.outer's products e_j[a] u_j*[b], so the
    # zero rows keep their -0.0 entries.
    e = np.eye(mu.size, total, dtype=np.complex128)
    appended = np.sqrt(mu)[:, None, None] * (e[:, :, None] * kept.conj()[:, None, :])
    bound = max([1, *_op_ranks(dims, ops, tol, rows), *_schmidt_ranks(kept, dims, tol)])
    return KrausFamily(dims, ops + list(appended), Mode.EXACT, osr_bound=bound, seed=partial.seed)


def collapse_construction(v, dims: BipartiteDims, tol: float = DEFAULT_TOL):
    """Rank-one family mapping PPT inputs onto the pure state vv*.

    The M = mn operators c e_i v*, c = 1/(|v| sqrt(2M)), take the input
    I/(c^2 M) and sum to A*A = b_0 b_0*/2, b_0 = v/|v|.  The next M, with
    zero inputs, resolve the rest in closed form: operator M + l is
    w_l e_l b_l*, w_0 = sqrt(1/2) and w_l = 1 for l > 0, on column b_l of
    v's Schmidt-aligned basis (`bipartite._schmidt_aligned_basis` of the
    whole normalized spectrum, not cut at the tol rank, so that it holds
    b_0).  The basis is continuous in v while v's Schmidt coefficients are
    distinct.

    OSR(e_i w*) = SR(w), and only b_0, ..., b_{d-1} are not products, so the
    bound, SR(v), is the largest Schmidt rank at tol of v and of those d
    columns, from one stacked SVD.  `validate`, which `apply` runs, takes
    the one realignment pass.
    """
    _check_tol(tol)
    v = as_vector(dims, v)
    norm = _unit_norm("v", v, tol)
    total = dims.total
    c = 1.0 / (norm * np.sqrt(2.0 * total))
    left, s, right = np.linalg.svd(v.reshape(dims.m, dims.n))
    basis = _schmidt_aligned_basis(s / np.linalg.norm(s), left, right.T)
    ops = np.zeros((2, total, total, total), dtype=np.complex128)
    ops[0][np.diag_indices(total)] = c * v.conj() + 0.0  # + 0.0: no -0.0 entries
    ops[1][np.diag_indices(total)] = basis.T.conj() + 0.0
    ops[1, 0, 0] *= np.sqrt(0.5)
    bound = max(_schmidt_ranks(np.vstack([v, basis[:, : dims.d].T]), dims, tol))
    family = KrausFamily(dims, list(ops.reshape(-1, total, total)), Mode.EXACT, osr_bound=bound)
    inputs = [np.eye(total, dtype=np.complex128) / (c * c * total)] * total
    return family, inputs + [np.zeros((total, total), dtype=np.complex128)] * total


def embed_schmidt_k(
    v, u_product, dims: BipartiteDims, k: int, tol: float = DEFAULT_TOL
) -> KrausFamily:
    """Single-operator contractive family u v* carrying SR(v) into its OSR.

    k must be an integer in [1, d], and SR(v) at most k.
    """
    _check_tol(tol)
    _check_k(k, dims)
    v = as_vector(dims, v)
    u = as_vector(dims, u_product)
    _unit_norm("v", v, tol)
    _unit_norm("u_product", u, tol)
    if sr(u, dims, tol) != 1:
        raise PreconditionError("u_product must be a simple tensor")
    rank = sr(v, dims, tol)
    if rank > k:
        raise PreconditionError(f"v has Schmidt rank {rank} > k = {k}")
    return KrausFamily(dims, [np.outer(u, v.conj())], Mode.CONTRACTIVE, osr_bound=rank)


def witness_conjugation(w, z, u, v, dims: BipartiteDims, tol: float = DEFAULT_TOL):
    """Rotate a witness with a negative vector onto an explicit product violation.

    Returns (U* w U, u (x) v) where the unitary U maps u (x) v to z/|z|;
    the product expectation of the conjugated witness equals z* w z / |z|^2,
    certifying that the block-positive cone is not stable under unitary
    conjugation.  A witness that is not Hermitian is refused.
    """
    # Refuse a non-Hermitian witness, but conjugate w as given: a witness
    # such as a partial-transposed outer product is Hermitian only up to
    # round-off, and its Hermitian part would move the result's last bits.
    hermitian_part(w, dims, tol)
    w = as_matrix(dims, w)
    z = as_vector(dims, z)
    with np.errstate(over="ignore"):
        nz = np.linalg.norm(z)
    if not 1e-150 <= nz < np.inf:
        # The norm overflows, or loses digits in the subnormal range: z is
        # rescaled first (`_largest_part`), and only an exact zero refused.
        top = _largest_part(z)
        if top == 0.0:
            raise PreconditionError("z must be nonzero")
        z = z / top
        nz = np.linalg.norm(z)
    zn = z / nz
    value = float(np.real(np.vdot(zn, w @ zn)))
    if value >= -tol:
        raise PreconditionError(
            f"z* w z = {value:.3e} is not a negative expectation"
        )
    unitary = lift_product_to_target(u, v, zn, dims)
    conjugated = unitary.conj().T @ w @ unitary
    return conjugated, product_vec(u, v)


def conic_scale(combo: ConicCombination) -> np.ndarray:
    """Evaluate the nonnegative combination sum_j lambda_j X_j.

    The terms are a sequence or (K, D, D) stack of matrices.  They are
    coerced and checked as one stack, then summed one at a time in their
    order.  The weights must be integers or real floats; a complex,
    boolean, string or object weight is refused, not cast, and so is a list
    that numpy cannot make into one array.  A bool inside a list of numbers
    is refused too, although numpy would promote it to 0 or 1.
    """
    try:
        weights = np.asarray(combo.weights)
    except (ValueError, TypeError) as exc:
        raise PreconditionError(f"conic weights must be real numbers: {exc}") from exc
    if weights.dtype.kind not in "iuf":
        raise PreconditionError(
            f"conic weights must be real numbers, got dtype {weights.dtype}"
        )
    # The dtype of a list is its promoted one, so each entry is looked at too.
    if (
        not isinstance(combo.weights, np.ndarray)
        and weights.ndim == 1
        and any(np.asarray(w).dtype.kind == "b" for w in combo.weights)
    ):
        raise PreconditionError("conic weights must be real numbers, got a bool")
    weights = weights.astype(np.float64, copy=False)
    if weights.ndim != 1 or weights.shape[0] != _length("conic terms", combo.terms):
        raise DimError("need exactly one weight per term")
    _finite(weights)
    if weights.size and weights.min() < 0.0:
        raise PreconditionError("conic weights must be nonnegative")
    total = combo.dims.total
    out = np.zeros((total, total), dtype=np.complex128)
    for lam, term in zip(weights, _term_stack(combo.dims, combo.terms)):
        out += lam * term
    return out


def _length(name: str, matrices) -> int:
    # len() of a sequence or stack of matrices, refusing an object that has
    # none (None, an int, a 0-d array) instead of leaking its TypeError.
    try:
        return len(matrices)
    except TypeError as exc:
        raise PreconditionError(
            f"{name} must be a sequence or stack of matrices, got {type(matrices).__name__}"
        ) from exc


def _term_stack(dims: BipartiteDims, terms):
    # The terms coerced and checked once, as one finite (K, D, D) array.
    # Terms that numpy cannot stack to that shape are coerced one at a time
    # (`as_matrix`), so the first bad one is refused as it always was.
    try:
        stack = np.asarray(terms, dtype=np.complex128)
    except (ValueError, TypeError):
        stack = None
    if stack is None or stack.shape != (len(terms), dims.total, dims.total):
        return [as_matrix(dims, term) for term in terms]
    return _finite(stack)
