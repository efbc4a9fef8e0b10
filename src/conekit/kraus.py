"""Kraus families and the explicit conjugation constructions of the toolkit.

A family carries its normalization mode (exact resolution of identity or
contraction) and an optional certified bound on the operator Schmidt rank of
its coefficients; a family is local exactly when that bound is 1, so every
coefficient is a product operator.  The constructions below build the
families used by the verification suites: unitary lifts of product states,
rank-one contractive embeddings of low-Schmidt-rank vectors, identity
completions, and the rank-one collapse scheme that reaches any pure state
from PPT inputs.
"""

import enum
from dataclasses import dataclass, replace

import numpy as np

from .bipartite import (
    DEFAULT_TOL,
    BipartiteDims,
    _as_complex,
    _check_k,
    _check_tol,
    _finite,
    _is_int,
    _largest_part,
    _op_ranks,
    _schmidt_ranks,
    as_matrix,
    as_vector,
    basis_vec,
    kron,
    lift_product_to_target,
    product_vec,
    sr,
)
from .errors import DimError, NormError, PreconditionError
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
    """Ordered coefficient operators with normalization metadata.

    The mode is coerced through `Mode`, so "exact" and "contractive" are
    accepted as strings; any other value is refused.  osr_bound and seed
    must each be None or an integer.
    """

    dims: BipartiteDims
    ops: list
    mode: Mode
    osr_bound: int | None = None
    seed: int | None = None

    def __post_init__(self):
        self.mode = _as_mode(self.mode)
        for name in ("osr_bound", "seed"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise PreconditionError(f"{name} must be an integer or None, got {value!r}")

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
    """Nonnegative weights paired with same-shape matrices."""

    dims: BipartiteDims
    weights: np.ndarray
    terms: list


def _normalization_sum(dims: BipartiteDims, ops: list) -> np.ndarray:
    # The operator sum A_i* A_i over already coerced operators, in family order.
    s = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for a in ops:
        s += a.conj().T @ a
    return s


def validate(family: KrausFamily, tol: float = DEFAULT_TOL) -> MembershipReport:
    """Check normalization and the declared OSR bound.

    The verdict is In iff every declared invariant holds; otherwise the
    certificate names each violated invariant with its residual.  A local
    family is one whose bound is 1, so the OSR check covers locality too.
    """
    _check_tol(tol)
    if not family.ops:
        raise PreconditionError("cannot validate an empty Kraus family")
    ops = [as_matrix(family.dims, a) for a in family.ops]
    s = _normalization_sum(family.dims, ops)
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
        ranks = _op_ranks(family.dims, ops, tol)
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
    return MembershipReport(verdict, float(evals[0]), tol, cert)


def apply(family: KrausFamily, inputs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The conjugation sum A_i* X_i A_i of a validated family.

    The family is validated on every call, so operators replaced or changed
    in place since an earlier validation are checked again.
    """
    return _validated_image(family, inputs, tol)[0]


def _validated_image(family: KrausFamily, inputs, tol: float):
    """(A_i* X_i A_i, validate report), refusing a family that is not In.

    The operators are converted once: `validate` coerces and checks that very
    list, and the sum conjugates it, so no operator is checked twice.
    `validate` covers every operator, whatever its input.  Each distinct
    input object is coerced and checked once, at its first slot, so the
    first bad input still raises first.  The table keyed by `id` holds each
    object for the call, so no id is reused, and dies with the call.  An
    input that is exactly zero is checked like any other, but its term is
    not multiplied out: it adds nothing, so an entry of the sum that is -0.0
    stays -0.0 where adding the zero term would have made it +0.0.
    """
    ops = [_as_complex(a) for a in family.ops]
    report = validate(replace(family, ops=ops), tol)
    if report.verdict is not Verdict.IN:
        raise PreconditionError(
            f"family fails validation: {report.certificate['violations']}"
        )
    if len(inputs) != len(family.ops):
        raise DimError(
            f"need one input per operator, got {len(inputs)} for {len(family.ops)}"
        )
    total = family.dims.total
    out = np.zeros((total, total), dtype=np.complex128)
    checked = {}  # id(input) -> (input, coerced, nonzero)
    for a, x in zip(ops, inputs):
        if id(x) not in checked:
            arr = as_matrix(family.dims, x)
            checked[id(x)] = (x, arr, bool(arr.any()))
        _, x, nonzero = checked[id(x)]
        if nonzero:
            out += a.conj().T @ x @ a
    return out, report


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
    tol: float = DEFAULT_TOL,
) -> KrausFamily:
    """Seeded random family whose coefficients respect the requested OSR bound.

    Contractive mode rescales globally, which preserves the planted bound k.
    Exact mode depends on k: product families (k = 1) normalize factor-wise,
    the unconstrained case (k = d) polar-normalizes Ginibre draws and leaves
    the bound open, and intermediate k completes a contracted draw with
    rank-one operators and certifies whatever per-operator bound results.
    """
    _check_tol(tol)
    if not (_is_int(count) and count >= 1):
        raise PreconditionError(f"count must be an integer >= 1, got {count!r}")
    _check_k(k, dims)
    if not (_is_int(seed) and seed >= 0):
        raise PreconditionError(f"seed must be a nonnegative integer, got {seed!r}")
    mode = _as_mode(mode)
    rng = np.random.default_rng(seed)
    if mode is Mode.CONTRACTIVE:
        ops = [random_operator_with_osr(rng, dims, k) for _ in range(count)]
        s = _normalization_sum(dims, ops)
        scale = 1.0 / np.sqrt(np.linalg.eigvalsh(s)[-1])
        ops = [a * scale for a in ops]
        return KrausFamily(dims, ops, mode, osr_bound=k, seed=seed)

    if k == 1:
        cb, cc = _factor_counts(count)
        left = random_exact_kraus_ops(rng, dims.m, cb)
        right = random_exact_kraus_ops(rng, dims.n, cc)
        ops = [kron(b, c) for b in left for c in right]
        return KrausFamily(dims, ops, Mode.EXACT, osr_bound=1, seed=seed)
    if k == dims.d:
        ops = random_exact_kraus_ops(rng, dims.total, count)
        return KrausFamily(dims, ops, Mode.EXACT, osr_bound=None, seed=seed)

    # Renormalizing by S^{-1/2} would mix product terms and inflate the OSR,
    # so contract the draw and complete with rank-one operators instead.
    ops = [random_operator_with_osr(rng, dims, k) for _ in range(count)]
    s = _normalization_sum(dims, ops)
    scale = 1.0 / np.sqrt(2.0 * np.linalg.eigvalsh(s)[-1])
    partial = KrausFamily(
        dims, [a * scale for a in ops], Mode.EXACT, osr_bound=None, seed=seed
    )
    return complete_to_identity(partial, tol=tol)


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
    ops = [as_matrix(dims, a) for a in partial.ops]
    return _completed(dims, ops, _op_ranks(dims, ops, tol), partial.seed, tol)


def _completed(dims: BipartiteDims, ops: list, ranks: list, seed, tol: float) -> KrausFamily:
    # The completion of coerced operators whose OSRs the caller has already
    # certified (ranks, one per operator).  An appended sqrt(mu) e_j u* has
    # OSR = SR(e_j) SR(u) = SR(u), so its rank comes from one stacked SVD of
    # the kept eigenvectors' (m, n) reshapes instead of a realignment SVD.
    total = dims.total
    remainder = np.eye(total) - _normalization_sum(dims, ops)
    evals, evecs = np.linalg.eigh((remainder + remainder.conj().T) / 2.0)
    if evals[0] < -CONTRACTIVE_EXCESS_BOUND:
        raise PreconditionError(
            f"partial family is not contractive (largest eigenvalue {1.0 - evals[0]:.12f})"
        )
    modes = [
        (float(evals[j]), evecs[:, j]) for j in range(total) if evals[j] > COMPLETION_MODE_CUTOFF
    ]
    modes.reverse()  # largest deficit first
    appended = [
        np.sqrt(mu) * np.outer(basis_vec(total, j), u.conj()) for j, (mu, u) in enumerate(modes)
    ]
    kept = np.array([u for _, u in modes]).reshape(len(modes), total)
    bound = max([1, *ranks, *_schmidt_ranks(kept, dims, tol)])
    return KrausFamily(dims, ops + appended, Mode.EXACT, osr_bound=bound, seed=seed)


def collapse_construction(v, dims: BipartiteDims, tol: float = DEFAULT_TOL):
    """Rank-one family mapping PPT inputs onto the pure state vv*.

    Uses the M operators c e_i v* with c = 1/sqrt(2M) against the input
    I/(c^2 M), completed to an exact family with zero-matrix inputs on the
    completion operators.  Every coefficient is rank-one, hence of OSR at
    most d, and apply(family, inputs) reproduces vv*.

    No realignment SVD runs here: c e_i v* has OSR = SR(v), and each
    completion operator the Schmidt rank of its eigenvector (see
    `complete_to_identity`), so the bound comes from Schmidt ranks alone.
    `validate`, which `apply` runs, takes the one realignment pass over
    every operator.
    """
    _check_tol(tol)
    v = as_vector(dims, v)
    if abs(np.linalg.norm(v) - 1.0) > tol:
        raise NormError("target vector must be unit")
    total = dims.total
    c = 1.0 / np.sqrt(2.0 * total)
    scaled = [c * np.outer(basis_vec(total, i), v.conj()) for i in range(total)]
    rank = _schmidt_ranks(v[None], dims, tol)[0]
    family = _completed(dims, scaled, [rank] * total, None, tol)
    shared_input = np.eye(total, dtype=np.complex128) / (c * c * total)
    zero = np.zeros((total, total), dtype=np.complex128)
    inputs = [shared_input] * total + [zero] * (len(family.ops) - total)
    return family, inputs


def embed_schmidt_k(
    v, u_product, dims: BipartiteDims, k: int, tol: float = DEFAULT_TOL
) -> KrausFamily:
    """Single-operator contractive family u v* carrying SR(v) into its OSR."""
    _check_tol(tol)
    if not _is_int(k):
        raise PreconditionError(f"k must be an integer, got {k!r}")
    v = as_vector(dims, v)
    u = as_vector(dims, u_product)
    for name, vec in (("v", v), ("u_product", u)):
        if abs(np.linalg.norm(vec) - 1.0) > tol:
            raise NormError(f"{name} must be a unit vector")
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

    The weights must be integers or real floats; a complex, boolean, string
    or object weight is refused, not cast, and so is a list that numpy
    cannot make into one array.  A bool inside a list of numbers is refused
    too, although numpy would promote it to 0 or 1.
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
    if weights.ndim != 1 or weights.shape[0] != len(combo.terms):
        raise DimError("need exactly one weight per term")
    _finite(weights)
    if weights.size and weights.min() < 0.0:
        raise PreconditionError("conic weights must be nonnegative")
    total = combo.dims.total
    out = np.zeros((total, total), dtype=np.complex128)
    for lam, term in zip(weights, combo.terms):
        out += lam * as_matrix(combo.dims, term)
    return out
