"""Seeded randomized verification suites, one per constructive theorem.

One table, `_SUITES`, holds what each suite is: its trial function, its
default trial count (or fixed case count), the residual bound its report
declares, its precondition, whether it is exploratory, and whether it
samples PPT inputs (its report then records the sampler's environment).
`run_suite` is the only loop over trials; `rerun_trial` re-executes one
trial through the same lookup and precondition, so it refuses exactly what
the suite refuses.  Every suite refuses dims with m*n > 64, outside the
toolkit's envelope, before it draws anything.  The `suite_*` functions and
`probe_intermediate` are named entry points into `run_suite`.

Every trial draws from one generator derived from (seed, trial index), and
failure payloads carry that pair, so they re-run deterministically.  Reports
serialize byte-identically for identical configurations, wall time aside.
"""

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .bipartite import (
    DEFAULT_TOL,
    BipartiteDims,
    _check_count,
    _check_k,
    _check_seed,
    _check_tol,
    _is_int,
    _schmidt_aligned_basis,
    _source_adjoint,
    _target_images,
    as_matrix,
    basis_vec,
    kron,
    lift_product_to_target,
    max_entangled_vector,
    osr,
    partial_transpose,
    product_vec,
    sr,
    swap_operator,
)
from .errors import PreconditionError
from .kraus import (
    ConicCombination,
    KrausFamily,
    Mode,
    _validated_image,
    apply,
    collapse_construction,
    conic_scale,
    random_family,
    witness_conjugation,
)
from .membership import Verdict, is_ppt, is_separable_decidable
from .sampling import (
    PPT_ENVIRONMENT,
    ginibre,
    haar_unitary,
    random_ppt,
    random_product_vector,
    random_psd,
    random_separable,
    random_unit_vector,
    random_vector_with_sr,
    random_operator_with_osr,
)

RESIDUAL_BOUND_TIGHT = 1e-10
RESIDUAL_BOUND = 1e-9


@dataclass
class SuiteReport:
    """Persistent outcome of one suite run."""

    suite_id: str
    dims: BipartiteDims
    trials: int
    passes: int
    failures: list = field(default_factory=list)
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    max_residual: float = 0.0
    wall_time: float = 0.0
    extra: dict | None = None

    def to_obj(self, include_wall_time: bool = True) -> dict:
        obj = {
            "suite_id": self.suite_id,
            "m": self.dims.m,
            "n": self.dims.n,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "max_residual": self.max_residual,
        }
        if self.extra is not None:
            obj["extra"] = self.extra
        if include_wall_time:
            obj["wall_time"] = self.wall_time
        return obj


# Every trial function is called as trial(rng, t, dims, tol, k=..., extra_inputs=...)
# and returns (ok, residual, info); every precondition check is called as
# check(dims=..., tol=..., k=..., extra_inputs=...) and raises PreconditionError.
# Each takes what it needs and ignores the rest; extra_inputs is the list
# `_checked_suite` coerced, or None for a suite that takes none.


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _derived_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


# ---------------------------------------------------------------------------
# Schmidt rank sub-multiplicativity: SR(Av) <= OSR(A) * SR(v)


def _trial_srank(rng, t, dims, tol, **_):
    k = int(rng.integers(1, dims.d + 1))
    r = int(rng.integers(1, dims.d + 1))
    a = random_operator_with_osr(rng, dims, k)
    v = random_vector_with_sr(rng, dims, r)
    av = a @ v
    if np.linalg.norm(av) < 1e-12:
        return True, 0.0, {"degenerate": True}
    osr_a = osr(a, dims, tol)
    sr_v = sr(v, dims, tol)
    sr_av = sr(av, dims, tol)
    ok = sr_av <= osr_a * sr_v
    if sr_v == 1:
        ok = ok and sr_av <= k
    gap = float(max(0, sr_av - osr_a * sr_v))
    info = {"planted_k": k, "planted_r": r, "osr_a": osr_a, "sr_v": sr_v, "sr_av": sr_av}
    return ok, gap, None if ok else info


def suite_lemma_srank(
    dims: BipartiteDims, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> SuiteReport:
    """Random operators with planted OSR against vectors with planted SR."""
    return run_suite("srank", dims, seed, trials, tol)


# ---------------------------------------------------------------------------
# Strict enlargement: a single unitary carries a product state out of the
# separable cone.

STRICT_ENLARGEMENT_CASES = 6


def _entangled_vector_exists(dims, **_):
    if dims.d == 1:
        raise PreconditionError("min(m, n) = 1: every vector is a product, nothing to entangle")


def _trial_strict_enlargement(rng, t, dims, tol, **_):
    if t == 0:
        target = max_entangled_vector(dims)
    elif t == STRICT_ENLARGEMENT_CASES - 1:
        target = random_product_vector(rng, dims)  # control: stays separable
    else:
        rank = int(rng.integers(2, dims.d + 1))
        target = random_vector_with_sr(rng, dims, rank)
    u = random_unit_vector(rng, dims.m)
    v = random_unit_vector(rng, dims.n)
    x0 = kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
    unitary = lift_product_to_target(u, v, target, dims)
    # The coefficient is the adjoint: A* X0 A = U X0 U* = (target)(target)*.
    family = KrausFamily(dims, [unitary.conj().T], Mode.EXACT)
    image = apply(family, [x0])
    projector_residual = float(np.linalg.norm(image - np.outer(target, target.conj())))
    rank = sr(target, dims, tol)
    report = is_separable_decidable(image, dims, tol)
    expected = Verdict.IN if rank == 1 else Verdict.OUT
    ok = report.verdict is expected and projector_residual <= RESIDUAL_BOUND
    info = {"sr_target": rank, "verdict": report.verdict.value}
    return ok, projector_residual, None if ok else info


def suite_strict_enlargement(
    dims: BipartiteDims, seed: int, tol: float = DEFAULT_TOL
) -> SuiteReport:
    """Unitary images of product projectors leave the separable cone."""
    return run_suite("strict-enlargement", dims, seed, tol=tol)


# ---------------------------------------------------------------------------
# Conic recombination: every PSD matrix is a nonnegative combination of
# unitary-lifted product projectors.


def _trial_cone_collapse(rng, t, dims, tol, **_):
    total = dims.total
    if t == 0:
        y = np.eye(total, dtype=np.complex128)
    elif t == 1:
        y = np.zeros((total, total), dtype=np.complex128)  # boundary: empty combination
    elif t % 5 == 2 and total > 1:
        # Rank-deficient draws exercise the dropped-eigenvalue path (none at 1x1).
        rank = int(rng.integers(1, total))
        g = ginibre(rng, total, rank)
        y = (g @ g.conj().T) * rng.uniform(0.5, 2.0)
    else:
        y = random_psd(rng, total) * rng.uniform(0.5, 2.0)
    u = random_unit_vector(rng, dims.m)
    v = random_unit_vector(rng, dims.n)
    p = product_vec(u, v)
    evals, evecs = np.linalg.eigh((y + y.conj().T) / 2.0)
    keep = evals > 1e-12
    # Every term lifts the same p = u (x) v onto one kept eigenvector w by
    # U = B_w B_{u(x)v}*, and needs only q = U p, computed right to left:
    # c = B_{u(x)v}* p once, after the checks on u and v, then B_w c for
    # all K targets as one (K, D) array of reflections (`_target_images`),
    # with no D x D basis of a target.  The K rank-one terms
    # U (pp*) U* = qq* are one (K, D, D) stack.
    c = _source_adjoint(u, v, dims, DEFAULT_TOL) @ p
    q = _target_images(evecs[:, keep].T, c, DEFAULT_TOL)
    terms = q[:, :, None] * q.conj()[:, None, :]
    rebuilt = conic_scale(ConicCombination(dims, evals[keep], terms))
    residual = float(np.linalg.norm(rebuilt - y))
    ok = residual <= RESIDUAL_BOUND
    return ok, residual, None if ok else {"terms": len(terms)}


def suite_cone_collapse_pplus(
    dims: BipartiteDims, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> SuiteReport:
    """Spectral decompositions recombine from lifted product projectors."""
    return run_suite("cone-collapse", dims, seed, trials, tol)


# ---------------------------------------------------------------------------
# Local stability: local exact families preserve separability (checked in
# the decidable region mn <= 6).


def _separability_decidable(dims, **_):
    if dims.total > 6:
        raise PreconditionError(
            "separability is only decidable for mn <= 6; use 2x2 or 2x3"
        )


def _trial_local_stability(rng, t, dims, tol, **_):
    if t == 0:
        ops = [kron(haar_unitary(rng, dims.m), haar_unitary(rng, dims.n))]
        family = KrausFamily(dims, ops, Mode.EXACT, osr_bound=1)
    else:
        count = int(rng.integers(2, 5))
        family = random_family(dims, count, 1, Mode.EXACT, _derived_seed(rng))
    inputs = [random_separable(rng, dims) for _ in family.ops]
    out = apply(family, inputs)
    report = is_separable_decidable(out, dims, tol)
    residual = float(max(0.0, -report.min_eig))
    ok = report.verdict is Verdict.IN
    return ok, residual, None if ok else {"verdict": report.verdict.value}


def suite_local_stability(
    dims: BipartiteDims, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> SuiteReport:
    """Local exact combinations of separable inputs stay separable."""
    return run_suite("local-stability", dims, seed, trials, tol)


# ---------------------------------------------------------------------------
# Witness instability: conjugating a witness by the right unitary exposes a
# product vector with negative expectation.

WITNESS_CASES = 6


def _trial_witness_not_cstar(rng, t, dims, tol, **_):
    if t == 0 and dims.m == dims.n:
        witness = swap_operator(dims)
    elif t == 1:
        bell = max_entangled_vector(dims)
        witness = partial_transpose(np.outer(bell, bell.conj()), dims)
    elif t == 2:
        # PSD control: no negative eigenvector exists, so the construction
        # does not apply and the case records as not applicable.
        psd = random_psd(rng, dims.total)
        if np.linalg.eigvalsh(psd)[0] >= -tol:
            return True, 0.0, {"not_applicable": True}
        return False, np.inf, {"stage": "psd_control"}
    else:
        rank = int(rng.integers(2, dims.d + 1))
        w_vec = random_vector_with_sr(rng, dims, rank)
        witness = partial_transpose(np.outer(w_vec, w_vec.conj()), dims)
    evals, evecs = np.linalg.eigh(witness)
    lam_min = float(evals[0])
    if lam_min >= -tol:
        # A tolerance this coarse leaves no negative expectation to expose.
        return True, 0.0, {"not_applicable": True}
    z = evecs[:, 0]
    u = random_unit_vector(rng, dims.m)
    v = random_unit_vector(rng, dims.n)
    conjugated, p = witness_conjugation(witness, z, u, v, dims, tol)
    value = float(np.real(np.vdot(p, conjugated @ p)))
    residual = abs(value - lam_min)
    ok = residual <= RESIDUAL_BOUND_TIGHT and value < -tol
    info = {"expectation": value, "min_eig": lam_min}
    return ok, residual, None if ok else info


def suite_witness_not_cstar(
    dims: BipartiteDims, seed: int, tol: float = DEFAULT_TOL
) -> SuiteReport:
    """Conjugated witnesses take negative product expectations."""
    return run_suite("witness-not-cstar", dims, seed, tol=tol)


# ---------------------------------------------------------------------------
# PPT stability under product-coefficient families.


def _extra_inputs_ppt(dims, tol, extra_inputs, **_):
    for x in extra_inputs:
        if is_ppt(x, dims, tol).verdict is not Verdict.IN:
            raise PreconditionError("extra inputs must be PPT")


def _trial_ppt_stability(rng, t, dims, tol, extra_inputs, **_):
    if t == 0:
        family = KrausFamily(
            dims, [np.eye(dims.total, dtype=np.complex128)], Mode.EXACT, osr_bound=1
        )
    else:
        count = int(rng.integers(1, 5))
        family = random_family(dims, count, 1, Mode.EXACT, _derived_seed(rng))
    inputs = [random_ppt(rng, dims) for _ in family.ops]
    used_extras = min(len(extra_inputs), len(inputs))
    inputs[:used_extras] = extra_inputs[:used_extras]
    out = apply(family, inputs)
    report = is_ppt(out, dims, tol)
    residual = float(max(0.0, -report.min_eig))
    ok = report.verdict is Verdict.IN
    info = {"ops": len(family.ops), "extra_inputs_used": used_extras}
    return ok, residual, None if ok else info


def suite_ppt_stability(
    dims: BipartiteDims, trials: int, seed: int, tol: float = DEFAULT_TOL,
    extra_inputs: list | None = None,
) -> SuiteReport:
    """Product-coefficient exact families keep PPT inputs PPT.

    Optional extra inputs (e.g. bound-entangled states loaded from files),
    any sequence or (k, mn, mn) stack of matrices, are checked for PPT
    membership and substituted into the sampled input slots of every trial.
    """
    return run_suite("ppt-stability", dims, seed, trials, tol, extra_inputs=extra_inputs)


# ---------------------------------------------------------------------------
# Full collapse: the rank-one scheme reaches every pure state from PPT inputs.


def _trial_ppt_collapse(rng, t, dims, tol, **_):
    total = dims.total
    if t == 0:
        v = max_entangled_vector(dims)
    elif t == 1:
        v = product_vec(basis_vec(dims.m, 0), basis_vec(dims.n, 0))  # degenerate control
    else:
        v = random_unit_vector(rng, total)
    family, inputs = collapse_construction(v, dims)
    # Validation checks every operator's OSR, by the one realignment pass,
    # against the bound collapse_construction certified from Schmidt ranks:
    # the target's own Schmidt rank, at the tol both use.
    out, validation = _validated_image(family, inputs, DEFAULT_TOL)
    norm_residual = validation.certificate["normalization_residual"]
    out_residual = float(np.linalg.norm(out - np.outer(v, v.conj())))
    max_osr = family.osr_bound
    # The inputs repeat one shared matrix; each distinct one is checked once.
    distinct = {id(x): x for x in inputs}.values()
    inputs_ppt = all(
        not x.any() or is_ppt(x, dims, tol).verdict is Verdict.IN
        for x in distinct
    )
    residual = max(norm_residual, out_residual)
    ok = (
        norm_residual <= RESIDUAL_BOUND_TIGHT
        and out_residual <= RESIDUAL_BOUND_TIGHT
        and max_osr <= sr(v, dims, DEFAULT_TOL)
        and inputs_ppt
    )
    info = {"norm_residual": norm_residual, "out_residual": out_residual, "max_osr": max_osr}
    return ok, residual, None if ok else info


def suite_ppt_collapse(
    dims: BipartiteDims, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> SuiteReport:
    """Collapse construction residuals, OSR bounds, and PPT input checks."""
    return run_suite("ppt-collapse", dims, seed, trials, tol)


# ---------------------------------------------------------------------------
# Exploratory probe of the intermediate hulls between PPT and PSD.


def structured_exact_family(
    rng: np.random.Generator, dims: BipartiteDims, k: int
) -> KrausFamily:
    """Exact family whose every coefficient has certified OSR at most k.

    A Schmidt-aligned orthonormal basis of the composite space is built so
    that each basis vector has Schmidt rank at most k (products off the
    planted block, rotated combinations inside it); each coefficient is a
    rank-one map from a basis vector onto a random product vector, so the
    family resolves the identity with per-operator OSR = SR(basis vector).
    """
    ul = haar_unitary(rng, dims.m)
    ur = haar_unitary(rng, dims.n)
    coeffs = rng.uniform(0.3, 1.0, size=k).astype(np.complex128)
    coeffs /= np.linalg.norm(coeffs)
    basis = _schmidt_aligned_basis(coeffs, ul, ur)
    ops = [
        np.outer(random_product_vector(rng, dims), b.conj()) for b in basis.T
    ]
    return KrausFamily(dims, ops, Mode.EXACT, osr_bound=k)


def _probe_k_in_range(dims, k, **_):
    if k is None:
        raise PreconditionError("probe-intermediate needs k")
    _check_k(k, dims)


def _trial_probe(rng, t, dims, tol, k, **_):
    family = structured_exact_family(rng, dims, k)
    inputs = []
    for i in range(len(family.ops)):
        x = random_ppt(rng, dims)
        # Spread input scales so both balanced and concentrated combinations
        # are explored; the first slot feeds the entangled basis vector.
        scale = rng.uniform(1.0, 2.0 * dims.total) if i == 0 else rng.uniform(0.5, 2.0)
        inputs.append(scale * x)
    out = apply(family, inputs)
    gamma_min = float(np.linalg.eigvalsh(partial_transpose(out, dims))[0])
    is_out_ppt = gamma_min >= -tol
    info = {"gamma_min_eig": gamma_min, "ppt": is_out_ppt}
    return True, 0.0, info


def _exploratory_extra(seed, k, infos) -> dict:
    # Non-PPT outputs are evidence, never failures.
    evidence = [
        {"trial": t, "seed": [seed, t], "gamma_min_eig": info["gamma_min_eig"]}
        for t, info in enumerate(infos)
        if not info["ppt"]
    ]
    return {
        "verdict": "exploratory",
        "k": k,
        "ppt_outputs": len(infos) - len(evidence),
        "non_ppt_outputs": len(evidence),
        "most_negative_gamma_eigenvalue": min([0.0] + [e["gamma_min_eig"] for e in evidence]),
        "evidence": evidence,
    }


def probe_intermediate(
    dims: BipartiteDims, k: int, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> SuiteReport:
    """Tally how often OSR-k exact combinations of PPT inputs escape PPT.

    Exploratory only: non-PPT outputs are recorded as evidence with their
    partial-transpose eigenvalue, never as failures, and the report carries
    no theorem verdict.  Each coefficient of `structured_exact_family` is a
    rank-one map A = p b* with SR(b) <= k, so A* X A = <p|X|p> bb*, and
    every output lies in T_k = MCL_k(P+) by construction.  The
    `non_ppt_outputs` tally counts T_k states that fail PPT: it is no
    evidence about the conjectured cone C_PPT,k.
    """
    return run_suite("probe-intermediate", dims, seed, trials, tol, k=k)


# ---------------------------------------------------------------------------
# The suite table and its driver.


@dataclass(frozen=True)
class _Suite:
    trial: Callable
    trials: int  # default trial count, or the case count of a fixed suite
    fixed: bool = False
    residual_bound: float | None = None
    check: Callable | None = None
    exploratory: bool = False
    samples_ppt: bool = False  # draws inputs from random_ppt
    takes_k: bool = False  # builds its trials at the OSR bound k
    takes_extras: bool = False  # substitutes extra_inputs into its trials


_SUITES = {
    "srank": _Suite(_trial_srank, 1000),
    "strict-enlargement": _Suite(
        _trial_strict_enlargement, STRICT_ENLARGEMENT_CASES, fixed=True,
        residual_bound=RESIDUAL_BOUND, check=_entangled_vector_exists,
    ),
    "cone-collapse": _Suite(_trial_cone_collapse, 200, residual_bound=RESIDUAL_BOUND),
    "local-stability": _Suite(_trial_local_stability, 500, check=_separability_decidable),
    "witness-not-cstar": _Suite(
        _trial_witness_not_cstar, WITNESS_CASES, fixed=True,
        residual_bound=RESIDUAL_BOUND_TIGHT, check=_entangled_vector_exists,
    ),
    "ppt-stability": _Suite(
        _trial_ppt_stability, 500, check=_extra_inputs_ppt, samples_ppt=True, takes_extras=True
    ),
    "ppt-collapse": _Suite(_trial_ppt_collapse, 200, residual_bound=RESIDUAL_BOUND_TIGHT),
    "probe-intermediate": _Suite(
        _trial_probe, 200, check=_probe_k_in_range, exploratory=True, samples_ppt=True,
        takes_k=True,
    ),
}

SUITE_IDS = tuple(_SUITES)


def _checked_suite(suite_id, dims, seed, tol, k, extra_inputs):
    """Look a suite up and refuse what it cannot run; returns (suite, extras),
    extras being the extra inputs the suite takes, each coerced once, or None."""
    suite = _SUITES.get(suite_id)
    if suite is None:
        raise PreconditionError(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    if dims.total > 64:
        raise PreconditionError(f"m*n = {dims.total} lies outside the m*n <= 64 envelope")
    _check_seed(seed)
    _check_tol(tol)
    if k is not None and not suite.takes_k:
        raise PreconditionError(f"{suite_id} takes no k")
    if extra_inputs is not None and not suite.takes_extras:
        raise PreconditionError(f"{suite_id} takes no extra inputs")
    extras = None
    if suite.takes_extras:
        extras = [as_matrix(dims, x) for x in ([] if extra_inputs is None else extra_inputs)]
    if suite.check is not None:
        suite.check(dims=dims, tol=tol, k=k, extra_inputs=extras)
    return suite, extras


def rerun_trial(
    suite_id: str,
    dims: BipartiteDims,
    seed: int,
    trial: int,
    tol: float = DEFAULT_TOL,
    k: int | None = None,
    extra_inputs: list | None = None,
):
    """Re-execute one trial from its embedded seed; returns (ok, residual, info).

    Raises PreconditionError wherever `run_suite` would, and for a trial
    index that no report of the suite contains.
    """
    suite, extras = _checked_suite(suite_id, dims, seed, tol, k, extra_inputs)
    if not _is_int(trial):
        raise PreconditionError(f"trial must be an integer, got {trial!r}")
    if trial < 0 or (suite.fixed and trial >= suite.trials):
        raise PreconditionError(f"{suite_id} has no trial {trial}")
    return suite.trial(_trial_rng(seed, trial), trial, dims, tol, k=k, extra_inputs=extras)


def run_suite(
    suite_id: str,
    dims: BipartiteDims,
    seed: int,
    trials: int | None = None,
    tol: float = DEFAULT_TOL,
    k: int | None = None,
    extra_inputs: list | None = None,
) -> SuiteReport:
    """Run a suite by identifier (the CLI front door).

    `trials=None` runs the suite's default count; a fixed-case suite always
    runs all of its cases.  A count below 1 is refused.
    """
    suite, extras = _checked_suite(suite_id, dims, seed, tol, k, extra_inputs)
    if trials is not None:
        _check_count("trials", trials)
    if trials is None or suite.fixed:
        trials = suite.trials
    start = time.perf_counter()
    results = [
        suite.trial(_trial_rng(seed, t), t, dims, tol, k=k, extra_inputs=extras)
        for t in range(trials)
    ]
    failures = []
    not_applicable = []
    for t, (ok, residual, info) in enumerate(results):
        if ok:
            if info and info.get("not_applicable"):
                not_applicable.append(t)
        else:
            payload = {"trial": t, "seed": [seed, t], "residual": residual}
            if info:
                payload["info"] = info
            failures.append(payload)
    tolerances = {"tol": tol}
    if suite.residual_bound is not None:
        tolerances["residual_bound"] = suite.residual_bound
    if suite.samples_ppt:
        tolerances["ppt_environment"] = f"{PPT_ENVIRONMENT}mn"
    if suite.exploratory:
        tolerances["k"] = k
        extra = _exploratory_extra(seed, k, [info for _, _, info in results])
    else:
        extra = {"not_applicable_trials": not_applicable} if not_applicable else None
    return SuiteReport(
        suite_id=suite_id,
        dims=dims,
        trials=trials,
        passes=trials - len(failures),
        failures=failures,
        seed=seed,
        tolerances=tolerances,
        max_residual=max([0.0] + [residual for _, residual, _ in results]),
        wall_time=time.perf_counter() - start,
        extra=extra,
    )
