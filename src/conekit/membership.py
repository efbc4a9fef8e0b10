"""Membership predicates and certificates for the bipartite positivity cones.

Verdicts are three-valued.  "Out" always carries an independently checkable
certificate (an eigenpair, a product pair, or a low-rank range vector);
"In" is only claimed where it is sound: PSD/PPT spectra, the Peres-Horodecki
region mn <= 6 for separability, and the PSD sufficient condition for
block-positivity.  Everything the see-saw heuristic cannot certify is
reported Indeterminate.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bipartite import (
    DEFAULT_TOL,
    BipartiteDims,
    _check_k,
    _check_seed,
    _check_tol,
    _largest_part,
    _rank_from_singulars,
    as_matrix,
    partial_transpose,
    sr,
)
from .errors import HermiticityError, PreconditionError
from .sampling import ginibre


class Verdict(str, enum.Enum):
    IN = "in"
    OUT = "out"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a cone membership test."""

    verdict: Verdict
    min_eig: float
    tol: float
    certificate: dict | None = None


# Random starts per see-saw level; the kernel's stopping rules and their
# constants live in `_kernels`.
SEESAW_RESTARTS = 32


@dataclass(frozen=True)
class SeesawConfig:
    """Seed and tolerance of the randomized alternating minimizer.

    The seed is mandatory, and the effort is fixed: level l of the see-saw
    draws its SEESAW_RESTARTS random starting frames, in order, from the one
    stream np.random.default_rng([seed, l]), and runs each start for at most
    `_kernels.SEESAW_ITERS` iterations.
    """

    seed: int
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        _check_seed(self.seed)
        _check_tol(self.tol)


def hermitian_part(x, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Symmetrized copy of x; rejects matrices that are not nearly Hermitian.

    Asymmetry up to 100*tol relative to the Frobenius norm is absorbed as
    serialization round-off, at every scale, and an exact zero is Hermitian.
    Every membership test enters here, so this is where a tolerance outside
    (0, 1) is refused.  A norm outside [1e-150, 1e153) is taken of x over its
    largest real or imaginary part instead; on that path a Frobenius norm
    past the float range is refused, since the eigenvalues may overflow too,
    and a huge matrix is halved before the sum, which could overflow.
    """
    _check_tol(tol)
    x = as_matrix(dims, x)
    # Norms from vdot, which overflows to inf or nan without a numpy warning;
    # below 1e153, |x - x*| <= 2 |x| cannot overflow.
    norm = float(np.vdot(x, x).real) ** 0.5
    c, y = 1.0, x
    if not 1e-150 <= norm < 1e153:
        # The test on y = x / c (c = 1 for an exact zero), since
        # |x - x*| > 100 tol |x| is |y - y*| > 100 tol |y|.
        c = _largest_part(x) or 1.0
        y = x / c
        norm = float(np.vdot(y, y).real) ** 0.5
    d = y - y.conj().T
    asym = float(np.vdot(d, d).real) ** 0.5
    if asym > 100.0 * tol * norm:
        # The figure c * asym can overflow a float, so it is formatted from
        # the exact decimal product, digit for digit as "%.3e" formats it.
        # decimal is imported here, on a refusal only: its import costs
        # about 1 ms of every start-up.
        from decimal import Context, Decimal

        figure = Context(prec=2000).multiply(Decimal(c), Decimal(asym))
        mantissa, exponent = f"{figure:.3e}".split("e")
        raise HermiticityError(
            f"matrix is not Hermitian (asymmetry {mantissa}e{int(exponent):+03d})"
        )
    if c * norm == np.inf:
        raise PreconditionError(f"matrix norm {c:.3e} * {norm:.3e} overflows a float")
    return x / 2.0 + x.conj().T / 2.0 if c > 1.0 else (x + x.conj().T) / 2.0


def is_psd(x, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> MembershipReport:
    """PSD test by extremal eigenvalue, with the eigenpair as certificate."""
    return _psd_report(*np.linalg.eigh(hermitian_part(x, dims, tol)), tol)


def _psd_report(evals: np.ndarray, evecs: np.ndarray, tol: float) -> MembershipReport:
    # is_psd's verdict from the eigen-decomposition of the Hermitian part.
    lam = float(evals[0])
    cert = {"kind": "eigenpair", "eigenvalue": lam, "vector": evecs[:, 0].copy()}
    verdict = Verdict.IN if lam >= -tol else Verdict.OUT
    return MembershipReport(verdict=verdict, min_eig=lam, tol=tol, certificate=cert)


def is_ppt(x, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> MembershipReport:
    """PPT test: both the matrix and its partial transpose must be PSD."""
    h = hermitian_part(x, dims, tol)
    return _ppt_report(h, *np.linalg.eigh(h), dims, tol)


def _ppt_report(
    h: np.ndarray, evals: np.ndarray, evecs: np.ndarray, dims: BipartiteDims, tol: float
) -> MembershipReport:
    # is_ppt's verdict from x's Hermitian part h and h's eigenpairs.  The
    # partial transpose of h is the Hermitian part of x's partial transpose.
    direct = _psd_report(evals, evecs, tol)
    transposed = _psd_report(*np.linalg.eigh(partial_transpose(h, dims)), tol)
    min_eig = min(direct.min_eig, transposed.min_eig)
    if direct.verdict is Verdict.IN and transposed.verdict is Verdict.IN:
        cert = {
            "kind": "ppt",
            "min_eig_matrix": direct.min_eig,
            "min_eig_partial_transpose": transposed.min_eig,
        }
        return MembershipReport(Verdict.IN, min_eig, tol, cert)
    side, failing = (
        ("matrix", direct) if direct.verdict is Verdict.OUT else ("partial_transpose", transposed)
    )
    cert = dict(failing.certificate, kind="ppt_side", side=side)
    return MembershipReport(Verdict.OUT, min_eig, tol, cert)


def is_separable_decidable(
    x, dims: BipartiteDims, tol: float = DEFAULT_TOL
) -> MembershipReport:
    """Separability in the regimes where it is decidable.

    One `eigh` of the Hermitian part comes first; a least eigenvalue below
    -tol is refused as not PSD.  Then, in this order:

    - mn <= 6: the PPT criterion is exact, and decides.
    - mn > 6, numeric rank one: the Schmidt rank of the range vector
      decides (SR 1 is In, more is Out), with the vector as certificate.
    - otherwise: the PPT test runs, and a failed one is a sound rejection
      with its `ppt_side` certificate; a passed one is Indeterminate.

    The partial transpose and its `eigh` run only on the first and last
    branches, where their result is read.
    """
    h = hermitian_part(x, dims, tol)
    evals, evecs = np.linalg.eigh(h)
    if evals[0] < -tol:
        raise PreconditionError(f"input is not PSD (min eigenvalue {evals[0]:.3e})")

    if dims.total <= 6:
        ppt = _ppt_report(h, evals, evecs, dims, tol)
        cert = dict(ppt.certificate, decided_by="ppt_criterion")
        return MembershipReport(ppt.verdict, ppt.min_eig, tol, cert)

    if _rank_from_singulars(evals[::-1], tol) == 1:
        vec = evecs[:, -1].copy()
        rank = sr(vec, dims, tol)
        cert = {"kind": "range_vector", "vector": vec, "sr": rank}
        verdict = Verdict.IN if rank == 1 else Verdict.OUT
        return MembershipReport(verdict, float(evals[0]), tol, cert)
    ppt = _ppt_report(h, evals, evecs, dims, tol)
    if ppt.verdict is Verdict.OUT:
        return MembershipReport(Verdict.OUT, ppt.min_eig, tol, ppt.certificate)
    return MembershipReport(Verdict.INDETERMINATE, float(evals[0]), tol, None)


def _frame_from_vector(v: np.ndarray, dims: BipartiteDims, level: int) -> np.ndarray:
    """Right frame spanned by the top `level` Schmidt factors of v."""
    _, _, vh = np.linalg.svd(v.reshape(dims.m, dims.n))
    return vh[:level, :].T


# The see-saw state of the most recent input, one tuple (m, n, seed, h,
# floor, ground, levels, reached): h is its Hermitian part, (floor, ground)
# h's bottom eigenpair, levels[l - 1] level l's (v, x, y), and reached
# whether the last level stopped at the floor.  Every see-saw entry point
# makes one lookup, _seesaw_state, which takes the one eigh of a new input
# and replaces the state.  Level l depends only on h, the seed, l and level
# l - 1's minimizer, so a call with equal dims, seed and Hermitian part (bit
# for bit: a signed zero moves the signs LAPACK's eigh picks, and so the
# ground frame) resumes the ladder and gets a fresh run's result, in any
# call order.  Only one input is kept.  Nothing is written after it is
# stored (h is the lookup's own, ground a copy), and callers get copies.
_last_ladder = None


def _seesaw_state(w, dims: BipartiteDims, cfg: SeesawConfig):
    """The see-saw state of w's Hermitian part: the stored one, or a fresh one."""
    global _last_ladder
    h = hermitian_part(w, dims, cfg.tol)
    last, key = _last_ladder, (dims.m, dims.n, cfg.seed)
    if last is not None and last[:3] == key and last[3].tobytes() == h.tobytes():
        return last
    evals, evecs = np.linalg.eigh(h)
    _last_ladder = key + (h, float(evals[0]), evecs[:, 0].copy(), [], False)
    return _last_ladder


def _seesaw(state, dims: BipartiteDims, k: int, cfg: SeesawConfig):
    """Optimize levels 1..k of a see-saw state; returns the last level's (value, v, x, y).

    All inits of a level run as one kernel stack: the Schmidt frame of the
    ground-state vector, from level 2 on the frame of the previous level's
    minimizer, then the SEESAW_RESTARTS random frames, drawn in order from
    the level's one generator.  argmin keeps the first of equal values, so an
    earlier init wins a tie.  A level that reaches lambda_min has found the
    minimum over every higher level too, so the later levels are not run.
    Levels the state already holds are not run again.
    """
    global _last_ladder
    m, n = dims.m, dims.n
    h, floor, ground, levels, reached = state[3:]
    if len(levels) < k and not reached:
        levels = list(levels)
        for level in range(len(levels) + 1, k + 1):
            inits = [_frame_from_vector(ground, dims, level)]
            if levels:
                inits.append(_frame_from_vector(levels[-1][0], dims, level))
            rng = np.random.default_rng([cfg.seed, level])
            drawn = ginibre(rng, SEESAW_RESTARTS * n, level).reshape(SEESAW_RESTARTS, n, level)
            values, xs, ys, reached = _kernels.seesaw_minimize(
                m, n, level, h, np.concatenate([np.stack(inits), drawn]), floor
            )
            best = int(np.argmin(values))
            x, y = xs[best].copy(), ys[best].copy()
            v = (x @ y.T).reshape(dims.total)
            levels.append((v / np.linalg.norm(v), x, y))
            if reached:
                break
        _last_ladder = state[:6] + (levels, reached)
    v, x, y = levels[min(k, len(levels)) - 1]
    return float(np.real(np.vdot(v, h @ v))), v.copy(), x.copy(), y.copy()


def _min_product(state, dims: BipartiteDims, cfg: SeesawConfig):
    """min_product_expectation on a see-saw state."""
    value, _, x, y = _seesaw(state, dims, 1, cfg)
    z = x[:, 0] / np.linalg.norm(x[:, 0])
    yv = y[:, 0] / np.linalg.norm(y[:, 0])
    return value, z, yv


def min_sr_k_expectation(w, dims: BipartiteDims, k: int, cfg: SeesawConfig):
    """Heuristic minimum of v* w v over unit v of Schmidt rank at most k.

    Levels 1..k are optimized in turn and each level warm-starts from the
    previous minimizer, so the value is nonincreasing in k by construction.
    At k = d the rank constraint is void, and the exact bottom eigenpair of
    w is returned without running the see-saw.  Below d the value is an
    upper bound on the true constrained minimum.

    Each level runs its starts as one stack through
    `_kernels.seesaw_minimize`, whose docstring states its stopping rules
    (decrease, one start per basin, spectral floor, iteration cap) once.
    A floor stop proves the value optimal for this and every higher k, so
    the remaining levels are then skipped.
    """
    _check_k(k, dims)
    state = _seesaw_state(w, dims, cfg)
    if k == dims.d:
        floor, ground = state[4:6]
        return floor, ground.copy()
    value, v, _, _ = _seesaw(state, dims, k, cfg)
    return value, v


def min_product_expectation(w, dims: BipartiteDims, cfg: SeesawConfig):
    """Heuristic minimum of (z (x) y)* w (z (x) y) over unit z, y.

    Identical to min_sr_k_expectation at k = 1, but returns the factor pair.
    """
    return _min_product(_seesaw_state(w, dims, cfg), dims, cfg)


def is_block_positive_heuristic(
    w, dims: BipartiteDims, cfg: SeesawConfig
) -> MembershipReport:
    """Sound rejection / sound PSD acceptance for the block-positive cone.

    A product pair with negative expectation is a certificate of exclusion.
    Acceptance is only claimed through the PSD sufficient condition; a
    see-saw that merely fails to find a violator yields Indeterminate, since
    the product optimization is nonconvex.

    The product search is level 1 of min_sr_k_expectation's ladder.
    """
    state = _seesaw_state(w, dims, cfg)
    lam_min = state[4]
    if lam_min >= -cfg.tol:
        cert = {"kind": "psd_sufficient", "min_eig": lam_min}
        return MembershipReport(Verdict.IN, lam_min, cfg.tol, cert)
    value, z, y = _min_product(state, dims, cfg)
    if value < -cfg.tol:
        cert = {
            "kind": "product_pair",
            "expectation": value,
            "z": z,
            "y": y,
            "seed": cfg.seed,
        }
        return MembershipReport(Verdict.OUT, lam_min, cfg.tol, cert)
    cert = {"kind": "seesaw_no_violation", "heuristic_min": value, "seed": cfg.seed}
    return MembershipReport(Verdict.INDETERMINATE, lam_min, cfg.tol, cert)
