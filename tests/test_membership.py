import copy
import warnings

import numpy as np
import pytest

from conekit import (
    BipartiteDims,
    ConekitError,
    HermiticityError,
    PreconditionError,
    SeesawConfig,
    Verdict,
    basis_vec,
    is_block_positive_heuristic,
    is_ppt,
    is_psd,
    is_separable_decidable,
    kron,
    max_entangled_vector,
    min_product_expectation,
    min_sr_k_expectation,
    partial_transpose,
    product_vec,
    sr,
    swap_operator,
    witness_conjugation,
)
from conekit import _kernels, membership
from conekit.membership import _frame_from_vector, hermitian_part
from conekit.sampling import (
    ginibre,
    random_ppt,
    random_product_vector,
    random_psd,
    random_unit_vector,
    random_vector_with_sr,
)

from conftest import hermitian
from test_kernels import kernel_reference, reaches_floor, stop_tol

FAST_CFG = SeesawConfig(seed=11)


def bell_projector():
    b = max_entangled_vector(BipartiteDims(2, 2))
    return np.outer(b, b.conj())


class TestPsd:
    def test_identity(self, dims):
        report = is_psd(np.eye(dims.total), dims)
        assert report.verdict is Verdict.IN
        assert np.isclose(report.min_eig, 1.0)

    def test_explicit_negative_direction(self):
        d = BipartiteDims(2, 2)
        x = kron(np.diag([1.0, -1.0]), np.eye(2))
        report = is_psd(x, d)
        assert report.verdict is Verdict.OUT
        vec = report.certificate["vector"]
        assert np.real(np.vdot(vec, x @ vec)) < -report.tol

    def test_bell_projector_boundary(self):
        d = BipartiteDims(2, 2)
        report = is_psd(bell_projector(), d)
        assert report.verdict is Verdict.IN
        assert abs(report.min_eig) <= 1e-12

    def test_rejects_non_hermitian(self, dims, rng):
        x = rng.standard_normal((dims.total, dims.total)) * 1.0
        x[0, -1] += 5.0  # large asymmetric entry
        with pytest.raises(HermiticityError):
            is_psd(x, dims)


def _gaussian(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


_VERDICT_CALLS = {
    "is_psd": is_psd,
    "is_ppt": is_ppt,
    "is_separable_decidable": is_separable_decidable,
    "is_block_positive_heuristic": (
        lambda x, d: is_block_positive_heuristic(x, d, SeesawConfig(seed=0))
    ),
}


_SCALES = [1e-300, 1e-170, 1e-150, 1e-8, 1e-3, 1.0, 1e150, 1e160, 1e300]


@pytest.mark.filterwarnings("error")
class TestHermitianPartAtEveryScale:
    """The asymmetry test gives one answer at every scale, without warnings.

    The slack is 100 * tol relative to the Frobenius norm.  A norm squares
    the entries, overflowing past about 1e154 and underflowing below about
    1e-154; a norm outside [1e-150, 1e153) is taken of the input over its
    largest real or imaginary part instead.
    """

    @pytest.mark.parametrize("scale", _SCALES)
    def test_non_hermitian_refused(self, scale):
        d = BipartiteDims(2, 2)
        g = _gaussian(np.random.default_rng(5), d.total)
        with pytest.raises(HermiticityError, match="not Hermitian"):
            is_psd(scale * g, d)

    @pytest.mark.parametrize("scale", _SCALES)
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_hermitian_psd_in(self, scale, m, n):
        # A PSD matrix whose largest entry is `scale`; below scale 1 its
        # Hermitian part keeps the bits of (x + x*) / 2 on either path.
        d = BipartiteDims(m, n)
        g = _gaussian(np.random.default_rng([m, n, 9]), d.total)
        psd = g @ g.conj().T
        x = scale / np.abs(psd).max() * psd
        assert is_psd(x, d).verdict is Verdict.IN
        if scale <= 1.0:
            assert hermitian_part(x, d).tobytes() == ((x + x.conj().T) / 2.0).tobytes()

    @pytest.mark.parametrize("name", list(_VERDICT_CALLS))
    def test_zero_matrix_accepted(self, name):
        d = BipartiteDims(2, 3)
        zero = np.zeros((d.total, d.total), dtype=np.complex128)
        assert np.array_equal(hermitian_part(zero, d), zero)
        assert _VERDICT_CALLS[name](zero, d).min_eig == 0.0

    @pytest.mark.parametrize("scale", _SCALES)
    @pytest.mark.parametrize("slack", [10.0, 1000.0])
    def test_slack_is_relative_at_every_scale(self, scale, slack):
        # A Hermitian matrix plus an anti-Hermitian part of relative size
        # slack * tol passes below the 100 * tol cutoff and fails above it.
        d = BipartiteDims(2, 3)
        rng = np.random.default_rng(6)
        h = hermitian(rng, d.total)
        k = _gaussian(rng, d.total)
        k = k - k.conj().T
        x = h + (slack * 1e-9 * np.linalg.norm(h) / np.linalg.norm(k)) * k
        if slack < 100.0:
            got = hermitian_part(scale * x, d)
            assert np.linalg.norm(got / scale - h) <= 1e-6 * np.linalg.norm(h)
        else:
            with pytest.raises(HermiticityError):
                hermitian_part(scale * x, d)

    @pytest.mark.parametrize("name", list(_VERDICT_CALLS))
    def test_every_entry_at_the_float_limit_refused(self, name):
        # Re and Im both 1e308: x - x* overflows, yet x is not Hermitian.
        d = BipartiteDims(2, 2)
        x = np.full((d.total, d.total), 1e308 + 1e308j)
        with pytest.raises(HermiticityError):
            _VERDICT_CALLS[name](x, d)

    @pytest.mark.parametrize(
        "scale,figure", [(1.0, "8.000e+00"), (1e160, "8.000e+160"), (1e308, "8.000e+308")]
    )
    def test_asymmetry_figure_is_finite(self, scale, figure):
        # On the rescaled path the figure is c |y - y*| with y = x / c; at
        # 1e308 that product overflows a float, yet the message prints it.
        d = BipartiteDims(2, 2)
        x = np.full((d.total, d.total), scale * (1.0 + 1.0j))
        with pytest.raises(HermiticityError) as err:
            hermitian_part(x, d)
        assert str(err.value) == f"matrix is not Hermitian (asymmetry {figure})"

    @pytest.mark.parametrize("name", list(_VERDICT_CALLS))
    def test_norm_past_the_float_limit_refused(self, name):
        # Hermitian, finite entries, but a Frobenius norm of 4e308.
        d = BipartiteDims(2, 2)
        x = np.full((d.total, d.total), 1e308 + 0j)
        with pytest.raises(PreconditionError, match="overflows a float"):
            _VERDICT_CALLS[name](x, d)

    @pytest.mark.parametrize("name", list(_VERDICT_CALLS))
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_huge_entries_get_a_verdict(self, name, m, n):
        # An entry of 1.7e308 (its doubled sum overflows) or a PSD matrix
        # scaled to 1e300: every call answers, as it does at scale 1.
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 7])
        corner = np.zeros((d.total, d.total), dtype=np.complex128)
        corner[0, 0] = 1.7e308
        g = _gaussian(rng, d.total)
        psd = g @ g.conj().T
        call = _VERDICT_CALLS[name]
        assert call(corner, d).verdict is Verdict.IN
        for x in (psd, 1e300 / np.abs(psd).max() * psd):
            report = call(x, d)
            assert np.isfinite(report.min_eig)
        assert call(psd, d).verdict is call(1e300 / np.abs(psd).max() * psd, d).verdict

    def test_huge_hermitian_part_is_exact(self):
        # Halving before adding is exact away from subnormals.
        d = BipartiteDims(2, 2)
        h = 1e300 * hermitian(np.random.default_rng(8), d.total)
        with np.errstate(over="ignore"):
            assert np.linalg.norm(h) == np.inf
        assert np.array_equal(hermitian_part(h, d), h / 2.0 + h.conj().T / 2.0)
        assert np.array_equal(hermitian_part(h, d), (h + h.conj().T) / 2.0)


@pytest.mark.parametrize("tol", [0.0, 1.0, -1.0, 5.0])
@pytest.mark.parametrize(
    "call", [hermitian_part, is_psd, is_ppt, is_separable_decidable],
    ids=lambda f: f.__name__,
)
def test_tolerance_outside_unit_interval_refused(call, tol):
    # At tol = 5 the eigenvalue -1 of -I would pass as "in".
    d = BipartiteDims(2, 2)
    with pytest.raises(PreconditionError, match=r"tol must lie in \(0, 1\)"):
        call(-np.eye(d.total), d, tol)


class TestPpt:
    def test_identity(self, dims):
        assert is_ppt(np.eye(dims.total), dims).verdict is Verdict.IN

    def test_bell_projector(self):
        d = BipartiteDims(2, 2)
        report = is_ppt(bell_projector(), d)
        assert report.verdict is Verdict.OUT
        assert np.isclose(report.min_eig, -0.5)
        assert report.certificate["side"] == "partial_transpose"

    def test_product_state(self, dims, rng):
        u = random_unit_vector(rng, dims.m)
        v = random_unit_vector(rng, dims.n)
        x = kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
        assert is_ppt(x, dims).verdict is Verdict.IN

    def test_out_certificate_reevaluates(self, dims, rng):
        for _ in range(50):
            x = random_psd(rng, dims.total)
            report = is_ppt(x, dims)
            if report.verdict is Verdict.IN:
                continue
            side = report.certificate["side"]
            target = x if side == "matrix" else partial_transpose(x, dims)
            vec = report.certificate["vector"]
            value = float(np.real(np.vdot(vec, target @ vec)))
            assert value < -report.tol
            assert abs(value - report.certificate["eigenvalue"]) <= 10 * report.tol


    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_near_hermitian_matches_both_hermitian_parts(self, m, n):
        # Asymmetry of about 10*tol*|x|, inside hermitian_part's 100*tol
        # slack.  The reference symmetrizes x and its partial transpose
        # separately; is_ppt must agree with it bit for bit.
        d = BipartiteDims(m, n)
        tol = 1e-9
        rng = np.random.default_rng([m, n, 9])
        bell = max_entangled_vector(d)
        inputs = [
            random_ppt(rng, d),
            np.eye(d.total) / d.total,
            0.8 * np.outer(bell, bell.conj()) + 0.2 * np.eye(d.total) / d.total,
            hermitian(rng, d.total),
            random_psd(rng, d.total),
        ]
        outcomes = set()
        for x in inputs:
            g = ginibre(rng, d.total, d.total)
            x = x + 10 * tol * np.linalg.norm(x) * g / np.linalg.norm(g)
            assert np.linalg.norm(x - x.conj().T) > tol * np.linalg.norm(x)
            report = is_ppt(x, d, tol)
            sides = {
                "matrix": np.linalg.eigh(hermitian_part(x, d, tol)),
                "partial_transpose": np.linalg.eigh(
                    hermitian_part(partial_transpose(x, d), d, tol)
                ),
            }
            lows = {side: float(evals[0]) for side, (evals, _) in sides.items()}
            failing = [side for side, low in lows.items() if low < -tol]
            if failing:
                evals, evecs = sides[failing[0]]
                verdict = Verdict.OUT
                cert = {"kind": "ppt_side", "side": failing[0],
                        "eigenvalue": lows[failing[0]], "vector": evecs[:, 0]}
            else:
                verdict = Verdict.IN
                cert = {"kind": "ppt", "min_eig_matrix": lows["matrix"],
                        "min_eig_partial_transpose": lows["partial_transpose"]}
            assert report.verdict is verdict
            assert report.min_eig == min(lows.values())
            assert report.certificate.keys() == cert.keys()
            for key, value in cert.items():
                assert np.array_equal(report.certificate[key], value), key
            outcomes.add(cert.get("side", "ppt"))
        assert outcomes == {"ppt", "matrix", "partial_transpose"}


def _separable_ppt_first(x, dims, tol):
    # is_separable_decidable in its earlier order: the PPT report is built
    # before the rank-one branch, which does not read it.
    h = hermitian_part(x, dims, tol)
    evals, evecs = np.linalg.eigh(h)
    ppt = membership._ppt_report(h, evals, evecs, dims, tol)
    if dims.total <= 6:
        cert = dict(ppt.certificate, decided_by="ppt_criterion")
        return membership.MembershipReport(ppt.verdict, ppt.min_eig, tol, cert)
    lam_max = float(evals[-1])
    if int(np.count_nonzero(evals >= tol * lam_max)) == 1:
        vec = evecs[:, -1].copy()
        rank = sr(vec, dims, tol)
        cert = {"kind": "range_vector", "vector": vec, "sr": rank}
        verdict = Verdict.IN if rank == 1 else Verdict.OUT
        return membership.MembershipReport(verdict, float(evals[0]), tol, cert)
    if ppt.verdict is Verdict.OUT:
        return membership.MembershipReport(Verdict.OUT, ppt.min_eig, tol, ppt.certificate)
    return membership.MembershipReport(Verdict.INDETERMINATE, float(evals[0]), tol, None)


def _assert_same_report(got, want):
    assert got.verdict is want.verdict
    assert got.min_eig == want.min_eig
    assert got.certificate.keys() == want.certificate.keys()
    for key, value in want.certificate.items():
        assert np.array_equal(got.certificate[key], value), key


class TestSeparableDecidable:
    def test_product_state_in(self, dims, rng):
        u = random_unit_vector(rng, dims.m)
        v = random_unit_vector(rng, dims.n)
        x = kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
        assert is_separable_decidable(x, dims).verdict is Verdict.IN

    def test_bell_out(self):
        d = BipartiteDims(2, 2)
        assert is_separable_decidable(bell_projector(), d).verdict is Verdict.OUT

    def test_rank_one_entangled_3x3(self, rng):
        d = BipartiteDims(3, 3)
        w = random_vector_with_sr(rng, d, 2)
        report = is_separable_decidable(np.outer(w, w.conj()), d)
        assert report.verdict is Verdict.OUT
        assert report.certificate["sr"] == 2

    def test_rejects_non_psd(self, dims):
        x = np.diag([1.0] * (dims.total - 1) + [-1.0])
        with pytest.raises(PreconditionError):
            is_separable_decidable(x, dims)

    def test_full_rank_ppt_3x3_indeterminate(self, rng):
        d = BipartiteDims(3, 3)
        x = random_ppt(rng, d)
        assert is_separable_decidable(x, d).verdict is Verdict.INDETERMINATE

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
    def test_agrees_with_ppt_in_decidable_region(self, m, n, rng):
        d = BipartiteDims(m, n)
        for _ in range(500):
            x = random_psd(rng, d.total)
            assert is_separable_decidable(x, d).verdict is is_ppt(x, d).verdict

    def test_rank_one_rule(self, rng):
        d = BipartiteDims(3, 3)
        for trial in range(500):
            if trial % 2 == 0:
                w = random_product_vector(rng, d)
            else:
                w = random_vector_with_sr(rng, d, int(rng.integers(2, d.d + 1)))
            verdict = is_separable_decidable(np.outer(w, w.conj()), d).verdict
            expected = Verdict.IN if sr(w, d) == 1 else Verdict.OUT
            assert verdict is expected

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_matches_is_ppt_of_hermitian_part(self, m, n):
        # The decision reuses its own eigh for the matrix side of the PPT
        # test; wherever that test decides, verdicts and certificates must
        # equal those of is_ppt run on the Hermitian part, bit for bit.
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 5])
        inputs = [random_psd(rng, d.total), random_ppt(rng, d), np.eye(d.total) / d.total]
        for r in range(1, d.d + 1):
            v = random_vector_with_sr(rng, d, r)
            inputs.append(0.8 * np.outer(v, v.conj()) + 0.2 * random_psd(rng, d.total))
        decided = 0
        for x in inputs:
            x = x + 1e-13 * hermitian(rng, d.total)
            report = is_separable_decidable(x, d)
            reference = is_ppt(hermitian_part(x, d), d)
            cert = dict(report.certificate or {})
            if d.total <= 6:
                assert cert.pop("decided_by") == "ppt_criterion"
            elif cert.get("kind") != "ppt_side":
                continue  # decided without the PPT test
            decided += 1
            assert report.verdict is reference.verdict
            assert report.min_eig == reference.min_eig
            assert cert.keys() == reference.certificate.keys()
            for key, value in reference.certificate.items():
                assert np.array_equal(cert[key], value), key
        assert decided >= 2

    def test_separable_implies_ppt(self, dims, rng):
        for _ in range(100):
            x = random_psd(rng, dims.total)
            if is_separable_decidable(x, dims).verdict is Verdict.IN:
                assert is_ppt(x, dims).verdict is Verdict.IN

    @pytest.mark.parametrize("m,n", [(3, 3), (8, 8)])
    def test_rank_one_takes_one_eigh(self, m, n, monkeypatch):
        # Beyond mn = 6 the range vector decides a rank-one input before the
        # PPT test would run, so the partial transpose is never diagonalized;
        # the report is the one the PPT-first order gave, bit for bit.
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 21])
        vectors = [random_product_vector(rng, d)]
        vectors += [random_vector_with_sr(rng, d, r) for r in (2, d.d)]
        calls = []
        real_eigh = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return real_eigh(a, *args, **kwargs)

        for w in vectors:
            x = 2.5 * np.outer(w, w.conj()) + 1e-13 * hermitian(rng, d.total)
            want = _separable_ppt_first(x, d, 1e-9)
            calls.clear()
            monkeypatch.setattr(np.linalg, "eigh", eigh)
            got = is_separable_decidable(x, d)
            monkeypatch.setattr(np.linalg, "eigh", real_eigh)
            assert len(calls) == 1
            assert got.certificate["kind"] == "range_vector"
            _assert_same_report(got, want)

    def test_rank_two_not_ppt_is_out_by_ppt_side(self):
        d = BipartiteDims(3, 3)
        phi = max_entangled_vector(d)
        p = product_vec(basis_vec(3, 0), basis_vec(3, 1))
        x = 0.5 * np.outer(phi, phi.conj()) + 0.5 * np.outer(p, p.conj())
        report = is_separable_decidable(x, d)
        assert report.verdict is Verdict.OUT
        assert report.certificate["kind"] == "ppt_side"
        assert report.certificate["side"] == "partial_transpose"
        _assert_same_report(report, _separable_ppt_first(x, d, 1e-9))

    def test_rank_two_separable_is_indeterminate(self, rng):
        d = BipartiteDims(3, 3)
        p, q = random_product_vector(rng, d), random_product_vector(rng, d)
        x = 0.5 * np.outer(p, p.conj()) + 0.5 * np.outer(q, q.conj())
        report = is_separable_decidable(x, d)
        assert report.verdict is Verdict.INDETERMINATE
        assert report.certificate is None

    def test_rank_one_in_decidable_region_takes_ppt(self, rng):
        d = BipartiteDims(2, 3)
        w = random_vector_with_sr(rng, d, 2)
        report = is_separable_decidable(np.outer(w, w.conj()), d)
        assert report.verdict is Verdict.OUT
        assert report.certificate["kind"] == "ppt_side"
        assert report.certificate["decided_by"] == "ppt_criterion"


class TestMinProductExpectation:
    def test_identity(self, dims):
        value, _, _ = min_product_expectation(np.eye(dims.total), dims, FAST_CFG)
        assert abs(value - 1.0) <= 1e-9

    def test_swap_closed_form(self):
        # (z (x) y)* F (z (x) y) = |<z, y>|^2, minimized at 0 by any
        # orthogonal pair.
        d = BipartiteDims(2, 2)
        value, z, y = min_product_expectation(swap_operator(d), d, FAST_CFG)
        assert abs(value) <= 1e-9
        assert abs(abs(np.vdot(z, y)) ** 2 - value) <= 1e-9

    def test_gamma_bell_grid_oracle(self):
        d = BipartiteDims(2, 2)
        w = partial_transpose(bell_projector(), d)
        grid_min = np.inf
        thetas = np.linspace(0, np.pi / 2, 10)
        phis = np.linspace(0, 2 * np.pi, 10, endpoint=False)
        for t1 in thetas:
            for p1 in phis:
                z = np.array([np.cos(t1), np.exp(1j * p1) * np.sin(t1)])
                for t2 in thetas:
                    for p2 in phis:
                        y = np.array([np.cos(t2), np.exp(1j * p2) * np.sin(t2)])
                        p = product_vec(z, y)
                        grid_min = min(grid_min, float(np.real(np.vdot(p, w @ p))))
        value, _, _ = min_product_expectation(w, d, FAST_CFG)
        assert value <= grid_min + 1e-9
        assert value >= -1e-9

    def test_value_is_attained_by_returned_pair(self, dims, rng):
        w = hermitian(rng, dims.total)
        value, z, y = min_product_expectation(w, dims, FAST_CFG)
        p = product_vec(z, y)
        assert abs(np.real(np.vdot(p, w @ p)) - value) <= 1e-9


class TestMinSrKExpectation:
    def test_unconstrained_is_min_eigenvalue(self, dims, rng):
        for _ in range(20):
            w = hermitian(rng, dims.total)
            value, _ = min_sr_k_expectation(w, dims, dims.d, FAST_CFG)
            assert abs(value - np.linalg.eigvalsh(w)[0]) <= 1e-9

    def test_k1_matches_product_minimizer(self, dims, rng):
        w = hermitian(rng, dims.total)
        v1, _ = min_sr_k_expectation(w, dims, 1, FAST_CFG)
        v2, _, _ = min_product_expectation(w, dims, FAST_CFG)
        assert abs(v1 - v2) <= 1e-12

    def test_swap_k2_reaches_singlet(self):
        d = BipartiteDims(2, 2)
        value, vec = min_sr_k_expectation(swap_operator(d), d, 2, FAST_CFG)
        assert abs(value + 1.0) <= 1e-9
        assert sr(vec, d) == 2

    def test_monotone_in_k(self, dims, rng):
        for _ in range(100):
            w = hermitian(rng, dims.total)
            values = [
                min_sr_k_expectation(w, dims, k, FAST_CFG)[0]
                for k in range(1, dims.d + 1)
            ]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-9

    def test_minimizer_respects_rank_bound(self, dims, rng):
        w = hermitian(rng, dims.total)
        for k in range(1, dims.d + 1):
            _, vec = min_sr_k_expectation(w, dims, k, FAST_CFG)
            assert sr(vec, dims) <= k

    def test_k_out_of_range(self, dims):
        with pytest.raises(PreconditionError):
            min_sr_k_expectation(np.eye(dims.total), dims, dims.d + 1, FAST_CFG)

    @pytest.mark.parametrize("k", [1.5, True, "2"], ids=repr)
    def test_non_integer_k_refused(self, k):
        d = BipartiteDims(3, 3)
        with pytest.raises(PreconditionError, match="must be an integer"):
            min_sr_k_expectation(np.eye(d.total), d, k, FAST_CFG)

    def test_numpy_integer_k_accepted(self, rng):
        d = BipartiteDims(3, 3)
        w = hermitian(rng, d.total)
        got = min_sr_k_expectation(w, d, np.int64(2), FAST_CFG)
        want = min_sr_k_expectation(w, d, 2, FAST_CFG)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_beats_random_sampling_oracle(self, dims, rng):
        # The optimizer value must undercut every randomly sampled feasible
        # vector and never undercut the unconstrained minimum.
        for k in range(1, dims.d + 1):
            w = hermitian(rng, dims.total)
            value, _ = min_sr_k_expectation(w, dims, k, FAST_CFG)
            sampled = min(
                float(np.real(np.vdot(v, w @ v)))
                for v in (random_vector_with_sr(rng, dims, k) for _ in range(2000))
            )
            assert value <= sampled + 1e-9
            assert value >= np.linalg.eigvalsh(w)[0] - 1e-9


class TestBlockPositiveHeuristic:
    def test_psd_in(self, dims, rng):
        report = is_block_positive_heuristic(random_psd(rng, dims.total), dims, FAST_CFG)
        assert report.verdict is Verdict.IN

    def test_swap_indeterminate(self):
        d = BipartiteDims(2, 2)
        report = is_block_positive_heuristic(swap_operator(d), d, FAST_CFG)
        assert report.verdict is Verdict.INDETERMINATE
        assert np.isclose(report.min_eig, -1.0)
        assert abs(report.certificate["heuristic_min"]) <= 1e-9

    def test_conjugated_swap_out_with_certificate(self):
        # Rotating the singlet onto a product direction exposes the negative
        # expectation to the product optimizer.
        d = BipartiteDims(2, 2)
        f = swap_operator(d)
        singlet = np.linalg.eigh(f)[1][:, 0]
        conjugated, _ = witness_conjugation(
            f, singlet, basis_vec(2, 0), basis_vec(2, 0), d
        )
        report = is_block_positive_heuristic(conjugated, d, FAST_CFG)
        assert report.verdict is Verdict.OUT
        z, y = report.certificate["z"], report.certificate["y"]
        p = product_vec(z, y)
        value = float(np.real(np.vdot(p, conjugated @ p)))
        assert value < -report.tol
        assert abs(value - report.certificate["expectation"]) <= 10 * report.tol

    def test_one_decomposition_per_call(self, rng, monkeypatch):
        # The PSD gate, min_eig and the see-saw's ground frame and floor all
        # come from one eigh of the Hermitian part; the kernel's own eigh
        # calls run on (R, n, n) stacks.
        d = BipartiteDims(3, 3)
        w = hermitian(rng, d.total)
        eighs = record_calls(monkeypatch, np.linalg, "eigh", np.ndim)
        eigvalshs = record_calls(monkeypatch, np.linalg, "eigvalsh", np.ndim)
        report = is_block_positive_heuristic(w, d, FAST_CFG)
        assert report.verdict is not Verdict.IN
        assert eighs.count(2) == 1
        assert eigvalshs == []


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x, d: is_psd(x, d),
        lambda x, d: is_ppt(x, d),
        lambda x, d: is_block_positive_heuristic(x, d, FAST_CFG),
        lambda x, d: min_sr_k_expectation(x, d, 1, FAST_CFG),
        lambda x, d: sr(x[0], d),
    ],
    ids=["is_psd", "is_ppt", "blockpos", "min_sr_k", "sr"],
)
def test_non_finite_input_rejected(call, bad):
    d = BipartiteDims(2, 2)
    x = np.eye(d.total, dtype=complex)
    x[0, 0] = bad
    with pytest.raises(ConekitError):
        call(x, d)


class TestSeesawConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(PreconditionError):
            SeesawConfig(seed=-1)
        with pytest.raises(PreconditionError):
            SeesawConfig(seed=0, tol=2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 1.5},
            {"seed": 2.0},
            {"seed": "3"},
            {"seed": None},
            {"seed": True},
            {"seed": 2**64},
            {"seed": 2**70},
        ],
        ids=repr,
    )
    def test_rejects_non_integral_and_oversized(self, kwargs):
        with pytest.raises(PreconditionError):
            SeesawConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 2**64 - 1},
            {"seed": np.int64(7)},
            {"seed": np.uint64(2**63)},
        ],
        ids=repr,
    )
    def test_accepts_integral_types(self, kwargs):
        SeesawConfig(**kwargs)


def looped_ladder(state, dims, k, cfg):
    """_seesaw one start at a time, on the looped reference kernel.

    Level by level: the ground frame, then the warm frame of the previous
    level's minimizer, then the level's random frames; the first start with
    the least value wins; a level at the floor ends the ladder.  Every level
    is recomputed; only h, floor and ground are read from the state.
    """
    m, n = dims.m, dims.n
    starts = membership.SEESAW_RESTARTS
    h, floor, ground = state[3:6]
    warm_v = None
    for level in range(1, k + 1):
        inits = [_frame_from_vector(ground, dims, level)]
        if warm_v is not None:
            inits.append(_frame_from_vector(warm_v, dims, level))
        drawn = ginibre(np.random.default_rng([cfg.seed, level]), starts * n, level)
        inits += [drawn[r * n:(r + 1) * n] for r in range(starts)]
        runs = kernel_reference(m, n, level, h, np.stack(inits), floor)
        best_val = np.inf
        for val, x, y, _ in runs:
            if val < best_val:
                best_val = val
                best_x, best_y = x, y
        warm_v = (best_x @ best_y.T).reshape(dims.total)
        warm_v = warm_v / np.linalg.norm(warm_v)
        if reaches_floor(best_val, floor, stop_tol(h)):
            break
    value = float(np.real(np.vdot(warm_v, h @ warm_v)))
    return value, warm_v, best_x, best_y


def assert_same(got, want):
    """Bit-for-bit equality of results, reports and certificates."""
    if isinstance(got, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(got, dict):
        assert got.keys() == want.keys()
        for key in got:
            assert_same(got[key], want[key])
    elif hasattr(got, "certificate"):
        assert got.verdict is want.verdict
        assert got.min_eig == want.min_eig
        assert got.tol == want.tol
        assert_same(got.certificate, want.certificate)
    else:
        assert np.array_equal(got, want)


class TestStackedLevelPin:
    """The stacked level returns exactly what the per-restart loop returned."""

    @staticmethod
    def calls(w, dims, cfg):
        # Every see-saw entry point at every k < d, plus the blockpos verdict.
        out = [min_sr_k_expectation(w, dims, k, cfg) for k in range(1, dims.d)]
        out.append(min_product_expectation(w, dims, cfg))
        out.append(is_block_positive_heuristic(w, dims, cfg))
        return out

    def assert_matches_loop(self, w, dims, cfg, monkeypatch):
        got = self.calls(w, dims, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(membership, "_seesaw", looped_ladder)
            want = self.calls(w, dims, cfg)
        assert_same(tuple(got), tuple(want))
        return got

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 1])
    def test_matches_per_restart_loop(self, m, n, seed, monkeypatch):
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, seed % 97])
        cfg = SeesawConfig(seed=seed)
        v = random_vector_with_sr(rng, dims, dims.d)
        inputs = [
            hermitian(rng, dims.total),  # out, or indeterminate
            partial_transpose(np.outer(v, v.conj()), dims),  # block-positive
        ]
        verdicts = set()
        for w in inputs:
            verdicts.add(self.assert_matches_loop(w, dims, cfg, monkeypatch)[-1].verdict)
        assert verdicts == {Verdict.OUT, Verdict.INDETERMINATE}

    def test_tie_goes_to_first_init(self, monkeypatch):
        # Two product basis states share the exact minimum -1, and random
        # starts land on either one: the ground-frame init, first in the
        # stack, wins.
        dims = BipartiteDims(2, 2)
        diag = np.array([-1.0, 0.5, 0.7, -1.0])
        w = np.diag(diag).astype(complex)
        cfg = SeesawConfig(seed=0)
        ground = np.linalg.eigh(w)[1][:, 0]
        starts = membership.SEESAW_RESTARTS
        drawn = ginibre(np.random.default_rng([0, 1]), starts * 2, 1).reshape(starts, 2, 1)
        y0 = np.concatenate([_frame_from_vector(ground, dims, 1)[None], drawn])
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "SEESAW_ITERS", 60)
            # Without the floor every start runs until it settles.
            values, _, ys, _ = _kernels.seesaw_minimize(2, 2, 1, w, y0, -np.inf)
            tied = np.flatnonzero(values == values.min())
            assert tied[0] == 0 and len(tied) == len(y0)
            assert any(abs(abs(ys[t, 0, 0]) - abs(ys[0, 0, 0])) > 0.5 for t in tied)
            # With the floor the stack stops where the first start reaches
            # -1, and the ground-frame init still wins.
            floored, _, floored_ys, reached = _kernels.seesaw_minimize(2, 2, 1, w, y0, -1.0)
        assert reached
        assert np.argmin(floored) == 0 and floored[0] == -1.0
        assert np.array_equal(floored_ys[0], ys[0])
        value, z, y = min_product_expectation(w, dims, cfg)
        assert value == -1.0
        assert np.isclose(abs(y[0]), abs(ys[0, 0, 0]))
        report = self.assert_matches_loop(w, dims, cfg, monkeypatch)[-1]
        assert report.verdict is Verdict.OUT


def pt_of_full_rank_state(rng, dims):
    """Partial transpose of a pure state of full Schmidt rank.

    Its ground state has Schmidt rank 2, and its product minimum is >= 0 >
    lambda_min, so level 1 never reaches the floor and level 2 does.
    """
    v = random_vector_with_sr(rng, dims, dims.d)
    return partial_transpose(np.outer(v, v.conj()), dims)


def planted_violator(rng, dims):
    """A planted block-positivity violator.

    A random Hermitian H shifted so that a random product vector p has
    <p|W|p> = -0.05 ||H||_2.
    """
    h = hermitian(rng, dims.total)
    p = random_product_vector(rng, dims)
    shift = np.real(np.vdot(p, h @ p)) + 0.05 * np.linalg.norm(h, 2)
    return h - shift * np.eye(dims.total)


def seesaw_inputs(rng, dims):
    """One random Hermitian, one planted violator and one partial transpose."""
    return [
        hermitian(rng, dims.total),
        planted_violator(rng, dims),
        pt_of_full_rank_state(rng, dims),
    ]


def shapes(*pairs):
    """(m, n) parameters with ids such as 2x3."""
    return [pytest.param(m, n, id=f"{m}x{n}") for m, n in pairs]


def record_calls(monkeypatch, module, name, keep):
    """Wrap module.name so every call appends keep(*args) to the returned list."""
    calls = []
    original = getattr(module, name)

    def wrapped(*args):
        calls.append(keep(*args))
        return original(*args)

    monkeypatch.setattr(module, name, wrapped)
    return calls


class TestSeesawStoppingRules:
    def test_floor_exit_fires(self, rng, monkeypatch):
        # The ground frame spans the Schmidt-rank-2 ground state, so level 2
        # reaches lambda_min in its first iteration: one x-step and one
        # y-step contraction.
        dims = BipartiteDims(3, 3)
        w = pt_of_full_rank_state(rng, dims)
        evals = np.linalg.eigvalsh(w)
        halfsteps = record_calls(
            monkeypatch, _kernels, "_bottom_block_vectors", lambda layout, frames, k, m, n: k
        )
        value, vec = min_sr_k_expectation(w, dims, 2, FAST_CFG)
        assert abs(value - evals[0]) <= 1e-12 * np.abs(evals).max()
        assert sr(vec, dims) == 2
        assert halfsteps.count(2) == 2
        assert halfsteps.count(1) > 2

    def test_floor_exit_silent_on_random_hermitian(self, dims, rng, monkeypatch):
        # A random Hermitian's product minimum lies well above lambda_min, so
        # the floor never stops the search at k = 1.
        w = hermitian(rng, dims.total)

        def calls():
            return min_sr_k_expectation(w, dims, 1, FAST_CFG), min_product_expectation(
                w, dims, FAST_CFG
            )

        got = calls()
        assert got[0][0] > np.linalg.eigvalsh(w)[0] + 1e-3
        original = _kernels.seesaw_minimize
        monkeypatch.setattr(
            _kernels, "seesaw_minimize", lambda *args: original(*args[:-1], -np.inf)
        )
        # Empty the memo, or the repeat would not reach the patched kernel.
        monkeypatch.setattr(membership, "_last_ladder", None)
        assert_same(got, calls())

    def test_later_levels_skipped(self, rng, monkeypatch):
        dims = BipartiteDims(4, 4)
        w = pt_of_full_rank_state(rng, dims)
        evals = np.linalg.eigvalsh(w)
        levels = record_calls(monkeypatch, _kernels, "seesaw_minimize", lambda *args: args[2])
        value, vec = min_sr_k_expectation(w, dims, 3, FAST_CFG)
        assert levels == [1, 2]
        assert abs(value - evals[0]) <= 1e-12 * np.abs(evals).max()
        assert sr(vec, dims) == 2

    def test_one_generator_per_level(self, rng, monkeypatch):
        dims = BipartiteDims(3, 3)
        w = hermitian(rng, dims.total)
        starts = record_calls(monkeypatch, _kernels, "seesaw_minimize", lambda *args: args[4])
        first = min_sr_k_expectation(w, dims, 2, FAST_CFG)
        # One kernel call per level: level 1 stacks the ground frame and the
        # random frames, level 2 also the warm frame.
        assert [y0.shape for y0 in starts] == [(33, 3, 1), (34, 3, 2)]
        drawn_count, n = membership.SEESAW_RESTARTS, dims.n
        for level, y0 in enumerate(starts, start=1):
            rng_level = np.random.default_rng([FAST_CFG.seed, level])
            drawn = ginibre(rng_level, drawn_count * n, level).reshape(drawn_count, n, level)
            assert np.array_equal(y0[-drawn_count:], drawn)
        # A repeat on the same input resumes the memo's ladder: no kernel call.
        assert_same(min_sr_k_expectation(w, dims, 2, FAST_CFG), first)
        assert len(starts) == 2
        # A call on another input evicts the ladder; the repeat then replays
        # both levels from bit-identical starts.
        min_sr_k_expectation(hermitian(rng, dims.total), dims, 1, FAST_CFG)
        assert_same(min_sr_k_expectation(w, dims, 2, FAST_CFG), first)
        assert len(starts) == 5
        assert np.array_equal(starts[3], starts[0]) and np.array_equal(starts[4], starts[1])

    @pytest.mark.parametrize("m,n", shapes((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)))
    def test_meeting_keeps_best_values(self, m, n, monkeypatch):
        # Retiring a start once its frame comes within SEESAW_MEET of an
        # earlier start that is no higher moves no level's best value by
        # more than 1e-12 * ||W||_2 from a run where no start can meet.
        # This is a committed slice of the sweep behind SEESAW_MEET
        # (BENCH_seesaw_basin_meet.json).
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 27])
        for w in seesaw_inputs(rng, dims) + seesaw_inputs(rng, dims):
            scale = np.linalg.norm(w, 2)
            got = [min_sr_k_expectation(w, dims, k, FAST_CFG)[0] for k in range(1, dims.d)]
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "SEESAW_MEET", -1.0)
                patch.setattr(membership, "_last_ladder", None)
                free = [min_sr_k_expectation(w, dims, k, FAST_CFG)[0] for k in range(1, dims.d)]
            assert np.allclose(got, free, rtol=0, atol=1e-12 * scale)


def seesaw_answers(w, dims, cfg):
    """The see-saw's values and vectors on w.

    min_sr_k_expectation at every k < d (k = 1 only at 8x8), then the
    product value of is_block_positive_heuristic, and its factors when it
    answers `out`.
    """
    values, vectors = [], []
    for k in range(1, 2 if dims.d == 8 else dims.d):
        value, v = min_sr_k_expectation(w, dims, k, cfg)
        values.append(value)
        vectors.append(v)
    cert = is_block_positive_heuristic(w, dims, cfg).certificate
    if cert["kind"] == "product_pair":
        values.append(cert["expectation"])
        vectors += [cert["z"], cert["y"]]
    else:
        values.append(cert["heuristic_min"])
    return np.array(values), vectors


class TestScaleCovariance:
    """The see-saw's stops scale with W, so c * W gets c times W's answers."""

    # A tol below every scaled input's spectrum, so that the PSD gate of
    # is_block_positive_heuristic never answers in the see-saw's place.
    CFG = SeesawConfig(seed=11, tol=1e-300)

    @pytest.mark.parametrize("m,n", shapes((2, 2), (3, 3), (2, 4), (4, 4), (8, 8)))
    def test_answers_scale_with_w(self, m, n):
        dims = BipartiteDims(m, n)
        for w in seesaw_inputs(np.random.default_rng([m, n, 40]), dims):
            # Exactly Hermitian, as tol = 1e-300 admits no asymmetry.
            w = hermitian_part(w, dims)
            want, want_vectors = seesaw_answers(w, dims, self.CFG)
            # A power of two scales every step exactly.
            for c in (2.0**40, 2.0**-40):
                got, vectors = seesaw_answers(c * w, dims, self.CFG)
                assert np.array_equal(got, c * want)
                assert len(vectors) == len(want_vectors)
                assert all(np.array_equal(a, b) for a, b in zip(vectors, want_vectors))
            # Past the range where LAPACK rescales internally, to roundoff.
            scale = np.linalg.norm(w, 2)
            for c in (2.0**600, 2.0**-600, 1e200, 1e-200):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got, _ = seesaw_answers(c * w, dims, self.CFG)
                assert np.all(np.abs(got / c - want) <= 1e-14 * scale)


class TestLadderMemo:
    """A call on the last input's (Hermitian part, dims, seed) resumes its ladder."""

    @staticmethod
    def fresh(call, monkeypatch):
        monkeypatch.setattr(membership, "_last_ladder", None)
        return call()

    def test_levels_run_once_per_input(self, rng, monkeypatch):
        dims = BipartiteDims(4, 4)
        w = hermitian(rng, dims.total)
        calls = [lambda: is_block_positive_heuristic(w, dims, FAST_CFG)]
        calls += [lambda k=k: min_sr_k_expectation(w, dims, k, FAST_CFG) for k in (1, 2, 3, 4)]
        want = [self.fresh(call, monkeypatch) for call in calls]
        assert want[0].verdict is not Verdict.IN
        for order in (calls, calls[::-1]):
            monkeypatch.setattr(membership, "_last_ladder", None)
            with monkeypatch.context() as patch:
                levels = record_calls(patch, _kernels, "seesaw_minimize", lambda *a: a[2])
                eighs = record_calls(patch, np.linalg, "eigh", np.ndim)
                got = [call() for call in order]
            assert levels == [1, 2, 3]
            # One input-sized eigh, in the first call; the repeats take none.
            assert eighs.count(2) == 1
            if order is not calls:
                got = got[::-1]
            assert_same(tuple(got), tuple(want))

    def test_other_seed_dims_or_bits_miss(self, rng, monkeypatch):
        levels = record_calls(monkeypatch, _kernels, "seesaw_minimize", lambda *a: a[2])
        # The same 16x16 matrix under two splittings, then another seed.
        w = hermitian(rng, 16)
        runs = [
            (w, BipartiteDims(4, 4), FAST_CFG),
            (w, BipartiteDims(2, 8), FAST_CFG),
            (w, BipartiteDims(2, 8), SeesawConfig(seed=FAST_CFG.seed + 1)),
        ]
        # Equal values, other bits: a signed zero can move eigh's output.
        d = BipartiteDims(2, 2)
        x = hermitian(rng, d.total)
        x[0, 3] = x[3, 0] = 0.0
        flipped = x.copy()
        flipped[0, 3], flipped[3, 0] = complex(-0.0, 0.0), complex(-0.0, -0.0)
        h, h_flipped = hermitian_part(x, d), hermitian_part(flipped, d)
        assert np.array_equal(h, h_flipped) and h.tobytes() != h_flipped.tobytes()
        runs += [(x, d, FAST_CFG), (flipped, d, FAST_CFG)]
        for w, dims, cfg in runs:
            got = min_product_expectation(w, dims, cfg)
            assert_same(got, self.fresh(lambda: min_product_expectation(w, dims, cfg), monkeypatch))
        assert levels == [1] * 2 * len(runs)

    def test_changed_in_place_misses(self, rng, monkeypatch):
        d = BipartiteDims(3, 3)
        w = hermitian(rng, d.total)
        levels = record_calls(monkeypatch, _kernels, "seesaw_minimize", lambda *a: a[2])
        before = min_sr_k_expectation(w, d, 1, FAST_CFG)
        w[1, 1] += 0.5
        got = min_sr_k_expectation(w, d, 1, FAST_CFG)
        assert levels == [1, 1]
        assert got[0] != before[0]
        assert_same(got, self.fresh(lambda: min_sr_k_expectation(w, d, 1, FAST_CFG), monkeypatch))

    def test_writing_into_results_changes_nothing(self, rng, monkeypatch):
        d = BipartiteDims(3, 3)
        w = hermitian(rng, d.total)
        calls = [
            lambda: min_sr_k_expectation(w, d, 2, FAST_CFG),
            lambda: min_sr_k_expectation(w, d, 3, FAST_CFG),
            lambda: min_product_expectation(w, d, FAST_CFG),
            lambda: is_block_positive_heuristic(w, d, FAST_CFG),
        ]
        first = [call() for call in calls]
        want = copy.deepcopy(first)
        (_, v), (_, ground), (_, z, y), report = first
        assert report.verdict is Verdict.OUT
        for arr in (v, ground, z, y, report.certificate["z"], report.certificate["y"]):
            arr[:] = 7.0
        levels = record_calls(monkeypatch, _kernels, "seesaw_minimize", lambda *a: a[2])
        assert_same(tuple(call() for call in calls), tuple(want))
        assert levels == []

    def test_floor_ladder_answers_higher_k(self, rng, monkeypatch):
        # As in test_later_levels_skipped, level 2 reaches the floor; k = 3
        # and k = 1 are then answered from the ladder.
        dims = BipartiteDims(4, 4)
        w = pt_of_full_rank_state(rng, dims)
        levels = record_calls(monkeypatch, _kernels, "seesaw_minimize", lambda *a: a[2])
        got = [min_sr_k_expectation(w, dims, k, FAST_CFG) for k in (2, 3, 1)]
        assert levels == [1, 2]
        assert_same(got[1], got[0])
        want = [
            self.fresh(lambda k=k: min_sr_k_expectation(w, dims, k, FAST_CFG), monkeypatch)
            for k in (2, 3, 1)
        ]
        assert_same(tuple(got), tuple(want))
