import warnings

import numpy as np
import pytest

from conekit import (
    BipartiteDims,
    DimError,
    NormError,
    PreconditionError,
    SeesawConfig,
    ZeroInputError,
    basis_vec,
    collapse_construction,
    is_ppt,
    is_psd,
    is_separable_decidable,
    kron,
    lift_product_to_target,
    max_entangled_vector,
    op_schmidt_decompose,
    osr,
    partial_transpose,
    product_vec,
    run_suite,
    schmidt_decompose,
    sr,
    swap_operator,
)
from conekit.bipartite import (
    _op_ranks,
    _schmidt_ranks,
    _target_images,
    as_matrix,
    as_vector,
    complete_orthonormal_basis,
)
from conekit.sampling import (
    ginibre,
    haar_unitary,
    random_operator_with_osr,
    random_product_vector,
    random_unit_vector,
    random_vector_with_sr,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)

# Frozen by hand: kron(sigma_x, sigma_x) is the 4x4 anti-diagonal.
KRON_XX = np.array(
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
)

# Frozen by explicit 4x4 eigendecomposition: the partial transpose of the
# Bell projector is 1/2 * swap, with eigenvalues {-1/2, 1/2, 1/2, 1/2}.
GAMMA_BELL = 0.5 * np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
GAMMA_BELL_EIGS = np.array([-0.5, 0.5, 0.5, 0.5])


def bell(dims):
    return max_entangled_vector(dims)


class TestDims:
    @pytest.mark.parametrize(
        "mn", [(2.5, 2), (2.0, 2), (True, 2), (2, False), ("2", 2), (None, 2)], ids=repr
    )
    def test_non_integer_refused(self, mn):
        with pytest.raises(DimError, match="must be integers"):
            BipartiteDims(*mn)

    def test_numpy_integers_accepted(self):
        dims = BipartiteDims(np.int64(2), np.int32(3))
        assert dims == BipartiteDims(2, 3)
        assert dims.m == 2 and dims.total == 6


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_product(self):
        p = np.diag([1.0, 0.0])
        assert np.array_equal(kron(p, p), np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_sigma_x_pair_action(self):
        # Oracle: direct 4x4 multiplication against the frozen matrix.
        assert np.allclose(kron(SIGMA_X, SIGMA_X), KRON_XX)
        e00 = product_vec(basis_vec(2, 0), basis_vec(2, 0))
        e11 = product_vec(basis_vec(2, 1), basis_vec(2, 1))
        assert np.allclose(KRON_XX @ e00, e11)
        assert np.allclose(kron(SIGMA_X, SIGMA_X) @ e00, e11)

    def test_rejects_non_square(self):
        with pytest.raises(DimError):
            kron(np.ones((2, 3)), np.eye(2))

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 2), (8, 8)])
    def test_equals_numpy_kron(self, m, n):
        # The broadcast outer product forms the same products as np.kron,
        # so the two agree bit for bit, for matrices and for vectors.
        rng = np.random.default_rng([m, n])
        a, b = ginibre(rng, m, m), ginibre(rng, n, n)
        assert np.array_equal(kron(a, b), np.kron(a, b))
        u, v = ginibre(rng, m, 1)[:, 0], ginibre(rng, n, 1)[:, 0]
        assert np.array_equal(product_vec(u, v), np.kron(u, v))


class TestPartialTranspose:
    def test_identity_fixed_point(self, dims):
        ident = np.eye(dims.total)
        assert np.array_equal(partial_transpose(ident, dims), ident)

    def test_bell_projector(self):
        d = BipartiteDims(2, 2)
        b = bell(d)
        got = partial_transpose(np.outer(b, b.conj()), d)
        assert np.allclose(got, GAMMA_BELL)
        assert np.allclose(np.linalg.eigvalsh(got), GAMMA_BELL_EIGS)

    def test_product_operator_entrywise(self, rng):
        # Gamma(B (x) C) = B (x) C^T, checked via the kron oracle.
        d = BipartiteDims(2, 3)
        for _ in range(20):
            b = ginibre(rng, 2, 2)
            c = ginibre(rng, 3, 3)
            assert np.allclose(partial_transpose(kron(b, c), d), kron(b, c.T))

    def test_involution_hermiticity_trace(self, dims, rng):
        for _ in range(200):
            g = ginibre(rng, dims.total, dims.total)
            h = (g + g.conj().T) / 2
            ph = partial_transpose(h, dims)
            assert np.allclose(partial_transpose(ph, dims), h)
            assert np.allclose(ph, ph.conj().T)
            assert np.isclose(np.trace(ph), np.trace(h))


class TestSchmidt:
    def test_product_vector_rank_one(self, dims, rng):
        v = random_product_vector(rng, dims)
        dec = schmidt_decompose(v, dims)
        assert dec.rank == 1

    def test_bell_coefficients(self):
        # Oracle: SVD of the reshaped 2x2 identity / sqrt(2).
        d = BipartiteDims(2, 2)
        dec = schmidt_decompose(bell(d), d)
        assert dec.rank == 2
        assert np.allclose(dec.coeffs[:2], [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_planted_diagonal(self, dims, rng):
        # Oracle: reshaping sum c_i e_i (x) f_i is diagonal, so the singular
        # values are the planted coefficients.
        for r in range(1, dims.d + 1):
            coeffs = np.sort(rng.uniform(0.2, 1.0, size=r))[::-1]
            v = np.zeros(dims.total, dtype=complex)
            for i in range(r):
                v[i * dims.n + i] = coeffs[i]
            dec = schmidt_decompose(v, dims)
            assert dec.rank == r
            assert np.allclose(dec.coeffs[:r], coeffs)

    def test_reconstruction_and_orthonormality(self, dims, rng):
        for _ in range(50):
            v = ginibre(rng, dims.total, 1)[:, 0]
            dec = schmidt_decompose(v, dims)
            assert np.linalg.norm(dec.reconstruct() - v) <= 10 * dec.tol * np.linalg.norm(v)
            assert np.allclose(dec.left @ dec.left.conj().T, np.eye(dec.left.shape[0]))
            assert np.allclose(dec.right @ dec.right.conj().T, np.eye(dec.right.shape[0]))

    def test_zero_vector_rejected(self, dims):
        with pytest.raises(ZeroInputError):
            schmidt_decompose(np.zeros(dims.total), dims)

    def test_tiny_nonzero_vector_is_not_zero(self):
        # Its norm underflows to 0; its largest singular value does not.
        d = BipartiteDims(2, 2)
        v = random_vector_with_sr(np.random.default_rng(3), d, 2)
        assert np.linalg.norm(1e-163 * v) == 0.0
        assert sr(1e-163 * v, d) == 2
        with pytest.raises(ZeroInputError):
            sr(np.zeros(d.total, dtype=complex), d)

    def test_planted_rank_sampler(self, dims, rng):
        for r in range(1, dims.d + 1):
            v = random_vector_with_sr(rng, dims, r)
            assert sr(v, dims) == r

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 3), (4, 5), (8, 8)])
    def test_stacked_ranks_match_sr(self, m, n):
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n])
        vecs = [random_vector_with_sr(rng, d, r) for r in range(1, d.d + 1)]
        vecs += [random_unit_vector(rng, d.total) for _ in range(3)]
        ranks = _schmidt_ranks(np.array(vecs), d, 1e-9)
        assert ranks == [sr(v, d) for v in vecs]
        assert ranks[: d.d] == list(range(1, d.d + 1))
        assert all(type(r) is int for r in ranks)
        assert _schmidt_ranks(np.zeros((0, d.total), dtype=complex), d, 1e-9) == []

    def test_rank_is_a_python_int(self, dims, rng):
        v = random_unit_vector(rng, dims.total)
        assert type(schmidt_decompose(v, dims).rank) is int
        assert type(op_schmidt_decompose(np.outer(v, v), dims).rank) is int


class TestOperatorSchmidt:
    def test_identity_rank_one(self, dims):
        assert osr(np.eye(dims.total), dims) == 1

    def test_product_operator_rank_one(self, dims, rng):
        for _ in range(20):
            a = kron(ginibre(rng, dims.m, dims.m), ginibre(rng, dims.n, dims.n))
            assert osr(a, dims) == 1

    def test_swap_rank_four(self):
        # Oracle: the realignment of swap is a permutation matrix, so all
        # four singular values equal one.
        d = BipartiteDims(2, 2)
        assert osr(swap_operator(d), d) == 4

    def test_rank_one_operator_carries_schmidt_rank(self, dims, rng):
        # OSR(u v*) = SR(v) for a product unit vector u.
        for r in range(1, dims.d + 1):
            v = random_vector_with_sr(rng, dims, r)
            u = random_product_vector(rng, dims)
            assert osr(np.outer(u, v.conj()), dims) == r

    def test_reconstruction(self, dims, rng):
        a = ginibre(rng, dims.total, dims.total)
        dec = op_schmidt_decompose(a, dims)
        assert np.linalg.norm(dec.reconstruct() - a) <= 10 * dec.tol * np.linalg.norm(a)

    def test_zero_rejected(self, dims):
        with pytest.raises(ZeroInputError):
            op_schmidt_decompose(np.zeros((dims.total, dims.total)), dims)

    def test_tiny_nonzero_operator_is_not_zero(self):
        # Its norm underflows to 0; its largest singular value does not.
        d = BipartiteDims(2, 2)
        u = haar_unitary(np.random.default_rng(3), d.total)
        assert np.linalg.norm(1e-163 * u) == 0.0
        assert osr(1e-163 * u, d) == 4
        with pytest.raises(ZeroInputError):
            osr(np.zeros((d.total, d.total)), d)


def _range_vector_rank(x, dims):
    # is_separable_decidable's numeric rank-one branch: the SR in its
    # range-vector certificate, or 0 when the branch does not decide.
    cert = is_separable_decidable(x, dims).certificate
    return cert["sr"] if cert and cert["kind"] == "range_vector" else 0


# name -> (input kind, rank of that input); each kind's unit input has rank d
# (a vector of SR d, an operator of OSR d, or the projector onto the vector).
_RANK_ENTRIES = {
    "sr": ("vector", sr),
    "schmidt_decompose": ("vector", lambda v, d: schmidt_decompose(v, d).rank),
    "_schmidt_ranks": ("vector", lambda v, d: _schmidt_ranks(v[None], d, 1e-9)[0]),
    "osr": ("operator", osr),
    "op_schmidt_decompose": ("operator", lambda a, d: op_schmidt_decompose(a, d).rank),
    "_op_ranks": ("operator", lambda a, d: _op_ranks(d, [a], 1e-9)[0]),
    "range_vector": ("projector", _range_vector_rank),
}


class TestZeroParity:
    """Every rank entry applies one rank rule and one zero rule.

    An exact zero is refused with ZeroInputError or has rank 0; an input
    scaled to 1e-300, whose Frobenius norm underflows, has its unit rank.
    The range-vector branch only runs at mn > 6.
    """

    @pytest.mark.parametrize(
        "name,m,n",
        [
            (name, m, n)
            for name in _RANK_ENTRIES
            for m, n in [(1, 1), (2, 3), (3, 3), (8, 8)]
            if name != "range_vector" or m * n > 6
        ],
    )
    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1.0])
    def test_zero_tiny_and_unit(self, name, m, n, scale):
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 21])
        kind, rank = _RANK_ENTRIES[name]
        v = random_vector_with_sr(rng, d, d.d)
        base = {
            "vector": v,
            "operator": random_operator_with_osr(rng, d, d.d),
            "projector": np.outer(v, v.conj()),
        }[kind]
        if scale == 0.0:
            try:
                assert rank(0.0 * base, d) == 0
            except ZeroInputError:
                assert name in ("sr", "schmidt_decompose", "osr", "op_schmidt_decompose")
        else:
            assert rank(scale * base, d) == d.d


class TestSrankInequality:
    def test_random_instances(self, dims, rng):
        from conekit.sampling import random_operator_with_osr

        for _ in range(100):
            k = int(rng.integers(1, dims.d + 1))
            r = int(rng.integers(1, dims.d + 1))
            a = random_operator_with_osr(rng, dims, k)
            v = random_vector_with_sr(rng, dims, r)
            av = a @ v
            if np.linalg.norm(av) < 1e-12:
                continue
            assert sr(av, dims) <= osr(a, dims) * sr(v, dims)


class TestClosedForms:
    # Oracles: the defining index formulas, written out entry by entry.
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (4, 5), (8, 8)])
    def test_max_entangled_vector(self, m, n):
        d = BipartiteDims(m, n)
        expected = np.zeros(d.total, dtype=np.complex128)
        for i in range(d.d):
            expected[i * n + i] = 1.0
        assert np.array_equal(max_entangled_vector(d), expected / np.sqrt(d.d))

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_swap_operator(self, m):
        expected = np.zeros((m * m, m * m), dtype=np.complex128)
        for i in range(m):
            for j in range(m):
                expected[i * m + j, j * m + i] = 1.0
        assert np.array_equal(swap_operator(BipartiteDims(m, m)), expected)


def _assert_basis_completion(x):
    b = complete_orthonormal_basis(x)
    assert b.shape == (x.shape[0], x.shape[0])
    assert np.linalg.norm(b[:, 0] - x) <= 1e-14
    assert np.linalg.norm(b.conj().T @ b - np.eye(x.shape[0])) <= 1e-13


class TestCompleteOrthonormalBasis:
    @pytest.mark.parametrize("dim", [1, 2, 3, 9, 64])
    @pytest.mark.parametrize(
        "make", [lambda e: e, lambda e: -e, lambda e: 1j * e, lambda e: e[::-1].copy()],
        ids=["e0", "minus_e0", "i_e0", "e_last"],
    )
    def test_standard_vectors(self, dim, make):
        # e_last has x[0] = 0 (for dim > 1), where the phase defaults to 1.
        _assert_basis_completion(make(basis_vec(dim, 0)))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 8, 9, 12, 16, 20, 25, 36, 49, 64])
    def test_random_unit_vectors(self, dim):
        gen = np.random.default_rng(dim)
        for _ in range(20):
            _assert_basis_completion(random_unit_vector(gen, dim))

    def test_does_not_modify_input(self):
        x = random_unit_vector(np.random.default_rng(3), 6)
        before = x.copy()
        complete_orthonormal_basis(x)
        assert np.array_equal(x, before)
        stack = np.array([x, -x])
        complete_orthonormal_basis(stack)
        assert np.array_equal(stack, np.array([before, -before]))

    @pytest.mark.parametrize("dim", [1, 2, 3, 9, 64])
    def test_stack_slices_match_one_dimensional_calls_bytewise(self, dim):
        # Under tobytes() signed zeros count: the standard vectors give
        # exact zeros, and e_last (dim > 1) the x[0] = 0 case, phase 1.
        e = basis_vec(dim, 0)
        rows = [e, -e, 1j * e, e[::-1].copy()]
        rows += [random_unit_vector(np.random.default_rng(dim), dim) for _ in range(6)]
        stack = np.array(rows)
        bases = complete_orthonormal_basis(stack)
        assert bases.shape == (len(rows), dim, dim)
        for row, basis in zip(rows, bases):
            one = complete_orthonormal_basis(row)
            assert basis.tobytes() == one.tobytes()
            assert one.tobytes() == _scalar_phase_basis(row).tobytes()
        # A stack with more leading axes is the same bases, reshaped.
        assert complete_orthonormal_basis(stack.reshape(2, 5, dim)).tobytes() == bases.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4, 9, 16, 35, 64])
    @pytest.mark.parametrize(
        "first", [1e-320, -1e-320, 1e-320j, -1e-320j, 5e-324], ids=repr
    )
    def test_subnormal_first_entry(self, dim, first):
        # x[0]/|x[0]| would overflow: the phase is taken from x[0] scaled
        # by 2**54.  The basis is finite, raises no warning, and has the
        # same bits in the 1-d and the stacked branch.
        rest = random_unit_vector(np.random.default_rng(dim), dim - 1)
        x = np.concatenate([[first], rest])
        stack = np.array([x, random_unit_vector(np.random.default_rng(dim), dim), x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = complete_orthonormal_basis(x)
            bases = complete_orthonormal_basis(stack)
        _assert_basis_completion(x)
        assert bases[0].tobytes() == one.tobytes() == bases[2].tobytes()

    @pytest.mark.parametrize("dim", [1, 4, 7])
    def test_empty_stack(self, dim):
        # The empty combination: no target, no basis.
        bases = complete_orthonormal_basis(np.zeros((0, dim), dtype=np.complex128))
        assert bases.shape == (0, dim, dim) and bases.dtype == np.complex128


class TestTargetImages:
    # Each row of _target_images(ws, c) is B_w c, the reflection applied to
    # c without forming B_w: the same vector as the product with the basis,
    # up to rounding of order D eps |c|.
    @staticmethod
    def _assert_images(ws, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _target_images(ws, c, 1e-9)
        assert got.shape == ws.shape and got.dtype == np.complex128
        bound = 8 * ws.shape[-1] * np.finfo(float).eps * np.linalg.norm(c)
        for w, row in zip(ws, got):
            assert np.linalg.norm(row - complete_orthonormal_basis(w) @ c) <= bound

    @pytest.mark.parametrize("dim", [1, 2, 3, 9, 16, 64])
    def test_random_targets(self, dim):
        gen = np.random.default_rng(dim)
        ws = np.array([random_unit_vector(gen, dim) for _ in range(5)])
        c = ginibre(gen, dim, 1)[:, 0]
        self._assert_images(ws, c)

    @pytest.mark.parametrize("dim", [2, 3, 9, 64])
    @pytest.mark.parametrize("first", [0.0, 1e-320, 5e-324], ids=repr)
    def test_zero_and_subnormal_first_entry(self, dim, first):
        gen = np.random.default_rng(dim)
        x = np.concatenate([[first], random_unit_vector(gen, dim - 1)])
        ws = np.array([x, random_unit_vector(gen, dim), basis_vec(dim, dim - 1)])
        self._assert_images(ws, random_unit_vector(gen, dim))

    @pytest.mark.parametrize("dim", [1, 4, 7])
    def test_empty_stack(self, dim):
        # The empty combination: no target, no image.
        c = random_unit_vector(np.random.default_rng(dim), dim)
        images = _target_images(np.zeros((0, dim), dtype=np.complex128), c, 1e-9)
        assert images.shape == (0, dim) and images.dtype == np.complex128

    def test_non_unit_target_refused(self):
        gen = np.random.default_rng(5)
        ws = np.array([random_unit_vector(gen, 4), 1.5 * random_unit_vector(gen, 4)])
        with pytest.raises(NormError, match="w must be a unit vector"):
            _target_images(ws, random_unit_vector(gen, 4), 1e-9)


def _scalar_phase_basis(x):
    # The 1-d rule with the phase taken on numpy scalars, an independent
    # statement of the bits every basis must have.
    a = abs(x[0])
    phi = x[0] / a if a > 0.0 else 1.0
    h = x / phi
    h[0] += 1.0
    return -phi * (np.eye(x.shape[0]) - np.outer(h, h.conj() / (1.0 + a)))


def _assert_random_lifts(dims, seeds):
    for seed in seeds:
        gen = np.random.default_rng(seed)
        u = random_unit_vector(gen, dims.m)
        v = random_unit_vector(gen, dims.n)
        w = random_unit_vector(gen, dims.total)
        lift = lift_product_to_target(u, v, w, dims)
        assert np.linalg.norm(lift @ product_vec(u, v) - w) <= 1e-12
        assert np.linalg.norm(lift.conj().T @ lift - np.eye(dims.total)) <= 1e-12


class TestLift:
    def test_bell_target(self):
        d = BipartiteDims(2, 2)
        u, v = basis_vec(2, 0), basis_vec(2, 0)
        w = bell(d)
        lift = lift_product_to_target(u, v, w, d)
        assert np.linalg.norm(lift @ product_vec(u, v) - w) <= 1e-12

    def test_fixed_point_contract(self, dims):
        u, v = basis_vec(dims.m, 0), basis_vec(dims.n, 0)
        w = product_vec(u, v)
        lift = lift_product_to_target(u, v, w, dims)
        assert np.linalg.norm(lift @ w - w) <= 1e-12

    def test_random_seeds(self, dims):
        _assert_random_lifts(dims, range(100))

    @pytest.mark.parametrize("m,n", [(4, 5), (8, 8)])
    def test_random_seeds_beyond_desk_dims(self, m, n):
        _assert_random_lifts(BipartiteDims(m, n), range(20))

    def test_rejects_non_unit(self, dims):
        u = 2.0 * basis_vec(dims.m, 0)
        v = basis_vec(dims.n, 0)
        with pytest.raises(NormError):
            lift_product_to_target(u, v, max_entangled_vector(dims), dims)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("factor", ["u", "v"])
    def test_non_finite_factor_refused(self, factor, bad):
        # NaN passes the unit-norm test (every comparison with NaN is
        # false), so it must be refused before that test.
        d = BipartiteDims(2, 3)
        vecs = {"u": basis_vec(2, 0), "v": basis_vec(3, 0)}
        vecs[factor][1] = bad
        with pytest.raises(PreconditionError, match="NaN or infinite"):
            lift_product_to_target(vecs["u"], vecs["v"], bell(d), d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_target_refused(self, bad):
        d = BipartiteDims(2, 3)
        w = bell(d)
        w[1] = bad
        with pytest.raises(PreconditionError, match="NaN or infinite"):
            lift_product_to_target(basis_vec(2, 0), basis_vec(3, 0), w, d)

    def test_non_unit_target_refused(self, dims):
        u, v = basis_vec(dims.m, 0), basis_vec(dims.n, 0)
        with pytest.raises(NormError, match="w must be a unit vector"):
            lift_product_to_target(u, v, 2.0 * max_entangled_vector(dims), dims)

    @pytest.mark.parametrize(
        "u,w,norm_tol,error,match",
        [
            ("2e0", "len3", 1e-9, DimError, "expected vector of length 4"),
            ("len3", "2e0", 1e-9, DimError, r"u must live in C\^m and v in C\^n"),
            ("2e0", "2e0", 1e-9, NormError, "u must be a unit vector"),
            ("len3", "nan", 1e-9, PreconditionError, "NaN or infinite"),
            ("nan", "2e0", 1e-9, PreconditionError, "NaN or infinite"),
            ("2e0", "len3", 1.5, PreconditionError, r"tol must lie in \(0, 1\)"),
        ],
        ids=["w-shape", "u-shape", "u-norm", "w-finite", "u-finite", "tol"],
    )
    def test_refusal_order(self, u, w, norm_tol, error, match):
        # With several faults the first in this order is reported: norm_tol,
        # w's shape and finiteness, u and v's shapes, their finiteness, then
        # the unit norms of u, v and w.  e0 is the first basis vector.
        d = BipartiteDims(2, 2)

        def vec(kind, dim):
            return {"2e0": 2.0 * basis_vec(dim, 0), "len3": np.ones(3) / np.sqrt(3.0),
                    "nan": np.full(dim, np.nan)}[kind]

        with pytest.raises(error, match=match):
            lift_product_to_target(vec(u, 2), basis_vec(2, 0), vec(w, 4), d, norm_tol)

    def test_loose_norm_tol_refused(self):
        # At norm_tol = 1.5 a zero u would pass the unit-norm test.
        d = BipartiteDims(2, 2)
        with pytest.raises(PreconditionError, match=r"tol must lie in \(0, 1\)"):
            lift_product_to_target(np.zeros(2), basis_vec(2, 0), bell(d), d, norm_tol=1.5)


BAD_TOLS = [0.0, 1.0, -1.0, 5.0]


class TestToleranceRefused:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda d, tol: sr(bell(d), d, tol),
            lambda d, tol: schmidt_decompose(bell(d), d, tol),
            lambda d, tol: osr(np.eye(d.total), d, tol),
            lambda d, tol: op_schmidt_decompose(np.eye(d.total), d, tol),
            lambda d, tol: lift_product_to_target(
                basis_vec(2, 0), basis_vec(2, 0), bell(d), d, tol
            ),
        ],
        ids=["sr", "schmidt_decompose", "osr", "op_schmidt_decompose", "lift_product_to_target"],
    )
    def test_raises_precondition_error(self, call, tol):
        with pytest.raises(PreconditionError, match=r"tol must lie in \(0, 1\)"):
            call(BipartiteDims(2, 2), tol)

    # Each public entry point that takes a tolerance: a value that is not a
    # real number is refused like one outside (0, 1), before anything
    # compares it.
    @pytest.mark.parametrize(
        "tol", ["x", 0.1 + 0j, None, np.array([0.1, 0.2]), True, False], ids=repr
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda d, tol: is_psd(np.eye(d.total), d, tol),
            lambda d, tol: is_ppt(np.eye(d.total), d, tol),
            lambda d, tol: osr(np.eye(d.total), d, tol),
            lambda d, tol: collapse_construction(bell(d), d, tol),
            lambda d, tol: SeesawConfig(seed=0, tol=tol),
            lambda d, tol: lift_product_to_target(
                basis_vec(2, 0), basis_vec(2, 0), bell(d), d, norm_tol=tol
            ),
            lambda d, tol: run_suite("srank", d, 0, 2, tol),
        ],
        ids=["is_psd", "is_ppt", "osr", "collapse_construction", "SeesawConfig",
             "lift_product_to_target", "run_suite"],
    )
    def test_non_number_refused(self, call, tol):
        call(BipartiteDims(2, 2), 1e-9)  # the same call runs at the default tolerance
        with pytest.raises(PreconditionError, match=r"tol must lie in \(0, 1\), got "):
            call(BipartiteDims(2, 2), tol)

    @pytest.mark.parametrize("rank", [0, 3, 1.5, True])
    @pytest.mark.parametrize("sampler", [random_vector_with_sr, random_operator_with_osr])
    def test_samplers_refuse_ranks_outside_range(self, rng, sampler, rank):
        with pytest.raises(PreconditionError, match=r"must be an integer in \[1, 2\]"):
            sampler(rng, BipartiteDims(2, 2), rank)


class TestNonNumericRefused:
    # numpy's own ValueError or TypeError must not escape as a bare error.
    @pytest.mark.parametrize(
        "bad", ["x", [1.0, "x", 0.0, 0.0], [[1.0], [2.0, 3.0]], {"a": 1}], ids=repr
    )
    def test_coercions_refuse(self, bad):
        d = BipartiteDims(2, 2)
        for call in (
            lambda: as_vector(d, bad),
            lambda: as_matrix(d, bad),
            lambda: kron(bad, np.eye(2)),
            lambda: product_vec(bad, basis_vec(2, 0)),
            lambda: lift_product_to_target(bad, basis_vec(2, 0), bell(d), d),
        ):
            with pytest.raises(PreconditionError, match="not a numeric array"):
                call()
