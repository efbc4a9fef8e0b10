import numpy as np
import pytest

from conekit import (
    BipartiteDims,
    ConicCombination,
    DimError,
    HermiticityError,
    KrausFamily,
    Locality,
    Mode,
    NormError,
    PreconditionError,
    Verdict,
    ZeroInputError,
    apply_family,
    basis_vec,
    collapse_construction,
    complete_to_identity,
    conic_scale,
    embed_schmidt_k,
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
    random_family,
    schmidt_decompose,
    sr,
    swap_operator,
    validate,
    witness_conjugation,
)
from conekit import bipartite, kraus
from conekit.bipartite import _op_ranks
from conekit.kraus import _validated_image
from conekit.sampling import (
    ginibre,
    haar_unitary,
    random_operator_with_osr,
    random_ppt,
    random_product_vector,
    random_psd,
    random_separable,
    random_unit_vector,
    random_vector_with_sr,
)


def family_of(dims, ops, mode=Mode.EXACT, **kw):
    return KrausFamily(dims, ops, mode, **kw)


def completed_draw(dims, k, seed):
    # An exact family from a contracted draw of planted OSR k: its sum A*A
    # scaled to norm 1/2, then completed with rank-one `eigh` modes.
    draw = random_family(dims, 3, k, Mode.CONTRACTIVE, seed=seed)
    return complete_to_identity(family_of(dims, [a / np.sqrt(2.0) for a in draw.ops]))


class TestValidate:
    def test_identity_singleton(self, dims):
        report = validate(family_of(dims, [np.eye(dims.total)]))
        assert report.verdict is Verdict.IN

    def test_unitary_singleton(self, dims, rng):
        u = haar_unitary(rng, dims.total)
        report = validate(family_of(dims, [u]))
        assert report.verdict is Verdict.IN
        assert report.certificate["normalization_residual"] <= 1e-12

    def test_collapse_prefix_is_contractive(self, dims, rng):
        # The operators c e_i v* sum to c^2 M vv* with c^2 M = 1/2 < 1.
        total = dims.total
        v = random_unit_vector(rng, total)
        c = 1.0 / np.sqrt(2.0 * total)
        ops = [c * np.outer(basis_vec(total, i), v.conj()) for i in range(total)]
        report = validate(family_of(dims, ops, Mode.CONTRACTIVE))
        assert report.verdict is Verdict.IN

    def test_flags_broken_normalization(self, dims):
        report = validate(family_of(dims, [0.5 * np.eye(dims.total)]))
        assert report.verdict is Verdict.OUT
        names = [v["invariant"] for v in report.certificate["violations"]]
        assert "exact_normalization" in names

    def test_flags_osr_bound_violation(self):
        d = BipartiteDims(2, 2)
        u = swap_operator(d)  # unitary with OSR 4
        report = validate(family_of(d, [u], osr_bound=1))
        assert report.verdict is Verdict.OUT
        names = [v["invariant"] for v in report.certificate["violations"]]
        assert "osr_bound" in names

    def test_flags_locality_violation(self):
        # Locality is the OSR bound 1, so a non-product coefficient of a
        # local family breaks exactly one invariant.
        d = BipartiteDims(2, 2)
        family = family_of(d, [swap_operator(d)], osr_bound=1)
        assert family.locality is Locality.LOCAL
        report = validate(family)
        assert report.verdict is Verdict.OUT
        names = [v["invariant"] for v in report.certificate["violations"]]
        assert names == ["osr_bound"]

    @pytest.mark.parametrize("mode", ["exact", "contractive"])
    def test_string_mode_accepted(self, mode):
        d = BipartiteDims(2, 2)
        family = family_of(d, [0.5 * np.eye(4)], mode)
        assert family.mode is Mode(mode)
        report = validate(family)
        assert report.certificate["mode"] == mode
        names = [v["invariant"] for v in report.certificate["violations"]]
        assert names == (["exact_normalization"] if mode == "exact" else [])

    @pytest.mark.parametrize("mode", ["unitary", "EXACT", None, 1], ids=repr)
    def test_unknown_mode_refused(self, mode):
        with pytest.raises(PreconditionError, match="mode"):
            family_of(BipartiteDims(2, 2), [np.eye(4)], mode)

    @pytest.mark.parametrize("bad", [1.5, True, "1"], ids=repr)
    @pytest.mark.parametrize("name", ["osr_bound", "seed"])
    def test_non_integer_bound_or_seed_refused(self, name, bad):
        d = BipartiteDims(2, 2)
        with pytest.raises(PreconditionError, match=name):
            family_of(d, [np.eye(4)], **{name: bad})

    def test_numpy_integer_bound_and_seed_accepted(self):
        d = BipartiteDims(2, 2)
        fam = family_of(d, [np.eye(4)], osr_bound=np.int64(1), seed=np.uint32(3))
        assert fam.locality is Locality.LOCAL
        assert validate(fam).verdict is Verdict.IN

    def test_empty_family_rejected(self, dims):
        with pytest.raises(PreconditionError):
            validate(family_of(dims, []))


class TestApply:
    def test_identity_passthrough(self, dims, rng):
        x = random_psd(rng, dims.total)
        out = apply_family(family_of(dims, [np.eye(dims.total)]), [x])
        assert np.allclose(out, x)

    def test_adjoint_unitary_maps_product_to_target(self, dims, rng):
        u = random_unit_vector(rng, dims.m)
        v = random_unit_vector(rng, dims.n)
        w = random_unit_vector(rng, dims.total)
        x0 = kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
        lift = lift_product_to_target(u, v, w, dims)
        out = apply_family(family_of(dims, [lift.conj().T]), [x0])
        assert np.linalg.norm(out - np.outer(w, w.conj())) <= 1e-12

    def test_local_family_preserves_separability(self, rng):
        for m, n in [(2, 2), (2, 3)]:
            d = BipartiteDims(m, n)
            for trial in range(25):
                fam = random_family(d, 3, 1, Mode.EXACT, seed=1000 + trial)
                inputs = [random_separable(rng, d) for _ in fam.ops]
                out = apply_family(fam, inputs)
                assert is_separable_decidable(out, d).verdict is Verdict.IN

    def test_preserves_psd(self, dims, rng):
        for trial in range(100):
            count = int(rng.integers(1, 4))
            fam = random_family(dims, count, dims.d, Mode.EXACT, seed=2000 + trial)
            inputs = [random_psd(rng, dims.total) for _ in fam.ops]
            out = apply_family(fam, inputs)
            assert is_psd(out, dims).verdict is Verdict.IN

    def test_osr1_families_preserve_ppt(self, dims, rng):
        for trial in range(150):
            count = int(rng.integers(1, 5))
            fam = random_family(dims, count, 1, Mode.EXACT, seed=3000 + trial)
            inputs = [random_ppt(rng, dims) for _ in fam.ops]
            out = apply_family(fam, inputs)
            assert is_ppt(out, dims).verdict is Verdict.IN

    def test_length_mismatch(self, dims):
        fam = family_of(dims, [np.eye(dims.total)])
        with pytest.raises(DimError):
            apply_family(fam, [np.eye(dims.total)] * 2)

    @pytest.mark.parametrize(
        "name,value",
        [pytest.param("inputs", v, id=repr(v)) for v in (None, 5, np.array(1.0), (x for x in []))]
        + [pytest.param("Kraus operators", None, id="ops-None")],
    )
    def test_inputs_without_length_refused(self, dims, name, value):
        ops, inputs = [np.eye(dims.total)], [np.eye(dims.total)]
        if name == "inputs":
            inputs = value
        else:
            ops = value
        with pytest.raises(PreconditionError, match=f"{name} must be a sequence or stack"):
            apply_family(family_of(dims, ops), inputs)

    def test_invalid_family_rejected(self, dims):
        fam = family_of(dims, [0.1 * np.eye(dims.total)])
        with pytest.raises(PreconditionError):
            apply_family(fam, [np.eye(dims.total)])

    # Each case breaks a family that an earlier call certified valid: a
    # global unitary in front of an operator keeps the normalization but
    # raises its OSR, and a rescaled operator breaks the normalization.
    @pytest.mark.parametrize("change", ["replace", "rotate_in_place", "scale_in_place"])
    @pytest.mark.parametrize("certify", ["validate", "complete_to_identity"])
    def test_changed_operator_refused(self, dims, rng, certify, change):
        if certify == "validate":
            fam = random_family(dims, 2, 1, Mode.EXACT, seed=4000)
            assert validate(fam).verdict is Verdict.IN
        else:
            v = random_unit_vector(rng, dims.total)
            prefix = np.outer(basis_vec(dims.total, 0), v.conj()) / 2
            fam = complete_to_identity(family_of(dims, [prefix]))
            assert fam.osr_bound < dims.d**2
        inputs = [np.eye(dims.total)] * len(fam.ops)
        apply_family(fam, inputs)
        rotation = haar_unitary(rng, dims.total)
        if change == "replace":
            fam.ops[0] = rotation @ fam.ops[0]
        elif change == "rotate_in_place":
            fam.ops[0][...] = rotation @ fam.ops[0]
        else:
            fam.ops[0] *= 2.0
        assert validate(fam).verdict is Verdict.OUT
        with pytest.raises(PreconditionError):
            apply_family(fam, inputs)


def _osr_loop(dims, ops, tol=1e-9):
    # The per-operator reference for the stacked rank pass: the full SVD of
    # each whole realignment, with its vectors, which osr no longer takes.
    return [op_schmidt_decompose(a, dims, tol).rank if np.any(a) else 0 for a in ops]


def _values_only_svds(monkeypatch):
    # Returns the list that records the input shape of each
    # np.linalg.svd(..., compute_uv=False) call.
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kw):
        if not kw.get("compute_uv", True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes


class TestOpRanks:
    @pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (2, 3), (3, 3), (4, 5), (8, 8)])
    def test_matches_osr_loop(self, m, n):
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n])
        # Every planted k, with zero operators among them.
        ops = [random_operator_with_osr(rng, d, k) for k in range(1, d.d + 1)]
        ops += [np.zeros((d.total, d.total), dtype=np.complex128)]
        ops += [haar_unitary(rng, d.total) for _ in range(5)]
        ops.insert(1, np.zeros((d.total, d.total), dtype=np.complex128))
        ranks = _op_ranks(d, ops, 1e-9)
        assert ranks == _osr_loop(d, ops)
        assert ranks[: d.d + 1] == [1, 0] + list(range(2, d.d + 1))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 4), (8, 8)])
    def test_small_collapse_family_is_one_stack(self, m, n, monkeypatch):
        d = BipartiteDims(m, n)
        fam, _ = collapse_construction(random_unit_vector(np.random.default_rng(0), d.total), d)
        shapes = _values_only_svds(monkeypatch)
        _op_ranks(d, fam.ops, 1e-9)
        # One row each, all 2mn of them in one stack.
        assert shapes == [(2 * d.total, m, n)]

    def test_tiny_nonzero_operator_is_not_rank_zero(self):
        # Its Frobenius norm underflows to 0; its singular values do not.
        d = BipartiteDims(2, 2)
        tiny = 1e-170 * haar_unitary(np.random.default_rng(3), d.total)
        assert np.linalg.norm(np.stack([tiny]), axis=(1, 2))[0] == 0.0
        assert _op_ranks(d, [tiny], 1e-9) == [d.total]
        fam = family_of(d, [np.eye(d.total), tiny], Mode.CONTRACTIVE, osr_bound=1)
        assert validate(fam).verdict is Verdict.OUT

    def test_matches_osr_loop_on_seeded_families(self, dims):
        for seed in range(6):
            for k in range(1, dims.d + 1):
                if k in (1, dims.d):
                    fam = random_family(dims, 3, k, Mode.EXACT, seed=seed)
                else:
                    fam = completed_draw(dims, k, seed)
                assert _op_ranks(dims, fam.ops, 1e-9) == _osr_loop(dims, fam.ops)
            v = random_unit_vector(np.random.default_rng(seed), dims.total)
            fam, _ = collapse_construction(v, dims)
            assert _op_ranks(dims, fam.ops, 1e-9) == _osr_loop(dims, fam.ops)


def _sparse_factor(rng, dim):
    # A complex Gaussian dim x dim matrix that is zero past its first
    # ceil(dim^2 / 2) row-major entries.
    g = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    g[(dim * dim + 1) // 2:] = 0.0
    return g.reshape(dim, dim)


def _block_sparse(rng, dims, terms):
    # A sum of `terms` products of sparse factors: its realignment is zero
    # outside the rows and columns of the factors' common support.
    return sum(
        kron(_sparse_factor(rng, dims.m), _sparse_factor(rng, dims.n))
        for _ in range(terms)
    )


def _rank_one_rows(ops):
    # The vector w of each operator e_i w*, read off its one nonzero row.
    return [a[np.flatnonzero(np.abs(a).sum(axis=1))[0]].conj() for a in ops]


class TestRankPath:
    """`_op_ranks`, `osr` and `sr` against full-SVD references.

    The references are `op_schmidt_decompose(...).rank` and
    `schmidt_decompose(...).rank`, which keep the full SVD of the whole
    realignment or reshape.
    """

    def assert_paths_agree(self, dims, ops):
        reference = _osr_loop(dims, ops)
        assert _op_ranks(dims, ops, 1e-9) == reference
        for a, rank in zip(ops, reference):
            if rank:
                assert osr(a, dims) == rank
            else:
                with pytest.raises(ZeroInputError):
                    osr(a, dims)
        return reference

    def assert_sr_agrees(self, dims, vecs):
        for v in vecs:
            rank = schmidt_decompose(v, dims).rank
            assert sr(v, dims) == rank
            assert type(sr(v, dims)) is int

    @pytest.mark.parametrize(
        "m,n", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (4, 5), (8, 8)]
    )
    def test_collapse_families(self, m, n):
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 1])
        targets = [
            random_unit_vector(rng, d.total),
            random_vector_with_sr(rng, d, max(1, d.d // 2)),
            product_vec(basis_vec(m, 0), basis_vec(n, 0)),
        ]
        for v in targets:
            fam, _ = collapse_construction(v, d)
            ranks = self.assert_paths_agree(d, fam.ops)
            assert max(ranks) == fam.osr_bound
            # Each operator is e_i w*, whose OSR is SR(w).
            rows = _rank_one_rows(fam.ops)
            self.assert_sr_agrees(d, rows)
            assert [sr(w, d) for w in rows] == ranks

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 5), (8, 8)])
    def test_dense_rank_one_and_zero_mixed(self, m, n):
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 2])
        zero = np.zeros((d.total, d.total), dtype=np.complex128)
        ops = [haar_unitary(rng, d.total), zero]
        ops += [random_operator_with_osr(rng, d, k) for k in range(1, d.d + 1)]
        ops += [
            np.outer(random_product_vector(rng, d), random_vector_with_sr(rng, d, k).conj())
            for k in range(1, d.d + 1)
        ]
        ops += [zero, zero.copy()]
        order = rng.permutation(len(ops))
        ops = [ops[i] for i in order]
        ranks = self.assert_paths_agree(d, ops)
        assert ranks.count(0) == 3

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 5), (8, 8)])
    def test_block_sparse_sums_of_products(self, m, n):
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 3])
        ops = [_block_sparse(rng, d, terms) for terms in (1, 2, 2, 3, d.d)]
        ranks = self.assert_paths_agree(d, ops)
        assert ranks[0] == 1 and max(ranks) > 1
        parts = np.stack([bipartite.realign(a, d) for a in ops]) != 0
        # Half of the realigned rows and columns are zero across the family.
        assert parts.any(axis=(0, 2)).sum() == (m * m + 1) // 2
        assert parts.any(axis=(0, 1)).sum() == (n * n + 1) // 2

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (8, 8)])
    def test_all_zero_stack(self, m, n):
        d = BipartiteDims(m, n)
        ops = [np.zeros((d.total, d.total), dtype=np.complex128) for _ in range(5)]
        assert self.assert_paths_agree(d, ops) == [0] * 5
        with pytest.raises(ZeroInputError):
            sr(np.zeros(d.total), d)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (8, 8)])
    def test_tiny_operator_in_a_sparse_stack(self, m, n):
        # 1e-170 U has a Frobenius norm that underflows to 0 but is a full
        # operator among sparse, one-row and zero ones.
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 4])
        tiny = 1e-170 * haar_unitary(rng, d.total)
        zero = np.zeros((d.total, d.total), dtype=np.complex128)
        fam, _ = collapse_construction(random_unit_vector(rng, d.total), d)
        ops = [fam.ops[0], zero, tiny, _block_sparse(rng, d, 2), fam.ops[-1]]
        ranks = self.assert_paths_agree(d, ops)
        assert ranks[1:3] == [0, d.total]
        v = 1e-170 * random_vector_with_sr(rng, d, d.d)
        self.assert_sr_agrees(d, [v, random_product_vector(rng, d)])
        assert sr(v, d) == d.d

    def test_ranks_take_values_only_svds(self, dims, rng, monkeypatch):
        # osr, sr and _op_ranks read singular values only; the
        # decompositions still ask for the vectors.
        calls = []
        svd = np.linalg.svd

        def recorded(a, *args, **kw):
            calls.append(kw.get("compute_uv", True))
            return svd(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        a = haar_unitary(rng, dims.total)
        v = random_unit_vector(rng, dims.total)
        osr(a, dims)
        sr(v, dims)
        _op_ranks(dims, [a, a], 1e-9)
        assert calls == [False, False, False]
        op_schmidt_decompose(a, dims)
        schmidt_decompose(v, dims)
        assert calls[3:] == [True, True]


def _row_path_ops(rng, dims):
    # One-row, few-row, all-zero, all -0.0, dense, F-ordered and strided
    # operators, in a shuffled order.
    total = dims.total

    def rows_of(index):
        # Row indices wrap at the side, so that 2x2 has every kind too.
        a = np.zeros((total, total), dtype=np.complex128)
        a[np.mod(index, total)] = ginibre(rng, len(index), total)
        return a

    v = random_unit_vector(rng, total)
    imaginary = rows_of([4, 5])
    imaginary[5 % total] = 1j * imaginary[5 % total].imag  # a row with no real part
    strided = np.zeros((total, 2 * total), dtype=np.complex128)
    strided[[1, total - 2], ::2] = ginibre(rng, 2, total)
    ops = [
        rows_of([0]),
        np.outer(basis_vec(total, total - 1), v.conj()),
        rows_of([2, 3]),
        rows_of([1, dims.n + 2, total - 1]),
        rows_of(list(range(0, total, 3))),
        np.zeros((total, total), dtype=np.complex128),
        np.full((total, total), complex(-0.0, -0.0)),
        haar_unitary(rng, total),
        haar_unitary(rng, total).conj().T,
        np.asfortranarray(imaginary),
        strided[:, ::2],
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def _stacked_validate(family, tol=1e-9):
    # The reference passes: every operator coerced and checked whole
    # (`as_matrix`), then the normalization sum as one product R* R of the
    # stacked nonzero rows (the row rule) and the ranks by the full-SVD
    # loop.  Returns (sum, least eigenvalue, residual, ranks or None).
    d = family.dims
    ops = [bipartite.as_matrix(d, a) for a in family.ops]
    r = np.concatenate([a[rows] for a, rows in zip(ops, bipartite._nonzero_rows(ops))])
    s = r.conj().T @ r
    evals = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
    if family.mode is Mode.EXACT:
        residual = float(np.linalg.norm(s - np.eye(d.total)))
    else:
        residual = float(max(0.0, evals[-1] - 1.0))
    ranks = None if family.osr_bound is None else _osr_loop(d, ops, tol)
    return s, float(evals[0]), residual, ranks


def _stacked_image(family, inputs):
    # The reference image: one product L R over the operators with a
    # nonzero input, L holding the blocks A[R]* X[R, R] side by side and R
    # the rows A[R] on top of each other.
    d = family.dims
    ops = [bipartite.as_matrix(d, a) for a in family.ops]
    xs = [bipartite.as_matrix(d, x) for x in inputs]
    terms = [(a, x) for a, x in zip(ops, xs) if x.any()]
    rows = bipartite._nonzero_rows([a for a, _ in terms])
    left = np.concatenate([a[r].conj().T @ x[r][:, r] for (a, x), r in zip(terms, rows)], axis=1)
    return left @ np.concatenate([a[r] for (a, _), r in zip(terms, rows)])


def _refusal(call):
    try:
        call()
    except (DimError, PreconditionError) as exc:
        return type(exc), str(exc)
    return None


class TestRowPath:
    """The Kraus passes over each operator's nonzero rows (the row rule).

    At every side the sums stack the blocks A[R] and A[R]* X[R, R] over
    each A's nonzero rows R into one product, and `_op_ranks` takes no SVD
    of a zero operator and ranks a one-row operator e_i w* by SR(w), every
    other one by its whole realignment.  Ranks must equal the full-SVD loop
    exactly.  A stacked product may round differently from the dense
    per-operator loop, so the sums are held to 8 eps sum_i |A_i|^2 |X_i|
    (Frobenius norms, X_i = I for the normalization sum) from that loop.

    Validation reads each operator once: it is coerced, its rows found and
    only those rows checked for finiteness (a NaN or inf is nonzero, so it
    lies in them), and every refusal is the whole read's.  Each sum is one
    product of stacked blocks, and every sum, residual, rank and image has
    the bits of the stacked reference passes `_stacked_validate` and
    `_stacked_image`.
    """

    DIMS = [(2, 2), (2, 3), (3, 3), (4, 8), (5, 7), (6, 6), (8, 8)]

    @staticmethod
    def bound(ops, inputs=None):
        eps = np.finfo(np.float64).eps
        weights = [1.0] * len(ops) if inputs is None else [np.linalg.norm(x) for x in inputs]
        return 8 * eps * sum(np.linalg.norm(a) ** 2 * w for a, w in zip(ops, weights))

    @pytest.mark.parametrize("m,n", DIMS)
    def test_rows_match_a_dense_scan(self, m, n):
        d = BipartiteDims(m, n)
        ops = _row_path_ops(np.random.default_rng([m, n, 5]), d)
        for a, rows in zip(ops, bipartite._nonzero_rows(ops)):
            want = np.flatnonzero((a != 0).any(axis=1))
            if want.size == d.total:
                assert rows == slice(None)
            else:
                assert np.array_equal(rows, want)
        negative_zero = np.full((d.total, d.total), complex(-0.0, -0.0))
        assert bipartite._nonzero_rows([negative_zero])[0].size == 0

    @pytest.mark.parametrize("m,n", [(5, 6), *DIMS])
    def test_rank_pass_takes_at_most_two_svds(self, m, n, monkeypatch):
        # The one-row operators share one SVD of their rows, the multi-row
        # and dense ones one of their whole realignments, and the two zero
        # operators (all +0.0 and all -0.0) take none.
        d = BipartiteDims(m, n)
        ops = _row_path_ops(np.random.default_rng([m, n, 11]), d)
        with monkeypatch.context() as patch:
            shapes = _values_only_svds(patch)
            ranks = _op_ranks(d, ops, 1e-9)
        assert ranks == _osr_loop(d, ops)
        assert shapes == [(2, m, n), (len(ops) - 4, m * m, n * n)]

    @pytest.mark.parametrize("m,n", DIMS)
    def test_ranks_match_osr_loop(self, m, n):
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 7])
        ops = _row_path_ops(rng, d)
        ops += [_block_sparse(rng, d, 2), random_operator_with_osr(rng, d, 2)]
        reference = _osr_loop(d, ops)
        assert _op_ranks(d, ops, 1e-9) == reference
        assert reference.count(0) == 2
        for a, rank in zip(ops, reference):
            if rank:
                assert osr(a, d) == rank

    @pytest.mark.parametrize("m,n", DIMS)
    def test_normalization_sum_matches_dense_loop(self, m, n):
        d = BipartiteDims(m, n)
        ops = _row_path_ops(np.random.default_rng([m, n, 8]), d)
        dense = np.zeros((d.total, d.total), dtype=np.complex128)
        for a in ops:
            dense += a.conj().T @ a
        got = kraus._normalization_sum(d, ops)
        assert np.abs(got - dense).max() <= self.bound(ops)
        rows = bipartite._nonzero_rows(ops)
        assert np.array_equal(kraus._normalization_sum(d, ops, rows), got)

    @pytest.mark.parametrize("m,n", DIMS)
    def test_image_matches_dense_loop(self, m, n):
        d = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 9])
        ops = _row_path_ops(rng, d)
        s = sum(a.conj().T @ a for a in ops)
        scale = 1.0 / np.sqrt(1.01 * np.linalg.eigvalsh(s)[-1])
        ops = [scale * a for a in ops]
        shared = random_psd(rng, d.total)
        inputs = [random_psd(rng, d.total) for _ in ops]
        inputs[1] = inputs[4] = shared
        inputs[2] = np.zeros((d.total, d.total))
        fam = family_of(d, ops, Mode.CONTRACTIVE, osr_bound=max(_osr_loop(d, ops)))
        got, report = _validated_image(fam, inputs, 1e-9)
        assert report.verdict is Verdict.IN
        dense = np.zeros((d.total, d.total), dtype=np.complex128)
        for a, x in zip(ops, inputs):
            dense += a.conj().T @ x @ a
        assert np.abs(got - dense).max() <= self.bound(ops, inputs)

    @pytest.mark.parametrize("m,n", DIMS)
    def test_collapse_family_matches_dense_loop(self, m, n):
        d = BipartiteDims(m, n)
        v = random_unit_vector(np.random.default_rng([m, n, 10]), d.total)
        fam, inputs = collapse_construction(v, d)
        rows = bipartite._nonzero_rows(fam.ops)
        assert all(r.size == 1 for r in rows)
        s = kraus._normalization_sum(d, fam.ops)
        assert np.abs(s - sum(a.conj().T @ a for a in fam.ops)).max() <= self.bound(fam.ops)
        out = apply_family(fam, inputs)
        dense = sum(a.conj().T @ x @ a for a, x in zip(fam.ops, inputs) if x.any())
        assert np.abs(out - dense).max() <= self.bound(fam.ops, inputs)
        assert max(_osr_loop(d, fam.ops)) == fam.osr_bound

    ONE_READ_DIMS = [(2, 3), (3, 3), (4, 8), (5, 7), (8, 8)]
    CALLS = {
        "validate": lambda fam, inputs: validate(fam),
        "apply": lambda fam, inputs: apply_family(fam, inputs),
        "_validated_image": lambda fam, inputs: _validated_image(fam, inputs, 1e-9),
    }

    @staticmethod
    def _bad_families(dims):
        total = dims.total
        fam, inputs = collapse_construction(max_entangled_vector(dims), dims)
        wrong = np.zeros((total + 1, total + 1))
        for value in (np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 0.0)):
            alone = np.zeros((total, total), dtype=np.complex128)
            alone[total - 1, 3] = value  # an otherwise-zero operator
            in_row = np.array(fam.ops[2])
            in_row[total - 1, 0] = value  # an otherwise-zero row
            for bad in ([alone], [in_row], [wrong, alone], [alone, wrong]):
                ops = list(fam.ops)
                ops[1 : 1 + len(bad)] = bad
                yield family_of(dims, ops, osr_bound=fam.osr_bound), inputs

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("m,n", ONE_READ_DIMS)
    def test_refusals_match_a_whole_read(self, m, n, call):
        dims = BipartiteDims(m, n)
        for fam, inputs in self._bad_families(dims):
            want = _refusal(lambda: [bipartite.as_matrix(dims, a) for a in fam.ops])
            assert want is not None and want[0] in (DimError, PreconditionError)
            assert _refusal(lambda: self.CALLS[call](fam, inputs)) == want

    @pytest.mark.parametrize("m,n", ONE_READ_DIMS)
    def test_negative_zero_operator_ranks_zero(self, m, n):
        dims = BipartiteDims(m, n)
        fam, _ = collapse_construction(max_entangled_vector(dims), dims)
        minus = np.full((dims.total, dims.total), complex(-0.0, -0.0))
        family = family_of(dims, [minus, *fam.ops, minus], osr_bound=fam.osr_bound)
        report, ops, rows = kraus._validate(family, 1e-9)
        assert report.verdict is Verdict.IN
        assert rows[0].size == rows[-1].size == 0
        ranks = _op_ranks(dims, ops, 1e-9, rows)
        assert ranks[0] == ranks[-1] == 0 and ranks == _osr_loop(dims, ops)

    def _assert_reference_bits(self, family, inputs):
        report, ops, rows = kraus._validate(family, 1e-9)
        s, least, residual, ranks = _stacked_validate(family)
        assert kraus._normalization_sum(family.dims, ops, rows).tobytes() == s.tobytes()
        assert report.min_eig == least
        assert report.certificate["normalization_residual"] == residual
        if ranks is not None:
            assert _op_ranks(family.dims, ops, 1e-9, rows) == ranks
        assert report.verdict is Verdict.IN
        image, _ = _validated_image(family, inputs, 1e-9)
        assert image.tobytes() == _stacked_image(family, inputs).tobytes()

    @pytest.mark.parametrize("target", ["random", "product", "max_entangled"])
    @pytest.mark.parametrize("m,n", DIMS)
    def test_collapse_families_match_the_loops(self, m, n, target):
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 12])
        v = {
            "random": lambda: random_unit_vector(rng, dims.total),
            "product": lambda: random_product_vector(rng, dims),
            "max_entangled": lambda: max_entangled_vector(dims),
        }[target]()
        self._assert_reference_bits(*collapse_construction(v, dims))

    @staticmethod
    def _one_row_family(dims, rng, pattern, rows):
        # Operator i is e_{rows[i]} w_{pattern[i]}*, scaled to a contraction.
        lines = [random_unit_vector(rng, dims.total) for _ in range(max(pattern) + 1)]
        ops = [np.outer(basis_vec(dims.total, r), lines[p].conj()) for p, r in zip(pattern, rows)]
        scale = 1.0 / np.sqrt(1.01 * np.linalg.eigvalsh(sum(a.conj().T @ a for a in ops))[-1])
        ops = [scale * a for a in ops]
        return family_of(dims, ops, Mode.CONTRACTIVE, osr_bound=dims.d)

    @pytest.mark.parametrize("m,n", ONE_READ_DIMS)
    def test_equal_rows_apart_match_the_loops(self, m, n):
        # Equal rows that are not consecutive: w0 w1 w0 w1 w0 on rows 0-4,
        # and w0 on one row between two others.
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 13])
        fam = self._one_row_family(dims, rng, [0, 1, 0, 1, 0, 2, 0, 2], [0, 1, 2, 3, 4, 4, 4, 5])
        inputs = [random_psd(rng, dims.total) for _ in fam.ops]
        self._assert_reference_bits(fam, inputs)
        shared = np.eye(dims.total)
        self._assert_reference_bits(fam, [shared] * len(fam.ops))

    @pytest.mark.parametrize("m,n", ONE_READ_DIMS)
    def test_equal_rows_unequal_inputs_match_the_loops(self, m, n):
        # One row w on rows 0, 1, 1, 1, 2: a shared input whose diagonal
        # differs on rows 0 and 1, another input on an equal block, and
        # equal input blocks on the same row.
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 14])
        fam = self._one_row_family(dims, rng, [0, 0, 0, 0, 0], [0, 1, 1, 1, 2])
        x, y = random_psd(rng, dims.total), random_psd(rng, dims.total)
        assert x[0, 0] != x[1, 1] and x[1, 1] != y[1, 1]
        self._assert_reference_bits(fam, [x, x, y, y.copy(), x])


def _degenerate_stacks():
    # name -> (family, inputs, image): families whose stacked blocks are
    # empty or minimal, with the image `apply` must return bit for bit.
    d = BipartiteDims(2, 3)
    zero = np.zeros((d.total, d.total), dtype=np.complex128)
    fam = random_family(d, 3, d.d, Mode.EXACT, seed=3)
    inputs = [random_psd(np.random.default_rng(4), d.total) for _ in fam.ops]
    one = BipartiteDims(1, 1)
    collapse = collapse_construction(np.array([np.exp(0.3j)]), one)
    stack = family_of(d, np.stack(fam.ops))
    u = haar_unitary(np.random.default_rng(5), d.total)
    return {
        "zero_operators": (
            family_of(d, [zero] * 3, Mode.CONTRACTIVE, osr_bound=1), [np.eye(d.total)] * 3, zero
        ),
        "zero_inputs": (fam, [zero] * 3, zero),
        "collapse_1x1": (*collapse, _stacked_image(*collapse)),
        # One operator keeps the bits of its own product.
        "one_operator": (family_of(d, [u]), inputs[:1], u.conj().T @ inputs[0] @ u),
        "operator_stack": (stack, inputs, _stacked_image(fam, inputs)),
        "input_stack": (fam, np.stack(inputs), _stacked_image(fam, inputs)),
    }


class TestDegenerateStacks:
    """Sums whose stacks have no rows, no terms or one entry give a result.

    An empty stack joins to a zero-size block, so its product is the
    (D, D) zero matrix, never numpy's error on concatenating nothing.
    """

    @pytest.mark.parametrize("call", list(TestRowPath.CALLS))
    @pytest.mark.parametrize("case", list(_degenerate_stacks()))
    def test_result_matches_the_reference(self, case, call):
        fam, inputs, want = _degenerate_stacks()[case]
        got = TestRowPath.CALLS[call](fam, inputs)
        if call == "validate":
            assert got.verdict is Verdict.IN
            return
        image, report = (got, validate(fam)) if call == "apply" else got
        assert report.verdict is Verdict.IN
        assert image.shape == want.shape and image.tobytes() == want.tobytes()


class TestRandomFamily:
    @pytest.mark.parametrize("bad", [1.5, True, "2"], ids=repr)
    @pytest.mark.parametrize("name", ["count", "k"])
    def test_non_integer_count_or_k_refused(self, name, bad):
        args = {"count": 2, "k": 1, name: bad}
        with pytest.raises(PreconditionError, match=name):
            random_family(BipartiteDims(2, 2), args["count"], args["k"], Mode.EXACT, seed=5)

    def test_numpy_integer_count_and_k_accepted(self):
        d = BipartiteDims(2, 3)
        want = random_family(d, 3, 2, Mode.EXACT, seed=5)
        got = random_family(d, np.int64(3), np.int32(2), Mode.EXACT, seed=5)
        assert got.osr_bound == want.osr_bound
        assert all(np.array_equal(a, b) for a, b in zip(got.ops, want.ops))

    @pytest.mark.parametrize("bad", [1.5, True, "1", -1, None], ids=repr)
    def test_bad_seed_refused(self, bad):
        with pytest.raises(PreconditionError, match="seed"):
            random_family(BipartiteDims(2, 2), 2, 1, Mode.EXACT, seed=bad)

    def test_numpy_integer_seed_accepted(self):
        d = BipartiteDims(2, 2)
        want = random_family(d, 2, 1, Mode.EXACT, seed=5)
        got = random_family(d, 2, 1, Mode.EXACT, seed=np.int64(5))
        assert all(np.array_equal(a, b) for a, b in zip(got.ops, want.ops))

    def test_local_exact_draw(self):
        d = BipartiteDims(2, 2)
        fam = random_family(d, 4, 1, Mode.EXACT, seed=5)
        assert fam.locality is Locality.LOCAL
        assert fam.osr_bound == 1
        assert len(fam.ops) == 4
        assert validate(fam).verdict is Verdict.IN

    def test_prime_count_local(self):
        d = BipartiteDims(2, 3)
        fam = random_family(d, 5, 1, Mode.EXACT, seed=5)
        assert len(fam.ops) == 5
        assert validate(fam).verdict is Verdict.IN

    def test_unconstrained_exact(self, dims):
        fam = random_family(dims, 3, dims.d, Mode.EXACT, seed=6)
        assert fam.osr_bound is None
        assert validate(fam).verdict is Verdict.IN

    def test_intermediate_k_exact_refused(self):
        # A completion with rank-one `eigh` modes would certify d, not k.
        for m, n, k in [(3, 3, 2), (4, 4, 3), (8, 8, 5)]:
            with pytest.raises(PreconditionError) as info:
                random_family(BipartiteDims(m, n), 2, k, Mode.EXACT, seed=7)
            assert str(info.value) == (
                f"random_family cannot certify an exact family at 1 < k < d (k = {k}, "
                f"d = {min(m, n)}): draw Mode.CONTRACTIVE at k, or use collapse_construction"
            )

    def test_contractive_keeps_planted_bound(self, dims):
        for k in range(1, dims.d + 1):
            fam = random_family(dims, 3, k, Mode.CONTRACTIVE, seed=8)
            assert fam.osr_bound == k
            assert validate(fam).verdict is Verdict.IN

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
    def test_string_mode_matches_enum(self, mode, k):
        d = BipartiteDims(2, 3)
        want = random_family(d, 3, k, mode, seed=1)
        got = random_family(d, 3, k, mode.value, seed=1)
        assert got.mode is want.mode is mode
        assert got.osr_bound == want.osr_bound
        assert len(got.ops) == len(want.ops)
        assert all(np.array_equal(a, b) for a, b in zip(got.ops, want.ops))

    @pytest.mark.parametrize("mode", ["bogus", "CONTRACTIVE", None], ids=repr)
    def test_unknown_mode_refused(self, mode):
        with pytest.raises(PreconditionError, match="mode"):
            random_family(BipartiteDims(2, 2), 2, 1, mode, seed=1)

    def test_deterministic_per_seed(self, dims):
        fam1 = random_family(dims, 3, 1, Mode.EXACT, seed=99)
        fam2 = random_family(dims, 3, 1, Mode.EXACT, seed=99)
        for a, b in zip(fam1.ops, fam2.ops):
            assert np.array_equal(a, b)


class TestCompleteToIdentity:
    def test_each_operator_read_once(self, dims, monkeypatch):
        # One row scan per partial operator, shared by the normalization
        # sum and the rank pass.
        draw = random_family(dims, 3, dims.d, Mode.CONTRACTIVE, seed=1)
        scans = []
        rows_of = bipartite._rows_of

        def counting(a):
            scans.append(a.shape)
            return rows_of(a)

        monkeypatch.setattr(bipartite, "_rows_of", counting)
        fam = complete_to_identity(family_of(dims, [a / 2 for a in draw.ops]))
        assert len(scans) == len(draw.ops)
        assert fam.osr_bound == dims.d

    def test_completion_of_empty(self, dims):
        partial = KrausFamily(dims, [], Mode.EXACT)
        fam = complete_to_identity(partial)
        assert len(fam.ops) == dims.total
        assert all(np.linalg.matrix_rank(a) == 1 for a in fam.ops)
        assert validate(fam).verdict is Verdict.IN

    def test_collapse_prefix_completion(self, dims, rng):
        total = dims.total
        v = random_unit_vector(rng, total)
        c = 1.0 / np.sqrt(2.0 * total)
        ops = [c * np.outer(basis_vec(total, i), v.conj()) for i in range(total)]
        fam = complete_to_identity(KrausFamily(dims, ops, Mode.EXACT))
        s = sum(a.conj().T @ a for a in fam.ops)
        assert np.linalg.norm(s - np.eye(total)) <= 1e-10

    def test_unitary_needs_no_completion(self, dims, rng):
        u = haar_unitary(rng, dims.total)
        fam = complete_to_identity(KrausFamily(dims, [u], Mode.EXACT))
        assert len(fam.ops) == 1

    def test_non_contractive_rejected(self, dims):
        partial = KrausFamily(dims, [2.0 * np.eye(dims.total)], Mode.EXACT)
        with pytest.raises(PreconditionError):
            complete_to_identity(partial)

    @pytest.mark.parametrize("excess, refused", [(2e-9, True), (0.5e-9, False)])
    def test_refusal_margin(self, dims, excess, refused):
        # lambda_max(S) = 1 + excess against the 1e-9 contractivity bound.
        weights = np.full(dims.total, 0.25)
        weights[-1] = 1.0 + excess
        partial = KrausFamily(dims, [np.diag(np.sqrt(weights))], Mode.EXACT)
        if refused:
            with pytest.raises(PreconditionError, match=r"largest eigenvalue 1\.000000002"):
                complete_to_identity(partial)
        else:
            fam = complete_to_identity(partial)
            assert len(fam.ops) == dims.total
            assert validate(fam).verdict is Verdict.IN

    def test_one_eigen_solve_and_no_schmidt_rank(self, dims, rng, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        # kraus binds its own name for sr, so both bindings are wrapped.
        for module, name in (
            (np.linalg, "eigh"), (np.linalg, "eigvalsh"), (bipartite, "sr"), (kraus, "sr")
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        total = dims.total
        v = random_unit_vector(rng, total)
        c = 1.0 / np.sqrt(2.0 * total)
        ops = [c * np.outer(basis_vec(total, i), v.conj()) for i in range(total)]
        fam = complete_to_identity(KrausFamily(dims, ops, Mode.EXACT))
        assert calls == ["eigh"]
        for j, appended in enumerate(fam.ops[total:]):
            # Mode j sits on the standard product basis vector e_j.
            assert np.count_nonzero(appended[j]) > 0
            assert np.count_nonzero(np.delete(appended, j, axis=0)) == 0

    def test_positional_anchor_list_refused_at_the_call(self, dims):
        anchors = [basis_vec(dims.total, i) for i in range(dims.total)]
        with pytest.raises(TypeError):
            complete_to_identity(KrausFamily(dims, [], Mode.EXACT), anchors)

    def test_appended_osr_matches_eigenvector_sr(self, dims, rng):
        total = dims.total
        v = random_unit_vector(rng, total)
        c = 1.0 / np.sqrt(2.0 * total)
        ops = [c * np.outer(basis_vec(total, i), v.conj()) for i in range(total)]
        fam = complete_to_identity(KrausFamily(dims, ops, Mode.EXACT))
        for appended in fam.ops[total:]:
            # B = sqrt(mu) f u*: the right factor carries the Schmidt rank.
            _, _, vh = np.linalg.svd(appended)
            assert osr(appended, dims) == sr(vh[0].conj(), dims)


class TestCollapseConstruction:
    def test_bell_target(self):
        d = BipartiteDims(2, 2)
        v = max_entangled_vector(d)
        fam, inputs = collapse_construction(v, d)
        assert validate(fam).verdict is Verdict.IN
        out = apply_family(fam, inputs)
        assert np.linalg.norm(out - np.outer(v, v.conj())) <= 1e-10

    def test_product_target_degenerate_control(self, dims):
        v = product_vec(basis_vec(dims.m, 0), basis_vec(dims.n, 0))
        fam, inputs = collapse_construction(v, dims)
        out = apply_family(fam, inputs)
        assert np.linalg.norm(out - np.outer(v, v.conj())) <= 1e-10

    def test_random_targets(self, dims, rng):
        for _ in range(25):
            v = random_unit_vector(rng, dims.total)
            fam, inputs = collapse_construction(v, dims)
            s = sum(a.conj().T @ a for a in fam.ops)
            assert np.linalg.norm(s - np.eye(dims.total)) <= 1e-10
            out = apply_family(fam, inputs)
            assert np.linalg.norm(out - np.outer(v, v.conj())) <= 1e-10
            assert fam.osr_bound == sr(v, dims)
            for x in inputs:
                assert (
                    np.linalg.norm(x) == 0.0 or is_ppt(x, dims).verdict is Verdict.IN
                )

    def test_scale_choice(self, dims):
        # c = 1/sqrt(2M) gives c^2 M = 1/2 <= 1.
        c = 1.0 / np.sqrt(2.0 * dims.total)
        assert c * c * dims.total == pytest.approx(0.5)

    def test_non_unit_target_rejected(self, dims):
        with pytest.raises(NormError):
            collapse_construction(np.ones(dims.total), dims)


COLLAPSE_DIMS = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (4, 5), (8, 8)]


def _collapse_targets(dims):
    rng = np.random.default_rng([dims.m, dims.n, 11])
    targets = {
        "e0f0": product_vec(basis_vec(dims.m, 0), basis_vec(dims.n, 0)),
        "max_entangled": max_entangled_vector(dims),
        "random": random_unit_vector(rng, dims.total),
    }
    for k in range(1, dims.d + 1):
        targets[f"sr{k}"] = random_vector_with_sr(rng, dims, k)
    return targets


class TestCollapseRankPass:
    @pytest.mark.parametrize("m,n", [*COLLAPSE_DIMS, (5, 7)])
    def test_closed_form_ranks_match_realignment(self, m, n):
        # The bound read off the Schmidt-aligned basis is SR(v), and so is
        # the largest OSR of the operators by either rank pass.
        dims = BipartiteDims(m, n)
        for name, v in _collapse_targets(dims).items():
            fam, _ = collapse_construction(v, dims)
            realigned = _op_ranks(dims, fam.ops, 1e-9)
            assert realigned == _osr_loop(dims, fam.ops), name
            assert fam.osr_bound == sr(v, dims) == max(realigned), name

    def test_schmidt_rank_two_target_certifies_two(self):
        # An eigh completion certified d = 4 here, whatever SR(v) was.
        dims = BipartiteDims(4, 4)
        v = random_vector_with_sr(np.random.default_rng(2), dims, 2)
        fam, _ = collapse_construction(v, dims)
        assert fam.osr_bound == 2
        assert validate(fam).verdict is Verdict.IN

    @pytest.mark.parametrize("m,n", [(5, 7), (7, 9)])
    def test_operators_continuous_in_the_target(self, m, n):
        # A one-ulp change of one entry of v moves no operator by more than
        # 1e-12; an eigh basis of the (mn - 1)-fold deficit moved them by ~1.
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 12])
        v = random_unit_vector(rng, dims.total)
        w = v.copy()
        w[3] = np.nextafter(w.real[3], np.inf) + 1j * w.imag[3]
        fam, _ = collapse_construction(v, dims)
        moved, _ = collapse_construction(w, dims)
        assert fam.osr_bound == moved.osr_bound == dims.d
        assert max(np.abs(a - b).max() for a, b in zip(fam.ops, moved.ops)) <= 1e-12

    def test_coarse_tol_keeps_the_whole_spectrum(self):
        # At tol = 0.5 the Schmidt coefficients (1, 0.4) have rank 1; a basis
        # cut at that rank would not hold v nor resolve the identity.
        dims = BipartiteDims(3, 3)
        rng = np.random.default_rng(13)
        u, w = haar_unitary(rng, 3), haar_unitary(rng, 3)
        v = (u[:, 0, None] * w[:, 0] + 0.4 * u[:, 1, None] * w[:, 1]).reshape(9)
        v /= np.linalg.norm(v)
        # A target of norm 1.3 is accepted at this tol, and must resolve too.
        for target in (v, 1.3 * v):
            fam, inputs = collapse_construction(target, dims, 0.5)
            assert fam.osr_bound == sr(target, dims, 0.5) == 1
            assert validate(fam, 0.5).verdict is Verdict.IN
            out = apply_family(fam, inputs, 0.5)
            assert np.linalg.norm(out - np.outer(target, target.conj())) <= 1e-13

    def test_collapse_takes_no_realignment_svd(self, dims, rng, monkeypatch):
        shapes = []
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            shapes.append(a.shape[-2:])
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        collapse_construction(random_unit_vector(rng, dims.total), dims)
        assert shapes and all(shape == (dims.m, dims.n) for shape in shapes)

    @pytest.mark.parametrize("m,n,k", [(3, 3, 2), (4, 5, 2), (4, 5, 3), (8, 8, 5)])
    def test_public_completion_bound_is_max_realigned_rank(self, m, n, k):
        dims = BipartiteDims(m, n)
        for seed in range(3):
            fam = completed_draw(dims, k, seed)
            assert fam.osr_bound == max(_op_ranks(dims, fam.ops, 1e-9))

    def test_public_completion_ignores_a_declared_bound(self, dims, rng):
        ops = [random_operator_with_osr(rng, dims, dims.d) / (2 * dims.total)]
        fam = complete_to_identity(KrausFamily(dims, ops, Mode.EXACT, osr_bound=1))
        assert fam.osr_bound == max(_op_ranks(dims, fam.ops, 1e-9))
        assert fam.osr_bound > 1

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 3), (8, 8)])
    def test_zero_inputs_match_every_term_multiplied(self, m, n):
        dims = BipartiteDims(m, n)
        rng = np.random.default_rng([m, n, 5])
        v = random_unit_vector(rng, dims.total)
        families = [collapse_construction(v, dims)]
        fam = random_family(dims, 4, dims.d, Mode.EXACT, seed=3)
        zero = np.zeros((dims.total, dims.total))
        mixed = [random_psd(rng, dims.total), zero, -0.0 * np.eye(dims.total), zero]
        families.append((fam, mixed))
        for fam, inputs in families:
            out, report = _validated_image(fam, inputs, 1e-9)
            # Bit for bit the stacked reference, and within rounding of
            # every term multiplied out densely.
            assert np.array_equal(out, _stacked_image(fam, inputs))
            dense = np.zeros((dims.total, dims.total), dtype=np.complex128)
            for a, x in zip(fam.ops, inputs):
                dense += a.conj().T @ np.asarray(x, dtype=np.complex128) @ a
            assert np.abs(out - dense).max() <= TestRowPath.bound(fam.ops, inputs)
            assert report.verdict is Verdict.IN

    @pytest.mark.parametrize("change", ["rotate", "scale"])
    def test_operator_with_zero_input_still_validated(self, dims, rng, change):
        v = product_vec(basis_vec(dims.m, 0), basis_vec(dims.n, 0))
        fam, inputs = collapse_construction(v, dims)
        assert fam.osr_bound == 1
        last = len(fam.ops) - 1
        assert not inputs[last].any()
        if change == "rotate":
            fam.ops[last] = haar_unitary(rng, dims.total) @ fam.ops[last]
            invariant = "osr_bound"
        else:
            fam.ops[last] = 2.0 * fam.ops[last]
            invariant = "exact_normalization"
        with pytest.raises(PreconditionError, match=invariant):
            apply_family(fam, inputs)

    def test_bad_zero_input_still_refused(self, dims):
        fam, inputs = collapse_construction(max_entangled_vector(dims), dims)
        inputs[-1] = np.zeros((dims.total + 1, dims.total + 1))
        with pytest.raises(DimError):
            apply_family(fam, inputs)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (8, 8)])
    def test_each_distinct_input_checked_once(self, m, n, monkeypatch):
        # A collapse family's inputs are one shared matrix and one zero
        # matrix, repeated: every operator is checked, each input once.
        dims = BipartiteDims(m, n)
        fam, inputs = collapse_construction(max_entangled_vector(dims), dims)
        assert len({id(x) for x in inputs}) == 2
        calls = []
        real_finite = bipartite._finite

        def finite(arr):
            calls.append(arr.shape)
            return real_finite(arr)

        monkeypatch.setattr(bipartite, "_finite", finite)
        apply_family(fam, inputs)
        assert len(fam.ops) == 2 * dims.total
        assert len(calls) == len(fam.ops) + 2

    def test_stacked_inputs_match_a_list(self, dims, rng):
        # Rows of a 3-d array are fresh views: none may pass for another.
        # A stack of operators validates with the list's bits too.
        fam = random_family(dims, 4, dims.d, Mode.EXACT, seed=5)
        inputs = [random_psd(rng, dims.total) for _ in fam.ops]
        inputs[2] = np.zeros((dims.total, dims.total))
        listed, report = _validated_image(fam, inputs, 1e-9)
        stacked, _ = _validated_image(fam, np.stack(inputs), 1e-9)
        assert np.array_equal(stacked, listed)
        stack = family_of(dims, np.stack(fam.ops), osr_bound=fam.osr_bound)
        stacked, stack_report = _validated_image(stack, np.stack(inputs), 1e-9)
        assert stacked.tobytes() == listed.tobytes() and stack_report == report

    def test_first_bad_input_raises_first(self, dims):
        fam, inputs = collapse_construction(max_entangled_vector(dims), dims)
        nan = np.full((dims.total, dims.total), np.nan)
        wrong = np.zeros((dims.total + 1, dims.total + 1))
        for bad in ([nan, wrong], [wrong, nan]):
            inputs = list(inputs)
            inputs[0], inputs[-1] = bad[0], bad[0]
            inputs[1] = bad[1]
            error = PreconditionError if bad[0] is nan else DimError
            with pytest.raises(error):
                apply_family(fam, inputs)


class TestEmbedSchmidtK:
    def test_product_vector(self, dims, rng):
        v = random_product_vector(rng, dims)
        u = random_product_vector(rng, dims)
        fam = embed_schmidt_k(v, u, dims, 1)
        assert fam.osr_bound == 1
        out = apply_family(fam, [np.eye(dims.total)])
        assert is_separable_decidable(out, dims).verdict is Verdict.IN

    def test_bell_embedding(self):
        d = BipartiteDims(2, 2)
        v = max_entangled_vector(d)
        u = product_vec(basis_vec(2, 0), basis_vec(2, 0))
        fam = embed_schmidt_k(v, u, d, 2)
        assert fam.osr_bound == 2
        assert fam.mode is Mode.CONTRACTIVE
        out = apply_family(fam, [np.eye(4)])
        assert np.linalg.norm(out - np.outer(v, v.conj())) <= 1e-10

    def test_contractivity_is_tight(self, dims, rng):
        # A*A = vv* is rank one with top eigenvalue exactly 1.
        v = random_vector_with_sr(rng, dims, dims.d)
        u = random_product_vector(rng, dims)
        fam = embed_schmidt_k(v, u, dims, dims.d)
        a = fam.ops[0]
        evals = np.linalg.eigvalsh(a.conj().T @ a)
        assert abs(evals[-1] - 1.0) <= 1e-12

    def test_output_range_vector_keeps_rank(self, dims, rng):
        for r in range(1, dims.d + 1):
            v = random_vector_with_sr(rng, dims, r)
            u = random_product_vector(rng, dims)
            fam = embed_schmidt_k(v, u, dims, r)
            out = apply_family(fam, [np.eye(dims.total)])
            top = np.linalg.eigh(out)[1][:, -1]
            assert sr(top, dims) == sr(v, dims)

    @pytest.mark.parametrize("bad", [1.5, True, "2"], ids=repr)
    def test_non_integer_k_refused(self, bad):
        d = BipartiteDims(2, 2)
        u = product_vec(basis_vec(2, 0), basis_vec(2, 0))
        with pytest.raises(PreconditionError, match="k must be an integer"):
            embed_schmidt_k(u, u, d, bad)

    @pytest.mark.parametrize("bad", [0, -1, 3, 5])
    def test_k_outside_one_to_d_refused(self, bad):
        # k = 0 used to read as "v has Schmidt rank 2 > k = 0", and k > d
        # was accepted.
        d = BipartiteDims(2, 2)
        v = max_entangled_vector(d)
        u = product_vec(basis_vec(2, 0), basis_vec(2, 0))
        with pytest.raises(PreconditionError, match=r"k must be an integer in \[1, 2\]"):
            embed_schmidt_k(v, u, d, bad)

    def test_numpy_integer_k_accepted(self):
        d = BipartiteDims(2, 2)
        v = max_entangled_vector(d)
        u = product_vec(basis_vec(2, 0), basis_vec(2, 0))
        assert embed_schmidt_k(v, u, d, np.int64(2)).osr_bound == 2

    def test_entangled_u_rejected(self, dims, rng):
        if dims.d < 2:
            pytest.skip("needs an entangled vector")
        v = random_product_vector(rng, dims)
        with pytest.raises(PreconditionError):
            embed_schmidt_k(v, max_entangled_vector(dims), dims, 1)

    def test_rank_above_k_rejected(self, dims, rng):
        v = random_vector_with_sr(rng, dims, dims.d)
        u = random_product_vector(rng, dims)
        if dims.d < 2:
            pytest.skip("needs rank headroom")
        with pytest.raises(PreconditionError):
            embed_schmidt_k(v, u, dims, dims.d - 1)


class TestWitnessConjugation:
    def test_swap_singlet(self):
        d = BipartiteDims(2, 2)
        f = swap_operator(d)
        z = np.linalg.eigh(f)[1][:, 0]
        conj, p = witness_conjugation(f, z, basis_vec(2, 0), basis_vec(2, 0), d)
        assert abs(np.real(np.vdot(p, conj @ p)) + 1.0) <= 1e-10

    def test_gamma_bell(self):
        d = BipartiteDims(2, 2)
        b = max_entangled_vector(d)
        w = partial_transpose(np.outer(b, b.conj()), d)
        z = np.linalg.eigh(w)[1][:, 0]
        conj, p = witness_conjugation(w, z, basis_vec(2, 0), basis_vec(2, 0), d)
        assert abs(np.real(np.vdot(p, conj @ p)) + 0.5) <= 1e-10

    def test_expectation_identity(self, dims, rng):
        # The product expectation equals z* w z / |z|^2 exactly.
        from conftest import hermitian

        for _ in range(20):
            w = hermitian(rng, dims.total)
            evals, evecs = np.linalg.eigh(w)
            if evals[0] >= -1e-9:
                continue
            z = 2.3 * evecs[:, 0]
            u = random_unit_vector(rng, dims.m)
            v = random_unit_vector(rng, dims.n)
            conj, p = witness_conjugation(w, z, u, v, dims)
            expected = np.real(np.vdot(z, w @ z)) / np.linalg.norm(z) ** 2
            assert abs(np.real(np.vdot(p, conj @ p)) - expected) <= 1e-10

    def test_nonnegative_z_rejected(self, dims):
        with pytest.raises(PreconditionError):
            witness_conjugation(
                np.eye(dims.total),
                basis_vec(dims.total, 0),
                basis_vec(dims.m, 0),
                basis_vec(dims.n, 0),
                dims,
            )


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1.0, 1e160, 1e170])
    def test_z_normalized_at_any_scale(self, scale):
        # The norm of 1e-170 z underflows to 0 and that of 1e170 z
        # overflows; both are normalized, without a numpy warning, and give
        # the unit-z answer.
        d = BipartiteDims(2, 2)
        b = max_entangled_vector(d)
        w = partial_transpose(np.outer(b, b.conj()), d)
        z = np.linalg.eigh(w)[1][:, 0]
        u, v = basis_vec(2, 0), basis_vec(2, 1)
        want, p = witness_conjugation(w, z, u, v, d)
        got, q = witness_conjugation(w, scale * z, u, v, d)
        assert np.array_equal(p, q)
        assert np.linalg.norm(got - want) <= 1e-14
        assert abs(np.real(np.vdot(q, got @ q)) + 0.5) <= 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-318, 5e-324])
    def test_subnormal_z_answers_as_scaled_into_range(self, scale):
        # A subnormal z keeps few bits, so it is compared with itself
        # scaled by 2**54, exactly: the same answer, bit for bit.
        d = BipartiteDims(2, 2)
        b = max_entangled_vector(d)
        w = partial_transpose(np.outer(b, b.conj()), d)
        z = scale * np.linalg.eigh(w)[1][:, 0]
        u, v = basis_vec(2, 0), basis_vec(2, 1)
        got, _ = witness_conjugation(w, z, u, v, d)
        want, _ = witness_conjugation(w, z * 2.0**54, u, v, d)
        assert got.tobytes() == want.tobytes()

    def test_zero_z_refused(self):
        d = BipartiteDims(2, 2)
        w = swap_operator(d)
        with pytest.raises(PreconditionError, match="z must be nonzero"):
            witness_conjugation(w, np.zeros(4), basis_vec(2, 0), basis_vec(2, 0), d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_factor_refused(self, bad):
        d = BipartiteDims(2, 2)
        f = swap_operator(d)
        z = np.linalg.eigh(f)[1][:, 0]
        u = basis_vec(2, 0)
        u[1] = bad
        with pytest.raises(PreconditionError, match="NaN or infinite"):
            witness_conjugation(f, z, u, basis_vec(2, 0), d)

    def test_non_hermitian_witness_refused(self):
        d = BipartiteDims(2, 2)
        w = swap_operator(d).astype(np.complex128)
        z = np.linalg.eigh(w)[1][:, 0]
        w[0, 1] += 0.5
        with pytest.raises(HermiticityError, match=r"asymmetry 7\.071e-01"):
            witness_conjugation(w, z, basis_vec(2, 0), basis_vec(2, 0), d)

    def test_witness_conjugated_as_given(self, rng):
        # A partial-transposed outer product is Hermitian only up to
        # round-off; the conjugation uses w itself, not its Hermitian part.
        d = BipartiteDims(2, 2)
        rounded = 0
        for _ in range(40):
            x = random_vector_with_sr(rng, d, 2)
            w = partial_transpose(np.outer(x, x.conj()), d)
            rounded += not np.array_equal(w, w.conj().T)
            z = np.linalg.eigh(w)[1][:, 0]
            u, v = random_unit_vector(rng, 2), random_unit_vector(rng, 2)
            conj, _ = witness_conjugation(w, z, u, v, d)
            unitary = lift_product_to_target(u, v, z / np.linalg.norm(z), d)
            assert np.array_equal(conj, unitary.conj().T @ w @ unitary)
        assert rounded > 0


def _tol_calls():
    d2 = BipartiteDims(2, 2)
    bell = max_entangled_vector(d2)
    e00 = product_vec(basis_vec(2, 0), basis_vec(2, 0))
    swap = swap_operator(d2)
    singlet = np.linalg.eigh(swap)[1][:, 0]
    prefix = family_of(d2, [0.5 * np.eye(4)])
    return {
        "validate": lambda tol: validate(family_of(d2, [np.eye(4)]), tol),
        "apply": lambda tol: apply_family(family_of(d2, [np.eye(4)]), [np.eye(4)], tol),
        "complete_to_identity": lambda tol: complete_to_identity(prefix, tol=tol),
        "collapse_construction": lambda tol: collapse_construction(bell, d2, tol),
        "embed_schmidt_k": lambda tol: embed_schmidt_k(bell, e00, d2, 2, tol),
        "witness_conjugation": (
            lambda tol: witness_conjugation(swap, singlet, basis_vec(2, 0), basis_vec(2, 0), d2, tol)
        ),
    }


@pytest.mark.parametrize("tol", [0.0, 1.0, -1.0, 5.0])
@pytest.mark.parametrize("name", list(_tol_calls()))
def test_tolerance_outside_unit_interval_refused(name, tol):
    call = _tol_calls()[name]
    call(1e-9)  # the same call runs at the default tolerance
    with pytest.raises(PreconditionError, match=r"tol must lie in \(0, 1\)"):
        call(tol)


_NAN4 = np.full((4, 4), np.nan)


class TestConicScale:
    def test_single_term(self, dims, rng):
        x = random_psd(rng, dims.total)
        combo = ConicCombination(dims, np.array([1.0]), [x])
        assert np.allclose(conic_scale(combo), x)

    def test_spectral_recombination(self, dims, rng):
        y = random_psd(rng, dims.total)
        evals, evecs = np.linalg.eigh(y)
        terms = [np.outer(evecs[:, j], evecs[:, j].conj()) for j in range(dims.total)]
        combo = ConicCombination(dims, np.clip(evals, 0, None), terms)
        assert np.linalg.norm(conic_scale(combo) - y) <= 1e-10

    def test_zero_weights(self, dims, rng):
        combo = ConicCombination(
            dims, np.zeros(2), [random_psd(rng, dims.total) for _ in range(2)]
        )
        assert np.allclose(conic_scale(combo), 0.0)

    def test_negative_weight_rejected(self, dims):
        # NaN slips past a sign test, so non-finite weights are refused too.
        for bad in (-1.0, np.nan, np.inf):
            combo = ConicCombination(dims, np.array([1.0, bad]), [np.eye(dims.total)] * 2)
            with pytest.raises(PreconditionError):
                conic_scale(combo)

    @pytest.mark.parametrize(
        "bad",
        [np.array([1 + 1j]), [1 + 1j], np.array([1 + 0j]), [True], ["1"],
         np.array([1.0], dtype=object)],
        ids=["complex-array", "complex-list", "complex-zero-imag", "bool", "str", "object"],
    )
    def test_non_real_weight_refused(self, dims, bad):
        combo = ConicCombination(dims, bad, [np.eye(dims.total)])
        with pytest.raises(PreconditionError, match="real numbers"):
            conic_scale(combo)

    @pytest.mark.parametrize(
        "bad", [[1, True], [1.5, np.True_], (2, False), [np.array(True), 1]], ids=repr
    )
    def test_bool_among_numbers_refused(self, bad):
        d = BipartiteDims(1, 1)
        combo = ConicCombination(d, bad, [[[1.0]]] * len(bad))
        with pytest.raises(PreconditionError, match="got a bool"):
            conic_scale(combo)

    def test_non_numeric_term_refused(self):
        combo = ConicCombination(BipartiteDims(1, 1), [1.0, 2.0], [[[1.0]], "x"])
        with pytest.raises(PreconditionError, match="not a numeric array"):
            conic_scale(combo)

    @pytest.mark.parametrize("bad", [[[1], [2, 3]], [1.0, [2.0]]], ids=repr)
    def test_ragged_weights_refused(self, bad):
        combo = ConicCombination(BipartiteDims(1, 1), bad, [[[1.0]]] * 2)
        with pytest.raises(PreconditionError, match="real numbers"):
            conic_scale(combo)

    @pytest.mark.parametrize(
        "weights", [[2], np.array([2], dtype=np.uint8), np.array([2.0], dtype=np.float32)]
    )
    def test_integer_and_real_float_weights_accepted(self, dims, weights):
        combo = ConicCombination(dims, weights, [np.eye(dims.total)])
        assert np.array_equal(conic_scale(combo), 2.0 * np.eye(dims.total))

    def test_length_mismatch(self, dims):
        combo = ConicCombination(dims, np.array([1.0, 2.0]), [np.eye(dims.total)])
        with pytest.raises(DimError):
            conic_scale(combo)

    @pytest.mark.parametrize("terms", [5, None, np.array(1.0)], ids=repr)
    def test_terms_without_length_refused(self, dims, terms):
        combo = ConicCombination(dims, [1.0], terms)
        with pytest.raises(PreconditionError, match="conic terms must be a sequence or stack"):
            conic_scale(combo)

    def test_weight_shape_refused_before_terms(self, dims):
        # Two-dimensional weights are the DimError they always were, whatever
        # the terms are.
        with pytest.raises(DimError, match="one weight per term"):
            conic_scale(ConicCombination(dims, [[1.0]], 5))

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_stack_matches_list_bytewise(self, dims, rng, count):
        # The (K, D, D) stack and the list of its K matrices give one sum,
        # signed zeros included: -0.0 entries in the terms, and no term.
        terms = [np.outer(q, q.conj()) for q in (random_unit_vector(rng, dims.total)
                                                 for _ in range(count))]
        if count:
            terms[0][0] = -0.0
        stack = np.array(terms, dtype=np.complex128).reshape(count, dims.total, dims.total)
        weights = rng.uniform(0.0, 2.0, count)
        from_list = conic_scale(ConicCombination(dims, weights, terms))
        from_stack = conic_scale(ConicCombination(dims, weights, stack))
        assert from_stack.tobytes() == from_list.tobytes()

    @pytest.mark.parametrize(
        "terms,error,match",
        [
            ([_NAN4, np.eye(3)], PreconditionError, "NaN or infinite"),
            ([np.eye(3), _NAN4], DimError, "expected 4x4 matrix"),
            ([np.eye(4), "x"], PreconditionError, "not a numeric array"),
            ([np.eye(4), [[1.0, 2.0]]], DimError, r"got shape \(1, 2\)"),
            (np.zeros((2, 3, 3)), DimError, r"got shape \(3, 3\)"),
            (np.stack([np.eye(4), np.full((4, 4), np.inf)]), PreconditionError, "NaN or infinite"),
        ],
        ids=["nan-then-shape", "shape-then-nan", "string", "ragged", "stack-side", "stack-inf"],
    )
    def test_first_bad_term_refused(self, terms, error, match):
        # Terms are checked one at a time, in order, so the first bad term
        # decides the refusal, in a list or a (K, D, D) stack.
        with pytest.raises(error, match=match):
            conic_scale(ConicCombination(BipartiteDims(2, 2), [1.0, 1.0], terms))

    @pytest.mark.parametrize(
        "weights,scales",
        [([1e308, 1e308], [1.0, 1.0]), ([1e308], [10.0]), ([1e308, 1e308], [10.0, -10.0])],
        ids=["sum", "product", "inf-minus-inf"],
    )
    def test_overflowing_sum_refused(self, weights, scales):
        # Finite weights and terms whose sum leaves the float range: refused,
        # without numpy's overflow or invalid-value warning.
        terms = [scale * np.eye(4) for scale in scales]
        with pytest.raises(PreconditionError, match="conic combination overflows a float"):
            conic_scale(ConicCombination(BipartiteDims(2, 2), weights, terms))
