"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single pass line on success; a failed assertion is the
fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np
import pytest

from conekit import (
    BipartiteDims,
    KrausFamily,
    Mode,
    Verdict,
    apply_family,
    basis_vec,
    kron,
    lift_product_to_target,
    max_entangled_vector,
    osr,
    partial_transpose,
    probe_intermediate,
    product_vec,
    sr,
    suite_cone_collapse_pplus,
    suite_lemma_srank,
    suite_local_stability,
    suite_ppt_collapse,
    suite_ppt_stability,
    suite_strict_enlargement,
    suite_witness_not_cstar,
    swap_operator,
    validate,
    witness_conjugation,
)
from conekit.kraus import embed_schmidt_k
from conekit.matio import canonical_dumps
from conekit.sampling import random_product_vector, random_vector_with_sr

SEED = 424242
DESK = [BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3)]


def test_criterion_1_srank_inequality():
    for dims in DESK:
        report = suite_lemma_srank(dims, 1000, SEED, tol=1e-9)
        assert report.passes == 1000, f"violations at {dims}: {report.failures[:3]}"
    print("\n[PASS] criterion 1: SR(Av) <= OSR(A)*SR(v), 1000 trials per dims, zero violations")


def test_criterion_2_strict_enlargement_bell():
    d = BipartiteDims(2, 2)
    u, v = basis_vec(2, 0), basis_vec(2, 0)
    bell = max_entangled_vector(d)
    unitary = lift_product_to_target(u, v, bell, d)
    family = KrausFamily(d, [unitary.conj().T], Mode.EXACT)
    report = validate(family)
    assert report.verdict is Verdict.IN
    assert report.certificate["normalization_residual"] <= 1e-12
    x0 = kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
    image = apply_family(family, [x0])
    assert np.linalg.norm(image - np.outer(bell, bell.conj())) <= 1e-12
    gamma_min = np.linalg.eigvalsh(partial_transpose(image, d))[0]
    assert abs(gamma_min + 0.5) <= 1e-9
    print("[PASS] criterion 2: Bell-target image has Gamma min eig -0.5, family exact at 1e-12")


def test_criterion_3_conic_reconstruction():
    for dims in DESK:
        report = suite_cone_collapse_pplus(dims, 200, SEED, tol=1e-9)
        assert report.passes == 200, f"failures at {dims}"
        assert report.max_residual <= 1e-9
    print("[PASS] criterion 3: 200 PSD matrices per dims rebuilt from lifted product projectors at 1e-9")


def test_criterion_4_local_stability():
    for dims in [BipartiteDims(2, 2), BipartiteDims(2, 3)]:
        report = suite_local_stability(dims, 500, SEED, tol=1e-9)
        assert report.passes == 500, f"failures at {dims}"
    print("[PASS] criterion 4: 500 local exact combinations per dims stay separable, zero failures")


def test_criterion_5_witness_conjugation_values():
    d = BipartiteDims(2, 2)
    f = swap_operator(d)
    singlet = np.linalg.eigh(f)[1][:, 0]
    conj, p = witness_conjugation(f, singlet, basis_vec(2, 0), basis_vec(2, 0), d)
    assert abs(np.real(np.vdot(p, conj @ p)) + 1.0) <= 1e-10
    bell = max_entangled_vector(d)
    gamma_bell = partial_transpose(np.outer(bell, bell.conj()), d)
    z = np.linalg.eigh(gamma_bell)[1][:, 0]
    conj, p = witness_conjugation(gamma_bell, z, basis_vec(2, 0), basis_vec(2, 0), d)
    assert abs(np.real(np.vdot(p, conj @ p)) + 0.5) <= 1e-10
    print("[PASS] criterion 5: witness conjugation hits -1 on swap and -0.5 on Gamma(Bell) at 1e-10")


def test_criterion_6_schmidt_embedding():
    for dims in DESK:
        rng = np.random.default_rng([SEED, dims.m, dims.n])
        for trial in range(200):
            k = trial % dims.d + 1
            v = random_vector_with_sr(rng, dims, k)
            u = random_product_vector(rng, dims)
            family = embed_schmidt_k(v, u, dims, k)
            assert family.mode is Mode.CONTRACTIVE
            assert len(family.ops) == 1
            assert osr(family.ops[0], dims) == sr(v, dims)
            out = apply_family(family, [np.eye(dims.total)])
            assert np.linalg.norm(out - np.outer(v, v.conj())) <= 1e-10
    print("[PASS] criterion 6: 200 embeddings per dims, OSR(A) = SR(v) and A*IA = vv* at 1e-10")


def test_criterion_7_ppt_stability():
    for dims in DESK:
        report = suite_ppt_stability(dims, 500, SEED, tol=1e-9)
        assert report.passes == 500, f"failures at {dims}: {report.failures[:3]}"
    print("[PASS] criterion 7: 500 OSR-1 exact combinations per dims keep PPT inputs PPT, zero failures")


def test_criterion_8_collapse_construction():
    for dims in DESK:
        report = suite_ppt_collapse(dims, 200, SEED, tol=1e-9)
        assert report.passes == 200, f"failures at {dims}: {report.failures[:3]}"
        assert report.max_residual <= 1e-10
    print("[PASS] criterion 8: 200 collapse targets per dims at 1e-10 residuals, OSR <= SR(target), PPT inputs")


def test_criterion_9_determinism():
    d = BipartiteDims(2, 3)
    runs = [
        lambda: suite_lemma_srank(d, 100, SEED),
        lambda: suite_strict_enlargement(d, SEED),
        lambda: suite_cone_collapse_pplus(d, 50, SEED),
        lambda: suite_local_stability(d, 50, SEED),
        lambda: suite_witness_not_cstar(d, SEED),
        lambda: suite_ppt_stability(d, 50, SEED),
        lambda: suite_ppt_collapse(d, 50, SEED),
        lambda: probe_intermediate(d, 2, 50, SEED),
    ]
    for run in runs:
        first = canonical_dumps(run().to_obj(include_wall_time=False))
        second = canonical_dumps(run().to_obj(include_wall_time=False))
        assert first == second
    print("[PASS] criterion 9: every suite reproduces byte-identically modulo wall_time")


def _oracle_reshape(v, m, n):
    c = np.zeros((m, n), dtype=complex)
    for i in range(m):
        for j in range(n):
            c[i, j] = v[i * n + j]
    return c


def _oracle_realign(a, m, n):
    b = np.zeros((m * m, n * n), dtype=complex)
    for i in range(m):
        for k in range(m):
            for j in range(n):
                for l in range(n):
                    b[i * m + k, j * n + l] = a[i * n + j, k * n + l]
    return b


def _oracle_min_terms(mat, tol):
    # Smallest r in 1..4 whose best rank-r approximation (truncated SVD,
    # optimal by Eckart-Young) reproduces the matrix to relative error tol.
    u, s, vh = np.linalg.svd(mat)
    scale = np.linalg.norm(mat)
    for r in range(1, 5):
        approx = (u[:, :r] * s[:r]) @ vh[:r]
        if np.linalg.norm(mat - approx) < tol * scale:
            return r
    return None


def test_criterion_10_brute_force_oracle_equivalence():
    d = BipartiteDims(2, 2)
    rng = np.random.default_rng(SEED)
    from conekit.sampling import ginibre, random_operator_with_osr

    checked = 0
    for trial in range(100):
        if trial % 2 == 0:
            # vectors: planted rank or generic
            r = trial // 2 % 2 + 1
            v = random_vector_with_sr(rng, d, r) if trial % 4 == 0 else ginibre(rng, 4, 1)[:, 0]
            expected = _oracle_min_terms(_oracle_reshape(v, 2, 2), 1e-9)
            assert sr(v, d, 1e-9) == expected
        else:
            k = trial // 2 % 2 + 1
            a = (
                random_operator_with_osr(rng, d, k)
                if trial % 4 == 1
                else ginibre(rng, 4, 4)
            )
            expected = _oracle_min_terms(_oracle_realign(a, 2, 2), 1e-9)
            assert osr(a, d, 1e-9) == expected
        checked += 1
    assert checked == 100
    print("[PASS] criterion 10: sr/osr match the brute-force minimal-terms oracle on 100 instances")
