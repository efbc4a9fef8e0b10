import hashlib

import numpy as np
import pytest

from conekit import (
    BipartiteDims,
    DimError,
    Locality,
    SUITE_IDS,
    PreconditionError,
    Verdict,
    is_ppt,
    max_entangled_vector,
    probe_intermediate,
    rerun_trial,
    run_suite,
    suite_cone_collapse_pplus,
    suite_lemma_srank,
    suite_local_stability,
    suite_ppt_collapse,
    suite_ppt_stability,
    suite_strict_enlargement,
    suite_witness_not_cstar,
    validate,
)
from conekit import ConicCombination, conic_scale, kron, kraus, lift_product_to_target, suites
from conekit.matio import canonical_dumps
from conekit.sampling import ginibre, random_ppt, random_psd, random_unit_vector
from conekit.suites import structured_exact_family

SEED = 20240817


class TestSuitesPass:
    def test_srank(self, dims):
        report = suite_lemma_srank(dims, 100, SEED)
        assert report.passes == report.trials == 100
        assert not report.failures

    def test_strict_enlargement(self, dims):
        report = suite_strict_enlargement(dims, SEED)
        assert report.passes == report.trials

    def test_cone_collapse(self, dims):
        report = suite_cone_collapse_pplus(dims, 40, SEED)
        assert report.passes == report.trials
        assert report.max_residual <= 1e-9

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
    def test_local_stability(self, m, n):
        report = suite_local_stability(BipartiteDims(m, n), 60, SEED)
        assert report.passes == report.trials

    def test_local_stability_rejects_undecidable_dims(self):
        with pytest.raises(PreconditionError):
            suite_local_stability(BipartiteDims(3, 3), 10, SEED)

    def test_witness_not_cstar(self, dims):
        report = suite_witness_not_cstar(dims, SEED)
        assert report.passes == report.trials
        # The PSD control case has no negative eigenvector and is recorded
        # as not applicable rather than silently passing.
        assert report.extra == {"not_applicable_trials": [2]}

    def test_witness_not_cstar_coarse_tol(self):
        # At tol 0.5 the 3x3 Gamma(Bell) and rank-r witnesses have
        # lambda_min >= -tol: those cases are not applicable, not errors.
        report = run_suite("witness-not-cstar", BipartiteDims(3, 3), SEED, tol=0.5)
        assert report.passes == report.trials == 6
        assert not report.failures
        assert report.extra == {"not_applicable_trials": [1, 2, 3, 4, 5]}

    def test_ppt_stability(self, dims):
        report = suite_ppt_stability(dims, 60, SEED)
        assert report.passes == report.trials

    def test_ppt_stability_with_extra_inputs(self, rng):
        d = BipartiteDims(3, 3)
        extras = [random_ppt(rng, d) for _ in range(2)]
        report = suite_ppt_stability(d, 30, SEED, extra_inputs=extras)
        assert report.passes == report.trials

    def test_ppt_stability_rejects_non_ppt_extras(self):
        d = BipartiteDims(2, 2)
        b = max_entangled_vector(d)
        with pytest.raises(PreconditionError):
            suite_ppt_stability(d, 5, SEED, extra_inputs=[np.outer(b, b.conj())])

    def test_ppt_collapse(self, dims):
        report = suite_ppt_collapse(dims, 40, SEED)
        assert report.passes == report.trials
        assert report.max_residual <= 1e-10

    @pytest.mark.parametrize("tol", [1e-3, 0.5])
    def test_ppt_collapse_at_a_coarse_tol(self, tol):
        # The family is certified and validated at the default tol, so its
        # bound is compared with SR(v) at that tol, not at the suite's.
        report = suite_ppt_collapse(BipartiteDims(3, 3), 20, SEED, tol=tol)
        assert report.passes == report.trials


class TestProbe:
    def test_k1_consistent_with_stability(self, dims):
        report = probe_intermediate(dims, 1, 60, SEED)
        assert report.extra["non_ppt_outputs"] == 0
        assert report.extra["verdict"] == "exploratory"

    def test_k_d_consistent_with_collapse(self, dims):
        report = probe_intermediate(dims, dims.d, 60, SEED)
        assert report.extra["non_ppt_outputs"] > 0
        assert report.extra["most_negative_gamma_eigenvalue"] < 0

    def test_intermediate_k_records_tallies(self):
        d = BipartiteDims(3, 3)
        report = probe_intermediate(d, 2, 40, SEED)
        assert report.extra["ppt_outputs"] + report.extra["non_ppt_outputs"] == 40
        assert report.passes == report.trials  # exploratory: tallies never fail

    def test_structured_family_certifies_bound(self, dims):
        gen = np.random.default_rng(3)
        for k in range(1, dims.d + 1):
            fam = structured_exact_family(gen, dims, k)
            assert fam.osr_bound == k
            assert fam.locality is (Locality.LOCAL if k == 1 else Locality.GLOBAL)
            assert validate(fam).verdict is Verdict.IN


class TestDeterminism:
    @pytest.mark.parametrize(
        "runner",
        [
            lambda d: suite_lemma_srank(d, 40, SEED),
            lambda d: suite_strict_enlargement(d, SEED),
            lambda d: suite_cone_collapse_pplus(d, 20, SEED),
            lambda d: suite_witness_not_cstar(d, SEED),
            lambda d: suite_ppt_stability(d, 20, SEED),
            lambda d: suite_ppt_collapse(d, 20, SEED),
            lambda d: probe_intermediate(d, d.d, 20, SEED),
        ],
        ids=[
            "srank",
            "strict-enlargement",
            "cone-collapse",
            "witness-not-cstar",
            "ppt-stability",
            "ppt-collapse",
            "probe",
        ],
    )
    def test_reports_reproduce_bytewise(self, runner):
        d = BipartiteDims(2, 3)
        first = canonical_dumps(runner(d).to_obj(include_wall_time=False))
        second = canonical_dumps(runner(d).to_obj(include_wall_time=False))
        assert first == second

    def test_wall_time_excluded_not_equal_requirement(self):
        d = BipartiteDims(2, 2)
        report = suite_lemma_srank(d, 10, SEED)
        obj = report.to_obj(include_wall_time=True)
        assert "wall_time" in obj
        assert "wall_time" not in report.to_obj(include_wall_time=False)


def _cone_collapse_looped(rng, t, dims, term=None):
    # The cone-collapse trial with one public lift per kept eigenvector.  By
    # default each term is qq* with q = U (u (x) v); `term(unitary, u, v)`
    # builds it another way.
    total = dims.total
    if t == 0:
        y = np.eye(total, dtype=np.complex128)
    elif t == 1:
        y = np.zeros((total, total), dtype=np.complex128)
    elif t % 5 == 2 and total > 1:
        rank = int(rng.integers(1, total))
        g = ginibre(rng, total, rank)
        y = (g @ g.conj().T) * rng.uniform(0.5, 2.0)
    else:
        y = random_psd(rng, total) * rng.uniform(0.5, 2.0)
    u = random_unit_vector(rng, dims.m)
    v = random_unit_vector(rng, dims.n)
    evals, evecs = np.linalg.eigh((y + y.conj().T) / 2.0)
    weights, terms = [], []
    for j in range(total):
        if evals[j] <= 1e-12:
            continue
        unitary = lift_product_to_target(u, v, evecs[:, j], dims)
        weights.append(float(evals[j]))
        if term is None:
            q = unitary @ np.kron(u, v)
            terms.append(np.outer(q, q.conj()))
        else:
            terms.append(term(unitary, u, v))
    rebuilt = conic_scale(ConicCombination(dims, np.asarray(weights), terms))
    residual = float(np.linalg.norm(rebuilt - y))
    ok = residual <= suites.RESIDUAL_BOUND
    return ok, residual, None if ok else {"terms": len(terms)}


def _conjugated_projector(unitary, u, v):
    # The term as U x0 U*, with x0 = kron(uu*, vv*): two dense products.
    x0 = kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
    return unitary @ x0 @ unitary.conj().T


_CONE_COLLAPSE_CASES = pytest.mark.parametrize(
    "m,n,seeds",
    [(1, 1, (0, 7, SEED)), (1, 3, (0, 7, SEED)), (2, 2, (0, 7, SEED)),
     (2, 3, (0, 7, SEED)), (3, 3, (0, 7, SEED)), (4, 4, (0, 7)),
     (4, 5, (0, 7)), (8, 8, (0,)), (5, 7, (0, 7))],
)


class TestConeCollapseBits:
    # Trial 0 is the identity (its eigenvectors are basis vectors, some
    # with a zero first entry), trial 1 the empty combination, and trials
    # 2 and 7 the rank-deficient class.
    @_CONE_COLLAPSE_CASES
    def test_trial_matches_one_public_lift_per_term(self, m, n, seeds):
        # The trial reflects c = B_{u(x)v}* p onto each target in place of
        # forming U = B_w B_{u(x)v}*: the verdict is the same and the
        # residual moves in its last bits only.
        dims = BipartiteDims(m, n)
        for seed in seeds:
            for t in range(10):
                got = suites._trial_cone_collapse(suites._trial_rng(seed, t), t, dims, 1e-9)
                want = _cone_collapse_looped(suites._trial_rng(seed, t), t, dims)
                assert got[0] == want[0], (seed, t)
                assert abs(got[1] - want[1]) <= 1e-12, (seed, t)
                assert got[0]

    @_CONE_COLLAPSE_CASES
    def test_rank_one_terms_match_conjugated_projectors(self, m, n, seeds):
        # qq* and U x0 U* are one matrix summed in another order: the
        # verdict is the same and the residual moves in its last bits only.
        dims = BipartiteDims(m, n)
        for seed in seeds:
            for t in range(10):
                got = suites._trial_cone_collapse(suites._trial_rng(seed, t), t, dims, 1e-9)
                old = _cone_collapse_looped(
                    suites._trial_rng(seed, t), t, dims, _conjugated_projector
                )
                assert got[0] == old[0], (seed, t)
                assert abs(got[1] - old[1]) <= 1e-12, (seed, t)


class TestRerun:
    def test_trials_rerun_identically(self, dims):
        for suite_id, kwargs in [
            ("srank", {}),
            ("cone-collapse", {}),
            ("ppt-stability", {}),
            ("ppt-collapse", {}),
        ]:
            for t in range(5):
                ok1, res1, _ = rerun_trial(suite_id, dims, SEED, t, **kwargs)
                ok2, res2, _ = rerun_trial(suite_id, dims, SEED, t, **kwargs)
                assert ok1 == ok2
                assert res1 == res2

    def test_failure_payloads_rerun_to_same_residual(self):
        # A deliberately coarse rank tolerance undercounts ranks by
        # macroscopic singular-value ratios, manufacturing deterministic
        # counterexamples-at-that-tolerance.
        d = BipartiteDims(3, 3)
        report = suite_lemma_srank(d, 80, 1, tol=0.7)
        assert report.failures, "expected rank undercounts at tol=0.7"
        for payload in report.failures:
            seed, trial = payload["seed"]
            _, residual, _ = rerun_trial("srank", d, seed, trial, tol=0.7)
            assert abs(residual - payload["residual"]) <= 1e-12

    def test_probe_rerun_needs_k(self):
        d = BipartiteDims(2, 2)
        with pytest.raises(PreconditionError):
            rerun_trial("probe-intermediate", d, SEED, 0)

    def test_unknown_suite(self, dims):
        with pytest.raises(PreconditionError):
            rerun_trial("nope", dims, SEED, 0)

    @pytest.mark.parametrize("suite_id,k", [(s, None) for s in SUITE_IDS[:-1]]
                             + [("probe-intermediate", 1), ("probe-intermediate", 2)])
    def test_rerun_reproduces_report(self, suite_id, k):
        # Re-running every trial of a report finds exactly its failures, with
        # the same residuals, and for the probe exactly its evidence.
        d = BipartiteDims(2, 2)
        report = run_suite(suite_id, d, SEED, trials=12, k=k)
        reruns = [rerun_trial(suite_id, d, SEED, t, k=k) for t in range(report.trials)]
        failed = {t: res for t, (ok, res, _) in enumerate(reruns) if not ok}
        assert failed == {p["trial"]: p["residual"] for p in report.failures}
        if suite_id == "probe-intermediate":
            escaped = {t: info["gamma_min_eig"] for t, (_, _, info) in enumerate(reruns)
                       if not info["ppt"]}
            evidence = report.extra["evidence"]
            assert escaped == {e["trial"]: e["gamma_min_eig"] for e in evidence}
            assert (k == 2) == bool(evidence)


class TestDispatcher:
    def test_run_suite_routes_all_ids(self):
        d = BipartiteDims(2, 2)
        for suite_id in (
            "srank",
            "strict-enlargement",
            "cone-collapse",
            "local-stability",
            "witness-not-cstar",
            "ppt-stability",
            "ppt-collapse",
        ):
            report = run_suite(suite_id, d, seed=SEED, trials=6)
            assert report.suite_id == suite_id
            assert not report.failures
        report = run_suite("probe-intermediate", d, seed=SEED, trials=6, k=1)
        assert report.extra["non_ppt_outputs"] == 0

    def test_probe_requires_k(self):
        with pytest.raises(PreconditionError):
            run_suite("probe-intermediate", BipartiteDims(2, 2), seed=SEED, trials=5)

    def test_unknown_suite(self):
        with pytest.raises(PreconditionError):
            run_suite("made-up", BipartiteDims(2, 2), seed=SEED)

    def test_report_passes_plus_failures_is_trials(self, dims):
        report = suite_ppt_stability(dims, 15, SEED, tol=1e-16)
        assert report.passes + len(report.failures) == report.trials


def _bell_projector(d):
    b = max_entangled_vector(d)
    return np.outer(b, b.conj())


# Refusals a suite and its trial re-runs share: (suite id, dims, seed, kwargs).
SHARED_REFUSALS = {
    "local-stability-3x3": ("local-stability", (3, 3), SEED, {}),
    "probe-k-above-d": ("probe-intermediate", (2, 2), SEED, {"k": 5}),
    "probe-k-zero": ("probe-intermediate", (2, 2), SEED, {"k": 0}),
    "ppt-stability-non-ppt-extra": (
        "ppt-stability", (2, 2), SEED, {"extra_inputs": [_bell_projector(BipartiteDims(2, 2))]}
    ),
    "negative-seed": ("srank", (2, 2), -1, {}),
}


# Each entry runs one suite entry point with x in one integer argument.
INTEGER_ENTRY_POINTS = {
    "run_suite trials": lambda d, x: run_suite("srank", d, SEED, trials=x),
    "run_suite seed": lambda d, x: run_suite("srank", d, x, trials=2),
    "run_suite k": lambda d, x: run_suite("probe-intermediate", d, SEED, trials=2, k=x),
    "rerun_trial seed": lambda d, x: rerun_trial("srank", d, x, 0),
    "rerun_trial trial": lambda d, x: rerun_trial("srank", d, SEED, x),
    "rerun_trial k": lambda d, x: rerun_trial("probe-intermediate", d, SEED, 0, k=x),
}


class TestRefusals:
    # A suite refuses an option it does not take, instead of ignoring it.
    @pytest.mark.parametrize("suite_id", [s for s in SUITE_IDS if s != "probe-intermediate"])
    def test_k_refused_where_not_taken(self, suite_id):
        d = BipartiteDims(2, 2)
        with pytest.raises(PreconditionError, match=f"^{suite_id} takes no k$"):
            run_suite(suite_id, d, SEED, trials=1, k=1)
        with pytest.raises(PreconditionError, match=f"^{suite_id} takes no k$"):
            rerun_trial(suite_id, d, SEED, 0, k=1)

    @pytest.mark.parametrize("extras", [[], [np.eye(4) / 4.0]], ids=["empty", "one"])
    @pytest.mark.parametrize("suite_id", [s for s in SUITE_IDS if s != "ppt-stability"])
    def test_extras_refused_where_not_taken(self, suite_id, extras):
        d = BipartiteDims(2, 2)
        k = 1 if suite_id == "probe-intermediate" else None
        with pytest.raises(PreconditionError, match=f"^{suite_id} takes no extra inputs$"):
            run_suite(suite_id, d, SEED, trials=1, k=k, extra_inputs=extras)
        with pytest.raises(PreconditionError, match=f"^{suite_id} takes no extra inputs$"):
            rerun_trial(suite_id, d, SEED, 0, k=k, extra_inputs=extras)

    @pytest.mark.parametrize("case", list(SHARED_REFUSALS))
    def test_suite_and_rerun_refuse_alike(self, case):
        suite_id, (m, n), seed, kwargs = SHARED_REFUSALS[case]
        d = BipartiteDims(m, n)
        with pytest.raises(PreconditionError):
            run_suite(suite_id, d, seed, trials=3, **kwargs)
        with pytest.raises(PreconditionError):
            rerun_trial(suite_id, d, seed, 0, **kwargs)

    @pytest.mark.parametrize("suite_id,trial", [
        ("srank", -1),
        ("strict-enlargement", 6),
        ("witness-not-cstar", 6),
        ("witness-not-cstar", -2),
    ])
    def test_rerun_refuses_trials_no_report_contains(self, suite_id, trial):
        with pytest.raises(PreconditionError):
            rerun_trial(suite_id, BipartiteDims(2, 2), SEED, trial)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_counts_below_one_refused(self, trials):
        d = BipartiteDims(2, 2)
        with pytest.raises(PreconditionError):
            run_suite("srank", d, SEED, trials=trials)
        with pytest.raises(PreconditionError):
            suite_lemma_srank(d, trials, SEED)

    @pytest.mark.parametrize("bad", [1.5, True, "2"], ids=repr)
    @pytest.mark.parametrize("call", list(INTEGER_ENTRY_POINTS))
    def test_non_integer_counts_refused(self, call, bad):
        with pytest.raises(PreconditionError, match="must be an integer"):
            INTEGER_ENTRY_POINTS[call](BipartiteDims(2, 2), bad)

    @pytest.mark.parametrize("call", list(INTEGER_ENTRY_POINTS))
    def test_numpy_integer_counts_accepted(self, call):
        d = BipartiteDims(2, 2)
        got = INTEGER_ENTRY_POINTS[call](d, np.int64(2))
        want = INTEGER_ENTRY_POINTS[call](d, 2)
        if call.startswith("run_suite"):
            got = canonical_dumps(got.to_obj(include_wall_time=False))
            want = canonical_dumps(want.to_obj(include_wall_time=False))
        assert got == want

    def test_fixed_suites_run_all_cases(self):
        d = BipartiteDims(2, 2)
        for suite_id in ("strict-enlargement", "witness-not-cstar"):
            assert run_suite(suite_id, d, SEED).trials == 6
            assert run_suite(suite_id, d, SEED, trials=2).trials == 6


    @pytest.mark.parametrize("tol", [0.0, 1.0, -1.0, 5.0])
    @pytest.mark.parametrize("suite_id", ["cone-collapse", "srank"])
    def test_tolerance_outside_unit_interval_refused(self, suite_id, tol):
        d = BipartiteDims(2, 2)
        with pytest.raises(PreconditionError, match=r"tol must lie in \(0, 1\)"):
            run_suite(suite_id, d, SEED, trials=3, tol=tol)
        with pytest.raises(PreconditionError, match=r"tol must lie in \(0, 1\)"):
            rerun_trial(suite_id, d, SEED, 0, tol=tol)


class TestValidateOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        validate = kraus._validate

        def counting(family, tol):
            calls.append(len(family.ops))
            return validate(family, tol)

        monkeypatch.setattr(kraus, "_validate", counting)
        return calls

    def test_strict_enlargement_validates_each_case_once(self, calls):
        report = run_suite("strict-enlargement", BipartiteDims(3, 3), SEED)
        assert report.passes == 6
        assert len(calls) == 6

    def test_ppt_collapse_validates_each_trial_once(self, calls):
        report = run_suite("ppt-collapse", BipartiteDims(3, 3), SEED, trials=4)
        assert report.passes == 4
        assert len(calls) == 4


class TestEnvelope:
    # Every suite either runs across the whole m*n <= 64 envelope or refuses
    # up front, and refuses every dims outside it.  At 4x5 and 8x8 a PPT
    # sampler whose environment sits below the ~4mn threshold exhausts its
    # rejection cap.  At min(m, n) = 1 every vector is a product, so there is
    # no entangled target and no witness.
    REFUSED = {
        (4, 5): {"local-stability"},
        (8, 8): {"local-stability"},
        (1, 1): {"strict-enlargement", "witness-not-cstar"},
        (1, 3): {"strict-enlargement", "witness-not-cstar"},
        (3, 1): {"strict-enlargement", "witness-not-cstar"},
        (1, 8): {"local-stability", "strict-enlargement", "witness-not-cstar"},
        (9, 8): set(SUITE_IDS),
        (1, 65): set(SUITE_IDS),
    }

    @pytest.mark.parametrize("m,n", list(REFUSED))
    @pytest.mark.parametrize("suite_id", SUITE_IDS)
    def test_runs_or_refuses(self, suite_id, m, n):
        dims = BipartiteDims(m, n)
        k = min(2, dims.d) if suite_id == "probe-intermediate" else None
        if suite_id in self.REFUSED[m, n]:
            with pytest.raises(PreconditionError):
                run_suite(suite_id, dims, SEED, trials=3, k=k)
            with pytest.raises(PreconditionError):
                rerun_trial(suite_id, dims, SEED, 0, k=k)
            return
        # Trial 2 is cone-collapse's rank-deficient class, empty at 1x1.
        report = run_suite(suite_id, dims, SEED, trials=3, k=k)
        assert report.passes == report.trials
        if suite_id in ("ppt-stability", "probe-intermediate"):
            assert report.tolerances["ppt_environment"] == "5mn"
        else:
            assert "ppt_environment" not in report.tolerances


class TestExtraInputsFlow:
    def test_extras_substituted_into_trials(self, rng):
        d = BipartiteDims(2, 2)
        extras = [np.eye(4) / 4.0]
        assert is_ppt(extras[0], d).verdict is Verdict.IN
        report = suite_ppt_stability(d, 10, SEED, extra_inputs=extras)
        assert report.passes == report.trials

    def test_stack_runs_like_its_list(self, rng, monkeypatch):
        # Extra inputs are coerced once, element by element, so a (k, D, D)
        # stack runs as the list of its matrices.
        d = BipartiteDims(2, 2)
        stack = np.stack([random_ppt(rng, d) for _ in range(3)])
        seen = []
        apply = suites.apply

        def recording_apply(family, inputs):
            seen.append([x.tobytes() for x in inputs])
            return apply(family, inputs)

        monkeypatch.setattr(suites, "apply", recording_apply)
        runs = {}
        for form, extras in (("list", list(stack)), ("stack", stack)):
            seen.clear()
            report = suite_ppt_stability(d, 6, SEED, extra_inputs=extras)
            reruns = [rerun_trial("ppt-stability", d, SEED, t, extra_inputs=extras) for t in range(6)]
            digests = [
                hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()
                for obj in (report.to_obj(include_wall_time=False), reruns)
            ]
            runs[form] = (digests, list(seen))
        assert runs["stack"] == runs["list"]
        # Every trial, run or re-run, took the extras into its first slots.
        assert len(runs["stack"][1]) == 12
        for inputs in runs["stack"][1]:
            used = min(len(stack), len(inputs))
            assert inputs[:used] == [x.tobytes() for x in stack[:used]]

    def test_one_matrix_refused(self):
        # One (D, D) matrix is a sequence of D rows, none of them a matrix.
        d = BipartiteDims(2, 2)
        x = np.eye(4) / 4.0
        with pytest.raises(DimError):
            suite_ppt_stability(d, 2, SEED, extra_inputs=x)
        with pytest.raises(DimError):
            rerun_trial("ppt-stability", d, SEED, 0, extra_inputs=x)
