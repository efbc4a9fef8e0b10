"""The public contract: the names `conekit` binds and the CLI's exit codes."""

import types

import numpy as np
import pytest

import conekit
from conekit import BipartiteDims, matio, swap_operator
from conekit.cli import main

PUBLIC_NAMES = [
    "AnchorError",
    "BipartiteDims",
    "ConekitError",
    "ConicCombination",
    "DEFAULT_TOL",
    "DegenerateSampleError",
    "DimError",
    "HermiticityError",
    "KrausFamily",
    "Locality",
    "MatrixFileError",
    "MembershipReport",
    "Mode",
    "NormError",
    "OpSchmidtDecomp",
    "PreconditionError",
    "SUITE_IDS",
    "SchmidtDecomp",
    "SeesawConfig",
    "SuiteReport",
    "Verdict",
    "ZeroInputError",
    "apply_family",
    "basis_vec",
    "collapse_construction",
    "complete_to_identity",
    "conic_scale",
    "embed_schmidt_k",
    "is_block_positive_heuristic",
    "is_ppt",
    "is_psd",
    "is_separable_decidable",
    "kron",
    "lift_product_to_target",
    "max_entangled_vector",
    "min_product_expectation",
    "min_sr_k_expectation",
    "op_schmidt_decompose",
    "osr",
    "partial_transpose",
    "probe_intermediate",
    "product_vec",
    "random_family",
    "realign",
    "rerun_trial",
    "run_suite",
    "schmidt_decompose",
    "sr",
    "suite_cone_collapse_pplus",
    "suite_lemma_srank",
    "suite_local_stability",
    "suite_ppt_collapse",
    "suite_ppt_stability",
    "suite_strict_enlargement",
    "suite_witness_not_cstar",
    "swap_operator",
    "validate",
    "witness_conjugation",
]


def test_public_names():
    bound = sorted(
        name
        for name, value in vars(conekit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(PUBLIC_NAMES) == 58
    assert bound == PUBLIC_NAMES


D = BipartiteDims(2, 2)
MATRICES = {
    "identity": np.eye(4, dtype=complex),
    "violator": np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex),
    # Block-positive but not PSD: the see-saw finds no violator.
    "swap": swap_operator(D),
}


@pytest.mark.parametrize(
    "argv,code",
    [
        (["check", "psd", "identity"], 0),
        (["check", "psd", "violator"], 1),
        (["check", "blockpos", "swap", "--seed", "0"], 2),
        (["check", "psd", "missing"], 11),
        (["verify", "srank", "--m", "0", "--n", "2", "--out", "report"], 12),
        (["check", "psd", "identity", "--tol", "0"], 13),
    ],
    ids=["in", "out", "indeterminate", "bad-file", "bad-dims", "error"],
)
def test_exit_codes(tmp_path, argv, code):
    paths = {name: str(tmp_path / f"{name}.json") for name in [*MATRICES, "missing", "report"]}
    for name, x in MATRICES.items():
        matio.save_array(paths[name], D, x)
    assert main([paths.get(a, a) for a in argv]) == code
