"""conekit: numerics for bipartite entanglement cones and their C*-convex images."""

from .bipartite import (
    DEFAULT_TOL,
    BipartiteDims,
    OpSchmidtDecomp,
    SchmidtDecomp,
    basis_vec,
    kron,
    lift_product_to_target,
    max_entangled_vector,
    op_schmidt_decompose,
    osr,
    partial_transpose,
    product_vec,
    realign,
    schmidt_decompose,
    sr,
    swap_operator,
)
from .errors import (
    AnchorError,
    ConekitError,
    DegenerateSampleError,
    DimError,
    HermiticityError,
    MatrixFileError,
    NormError,
    PreconditionError,
    ZeroInputError,
)
from .kraus import (
    ConicCombination,
    KrausFamily,
    Locality,
    Mode,
    collapse_construction,
    complete_to_identity,
    conic_scale,
    embed_schmidt_k,
    random_family,
    validate,
    witness_conjugation,
)
from .kraus import apply as apply_family
from .membership import (
    MembershipReport,
    SeesawConfig,
    Verdict,
    is_block_positive_heuristic,
    is_ppt,
    is_psd,
    is_separable_decidable,
    min_product_expectation,
    min_sr_k_expectation,
)
from .suites import (
    SUITE_IDS,
    SuiteReport,
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
)

__version__ = "0.1.0"
