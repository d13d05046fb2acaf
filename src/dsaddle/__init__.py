"""dsaddle: invertibility analysis and explicit inverses for symmetric
double saddle-point matrices

    K = [[A,  B^T, 0  ],
         [B, -D,   C^T],
         [0,  C,   E  ]].

The package decides invertibility through a ladder of necessary and
sufficient conditions with explicit singularity witnesses, constructs
closed-form structured inverses when the leading block is maximally rank
deficient, verifies nullity bounds on the middle block of the inverse, and
generates seeded random instances with prescribed rank structure for
property-based testing.  Everything is dense and tolerance-governed;
see :class:`dsaddle.ToleranceConfig` for the single rank policy.
"""

from .core import (
    AssembledMatrix,
    BlockSystem,
    GenerationError,
    PreconditionError,
    alpha_upper_bound,
    assemble,
    block_reversal_permutation,
    congruence_transform,
    default_alpha,
    permute_similar,
    rescale_middle,
)
from .generators import (
    GeneratorSpec,
    InstanceCertificate,
    gen_instance,
    gen_psd_with_nullity,
    gen_rank,
    haar_orthogonal,
)
from .invertibility import (
    ConditionEntry,
    ConditionReport,
    Diagnosis,
    Verdict,
    condition_report,
    corollary_rules,
    diagnose,
    direct_sum_iff,
    e_iff_rule,
    necessary_conditions,
    oracle_invertible,
    psd_iff,
    psd_ladder,
    rank_b_iff,
    rank_c_iff,
    schur_sufficient,
)
from .inverses import (
    InverseBlocks,
    NullityBoundReport,
    ReducedHessianProjector,
    TransformedFactorization,
    TwoBlockInverse,
    dense_inverse_blocks,
    factorize_transformed,
    inner_inverse_residual,
    inverse_via_factorization,
    projector_complement_residual,
    reduced_hessian_projector,
    reduced_projector_residual,
    three_block_inverse,
    transformed_schur_complement,
    two_block_inverse,
    verify_identities,
    weight_recovery_residual,
    z22_nullity_bounds,
)
from .mmio import (
    load_block_system,
    read_matrix,
    save_block_system,
    save_inverse_blocks,
    write_matrix,
)
from .subspaces import (
    DEFAULT_TOL,
    Definiteness,
    SubspaceBasis,
    ToleranceConfig,
    classify_definiteness,
    intersection_kernels,
    is_direct_sum,
    is_nonsingular,
    kernel_basis,
    matrix_rank,
    nullity,
    range_basis,
    range_intersection_trivial,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledMatrix", "BlockSystem", "ConditionEntry", "ConditionReport",
    "DEFAULT_TOL", "Definiteness", "Diagnosis", "GenerationError",
    "GeneratorSpec", "InstanceCertificate", "InverseBlocks",
    "NullityBoundReport", "PreconditionError", "ReducedHessianProjector",
    "SubspaceBasis", "ToleranceConfig", "TransformedFactorization",
    "TwoBlockInverse", "Verdict",
    "alpha_upper_bound", "assemble", "block_reversal_permutation",
    "classify_definiteness", "condition_report", "congruence_transform",
    "corollary_rules", "default_alpha", "dense_inverse_blocks", "diagnose",
    "direct_sum_iff", "e_iff_rule", "factorize_transformed", "gen_instance",
    "gen_psd_with_nullity", "gen_rank", "haar_orthogonal",
    "inner_inverse_residual", "intersection_kernels",
    "inverse_via_factorization", "is_direct_sum", "is_nonsingular",
    "kernel_basis", "load_block_system", "matrix_rank",
    "necessary_conditions", "nullity", "oracle_invertible", "permute_similar",
    "projector_complement_residual", "psd_iff", "psd_ladder", "range_basis",
    "range_intersection_trivial", "rank_b_iff", "rank_c_iff", "read_matrix",
    "reduced_hessian_projector", "reduced_projector_residual",
    "rescale_middle", "save_block_system", "save_inverse_blocks",
    "schur_sufficient", "three_block_inverse", "transformed_schur_complement",
    "two_block_inverse", "verify_identities", "weight_recovery_residual",
    "write_matrix", "z22_nullity_bounds",
]
