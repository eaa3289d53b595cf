"""Unitary staircase decompositions of chain and cycle quiver representations.

The package computes, using unitary changes of basis only, the canonical
interval decomposition of a chain of linear maps and the regularizing
decomposition (walk summands plus a regular part) of a cycle of linear maps
over the complex numbers.  Rank decisions are SVD-based and auditable
through an explicit tolerance policy.
"""

from .errors import InconsistencyError, NumericError, QuiverError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    f_block,
    g_block,
    jordan_block,
    numerical_rank,
    unitarity_defect,
)
from .quiver import (
    CHAIN,
    CLOCKWISE,
    COUNTERCLOCKWISE,
    CYCLE,
    QuiverShape,
    Representation,
    apply_isomorphism,
    chain_shape,
    cycle_shape,
    direct_sum,
    g_label_dims,
    make_G,
    representation_scale,
    transpose_rep,
    zero_representation,
)
from .chain import (
    ChainCanonicalForm,
    ChainTrace,
    assemble_canonical,
    canon_chain,
    reduction_residual,
)
from .cycle import (
    RegularizingDecomposition,
    ShaveResult,
    monodromy,
    push_down,
    regularize,
    shave,
)
from .oracle import (
    PlantSpec,
    VerificationReport,
    plant,
    random_unitary,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QuiverError",
    "ValidationError",
    "NumericError",
    "InconsistencyError",
    "TolerancePolicy",
    "DEFAULT_TOL",
    "numerical_rank",
    "unitarity_defect",
    "f_block",
    "g_block",
    "jordan_block",
    "CHAIN",
    "CYCLE",
    "CLOCKWISE",
    "COUNTERCLOCKWISE",
    "QuiverShape",
    "chain_shape",
    "cycle_shape",
    "Representation",
    "zero_representation",
    "representation_scale",
    "direct_sum",
    "transpose_rep",
    "apply_isomorphism",
    "make_G",
    "g_label_dims",
    "ChainCanonicalForm",
    "ChainTrace",
    "canon_chain",
    "assemble_canonical",
    "reduction_residual",
    "ShaveResult",
    "shave",
    "push_down",
    "monodromy",
    "RegularizingDecomposition",
    "regularize",
    "PlantSpec",
    "plant",
    "random_unitary",
    "verify",
    "VerificationReport",
]
