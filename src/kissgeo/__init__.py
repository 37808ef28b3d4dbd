"""Distance geometry for kissing spheres and their null-vector models."""

from .completion import (
    Chordality,
    CliqueCheck,
    CliqueTree,
    CompletionResult,
    LengthGraph,
    TargetReport,
    clique_feasible,
    complete_chordal,
    is_chordal,
    maximal_cliques,
    non_chordal_witness,
    verify_target_matrix,
)
from .embed import (
    Certificate,
    InadmissiblePivotError,
    InertiaWitness,
    MinorWitness,
    RankWitness,
    RealizationError,
    SchurReport,
    cayley_menger,
    check_euclidean,
    check_kissing,
    construct_embedding,
    schur_embedding,
    verify_schur_relations,
)
from .kissing import (
    Dilation,
    InversionSphere,
    KissingSphere,
    PairClass,
    Plane,
    Reflection,
    Sphere,
    Translation,
    apply_generator,
    classify_pair,
    distance,
    distance_matrix,
    distance_sq,
    invert,
    normalize_pair,
)
from .lightcone import (
    AlignmentError,
    InverseMapError,
    from_lightcone,
    is_lorentz,
    lorentz_align,
    minkowski_inner,
    to_lightcone,
    to_lightcone_curved,
)
from .numkernel import (
    GramFactor,
    GramInfeasibleError,
    Inertia,
    NonConvergenceError,
    SingularPivotError,
    gram_factor_lorentz,
    inertia,
    schur_complement,
    sym_eigen,
)
from .spheres import (
    EuclideanSphere,
    check_spheres,
    hyperboloid_embed,
    kissing_cone_embed,
    separation,
    separation_matrix,
)

__version__ = "0.1.0"
