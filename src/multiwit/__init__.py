"""Numerical toolkit for varieties in products of affine/projective spaces.

Witness collections, local multidimension, monodromy completion,
refinement/coarsening/slicing homotopies, Cartesian-product detection,
the trace test, and numerical irreducible decomposition, on top of a
self-contained homotopy continuation engine.
"""

from .algebra import (
    Members,
    Polynomial,
    PolySystem,
    VariableGrouping,
    affine_rows,
)
from .dimension import (
    DimensionProfile,
    IllConditionedError,
    dimension_polytope,
    equidim_partition,
    local_multidimension,
    product_factorization,
)
from .monodromy import (
    MonodromyOutcome,
    MonodromyState,
    breakup,
    grow_witness_set,
    monodromy_permutation,
    trace_test,
)
from .nid import (
    ComponentRecord,
    Decomposition,
    build_component,
    component_membership,
    nid_multi,
)
from .startsys import (
    StartPackage,
    complete_intersection_class,
    mbezout,
    solve_zero_dim,
    solve_zero_dims,
    square_up,
    start_package,
)
from .sysio import (
    DEFAULT_SEED,
    ParseError,
    RandomSource,
    parse_system,
)
from .tracker import (
    Homotopy,
    IndeterminateError,
    PathResult,
    TrackingError,
    newton_refine,
    track_many,
    track_path,
    track_slice_motion,
)
from .witness import (
    CoarsenResult,
    SliceSelection,
    WitnessCollection,
    WitnessSet,
    coarsen,
    coarsen_collection,
    compute_witness_collection,
    membership,
    move_slice,
    refine,
    segre_degree,
    slice_collection,
)

__version__ = "0.1.0"
