"""lsglue: exact least-squares fits on overlapping charts, glued up to homotopy.

Local weighted least-squares solutions on the charts of a cover are encoded
as linearized degree-0 elements; their pairwise discrepancies are witnessed
exactly by degree-1 elements β = N⁻¹δ on overlaps.  On a triple overlap the
alternating sum of the face betas either vanishes, and the zero degree-2
element witnesses it, or is an exact constant obstruction.  Everything is
computed and verified in exact rational arithmetic.
"""

from .assembly import (
    DiscrepancyMetrics,
    ObstructionReport,
    PairCheck,
    TotalCochain,
    TripleCheck,
    assemble_cochain,
    build_zero_cocycle,
    canonical_alpha,
    discrepancy_metrics,
    fit_all_cells,
    verify_cocycle,
)
from .data import (
    Cover,
    NerveCell,
    WeightedDataSet,
    WeightedPoint,
    enumerate_nerve,
    restrict,
    validate_cover,
)
from .errors import (
    BaseMismatch,
    CellMismatch,
    DegreeZero,
    DimensionMismatch,
    IndexOutOfRange,
    LsglueError,
    MalformedNumber,
    NotACover,
    Singular,
    ZeroDenominator,
)
from .koszul import (
    KoszulElement,
    LinearizedDifferential,
    LinearizedElement,
    koszul_diff,
    ring_mul,
    translate,
)
from .linalg import Matrix, Vector, solve_square
from .model import (
    FeatureMap,
    LSSolution,
    NormalSystem,
    affine_features,
    build_normal_system,
    loss_eval,
    solve_least_squares,
)
from .scalars import BACKEND, Rational, rat, rat_float, rat_str, rational_from_string

__version__ = "0.1.0"
