"""Exact Chow ring presentations of weighted Fulton-MacPherson
compactifications of projective space, with independent rank
verification.

All arithmetic is exact (arbitrary-precision integers; ranks over the
rationals).  See the README for the CLI and the verification scenarios.
"""

from fmchow.errors import (
    DegreeError,
    FmchowError,
    MapError,
    SizeCapError,
    StructureError,
    WalkOrderError,
)
from fmchow.geomdata import (
    ProjectiveGeometry,
    chern_pair,
    chern_set,
    diagonal_class,
    diagonal_ideal,
)
from fmchow.polyalg import (
    ChernPoly,
    Poly,
    Presentation,
    Var,
    VarTable,
    chern_eval,
    chern_mul,
    chern_shift,
    divisor_name,
    map_poly,
    transport,
)
from fmchow.present import (
    CoincidenceData,
    blowup_step,
    chow_presentation,
    coincidence_data,
    iterated_presentation,
    simplified_presentation,
)
from fmchow.ranks import (
    DegreeSpan,
    GradedRing,
    graded_ranks,
    ideal_ranks,
    kernel_ranks,
    membership,
    memberships,
    monomials_of_degree,
    rank_oracle,
)
from fmchow.setcomb import (
    LargeFamily,
    MergeResult,
    Weights,
    all_walks,
    canonical_walk,
    merge_family,
    validate_walk,
)
from fmchow.verify import (
    VerdictReport,
    check_construction,
    check_counterexample,
    check_equivalence,
)

__version__ = "0.1.0"

#: name of the elimination kernel, kept for run records; there is one,
#: the pure-Python division loop `fmchow.ranks.GradedRing._reduce`
elimination_backend = "python"

__all__ = [
    "ChernPoly",
    "CoincidenceData",
    "DegreeError",
    "DegreeSpan",
    "FmchowError",
    "GradedRing",
    "LargeFamily",
    "MapError",
    "MergeResult",
    "Poly",
    "Presentation",
    "ProjectiveGeometry",
    "SizeCapError",
    "StructureError",
    "Var",
    "VarTable",
    "VerdictReport",
    "WalkOrderError",
    "Weights",
    "all_walks",
    "blowup_step",
    "canonical_walk",
    "check_construction",
    "check_counterexample",
    "check_equivalence",
    "chern_eval",
    "chern_mul",
    "chern_pair",
    "chern_set",
    "chern_shift",
    "chow_presentation",
    "coincidence_data",
    "diagonal_class",
    "diagonal_ideal",
    "divisor_name",
    "elimination_backend",
    "graded_ranks",
    "ideal_ranks",
    "iterated_presentation",
    "kernel_ranks",
    "map_poly",
    "membership",
    "memberships",
    "merge_family",
    "monomials_of_degree",
    "rank_oracle",
    "simplified_presentation",
    "transport",
    "validate_walk",
]
