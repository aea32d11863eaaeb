"""Exact-arithmetic toolkit for natural automorphisms of generalized
Kummer varieties: fixed-point decisions with certificates, Lefschetz
numbers via generating series, and quotient classification."""

from .enriques import (
    FactorDecomposition,
    FactorKind,
    QuotientClassification,
    QuotientVerdict,
    classify_free_quotient,
    decomposition_search,
    holomorphic_euler_ihs,
    is_irreducible_feasible,
)
from .fixedpoint import (
    FixedPointReport,
    FreenessCertificate,
    FreenessReport,
    NotNTorsionError,
    brute_force_fixed_point,
    group_acts_freely,
    has_fixed_point,
    orbit_system,
    orbit_types,
    verify_certificate,
)
from .lattice import (
    DimensionMismatchError,
    SolvabilityResult,
    solvable_by_enumeration,
    torus_system_solvable,
    verify_obstruction,
    verify_witness,
)
from .lefschetz import (
    DegenerateActionError,
    companion_matrix,
    det_one_minus_power,
    invariant_character_counts,
    kummer_series,
    lefschetz_kummer,
    lefschetz_torus,
    supertrace_sym_series,
)
from .linalg import (
    IntMatrix,
    SelfCheckError,
    elementary_divisors_via_minors,
    matrix_order,
    smith_normal_form,
)
from .rings import (
    RingElem,
    RingId,
    RingMismatchError,
    units,
    zeta6,
)
from .search import SearchResult, run_search
from .series import TruncatedSeries
from .torus import (
    TORSION_LEVEL_CAP,
    TorusAuto,
    TorusEndo,
    TorusPoint,
    UnsupportedAutomorphismError,
    orbit_sum_data,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateActionError",
    "DimensionMismatchError",
    "FactorDecomposition",
    "FactorKind",
    "FixedPointReport",
    "FreenessCertificate",
    "FreenessReport",
    "IntMatrix",
    "NotNTorsionError",
    "QuotientClassification",
    "QuotientVerdict",
    "RingElem",
    "RingId",
    "RingMismatchError",
    "SearchResult",
    "SelfCheckError",
    "SolvabilityResult",
    "TORSION_LEVEL_CAP",
    "TorusAuto",
    "TorusEndo",
    "TorusPoint",
    "TruncatedSeries",
    "UnsupportedAutomorphismError",
    "brute_force_fixed_point",
    "classify_free_quotient",
    "companion_matrix",
    "decomposition_search",
    "det_one_minus_power",
    "elementary_divisors_via_minors",
    "group_acts_freely",
    "has_fixed_point",
    "holomorphic_euler_ihs",
    "invariant_character_counts",
    "is_irreducible_feasible",
    "kummer_series",
    "lefschetz_kummer",
    "lefschetz_torus",
    "matrix_order",
    "orbit_sum_data",
    "orbit_system",
    "orbit_types",
    "run_search",
    "smith_normal_form",
    "solvable_by_enumeration",
    "supertrace_sym_series",
    "torus_system_solvable",
    "units",
    "verify_certificate",
    "verify_obstruction",
    "verify_witness",
    "zeta6",
]
