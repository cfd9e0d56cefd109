"""Categorical entropy, Serre dimensions, and stability conditions for
acyclic quivers and smooth projective curves.

The package computes with the bounded derived category of an acyclic
quiver through its finite hom/ext calculus: a catalog of indecomposables
built from integer Coxeter data drives entropy and Serre dimension
estimates, Gepner-point constructions, global dimension of stability
conditions, mass growth, and full exceptional collection extraction.  The
exact representations in `sdlab.reps`, integer matrices whose ranks and
kernels come from one fraction-free elimination (`sdlab.exactmat`), are an
oracle for the tests and for `verify`; semistability is decided from the
integer hom table.  A separate numeric module covers slope stability on
smooth projective curves.
"""

from .catalog import IndecCatalog, catalog_for
from .curves import (
    CurveStability,
    curve_gldim,
    curve_gldim_bounds,
    curve_inf_scan,
    genus0_pair_sup,
    genus1_pair_sup,
    shift_gap_grid,
)
from .derived import (
    DerivedObject,
    hom_poincare,
    serre_apply,
    standard_generator,
)
from .entropy import (
    DEFAULT_BUDGET,
    EntropyProfile,
    EntropySeries,
    SerreDims,
    entropy_estimate,
    entropy_profile,
    entropy_series,
    sdim_estimate,
    volume,
)
from .errors import (
    BudgetExceeded,
    CatalogIncomplete,
    CatalogMiss,
    ConfigError,
    CyclicQuiver,
    DimensionMismatch,
    DisconnectedQuiver,
    EmptyGrid,
    GenusTooSmall,
    GldimTooLarge,
    HeartEscape,
    HeartMismatch,
    NotAllSemistable,
    NotAStabilityFunction,
    NotConnectedSubset,
    NotDynkin,
    NotIndecomposable,
    ParseError,
    QuiverMismatch,
    SdlabError,
)
from .quivers import (
    DynkinClass,
    EulerData,
    Quiver,
    classify_dynkin,
    coxeter_matrix,
    coxeter_order,
    euler_form,
    euler_matrix,
    parse_quiver,
    positive_roots,
    tits_form,
)
from .stability import (
    GepnerReport,
    MassGrowth,
    Record,
    StabilityCondition,
    act,
    extract_exceptional_collection,
    gepner_check,
    gepner_construct,
    gldim,
    make_stability,
    mass,
    mass_growth,
    restrict_to_subquiver,
    sample_stability,
    sigma_from_json,
)
from .verify import CheckResult, VerifySummary, run_all

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BudgetExceeded", "CatalogIncomplete", "CatalogMiss", "ConfigError",
    "CyclicQuiver", "DimensionMismatch", "DisconnectedQuiver", "EmptyGrid",
    "GenusTooSmall", "GldimTooLarge", "HeartEscape", "HeartMismatch",
    "NotAllSemistable", "NotAStabilityFunction",
    "NotConnectedSubset", "NotDynkin", "NotIndecomposable", "ParseError",
    "QuiverMismatch", "SdlabError",
    "Quiver", "EulerData", "DynkinClass", "parse_quiver", "euler_matrix",
    "euler_form", "tits_form", "coxeter_matrix",
    "coxeter_order", "classify_dynkin", "positive_roots",
    "IndecCatalog", "catalog_for",
    "DerivedObject", "standard_generator", "serre_apply", "hom_poincare",
    "DEFAULT_BUDGET", "EntropySeries", "EntropyProfile", "SerreDims",
    "entropy_series", "entropy_estimate", "sdim_estimate", "volume",
    "entropy_profile",
    "Record", "StabilityCondition", "GepnerReport", "MassGrowth",
    "make_stability", "gldim", "mass", "mass_growth", "act",
    "gepner_check", "gepner_construct", "sample_stability",
    "extract_exceptional_collection", "restrict_to_subquiver",
    "sigma_from_json",
    "CurveStability", "curve_gldim",
    "curve_gldim_bounds", "curve_inf_scan", "shift_gap_grid",
    "genus0_pair_sup", "genus1_pair_sup",
    "CheckResult", "VerifySummary", "run_all",
]
