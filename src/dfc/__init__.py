"""Mixed-integer formulations of convex disjunctions, with strength checks.

Declarative convex-set expressions, gauge/support oracles, seven
formulation constructions, one formulation record that is emitted as JSON or
LP text and parsed back, and sampled or exact certification of sharpness and
idealness.
"""

from . import analysis, builders, fixtures, gauge, model, sets
from .analysis import (
    AnalysisReport,
    check_bbj_condition,
    check_ideal,
    check_minkowski_ideal,
    check_par_conditions,
    check_sharp,
    enumerate_vertices,
)
from .builders import (
    BBJData,
    BigMData,
    Formulation,
    HomothetyData,
    IsotoneData,
    OrthogonalData,
    PiecewiseData,
    ProblemSpec,
    Variable,
    bigm_table,
    build,
    build_bbj,
    build_bigm,
    build_extended,
    build_homothetic,
    build_isotone_general,
    build_orthogonal,
    build_piecewise,
    minimal_bigm,
)
from .gauge import Aff, ConditionViolated, GaugePlus, Linear, Perspective, SOC
from .model import (
    NonlinearAtomPresent,
    SchemaError,
    emit_json,
    emit_lp,
    lower_model,
    parse_instance,
    parse_model,
)
from .sets import DfcError

__all__ = [
    "AnalysisReport",
    "Aff",
    "BBJData",
    "BigMData",
    "ConditionViolated",
    "DfcError",
    "Formulation",
    "GaugePlus",
    "HomothetyData",
    "IsotoneData",
    "Linear",
    "NonlinearAtomPresent",
    "OrthogonalData",
    "Perspective",
    "PiecewiseData",
    "ProblemSpec",
    "SOC",
    "SchemaError",
    "Variable",
    "analysis",
    "bigm_table",
    "build",
    "build_bbj",
    "build_bigm",
    "build_extended",
    "build_homothetic",
    "build_isotone_general",
    "build_orthogonal",
    "build_piecewise",
    "builders",
    "check_bbj_condition",
    "check_ideal",
    "check_minkowski_ideal",
    "check_par_conditions",
    "check_sharp",
    "emit_json",
    "emit_lp",
    "enumerate_vertices",
    "fixtures",
    "gauge",
    "lower_model",
    "minimal_bigm",
    "model",
    "parse_instance",
    "parse_model",
    "sets",
]
