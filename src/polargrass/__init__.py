"""Line polar Grassmann codes of orthogonal type over odd-order fields.

The package builds the evaluation code of the line orthogonal Grassmannian
embedded in the second exterior power, computes its parameters, and verifies
the point and line counts that determine the minimum distance by independent
brute-force enumeration at desk scale.
"""

from .code import (
    CodeParams,
    Codeword,
    PolarCode,
    build_code,
    code_parameters,
    codeword_from_form,
    export_code,
    form_from_message,
    message_from_form,
    min_distance_certified,
    min_distance_exact,
    standard_code,
)
from .counting import (
    FormTable,
    case1_equation_counts,
    case4_line_count_bound,
    case_line_count,
    closed_form_census,
    delta_bound_check,
    even_orbit_closed,
    kappa_closed,
    line_count_from_census,
    line_count_objective,
    max_singular_isotropic_lines,
    objective_grid_argmax,
    residue_constants,
    run_checks,
    verify_case_maxima,
    verify_census_all,
    verify_grid_maxima,
    verify_line_count_identity,
    verify_line_types,
    verify_orbit_counts,
)
from .errors import (
    BudgetExceeded,
    Case4NoClosedForm,
    CounterexampleFound,
    DimensionMismatch,
    EvenCharacteristic,
    InadmissibleParams,
    IoError,
    NonIntegerResult,
    NotOnQuadric,
    NotPrime,
    PolargrassError,
    RadicalMismatch,
    RankDeficient,
    TooLarge,
    TypeNotInTable,
    ZeroMessage,
    ZeroVector,
)
from .field import FieldCtx, field_ctx
from .forms import (
    AlternatingForm,
    QuadraticSpace,
    admissible_pairs,
    canonical_form,
    check_admissible,
    projective_points,
    radical_split,
    standard_space,
)
from .geometry import (
    CensusRecord,
    LineSet,
    empirical_census,
    enumerate_singular_lines,
    isotropic_line_count,
    orbit_counts,
    quadric_points,
    residue_classes,
    tau_values,
)
from .matrix import format_matrix_text, parse_matrix_text

__version__ = "0.1.0"
