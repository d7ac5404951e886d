"""genquot: a numerical laboratory for generic quotients of l1^N.

Random symmetric polytopes B = absconv{g_1,...,g_N} spanned by Gaussian
columns, exact LP norm oracles, s-number brackets for operators in the induced
norm, constructive well-complemented l1^k / l2^h subspace searches, and seeded
Monte Carlo suites that check every quantitative claim at desk scale.
"""

# set before the submodule imports: experiments, cli and pyproject read them here
__version__ = "1.0.0"
REPORT_SCHEMA = "genquot-report/1"

from .errors import (
    ConditionFailed,
    FitError,
    GenquotError,
    IoError,
    NotInSpan,
    NumericError,
    SolverStall,
    UsageError,
)
from .linalg import (
    OrthoResult,
    SvdResult,
    format_matrix,
    orth_project,
    orthonormalize,
    parse_matrix,
    read_matrix,
    svd,
    write_matrix,
)
from .sampler import HaarSubspace, SeedSpec, gaussian_matrix, gaussian_vector, generator, haar_subspace
from .linprog import LPProblem, LPSolution, dump_problem, load_problem, solve_lp
from .body import (
    RadiiEstimate,
    RandomQuotientBody,
    body_from_matrix,
    body_norm,
    body_norm_many,
    body_norm_with_dual,
    dual_norm,
    dual_norm_many,
    load_body,
    make_body,
    max_gauge_in_span,
    mean_width,
    operator_norm,
    radii,
    save_body,
    section_distortion,
    volume_ratio,
)
from .snumbers import (
    MnWitness,
    ShiftSearchResult,
    SNumberBracket,
    euclidean_s_numbers,
    gelfand_bracket,
    gelfand_sum_bracket,
    hs_of_normalized,
    min_over_shifts,
    mn_witness_check,
)
from .constructions import (
    L1Witness,
    L2Witness,
    complementation_norm,
    corollary_dispatch,
    find_l1_subspace,
    find_l2_subspace,
    load_witness,
    save_witness,
    verify_witness,
)
from .experiments import (
    SUITE_IDS,
    FitResult,
    SuiteConfig,
    SuiteReport,
    calibrate,
    default_config,
    fit_constant,
    read_report,
    read_thresholds,
    run_suite,
    write_report,
    write_thresholds,
)
