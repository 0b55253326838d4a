"""iterzeta: iterated integrals of log zeta and their Dirichlet-series models."""

from .errors import (
    IterzetaError,
    ValidationError,
    ComputationError,
    PoleAtOne,
    UnsupportedRange,
    ParseError,
    MonotonicityError,
    LimitExceeded,
    ConvergenceDomain,
    CutoffExceeded,
    TooFewSamples,
    TooFewRadii,
    DominanceViolation,
    TargetOutsideDisk,
    TableCoverage,
    BranchObstruction,
    GuardBand,
    QuadratureNonconvergence,
    RootFindFailure,
    WindowExhausted,
    BudgetExceeded,
)
from .zetafun import ComplexPoint, EvalParams, zeta, zeta_batch
from .zeros import ZeroTable, load_zero_table, bundled_table, zeros_in_box
from .rays import log_zeta_horizontal, log_zeta_real_axis
from .eta import (
    EtaValue,
    ZeroSumTerm,
    c_m,
    check_bridge,
    eta_tilde_recursive,
    eta_tilde_weighted,
    eta_vertical,
    growth_check,
    tail_bound,
    y_m,
    y_m_terms,
)
from .primes import PrimeTable, sieve_primes
from .dirichlet import (
    MeanSquareReport,
    dirichlet_li_sum,
    li_vs_mangoldt_gap,
    mangoldt_sum,
    mean_square_error,
    polylog,
    polylog_batch,
)
from .polygon import AngleAssignment, RadiiSet, check_dominance, polygon_angles
from .torus import (
    ThetaPipelineResult,
    construct_theta,
    gamma_m_sigma,
    gamma_tail_estimate,
    load_theta,
    s_sum,
    save_theta,
    second_moment_s,
)
from .hunt import (
    HuntConfig,
    HuntResult,
    TorusTarget,
    equidistribution_measure,
    hunt_value,
    kronecker_search,
)

__version__ = "0.1.0"
