"""Distinguishability bounds for bipartite state ensembles via partial
transposition, with multifold decay analysis and data-hiding simulation."""

from .operators import (
    DEFAULT_DIM_CAP,
    BipartiteDims,
    HermitianOperator,
    abs_op,
    identity,
    is_psd,
    negative_part,
    partial_transpose,
    positive_part,
    tensor,
    tensor_power,
    trace_norm,
)
from .ensembles import (
    StateEnsemble,
    ValidationReport,
    coarse_grain,
    is_mutually_orthogonal,
    validate,
)
from .discrimination import (
    CertificationResult,
    DualBoundResult,
    OptimalityReport,
    Povm,
    SolverOptions,
    certify_optimal,
    dual_bound,
    helstrom_measurement,
    helstrom_two_state,
    qg_two_state,
    solve_optimal_value,
    validate_povm,
)
from .multifold import (
    DecayCurve,
    HidingConditionResult,
    decay_curve,
    decay_curve_from_value,
    hiding_condition,
    qg_level_two_state,
    qg_level_upper_bound,
    uniform_encoding_bound,
)
from .constructions import (
    Example2Result,
    WernerParams,
    bell_state,
    binary_digits,
    example1,
    example2,
    flip_operator,
    random_npt_state,
    werner_d_threshold,
    werner_state,
)
from .hiding import (
    GlobalPovmStrategy,
    PerCopyParityStrategy,
    ProtocolConfig,
    SimResult,
    exact_strategy_success,
    orthogonal_support_strategy,
    simulate_broadcast_scheme,
    simulate_direct_encoding,
)

__version__ = "0.1.0"
