"""sdchan: zero-error and vanishing-error analysis of channels with state.

The package decides positivity of zero-error feedback capacities of
state-dependent discrete memoryless channels under the standard
state-information models and coding-length regimes, computes the matching
vanishing-error capacities numerically, and simulates the zero-error
protocols with hard (count, not tolerance) correctness checks.
"""

__version__ = "0.1.0"

from .channel import (
    Dmc,
    Regime,
    SdDmc,
    SiModel,
    ValidationReport,
    load_channel,
    serialize,
    validate,
)
from .errors import (
    BudgetExceeded,
    ParseError,
    PrecondFailed,
    SdchanError,
    UnsupportedModel,
    ValidationError,
)
from .reductions import (
    average_states,
    enumerate_strategy_letters,
    extend_with_termination,
    joint_output_channel,
    shannon_strategy_channel,
)
from .positivity import (
    POSITIVE,
    POSITIVE_SUFFICIENT,
    UNKNOWN,
    ZERO,
    Verdict,
    bl_positivity,
    check_dmc_fl_feedback,
    check_dmc_vl,
    check_nocvlpos,
    partition_exists,
    positivity,
    verify_witness,
    vl_positivity,
)
from .capacity import (
    CapacityResult,
    blahut_arimoto,
    capacity_cond_iid,
    gelfand_pinsker_capacity,
    shannon_strategy_capacity,
    shannon_zef_fl_capacity,
    vanishing_capacity,
    zero_error_capacity,
)
from .protocols import (
    ProtocolStats,
    Trace,
    monte_carlo,
    reduced_dmc,
)
from .oracles import (
    confusable_all_pairs_fl,
    gp_grid_oracle,
    grid_capacity,
)
