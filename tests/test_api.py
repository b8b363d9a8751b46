"""The package's exports: a change to the public API must change this test."""

import types

import sdchan

EXPORTS = {
    # channel
    "Dmc", "Regime", "SdDmc", "SiModel", "ValidationReport", "load_channel", "serialize", "validate",
    # errors
    "BudgetExceeded", "ParseError", "PrecondFailed", "SdchanError", "UnsupportedModel", "ValidationError",
    # reductions
    "average_states", "enumerate_strategy_letters", "extend_with_termination", "joint_output_channel",
    "shannon_strategy_channel",
    # positivity
    "POSITIVE", "POSITIVE_SUFFICIENT", "UNKNOWN", "ZERO", "Verdict", "bl_positivity", "check_dmc_fl_feedback",
    "check_dmc_vl", "check_nocvlpos", "partition_exists", "positivity", "verify_witness", "vl_positivity",
    # capacity
    "CapacityResult", "blahut_arimoto", "capacity_cond_iid", "gelfand_pinsker_capacity",
    "shannon_strategy_capacity", "shannon_zef_fl_capacity", "vanishing_capacity", "zero_error_capacity",
    # protocols
    "ProtocolStats", "Trace", "monte_carlo", "reduced_dmc",
    # oracles
    "confusable_all_pairs_fl", "gp_grid_oracle", "grid_capacity",
}


def test_package_exports_exactly_these_names():
    exported = {name for name, value in vars(sdchan).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(EXPORTS) == 47
    assert exported == EXPORTS
