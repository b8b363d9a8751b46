"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line
(run with ``pytest -s`` to see them).  Tolerances are pinned here, not
derived from the modules under test.
"""

import time

import numpy as np
import pytest

from sdchan import (
    SiModel,
    Regime,
    average_states,
    bl_positivity,
    blahut_arimoto,
    check_nocvlpos,
    confusable_all_pairs_fl,
    gelfand_pinsker_capacity,
    gp_grid_oracle,
    grid_capacity,
    monte_carlo,
    shannon_zef_fl_capacity,
    vanishing_capacity,
    vl_positivity,
    zero_error_capacity,
)
from sdchan.cli import main as cli_main
from sdchan.protocols import _cdf, _sample, disprover_trial, han_sato_trial, theorem5_trial
from conftest import (
    bsc,
    ch_ex1,
    ch_ex2,
    ch_ex3,
    ch_triv,
    pentagon,
    random_channel,
    random_dmc,
    stuck_at,
)

SI_TOKENS = ("-,-", "sc,-", "c,-", "nc,-", "sc,c", "c,c", "nc,c", "nc,nc", "-,c")
HS_N1 = 16  # phase-1 blocklength giving measured phase-1 error well under 0.1


def report(criterion: int, description: str, ok: bool):
    print(f"criterion {criterion}: {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {description}"


def h2(p: float) -> float:
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


@pytest.fixture(scope="module")
def disprover_stats():
    return monte_carlo(disprover_trial(average_states(ch_ex1())), trials=100_000, seed=42)


@pytest.fixture(scope="module")
def theorem5_stats():
    return monte_carlo(theorem5_trial(ch_ex1()), trials=100_000, seed=42)


@pytest.fixture(scope="module")
def han_sato_stats():
    trial = han_sato_trial(ch_ex1(), SiModel.from_token("-,-"), 4, n1=HS_N1)
    return monte_carlo(trial, trials=10_000, seed=7)


def test_criterion_1_example_1_suite():
    started = time.perf_counter()
    ch = ch_ex1()
    v = vl_positivity(ch, SiModel.from_token("-,-"))
    ok = v.decision == "positive" and (v.witness["x"], v.witness["y"]) == (0, 1)
    ok &= bl_positivity(ch, SiModel.from_token("nc,nc")).decision == "zero"
    z = zero_error_capacity(ch, SiModel.from_token("-,-"), Regime.VARIABLE_LENGTH)
    ok &= z.value == blahut_arimoto(average_states(ch)).value
    ok &= confusable_all_pairs_fl(ch, decoder_sees_state=True, n=4)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    report(1, f"Example 1 suite ({elapsed:.2f}s)", ok)


def test_criterion_2_example_2_suite():
    ch = ch_ex2()
    ok = bl_positivity(ch, SiModel.from_token("-,c")).decision == "positive"
    # Slot-wise state inference: y != x happens only in the flip state.
    rng = np.random.default_rng(2026)
    correct = 0
    slots = 100_000
    for _ in range(slots):
        s = int(_sample(_cdf(ch.Q), rng.random()))
        x = int(rng.integers(2))
        y = int(_sample(_cdf(ch.W[s, x]), rng.random()))
        correct += (0 if y != x else 1) == s
    ok &= correct == slots
    report(2, f"Example 2 suite (state inference {correct}/{slots})", ok)


def test_criterion_3_example_3_suite(tmp_path):
    ch = ch_ex3(p=0.3, q=0.5)
    v = vl_positivity(ch, SiModel.from_token("sc,c"))
    ok = v.decision == "positive" and v.condition == "in_state_disprover"
    ok &= check_nocvlpos(ch) is None
    from sdchan import serialize

    path = tmp_path / "ex3.json"
    path.write_text(serialize(ch))
    ok &= cli_main(["check", str(path), "--si", "-,c", "--regime", "vl"]) == 4
    report(3, "Example 3 suite (decoder-only verdict is unknown)", ok)


def test_criterion_4_zero_error_assertion(disprover_stats, theorem5_stats, han_sato_stats):
    ok = disprover_stats.errors == 0
    ok &= theorem5_stats.errors == 0
    ok &= han_sato_stats.errors == 0
    report(
        4,
        f"zero errors over {disprover_stats.trials}+{theorem5_stats.trials}"
        f"+{han_sato_stats.trials} trials",
        ok,
    )


def test_criterion_5_stopping_time_law(disprover_stats, theorem5_stats):
    # Per-round success probability 3/4, so tau = 2 * Geometric(3/4):
    # E[tau] = 8/3 and var[tau] = 4 * (1/4) / (3/4)^2 = 16/9.
    mean = 8 / 3
    three_sigma = 3 * np.sqrt((16 / 9) / 100_000)
    ok = abs(theorem5_stats.mean_tau - mean) < three_sigma
    ok &= abs(disprover_stats.mean_tau - mean) < three_sigma
    for stats in (disprover_stats, theorem5_stats):  # the exact law the reports carry
        ok &= stats.exact_mean_tau == mean and stats.exact_var_tau == 16 / 9
    report(
        5,
        f"mean tau {theorem5_stats.mean_tau:.4f} (theorem5) / "
        f"{disprover_stats.mean_tau:.4f} (disprover) within {mean:.4f} +- {three_sigma:.4f}",
        ok,
    )


def test_criterion_6_optimizer_accuracy():
    ok = abs(blahut_arimoto(bsc(0.11)).value - (1 - h2(0.11))) < 1e-6

    rng = np.random.default_rng(606)
    for _ in range(20):
        dmc = random_dmc(rng)
        ok &= abs(blahut_arimoto(dmc).value - grid_capacity(dmc, 1000)) < 1e-3

    oracle = gp_grid_oracle(stuck_at(0.2), resolution=40, u_size=2)
    ok &= gelfand_pinsker_capacity(stuck_at(0.2)).value >= oracle - 1e-3
    for _ in range(10):
        ch = random_channel(rng, max_size=2)
        u_size = ch.nx * ch.ns
        oracle = gp_grid_oracle(ch, resolution=12, u_size=u_size)
        gp = gelfand_pinsker_capacity(ch)
        ok &= gp.value >= oracle - 1e-3
        ok &= gp.value + gp.certified_gap >= oracle - 1e-9
    report(6, "optimizers match closed forms and grid oracles", ok)


def test_criterion_7_minimax_lp():
    diag = shannon_zef_fl_capacity(pentagon())
    ok = abs(diag.value - np.log2(2.5)) < 1e-6
    ident = shannon_zef_fl_capacity(average_states(ch_triv()))
    ok &= ident.value == 1.0
    report(7, f"minimax LP (pentagon diagnostic {diag.value:.6f})", ok)


def test_criterion_8_property_suites():
    import test_properties as props

    props.test_vl_condition_implication_chain()
    props.test_vl_si_lattice_monotone()
    props.test_bl_si_lattice_monotone()
    props.test_bl_implies_vl()
    props.test_single_state_collapse()
    props.test_strategy_lift_equivalence()
    props.test_joint_output_equivalences()
    props.test_vl_pos1_implies_state_group_witness()
    props.test_witness_soundness()
    report(8, f"property suites over {props.N_CHANNELS} random channels", True)


def test_criterion_9_capacity_monotonicity():
    rng = np.random.default_rng(909)
    models = [SiModel.from_token(t) for t in SI_TOKENS]
    ok = True
    for _ in range(100):
        ch = random_channel(rng)
        results = {si.token: vanishing_capacity(ch, si) for si in models}
        # Every model but nc,- routes to BA, which must converge on every
        # draw: a capped BA run carries a warning and fails the test.
        ok &= not any(r.warnings for token, r in results.items() if token != "nc,-")
        values = {token: r.value for token, r in results.items()}
        for a in models:
            for b in models:
                if a.token != b.token and a <= b:
                    # Every value is the lower end of a certified bracket.
                    # BA gaps are under BA_TOL and GP gaps under GP_TOL, and
                    # the 1e-6 slack keeps both directions sound.  The one
                    # capped run is draw 54's GP ascent, which stops at its
                    # iteration cap with gap 4.9e-7, still under the slack;
                    # its nc,- value is 0.167 bits above the c,- value and
                    # further above -,- and sc,-.
                    ok &= values[a.token] <= values[b.token] + 1e-6
    report(9, "vanishing capacity monotone along the state-information order", ok)


def test_criterion_note_han_sato_rate(han_sato_stats):
    rng = np.random.default_rng(7)
    trial = han_sato_trial(ch_ex1(), SiModel.from_token("-,-"), 4, n1=HS_N1)
    ack = trial.run(rng.integers(16, size=2000), rng)[2]
    phase1_error = 1 - ack.mean()
    phase1_rate = 4 / HS_N1
    ok = phase1_error <= 0.1
    ok &= han_sato_stats.rate_bits_per_use >= 0.8 * phase1_rate
    report(
        9,
        f"note: two-phase empirical rate {han_sato_stats.rate_bits_per_use:.4f} >= "
        f"0.8 x phase-1 rate {phase1_rate} at phase-1 error {phase1_error:.3f}",
        ok,
    )
