import numpy as np
import pytest

from sdchan import (
    Dmc,
    NoConvergence,
    Regime,
    SdDmc,
    SiModel,
    UnsupportedModel,
    average_states,
    blahut_arimoto,
    capacity_cond_iid,
    gelfand_pinsker_capacity,
    mutual_information,
    shannon_strategy_capacity,
    shannon_strategy_channel,
    shannon_zef_fl_capacity,
    vanishing_capacity,
    zero_error_capacity,
)
from sdchan.capacity import GP_TOL
from conftest import bsc, ch_ex1, ch_ex2, ch_ex3, ch_triv, pentagon, random_channel

SI_ALL = [SiModel.from_token(t) for t in ("-,-", "sc,-", "c,-", "nc,-", "sc,c", "c,c", "nc,c", "nc,nc")]


def h2(p: float) -> float:
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def test_ba_identity():
    r = blahut_arimoto(average_states(ch_triv()))
    assert abs(r.value - 1.0) < 1e-9
    assert r.certified_gap < 1e-9


def test_ba_bsc_closed_form():
    r = blahut_arimoto(bsc(0.11))
    assert abs(r.value - (1 - h2(0.11))) < 1e-6


def test_ba_bsc_half_zero():
    assert blahut_arimoto(average_states(ch_ex2())).value < 1e-9


def test_ba_lower_bound_vs_feasible_points(rng):
    for _ in range(10):
        dmc = average_states(random_channel(rng))
        cap = blahut_arimoto(dmc).value
        for _ in range(5):
            p = rng.dirichlet(np.ones(dmc.nx))
            assert cap >= mutual_information(p, dmc.W) - 1e-9


def test_ba_no_convergence_returns_partial():
    z = Dmc(W=[[1.0, 0.0], [0.25, 0.75]])
    with pytest.raises(NoConvergence) as exc:
        blahut_arimoto(z, max_iter=1)
    partial = exc.value.result
    assert partial.value >= 0.0
    assert partial.certified_gap > 1e-9


def test_cond_iid_ex2_both_flags():
    assert abs(capacity_cond_iid(ch_ex2(), True).value - 1.0) < 1e-8
    assert abs(capacity_cond_iid(ch_ex2(), False).value - 1.0) < 1e-8


def test_cond_iid_ex3_closed_form():
    expected = 0.5 * (1 - h2(0.11)) + 0.5
    r = capacity_cond_iid(ch_ex3(p=0.11, q=0.5), True)
    assert abs(r.value - expected) < 1e-6
    assert r.method == "per_state_blahut_arimoto"


def test_cond_iid_triv():
    assert abs(capacity_cond_iid(ch_triv(), True).value - 1.0) < 1e-8
    assert abs(capacity_cond_iid(ch_triv(), False).value - 1.0) < 1e-8


def test_strategy_capacity_triv():
    assert abs(shannon_strategy_capacity(ch_triv()).value - 1.0) < 1e-8


def test_strategy_capacity_ex2_noiseless():
    # The strategy that pre-flips the input in the flip state makes the
    # channel deterministic, so causal encoder knowledge buys a full bit.
    r = shannon_strategy_capacity(ch_ex2())
    assert abs(r.value - 1.0) < 1e-8
    lifted, letters = shannon_strategy_channel(ch_ex2())
    assert np.array_equal(lifted.W[letters.index((0, 1))], [0.0, 1.0])


def test_strategy_dominates_averaged_ex1():
    strat = shannon_strategy_capacity(ch_ex1()).value
    avg = blahut_arimoto(average_states(ch_ex1())).value
    assert strat >= avg - 1e-9


def test_gp_single_state_reduces_to_ba(rng):
    for _ in range(5):
        ch = random_channel(rng)
        if ch.ns != 1:
            ch = SdDmc(W=ch.W[:1], Q=[1.0])
        gp = gelfand_pinsker_capacity(ch).value
        ba = blahut_arimoto(average_states(ch)).value
        assert abs(gp - ba) < 1e-5


def test_gp_dominated_by_two_sided_si():
    gp = gelfand_pinsker_capacity(ch_ex3(p=0.11, q=0.5)).value
    both = capacity_cond_iid(ch_ex3(p=0.11, q=0.5), True).value
    assert gp <= both + 1e-6


def test_gp_floor_on_averaged(rng):
    for _ in range(5):
        ch = random_channel(rng)
        gp = gelfand_pinsker_capacity(ch).value
        avg = blahut_arimoto(average_states(ch)).value
        assert gp >= avg - 1e-6


def _gp_objective_by_entropies(ch, P_u_given_s, f):
    """I(U;Y) - I(U;S) in bits, from the joint law of (S, U, Y) built entry by entry."""
    joint = np.zeros((ch.ns, len(f), ch.ny))
    for s in range(ch.ns):
        for u, letter in enumerate(f):
            joint[s, u] = ch.Q[s] * P_u_given_s[s][u] * ch.W[s, letter[s]]

    def H(*summed_axes):
        p = joint.sum(axis=summed_axes).ravel()
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    # I(U;Y) - I(U;S) = [H(U) + H(Y) - H(U,Y)] - [H(U) + H(S) - H(S,U)]
    return H(0, 1) - H(0) - H(1, 2) + H(2)


def test_gp_value_rebuilt_from_maximizer(rng):
    checked = 0
    for _ in range(12):
        ch = random_channel(rng)
        r = gelfand_pinsker_capacity(ch)
        assert r.certified_gap >= 0.0
        if r.method != "gp_ascent":
            continue  # a floor won; its maximizer is that floor's
        checked += 1
        rebuilt = _gp_objective_by_entropies(ch, r.maximizer["P_U_given_S"], r.maximizer["f"])
        assert abs(rebuilt - r.value) < 1e-12
    assert checked >= 4


def test_gp_ascent_converges_when_letter_masses_underflow():
    # Criterion 9's draw 70 (seed 909): some P(u|s) fall below 1e-308 after
    # about 400 steps, long before the gap closes.  Kept in the log domain
    # they stay dead; a letter whose posterior were reset would revive and
    # stall the gap.
    rng = np.random.default_rng(909)
    for _ in range(71):
        ch = random_channel(rng)
    r = gelfand_pinsker_capacity(ch)
    assert r.certified_gap < GP_TOL
    assert r.warnings == ()


def test_lp_identity():
    r = shannon_zef_fl_capacity(average_states(ch_triv()))
    assert abs(r.value - 1.0) < 1e-9
    assert np.allclose(sorted(r.maximizer["P_X"]), [0.5, 0.5], atol=1e-7)


def test_lp_pentagon():
    # Inputs 0 and 2 are non-confusable, so the guard passes and the
    # minimax program gives the classic log2(5/2).
    r = shannon_zef_fl_capacity(pentagon())
    assert r.verdict.decision == "positive"
    assert abs(r.value - np.log2(2.5)) < 1e-6


def test_lp_guard_and_diagnostic_flag():
    # Triangle of pairwise-confusable inputs: the capacity is 0, while the
    # raw program value stays positive and is available as a diagnostic.
    tri = Dmc(W=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    guarded = shannon_zef_fl_capacity(tri)
    assert guarded.value == 0.0
    assert guarded.verdict.decision == "zero"
    lifted = shannon_zef_fl_capacity(tri, ignore_positivity=True)
    assert abs(lifted.value - np.log2(1.5)) < 1e-6


def test_lp_one_hot():
    r = shannon_zef_fl_capacity(Dmc(W=np.eye(3)))
    assert abs(r.value - np.log2(3)) < 1e-9


def test_vanishing_dispatch_values():
    assert vanishing_capacity(ch_ex2(), SiModel.from_token("-,-")).value < 1e-9
    assert abs(vanishing_capacity(ch_ex2(), SiModel.from_token("sc,c")).value - 1.0) < 1e-8
    for si in SI_ALL:
        assert abs(vanishing_capacity(ch_triv(), si).value - 1.0) < 1e-6


def test_vanishing_decoder_only_equals_strictly_causal_pair():
    a = vanishing_capacity(ch_ex3(p=0.11, q=0.5), SiModel.from_token("-,c"))
    b = vanishing_capacity(ch_ex3(p=0.11, q=0.5), SiModel.from_token("sc,c"))
    assert a.value == b.value  # identical code path
    assert abs(a.value - (0.5 * (1 - h2(0.11)) + 0.5)) < 1e-6


def test_zero_error_ex1_equals_vanishing():
    z = zero_error_capacity(ch_ex1(), SiModel.from_token("-,-"), Regime.VARIABLE_LENGTH)
    v = blahut_arimoto(average_states(ch_ex1()))
    assert z.value == v.value
    assert z.value > 0
    assert z.verdict.decision == "positive"


def test_zero_error_ex1_full_si_bounded_zero():
    z = zero_error_capacity(ch_ex1(), SiModel.from_token("nc,nc"), Regime.BOUNDED_LENGTH)
    assert z.value == 0.0
    assert z.verdict.decision == "zero"


def test_zero_error_triv_everywhere():
    for si in SI_ALL:
        for regime in (Regime.BOUNDED_LENGTH, Regime.VARIABLE_LENGTH):
            assert abs(zero_error_capacity(ch_triv(), si, regime).value - 1.0) < 1e-6


def test_zero_error_unsupported_cases():
    with pytest.raises(UnsupportedModel):
        zero_error_capacity(ch_ex1(), SiModel.from_token("-,-"), Regime.FIXED_LENGTH)
    with pytest.raises(UnsupportedModel):
        zero_error_capacity(ch_ex1(), SiModel.from_token("-,c"), Regime.VARIABLE_LENGTH)
    # Bounded-length decoder-only-causal is supported (it matches sc,c).
    z = zero_error_capacity(ch_ex2(), SiModel.from_token("-,c"), Regime.BOUNDED_LENGTH)
    assert abs(z.value - 1.0) < 1e-8


def test_capacity_sanity_cap(rng):
    for _ in range(10):
        ch = random_channel(rng)
        cap = np.log2(min(ch.nx, ch.ny)) + np.log2(ch.ns)
        for si in SI_ALL:
            assert vanishing_capacity(ch, si).value <= cap + 1e-6


def test_maximizer_on_simplex(rng):
    for _ in range(5):
        dmc = average_states(random_channel(rng))
        p = np.array(blahut_arimoto(dmc).maximizer["P_X"])
        assert abs(p.sum() - 1.0) < 1e-9 and np.all(p >= -1e-12)
