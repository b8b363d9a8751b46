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
    joint_output_channel,
    mutual_information,
    positivity,
    shannon_strategy_capacity,
    shannon_strategy_channel,
    shannon_zef_fl_capacity,
    vanishing_capacity,
    zero_error_capacity,
)
import sdchan.capacity
from sdchan.capacity import BA_TOL, GP_TOL
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


def _reference_blahut_arimoto(W, max_iter):
    """The same adaptive-step ascent with one relative entropy per input, in a Python loop.

    Each input's terms are summed over its whole row, structural zeros
    included, so the sum rounds as the array expression's does: the accept
    rule compares lower bounds that differ by a few ulps near convergence.
    """
    nx, ny = W.shape

    def bounds(r):
        q_y = r @ W
        d = np.zeros(nx)
        for x in range(nx):
            mask = W[x] > 0
            terms = np.zeros(ny)
            terms[mask] = W[x, mask] * (np.log2(W[x, mask]) - np.log2(q_y[mask]))
            d[x] = terms.sum()
        return float(r @ d), float(d.max()), d

    r = np.full(nx, 1.0 / nx)
    lower, upper, d = bounds(r)
    iterations, mu = 1, 1.0
    while upper - lower >= BA_TOL and iterations < max_iter:
        scaled = r * np.exp2(mu * (d - d.max()))
        trial = scaled / scaled.sum()
        t_lower, t_upper, t_d = bounds(trial)
        iterations += 1
        if mu == 1.0 or (t_lower >= lower and t_upper - t_lower <= upper - lower):
            r, lower, upper, d = trial, t_lower, t_upper, t_d
            mu *= 2.0
        else:
            mu = 1.0
    value = max(lower, 0.0)
    return value, max(upper - value, 0.0), iterations


def _fixed_step_blahut_arimoto(W, max_iter=100_000):
    """Blahut-Arimoto with the classic fixed step: the bracket [value, value + gap]."""
    support = W > 0
    with np.errstate(divide="ignore"):
        log2_W = np.log2(W)
    r = np.full(W.shape[0], 1.0 / W.shape[0])
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(support, W * (log2_W - np.log2(r @ W)), 0.0).sum(axis=1)
        lower = float(r @ d)
        gap = float(d.max()) - lower
        if gap < BA_TOL:
            break
        scaled = r * np.exp2(d - d.max())
        r = scaled / scaled.sum()
    return max(lower, 0.0), gap


def _ba_matrices(ch):
    """The averaged, joint-output, strategy-lift and per-state matrices of ``ch``."""
    dmcs = [average_states(ch), joint_output_channel(ch), shannon_strategy_channel(ch)[0]]
    return dmcs + [Dmc(W=ch.W[s]) for s in range(ch.ns)]


def _ba_partial(dmc, **kwargs):
    try:
        return blahut_arimoto(dmc, **kwargs)
    except NoConvergence as e:
        return e.result


def test_ba_matches_per_input_loop(rng):
    # Random channels with structural zeros.  The iteration cap keeps the
    # loop reference quick; a capped run is compared through its partial
    # result.
    max_iter = 300
    for _ in range(50):
        for dmc in _ba_matrices(random_channel(rng)):
            r = _ba_partial(dmc, max_iter=max_iter)
            value, gap, iterations = _reference_blahut_arimoto(dmc.W, max_iter)
            assert r.iterations == iterations
            assert abs(r.value - value) <= 1e-15
            assert abs(r.certified_gap - gap) <= 1e-15


def test_ba_gap_never_negative_at_an_exact_optimum():
    # The uniform input is optimal on the noisy typewriter, and there
    # max_x D(W_x || rW) rounds an ulp below I(r).
    W = np.zeros((1, 5, 5))
    for x in range(5):
        W[0, x, x] = 0.9
        W[0, x, (x + 1) % 5] = 0.1
    typewriter = SdDmc(W=W, Q=[1.0])
    for token in ("-,-", "c,-", "sc,c", "c,c"):
        r = vanishing_capacity(typewriter, SiModel.from_token(token))
        assert r.iterations == 1
        assert r.certified_gap >= 0.0, token


def test_ba_bracket_overlaps_fixed_step_bracket(rng):
    # Both brackets certify the same capacity, so they must meet; the slack
    # covers rounding in the two bound evaluations.
    for _ in range(50):
        for dmc in _ba_matrices(random_channel(rng)):
            r = _ba_partial(dmc)
            value, gap = _fixed_step_blahut_arimoto(dmc.W)
            assert r.value <= value + gap + 1e-12
            assert value <= r.value + r.certified_gap + 1e-12


def test_ba_adaptive_step_on_near_useless_matrix():
    # A 2x2 matrix with nearly equal rows: the fixed step needs 25,854
    # iterations to close the gap below BA_TOL.
    r = blahut_arimoto(Dmc(W=[[0.7395, 0.2605], [0.7249, 0.2751]]))
    assert r.iterations <= 1_000
    assert r.certified_gap < BA_TOL


def test_values_never_decrease_with_max_iter(rng):
    # The ascent accepts no extrapolation that lowers the lower bound, and
    # the value reported at a cap is the one of the point reached there.
    # The plain step ascends in exact arithmetic; near convergence its lower
    # bounds move by less than rounding, so drops of a few ulps (at most
    # 1e-15 for values of a few bits) are allowed.
    for _ in range(4):
        ch = random_channel(rng)
        dmcs = _ba_matrices(ch)
        ba = [[_ba_partial(dmc, max_iter=k).value for dmc in dmcs] for k in range(1, 31)]
        gp = [gelfand_pinsker_capacity(ch, max_iter=k).value for k in range(1, 31)]
        assert np.all(np.diff(np.array(ba), axis=0) >= -1e-15)
        assert np.all(np.diff(gp) >= -1e-15)


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
    # The non-causal encoder can use the averaged channel's code or any
    # strategy-lift code, so its certified upper end covers both capacities.
    for _ in range(5):
        ch = random_channel(rng)
        gp = gelfand_pinsker_capacity(ch)
        upper = gp.value + gp.certified_gap
        try:
            lift = shannon_strategy_capacity(ch)
        except NoConvergence as e:
            lift = e.result
        assert upper >= blahut_arimoto(average_states(ch)).value - 1e-12
        assert upper >= lift.value - 1e-12


def test_gp_makes_no_blahut_arimoto_call(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("gelfand_pinsker_capacity called blahut_arimoto")

    monkeypatch.setattr(sdchan.capacity, "blahut_arimoto", refuse)
    for _ in range(3):
        r = gelfand_pinsker_capacity(random_channel(rng))
        assert r.method == "gp_ascent"
    assert vanishing_capacity(ch_ex1(), SiModel.from_token("nc,-")).method == "gp_ascent"


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
    for _ in range(12):
        ch = random_channel(rng)
        r = gelfand_pinsker_capacity(ch)
        assert r.certified_gap >= 0.0
        assert r.method == "gp_ascent"
        rebuilt = _gp_objective_by_entropies(ch, r.maximizer["P_U_given_S"], r.maximizer["f"])
        assert abs(rebuilt - r.value) < 1e-12


def test_gp_maximizer_matches_value_at_iteration_cap(rng):
    # At max_iter the reported P(u|s) is the point whose bracket is reported.
    for _ in range(6):
        ch = random_channel(rng)
        r = gelfand_pinsker_capacity(ch, max_iter=3)
        rebuilt = _gp_objective_by_entropies(ch, r.maximizer["P_U_given_S"], r.maximizer["f"])
        assert abs(rebuilt - r.value) < 1e-12


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


def _reference_gp_ascent(ch, max_iter):
    """The same adaptive-step GP ascent with max-shifted log-sum-exps and einsums.

    Returns (value, gap, capped) as ``gelfand_pinsker_capacity`` reports them.
    """
    _, letters = shannon_strategy_channel(ch)
    T = ch.W[np.arange(ch.ns), np.array(letters)]
    _, first = np.unique(T.reshape(len(letters), -1), axis=0, return_index=True)
    T = T[np.sort(first)]
    with np.errstate(divide="ignore"):
        log_T = np.log(T)
        log_Q = np.log(ch.Q)
    support = (T > 0).any(axis=1)

    def logsumexp(x, axis):
        m = x.max(axis=axis, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            return np.log(np.exp(x - m).sum(axis=axis)) + np.squeeze(m, axis=axis)

    def bounds(log_P):
        log_p_uy = logsumexp(log_T + (log_P + log_Q)[:, :, None], axis=1)
        with np.errstate(invalid="ignore"):
            log_q = np.where(support, log_p_uy - logsumexp(log_p_uy, axis=0), 0.0)
        a = np.einsum("usy,uy->us", T, log_q)
        g = a - log_P
        lower = float(np.einsum("us,us,s->", np.exp(log_P), g, ch.Q) / np.log(2))
        return lower, float(ch.Q @ g.max(axis=0) / np.log(2)), a, g

    log_P = np.full((len(T), ch.ns), -np.log(len(T)))
    lower, upper, a, g = bounds(log_P)
    iterations, mu = 1, 1.0
    while upper - lower >= GP_TOL and iterations < max_iter:
        x = a + (mu - 1.0) * g
        trial = x - logsumexp(x, axis=0)
        t_lower, t_upper, t_a, t_g = bounds(trial)
        iterations += 1
        if mu == 1.0 or (t_lower >= lower and t_upper - t_lower <= upper - lower):
            log_P, lower, upper, a, g = trial, t_lower, t_upper, t_a, t_g
            mu *= 2.0
        else:
            mu = 1.0
    value = max(lower, 0.0)
    return value, max(upper - value, 0.0), upper - lower >= GP_TOL


def test_gp_ascent_matches_log_sum_exp_reference():
    # Seeded random channels, criterion 9's draw 70 (letter masses underflow)
    # and a channel with an output no input reaches.  The cap keeps the
    # reference quick; a few draws stop at it.
    rng = np.random.default_rng(15)
    channels = [random_channel(rng) for _ in range(30)]
    rng = np.random.default_rng(909)
    for _ in range(71):
        draw_70 = random_channel(rng)
    W = np.zeros((2, 2, 3))
    W[:, :, :2] = ch_ex1().W
    channels += [draw_70, SdDmc(W=W, Q=ch_ex1().Q)]
    for ch in channels:
        r = gelfand_pinsker_capacity(ch, max_iter=3_000)
        value, gap, capped = _reference_gp_ascent(ch, max_iter=3_000)
        assert r.value <= value + gap + 1e-12
        assert value <= r.value + r.certified_gap + 1e-12
        assert abs(r.value - value) < GP_TOL
        assert bool(r.warnings) == capped


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
    # -,c under variable length: only a sufficient condition is known, so a
    # positive_sufficient verdict (ch_ex1) and an unknown one (ch_ex3) are
    # both refused.
    decoder_only = SiModel.from_token("-,c")
    for channel, decision in ((ch_ex1(), "positive_sufficient"), (ch_ex3(), "unknown")):
        assert positivity(channel, decoder_only, Regime.VARIABLE_LENGTH).decision == decision
        with pytest.raises(UnsupportedModel, match="decoder-only-causal model cannot be certified"):
            zero_error_capacity(channel, decoder_only, Regime.VARIABLE_LENGTH)
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
