import importlib
import tracemalloc

import numpy as np
import pytest

from sdchan import (
    BudgetExceeded,
    Dmc,
    POSITIVE,
    POSITIVE_SUFFICIENT,
    Regime,
    SdDmc,
    SiModel,
    UNKNOWN,
    UnsupportedModel,
    Verdict,
    ZERO,
    average_states,
    bl_positivity,
    check_dmc_fl_feedback,
    check_dmc_vl,
    check_nocvlpos,
    partition_exists,
    positivity,
    verify_witness,
    vl_positivity,
    zero_error_capacity,
)
from conftest import bsc, ch_ex1, ch_ex2, ch_ex3, ch_triv, pentagon, random_channel

SI_ALL = [SiModel.from_token(t) for t in ("-,-", "sc,-", "c,-", "nc,-", "sc,c", "c,c", "nc,c", "nc,nc")]


def test_dmc_vl_identity():
    v = check_dmc_vl(average_states(ch_triv()))
    assert v.decision == POSITIVE
    assert v.witness == {"kind": "letters", "x": 0, "y": 1}


def test_dmc_vl_bsc_zero():
    assert check_dmc_vl(bsc(0.3)).decision == ZERO


def test_dmc_vl_unreachable_column_disproves_nothing():
    # Output 2 is reachable from no input, and inputs 0 and 1 are equal, so
    # the capacity is zero; the zero column is no disprover.
    dmc = Dmc(W=[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    v = check_dmc_vl(dmc)
    assert v.decision == ZERO and v.witness is None
    forged = Verdict(POSITIVE, "dmc_disprover", {"kind": "letters", "x": 0, "y": 2})
    assert verify_witness(dmc, forged) is False


def test_dmc_vl_averaged_ex1():
    v = check_dmc_vl(average_states(ch_ex1()))
    assert v.decision == POSITIVE
    assert (v.witness["x"], v.witness["y"]) == (0, 1)


def test_dmc_fl_identity():
    v = check_dmc_fl_feedback(average_states(ch_triv()))
    assert v.decision == POSITIVE
    assert (v.witness["x"], v.witness["x_prime"]) == (0, 1)


def test_dmc_fl_averaged_ex1_zero():
    assert check_dmc_fl_feedback(average_states(ch_ex1())).decision == ZERO


def test_dmc_fl_pentagon_positive():
    # Non-adjacent inputs of the pentagon have disjoint supports.
    v = check_dmc_fl_feedback(pentagon())
    assert v.decision == POSITIVE
    assert (v.witness["x"], v.witness["x_prime"]) == (0, 2)


def test_dmc_fl_triangle_zero():
    # Three inputs whose supports pairwise intersect: {0,1}, {1,2}, {0,2}.
    W = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
        ]
    )
    from sdchan import Dmc

    assert check_dmc_fl_feedback(Dmc(W=W)).decision == ZERO


def test_vl_ex1_no_si():
    v = vl_positivity(ch_ex1(), SiModel.from_token("-,-"))
    assert v.decision == POSITIVE
    assert v.witness == {"kind": "letters", "x": 0, "y": 1}
    assert verify_witness(ch_ex1(), v)


def test_vl_disprover_needs_a_reachable_output():
    # Output 2 is reachable from no input and inputs 0 and 1 are equal, so
    # the capacity is zero; the all-zero column disproves nothing.
    ch = SdDmc(W=[[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]], Q=[1.0])
    for token in ("-,-", "sc,-", "c,-", "nc,-"):
        v = vl_positivity(ch, SiModel.from_token(token))
        assert v.decision == ZERO and v.witness is None, token
    for condition, witness in (("all_state_disprover", {"kind": "letters", "x": 0, "y": 2}),
                               ("strategy_disprover", {"kind": "strategy", "y": 2, "u": [0]})):
        assert verify_witness(ch, Verdict(POSITIVE, condition, witness)) is False


def test_zero_probability_state_supports_nothing():
    # State 1 (the identity) never occurs; only the BSC state does.
    ch = SdDmc(W=[[[0.7, 0.3], [0.3, 0.7]], np.eye(2)], Q=[1.0, 0.0])
    for token in ("sc,c", "c,c", "nc,c", "nc,nc"):
        si = SiModel.from_token(token)
        assert vl_positivity(ch, si).decision == ZERO, token
        assert zero_error_capacity(ch, si, Regime.VARIABLE_LENGTH).value == 0.0
    forged = Verdict(POSITIVE, "in_state_disprover", {"kind": "letters", "x": 0, "x_prime": 1, "y": 1, "s": 1})
    assert verify_witness(ch, forged) is False


def test_vl_ex3_two_sided():
    v = vl_positivity(ch_ex3(p=0.3, q=0.5), SiModel.from_token("sc,c"))
    assert v.decision == POSITIVE
    assert v.condition == "in_state_disprover"
    assert v.witness == {"kind": "letters", "x": 1, "x_prime": 0, "y": 0, "s": 1}


def test_vl_ex3_decoder_only_unknown():
    v = vl_positivity(ch_ex3(), SiModel.from_token("-,c"))
    assert v.decision == UNKNOWN
    assert v.witness is None


def test_vl_ex1_decoder_only_sufficient():
    v = vl_positivity(ch_ex1(), SiModel.from_token("-,c"))
    assert v.decision == POSITIVE_SUFFICIENT
    assert verify_witness(ch_ex1(), v)


def test_vl_strategy_witness():
    # A channel where no (x, y) is zero in all states, but per state some
    # input always avoids y=1, so a strategy letter is the witness.
    ch = SdDmc(
        W=[
            [[1.0, 0.0], [0.5, 0.5]],
            [[0.5, 0.5], [1.0, 0.0]],
        ],
        Q=[0.5, 0.5],
    )
    assert vl_positivity(ch, SiModel.from_token("-,-")).decision == ZERO
    v = vl_positivity(ch, SiModel.from_token("c,-"))
    assert v.decision == POSITIVE
    assert v.witness == {"kind": "strategy", "y": 1, "u": [0, 1]}
    assert verify_witness(ch, v)


def test_bl_ex2_decoder_only():
    v = bl_positivity(ch_ex2(), SiModel.from_token("-,c"))
    assert v.decision == POSITIVE
    assert (v.witness["x"], v.witness["x_prime"]) == (0, 1)
    assert verify_witness(ch_ex2(), v)


def test_bl_ex1_full_si_zero():
    assert bl_positivity(ch_ex1(), SiModel.from_token("nc,nc")).decision == ZERO


def test_bl_triv_all_positive():
    for si in SI_ALL:
        assert bl_positivity(ch_triv(), si).decision == POSITIVE


def test_partition_ex2():
    assert partition_exists(ch_ex2()) == ((0,), (1,))


def test_partition_ex1_none():
    assert partition_exists(ch_ex1()) is None


def test_partition_uniform_none():
    ch = SdDmc(W=[[[0.5, 0.5], [0.5, 0.5]]], Q=[1.0])
    assert partition_exists(ch) is None


def test_partition_cap():
    ny = 21
    W = np.zeros((1, 2, ny))
    W[0, 0, :] = 1.0 / ny
    W[0, 1, :] = 1.0 / ny
    with pytest.raises(BudgetExceeded, match="partition search over 21 outputs exceeds the cap of 20"):
        partition_exists(SdDmc(W=W, Q=[1.0]))


def test_bl_ex2_causal_encoder_partition():
    v = bl_positivity(ch_ex2(), SiModel.from_token("c,-"))
    assert v.decision == POSITIVE
    assert v.condition == "output_partition"
    assert verify_witness(ch_ex2(), v)


def test_nocvlpos_ex1():
    w = check_nocvlpos(ch_ex1())
    assert w == {"kind": "state_group", "x": 0, "x_prime": 1, "y": 1, "states": [0, 1]}


def test_nocvlpos_ex3_none():
    assert check_nocvlpos(ch_ex3(p=0.3, q=0.5)) is None


def test_nocvlpos_ex2():
    w = check_nocvlpos(ch_ex2())
    assert w == {"kind": "state_group", "x": 0, "x_prime": 1, "y": 0, "states": [0]}


def test_regime_dispatch_fl_matches_bl(rng):
    for _ in range(15):
        ch = random_channel(rng)
        for si in SI_ALL:
            fl = positivity(ch, si, Regime.FIXED_LENGTH)
            bl = positivity(ch, si, Regime.BOUNDED_LENGTH)
            assert fl.decision == bl.decision
            assert fl.regime == "fl" and bl.regime == "bl"


def test_verdict_jsonable():
    v = vl_positivity(ch_ex1(), SiModel.from_token("-,-"))
    d = v.to_jsonable()
    assert d["decision"] == "positive" and d["si"] == "-,-" and d["regime"] == "vl"


def test_verify_witness_rejects_tampering():
    v = vl_positivity(ch_ex1(), SiModel.from_token("-,-"))
    from sdchan import Verdict

    forged = Verdict(v.decision, v.condition, {"kind": "letters", "x": 1, "y": 1}, v.si, v.regime)
    assert not verify_witness(ch_ex1(), forged)


def test_verify_witness_rejects_malformed_witnesses():
    # One forged witness per condition: a wrong kind, an index out of range
    # (negative indices would wrap around), a strategy of the wrong length,
    # or an extra field.  Each sound witness still verifies, as a Python bool.
    ex1, ex2, ex3, triv = ch_ex1(), ch_ex2(), ch_ex3(p=0.3, q=0.5), ch_triv()
    cases = [
        (average_states(ex1), check_dmc_vl, {"x": -2}),
        (average_states(triv), check_dmc_fl_feedback, {"x_prime": -1}),
        (ex1, "-,-/vl", {"x": -2}),
        (ex1, "c,-/vl", {"u": [0, -2, 5]}),
        (ex1, "c,-/vl", {"u": [0]}),
        (ex3, "sc,c/vl", {"s": -1}),
        (ex1, "-,c/vl", {"states": [0, 1, -1]}),
        (triv, "-,-/bl", {"kind": "strategy"}),
        (ex2, "c,-/bl", {"kind": "letters"}),
        (ex2, "c,-/bl", {"y1": []}),
        (ex2, "c,-/bl", {"y0": [0, 1]}),
        (triv, "nc,-/bl", {"pairs": {}}),
        (triv, "nc,-/bl", {"pairs": {"0,0": [0, -1]}}),
        (triv, "nc,-/bl", {"kind": "per_state_pairs"}),
        (ex2, "-,c/bl", {"x_prime": 3}),
        (ex2, "-,c/bl", {"kind": "state_group"}),
        (triv, "nc,nc/bl", {"pairs": {"0": [0, 1]}, "extra": 0}),
    ]
    conditions = set()
    for ch, how, change in cases:
        if isinstance(how, str):
            si, regime = how.split("/")
            v = positivity(ch, SiModel.from_token(si), Regime.from_token(regime))
        else:
            v = how(ch)
        assert verify_witness(ch, v) is True, v.condition
        forged = Verdict(v.decision, v.condition, {**v.witness, **change}, v.si, v.regime)
        assert verify_witness(ch, forged) is False, (v.condition, forged.witness)
        conditions.add(v.condition)
    assert len(conditions) == 11


def test_verify_witness_needs_a_witness_and_a_known_condition():
    v = vl_positivity(ch_ex1(), SiModel.from_token("-,-"))
    assert verify_witness(ch_ex1(), Verdict(POSITIVE, v.condition, None)) is False
    with pytest.raises(UnsupportedModel, match="unknown condition 'no_such_condition'"):
        verify_witness(ch_ex1(), Verdict(POSITIVE, "no_such_condition", v.witness))


def _loop_witness(ch, condition):
    """Reference loop search: the first witness fields in the documented scan order."""
    X, Y, S = range(ch.nx), range(ch.ny), range(ch.ns)
    def zero(s, x, y):
        return ch.W[s, x, y] == 0.0

    def first(found):
        return next(found, None)

    def support(x, s):
        return {y for y in Y if not zero(s, x, y)}

    def disjoint(x, s, x2, s2):
        return not support(x, s) & support(x2, s2)

    def pair_table(state_pairs):
        table = {}
        for key, s, s2 in state_pairs:
            pair = first([x, x2] for x in X for x2 in X if (x != x2 or s != s2) and disjoint(x, s, x2, s2))
            if pair is None:
                return None
            table[key] = pair
        return {"pairs": table}

    if condition == "dmc_disprover":
        avg = average_states(ch).W
        return first({"x": x, "y": y} for x in X for y in Y if avg[x, y] == 0.0 and avg[:, y].any())
    if condition in ("dmc_disjoint_pair", "averaged_disjoint_pair"):
        avg = average_states(ch).W != 0.0
        return first({"x": x, "x_prime": x2} for x in X for x2 in X if x < x2 and not (avg[x] & avg[x2]).any())
    if condition == "all_state_disprover":
        return first({"x": x, "y": y} for x in X for y in Y if all(zero(s, x, y) for s in S))
    if condition == "strategy_disprover":
        return first({"y": y, "u": [min(x for x in X if zero(s, x, y)) for s in S]}
                     for y in Y if all(any(zero(s, x, y) for x in X) for s in S))
    if condition == "in_state_disprover":
        return first({"x": x, "x_prime": x2, "y": y, "s": s} for y in Y for x in X for x2 in X for s in S
                     if x != x2 and zero(s, x, y) and not zero(s, x2, y))
    if condition == "state_group_disprover":
        found = first((x, x2, y, [s for s in S if not zero(s, x2, y)]) for x in X for x2 in X if x != x2 for y in Y
                      if any(not zero(s, x2, y) for s in S) and all(zero(s, x, y) for s in S if not zero(s, x2, y)))
        return None if found is None else dict(zip(("x", "x_prime", "y", "states"), found))
    if condition == "output_partition":
        for mask in range(1, 1 << (ch.ny - 1)):
            y1 = {y for y in Y if y > 0 and mask >> (y - 1) & 1}
            if all(any(support(x, s) <= y1 for x in X) and any(not support(x, s) & y1 for x in X) for s in S):
                return {"y0": [y for y in Y if y not in y1], "y1": sorted(y1)}
        return None
    if condition == "cross_state_disjoint_pairs":
        return pair_table([(f"{s},{s2}", s, s2) for s in S for s2 in S])
    if condition == "per_state_disjoint_pairs":
        return pair_table([(str(s), s, s) for s in S])
    assert condition == "all_state_disjoint_pair"
    return first({"x": x, "x_prime": x2} for x in X for x2 in X if x < x2 and all(disjoint(x, s, x2, s) for s in S))


def test_searches_match_loop_reference():
    def fields(v):
        return None if v.witness is None else {k: w for k, w in v.witness.items() if k != "kind"}

    rng = np.random.default_rng(5)
    for _ in range(150):
        ch = random_channel(rng, max_size=4)
        verdicts = [check_dmc_vl(average_states(ch)), check_dmc_fl_feedback(average_states(ch))]
        for si in SI_ALL + [SiModel.from_token("-,c")]:
            verdicts += [positivity(ch, si, Regime.VARIABLE_LENGTH), positivity(ch, si, Regime.BOUNDED_LENGTH)]
        for v in verdicts:
            assert fields(v) == _loop_witness(ch, v.condition), (v.si, v.condition)


def test_pair_searches_allocate_blocks_not_pairs():
    # 5,000 inputs whose supports all overlap: every search scans all its
    # pairs and finds none.  Unblocked, the pair searches peaked at 72-143 MiB.
    module = importlib.import_module("sdchan.positivity")
    ch = SdDmc(W=np.full((1, 5000, 2), 0.5), Q=[1.0])
    bound = 4 * module.MAX_BLOCK_BYTES + 16 * ch.W.nbytes
    for si in SI_ALL + [SiModel.from_token("-,c")]:
        for regime in Regime:
            tracemalloc.start()
            try:
                verdict = positivity(ch, si, regime)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert verdict.witness is None
            assert peak <= bound, (si.token, regime.value, peak)


@pytest.mark.parametrize("block_bytes", [1, 16])
def test_blocked_searches_match_one_block(monkeypatch, block_bytes):
    # The default constant holds these small channels in one block; a tiny
    # one splits every search into blocks of one or a few leading indices.
    def verdicts(ch):
        out = [check_dmc_fl_feedback(average_states(ch)), check_nocvlpos(ch)]
        for si in SI_ALL + [SiModel.from_token("-,c")]:
            out += [positivity(ch, si, regime) for regime in Regime]
        return out

    rng = np.random.default_rng(24)
    channels = [random_channel(rng, max_size=4, zero_prob=zero_prob) for zero_prob in (0.3, 0.6) for _ in range(60)]
    whole = [verdicts(ch) for ch in channels]
    monkeypatch.setattr(importlib.import_module("sdchan.positivity"), "MAX_BLOCK_BYTES", block_bytes)
    assert [verdicts(ch) for ch in channels] == whole
