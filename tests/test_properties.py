"""Randomized invariants over the checker lattice and the channel reductions."""

import numpy as np
import pytest

from sdchan import (
    BudgetExceeded,
    Dmc,
    POSITIVE,
    POSITIVE_SUFFICIENT,
    PrecondFailed,
    SdDmc,
    SiModel,
    UNKNOWN,
    UnsupportedModel,
    ZERO,
    average_states,
    bl_positivity,
    check_dmc_fl_feedback,
    check_dmc_vl,
    check_nocvlpos,
    joint_output_channel,
    shannon_strategy_channel,
    verify_witness,
    vl_positivity,
)
from sdchan.protocols import PROTOCOLS
from conftest import ch_ex3, random_channel

N_CHANNELS = 500
SI_TOKENS = ("-,-", "sc,-", "c,-", "nc,-", "sc,c", "c,c", "nc,c", "nc,nc")
SI_ALL = [SiModel.from_token(t) for t in SI_TOKENS]
DEC_ONLY = SiModel.from_token("-,c")


def channels():
    rng = np.random.default_rng(77)
    return [random_channel(rng) for _ in range(N_CHANNELS)]


def drop_empty_columns(dmc: Dmc) -> Dmc:
    keep = np.flatnonzero((dmc.W != 0.0).any(axis=0))
    return Dmc(W=dmc.W[:, keep], y_labels=tuple(dmc.y_labels[y] for y in keep))


def test_vl_condition_implication_chain():
    for ch in channels():
        d1 = vl_positivity(ch, SiModel.from_token("-,-")).decision
        d2 = vl_positivity(ch, SiModel.from_token("c,-")).decision
        d3 = vl_positivity(ch, SiModel.from_token("c,c")).decision
        if d1 == POSITIVE:
            assert d2 == POSITIVE
        if d2 == POSITIVE:
            assert d3 == POSITIVE


def test_vl_si_lattice_monotone():
    for ch in channels():
        verdicts = {si.token: vl_positivity(ch, si).decision for si in SI_ALL}
        for a in SI_ALL:
            for b in SI_ALL:
                if a <= b and verdicts[a.token] == POSITIVE:
                    assert verdicts[b.token] == POSITIVE, (a.token, b.token)


def test_bl_si_lattice_monotone():
    for ch in channels():
        verdicts = {si.token: bl_positivity(ch, si).decision for si in SI_ALL}
        for a in SI_ALL:
            for b in SI_ALL:
                if a <= b and verdicts[a.token] == POSITIVE:
                    assert verdicts[b.token] == POSITIVE, (a.token, b.token)


def test_bl_implies_vl():
    for ch in channels():
        for si in SI_ALL:
            if bl_positivity(ch, si).decision == POSITIVE:
                assert vl_positivity(ch, si).decision == POSITIVE, si.token
        if bl_positivity(ch, DEC_ONLY).decision == POSITIVE:
            assert vl_positivity(ch, DEC_ONLY).decision == POSITIVE_SUFFICIENT


def test_single_state_collapse():
    rng = np.random.default_rng(78)
    count = 0
    while count < 100:
        ch = random_channel(rng)
        if ch.ns != 1:
            continue
        count += 1
        avg = average_states(ch)
        dmc_vl = check_dmc_vl(avg).decision
        dmc_fl = check_dmc_fl_feedback(avg).decision
        for si in SI_ALL:
            assert vl_positivity(ch, si).decision == dmc_vl
            assert bl_positivity(ch, si).decision == dmc_fl
        expected = POSITIVE_SUFFICIENT if dmc_vl == POSITIVE else UNKNOWN
        assert vl_positivity(ch, DEC_ONLY).decision == expected
        assert bl_positivity(ch, DEC_ONLY).decision == dmc_fl


def test_strategy_lift_equivalence():
    for ch in channels():
        lifted, _ = shannon_strategy_channel(ch)
        assert (
            vl_positivity(ch, SiModel.from_token("c,-")).decision
            == check_dmc_vl(lifted).decision
        )


def _answer(verdict):
    return verdict.decision, verdict.witness


def test_joint_output_equivalences():
    # Under bounded length, sc,c and -,c decide on the joint-output DMC's
    # support: the verdict is that DMC's verdict, witness included.
    for ch in channels():
        joint = joint_output_channel(ch)
        assert (
            vl_positivity(ch, SiModel.from_token("c,c")).decision
            == check_dmc_vl(drop_empty_columns(joint)).decision
        )
        for token in ("sc,c", "-,c"):
            assert _answer(bl_positivity(ch, SiModel.from_token(token))) == _answer(check_dmc_fl_feedback(joint)), token


def test_averaged_equivalences():
    # -,- and sc,- decide on the averaged DMC's support in both regimes:
    # the verdict is that DMC's verdict, witness included.
    for ch in channels():
        avg = average_states(ch)
        for token in ("-,-", "sc,-"):
            si = SiModel.from_token(token)
            assert _answer(vl_positivity(ch, si)) == _answer(check_dmc_vl(avg)), token
            assert _answer(bl_positivity(ch, si)) == _answer(check_dmc_fl_feedback(avg)), token


def test_vl_pos1_implies_state_group_witness():
    for ch in channels():
        if vl_positivity(ch, SiModel.from_token("-,-")).decision == POSITIVE:
            witness = check_nocvlpos(ch)
            assert witness is not None
            assert vl_positivity(ch, DEC_ONLY).decision == POSITIVE_SUFFICIENT


def test_witness_soundness():
    for ch in channels():
        for si in SI_ALL + [DEC_ONLY]:
            for verdict in (vl_positivity(ch, si), bl_positivity(ch, si)):
                assert verify_witness(ch, verdict), (si.token, verdict.condition)


def underflow_channels(n=600):
    """Random channels; in every third, some structural zeros become 1e-200
    entries and state 0 gets probability 1e-250, so Q(s) W(y|x,s) underflows
    to 0.0 where the support pattern says y is reachable."""
    rng = np.random.default_rng(43)
    out = []
    for i in range(n):
        ch = random_channel(rng)
        if i % 3 == 0:
            W = np.where((ch.W == 0.0) & (rng.random(ch.W.shape) < 0.5), 1e-200, ch.W)
            Q = ch.Q.copy()
            if ch.ns > 1:
                Q[0] = 1e-250
            ch = SdDmc(W=W, Q=Q)
        out.append(ch)
    return out


def _admits(factory, *args) -> bool:
    """True when the factory builds its trial, False when a precondition fails."""
    try:
        factory(*args)
    except BudgetExceeded:
        pass  # admitted, but its rounds stop too rarely to run
    except PrecondFailed:
        return False
    return True


def test_protocol_admission_agrees_with_positivity():
    # Each factory admits a protocol once, on the channel it runs on: it must
    # agree with the positivity checker on every model it serves, and refuse
    # the decoder-only model except for theorem5.  ex3 has a disprover output
    # on its joint-output channel, yet its -,c verdict is unknown.
    for ch in underflow_channels() + [ch_ex3()]:
        for si in SI_ALL:
            positive = vl_positivity(ch, si).decision == POSITIVE
            assert _admits(PROTOCOLS["disprover"], ch, si) == positive, si.token
            assert _admits(PROTOCOLS["han-sato"], ch, si, 1) == positive, si.token
        for name, args in (("disprover", ()), ("han-sato", (1,))):
            with pytest.raises(UnsupportedModel):
                PROTOCOLS[name](ch, DEC_ONLY, *args)
        assert _admits(PROTOCOLS["theorem5"], ch) == (check_nocvlpos(ch) is not None)
