import bisect
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdchan import (
    BudgetExceeded,
    Dmc,
    PrecondFailed,
    SdDmc,
    SiModel,
    Trace,
    UnsupportedModel,
    average_states,
    joint_output_channel,
    monte_carlo,
    reduced_dmc,
    shannon_strategy_channel,
)
from sdchan.positivity import MAX_BLOCK_BYTES, POSITIVE, Verdict, check_nocvlpos
import sdchan.protocols
from sdchan.protocols import (
    CHUNK_TRIALS, MAX_CODEBOOK_ENTRIES, _cdf, _codebooks, _distinct_codewords, _sample, disprover_trial,
    han_sato_trial, run_disprover_bit, run_han_sato, run_theorem5_bit, theorem5_trial,
)
from conftest import bsc, ch_ex1, ch_ex2, ch_ex3, ch_triv, random_channel


def _draw(probs, rng):
    """One inverse-CDF draw from the row ``probs``, on one ``rng.random()``."""
    return int(_sample(_cdf(probs), rng.random()))


def test_step_deterministic_row():
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert _draw(ch_triv().W[0, 0], rng) == 0
        assert _draw(ch_ex2().W[0, 0], rng) == 1  # flip state


def test_step_frequency():
    rng = np.random.default_rng(2)
    n = 100_000
    hits = sum(_draw(ch_ex1().W[0, 1], rng) == 1 for _ in range(n))
    assert abs(hits / n - 0.5) < 0.005  # binomial 3 sigma


def test_step_and_sample_state_invert_one_uniform_each(rng):
    # A state and then an output through the batched sampler; the seeded
    # stream must stay the scalar inverse CDF, one rng.random() per draw.
    for _ in range(20):
        ch = random_channel(rng)
        seed = int(rng.integers(1 << 32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            s = _draw(ch.Q, a)
            assert s == min(int(np.searchsorted(np.cumsum(ch.Q), b.random(), side="right")), ch.ns - 1)
            x = int(rng.integers(ch.nx))
            y = min(int(np.searchsorted(np.cumsum(ch.W[s, x]), b.random(), side="right")), ch.ny - 1)
            assert _draw(ch.W[s, x], a) == y


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    rows=st.lists(st.lists(st.sampled_from([0.0, 1e-300, 0.1, 0.25, 0.5, 1.0]), min_size=1, max_size=5)
                  .filter(any), min_size=1, max_size=3),
    shrink=st.sampled_from([1.0, 1 - 1e-10, 0.9, 0.5]),
    picks=st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 1.0, exclude_max=True), st.booleans()),
                   min_size=1, max_size=8),
)
def test_sample_paths_agree_on_cdf_rows(rows, shrink, picks):
    # A shared 1-D row is searched, per-draw rows are counted: both must give
    # the same sample for every uniform, uniforms equal to a table entry and
    # rows summing below 1 (whose tail is inf) included, and never a
    # structural zero.
    k = max(map(len, rows))
    probs = np.array([row + [0.0] * (k - len(row)) for row in rows])
    probs = shrink * probs / probs.sum(axis=1, keepdims=True)
    cdf = _cdf(probs)
    which = np.array([i % len(rows) for i, _, _ in picks])
    finite = [c[np.isfinite(c)] for c in cdf[which]]
    u = np.array([f[int(v * len(f))] if on_entry and f.size else v
                  for f, (_, v, on_entry) in zip(finite, picks)])
    per_draw = _sample(cdf[which], u)
    for r in range(len(rows)):
        shared = _sample(cdf[r], u[which == r])
        assert shared.tolist() == per_draw[which == r].tolist()
        assert [int(_sample(cdf[r], v)) for v in u[which == r]] == shared.tolist()
        assert (probs[r, shared] > 0).all()


class _FixedUniforms:
    """Stand-in generator: each call returns the next of the given rows of
    uniforms, broadcast to the shape asked for (a scalar call gets its first)."""

    def __init__(self, *rows):
        self.rows = [np.asarray(row, dtype=float) for row in rows]

    def random(self, size=None):
        row = self.rows.pop(0)
        return float(row[0]) if size is None else np.broadcast_to(row, size).copy()


# (0.6, 0.4 - 1e-10, 0) sums to 1 - 1e-10: a uniform above that sum must not
# reach output 2, which has probability 0.
SHORT_ROW = SdDmc(W=[[[0.6, 0.4 - 1e-10, 0.0], [0.0, 0.5, 0.5]]], Q=[1.0])


def test_step_never_samples_a_structural_zero():
    assert _draw(SHORT_ROW.W[0, 0], _FixedUniforms([1 - 5e-11])) == 1


def test_theorem5_never_samples_a_structural_zero():
    # Witness: y = 2 disproves x = 0, and x' = 1 outputs it.  Round 1 must not
    # stop (outputs 1 and 1); round 2 stops on x''s output 2.
    send = theorem5_trial(SHORT_ROW).send
    rng = _FixedUniforms([0.5, 0.5, 1 - 5e-11, 0.25], [0.5, 0.5, 0.25, 0.75])
    assert [a.tolist() for a in send(np.array([0]), rng)] == [[0], [4]]


def test_disprover_never_samples_a_structural_zero():
    # Ten 0.1s sum to 1 - 2**-53 in floating point; output 10 is impossible
    # from input 0, so input 0's top uniform must give output 9, not the disprover.
    dmc = Dmc(W=[[0.1] * 10 + [0.0], [0.5] + [0.0] * 9 + [0.5]])
    rng = _FixedUniforms([1 - 2**-53, 0.25], [0.25, 0.75])
    assert [a.tolist() for a in disprover_trial(dmc).send(np.array([0]), rng)] == [[0], [4]]


def test_sample_state_frequency():
    rng = np.random.default_rng(4)
    n = 50_000
    s1 = sum(_draw(ch_ex1().Q, rng) for _ in range(n))
    assert abs(s1 / n - 0.5) < 0.01


def test_disprover_identity_exact():
    dmc = average_states(ch_triv())
    for bit in (0, 1):
        decoded, tau = run_disprover_bit(dmc, bit, np.random.default_rng(5))
        assert decoded == bit and tau == 2


def test_disprover_requires_zero_entry():
    with pytest.raises(PrecondFailed):
        run_disprover_bit(bsc(0.3), 0, np.random.default_rng(6))


def test_disprover_skips_unreachable_outputs():
    # State 0 never outputs 0, so the joint output (0, s0) is unreachable: its
    # all-zero column is no disprover, and a round on it would never stop.
    ch = SdDmc(W=[[[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]], Q=[0.5, 0.5])
    stats = monte_carlo(disprover_trial(reduced_dmc(ch, SiModel.from_token("sc,c"))), trials=200, seed=18)
    assert stats.errors == 0 and stats.exact_mean_tau == 4.0


def test_disprover_stats_light():
    stats = monte_carlo(disprover_trial(average_states(ch_ex1())), trials=3000, seed=11)
    assert stats.errors == 0
    assert abs(stats.mean_tau - 8 / 3) < 0.1


def test_disprover_trace():
    trace = Trace()
    decoded, tau = run_disprover_bit(average_states(ch_ex1()), 1, np.random.default_rng(7), trace=trace)
    assert trace.tau == tau == trace.slots[-1]["n"]
    assert trace.slots[-1]["decision"] == decoded
    assert all(slot["decision"] is None for slot in trace.slots[:-1])
    lines = trace.to_jsonl().splitlines()
    assert json.loads(lines[-1]) == {"message": 1, "decoded": 1, "tau": tau}


def test_send_records_the_slots_and_run_ends_the_trace():
    trial = han_sato_trial(ch_ex1(), SiModel.from_token("-,-"), 2)
    sent_trace, run_trace = Trace(), Trace()
    sent = trial.send(np.array([3]), np.random.default_rng(5), sent_trace)
    ran = trial.run(np.array([3]), np.random.default_rng(5), run_trace)
    assert [a.tolist() for a in sent] == [a.tolist() for a in ran]
    assert sent_trace.slots == run_trace.slots and run_trace.tau == ran[1][0] == len(run_trace.slots)
    assert (sent_trace.message, sent_trace.decoded) == (None, None)
    assert (run_trace.message, run_trace.decoded) == (3, ran[0][0])


def test_disprover_guard_rejects_an_unsound_witness(monkeypatch):
    # Output 0 is possible from input 0, so (x=0, y=0) disproves nothing and
    # both slots of a round can output y.
    unsound = Verdict(POSITIVE, "dmc_disprover", {"kind": "letters", "x": 0, "y": 0})
    monkeypatch.setattr(sdchan.protocols, "check_dmc_vl", lambda channel: unsound)
    trial = disprover_trial(Dmc(W=[[0.5, 0.5], [0.0, 1.0]]))
    rng = np.random.default_rng(31)
    with pytest.raises(RuntimeError, match="^impossible output pattern observed; channel violates its zeros$"):
        trial.run(rng.integers(2, size=1000), rng)


def test_theorem5_guard_rejects_an_unsound_witness(monkeypatch):
    # Input 1 can output 1 in both states of ex1, so a group cut to state 0
    # lets the encoder see y on its x' slot in state 1, where the decoder
    # does not stop.
    witness = check_nocvlpos(ch_ex1())
    assert witness["states"] == [0, 1]
    monkeypatch.setattr(sdchan.protocols, "check_nocvlpos", lambda channel: {**witness, "states": [0]})
    trial = theorem5_trial(ch_ex1())
    rng = np.random.default_rng(32)
    with pytest.raises(RuntimeError, match="^encoder and decoder disagree on stopping; witness unsound$"):
        trial.run(rng.integers(2, size=1000), rng)


def test_theorem5_correct_and_synchronous():
    for i in range(200):
        rng = np.random.default_rng([8, i])
        bit = i % 2
        decoded, tau = run_theorem5_bit(ch_ex1(), bit, rng)
        assert decoded == bit
        assert tau % 2 == 0


def test_theorem5_ex2_mean():
    stats = monte_carlo(theorem5_trial(ch_ex2()), trials=4000, seed=12)
    assert stats.errors == 0
    assert abs(stats.mean_tau - 4.0) < 0.25  # geometric with success 1/2 per round


def test_theorem5_precond():
    with pytest.raises(PrecondFailed):
        run_theorem5_bit(ch_ex3(p=0.3, q=0.5), 0, np.random.default_rng(9))


def test_han_sato_triv_exact_tau():
    for k in (2, 3, 4):
        run = run_han_sato(ch_triv(), SiModel.from_token("-,-"), k, np.random.default_rng(10), n1=k)
        assert run.decoded == run.message
        assert run.tau == k + 2
        assert run.phase1_correct


def test_han_sato_all_si_models():
    for token in ("-,-", "sc,-", "c,-", "nc,-", "sc,c", "c,c", "nc,c", "nc,nc"):
        run = run_han_sato(ch_ex1(), SiModel.from_token(token), 3, np.random.default_rng(13))
        assert run.decoded == run.message


def test_han_sato_rejects_decoder_only_model():
    with pytest.raises(UnsupportedModel):
        run_han_sato(ch_ex1(), SiModel.from_token("-,c"), 3, np.random.default_rng(14))


def test_han_sato_precond():
    flat = SdDmc(W=[[[0.7, 0.3], [0.3, 0.7]]], Q=[1.0])
    with pytest.raises(PrecondFailed):
        run_han_sato(flat, SiModel.from_token("-,-"), 3, np.random.default_rng(15))


def test_reduced_dmc_mapping():
    ch = ch_ex1()
    averaged, lifted, joint = average_states(ch), shannon_strategy_channel(ch)[0], joint_output_channel(ch)
    expected = {"-,-": averaged, "sc,-": averaged, "c,-": lifted, "nc,-": lifted,
                "sc,c": joint, "c,c": joint, "nc,c": joint, "nc,nc": joint}
    for token, dmc in expected.items():
        assert reduced_dmc(ch, SiModel.from_token(token)) == dmc, token
    assert reduced_dmc(ch, SiModel.from_token("c,-")).nx == 4
    assert reduced_dmc(ch, SiModel.from_token("nc,nc")).ny == 4
    with pytest.raises(UnsupportedModel, match="no protocol over a reduced DMC serves si=-,c; theorem5 does"):
        reduced_dmc(ch, SiModel.from_token("-,c"))


def test_monte_carlo_deterministic():
    a = monte_carlo(theorem5_trial(ch_ex1()), trials=500, seed=42)
    b = monte_carlo(theorem5_trial(ch_ex1()), trials=500, seed=42)
    assert a == b
    c = monte_carlo(theorem5_trial(ch_ex1()), trials=500, seed=43)
    assert c.mean_tau != a.mean_tau


def test_monte_carlo_single_trial():
    stats = monte_carlo(disprover_trial(average_states(ch_triv())), trials=1, seed=0)
    assert stats.trials == 1 and stats.var_tau == 0.0 and stats.errors == 0
    with pytest.raises(ValueError):
        monte_carlo(disprover_trial(average_states(ch_triv())), trials=0, seed=0)


def test_rate_accounting():
    stats = monte_carlo(
        han_sato_trial(ch_triv(), SiModel.from_token("-,-"), 4, n1=4),
        trials=50,
        seed=1,
    )
    assert stats.mean_tau == 6.0
    assert stats.rate_bits_per_use == 4 / 6


def _inverse_cdf(row, u):
    """The sampled output: a uniform at or above the row's float sum goes to
    the first output at which the sum is reached, never to a zero after it."""
    cdf = list(itertools.accumulate(row.tolist()))  # the sums np.cumsum forms, in the same order
    return min(bisect.bisect_right(cdf, u), bisect.bisect_left(cdf, cdf[-1]))


def _reference_bits(channel, protocol, bits, rng):
    """Per-trial loop over the batched kernels' uniforms: one row of
    ``rng.random((live, k))`` per round, in trial order, for the trials
    still running.  Also returns trial 0's (s, x, y, decision) per slot."""
    if protocol == "disprover":
        # The first structural zero in a column some input reaches.
        x, y = (int(v) for v in np.argwhere((channel.W == 0.0) & channel.W.any(axis=0))[0])
        x_alt = int(np.argmax(channel.W[:, y] != 0.0))
        k = 2
    else:
        w = check_nocvlpos(channel)
        x, x_alt, y, group = w["x"], w["x_prime"], w["y"], set(w["states"])
        k = 4
    decoded, tau, slots = [None] * len(bits), [None] * len(bits), []
    live, n = list(range(len(bits))), 0
    while live:
        n += 2
        for i, u in zip(list(live), rng.random((len(live), k))):
            first, second = (x, x_alt) if bits[i] == 0 else (x_alt, x)
            if protocol == "disprover":
                s1 = s2 = None
                y1, y2 = _inverse_cdf(channel.W[first], u[0]), _inverse_cdf(channel.W[second], u[1])
                assert not (y1 == y and y2 == y)
                decided = 0 if y1 != y and y2 == y else 1 if y1 == y and y2 != y else None
            else:
                s1, s2 = _inverse_cdf(channel.Q, u[0]), _inverse_cdf(channel.Q, u[1])
                y1, y2 = _inverse_cdf(channel.W[s1, first], u[2]), _inverse_cdf(channel.W[s2, second], u[3])
                decided = 0 if y2 == y and s2 in group else 1 if y1 == y and s1 in group else None
                assert ((y2 if bits[i] == 0 else y1) == y) == (decided is not None)
            if i == 0:
                slots += [(s1, first, y1, None), (s2, second, y2, decided)]
            if decided is not None:
                decoded[i], tau[i] = decided, n
                live.remove(i)
    return decoded, tau, slots


def test_batched_kernels_match_per_trial_loop():
    rng = np.random.default_rng(16)
    for _ in range(20):
        ch = random_channel(rng)
        cases = [("theorem5", ch, theorem5_trial)]
        cases += [
            ("disprover", reduced_dmc(ch, SiModel.from_token(t)), disprover_trial) for t in ("-,-", "c,-", "sc,c")
        ]
        for protocol, channel, make in cases:
            try:
                trial = make(channel)
            except PrecondFailed:
                continue
            for seed in range(2):
                # monte_carlo's order: the messages, then the run, from one stream.
                trace, rng, ref_rng = Trace(), np.random.default_rng(seed), np.random.default_rng(seed)
                bits = rng.integers(2, size=32)
                decoded, tau = trial.run(bits, rng, trace)
                assert bits.tolist() == ref_rng.integers(2, size=32).tolist()
                ref_decoded, ref_tau, ref_slots = _reference_bits(channel, protocol, bits, ref_rng)
                assert decoded.tolist() == ref_decoded
                assert tau.tolist() == ref_tau
                assert [(t["s"], t["x"], t["y"], t["decision"]) for t in trace.slots] == ref_slots


def _reference_han_sato(channel, si, msg_bits, n1, msgs, rng):
    """The two-phase sender with phase 1 run trial by trial in Python loops
    over the block stream: per block, one draw of every trial's codebook;
    then, per trial in order, the first distinct rows of its draw followed
    by batches of the number still missing; then one draw of the block's
    uniforms; and per trial an ML decode (lowest index wins).  Also returns
    each trial's codebook."""
    dmc = reduced_dmc(channel, si)
    n_msgs = 1 << msg_bits
    block = max(MAX_BLOCK_BYTES // (8 * max(n_msgs, dmc.ny) * max(n1, 1)), 1)
    with np.errstate(divide="ignore"):
        log_w = np.log(dmc.W)
    guess = np.empty(len(msgs), dtype=np.int64)
    codebooks = []
    for start in range(0, len(msgs), block):
        drawn = rng.integers(dmc.nx, size=(min(block, len(msgs) - start), n_msgs, n1))
        for rows in drawn:
            first = {}
            for row in rows:
                first.setdefault(row.tobytes(), row)
            while len(first) < n_msgs:
                for row in rng.integers(dmc.nx, size=(n_msgs - len(first), n1)):
                    first.setdefault(row.tobytes(), row)
            codebooks.append(np.stack(list(first.values())))
        for i, u in enumerate(rng.random((len(drawn), n1)), start):
            codebook = codebooks[i]
            outputs = [_inverse_cdf(dmc.W[x], v) for x, v in zip(codebook[msgs[i]], u)]
            guess[i] = np.argmax(log_w[codebook, outputs].sum(axis=1))
    ack = guess == msgs
    send_bits = disprover_trial(dmc).send
    _, tau = send_bits(ack.astype(np.int64), rng)
    tau += n1
    decoded = np.where(ack, guess, 0)
    resent = np.flatnonzero(~ack)
    for i in range(msg_bits):
        bits, t_bit = send_bits((msgs[resent] >> (msg_bits - 1 - i)) & 1, rng)
        decoded[resent] = (decoded[resent] << 1) | bits
        tau[resent] += t_bit
    return (decoded, tau, ack), codebooks


def _check_han_sato_phase1(monkeypatch, token, msg_bits, n1, trials):
    """The sender against ``_reference_han_sato`` on ch_ex1, over three seeds,
    with the codebooks it used, each of which must hold distinct words."""
    si = SiModel.from_token(token)
    send = han_sato_trial(ch_ex1(), si, msg_bits, n1).send
    used = []

    def recording(*args):
        used.append(_codebooks(*args))
        return used[-1]

    monkeypatch.setattr(sdchan.protocols, "_codebooks", recording)
    for seed in range(3):
        used.clear()
        msgs = np.random.default_rng([seed, 1]).integers(1 << msg_bits, size=trials)
        got = send(msgs, np.random.default_rng(seed))
        ref, codebooks = _reference_han_sato(ch_ex1(), si, msg_bits, n1, msgs, np.random.default_rng(seed))
        for a, b in zip(got, ref):
            assert a.tolist() == b.tolist()
        assert np.concatenate(used).tolist() == [c.tolist() for c in codebooks]
        for codebook in codebooks:
            assert len({row.tobytes() for row in codebook}) == 1 << msg_bits


@pytest.mark.parametrize("token", ["-,-", "c,-", "sc,c"])
@pytest.mark.parametrize(
    "msg_bits, n1, trials",
    [(0, 0, 40), (0, 3, 40), (2, 2, 40), (3, 5, 40), (4, 16, 40), (8, 16, 150), (8, 64, 150)],
)
def test_han_sato_phase1_matches_per_trial_loop(monkeypatch, token, msg_bits, n1, trials):
    # (2, 2) on a 2-input reduced DMC draws all four words, so most trials
    # repeat a row and are topped up; (8, 16) repeats a row in about 37% of
    # trials on a 2-input reduced DMC; (8, 64) spans nineteen blocks of 8 trials.
    _check_han_sato_phase1(monkeypatch, token, msg_bits, n1, trials)


@pytest.mark.parametrize("token, msg_bits, n1", [("c,-", 2, 40), ("c,-", 6, 40), ("-,-", 3, 70)])
def test_han_sato_phase1_matches_per_trial_loop_on_wrapped_keys(monkeypatch, token, msg_bits, n1):
    # nx**n1 exceeds 2**64 (4**40 on the 4-input c,- lift, 2**70 on the
    # averaged channel), so the word keys wrap.
    assert reduced_dmc(ch_ex1(), SiModel.from_token(token)).nx ** n1 > 2**64
    _check_han_sato_phase1(monkeypatch, token, msg_bits, n1, 60)


class _FixedIntegers:
    """Stand-in generator: each ``integers`` call returns the next given array."""

    def __init__(self, *arrays):
        self.arrays = [np.array(a, dtype=np.int64) for a in arrays]

    def integers(self, high, size):
        out = self.arrays.pop(0)
        assert out.shape == size and out.max() < high
        return out


def test_codebooks_confirm_equal_keys_on_the_rows():
    # Over 2 letters a word's key ignores its letters past the 64th, so these
    # two distinct words of 65 letters share a key: the codebook is kept as
    # drawn, with no top-up draw.
    words = np.zeros((1, 2, 65), dtype=np.int64)
    words[0, 1, 64] = 1
    assert _codebooks(1, 2, 2, 65, _FixedIntegers(words)).tolist() == words.tolist()
    # A repeated word is replaced by the first new word of the top-up batches.
    repeated = np.zeros((1, 2, 65), dtype=np.int64)
    rng = _FixedIntegers(repeated, np.zeros((1, 65)), words[0, 1:])
    assert _codebooks(1, 2, 2, 65, rng).tolist() == words.tolist()
    assert rng.arrays == []


def _dict_distinct_codewords(rows, nx, rng):
    """The codeword dedupe as a dict of row bytes, kept as the reference for ``_distinct_codewords``."""
    m, n = rows.shape
    distinct = dict.fromkeys(rows.view(f"V{rows.itemsize * n}").ravel().tolist())
    if len(distinct) == m:
        return rows
    while len(distinct) < m:
        more = rng.integers(nx, size=(m - len(distinct), n))
        distinct.update(dict.fromkeys(more.view(f"V{more.itemsize * n}").ravel().tolist()))
    return np.frombuffer(b"".join(distinct), dtype=rows.dtype).reshape(m, n)


def test_distinct_codewords_match_the_dict_reference():
    # Few letters and short words force repeats, in the batch drawn and in
    # the top-ups: both must keep the same words, draw the same top-ups and
    # leave the stream at the same next uniform.
    topped_up = 0
    for seed in range(600):
        pick = np.random.default_rng([seed, 0])
        nx, n = int(pick.integers(2, 4)), int(pick.integers(1, 5))
        m = int(pick.integers(1, min(nx**n, 16) + 1))
        rows = pick.integers(nx, size=(m, n))
        a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        got, want = _distinct_codewords(rows.copy(), nx, a), _dict_distinct_codewords(rows.copy(), nx, b)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert a.random() == b.random()
        topped_up += len({r.tobytes() for r in rows}) < m
    assert topped_up > 250  # 298 of the 600 batches repeat a word


def test_full_codebook_hashes_each_drawn_word_once(monkeypatch):
    # With nx**n == m every word of the space must be kept, and the last
    # missing ones take about 1.6 * m top-up rounds.  Rehashing the kept
    # words every round made that about m**2 row hashes.
    m, n = 256, 8
    hashed, drawn = [], []
    dedupe = sdchan.protocols._distinct_rows
    monkeypatch.setattr(
        sdchan.protocols, "_distinct_rows", lambda rows, *seen: hashed.append(len(rows)) or dedupe(rows, *seen)
    )

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def integers(self, high, size):
            drawn.append(size[0])
            return self.rng.integers(high, size=size)

    rows = np.random.default_rng(1).integers(2, size=(m, n))
    a, b = np.random.default_rng(2), np.random.default_rng(2)
    got, want = _distinct_codewords(rows.copy(), 2, Counting(a)), _dict_distinct_codewords(rows.copy(), 2, b)
    assert got.tolist() == want.tolist() and a.random() == b.random()
    assert len(drawn) > m and hashed == [m, *drawn]


def test_han_sato_phase1_memory_is_bounded():
    # Codebooks for all 256 trials at once would take 256 * 2**8 * 64 int64
    # letters (32 MiB), and their log-likelihoods as much again.
    trial = han_sato_trial(ch_ex1(), SiModel.from_token("-,-"), 8, n1=64)
    bound = 32 * MAX_BLOCK_BYTES
    tracemalloc.start()
    try:
        stats = monte_carlo(trial, trials=256, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.errors == 0
    assert peak < bound


def test_stopping_time_interval_coverage():
    # tau = 2 * Geometric(3/4) on ex1: the reported 95% interval should cover
    # 8/3 in about 95% of independent runs (3 sigma: +- 0.033 over 400 runs).
    for trial in (disprover_trial(average_states(ch_ex1())), theorem5_trial(ch_ex1())):
        covered = 0
        for seed in range(400):
            stats = monte_carlo(trial, trials=2000, seed=seed)
            assert stats.exact_mean_tau == 8 / 3 and stats.exact_var_tau == 16 / 9
            lo, hi = stats.mean_tau_ci95
            covered += lo <= stats.exact_mean_tau <= hi
        assert abs(covered / 400 - 0.95) < 0.033


def test_monte_carlo_chunks_use_distinct_substreams():
    trial = disprover_trial(average_states(ch_ex1()))
    two = monte_carlo(trial, trials=2 * CHUNK_TRIALS, seed=5)
    one = monte_carlo(trial, trials=CHUNK_TRIALS, seed=5)
    assert two.mean_tau != one.mean_tau


def test_single_message_runs_reject_out_of_range_messages():
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError):
        run_disprover_bit(average_states(ch_ex1()), 2, rng)
    with pytest.raises(ValueError):
        run_theorem5_bit(ch_ex1(), -1, rng)
    for msg in (-1, 8, 9):
        with pytest.raises(ValueError):
            run_han_sato(ch_ex1(), SiModel.from_token("-,-"), 3, rng, msg=msg)
    assert run_han_sato(ch_ex1(), SiModel.from_token("-,-"), 3, rng, msg=7).decoded == 7


def test_han_sato_codebook_cap():
    with pytest.raises(BudgetExceeded):
        run_han_sato(ch_ex1(), SiModel.from_token("-,-"), 40, np.random.default_rng(17))
    with pytest.raises(BudgetExceeded):
        run_han_sato(ch_ex1(), SiModel.from_token("-,-"), 4, np.random.default_rng(17), n1=MAX_CODEBOOK_ENTRIES)
