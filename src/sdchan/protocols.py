"""Zero-error feedback protocols run against a seeded stochastic channel.

Every protocol here is zero-error by construction: a decoding error in any
trial is a bug, and the Monte-Carlo driver treats it as one (hard count,
no tolerance).  Sampling is inverse-CDF in stored row order, on tables
that ``_cdf`` builds, so a structural zero is never sampled.  Each protocol
is one ``Trial``, built by a factory that finds its witness and its channel
rows once.  The bit protocols draw every slot of ``n`` trials as arrays and
decide it by testing its uniform against the interval of the stopping
output; they sample full outputs only for a traced trial 0.  Every slot
still takes its uniforms from the stream in the same order as a sampled
output would.  The two-phase protocol runs phase 1 per block of trials,
whose size ``positivity.MAX_BLOCK_BYTES`` bounds: one draw of the block's
codebooks, a top-up for each trial whose codebook repeats a word, one draw
of its channel uniforms, then sampling and decoding as arrays; it then
acknowledges and resends as arrays.  ``monte_carlo``
runs fixed chunks of ``CHUNK_TRIALS`` trials, each on its own substream
derived from ``(seed, chunk)``, so ``(seed, trials)`` fixes the report.

Each factory admits its protocol once, on the channel it runs on:
``reduced_dmc`` decides which state-information models the protocols over a
reduced DMC serve, the witness check decides positivity there, and
``_two_slot_sender`` bounds the mean rounds per bit before any is played.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .channel import Dmc, SdDmc, SiModel, _distinct_rows
from .errors import BudgetExceeded, PrecondFailed, UnsupportedModel
from .positivity import MAX_BLOCK_BYTES, POSITIVE, check_dmc_vl, check_nocvlpos
from .reductions import average_states, joint_output_channel, shannon_strategy_channel

# Trials per Monte-Carlo chunk: bounds the arrays a chunk holds at any --trials.
CHUNK_TRIALS = 8192

# Largest two-phase codebook, in letters (codewords x blocklength).
MAX_CODEBOOK_ENTRIES = 1 << 20

# Largest mean number of rounds per bit that a two-slot protocol may take,
# 1 / p for a round stopping probability p.  On a 2-vCPU Xeon a round costs
# about 0.05 us per running trial for the disprover bit and 0.2 us for
# theorem5, whose state draws dominate, so 10,000 trials at this mean take
# about 2 s and 8 s.
MAX_MEAN_ROUNDS = 1 << 12


@dataclass
class Trace:
    """Per-slot record of one trial, numbered from slot 1, and the trial's outcome.

    A sender records the slots; ``Trial.run`` sets the message and the
    decoded message.  The stopping time ``tau`` is the number of slots
    recorded, the last of which is the decision slot.
    """

    slots: list = field(default_factory=list)
    message: Optional[int] = None
    decoded: Optional[int] = None

    @property
    def tau(self) -> int:
        return len(self.slots)

    def record(self, s: Optional[int], x: int, y: int, decision: Optional[int] = None):
        """Append the next slot, numbered one more than the slots already recorded."""
        self.slots.append({"n": len(self.slots) + 1, "s": s, "x": x, "y": y, "decision": decision})

    def to_jsonl(self) -> str:
        lines = [json.dumps(slot) for slot in self.slots]
        lines.append(json.dumps({"message": self.message, "decoded": self.decoded, "tau": self.tau}))
        return "\n".join(lines)


@dataclass(frozen=True)
class ProtocolStats:
    """Aggregate over trials; errors must be 0 for a zero-error protocol.

    The exact moments are those of tau = 2 * Geometric(p) for the two-slot
    bit protocols, and None where no closed form is known.
    """

    trials: int
    errors: int
    mean_tau: float
    var_tau: float
    rate_bits_per_use: float
    exact_mean_tau: Optional[float] = None
    exact_var_tau: Optional[float] = None

    @property
    def mean_tau_ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval on the mean stopping time."""
        half = 1.96 * math.sqrt(self.var_tau / self.trials)
        return self.mean_tau - half, self.mean_tau + half

    def to_jsonable(self) -> dict:
        return {
            "trials": self.trials,
            "errors": self.errors,
            "mean_tau": self.mean_tau,
            "var_tau": self.var_tau,
            "rate_bits_per_use": self.rate_bits_per_use,
            "mean_tau_ci95": list(self.mean_tau_ci95),
            "exact_mean_tau": self.exact_mean_tau,
            "exact_var_tau": self.exact_var_tau,
        }


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF table over the last axis of ``probs``, for ``_sample``.

    Each row holds its cumulative sums, with every entry equal to the row's
    total replaced by inf.  A row may sum to slightly less than 1, so a
    uniform in [total, 1) then goes to the output at which the sum reaches
    its total, which has positive probability, and never to a structural
    zero after it.  Rows stay nondecreasing.
    """
    cdf = np.cumsum(probs, axis=-1)
    cdf[cdf >= cdf[..., -1:]] = np.inf
    return cdf


def _sample(cdf: np.ndarray, u: np.ndarray | float) -> np.ndarray:
    """Inverse-CDF samples over the stored row order, one per uniform in ``u``.

    A sample is the number of its ``_cdf`` row's entries at or below its
    uniform.  A 1-D ``cdf`` is one row shared by every uniform, searched with
    ``np.searchsorted``; otherwise ``cdf`` holds one row per uniform, of
    shape ``u.shape + (k,)``, and the entries are counted.  The only
    inverse-CDF sampler: every state and output is drawn here.
    """
    if cdf.ndim == 1:
        return np.searchsorted(cdf, u, side="right")
    return (cdf <= u[..., None]).sum(axis=-1)


def _interval(cdf: np.ndarray, y: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniforms that ``_sample`` maps to output ``y``: [lo, hi) per ``_cdf`` row."""
    lo = cdf[..., y - 1] if y else np.zeros(cdf.shape[:-1])
    return lo, cdf[..., y]


@dataclass(frozen=True)
class Trial:
    """A zero-error protocol; ``monte_carlo`` draws the messages and calls ``run``.

    ``send(msgs, rng, trace)`` sends one ``msg_bits``-bit message per trial
    and returns (decoded, tau), then any further per-trial arrays; the
    trace, if given, gets the slots of msgs[0].  ``run`` also ends the
    trace with msgs[0] and its decoded message.  ``round_p`` is the
    per-round stopping probability of a two-slot bit protocol, whose
    stopping time is 2 * Geometric(round_p); None where no closed form is
    known.
    """

    send: Callable[..., tuple[np.ndarray, ...]]
    msg_bits: int = 1
    round_p: Optional[float] = None

    def run(self, msgs: np.ndarray, rng: np.random.Generator, trace: Optional[Trace] = None) -> tuple:
        """``send``, then the trace, if given, ends with msgs[0] and its decoded message."""
        sent = self.send(msgs, rng, trace)
        if trace is not None:
            trace.message, trace.decoded = int(msgs[0]), int(sent[0][0])
        return sent


def _two_slot_sender(play_round: Callable, p: float) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """Bit sender that repeats two-slot rounds until the decoder stops.

    ``play_round(sent, rng, traced)`` plays one round for the trials still
    running, ``sent`` holding their bits, and returns ``(done, decoded,
    slots)``: the trials whose decoder stops, and the bit it decodes.  A
    round decides by testing each slot's uniform against the interval of
    uniforms that ``_sample`` maps to the stopping output, so it samples no
    full output.  Only when ``traced`` (trial 0 is still running and a trace
    is kept) does it sample trial 0's outputs, from the same uniforms, and
    ``slots`` is then trial 0's (s, x, y) per slot, with s None where the
    state is not drawn; otherwise ``slots`` is None.  The trace appends
    them, with the decision on the slot that stops trial 0.

    A round stops with probability ``p``, so a bit takes 1 / p rounds on
    average.  Raises ``BudgetExceeded`` before any round is played when that
    mean exceeds ``MAX_MEAN_ROUNDS``, p = 0 included: the loop runs until
    every trial stops.
    """
    if p * MAX_MEAN_ROUNDS < 1:
        raise BudgetExceeded(
            f"round stopping probability {p:.3g} is below 1/{MAX_MEAN_ROUNDS}: "
            f"a bit would take over {MAX_MEAN_ROUNDS} rounds on average"
        )

    def send(bits, rng, trace=None):
        decoded, tau = np.empty((2, len(bits)), dtype=np.int64)
        live, sent = np.arange(len(bits)), bits
        n = 0
        while live.size:
            traced = trace is not None and live[0] == 0
            done, bit, slots = play_round(sent, rng, traced)
            n += 2
            if traced:
                for k, (s, x, y) in enumerate(slots):
                    trace.record(s, x, y, int(bit[0]) if k == 1 and done[0] else None)
            stopped = live[done]
            decoded[stopped] = bit[done]
            tau[stopped] = n
            running = ~done
            live, sent = live[running], sent[running]
        return decoded, tau

    return send


def disprover_trial(channel: Dmc) -> Trial:
    """Zero-error bit protocol over a DMC with a disprover output.

    Two-slot rounds: (x, x') encodes 0 and (x', x) encodes 1, where y is
    impossible from x and possible from x'.  The decoder stops on a round
    whose outputs contain y exactly once; the slot position of y reveals
    the bit.  Both outputs equal to y is structurally impossible.  A round
    stops with probability p = W[x', y].
    """
    verdict = check_dmc_vl(channel)
    if verdict.decision != POSITIVE:
        raise PrecondFailed("channel has no disprover output (no structural zero)")
    x, y = verdict.witness["x"], verdict.witness["y"]
    x_alt = int(np.argmax(channel.W[:, y] != 0.0))
    cdf = _cdf(channel.W)
    rows = np.array([[x, x_alt], [x_alt, x]])  # the two slots' inputs, by bit
    lo, hi = (bound[rows] for bound in _interval(cdf, y))

    def play_round(sent, rng, traced):
        u = rng.random((len(sent), 2))
        hit = (lo.take(sent, axis=0) <= u) & (u < hi.take(sent, axis=0))  # the slot outputs y
        hit1, hit2 = hit.T
        if (hit1 & hit2).any():
            raise RuntimeError("impossible output pattern observed; channel violates its zeros")
        slots = None
        if traced:
            slots = [(None, int(a), int(b)) for a, b in zip(rows[sent[0]], _sample(cdf[rows[sent[0]]], u[0]))]
        return hit1 != hit2, hit1, slots

    p = float(channel.W[x_alt, y])
    return Trial(_two_slot_sender(play_round, p), round_p=p)


def theorem5_trial(channel: SdDmc) -> Trial:
    """Zero-error bit protocol when only the decoder sees the (causal) states.

    Requires a state-group witness (x, x', y, S*): x' can produce y exactly
    in the states of S*, where y disproves x.  Rounds send (x, x') for 0 and
    (x', x) for 1; the decoder stops when a slot outputs y in a state from
    S* (that slot's input must then be x', pinning the bit).  The encoder
    stops in the same round because seeing y on its x' slot certifies the
    state group without state information.  A round stops with probability
    p = sum over S* of Q(s) W[s, x', y].
    """
    witness = check_nocvlpos(channel)
    if witness is None:
        raise PrecondFailed("channel has no state-group witness")
    x, x_alt, y = witness["x"], witness["x_prime"], witness["y"]
    in_group = np.zeros(channel.ns, dtype=bool)
    in_group[witness["states"]] = True
    q_cdf = _cdf(channel.Q)
    cdf = _cdf(channel.W)
    nx = channel.nx
    lo, hi = (bound.ravel() for bound in _interval(cdf, y))  # flat over (s, x)
    rows = np.array([[x, x_alt], [x_alt, x]])  # the two slots' inputs, by bit

    def play_round(sent, rng, traced):
        u = rng.random((len(sent), 4))
        s, r, v = _sample(q_cdf, u[:, :2]), rows.take(sent, axis=0), u[:, 2:]
        row = s * nx + r
        hit = (lo.take(row) <= v) & (v < hi.take(row))
        stop = hit & in_group.take(s)  # the decoder sees y in a state of the group
        decided0 = stop[:, 1]
        decided1 = ~decided0 & stop[:, 0]
        done = decided0 | decided1
        # Encoder's view: outputs only, plus knowledge of its own inputs.
        if (np.where(sent, hit[:, 0], hit[:, 1]) != done).any():
            raise RuntimeError("encoder and decoder disagree on stopping; witness unsound")
        slots = None
        if traced:
            slots = [(int(a), int(b), int(c)) for a, b, c in zip(s[0], r[0], _sample(cdf[s[0], r[0]], v[0]))]
        return done, decided1, slots

    p = float(channel.Q[in_group] @ channel.W[in_group, x_alt, y])
    return Trial(_two_slot_sender(play_round, p), round_p=p)


def _decoder_only(channel: SdDmc) -> Dmc:
    raise UnsupportedModel("no protocol over a reduced DMC serves si=-,c; theorem5 does")


# SI token -> row(channel) -> the reduced DMC, in the order of
# ``positivity._ROUTES``.  Rows call the reductions through module globals,
# so a rebinding of one (for instance by a tracer) sees every call.
_REDUCED = {
    "-,-": lambda ch: average_states(ch),
    "sc,-": lambda ch: average_states(ch),
    "c,-": lambda ch: shannon_strategy_channel(ch)[0],
    "nc,-": lambda ch: shannon_strategy_channel(ch)[0],
    "sc,c": lambda ch: joint_output_channel(ch),
    "c,c": lambda ch: joint_output_channel(ch),
    "nc,c": lambda ch: joint_output_channel(ch),
    "nc,nc": lambda ch: joint_output_channel(ch),
    "-,c": _decoder_only,
}


def reduced_dmc(channel: SdDmc, si: SiModel) -> Dmc:
    """The DMC on which a given state-information model's protocols operate: ``si``'s row of ``_REDUCED``.

    This is the one place that decides which models the variable-length
    protocols serve.  It raises ``UnsupportedModel`` for the decoder-only
    model: there the decoder stops on states the encoder never sees, and the
    encoder cannot follow such a stop; ``theorem5_trial`` serves that model.
    A bounded-length protocol, which never stops early, could run it on
    ``joint_output_channel`` directly.
    """
    return _REDUCED[si.token](channel)


def han_sato_trial(channel: SdDmc, si: SiModel, msg_bits: int, n1: Optional[int] = None) -> Trial:
    """Two-phase zero-error transmission of a multi-bit message.

    Phase 1 sends the message with a random fixed-length code (distinct
    codewords, maximum-likelihood decoding) over the reduced DMC for the
    given state-information model; the encoder replays the decoding via
    feedback.  One zero-error bit then acknowledges the outcome; on a
    negative acknowledgment the message is resent bit by bit with the
    zero-error bit protocol, so the final decision is always correct.
    The sender also returns ``ack``, the trials whose phase 1 was right.

    ``reduced_dmc`` decides the models it serves, and the disprover bit's
    witness check on the reduced DMC is its one positivity precondition.

    Phase 1 runs once per block of m trials, and no block array of several
    trials exceeds ``positivity.MAX_BLOCK_BYTES``.  A block's random stream
    is, in order: one ``rng.integers(nx, size=(m, 2**msg_bits, n1))`` draw
    of its codebooks; then, in trial order, the top-up draws of each trial
    whose codebook repeats a word, which ``_distinct_codewords`` makes; then
    one ``rng.random((m, n1))`` draw of its channel uniforms.  The trials
    with a repeated word are found for the whole block at once, from one
    integer key per word, and confirmed on their rows, so the result does
    not depend on how the keys are computed.
    """
    if n1 is None:
        n1 = 4 * msg_bits
    # The bit-length test keeps a huge msg_bits from building 1 << msg_bits.
    if msg_bits >= MAX_CODEBOOK_ENTRIES.bit_length() or (1 << msg_bits) * max(n1, 1) > MAX_CODEBOOK_ENTRIES:
        raise BudgetExceeded(
            f"codebook of 2**{msg_bits} codewords of length {n1} exceeds {MAX_CODEBOOK_ENTRIES} letters"
        )
    dmc = reduced_dmc(channel, si)
    send_bits = disprover_trial(dmc).send
    n_msgs = 1 << msg_bits
    if dmc.nx**n1 < n_msgs:
        raise PrecondFailed(f"blocklength {n1} too short for {n_msgs} distinct codewords")
    with np.errstate(divide="ignore"):
        log_w = np.log(dmc.W)
    cdf = _cdf(dmc.W)
    # Trials per phase-1 block.  The block arrays (codebooks, sampled CDF
    # rows, log-likelihood terms) have 8-byte entries, and each is held to
    # MAX_BLOCK_BYTES: a block at the codebook letter cap would hold 8 MiB
    # per array, which raised the peak RSS of a 256-message run by 60%.  A
    # block holds at least one trial.
    block = max(MAX_BLOCK_BYTES // (8 * max(n_msgs, dmc.ny) * max(n1, 1)), 1)

    def send(msgs, rng, trace=None):
        guess = np.empty(len(msgs), dtype=np.int64)
        for start in range(0, len(msgs), block):
            m = min(block, len(msgs) - start)
            codebooks = _codebooks(m, n_msgs, dmc.nx, n1, rng)
            u = rng.random((m, n1))
            sent = codebooks[np.arange(m), msgs[start:start + m]]
            outputs = _sample(cdf[sent], u)
            # argmax breaks ties toward the lowest index
            guess[start:start + m] = log_w[codebooks, outputs[:, None]].sum(axis=2).argmax(axis=1)
            if start == 0 and trace is not None:
                for t in range(n1):
                    trace.record(None, int(sent[0, t]), int(outputs[0, t]))
        ack = guess == msgs
        _, tau = send_bits(ack.astype(np.int64), rng, trace)
        tau += n1
        decoded = np.where(ack, guess, 0)
        resent = np.flatnonzero(~ack)
        resent_trace = trace if resent.size and resent[0] == 0 else None
        for i in range(msg_bits):
            bits, t_bit = send_bits((msgs[resent] >> (msg_bits - 1 - i)) & 1, rng, resent_trace)
            decoded[resent] = (decoded[resent] << 1) | bits
            tau[resent] += t_bit
        return decoded, tau, ack

    return Trial(send, msg_bits=msg_bits)


def _codebooks(m: int, n_msgs: int, nx: int, n1: int, rng: np.random.Generator) -> np.ndarray:
    """m codebooks of n_msgs distinct words of length n1 over an nx-letter alphabet.

    One ``rng.integers`` draw gives every codebook; then, in codebook order,
    each one that repeats a word is topped up by ``_distinct_codewords``.
    A codebook with no repeated word is kept as drawn.
    """
    codebooks = rng.integers(nx, size=(m, n_msgs, n1))
    # One key per word: its letters as base-nx digits of a uint64, wrapped
    # mod 2**64 once nx**n1 exceeds it.  Equal words have equal keys, so the
    # codebooks with two equal keys hold every one that repeats a word, and
    # _distinct_codewords confirms each on its rows.
    keys = np.sort(codebooks.view(np.uint64) @ np.uint64(nx) ** np.arange(n1, dtype=np.uint64), axis=1)
    for i in np.flatnonzero((keys[:, 1:] == keys[:, :-1]).any(axis=1)):
        codebooks[i] = _distinct_codewords(codebooks[i], nx, rng)
    return codebooks


def _distinct_codewords(rows: np.ndarray, nx: int, rng: np.random.Generator) -> np.ndarray:
    """len(rows) distinct codewords: the first distinct rows of ``rows``, then of an i.i.d. stream.

    ``rows`` is a drawn (m, n) batch of words over an nx-letter alphabet, with
    n >= 1.  The words still missing are drawn from ``rng`` in batches of the
    number still missing, each row hashed once against the words kept so far.
    """
    m, n = rows.shape
    seen = {}
    words = [rows[_distinct_rows(rows, seen)[0]]]
    while len(seen) < m:
        batch = rng.integers(nx, size=(m - len(seen), n))
        words.append(batch[_distinct_rows(batch, seen)[0]])
    return np.concatenate(words)


def _send_one(trial: Trial, msg: Optional[int], rng: np.random.Generator, trace: Optional[Trace]) -> tuple:
    """Send one message (drawn from ``rng`` if None): (msg, then send's values), as Python scalars."""
    if msg is not None and not 0 <= msg < 1 << trial.msg_bits:
        raise ValueError(f"message {msg} is outside 0..{(1 << trial.msg_bits) - 1}")
    msgs = rng.integers(1 << trial.msg_bits, size=1) if msg is None else np.array([msg])
    return tuple(a[0].item() for a in (msgs, *trial.run(msgs, rng, trace)))


def run_disprover_bit(
    channel: Dmc, bit: int, rng: np.random.Generator, trace: Optional[Trace] = None
) -> tuple[int, int]:
    """Send one bit with zero error over a DMC that has a disprover output."""
    return _send_one(disprover_trial(channel), bit, rng, trace)[1:]


def run_theorem5_bit(
    channel: SdDmc, bit: int, rng: np.random.Generator, trace: Optional[Trace] = None
) -> tuple[int, int]:
    """One bit with zero error when only the decoder sees the (causal) states."""
    return _send_one(theorem5_trial(channel), bit, rng, trace)[1:]


@dataclass(frozen=True)
class HanSatoRun:
    message: int
    decoded: int
    tau: int
    phase1_correct: bool


def run_han_sato(
    channel: SdDmc, si: SiModel, msg_bits: int, rng: np.random.Generator,
    n1: Optional[int] = None, msg: Optional[int] = None, trace: Optional[Trace] = None,
) -> HanSatoRun:
    """One two-phase transmission of ``msg`` (drawn from ``rng`` if None)."""
    return HanSatoRun(*_send_one(han_sato_trial(channel, si, msg_bits, n1), msg, rng, trace))


def monte_carlo(trial: Trial, trials: int, seed: int, trace: Optional[Trace] = None) -> ProtocolStats:
    """Run ``trials`` independent trials in chunks of CHUNK_TRIALS.

    Chunk c draws its messages from the substream (seed, c), then runs
    ``trial.run`` on them; ``trace`` records trial 0.  Stopping times are
    summed as exact integers; the rate counts ``msg_bits`` per message.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    errors = total = total_sq = 0
    for chunk, start in enumerate(range(0, trials, CHUNK_TRIALS)):
        rng = np.random.default_rng([seed, chunk])
        msgs = rng.integers(1 << trial.msg_bits, size=min(CHUNK_TRIALS, trials - start))
        decoded, tau = trial.run(msgs, rng, trace if chunk == 0 else None)[:2]
        errors += int(np.count_nonzero(decoded != msgs))
        total += int(tau.sum())
        total_sq += int((tau * tau).sum())
    mean = total / trials
    p = trial.round_p
    return ProtocolStats(
        trials=trials,
        errors=errors,
        mean_tau=mean,
        var_tau=(trials * total_sq - total * total) / trials**2,
        rate_bits_per_use=trial.msg_bits / mean,
        exact_mean_tau=None if p is None else 2 / p,
        exact_var_tau=None if p is None else 4 * (1 - p) / p**2,
    )


# Protocol name -> factory(channel, *options) -> trial.  The parameters after
# ``channel`` name the ``simulate`` options the protocol reads.
PROTOCOLS: dict[str, Callable[..., Trial]] = {
    "disprover": lambda channel, si: disprover_trial(reduced_dmc(channel, si)),
    "theorem5": theorem5_trial,
    "han-sato": han_sato_trial,
}
