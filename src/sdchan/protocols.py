"""Zero-error feedback protocols run against a seeded stochastic channel.

Every protocol here is zero-error by construction: a decoding error in any
trial is a bug, and the Monte-Carlo driver treats it as one (hard count,
no tolerance).  Sampling is inverse-CDF in stored row order.  Each
protocol is one ``Trial``, built by a factory that finds its witness and its
channel rows once.  The bit protocols draw and decode every slot of ``n``
trials as arrays.  The two-phase protocol makes its phase-1 draws (codebook,
then channel uniforms) one trial at a time in stream order, samples and
decodes them as arrays per block of trials, whose size ``MAX_CODEBOOK_ENTRIES``
bounds, then acknowledges and resends as arrays.  ``monte_carlo``
runs fixed chunks of ``CHUNK_TRIALS`` trials, each on its own substream
derived from ``(seed, chunk)``, so ``(seed, trials)`` fixes the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .channel import Dmc, SdDmc, Si, SiModel, SI_MODELS
from .errors import BudgetExceeded, PrecondFailed, UnsupportedModel
from .positivity import POSITIVE, check_dmc_vl, check_nocvlpos, vl_positivity
from .reductions import average_states, joint_output_channel, shannon_strategy_channel

# Trials per Monte-Carlo chunk: bounds the arrays a chunk holds at any --trials.
CHUNK_TRIALS = 8192

# Largest two-phase codebook, in letters (codewords x blocklength), built per
# trial; a phase-1 block of several trials holds no array of more bytes.
MAX_CODEBOOK_ENTRIES = 1 << 20


@dataclass
class Trace:
    """Per-slot protocol record; the decision slot defines the stopping time."""

    slots: list = field(default_factory=list)
    message: Optional[int] = None
    decoded: Optional[int] = None
    tau: Optional[int] = None

    def record(self, n: int, s: Optional[int], x: int, y: int, decision: Optional[int] = None):
        self.slots.append({"n": n, "s": s, "x": x, "y": y, "decision": decision})

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


def _sample(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF samples over the stored row order, one per uniform in ``u``.

    ``cdf`` is one row shared by every draw, or one row per draw.
    """
    idx = (cdf <= u[..., None]).sum(axis=-1)
    return np.minimum(idx, cdf.shape[-1] - 1)


def step(channel: SdDmc, x: int, s: int, rng: np.random.Generator) -> int:
    """One channel use: sample y given (x, s).  State sampling is the caller's job."""
    if not (0 <= x < channel.nx and 0 <= s < channel.ns):
        raise IndexError(f"(x={x}, s={s}) out of range")
    return int(_sample(np.cumsum(channel.W[s, x]), rng.random(1))[0])


def sample_state(channel: SdDmc, rng: np.random.Generator) -> int:
    return int(_sample(np.cumsum(channel.Q), rng.random(1))[0])


@dataclass(frozen=True)
class Trial:
    """A zero-error protocol: ``trial(rng, n, trace)`` -> (ok[n], tau[n]).

    ``send(msgs, rng, trace)`` sends one ``msg_bits``-bit message per trial
    and returns (decoded, tau), then any further per-trial arrays; the
    trace, if given, records msgs[0].  ``round_p`` is the per-round stopping
    probability of a two-slot bit protocol, whose stopping time is
    2 * Geometric(round_p); None where no closed form is known.
    """

    send: Callable[..., tuple[np.ndarray, ...]]
    msg_bits: int = 1
    round_p: Optional[float] = None

    def __call__(self, rng: np.random.Generator, n: int, trace: Optional[Trace] = None):
        msgs = rng.integers(1 << self.msg_bits, size=n)
        decoded, tau = self.send(msgs, rng, trace)[:2]
        return decoded == msgs, tau


def _two_slot_sender(play_round: Callable) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """Bit sender that repeats two-slot rounds until the decoder stops.

    ``play_round(zero, rng)`` plays one round for the trials still running
    (``zero`` marks those sending 0) and returns ``(slots, done, decoded)``:
    an (s, x, y) triple of arrays per slot, with s None where the state is
    not drawn, the trials whose decoder stops, and the bit it decodes.  The
    sender's trace numbers its slots on from ``offset``.
    """

    def send(bits, rng, trace=None, offset=0):
        decoded, tau = np.empty((2, len(bits)), dtype=np.int64)
        live = np.arange(len(bits))
        n = 0
        while live.size:
            slots, done, bit = play_round(bits[live] == 0, rng)
            n += 2
            if trace is not None and live[0] == 0:
                for k, (s, x, y) in enumerate(slots):
                    state = None if s is None else int(s[0])
                    decision = int(bit[0]) if k == 1 and done[0] else None
                    trace.record(offset + n - 1 + k, state, int(x[0]), int(y[0]), decision)
            decoded[live[done]] = bit[done]
            tau[live[done]] = n
            live = live[~done]
        if trace is not None:
            trace.message, trace.decoded, trace.tau = int(bits[0]), int(decoded[0]), offset + int(tau[0])
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
    # A reduced DMC may have outputs no input reaches (a joint (y, s) that is
    # impossible in state s); their all-zero columns disprove nothing.
    reachable = np.flatnonzero(channel.W.any(axis=0))
    verdict = check_dmc_vl(Dmc(W=channel.W[:, reachable]))
    if verdict.decision != POSITIVE:
        raise PrecondFailed("channel has no disprover output (no structural zero)")
    x, y = verdict.witness["x"], int(reachable[verdict.witness["y"]])
    x_alt = int(np.argmax(channel.W[:, y] != 0.0))
    cdf = np.cumsum(channel.W, axis=1)

    def play_round(zero, rng):
        first, second = np.where(zero, x, x_alt), np.where(zero, x_alt, x)
        u = rng.random((len(zero), 2))
        y1, y2 = _sample(cdf[first], u[:, 0]), _sample(cdf[second], u[:, 1])
        hit1, hit2 = y1 == y, y2 == y
        if np.any(hit1 & hit2):
            raise RuntimeError("impossible output pattern observed; channel violates its zeros")
        return ((None, first, y1), (None, second, y2)), hit1 != hit2, hit1

    return Trial(_two_slot_sender(play_round), round_p=float(channel.W[x_alt, y]))


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
    q_cdf = np.cumsum(channel.Q)
    cdf = np.cumsum(channel.W, axis=2)

    def play_round(zero, rng):
        first, second = np.where(zero, x, x_alt), np.where(zero, x_alt, x)
        u = rng.random((len(zero), 4))
        s1, s2 = _sample(q_cdf, u[:, 0]), _sample(q_cdf, u[:, 1])
        y1, y2 = _sample(cdf[s1, first], u[:, 2]), _sample(cdf[s2, second], u[:, 3])
        decided0 = (y2 == y) & in_group[s2]
        decided1 = ~decided0 & (y1 == y) & in_group[s1]
        done = decided0 | decided1
        # Encoder's view: outputs only, plus knowledge of its own inputs.
        if np.any((np.where(zero, y2, y1) == y) != done):
            raise RuntimeError("encoder and decoder disagree on stopping; witness unsound")
        return ((s1, first, y1), (s2, second, y2)), done, decided1

    p = float(channel.Q[in_group] @ channel.W[in_group, x_alt, y])
    return Trial(_two_slot_sender(play_round), round_p=p)


def reduced_dmc(channel: SdDmc, si: SiModel) -> Dmc:
    """The DMC on which a given state-information model's protocols operate."""
    if si.decoder is Si.NONE:
        if si.encoder in (Si.NONE, Si.STRICTLY_CAUSAL):
            return average_states(channel)
        return shannon_strategy_channel(channel)[0]
    return joint_output_channel(channel)


def han_sato_trial(channel: SdDmc, si: SiModel, msg_bits: int, n1: Optional[int] = None) -> Trial:
    """Two-phase zero-error transmission of a multi-bit message.

    Phase 1 sends the message with a random fixed-length code (distinct
    codewords, maximum-likelihood decoding) over the reduced DMC for the
    given state-information model; the encoder replays the decoding via
    feedback.  One zero-error bit then acknowledges the outcome; on a
    negative acknowledgment the message is resent bit by bit with the
    zero-error bit protocol, so the final decision is always correct.
    The sender also returns ``ack``, the trials whose phase 1 was right.

    Phase 1 draws each trial's codebook and then its n1 channel uniforms,
    trial by trial in stream order, so the random stream is that of a
    per-trial loop.  Sampling and decoding run once per block of trials,
    and no block array of several trials exceeds ``MAX_CODEBOOK_ENTRIES``
    bytes.
    """
    if si not in SI_MODELS:
        raise UnsupportedModel("two-phase protocol is not defined for the decoder-only model")
    if n1 is None:
        n1 = 4 * msg_bits
    # The bit-length test keeps a huge msg_bits from building 1 << msg_bits.
    if msg_bits >= MAX_CODEBOOK_ENTRIES.bit_length() or (1 << msg_bits) * max(n1, 1) > MAX_CODEBOOK_ENTRIES:
        raise BudgetExceeded(
            f"codebook of 2**{msg_bits} codewords of length {n1} exceeds {MAX_CODEBOOK_ENTRIES} letters"
        )
    verdict = vl_positivity(channel, si)
    if verdict.decision != POSITIVE:
        raise PrecondFailed(f"zero-error positivity fails for si={si.token}")
    dmc = reduced_dmc(channel, si)
    n_msgs = 1 << msg_bits
    if dmc.nx**n1 < n_msgs:
        raise PrecondFailed(f"blocklength {n1} too short for {n_msgs} distinct codewords")
    with np.errstate(divide="ignore"):
        log_w = np.log(dmc.W)
    cdf = np.cumsum(dmc.W, axis=1)
    send_bits = disprover_trial(dmc).send
    # Trials per phase-1 block.  The block arrays (codebooks, sampled CDF
    # rows, log-likelihood terms) have 8-byte entries, and each is held to
    # MAX_CODEBOOK_ENTRIES bytes: a block at the letter cap would hold 8 MiB
    # per array, which raised the peak RSS of a 256-message run by 60%.  A
    # block holds at least one trial, as the per-trial code did.
    block = max(MAX_CODEBOOK_ENTRIES // (8 * max(n_msgs, dmc.ny) * max(n1, 1)), 1)

    def send(msgs, rng, trace=None):
        guess = np.empty(len(msgs), dtype=np.int64)
        for start in range(0, len(msgs), block):
            m = min(block, len(msgs) - start)
            codebooks = np.empty((m, n_msgs, n1), dtype=np.int64)
            u = np.empty((m, n1))
            for i in range(m):
                codebooks[i] = _distinct_codewords(n_msgs, dmc.nx, n1, rng)
                u[i] = rng.random(n1)
            sent = codebooks[np.arange(m), msgs[start:start + m]]
            outputs = _sample(cdf[sent], u)
            # argmax breaks ties toward the lowest index
            guess[start:start + m] = log_w[codebooks, outputs[:, None]].sum(axis=2).argmax(axis=1)
            if start == 0 and trace is not None:
                for t in range(n1):
                    trace.record(t + 1, None, int(sent[0, t]), int(outputs[0, t]))
        ack = guess == msgs
        _, tau = send_bits(ack.astype(np.int64), rng, trace, offset=n1)
        tau += n1
        decoded = np.where(ack, guess, 0)
        resent = np.flatnonzero(~ack)
        resent_trace = trace if resent.size and resent[0] == 0 else None
        for i in range(msg_bits):
            bits, t_bit = send_bits((msgs[resent] >> (msg_bits - 1 - i)) & 1, rng, resent_trace, offset=int(tau[0]))
            decoded[resent] = (decoded[resent] << 1) | bits
            tau[resent] += t_bit
        if trace is not None:
            trace.message, trace.decoded, trace.tau = int(msgs[0]), int(decoded[0]), int(tau[0])
        return decoded, tau, ack

    return Trial(send, msg_bits=msg_bits)


def _distinct_codewords(m: int, nx: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct random codewords of length n over an nx-letter alphabet.

    They are the first m distinct rows of an i.i.d. uniform stream, drawn in
    batches of the number still missing.  A first batch with no repeated
    row is returned as drawn.
    """
    rows = rng.integers(nx, size=(m, n))
    if n == 0:
        return rows  # the empty word; the caller asks for m = 1 only, as nx**0 = 1
    # One bytes object per row, hashed in C.
    if len(set(rows.view(f"V{rows.itemsize * n}").ravel().tolist())) == m:
        return rows
    while True:
        # The distinct rows so far, in order of first occurrence.
        _, first = np.unique(rows.view(f"V{rows.itemsize * n}").ravel(), return_index=True)
        rows = rows[np.sort(first)]
        if len(rows) == m:
            return rows
        rows = np.concatenate([rows, rng.integers(nx, size=(m - len(rows), n))])


def _send_one(trial: Trial, msg: Optional[int], rng: np.random.Generator, trace: Optional[Trace]) -> tuple:
    """Send one message (drawn from ``rng`` if None): (msg, then send's values), as Python scalars."""
    if msg is not None and not 0 <= msg < 1 << trial.msg_bits:
        raise ValueError(f"message {msg} is outside 0..{(1 << trial.msg_bits) - 1}")
    msgs = rng.integers(1 << trial.msg_bits, size=1) if msg is None else np.array([msg])
    return tuple(a[0].item() for a in (msgs, *trial.send(msgs, rng, trace)))


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

    Chunk c draws from the substream (seed, c); ``trace`` records trial 0.
    Stopping times are summed as exact integers; the rate counts the
    trial's ``msg_bits`` per message.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    errors = total = total_sq = 0
    for chunk, start in enumerate(range(0, trials, CHUNK_TRIALS)):
        rng = np.random.default_rng([seed, chunk])
        ok, tau = trial(rng, min(CHUNK_TRIALS, trials - start), trace if chunk == 0 else None)
        errors += int(np.count_nonzero(~ok))
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
