"""Zero-error feedback protocols run against a seeded stochastic channel.

Every protocol here is zero-error by construction: a decoding error in any
trial is a bug, and the Monte-Carlo driver treats it as one (hard count,
no tolerance).  Sampling is inverse-CDF in stored row order, and trial
randomness derives from (seed, trial_index), so statistics are reproducible
regardless of execution order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .channel import Dmc, SdDmc, Si, SiModel, SI_MODELS
from .errors import PrecondFailed, UnsupportedModel
from .positivity import POSITIVE, check_dmc_vl, check_nocvlpos, vl_positivity
from .reductions import average_states, joint_output_channel, shannon_strategy_channel


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
    """Aggregate over trials; errors must be 0 for a zero-error protocol."""

    trials: int
    errors: int
    mean_tau: float
    var_tau: float
    rate_bits_per_use: float

    def to_jsonable(self) -> dict:
        return {
            "trials": self.trials,
            "errors": self.errors,
            "mean_tau": self.mean_tau,
            "var_tau": self.var_tau,
            "rate_bits_per_use": self.rate_bits_per_use,
        }


def _draw(row: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample over the stored row order."""
    cdf = np.cumsum(row)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, len(row) - 1)


def step(channel: SdDmc, x: int, s: int, rng: np.random.Generator) -> int:
    """One channel use: sample y given (x, s).  State sampling is the caller's job."""
    if not (0 <= x < channel.nx and 0 <= s < channel.ns):
        raise IndexError(f"(x={x}, s={s}) out of range")
    return _draw(channel.W[s, x], rng)


def sample_state(channel: SdDmc, rng: np.random.Generator) -> int:
    return _draw(channel.Q, rng)


def run_disprover_bit(
    channel: Dmc, bit: int, rng: np.random.Generator, trace: Optional[Trace] = None
) -> tuple[int, int]:
    """Send one bit with zero error over a DMC that has a disprover output.

    Two-slot rounds: (x, x') encodes 0 and (x', x) encodes 1, where y is
    impossible from x and possible from x'.  The decoder stops on a round
    whose outputs contain y exactly once; the slot position of y reveals
    the bit.  Both outputs equal to y is structurally impossible.
    """
    verdict = check_dmc_vl(channel)
    if verdict.decision != POSITIVE:
        raise PrecondFailed("channel has no disprover output (no structural zero)")
    x, y = verdict.witness["x"], verdict.witness["y"]
    x_alt = int(np.argmax(channel.W[:, y] != 0.0))  # exists: every output reachable

    n = 0
    while True:
        first, second = (x, x_alt) if bit == 0 else (x_alt, x)
        y1 = _draw(channel.W[first], rng)
        y2 = _draw(channel.W[second], rng)
        n += 2
        if y1 == y and y2 == y:
            raise RuntimeError("impossible output pattern observed; channel violates its zeros")
        decided: Optional[int] = None
        if y1 != y and y2 == y:
            decided = 0
        elif y1 == y and y2 != y:
            decided = 1
        if trace is not None:
            trace.record(n - 1, None, first, y1)
            trace.record(n, None, second, y2, decision=decided)
        if decided is not None:
            if trace is not None:
                trace.message, trace.decoded, trace.tau = bit, decided, n
            return decided, n


def run_theorem5_bit(
    channel: SdDmc, bit: int, rng: np.random.Generator, trace: Optional[Trace] = None
) -> tuple[int, int]:
    """One bit with zero error when only the decoder sees the (causal) states.

    Requires a state-group witness (x, x', y, S*): x' can produce y exactly
    in the states of S*, where y disproves x.  Rounds send (x, x') for 0 and
    (x', x) for 1; the decoder stops when a slot outputs y in a state from
    S* (that slot's input must then be x', pinning the bit).  The encoder
    stops in the same round because seeing y on its x' slot certifies the
    state group without state information.
    """
    witness = check_nocvlpos(channel)
    if witness is None:
        raise PrecondFailed("channel has no state-group witness")
    x, x_alt, y = witness["x"], witness["x_prime"], witness["y"]
    group = set(witness["states"])

    n = 0
    while True:
        s1, s2 = sample_state(channel, rng), sample_state(channel, rng)
        first, second = (x, x_alt) if bit == 0 else (x_alt, x)
        y1 = step(channel, first, s1, rng)
        y2 = step(channel, second, s2, rng)
        n += 2

        decided: Optional[int] = None
        if y2 == y and s2 in group:
            decided = 0
        elif y1 == y and s1 in group:
            decided = 1
        # Encoder's view: outputs only, plus knowledge of its own inputs.
        alt_slot_output = y2 if bit == 0 else y1
        encoder_stops = alt_slot_output == y
        if encoder_stops != (decided is not None):
            raise RuntimeError("encoder and decoder disagree on stopping; witness unsound")
        if trace is not None:
            trace.record(n - 1, s1, first, y1)
            trace.record(n, s2, second, y2, decision=decided)
        if decided is not None:
            if trace is not None:
                trace.message, trace.decoded, trace.tau = bit, decided, n
            return decided, n


def reduced_dmc(channel: SdDmc, si: SiModel) -> Dmc:
    """The DMC on which a given state-information model's protocols operate."""
    if si.decoder is Si.NONE:
        if si.encoder in (Si.NONE, Si.STRICTLY_CAUSAL):
            return average_states(channel)
        return shannon_strategy_channel(channel)[0]
    return joint_output_channel(channel)


@dataclass(frozen=True)
class HanSatoRun:
    message: int
    decoded: int
    tau: int
    phase1_correct: bool


def run_han_sato(
    channel: SdDmc,
    si: SiModel,
    msg_bits: int,
    rng: np.random.Generator,
    n1: Optional[int] = None,
    msg: Optional[int] = None,
    trace: Optional[Trace] = None,
) -> HanSatoRun:
    """Two-phase zero-error transmission of a multi-bit message.

    Phase 1 sends the message with a random fixed-length code (distinct
    codewords, maximum-likelihood decoding) over the reduced DMC for the
    given state-information model; the encoder replays the decoding via
    feedback.  One zero-error bit then acknowledges the outcome; on a
    negative acknowledgment the message is resent bit by bit with the
    zero-error bit protocol, so the final decision is always correct.
    """
    if si not in SI_MODELS:
        raise UnsupportedModel("two-phase protocol is not defined for the decoder-only model")
    verdict = vl_positivity(channel, si)
    if verdict.decision != POSITIVE:
        raise PrecondFailed(f"zero-error positivity fails for si={si.token}")
    dmc = reduced_dmc(channel, si)
    n_msgs = 1 << msg_bits
    if n1 is None:
        n1 = 4 * msg_bits
    if dmc.nx**n1 < n_msgs:
        raise PrecondFailed(f"blocklength {n1} too short for {n_msgs} distinct codewords")
    if msg is None:
        msg = int(rng.integers(n_msgs))

    codebook = _distinct_codewords(n_msgs, dmc.nx, n1, rng)
    with np.errstate(divide="ignore"):
        log_w = np.log(dmc.W)

    outputs = np.empty(n1, dtype=int)
    for t in range(n1):
        outputs[t] = _draw(dmc.W[codebook[msg, t]], rng)
        if trace is not None:
            trace.record(t + 1, None, int(codebook[msg, t]), int(outputs[t]))
    loglik = log_w[codebook, outputs].sum(axis=1)
    guess = int(np.argmax(loglik))  # argmax breaks ties toward the lowest index

    ack = guess == msg
    _, tau_ack = run_disprover_bit(dmc, 1 if ack else 0, rng)
    tau = n1 + tau_ack
    if ack:
        decoded = guess
    else:
        bits = []
        for i in range(msg_bits):
            b, t_bit = run_disprover_bit(dmc, (msg >> (msg_bits - 1 - i)) & 1, rng)
            bits.append(b)
            tau += t_bit
        decoded = 0
        for b in bits:
            decoded = (decoded << 1) | b
    if trace is not None:
        trace.message, trace.decoded, trace.tau = msg, decoded, tau
    return HanSatoRun(message=msg, decoded=decoded, tau=tau, phase1_correct=ack)


def _distinct_codewords(m: int, nx: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct random codewords of length n over an nx-letter alphabet."""
    seen = set()
    rows = []
    while len(rows) < m:
        cw = tuple(int(v) for v in rng.integers(nx, size=n))
        if cw not in seen:
            seen.add(cw)
            rows.append(cw)
    return np.array(rows, dtype=int)


# A trial draws from its generator and records into the optional trace.
TrialFn = Callable[..., tuple[bool, int]]


def monte_carlo(trial: TrialFn, trials: int, seed: int, bits_per_message: int = 1) -> ProtocolStats:
    """Run independent trials with per-trial substreams derived from (seed, index)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    taus = np.empty(trials)
    errors = 0
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        ok, tau = trial(rng)
        if not ok:
            errors += 1
        taus[i] = tau
    mean = float(taus.mean())
    return ProtocolStats(
        trials=trials,
        errors=errors,
        mean_tau=mean,
        var_tau=float(taus.var()),
        rate_bits_per_use=bits_per_message / mean,
    )


def disprover_trial(channel: Dmc) -> TrialFn:
    def trial(rng: np.random.Generator, trace: Optional[Trace] = None) -> tuple[bool, int]:
        bit = int(rng.integers(2))
        decoded, tau = run_disprover_bit(channel, bit, rng, trace=trace)
        return decoded == bit, tau

    return trial


def theorem5_trial(channel: SdDmc) -> TrialFn:
    def trial(rng: np.random.Generator, trace: Optional[Trace] = None) -> tuple[bool, int]:
        bit = int(rng.integers(2))
        decoded, tau = run_theorem5_bit(channel, bit, rng, trace=trace)
        return decoded == bit, tau

    return trial


def han_sato_trial(channel: SdDmc, si: SiModel, msg_bits: int, n1: Optional[int] = None) -> TrialFn:
    def trial(rng: np.random.Generator, trace: Optional[Trace] = None) -> tuple[bool, int]:
        run = run_han_sato(channel, si, msg_bits, rng, n1=n1, trace=trace)
        return run.decoded == run.message, run.tau

    return trial


# Protocol name -> (channel, si, msg_bits, n1) -> (trial, bits per message).
PROTOCOLS: dict[str, Callable[[SdDmc, SiModel, int, Optional[int]], tuple[TrialFn, int]]] = {
    "disprover": lambda channel, si, msg_bits, n1: (disprover_trial(reduced_dmc(channel, si)), 1),
    "theorem5": lambda channel, si, msg_bits, n1: (theorem5_trial(channel), 1),
    "han-sato": lambda channel, si, msg_bits, n1: (han_sato_trial(channel, si, msg_bits, n1=n1), msg_bits),
}
