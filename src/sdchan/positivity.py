"""Positivity of zero-error feedback capacities, with machine-checkable witnesses.

Every checker works on the structural zero/nonzero support pattern of the
channel only.  A ``positive`` verdict always carries a witness that
:func:`verify_witness` re-validates against the channel; witness selection
is lexicographic-first, so verdicts are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import Dmc, Regime, SdDmc, Si, SiModel
from .errors import AlphabetTooLarge, UnsupportedModel
from .reductions import average_states

POSITIVE = "positive"
ZERO = "zero"
POSITIVE_SUFFICIENT = "positive_sufficient"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """A positivity decision plus the evidence it rests on.

    ``witness`` is a small JSON-able dict whose ``kind`` key names its shape
    (letters / partition / strategy / state_group / per_state_pairs /
    per_state_pair_table).  ``positive_sufficient`` and ``unknown`` occur
    only for the decoder-only-causal model under variable-length coding,
    where only a sufficient condition is known.
    """

    decision: str
    condition: str
    witness: Optional[dict] = None
    si: Optional[str] = None
    regime: Optional[str] = None

    def to_jsonable(self) -> dict:
        return {
            "condition": self.condition,
            "decision": self.decision,
            "witness": self.witness,
            "si": self.si,
            "regime": self.regime,
        }


def check_dmc_vl(channel: Dmc) -> Verdict:
    """Positive iff the matrix has a structural zero (a disprover output).

    Assumes every output of the DMC is reachable from some input.
    """
    zeros = np.argwhere(channel.W == 0.0)
    if zeros.size:
        x, y = (int(v) for v in zeros[0])
        return Verdict(POSITIVE, "dmc_disprover", {"kind": "letters", "x": x, "y": y})
    return Verdict(ZERO, "dmc_disprover")


def check_dmc_fl_feedback(channel: Dmc) -> Verdict:
    """Positive iff two inputs have disjoint output supports."""
    nonzero = channel.W != 0.0
    for x in range(channel.nx):
        for x2 in range(x + 1, channel.nx):
            if not np.any(nonzero[x] & nonzero[x2]):
                return Verdict(
                    POSITIVE, "dmc_disjoint_pair", {"kind": "letters", "x": x, "x_prime": x2}
                )
    return Verdict(ZERO, "dmc_disjoint_pair")


def _all_state_disprover(channel: SdDmc) -> Optional[dict]:
    # (x, y) such that y is impossible from x in every state.
    zero_everywhere = (channel.W == 0.0).all(axis=0)  # [x][y]
    hits = np.argwhere(zero_everywhere)
    if hits.size:
        x, y = (int(v) for v in hits[0])
        return {"kind": "letters", "x": x, "y": y}
    return None


def _strategy_disprover(channel: SdDmc) -> Optional[dict]:
    # y such that every state has some input that cannot produce y;
    # the witness strategy letter picks that input per state.
    zero = channel.W == 0.0  # [s][x][y]
    for y in range(channel.ny):
        if all(zero[s, :, y].any() for s in range(channel.ns)):
            u = tuple(int(np.argmax(zero[s, :, y])) for s in range(channel.ns))
            return {"kind": "strategy", "y": y, "u": list(u)}
    return None


def _in_state_disprover(channel: SdDmc) -> Optional[dict]:
    # (x, x', y, s) with y impossible from x but possible from x', in state s;
    # scanned y-major so the witness is canonical.
    for y in range(channel.ny):
        for x in range(channel.nx):
            for x2 in range(channel.nx):
                if x2 == x:
                    continue
                for s in range(channel.ns):
                    if channel.W[s, x, y] == 0.0 and channel.W[s, x2, y] != 0.0:
                        return {"kind": "letters", "x": x, "x_prime": x2, "y": y, "s": s}
    return None


def check_nocvlpos(channel: SdDmc) -> Optional[dict]:
    """State-group witness for the decoder-only-causal variable-length scheme.

    Searches (x, x', y) lexicographically; the state group is forced to be
    the set of states in which x' can produce y.  A witness requires the
    group to be nonempty and y to be impossible from x throughout the group.
    """
    for x in range(channel.nx):
        for x2 in range(channel.nx):
            if x2 == x:
                continue
            for y in range(channel.ny):
                group = [s for s in range(channel.ns) if channel.W[s, x2, y] != 0.0]
                if group and all(channel.W[s, x, y] == 0.0 for s in group):
                    return {
                        "kind": "state_group",
                        "x": x,
                        "x_prime": x2,
                        "y": y,
                        "states": group,
                    }
    return None


def vl_positivity(channel: SdDmc, si: SiModel) -> Verdict:
    """Zero-error positivity under variable-length feedback coding."""
    enc, dec = si.encoder, si.decoder
    if dec is Si.NONE:
        if enc in (Si.NONE, Si.STRICTLY_CAUSAL):
            w = _all_state_disprover(channel)
            cond = "all_state_disprover"
        else:
            w = _strategy_disprover(channel)
            cond = "strategy_disprover"
        decision = POSITIVE if w else ZERO
    elif enc is Si.NONE:  # decoder-only causal: sufficiency only
        w = check_nocvlpos(channel)
        cond = "state_group_disprover"
        decision = POSITIVE_SUFFICIENT if w else UNKNOWN
    else:
        w = _in_state_disprover(channel)
        cond = "in_state_disprover"
        decision = POSITIVE if w else ZERO
    return Verdict(decision, cond, w, si=si.token, regime=Regime.VARIABLE_LENGTH.value)


def partition_exists(channel: SdDmc, max_outputs: int = 20) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Output bipartition (Y0, Y1) deterministically separable in every state.

    Y0 is the side containing output 0; candidates are scanned in increasing
    binary encoding of the membership of outputs 1..|Y|-1 in Y1.
    """
    ny = channel.ny
    if ny > max_outputs:
        raise AlphabetTooLarge(f"partition search over {ny} outputs exceeds the cap of {max_outputs}")
    nonzero = channel.W != 0.0  # [s][x][y]
    rest = list(range(1, ny))
    for mask in range(1, 1 << (ny - 1)):
        y1 = tuple(y for i, y in enumerate(rest) if mask >> i & 1)
        y0 = tuple(y for y in range(ny) if y not in y1)
        in_y0 = np.zeros(ny, dtype=bool)
        in_y0[list(y0)] = True
        ok = True
        for s in range(channel.ns):
            rows = nonzero[s]
            has_y0_input = np.any(~rows[:, ~in_y0].any(axis=1))
            has_y1_input = np.any(~rows[:, in_y0].any(axis=1))
            if not (has_y0_input and has_y1_input):
                ok = False
                break
        if ok:
            return y0, y1
    return None


def _disjoint_in_pair_of_states(channel: SdDmc, s: int, s2: int) -> Optional[tuple[int, int]]:
    # The letters may coincide when the states differ; for s == s2 a row can
    # never be disjoint from itself, so distinctness there is automatic.
    nonzero = channel.W != 0.0
    for x in range(channel.nx):
        for x2 in range(channel.nx):
            if x2 == x and s == s2:
                continue
            if not np.any(nonzero[s, x] & nonzero[s2, x2]):
                return x, x2
    return None


def _all_state_disjoint_pair(channel: SdDmc) -> Optional[dict]:
    nonzero = channel.W != 0.0
    for x in range(channel.nx):
        for x2 in range(x + 1, channel.nx):
            if not np.any(nonzero[:, x, :] & nonzero[:, x2, :]):
                return {"kind": "letters", "x": x, "x_prime": x2}
    return None


def bl_positivity(channel: SdDmc, si: SiModel) -> Verdict:
    """Zero-error positivity under bounded-length (equivalently fixed-length) coding."""
    enc, dec = si.encoder, si.decoder
    if dec is Si.NONE:
        if enc in (Si.NONE, Si.STRICTLY_CAUSAL):
            v = check_dmc_fl_feedback(average_states(channel))
            cond = "averaged_disjoint_pair"
            w = v.witness
            decision = v.decision
        elif enc is Si.CAUSAL:
            cond = "output_partition"
            part = partition_exists(channel)
            w = {"kind": "partition", "y0": list(part[0]), "y1": list(part[1])} if part else None
            decision = POSITIVE if w else ZERO
        else:  # non-causal encoder: a non-confusable pair across every state pair
            cond = "cross_state_disjoint_pairs"
            table = {}
            decision = POSITIVE
            for s in range(channel.ns):
                for s2 in range(channel.ns):
                    pair = _disjoint_in_pair_of_states(channel, s, s2)
                    if pair is None:
                        decision = ZERO
                        break
                    table[f"{s},{s2}"] = list(pair)
                if decision == ZERO:
                    break
            w = {"kind": "per_state_pair_table", "pairs": table} if decision == POSITIVE else None
    elif (enc, dec) in ((Si.STRICTLY_CAUSAL, Si.CAUSAL), (Si.NONE, Si.CAUSAL)):
        # The decoder-only-causal case is equivalent to the strictly-causal one here.
        cond = "all_state_disjoint_pair"
        w = _all_state_disjoint_pair(channel)
        decision = POSITIVE if w else ZERO
    else:
        cond = "per_state_disjoint_pairs"
        pairs = {}
        decision = POSITIVE
        for s in range(channel.ns):
            pair = _disjoint_in_pair_of_states(channel, s, s)
            if pair is None:
                decision = ZERO
                break
            pairs[str(s)] = list(pair)
        w = {"kind": "per_state_pairs", "pairs": pairs} if decision == POSITIVE else None
    return Verdict(decision, cond, w, si=si.token, regime=Regime.BOUNDED_LENGTH.value)


def positivity(channel: SdDmc, si: SiModel, regime: Regime) -> Verdict:
    """Dispatch on the coding regime (fixed and bounded length coincide)."""
    if regime is Regime.VARIABLE_LENGTH:
        return vl_positivity(channel, si)
    return replace(bl_positivity(channel, si), regime=regime.value)


def verify_witness(channel: SdDmc | Dmc, verdict: Verdict) -> bool:
    """Re-check a positive verdict's witness against the support pattern."""
    w = verdict.witness
    if verdict.decision in (ZERO, UNKNOWN):
        return w is None
    if w is None:
        return False
    cond = verdict.condition
    if cond == "dmc_disprover":
        return channel.W[w["x"], w["y"]] == 0.0
    if cond == "dmc_disjoint_pair":
        return not (channel.support(w["x"]) & channel.support(w["x_prime"]))
    if cond == "all_state_disprover":
        return bool(np.all(channel.W[:, w["x"], w["y"]] == 0.0))
    if cond == "strategy_disprover":
        u, y = w["u"], w["y"]
        return all(channel.W[s, u[s], y] == 0.0 for s in range(channel.ns))
    if cond == "in_state_disprover":
        return (
            channel.W[w["s"], w["x"], w["y"]] == 0.0
            and channel.W[w["s"], w["x_prime"], w["y"]] != 0.0
        )
    if cond == "state_group_disprover":
        group = set(w["states"])
        if not group:
            return False
        ok_inside = all(
            channel.W[s, w["x_prime"], w["y"]] != 0.0 and channel.W[s, w["x"], w["y"]] == 0.0
            for s in group
        )
        ok_outside = all(
            channel.W[s, w["x_prime"], w["y"]] == 0.0
            for s in range(channel.ns)
            if s not in group
        )
        return ok_inside and ok_outside
    if cond == "averaged_disjoint_pair":
        avg = average_states(channel)
        return not (avg.support(w["x"]) & avg.support(w["x_prime"]))
    if cond == "output_partition":
        y0, y1 = set(w["y0"]), set(w["y1"])
        if y0 | y1 != set(range(channel.ny)) or y0 & y1 or not y0 or not y1:
            return False
        for s in range(channel.ns):
            sup = [channel.support(x, s) for x in range(channel.nx)]
            if not any(sp <= y0 for sp in sup) or not any(sp <= y1 for sp in sup):
                return False
        return True
    if cond == "cross_state_disjoint_pairs":
        for key, (x, x2) in w["pairs"].items():
            s, s2 = (int(v) for v in key.split(","))
            if channel.support(x, s) & channel.support(x2, s2):
                return False
        return set(w["pairs"]) == {f"{s},{s2}" for s in range(channel.ns) for s2 in range(channel.ns)}
    if cond == "all_state_disjoint_pair":
        return not any(
            channel.support(w["x"], s) & channel.support(w["x_prime"], s)
            for s in range(channel.ns)
        )
    if cond == "per_state_disjoint_pairs":
        if set(w["pairs"]) != {str(s) for s in range(channel.ns)}:
            return False
        return not any(
            channel.support(x, int(s)) & channel.support(x2, int(s))
            for s, (x, x2) in w["pairs"].items()
        )
    raise UnsupportedModel(f"unknown condition {cond!r}")
