"""Positivity of zero-error feedback capacities, with machine-checkable witnesses.

Every search and every verifier reads only the structural support pattern:
``channel.support_pattern`` for a state-dependent channel, W != 0 for a DMC.
A state of probability zero supports nothing, and an output no input
reaches disproves nothing.  A ``positive`` verdict always carries a witness
that :func:`verify_witness` re-validates against the channel; witness
selection is lexicographic-first, so verdicts are deterministic.  The
searches over pairs of inputs build their boolean arrays in blocks along
the leading index, each within ``MAX_BLOCK_BYTES``, and stop at the first
block with a hit, which gives the same first witness.

Two tables hold the design.  ``_ROUTES`` is the one place that maps each
state-information model to its variable-length and bounded-length
condition.  ``_CONDITIONS`` is the one place that pairs each condition with
its witness search and its verifier; a verifier re-reads the support
pattern and never calls a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channel import Dmc, Regime, SdDmc, SiModel, support_pattern
from .errors import BudgetExceeded, UnsupportedModel

POSITIVE = "positive"
ZERO = "zero"
POSITIVE_SUFFICIENT = "positive_sufficient"
UNKNOWN = "unknown"

# Largest output alphabet the partition search scans (2**(|Y|-1) bipartitions).
MAX_PARTITION_OUTPUTS = 20

# Largest boolean block, in bytes, that a witness search builds at once: the
# pair searches hold O(nx**2) or O(ny * nx**2 * ns) entries in all, which
# they scan in blocks along their leading index (see ``_scan``).
MAX_BLOCK_BYTES = 1 << 20


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


def _first(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """Index of the first True entry in row-major (lexicographic) order."""
    hits = np.flatnonzero(mask)
    return tuple(int(i) for i in np.unravel_index(hits[0], mask.shape)) if hits.size else None


def _scan(n: int, row_bytes: int, block: Callable[[int, int], np.ndarray]) -> Optional[tuple[int, ...]]:
    """``_first`` of a boolean array built in blocks along its leading index.

    ``block(lo, hi)`` gives the array's rows lo..hi-1, each of ``row_bytes``
    entries.  A block holds as many rows as fit in ``MAX_BLOCK_BYTES``, and
    at least one, and the blocks are scanned in order until one has a hit,
    so the index is the one the whole array would give.
    """
    step = max(MAX_BLOCK_BYTES // max(row_bytes, 1), 1)
    for lo in range(0, n, step):
        hit = _first(block(lo, min(lo + step, n)))
        if hit is not None:
            return (hit[0] + lo, *hit[1:])
    return None


def _disjoint(rows: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """[i][j]: support row i of ``rows`` and row j of ``rows2`` share no output."""
    return ~(rows @ rows2.T)


def _first_disjoint(rows: np.ndarray, rows2: np.ndarray, upper: bool = False) -> Optional[tuple[int, int]]:
    """First (i, j) with row i of ``rows`` and row j of ``rows2`` disjoint, and i < j if ``upper``."""
    def block(lo, hi):
        d = _disjoint(rows[lo:hi], rows2)
        return np.triu(d, 1 + lo) if upper else d

    return _scan(len(rows), len(rows2), block)


def _first_disjoint_pair(rows: np.ndarray) -> Optional[tuple[int, int]]:
    """First (x, x') with x < x' whose support rows share no output."""
    return _first_disjoint(rows, rows, upper=True)


def _separates(nonzero: np.ndarray, in_y1: np.ndarray) -> bool:
    """Every state has an input confined to Y0 and an input confined to Y1."""
    return all((~nonzero[:, :, side].any(axis=2)).any(axis=1).all() for side in (in_y1, ~in_y1))


def check_nocvlpos(channel: SdDmc) -> Optional[dict]:
    """State-group witness for the decoder-only-causal variable-length scheme.

    Searches (x, x', y) lexicographically; the state group is forced to be
    the set of states in which x' can produce y.  A witness requires the
    group to be nonempty and y to be impossible from x throughout the group.
    """
    nonzero = support_pattern(channel).transpose(2, 1, 0)  # [y][x][s]
    possible = nonzero.any(axis=2)[:, None, :]  # [y][1][x']

    def block(lo, hi):
        clash = nonzero[:, lo:hi] @ nonzero.transpose(0, 2, 1)  # [y][x][x']: both possible in some state
        return (possible & ~clash).transpose(1, 2, 0)

    hit = _scan(channel.nx, channel.nx * channel.ny, block)
    if hit is None:
        return None
    x, x2, y = hit
    states = [int(s) for s in np.flatnonzero(nonzero[y, x2])]
    return {"kind": "state_group", "x": x, "x_prime": x2, "y": y, "states": states}


def partition_exists(channel: SdDmc) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Output bipartition (Y0, Y1) deterministically separable in every state.

    Y0 is the side containing output 0; candidates are scanned in increasing
    binary encoding of the membership of outputs 1..|Y|-1 in Y1.
    """
    ny = channel.ny
    if ny > MAX_PARTITION_OUTPUTS:
        raise BudgetExceeded(f"partition search over {ny} outputs exceeds the cap of {MAX_PARTITION_OUTPUTS}")
    nonzero = support_pattern(channel)
    for mask in range(1, 1 << (ny - 1)):
        in_y1 = np.array([y > 0 and bool(mask >> (y - 1) & 1) for y in range(ny)])
        if _separates(nonzero, in_y1):
            return tuple(int(y) for y in np.flatnonzero(~in_y1)), tuple(int(y) for y in np.flatnonzero(in_y1))
    return None


def _letters(names: tuple[str, ...], hit: Optional[tuple[int, ...]]) -> Optional[dict]:
    return None if hit is None else dict(zip(names, hit))


def _all_state_disprover(channel: SdDmc) -> Optional[dict]:
    # (x, y) with y impossible from x in every state but possible from some input.
    can = support_pattern(channel).any(axis=0)  # [x][y]
    return _letters(("x", "y"), _first(~can & can.any(axis=0)))


def _strategy_disprover(channel: SdDmc) -> Optional[dict]:
    # y possible from some input, such that every state has some input that cannot
    # produce y; the witness strategy letter picks the first such input per state.
    nonzero = support_pattern(channel)
    zero = ~nonzero  # [s][x][y]
    hit = _first(zero.any(axis=1).all(axis=0) & nonzero.any(axis=(0, 1)))
    return None if hit is None else {"y": hit[0], "u": [int(x) for x in zero[:, :, hit[0]].argmax(axis=1)]}


def _in_state_disprover(channel: SdDmc) -> Optional[dict]:
    # (y, x, x', s) with y impossible from x but possible from x' in state s,
    # scanned in blocks of the pairs (y, x).
    nonzero = support_pattern(channel).transpose(2, 1, 0)  # [y][x][s]
    zero = ~nonzero.reshape(-1, channel.ns)  # [(y, x)][s]
    nx = channel.nx

    def block(lo, hi):
        return zero[lo:hi, None, :] & nonzero[np.arange(lo, hi) // nx]

    hit = _scan(channel.ny * nx, nx * channel.ns, block)
    if hit is None:
        return None
    y, x = divmod(hit[0], nx)
    return {"x": x, "x_prime": hit[1], "y": y, "s": hit[2]}


def _output_partition(channel: SdDmc) -> Optional[dict]:
    part = partition_exists(channel)
    return {"y0": list(part[0]), "y1": list(part[1])} if part else None


def _state_pairs(channel: SdDmc, cross: bool) -> list[tuple[str, int, int]]:
    """(key, s, s') for every ordered pair of states if ``cross``, else for every s = s'."""
    if cross:
        return [(f"{s},{s2}", s, s2) for s in range(channel.ns) for s2 in range(channel.ns)]
    return [(str(s), s, s) for s in range(channel.ns)]


def _pair_table(channel: SdDmc, cross: bool) -> Optional[dict]:
    # Per key, the first (x, x') with x in state s and x' in state s' disjoint;
    # the letters may coincide only when the states differ.
    nonzero = support_pattern(channel)
    table = {}
    for key, s, s2 in _state_pairs(channel, cross):
        pair = _first_disjoint_pair(nonzero[s]) if s == s2 else _first_disjoint(nonzero[s], nonzero[s2])
        if pair is None:
            return None
        table[key] = list(pair)
    return {"pairs": table}


def _all_state_rows(channel: SdDmc) -> np.ndarray:
    """[x][(s, y)]: the supports of input x in every state, side by side."""
    return support_pattern(channel).transpose(1, 0, 2).reshape(channel.nx, -1)


def _rows_disjoint(rows: np.ndarray, x: int, x2: int) -> bool:
    return not (rows[x] & rows[x2]).any()


def _disproves(column: np.ndarray, x) -> bool:
    """Output column [s][x] of the support pattern: some input produces the
    output, and input x (in state s, x[s] if x is a list) never does."""
    return column.any() and not column[np.arange(len(column)), x].any()


def _verify_state_group(channel: SdDmc, w: dict) -> bool:
    group, column = set(w["states"]), support_pattern(channel)[:, :, w["y"]]
    can = {int(s) for s in np.flatnonzero(column[:, w["x_prime"]])}
    return bool(group) and group == can and not column[list(group), w["x"]].any()


def _verify_partition(channel: SdDmc, w: dict) -> bool:
    y0, y1 = set(w["y0"]), set(w["y1"])
    if y0 | y1 != set(range(channel.ny)) or y0 & y1 or not y0 or not y1:
        return False
    return _separates(support_pattern(channel), np.isin(np.arange(channel.ny), list(y1)))


def _verify_pair_table(channel: SdDmc, w: dict, cross: bool) -> bool:
    states = {key: (s, s2) for key, s, s2 in _state_pairs(channel, cross)}
    if set(w["pairs"]) != set(states):
        return False
    nonzero = support_pattern(channel)
    return not any((nonzero[states[k][0], x] & nonzero[states[k][1], x2]).any() for k, (x, x2) in w["pairs"].items())


@dataclass(frozen=True)
class _Condition:
    """One positivity condition: its witness kind, search and verifier.

    ``fields`` maps each witness field to the alphabet of its indices: ``x``,
    ``y`` or ``s`` for one index, ``x[]`` for a list, ``x{}`` for a table of
    input pairs.  ``decisions`` is the verdict with and without a witness.
    """

    kind: str
    fields: dict[str, str]
    search: Callable[[SdDmc | Dmc], Optional[dict]]
    verify: Callable[[SdDmc | Dmc, dict], bool]
    decisions: tuple[str, str] = (POSITIVE, ZERO)


# Rows call check_nocvlpos and partition_exists through module globals, so a
# rebinding of either (for instance by a tracer) sees every call.
_CONDITIONS = {
    "dmc_disprover": _Condition("letters", {"x": "x", "y": "y"},
        lambda ch: _letters(("x", "y"), _first((ch.W == 0.0) & ch.W.any(axis=0))),
        lambda ch, w: ch.W[w["x"], w["y"]] == 0.0 and ch.W[:, w["y"]].any()),
    "dmc_disjoint_pair": _Condition("letters", {"x": "x", "x_prime": "x"},
        lambda ch: _letters(("x", "x_prime"), _first_disjoint_pair(ch.W != 0.0)),
        lambda ch, w: _rows_disjoint(ch.W != 0.0, w["x"], w["x_prime"])),
    "all_state_disprover": _Condition("letters", {"x": "x", "y": "y"},
        _all_state_disprover,
        lambda ch, w: _disproves(support_pattern(ch)[:, :, w["y"]], w["x"])),
    "strategy_disprover": _Condition("strategy", {"y": "y", "u": "x[]"},
        _strategy_disprover,
        lambda ch, w: len(w["u"]) == ch.ns and _disproves(support_pattern(ch)[:, :, w["y"]], w["u"])),
    "in_state_disprover": _Condition("letters", {"x": "x", "x_prime": "x", "y": "y", "s": "s"},
        _in_state_disprover,
        lambda ch, w: support_pattern(ch)[w["s"], [w["x"], w["x_prime"]], w["y"]].tolist() == [False, True]),
    "state_group_disprover": _Condition("state_group", {"x": "x", "x_prime": "x", "y": "y", "states": "s[]"},
        lambda ch: check_nocvlpos(ch),
        _verify_state_group, (POSITIVE_SUFFICIENT, UNKNOWN)),
    "averaged_disjoint_pair": _Condition("letters", {"x": "x", "x_prime": "x"},
        lambda ch: _letters(("x", "x_prime"), _first_disjoint_pair(support_pattern(ch).any(axis=0))),
        lambda ch, w: _rows_disjoint(support_pattern(ch).any(axis=0), w["x"], w["x_prime"])),
    "output_partition": _Condition("partition", {"y0": "y[]", "y1": "y[]"},
        _output_partition,
        _verify_partition),
    "cross_state_disjoint_pairs": _Condition("per_state_pair_table", {"pairs": "x{}"},
        lambda ch: _pair_table(ch, cross=True),
        lambda ch, w: _verify_pair_table(ch, w, cross=True)),
    "all_state_disjoint_pair": _Condition("letters", {"x": "x", "x_prime": "x"},
        lambda ch: _letters(("x", "x_prime"), _first_disjoint_pair(_all_state_rows(ch))),
        lambda ch, w: _rows_disjoint(_all_state_rows(ch), w["x"], w["x_prime"])),
    "per_state_disjoint_pairs": _Condition("per_state_pairs", {"pairs": "x{}"},
        lambda ch: _pair_table(ch, cross=False),
        lambda ch, w: _verify_pair_table(ch, w, cross=False)),
}

# SI token -> (variable-length condition, bounded-length condition).  Under
# bounded length the decoder-only-causal model is equivalent to sc,c.
_ROUTES = {
    "-,-": ("all_state_disprover", "averaged_disjoint_pair"),
    "sc,-": ("all_state_disprover", "averaged_disjoint_pair"),
    "c,-": ("strategy_disprover", "output_partition"),
    "nc,-": ("strategy_disprover", "cross_state_disjoint_pairs"),
    "sc,c": ("in_state_disprover", "all_state_disjoint_pair"),
    "c,c": ("in_state_disprover", "per_state_disjoint_pairs"),
    "nc,c": ("in_state_disprover", "per_state_disjoint_pairs"),
    "nc,nc": ("in_state_disprover", "per_state_disjoint_pairs"),
    "-,c": ("state_group_disprover", "all_state_disjoint_pair"),
}


def _decide(channel: SdDmc | Dmc, condition: str, si: Optional[str] = None, regime: Optional[str] = None) -> Verdict:
    row = _CONDITIONS[condition]
    found = row.search(channel)
    if found is None:
        return Verdict(row.decisions[1], condition, None, si, regime)
    # A search may already name its kind (check_nocvlpos is public).
    return Verdict(row.decisions[0], condition, {"kind": row.kind, **found}, si, regime)


def check_dmc_vl(channel: Dmc) -> Verdict:
    """Positive iff the matrix has a structural zero in a column some input reaches.

    An output no input reaches (an all-zero column) disproves nothing.
    """
    return _decide(channel, "dmc_disprover")


def check_dmc_fl_feedback(channel: Dmc) -> Verdict:
    """Positive iff two inputs have disjoint output supports."""
    return _decide(channel, "dmc_disjoint_pair")


def vl_positivity(channel: SdDmc, si: SiModel) -> Verdict:
    """Zero-error positivity under variable-length feedback coding."""
    return _decide(channel, _ROUTES[si.token][0], si.token, Regime.VARIABLE_LENGTH.value)


def bl_positivity(channel: SdDmc, si: SiModel) -> Verdict:
    """Zero-error positivity under bounded-length coding.

    Fixed length has the same positivity condition, not the same capacity value.
    """
    return _decide(channel, _ROUTES[si.token][1], si.token, Regime.BOUNDED_LENGTH.value)


def positivity(channel: SdDmc, si: SiModel, regime: Regime) -> Verdict:
    """Dispatch on the coding regime; fixed and bounded length share
    ``bl_positivity``'s route (one positivity condition, not one capacity
    value), and the verdict names the regime asked for."""
    if regime is Regime.VARIABLE_LENGTH:
        return vl_positivity(channel, si)
    return _decide(channel, _ROUTES[si.token][1], si.token, regime.value)


def _field_ok(channel: SdDmc | Dmc, value, spec: str) -> bool:
    n = getattr(channel, "n" + spec[0])  # nx, ny or ns

    def index(v) -> bool:
        return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < n

    if spec.endswith("{}"):
        return isinstance(value, dict) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(map(index, p)) for p in value.values())
    if spec.endswith("[]"):
        return isinstance(value, (list, tuple)) and all(map(index, value))
    return index(value)


def verify_witness(channel: SdDmc | Dmc, verdict: Verdict) -> bool:
    """Re-check a positive verdict's witness against the support pattern.

    A witness of the wrong kind or fields, or with an index out of range, fails.
    """
    w = verdict.witness
    if verdict.decision in (ZERO, UNKNOWN):
        return w is None
    if w is None:
        return False
    row = _CONDITIONS.get(verdict.condition)
    if row is None:
        raise UnsupportedModel(f"unknown condition {verdict.condition!r}")
    if not isinstance(w, dict) or w.get("kind") != row.kind or set(w) != {"kind", *row.fields}:
        return False
    return all(_field_ok(channel, w[f], spec) for f, spec in row.fields.items()) and bool(row.verify(channel, w))
