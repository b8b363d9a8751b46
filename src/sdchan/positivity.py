"""Positivity of zero-error feedback capacities, with machine-checkable witnesses.

Every search and every verifier reads only the structural support pattern:
``channel.support_pattern`` for a state-dependent channel, W != 0 for a DMC.
A state of probability zero supports nothing, and an output no input
reaches disproves nothing.  A ``positive`` verdict always carries a witness
that :func:`verify_witness` re-validates against the channel; witness
selection is lexicographic-first, so verdicts are deterministic.  The
searches over pairs of inputs, and the partition search over its output
masks, build their boolean arrays in blocks along the leading index, each
within ``MAX_BLOCK_BYTES``, and stop at the first block with a hit, which
gives the same first witness.  ``_first`` reads a block's first hit from one
``argmax``, and a pair search that needs i < j masks its block of rows
lo..hi-1 by comparing those row indices with the column indices.

``_ROUTES`` is the one place that maps each state-information model to its
variable-length and bounded-length condition; ``_CONDITIONS`` is the one
place that pairs each condition with its witness search and its verifier,
which re-reads the support pattern and never calls a search.  Most rows are
Shannon's two DMC conditions on a reduced channel's support [input][output]
(W != 0, the averaged support or the joint-output support): a disprover
output under variable length, two inputs with disjoint supports under
bounded length.  ``_on_view`` builds them from one search and one verifier
per shape, and ``_pair_tables`` runs the pair shape's on each pair of
states.  The other rows are written out: the strategy lift has
exponentially many letters, and the in-state, state-group and partition
conditions read each state apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channel import Dmc, Regime, SdDmc, SiModel, support_pattern
from .errors import BudgetExceeded, UnsupportedModel, ValidationError

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
    """Index of the first True entry in row-major (lexicographic) order.

    ``argmax`` gives the first maximum; if that entry is False, none is True.
    """
    flat = mask.ravel()
    if not flat.size or not flat[i := int(flat.argmax())]:
        return None
    at = []
    for n in mask.shape[:0:-1]:  # the trailing axes, last first
        i, r = divmod(i, n)
        at.append(r)
    return (i, *at[::-1])


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


def _first_disjoint(rows: np.ndarray, rows2: np.ndarray, upper: bool) -> Optional[tuple[int, int]]:
    """The pair search: first (i, j), i < j if ``upper``, with disjoint rows i of ``rows`` and j of ``rows2``."""
    def block(lo, hi):
        d = ~(rows[lo:hi] @ rows2.T)
        return d & (np.arange(lo, hi)[:, None] < np.arange(len(rows2))) if upper else d

    return _scan(len(rows), len(rows2), block)


def _share_no_output(rows: np.ndarray, rows2: np.ndarray, x: int, x2: int) -> bool:
    """The pair verifier: row x of ``rows`` and row x2 of ``rows2`` are disjoint."""
    return not (rows[x] & rows2[x2]).any()


def _separates(nonzero: np.ndarray, in_y1: np.ndarray) -> np.ndarray:
    """Per Y1 membership row of ``in_y1`` [row][y]: every state has an input confined to Y0 and one to Y1."""
    reach_y1, reach_y0 = nonzero @ in_y1.T, nonzero @ ~in_y1.T  # [s][x][row]: x can produce an output of Y1 (Y0)
    return ~reach_y1.all(axis=1).any(axis=0) & ~reach_y0.all(axis=1).any(axis=0)


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
    binary encoding of the membership of outputs 1..|Y|-1 in Y1, a block of
    masks at a time, every state tested by two boolean matrix products.
    """
    ny = channel.ny
    if ny > MAX_PARTITION_OUTPUTS:
        raise BudgetExceeded(f"partition search over {ny} outputs exceeds the cap of {MAX_PARTITION_OUTPUTS}")
    nonzero, bit = support_pattern(channel), 1 << np.arange(ny) >> 1  # mask bit y - 1 puts y > 0 in Y1
    hit = _scan((1 << (ny - 1)) - 1, 8 + 9 * ny + 3 * channel.ns * channel.nx,  # mask, [y] int64+bool, 3 [s][x]
                lambda lo, hi: _separates(nonzero, np.arange(lo + 1, hi + 1)[:, None] & bit != 0))
    if hit is None:
        return None
    in_y1 = (hit[0] + 1) & bit != 0
    return tuple(int(y) for y in np.flatnonzero(~in_y1)), tuple(int(y) for y in np.flatnonzero(in_y1))


def _strategy_disprover(channel: SdDmc) -> Optional[tuple]:
    # y possible from some input, such that every state has some input that cannot
    # produce y; the witness strategy letter picks the first such input per state.
    nonzero = support_pattern(channel)
    zero = ~nonzero  # [s][x][y]
    hit = _first(zero.any(axis=1).all(axis=0) & nonzero.any(axis=(0, 1)))
    return None if hit is None else (hit[0], [int(x) for x in zero[:, :, hit[0]].argmax(axis=1)])


def _in_state_disprover(channel: SdDmc) -> Optional[tuple]:
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
    return x, hit[1], y, hit[2]


def _disproves(column: np.ndarray, x) -> bool:
    """Output column [s][x] of the support pattern: some input produces the
    output, and input x (in state s, x[s] if x is a list) never does."""
    return column.any() and not column[np.arange(len(column)), x].any()


def _verify_state_group(channel: SdDmc, x: int, x2: int, y: int, states: list) -> bool:
    group, column = set(states), support_pattern(channel)[:, :, y]
    can = {int(s) for s in np.flatnonzero(column[:, x2])}
    return bool(group) and group == can and not column[list(group), x].any()


def _verify_partition(channel: SdDmc, y0: list, y1: list) -> bool:
    y0, y1 = set(y0), set(y1)
    if y0 | y1 != set(range(channel.ny)) or y0 & y1 or not y0 or not y1:
        return False
    return _separates(support_pattern(channel), np.isin(np.arange(channel.ny), list(y1))[None])[0]


@dataclass(frozen=True)
class _Condition:
    """One positivity condition: its witness kind, search and verifier.

    ``fields`` maps each witness field to the alphabet of its indices: ``x``,
    ``y`` or ``s`` for one index, ``x[]`` for a list, ``x{}`` for a table of
    input pairs.  ``search(channel)`` gives the witness's field values in that
    order, or None, and ``verify(channel, *values)`` re-checks them.
    ``decisions`` is the verdict with and without a witness.
    """

    kind: str
    fields: dict[str, str]
    search: Callable[[SdDmc | Dmc], Optional[tuple]]
    verify: Callable[..., bool]
    decisions: tuple[str, str] = (POSITIVE, ZERO)


def _on_view(shape: tuple, view: Callable[[SdDmc | Dmc], np.ndarray]) -> _Condition:
    """The condition of one of Shannon's two shapes on the support view [row][output]."""
    fields, search, verify = shape
    return _Condition("letters", fields, lambda ch: search(view(ch)), lambda ch, *w: verify(view(ch), *w))


def _pair_tables(kind: str, cross: bool) -> _Condition:
    """The pair search and pair verifier on the rows of s and s', per state pair.

    The pairs are every ordered (s, s') keyed "s,s'" if ``cross``, else every
    (s, s) keyed "s"; the letters may coincide only when the states differ.
    """
    def pairs(ch):
        if cross:
            return {f"{s},{s2}": (s, s2) for s in range(ch.ns) for s2 in range(ch.ns)}
        return {str(s): (s, s) for s in range(ch.ns)}

    def search(ch):
        nonzero, table = support_pattern(ch), {}
        for key, (s, s2) in pairs(ch).items():
            pair = _first_disjoint(nonzero[s], nonzero[s2], upper=s == s2)
            if pair is None:
                return None
            table[key] = list(pair)
        return (table,)

    def verify(ch, table):
        nonzero, states = support_pattern(ch), pairs(ch)
        return set(table) == set(states) and all(
            _share_no_output(nonzero[states[k][0]], nonzero[states[k][1]], x, x2) for k, (x, x2) in table.items())

    return _Condition(kind, {"pairs": "x{}"}, search, verify)


# The two shapes: witness fields, a search on a support view, a verifier of the indices.
_DISPROVER = ({"x": "x", "y": "y"},
              lambda can: _first(~can & can.any(axis=0)),
              lambda can, x, y: not can[x, y] and can[:, y].any())
_DISJOINT_PAIR = ({"x": "x", "x_prime": "x"},
                  lambda can: _first_disjoint(can, can, upper=True),
                  lambda can, x, x2: _share_no_output(can, can, x, x2))


# Rows call check_nocvlpos and partition_exists through module globals, so a
# rebinding of either (for instance by a tracer) sees every call.
_CONDITIONS = {
    "dmc_disprover": _on_view(_DISPROVER, lambda ch: ch.W != 0.0),
    "dmc_disjoint_pair": _on_view(_DISJOINT_PAIR, lambda ch: ch.W != 0.0),
    "all_state_disprover": _on_view(_DISPROVER, lambda ch: support_pattern(ch).any(axis=0)),
    "strategy_disprover": _Condition("strategy", {"y": "y", "u": "x[]"},
        _strategy_disprover,
        lambda ch, y, u: len(u) == ch.ns and _disproves(support_pattern(ch)[:, :, y], u)),
    "in_state_disprover": _Condition("letters", {"x": "x", "x_prime": "x", "y": "y", "s": "s"},
        _in_state_disprover,
        lambda ch, x, x2, y, s: support_pattern(ch)[s, [x, x2], y].tolist() == [False, True]),
    "state_group_disprover": _Condition("state_group", {"x": "x", "x_prime": "x", "y": "y", "states": "s[]"},
        lambda ch: None if (w := check_nocvlpos(ch)) is None else (w["x"], w["x_prime"], w["y"], w["states"]),
        _verify_state_group, (POSITIVE_SUFFICIENT, UNKNOWN)),
    "averaged_disjoint_pair": _on_view(_DISJOINT_PAIR, lambda ch: support_pattern(ch).any(axis=0)),
    "output_partition": _Condition("partition", {"y0": "y[]", "y1": "y[]"},
        lambda ch: None if (part := partition_exists(ch)) is None else (list(part[0]), list(part[1])),
        _verify_partition),
    "cross_state_disjoint_pairs": _pair_tables("per_state_pair_table", cross=True),
    "all_state_disjoint_pair": _on_view(_DISJOINT_PAIR,  # [x][(y, s)], as in joint_output_channel
        lambda ch: support_pattern(ch).transpose(1, 2, 0).reshape(ch.nx, -1)),
    "per_state_disjoint_pairs": _pair_tables("per_state_pairs", cross=False),
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
    return Verdict(row.decisions[0], condition, {"kind": row.kind, **dict(zip(row.fields, found))}, si, regime)


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
    return positivity(channel, si, Regime.VARIABLE_LENGTH)


def bl_positivity(channel: SdDmc, si: SiModel) -> Verdict:
    """Zero-error positivity under bounded-length coding.

    Fixed length has the same positivity condition, not the same capacity value.
    """
    return positivity(channel, si, Regime.BOUNDED_LENGTH)


def positivity(channel: SdDmc, si: SiModel, regime: Regime) -> Verdict:
    """Zero-error positivity of ``si`` under ``regime``: the one lookup of ``si``'s row of ``_ROUTES``.

    Variable length takes the row's first condition; fixed and bounded length
    share its second (one positivity condition, not one capacity value), and
    the verdict names the regime asked for.  A channel with an empty state,
    input or output alphabet is a ``ValidationError``: no condition speaks of it.
    """
    if 0 in channel.W.shape:
        empty = ("state", "input", "output")[channel.W.shape.index(0)]
        raise ValidationError(f"the {empty} alphabet is empty: W has shape {channel.W.shape}")
    route = _ROUTES[si.token][0 if regime is Regime.VARIABLE_LENGTH else 1]
    return _decide(channel, route, si.token, regime.value)


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
    if not all(_field_ok(channel, w[f], spec) for f, spec in row.fields.items()):
        return False
    return bool(row.verify(channel, *(w[f] for f in row.fields)))
