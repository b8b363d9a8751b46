"""Channel data types, validation, and the JSON channel file format.

A state-dependent channel is a triple (W, Q, labels): W[s][x][y] gives the
probability of output y when input x is sent while the channel is in state s,
and the states are drawn i.i.d. from Q.  An entry that is exactly 0.0 in the
source document is a *structural* zero; every zero-error question below is
decided from the zero/nonzero support pattern alone, never from a tolerance.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParseError, UnsupportedModel, ValidationError

ROW_SUM_TOL = 1e-9

# The channel document: one (field, key) pair per entry, in document order.
# The three label arrays are optional; Q and W are required.
_DOCUMENT = (("x_labels", "inputs"), ("y_labels", "outputs"), ("s_labels", "states"), ("Q", "Q"), ("W", "W"))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _frozen_array(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@functools.cache
def _default_labels(initial: str, n: int) -> tuple[str, ...]:
    """The labels initial0, initial1, ... of an alphabet of size n."""
    return tuple(f"{initial}{i}" for i in range(n))


def _set_labels(obj, **sizes: int) -> None:
    """Store each label field as a tuple of the given size.

    Empty labels default to the field's initial and an index: x0, x1, ...;
    a length error names the field's document key.
    """
    for name, n in sizes.items():
        labels = getattr(obj, name)
        labels = tuple(labels) if labels else _default_labels(name[0], n)
        if len(labels) != n:
            raise ValidationError(f"{dict(_DOCUMENT)[name]} has {len(labels)} entries, expected {n}")
        object.__setattr__(obj, name, labels)


# The checks a valid channel passes, shared by every report.
_ALPHABET_SIZES_OK = Check("alphabet_sizes", True)
_ENTRY_RANGE_OK = Check("entry_range", True)
_ROW_STOCHASTIC_OK = Check("row_stochastic", True)
_STATE_DISTRIBUTION_OK = Check("state_distribution", True)
_EVERY_OUTPUT_REACHABLE_OK = Check("every_output_reachable", True)


def _stochastic_checks(W: np.ndarray) -> tuple[Check, Check]:
    """The entry_range and row_stochastic checks of W, whose last axis is the output.

    A valid matrix costs a min, a max and one row-sum test, the largest
    distance of a row sum from 1 (``np.fmax`` passes over a NaN row, which is
    not flagged); the first offending index is looked up only when a check
    fails, and a zero-size W fails neither.
    """
    axes = ("s", "x", "y")[-W.ndim:]
    if W.size and not (W.min() >= 0.0 and W.max() <= 1.0):  # a NaN fails both
        at = np.unravel_index(np.argmax(~((W >= 0.0) & (W <= 1.0))), W.shape)
        where = "".join(f"[{a}={int(i)}]" for a, i in zip(axes, at))
        entry = Check("entry_range", False, f"W{where}={float(W[at])!r} outside [0, 1]")
    else:
        entry = _ENTRY_RANGE_OK
    sums = W.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if off.size and np.fmax.reduce(off, axis=None) > ROW_SUM_TOL:
        at = np.unravel_index(np.argmax(off > ROW_SUM_TOL), off.shape)
        where = ", ".join(f"{a}={int(i)}" for a, i in zip(axes, at))
        rows = Check("row_stochastic", False, f"row ({where}) sums to {float(sums[at])!r}")
    else:
        rows = _ROW_STOCHASTIC_OK
    return entry, rows


def support_pattern(channel: SdDmc) -> np.ndarray:
    """[s][x][y]: whether output y can occur from input x in state s.

    This is W != 0 with every state of probability zero supporting nothing,
    since such a state never occurs.  Every positivity question and every
    reduction's structural zeros are read from this pattern.
    """
    return (channel.W != 0.0) & (channel.Q > 0.0)[:, None, None]


def _distinct_rows(rows: np.ndarray, seen: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(first, group): each distinct row's first index, in index order, and each row's position among them.

    The one home of rows equal by value: BA's inputs, GP's strategy letters and han-sato's codewords.
    A ``seen`` dict carries earlier batches' rows over, and ``first`` names only the rows new to it.
    """
    seen = {} if seen is None else seen  # row bytes -> group; + 0.0 turns -0.0 into 0.0, so rows compare by value
    before = len(seen)
    group = np.fromiter((seen.setdefault(row.tobytes(), len(seen)) for row in rows + 0.0), np.intp, len(rows))
    # Groups new to ``seen`` count up from ``before``; each first appears where the running maximum reaches it.
    return np.searchsorted(np.maximum.accumulate(group), np.arange(before, len(seen))), group


class _Channel:
    """The core of ``SdDmc`` and ``Dmc``: nx and ny from W's last two axes, and equality.

    Two channels are equal when they are of the same type and every field is
    equal, arrays entry by entry (so a NaN entry is unequal to itself).
    Channels are unhashable.
    """

    @property
    def nx(self) -> int:
        return self.W.shape[-2]

    @property
    def ny(self) -> int:
        return self.W.shape[-1]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def to_jsonable(self) -> dict:
        """The channel's document: each of its fields under its key, in document order."""
        values = ((key, getattr(self, name)) for name, key in _DOCUMENT if name in self.__dataclass_fields__)
        return {key: v.tolist() if isinstance(v, np.ndarray) else list(v) for key, v in values}


@dataclass(frozen=True, eq=False)
class SdDmc(_Channel):
    """A state-dependent discrete memoryless channel.

    W is indexed [state][input][output]; Q is the state distribution.
    Construction only checks shape consistency; the semantic invariants
    (stochasticity, positive state probabilities, output reachability,
    alphabet sizes) are checked by :func:`validate`, and enforced by
    :func:`load_channel`.
    """

    W: np.ndarray
    Q: np.ndarray
    x_labels: tuple[str, ...] = ()
    y_labels: tuple[str, ...] = ()
    s_labels: tuple[str, ...] = ()

    def __post_init__(self):
        W = _frozen_array(self.W)
        Q = _frozen_array(self.Q)
        if W.ndim != 3:
            raise ValidationError(f"W must be a 3-level [state][input][output] tensor, got ndim={W.ndim}")
        if Q.ndim != 1:
            raise ValidationError(f"Q must be a 1-level array of state probabilities, got ndim={Q.ndim}")
        if len(Q) != len(W):
            raise ValidationError(f"Q has {len(Q)} entries, but W has {len(W)} states")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Q", Q)
        ns, nx, ny = W.shape
        _set_labels(self, x_labels=nx, y_labels=ny, s_labels=ns)

    @property
    def ns(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True, eq=False)
class Dmc(_Channel):
    """A stateless channel matrix W[input][output]."""

    W: np.ndarray
    x_labels: tuple[str, ...] = ()
    y_labels: tuple[str, ...] = ()

    def __post_init__(self):
        W = _frozen_array(self.W)
        if W.ndim != 2:
            raise ValidationError(f"DMC matrix must be 2-dimensional, got ndim={W.ndim}")
        nx, ny = W.shape
        if nx < 1 or ny < 1:
            raise ValidationError("DMC needs at least one input and one output")
        for check in _stochastic_checks(W):
            if not check.passed:
                raise ValidationError(f"{check.name}: {check.detail}")
        object.__setattr__(self, "W", W)
        _set_labels(self, x_labels=nx, y_labels=ny)


# What one party sees of the state, in increasing order: nothing, strictly
# causal, causal, non-causal.
_SI_LEVELS = ("-", "sc", "c", "nc")

# The nine supported (encoder, decoder) pairs in report order: the eight
# standard pairs, then decoder-only-causal.
_MODEL_TOKENS = ("-,-", "sc,-", "c,-", "nc,-", "sc,c", "c,c", "nc,c", "nc,nc", "-,c")


@dataclass(frozen=True)
class SiModel:
    """State-information availability at the encoder and the decoder.

    The model is its token "encoder,decoder", each part one of
    ``_SI_LEVELS``.  Only the eight standard pairs plus decoder-only-causal
    are representable; anything else raises :class:`UnsupportedModel`.
    Comparison is coordinatewise along ``_SI_LEVELS``.
    """

    token: str

    def __post_init__(self):
        if self.token not in _MODEL_TOKENS:
            raise UnsupportedModel(f"state-information pair ({self.token}) is not supported")

    @classmethod
    def from_token(cls, token: str) -> "SiModel":
        parts = [part.strip() for part in token.split(",")]
        if len(parts) != 2 or not all(part in _SI_LEVELS for part in parts):
            raise UnsupportedModel(f"malformed state-information token {token!r}")
        return cls(",".join(parts))

    def __le__(self, other: "SiModel") -> bool:
        pairs = zip(self.token.split(","), other.token.split(","))
        return all(_SI_LEVELS.index(a) <= _SI_LEVELS.index(b) for a, b in pairs)


class Regime(enum.Enum):
    """Coding-length regime of a feedback code."""

    FIXED_LENGTH = "fl"
    BOUNDED_LENGTH = "bl"
    VARIABLE_LENGTH = "vl"

    @classmethod
    def from_token(cls, token: str) -> "Regime":
        try:
            return cls(token.strip())
        except ValueError:
            raise UnsupportedModel(f"unknown regime token {token!r}") from None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }


def validate(channel: SdDmc) -> ValidationReport:
    """Check the standing channel assumptions; failures carry offending indices."""
    W, Q = channel.W, channel.Q
    if channel.nx >= 2 and channel.ny >= 2 and channel.ns >= 1:
        sizes = _ALPHABET_SIZES_OK
    else:
        got = f"({channel.nx}, {channel.ny}, {channel.ns})"
        sizes = Check("alphabet_sizes", False, f"need |X|>=2, |Y|>=2, |S|>=1; got {got}")

    total = float(Q.sum())
    if Q.size and Q.min() > 0.0 and abs(total - 1.0) <= ROW_SUM_TOL:
        states = _STATE_DISTRIBUTION_OK
    elif np.any(Q <= 0.0):
        s = int(np.argmax(Q <= 0.0))
        states = Check("state_distribution", False, f"Q[s={s}]={float(Q[s])!r} is not strictly positive")
    else:
        states = Check("state_distribution", False, f"Q sums to {total!r}, not 1")

    reachable = W.any(axis=(0, 1))  # NaN counts as nonzero, as in W != 0
    if reachable.all():
        outputs = _EVERY_OUTPUT_REACHABLE_OK
    else:
        y = int(np.argmax(~reachable))
        outputs = Check("every_output_reachable", False, f"output y={y} is unreachable from every (x, s)")

    return ValidationReport((sizes, *_stochastic_checks(W), states, outputs))


def _doc_labels(doc: dict, key: str) -> tuple[str, ...]:
    """A document's labels: absent, null or [] gives (), else an array of distinct strings."""
    labels = doc.get(key)
    if labels is None or labels == []:
        return ()
    distinct_strings = isinstance(labels, list) and all(isinstance(v, str) for v in labels)
    if not distinct_strings or len(set(labels)) < len(labels):
        raise ParseError(f"channel document key {key!r} must be an array of distinct strings")
    return tuple(labels)


# Only a number with an exponent below -99 or a run of 100 zeros can have a nonzero
# digit and parse to 0.0: only a document with "-ddd" or 100 zeros gets the hook.
_MINUS_THREE_DIGITS = re.compile(r"-\d{3}")


class _Underflow(float):
    """A JSON number with a nonzero digit that parses to 0.0."""


def _parse_float(literal: str) -> float:
    value = float(literal)
    return _Underflow(value) if value == 0.0 and literal.lower().partition("e")[0].strip("-.0") else value


def parse_channel(text: str) -> SdDmc:
    """Parse a channel document; its semantic invariants are left to :func:`validate`.

    A document whose arrays or labels do not fit together, such as a W that
    is not 3-level or a Q with one entry too many, is a ``ParseError``, as is
    an entry of Q or W that is not a JSON number, or that has a nonzero digit
    yet parses to 0.0, which would read as a structural zero.
    """
    try:
        hook = _parse_float if _MINUS_THREE_DIGITS.search(text) or "0" * 100 in text else None
        doc = json.loads(text, parse_float=hook)
    except json.JSONDecodeError as e:
        raise ParseError(f"channel document is not valid JSON: {e}") from e
    except RecursionError:
        raise ParseError("channel document is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ParseError("channel document must be a JSON object")
    required = _DOCUMENT[3:]  # Q and W; the labels may be absent
    for _, key in required:
        if key not in doc:
            raise ParseError(f"channel document is missing required key {key!r}")
    try:
        channel = SdDmc(**{name: doc[key] for name, key in required},
                        **{name: _doc_labels(doc, key) for name, key in _DOCUMENT[:3]})
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"channel document has malformed numeric data: {e}") from e
    except ValidationError as e:  # of the wrong shape: there is nothing to validate
        raise ParseError(str(e)) from e
    for name, key in required:  # numpy also reads numeric strings, booleans and null as numbers
        entries = doc[key]
        for _ in range(getattr(channel, name).ndim - 1):  # down to the entries of the regular array
            entries = itertools.chain.from_iterable(entries)
        kinds = set(map(type, entries))
        if _Underflow in kinds:
            raise ParseError(f"channel document key {key!r} holds a nonzero number that underflows to 0.0")
        if not {int, float}.issuperset(kinds):
            raise ParseError(f"channel document key {key!r} must hold only JSON numbers")
    return channel


def load_channel(text: str) -> SdDmc:
    """Parse and fully validate a channel document; reject on any violation."""
    channel = parse_channel(text)
    report = validate(channel)
    if not report.passed:
        failed = report.failures()[0]
        raise ValidationError(f"{failed.name}: {failed.detail}")
    return channel


def serialize(channel: SdDmc) -> str:
    """Write a channel back to its JSON document form (bit-exact round trip)."""
    return json.dumps(channel.to_jsonable(), indent=2)
