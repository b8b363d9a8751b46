"""Channel data types, validation, and the JSON channel file format.

A state-dependent channel is a triple (W, Q, labels): W[s][x][y] gives the
probability of output y when input x is sent while the channel is in state s,
and the states are drawn i.i.d. from Q.  An entry that is exactly 0.0 in the
source document is a *structural* zero; every zero-error question below is
decided from the zero/nonzero support pattern alone, never from a tolerance.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnsupportedModel, ValidationError

ROW_SUM_TOL = 1e-9


def _frozen_array(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _default_labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


@dataclass(frozen=True, eq=False)
class SdDmc:
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
        if Q.ndim != 1 or Q.shape[0] != W.shape[0]:
            raise ValidationError(f"Q has length {Q.shape}, but W has {W.shape[0]} states")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Q", Q)
        ns, nx, ny = W.shape
        for name, labels, n, prefix in (
            ("x_labels", self.x_labels, nx, "x"),
            ("y_labels", self.y_labels, ny, "y"),
            ("s_labels", self.s_labels, ns, "s"),
        ):
            labels = tuple(labels) if labels else _default_labels(prefix, n)
            if len(labels) != n:
                raise ValidationError(f"{name} has {len(labels)} entries, expected {n}")
            object.__setattr__(self, name, labels)

    @property
    def ns(self) -> int:
        return self.W.shape[0]

    @property
    def nx(self) -> int:
        return self.W.shape[1]

    @property
    def ny(self) -> int:
        return self.W.shape[2]

    def support(self, x: int, s: int) -> frozenset[int]:
        return support(self, x, s)

    def __eq__(self, other):
        if not isinstance(other, SdDmc):
            return NotImplemented
        return (
            self.x_labels == other.x_labels
            and self.y_labels == other.y_labels
            and self.s_labels == other.s_labels
            and self.W.shape == other.W.shape
            and np.array_equal(self.W, other.W)
            and np.array_equal(self.Q, other.Q)
        )


@dataclass(frozen=True, eq=False)
class Dmc:
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
        out_of_range = ~((W >= 0.0) & (W <= 1.0))  # NaN compares false both ways
        if out_of_range.any():
            bad = tuple(int(i) for i in np.argwhere(out_of_range)[0])
            raise ValidationError(f"entry W{bad} outside [0, 1]")
        sums = W.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            x = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(f"row x={x} sums to {sums[x]!r}, not 1 within {ROW_SUM_TOL}")
        object.__setattr__(self, "W", W)
        for name, labels, n, prefix in (
            ("x_labels", self.x_labels, nx, "x"),
            ("y_labels", self.y_labels, ny, "y"),
        ):
            labels = tuple(labels) if labels else _default_labels(prefix, n)
            if len(labels) != n:
                raise ValidationError(f"{name} has {len(labels)} entries, expected {n}")
            object.__setattr__(self, name, labels)

    @property
    def nx(self) -> int:
        return self.W.shape[0]

    @property
    def ny(self) -> int:
        return self.W.shape[1]

    def support(self, x: int) -> frozenset[int]:
        return frozenset(int(y) for y in np.flatnonzero(self.W[x] != 0.0))

    def __eq__(self, other):
        if not isinstance(other, Dmc):
            return NotImplemented
        return (
            self.x_labels == other.x_labels
            and self.y_labels == other.y_labels
            and self.W.shape == other.W.shape
            and np.array_equal(self.W, other.W)
        )


class Si(enum.Enum):
    """How channel-state knowledge is revealed to one party."""

    NONE = "-"
    STRICTLY_CAUSAL = "sc"
    CAUSAL = "c"
    NON_CAUSAL = "nc"

    @property
    def level(self) -> int:
        return _SI_LEVEL[self]


_SI_LEVEL = {Si.NONE: 0, Si.STRICTLY_CAUSAL: 1, Si.CAUSAL: 2, Si.NON_CAUSAL: 3}


@dataclass(frozen=True)
class SiModel:
    """State-information availability at the encoder and the decoder.

    Only the eight standard encoder/decoder pairs plus decoder-only-causal
    are representable; anything else raises :class:`UnsupportedModel`.
    Comparison is coordinatewise along none <= strictly-causal <= causal
    <= non-causal.
    """

    encoder: Si
    decoder: Si

    def __post_init__(self):
        if (self.encoder, self.decoder) not in _ALLOWED_PAIRS:
            raise UnsupportedModel(
                f"state-information pair ({self.encoder.value},{self.decoder.value}) is not supported"
            )

    @classmethod
    def from_token(cls, token: str) -> "SiModel":
        parts = token.split(",")
        if len(parts) != 2:
            raise UnsupportedModel(f"malformed state-information token {token!r}")
        try:
            return cls(Si(parts[0].strip()), Si(parts[1].strip()))
        except ValueError:
            raise UnsupportedModel(f"malformed state-information token {token!r}") from None

    @property
    def token(self) -> str:
        return f"{self.encoder.value},{self.decoder.value}"

    def __le__(self, other: "SiModel") -> bool:
        return self.encoder.level <= other.encoder.level and self.decoder.level <= other.decoder.level

    def __ge__(self, other: "SiModel") -> bool:
        return other.__le__(self)


_ALLOWED_PAIRS = frozenset(
    [
        (Si.NONE, Si.NONE),
        (Si.STRICTLY_CAUSAL, Si.NONE),
        (Si.CAUSAL, Si.NONE),
        (Si.NON_CAUSAL, Si.NONE),
        (Si.STRICTLY_CAUSAL, Si.CAUSAL),
        (Si.CAUSAL, Si.CAUSAL),
        (Si.NON_CAUSAL, Si.CAUSAL),
        (Si.NON_CAUSAL, Si.NON_CAUSAL),
        (Si.NONE, Si.CAUSAL),
    ]
)

SI_MODELS: tuple[SiModel, ...] = (
    SiModel(Si.NONE, Si.NONE),
    SiModel(Si.STRICTLY_CAUSAL, Si.NONE),
    SiModel(Si.CAUSAL, Si.NONE),
    SiModel(Si.NON_CAUSAL, Si.NONE),
    SiModel(Si.STRICTLY_CAUSAL, Si.CAUSAL),
    SiModel(Si.CAUSAL, Si.CAUSAL),
    SiModel(Si.NON_CAUSAL, Si.CAUSAL),
    SiModel(Si.NON_CAUSAL, Si.NON_CAUSAL),
)

DECODER_ONLY_CAUSAL = SiModel(Si.NONE, Si.CAUSAL)
ALL_MODELS: tuple[SiModel, ...] = SI_MODELS + (DECODER_ONLY_CAUSAL,)


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
class Check:
    name: str
    passed: bool
    detail: str = ""


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
    checks = []

    ok = channel.nx >= 2 and channel.ny >= 2 and channel.ns >= 1
    checks.append(
        Check(
            "alphabet_sizes",
            ok,
            "" if ok else f"need |X|>=2, |Y|>=2, |S|>=1; got ({channel.nx}, {channel.ny}, {channel.ns})",
        )
    )

    W = channel.W
    bad_entry = np.argwhere(~((W >= 0.0) & (W <= 1.0)))  # NaN compares false both ways
    if bad_entry.size:
        s, x, y = (int(v) for v in bad_entry[0])
        checks.append(Check("entry_range", False, f"W[s={s}][x={x}][y={y}]={W[s, x, y]!r} outside [0, 1]"))
    else:
        checks.append(Check("entry_range", True))

    sums = W.sum(axis=2)
    bad_rows = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad_rows.size:
        s, x = (int(v) for v in bad_rows[0])
        checks.append(Check("row_stochastic", False, f"row (s={s}, x={x}) sums to {sums[s, x]!r}"))
    else:
        checks.append(Check("row_stochastic", True))

    q_ok = bool(np.all(channel.Q > 0.0) and abs(channel.Q.sum() - 1.0) <= ROW_SUM_TOL)
    if q_ok:
        checks.append(Check("state_distribution", True))
    elif np.any(channel.Q <= 0.0):
        s = int(np.argmax(channel.Q <= 0.0))
        checks.append(Check("state_distribution", False, f"Q[s={s}]={channel.Q[s]!r} is not strictly positive"))
    else:
        checks.append(Check("state_distribution", False, f"Q sums to {channel.Q.sum()!r}, not 1"))

    reachable = (W != 0.0).any(axis=(0, 1))
    if reachable.all():
        checks.append(Check("every_output_reachable", True))
    else:
        y = int(np.argmax(~reachable))
        checks.append(Check("every_output_reachable", False, f"output y={y} is unreachable from every (x, s)"))

    return ValidationReport(tuple(checks))


def support(channel: SdDmc, x: int, s: int) -> frozenset[int]:
    """Outputs reachable from input x in state s (structural zeros only)."""
    if not (0 <= x < channel.nx and 0 <= s < channel.ns):
        raise IndexError(f"(x={x}, s={s}) out of range for ({channel.nx} inputs, {channel.ns} states)")
    return frozenset(int(y) for y in np.flatnonzero(channel.W[s, x] != 0.0))


def parse_channel(text: str) -> SdDmc:
    """Parse a channel document; its semantic invariants are left to :func:`validate`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"channel document is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("channel document must be a JSON object")
    for key in ("Q", "W"):
        if key not in doc:
            raise ParseError(f"channel document is missing required key {key!r}")
    try:
        return SdDmc(
            W=np.array(doc["W"], dtype=float),
            Q=np.array(doc["Q"], dtype=float),
            x_labels=tuple(doc.get("inputs") or ()),
            y_labels=tuple(doc.get("outputs") or ()),
            s_labels=tuple(doc.get("states") or ()),
        )
    except (TypeError, ValueError) as e:
        raise ParseError(f"channel document has malformed numeric data: {e}") from e


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
    doc = {
        "inputs": list(channel.x_labels),
        "outputs": list(channel.y_labels),
        "states": list(channel.s_labels),
        "Q": channel.Q.tolist(),
        "W": channel.W.tolist(),
    }
    return json.dumps(doc, indent=2)
