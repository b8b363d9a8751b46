"""Channel transformations that turn state-dependent questions into DMC ones.

Four transformations are provided: averaging the state out, lifting to the
strategy-letter alphabet (maps from states to inputs), folding the state
into a joint output, and adjoining a noiseless termination symbol.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .channel import Dmc, SdDmc, support_pattern
from .errors import AlphabetTooLarge, ValidationError

# A strategy letter is a total map from state index to input index,
# represented as a tuple u with u[s] in range(nx).
StrategyLetter = tuple[int, ...]

STRATEGY_CAP = 4096


def enumerate_strategy_letters(nx: int, ns: int) -> list[StrategyLetter]:
    """All maps from states to inputs, in lexicographic order of (u(s0), u(s1), ...)."""
    return list(itertools.product(range(nx), repeat=ns))


def _normalized_dmc(
    W: np.ndarray, support: np.ndarray, x_labels: tuple[str, ...], y_labels: tuple[str, ...]
) -> Dmc:
    """The DMC of Q-averaged rows W, renormalized; an input with no mass is an error.

    A product Q(s) W such as 1e-300 * 1e-100 underflows to 0.0, so each
    entry in ``support``, read from the support pattern, stays at least the
    smallest subnormal: no rounding decides a structural zero.
    """
    mass = W.sum(axis=1, keepdims=True)
    empty = np.flatnonzero(mass == 0.0)
    if empty.size:
        x = empty[0]
        raise ValidationError(f"row_stochastic: input {x_labels[x]!r} (x={x}) has all-zero rows in every state")
    # Renormalize away accumulated rounding so the result passes the DMC check.
    W = W / mass
    W[support & (W == 0.0)] = np.finfo(float).smallest_subnormal
    return Dmc(W=W, x_labels=x_labels, y_labels=y_labels)


def average_states(channel: SdDmc) -> Dmc:
    """Marginalize the state: rows are the Q-weighted averages of per-state rows."""
    W = np.einsum("s,sxy->xy", channel.Q, channel.W)
    return _normalized_dmc(W, support_pattern(channel).any(axis=0), channel.x_labels, channel.y_labels)


def strategy_letters(channel: SdDmc) -> list[StrategyLetter]:
    """The strategy letters of ``channel``, in lexicographic order.

    An alphabet of more than ``STRATEGY_CAP`` letters raises before any
    letter is built.
    """
    n_letters = channel.nx ** channel.ns
    if n_letters > STRATEGY_CAP:
        raise AlphabetTooLarge(
            f"strategy alphabet has {n_letters} letters, exceeding the cap of {STRATEGY_CAP}"
        )
    return enumerate_strategy_letters(channel.nx, channel.ns)


def shannon_strategy_channel(channel: SdDmc) -> tuple[Dmc, list[StrategyLetter]]:
    """Lift to the DMC whose inputs are strategy letters u: state -> input.

    The row for u is the Q-average of the rows W[s][u(s)].  Letters are
    indexed lexicographically (``strategy_letters``, which enforces
    ``STRATEGY_CAP``); the second return value maps row index to the
    underlying letter.  Labels join the digits of u(s), with a "." between
    them once an input index can have two digits.
    """
    letters = strategy_letters(channel)
    at = np.arange(channel.ns), np.array(letters)
    T = channel.W[at]  # T[i, s] = W[s][u_i(s)]
    sep = "." if channel.nx > 10 else ""
    labels = tuple("u" + sep.join(str(x) for x in u) for u in letters)
    support = support_pattern(channel)[at].any(axis=1)
    return _normalized_dmc(np.matmul(channel.Q, T), support, labels, channel.y_labels), letters


def joint_output_channel(channel: SdDmc) -> Dmc:
    """Fold the state into the output: outputs are (y, s) pairs, y-major.

    The pair is labelled "(y,s)", with both parts JSON-quoted when some
    output or state label holds a comma, so that distinct pairs keep
    distinct labels.
    """
    ns, nx, ny = channel.W.shape
    # [x][(y, s)] with index y * ns + s
    W = np.einsum("s,sxy->xys", channel.Q, channel.W).reshape(nx, ny * ns)
    support = support_pattern(channel).transpose(1, 2, 0).reshape(nx, ny * ns)
    quote = json.dumps if any("," in label for label in channel.y_labels + channel.s_labels) else str
    labels = tuple(
        f"({quote(channel.y_labels[y])},{quote(channel.s_labels[s])})" for y in range(ny) for s in range(ns)
    )
    return _normalized_dmc(W, support, channel.x_labels, labels)


def joint_output_index(channel: SdDmc, y: int, s: int) -> int:
    """Output index of the pair (y, s) in the joint-output channel."""
    return y * channel.ns + s


def extend_with_termination(channel: Dmc) -> Dmc:
    """Adjoin a noiseless termination symbol to both alphabets."""
    nx, ny = channel.nx, channel.ny
    W = np.zeros((nx + 1, ny + 1))
    W[:nx, :ny] = channel.W
    W[nx, ny] = 1.0
    term = "T"
    while term in channel.x_labels or term in channel.y_labels:
        term += "'"
    return Dmc(
        W=W,
        x_labels=channel.x_labels + (term,),
        y_labels=channel.y_labels + (term,),
    )
