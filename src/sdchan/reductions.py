"""Channel transformations that turn state-dependent questions into DMC ones.

Four transformations are provided: averaging the state out, lifting to the
strategy-letter alphabet (maps from states to inputs), folding the state
into a joint output, and adjoining a noiseless termination symbol.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channel import Dmc, SdDmc
from .errors import AlphabetTooLarge, ValidationError

# A strategy letter is a total map from state index to input index,
# represented as a tuple u with u[s] in range(nx).
StrategyLetter = tuple[int, ...]

DEFAULT_STRATEGY_CAP = 4096


def enumerate_strategy_letters(nx: int, ns: int) -> list[StrategyLetter]:
    """All maps from states to inputs, in lexicographic order of (u(s0), u(s1), ...)."""
    return list(itertools.product(range(nx), repeat=ns))


def average_states(channel: SdDmc) -> Dmc:
    """Marginalize the state: rows are the Q-weighted averages of per-state rows."""
    W = np.einsum("s,sxy->xy", channel.Q, channel.W)
    mass = W.sum(axis=1, keepdims=True)
    empty = np.flatnonzero(mass == 0.0)
    if empty.size:
        x = empty[0]
        raise ValidationError(
            f"row_stochastic: input {channel.x_labels[x]!r} (x={x}) has all-zero rows in every state"
        )
    # Renormalize away accumulated rounding so the result passes the DMC check.
    W = W / mass
    return Dmc(W=W, x_labels=channel.x_labels, y_labels=channel.y_labels)


def shannon_strategy_channel(
    channel: SdDmc, cap: int = DEFAULT_STRATEGY_CAP
) -> tuple[Dmc, list[StrategyLetter]]:
    """Lift to the DMC whose inputs are strategy letters u: state -> input.

    The row for u is the Q-average of the rows W[s][u(s)].  Letters are
    indexed lexicographically; the second return value maps row index to
    the underlying letter.
    """
    n_letters = channel.nx ** channel.ns
    if n_letters > cap:
        raise AlphabetTooLarge(
            f"strategy alphabet has {n_letters} letters, exceeding the cap of {cap}"
        )
    letters = enumerate_strategy_letters(channel.nx, channel.ns)
    T = channel.W[np.arange(channel.ns), np.array(letters)]  # T[i, s] = W[s][u_i(s)]
    W = np.matmul(channel.Q, T)
    W = W / W.sum(axis=1, keepdims=True)
    labels = tuple("u" + "".join(str(x) for x in u) for u in letters)
    return Dmc(W=W, x_labels=labels, y_labels=channel.y_labels), letters


def joint_output_channel(channel: SdDmc) -> Dmc:
    """Fold the state into the output: outputs are (y, s) pairs, y-major."""
    ns, nx, ny = channel.W.shape
    # [x][(y, s)] with index y * ns + s
    W = np.einsum("s,sxy->xys", channel.Q, channel.W).reshape(nx, ny * ns)
    W = W / W.sum(axis=1, keepdims=True)
    labels = tuple(
        f"({channel.y_labels[y]},{channel.s_labels[s]})" for y in range(ny) for s in range(ns)
    )
    return Dmc(W=W, x_labels=channel.x_labels, y_labels=labels)


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
