"""Shared channel fixtures and a seeded random-channel generator."""

from __future__ import annotations

import numpy as np
import pytest

from sdchan import Dmc, SdDmc


def ch_triv() -> SdDmc:
    """Single-state binary identity channel."""
    return SdDmc(W=[[[1.0, 0.0], [0.0, 1.0]]], Q=[1.0])


def ch_ex1(p: float = 0.5) -> SdDmc:
    """State s0 is a Z-channel (input 1 flips to 0 with probability p),
    state s1 is the identity; states are equiprobable."""
    return SdDmc(
        W=[
            [[1.0, 0.0], [p, 1.0 - p]],
            [[1.0, 0.0], [0.0, 1.0]],
        ],
        Q=[0.5, 0.5],
    )


def ch_three_outputs() -> SdDmc:
    """ex1 with input 1's outputs spread over two letters; equiprobable states.

    In s0 input 1 gives (1/4, 1/4, 1/2), in s1 it gives (0, 1/2, 1/2), apart
    from input 0's output 0.  Its averaged, strategy-lift and per-state
    matrices are neither square nor two-output, so Blahut-Arimoto starts
    from the uniform law on each, and only state 0 starts off its optimum.
    """
    return SdDmc(
        W=[
            [[1.0, 0.0, 0.0], [0.25, 0.25, 0.5]],
            [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],
        ],
        Q=[0.5, 0.5],
    )


def ch_ex2() -> SdDmc:
    """State s0 flips the bit, state s1 is the identity; equiprobable states."""
    return SdDmc(
        W=[
            [[0.0, 1.0], [1.0, 0.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ],
        Q=[0.5, 0.5],
    )


def ch_ex3(p: float = 0.3, q: float = 0.5) -> SdDmc:
    """State s0 is a binary symmetric channel with crossover p, state s1 the identity."""
    return SdDmc(
        W=[
            [[1.0 - p, p], [p, 1.0 - p]],
            [[1.0, 0.0], [0.0, 1.0]],
        ],
        Q=[q, 1.0 - q],
    )


def stuck_at(p: float = 0.2) -> SdDmc:
    """Defective binary memory: output stuck at 0, stuck at 1, or faithful."""
    return SdDmc(
        W=[
            [[1.0, 0.0], [1.0, 0.0]],
            [[0.0, 1.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ],
        Q=[p / 2, p / 2, 1.0 - p],
    )


def pentagon() -> Dmc:
    """Five inputs, each reaching outputs {x, x+1 mod 5} with mass 1/2 each."""
    W = np.zeros((5, 5))
    for x in range(5):
        W[x, x] = 0.5
        W[x, (x + 1) % 5] = 0.5
    return Dmc(W=W)


def bsc(p: float) -> Dmc:
    return Dmc(W=[[1.0 - p, p], [p, 1.0 - p]])


def random_dmc(rng: np.random.Generator, max_letters: int = 3) -> Dmc:
    """Random fully-positive DMC with 2 or 3 letters per alphabet."""
    nx = int(rng.integers(2, max_letters + 1))
    ny = int(rng.integers(2, max_letters + 1))
    return Dmc(W=rng.dirichlet(np.ones(ny), size=nx))


def random_channel(rng: np.random.Generator, max_size: int = 3, zero_prob: float = 0.4) -> SdDmc:
    """Random small SD-DMC with structural zeros, honoring the standing assumptions.

    Each (s, x) row keeps at least one output; every output stays reachable
    from some (x, s); kept entries are filled with a Dirichlet draw.
    """
    nx = int(rng.integers(2, max_size + 1))
    ny = int(rng.integers(2, max_size + 1))
    ns = int(rng.integers(1, max_size + 1))
    keep = rng.random((ns, nx, ny)) >= zero_prob
    for s in range(ns):
        for x in range(nx):
            if not keep[s, x].any():
                keep[s, x, rng.integers(ny)] = True
    for y in range(ny):
        if not keep[:, :, y].any():
            keep[rng.integers(ns), rng.integers(nx), y] = True
    W = np.zeros((ns, nx, ny))
    for s in range(ns):
        for x in range(nx):
            idx = np.flatnonzero(keep[s, x])
            W[s, x, idx] = rng.dirichlet(np.ones(len(idx)))
    Q = rng.dirichlet(np.ones(ns)) if ns > 1 else np.ones(1)
    while np.any(Q <= 0.0):
        Q = rng.dirichlet(np.ones(ns))
    return SdDmc(W=W, Q=Q)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
