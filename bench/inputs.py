"""Seeded benchmark inputs: random channels, named channels, invalid documents.

The generator lives here rather than in the test suite, so that editing a test
cannot change what the benchmark measures.  Every function takes its
randomness from the ``numpy.random.Generator`` it is given.
"""

from __future__ import annotations

import json
import math

import numpy as np


ZERO_PROB = 0.4


def random_channel(rng):
    """A random state-dependent channel ``(W, Q)`` with structural zeros.

    Alphabet sizes are drawn uniformly: 2-3 inputs, 2-3 outputs and 1-3
    states.  Each entry is a structural zero with probability ZERO_PROB;
    every (state, input) row keeps at least one output, every output stays
    reachable, and kept entries get a Dirichlet(1) draw.
    """
    nx = int(rng.integers(2, 4))
    ny = int(rng.integers(2, 4))
    ns = int(rng.integers(1, 4))
    keep = rng.random((ns, nx, ny)) >= ZERO_PROB
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
    return W, Q


def ex1(p=0.5):
    """Z-channel state (input 1 flips to 0 with probability p) and identity state."""
    return np.array([[[1.0, 0.0], [p, 1.0 - p]], [[1.0, 0.0], [0.0, 1.0]]]), np.array([0.5, 0.5])


def ex2():
    """Bit-flip state and identity state, equiprobable."""
    return np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]), np.array([0.5, 0.5])


def ex3(p=0.3, q=0.5):
    """Binary symmetric state with crossover p and identity state."""
    W = np.array([[[1.0 - p, p], [p, 1.0 - p]], [[1.0, 0.0], [0.0, 1.0]]])
    return W, np.array([q, 1.0 - q])


def stuck_at(p=0.2):
    """Defective memory cell: stuck at 0, stuck at 1, or faithful."""
    W = np.array(
        [
            [[1.0, 0.0], [1.0, 0.0]],
            [[0.0, 1.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ]
    )
    return W, np.array([p / 2, p / 2, 1.0 - p])


def typewriter(n=5, eps=0.1):
    """Single-state noisy typewriter: x goes to x w.p. 1-eps and to x+1 mod n w.p. eps."""
    W = np.zeros((1, n, n))
    for x in range(n):
        W[0, x, x] = 1.0 - eps
        W[0, x, (x + 1) % n] = eps
    return W, np.ones(1)


def typewriter_capacity(n=5, eps=0.1):
    """Vanishing-error capacity of the symmetric noisy typewriter, in bits."""
    h = -(eps * math.log2(eps) + (1.0 - eps) * math.log2(1.0 - eps))
    return math.log2(n) - h


def typewriter_zero_error_feedback(n=5):
    """Shannon's zero-error feedback capacity of the n-letter typewriter (n >= 4)."""
    return math.log2(n / 2)


NAMED = {
    "ex1": ex1,
    "ex2": ex2,
    "ex3": ex3,
    "stuck_at": stuck_at,
    "typewriter5": typewriter,
}


def document(W, Q) -> str:
    """The channel file text for ``(W, Q)``."""
    return json.dumps({"Q": np.asarray(Q).tolist(), "W": np.asarray(W).tolist()})


INVALID_KINDS = ("malformed_json", "row_sum", "zero_q", "nan_entry")


def invalid_document(kind: str, W, Q) -> str:
    """A channel file that breaks one documented rule of the format."""
    W = np.array(W, dtype=float)
    Q = np.array(Q, dtype=float)
    if kind == "malformed_json":
        return document(W, Q)[:-1]
    if kind == "row_sum":
        W[0, 0] *= 0.9
    elif kind == "zero_q":
        Q[0] = 0.0
    elif kind == "nan_entry":
        W[0, 0, 0] = float("nan")
    else:
        raise ValueError(f"unknown invalid-document kind {kind!r}")
    return document(W, Q)
