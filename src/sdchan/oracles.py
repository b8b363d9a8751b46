"""Independent brute-force ground truth for tiny instances.

These routines share no code path with the checkers and optimizers they
validate: confusability is decided by enumerating output sequences, and the
capacity oracles scan simplex lattices.  Budgets are explicit; exceeding one
raises instead of silently truncating.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

from .channel import Dmc, SdDmc
from .errors import BudgetExceeded

CONFUSABLE_BUDGET = 50_000_000
GRID_BUDGET = 5_000_000
GP_GRID_BUDGET = 50_000_000
GRID_ENTRIES = 50_000_000  # entries of a grid oracle's largest float64 array: 400 MB; measured peaks are 2.3-3.7x it


def confusable_all_pairs_fl(channel: SdDmc, decoder_sees_state: bool, n: int) -> bool:
    """True iff every pair of distinct length-n input sequences is confusable.

    A pair is confusable when some output sequence has positive probability
    under both inputs; when the decoder sees the states, the witnessing state
    sequence must additionally be the same on both sides.  Exhaustive over
    input-sequence pairs and output sequences, with per-slot state scans.
    """
    nx, ny, ns = channel.nx, channel.ny, channel.ns
    # There are at least 2**n input sequences, so an n past the budget's bit
    # length is over budget, and nx**n is not formed for it.
    if n > CONFUSABLE_BUDGET.bit_length() or (nx**n * (nx**n - 1) // 2) * ny**n * n * ns > CONFUSABLE_BUDGET:
        raise BudgetExceeded(
            f"confusability scan at n={n} over {nx} inputs, {ny} outputs and {ns} states "
            f"exceeds the budget of {CONFUSABLE_BUDGET} elementary checks"
        )
    nz = channel.W != 0.0  # [s][x][y]
    inputs = list(itertools.product(range(nx), repeat=n))
    outputs = list(itertools.product(range(ny), repeat=n))
    for a, b in itertools.combinations(inputs, 2):
        confusable = False
        for ys in outputs:
            if decoder_sees_state:
                ok = all(
                    any(nz[s, a[i], ys[i]] and nz[s, b[i], ys[i]] for s in range(ns))
                    for i in range(n)
                )
            else:
                ok = all(
                    any(nz[s, a[i], ys[i]] for s in range(ns))
                    and any(nz[s, b[i], ys[i]] for s in range(ns))
                    for i in range(n)
                )
            if ok:
                confusable = True
                break
        if not confusable:
            return False
    return True


def lattice_size(resolution: int, dim: int) -> int:
    """Number of distributions on ``dim`` letters with entries k/resolution."""
    return comb(resolution + dim - 1, dim - 1)


def _capped_lattice_size(resolution: int, dim: int, cap: int) -> int:
    """lattice_size(resolution, dim), or cap + 1 if it is larger, without forming a size far above cap.

    On two or more letters the lattice has more than ``resolution`` points.
    """
    return cap + 1 if dim > 1 and resolution >= cap else min(lattice_size(resolution, dim), cap + 1)


@lru_cache(maxsize=16)
def _simplex_lattice(resolution: int, dim: int) -> np.ndarray:
    """All distributions with entries k/resolution, as a (count, dim) array: the gaps between dim - 1 bars."""
    if dim == 1:
        return np.ones((1, 1))
    count, top = lattice_size(resolution, dim), resolution + dim - 1
    parts = np.empty((count, dim))
    if dim == 2:
        # One bar at each position: no pool of Python ints to copy.
        parts[:, 0] = np.arange(top)
    else:
        bars = itertools.chain.from_iterable(itertools.combinations(range(top), dim - 1))
        parts[:, :-1] = np.fromiter(bars, dtype=float, count=count * (dim - 1)).reshape(count, dim - 1)
    parts[:, -1] = top
    parts[:, 1:] -= parts[:, :-1] + 1  # bars at -1 and at top close the first and the last gap
    parts /= resolution
    return parts


def _xlog2(p: np.ndarray) -> np.ndarray:
    """p * log2(p), 0 where p is not positive, in one array besides a boolean mask."""
    out = np.zeros_like(p)
    np.log2(p, out=out, where=p > 0)
    out *= p
    return out


def grid_capacity(channel: Dmc, resolution: int) -> float:
    """Certified lower bound on capacity: max mutual information on a lattice."""
    nx = channel.nx
    if nx > 4:
        raise BudgetExceeded(f"grid oracle limited to 4 inputs, got {nx}")
    points = _capped_lattice_size(resolution, nx, GRID_BUDGET)
    if points > GRID_BUDGET or points * channel.ny > GRID_ENTRIES:
        raise BudgetExceeded(
            f"lattice of resolution {resolution} on {nx} inputs and {channel.ny} outputs exceeds the budget of "
            f"{GRID_BUDGET} points or {GRID_ENTRIES} entries"
        )
    P = _simplex_lattice(resolution, nx)  # (N, nx)
    W = channel.W
    row_term = _xlog2(W).sum(axis=1)  # sum_y W log2 W per input
    q = P @ W  # (N, ny)
    info = P @ row_term - _xlog2(q).sum(axis=1)
    return float(info.max())


def gp_grid_oracle(channel: SdDmc, resolution: int, u_size: int) -> float:
    """Certified lower bound on the encoder-side-information capacity objective.

    Exhausts deterministic maps from (auxiliary letter, state) to inputs,
    deduplicated by the per-letter output kernels they induce, against all
    lattice conditionals for the auxiliary letter given the state, within
    ``GP_GRID_BUDGET`` (map, point) pairs, ``GRID_BUDGET`` lattice points and
    ``GRID_ENTRIES`` entries of output mass (kernels x |U| x |Y| x points).
    """
    if channel.nx > 3 or channel.ns > 3:
        raise BudgetExceeded("gp grid oracle limited to 3 inputs and 3 states")
    if u_size > channel.nx * channel.ns:
        raise BudgetExceeded(f"u_size {u_size} exceeds the cardinality bound {channel.nx * channel.ns}")
    kernels = _unique_kernels(channel)
    n_functions = comb(len(kernels) + u_size - 1, u_size)
    points = _capped_lattice_size(resolution, u_size, GRID_BUDGET) ** channel.ns
    entries = len(kernels) * u_size * channel.ny * points
    if points > GRID_BUDGET or n_functions * points > GP_GRID_BUDGET or entries > GRID_ENTRIES:
        raise BudgetExceeded(
            f"gp grid of {len(kernels)} kernels at |U|={u_size}, lattice resolution {resolution}, {channel.ns} "
            f"states and {channel.ny} outputs exceeds the budget of {GP_GRID_BUDGET} (map, point) pairs, "
            f"{GRID_ENTRIES} entries or {GRID_BUDGET} points"
        )
    lattice = _simplex_lattice(resolution, u_size)  # (L, U)

    # Cartesian product of per-state lattice choices -> (N, S, U)
    idx = np.stack(
        np.meshgrid(*[np.arange(len(lattice))] * channel.ns, indexing="ij"), axis=-1
    ).reshape(-1, channel.ns)
    P = lattice[idx]  # (N, S, U)
    Q = channel.Q
    joint = Q[None, :, None] * P  # (N, S, U)
    p_u = joint.sum(axis=1)  # (N, U)
    h_u = _xlog2(p_u).sum(axis=1)
    i_us = _xlog2(joint).sum(axis=(1, 2)) - _xlog2(Q).sum() - h_u

    # The output mass p(u, y) of letter position u depends on that position's
    # kernel alone, so it and its sum_y p log2 p are formed once per
    # (position, kernel); a combination only adds them up and forms p(y).
    # Outputs lead the lattice points so each sum over y adds whole rows.
    mass = [np.einsum("nsu,sy->uyn", joint, k, order="C") for k in kernels]  # K x (U, Y, N)
    mass_xlog2 = [_xlog2(m).sum(axis=1) for m in mass]  # K x (U, N)
    best = -np.inf
    for combo in itertools.combinations_with_replacement(range(len(kernels)), u_size):
        p_y = sum(mass[k][u] for u, k in enumerate(combo))
        h_uy = sum(mass_xlog2[k][u] for u, k in enumerate(combo))
        i_uy = h_uy - h_u - _xlog2(p_y).sum(axis=0)
        best = max(best, float((i_uy - i_us).max()))
    return best


def _unique_kernels(channel: SdDmc) -> list[np.ndarray]:
    seen = set()
    kernels = []
    for u in itertools.product(range(channel.nx), repeat=channel.ns):
        k = np.stack([channel.W[s, u[s]] for s in range(channel.ns)])  # (S, Y)
        key = k.tobytes()
        if key not in seen:
            seen.add(key)
            kernels.append(k)
    return kernels
