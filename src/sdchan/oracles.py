"""Independent brute-force ground truth for tiny instances.

These routines share no code path with the checkers and optimizers they
validate: confusability is decided by enumerating output sequences, and the
capacity oracles scan simplex lattices.  Budgets are explicit; exceeding one
raises instead of silently truncating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Dmc, SdDmc
from .errors import BudgetExceeded

CONFUSABLE_BUDGET = 50_000_000
GRID_BUDGET = 5_000_000
GP_GRID_BUDGET = 50_000_000


@dataclass(frozen=True)
class OracleReport:
    """Outcome of comparing a module value against its brute-force oracle."""

    instance: str
    oracle_value: float | bool
    module_value: float | bool
    tolerance: float
    agreement: bool
    search_space: int

    def to_jsonable(self) -> dict:
        return {
            "instance": self.instance,
            "oracle_value": self.oracle_value,
            "module_value": self.module_value,
            "tolerance": self.tolerance,
            "agreement": self.agreement,
            "search_space": self.search_space,
        }


def confusable_all_pairs_fl(
    channel: SdDmc, decoder_sees_state: bool, n: int, budget: int = CONFUSABLE_BUDGET
) -> bool:
    """True iff every pair of distinct length-n input sequences is confusable.

    A pair is confusable when some output sequence has positive probability
    under both inputs; when the decoder sees the states, the witnessing state
    sequence must additionally be the same on both sides.  Exhaustive over
    input-sequence pairs and output sequences, with per-slot state scans.
    """
    nx, ny, ns = channel.nx, channel.ny, channel.ns
    n_inputs = nx**n
    work = n_inputs * (n_inputs - 1) // 2 * ny**n * n * ns
    if work > budget:
        raise BudgetExceeded(f"confusability scan needs ~{work} elementary checks (budget {budget})")
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


@lru_cache(maxsize=16)
def _simplex_lattice(resolution: int, dim: int) -> np.ndarray:
    """All distributions with entries k/resolution, as a (count, dim) array."""
    bars = np.array(
        list(itertools.combinations(range(resolution + dim - 1), dim - 1)), dtype=int
    )
    if dim == 1:
        return np.ones((1, 1))
    padded = np.hstack(
        [
            np.full((len(bars), 1), -1),
            bars,
            np.full((len(bars), 1), resolution + dim - 1),
        ]
    )
    parts = np.diff(padded, axis=1) - 1
    return parts / resolution


def _xlog2(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def grid_capacity(channel: Dmc, resolution: int, budget: int = GRID_BUDGET) -> float:
    """Certified lower bound on capacity: max mutual information on a lattice."""
    nx = channel.nx
    if nx > 4:
        raise BudgetExceeded(f"grid oracle limited to 4 inputs, got {nx}")
    from math import comb

    count = comb(resolution + nx - 1, nx - 1)
    if count > budget:
        raise BudgetExceeded(f"lattice has {count} points (budget {budget})")
    P = _simplex_lattice(resolution, nx)  # (N, nx)
    W = channel.W
    row_term = _xlog2(W).sum(axis=1)  # sum_y W log2 W per input
    q = P @ W  # (N, ny)
    info = P @ row_term - _xlog2(q).sum(axis=1)
    return float(info.max())


def gp_grid_oracle(
    channel: SdDmc, resolution: int, u_size: int, budget: int = GP_GRID_BUDGET
) -> float:
    """Certified lower bound on the encoder-side-information capacity objective.

    Exhausts deterministic maps from (auxiliary letter, state) to inputs,
    deduplicated by the per-letter output kernels they induce, against all
    lattice conditionals for the auxiliary letter given the state.
    """
    if channel.nx > 3 or channel.ns > 3:
        raise BudgetExceeded("gp grid oracle limited to 3 inputs and 3 states")
    if u_size > channel.nx * channel.ns:
        raise BudgetExceeded(f"u_size {u_size} exceeds the cardinality bound {channel.nx * channel.ns}")
    from math import comb

    kernels = _unique_kernels(channel)
    n_functions = comb(len(kernels) + u_size - 1, u_size)
    n_points = comb(resolution + u_size - 1, u_size - 1) ** channel.ns
    if n_functions * n_points > budget:
        raise BudgetExceeded(
            f"{n_functions} maps x {n_points} lattice points exceeds budget {budget}"
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
    i_us = _xlog2(joint).sum(axis=(1, 2)) - _xlog2(Q).sum() - _xlog2(p_u).sum(axis=1)

    best = -np.inf
    for combo in itertools.combinations_with_replacement(range(len(kernels)), u_size):
        T = np.stack([kernels[k] for k in combo])  # (U, S, Y)
        p_uy = np.einsum("nsu,usy->nuy", joint, T)
        p_y = p_uy.sum(axis=1)
        i_uy = _xlog2(p_uy).sum(axis=(1, 2)) - _xlog2(p_u).sum(axis=1) - _xlog2(p_y).sum(axis=1)
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
