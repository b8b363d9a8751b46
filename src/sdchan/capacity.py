"""Capacity computations: alternating optimizers, a minimax LP, and dispatchers.

All values are in bits (base-2 logarithms, with 0*log(0) = 0).  Certified
results carry the gap between the optimizer's own upper and lower bounds;
the non-causal encoder-side value is a heuristic lower bound and is flagged
as such.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .channel import Dmc, Regime, SdDmc, Si, SiModel
from .errors import AlphabetTooLarge, NoConvergence, UnsupportedModel
from .positivity import (
    POSITIVE,
    ZERO,
    Verdict,
    check_dmc_fl_feedback,
    positivity,
)
from .reductions import (
    average_states,
    enumerate_strategy_letters,
    joint_output_channel,
    shannon_strategy_channel,
)

BA_TOL = 1e-9
BA_MAX_ITER = 100_000
GP_RESTARTS = 32
GP_TOL = 1e-7
GP_MAX_FUNCTIONS = 2000


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value in bits plus the distribution achieving it."""

    value: float
    maximizer: dict
    method: str
    iterations: int = 0
    certified_gap: Optional[float] = None
    verdict: Optional[Verdict] = None
    warnings: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        out = {
            "value_bits": self.value,
            "method": self.method,
            "iterations": self.iterations,
            "gap": self.certified_gap,
            "maximizer": self.maximizer,
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_jsonable()
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def _xlog2(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def mutual_information(p_x: np.ndarray, W: np.ndarray) -> float:
    """I(X;Y) in bits for input distribution p_x over the row-stochastic W."""
    q_y = p_x @ W
    h_y = -_xlog2(q_y).sum()
    h_y_given_x = -(p_x * _xlog2(W).sum(axis=1)).sum()
    return float(h_y - h_y_given_x)


def _relative_entropies(W: np.ndarray, q_y: np.ndarray) -> np.ndarray:
    """D(W(.|x) || q) per input, in bits; rows may have structural zeros."""
    nx = W.shape[0]
    d = np.zeros(nx)
    for x in range(nx):
        mask = W[x] > 0
        d[x] = np.sum(W[x, mask] * (np.log2(W[x, mask]) - np.log2(q_y[mask])))
    return d


def blahut_arimoto(channel: Dmc, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """max_{P_X} I(X;Y) by alternating updates from the uniform input.

    Stops when the per-iteration upper and lower capacity bounds differ by
    less than ``tol``; the gap is recorded in the result.
    """
    W = channel.W
    nx = channel.nx
    r = np.full(nx, 1.0 / nx)
    lower = 0.0
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        q_y = r @ W
        d = _relative_entropies(W, q_y)
        lower = float(r @ d)
        upper = float(d.max())
        gap = upper - lower
        if gap < tol:
            break
        scaled = r * np.exp2(d - d.max())
        r = scaled / scaled.sum()
    result = CapacityResult(
        value=max(lower, 0.0),
        maximizer={"P_X": r.tolist()},
        method="blahut_arimoto",
        iterations=iterations,
        certified_gap=gap,
    )
    if gap >= tol:
        raise NoConvergence(
            f"blahut_arimoto gap {gap:.3e} above tol {tol:.3e} after {max_iter} iterations",
            result=result,
        )
    return result


def capacity_cond_iid(
    channel: SdDmc, per_state_input: bool, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER
) -> CapacityResult:
    """Conditional mutual information maximized over the input distribution(s).

    With ``per_state_input`` the input may depend on the state and the value
    is the Q-average of per-state capacities.  Without it, a single input
    distribution is used; since the input is then independent of the state,
    the objective equals the capacity of the joint-output channel, and the
    same certified alternating optimizer applies.
    """
    if per_state_input:
        total = 0.0
        gap = 0.0
        iters = 0
        rows = []
        for s in range(channel.ns):
            sub = blahut_arimoto(
                Dmc(W=channel.W[s], x_labels=channel.x_labels, y_labels=channel.y_labels),
                tol=tol,
                max_iter=max_iter,
            )
            total += channel.Q[s] * sub.value
            gap += channel.Q[s] * sub.certified_gap
            iters = max(iters, sub.iterations)
            rows.append(sub.maximizer["P_X"])
        return CapacityResult(
            value=total,
            maximizer={"P_X_given_S": rows},
            method="per_state_blahut_arimoto",
            iterations=iters,
            certified_gap=gap,
        )
    inner = blahut_arimoto(joint_output_channel(channel), tol=tol, max_iter=max_iter)
    return replace(inner, method="joint_output_blahut_arimoto")


def shannon_strategy_capacity(
    channel: SdDmc, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER, cap: int = 4096
) -> CapacityResult:
    """Capacity of the strategy-letter lift, maximized over letter distributions."""
    lifted, letters = shannon_strategy_channel(channel, cap=cap)
    inner = blahut_arimoto(lifted, tol=tol, max_iter=max_iter)
    return replace(
        inner,
        maximizer={"P_U": inner.maximizer["P_X"], "strategies": [list(u) for u in letters]},
        method="strategy_blahut_arimoto",
    )


def _gp_objective(P_us: np.ndarray, Q: np.ndarray, T: np.ndarray) -> np.ndarray:
    """I(U;Y) - I(U;S) in bits, batched.

    P_us has shape (batch, S, U) holding P(u|s); T has shape (batch, U, S, Y)
    holding the output kernel of each auxiliary letter.
    """
    joint = Q[None, :, None] * P_us  # (B, S, U)
    p_u = joint.sum(axis=1)
    i_us = _xlog2(joint).sum(axis=(1, 2)) - _xlog2(Q).sum() - _xlog2(p_u).sum(axis=1)
    p_uy = np.einsum("bsu,busy->buy", joint, T)
    p_y = p_uy.sum(axis=1)
    i_uy = _xlog2(p_uy).sum(axis=(1, 2)) - _xlog2(p_u).sum(axis=1) - _xlog2(p_y).sum(axis=1)
    return i_uy - i_us


def _gp_alternate(P_us: np.ndarray, Q: np.ndarray, T: np.ndarray, tol: float, max_iter: int = 500):
    """Ascend I(U;Y) - I(U;S) by alternating closed-form updates, batched.

    Every batch member runs its own ascent; iteration stops when no member
    improves by more than ``tol``.  Returns the best iterate and value seen
    per member (the update is monotone up to floating-point noise).
    """
    values = _gp_objective(P_us, Q, T)
    best_P = P_us.copy()
    best_values = values.copy()
    active = np.arange(len(values))
    for _ in range(max_iter):
        joint = Q[None, :, None] * P_us
        p_uy = np.einsum("bsu,busy->buy", joint, T)
        p_y = p_uy.sum(axis=1)
        # With interior P, p_uy > 0 wherever some T[u,s,y] > 0, so zeroing the
        # masked entries is exact (they only meet T = 0 factors below).
        with np.errstate(divide="ignore", invalid="ignore"):
            log_q_uy = np.log(p_uy) - np.log(p_y)[:, None, :]
        log_q_uy = np.where(p_uy > 0, log_q_uy, 0.0)
        a = np.einsum("busy,buy->bus", T, log_q_uy)
        a -= a.max(axis=1, keepdims=True)
        P_us = np.exp(a).transpose(0, 2, 1)  # (B, S, U)
        P_us /= P_us.sum(axis=2, keepdims=True)
        new_values = _gp_objective(P_us, Q, T)
        better = new_values > best_values[active]
        if better.any():
            best_P[active[better]] = P_us[better]
            best_values[active[better]] = new_values[better]
        still = new_values - values >= tol
        if not still.any():
            break
        active = active[still]
        P_us = P_us[still]
        T = T[still]
        values = new_values[still]
    return best_P, best_values


def _unique_kernel_rows(channel: SdDmc):
    """Distinct per-letter kernels W[s][u(s)][.]; letters inducing the same
    kernel are interchangeable for the auxiliary-variable search."""
    seen = {}
    kernels = []
    reps = []
    for u in enumerate_strategy_letters(channel.nx, channel.ns):
        k = np.stack([channel.W[s, u[s]] for s in range(channel.ns)])  # [s][y]
        key = k.tobytes()
        if key not in seen:
            seen[key] = len(kernels)
            kernels.append(k)
            reps.append(u)
    return kernels, reps


def gelfand_pinsker_capacity(
    channel: SdDmc,
    restarts: int = GP_RESTARTS,
    tol: float = GP_TOL,
    seed: int = 0,
    max_functions: int = GP_MAX_FUNCTIONS,
) -> CapacityResult:
    """Lower bound on max over (P_{U|S}, f) of I(U;Y) - I(U;S), |U| = |X||S|.

    Alternating maximization over P_{U|S} for each deterministic f (deduped
    up to relabelings of U and up to letters inducing identical kernels),
    multistarted from the uniform point plus Dirichlet(1) draws.  Two
    certified floors are always included: the averaged-channel capacity
    (U = X independent of S) and the strategy-lift capacity.  The value is
    a lower bound; no certified gap is reported.
    """
    nu = channel.nx * channel.ns
    Q = channel.Q
    warnings = []

    kernels, reps = _unique_kernel_rows(channel)
    n_functions = _multiset_count(len(kernels), nu)
    if n_functions <= max_functions:
        choices = itertools.combinations_with_replacement(range(len(kernels)), nu)
    else:
        warnings.append(
            f"function enumeration of size {n_functions} exceeds budget {max_functions}; "
            "falling back to randomized sampling"
        )
        rng = np.random.default_rng([seed, 0xF])
        choices = (tuple(sorted(rng.integers(0, len(kernels), nu))) for _ in range(max_functions))

    kernel_array = np.stack(kernels)  # (K, S, Y)
    per_combo = restarts + 1
    chunk_combos = max(1, 8192 // per_combo)

    best_value = -np.inf
    best = None
    combos = list(choices)
    for lo in range(0, len(combos), chunk_combos):
        chunk = combos[lo : lo + chunk_combos]
        T_chunk = kernel_array[np.array(chunk)]  # (C, U, S, Y)
        T = np.repeat(T_chunk, per_combo, axis=0)
        starts = np.empty((len(chunk) * per_combo, channel.ns, nu))
        for i, _ in enumerate(chunk):
            base = i * per_combo
            starts[base] = 1.0 / nu
            for r in range(restarts):
                rng = np.random.default_rng([seed, lo + i, r])
                starts[base + 1 + r] = rng.dirichlet(np.ones(nu), size=channel.ns)
        P_batch, values = _gp_alternate(starts, Q, T, tol)
        top = int(np.argmax(values))
        if values[top] > best_value:
            best_value = float(values[top])
            best = (chunk[top // per_combo], P_batch[top])

    combo, P = best
    maximizer = {
        "P_U_given_S": P.tolist(),
        "f": [list(reps[k]) for k in combo],
    }
    method = "heuristic-multistart"

    # Certified floors: U = X with a state-independent input embeds the
    # averaged channel; the strategy lift embeds the causal-encoder value.
    # A stalled optimizer still provides a valid lower bound, so floors
    # survive NoConvergence.
    try:
        avg = blahut_arimoto(average_states(channel))
    except NoConvergence as e:
        avg = e.result
    if avg.value > best_value:
        p = np.zeros(nu)
        p[: channel.nx] = avg.maximizer["P_X"]
        best_value = avg.value
        maximizer = {
            "P_U_given_S": [p.tolist()] * channel.ns,
            "f": [[x] * channel.ns for x in range(channel.nx)]
            + [[0] * channel.ns for _ in range(nu - channel.nx)],
        }
        method = "heuristic-multistart+averaged_floor"
    try:
        causal = shannon_strategy_capacity(channel)
    except NoConvergence as e:
        causal = e.result
    except AlphabetTooLarge:
        causal = None
    if causal is not None and causal.value > best_value:
        best_value = causal.value
        maximizer = {
            "P_U": causal.maximizer["P_U"],
            "f": causal.maximizer["strategies"],
            "note": "strategy-lift floor; |U| equals the strategy alphabet",
        }
        method = "heuristic-multistart+strategy_floor"

    return CapacityResult(
        value=max(best_value, 0.0),
        maximizer=maximizer,
        method=method,
        iterations=0,
        certified_gap=None,
        warnings=tuple(warnings),
    )


def _multiset_count(n_items: int, size: int) -> int:
    return comb(n_items + size - 1, size)


def shannon_zef_fl_capacity(channel: Dmc, ignore_positivity: bool = False) -> CapacityResult:
    """Fixed-length zero-error feedback capacity of a DMC.

    Solves min over the input simplex of the maximum total probability
    assigned to any output's compatible-input set, as a linear program;
    the capacity is -log2 of the optimum.  Returns 0 when no two inputs
    have disjoint supports (unless ``ignore_positivity`` requests the raw
    LP value as a diagnostic).
    """
    verdict = check_dmc_fl_feedback(channel)
    if verdict.decision != POSITIVE and not ignore_positivity:
        return CapacityResult(
            value=0.0,
            maximizer={"P_X": None},
            method="minimax_lp",
            certified_gap=0.0,
            verdict=verdict,
        )
    nx, ny = channel.nx, channel.ny
    compat = (channel.W != 0.0).astype(float)  # [x][y]
    # Variables: (P_0..P_{nx-1}, t); minimize t.
    c = np.zeros(nx + 1)
    c[-1] = 1.0
    A_ub = np.hstack([compat.T, -np.ones((ny, 1))])
    b_ub = np.zeros(ny)
    A_eq = np.hstack([np.ones((1, nx)), np.zeros((1, 1))])
    b_eq = np.ones(1)
    bounds = [(0, None)] * nx + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"minimax LP failed unexpectedly: {res.message}")
    t = float(res.x[-1])
    return CapacityResult(
        value=float(-np.log2(t)),
        maximizer={"P_X": res.x[:nx].tolist()},
        method="minimax_lp",
        certified_gap=0.0,
        verdict=verdict,
    )


def vanishing_capacity(
    channel: SdDmc,
    si: SiModel,
    tol: float = BA_TOL,
    max_iter: int = BA_MAX_ITER,
    restarts: int = GP_RESTARTS,
    seed: int = 0,
) -> CapacityResult:
    """Vanishing-error capacity (feedback and code-length regime are immaterial)."""
    enc, dec = si.encoder, si.decoder
    if dec is Si.NONE:
        if enc in (Si.NONE, Si.STRICTLY_CAUSAL):
            return blahut_arimoto(average_states(channel), tol=tol, max_iter=max_iter)
        if enc is Si.CAUSAL:
            return shannon_strategy_capacity(channel, tol=tol, max_iter=max_iter)
        return gelfand_pinsker_capacity(channel, restarts=restarts, seed=seed)
    if (enc, dec) in ((Si.STRICTLY_CAUSAL, Si.CAUSAL), (Si.NONE, Si.CAUSAL)):
        return capacity_cond_iid(channel, per_state_input=False, tol=tol, max_iter=max_iter)
    return capacity_cond_iid(channel, per_state_input=True, tol=tol, max_iter=max_iter)


def zero_error_capacity(
    channel: SdDmc,
    si: SiModel,
    regime: Regime,
    tol: float = BA_TOL,
    max_iter: int = BA_MAX_ITER,
    restarts: int = GP_RESTARTS,
    seed: int = 0,
) -> CapacityResult:
    """Zero-error feedback capacity: 0 when the positivity check fails,
    the vanishing-error value otherwise.

    The decoder-only-causal model is rejected under variable-length coding:
    only a sufficient positivity condition is known there, so no value can
    be certified.  (Its bounded-length behavior matches the strictly-causal
    two-sided case and is supported.)  Fixed-length values beyond positivity
    are out of scope.
    """
    if si.encoder is Si.NONE and si.decoder is Si.CAUSAL and regime is Regime.VARIABLE_LENGTH:
        raise UnsupportedModel(
            "variable-length zero-error values for the decoder-only-causal model cannot be certified"
        )
    if regime is Regime.FIXED_LENGTH:
        raise UnsupportedModel("fixed-length zero-error values are out of scope; use bl or vl")
    verdict = positivity(channel, si, regime)
    if verdict.decision == ZERO:
        return CapacityResult(
            value=0.0,
            maximizer={},
            method="positivity",
            certified_gap=0.0,
            verdict=verdict,
        )
    inner = vanishing_capacity(channel, si, tol=tol, max_iter=max_iter, restarts=restarts, seed=seed)
    return replace(inner, verdict=verdict)
