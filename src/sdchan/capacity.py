"""Capacity computations: two certified optimizers, a minimax LP, and dispatchers.

All values are in bits (base-2 logarithms, with 0*log(0) = 0).  Every
vanishing-error value comes from one of two optimizers: Blahut-Arimoto on a
DMC, or the concave Gelfand-Pinsker ascent for the non-causal encoder.  Each
result carries the gap between its own upper and lower bounds, so its value
is a certified bracket [value, value + gap].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .channel import Dmc, Regime, SdDmc, Si, SiModel
from .errors import NoConvergence, UnsupportedModel
from .positivity import (
    POSITIVE,
    ZERO,
    Verdict,
    check_dmc_fl_feedback,
    positivity,
)
from .reductions import (
    average_states,
    joint_output_channel,
    shannon_strategy_channel,
)

BA_TOL = 1e-9
BA_MAX_ITER = 100_000
GP_TOL = 1e-7


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


def blahut_arimoto(channel: Dmc, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """max_{P_X} I(X;Y) by alternating updates from the uniform input.

    Stops when the per-iteration upper and lower capacity bounds differ by
    less than ``tol``; the gap is recorded in the result.
    """
    W = channel.W
    nx = channel.nx
    support = W > 0
    with np.errstate(divide="ignore"):
        log2_W = np.log2(W)
    r = np.full(nx, 1.0 / nx)
    lower = 0.0
    gap = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        q_y = r @ W
        # d[x] = D(W(.|x) || q) in bits; structural zeros of W contribute 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(support, W * (log2_W - np.log2(q_y)), 0.0).sum(axis=1)
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


def shannon_strategy_capacity(channel: SdDmc, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """Capacity of the strategy-letter lift, maximized over letter distributions."""
    lifted, letters = shannon_strategy_channel(channel)
    inner = blahut_arimoto(lifted, tol=tol, max_iter=max_iter)
    return replace(
        inner,
        maximizer={"P_U": inner.maximizer["P_X"], "strategies": [list(u) for u in letters]},
        method="strategy_blahut_arimoto",
    )


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """ln sum exp(x) along ``axis``; an all -inf slice gives -inf.  On arrays
    this small it costs a fraction of scipy.special.logsumexp per call, and
    the ascent makes three calls a step."""
    m = x.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - m).sum(axis=axis)) + np.squeeze(m, axis=axis)


def _gp_scores(
    log_P: np.ndarray, log_Q: np.ndarray, T: np.ndarray, log_T: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """a(u, s) = sum_y T(y|u,s) ln q(u|y), with q(u|y) the posterior of U given Y.

    log_P holds ln P(u|s) with shape (U, S); T and log_T hold the kernels
    T(y|u,s) and their logs with shape (U, S, Y); support[u, y] says whether
    some state gives output y to letter u.  The sums over states and letters
    run in the log domain, so a letter whose mass underflows keeps a finite,
    very negative ln q instead of a reset one.
    """
    log_p_uy = _logsumexp(log_T + (log_P + log_Q)[:, :, None], axis=1)
    with np.errstate(invalid="ignore"):
        log_q = np.where(support, log_p_uy - _logsumexp(log_p_uy, axis=0), 0.0)
    return np.einsum("usy,uy->us", T, log_q)


def gelfand_pinsker_capacity(channel: SdDmc, tol: float = GP_TOL, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """max over P(u|s) of I(U;Y) - I(U;S): the non-causal encoder's capacity.

    U ranges over the distinct per-state kernels W[s][u(s)][.] of the
    strategy letters u.  Merging letters that induce one kernel never lowers
    the objective, so no auxiliary alphabet does better.  The objective is
    concave in P(u|s) (Dupuis, Yu & Willems, ISIT 2004); the alternating
    closed-form update ascends it from the uniform point until the
    Frank-Wolfe gap, an upper bound on the distance to the optimum, drops
    below ``tol``.  The capacity lies in [value, value + certified_gap], so
    value + certified_gap also bounds the averaged-channel and strategy-lift
    capacities, which the non-causal encoder can only match or beat.  At
    ``max_iter`` the bracket is returned with a warning.
    """
    _, letters = shannon_strategy_channel(channel)
    ns = channel.ns
    T = channel.W[np.arange(ns), np.array(letters)]  # (letters, S, Y): T[u, s] = W[s][u(s)]
    _, first = np.unique(T.reshape(len(letters), -1), axis=0, return_index=True)
    keep = np.sort(first)
    T = T[keep]
    with np.errstate(divide="ignore"):
        log_T = np.log(T)
        log_Q = np.log(channel.Q)
    support = (T > 0).any(axis=1)
    # g(u, s) = a(u, s) - ln P(u|s) is the gradient of the objective (in nats,
    # up to a per-state constant and the factor Q(s)); the objective is
    # sum_s Q(s) sum_u P(u|s) g(u, s), and concavity bounds the optimum by
    # sum_s Q(s) max_u g(u, s).
    log_P = np.full((len(keep), ns), -np.log(len(keep)))
    for iterations in range(1, max_iter + 1):
        a = _gp_scores(log_P, log_Q, T, log_T, support)
        g = a - log_P
        lower = float(np.einsum("us,us,s->", np.exp(log_P), g, channel.Q) / np.log(2))
        upper = float(channel.Q @ g.max(axis=0) / np.log(2))
        if upper - lower < tol:
            break
        log_P = a - _logsumexp(a, axis=0)
    warnings = ()
    if upper - lower >= tol:
        warnings = (f"gelfand_pinsker gap {upper - lower:.3e} above tol {tol:.3e} after {max_iter} iterations",)
    value = max(lower, 0.0)
    return CapacityResult(
        value=value,
        maximizer={"P_U_given_S": np.exp(log_P).T.tolist(), "f": [list(letters[i]) for i in keep]},
        method="gp_ascent",
        iterations=iterations,
        certified_gap=max(upper - value, 0.0),
        warnings=warnings,
    )


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
) -> CapacityResult:
    """Vanishing-error capacity (feedback and code-length regime are immaterial)."""
    enc, dec = si.encoder, si.decoder
    if dec is Si.NONE:
        if enc in (Si.NONE, Si.STRICTLY_CAUSAL):
            return blahut_arimoto(average_states(channel), tol=tol, max_iter=max_iter)
        if enc is Si.CAUSAL:
            return shannon_strategy_capacity(channel, tol=tol, max_iter=max_iter)
        return gelfand_pinsker_capacity(channel, max_iter=max_iter)
    if (enc, dec) in ((Si.STRICTLY_CAUSAL, Si.CAUSAL), (Si.NONE, Si.CAUSAL)):
        return capacity_cond_iid(channel, per_state_input=False, tol=tol, max_iter=max_iter)
    return capacity_cond_iid(channel, per_state_input=True, tol=tol, max_iter=max_iter)


def zero_error_capacity(
    channel: SdDmc,
    si: SiModel,
    regime: Regime,
    tol: float = BA_TOL,
    max_iter: int = BA_MAX_ITER,
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
    inner = vanishing_capacity(channel, si, tol=tol, max_iter=max_iter)
    return replace(inner, verdict=verdict)
