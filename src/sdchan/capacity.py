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


def _adaptive_ascent(point, evaluate, propose, tol: float, max_iter: int):
    """Monotone ascent with an adaptive step; returns (point, lower, upper, evaluations).

    ``evaluate(point)`` gives the certified bounds (lower, upper) at ``point``
    and the direction ``propose`` needs; ``propose(point, direction, mu)`` is
    the plain update at mu = 1 and extrapolates along it for mu > 1.  A
    proposal is accepted when its lower bound does not drop and its bracket
    does not widen, and mu then doubles; otherwise it is rejected and mu
    resets to 1, whose plain update is always taken (it ascends in exact
    arithmetic).  The bounds returned are those of the point returned.
    Every evaluation, rejected proposals included, counts against
    ``max_iter``.
    """
    lower, upper, direction = evaluate(point)
    evaluations = 1
    mu = 1.0
    while upper - lower >= tol and evaluations < max_iter:
        trial = propose(point, direction, mu)
        t_lower, t_upper, t_direction = evaluate(trial)
        evaluations += 1
        if mu == 1.0 or (t_lower >= lower and t_upper - t_lower <= upper - lower):
            point, lower, upper, direction = trial, t_lower, t_upper, t_direction
            mu *= 2.0
        else:
            mu = 1.0
    return point, lower, upper, evaluations


def blahut_arimoto(channel: Dmc, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """max_{P_X} I(X;Y) by an accelerated Blahut-Arimoto ascent from the uniform input.

    At any input law r, I(r) <= C <= max_x D(W_x || rW), so each evaluated
    point carries a certified bracket.  The step r' ∝ r * 2^(mu (d - max d)),
    d[x] = D(W_x || rW), is the classic update at mu = 1; ``_adaptive_ascent``
    doubles mu while its proposals are accepted and resets it to 1 when one
    is not.  Stops when the bracket at the current point is narrower than
    ``tol``; ``iterations`` counts the evaluations of d, rejected proposals
    included.
    """
    W = channel.W
    nx = channel.nx
    support = W > 0

    def evaluate(r):
        q_y = r @ W
        # d[x] = D(W(.|x) || q) in bits; structural zeros of W contribute 0.
        d = np.where(support, W * (log2_W - np.log2(q_y)), 0.0).sum(axis=1)
        upper = d.max()
        return float(r @ d), float(upper), d - upper

    def propose(r, shifted_d, mu):
        scaled = r * np.exp2(mu * shifted_d)
        return scaled / scaled.sum()

    # One error state for the whole ascent, not one per evaluation: log2 of a
    # structural zero of W is -inf, and support masks it out of d.
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_W = np.log2(W)
        r, lower, upper, iterations = _adaptive_ascent(np.full(nx, 1.0 / nx), evaluate, propose, tol, max_iter)
    value = max(lower, 0.0)
    # At an exact optimum max_x D_x can round an ulp below I(r).
    gap = max(upper - value, 0.0)
    result = CapacityResult(
        value=value,
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


def gelfand_pinsker_capacity(channel: SdDmc, tol: float = GP_TOL, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """max over P(u|s) of I(U;Y) - I(U;S): the non-causal encoder's capacity.

    U ranges over the distinct per-state kernels W[s][u(s)][.] of the
    strategy letters u.  Merging letters that induce one kernel never lowers
    the objective, so no auxiliary alphabet does better.  The objective is
    concave in P(u|s) (Dupuis, Yu & Willems, ISIT 2004); it is ascended from
    the uniform point until the Frank-Wolfe gap, an upper bound on the
    distance to the optimum, drops below ``tol``.  The step proposes
    ln P' = normalize(ln P + mu (a - ln P)); mu = 1 is the alternating
    closed-form update, and ``_adaptive_ascent`` adapts mu.  The capacity
    lies in [value, value + certified_gap], both computed at the returned
    P(u|s), so value + certified_gap also bounds the averaged-channel and
    strategy-lift capacities, which the non-causal encoder can only match or
    beat.  ``iterations`` counts the score evaluations, rejected proposals
    included.  At ``max_iter`` the bracket is returned with a warning.
    """
    _, letters = shannon_strategy_channel(channel)
    ns = channel.ns
    T = channel.W[np.arange(ns), np.array(letters)]  # (letters, S, Y): T[u, s] = W[s][u(s)]
    _, first = np.unique(T.reshape(len(letters), -1), axis=0, return_index=True)
    keep = np.sort(first)
    # Outputs that no letter reaches get no mass under any P(u|s); without
    # them every column of ln p(u, y) has a finite normaliser.
    T = T[keep][:, :, (T > 0).any(axis=(0, 1))]
    Q = channel.Q
    with np.errstate(divide="ignore"):
        log_T = np.log(T)
        log_Q = np.log(Q)
    support = (T > 0).any(axis=1)
    ln2 = np.log(2.0)

    def evaluate(log_P):
        """Bounds in bits at ln P(u|s) (shape (U, S)), and the step's direction (a, g).

        a(u, s) = sum_y T(y|u,s) ln q(u|y), with q(u|y) the posterior of U
        given Y; support[u, y] says whether some state gives output y to
        letter u.  g(u, s) = a(u, s) - ln P(u|s) is the gradient of the
        objective (in nats, up to a per-state constant and the factor Q(s));
        the objective is sum_s Q(s) sum_u P(u|s) g(u, s), and concavity
        bounds the optimum by sum_s Q(s) max_u g(u, s).  The sums over states
        and letters run in the log domain, so a letter whose mass underflows
        keeps a finite, very negative ln q instead of a reset one;
        np.logaddexp gives -inf for an all -inf slice without a warning.
        """
        log_p_uy = np.logaddexp.reduce(log_T + (log_P + log_Q)[:, :, None], axis=1)
        log_q = np.where(support, log_p_uy - np.logaddexp.reduce(log_p_uy, axis=0), 0.0)
        a = (T @ log_q[:, :, None])[:, :, 0]
        g = a - log_P
        lower = float((np.exp(log_P) * g).sum(axis=0) @ Q / ln2)
        upper = float(g.max(axis=0) @ Q / ln2)
        return lower, upper, (a, g)

    def propose(log_P, direction, mu):
        # ln P + mu (a - ln P), written so that mu = 1 gives a exactly.
        a, g = direction
        x = a + (mu - 1.0) * g
        return x - np.logaddexp.reduce(x, axis=0)

    start = np.full((len(keep), ns), -np.log(len(keep)))
    log_P, lower, upper, iterations = _adaptive_ascent(start, evaluate, propose, tol, max_iter)
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
    # Imported here, not at the top: scipy.optimize took 0.6-0.8 s of the
    # 0.8-1.0 s that `import sdchan.cli` cost with it at the top (python -X
    # importtime, 2-vCPU Xeon), and no CLI subcommand solves this LP.
    from scipy.optimize import linprog

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
    """Vanishing-error capacity (feedback and code-length regime are immaterial).

    ``tol`` bounds the Blahut-Arimoto bracket only; the nc,- ascent stops at GP_TOL.
    """
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

    A verdict that is neither positive nor zero is refused: its condition is
    only sufficient, so no value can be certified.  Positivity's condition
    table gives such verdicts only for the decoder-only-causal model under
    variable-length coding.  (Its bounded-length behavior matches the
    strictly-causal two-sided case and is supported.)  Fixed-length values
    beyond positivity are out of scope.
    """
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
    if verdict.decision != POSITIVE:
        raise UnsupportedModel(
            "variable-length zero-error values for the decoder-only-causal model cannot be certified"
        )
    inner = vanishing_capacity(channel, si, tol=tol, max_iter=max_iter)
    return replace(inner, verdict=verdict)
