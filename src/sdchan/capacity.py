"""Capacity computations: two certified optimizers, a minimax LP, and a table of SI models.

All values are in bits (base-2 logarithms, with 0*log(0) = 0).  Every
vanishing-error value comes from one of two optimizers: Blahut-Arimoto on a
DMC, or the concave Gelfand-Pinsker ascent for the non-causal encoder.  Each
result carries the gap between its own upper and lower bounds, so its value
is a certified bracket [value, value + gap]; one that stops at its iteration
cap returns its wider bracket with a warning.  Blahut-Arimoto starts at the
closed-form optimum of a square or two-output DMC, where the KKT conditions
are linear, and usually stops there after one evaluation; so does the
Gelfand-Pinsker ascent on a channel with one state of positive probability,
which is Blahut-Arimoto on its distinct letters.

``_VALUES`` is the one place that maps each state-information model to the
reduction and optimizer that give its vanishing-error value;
``vanishing_capacity`` looks its row up, and ``zero_error_capacity`` adds the
positivity verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import Dmc, Regime, SdDmc, SiModel, _distinct_rows
from .errors import UnsupportedModel, ValidationError
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
GP_TOL = 1e-7
# The finishes of both optimizers are tried once the bracket is narrower
# than FINISH_GAP.  Blahut-Arimoto's Newton step works on a face that holds
# the inputs with more than FACE_SHARE of the largest mass; inputs off the
# face that are losing mass keep OFF_FACE_KEEP of it, as do the letter
# masses that Gelfand-Pinsker's finish sheds.
FINISH_GAP = 1e-2
FACE_SHARE = 1e-3
OFF_FACE_KEEP = 1 / 16


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value in bits plus the distribution achieving it.

    ``warnings`` has one line per optimizer run stopped at its iteration cap.
    """

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
    np.log2(p, out=out, where=p > 0)
    out *= p
    return out


def _adaptive_ascent(name: str, point, evaluate, propose, tol: float, max_iter: int, finish):
    """Monotone ascent with an adaptive step; returns (point, bracket).

    ``evaluate(point)`` gives the certified bounds (lower, upper) at ``point``
    and the direction ``propose`` needs; ``propose(point, direction, mu)`` is
    the plain update at mu = 1 and extrapolates along it for mu > 1.  A
    proposal is accepted when its lower bound does not drop and its bracket
    does not widen, and mu then doubles; otherwise it is rejected and mu
    resets to 1, whose plain update is always taken (it ascends in exact
    arithmetic).  Every evaluation, rejected proposals included, counts
    against ``max_iter``.

    ``finish(point, direction)`` is a step for the tail: a
    Newton step on a face of the simplex for Blahut-Arimoto, a shedding of
    the emptying letters for Gelfand-Pinsker.  It is tried after a rejected
    extrapolation once the bracket is narrower than ``FINISH_GAP``, and
    returns a candidate point or None.  The candidate is evaluated like any
    proposal, so it counts in ``iterations`` and against ``max_iter``, and
    it is accepted when its lower bound rises and its upper bound is finite.
    A candidate whose lower bound does not rise, but whose upper bound is
    finite, is judged after one plain step from it: a finish can land where
    its own lower bound dips while the plain step from there climbs.  That
    step counts too (with no evaluation left for it, the candidate is
    rejected), and the pair is accepted on the same rule.
    Unlike an extrapolation it may widen the bracket: the mass it leaves
    off the optimum's support can hold the upper bound up for a few steps.
    Since the lower bound never drops, the value reported still never
    decreases as ``max_iter`` grows.  An accepted finish that at least halves
    the bracket is followed by another finish, as such steps tend to come in
    runs near the optimum (Newton steps converge quadratically, and a letter
    may need several sheddings); any other outcome returns to the plain
    update.  After k rejected finishes in a row the next 2^k - 1 chances are
    skipped, so a problem on which the step keeps failing loses few
    evaluations to it.

    ``bracket`` holds the ``CapacityResult`` fields value, certified_gap,
    iterations and warnings at the point returned; a gap still at or above
    ``tol`` at ``max_iter`` adds one warning naming ``name``.
    """
    lower, upper, direction = evaluate(point)
    evaluations = 1
    mu = 1.0
    again = False  # the last finish at least halved the bracket
    misses = skip = 0
    while upper - lower >= tol and evaluations < max_iter:
        if not again:
            trial = propose(point, direction, mu)
            t_lower, t_upper, t_direction = evaluate(trial)
            evaluations += 1
            if mu == 1.0 or (t_lower >= lower and t_upper - t_lower <= upper - lower):
                point, lower, upper, direction = trial, t_lower, t_upper, t_direction
                mu *= 2.0
                continue
            mu = 1.0
            if upper - lower >= FINISH_GAP or evaluations >= max_iter:
                continue
            if skip:
                skip -= 1
                continue
        trial = finish(point, direction)
        again = False
        if trial is None:
            continue
        t_lower, t_upper, t_direction = evaluate(trial)
        evaluations += 1
        if not t_lower > lower and t_upper < np.inf and evaluations < max_iter:
            # A finish can land where its own lower bound dips while the
            # plain step from there climbs.
            trial = propose(trial, t_direction, 1.0)
            t_lower, t_upper, t_direction = evaluate(trial)
            evaluations += 1
        if t_lower > lower and t_upper < np.inf:
            again = t_upper - t_lower < (upper - lower) / 2
            point, lower, upper, direction = trial, t_lower, t_upper, t_direction
            misses = 0
        else:
            misses += 1
            skip = 2**misses - 1
    value = max(lower, 0.0)
    # At an exact optimum the upper bound can round an ulp below the lower one.
    gap = max(upper - value, 0.0)
    warnings = (f"{name} gap {gap:.3e} above tol {tol:.3e} after {max_iter} iterations",) if gap >= tol else ()
    return point, {"value": value, "certified_gap": gap, "iterations": evaluations, "warnings": warnings}


def _kkt_start(W: np.ndarray, neg_h: np.ndarray) -> Optional[np.ndarray]:
    """The optimal input law of ``W`` where the KKT conditions give it in closed form, else None.

    D(W_x || q) = C on the inputs S that carry the optimum reads
    W_S z = H(W_x) with z = -log2 q - C, so q ∝ 2^(-z) and r_S = q W_S^-1.
    S is every input of a square W, and the two inputs with the smallest
    and largest W(y0|x) when there are two outputs.  None on any other
    shape, if W_S is singular, or if r_S has an entry that is not positive.
    """
    n, ny = W.shape
    if n == ny:
        face = slice(None)
    elif ny == 2:
        face = [W[:, 0].argmin(), W[:, 0].argmax()]
    else:
        return None
    try:
        inverse = np.linalg.inv(W[face])
    except np.linalg.LinAlgError:
        return None
    # r is linear in q, so q need not sum to 1 before r is normalised.
    minus_z = np.dot(inverse, neg_h[face])
    r = np.dot(np.exp2(minus_z - minus_z.max()), inverse)
    if not r.min() > 0.0:
        return None
    start = np.zeros(n)
    start[face] = r / r.sum()
    return start


def blahut_arimoto(channel: Dmc, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """max_{P_X} I(X;Y) by an accelerated Blahut-Arimoto ascent.

    At any input law r, I(r) <= C <= max_x D(W_x || rW), so each evaluated
    point carries a certified bracket.  The step r' ∝ r * 2^(mu (d - max d)),
    d[x] = D(W_x || rW), is the classic update at mu = 1; ``_adaptive_ascent``
    doubles mu while its proposals are accepted and resets it to 1 when one
    is not.  Stops when the bracket at the current point is narrower than
    ``tol``; ``iterations`` counts the evaluations of d, rejected proposals
    and finishing steps included.  At ``max_iter`` the bracket is returned
    with a warning.

    Each evaluation is d = -H(W_x) - sum_y W(y|x) log2 q(y), with q = rW: the
    row entropies are computed once, so an evaluation is two matrix-vector
    products and one log2 over the outputs.  Set-up drops the outputs no
    input reaches, which carry no mass under any r and add nothing to d, so
    every log2 q(y) is finite; and it merges identical inputs, as I depends
    only on their summed mass, and ``P_X`` splits a merged input's mass
    evenly over its rows.

    The ascent starts at the optimum where the capacity KKT conditions give
    it in closed form, and at the uniform law (a merged input at its rows'
    share) otherwise.  An input law r with D(W_x || rW) = C on every x is
    optimal.  On a square W (after set-up) that is the linear system
    W z = H(W_x), z = -log2 q - C, so q ∝ 2^(-z) and r = q W^-1.  With two
    outputs, I(r) = h(q(y0)) - sum_x r_x h(W(y0|x)) and h is concave, so
    the two inputs with the smallest and largest W(y0|x) carry an optimum;
    the same solve on them gives their masses, and every other input starts
    at 0.  A solve that fails, or a law with an entry that is not positive,
    leaves the uniform start.  The bracket is certified at any start, so a
    wrong candidate costs evaluations, never correctness.

    Once the bracket is narrower than ``FINISH_GAP``, ``_adaptive_ascent``
    may try a finish: a Newton step for I(r) on a face S of the simplex.  I
    has gradient d - 1/ln 2 and Hessian H = -W diag(1/q) W^T / ln 2.  S holds
    the inputs with r_x > FACE_SHARE * max r, and those gaining mass: with d
    above the midpoint of [I(r), max d], such an input may belong to the
    optimum however little mass it holds.  Inputs off S keep OFF_FACE_KEEP
    of their mass (all of it if they are gaining), and S takes the mass shed,
    m = sum_x m_x over the inputs off S.  The shed mass also moves q by
    -sum_x m_x W_x, which the Newton step on S must offset, so with
    v = sum_x m_x W_x / q the step solves the bordered system
    [W_S diag(1/q) W_S^T 1; 1^T 0] [dr; lam] = [ln 2 (d_S - max d) + W_S v; m],
    which is -ln 2 times the Newton system in H.
    An input with r + dr <= 0 leaves S and the system is solved again; none
    left, or a singular system, gives no candidate.  S keeps at most as many
    rows as there are outputs, the heaviest, since more are linearly
    dependent.  Where the plain step moves mass along a nearly flat direction
    by a fraction of a per cent per step, this step lands near the optimum of
    the face in one evaluation.
    """
    first, group = _distinct_rows(channel.W)
    counts = np.bincount(group)
    W = channel.W[first][:, channel.W.any(axis=0)]
    neg_h = _xlog2(W).sum(axis=1)
    ny = W.shape[1]
    ln2 = np.log(2.0)

    def evaluate(r):
        q = np.dot(r, W)
        d = neg_h - np.dot(W, np.log2(q))
        upper = d.max()
        return float(np.dot(r, d)), float(upper), (d - upper, q)

    def propose(r, direction, mu):
        scaled = r * np.exp2(mu * direction[0])
        return scaled / scaled.sum()

    def finish(r, direction):
        shifted_d, q = direction
        # An input whose divergence is above the midpoint of [I(r), max d] is
        # gaining mass and may belong to the optimum: it joins the face, and
        # off the face it keeps all of its mass.
        gaining = shifted_d >= np.dot(r, shifted_d) / 2
        shed = np.where(gaining, 0.0, 1.0 - OFF_FACE_KEEP)
        face = np.flatnonzero((r > FACE_SHARE * r.max()) | (gaining & (r > 0.0)))
        if face.size > ny:
            # More rows than outputs are linearly dependent: keep the heaviest.
            face = face[np.argsort(r[face])[-ny:]]
        while face.size:
            # The system times -ln 2: W_S diag(1/q) W_S^T = B B^T.
            n = face.size
            B = W[face] / np.sqrt(q)
            K = np.ones((n + 1, n + 1))
            K[:n, :n] = np.dot(B, B.T)
            K[n, n] = 0.0
            off = shed * r  # the mass shed off the face
            off[face] = 0.0
            rhs = np.empty(n + 1)
            rhs[:n] = shifted_d[face] * ln2 + np.dot(B, np.dot(off, W) / np.sqrt(q))
            rhs[n] = off.sum()
            try:
                landed = r[face] + np.linalg.solve(K, rhs)[:n]
            except np.linalg.LinAlgError:
                return None
            if landed.min() > 0.0:
                scale = 1.0 - shed
                scale[face] = landed / r[face]
                trial = r * scale
                return trial / trial.sum()
            face = face[landed > 0.0]
        return None

    # One error state for the whole ascent, not one per evaluation: an input
    # mass that an extrapolated proposal underflows to 0 can leave an output
    # with q(y) = 0, and the proposal is then rejected on its NaN bounds.
    # The closed-form start on a nearly singular matrix can likewise get an
    # inverse holding inf, and the NaN law it then gives is refused.
    with np.errstate(divide="ignore", invalid="ignore"):
        start = _kkt_start(W, neg_h)
        if start is None:
            start = counts / channel.nx
        r, bracket = _adaptive_ascent("blahut_arimoto", start, evaluate, propose, tol, max_iter, finish)
    return CapacityResult(maximizer={"P_X": (r / counts)[group].tolist()}, method="blahut_arimoto", **bracket)


def capacity_cond_iid(channel: SdDmc, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """max I(X;Y|S) over an input law per state: the Q-average of the per-state capacities.

    The value when both encoder and decoder see the state (causally or
    better).  The bracket is the Q-average of the per-state brackets, and it
    keeps the warning of each state whose run stopped at ``max_iter``.
    """
    total = 0.0
    gap = 0.0
    iters = 0
    rows = []
    warnings = ()
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
        warnings += tuple(f"state {s}: {w}" for w in sub.warnings)
    return CapacityResult(
        value=total,
        maximizer={"P_X_given_S": rows},
        method="per_state_blahut_arimoto",
        iterations=iters,
        certified_gap=gap,
        warnings=warnings,
    )


def shannon_strategy_capacity(channel: SdDmc, tol: float = BA_TOL, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """Capacity of the strategy-letter lift, maximized over letter distributions."""
    lifted, letters = shannon_strategy_channel(channel)
    inner = blahut_arimoto(lifted, tol=tol, max_iter=max_iter)
    return replace(
        inner,
        maximizer={"P_U": inner.maximizer["P_X"], "strategies": [list(u) for u in letters]},
        method="strategy_blahut_arimoto",
    )


def gelfand_pinsker_capacity(channel: SdDmc, max_iter: int = BA_MAX_ITER) -> CapacityResult:
    """max over P(u|s) of I(U;Y) - I(U;S): the non-causal encoder's capacity.

    U ranges over the distinct per-state kernels W[s][u(s)][.] of the
    strategy letters u.  Merging letters that induce one kernel never lowers
    the objective, so no auxiliary alphabet does better.  The objective is
    concave in P(u|s) (Dupuis, Yu & Willems, ISIT 2004); it is ascended
    until the Frank-Wolfe gap, an upper bound on the distance to the
    optimum, drops below ``GP_TOL``.  The step proposes
    ln P' = normalize(ln P + mu (a - ln P)); mu = 1 is the alternating
    closed-form update, and ``_adaptive_ascent`` adapts mu.  The capacity
    lies in [value, value + certified_gap], both computed at the returned
    P(u|s), so value + certified_gap also bounds the averaged-channel and
    strategy-lift capacities, which the non-causal encoder can only match or
    beat.  ``iterations`` counts the score evaluations, rejected proposals
    and finishing steps included.  At ``max_iter`` the bracket is returned
    with a warning.

    The ascent starts at the uniform P(u|s), except on a channel with one
    state of positive probability.  There I(U;S) = 0 and the objective is
    I(U;Y) over the distinct letters' matrix, so it starts where
    ``blahut_arimoto`` would: at ``_kkt_start``'s law on a square or
    two-output matrix, mixed with GP_TOL / 10 of the uniform law so that
    every ln P(u|s) is finite.  Any other shape, a singular matrix or a law
    that is not positive keeps the uniform start.

    Once the bracket is narrower than ``FINISH_GAP``, ``_adaptive_ascent``
    may try a finish that sheds the letters the plain step is emptying.  At
    mu = 1 the step changes ln P(u|s) by g(u, s) - ln Z_s, with ln Z_s the
    log-sum-exp over u of a(u, s) that ``propose`` normalises by.  A letter
    for which that is negative in every state is losing mass everywhere;
    the finish scales its P(u|.) by OFF_FACE_KEEP in every state and
    renormalises each state in the log domain.  One scale for every state
    keeps the letter's shape, so q(u|y) and g barely move and the lower
    bound rises, where the plain step takes hundreds of evaluations to
    empty such a letter.  When no letter is emptying in every state, the
    finish scales by OFF_FACE_KEEP each P(u|s) whose plain step is negative
    in its own state.  No letter is set to zero, which would leave its g
    undefined.  The bracket stays certified: the candidate is a point like
    any other, and its bounds come from the same evaluation.

    States of probability zero are dropped at set-up: ``P_U_given_S`` has a
    row, and each letter of ``f`` an input, per state of positive probability.
    """
    states = np.flatnonzero(channel.Q > 0)
    letters = np.array(enumerate_strategy_letters(channel.nx, channel.ns))[:, states]
    T = channel.W[states, letters]  # (letters, S, Y): T[u, i] = W[s][u(s)] for s = states[i]
    # A library-built channel can have empty rows; a letter with no output
    # is no input of the lift, as ``shannon_strategy_channel`` also says.
    empty = np.flatnonzero(~T.any(axis=(1, 2)))
    if empty.size:
        raise ValidationError(
            f"row_stochastic: strategy letter {letters[empty[0]].tolist()} has all-zero rows"
            " in every state of positive probability"
        )
    keep, _ = _distinct_rows(T.reshape(len(letters), -1))
    # Outputs that no letter reaches get no mass under any P(u|s); without
    # them every column of ln p(u, y) has a finite normaliser.
    T = T[keep][:, :, (T > 0).any(axis=(0, 1))]
    Q = channel.Q[states]
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

    def finish(log_P, direction):
        a, g = direction
        losing = g < np.logaddexp.reduce(a, axis=0)
        emptying = losing.all(axis=1)
        if emptying.any():
            losing = emptying[:, None]
        elif not losing.any():
            return None
        x = log_P + np.where(losing, np.log(OFF_FACE_KEEP), 0.0)
        return x - np.logaddexp.reduce(x, axis=0)

    start = np.full((len(keep), len(states)), -np.log(len(keep)))
    if len(states) == 1:
        W = T[:, 0]
        # As in ``blahut_arimoto``, a nearly singular matrix can give a NaN
        # law, which ``_kkt_start`` refuses.
        with np.errstate(divide="ignore", invalid="ignore"):
            law = _kkt_start(W, _xlog2(W).sum(axis=1))
        if law is not None:
            # Every letter keeps some mass, so every ln P(u|s) is finite,
            # and the lower bound moves by far less than GP_TOL.
            mix = GP_TOL / 10
            start = np.log((1.0 - mix) * law + mix / len(law))[:, None]
    log_P, bracket = _adaptive_ascent("gelfand_pinsker", start, evaluate, propose, GP_TOL, max_iter, finish)
    return CapacityResult(
        maximizer={"P_U_given_S": np.exp(log_P).T.tolist(), "f": letters[keep].tolist()},
        method="gp_ascent",
        **bracket,
    )


def shannon_zef_fl_capacity(channel: Dmc) -> CapacityResult:
    """Fixed-length zero-error feedback capacity of a DMC.

    Solves min over the input simplex of the maximum total probability
    assigned to any output's compatible-input set, as a linear program;
    the capacity is -log2 of the optimum.  Returns 0 without solving when
    no two inputs have disjoint supports.
    """
    verdict = check_dmc_fl_feedback(channel)
    if verdict.decision != POSITIVE:
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


def _averaged_value(channel: SdDmc, tol: float, max_iter: int) -> CapacityResult:
    # The encoder's state knowledge, at best strictly causal, is of no use.
    return blahut_arimoto(average_states(channel), tol=tol, max_iter=max_iter)


def _joint_output_value(channel: SdDmc, tol: float, max_iter: int) -> CapacityResult:
    # One input law, independent of the state, and the state read as part of
    # the output: I(X; Y, S) = I(X; Y | S).
    inner = blahut_arimoto(joint_output_channel(channel), tol=tol, max_iter=max_iter)
    return replace(inner, method="joint_output_blahut_arimoto")


# SI token -> row(channel, tol, max_iter) -> CapacityResult, in the order of
# ``positivity._ROUTES``.  By the paper's identities sc,- shares -,-'s row,
# -,c shares sc,c's, and nc,c and nc,nc share c,c's.  Rows call every
# optimizer and reduction through module globals, so a rebinding of one (for
# instance by a tracer) sees every call.
_VALUES = {
    "-,-": _averaged_value,
    "sc,-": _averaged_value,
    "c,-": lambda ch, tol, max_iter: shannon_strategy_capacity(ch, tol, max_iter),
    "nc,-": lambda ch, tol, max_iter: gelfand_pinsker_capacity(ch, max_iter=max_iter),
    "sc,c": _joint_output_value,
    "c,c": lambda ch, tol, max_iter: capacity_cond_iid(ch, tol, max_iter),
    "nc,c": lambda ch, tol, max_iter: capacity_cond_iid(ch, tol, max_iter),
    "nc,nc": lambda ch, tol, max_iter: capacity_cond_iid(ch, tol, max_iter),
    "-,c": _joint_output_value,
}


def vanishing_capacity(
    channel: SdDmc,
    si: SiModel,
    tol: float = BA_TOL,
    max_iter: int = BA_MAX_ITER,
) -> CapacityResult:
    """Vanishing-error capacity (feedback and code-length regime are immaterial): ``si``'s row of ``_VALUES``.

    ``tol`` bounds the Blahut-Arimoto bracket only; the nc,- ascent stops at GP_TOL.
    """
    return _VALUES[si.token](channel, tol, max_iter)


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
