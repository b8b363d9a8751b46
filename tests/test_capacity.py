import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdchan import (
    Dmc,
    Regime,
    SdDmc,
    SiModel,
    UnsupportedModel,
    ValidationError,
    average_states,
    blahut_arimoto,
    capacity_cond_iid,
    gelfand_pinsker_capacity,
    joint_output_channel,
    positivity,
    shannon_strategy_capacity,
    shannon_strategy_channel,
    shannon_zef_fl_capacity,
    vanishing_capacity,
    zero_error_capacity,
)
import sdchan.capacity
from sdchan.capacity import BA_TOL, FACE_SHARE, FINISH_GAP, GP_TOL, OFF_FACE_KEEP
from sdchan.cli import main
from conftest import (
    bsc,
    ch_ex1,
    ch_ex2,
    ch_ex3,
    ch_three_outputs,
    ch_triv,
    pentagon,
    random_channel,
    stuck_at,
)

SI_ALL = [SiModel.from_token(t) for t in ("-,-", "sc,-", "c,-", "nc,-", "sc,c", "c,c", "nc,c", "nc,nc")]


def h2(p: float) -> float:
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def mutual_information(p_x: np.ndarray, W: np.ndarray) -> float:
    """I(X;Y) in bits for input distribution p_x over the row-stochastic W."""

    def xlog2(p):
        return np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)

    q_y = p_x @ W
    return float(-xlog2(q_y).sum() + (p_x * xlog2(W).sum(axis=1)).sum())


def test_ba_identity():
    r = blahut_arimoto(average_states(ch_triv()))
    assert abs(r.value - 1.0) < 1e-9
    assert r.certified_gap < 1e-9


def test_ba_bsc_closed_form():
    r = blahut_arimoto(bsc(0.11))
    assert abs(r.value - (1 - h2(0.11))) < 1e-6


def test_ba_bsc_half_zero():
    assert blahut_arimoto(average_states(ch_ex2())).value < 1e-9


def test_ba_lower_bound_vs_feasible_points(rng):
    for _ in range(10):
        dmc = average_states(random_channel(rng))
        cap = blahut_arimoto(dmc).value
        for _ in range(5):
            p = rng.dirichlet(np.ones(dmc.nx))
            assert cap >= mutual_information(p, dmc.W) - 1e-9


def test_ba_no_convergence_returns_partial():
    # At the cap BA returns the bracket of the point it reached, with a
    # warning, and the bracket still holds the capacity.  A 2x3 matrix has
    # no closed-form start, so BA starts from the uniform law.
    z = Dmc(W=ch_three_outputs().W[0])
    partial = blahut_arimoto(z, max_iter=1)
    converged = blahut_arimoto(z)
    assert partial.iterations == 1
    assert abs(partial.value - mutual_information(np.full(2, 0.5), z.W)) < 1e-15
    assert partial.certified_gap > BA_TOL
    assert partial.value <= converged.value <= partial.value + partial.certified_gap
    assert partial.maximizer == {"P_X": [0.5, 0.5]}
    assert partial.warnings == (
        f"blahut_arimoto gap {partial.certified_gap:.3e} above tol {BA_TOL:.3e} after 1 iterations",
    )
    assert converged.warnings == ()


def test_capped_strategy_capacity_reports_letters():
    # A capped lift keeps the strategy maximizer and method, not the raw
    # BA fields.  The lift has four distinct letters and three outputs.
    ch = ch_three_outputs()
    r = shannon_strategy_capacity(ch, max_iter=1)
    lifted, letters = shannon_strategy_channel(ch)
    assert r.method == "strategy_blahut_arimoto"
    assert r.maximizer == {"P_U": [0.25] * 4, "strategies": [list(u) for u in letters]}
    inner = blahut_arimoto(lifted, max_iter=1)
    assert (r.value, r.certified_gap, r.warnings) == (inner.value, inner.certified_gap, inner.warnings)
    assert len(r.warnings) == 1 and r.certified_gap > BA_TOL


def test_capped_per_state_capacity_sums_brackets():
    # State 1's inputs have disjoint supports, so it converges at the
    # uniform start, and state 0 (2x3, no closed-form start) stops at the
    # cap; the result is the Q-average of both brackets and keeps state 0's
    # warning.
    ch = ch_three_outputs()
    r = capacity_cond_iid(ch, max_iter=1)
    per_state = [blahut_arimoto(Dmc(W=ch.W[s]), max_iter=1) for s in range(ch.ns)]
    assert r.method == "per_state_blahut_arimoto"
    assert r.value == sum(q * sub.value for q, sub in zip(ch.Q, per_state))
    assert r.certified_gap == sum(q * sub.certified_gap for q, sub in zip(ch.Q, per_state))
    assert r.maximizer == {"P_X_given_S": [sub.maximizer["P_X"] for sub in per_state]}
    assert per_state[1].warnings == () and len(per_state[0].warnings) == 1
    assert r.warnings == tuple(f"state 0: {w}" for w in per_state[0].warnings)
    converged = capacity_cond_iid(ch)
    assert r.value <= converged.value <= r.value + r.certified_gap


def _reference_blahut_arimoto(W, max_iter):
    """The same adaptive-step ascent and Newton finish with one relative entropy per input, in a Python loop.

    d[x] = -H(W_x) - sum_y W(y|x) log2 q(y) over the outputs some input
    reaches.  The row reductions (the row entropies, q = rW and the product
    with log2 q) use the same array calls as the kernel: a BLAS matrix-vector
    product and numpy's 2-D row sums round unlike per-input 1-D sums, and the
    accept rule compares lower bounds that differ by a few ulps near
    convergence.  For the same reason the finish orders its face and solves
    its bordered system with the kernel's calls; the inputs with identical
    rows, their summed masses and the candidate are built in loops.  The
    closed-form start inverts its matrix with the kernel's ``np.linalg.inv``.
    """
    W = W[:, (W > 0).any(axis=0)]
    nx, ny = W.shape
    neg_h = np.where(W > 0, W * np.log2(np.where(W > 0, W, 1.0)), 0.0).sum(axis=1)
    # group[x]: the first input whose row equals row x.
    group = [next(z for z in range(x + 1) if np.array_equal(W[z], W[x])) for x in range(nx)]

    def bounds(r):
        q = np.dot(r, W)
        cross = np.dot(W, np.log2(q))
        d = np.zeros(nx)
        for x in range(nx):
            d[x] = neg_h[x] - cross[x]
        return float(np.dot(r, d)), float(d.max()), d, q

    def finish(r, d, q):
        # Newton on the face: H = -B B^T / ln 2 with B = W_S / sqrt(q).
        shifted = d - d.max()
        mass = np.zeros(nx)
        for x in range(nx):
            mass[group[x]] += r[x]
        gaining = shifted >= np.dot(r, shifted) / 2
        shed = np.where(gaining, 0.0, 1.0 - OFF_FACE_KEEP)
        face = np.array(
            [g for g in range(mass.size) if mass[g] > FACE_SHARE * mass.max() or (gaining[g] and mass[g] > 0)]
        )
        if face.size > ny:
            face = face[np.argsort(mass[face])[-ny:]]
        while face.size:
            n = face.size
            B = W[face] / np.sqrt(q)
            K = np.ones((n + 1, n + 1))
            K[:n, :n] = np.dot(B, B.T)
            K[n, n] = 0.0
            # The mass shed off the face moves q by -sum_x m_x W_x.
            off = np.array([0.0 if g in face else shed[g] * mass[g] for g in range(nx)])
            rhs = np.empty(n + 1)
            rhs[:n] = shifted[face] * np.log(2.0) + np.dot(B, np.dot(off, W) / np.sqrt(q))
            rhs[n] = off.sum()
            try:
                landed = mass[face] + np.linalg.solve(K, rhs)[:n]
            except np.linalg.LinAlgError:
                return None
            if np.all(landed > 0.0):
                scale = dict(zip(face, landed / mass[face]))
                trial = np.array([r[x] * scale.get(group[x], 1.0 - shed[group[x]]) for x in range(nx)])
                return trial / trial.sum()
            face = face[landed > 0.0]
        return None

    def kkt_start():
        # On the distinct rows: all of them when they are as many as the
        # outputs, the two with the smallest and largest W(y0|x) when there
        # are two outputs.  Solve W z = H(W_x) on them, set q ∝ 2^(-z) and
        # r = q W^-1; identical rows share their row's mass evenly.
        rows = [x for x in range(nx) if group[x] == x]
        if len(rows) != ny:
            if ny != 2:
                return None
            rows = [min(rows, key=lambda x: W[x, 0]), max(rows, key=lambda x: W[x, 0])]
        try:
            inverse = np.linalg.inv(W[rows])
        except np.linalg.LinAlgError:
            return None
        z = np.dot(inverse, [-neg_h[x] for x in rows])
        weights = [2.0 ** (min(z) - z[y]) for y in range(ny)]
        law = np.dot([w / sum(weights) for w in weights], inverse)
        if not all(m > 0.0 for m in law):
            return None
        copies = [group.count(g) for g in range(nx)]
        start = np.zeros(nx)
        for x in range(nx):
            if group[x] in rows:
                start[x] = law[rows.index(group[x])] / sum(law) / copies[group[x]]
        return start

    r = kkt_start()
    if r is None:
        r = np.full(nx, 1.0 / nx)
    lower, upper, d, q = bounds(r)
    iterations, mu, newton, misses, skip = 1, 1.0, False, 0, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while upper - lower >= BA_TOL and iterations < max_iter:
            if not newton:
                scaled = r * np.exp2(mu * (d - d.max()))
                trial = scaled / scaled.sum()
                t_lower, t_upper, t_d, t_q = bounds(trial)
                iterations += 1
                if mu == 1.0 or (t_lower >= lower and t_upper - t_lower <= upper - lower):
                    r, lower, upper, d, q = trial, t_lower, t_upper, t_d, t_q
                    mu *= 2.0
                    continue
                mu = 1.0
                if upper - lower >= FINISH_GAP or iterations >= max_iter:
                    continue
                if skip:
                    skip -= 1
                    continue
            trial = finish(r, d, q)
            newton = False
            if trial is None:
                continue
            t_lower, t_upper, t_d, t_q = bounds(trial)
            iterations += 1
            if not t_lower > lower and t_upper < np.inf and iterations < max_iter:
                # A candidate whose lower bound does not rise is judged after
                # one plain step.
                scaled = trial * np.exp2(t_d - t_d.max())
                trial = scaled / scaled.sum()
                t_lower, t_upper, t_d, t_q = bounds(trial)
                iterations += 1
            if t_lower > lower and t_upper < np.inf:
                newton = t_upper - t_lower < (upper - lower) / 2
                r, lower, upper, d, q = trial, t_lower, t_upper, t_d, t_q
                misses = 0
            else:
                misses += 1
                skip = 2**misses - 1
    value = max(lower, 0.0)
    return value, max(upper - value, 0.0), iterations


def _fixed_step_blahut_arimoto(W, max_iter=100_000):
    """Blahut-Arimoto with the classic fixed step: the bracket [value, value + gap]."""
    support = W > 0
    with np.errstate(divide="ignore"):
        log2_W = np.log2(W)
    r = np.full(W.shape[0], 1.0 / W.shape[0])
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(support, W * (log2_W - np.log2(r @ W)), 0.0).sum(axis=1)
        lower = float(r @ d)
        gap = float(d.max()) - lower
        if gap < BA_TOL:
            break
        scaled = r * np.exp2(d - d.max())
        r = scaled / scaled.sum()
    return max(lower, 0.0), gap


def _ba_matrices(ch):
    """The averaged, joint-output, strategy-lift and per-state matrices of ``ch``."""
    dmcs = [average_states(ch), joint_output_channel(ch), shannon_strategy_channel(ch)[0]]
    return dmcs + [Dmc(W=ch.W[s]) for s in range(ch.ns)]


def test_ba_matches_per_input_loop(rng):
    # Random channels with structural zeros.  The iteration cap keeps the
    # loop reference quick; a capped run is compared through the bracket it
    # returns.
    max_iter = 300
    for _ in range(50):
        for dmc in _ba_matrices(random_channel(rng)):
            r = blahut_arimoto(dmc, max_iter=max_iter)
            value, gap, iterations = _reference_blahut_arimoto(dmc.W, max_iter)
            assert r.iterations == iterations
            assert abs(r.value - value) <= 1e-15
            assert abs(r.certified_gap - gap) <= 1e-15


@pytest.mark.parametrize(
    "seed, kwargs, draw, capped",
    [
        # (seed, random_channel options, draw, the bracket of a run stopped at the cap)
        (7373, {"zero_prob": 0.1}, 8, (0.3469634158220042, 6.139941407523608e-07)),
        (2718, {"max_size": 4}, 1, (0.7769994229109598, 9.089307468901353e-07)),
        (2222, {"max_size": 4}, 82, (0.581249914380707, 2.7690395876245333e-07)),
    ],
)
def test_ba_finish_converges_on_near_paired_lifts(seed, kwargs, draw, capped):
    # Strategy lifts whose rows come in near-equal pairs.  A Newton finish
    # that leaves out how the mass shed off its face moves q only about
    # halves the bracket, so the finishes do not chain, and these runs once
    # stopped at the 100,000 cap with the brackets above.
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        ch = random_channel(rng, **kwargs)
    r = blahut_arimoto(shannon_strategy_channel(ch)[0], max_iter=20_000)
    assert r.warnings == ()
    assert r.certified_gap < BA_TOL
    value, gap = capped
    assert value <= r.value + r.certified_gap and r.value <= value + gap


def test_ba_drops_unreached_outputs_exactly(rng):
    # An output no input reaches adds nothing to any relative entropy, so BA
    # with an all-zero column runs exactly as BA without it, and warns of
    # no log2(0) on the way.
    pairs = []
    for _ in range(20):
        dmc = average_states(random_channel(rng))
        W = np.insert(dmc.W, rng.integers(dmc.ny + 1, size=2), 0.0, axis=1)
        pairs.append((Dmc(W=W), dmc))
    # In state 0 of this channel no input reaches output 2, so the
    # joint-output channel has an all-zero column for (y2, s0).
    ch = SdDmc(
        W=[[[0.6, 0.4, 0.0], [0.0, 1.0, 0.0]], [[0.2, 0.3, 0.5], [0.0, 0.1, 0.9]]],
        Q=[0.4, 0.6],
    )
    joint = joint_output_channel(ch)
    reached = joint.W.any(axis=0)
    assert not reached.all()
    pairs.append((joint, Dmc(W=joint.W[:, reached])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for padded, plain in pairs:
            a, b = blahut_arimoto(padded), blahut_arimoto(plain)
            assert (a.value, a.certified_gap, a.iterations) == (b.value, b.certified_gap, b.iterations)
            assert a.maximizer == b.maximizer


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    rows=st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any), min_size=1, max_size=4),
    k=st.integers(2, 3),
    order=st.randoms(use_true_random=False),
    negative_zeros=st.booleans(),
)
def test_ba_on_repeated_rows_runs_on_the_merged_matrix(rows, k, order, negative_zeros):
    # Each row of D comes back k - 1 more times, in any order after D, and
    # the copies may write their zeros as -0.0: the merged inputs then start
    # at D's uniform law, so BA runs as on D, and P_X splits each mass evenly.
    D = np.array(rows, dtype=float)
    D /= D.sum(axis=1, keepdims=True)
    tail = [x for x in range(len(D)) for _ in range(k - 1)]
    order.shuffle(tail)
    copies = D[tail]
    if negative_zeros:
        copies[copies == 0.0] = -0.0
    merged, repeated = blahut_arimoto(Dmc(W=D)), blahut_arimoto(Dmc(W=np.vstack([D, copies])))
    assert (repeated.value, repeated.certified_gap, repeated.iterations) == (
        merged.value, merged.certified_gap, merged.iterations
    )
    p = np.array(repeated.maximizer["P_X"])
    assert p[len(D):].tolist() == p[tail].tolist()
    np.testing.assert_allclose(k * p[: len(D)], merged.maximizer["P_X"], rtol=1e-12)


@pytest.mark.parametrize("si", ["c,c", "-,-"])
def test_a_negative_zero_document_has_the_zero_documents_capacity(tmp_path, capsys, si):
    # Rows 0 and 1 are equal by value; -0.0 is a structural zero like 0.0.
    results = []
    for zero in (-0.0, 0.0):
        path = tmp_path / f"{zero}.json"
        path.write_text(json.dumps({"Q": [1.0], "W": [[[0.0, 0.3, 0.7], [zero, 0.3, 0.7], [0.6, 0.2, 0.2]]]}))
        assert main(["capacity", str(path), "--si", si, "--quantity", "vanishing"]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1]


def test_every_ba_route_calls_the_module_global(monkeypatch):
    # The benchmark tracer counts BA runs by wrapping
    # sdchan.capacity.blahut_arimoto, so each route must look it up there.
    calls = []
    original = sdchan.capacity.blahut_arimoto

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sdchan.capacity, "blahut_arimoto", counting)
    ch = stuck_at()
    expected = {"-,-": 1, "sc,-": 1, "c,-": 1, "sc,c": 1, "-,c": 1, "c,c": ch.ns, "nc,c": ch.ns, "nc,nc": ch.ns}
    for token, count in expected.items():
        calls.clear()
        vanishing_capacity(ch, SiModel.from_token(token))
        assert len(calls) == count, token


def test_each_si_row_method_and_maximizer_on_ex1():
    # One row of capacity._VALUES per token; the shared rows give one result.
    rows = {
        "-,-": ("blahut_arimoto", {"P_X"}),
        "sc,-": ("blahut_arimoto", {"P_X"}),
        "c,-": ("strategy_blahut_arimoto", {"P_U", "strategies"}),
        "nc,-": ("gp_ascent", {"P_U_given_S", "f"}),
        "sc,c": ("joint_output_blahut_arimoto", {"P_X"}),
        "c,c": ("per_state_blahut_arimoto", {"P_X_given_S"}),
        "nc,c": ("per_state_blahut_arimoto", {"P_X_given_S"}),
        "nc,nc": ("per_state_blahut_arimoto", {"P_X_given_S"}),
        "-,c": ("joint_output_blahut_arimoto", {"P_X"}),
    }
    ch = ch_ex1()
    results = {token: vanishing_capacity(ch, SiModel.from_token(token)) for token in rows}
    for token, (method, keys) in rows.items():
        assert (results[token].method, set(results[token].maximizer)) == (method, keys), token
    for token, shares in (("sc,-", "-,-"), ("-,c", "sc,c"), ("nc,c", "c,c"), ("nc,nc", "c,c")):
        assert results[token] == results[shares], token


def test_ba_gap_never_negative_at_an_exact_optimum():
    # The uniform input is optimal on the noisy typewriter, and there
    # max_x D(W_x || rW) rounds an ulp below I(r).
    W = np.zeros((1, 5, 5))
    for x in range(5):
        W[0, x, x] = 0.9
        W[0, x, (x + 1) % 5] = 0.1
    typewriter = SdDmc(W=W, Q=[1.0])
    for token in ("-,-", "c,-", "sc,c", "c,c"):
        r = vanishing_capacity(typewriter, SiModel.from_token(token))
        assert r.iterations == 1
        assert r.certified_gap >= 0.0, token


def test_ba_bracket_overlaps_fixed_step_bracket(rng):
    # Both brackets certify the same capacity, so they must meet; the slack
    # covers rounding in the two bound evaluations.
    for _ in range(50):
        for dmc in _ba_matrices(random_channel(rng)):
            r = blahut_arimoto(dmc)
            value, gap = _fixed_step_blahut_arimoto(dmc.W)
            assert r.value <= value + gap + 1e-12
            assert value <= r.value + r.certified_gap + 1e-12


def _typewriter(n, p):
    """The n-letter noisy typewriter: x goes to x with 1 - p and to x + 1 mod n with p."""
    W = np.zeros((n, n))
    for x in range(n):
        W[x, x] = 1.0 - p
        W[x, (x + 1) % n] = p
    return Dmc(W=W)


@pytest.mark.parametrize(
    "dmc, capacity",
    [
        (bsc(0.11), 1 - h2(0.11)),
        (bsc(0.3), 1 - h2(0.3)),
        (Dmc(W=[[1.0, 0.0], [0.25, 0.75]]), np.log2(1 + 0.75 * 0.25 ** (0.25 / 0.75))),
        (Dmc(W=[[1.0, 0.0], [0.6, 0.4]]), np.log2(1 + 0.4 * 0.6 ** (0.6 / 0.4))),
        (_typewriter(5, 0.1), np.log2(5) - h2(0.1)),
    ],
    ids=["bsc-0.11", "bsc-0.3", "z-0.25", "z-0.6", "typewriter-5"],
)
def test_ba_starts_at_the_closed_form_optimum_of_a_square_channel(dmc, capacity):
    # The BSC, the Z channel (input 1 flips to 0 with probability p, so
    # C = log2(1 + (1 - p) p^(p / (1 - p)))) and the typewriter are square:
    # BA starts at the law that solves the KKT conditions, and its first
    # evaluation closes the bracket.
    r = blahut_arimoto(dmc)
    assert r.iterations == 1
    assert abs(r.value - capacity) <= 1e-12
    assert r.certified_gap < BA_TOL


@pytest.mark.parametrize(
    "ch",
    [
        ch_ex1(),
        ch_ex3(),
        SdDmc(W=[[[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]], [[0.3, 0.7], [1.0, 0.0], [0.6, 0.4]]], Q=[0.3, 0.7]),
    ],
    ids=["ex1", "ex3", "three-inputs"],
)
def test_two_output_lift_starts_on_its_extreme_letters(ch):
    # With two outputs, I(r) = h(q(y0)) - sum_u r_u h(W(y0|u)) and h is
    # concave, so the letters with the smallest and largest W(y0|u) carry
    # an optimum: BA puts all of P_U on them and stops at its first
    # evaluation, with a bracket that meets the fixed step's.
    lifted, _ = shannon_strategy_channel(ch)
    r = shannon_strategy_capacity(ch)
    p = np.array(r.maximizer["P_U"])
    w = lifted.W[:, 0]
    extreme = (w == w.min()) | (w == w.max())
    assert not extreme.all()
    assert np.all(p[~extreme] == 0.0) and np.all(p[extreme] > 0.0)
    assert r.iterations == 1 and r.certified_gap < BA_TOL
    value, gap = _fixed_step_blahut_arimoto(lifted.W)
    assert r.value <= value + gap + 1e-12
    assert value <= r.value + r.certified_gap + 1e-12


@pytest.mark.parametrize(
    "W, pinned",
    [
        # The KKT law has a negative entry: input 2 is off the optimum.
        ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2]], (0.4470674987019185, 1.4206968934615816e-12, 8)),
        # Row 2 is the mean of rows 0 and 1: the system is singular.
        ([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.25, 0.5, 0.25]], (0.49999999991768196, 8.231804127234454e-11, 7)),
        # Rows 0 and 1 are 1e-12 apart: the KKT law puts -5e10 and +5e10
        # on them.  The plain step that follows a finish whose lower bound
        # does not rise took it from 21 to 23 evaluations, at the same
        # value and gap.
        (
            [[0.6, 0.3, 0.1], [0.6 + 1e-12, 0.3 - 1e-12, 0.1], [0.1, 0.2, 0.7]],
            (0.33288667259986743, 9.221203245424192e-10, 23),
        ),
        # Row 0 differs from row 1 by a subnormal: the inverse holds +-inf,
        # and the KKT law comes out NaN.
        ([[1e-320, 1.0], [0.0, 1.0]], (5e-321, 5e-321, 1)),
    ],
    ids=["negative-entry", "singular", "rows-1e-12-apart", "inverse-overflows"],
)
def test_ba_square_channel_without_a_positive_kkt_law_starts_uniform(W, pinned):
    # No closed-form start: BA starts from the uniform law, and its value,
    # gap and iteration count are those of the uniform start.  The failed
    # starts warn of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = blahut_arimoto(Dmc(W=W))
    assert (r.value, r.certified_gap, r.iterations) == pinned


def test_ba_adaptive_step_on_near_useless_matrix():
    # A 2x2 matrix with nearly equal rows: the fixed step needs 25,854
    # iterations to close the gap below BA_TOL.
    r = blahut_arimoto(Dmc(W=[[0.7395, 0.2605], [0.7249, 0.2751]]))
    assert r.iterations <= 1_000
    assert r.certified_gap < BA_TOL


def _lift_of_draw(seed, draw, **kwargs):
    """The strategy lift of the ``draw``-th ``random_channel`` (from 0) of ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        ch = random_channel(rng, **kwargs)
    return shannon_strategy_channel(ch)[0]


def _draw_15_lift():
    """Criterion 9's draw 15 (seed 909), lifted to strategy letters.

    Its optimum puts 0.23 and 0.22 of the mass on two nearly equal rows,
    which leaves a nearly flat direction: the ascent without the Newton
    finish took 84,933 evaluations.
    """
    return _lift_of_draw(909, 15)


def test_values_never_decrease_with_max_iter(rng):
    # The ascent accepts no extrapolation or finish that lowers the lower
    # bound, and the value reported at a cap is the one of the point reached
    # there.  The plain step ascends in exact arithmetic; near convergence
    # its lower bounds move by less than rounding, so drops of a few ulps
    # (at most 1e-15 for values of a few bits) are allowed.
    for _ in range(4):
        ch = random_channel(rng)
        dmcs = _ba_matrices(ch)
        ba = [[blahut_arimoto(dmc, max_iter=k).value for dmc in dmcs] for k in range(1, 31)]
        gp = [gelfand_pinsker_capacity(ch, max_iter=k).value for k in range(1, 31)]
        assert np.all(np.diff(np.array(ba), axis=0) >= -1e-15)
        assert np.all(np.diff(gp) >= -1e-15)
    # Draw 15's lift takes finishes that widen the bracket on the way.
    lift = _draw_15_lift()
    values = [blahut_arimoto(lift, max_iter=k).value for k in range(1, 201)]
    assert np.all(np.diff(values) >= -1e-15)


def test_ba_finish_clears_the_flat_tail_of_draw_15():
    lift = _draw_15_lift()
    r = blahut_arimoto(lift)
    assert r.iterations <= 1_000
    assert r.certified_gap < BA_TOL and r.warnings == ()
    # The fixed step still has a gap near 1e-6 at 2,000 steps, but its
    # bracket is certified at any step, so the two must meet.
    value, gap = _fixed_step_blahut_arimoto(lift.W, max_iter=2_000)
    assert r.value <= value + gap + 1e-12
    assert value <= r.value + r.certified_gap + 1e-12


def test_ba_finish_keeps_a_gaining_input_on_the_face():
    # The optimum of this lift gives input 11 a mass of 0.017, but on the
    # way that mass falls below the face's threshold while its divergence is
    # the largest.  A finish that cut every input off the face to a quarter
    # of its mass stopped at the 100,000 cap; the ascent without a finish
    # takes 21,337.
    lift = _lift_of_draw(3030, 55, zero_prob=0.6)
    r = blahut_arimoto(lift)
    assert r.iterations <= 1_000
    assert r.certified_gap < BA_TOL and r.warnings == ()
    value, gap = _fixed_step_blahut_arimoto(lift.W, max_iter=2_000)
    assert r.value <= value + gap + 1e-12
    assert value <= r.value + r.certified_gap + 1e-12


def test_ba_evaluation_count_on_criterion_9():
    # A deterministic guard on the finish and the start: the 506 BA problems
    # of criterion 9's draws took 166,460 evaluations without the finish,
    # 14,880 with it, 6,495 once its system also counts how the shed mass
    # moves q, 6,497 by the time square and two-output channels started at
    # their closed-form optimum, 3,782 with that start, and 3,801 once a
    # finish whose lower bound does not rise is judged after a plain step.
    rng = np.random.default_rng(909)
    total = 0
    for _ in range(100):
        for dmc in _ba_matrices(random_channel(rng)):
            total += blahut_arimoto(dmc).iterations
    assert total <= 4_500


def test_cond_iid_ex2_both_flags():
    assert abs(capacity_cond_iid(ch_ex2()).value - 1.0) < 1e-8
    assert abs(vanishing_capacity(ch_ex2(), SiModel.from_token("sc,c")).value - 1.0) < 1e-8


def test_cond_iid_ex3_closed_form():
    expected = 0.5 * (1 - h2(0.11)) + 0.5
    r = capacity_cond_iid(ch_ex3(p=0.11, q=0.5))
    assert abs(r.value - expected) < 1e-6
    assert r.method == "per_state_blahut_arimoto"


def test_cond_iid_triv():
    assert abs(capacity_cond_iid(ch_triv()).value - 1.0) < 1e-8
    assert abs(vanishing_capacity(ch_triv(), SiModel.from_token("sc,c")).value - 1.0) < 1e-8


def test_strategy_capacity_triv():
    assert abs(shannon_strategy_capacity(ch_triv()).value - 1.0) < 1e-8


def test_strategy_capacity_ex2_noiseless():
    # The strategy that pre-flips the input in the flip state makes the
    # channel deterministic, so causal encoder knowledge buys a full bit.
    r = shannon_strategy_capacity(ch_ex2())
    assert abs(r.value - 1.0) < 1e-8
    lifted, letters = shannon_strategy_channel(ch_ex2())
    assert np.array_equal(lifted.W[letters.index((0, 1))], [0.0, 1.0])


def test_strategy_dominates_averaged_ex1():
    strat = shannon_strategy_capacity(ch_ex1()).value
    avg = blahut_arimoto(average_states(ch_ex1())).value
    assert strat >= avg - 1e-9


def test_gp_single_state_reduces_to_ba(rng):
    for _ in range(5):
        ch = random_channel(rng)
        if ch.ns != 1:
            ch = SdDmc(W=ch.W[:1], Q=[1.0])
        gp = gelfand_pinsker_capacity(ch).value
        ba = blahut_arimoto(average_states(ch)).value
        assert abs(gp - ba) < 1e-5


def test_gp_dominated_by_two_sided_si():
    gp = gelfand_pinsker_capacity(ch_ex3(p=0.11, q=0.5)).value
    both = capacity_cond_iid(ch_ex3(p=0.11, q=0.5)).value
    assert gp <= both + 1e-6


def test_gp_floor_on_averaged(rng):
    # The non-causal encoder can use the averaged channel's code or any
    # strategy-lift code, so its certified upper end covers both capacities.
    for _ in range(5):
        ch = random_channel(rng)
        gp = gelfand_pinsker_capacity(ch)
        upper = gp.value + gp.certified_gap
        lift = shannon_strategy_capacity(ch)
        assert upper >= blahut_arimoto(average_states(ch)).value - 1e-12
        assert upper >= lift.value - 1e-12


def test_gp_makes_no_blahut_arimoto_call(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("gelfand_pinsker_capacity called blahut_arimoto")

    monkeypatch.setattr(sdchan.capacity, "blahut_arimoto", refuse)
    for _ in range(3):
        r = gelfand_pinsker_capacity(random_channel(rng))
        assert r.method == "gp_ascent"
    assert vanishing_capacity(ch_ex1(), SiModel.from_token("nc,-")).method == "gp_ascent"


def _gp_objective_by_entropies(ch, P_u_given_s, f):
    """I(U;Y) - I(U;S) in bits, from the joint law of (S, U, Y) built entry by entry."""
    joint = np.zeros((ch.ns, len(f), ch.ny))
    for s in range(ch.ns):
        for u, letter in enumerate(f):
            joint[s, u] = ch.Q[s] * P_u_given_s[s][u] * ch.W[s, letter[s]]

    def H(*summed_axes):
        p = joint.sum(axis=summed_axes).ravel()
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    # I(U;Y) - I(U;S) = [H(U) + H(Y) - H(U,Y)] - [H(U) + H(S) - H(S,U)]
    return H(0, 1) - H(0) - H(1, 2) + H(2)


def _gp_upper_by_gradient(ch, P_u_given_s, f):
    """The Frank-Wolfe bound sum_s Q(s) max_u g(u, s) in bits, built entry by entry.

    g(u, s) = sum_y W(y|f_u(s), s) log2 q(u|y) - log2 P(u|s), with q(u|y)
    the posterior of U given Y, is the gradient of I(U;Y) - I(U;S) in
    P(u|s), up to the factor Q(s) and a per-state constant; by concavity
    the optimum is at most the bound at any P(u|s) with no zero entry.
    """
    p_uy = np.zeros((len(f), ch.ny))
    for s in range(ch.ns):
        for u, letter in enumerate(f):
            p_uy[u] += ch.Q[s] * P_u_given_s[s][u] * ch.W[s, letter[s]]
    p_y = p_uy.sum(axis=0)
    bound = 0.0
    for s in range(ch.ns):
        g = []
        for u, letter in enumerate(f):
            row = ch.W[s, letter[s]]
            a = sum(row[y] * np.log2(p_uy[u, y] / p_y[y]) for y in range(ch.ny) if row[y] > 0)
            g.append(a - np.log2(P_u_given_s[s][u]))
        bound += ch.Q[s] * max(g)
    return float(bound)


def _assert_gp_bracket_rebuilt(ch, r):
    """Both ends of a GP bracket, rebuilt from ``P_U_given_S`` and ``f`` alone.

    g is undefined at a P(u|s) of exactly 0.0, so none may be reported.
    """
    P, f = r.maximizer["P_U_given_S"], r.maximizer["f"]
    assert min(min(row) for row in P) > 0.0
    assert abs(_gp_objective_by_entropies(ch, P, f) - r.value) < 1e-12
    assert abs(_gp_upper_by_gradient(ch, P, f) - (r.value + r.certified_gap)) < 1e-12


def test_gp_value_rebuilt_from_maximizer(rng):
    for _ in range(12):
        ch = random_channel(rng)
        r = gelfand_pinsker_capacity(ch)
        assert r.certified_gap >= 0.0
        assert r.method == "gp_ascent"
        rebuilt = _gp_objective_by_entropies(ch, r.maximizer["P_U_given_S"], r.maximizer["f"])
        assert abs(rebuilt - r.value) < 1e-12


def test_gp_maximizer_matches_value_at_iteration_cap(rng):
    # At max_iter the reported P(u|s) is the point whose bracket is reported.
    for _ in range(6):
        ch = random_channel(rng)
        r = gelfand_pinsker_capacity(ch, max_iter=3)
        rebuilt = _gp_objective_by_entropies(ch, r.maximizer["P_U_given_S"], r.maximizer["f"])
        assert abs(rebuilt - r.value) < 1e-12


def test_gp_ascent_converges_when_letter_masses_underflow():
    # Criterion 9's draw 70 (seed 909): some P(u|s) fall below 1e-308 after
    # about 400 steps, long before the gap closes.  Kept in the log domain
    # they stay dead; a letter whose posterior were reset would revive and
    # stall the gap.
    rng = np.random.default_rng(909)
    for _ in range(71):
        ch = random_channel(rng)
    r = gelfand_pinsker_capacity(ch)
    assert r.certified_gap < GP_TOL
    assert r.warnings == ()


def _criterion_9_draws(*draws):
    """The ``random_channel`` draws of criterion 9 (seed 909) at the given indices, from 0."""
    rng = np.random.default_rng(909)
    channels = [random_channel(rng) for _ in range(max(draws) + 1)]
    return [channels[i] for i in draws]


def test_gp_finish_sheds_emptying_letters():
    # On these draws the plain step spent most of its evaluations emptying
    # letters that hold no mass at the optimum: 22,038 + 1,500 + 4,027 +
    # 5,456 evaluations without the finish, 570 with it, and 609 (295 + 57
    # + 212 + 45) once a finish whose lower bound does not rise is judged
    # after a plain step and the finish also sheds per state.
    total = 0
    for ch in _criterion_9_draws(11, 19, 49, 53):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = gelfand_pinsker_capacity(ch)
        assert r.certified_gap < GP_TOL and r.warnings == ()
        total += r.iterations
    assert total <= 2_000


def test_gp_finish_keeps_value_and_maximizer_consistent():
    # At every cap the reported P(u|s) rebuilds both ends of the reported
    # bracket, and a higher cap never reports a lower value, through the
    # finishes that draw 11 takes on its way to converging in under 300
    # evaluations.
    (ch,) = _criterion_9_draws(11)
    values = []
    for k in range(1, 301):
        r = gelfand_pinsker_capacity(ch, max_iter=k)
        _assert_gp_bracket_rebuilt(ch, r)
        values.append(r.value)
    assert r.warnings == ()
    assert np.all(np.diff(values) >= 0.0)


def test_gp_evaluation_count_on_the_capacity_gp_pass(bench):
    # A deterministic guard on the GP start and finish, on the 12 channels
    # of one pass of the benchmark's capacity-gp workload: 741 evaluations
    # with the uniform start and the whole-letter shedding, 468 once
    # one-state channels start at their closed form, a finish whose lower
    # bound does not rise is judged after a plain step, and the finish
    # also sheds per state.  Both ends of every bracket are rebuilt.
    _, _, workloads = bench
    total = 0
    for _, W, Q in workloads.capacity_gp_population():
        ch = SdDmc(W=W, Q=Q)
        r = gelfand_pinsker_capacity(ch)
        assert r.certified_gap < GP_TOL and r.warnings == ()
        _assert_gp_bracket_rebuilt(ch, r)
        total += r.iterations
    assert total <= 500


@pytest.mark.parametrize(
    "dmc",
    [bsc(0.11), Dmc(W=[[1.0, 0.0], [0.25, 0.75]]), _typewriter(5, 0.1)],
    ids=["bsc-0.11", "z-0.25", "typewriter-5"],
)
def test_gp_on_one_state_starts_at_the_closed_form(dmc):
    # With one state, I(U;S) = 0 and GP is Blahut-Arimoto on the letters, so
    # it starts at the same closed-form law, mixed with GP_TOL / 10 of the
    # uniform law.  The Z channel took 20 evaluations from the uniform
    # start.  The start warns of nothing.
    ch = SdDmc(W=[dmc.W], Q=[1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = gelfand_pinsker_capacity(ch)
    assert r.iterations <= 2
    assert r.certified_gap < GP_TOL and r.warnings == ()
    _assert_gp_bracket_rebuilt(ch, r)
    ba = blahut_arimoto(dmc)
    assert r.value <= ba.value + ba.certified_gap + 1e-12
    assert ba.value <= r.value + r.certified_gap + 1e-12


def test_gp_rejects_a_letter_with_no_output():
    # Library-built channels may have empty rows.  In both, some strategy
    # letter reaches no output in any state of positive probability, so it
    # is no input, and GP refuses the channel as the lift does.
    for ch, letter in (
        (SdDmc(W=[[[0.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.0, 0.0]]], Q=[0.5, 0.5]), "[0, 1]"),
        (SdDmc(W=[[[0.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]], Q=[1.0, 0.0]), "[0]"),
    ):
        with pytest.raises(ValidationError, match="row_stochastic: strategy letter " + re.escape(letter)):
            gelfand_pinsker_capacity(ch)


def test_gp_drops_zero_probability_states():
    # State 1 never occurs, and output 2 is reachable only there, so its
    # ln p(u, y) column would be -inf for every letter.  The value is that of
    # W[:1], the identity on outputs 0 and 1.
    ch = SdDmc(W=[[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 0, 1]]], Q=[1, 0])
    r = gelfand_pinsker_capacity(ch)
    assert abs(r.value - 1.0) < GP_TOL
    assert np.isfinite(r.certified_gap) and r.certified_gap < GP_TOL
    assert r.warnings == ()
    assert r.maximizer["f"] == [[0], [1]] and len(r.maximizer["P_U_given_S"]) == 1


def test_gp_on_a_negative_zero_equals_gp_on_zero():
    W = [[[0.0, 0.3, 0.7], [0.0, 0.3, 0.7], [0.6, 0.2, 0.2]], [[0.5, 0.5, 0.0], [0.1, 0.0, 0.9], [0.0, 0.0, 1.0]]]
    negative = np.array(W)
    negative[negative == 0.0] = -0.0
    a = gelfand_pinsker_capacity(SdDmc(W=negative, Q=[0.3, 0.7]))
    b = gelfand_pinsker_capacity(SdDmc(W=W, Q=[0.3, 0.7]))
    assert a == b


def _reference_gp_ascent(ch, max_iter):
    """The same adaptive-step GP ascent, start and finish with max-shifted log-sum-exps and einsums.

    The finish scales every letter whose plain step, g(u, s) - ln Z_s, is
    negative in every state by OFF_FACE_KEEP; with no such letter, it scales
    each (u, s) whose plain step is negative by OFF_FACE_KEEP.  A candidate
    whose lower bound does not rise is judged after one plain step.  On one
    state, the ascent starts at the law that solves the KKT conditions of
    the square or two-output matrix, mixed with GP_TOL / 10 of the uniform
    law.  Returns (value, gap, capped) as ``gelfand_pinsker_capacity``
    reports them.
    """
    _, letters = shannon_strategy_channel(ch)
    T = ch.W[np.arange(ch.ns), np.array(letters)]
    _, first = np.unique(T.reshape(len(letters), -1), axis=0, return_index=True)
    T = T[np.sort(first)]
    with np.errstate(divide="ignore"):
        log_T = np.log(T)
        log_Q = np.log(ch.Q)
    support = (T > 0).any(axis=1)

    def logsumexp(x, axis):
        m = x.max(axis=axis, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(divide="ignore"):
            return np.log(np.exp(x - m).sum(axis=axis)) + np.squeeze(m, axis=axis)

    def bounds(log_P):
        log_p_uy = logsumexp(log_T + (log_P + log_Q)[:, :, None], axis=1)
        with np.errstate(invalid="ignore"):
            log_q = np.where(support, log_p_uy - logsumexp(log_p_uy, axis=0), 0.0)
        a = np.einsum("usy,uy->us", T, log_q)
        g = a - log_P
        lower = float(np.einsum("us,us,s->", np.exp(log_P), g, ch.Q) / np.log(2))
        return lower, float(ch.Q @ g.max(axis=0) / np.log(2)), a, g

    def finish(log_P, a, g):
        log_Z = logsumexp(a, axis=0)
        emptying = [u for u in range(len(T)) if np.all(g[u] < log_Z)]
        x = log_P.copy()
        if emptying:
            x[emptying] += np.log(OFF_FACE_KEEP)
        elif np.any(g < log_Z):
            x[g < log_Z] += np.log(OFF_FACE_KEEP)
        else:
            return None
        return x - logsumexp(x, axis=0)

    def kkt_start():
        # D(W_u || q) = C on the letters that carry the optimum: every
        # letter of a square W, the two with the smallest and largest W(y0|u)
        # on two outputs.  Solve W z = H(W_u) there, q ∝ e^(-z), r = q W^-1.
        W = T[:, 0][:, (T[:, 0] > 0).any(axis=0)]
        n, ny = W.shape
        rows = list(range(n))
        if n != ny:
            if ny != 2:
                return None
            rows = [min(rows, key=lambda u: W[u, 0]), max(rows, key=lambda u: W[u, 0])]
        try:
            inverse = np.linalg.inv(W[rows])
        except np.linalg.LinAlgError:
            return None
        entropies = [-sum(w * np.log2(w) for w in W[u] if w > 0) for u in rows]
        z = np.dot(inverse, entropies)
        weights = [2.0 ** (min(z) - z[y]) for y in range(ny)]
        law = np.dot(weights, inverse)
        if not all(m > 0.0 for m in law):
            return None
        mix = GP_TOL / 10
        start = np.full(n, mix / n)
        for u, m in zip(rows, law):
            start[u] += (1.0 - mix) * m / law.sum()
        return np.log(start)[:, None]

    log_P = kkt_start() if ch.ns == 1 else None
    if log_P is None:
        log_P = np.full((len(T), ch.ns), -np.log(len(T)))
    lower, upper, a, g = bounds(log_P)
    iterations, mu, again, misses, skip = 1, 1.0, False, 0, 0
    while upper - lower >= GP_TOL and iterations < max_iter:
        if not again:
            x = a + (mu - 1.0) * g
            trial = x - logsumexp(x, axis=0)
            t_lower, t_upper, t_a, t_g = bounds(trial)
            iterations += 1
            if mu == 1.0 or (t_lower >= lower and t_upper - t_lower <= upper - lower):
                log_P, lower, upper, a, g = trial, t_lower, t_upper, t_a, t_g
                mu *= 2.0
                continue
            mu = 1.0
            if upper - lower >= FINISH_GAP or iterations >= max_iter:
                continue
            if skip:
                skip -= 1
                continue
        trial = finish(log_P, a, g)
        again = False
        if trial is None:
            continue
        t_lower, t_upper, t_a, t_g = bounds(trial)
        iterations += 1
        if not t_lower > lower and t_upper < np.inf and iterations < max_iter:
            trial = t_a - logsumexp(t_a, axis=0)
            t_lower, t_upper, t_a, t_g = bounds(trial)
            iterations += 1
        if t_lower > lower and t_upper < np.inf:
            again = t_upper - t_lower < (upper - lower) / 2
            log_P, lower, upper, a, g = trial, t_lower, t_upper, t_a, t_g
            misses = 0
        else:
            misses += 1
            skip = 2**misses - 1
    value = max(lower, 0.0)
    return value, max(upper - value, 0.0), upper - lower >= GP_TOL


def test_gp_ascent_matches_log_sum_exp_reference():
    # Seeded random channels, criterion 9's draw 70 (letter masses underflow)
    # and a channel with an output no input reaches.  The cap keeps the
    # reference quick; a few draws stop at it.
    rng = np.random.default_rng(15)
    channels = [random_channel(rng) for _ in range(30)]
    rng = np.random.default_rng(909)
    for _ in range(71):
        draw_70 = random_channel(rng)
    W = np.zeros((2, 2, 3))
    W[:, :, :2] = ch_ex1().W
    channels += [draw_70, SdDmc(W=W, Q=ch_ex1().Q)]
    for ch in channels:
        r = gelfand_pinsker_capacity(ch, max_iter=3_000)
        value, gap, capped = _reference_gp_ascent(ch, max_iter=3_000)
        assert r.value <= value + gap + 1e-12
        assert value <= r.value + r.certified_gap + 1e-12
        assert abs(r.value - value) < GP_TOL
        assert bool(r.warnings) == capped


def test_lp_identity():
    r = shannon_zef_fl_capacity(average_states(ch_triv()))
    assert abs(r.value - 1.0) < 1e-9
    assert np.allclose(sorted(r.maximizer["P_X"]), [0.5, 0.5], atol=1e-7)


def test_lp_pentagon():
    # Inputs 0 and 2 are non-confusable, so the guard passes and the
    # minimax program gives the classic log2(5/2).
    r = shannon_zef_fl_capacity(pentagon())
    assert r.verdict.decision == "positive"
    assert abs(r.value - np.log2(2.5)) < 1e-6


def test_lp_guard_on_confusable_triangle():
    # Triangle of pairwise-confusable inputs: the capacity is 0, although the
    # raw program value, log2(1.5), is positive.
    tri = Dmc(W=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    guarded = shannon_zef_fl_capacity(tri)
    assert guarded.value == 0.0
    assert guarded.verdict.decision == "zero"


def test_lp_one_hot():
    r = shannon_zef_fl_capacity(Dmc(W=np.eye(3)))
    assert abs(r.value - np.log2(3)) < 1e-9


def test_vanishing_dispatch_values():
    assert vanishing_capacity(ch_ex2(), SiModel.from_token("-,-")).value < 1e-9
    assert abs(vanishing_capacity(ch_ex2(), SiModel.from_token("sc,c")).value - 1.0) < 1e-8
    for si in SI_ALL:
        assert abs(vanishing_capacity(ch_triv(), si).value - 1.0) < 1e-6


def test_vanishing_decoder_only_equals_strictly_causal_pair():
    a = vanishing_capacity(ch_ex3(p=0.11, q=0.5), SiModel.from_token("-,c"))
    b = vanishing_capacity(ch_ex3(p=0.11, q=0.5), SiModel.from_token("sc,c"))
    assert a.value == b.value  # identical code path
    assert abs(a.value - (0.5 * (1 - h2(0.11)) + 0.5)) < 1e-6


def test_zero_error_ex1_equals_vanishing():
    z = zero_error_capacity(ch_ex1(), SiModel.from_token("-,-"), Regime.VARIABLE_LENGTH)
    v = blahut_arimoto(average_states(ch_ex1()))
    assert z.value == v.value
    assert z.value > 0
    assert z.verdict.decision == "positive"


def test_zero_error_ex1_full_si_bounded_zero():
    z = zero_error_capacity(ch_ex1(), SiModel.from_token("nc,nc"), Regime.BOUNDED_LENGTH)
    assert z.value == 0.0
    assert z.verdict.decision == "zero"


def test_zero_error_triv_everywhere():
    for si in SI_ALL:
        for regime in (Regime.BOUNDED_LENGTH, Regime.VARIABLE_LENGTH):
            assert abs(zero_error_capacity(ch_triv(), si, regime).value - 1.0) < 1e-6


def test_zero_error_unsupported_cases():
    with pytest.raises(UnsupportedModel):
        zero_error_capacity(ch_ex1(), SiModel.from_token("-,-"), Regime.FIXED_LENGTH)
    # -,c under variable length: only a sufficient condition is known, so a
    # positive_sufficient verdict (ch_ex1) and an unknown one (ch_ex3) are
    # both refused.
    decoder_only = SiModel.from_token("-,c")
    for channel, decision in ((ch_ex1(), "positive_sufficient"), (ch_ex3(), "unknown")):
        assert positivity(channel, decoder_only, Regime.VARIABLE_LENGTH).decision == decision
        with pytest.raises(UnsupportedModel, match="decoder-only-causal model cannot be certified"):
            zero_error_capacity(channel, decoder_only, Regime.VARIABLE_LENGTH)
    # Bounded-length decoder-only-causal is supported (it matches sc,c).
    z = zero_error_capacity(ch_ex2(), SiModel.from_token("-,c"), Regime.BOUNDED_LENGTH)
    assert abs(z.value - 1.0) < 1e-8


def test_capacity_sanity_cap(rng):
    for _ in range(10):
        ch = random_channel(rng)
        cap = np.log2(min(ch.nx, ch.ny)) + np.log2(ch.ns)
        for si in SI_ALL:
            assert vanishing_capacity(ch, si).value <= cap + 1e-6


def test_maximizer_on_simplex(rng):
    for _ in range(5):
        dmc = average_states(random_channel(rng))
        p = np.array(blahut_arimoto(dmc).maximizer["P_X"])
        assert abs(p.sum() - 1.0) < 1e-9 and np.all(p >= -1e-12)
