"""The four workloads: each is a stream of CLI calls on channel files it writes.

A workload yields *units*.  A unit is one channel file plus the CLI calls made
on it, in order; the closed loop in ``run.py`` issues them one after another
and closes its window only after a unit that ends a pass over the workload's
mix.  Why each workload exists is written in ``WORKLOADS.md``.

Inputs come only from the seed the workload is given.  ``decide`` and
``simulate`` draw fresh random channels.  The capacity workloads cost from
milliseconds to tens of seconds per channel, so a window of fresh draws would
hold too few channels to average that tail; they cycle over a fixed
population drawn from the same generator.  For ``capacity-ba`` the seed draws
a fresh relabelling of every channel on every pass.  A relabelled channel has
the same capacities, but it is a new document, so no call repeats an earlier
one.  For ``capacity-gp`` the seed sets the order of the calls in each pass.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

import inputs

SI_TOKENS = ("-,-", "sc,-", "c,-", "nc,-", "sc,c", "c,c", "nc,c", "nc,nc", "-,c")
BA_TOKENS = tuple(t for t in SI_TOKENS if t != "nc,-")
REGIMES = ("fl", "bl", "vl")
REDUCE_KINDS = ("average", "shannon-strategy", "joint-output", "extend-termination")

# Base seed of the fixed channel populations of the capacity workloads.
POPULATION_SEED = 171207756
CAPACITY_BA_RANDOM = 16
CAPACITY_GP_CHANNELS = 12
GP_RESTARTS = 2

SIM_TRIALS = {"disprover": 600, "theorem5": 600, "han-sato": 60}
SIM_CALLS = (
    ("disprover", "-,-"),
    ("disprover", "c,-"),
    ("disprover", "sc,c"),
    ("theorem5", None),
    ("han-sato", "-,-"),
)
SIM_POOL = 60
# Per-round success probability floor for simulate channels: it keeps the
# expected rounds per trial between 1 and 4, so calls do comparable work.
SIM_MIN_P = 0.25
HAN_SATO_ARGS = ("--msg-bits", "4", "--n1", "16")


@dataclass
class Call:
    argv: list
    command: str
    params: dict = field(default_factory=dict)


@dataclass
class Unit:
    """One channel document and the calls made on it."""

    W: np.ndarray
    Q: np.ndarray
    calls: list
    named: str = ""
    invalid_kind: str = ""  # set on a document that breaks the file format
    # The measuring window may close only after a unit that ends a pass, so
    # that every window holds whole passes over the workload's mix.
    pass_end: bool = True


def _write(workdir: str, key: str, text: str) -> str:
    path = os.path.join(workdir, key + ".json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def relabel(W, Q, rng):
    """The same channel with its states, inputs and outputs permuted at random."""
    for axis in range(3):
        perm = rng.permutation(W.shape[axis])
        W = np.take(W, perm, axis=axis)
        if axis == 0:
            Q = Q[perm]
    return W, Q


# ---------------------------------------------------------------- capacity-ba


def _capacity_ba_calls(path):
    calls = [
        Call(["capacity", path, "--si", t, "--quantity", "vanishing"], "capacity",
             {"si": t, "quantity": "vanishing", "tol": 1e-9})
        for t in BA_TOKENS
    ]
    for regime in ("vl", "bl"):
        for t in BA_TOKENS:
            if regime == "vl" and t == "-,c":
                continue  # the CLI has no certified value for this pair
            calls.append(
                Call(["capacity", path, "--si", t, "--quantity", "zero-error", "--regime", regime],
                     "capacity", {"si": t, "quantity": "zero-error", "regime": regime, "tol": 1e-9})
            )
    return calls


def capacity_ba_population():
    pop = [(name, *make()) for name, make in inputs.NAMED.items()]
    rng = np.random.default_rng([POPULATION_SEED, 1])
    pop += [("", *inputs.random_channel(rng)) for _ in range(CAPACITY_BA_RANDOM)]
    return pop


def capacity_gp_population():
    rng = np.random.default_rng([POPULATION_SEED, 2])
    return [("", *inputs.random_channel(rng)) for _ in range(CAPACITY_GP_CHANNELS)]


def capacity_ba(seed, workdir):
    population = capacity_ba_population()
    for p in itertools.count():
        rng = np.random.default_rng([seed, p])
        for i, (name, W0, Q0) in enumerate(population):
            W, Q = relabel(W0, Q0, rng)
            path = _write(workdir, f"p{p}c{i}", inputs.document(W, Q))
            yield Unit(W, Q, _capacity_ba_calls(path), named=name, pass_end=i == len(population) - 1)


def _capacity_gp_calls(path):
    return [
        Call(["capacity", path, "--si", "nc,-", "--quantity", "vanishing",
              "--restarts", str(GP_RESTARTS)], "capacity",
             {"si": "nc,-", "quantity": "vanishing", "tol": None})
    ]


def capacity_gp(seed, workdir):
    # The GP search's work depends on the labels: its seeded restarts and
    # sampled functions follow input and state labels, and relabelling the
    # outputs moved the time of some calls by half.  So the channels keep
    # their labels and the seed shuffles the order of each pass.  Every call
    # seeds its own search, so the order does not change any call's work.
    population = capacity_gp_population()
    for p in itertools.count():
        order = np.random.default_rng([seed, p]).permutation(len(population))
        for n, i in enumerate(order):
            _, W, Q = population[i]
            path = _write(workdir, f"p{p}c{i}", inputs.document(W, Q))
            yield Unit(W, Q, _capacity_gp_calls(path), pass_end=n == len(population) - 1)


# --------------------------------------------------------------------- decide


def decide(seed, workdir):
    rng = np.random.default_rng([seed, 0xDEC])
    for i in itertools.count():
        W, Q = inputs.random_channel(rng)
        path = _write(workdir, f"d{i}", inputs.document(W, Q))
        calls = [Call(["validate", path], "validate")]
        calls += [
            Call(["check", path, "--si", t, "--regime", r], "check", {"si": t, "regime": r})
            for t in SI_TOKENS
            for r in REGIMES
        ]
        calls += [Call(["reduce", path, "--kind", k], "reduce", {"kind": k}) for k in REDUCE_KINDS]
        yield Unit(W, Q, calls, pass_end=False)

        kind = inputs.INVALID_KINDS[i % len(inputs.INVALID_KINDS)]
        bad_path = _write(workdir, f"d{i}_{kind}", inputs.invalid_document(kind, W, Q))
        yield Unit(
            W, Q,
            [Call(["validate", bad_path], "validate"),
             Call(["check", bad_path, "--si", "-,-", "--regime", "vl"], "check",
                  {"si": "-,-", "regime": "vl"})],
            invalid_kind=kind,
        )


# ------------------------------------------------------------------- simulate


def first_zero(dmc):
    """Lexicographically first structural zero (x, y) of a DMC matrix, or None."""
    hits = np.argwhere(dmc == 0.0)
    return tuple(int(v) for v in hits[0]) if hits.size else None


def averaged(W, Q):
    A = np.einsum("s,sxy->xy", Q, W)
    return A / A.sum(axis=1, keepdims=True)


def strategy(W, Q):
    ns, nx, _ = W.shape
    rows = [Q @ W[np.arange(ns), list(u), :] for u in itertools.product(range(nx), repeat=ns)]
    S = np.array(rows)
    return S / S.sum(axis=1, keepdims=True)


def joint(W, Q):
    ns, nx, ny = W.shape
    J = np.einsum("s,sxy->xys", Q, W).reshape(nx, ny * ns)
    return J / J.sum(axis=1, keepdims=True)


REDUCED = {"-,-": averaged, "c,-": strategy, "sc,c": joint}


def disprover_p(dmc, zero=None):
    """Per-round stopping probability of the disprover bit on ``dmc``.

    A round sends x and x' in the two slots, where y is impossible from x;
    it decides exactly when the x' slot outputs y, so p = dmc[x', y] with x'
    the first input that can produce y.
    """
    zero = first_zero(dmc) if zero is None else zero
    if zero is None:
        return None
    _, y = zero
    x_alt = int(np.argmax(dmc[:, y] != 0.0))
    return float(dmc[x_alt, y])


def state_group(W):
    """First (x, x', y, states) with y impossible from x wherever x' can produce it."""
    ns, nx, ny = W.shape
    for x in range(nx):
        for x2 in range(nx):
            if x2 == x:
                continue
            for y in range(ny):
                group = [s for s in range(ns) if W[s, x2, y] != 0.0]
                if group and all(W[s, x, y] == 0.0 for s in group):
                    return x, x2, y, group
    return None


def theorem5_p(W, Q, witness=None):
    """Per-round stopping probability of the decoder-side-state bit.

    A round decides exactly when the x' slot outputs y in a state of the
    group, which has probability sum over the group of Q[s] W[s][x'][y].
    """
    witness = state_group(W) if witness is None else witness
    if witness is None:
        return None
    _, x2, y, group = witness
    return float(sum(Q[s] * W[s, x2, y] for s in group))


def stopping_p(protocol, si, W, Q):
    if protocol == "theorem5":
        return theorem5_p(W, Q)
    return disprover_p(REDUCED[si](W, Q))


def simulate(seed, workdir):
    rng = np.random.default_rng([seed, 0x5A])
    per_type = []
    for j, (protocol, si) in enumerate(SIM_CALLS):
        pool = [inputs.ex1()]
        while len(pool) < SIM_POOL:
            W, Q = inputs.random_channel(rng)
            p = stopping_p(protocol, si, W, Q)
            if p is not None and p >= SIM_MIN_P:
                pool.append((W, Q))
        per_type.append([(_write(workdir, f"s{j}_{i}", inputs.document(W, Q)), W, Q, protocol, si)
                         for i, (W, Q) in enumerate(pool)])
    # Round-robin over call types; a pass is one call on every pool channel.
    order = [entry for round_ in zip(*per_type) for entry in round_]
    for n, (path, W, Q, protocol, si) in enumerate(itertools.cycle(order)):
        trials = SIM_TRIALS[protocol]
        argv = ["simulate", path, "--protocol", protocol, "--trials", str(trials), "--seed", str(n)]
        if si is not None:
            argv += ["--si", si]
        if protocol == "han-sato":
            argv += list(HAN_SATO_ARGS)
        yield Unit(W, Q, [Call(argv, "simulate", {"protocol": protocol, "si": si, "trials": trials})],
                   pass_end=(n + 1) % len(order) == 0)


WORKLOADS = {
    "capacity-ba": capacity_ba,
    "capacity-gp": capacity_gp,
    "simulate": simulate,
    "decide": decide,
}

# Wall time of one pass over each workload's mix on the 2-vCPU Xeon this
# benchmark was built on.  A run measures a fixed number of passes sized from
# ``--seconds`` with these figures, not a fixed time: the same seed then gives
# the same calls, and the same known failures, at any machine speed.
PASS_SECONDS = {"capacity-ba": 9.5, "capacity-gp": 23.0, "simulate": 14.5, "decide": 0.068}


def passes(workload: str, seconds: float) -> int:
    """Number of passes a run of about ``seconds`` measures; at least one."""
    return max(1, round(seconds / PASS_SECONDS[workload]))
