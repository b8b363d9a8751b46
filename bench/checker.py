"""Correctness checks on every CLI call, made outside the measured time.

``observe`` checks one call as soon as it returns; checks that need several
calls (monotonicity along the state-information order, the pooled stopping
time test) or a brute-force oracle run at the end of a unit or in ``finish``,
after the peak memory of the measured calls has been read.

A call that fails any check counts once in ``failed``.  Failures caused by
defects already listed in ROADMAP item 2 carry a ``known`` tag; any other
failure makes the run incorrect.
"""

from __future__ import annotations

import json
import math

import numpy as np

import inputs
import workloads
from sdchan.channel import SdDmc, SiModel, Dmc
from sdchan.oracles import grid_capacity
from sdchan.positivity import POSITIVE, POSITIVE_SUFFICIENT, UNKNOWN, ZERO, Verdict, verify_witness
from sdchan.positivity import check_dmc_vl, check_nocvlpos
from sdchan.protocols import reduced_dmc

KNOWN = {
    "bl-value": "ROADMAP item 2: bounded-length zero-error value exceeds Shannon's C_0F",
    "nan-accepted": "ROADMAP item 2: a NaN entry passes validation",
    "noconvergence-exit-2": "ROADMAP item 2: NoConvergence is reported as exit 2",
}

EXIT_FOR_DECISION = {POSITIVE: 0, POSITIVE_SUFFICIENT: 0, ZERO: 3, UNKNOWN: 4}
MONOTONE_TOL = 1e-6
ORACLE_TOL = 1e-3
TAU_SIGMAS = 3.0
GRID_RESOLUTION = {2: 1000, 3: 500}


def strict_json(text: str):
    """Parse JSON, rejecting NaN and the infinities that ``json`` accepts by default."""

    def reject(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=reject)


def _invalid_exit(kind: str) -> int:
    return 2 if kind == "malformed_json" else 1


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = {}  # call sequence number -> failure record
        self._unit = None
        self._channel = None
        self._vanishing = {}
        self._grid_jobs = []
        self._tau = []  # (seq, argv, trials, mean_tau, p) of geometric-stopping calls

    # -- recording ------------------------------------------------------------

    def _fail(self, seq, argv, reason, known=None):
        record = self.failed.setdefault(seq, {"argv": list(argv), "reasons": [], "known": known})
        record["reasons"].append(reason)
        if known is None:
            record["known"] = None
        return record

    def crashed(self, seq, call, text):
        self.attempted += 1
        self._fail(seq, call.argv, "traceback: " + text)

    def summary(self) -> dict:
        unknown = [f for f in self.failed.values() if f["known"] is None]
        by_known = {}
        for f in self.failed.values():
            if f["known"] is not None:
                by_known[f["known"]] = by_known.get(f["known"], 0) + 1
        return {
            "attempted": self.attempted,
            "failed": len(self.failed),
            "known_failures": {k: {"count": n, "why": KNOWN[k]} for k, n in sorted(by_known.items())},
            "unexpected_failures": unknown[:20],
            "correct": not unknown,
        }

    # -- per-unit state -------------------------------------------------------

    def channel(self):
        if self._channel is None:
            self._channel = SdDmc(W=self._unit.W, Q=self._unit.Q)
        return self._channel

    def begin_unit(self, unit):
        self.end_unit()
        self._unit = unit
        self._channel = None
        self._vanishing = {}

    def end_unit(self):
        if self._unit is None:
            return
        models = {t: SiModel.from_token(t) for t in self._vanishing}
        for a, (va, _, _) in self._vanishing.items():
            for b, (vb, seq, argv) in self._vanishing.items():
                if a != b and models[a] <= models[b] and va > vb + MONOTONE_TOL:
                    self._fail(seq, argv, f"vanishing value {vb!r} under {b} is below {va!r} under {a}")
        self._unit = None

    # -- one call ---------------------------------------------------------------

    def observe(self, seq, call, code, out):
        self.attempted += 1
        try:
            doc = strict_json(out)
        except ValueError as e:
            self._fail(seq, call.argv, f"output is not strict JSON: {e}")
            return
        if self._unit.invalid_kind:
            handler = self._observe_invalid
        else:
            handler = {
                "validate": self._observe_validate,
                "check": self._observe_check,
                "reduce": self._observe_reduce,
                "capacity": self._observe_capacity,
                "simulate": self._observe_simulate,
            }[call.command]
        try:
            handler(seq, call, code, doc)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
            self._fail(seq, call.argv, f"report does not have the documented shape: {e!r}")

    def _observe_validate(self, seq, call, code, doc):
        if code != 0 or not doc["results"]["passed"]:
            self._fail(seq, call.argv, f"valid channel rejected with exit {code}")

    def _observe_invalid(self, seq, call, code, doc):
        kind = self._unit.invalid_kind
        expected = _invalid_exit(kind)
        if code != expected:
            known = "nan-accepted" if kind == "nan_entry" and code in (0, 3, 4) else None
            self._fail(seq, call.argv, f"{kind} document gave exit {code}, expected {expected}", known)

    def _verify(self, seq, call, verdict_doc):
        verdict = Verdict(
            decision=verdict_doc["decision"],
            condition=verdict_doc["condition"],
            witness=verdict_doc["witness"],
        )
        if not verify_witness(self.channel(), verdict):
            self._fail(seq, call.argv, f"witness for {verdict.condition} does not verify")
        return verdict

    def _observe_check(self, seq, call, code, doc):
        if code not in (0, 3, 4):
            self._fail(seq, call.argv, f"check gave exit {code}")
            return
        verdict = self._verify(seq, call, doc["results"])
        if EXIT_FOR_DECISION.get(verdict.decision) != code:
            self._fail(seq, call.argv, f"decision {verdict.decision} reported with exit {code}")
        if call.params["si"] == "-,c" and call.params["regime"] == "vl" and verdict.decision == ZERO:
            self._fail(seq, call.argv, "decoder-only-causal variable-length verdict claims zero")

    def _observe_reduce(self, seq, call, code, doc):
        if code != 0:
            self._fail(seq, call.argv, f"reduce gave exit {code}")
            return
        W, Q = self._unit.W, self._unit.Q
        kind = call.params["kind"]
        if kind == "average":
            expected = workloads.averaged(W, Q)
        elif kind == "shannon-strategy":
            expected = workloads.strategy(W, Q)
        elif kind == "joint-output":
            expected = workloads.joint(W, Q)
        else:
            A = workloads.averaged(W, Q)
            expected = np.zeros((A.shape[0] + 1, A.shape[1] + 1))
            expected[:-1, :-1] = A
            expected[-1, -1] = 1.0
        got = np.array(doc["results"]["W"], dtype=float)
        if got.shape != expected.shape or not np.allclose(got, expected, rtol=0.0, atol=1e-12):
            self._fail(seq, call.argv, f"{kind} matrix differs from the reference reduction")

    def _observe_capacity(self, seq, call, code, doc):
        if code != 0:
            known = None
            if code == 2 and "blahut_arimoto gap" in doc.get("error", ""):
                known = "noconvergence-exit-2"
            self._fail(seq, call.argv, f"capacity gave exit {code}: {doc.get('error', '')[:120]}", known)
            return
        res = doc["results"]
        value, gap = res["value_bits"], res["gap"]
        params = call.params
        ny = self._unit.W.shape[2]
        if not 0.0 <= value <= math.log2(ny) + 1e-9:
            self._fail(seq, call.argv, f"value {value!r} outside [0, log2 |Y|]")
        if gap is not None and params["tol"] is not None and not gap < params["tol"]:
            self._fail(seq, call.argv, f"gap {gap!r} not below --tol {params['tol']}")
        if "verdict" in res:
            self._verify(seq, call, res["verdict"])
        si = params["si"]
        if params["quantity"] == "vanishing":
            self._vanishing[si] = (value, seq, call.argv)
            if si in ("-,-", "nc,-"):
                self._grid_jobs.append((seq, call.argv, si, value, self._unit))
        elif params["regime"] == "bl" and self._unit.named == "typewriter5":
            n = self._unit.W.shape[1]
            expected = inputs.typewriter_zero_error_feedback(n)
            if abs(value - expected) > 1e-6:
                self._fail(seq, call.argv, f"bounded-length value {value:.6f}, expected log2({n}/2) = {expected:.6f}",
                           "bl-value")
        vanishing = self._vanishing.get(si)
        if params["quantity"] == "zero-error" and vanishing is not None and value > vanishing[0] + MONOTONE_TOL:
            self._fail(seq, call.argv, f"zero-error value {value!r} exceeds vanishing value {vanishing[0]!r}")

    def _observe_simulate(self, seq, call, code, doc):
        if "results" not in doc:
            self._fail(seq, call.argv, f"simulate gave exit {code}: {doc.get('error', '')[:120]}")
            return
        res = doc["results"]
        params = call.params
        if code != 0 or res["errors"] != 0:
            self._fail(seq, call.argv, f"exit {code} with {res['errors']} decoding errors in a zero-error protocol")
        if res["trials"] != params["trials"]:
            self._fail(seq, call.argv, f"ran {res['trials']} trials, asked for {params['trials']}")
        protocol, W, Q = params["protocol"], self._unit.W, self._unit.Q
        if protocol == "han-sato":
            n1 = int(call.argv[call.argv.index("--n1") + 1])
            if not res["mean_tau"] >= n1 + 2:
                self._fail(seq, call.argv, f"mean stopping time {res['mean_tau']} below n1 + 2")
            return
        if protocol == "theorem5":
            w = check_nocvlpos(self.channel())
            p = workloads.theorem5_p(W, Q, (w["x"], w["x_prime"], w["y"], w["states"]))
        else:
            w = check_dmc_vl(reduced_dmc(self.channel(), SiModel.from_token(params["si"]))).witness
            p = workloads.disprover_p(workloads.REDUCED[params["si"]](W, Q), (w["x"], w["y"]))
        self._tau.append((seq, call.argv, res["trials"], res["mean_tau"], p))

    # -- end of run -------------------------------------------------------------

    def finish(self):
        self.end_unit()
        self._check_tau()
        for seq, argv, si, value, unit in self._grid_jobs:
            self._check_grid(seq, argv, si, value, unit)
        return self.summary()

    def _check_tau(self):
        """Pooled test of the sampled mean stopping time against the exact 2/p.

        The stopping time is twice a Geometric(p) count of rounds, so each
        call's mean has expectation 2/p and variance 4(1-p)/(p^2 n).  One
        pooled statistic per run keeps the false-alarm rate at that of a
        single 3-sigma test.
        """
        if not self._tau:
            return
        dev = var = 0.0
        worst = None
        for seq, argv, n, mean, p in self._tau:
            d = n * (mean - 2.0 / p)
            v = n * 4.0 * (1.0 - p) / p**2
            dev += d
            var += v
            z = d / math.sqrt(v) if v > 0 else (math.inf if d else 0.0)
            if worst is None or abs(z) > abs(worst[0]):
                worst = (z, seq, argv)
        z_pooled = dev / math.sqrt(var) if var > 0 else (math.inf if dev else 0.0)
        if abs(z_pooled) > TAU_SIGMAS:
            _, seq, argv = worst
            self._fail(seq, argv, f"pooled mean stopping time is {z_pooled:.2f} sigma from 2/p")

    def _check_grid(self, seq, argv, si, value, unit):
        """Compare against the brute-force lattice value of the averaged channel."""
        W, Q = unit.W, unit.Q
        nx = W.shape[1]
        if unit.named == "typewriter5":
            reference = inputs.typewriter_capacity(nx)
        elif nx in GRID_RESOLUTION:
            reference = grid_capacity(Dmc(W=workloads.averaged(W, Q)), GRID_RESOLUTION[nx])
        else:
            return
        if si == "-,-" and abs(value - reference) > ORACLE_TOL:
            self._fail(seq, argv, f"-,- value {value:.6f} differs from the oracle {reference:.6f}")
        if si == "nc,-" and value < reference - ORACLE_TOL:
            self._fail(seq, argv, f"nc,- value {value:.6f} below the -,- oracle {reference:.6f}")
