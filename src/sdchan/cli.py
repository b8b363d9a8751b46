"""Command-line front end: JSON reports on stdout, exit codes as contracts.

Exit codes (on an error, a JSON ``{"error": ...}`` object replaces the report):
0 success: valid channel, positive verdict, no decoding error, oracle agrees;
1 invalid channel, a simulation decoding error, or an oracle disagreement;
2 bad argument, file IO or parse error, unsupported SI/regime/model, oversize
alphabet, oracle budget exceeded, or optimizer non-convergence;
3 ``check`` verdict zero; 4 ``check`` verdict unknown;
5 ``simulate`` protocol precondition fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from math import comb

import numpy as np

from . import __version__
from .channel import Dmc, Regime, SiModel, load_channel, parse_channel, validate
from .errors import PrecondFailed, SdchanError, ValidationError
from .capacity import (
    blahut_arimoto,
    gelfand_pinsker_capacity,
    vanishing_capacity,
    zero_error_capacity,
)
from .oracles import OracleReport, confusable_all_pairs_fl, gp_grid_oracle, grid_capacity
from .positivity import POSITIVE, POSITIVE_SUFFICIENT, ZERO, bl_positivity, positivity
from .protocols import PROTOCOLS, Trace, monte_carlo
from .reductions import (
    average_states,
    extend_with_termination,
    joint_output_channel,
    shannon_strategy_channel,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_ZERO = 3
EXIT_UNKNOWN = 4
EXIT_PRECOND = 5

# First match wins, so subclasses precede SdchanError.
_EXIT_CODES = (
    (ValidationError, EXIT_INVALID),
    (PrecondFailed, EXIT_PRECOND),
    (SdchanError, EXIT_IO),
    (OSError, EXIT_IO),
)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit(report: dict, verbose: bool, summary: str = "") -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if verbose and summary:
        print(summary, file=sys.stderr)


def _report(command: str, digest: str, parameters: dict, results, started: float) -> dict:
    return {
        "tool_version": __version__,
        "channel_sha256": digest,
        "command": command,
        "parameters": parameters,
        "results": results,
        "wall_clock_s": time.perf_counter() - started,
    }


def _dmc_jsonable(dmc: Dmc) -> dict:
    return {"inputs": list(dmc.x_labels), "outputs": list(dmc.y_labels), "W": dmc.W.tolist()}


def _int_at_least(lo: int):
    """argparse type for integers >= lo; argparse names it in its error message."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise ValueError(text)
        return value
    parse.__name__ = f"integer >= {lo}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdchan",
        description="Zero-error and vanishing-error feedback analysis of channels with state",
    )
    parser.add_argument("--verbose", action="store_true", help="human summary on stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a channel file against the standing assumptions")
    p.add_argument("path")

    p = sub.add_parser("reduce", help="apply a channel transformation")
    p.add_argument("path")
    p.add_argument(
        "--kind",
        required=True,
        choices=["average", "shannon-strategy", "joint-output", "extend-termination"],
    )

    p = sub.add_parser("check", help="zero-error positivity verdict")
    p.add_argument("path")
    p.add_argument("--si", required=True, help="encoder,decoder tokens from {-, sc, c, nc}")
    p.add_argument("--regime", default="vl", choices=["fl", "bl", "vl"])

    p = sub.add_parser("capacity", help="capacity value")
    p.add_argument("path")
    p.add_argument("--si", required=True)
    p.add_argument("--quantity", default="vanishing", choices=["vanishing", "zero-error"])
    p.add_argument("--regime", default="vl", choices=["fl", "bl", "vl"])
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--restarts", type=_int_at_least(0), default=32)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="run a zero-error protocol")
    p.add_argument("path")
    p.add_argument("--protocol", required=True, choices=list(PROTOCOLS))
    p.add_argument("--si", default="-,-")
    p.add_argument("--trials", type=_int_at_least(1), default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--msg-bits", type=_int_at_least(0), default=4)
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--trace-path", default=None, help="write the first trial's trace as JSON lines")

    p = sub.add_parser("oracle", help="brute-force cross checks")
    p.add_argument("path")
    p.add_argument("--which", required=True, choices=["confusable", "grid-capacity", "gp-grid"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--decoder-sees-state", action="store_true")
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--u-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_validate(args, text: str, started: float) -> int:
    report = validate(parse_channel(text))
    out = _report("validate", _digest(text), {"path": args.path}, report.to_jsonable(), started)
    _emit(out, args.verbose, "valid" if report.passed else "invalid: " + report.failures()[0].name)
    return EXIT_OK if report.passed else EXIT_INVALID


def _cmd_reduce(args, text: str, started: float) -> int:
    channel = load_channel(text)
    if args.kind == "average":
        results = _dmc_jsonable(average_states(channel))
    elif args.kind == "shannon-strategy":
        dmc, letters = shannon_strategy_channel(channel)
        results = _dmc_jsonable(dmc)
        results["strategies"] = [list(u) for u in letters]
    elif args.kind == "joint-output":
        results = _dmc_jsonable(joint_output_channel(channel))
    else:
        results = _dmc_jsonable(extend_with_termination(average_states(channel)))
    out = _report("reduce", _digest(text), {"kind": args.kind}, results, started)
    _emit(out, args.verbose, f"{args.kind}: {len(results['inputs'])}x{len(results['outputs'])}")
    return EXIT_OK


def _cmd_check(args, text: str, started: float) -> int:
    channel = load_channel(text)
    si = SiModel.from_token(args.si)
    verdict = positivity(channel, si, Regime.from_token(args.regime))
    out = _report(
        "check", _digest(text), {"si": args.si, "regime": args.regime}, verdict.to_jsonable(), started
    )
    _emit(out, args.verbose, f"{verdict.decision} via {verdict.condition}")
    if verdict.decision in (POSITIVE, POSITIVE_SUFFICIENT):
        return EXIT_OK
    if verdict.decision == ZERO:
        return EXIT_ZERO
    return EXIT_UNKNOWN


def _cmd_capacity(args, text: str, started: float) -> int:
    channel = load_channel(text)
    si = SiModel.from_token(args.si)
    if args.quantity == "vanishing":
        result = vanishing_capacity(
            channel, si, tol=args.tol, max_iter=args.max_iter, restarts=args.restarts, seed=args.seed
        )
    else:
        result = zero_error_capacity(
            channel,
            si,
            Regime.from_token(args.regime),
            tol=args.tol,
            max_iter=args.max_iter,
            restarts=args.restarts,
            seed=args.seed,
        )
    params = {
        "si": args.si,
        "quantity": args.quantity,
        "regime": args.regime,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "restarts": args.restarts,
        "seed": args.seed,
    }
    out = _report("capacity", _digest(text), params, result.to_jsonable(), started)
    _emit(out, args.verbose, f"{result.value:.6f} bits via {result.method}")
    return EXIT_OK


def _cmd_simulate(args, text: str, started: float) -> int:
    channel = load_channel(text)
    si = SiModel.from_token(args.si)
    trial, bits = PROTOCOLS[args.protocol](channel, si, args.msg_bits, args.n1)
    if args.trace_path:
        # The first trial's substream, as monte_carlo draws it.
        trace = Trace()
        trial(np.random.default_rng([args.seed, 0]), trace)
        with open(args.trace_path, "w", encoding="utf-8") as f:
            f.write(trace.to_jsonl() + "\n")
    stats = monte_carlo(trial, args.trials, args.seed, bits_per_message=bits)
    params = {
        "protocol": args.protocol,
        "si": args.si,
        "trials": args.trials,
        "seed": args.seed,
        "msg_bits": args.msg_bits,
        "n1": args.n1,
    }
    out = _report("simulate", _digest(text), params, stats.to_jsonable(), started)
    _emit(out, args.verbose, f"errors={stats.errors} mean_tau={stats.mean_tau:.4f}")
    return EXIT_OK if stats.errors == 0 else EXIT_INVALID


def _cmd_oracle(args, text: str, started: float) -> int:
    channel = load_channel(text)
    if args.which == "confusable":
        oracle_value = confusable_all_pairs_fl(channel, args.decoder_sees_state, args.n)
        si = SiModel.from_token("sc,c" if args.decoder_sees_state else "-,-")
        verdict = bl_positivity(channel, si)
        module_value = verdict.decision == ZERO
        report = OracleReport(
            instance=f"all input pairs confusable at n={args.n}",
            oracle_value=oracle_value,
            module_value=module_value,
            tolerance=0.0,
            agreement=oracle_value == module_value,
            search_space=channel.nx**args.n * channel.ny**args.n,
        )
    elif args.which == "grid-capacity":
        dmc = average_states(channel)
        oracle_value = grid_capacity(dmc, args.resolution)
        module_value = blahut_arimoto(dmc).value
        report = OracleReport(
            instance=f"averaged-channel capacity, lattice resolution {args.resolution}",
            oracle_value=oracle_value,
            module_value=module_value,
            tolerance=1e-3,
            agreement=abs(oracle_value - module_value) <= 1e-3,
            search_space=len_lattice(args.resolution, dmc.nx),
        )
    else:
        u_size = args.u_size or channel.nx * channel.ns
        oracle_value = gp_grid_oracle(channel, args.resolution, u_size)
        module_value = gelfand_pinsker_capacity(channel, seed=args.seed).value
        report = OracleReport(
            instance=f"auxiliary-variable lower bound, resolution {args.resolution}, |U|={u_size}",
            oracle_value=oracle_value,
            module_value=module_value,
            tolerance=1e-3,
            agreement=module_value >= oracle_value - 1e-3,
            search_space=len_lattice(args.resolution, u_size) ** channel.ns,
        )
    params = {
        "which": args.which,
        "n": args.n,
        "decoder_sees_state": args.decoder_sees_state,
        "resolution": args.resolution,
        "u_size": args.u_size,
    }
    out = _report("oracle", _digest(text), params, report.to_jsonable(), started)
    _emit(out, args.verbose, f"agreement={report.agreement}")
    return EXIT_OK if report.agreement else EXIT_INVALID


def len_lattice(resolution: int, dim: int) -> int:
    return comb(resolution + dim - 1, dim - 1)


_HANDLERS = {
    "validate": _cmd_validate,
    "reduce": _cmd_reduce,
    "check": _cmd_check,
    "capacity": _cmd_capacity,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
}


def _fuse_si(argv: list[str]) -> list[str]:
    """Rewrite ['--si', '-,-'] as ['--si=-,-'] so tokens starting with '-' parse."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--si" and i + 1 < len(argv):
            out.append(f"--si={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_fuse_si(list(argv)))
    started = time.perf_counter()
    try:
        return _HANDLERS[args.subcommand](args, _read_file(args.path), started)
    except (SdchanError, OSError) as e:
        print(json.dumps({"error": str(e)}))
        return next(code for kind, code in _EXIT_CODES if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
