"""Command-line front end: JSON reports on stdout, exit codes as contracts.

Parsing: a command line of the common shape, a subcommand, its path and exact
``--option VALUE`` pairs, is read from the option tables that ``build_parser``
takes from the parser's own actions; any other goes through argparse, which
alone prints help and error messages.  Both routes give the same namespace
(see ``parse_args``).  An option given ``--`` as its value is a usage error
(exit 2), as a missing value is.  ``channel_sha256`` is the SHA-256 of the
channel file's bytes, which are then decoded strictly as UTF-8.

Output: each report is one line of JSON on stdout, as is the
``{"error": ...}`` object that replaces it on an error; ``python -m json.tool``
indents either.

Exit codes:
0 success: valid channel, positive verdict, no decoding error, oracle agrees;
1 invalid channel, a simulation decoding error, or an oracle disagreement;
2 bad argument, file IO or parse error (a non-UTF-8 file included), unsupported
  SI/regime/model, oversize alphabet, oracle budget, two-phase codebook cap or
  protocol work bound (``protocols.MAX_MEAN_ROUNDS``) exceeded, or a non-finite
  number in the report;
3 ``check`` verdict zero;
4 ``check`` verdict unknown;
5 ``simulate`` protocol precondition fails;
6 ``capacity`` optimizer stopped at ``--max-iter`` before its bracket closed:
  the report holds the bracket reached and a warning.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import sys
import time
from contextlib import nullcontext

from . import __version__
from .channel import Dmc, Regime, SiModel, load_channel, parse_channel, validate
from .errors import ParseError, PrecondFailed, SdchanError, ValidationError
from .capacity import (
    BA_MAX_ITER,
    BA_TOL,
    GP_TOL,
    blahut_arimoto,
    gelfand_pinsker_capacity,
    vanishing_capacity,
    zero_error_capacity,
)
from .oracles import confusable_all_pairs_fl, gp_grid_oracle, grid_capacity, lattice_size
from .positivity import POSITIVE, POSITIVE_SUFFICIENT, UNKNOWN, ZERO, bl_positivity, positivity
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
EXIT_CAPPED = 6

# First match wins, so subclasses precede SdchanError.
_EXIT_CODES = (
    (ValidationError, EXIT_INVALID),
    (PrecondFailed, EXIT_PRECOND),
    (SdchanError, EXIT_IO),
    (OSError, EXIT_IO),
)

# ``check`` verdict -> exit code.
_CHECK_EXIT_CODES = {POSITIVE: EXIT_OK, POSITIVE_SUFFICIENT: EXIT_OK, ZERO: EXIT_ZERO, UNKNOWN: EXIT_UNKNOWN}


def _read_file(path: str) -> tuple[str, str]:
    """The file's text, decoded strictly as UTF-8, and the SHA-256 of its bytes."""
    with open(path, "rb", buffering=0) as f:  # one unbuffered read of the whole file
        data = f.readall()
    try:
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


# ``json.dumps`` builds a new encoder on every call given a non-default
# argument; reports share this one.
_REPORT_ENCODER = json.JSONEncoder(allow_nan=False)


def _emit(report: dict, verbose: bool, summary: str) -> None:
    # Serialize in full before writing: a non-finite number raises here, so
    # no half-written or non-JSON report reaches stdout.  Without ``indent``
    # json uses its C encoder and writes one line.
    try:
        text = _REPORT_ENCODER.encode(report)
    except ValueError as e:
        raise SdchanError(f"report holds a non-finite number: {e}") from None
    sys.stdout.write(text + "\n")
    if verbose:
        print(summary, file=sys.stderr)


def _strategy_lift(channel) -> tuple[Dmc, dict]:
    dmc, letters = shannon_strategy_channel(channel)
    return dmc, {"strategies": [list(u) for u in letters]}


# ``reduce --kind`` -> row(channel) -> (the reduced DMC, the entries its report
# adds to the DMC's document).  Rows call the reductions through module
# globals, so a rebinding of one (for instance by a tracer) sees every call.
_REDUCTIONS = {
    "average": lambda ch: (average_states(ch), {}),
    "shannon-strategy": _strategy_lift,
    "joint-output": lambda ch: (joint_output_channel(ch), {}),
    "extend-termination": lambda ch: (extend_with_termination(average_states(ch)), {}),
}


def _int_at_least(lo: int):
    """argparse type for integers >= lo; argparse names it in its error message."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise ValueError(text)
        return value
    parse.__name__ = f"integer >= {lo}"
    return parse


def _positive_float(text: str) -> float:
    """argparse type for finite floats > 0."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise ValueError(text)
    return value


_positive_float.__name__ = "finite float > 0"


class _StoreOne(argparse._StoreAction):
    """argparse's ``store``, refusing an option given ``--`` as its value.

    Python 3.11's argparse strips ``--`` from ``--opt=--`` (and from
    ``--si --``, which ``_fuse_si`` makes ``--si=--``) and stores ``[]``
    without calling ``type`` or checking ``choices``.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            raise argparse.ArgumentError(self, "expected one argument")
        super().__call__(parser, namespace, values, option_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every ``main`` call.

    Parsing leaves it and its subparsers unchanged, so reuse carries nothing
    from one call to the next; callers must not modify them.  Its
    ``subcommands`` attribute maps each subcommand to its own parser, and
    ``option_tables`` maps each subcommand to a table from option string to
    action, for every option that takes one value; ``parse_args`` reads both,
    and ``build_parser.cache_clear()`` renews all three.
    """
    parser = argparse.ArgumentParser(
        prog="sdchan",
        description="Zero-error and vanishing-error feedback analysis of channels with state",
    )
    parser.add_argument("--verbose", action="store_true", help="human summary on stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def subcommand(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.register("action", None, _StoreOne)
        return p

    p = subcommand("validate", help="check a channel file against the standing assumptions")
    p.add_argument("path")

    p = subcommand("reduce", help="apply a channel transformation")
    p.add_argument("path")
    p.add_argument("--kind", required=True, choices=list(_REDUCTIONS))

    p = subcommand("check", help="zero-error positivity verdict")
    p.add_argument("path")
    p.add_argument("--si", required=True, help="encoder,decoder tokens from {-, sc, c, nc}")
    p.add_argument("--regime", default="vl", choices=["fl", "bl", "vl"])

    p = subcommand("capacity", help="capacity value")
    p.add_argument("path")
    p.add_argument("--si", required=True)
    p.add_argument("--quantity", default="vanishing", choices=["vanishing", "zero-error"])
    p.add_argument("--regime", default="vl", choices=["fl", "bl", "vl"])
    p.add_argument("--tol", type=_positive_float, default=BA_TOL,
                   help=f"Blahut-Arimoto bracket width only; the nc,- ascent always stops at {GP_TOL:g}")
    p.add_argument("--max-iter", type=_int_at_least(1), default=BA_MAX_ITER)
    # Kept so existing command lines still parse; the nc,- ascent is deterministic.
    p.add_argument("--restarts", type=_int_at_least(0), default=32, help="no effect")

    p = subcommand("simulate", help="run a zero-error protocol")
    p.add_argument("path")
    p.add_argument("--protocol", required=True, choices=list(PROTOCOLS))
    p.add_argument("--si", default="-,-")
    p.add_argument("--trials", type=_int_at_least(1), default=10_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--msg-bits", type=_int_at_least(0), default=4)
    p.add_argument("--n1", type=_int_at_least(0), default=None)
    p.add_argument("--trace-path", default=None, help="write the first trial's trace as JSON lines")

    p = subcommand("oracle", help="brute-force cross checks")
    p.add_argument("path")
    p.add_argument("--which", required=True, choices=["confusable", "grid-capacity", "gp-grid"])
    p.add_argument("--n", type=_int_at_least(1), default=2)
    p.add_argument("--decoder-sees-state", action="store_true")
    p.add_argument("--resolution", type=_int_at_least(1), default=200)
    p.add_argument("--u-size", type=_int_at_least(1), default=None)

    parser.subcommands = sub.choices
    parser.option_tables = {
        name: {option: action for action in p._actions
               if isinstance(action, argparse._StoreAction) and action.nargs is None
               for option in action.option_strings}
        for name, p in sub.choices.items()
    }
    return parser


def _cmd_validate(args, text: str):
    report = validate(parse_channel(text))
    summary = "valid" if report.passed else "invalid: " + report.failures()[0].name
    return {"path": args.path}, report.to_jsonable(), summary, EXIT_OK if report.passed else EXIT_INVALID


def _cmd_reduce(args, text: str):
    dmc, extra = _REDUCTIONS[args.kind](load_channel(text))
    return {"kind": args.kind}, {**dmc.to_jsonable(), **extra}, f"{args.kind}: {dmc.nx}x{dmc.ny}", EXIT_OK


def _cmd_check(args, text: str):
    channel = load_channel(text)
    si = SiModel.from_token(args.si)
    verdict = positivity(channel, si, Regime.from_token(args.regime))
    params = {"si": args.si, "regime": args.regime}
    summary = f"{verdict.decision} via {verdict.condition}"
    return params, verdict.to_jsonable(), summary, _CHECK_EXIT_CODES[verdict.decision]


def _cmd_capacity(args, text: str):
    channel = load_channel(text)
    si = SiModel.from_token(args.si)
    if args.quantity == "vanishing":
        result = vanishing_capacity(channel, si, tol=args.tol, max_iter=args.max_iter)
    else:
        result = zero_error_capacity(
            channel, si, Regime.from_token(args.regime), tol=args.tol, max_iter=args.max_iter
        )
    params = {k: getattr(args, k) for k in ("si", "quantity", "regime", "tol", "max_iter", "restarts")}
    # Only an optimizer stopped at its iteration cap leaves a warning.
    code = EXIT_CAPPED if result.warnings else EXIT_OK
    return params, result.to_jsonable(), f"{result.value:.6f} bits via {result.method}", code


# Protocol name -> the ``simulate`` options it reads, which are the only ones
# its report echoes: its factory's parameters after the channel.
_PROTOCOL_OPTIONS = {name: list(inspect.signature(f).parameters)[1:] for name, f in PROTOCOLS.items()}


def _cmd_simulate(args, text: str):
    channel = load_channel(text)
    si = SiModel.from_token(args.si)
    reads = _PROTOCOL_OPTIONS[args.protocol]
    trial = PROTOCOLS[args.protocol](channel, **{k: si if k == "si" else getattr(args, k) for k in reads})
    # The trace file is opened before any trial runs, so a bad path fails fast.
    with open(args.trace_path, "w", encoding="utf-8") if args.trace_path is not None else nullcontext() as out:
        trace = Trace() if out is not None else None
        stats = monte_carlo(trial, args.trials, args.seed, trace=trace)
        if out is not None:
            out.write(trace.to_jsonl() + "\n")
    params = {k: getattr(args, k) for k in ("protocol", "si", "trials", "seed", "msg_bits", "n1")
              if k in ("protocol", "trials", "seed", *reads)}
    summary = f"errors={stats.errors} mean_tau={stats.mean_tau:.4f}"
    return params, stats.to_jsonable(), summary, EXIT_OK if stats.errors == 0 else EXIT_INVALID


def _cmd_oracle(args, text: str):
    channel = load_channel(text)
    if args.which == "confusable":
        oracle_value = confusable_all_pairs_fl(channel, args.decoder_sees_state, args.n)
        si = SiModel.from_token("sc,c" if args.decoder_sees_state else "-,-")
        verdict = bl_positivity(channel, si)
        module_value = verdict.decision == ZERO
        instance, tolerance = f"all input pairs confusable at n={args.n}", 0.0
        agreement = oracle_value == module_value
        search_space = channel.nx**args.n * channel.ny**args.n
    elif args.which == "grid-capacity":
        dmc = average_states(channel)
        oracle_value = grid_capacity(dmc, args.resolution)
        module_value = blahut_arimoto(dmc).value
        instance, tolerance = f"averaged-channel capacity, lattice resolution {args.resolution}", 1e-3
        agreement = abs(oracle_value - module_value) <= tolerance
        search_space = lattice_size(args.resolution, dmc.nx)
    else:
        u_size = channel.nx * channel.ns if args.u_size is None else args.u_size
        oracle_value = gp_grid_oracle(channel, args.resolution, u_size)
        module_value = gelfand_pinsker_capacity(channel).value
        instance, tolerance = f"auxiliary-variable lower bound, resolution {args.resolution}, |U|={u_size}", 1e-3
        agreement = module_value >= oracle_value - tolerance
        search_space = lattice_size(args.resolution, u_size) ** channel.ns
    results = {"instance": instance, "oracle_value": oracle_value, "module_value": module_value,
               "tolerance": tolerance, "agreement": agreement, "search_space": search_space}
    params = {k: getattr(args, k) for k in ("which", "n", "decoder_sees_state", "resolution", "u_size")}
    return params, results, f"agreement={agreement}", EXIT_OK if agreement else EXIT_INVALID


# Subcommand -> handler(args, channel text) -> (parameters, results, verbose
# summary, exit code); ``main`` wraps every result in one report envelope.
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


def _parse_fixed(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """``argv`` parsed as ``SUBCOMMAND PATH`` and exact ``--option VALUE`` pairs, else None.

    Pairs and ``PATH`` come in any order, and a repeated option keeps its
    last value, as in argparse.  Any other shape, and any value that argparse
    would refuse, gives None; so does a value starting with ``-``, except an
    ``--si`` value other than ``--``.  Prints nothing.
    """
    options = parser.option_tables.get(argv[0]) if argv else None
    if options is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            if token.startswith("-") or "path" in given:
                return None
            given["path"] = token
            continue
        value = next(tokens, None)
        if value is None or (value.startswith("-") and (token != "--si" or value == "--")):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):  # argparse's usage errors
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    args = argparse.Namespace(subcommand=argv[0], verbose=False)
    for action in parser.subcommands[argv[0]]._actions:
        if action.dest in given:
            setattr(args, action.dest, given.pop(action.dest))
        elif action.required:
            return None
        elif action.default is not argparse.SUPPRESS:
            setattr(args, action.dest, action.default)
    return None if given else args


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` to the namespace ``build_parser().parse_args(_fuse_si(argv))`` gives.

    The common shape, a subcommand then its path and exact ``--option VALUE``
    pairs, is read from the parser's option tables by ``_parse_fixed``,
    which converts and checks each value as argparse does.  Every other
    command line, ``-h``, ``--verbose``, abbreviations, ``--opt=VALUE`` and
    every error included, goes to the full parser, which prints the help,
    usage and error messages.
    """
    parser = build_parser()
    args = _parse_fixed(parser, argv)
    return parser.parse_args(_fuse_si(argv)) if args is None else args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_args(list(argv))
    started = time.perf_counter()
    try:
        text, sha256 = _read_file(args.path)
        parameters, results, summary, code = _HANDLERS[args.subcommand](args, text)
        report = {
            "tool_version": __version__,
            "channel_sha256": sha256,
            "command": args.subcommand,
            "parameters": parameters,
            "results": results,
            "wall_clock_s": time.perf_counter() - started,
        }
        _emit(report, args.verbose, summary)
        return code
    except (SdchanError, OSError) as e:
        print(json.dumps({"error": str(e)}))
        return next(code for kind, code in _EXIT_CODES if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
