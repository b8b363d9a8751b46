import hashlib
import inspect
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sdchan.cli
from sdchan import SdDmc, serialize
from sdchan.capacity import CapacityResult
from sdchan.channel import _MODEL_TOKENS
from sdchan.cli import build_parser, main
from sdchan.protocols import CHUNK_TRIALS, PROTOCOLS
from conftest import ch_ex1, ch_ex2, ch_ex3, ch_three_outputs, ch_triv


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(serialize(ch_ex1()))
    return str(path)


def run_cli(capsys, *argv):
    # A report and an error object alike are one line of JSON.
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n"), out
    return code, json.loads(out)


def test_validate_ok(capsys, ex1_path):
    code, report = run_cli(capsys, "validate", ex1_path)
    assert code == 0
    assert report["results"]["passed"]
    assert set(report) == {
        "tool_version",
        "channel_sha256",
        "command",
        "parameters",
        "results",
        "wall_clock_s",
    }


def test_validate_invalid(capsys, tmp_path):
    doc = json.loads(serialize(ch_ex1()))
    doc["Q"] = [1.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 1
    failed = [c for c in report["results"]["checks"] if not c["passed"]]
    assert failed[0]["name"] == "state_distribution"


def test_validate_missing_file(capsys):
    code, report = run_cli(capsys, "validate", "/nonexistent/channel.json")
    assert code == 2
    assert "error" in report


def test_validate_unparseable(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{oops")
    code, _ = run_cli(capsys, "validate", str(path))
    assert code == 2


def test_check_exit_codes(capsys, ex1_path, tmp_path):
    code, report = run_cli(capsys, "check", ex1_path, "--si", "-,-", "--regime", "vl")
    assert code == 0
    assert report["results"]["decision"] == "positive"

    code, report = run_cli(capsys, "check", ex1_path, "--si", "nc,nc", "--regime", "fl")
    assert code == 3
    assert report["results"]["decision"] == "zero"

    ex3 = tmp_path / "ex3.json"
    ex3.write_text(serialize(ch_ex3()))
    code, report = run_cli(capsys, "check", str(ex3), "--si", "-,c", "--regime", "vl")
    assert code == 4
    assert report["results"]["decision"] == "unknown"


def test_capacity_vanishing(capsys, ex1_path):
    code, report = run_cli(capsys, "capacity", ex1_path, "--si", "sc,c")
    assert code == 0
    assert report["results"]["value_bits"] > 0.6


def test_non_finite_report_is_a_json_error_exit_2(capsys, ex1_path, monkeypatch):
    def nan_capacity(*args, **kwargs):
        return CapacityResult(value=float("nan"), maximizer={}, method="stub")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    monkeypatch.setattr(sdchan.cli, "vanishing_capacity", nan_capacity)
    code = main(["capacity", ex1_path, "--si", "sc,c"])
    out = capsys.readouterr().out
    doc = json.loads(out, parse_constant=reject)
    assert out.count("\n") == 1
    assert code == 2
    assert set(doc) == {"error"} and "non-finite" in doc["error"]


def test_capacity_zero_error_matches_vanishing(capsys, ex1_path):
    _, zero = run_cli(
        capsys, "capacity", ex1_path, "--si", "-,-", "--quantity", "zero-error", "--regime", "vl"
    )
    _, vanish = run_cli(capsys, "capacity", ex1_path, "--si", "-,-")
    assert zero["results"]["value_bits"] == vanish["results"]["value_bits"]


def test_capacity_triv(capsys, tmp_path):
    path = tmp_path / "triv.json"
    path.write_text(serialize(ch_triv()))
    code, report = run_cli(capsys, "capacity", str(path), "--si", "c,c")
    assert code == 0
    assert abs(report["results"]["value_bits"] - 1.0) < 1e-8


@pytest.mark.parametrize("si", ["-,-", "c,-", "c,c", "nc,-"])
def test_capacity_at_iteration_cap_reports_bracket_exit_6(capsys, tmp_path, si):
    # BA (the first three) and the GP ascent (nc,-) both stop after one
    # evaluation on a channel whose BA problems have no closed-form start,
    # and report the bracket they reached.
    path = tmp_path / "three_outputs.json"
    path.write_text(serialize(ch_three_outputs()))
    code, report = run_cli(capsys, "capacity", str(path), "--si", si, "--max-iter", "1")
    assert code == 6
    res = report["results"]
    assert res["value_bits"] > 0.0 and res["gap"] > 1e-9
    assert res["iterations"] == 1
    assert len(res["warnings"]) == 1 and "after 1 iterations" in res["warnings"][0]


def test_every_exit_code_is_documented():
    # README's exit-code table and the module docstring are the contract.
    codes = {v for k, v in vars(sdchan.cli).items() if k.startswith("EXIT_")}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("Exit codes"):].split("\n\n")[1]
    assert {int(c) for c in re.findall(r"^\| (\d+) \|", table, re.M)} == codes
    assert {int(c) for c in re.findall(r"^(\d+) ", sdchan.cli.__doc__, re.M)} == codes


def test_capacity_oversize_strategy_alphabet_exit_2(capsys, tmp_path):
    # 2 inputs and 13 states give 2**13 = 8192 strategy letters, above the cap.
    path = tmp_path / "wide.json"
    path.write_text(serialize(SdDmc(W=np.tile(np.eye(2), (13, 1, 1)), Q=np.full(13, 1 / 13))))
    for si in ("c,-", "nc,-"):
        started = time.perf_counter()
        code, report = run_cli(capsys, "capacity", str(path), "--si", si)
        assert code == 2
        assert "strategy alphabet has 8192 letters" in report["error"]
        assert time.perf_counter() - started < 1.0


def test_reduce_average(capsys, ex1_path):
    code, report = run_cli(capsys, "reduce", ex1_path, "--kind", "average")
    assert code == 0
    assert report["results"]["W"] == [[1.0, 0.0], [0.25, 0.75]]


def test_reduce_shannon_strategy(capsys, ex1_path):
    code, report = run_cli(capsys, "reduce", ex1_path, "--kind", "shannon-strategy")
    assert code == 0
    assert report["results"] == {
        "inputs": ["u00", "u01", "u10", "u11"],
        "outputs": ["y0", "y1"],
        "W": [[1.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.25, 0.75]],
        "strategies": [[0, 0], [0, 1], [1, 0], [1, 1]],
    }


# ``reduce --kind`` -> its results on ch_ex1 labelled inputs (a, b), outputs
# ("y,0", y1) and states (on, off): the reduced DMC's document, then any
# extra entry, in this key order.
_REDUCE_REPORTS = {
    "average": {
        "inputs": ["a", "b"],
        "outputs": ["y,0", "y1"],
        "W": [[1.0, 0.0], [0.25, 0.75]],
    },
    "shannon-strategy": {
        "inputs": ["u00", "u01", "u10", "u11"],
        "outputs": ["y,0", "y1"],
        "W": [[1.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.25, 0.75]],
        "strategies": [[0, 0], [0, 1], [1, 0], [1, 1]],
    },
    "joint-output": {
        "inputs": ["a", "b"],
        "outputs": ['("y,0","on")', '("y,0","off")', '("y1","on")', '("y1","off")'],
        "W": [[0.5, 0.5, 0.0, 0.0], [0.25, 0.0, 0.25, 0.5]],
    },
    "extend-termination": {
        "inputs": ["a", "b", "T"],
        "outputs": ["y,0", "y1", "T"],
        "W": [[1.0, 0.0, 0.0], [0.25, 0.75, 0.0], [0.0, 0.0, 1.0]],
    },
}


@pytest.mark.parametrize("kind", list(_REDUCE_REPORTS))
def test_reduce_reports_keep_their_keys_order_and_values(capsys, tmp_path, kind):
    doc = json.loads(serialize(ch_ex1()))
    doc["inputs"], doc["outputs"], doc["states"] = ["a", "b"], ["y,0", "y1"], ["on", "off"]
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "reduce", str(path), "--kind", kind)
    assert code == 0 and report["parameters"] == {"kind": kind}
    assert list(report["results"]) == list(_REDUCE_REPORTS[kind])
    assert report["results"] == _REDUCE_REPORTS[kind]


def test_unknown_si_part_exit_2(capsys, ex1_path):
    for argv in (["check", ex1_path, "--si", "x,-"], ["capacity", ex1_path, "--si", "-,x"],
                 ["simulate", ex1_path, "--protocol", "disprover", "--si", "x,-"]):
        code, report = run_cli(capsys, *argv)
        assert code == 2
        assert report["error"].startswith("malformed state-information token"), argv


def test_reduce_joint_output_labels_stay_distinct(capsys, ex1_path, tmp_path):
    doc = json.loads(serialize(ch_ex1()))
    doc["outputs"], doc["states"] = ["a,b", "a"], ["c", "b,c"]
    path = tmp_path / "commas.json"
    path.write_text(json.dumps(doc))
    _, report = run_cli(capsys, "reduce", str(path), "--kind", "joint-output")
    assert report["results"]["outputs"] == ['("a,b","c")', '("a,b","b,c")', '("a","c")', '("a","b,c")']
    # Labels without commas are left as they were.
    _, report = run_cli(capsys, "reduce", ex1_path, "--kind", "joint-output")
    assert report["results"]["outputs"] == ["(y0,s0)", "(y0,s1)", "(y1,s0)", "(y1,s1)"]


@pytest.mark.parametrize("protocol, echoed", [
    ("disprover", ["protocol", "si", "trials", "seed"]),
    ("theorem5", ["protocol", "trials", "seed"]),
    ("han-sato", ["protocol", "si", "trials", "seed", "msg_bits", "n1"]),
])
def test_simulate_echoes_only_the_options_its_protocol_reads(capsys, ex1_path, protocol, echoed):
    _, report = run_cli(capsys, "simulate", ex1_path, "--protocol", protocol, "--trials", "10")
    assert list(report["parameters"]) == echoed


def test_simulate_theorem5(capsys, ex1_path):
    code, report = run_cli(
        capsys, "simulate", ex1_path, "--protocol", "theorem5", "--trials", "2000", "--seed", "42"
    )
    assert code == 0
    res = report["results"]
    assert res["errors"] == 0
    assert abs(res["mean_tau"] - 8 / 3) < 0.12


def test_simulate_precond_exit_5(capsys, tmp_path):
    path = tmp_path / "bsc.json"
    path.write_text(json.dumps({"Q": [1.0], "W": [[[0.7, 0.3], [0.3, 0.7]]]}))
    for protocol in ("disprover", "han-sato"):
        code, report = run_cli(capsys, "simulate", str(path), "--protocol", protocol, "--trials", "10")
        assert code == 5
        assert "no disprover output" in report["error"]


def test_simulate_han_sato_blocklength_too_short_exit_5(capsys, ex1_path):
    # Two inputs give 2**1 words of length 1, too few for 2**3 messages.
    code, report = run_cli(capsys, "simulate", ex1_path, "--protocol", "han-sato", "--msg-bits", "3", "--n1", "1")
    assert code == 5
    assert report["error"] == "blocklength 1 too short for 8 distinct codewords"


def test_simulate_refuses_the_decoder_only_model_exit_2(capsys, tmp_path):
    # Under -,c the decoder stops on states the encoder never sees; only
    # theorem5 serves that model.
    path = tmp_path / "ex3.json"
    path.write_text(serialize(ch_ex3()))
    for protocol in ("disprover", "han-sato"):
        code, report = run_cli(capsys, "simulate", str(path), "--protocol", protocol, "--si", "-,c", "--trials", "10")
        assert code == 2
        assert "theorem5" in report["error"]


# Round stopping probabilities of 1e-300; of 5e-324 over the averaged channel,
# whose 1e-400 product is floored to the smallest subnormal; and of exactly
# 0.0 for theorem5, where that product underflows.
RARE_STOP = [
    {"Q": [1.0], "W": [[[1.0, 1e-300], [1.0, 0.0]]]},
    {"Q": [1e-300, 1.0], "W": [[[1.0, 1e-100], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]},
]


@pytest.mark.parametrize("protocol", ["disprover", "theorem5", "han-sato"])
@pytest.mark.parametrize("doc", RARE_STOP)
def test_simulate_refuses_rounds_that_almost_never_stop_exit_2(tmp_path, doc, protocol):
    # In a subprocess with a timeout, so a sender that loops until every
    # trial stops fails this test instead of hanging the suite.
    path = tmp_path / "rare.json"
    path.write_text(json.dumps(doc))
    src = Path(sdchan.cli.__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "sdchan.cli", "simulate", str(path), "--protocol", protocol, "--trials", "10"]
    out = subprocess.run(argv, cwd=src, capture_output=True, text=True, timeout=30)
    assert out.returncode == 2
    assert "rounds on average" in json.loads(out.stdout)["error"]


def test_simulate_parses_every_option_a_protocol_reads():
    # _cmd_simulate reads each factory parameter after the channel from args.
    options = {a.dest: a for a in build_parser().subcommands["simulate"]._actions}
    assert options["protocol"].choices == list(PROTOCOLS)
    for name, factory in PROTOCOLS.items():
        assert set(list(inspect.signature(factory).parameters)[1:]) <= set(options), name


def test_simulate_han_sato(capsys, ex1_path):
    code, report = run_cli(
        capsys,
        "simulate",
        ex1_path,
        "--protocol",
        "han-sato",
        "--si",
        "-,-",
        "--trials",
        "200",
        "--seed",
        "7",
        "--msg-bits",
        "4",
        "--n1",
        "12",
    )
    assert code == 0
    assert report["results"]["errors"] == 0


def test_simulate_trace_export(capsys, ex1_path, tmp_path):
    for protocol, extra in (("disprover", ["--si", "-,-"]), ("theorem5", []), ("han-sato", ["--si", "-,-"])):
        for trials in ("10", "1"):
            trace_path = tmp_path / f"{protocol}.jsonl"
            code, report = run_cli(
                capsys,
                "simulate",
                ex1_path,
                "--protocol",
                protocol,
                *extra,
                "--trials",
                trials,
                "--trace-path",
                str(trace_path),
            )
            assert code == 0
            lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
            assert "tau" in lines[-1]
            assert lines[-1]["decoded"] == lines[-1]["message"]
            # Every slot up to the stopping time is recorded, han-sato's acknowledgement included.
            assert [slot["n"] for slot in lines[:-1]] == list(range(1, lines[-1]["tau"] + 1))
            if trials == "1":  # the trace is the one trial the report averages
                assert report["results"]["mean_tau"] == lines[-1]["tau"]


# One report per protocol on ch_ex1, pinned so that a change to any random
# stream shows: (extra argv, mean_tau, var_tau, trace lines).
SIMULATE_GOLDEN = {
    "disprover": (["--seed", "42"], 2.62, 1.4556, [
        '{"n": 1, "s": null, "x": 0, "y": 0, "decision": null}',
        '{"n": 2, "s": null, "x": 1, "y": 1, "decision": 0}',
        '{"message": 0, "decoded": 0, "tau": 2}',
    ]),
    "theorem5": (["--seed", "42"], 2.77, 2.5871, [
        '{"n": 1, "s": 1, "x": 0, "y": 0, "decision": null}',
        '{"n": 2, "s": 1, "x": 1, "y": 1, "decision": 0}',
        '{"message": 0, "decoded": 0, "tau": 2}',
    ]),
    # Trial 0 is decoded wrongly in phase 1, so its trace holds the negative
    # acknowledgment and the two resent bits.
    "han-sato": (["--seed", "2", "--si", "-,-", "--msg-bits", "2", "--n1", "2"], 6.17, 7.7911, [
        '{"n": 1, "s": null, "x": 1, "y": 0, "decision": null}',
        '{"n": 2, "s": null, "x": 1, "y": 1, "decision": null}',
        '{"n": 3, "s": null, "x": 0, "y": 0, "decision": null}',
        '{"n": 4, "s": null, "x": 1, "y": 1, "decision": 0}',
        '{"n": 5, "s": null, "x": 1, "y": 1, "decision": null}',
        '{"n": 6, "s": null, "x": 0, "y": 0, "decision": 1}',
        '{"n": 7, "s": null, "x": 1, "y": 0, "decision": null}',
        '{"n": 8, "s": null, "x": 0, "y": 0, "decision": null}',
        '{"n": 9, "s": null, "x": 1, "y": 0, "decision": null}',
        '{"n": 10, "s": null, "x": 0, "y": 0, "decision": null}',
        '{"n": 11, "s": null, "x": 1, "y": 0, "decision": null}',
        '{"n": 12, "s": null, "x": 0, "y": 0, "decision": null}',
        '{"n": 13, "s": null, "x": 1, "y": 1, "decision": null}',
        '{"n": 14, "s": null, "x": 0, "y": 0, "decision": 1}',
        '{"message": 3, "decoded": 3, "tau": 14}',
    ]),
}


def _check_golden(capsys, path, tmp_path, argv, mean_tau, var_tau, trace_lines):
    trace_path = tmp_path / "trace.jsonl"
    code, report = run_cli(capsys, "simulate", path, *argv, "--trace-path", str(trace_path))
    res = report["results"]
    assert code == 0 and res["errors"] == 0
    assert (res["mean_tau"], res["var_tau"]) == (mean_tau, var_tau)
    assert trace_path.read_text().splitlines() == trace_lines


@pytest.mark.parametrize("protocol", list(SIMULATE_GOLDEN))
def test_simulate_golden_reports(capsys, ex1_path, tmp_path, protocol):
    extra, mean_tau, var_tau, trace_lines = SIMULATE_GOLDEN[protocol]
    argv = ["--protocol", protocol, "--trials", "200", *extra]
    _check_golden(capsys, ex1_path, tmp_path, argv, mean_tau, var_tau, trace_lines)


# Three inputs, three outputs and two states.  Under every protocol here the
# stopping output has outputs on both sides of it in its rows, so a round's
# interval test has two interior edges, which ch_ex1's two-output rows never give.
THREE_BY_THREE = {
    "Q": [0.4, 0.6],
    "W": [
        [[0.5, 0.0, 0.5], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]],
        [[0.3, 0.0, 0.7], [0.25, 0.35, 0.4], [0.0, 0.6, 0.4]],
    ],
}
# (argv, mean_tau, var_tau, trace lines) at --trials 600 --seed 3.
SIMULATE_GOLDEN_3X3 = [
    (["--protocol", "disprover", "--si", "c,-"], 9.75, 71.9175, [
        '{"n": 1, "s": null, "x": 1, "y": 1, "decision": null}',
        '{"n": 2, "s": null, "x": 0, "y": 0, "decision": 1}',
        '{"message": 1, "decoded": 1, "tau": 2}',
    ]),
    (["--protocol", "disprover", "--si", "sc,c"], 10.403333333333334, 80.28398888888889, [
        '{"n": 1, "s": null, "x": 1, "y": 3, "decision": null}',
        '{"n": 2, "s": null, "x": 0, "y": 1, "decision": null}',
        '{"n": 3, "s": null, "x": 1, "y": 5, "decision": null}',
        '{"n": 4, "s": null, "x": 0, "y": 5, "decision": null}',
        '{"n": 5, "s": null, "x": 1, "y": 4, "decision": null}',
        '{"n": 6, "s": null, "x": 0, "y": 5, "decision": null}',
        '{"n": 7, "s": null, "x": 1, "y": 2, "decision": null}',
        '{"n": 8, "s": null, "x": 0, "y": 0, "decision": 1}',
        '{"message": 1, "decoded": 1, "tau": 8}',
    ]),
    (["--protocol", "theorem5"], 4.946666666666666, 12.917155555555556, [
        '{"n": 1, "s": 1, "x": 1, "y": 0, "decision": null}',
        '{"n": 2, "s": 0, "x": 0, "y": 2, "decision": null}',
        '{"n": 3, "s": 0, "x": 1, "y": 1, "decision": null}',
        '{"n": 4, "s": 1, "x": 0, "y": 2, "decision": 1}',
        '{"message": 1, "decoded": 1, "tau": 4}',
    ]),
]


@pytest.mark.parametrize("case", SIMULATE_GOLDEN_3X3, ids=lambda case: " ".join(case[0][1::2]))
def test_simulate_golden_reports_three_outputs(capsys, tmp_path, case):
    argv, mean_tau, var_tau, trace_lines = case
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(THREE_BY_THREE))
    argv = [*argv, "--trials", "600", "--seed", "3"]
    _check_golden(capsys, str(path), tmp_path, argv, mean_tau, var_tau, trace_lines)


def test_simulate_trace_path_unwritable(capsys, ex1_path, tmp_path):
    trace_path = tmp_path / "missing" / "trace.jsonl"
    code, report = run_cli(
        capsys, "simulate", ex1_path, "--protocol", "theorem5", "--trials", "10", "--trace-path", str(trace_path)
    )
    assert code == 2
    assert "error" in report


@pytest.mark.parametrize("name", ["missing/trace.jsonl", ""], ids=["missing-directory", "empty"])
def test_simulate_bad_trace_path_fails_before_any_trial(capsys, monkeypatch, ex1_path, tmp_path, name):
    # The trace file is opened once the protocol is admitted and before
    # monte_carlo runs a trial; the error is open's, as it was after the trials.
    def no_trials(*args, **kwargs):
        raise AssertionError("monte_carlo ran before the trace file was opened")

    monkeypatch.setattr(sdchan.cli, "monte_carlo", no_trials)
    path = str(tmp_path / name) if name else ""
    code, report = run_cli(capsys, "simulate", ex1_path, "--protocol", "disprover", "--trace-path", path)
    assert code == 2
    assert report == {"error": f"[Errno 2] No such file or directory: {path!r}"}


def test_simulate_refused_protocol_creates_no_trace_file(capsys, tmp_path):
    # A binary symmetric channel has no structural zero, so no disprover.
    path = tmp_path / "bsc.json"
    path.write_text(serialize(SdDmc(W=[[[0.9, 0.1], [0.1, 0.9]]], Q=[1.0])))
    trace_path = tmp_path / "trace.jsonl"
    code, report = run_cli(capsys, "simulate", str(path), "--protocol", "disprover", "--trace-path", str(trace_path))
    assert code == 5 and "error" in report
    assert not trace_path.exists()


def test_simulate_empty_trace_path_is_an_io_error(capsys, ex1_path):
    # An empty path asks for a trace like any other and cannot be opened.
    code, report = run_cli(capsys, "simulate", ex1_path, "--protocol", "theorem5", "--trials", "10", "--trace-path", "")
    assert code == 2
    assert "error" in report


BAD_NUMERIC_ARGV = [
    ["simulate", "--protocol", "theorem5", "--trials", "0"],
    ["simulate", "--protocol", "han-sato", "--si", "-,-", "--msg-bits", "-1"],
    ["capacity", "--si", "nc,-", "--restarts", "-1"],
    ["oracle", "--which", "grid-capacity", "--resolution", "0"],
    ["oracle", "--which", "confusable", "--n", "0"],
    ["oracle", "--which", "gp-grid", "--u-size", "-1"],
    ["oracle", "--which", "gp-grid", "--u-size", "0"],
    ["simulate", "--protocol", "han-sato", "--n1", "-3"],
    ["capacity", "--si", "-,-", "--tol", "inf"],
    ["capacity", "--si", "-,-", "--tol", "nan"],
    ["capacity", "--si", "-,-", "--tol", "0"],
    ["capacity", "--si", "-,-", "--max-iter", "0"],
    ["simulate", "--protocol", "theorem5", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", BAD_NUMERIC_ARGV)
def test_bad_numeric_arguments_exit_2(ex1_path, argv):
    with pytest.raises(SystemExit) as info:
        main([argv[0], ex1_path, *argv[1:]])
    assert info.value.code == 2


def test_non_utf8_channel_file_exit_2(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + serialize(ch_ex1()).encode("utf-16-le"))
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "UTF-8" in report["error"]
    # The message names the offset of the first bad byte in the file.
    path.write_bytes(b'{"Q": [1.0], "W": [[[1.0]]], "inputs": ["\xe9"]}')
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert report["error"].endswith("not UTF-8 text (invalid continuation byte at byte 41)")


def test_channel_sha256_hashes_the_file_bytes(capsys, tmp_path):
    # A CRLF file is hashed as stored, not after newline translation.  An LF
    # file's bytes are its text's UTF-8 encoding, so its hash is unchanged.
    for name, data in (
        ("crlf.json", b'{"Q": [1.0],\r\n "W": [[[1.0, 0.0], [0.0, 1.0]]]}\r\n'),
        ("lf.json", b'{"Q": [1.0],\n "W": [[[1.0, 0.0], [0.0, 1.0]]]}\n'),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert report["channel_sha256"] == hashlib.sha256(data).hexdigest(), name


def test_simulate_han_sato_codebook_cap(capsys, ex1_path):
    code, report = run_cli(capsys, "simulate", ex1_path, "--protocol", "han-sato", "--msg-bits", "40", "--trials", "1")
    assert code == 2
    assert "codebook" in report["error"]


def test_simulate_exact_stopping_law(capsys, ex1_path):
    for protocol in ("disprover", "theorem5"):
        _, report = run_cli(capsys, "simulate", ex1_path, "--protocol", protocol, "--trials", "100")
        res = report["results"]
        assert res["exact_mean_tau"] == 8 / 3  # tau = 2 * Geometric(3/4) on ex1
        assert res["exact_var_tau"] == 16 / 9
        lo, hi = res["mean_tau_ci95"]
        assert lo < res["mean_tau"] < hi
    _, report = run_cli(capsys, "simulate", ex1_path, "--protocol", "han-sato", "--trials", "10")
    assert report["results"]["exact_mean_tau"] is None and report["results"]["exact_var_tau"] is None


def test_oracle_grid(capsys, ex1_path):
    code, report = run_cli(capsys, "oracle", ex1_path, "--which", "grid-capacity", "--resolution", "400")
    assert code == 0
    assert report["results"]["agreement"]


def test_oracle_gp_grid(capsys, ex1_path):
    # |U| defaults to nx * ns = 4; the search space is 35 lattice points per state.
    code, report = run_cli(capsys, "oracle", ex1_path, "--which", "gp-grid", "--resolution", "4")
    assert code == 0
    results = report["results"]
    assert results["instance"] == "auxiliary-variable lower bound, resolution 4, |U|=4"
    assert results["search_space"] == 35**2
    assert results["agreement"] and results["module_value"] >= results["oracle_value"] - 1e-3


def test_oracle_confusable(capsys, ex1_path):
    code, report = run_cli(
        capsys, "oracle", ex1_path, "--which", "confusable", "--n", "2", "--decoder-sees-state"
    )
    assert code == 0
    assert report["results"]["agreement"]


@pytest.mark.parametrize("argv", [
    ["--which", "confusable", "--n", "2"],
    ["--which", "grid-capacity", "--resolution", "40"],
    ["--which", "gp-grid", "--resolution", "2"],
])
def test_oracle_results_keys_in_order(capsys, ex1_path, argv):
    code, report = run_cli(capsys, "oracle", ex1_path, *argv)
    assert code == 0
    assert list(report["results"]) == [
        "instance", "oracle_value", "module_value", "tolerance", "agreement", "search_space"
    ]


@pytest.mark.parametrize("Q, W, argv", [
    ([1.0], [[[1.0, 0.0], [0.5, 0.5]]], ["--which", "confusable", "--n", "5000"]),
    ([0.5, 0.5], [[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.0, 1.0]]], ["--which", "gp-grid", "--resolution", "1" * 1500]),
    ([1.0], [[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.8]]], ["--which", "grid-capacity", "--resolution", "1" * 1500]),
])
def test_oracle_budget_far_exceeded_is_a_json_error_exit_2(capsys, tmp_path, Q, W, argv):
    # Each work count has more than 4300 digits, which str() refuses to format.
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"Q": Q, "W": W}))
    code, report = run_cli(capsys, "oracle", str(path), *argv)
    assert code == 2
    assert "exceeds the budget" in report["error"]


# Q(s0) * W(y0 | x0, s0) = 1e-400 underflows to 0.0 in floating point, yet
# input 0 can produce output 0 in state s0 of positive probability.
UNDERFLOW_CONFUSABLE = {"Q": [1e-300, 1.0], "W": [[[1e-100, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]]}
UNDERFLOW_NO_ZERO = {"Q": [1e-300, 1.0], "W": [[[1e-100, 1.0], [0.5, 0.5]], [[0.0, 1.0], [0.5, 0.5]]]}


def test_underflowed_product_is_no_structural_zero(capsys, tmp_path):
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(UNDERFLOW_CONFUSABLE))
    # Every pair of inputs is confusable, so no bounded-length code is zero-error.
    for si in ("-,-", "sc,-", "c,-"):
        code, report = run_cli(capsys, "check", str(path), "--si", si, "--regime", "bl")
        assert (code, report["results"]["decision"]) == (3, "zero"), si
    code, report = run_cli(capsys, "capacity", str(path), "--si", "-,-", "--quantity", "zero-error", "--regime", "bl")
    assert (code, report["results"]["value_bits"]) == (0, 0.0)
    code, report = run_cli(capsys, "oracle", str(path), "--which", "confusable", "--n", "2")
    assert code == 0 and report["results"]["oracle_value"] is True


def test_simulate_finds_no_disprover_in_an_underflowed_product(capsys, tmp_path):
    # Every input can produce every output, so there is no zero-error bit.
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(UNDERFLOW_NO_ZERO))
    code, report = run_cli(capsys, "simulate", str(path), "--protocol", "disprover", "--si", "-,-", "--trials", "10")
    assert code == 5 and "error" in report


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line.split()[1:] for line in readme.splitlines() if line.startswith("sdchan ")]
    assert len(lines) >= 8
    for argv in lines:
        build_parser().parse_args(sdchan.cli._fuse_si(argv))


def test_readme_library_sketch_runs(capsys):
    # The sketch is run as written, so a change to the public API it uses fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    witness, value = capsys.readouterr().out.splitlines()
    assert witness == "{'kind': 'letters', 'x': 0, 'y': 1}"
    assert 0.0 < float(value) <= 1.0


def _dispatch_corpus(path):
    """Command lines for the parse-route test: README examples, those of this file, and malformed ones."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    corpus = [line.split()[1:] for line in readme.splitlines() if line.startswith("sdchan ")]
    corpus += [[argv[0], path, *argv[1:]] for argv in BAD_NUMERIC_ARGV]
    golden = [["--protocol", p, "--trials", "200", *SIMULATE_GOLDEN[p][0]] for p in SIMULATE_GOLDEN]
    golden += [[*case[0], "--trials", "600", "--seed", "3"] for case in SIMULATE_GOLDEN_3X3]
    corpus += [["simulate", path, *argv, "--trace-path", "t.jsonl"] for argv in golden]
    corpus += [[cmd, path, *rest] for cmd, *rest in (
        ["validate"],
        ["check", "--si", "-,-", "--regime", "vl"],
        ["check", "--si", "nc,nc", "--regime", "fl"],
        ["check", "--si", "-,c", "--regime", "vl"],
        ["check", "--si", "-,-", "--regime", "bl"],
        ["check", "--si", "-,-", "--regime", "xl"],
        ["capacity", "--si", "sc,c"],
        ["capacity", "--si", "-,-", "--quantity", "zero-error", "--regime", "vl"],
        ["capacity", "--si", "c,-", "--max-iter", "1"],
        ["capacity", "--si", "-,-", "--tol", "1e-3"],
        ["capacity", "--si", "-,-", "--quantity", "zero-error", "--regime", "bl"],
        ["reduce", "--kind", "average"],
        ["reduce", "--kind", "joint-output"],
        ["simulate", "--protocol", "han-sato", "--si", "-,-", "--trials", "200", "--seed", "7",
         "--msg-bits", "4", "--n1", "12"],
        ["simulate", "--protocol", "disprover", "--si", "-,c", "--trials", "10"],
        ["simulate", "--protocol", "han-sato", "--msg-bits", "40", "--trials", "1"],
        ["oracle", "--which", "grid-capacity", "--resolution", "400"],
        ["oracle", "--which", "confusable", "--n", "2", "--decoder-sees-state"],
        ["oracle", "--which", "gp-grid", "--resolution", "1" * 1500],
    )]
    # What a user deciding positivity runs: each SI model in each regime.
    corpus += [["check", path, "--si", t, "--regime", r] for t in _MODEL_TOKENS for r in ("fl", "bl", "vl")]
    corpus += [
        ["--verbose", "check", path, "--si", "-,-", "--regime", "vl"],
        [],
        ["--bogus"],
        ["--verbose"],
        ["--verb", "validate", path],
        ["-h"],
        ["check", "-h"],
        ["capacity", path, "--help"],
        ["bogus", path],
        ["check"],
        ["check", "--si", "-,-"],
        ["check", path],
        ["check", path, "--si"],
        ["check", path, "extra", "--si", "-,-"],
        ["check", path, "--si", "-,-", "--bogus"],
        ["check", path, "--si", "-,-", "--bogus", "1", "two"],
        ["check", path, "--si", "-,-", "--verbose"],
        ["check", path, "--si", "-,-", "--verbose=1"],
        ["check", "--verbose", path, "--si", "-,-"],
        ["check", path, "--si", "-,-", "-v"],
        ["check", path, "--reg", "bl", "--si", "-,-"],
        ["check", path, "--s", "sc,c"],
        ["capacity", path, "--si", "-,-", "--r", "2"],
        ["capacity", path, "--si=-,-", "--max-iter=5"],
        ["check", path, "--si", "-,-", "--=x"],
        ["check", path, "--si", "--"],
        ["check", path, "--si=--", "--regime", "bl"],
        ["check", path, "--si", "-,-", "--", "--=x"],
        ["check", "--", path, "--si", "-,-"],
        ["simulate", path, "--protocol", "nope"],
        ["simulate", path, "--protocol", "theorem5", "--seed", "-1"],
        ["validate", path, "-"],
        ["validate", ""],
    ]
    return corpus


def _parse_outcome(capsys, parse, argv):
    try:
        outcome = vars(parse(argv))
    except SystemExit as e:
        outcome = e.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


def test_both_parse_routes_agree(capsys, ex1_path):
    # A command line starting with a subcommand is parsed by its subparser
    # alone; it must give the full parser's namespace, or its exit code,
    # stdout and stderr byte for byte.
    corpus = _dispatch_corpus(ex1_path)
    assert len(corpus) > 60
    fixed = 0
    for argv in corpus:
        ours = _parse_outcome(capsys, sdchan.cli.parse_args, list(argv))
        full = _parse_outcome(capsys, _full_parse, list(argv))
        assert ours == full, argv
        fixed += sdchan.cli._parse_fixed(build_parser(), list(argv)) is not None
    assert fixed > 50


def _full_parse(argv):
    return build_parser().parse_args(sdchan.cli._fuse_si(argv))


def _canonical_value(action):
    """A value ``action`` accepts: its last choice, "3" for a typed option, else an SI token."""
    if action.choices is not None:
        return action.choices[-1]
    return "3" if action.type is not None else "c,c"


def _required_args(name):
    """Each required option of subcommand ``name``, followed by its canonical value."""
    actions = build_parser().subcommands[name]._actions
    return [arg for a in actions if a.required and a.option_strings for arg in (a.option_strings[0], _canonical_value(a))]


def test_every_declared_option_takes_the_fixed_route():
    # Read from the parser, so an option added with ``add_argument`` is
    # covered here with no edit to the route.
    parser = build_parser()
    for name, sub in parser.subcommands.items():
        table = parser.option_tables[name]
        assert set(table) == {s for a in sub._actions if a.nargs != 0 for s in a.option_strings}, name
        required = _required_args(name)
        for extra in ([], *([option, _canonical_value(action)] for option, action in table.items())):
            argv = [name, "ch.json", *required, *extra]
            args = sdchan.cli._parse_fixed(parser, argv)
            assert args is not None and args == _full_parse(argv), argv


def test_option_given_double_dash_exits_2(capsys, ex1_path):
    # Python 3.11's argparse strips ``--`` from ``--opt=--`` (``--si --`` is
    # fused to ``--si=--``) and would store [], skipping ``type`` and
    # ``choices``; the handlers then crashed with a traceback.
    cases = [[name, f"{option}=--"] for name, sub in build_parser().subcommands.items()
             for action in sub._actions if action.nargs != 0 for option in action.option_strings]
    cases += [[name, "--si", "--"] for name in ("check", "capacity", "simulate")]
    assert len(cases) > 20
    for name, *bad in cases:
        with pytest.raises(SystemExit) as info:
            main([name, ex1_path, *_required_args(name), *bad])
        option = bad[0].split("=")[0]
        assert info.value.code == 2
        assert f"error: argument {option}: expected one argument" in capsys.readouterr().err, bad


_DRAWN_VALUES = ["-,-", "c,c", "nc,-", "-,c", "sc,c", "--", "-1", "0", "3", "1_0", "nan", "inf", "1e-3",
                 "", "x y", "-x"]


@st.composite
def _drawn_argv(draw):
    """A command line from one subcommand's vocabulary, valid or not."""
    parser = build_parser()
    name = draw(st.sampled_from(sorted(parser.subcommands)))
    actions = [a for a in parser.subcommands[name]._actions if a.option_strings]
    options = [s for a in actions for s in a.option_strings]
    names = options + [s[:n] for s in options for n in (3, 5)] + ["-h", "--verbose", "--", "--bogus"]
    values = _DRAWN_VALUES + [str(c) for a in actions for c in a.choices or ()]
    path = st.sampled_from(["ch.json", "ch.json", "ch.json", "", "-", "-p"])
    token = st.sampled_from(names + values) | path
    valid = [[s, _canonical_value(a)] for a in actions if a.nargs is None for s in a.option_strings]
    valid = st.sampled_from(valid) if valid else st.nothing()
    pair = st.tuples(st.sampled_from(options), st.sampled_from(values)).map(list)
    joined = st.tuples(st.sampled_from(names), st.sampled_from(values)).map(lambda t: ["=".join(t)])
    items = [[draw(path)], *([a.option_strings[0], _canonical_value(a)] for a in actions if a.required)]
    items += draw(st.lists(valid | valid | pair | joined | token.map(lambda t: [t]), max_size=3))
    items = draw(st.permutations(items))
    head = draw(st.sampled_from([[name]] * 4 + [["--verbose", name], []]))
    kept = len(items) - draw(st.sampled_from([0, 0, 0, 1]))
    return head + [t for item in items[:kept] for t in item]


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_drawn_argv())
def test_parse_routes_agree_on_drawn_argvs(capsys, argv):
    # capsys is read after each parse, so no output carries between examples.
    assert _parse_outcome(capsys, sdchan.cli.parse_args, list(argv)) == _parse_outcome(capsys, _full_parse, list(argv))


def test_cache_clear_resets_both_parse_routes():
    first = build_parser()
    build_parser.cache_clear()
    second = build_parser()
    assert second is not first
    assert set(second.subcommands) == set(second.option_tables) == set(sdchan.cli._HANDLERS)
    assert all(second.subcommands[name] is not first.subcommands[name] for name in first.subcommands)
    assert all(action in second.subcommands[name]._actions
               for name, table in second.option_tables.items() for action in table.values())


def test_report_reproducible(capsys, ex1_path):
    # The second case spans two Monte-Carlo chunks.
    for protocol, trials in (("theorem5", 500), ("disprover", CHUNK_TRIALS + 5)):
        argv = ("simulate", ex1_path, "--protocol", protocol, "--trials", str(trials), "--seed", "3")
        _, a = run_cli(capsys, *argv)
        _, b = run_cli(capsys, *argv)
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        assert a == b


def test_verbose_summary_on_stderr(capsys, ex1_path):
    code = main(["--verbose", "check", ex1_path, "--si", "-,-", "--regime", "vl"])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)
    assert "positive" in captured.err


def _without_clock(report):
    return {k: v for k, v in report.items() if k != "wall_clock_s"}


def test_reused_parser_keeps_no_option_values(capsys, ex1_path):
    assert build_parser() is build_parser()
    simulate = ("simulate", ex1_path, "--protocol", "han-sato", "--si", "-,-", "--msg-bits", "2", "--trials", "5")
    _, report = run_cli(capsys, *simulate, "--n1", "3")
    assert report["parameters"]["n1"] == 3
    _, report = run_cli(capsys, *simulate)
    assert report["parameters"]["n1"] is None

    _, report = run_cli(capsys, "capacity", ex1_path, "--si", "-,-", "--tol", "1e-3")
    assert report["parameters"]["tol"] == 1e-3
    _, report = run_cli(capsys, "capacity", ex1_path, "--si", "-,-")
    assert report["parameters"]["tol"] == 1e-9


def test_rejected_argument_leaves_the_parser_as_new(capsys, ex1_path):
    argv = ("check", ex1_path, "--si", "-,-", "--regime", "bl")
    build_parser.cache_clear()
    _, first = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as info:
        main(["check", ex1_path, "--si", "-,-", "--regime", "xl"])
    assert info.value.code == 2
    capsys.readouterr()
    _, after = run_cli(capsys, *argv)
    assert _without_clock(after) == _without_clock(first)


def test_import_loads_no_scipy_optimize():
    # The minimax LP imports scipy.optimize when it runs; a fresh process
    # importing the package and the CLI must not pay for it.
    src = Path(sdchan.cli.__file__).resolve().parents[1]
    code = "import sys, sdchan, sdchan.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True, timeout=120
    ).stdout
    assert out.strip() == "False"


def test_console_report_is_one_line(ex1_path):
    # ``python -m sdchan.cli`` in a fresh process prints the report as one
    # line of JSON, and so an error object.
    src = Path(sdchan.cli.__file__).resolve().parents[1]
    for path, code in ((ex1_path, 0), (ex1_path + ".missing", 2)):
        run = subprocess.run([sys.executable, "-m", "sdchan.cli", "validate", path],
                             cwd=src, capture_output=True, text=True, timeout=120)
        assert run.returncode == code, run.stderr
        assert run.stdout.count("\n") == 1 and run.stdout.endswith("\n"), run.stdout
        doc = json.loads(run.stdout)
        assert doc["results"]["passed"] if code == 0 else set(doc) == {"error"}
