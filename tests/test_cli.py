import json

import numpy as np
import pytest

from sdchan import serialize
from sdchan.cli import main
from conftest import ch_ex1, ch_ex2, ch_ex3, ch_triv


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(serialize(ch_ex1()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
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


def test_reduce_average(capsys, ex1_path):
    code, report = run_cli(capsys, "reduce", ex1_path, "--kind", "average")
    assert code == 0
    assert report["results"]["W"] == [[1.0, 0.0], [0.25, 0.75]]


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
    code, report = run_cli(capsys, "simulate", str(path), "--protocol", "disprover", "--trials", "10")
    assert code == 5
    assert "error" in report


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
        trace_path = tmp_path / f"{protocol}.jsonl"
        code, _ = run_cli(
            capsys,
            "simulate",
            ex1_path,
            "--protocol",
            protocol,
            *extra,
            "--trials",
            "10",
            "--trace-path",
            str(trace_path),
        )
        assert code == 0
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert "tau" in lines[-1]
        assert lines[-1]["decoded"] == lines[-1]["message"]
        if protocol == "han-sato":  # only phase 1 is traced; tau adds the acknowledgement
            assert lines[-1]["tau"] > lines[-2]["n"]
        else:
            assert lines[-1]["tau"] == lines[-2]["n"]


def test_simulate_trace_path_unwritable(capsys, ex1_path, tmp_path):
    trace_path = tmp_path / "missing" / "trace.jsonl"
    code, report = run_cli(
        capsys, "simulate", ex1_path, "--protocol", "theorem5", "--trials", "10", "--trace-path", str(trace_path)
    )
    assert code == 2
    assert "error" in report


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--protocol", "theorem5", "--trials", "0"],
        ["simulate", "--protocol", "han-sato", "--si", "-,-", "--msg-bits", "-1"],
        ["capacity", "--si", "nc,-", "--restarts", "-1"],
    ],
)
def test_bad_numeric_arguments_exit_2(ex1_path, argv):
    with pytest.raises(SystemExit) as info:
        main([argv[0], ex1_path, *argv[1:]])
    assert info.value.code == 2


def test_oracle_grid(capsys, ex1_path):
    code, report = run_cli(capsys, "oracle", ex1_path, "--which", "grid-capacity", "--resolution", "400")
    assert code == 0
    assert report["results"]["agreement"]


def test_oracle_confusable(capsys, ex1_path):
    code, report = run_cli(
        capsys, "oracle", ex1_path, "--which", "confusable", "--n", "2", "--decoder-sees-state"
    )
    assert code == 0
    assert report["results"]["agreement"]


def test_report_reproducible(capsys, ex1_path):
    _, a = run_cli(capsys, "simulate", ex1_path, "--protocol", "theorem5", "--trials", "500", "--seed", "3")
    _, b = run_cli(capsys, "simulate", ex1_path, "--protocol", "theorem5", "--trials", "500", "--seed", "3")
    a.pop("wall_clock_s")
    b.pop("wall_clock_s")
    assert a == b


def test_verbose_summary_on_stderr(capsys, ex1_path):
    code = main(["--verbose", "check", ex1_path, "--si", "-,-", "--regime", "vl"])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)
    assert "positive" in captured.err
