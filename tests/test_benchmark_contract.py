"""The benchmark's contract: its workloads run through the CLI and pass its checker.

The benchmark in ``bench/`` drives ``sdchan.cli.main`` with the calls of
``bench/workloads.py``, checks every report with ``bench/checker.Checker``,
and traces the public functions that ``bench/spans.py`` names.  This test
runs the first pass of ``capacity-ba``, ``capacity-gp`` and ``simulate`` and
five passes of ``decide``, under the tracer, at the benchmark's seed 4242.
A change that the checker refuses, or that breaks a name ``bench/`` imports
or traces, fails here.
"""

import contextlib
import io

import pytest

from sdchan import cli

SEED = 4242


def _run(units, passes, check):
    """Run every call of ``passes`` passes through ``cli.main``; return the number of calls."""
    calls = done = 0
    for unit in units:
        check.begin_unit(unit)
        for call in unit.calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(call.argv)
                except SystemExit as e:
                    code = e.code
            check.observe(calls, call, code, out.getvalue())
            calls += 1
        done += unit.pass_end
        if done == passes:
            return calls
    raise AssertionError("workload stream ended before its passes did")


@pytest.mark.parametrize("workload, passes", [("capacity-ba", 1), ("capacity-gp", 1), ("simulate", 1), ("decide", 5)])
def test_workload_passes_the_benchmark_checker(bench, tmp_path, workload, passes):
    checker, spans, workloads = bench
    check = checker.Checker()
    tracer = spans.Tracer() if workload == "decide" else None
    if tracer is not None:
        tracer.install()
    try:
        calls = _run(workloads.WORKLOADS[workload](SEED, str(tmp_path)), passes, check)
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary = check.finish()
    assert summary["correct"], summary["unexpected_failures"]
    assert summary["attempted"] == calls > 0
    if tracer is not None:
        assert tracer.stats["cli.main"][0] == calls
        assert tracer.metrics()["positivity.positivity.calls"] > 0
