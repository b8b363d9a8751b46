"""Closed-loop benchmark of the sdchan CLI.

Usage, from the repository root:

    python3 bench/run.py --workload decide --seed 1 --seconds 15 --trace 0

One caller drives ``sdchan.cli.main`` in-process and issues each call only
after the previous one returns.  The measuring window is the summed wall time
of the calls.  It holds a fixed number of whole passes over the workload's
mix, sized from ``--seconds`` (see ``workloads.passes``), so the same seed
gives the same calls and the same failures on every run.  Input files are
written and outputs checked between calls, outside the window.  Timings are declared at a reference machine speed
(see ``REF_KERNEL_S``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs the window once untraced and once with
the public functions of each module wrapped, and reports the per-layer
aggregates and the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  A full
record (provenance, failures, spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import os

# Single closed-loop caller: numerical libraries get one thread, which is
# within nproc on any machine.  Set before numpy is imported.
THREAD_CAP = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREAD_CAP

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sdchan").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    caps = {var: int(os.environ[var]) for var in THREAD_VARS}
    if max(caps.values()) > nproc:
        raise SystemExit(f"thread cap {caps} exceeds nproc {nproc}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "thread_caps": caps,
    }


# Machine speed.  On a shared machine the speed of a CPU drifts: on the
# 2-vCPU Xeon this benchmark was built on, a fixed pure-Python loop ran
# between 53 and 80 times a second within one minute, and CPU time drifted
# with wall time.  So a fixed kernel that does not touch sdchan is timed
# between calls, and every declared timing is scaled to the speed at which
# the kernel takes REF_KERNEL_S: times by REF_KERNEL_S / kernel time, rates
# by its inverse.  Raw timings are printed and recorded beside them.
REF_KERNEL_S = 1e-3
KERNEL_EVERY_S = 0.05
# Samples taken at each end of a window, and the number of samples on each
# side of a call whose median gives the call's speed.
KERNEL_EDGE = 5
KERNEL_SPAN = 5


def kernel_seconds() -> float:
    """Mean time of three runs of a fixed pure-Python loop."""
    start = time.perf_counter()
    for _ in range(3):
        s = 0
        for i in range(20000):
            s += i * i
    return (time.perf_counter() - start) / 3


def measure_setup(workdir: Path) -> dict:
    """Wall time of a fresh interpreter running ``sdchan.cli validate``.

    One unmeasured run first warms the file cache and, where Python may write
    it, the bytecode cache; a user pays those once, not once per call.
    Returns the median raw time and the median of the times scaled to the
    reference speed.
    """
    import inputs

    path = workdir / "setup.json"
    path.write_text(inputs.document(*inputs.ex1()), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "sdchan.cli", "validate", str(path)]
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        kernel = statistics.fmean(kernel_seconds() for _ in range(7))
        start = time.perf_counter()
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - start
        if r.returncode != 0:
            raise RuntimeError(f"set-up run failed with exit {r.returncode}: {r.stderr.decode()[-500:]}")
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * REF_KERNEL_S / kernel)
    return {"raw_s": statistics.median(raw), "setup_s": statistics.median(scaled)}


def warm_up(workdir: Path) -> None:
    """Run each subcommand once on a small channel, outside any window."""
    import inputs
    from sdchan import cli

    path = str(workdir / "warm.json")
    Path(path).write_text(inputs.document(*inputs.ex1()), encoding="utf-8")
    for argv in (
        ["validate", path],
        ["check", path, "--si", "-,-"],
        ["reduce", path, "--kind", "shannon-strategy"],
        ["capacity", path, "--si", "c,-"],
        ["capacity", path, "--si", "nc,-", "--restarts", "2"],
        ["simulate", path, "--protocol", "disprover", "--trials", "20"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)


def closed_loop(units, passes: int, check) -> dict:
    """Issue calls one at a time until ``passes`` passes over the workload's mix are done.

    A pass ends with a unit whose ``pass_end`` is set.  The speed kernel runs
    KERNEL_EDGE times before the first call and after the last, and once
    after every KERNEL_EVERY_S of call time.
    """
    from sdchan import cli

    latencies = []
    kernel = [kernel_seconds() for _ in range(KERNEL_EDGE)]
    kernel_before = []  # index of the kernel sample taken last before each call
    busy = 0.0
    next_kernel = KERNEL_EVERY_S
    trials = 0
    seq = 0
    done = 0
    for unit in units:
        check.begin_unit(unit)
        for call in unit.calls:
            buf = io.StringIO()
            crash = None
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                try:
                    code = cli.main(call.argv)
                except SystemExit as e:
                    code = e.code
                except Exception:  # a traceback is a failed call, not a failed run
                    code, crash = None, traceback.format_exc(limit=3)
                elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            kernel_before.append(len(kernel) - 1)
            busy += elapsed
            if crash is None:
                check.observe(seq, call, code, buf.getvalue())
            else:
                check.crashed(seq, call, crash[-300:])
            if call.command == "simulate" and code == 0:
                trials += call.params["trials"]
            seq += 1
            if busy >= next_kernel:
                kernel.append(kernel_seconds())
                next_kernel = busy + KERNEL_EVERY_S
        done += unit.pass_end
        if done == passes:
            check.end_unit()
            kernel += [kernel_seconds() for _ in range(KERNEL_EDGE)]
            # Each call is scaled by the median of the KERNEL_SPAN samples
            # taken last before it and the KERNEL_SPAN taken first after it.
            # One sample is too short to time a call of several seconds.
            local = [statistics.median(kernel[max(0, i + 1 - KERNEL_SPAN):i + 1 + KERNEL_SPAN])
                     for i in kernel_before]
            return {"latencies": latencies, "busy_s": busy, "trials": trials, "kernel": local,
                    "samples": {"kernel": kernel, "kernel_before": kernel_before}}
    raise RuntimeError("workload stream ended before the window did")


def _latency_figures(lat, busy, trials) -> dict:
    out = {"ops_per_s": len(lat) / busy, "op_p50_ms": 1e3 * statistics.median(lat)}
    if len(lat) >= 100:  # p90 only with at least ten samples beyond it
        out["op_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[8]
    if trials:
        out["trials_per_s"] = trials / busy
    return out


def latency_summary(window: dict) -> dict:
    """Raw figures of a window, and the same figures at the reference speed."""
    lat, trials = window["latencies"], window["trials"]
    scaled = [t * REF_KERNEL_S / k for t, k in zip(lat, window["kernel"])]
    return {
        "calls": len(lat),
        "latencies": lat,
        "kernel_samples": window["samples"],
        "busy_s": window["busy_s"],
        "kernel_ms": 1e3 * statistics.fmean(window["kernel"]),
        "raw": _latency_figures(lat, window["busy_s"], trials),
        "ref": _latency_figures(scaled, sum(scaled), trials),
    }


def run(args, workdir: Path) -> dict:
    import checker
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    make_units = workloads.WORKLOADS[args.workload]
    passes = workloads.passes(args.workload, args.seconds)
    record = {"provenance": dict(provenance(args), passes=passes)}
    if not args.trace:
        record["setup"] = measure_setup(workdir)
    warm_up(workdir)

    check = checker.Checker()
    window = closed_loop(make_units(args.seed, str(workdir)), passes, check)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["untraced"] = latency_summary(window)
    record["checks"] = [check.finish()]

    if args.trace:
        tracer = spans.Tracer()
        traced_check = checker.Checker()
        tracer.install()
        try:
            traced_window = closed_loop(make_units(args.seed, str(workdir)), passes, traced_check)
        finally:
            tracer.uninstall()
        record["traced"] = latency_summary(traced_window)
        record["checks"].append(traced_check.finish())
        layer = tracer.metrics()
        untraced_ops = record["untraced"]["ref"]["ops_per_s"]
        traced_ops = record["traced"]["ref"]["ops_per_s"]
        layer["trace.untraced_ops_per_s"] = untraced_ops
        layer["trace.traced_ops_per_s"] = traced_ops
        layer["trace.ops_per_s_ratio"] = traced_ops / untraced_ops
        record["spans"] = {name: {"calls": s[0], "busy_s": s[1], "self_s": s[2]} for name, s in tracer.stats.items()}
        units = {name: unit for name, unit, _ in spans.metric_names()}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        ref = record["untraced"]["ref"]
        metrics = {
            "setup_s": {"value": record["setup"]["setup_s"], "unit": "s"},
            "ops_per_s": {"value": ref["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": ref["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines and return the final result object."""
    checks = record["checks"]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    if "setup" in record:
        print(f"setup     raw {record['setup']['raw_s']:.6g} s, at reference speed {record['setup']['setup_s']:.6g} s")
    for window in ("untraced", "traced"):
        if window in record:
            summary = record[window]
            print(f"{window:9s} {summary['calls']} calls in {summary['busy_s']:.4g} s; speed kernel "
                  f"{summary['kernel_ms']:.4g} ms (reference {1e3 * REF_KERNEL_S:g} ms)")
            for name, value in summary["raw"].items():
                print(f"{window:9s} {name:14s} {value:.6g}   at reference speed {summary['ref'][name]:.6g}")
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} calls)")
    for c in checks:
        for kind, info in c["known_failures"].items():
            print(f"known failure {kind}: {info['count']} calls ({info['why']})")
        for f in c["unexpected_failures"]:
            print("UNEXPECTED failure " + json.dumps(f))
    for name, m in record["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": all(c["correct"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdchan" / "cli.py").is_file():
        print(f"error: no sdchan sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sdchan

    if Path(sdchan.__file__).resolve().parent != SRC / "sdchan":
        print(f"error: imported sdchan from {sdchan.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(record)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(record, result=result), indent=1, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
