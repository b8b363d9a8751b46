"""The benchmark's per-layer tracer wraps functions by name; each must exist and see its calls."""

import importlib
import importlib.util
from pathlib import Path

import sdchan.cli  # noqa: F401  (imports every module the tracer wraps)
from sdchan import SiModel
from conftest import ch_ex1

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_are_callables():
    spans = _spans()
    for module, funcs in spans.TRACED.items():
        home = importlib.import_module(f"sdchan.{module}")
        for func in funcs:
            assert callable(getattr(home, func, None)), f"sdchan.{module}.{func}"


def test_tracer_sees_every_vanishing_capacity_row():
    # Each row of capacity._VALUES must call the optimizers and reductions
    # through module globals, or the tracer's wrappers miss them.
    averaged = {"reductions.average_states": 1, "capacity.blahut_arimoto": 1}
    joint = {"reductions.joint_output_channel": 1, "capacity.blahut_arimoto": 1}
    per_state = {"capacity.capacity_cond_iid": 1, "capacity.blahut_arimoto": 2}
    expected = {
        "-,-": averaged,
        "sc,-": averaged,
        "c,-": {"capacity.shannon_strategy_capacity": 1, "reductions.shannon_strategy_channel": 1,
                "reductions.enumerate_strategy_letters": 1, "capacity.blahut_arimoto": 1},
        "nc,-": {"capacity.gelfand_pinsker_capacity": 1, "reductions.enumerate_strategy_letters": 1},
        "sc,c": joint,
        "c,c": per_state,
        "nc,c": per_state,
        "nc,nc": per_state,
        "-,c": joint,
    }
    capacity = importlib.import_module("sdchan.capacity")
    spans = _spans()
    for token, calls in expected.items():
        tracer = spans.Tracer()
        tracer.install()
        try:
            capacity.vanishing_capacity(ch_ex1(), SiModel.from_token(token))
        finally:
            tracer.uninstall()
        seen = {name: stats[0] for name, stats in tracer.stats.items() if stats[0]}
        assert seen == {"capacity.vanishing_capacity": 1, **calls}, token
