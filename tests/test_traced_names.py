"""The benchmark's per-layer tracer wraps functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_names_are_callables():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, funcs in spans.TRACED.items():
        home = importlib.import_module(f"sdchan.{module}")
        for func in funcs:
            assert callable(getattr(home, func, None)), f"sdchan.{module}.{func}"
