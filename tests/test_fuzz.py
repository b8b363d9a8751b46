"""Hypothesis fuzzing of the channel parser and the CLI on arbitrary JSON documents."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from sdchan import SdDmc, SdchanError
from sdchan.channel import parse_channel
from sdchan.cli import main

FUZZ = settings(max_examples=100, derandomize=True, deadline=None)

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=24,
)
# Documents with the required keys reach the array conversion and the validator.
channel_like = st.fixed_dictionaries(
    {"Q": json_values, "W": json_values},
    optional={"inputs": json_values, "outputs": json_values, "states": json_values},
)


def _uniform(n):
    return st.just([1.0 / n] * n)


def _stochastic(n):
    return st.sampled_from([[float(i == j) for j in range(n)] for i in range(n)] + [[1.0 / n] * n])


def _arbitrary(n):
    return st.lists(st.floats() | st.integers(), min_size=n, max_size=n)


def _shaped(q_row, w_row):
    return st.tuples(st.integers(1, 3), st.integers(2, 3), st.integers(2, 3)).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "Q": q_row(n[0]),
                "W": st.lists(st.lists(w_row(n[2]), min_size=n[1], max_size=n[1]), min_size=n[0], max_size=n[0]),
            }
        )
    )


# Well-shaped documents reach the validator's later checks; those made of
# stochastic rows often pass it and reach the positivity checkers.
shaped = _shaped(_uniform, _stochastic) | _shaped(_arbitrary, _arbitrary)
documents = (json_values | channel_like | shaped).map(json.dumps)


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@FUZZ
@given(documents)
def test_parse_channel_returns_a_channel_or_raises_sdchan_error(text):
    try:
        channel = parse_channel(text)
    except SdchanError:
        return
    assert isinstance(channel, SdDmc)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "channel.json"


@FUZZ
@given(text=documents)
def test_main_exits_0_to_4_with_strict_json(doc_path, text):
    doc_path.write_text(text, encoding="utf-8")
    for argv in (["validate", str(doc_path)], ["check", str(doc_path), "--si", "-,-"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in range(5), argv
        json.loads(out.getvalue(), parse_constant=_reject_constant)
