import json
import re

import numpy as np
import pytest

from sdchan import (
    Dmc,
    ParseError,
    Regime,
    SdDmc,
    Si,
    SiModel,
    UnsupportedModel,
    ValidationError,
    load_channel,
    serialize,
    validate,
)
from sdchan.channel import _MODEL_TOKENS, parse_channel, support_pattern
from sdchan.cli import main
from sdchan.capacity import _VALUES
from sdchan.positivity import _ROUTES
from sdchan.protocols import _REDUCED
from conftest import ch_ex1, ch_triv, random_channel


def test_load_triv():
    text = json.dumps({"Q": [1.0], "W": [[[1.0, 0.0], [0.0, 1.0]]]})
    ch = load_channel(text)
    assert ch.ns == 1 and ch.nx == 2 and ch.ny == 2
    assert ch.x_labels == ("x0", "x1")


def test_load_ex1():
    ch = load_channel(serialize(ch_ex1()))
    assert ch == ch_ex1()


def test_load_rejects_zero_state_probability():
    doc = json.loads(serialize(ch_ex1()))
    doc["Q"] = [1.0, 0.0]
    with pytest.raises(ValidationError, match="state_distribution"):
        load_channel(json.dumps(doc))


def test_load_rejects_malformed_json():
    with pytest.raises(ParseError):
        load_channel("{not json")
    with pytest.raises(ParseError):
        load_channel(json.dumps([1, 2]))
    with pytest.raises(ParseError):
        load_channel(json.dumps({"Q": [1.0]}))
    with pytest.raises(ParseError):
        load_channel(json.dumps({"Q": [1.0], "W": [[["a", 1.0]]]}))


@pytest.mark.parametrize(
    "text",
    [
        '{"Q": [1.0], "W": [[[1' + "0" * 400 + ', 0.0], [0.0, 1.0]]]}',  # no float holds this integer
        "[" * 100_000 + "]" * 100_000,  # deeper than the JSON decoder recurses
    ],
    ids=["huge-integer", "deep-nesting"],
)
def test_hostile_document_is_a_parse_error_exit_2(tmp_path, capsys, text):
    with pytest.raises(ParseError):
        load_channel(text)
    path = tmp_path / "hostile.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert "error" in json.loads(capsys.readouterr().out)


_IDENTITY = [[[1.0, 0.0], [0.0, 1.0]]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"Q": [1.0], "W": []}, "W must be a 3-level [state][input][output] tensor, got ndim=1"),
        ({"Q": [1.0], "W": [_IDENTITY]}, "W must be a 3-level [state][input][output] tensor, got ndim=4"),
        ({"Q": [0.5, 0.5], "W": _IDENTITY}, "Q has 2 entries, but W has 1 states"),
        ({"Q": [[1.0]], "W": _IDENTITY}, "Q must be a 1-level array of state probabilities, got ndim=2"),
        ({"Q": [1.0], "W": _IDENTITY, "inputs": ["a", "b", "c"]}, "inputs has 3 entries, expected 2"),
    ],
    ids=["empty-W", "four-level-W", "Q-too-long", "two-level-Q", "three-input-labels"],
)
def test_wrong_shape_document_is_a_parse_error_exit_2(tmp_path, capsys, doc, message):
    # Such a document has no channel for validate to report on.  The library
    # constructor still raises ValidationError on the same arrays.
    with pytest.raises(ValidationError) as raised:
        SdDmc(W=doc["W"], Q=doc["Q"], x_labels=doc.get("inputs", ()))
    assert str(raised.value) == message
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(message)):
        load_channel(path.read_text())
    for argv in (["validate", str(path)], ["check", str(path), "--si", "-,-"]):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and json.loads(out) == {"error": message}, argv


@pytest.mark.parametrize("key", ["inputs", "outputs", "states"])
def test_label_length_error_names_the_document_key(tmp_path, capsys, key):
    doc = json.loads(serialize(ch_ex1()))
    doc[key] = ["a", "b", "c"]
    message = f"{key} has 3 entries, expected 2"
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_channel(json.dumps(doc))
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": message}
    if key != "states":  # a Dmc's labels name the same keys
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Dmc(W=np.eye(2), **{"x_labels" if key == "inputs" else "y_labels": ("a", "b", "c")})


# (where in the document, entry): each channel was valid, or invalid with a
# NaN for null, with the entry read as a number.
_NOT_NUMBERS = [
    (("W", 0, 0, 0), "0.5"),
    (("W", 0, 1, 0), " 0.0 "),
    (("W", 0, 1, 1), "1e0"),
    (("W", 0, 1, 1), True),
    (("W", 0, 1, 0), False),
    (("W", 0, 1, 0), None),
    (("Q", 0), "1e0"),
    (("Q", 0), True),
]


@pytest.mark.parametrize("where, entry", _NOT_NUMBERS, ids=[f"{w[0]}-{json.dumps(e)}" for w, e in _NOT_NUMBERS])
def test_entries_of_w_and_q_must_be_json_numbers(tmp_path, capsys, where, entry):
    doc = {"Q": [1.0], "W": [[[0.5, 0.5], [0.0, 1.0]]]}
    key, *at, last = where
    container = doc[key]
    for i in at:
        container = container[i]
    container[last] = entry
    message = f"channel document key {key!r} must hold only JSON numbers"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_channel(json.dumps(doc))
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["check", str(path), "--si", "-,-"]):
        assert main(argv) == 2, argv
        assert json.loads(capsys.readouterr().out) == {"error": message}


def test_nan_and_infinity_entries_stay_invalid_channels_exit_1(tmp_path, capsys):
    # json reads the NaN and Infinity tokens as floats: the document parses,
    # and validate reports the entry.
    for token in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / f"{token}.json"
        path.write_text('{"Q": [1.0], "W": [[[%s, 0.5], [0.0, 1.0]]]}' % token)
        assert main(["validate", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["checks"][1]["name"] == "entry_range"


_UNDERFLOWS = [
    ("W", '{"Q": [1.0], "W": [[[1e-400, 1.0], [0.5, 0.5]]]}'),
    ("W", '{"Q": [1.0], "W": [[[0.%s1, 1.0], [0.5, 0.5]]]}' % ("0" * 400)),
    ("Q", '{"Q": [1.0, 1E-999], "W": [[[0.5, 0.5], [0.0, 1.0]], [[0.5, 0.5], [0.0, 1.0]]]}'),
]


@pytest.mark.parametrize("key, text", _UNDERFLOWS, ids=["exponent", "decimal", "Q"])
def test_a_nonzero_number_that_underflows_is_a_parse_error_exit_2(tmp_path, capsys, key, text):
    # Read as 0.0, the first entry of W would be a structural zero, and
    # check --si -,- would answer positive with the witness x=0, y=0.
    message = f"channel document key {key!r} holds a nonzero number that underflows to 0.0"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_channel(text)
    path = tmp_path / "underflow.json"
    path.write_text(text)
    for argv in (["validate", str(path)], ["check", str(path), "--si", "-,-"]):
        assert main(argv) == 2, argv
        assert json.loads(capsys.readouterr().out) == {"error": message}


def test_a_subnormal_entry_stays_nonzero(tmp_path, capsys):
    # 1e-320 parses to a nonzero subnormal, so no output of this channel is
    # impossible from any input and the -,- verdict is zero.
    path = tmp_path / "subnormal.json"
    path.write_text('{"Q": [1.0], "W": [[[1e-320, 1.0], [0.5, 0.5]]]}')
    assert parse_channel(path.read_text()).W[0, 0, 0] == 1e-320
    assert main(["check", str(path), "--si", "-,-"]) == 3
    assert json.loads(capsys.readouterr().out)["results"]["decision"] == "zero"


@pytest.mark.parametrize(
    "labels",
    ["ab", {"a": 1, "b": 2}, [[1], [2]], [1, 1], ["a", "a"]],
    ids=["string", "object", "nested-lists", "duplicate-numbers", "duplicate-strings"],
)
def test_labels_must_be_distinct_strings(tmp_path, capsys, labels):
    for key in ("inputs", "outputs", "states"):
        doc = json.loads(serialize(ch_ex1()))
        doc[key] = labels
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        assert main(["reduce", str(path), "--kind", "average"]) == 2
        assert f"{key!r} must be an array of distinct strings" in json.loads(capsys.readouterr().out)["error"]


def test_absent_null_or_empty_labels_get_defaults():
    for labels in ("absent", None, []):
        doc = json.loads(serialize(ch_ex1()))
        for key in ("inputs", "outputs", "states"):
            if labels == "absent":
                del doc[key]
            else:
                doc[key] = labels
        ch = load_channel(json.dumps(doc))
        assert (ch.x_labels, ch.y_labels, ch.s_labels) == (("x0", "x1"), ("y0", "y1"), ("s0", "s1"))


def test_dmc_rejects_exactly_what_validate_rejects(rng):
    # Dmc and validate share one entry-range and row-sum check; on a one-state
    # channel they must agree matrix by matrix, within-tolerance drift included.
    faults = ("none", "nan", "negative", "above_one", "drift_in_tol", "drift_out_of_tol")
    for i in range(300):
        W = rng.dirichlet(np.ones(int(rng.integers(1, 4))), size=int(rng.integers(1, 4)))
        x, y = int(rng.integers(W.shape[0])), int(rng.integers(W.shape[1]))
        fault = faults[i % len(faults)]
        if fault == "nan":
            W[x, y] = np.nan
        elif fault == "negative":
            W[x, y] = -0.25
        elif fault == "above_one":
            W[x, y] = 1.25
        elif fault.startswith("drift"):
            W[x] *= 1.0 + (1e-12 if fault == "drift_in_tol" else 1e-6)
        failed = [c.name for c in validate(SdDmc(W=W[None], Q=[1.0])).failures()
                  if c.name in ("entry_range", "row_stochastic")]
        if failed:
            with pytest.raises(ValidationError, match=f"^{failed[0]}: "):
                Dmc(W=W)
        else:
            Dmc(W=W)


def test_no_silent_renormalization():
    doc = json.loads(serialize(ch_ex1()))
    doc["W"][0][1] = [0.45, 0.45]
    with pytest.raises(ValidationError, match="row_stochastic"):
        load_channel(json.dumps(doc))
    doc = json.loads(serialize(ch_ex1()))
    doc["Q"] = [0.4, 0.4]
    with pytest.raises(ValidationError, match="state_distribution"):
        load_channel(json.dumps(doc))


def test_validate_passes_examples():
    assert validate(ch_ex1()).passed
    assert validate(ch_triv()).passed


def test_validate_unreachable_output():
    ch = SdDmc(W=[[[1.0, 0.0], [1.0, 0.0]]], Q=[1.0])
    report = validate(ch)
    assert not report.passed
    names = [c.name for c in report.failures()]
    assert names == ["every_output_reachable"]
    assert "y=1" in report.failures()[0].detail


def test_validate_alphabet_sizes():
    ch = SdDmc(W=[[[0.5, 0.5]]], Q=[1.0])
    report = validate(ch)
    assert not report.passed
    assert report.failures()[0].name == "alphabet_sizes"


def test_validate_entry_range():
    ch = SdDmc(W=[[[1.5, -0.5], [0.0, 1.0]]], Q=[1.0])
    names = [c.name for c in validate(ch).failures()]
    assert "entry_range" in names


def test_nan_entry_fails_entry_range(tmp_path):
    text = '{"Q": [1.0], "W": [[[NaN, 1.0], [0.0, 1.0]]]}'
    ch = SdDmc(W=[[[np.nan, 1.0], [0.0, 1.0]]], Q=[1.0])
    assert [c.name for c in validate(ch).failures()] == ["entry_range"]
    with pytest.raises(ValidationError, match="entry_range"):
        load_channel(text)
    with pytest.raises(ValidationError, match="outside"):
        Dmc(W=[[np.nan, 1.0], [0.0, 1.0]])
    path = tmp_path / "nan.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert main(["check", str(path), "--si", "-,-"]) == 1


_VALID_W = [[[1.0, 0.0], [0.5, 0.5]], [[0.25, 0.75], [0.0, 1.0]]]
_CHECK_NAMES = ("alphabet_sizes", "entry_range", "row_stochastic", "state_distribution", "every_output_reachable")


def _faulty_document(fault: str) -> str:
    W = json.loads(json.dumps(_VALID_W))
    Q = [0.5, 0.5]
    if fault == "nan":
        W[0][0][0] = float("nan")
    elif fault == "above_one":
        W[1][1] = [0.0, 1.25]
    elif fault == "negative":
        W[0][1] = [-0.25, 1.25]
    elif fault == "row_drift":
        W[1][0] = [0.25, 0.750001]
    elif fault == "zero_state":
        Q = [1.0, 0.0]
    elif fault == "q_sum":
        Q = [0.4, 0.4]
    elif fault == "unreachable":
        W = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
    elif fault == "small_alphabets":
        W, Q = [[[1.0], [1.0]]], [1.0]
    elif fault == "empty_output_axis":
        W, Q = [[[]]], [1.0]
    return json.dumps({"Q": Q, "W": W})  # NaN is written as the token NaN


@pytest.mark.parametrize(
    "fault, failures",
    [
        ("none", {}),
        ("nan", {"entry_range": "W[s=0][x=0][y=0]=nan outside [0, 1]"}),
        ("above_one", {"entry_range": "W[s=1][x=1][y=1]=1.25 outside [0, 1]",
                       "row_stochastic": "row (s=1, x=1) sums to 1.25"}),
        ("negative", {"entry_range": "W[s=0][x=1][y=0]=-0.25 outside [0, 1]"}),
        ("row_drift", {"row_stochastic": "row (s=1, x=0) sums to 1.0000010000000001"}),
        ("zero_state", {"state_distribution": "Q[s=1]=0.0 is not strictly positive"}),
        ("q_sum", {"state_distribution": "Q sums to 0.8, not 1"}),
        ("unreachable", {"every_output_reachable": "output y=1 is unreachable from every (x, s)"}),
        ("small_alphabets", {"alphabet_sizes": "need |X|>=2, |Y|>=2, |S|>=1; got (2, 1, 1)"}),
        ("empty_output_axis", {"alphabet_sizes": "need |X|>=2, |Y|>=2, |S|>=1; got (1, 0, 1)",
                               "row_stochastic": "row (s=0, x=0) sums to 0.0"}),
    ],
)
def test_validate_report_is_pinned(tmp_path, capsys, fault, failures):
    # The whole report: every check in order, whether it passed, and its
    # detail, which prints plain floats.  load_channel raises on the first
    # failure with the same detail.
    text = _faulty_document(fault)
    expected = [{"name": n, "passed": n not in failures, "detail": failures.get(n, "")} for n in _CHECK_NAMES]
    assert validate(parse_channel(text)).to_jsonable() == {"passed": not failures, "checks": expected}
    path = tmp_path / "channel.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == (1 if failures else 0)
    captured = capsys.readouterr()
    assert json.loads(captured.out)["results"]["checks"] == expected
    assert "Traceback" not in captured.err
    if failures:
        name, detail = next(iter(failures.items()))
        with pytest.raises(ValidationError) as raised:
            load_channel(text)
        assert str(raised.value) == f"{name}: {detail}"
    else:
        load_channel(text)


def test_roundtrip_bit_exact(rng):
    for _ in range(25):
        ch = random_channel(rng)
        again = load_channel(serialize(ch))
        assert np.array_equal(again.W, ch.W)
        assert np.array_equal(again.Q, ch.Q)
        assert serialize(again) == serialize(ch)


def test_support_examples():
    pattern = support_pattern(ch_ex1())
    assert np.flatnonzero(pattern[0, 0]).tolist() == [0]
    assert np.flatnonzero(pattern[0, 1]).tolist() == [0, 1]
    assert np.flatnonzero(support_pattern(ch_triv())[0, 0]).tolist() == [0]


def test_support_scaling_invariance(rng):
    # Rescaling the nonzero mass of a row never changes any support set.
    for _ in range(25):
        ch = random_channel(rng)
        W = np.array(ch.W)
        s = int(rng.integers(ch.ns))
        x = int(rng.integers(ch.nx))
        row = W[s, x]
        nz = row > 0
        if nz.sum() < 2:
            continue
        row[nz] = rng.dirichlet(np.ones(int(nz.sum())))
        scaled = SdDmc(W=W, Q=ch.Q)
        assert np.array_equal(support_pattern(scaled), support_pattern(ch))


def test_si_model_tokens_and_order():
    si = SiModel.from_token("sc,c")
    assert si.encoder is Si.STRICTLY_CAUSAL and si.decoder is Si.CAUSAL
    assert si.token == "sc,c"
    assert SiModel.from_token("-,-") <= SiModel.from_token("nc,nc")
    assert SiModel.from_token("sc,-") <= SiModel.from_token("c,-")
    assert not (SiModel.from_token("c,-") <= SiModel.from_token("sc,c"))
    assert SiModel.from_token("nc,c") >= SiModel.from_token("sc,-")
    with pytest.raises(UnsupportedModel):
        SiModel.from_token("c,sc")
    with pytest.raises(UnsupportedModel):
        SiModel.from_token("bogus")


def test_one_si_model_list():
    assert SiModel.from_token(_MODEL_TOKENS[-1]) == SiModel(Si.NONE, Si.CAUSAL)
    assert tuple(_ROUTES) == tuple(_VALUES) == tuple(_REDUCED) == _MODEL_TOKENS
    assert _MODEL_TOKENS[-1] == "-,c"
    assert [si.level for si in Si] == [0, 1, 2, 3]


def test_regime_tokens():
    assert Regime.from_token("fl") is Regime.FIXED_LENGTH
    with pytest.raises(UnsupportedModel):
        Regime.from_token("xl")


def test_immutability():
    ch = ch_ex1()
    with pytest.raises(ValueError):
        ch.W[0, 0, 0] = 0.5


def test_dmc_rejects_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValidationError, match="must be 2-dimensional, got ndim=3"):
        Dmc(W=_IDENTITY)
    for W in (np.zeros((0, 2)), np.zeros((2, 0))):
        with pytest.raises(ValidationError, match="at least one input and one output"):
            Dmc(W=W)


def test_channel_equality_is_field_wise():
    ch = ch_ex1()
    assert ch == ch_ex1() and not ch != ch_ex1()
    assert Dmc(W=np.eye(2)) == Dmc(W=np.eye(2))
    # A Dmc never equals an SdDmc, even on the same matrix and labels.
    assert Dmc(W=np.eye(2)) != SdDmc(W=[np.eye(2)], Q=[1.0])
    assert SdDmc(W=[np.eye(2)], Q=[1.0]) != Dmc(W=np.eye(2))
    # One differing label, entry or shape makes two channels unequal.
    assert ch != SdDmc(W=ch.W, Q=ch.Q, s_labels=("s0", "t"))
    assert Dmc(W=np.eye(2)) != Dmc(W=np.eye(2), y_labels=("y0", "z"))
    assert Dmc(W=np.eye(2)) != Dmc(W=[[0.0, 1.0], [1.0, 0.0]])
    assert SdDmc(W=[np.eye(2)], Q=[1.0]) != SdDmc(W=[np.eye(2)] * 2, Q=[0.5, 0.5])
    nan = SdDmc(W=[[[np.nan, 1.0], [0.0, 1.0]]], Q=[1.0])
    assert nan != nan
    for channel in (ch, Dmc(W=np.eye(2))):
        with pytest.raises(TypeError):
            hash(channel)
