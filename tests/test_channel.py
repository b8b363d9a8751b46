import json

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
    support,
    validate,
)
from sdchan.cli import main
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


def test_roundtrip_bit_exact(rng):
    for _ in range(25):
        ch = random_channel(rng)
        again = load_channel(serialize(ch))
        assert np.array_equal(again.W, ch.W)
        assert np.array_equal(again.Q, ch.Q)
        assert serialize(again) == serialize(ch)


def test_support_examples():
    ch = ch_ex1()
    assert support(ch, 0, 0) == {0}
    assert support(ch, 1, 0) == {0, 1}
    assert ch_triv().support(0, 0) == {0}
    with pytest.raises(IndexError):
        support(ch, 2, 0)


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
        for xx in range(ch.nx):
            for ss in range(ch.ns):
                assert scaled.support(xx, ss) == ch.support(xx, ss)


def test_si_model_tokens_and_order():
    si = SiModel.from_token("sc,c")
    assert si.encoder is Si.STRICTLY_CAUSAL and si.decoder is Si.CAUSAL
    assert si.token == "sc,c"
    assert SiModel.from_token("-,-") <= SiModel.from_token("nc,nc")
    assert SiModel.from_token("sc,-") <= SiModel.from_token("c,-")
    assert not (SiModel.from_token("c,-") <= SiModel.from_token("sc,c"))
    with pytest.raises(UnsupportedModel):
        SiModel.from_token("c,sc")
    with pytest.raises(UnsupportedModel):
        SiModel.from_token("bogus")


def test_regime_tokens():
    assert Regime.from_token("fl") is Regime.FIXED_LENGTH
    with pytest.raises(UnsupportedModel):
        Regime.from_token("xl")


def test_immutability():
    ch = ch_ex1()
    with pytest.raises(ValueError):
        ch.W[0, 0, 0] = 0.5
