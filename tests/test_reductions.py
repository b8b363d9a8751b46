import warnings

import numpy as np
import pytest

from sdchan import (
    AlphabetTooLarge,
    SdDmc,
    ValidationError,
    average_states,
    enumerate_strategy_letters,
    extend_with_termination,
    joint_output_channel,
    joint_output_index,
    shannon_strategy_channel,
)
from conftest import bsc, ch_ex1, ch_ex2, ch_ex3, ch_triv, random_channel


def test_average_triv_identity():
    avg = average_states(ch_triv())
    assert np.array_equal(avg.W, np.eye(2))


def test_average_ex1_values():
    avg = average_states(ch_ex1(p=0.5))
    assert np.allclose(avg.W, [[1.0, 0.0], [0.25, 0.75]], atol=1e-12)
    assert avg.W[0, 1] == 0.0  # structural zero survives the averaging


def test_average_ex2_is_uniform():
    avg = average_states(ch_ex2())
    assert np.allclose(avg.W, 0.5)


def test_average_matches_manual_sum(rng):
    for _ in range(20):
        ch = random_channel(rng)
        avg = average_states(ch)
        manual = sum(ch.Q[s] * ch.W[s] for s in range(ch.ns))
        manual = manual / manual.sum(axis=1, keepdims=True)
        assert np.allclose(avg.W, manual, atol=1e-12)


def test_reductions_keep_every_structural_nonzero():
    # Q(s0) * W(y0 | x0, s0) = 1e-400 underflows to 0.0, but input 0 can
    # produce output 0 in state s0, so no reduction may make that a zero.
    ch = SdDmc(W=[[[1e-100, 1.0], [0.5, 0.5]], [[0.0, 1.0], [0.5, 0.5]]], Q=[1e-300, 1.0])
    assert np.array_equal(average_states(ch).W != 0.0, [[True, True], [True, True]])
    lifted, letters = shannon_strategy_channel(ch)
    assert letters == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert np.array_equal(lifted.W != 0.0, np.ones((4, 2), dtype=bool))
    joint = joint_output_channel(ch)
    assert joint.W[0, joint_output_index(ch, 0, 0)] > 0.0
    assert joint.W[0, joint_output_index(ch, 0, 1)] == 0.0


def test_average_empty_input_row_names_the_input():
    # Construction checks only shapes, so a library-built channel can have an
    # input that reaches no output in any state.
    ch = SdDmc(W=[[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.5], [0.0, 0.0]]], Q=[0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="input 'x1'"):
            average_states(ch)


@pytest.mark.parametrize(
    "channel, reductions",
    [
        # State 0 gives input 0 no output and state 1 gives input 1 none, so
        # only the strategy letter (0, 1) has an empty row.
        (SdDmc(W=[[[0.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.0, 0.0]]], Q=[0.5, 0.5]),
         [(shannon_strategy_channel, "input 'u01' \\(x=1\\)")]),
        (SdDmc(W=[[[0.0, 0.0], [0.5, 0.5]]], Q=[1.0]),
         [(average_states, "input 'x0' \\(x=0\\)"),
          (shannon_strategy_channel, "input 'u0' \\(x=0\\)"),
          (joint_output_channel, "input 'x0' \\(x=0\\)")]),
    ],
    ids=["two-state", "one-state"],
)
def test_every_reduction_rejects_an_empty_row(channel, reductions):
    # The suite turns RuntimeWarning into an error, so a 0/0 renormalization
    # would fail here before any ValidationError.
    for reduce, row in reductions:
        with pytest.raises(ValidationError, match="row_stochastic: " + row):
            reduce(channel)


def test_strategy_letters_lexicographic():
    letters = enumerate_strategy_letters(2, 2)
    assert letters == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_strategy_channel_triv_degenerates():
    lifted, letters = shannon_strategy_channel(ch_triv())
    assert letters == [(0,), (1,)]
    assert np.array_equal(lifted.W, np.eye(2))


def test_strategy_channel_ex1():
    lifted, letters = shannon_strategy_channel(ch_ex1())
    assert len(letters) == 4
    u = letters.index((0, 0))
    assert lifted.W[u, 1] == 0.0


def test_strategy_labels_are_distinct_past_ten_inputs():
    # With 12 inputs, u = (1, 11) and (11, 1) both ran together to "u111".
    W = np.zeros((2, 12, 2))
    W[:, :, 0] = 1.0
    lifted, letters = shannon_strategy_channel(SdDmc(W=W, Q=[0.5, 0.5]))
    assert len(set(lifted.x_labels)) == len(letters) == 144
    assert lifted.x_labels[letters.index((1, 11))] == "u1.11"
    # Up to 10 inputs the labels keep their run-together digits.
    lifted, letters = shannon_strategy_channel(SdDmc(W=W[:, :10], Q=[0.5, 0.5]))
    assert lifted.x_labels[letters.index((1, 9))] == "u19"


def test_strategy_channel_cap(monkeypatch):
    # 13 binary-input states give 2**13 = 8192 letters, above the cap of 4096;
    # the cap is checked before any letter is built.
    monkeypatch.setattr("sdchan.reductions.enumerate_strategy_letters", None)
    with pytest.raises(AlphabetTooLarge):
        shannon_strategy_channel(SdDmc(W=[np.eye(2)] * 13, Q=np.full(13, 1 / 13)))


def test_joint_output_ex3_zero_entry():
    joint = joint_output_channel(ch_ex3(p=0.3, q=0.5))
    # x=0 cannot produce output 1 in the noiseless state s1.
    assert joint.W[0, joint_output_index(ch_ex3(), 1, 1)] == 0.0


def test_joint_output_stochastic(rng):
    for _ in range(20):
        ch = random_channel(rng)
        joint = joint_output_channel(ch)
        assert np.allclose(joint.W.sum(axis=1), 1.0, atol=1e-9)
        assert joint.ny == ch.ny * ch.ns


def test_joint_output_triv_relabel_only():
    joint = joint_output_channel(ch_triv())
    assert np.array_equal(joint.W, np.eye(2))


def test_termination_identity():
    ext = extend_with_termination(average_states(ch_triv()))
    assert np.array_equal(ext.W, np.eye(3))


def test_termination_bsc():
    ext = extend_with_termination(bsc(0.3))
    assert np.allclose(ext.W[:2, :2], bsc(0.3).W)
    assert np.array_equal(ext.W[2], [0.0, 0.0, 1.0])
    assert np.array_equal(ext.W[:, 2], [0.0, 0.0, 1.0])
    assert ext.x_labels[-1] == "T"


def test_termination_grows_by_one(rng):
    for _ in range(10):
        dmc = average_states(random_channel(rng))
        ext = extend_with_termination(dmc)
        assert ext.nx == dmc.nx + 1 and ext.ny == dmc.ny + 1
        assert np.allclose(ext.W.sum(axis=1), 1.0, atol=1e-9)


def test_reductions_preserve_stochasticity(rng):
    for _ in range(20):
        ch = random_channel(rng)
        for dmc in (
            average_states(ch),
            shannon_strategy_channel(ch)[0],
            joint_output_channel(ch),
        ):
            assert np.allclose(dmc.W.sum(axis=1), 1.0, atol=1e-9)
