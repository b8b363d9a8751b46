import itertools
import json
import tracemalloc

import numpy as np
import pytest

from sdchan import (
    BudgetExceeded,
    Dmc,
    SdDmc,
    SiModel,
    average_states,
    blahut_arimoto,
    confusable_all_pairs_fl,
    gelfand_pinsker_capacity,
    gp_grid_oracle,
    grid_capacity,
    serialize,
)
from sdchan import oracles
from sdchan.cli import main
from sdchan.oracles import _simplex_lattice, _unique_kernels, _xlog2
from sdchan.positivity import ZERO, bl_positivity
from conftest import bsc, ch_ex1, ch_triv, random_channel, stuck_at


def h2(p):
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def test_confusable_ex1_with_state_at_decoder():
    assert confusable_all_pairs_fl(ch_ex1(), decoder_sees_state=True, n=4)


def test_confusable_triv_false():
    assert not confusable_all_pairs_fl(ch_triv(), decoder_sees_state=True, n=1)
    assert not confusable_all_pairs_fl(ch_triv(), decoder_sees_state=False, n=1)


def test_confusable_budget(monkeypatch):
    monkeypatch.setattr(oracles, "CONFUSABLE_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        confusable_all_pairs_fl(ch_ex1(), decoder_sees_state=False, n=4)


def test_confusable_matches_bl_verdict(rng):
    # Zero verdict keeps every pair confusable; positive turns false by n=2.
    for flag, token in ((False, "-,-"), (True, "sc,c")):
        si = SiModel.from_token(token)
        for _ in range(40):
            ch = random_channel(rng)
            verdict = bl_positivity(ch, si)
            confusable = confusable_all_pairs_fl(ch, decoder_sees_state=flag, n=2)
            if verdict.decision == ZERO:
                assert confusable
            else:
                assert not confusable


def test_grid_identity():
    assert abs(grid_capacity(average_states(ch_triv()), 100) - 1.0) < 1e-12


def test_grid_bsc():
    assert abs(grid_capacity(bsc(0.11), 1000) - (1 - h2(0.11))) < 1e-4


def test_grid_is_lower_bound(rng):
    for _ in range(10):
        dmc = average_states(random_channel(rng))
        assert grid_capacity(dmc, 200) <= blahut_arimoto(dmc).value + 1e-9


def test_grid_budget():
    with pytest.raises(BudgetExceeded):
        grid_capacity(Dmc(W=np.eye(5)), 10)
    with pytest.raises(BudgetExceeded):
        grid_capacity(bsc(0.1), 10_000_000)


def test_gp_grid_single_state_matches_grid(rng):
    dmc = bsc(0.2)
    from sdchan import SdDmc

    ch = SdDmc(W=[dmc.W.tolist()], Q=[1.0])
    oracle = gp_grid_oracle(ch, resolution=50, u_size=2)
    grid = grid_capacity(dmc, 50)
    assert abs(oracle - grid) < 1e-9


def test_gp_grid_stuck_at():
    oracle = gp_grid_oracle(stuck_at(0.2), resolution=40, u_size=2)
    assert abs(oracle - 0.8) < 1e-9  # exactly representable on this lattice
    module = gelfand_pinsker_capacity(stuck_at(0.2)).value
    assert module >= oracle - 1e-3


def test_gp_grid_budget(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(oracles, "GP_GRID_BUDGET", 100)
        with pytest.raises(BudgetExceeded):
            gp_grid_oracle(stuck_at(0.2), resolution=40, u_size=6)
    with pytest.raises(BudgetExceeded, match="limited to 3 inputs and 3 states"):
        gp_grid_oracle(SdDmc(W=[np.eye(4)], Q=[1.0]), resolution=2, u_size=1)
    with pytest.raises(BudgetExceeded, match="u_size 5 exceeds the cardinality bound 4"):
        gp_grid_oracle(ch_ex1(), resolution=2, u_size=5)


def test_gp_grid_points_are_bounded_by_the_grid_budget(monkeypatch, capsys, tmp_path):
    # 41**3 lattice points and 3 kernel combinations: well within the
    # (map, point) budget, but the arrays grow with the points alone.
    ch = stuck_at(0.2)
    points = oracles.lattice_size(40, 2) ** ch.ns
    assert points * 3 <= oracles.GP_GRID_BUDGET
    monkeypatch.setattr(oracles, "GRID_BUDGET", points - 1)
    with pytest.raises(BudgetExceeded, match=f"or {points - 1} points"):
        gp_grid_oracle(ch, resolution=40, u_size=2)
    path = tmp_path / "stuck.json"
    path.write_text(serialize(ch))
    assert main(["oracle", str(path), "--which", "gp-grid", "--resolution", "40", "--u-size", "2"]) == 2
    assert "exceeds the budget" in json.loads(capsys.readouterr().out)["error"]
    monkeypatch.setattr(oracles, "GRID_BUDGET", points)
    assert abs(gp_grid_oracle(ch, resolution=40, u_size=2) - 0.8) < 1e-9


def test_grid_oracle_entries_are_bounded_over_the_outputs(monkeypatch, capsys, tmp_path):
    # Three identical inputs and 40 outputs: 496 lattice points and one
    # kernel, well within the point and (map, point) budgets, but the output
    # mass arrays grow with |Y| as well.
    ch = SdDmc(W=[np.full((3, 40), 1 / 40)], Q=[1.0])
    path = tmp_path / "wide.json"
    path.write_text(serialize(ch))
    points = oracles.lattice_size(30, 3)
    for which, call, entries in (
        ("gp-grid", lambda: gp_grid_oracle(ch, resolution=30, u_size=3), 3 * 40 * points),
        ("grid-capacity", lambda: grid_capacity(average_states(ch), 30), 40 * points),
    ):
        monkeypatch.setattr(oracles, "GRID_ENTRIES", entries - 1)
        with pytest.raises(BudgetExceeded, match=f"40 outputs exceeds the budget .*{entries - 1} entries"):
            call()
        argv = ["oracle", str(path), "--which", which, "--resolution", "30", "--u-size", "3"]
        assert main(argv) == 2
        assert "exceeds the budget" in json.loads(capsys.readouterr().out)["error"]
        monkeypatch.setattr(oracles, "GRID_ENTRIES", entries)
        assert abs(call()) < 1e-12


def _masked_xlog2(p):
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def _reference_gp_grid_oracle(channel, resolution, u_size):
    """The GP grid objective with one (N, U, Y) einsum per kernel combination."""
    lattice = _simplex_lattice(resolution, u_size)
    idx = np.stack(
        np.meshgrid(*[np.arange(len(lattice))] * channel.ns, indexing="ij"), axis=-1
    ).reshape(-1, channel.ns)
    joint = channel.Q[None, :, None] * lattice[idx]  # (N, S, U)
    p_u = joint.sum(axis=1)
    i_us = _masked_xlog2(joint).sum(axis=(1, 2)) - _masked_xlog2(channel.Q).sum() - _masked_xlog2(p_u).sum(axis=1)
    kernels = _unique_kernels(channel)
    best = -np.inf
    for combo in itertools.combinations_with_replacement(range(len(kernels)), u_size):
        T = np.stack([kernels[k] for k in combo])  # (U, S, Y)
        p_uy = np.einsum("nsu,usy->nuy", joint, T)
        p_y = p_uy.sum(axis=1)
        i_uy = (
            _masked_xlog2(p_uy).sum(axis=(1, 2))
            - _masked_xlog2(p_u).sum(axis=1)
            - _masked_xlog2(p_y).sum(axis=1)
        )
        best = max(best, float((i_uy - i_us).max()))
    return best


def test_gp_grid_matches_per_combination_loop(rng):
    for _ in range(15):
        ch = random_channel(rng, max_size=2)
        for resolution in (3, 6):
            for u_size in range(1, ch.nx * ch.ns + 1):
                expected = _reference_gp_grid_oracle(ch, resolution, u_size)
                assert abs(gp_grid_oracle(ch, resolution, u_size) - expected) <= 1e-12


def _peak_bytes(call):
    """(result, peak bytes traced above those held before the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_xlog2_holds_one_array_besides_a_mask():
    # p * log2(where(p > 0, p, 1)) held two temporaries the size of p.
    p = np.random.default_rng(3).random((500, 400))
    p[p < 0.3] = 0.0
    p[0, 0] = -0.0
    out, peak = _peak_bytes(lambda: _xlog2(p))
    assert peak <= 1.2 * p.nbytes
    assert out.tobytes() == (p * np.log2(np.where(p > 0, p, 1.0))).tobytes()


@pytest.mark.parametrize("resolution, dim", [(300, 3), (40, 5), (7, 9)])
def test_simplex_lattice_peaks_near_the_array_it_returns(resolution, dim):
    # A Python list of bar tuples peaked at 4.6x the returned array at dimension 3.
    lattice, peak = _peak_bytes(lambda: _simplex_lattice.__wrapped__(resolution, dim))
    assert peak <= 3 * lattice.nbytes
    bars = np.array(list(itertools.combinations(range(resolution + dim - 1), dim - 1)))
    padded = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), resolution + dim - 1)])
    assert lattice.tobytes() == ((np.diff(padded, axis=1) - 1) / resolution).tobytes()
