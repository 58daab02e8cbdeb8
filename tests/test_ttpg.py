from fractions import Fraction

import pytest

from mpgsolver import (Arena, audit_min_table, convergence_horizon,
                       least_sepm, min_ttpg, min_ttpg_fixpoint, plain_ttpg,
                       reweight, winning_regions)
from mpgsolver.errors import InternalError
from mpgsolver.oracle import gen_random_arena, ttpg_game_tree_value


def test_plain_row_zero(gamma_ex):
    table = plain_ttpg(gamma_ex, 0)
    assert table.rows == [(0,) * 7]


def test_plain_self_loop_accumulates():
    a = Arena(["x"], [0], [(0, 0, 3)])
    table = plain_ttpg(a, 5)
    assert [row[0] for row in table.rows] == [0, 3, 6, 9, 12, 15]


def test_plain_matches_game_tree(nonpositional):
    table = plain_ttpg(nonpositional, 6)
    for k in range(7):
        for u in range(nonpositional.n):
            assert table.rows[k][u] == ttpg_game_tree_value(nonpositional, u, k)


def test_min_row_zero(gamma_d):
    assert min_ttpg(gamma_d, 0).rows == [(0,) * gamma_d.n]


def test_min_gamma_ex_stabilizes_at_negated_fstar(gamma_ex):
    scaled = reweight(gamma_ex, Fraction(-1))
    table = min_ttpg(scaled, 30)
    assert table.rows[-1] == (0, -4, -8, -4, 0, -4, 0)
    assert table.rows[-1] == table.rows[-2]


def test_min_negative_self_loop_diverges():
    a = Arena(["x"], [0], [(0, 0, -1)])
    table = min_ttpg(a, 8)
    assert [row[0] for row in table.rows] == [0, -1, -2, -3, -4, -5, -6, -7, -8]
    assert audit_min_table(a, table) == []


def test_fixpoint_gamma_ex(gamma_ex):
    scaled = reweight(gamma_ex, Fraction(-1))
    f, k_reached, table = min_ttpg_fixpoint(scaled, keep_history=True)
    assert f == least_sepm(scaled)
    assert 1 <= k_reached <= convergence_horizon(scaled, 7, 0)
    assert audit_min_table(scaled, table) == []


def test_fixpoint_zero_self_loop():
    a = Arena(["x"], [0], [(0, 0, 0)])
    f, k_reached, _ = min_ttpg_fixpoint(a)
    assert k_reached == 1
    assert f.values == (0,)


def test_fixpoint_gamma_d(gamma_d):
    f, k_reached, table = min_ttpg_fixpoint(gamma_d, keep_history=True)
    assert f == least_sepm(gamma_d)
    w0, w1 = winning_regions(gamma_d)
    assert k_reached <= convergence_horizon(gamma_d, len(w0), len(w1))
    assert audit_min_table(gamma_d, table) == []


def test_fixpoint_matches_least_sepm_random():
    for seed in range(20):
        a = gen_random_arena(6, 3, 4, seed)
        f, k_reached, table = min_ttpg_fixpoint(a, keep_history=True)
        assert f == least_sepm(a)
        w0 = sum(1 for u in range(a.n) if not f.is_top(u))
        assert k_reached <= convergence_horizon(a, w0, a.n - w0)
        assert audit_min_table(a, table, fstar=f) == []


def test_horizon_formula(gamma_ex):
    scaled = reweight(gamma_ex, Fraction(-1))
    # |V|=7, W=4, W1 empty: (7*4 - 8 + 1)*0 + 6*7*4 + 3
    assert convergence_horizon(scaled, 7, 0) == 171
    # against the unweighted arena's own parameters (W=5)
    assert convergence_horizon(gamma_ex, 7, 0) == 213


def test_audit_flags_violations(gamma_d):
    _, _, table = min_ttpg_fixpoint(gamma_d, keep_history=True)
    rows = [list(r) for r in table.rows]
    rows[-1][0] = 1  # positive entry also breaks monotonicity
    from mpgsolver.ttpg import TruncatedValueTable
    broken = TruncatedValueTable("min", rows)
    failures = audit_min_table(gamma_d, broken)
    assert any("> 0" in f for f in failures)
    assert any("monotone" in f for f in failures)


def test_audit_requires_min_table(gamma_ex):
    with pytest.raises(ValueError):
        audit_min_table(gamma_ex, plain_ttpg(gamma_ex, 2))


def test_negative_k_rejected(gamma_ex):
    with pytest.raises(ValueError):
        plain_ttpg(gamma_ex, -1)
    with pytest.raises(ValueError):
        min_ttpg(gamma_ex, -1)


def test_stop_is_gameover_holds_row_by_row(nonpositional):
    table = min_ttpg(nonpositional, 40)
    assert audit_min_table(nonpositional, table) == []


def test_tsv_shape(gamma_ex):
    text = plain_ttpg(gamma_ex, 2).to_tsv(gamma_ex)
    lines = text.strip().splitlines()
    assert lines[0] == "k\t" + "\t".join(gamma_ex.names)
    assert len(lines) == 4
    assert lines[1].startswith("0\t")
