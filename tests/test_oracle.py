from fractions import Fraction

import pytest

from mpgsolver import (Arena, OracleBoundError, least_sepm, parse_arena,
                       reweight, serialize_arena)
from mpgsolver.oracle import (all_strategies, exhaustive_opt,
                              gen_random_arena, naive_least_sepm,
                              payoff_vector, reference_energy_lattice,
                              strategy_count, ttpg_game_tree_value)
from mpgsolver.potentials import PositionalStrategy, restrict
from mpgsolver.values import solve_values


def ex_graph(gamma_ex, e_target):
    idx = gamma_ex.index
    s = PositionalStrategy.from_dict(gamma_ex, {
        idx["B"]: idx["C"], idx["D"]: idx["A"],
        idx["G"]: idx["F"], idx["E"]: idx[e_target]})
    return restrict(gamma_ex, s)


def test_min_cycle_mean_gamma_ex(gamma_ex):
    for target in "ACFG":
        g = ex_graph(gamma_ex, target)
        assert payoff_vector(g) == (Fraction(-1),) * g.n


def test_min_cycle_mean_self_loop():
    for c in (-2, 0, 5):
        a = Arena(["x"], [1], [(0, 0, c)])
        g = restrict(a, PositionalStrategy([None]))
        assert payoff_vector(g)[0] == Fraction(c)


def test_min_cycle_mean_takes_minimum_of_reachable_loops():
    # p reaches loops of mean 1/2 (q<->r) and -1/3 (s three-cycle)
    a = Arena(["p", "q", "r", "s1", "s2", "s3"], [1] * 6, [
        (0, 1, 0), (0, 3, 0),
        (1, 2, 1), (2, 1, 0),
        (3, 4, 0), (4, 5, 0), (5, 3, -1)])
    g = restrict(a, PositionalStrategy([None] * 6))
    assert payoff_vector(g)[0] == Fraction(-1, 3)
    assert payoff_vector(g)[1] == Fraction(1, 2)


def test_payoff_vector_matches_per_vertex(gamma_d):
    # gamma_d has value 0 everywhere and every strategy graph of it is
    # conservative, so every strategy pays exactly 0 at every vertex
    for s in all_strategies(gamma_d):
        assert payoff_vector(restrict(gamma_d, s)) == (0,) * gamma_d.n


def test_exhaustive_opt_gamma_ex(gamma_ex):
    vals, opt = exhaustive_opt(gamma_ex)
    assert all(v == -1 for v in vals.vals)
    assert len(opt) == 4  # every arc out of E is optimal
    e = gamma_ex.index["E"]
    assert {s.choice[e] for s in opt} == {
        gamma_ex.index[x] for x in "ACFG"}


def test_exhaustive_opt_forced():
    a = Arena(["p", "q"], [0, 1], [(0, 1, 2), (1, 0, 0)])
    vals, opt = exhaustive_opt(a)
    assert vals.vals == (Fraction(1), Fraction(1))
    assert len(opt) == 1


def test_exhaustive_opt_respects_bound(gamma_ex):
    assert strategy_count(gamma_ex) == 4
    with pytest.raises(OracleBoundError):
        exhaustive_opt(gamma_ex, max_strategies=3)


def test_reference_energy_lattice_gamma_ex(gamma_ex):
    _, opt = exhaustive_opt(gamma_ex)
    ref = reference_energy_lattice(gamma_ex, Fraction(-1), opt)
    assert {f.values for f in ref} == {
        (0, 4, 8, 4, 0, 4, 0), (0, 4, 8, 4, 3, 4, 0), (0, 4, 8, 4, 7, 4, 0)}


def test_reference_lattice_forced_arena():
    a = Arena(["p", "q"], [0, 1], [(0, 1, 1), (1, 0, -1)])
    _, opt = exhaustive_opt(a)
    ref = reference_energy_lattice(a, Fraction(0), opt)
    assert len(ref) == 1


def test_naive_least_sepm_gamma_ex(gamma_ex):
    f = naive_least_sepm(reweight(gamma_ex, Fraction(-1)))
    assert f.values == (0, 4, 8, 4, 0, 4, 0)


def test_naive_least_sepm_nonnegative_weights_zero():
    a = Arena(["p", "q"], [0, 1], [(0, 1, 2), (1, 0, 0)])
    assert naive_least_sepm(a).values == (0, 0)


def test_naive_matches_worklist_random():
    for seed in range(40):
        a = gen_random_arena(6, 3, 4, seed)
        assert naive_least_sepm(a) == least_sepm(a)


def test_gen_random_arena_is_deterministic():
    a = gen_random_arena(6, 3, 4, 7)
    b = gen_random_arena(6, 3, 4, 7)
    assert a == b
    assert gen_random_arena(6, 3, 4, 8) != a


def test_gen_random_arena_golden_file(data_dir):
    golden = parse_arena((data_dir / "random_6_3_4_7.mpg").read_text())
    assert gen_random_arena(6, 3, 4, 7) == golden
    assert serialize_arena(golden) == (data_dir / "random_6_3_4_7.mpg").read_text()


def test_gen_random_arena_degenerate_parameters():
    a = gen_random_arena(1, 1, 0, 3)
    assert a.n == 1
    assert a.out[0] == ((0, 0),)
    with pytest.raises(ValueError):
        gen_random_arena(0, 1, 1, 1)


def test_oracle_values_agree_with_solver():
    for seed in range(30):
        a = gen_random_arena(6, 3, 4, seed + 500)
        vals, _ = exhaustive_opt(a)
        assert vals == solve_values(a)


def test_game_tree_value_base_case(gamma_ex):
    assert all(ttpg_game_tree_value(gamma_ex, u, 0) == 0
               for u in range(gamma_ex.n))
