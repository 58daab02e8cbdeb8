from fractions import Fraction

import pytest

from mpgsolver import (Arena, InternalError, ValueAssignment, compatible_arcs,
                       ergodic_partition, is_optimal, least_sepm, reweight,
                       solve_values, synthesize_optimal)
from mpgsolver.oracle import exhaustive_opt, gen_random_arena
from mpgsolver.potentials import PositionalStrategy


def test_solve_values_gamma_ex(gamma_ex):
    vals = solve_values(gamma_ex)
    assert all(v == Fraction(-1) for v in vals.vals)


def test_solve_values_self_loop():
    for c in (-3, 0, 7):
        a = Arena(["x"], [0], [(0, 0, c)])
        assert solve_values(a).vals == (Fraction(c),)


def test_solve_values_gamma_d(gamma_d):
    vals = solve_values(gamma_d)
    assert all(v == 0 for v in vals.vals)
    oracle_vals, _ = exhaustive_opt(gamma_d)
    assert vals == oracle_vals


def test_solve_values_fractional():
    # one cycle of mean 1/2 against an escape loop of mean -1
    a = Arena(["p", "q", "r"], [0, 1, 1],
              [(0, 1, 2), (1, 0, -1), (0, 2, 0), (2, 2, -1)])
    vals = solve_values(a)
    assert vals.vals[0] == Fraction(1, 2)
    assert vals.vals[1] == Fraction(1, 2)
    assert vals.vals[2] == Fraction(-1)


def test_values_match_oracle_and_small_denominators():
    for seed in range(50):
        a = gen_random_arena(5, 3, 4, seed)
        vals = solve_values(a)
        oracle_vals, _ = exhaustive_opt(a)
        assert vals == oracle_vals
        assert all(v.denominator <= a.n for v in vals.vals)


def test_ergodic_partition_single_class(gamma_ex):
    part = ergodic_partition(gamma_ex, solve_values(gamma_ex))
    assert len(part) == 1
    cls = part[0]
    assert cls.nu == Fraction(-1)
    assert cls.subgame == gamma_ex


def test_ergodic_partition_two_loops():
    a = Arena(["p", "q"], [0, 0], [(0, 0, 1), (1, 1, 2)])
    part = ergodic_partition(a, solve_values(a))
    assert [(cls.nu, cls.vertices) for cls in part] == [
        (Fraction(1), (0,)), (Fraction(2), (1,))]
    for cls in part:
        assert cls.subgame.n == 1


def test_ergodic_partition_rejects_class_without_inner_arc():
    # Wrong values put p alone in a class, but p's only arc leaves it.
    a = Arena(["p", "q"], [0, 1], [(0, 1, 0), (1, 1, 0)])
    with pytest.raises(InternalError, match="vertex p has no outgoing arc"):
        ergodic_partition(a, ValueAssignment([1, 0]))


def test_partition_covers_vertices():
    for seed in range(30):
        a = gen_random_arena(6, 3, 4, seed)
        part = ergodic_partition(a, solve_values(a))
        seen = sorted(u for cls in part for u in cls.vertices)
        assert seen == list(range(a.n))


def test_class_least_sepm_is_computed_once(gamma_ex, monkeypatch):
    (cls,) = ergodic_partition(gamma_ex, solve_values(gamma_ex))
    calls = []
    monkeypatch.setattr("mpgsolver.energy.least_sepm",
                        lambda arena: calls.append(arena) or least_sepm(arena))
    f = cls.least_sepm()
    assert f == least_sepm(reweight(gamma_ex, cls.nu))
    assert cls.least_sepm() is f
    synthesize_optimal(gamma_ex, [cls])
    assert len(calls) == 1


def test_synthesize_gamma_ex(gamma_ex):
    vals = solve_values(gamma_ex)
    s = synthesize_optimal(gamma_ex, ergodic_partition(gamma_ex, vals))
    idx = gamma_ex.index
    assert s.choice[idx["B"]] == idx["C"]
    assert s.choice[idx["D"]] == idx["A"]
    assert s.choice[idx["G"]] == idx["F"]
    assert s.choice[idx["E"]] in (idx["A"], idx["G"])
    assert is_optimal(gamma_ex, vals, s)


def test_synthesize_gamma_d(gamma_d):
    vals = solve_values(gamma_d)
    s = synthesize_optimal(gamma_d, ergodic_partition(gamma_d, vals))
    idx = gamma_d.index
    assert s.choice[idx["u3"]] == idx["t"]
    assert s.choice[idx["v3"]] == idx["t"]
    assert s.choice[idx["t"]] == idx["v4"]
    assert is_optimal(gamma_d, vals, s)


def test_synthesize_forced_arena():
    a = Arena(["p", "q"], [0, 0], [(0, 1, 1), (1, 0, 1)])
    s = synthesize_optimal(a, ergodic_partition(a, solve_values(a)))
    assert s.choice == (1, 0)


def test_is_optimal_all_four_choices_at_e(gamma_ex):
    vals = solve_values(gamma_ex)
    idx = gamma_ex.index
    base = {idx["B"]: idx["C"], idx["D"]: idx["A"], idx["G"]: idx["F"]}
    for target in "ACFG":
        s = PositionalStrategy.from_dict(
            gamma_ex, {**base, idx["E"]: idx[target]})
        assert is_optimal(gamma_ex, vals, s)


def test_is_optimal_rejects_bad_cycle_choice():
    # P0 chooses between a 2-cycle of mean 1 and one of mean 0
    a = Arena(["p", "q", "r"], [0, 1, 1],
              [(0, 1, 1), (1, 0, 1), (0, 2, 0), (2, 2, 0)])
    vals = solve_values(a)
    assert vals.vals[0] == 1
    bad = PositionalStrategy([2, None, None])
    assert not is_optimal(a, vals, bad)


def test_counterexample_optimal_but_incompatible(gamma_ex):
    # sigma(E)=F is optimal, yet (E,F) is not compatible with the least
    # progress measure of the reweighted game
    vals = solve_values(gamma_ex)
    idx = gamma_ex.index
    s = PositionalStrategy.from_dict(gamma_ex, {
        idx["B"]: idx["C"], idx["D"]: idx["A"],
        idx["G"]: idx["F"], idx["E"]: idx["F"]})
    assert is_optimal(gamma_ex, vals, s)
    scaled = reweight(gamma_ex, Fraction(-1))
    f = least_sepm(scaled)
    e = idx["E"]
    assert (e, idx["F"]) not in compatible_arcs(scaled, f, e)


def test_synthesized_always_optimal_random():
    for seed in range(40):
        a = gen_random_arena(6, 3, 4, seed)
        vals = solve_values(a)
        strategy = synthesize_optimal(a, ergodic_partition(a, vals))
        assert is_optimal(a, vals, strategy)


def test_value_json(gamma_ex):
    blob = solve_values(gamma_ex).to_json(gamma_ex)
    assert blob["values"]["A"] == {"num": -1, "den": 1}
