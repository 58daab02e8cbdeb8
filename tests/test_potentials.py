import itertools
from fractions import Fraction

import pytest

from mpgsolver import (Arena, EnergyFunction, StrategyError, arena_cap,
                       compatible_arcs, delta_membership, enumerate_lattice,
                       ergodic_partition, is_conservative, is_sepm,
                       least_feasible_potential, least_sepm, restrict,
                       reweight, solve_values)
from mpgsolver.energy import ominus
from mpgsolver.oracle import all_strategies, gen_random_arena
from mpgsolver.potentials import PositionalStrategy

F1 = (0, 4, 8, 4, 3, 4, 0)
F2 = (0, 4, 8, 4, 7, 4, 0)


def ex_strategy(arena, e_target):
    idx = arena.index
    return PositionalStrategy.from_dict(arena, {
        idx["B"]: idx["C"], idx["D"]: idx["A"],
        idx["G"]: idx["F"], idx["E"]: idx[e_target]})


@pytest.fixture
def rw_ex(gamma_ex):
    return reweight(gamma_ex, Fraction(-1))


def test_restrict_counts_arcs(rw_ex):
    g = restrict(rw_ex, ex_strategy(rw_ex, "F"))
    assert sum(len(row) for row in g.out) == 7
    for u in range(g.n):
        if rw_ex.owner[u] == 0:
            assert len(g.out[u]) == 1


def test_restrict_identity_when_forced(gamma_d):
    # strip the choices: every P0 vertex keeps its first arc
    choice = [None] * gamma_d.n
    for u in gamma_d.vertices_of(0):
        choice[u] = gamma_d.out[u][0][0]
    g = restrict(gamma_d, PositionalStrategy(choice))
    total = sum(len(row) for row in g.out)
    p0_extra = sum(len(gamma_d.out[u]) - 1 for u in gamma_d.vertices_of(0))
    assert total == gamma_d.arc_count() - p0_extra


def test_restrict_rejects_missing_arc(rw_ex):
    idx = rw_ex.index
    bogus = PositionalStrategy.from_dict(rw_ex, {
        idx["B"]: idx["A"], idx["D"]: idx["A"],
        idx["G"]: idx["F"], idx["E"]: idx["A"]})
    with pytest.raises(StrategyError):
        restrict(rw_ex, bogus)


def bad_choices(rw_ex):
    """(choice, StrategyError message) for each way a strategy is bad."""
    idx = rw_ex.index
    good = ex_strategy(rw_ex, "F").choice
    no_arc = list(good)
    no_arc[idx["B"]] = idx["A"]
    unset = list(good)
    unset[idx["E"]] = None
    p1_choice = list(good)
    p1_choice[idx["A"]] = idx["B"]
    return [(no_arc, "strategy needs an arc at B"),
            (unset, "strategy needs an arc at E"),
            (p1_choice, "strategy assigns a Player-1 vertex A"),
            (good[:-1], "strategy has 6 entries for 7 vertices"),
            (good + (None,), "strategy has 8 entries for 7 vertices"),
            (good + (idx["A"],), "strategy has 8 entries for 7 vertices")]


def test_from_dict_rejects_keys_that_are_not_vertices(gamma_ex):
    assert gamma_ex.n == 7
    for key in [-1, 7, 99, "B"]:
        with pytest.raises(StrategyError, match="is no vertex"):
            PositionalStrategy.from_dict(gamma_ex, {key: 0})
    last = PositionalStrategy.from_dict(gamma_ex, {6: 5})
    assert last.choice == (None,) * 6 + (5,)


def test_restrict_rejects_each_bad_choice(rw_ex):
    for choice, message in bad_choices(rw_ex):
        with pytest.raises(StrategyError, match=message):
            restrict(rw_ex, PositionalStrategy(choice))
    restrict(rw_ex, ex_strategy(rw_ex, "F"))


def test_delta_membership_rejects_each_bad_choice(rw_ex):
    f1 = EnergyFunction(F1, arena_cap(rw_ex))
    idx = rw_ex.index
    # E -> C breaks the SEPM condition of F1 at E (f(C) - w = 7 > 3),
    # before the missing arc at G is reached: the strategy is still wrong.
    early = list(ex_strategy(rw_ex, "C").choice)
    assert f1.values[idx["C"]] - dict(rw_ex.out[idx["E"]])[idx["C"]] > 3
    assert not delta_membership(rw_ex, f1, PositionalStrategy(early))
    early[idx["G"]] = None
    cases = bad_choices(rw_ex) + [
        (tuple(early), "strategy needs an arc at G")]
    for choice, message in cases:
        with pytest.raises(StrategyError, match=message):
            delta_membership(rw_ex, f1, PositionalStrategy(choice))
    assert delta_membership(rw_ex, f1, ex_strategy(rw_ex, "F"))


def test_delta_membership_rejects_a_top_entry(rw_ex):
    cap = arena_cap(rw_ex)
    with_top = EnergyFunction(F1[:-1] + (cap + 1,), cap)
    with pytest.raises(ValueError, match="finite"):
        delta_membership(rw_ex, with_top, ex_strategy(rw_ex, "F"))


def test_delta_membership_of_another_games_measure_is_false():
    # the cycle x -> y -> z -> x has no negative arc, so its least SEPM is
    # zero everywhere; zeros of another length or cap are not its measures
    small = Arena(["x", "y", "z"], [0, 1, 0],
                  [(0, 1, 2), (1, 2, 1), (2, 0, 1)])
    sigma = PositionalStrategy([1, None, 0])
    cap = arena_cap(small)
    assert delta_membership(small, EnergyFunction((0, 0, 0), cap), sigma)
    for values in [(0, 0, 0, 0), (0, 0)]:
        assert not delta_membership(small, EnergyFunction(values, cap),
                                    sigma)
    assert not delta_membership(small, EnergyFunction((0, 0, 0), cap + 1),
                                sigma)


def test_least_feasible_potential_f1_f2(rw_ex):
    pi1 = least_feasible_potential(restrict(rw_ex, ex_strategy(rw_ex, "F")))
    assert pi1.values == F1
    pi2 = least_feasible_potential(restrict(rw_ex, ex_strategy(rw_ex, "C")))
    assert pi2.values == F2


def test_least_feasible_potential_negative_loop():
    a = Arena(["p", "q"], [1, 1], [(0, 0, -1), (0, 1, 3), (1, 1, 0)])
    choice = [None, None]
    pi = least_feasible_potential(restrict(a, PositionalStrategy(choice)))
    assert pi.is_top(0)       # p sits on the negative loop
    assert pi.values[1] == 0  # q never reaches it


def test_is_conservative(rw_ex, gamma_d):
    for target in "ACFG":
        assert is_conservative(restrict(rw_ex, ex_strategy(rw_ex, target)))
    neg = Arena(["p"], [1], [(0, 0, -1)])
    assert not is_conservative(restrict(neg, PositionalStrategy([None])))
    # gamma_d has value 0, so w - 0 = w and every strategy graph is
    # conservative
    for s in all_strategies(gamma_d):
        assert is_conservative(restrict(gamma_d, s))


def test_delta_membership(rw_ex):
    cap = arena_cap(rw_ex)
    f1 = EnergyFunction(F1, cap)
    assert delta_membership(rw_ex, f1, ex_strategy(rw_ex, "F"))
    assert not delta_membership(rw_ex, f1, ex_strategy(rw_ex, "A"))
    fstar = least_sepm(rw_ex)
    assert delta_membership(rw_ex, fstar, ex_strategy(rw_ex, "G"))
    # pi* of a strategy graph is in its own block by definition
    s = ex_strategy(rw_ex, "C")
    pi = least_feasible_potential(restrict(rw_ex, s))
    assert delta_membership(rw_ex, pi, s)


# The enumerate benchmark's generated games, as gen_random_arena arguments.
ENUMERATE_BENCH_GAMES = ((24, 3, 1, 2), (16, 3, 2, 5), (20, 3, 2, 9))


def test_delta_membership_certificate_matches_lifting(gamma_d):
    # Every lattice element against every f-compatible candidate, members
    # or not, on the 200-arena corpus and the enumerate benchmark's games:
    # the tight-arc certificate answers as lifting and Bellman-Ford do.
    arenas = [gen_random_arena(6, 3, 4, seed) for seed in range(200)]
    arenas += [gen_random_arena(*spec) for spec in ENUMERATE_BENCH_GAMES]
    games = [(gamma_d, Fraction(0))] + [
        (cls.subgame, cls.nu)
        for a in arenas for cls in ergodic_partition(a, solve_values(a))]
    members = outsiders = 0
    for sub, nu in games:
        scaled = reweight(sub, nu)
        p0 = scaled.vertices_of(0)
        x, _ = enumerate_lattice(sub, nu)
        for f in x:
            pools = [[v for _, v in compatible_arcs(scaled, f, u)]
                     for u in p0]
            for picks in itertools.product(*pools):
                s = PositionalStrategy.from_dict(scaled, dict(zip(p0, picks)))
                graph = restrict(scaled, s)
                member = delta_membership(scaled, f, s)
                assert member == (least_sepm(graph) == f)
                assert member == (least_feasible_potential(graph) == f)
                members += member
                outsiders += not member
    assert members > 0 and outsiders > 0


def test_potential_is_least_and_feasible():
    for seed in range(40):
        a = gen_random_arena(5, 3, 4, seed)
        for s in list(all_strategies(a))[:4]:
            g = restrict(a, s)
            cap = arena_cap(a)
            pi = least_feasible_potential(g)
            # feasibility along every arc of the one-player graph
            for u, v, w in g.arcs():
                assert pi.values[u] >= ominus(pi.values[v], w, cap)
            # least: naive saturated Kleene iteration agrees
            f = [0] * g.n
            while True:
                nxt = [max(ominus(f[v], w, cap) for v, w in g.out[u])
                       for u in range(g.n)]
                if nxt == f:
                    break
                f = nxt
            assert tuple(f) == pi.values
            # Player 0 keeps one arc, so lifting reaches the same fixpoint
            assert least_sepm(g) == pi


def test_conservative_iff_potential_finite():
    # Also checks delta_membership's rule: Player 0 has no choice left in a
    # restricted arena, so lifting it reaches the Bellman-Ford potential,
    # at every class value and off the values.
    with_top = 0
    for seed in range(60):
        a = gen_random_arena(5, 3, 4, seed)
        nus = {cls.nu for cls in ergodic_partition(a, solve_values(a))}
        for nu in sorted(nus | {Fraction(0), Fraction(-1, 2)}):
            scaled = reweight(a, nu)
            for s in all_strategies(scaled):
                g = restrict(scaled, s)
                assert isinstance(g, Arena)
                pi = least_feasible_potential(g)
                assert is_conservative(g) == pi.all_finite()
                assert least_sepm(g) == pi
                with_top += not pi.all_finite()
    assert with_top > 0


def test_strategy_potential_is_sepm_of_full_arena(rw_ex):
    # any feasible potential of a strategy graph is a progress measure of
    # the whole reweighted arena
    for target in "ACFG":
        pi = least_feasible_potential(restrict(rw_ex, ex_strategy(rw_ex, target)))
        assert is_sepm(rw_ex, pi)


def test_strategy_json_round_trip(rw_ex):
    s = ex_strategy(rw_ex, "F")
    blob = s.to_json(rw_ex)
    assert blob["choice"]["E"] == "F"
    rebuilt = PositionalStrategy.from_dict(
        rw_ex, {rw_ex.index[u]: rw_ex.index[v]
                for u, v in blob["choice"].items()})
    assert rebuilt == s
