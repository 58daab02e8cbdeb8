import random
import tracemalloc
from fractions import Fraction

import pytest

from mpgsolver import (Arena, InternalError, ValueAssignment, certify_optimal,
                       compatible_arcs, energy, ergodic_partition, is_optimal,
                       least_sepm, parse_arena, reweight, solve_values,
                       synthesize_optimal, values, winning_regions)
from mpgsolver.oracle import exhaustive_opt, gen_random_arena
from mpgsolver.potentials import PositionalStrategy


def test_solve_values_gamma_ex(gamma_ex):
    vals = solve_values(gamma_ex)
    assert all(v == Fraction(-1) for v in vals.vals)


def test_solve_values_self_loop():
    for c in (-3, 0, 7):
        a = Arena(["x"], [0], [(0, 0, c)])
        assert solve_values(a).vals == (Fraction(c),)
    # W = 0 and n = 5: the search ends on [0, 1/5), whose middle 1/10 is
    # as near 0 as 1/5 and so ties in limit_denominator
    a = Arena(["x%d" % i for i in range(5)], [i % 2 for i in range(5)],
              [(i, (i + 1) % 5, 0) for i in range(5)])
    assert solve_values(a).vals == (Fraction(0),) * 5


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


def test_solve_values_largest_candidate_below_w():
    # an n-cycle of weights W, ..., W, W - 1 has mean (nW - 1)/n
    for n, w in ((2, 1), (3, 1), (4, 3), (7, 10), (800, 1)):
        arcs = [(i, (i + 1) % n, w - (i == n - 1)) for i in range(n)]
        a = Arena(["x%d" % i for i in range(n)], [i % 2 for i in range(n)],
                  arcs)
        assert solve_values(a).vals == (Fraction(n * w - 1, n),) * n


def test_values_match_oracle_and_small_denominators():
    for seed in range(50):
        for a in (gen_random_arena(5, 3, 4, seed),
                  gen_random_arena(6, 3, 100, seed)):
            vals = solve_values(a)
            oracle_vals, _ = exhaustive_opt(a)
            assert vals == oracle_vals
            # a value is the mean of a simple cycle in its own value class
            assert all(v.denominator <= vals.vals.count(v)
                       for v in vals.vals)


def test_solve_values_memory_does_not_grow_with_the_candidates():
    # the 800-cycle of weights 1, ..., 1, 0 has value 799/800, the largest
    # candidate below 1; a table of every candidate in [0, 1) would hold
    # about 195,000 fractions here, over 20 MiB
    n = 800
    a = Arena(["x%d" % i for i in range(n)], [0] * n,
              [(i, (i + 1) % n, int(i < n - 1)) for i in range(n)])
    tracemalloc.start()
    try:
        solve_values(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# The bisection that solve_values replaced: it indexed every candidate
# k + a/b, |k| <= W, through a table of the Farey fractions of order |V|.
def farey(n):
    fracs = [(0, 1)]
    a, b, c, d = 0, 1, 1, n
    while c < d:
        fracs.append((c, d))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return fracs


def farey_solve_values(arena):
    table = farey(arena.n)

    def cand(i):
        k, r = divmod(i, len(table))
        a, b = table[r]
        return Fraction(a + (k - arena.W) * b, b)

    vals = [None] * arena.n
    groups = [(list(range(arena.n)), 0, (2 * arena.W + 1) * len(table))]
    while groups:
        members, lo, hi = groups.pop()
        if hi - lo == 1:
            for u in members:
                vals[u] = cand(lo)
            continue
        mid = (lo + hi) // 2
        w0, _ = winning_regions(reweight(arena, cand(mid)))
        winners = [u for u in members if u in w0]
        losers = [u for u in members if u not in w0]
        if winners:
            groups.append((winners, mid, hi))
        if losers:
            groups.append((losers, lo, mid))
    return ValueAssignment(vals)


def test_values_match_the_farey_bisection_on_larger_arenas():
    for n, seeds in ((30, (1, 2)), (60, (1, 2)), (100, (1, 2)), (200, (1,))):
        for w in (1, 10, 1000):
            for seed in seeds:
                a = gen_random_arena(n, 3, w, seed)
                assert solve_values(a) == farey_solve_values(a)


def test_subgame_probes_halve_the_lifts(monkeypatch):
    # probes of the whole arena, each lifting from all-zero, made 55,374
    # lifts here; probes of each group's own subgame make 23,117
    a = gen_random_arena(400, 3, 10, 1)
    expected = farey_solve_values(a)
    lifts = [0]
    real = energy.least_sepm
    monkeypatch.setattr(energy, "least_sepm", lambda arena, **kwargs: real(
        arena, lift_counter=lifts, **kwargs))
    assert solve_values(a) == expected
    assert 0 < lifts[0] < 35000


def test_nearest_is_limit_denominator():
    rng = random.Random(5)
    # q <= n, n = 1 and non-reduced p/q among them
    cases = [(p, q, n) for p in range(-7, 8) for q in range(1, 7)
             for n in range(1, 7)]
    for _ in range(3000):
        n = rng.choice((1, 2, rng.randint(1, 50), rng.randint(1, 10**4)))
        q = rng.randint(1, 10**rng.randint(1, 9))
        k = rng.randint(1, 4)
        cases.append((k * rng.randint(-10 * q, 10 * q), k * q, n))
    for n in range(1, 13):
        fracs = farey(n) + [(1, 1)]
        for (a, b), (c, d) in zip(fracs, fracs[1:]):
            # no candidate lies strictly between two Farey neighbours, so
            # their midpoint is as near to each: an exact tie
            k = rng.randint(-5, 5)
            cases.append(((a + k * b) * d + (c + k * d) * b, 2 * b * d, n))
    for p, q, n in cases:
        want = Fraction(p, q).limit_denominator(n)
        assert values._nearest(p, q, n) == (want.numerator, want.denominator)


def test_every_probe_is_a_candidate(data_dir, monkeypatch):
    arenas = [parse_arena(p.read_bytes())
              for p in sorted(data_dir.glob("*.mpg"))]
    arenas += [gen_random_arena(5 + s % 8, 3, 1 + s % 6, 9000 + s)
               for s in range(50)]
    probes = []
    monkeypatch.setattr("mpgsolver.values.reweight",
                        lambda a, nu: probes.append(nu) or reweight(a, nu))
    for a in arenas:
        probes.clear()
        solve_values(a)
        assert probes
        for nu in probes:
            assert Fraction(nu).denominator <= a.n
            assert -a.W <= nu < a.W + 1


def count_probes(monkeypatch, arena):
    """(values, number of value probes) of ``solve_values(arena)``."""
    probes = []
    monkeypatch.setattr("mpgsolver.values.reweight",
                        lambda a, nu: probes.append(nu) or reweight(a, nu))
    vals = solve_values(arena)
    monkeypatch.undo()
    return vals, len(probes)


def test_lone_vertices_read_their_self_loops(monkeypatch):
    # eight self-loops of weights 0, 10^6, ..., 7*10^6: each value is
    # settled once a group holds that vertex alone, so the probes only
    # split groups, 7 of them; over every fraction of denominator <= 8
    # it took 196
    a = Arena(["x%d" % i for i in range(8)], [0] * 8,
              [(i, i, i * 10**6) for i in range(8)])
    vals, probes = count_probes(monkeypatch, a)
    assert vals == farey_solve_values(a) == exhaustive_opt(a)[0]
    assert probes == 7
    # two loops: the first probe splits them (5 probes over denominator
    # <= 2), and the group of the loop of weight 2 needs one more
    a = Arena(["p", "q"], [0, 0], [(0, 0, 1), (1, 1, 2)])
    vals, probes = count_probes(monkeypatch, a)
    assert vals == farey_solve_values(a) == exhaustive_opt(a)[0]
    assert probes == 2


def test_each_group_bisects_over_its_own_candidates(monkeypatch):
    # probes with denominators up to each group's size, not |V|: 37
    # probes over every candidate of denominator <= 200
    a = gen_random_arena(200, 3, 10, 1)
    vals, probes = count_probes(monkeypatch, a)
    assert vals == farey_solve_values(a)
    assert probes <= 30


def test_each_probe_lifts_its_group_subgame_alone(monkeypatch):
    # probes of the whole arena lifted 33 x 400 = 13,200 vertices here
    a = gen_random_arena(400, 3, 10, 1)
    sizes = []
    monkeypatch.setattr("mpgsolver.values.reweight",
                        lambda g, nu: sizes.append(g.n) or reweight(g, nu))
    solve_values(a)
    assert len(sizes) == 33
    assert sum(sizes) <= 7000


def test_a_group_with_a_dead_end_is_an_internal_error(monkeypatch):
    # a measure finite at p and r alone splits them from q, and p's only
    # arc leads to q, out of the winners' subgame
    a = Arena(["p", "q", "r"], [0, 0, 0],
              [(0, 1, 0), (1, 0, 0), (1, 1, -5), (2, 2, 5)])
    monkeypatch.setattr(
        energy, "least_sepm",
        lambda arena: energy.EnergyFunction(
            [0, energy.arena_cap(arena) + 1, 0], energy.arena_cap(arena)))
    with pytest.raises(InternalError, match=r"value group \[1/2, 6\) does "
                       "not induce a subgame: vertex p has no outgoing arc"):
        solve_values(a)


def test_a_lone_vertex_without_a_self_loop_is_an_internal_error(
        monkeypatch):
    # a measure finite at p alone splits {p, q}, whose values are equal;
    # q is then alone in [-1, 1/2), with no self-loop to read
    a = Arena(["p", "q"], [0, 0], [(0, 1, 1), (1, 0, 1)])
    monkeypatch.setattr(
        energy, "least_sepm",
        lambda arena, seed=None: energy.EnergyFunction(
            [0, energy.arena_cap(arena) + 1], energy.arena_cap(arena)))
    with pytest.raises(InternalError, match=r"q is alone in .* \[-1, 1/2\)"):
        solve_values(a)


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
    calls, reweights = [], []
    monkeypatch.setattr("mpgsolver.energy.least_sepm",
                        lambda arena: calls.append(arena) or least_sepm(arena))
    monkeypatch.setattr("mpgsolver.values.reweight",
                        lambda a, nu: reweights.append(a) or reweight(a, nu))
    f = cls.least_sepm()
    assert f == least_sepm(reweight(gamma_ex, cls.nu))
    assert cls.least_sepm() is f
    synthesize_optimal(gamma_ex, [cls])
    assert len(calls) == 1
    assert reweights == [cls.subgame]


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


def test_is_optimal_rejects_values_of_another_length(gamma_ex):
    vals = solve_values(gamma_ex)
    s = synthesize_optimal(gamma_ex, ergodic_partition(gamma_ex, vals))
    assert is_optimal(gamma_ex, vals, s)
    longer = ValueAssignment(vals.vals + (vals.vals[0],))
    shorter = ValueAssignment(vals.vals[:-1])
    assert not is_optimal(gamma_ex, longer, s)
    assert not is_optimal(gamma_ex, shorter, s)


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


def solved(arena, vals=None):
    """Values (solved unless given), their classes and the synthesized
    strategy."""
    vals = solve_values(arena) if vals is None else vals
    classes = ergodic_partition(arena, vals)
    return vals, classes, synthesize_optimal(arena, classes)


CORPUS = [gen_random_arena(6, 3, 4, seed) for seed in range(200)]


def test_certificate_accepts_the_synthesized_strategy(gamma_ex, gamma_d):
    larger = [gen_random_arena(n, 3, 10, 1) for n in (50, 200, 1000)]
    for a in CORPUS + larger + [gamma_ex, gamma_d]:
        vals, classes, s = solved(a)
        assert certify_optimal(a, vals, classes, s)


def test_certificate_accepts_no_deviation_that_is_not_optimal():
    # Every one-arc deviation of the synthesized strategy on the corpus.
    # The certificate is one-sided: it may reject an optimal deviation
    # that the class measure does not witness, but accepts only optimal
    # ones, and never a pick that leaves its class.
    accepted = rejected_optimal = 0
    for a in CORPUS:
        vals, classes, s = solved(a)
        for u in a.vertices_of(0):
            for v, _ in a.out[u]:
                if v == s.choice[u]:
                    continue
                choice = list(s.choice)
                choice[u] = v
                t = PositionalStrategy(choice)
                if certify_optimal(a, vals, classes, t):
                    assert is_optimal(a, vals, t)
                    assert vals.vals[v] == vals.vals[u]
                    accepted += 1
                elif is_optimal(a, vals, t):
                    rejected_optimal += 1
    assert accepted > 0 and rejected_optimal > 0


def test_certificate_rejects_a_pick_that_breaks_the_potential(gamma_ex):
    # sigma(E)=F is optimal and stays in E's class, but (E, F) is not
    # compatible: f(E) < f(F) - w', so f is no potential for it
    vals, classes, s = solved(gamma_ex)
    idx = gamma_ex.index
    choice = list(s.choice)
    choice[idx["E"]] = idx["F"]
    t = PositionalStrategy(choice)
    assert is_optimal(gamma_ex, vals, t)
    assert not certify_optimal(gamma_ex, vals, classes, t)


def test_certificate_rejects_a_player_1_arc_into_a_lower_value():
    # x (Player 1) may move to y, of printed value -1 below x's printed 0:
    # each class's measure is finite, and only that arc gives it away
    a = Arena(["x", "y"], [1, 0], [(0, 0, 0), (0, 1, 0), (1, 1, -1)])
    vals = ValueAssignment([0, -1])
    _, classes, s = solved(a, vals)
    assert all(cls.least_sepm().all_finite() for cls in classes)
    assert not is_optimal(a, vals, s)
    assert not certify_optimal(a, vals, classes, s)


def test_certificate_rejects_a_pick_outside_its_class():
    # p printed 0 picks q, printed 1: the pick leaves p's class upward
    a = Arena(["p", "q"], [0, 0], [(0, 0, 0), (0, 1, 0), (1, 1, 1)])
    vals = ValueAssignment([0, 1])
    _, classes, _ = solved(a, vals)
    up = PositionalStrategy([1, 1])
    assert not is_optimal(a, vals, up)
    assert not certify_optimal(a, vals, classes, up)
    assert certify_optimal(a, vals, classes, PositionalStrategy([0, 1]))


def test_certificate_rejects_values_below_the_payoff():
    # printed 0 on p's loop of weight 1: f = 0 is a finite potential for
    # sigma, but no cycle is tight, so nothing shows a cycle of mean 0
    a = Arena(["p", "q"], [0, 1], [(0, 0, 1), (0, 1, 0), (1, 1, 2)])
    vals = ValueAssignment([0, 2])
    _, classes, s = solved(a, vals)
    assert s.choice == (0, None)
    assert not is_optimal(a, vals, s)
    assert not certify_optimal(a, vals, classes, s)


def test_certificate_rejects_bad_cycle_choice():
    # the arena and ``bad`` of test_is_optimal_rejects_bad_cycle_choice
    a = Arena(["p", "q", "r"], [0, 1, 1],
              [(0, 1, 1), (1, 0, 1), (0, 2, 0), (2, 2, 0)])
    vals, classes, s = solved(a)
    bad = PositionalStrategy([2, None, None])
    assert not certify_optimal(a, vals, classes, bad)
    assert certify_optimal(a, vals, classes, s)


def test_certificate_rejects_inputs_of_another_shape(gamma_ex):
    vals, classes, s = solved(gamma_ex)
    for choice in (s.choice[:-1], s.choice + (None,)):
        assert not certify_optimal(gamma_ex, vals, classes,
                                   PositionalStrategy(choice))
    longer = ValueAssignment(vals.vals + (vals.vals[0],))
    assert not certify_optimal(gamma_ex, longer, classes, s)
    shifted = ValueAssignment([v + 1 for v in vals.vals])
    assert not certify_optimal(gamma_ex, shifted, classes, s)
    assert not certify_optimal(gamma_ex, vals, [], s)
    assert not certify_optimal(gamma_ex, vals, classes * 2, s)
    idx = gamma_ex.index
    assigned = list(s.choice)
    assigned[idx["A"]] = idx["B"]  # A is a Player-1 vertex
    assert not certify_optimal(gamma_ex, vals, classes,
                               PositionalStrategy(assigned))


def test_value_json(gamma_ex):
    blob = solve_values(gamma_ex).to_json(gamma_ex)
    assert blob["values"]["A"] == {"num": -1, "den": 1}
