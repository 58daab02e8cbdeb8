import itertools
import random
from fractions import Fraction

import pytest

from mpgsolver import (Arena, OracleBoundError, least_sepm, oracle,
                       parse_arena, reweight, serialize_arena)
from mpgsolver.oracle import (all_strategies, exhaustive_opt,
                              gen_random_arena, naive_least_sepm,
                              payoff_vector, reference_energy_lattice,
                              strategy_count, ttpg_game_tree_value)
from mpgsolver.potentials import PositionalStrategy, restrict
from mpgsolver.values import (ergodic_partition, solve_values,
                              synthesize_optimal)


def _tarjan_sccs(out):
    """Tarjan's strongly connected components, iterative, sinks first.

    The payoff check's earlier component search, kept as a test-only
    reference for Kosaraju's.
    """
    n = len(out)
    order = [0] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = itertools.count(1)
    for root in range(n):
        if order[root]:
            continue
        work = [(root, 0)]
        while work:
            u, i = work.pop()
            if i == 0:
                order[u] = low[u] = next(counter)
                stack.append(u)
                on_stack[u] = True
            advanced = False
            while i < len(out[u]):
                v = out[u][i][0]
                i += 1
                if not order[v]:
                    work.append((u, i))
                    work.append((v, 0))
                    advanced = True
                    break
                if on_stack[v]:
                    low[u] = min(low[u], order[v])
            if advanced:
                continue
            if low[u] == order[u]:
                comp = []
                while True:
                    v = stack.pop()
                    on_stack[v] = False
                    comp.append(v)
                    if v == u:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
    return comps


def _fraction_karp_min_mean(members, out):
    """Karp's minimum cycle mean with one Fraction per (vertex, k) pair:
    the payoff check's earlier Karp, kept as a test-only reference."""
    local = {u: i for i, u in enumerate(members)}
    arcs = [(local[u], local[v], w)
            for u in members for v, w in out[u] if v in local]
    ns = len(members)
    dist = [[None] * ns for _ in range(ns + 1)]
    dist[0][0] = 0
    for k in range(1, ns + 1):
        row, prev = dist[k], dist[k - 1]
        for u, v, w in arcs:
            if prev[u] is not None:
                cand = prev[u] + w
                if row[v] is None or cand < row[v]:
                    row[v] = cand
    best = None
    last = dist[ns]
    for v in range(ns):
        if last[v] is None:
            continue
        worst = None
        for k in range(ns):
            if dist[k][v] is None:
                continue
            ratio = Fraction(last[v] - dist[k][v], ns - k)
            if worst is None or ratio > worst:
                worst = ratio
        if best is None or worst < best:
            best = worst
    return best


def reference_payoff_vector(graph):
    """``payoff_vector`` built from the two test-only references."""
    out = graph.out
    comps = _tarjan_sccs(out)
    comp_of = [0] * graph.n
    for ci, members in enumerate(comps):
        for u in members:
            comp_of[u] = ci
    best = [None] * len(comps)
    for ci, members in enumerate(comps):
        cyclic = len(members) > 1 or any(
            v == members[0] for v, _ in out[members[0]])
        mu = _fraction_karp_min_mean(members, out) if cyclic else None
        for u in members:
            for v, _ in out[u]:
                cj = comp_of[v]
                if cj != ci and best[cj] is not None:
                    if mu is None or best[cj] < mu:
                        mu = best[cj]
        best[ci] = mu
    return tuple(best[comp_of[u]] for u in range(graph.n))


def brute_force_payoffs(graph):
    """Least mean over the simple cycles each vertex reaches, every simple
    cycle enumerated once, from its least vertex."""
    cycles = []  # (vertices, weight)

    def walk(start, path, weight):
        for v, w in graph.out[path[-1]]:
            if v == start:
                cycles.append((path, weight + w))
            elif v > start and v not in path:
                walk(start, path + [v], weight + w)

    for start in range(graph.n):
        walk(start, [start], 0)
    payoffs = []
    for u in range(graph.n):
        reach = {u}
        frontier = [u]
        while frontier:
            for v, _ in graph.out[frontier.pop()]:
                if v not in reach:
                    reach.add(v)
                    frontier.append(v)
        payoffs.append(min(Fraction(weight, len(path))
                           for path, weight in cycles if reach & set(path)))
    return tuple(payoffs)


def random_restriction(arena, rng):
    """G_sigma for a strategy picking a uniform arc at each Player-0 vertex."""
    return restrict(arena, PositionalStrategy([
        rng.choice(arena.out[u])[0] if arena.owner[u] == 0 else None
        for u in range(arena.n)]))


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


def test_sccs_are_tarjans_components_sinks_first():
    rng = random.Random(3)
    for seed in range(200):
        graph = random_restriction(
            gen_random_arena(rng.randint(1, 40), 3, 5, seed), rng)
        comps, comp_of = oracle._sccs(graph)
        assert (sorted(map(sorted, comps))
                == sorted(map(sorted, _tarjan_sccs(graph.out))))
        for ci, members in enumerate(comps):
            assert all(comp_of[u] == ci for u in members)
            # an arc leaves a component only for one listed before it
            assert all(comp_of[v] <= ci
                       for u in members for v, _ in graph.out[u])


def test_payoff_vector_matches_the_references_on_random_restrictions():
    rng = random.Random(11)
    for seed in range(300):
        arena = gen_random_arena(rng.randint(1, 60), rng.randint(1, 3),
                                 rng.choice((1, 5, 100)), seed)
        graph = random_restriction(arena, rng)
        assert payoff_vector(graph) == reference_payoff_vector(graph)


def test_payoff_vector_matches_the_references_on_a_synthesized_strategy():
    arena = gen_random_arena(1000, 3, 10, 1)
    vals = solve_values(arena)
    strategy = synthesize_optimal(arena, ergodic_partition(arena, vals))
    graph = restrict(arena, strategy)
    assert payoff_vector(graph) == reference_payoff_vector(graph) == vals.vals


def test_payoff_vector_matches_every_simple_cycle_on_small_graphs():
    rng = random.Random(5)
    for seed in range(400):
        n = rng.randint(1, 7)
        arena = gen_random_arena(n, rng.randint(1, n), rng.randint(0, 6), seed)
        # Player 1 everywhere: every arc stays, dense graphs included
        graph = Arena(arena.names, [1] * n, arena.arcs())
        assert (payoff_vector(graph) == reference_payoff_vector(graph)
                == brute_force_payoffs(graph))
        graph = random_restriction(arena, rng)
        assert payoff_vector(graph) == brute_force_payoffs(graph)


def test_payoff_vector_builds_one_fraction_per_component(monkeypatch):
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(oracle, "Fraction", counting_fraction)
    rng = random.Random(7)
    for seed in range(50):
        graph = random_restriction(gen_random_arena(40, 3, 10, seed), rng)
        built.clear()
        payoffs = payoff_vector(graph)
        assert len(built) <= len(_tarjan_sccs(graph.out))
        assert payoffs == reference_payoff_vector(graph)


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
