"""Brute-force ground truth for desk-scale instances.

Everything here is deliberately naive: payoffs come from Karp's minimum
mean-cycle algorithm run per strongly connected component (Kosaraju's two
sweeps, one over ``out`` and one over ``ins``), the optimal
strategy set from enumerating every positional strategy, and the reference
least progress measure from full Kleene sweeps.  These are the independent
yardsticks the fast paths are differential-tested against, so they must
not share algorithmic shortcuts with them.

Karp's theorem: in a digraph where every vertex is reachable from a source
s, the minimum cycle mean equals
min_u max_k (D_n(u) - D_k(u)) / (n - k)
over vertices u with D_n(u) finite, where D_k(u) is the minimum weight of
a walk of length exactly k from s to u.  The ratios are compared as
integer pairs by cross-multiplication, and each component's mean becomes
one exact Fraction; no floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import energy
from .arena import Arena, reweight
from .errors import InternalError, OracleBoundError
from .potentials import PositionalStrategy, least_feasible_potential, restrict
from .values import ValueAssignment


def _sccs(graph):
    """Kosaraju's strongly connected components, iterative.

    One depth-first pass over ``out`` records the finish order; one sweep
    over ``ins``, latest-finished vertex first, collects each component.
    Returns the components sinks first (every component before any
    component with an arc into it) and each vertex's component index.
    """
    n = graph.n
    seen = [False] * n
    finished = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(graph.out[root]))]
        while work:
            u, arcs = work[-1]
            for v, _ in arcs:
                if not seen[v]:
                    seen[v] = True
                    work.append((v, iter(graph.out[v])))
                    break
            else:
                work.pop()
                finished.append(u)
    comps = []
    comp_of = [None] * n
    for root in reversed(finished):
        if comp_of[root] is not None:
            continue
        members = [root]
        comp_of[root] = len(comps)
        for u in members:
            for v, _ in graph.ins[u]:
                if comp_of[v] is None:
                    comp_of[v] = len(comps)
                    members.append(v)
        comps.append(members)
    # the sweep met sources first; number the components sinks first
    last = len(comps) - 1
    return comps[::-1], [last - c for c in comp_of]


def _karp_min_mean(members, out):
    """Exact minimum cycle mean inside one strongly connected component.

    Each ratio (D_n(v) - D_k(v)) / (n - k) is kept as an integer pair and
    compared by cross-multiplication (its denominator is positive); only
    the result becomes a Fraction.
    """
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
            num, den = last[v] - dist[k][v], ns - k
            if worst is None or num * worst[1] > worst[0] * den:
                worst = num, den
        if best is None or worst[0] * best[1] < best[0] * worst[1]:
            best = worst
    if best is None:
        raise InternalError("Karp found no cycle in a cyclic component")
    return Fraction(*best)


def payoff_vector(graph):
    """Minimum reachable cycle mean from every vertex of a one-player graph.

    This is the payoff Player 1 can force against the fixed strategy.
    Components are scanned sinks-first, so the minimum over reachable
    cyclic components propagates along condensation arcs in one pass.
    """
    out = graph.out
    comps, comp_of = _sccs(graph)
    best = [None] * len(comps)
    for ci, members in enumerate(comps):
        cyclic = len(members) > 1 or any(
            v == members[0] for v, _ in out[members[0]])
        mu = _karp_min_mean(members, out) if cyclic else None
        for u in members:
            for v, _ in out[u]:
                cj = comp_of[v]
                if cj != ci and best[cj] is not None:
                    if mu is None or best[cj] < mu:
                        mu = best[cj]
        best[ci] = mu
    payoffs = [best[c] for c in comp_of]
    if any(p is None for p in payoffs):
        raise InternalError("a vertex reaches no cycle; arena invariant broken")
    return tuple(payoffs)


def all_strategies(arena):
    """Every positional strategy, in canonical (declaration) order."""
    p0 = arena.vertices_of(0)
    pools = [[v for v, _ in arena.out[u]] for u in p0]
    for picks in itertools.product(*pools):
        choice = [None] * arena.n
        for u, v in zip(p0, picks):
            choice[u] = v
        yield PositionalStrategy(choice)


def strategy_count(arena):
    count = 1
    for u in arena.vertices_of(0):
        count *= len(arena.out[u])
    return count


def exhaustive_opt(arena, max_strategies=10 ** 6):
    """Values and the full optimal strategy set by exhaustion.

    payoff(sigma, v) is the minimum reachable cycle mean in the restricted
    graph; vals is the pointwise maximum over strategies and opt the set
    achieving it at every vertex.
    """
    total = strategy_count(arena)
    if total > max_strategies:
        raise OracleBoundError("%d strategies exceed the bound %d"
                               % (total, max_strategies))
    evaluated = [(s, payoff_vector(restrict(arena, s)))
                 for s in all_strategies(arena)]
    vals = list(evaluated[0][1])
    for _, pay in evaluated[1:]:
        for u, p in enumerate(pay):
            if p > vals[u]:
                vals[u] = p
    opt = [s for s, pay in evaluated if all(
        p == vals[u] for u, p in enumerate(pay))]
    return ValueAssignment(vals), opt


def reference_energy_lattice(arena, nu, opt):
    """Distinct least feasible potentials of the optimal strategies.

    This is the defining description of the extremal progress measures of
    a nu-valued game, produced without any recursion or store.
    """
    scaled = reweight(arena, nu)
    seen = set()
    out = []
    for strategy in opt:
        pi = least_feasible_potential(restrict(scaled, strategy))
        if pi.values not in seen:
            seen.add(pi.values)
            out.append(pi)
    return out


def naive_least_sepm(arena):
    """Least SEPM by full Kleene sweeps from the all-zero function.

    Reference for the worklist iteration; exponential patience, desk-scale
    inputs only.
    """
    cap = energy.arena_cap(arena)
    f = [0] * arena.n
    while True:
        g = []
        for u in range(arena.n):
            reqs = [energy.ominus(f[v], w, cap) for v, w in arena.out[u]]
            g.append(min(reqs) if arena.owner[u] == 0 else max(reqs))
        if g == f:
            return energy.EnergyFunction(f, cap, arena.scale)
        f = g


def ttpg_game_tree_value(arena, v, k):
    """k-step truncated total-payoff value by explicit game-tree expansion.

    Exponential in k; independent oracle for the tabulated recursion.
    """
    if k == 0:
        return 0
    totals = [w + ttpg_game_tree_value(arena, x, k - 1)
              for x, w in arena.out[v]]
    return max(totals) if arena.owner[v] == 0 else min(totals)


def gen_random_arena(n, max_out, w_max, seed):
    """Deterministic-per-seed random arena.

    Out-degrees are uniform in [1, max_out] (capped by n, duplicate arcs
    are never produced), owners uniform, weights uniform in
    [-w_max, w_max].
    """
    if n < 1 or max_out < 1 or w_max < 0:
        raise ValueError("need n >= 1, max_out >= 1, w_max >= 0")
    rng = random.Random(seed)
    names = ["v%d" % i for i in range(n)]
    owners = [rng.randint(0, 1) for _ in range(n)]
    arcs = []
    for u in range(n):
        degree = rng.randint(1, min(max_out, n))
        for v in sorted(rng.sample(range(n), degree)):
            arcs.append((u, v, rng.randint(-w_max, w_max)))
    return Arena(names, owners, arcs)
