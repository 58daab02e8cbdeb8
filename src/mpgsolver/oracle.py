"""Brute-force ground truth for desk-scale instances.

Everything here is deliberately naive: payoffs come from Karp's minimum
mean-cycle algorithm run per strongly connected component, the optimal
strategy set from enumerating every positional strategy, and the reference
least progress measure from full Kleene sweeps.  These are the independent
yardsticks the fast paths are differential-tested against, so they must
not share algorithmic shortcuts with them.

Karp's theorem: in a digraph where every vertex is reachable from a source
s, the minimum cycle mean equals
min_u max_k (D_n(u) - D_k(u)) / (n - k)
over vertices u with D_n(u) finite, where D_k(u) is the minimum weight of
a walk of length exactly k from s to u.  Means are exact Fractions; no
floating point is used anywhere.
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


def _sccs(out):
    """Tarjan's strongly connected components, iterative.

    Emitted sinks-first: every component appears before any component with
    an arc into it.
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


def _karp_min_mean(members, out):
    """Exact minimum cycle mean inside one strongly connected component."""
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
    if best is None:
        raise InternalError("Karp found no cycle in a cyclic component")
    return best


def payoff_vector(graph):
    """Minimum reachable cycle mean from every vertex of a one-player graph.

    This is the payoff Player 1 can force against the fixed strategy.
    Components are scanned sinks-first, so the minimum over reachable
    cyclic components propagates along condensation arcs in one pass.
    """
    out = graph.out
    n = graph.n
    comps = _sccs(out)
    comp_of = [0] * n
    for ci, members in enumerate(comps):
        for u in members:
            comp_of[u] = ci
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
    payoffs = [best[comp_of[u]] for u in range(n)]
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
