"""Game values, the ergodic partition, and optimal strategy synthesis.

Every vertex value is the mean weight of some simple cycle, hence a
rational with denominator at most |V| and magnitude at most W.  Values are
found by exact bisection: the probe "does Player 0 win the energy game on
the arena reweighted by nu?" answers val(v) >= nu for every vertex at
once, so one winning-region computation serves a whole group of vertices.
Once a group's interval is narrower than 1/|V|^2 it contains exactly one
candidate value, recovered by scanning denominators 1..|V|.

Grouping vertices by value yields the ergodic partition; each class
induces a nu-valued subgame that is analyzed independently.  An optimal
strategy is assembled per class from arcs compatible with the class
subgame's least progress measure in the reweighted energy game.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import energy
from .arena import Arena, reweight
from .errors import InternalError
from .potentials import PositionalStrategy, restrict


class ValueAssignment:
    """Exact per-vertex game values."""

    __slots__ = ("vals",)

    def __init__(self, vals):
        self.vals = tuple(Fraction(v) for v in vals)

    def to_json(self, arena):
        return {"values": {arena.names[u]: {"num": v.numerator,
                                            "den": v.denominator}
                           for u, v in enumerate(self.vals)}}

    def __eq__(self, other):
        if not isinstance(other, ValueAssignment):
            return NotImplemented
        return self.vals == other.vals

    def __repr__(self):
        return "ValueAssignment(%s)" % (", ".join(map(str, self.vals)),)


class ErgodicClass:
    """One value class: value, member vertices, subgame, its least SEPM."""

    __slots__ = ("nu", "vertices", "subgame", "_sepm")

    def __init__(self, nu, vertices, subgame):
        self.nu = nu
        self.vertices = tuple(vertices)  # original arena indices, ascending
        self.subgame = subgame           # induced Arena on those vertices
        self._sepm = None

    def least_sepm(self):
        """Least SEPM of the subgame reweighted by nu, computed once."""
        if self._sepm is None:
            self._sepm = energy.least_sepm(reweight(self.subgame, self.nu))
        return self._sepm

    def __repr__(self):
        return "ErgodicClass(nu=%s, |C|=%d)" % (self.nu, len(self.vertices))


def _candidate_in(lo, hi, n):
    """The unique rational with denominator <= n in [lo, hi), if any."""
    for d in range(1, n + 1):
        num = math.ceil(lo * d)
        cand = Fraction(num, d)
        if lo <= cand < hi:
            return cand
    raise InternalError("no candidate value in [%s, %s)" % (lo, hi))


def solve_values(arena):
    """Exact game value of every vertex.

    Bisection invariant per group: lo <= val(v) < hi for all members; a
    probe at mid splits the group by membership in the winning region of
    the reweighted energy game.
    """
    n = arena.n
    width_stop = Fraction(1, n * n)
    vals = [None] * n
    groups = [(list(range(n)), Fraction(-arena.W), Fraction(arena.W + 1))]
    while groups:
        members, lo, hi = groups.pop()
        if hi - lo <= width_stop:
            cand = _candidate_in(lo, hi, n)
            for u in members:
                vals[u] = cand
            continue
        mid = (lo + hi) / 2
        w0, _ = energy.winning_regions(reweight(arena, mid))
        winners = [u for u in members if u in w0]
        losers = [u for u in members if u not in w0]
        if winners:
            groups.append((winners, mid, hi))
        if losers:
            groups.append((losers, lo, mid))
    return ValueAssignment(vals)


def ergodic_partition(arena, vals):
    """Group vertices by value; each class induces a nu-valued subgame.

    Returns a list of ErgodicClass, ordered by first occurrence in
    declaration order.  A dead-end inside an induced subgame cannot happen
    when the values are correct and is reported as an internal error.
    """
    order = []
    by_value = {}
    for u in range(arena.n):
        v = vals.vals[u]
        if v not in by_value:
            by_value[v] = []
            order.append(v)
        by_value[v].append(u)
    classes = []
    for nu in order:
        members = by_value[nu]
        local = {u: i for i, u in enumerate(members)}
        out = [[(local[v], w) for v, w in arena.out[u] if v in local]
               for u in members]
        for u, row in zip(members, out):
            if not row:
                raise InternalError(
                    "value class %s does not induce a subgame: vertex %s "
                    "has no outgoing arc" % (nu, arena.names[u]))
        subgame = Arena._from_rows([arena.names[u] for u in members],
                                   [arena.owner[u] for u in members],
                                   out, arena.scale)
        classes.append(ErgodicClass(nu, members, subgame))
    return classes


def synthesize_optimal(arena, classes):
    """One optimal positional strategy via compatible arcs per class.

    ``classes`` is the ergodic partition of ``arena``.  At each Player-0
    vertex the lowest-index arc compatible with its class's least SEPM,
    finite everywhere, is selected (deterministic tie-break).
    """
    choice = [None] * arena.n
    for cls in classes:
        sub = reweight(cls.subgame, cls.nu)
        f = cls.least_sepm()
        if not f.all_finite():
            raise InternalError("class subgame for nu=%s is not everywhere "
                                "winning after reweighting" % (cls.nu,))
        for i in range(sub.n):
            if sub.owner[i] != 0:
                continue
            arcs = energy.compatible_arcs(sub, f, i)
            if not arcs:
                raise InternalError("no compatible arc at %s" % sub.names[i])
            _, j = arcs[0]
            choice[cls.vertices[i]] = cls.vertices[j]
    return PositionalStrategy(choice)


def is_optimal(arena, vals, strategy):
    """Does the strategy secure the exact value from every vertex?

    The payoff of a fixed strategy from v is the minimum mean weight over
    cycles reachable from v in the strategy-restricted graph, evaluated by
    the brute-force oracle; optimality is payoff == value everywhere (the
    payoff can never exceed the value).  For a nu-valued arena this is
    equivalent to the restricted reweighted graph being conservative.
    """
    from . import oracle  # local import: oracle depends on this module

    graph = restrict(arena, strategy)
    payoffs = oracle.payoff_vector(graph)
    return all(payoffs[u] == vals.vals[u] for u in range(arena.n))
