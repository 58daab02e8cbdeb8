"""Game values, the ergodic partition, and optimal strategy synthesis.

Every vertex value is the mean weight of some simple cycle, hence a
candidate: a fraction in [-W, W] with denominator <= |V| (Zwick & Paterson,
TCS 1996).  Values are found by bisection over the candidates: the probe
"does Player 0 win the energy game on the arena reweighted by nu?" answers
val(v) >= nu for every vertex at once, so one winning-region computation
serves a whole group of vertices.  Each probe nu is the candidate nearest
the middle of its group's interval, so its denominator is <= |V| as well.

Grouping vertices by value yields the ergodic partition; each class
induces a nu-valued subgame that is analyzed independently.  An optimal
strategy is assembled per class from arcs compatible with the class
subgame's least progress measure in the reweighted energy game.
"""

from __future__ import annotations

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

    __slots__ = ("nu", "vertices", "subgame", "_scaled", "_sepm")

    def __init__(self, nu, vertices, subgame):
        self.nu = nu
        self.vertices = tuple(vertices)  # original arena indices, ascending
        self.subgame = subgame           # induced Arena on those vertices
        self._scaled = self._sepm = None

    def least_sepm(self):
        """Least SEPM of the subgame reweighted by nu, computed once.

        The reweighted subgame is kept beside it, in ``_scaled``.
        """
        if self._sepm is None:
            self._scaled = reweight(self.subgame, self.nu)
            self._sepm = energy.least_sepm(self._scaled)
        return self._sepm

    def __repr__(self):
        return "ErgodicClass(nu=%s, |C|=%d)" % (self.nu, len(self.vertices))


def solve_values(arena):
    """Exact game value of every vertex.

    Invariant per group: lo <= val(v) < hi for all members, where lo and
    hi are fractions with denominator <= |V|; it starts at [-W, W + 1).
    The probe mid is the candidate nearest the middle of the interval
    (ties either way) and splits the group by the reweighted winning
    region.  Every point strictly inside the interval is nearer the middle
    than lo and hi are, so mid is lo or hi only when no candidate lies
    strictly between them; then val(v) = lo, itself a candidate.
    """
    vals = [None] * arena.n
    groups = [(list(range(arena.n)), Fraction(-arena.W),
               Fraction(arena.W + 1))]
    while groups:
        members, lo, hi = groups.pop()
        mid = ((lo + hi) / 2).limit_denominator(arena.n)
        if mid == lo or mid == hi:
            for u in members:
                vals[u] = lo
            continue
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
    by_value = {}
    for u, v in enumerate(vals.vals):
        by_value.setdefault(v, []).append(u)
    classes = []
    for nu, members in by_value.items():
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
        f = cls.least_sepm()
        sub = cls._scaled
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
    Values of another length (another game's) get False.
    """
    from . import oracle  # local import: oracle depends on this module

    if len(vals.vals) != arena.n:
        return False
    graph = restrict(arena, strategy)
    payoffs = oracle.payoff_vector(graph)
    return all(payoffs[u] == vals.vals[u] for u in range(arena.n))
