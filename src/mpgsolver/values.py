"""Game values, the ergodic partition, and optimal strategy synthesis.

Every vertex value is the mean weight of a simple cycle inside the
vertex's own value class, hence a candidate: a fraction in [-W, W] with
denominator at most the size of that class, and so at most |V| (Zwick &
Paterson, TCS 1996).  Values are found by bisection over the candidates:
the probe "does Player 0 win the energy game on the arena reweighted by
nu?" answers val(v) >= nu for every vertex at once, so one least-SEPM
computation serves a whole group of vertices.  A group holds the whole
value class of each of its members, so each probe nu is the fraction
nearest the middle of its group's interval among those with denominator
at most the group's size, and a group of one vertex reads its value off
its self-loop, with no probe.  The bisection runs on pairs of ints, and
each probe lifts from the least SEPM of the probe at its interval's lower
end, rescaled to its own units: read in real units, the least SEPM only
rises with nu.  Comin & Rizzi (Algorithmica 2017) reuse energy levels
across candidate values the same way, on top of the value iteration of
Brim et al. (FMSD 2011).

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


def _nearest(p, q, n):
    """The fraction nearest p/q (q > 0) with denominator <= n, as a
    coprime pair of ints.

    ``Fraction(p, q).limit_denominator(n)``, on ints and ties included:
    of the last convergent and the semiconvergent on its other side, the
    convergent is kept unless the semiconvergent is strictly nearer.  p/q
    need not be reduced: every remainder then carries the same factor as
    q, and the comparison cancels it.
    """
    den = q
    p0, q0, p1, q1 = 0, 1, 1, 0
    while q:
        a = p // q
        q2 = q0 + a * q1
        if q2 > n:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        p, q = q, p - a * q
    else:
        return p1, q1  # p/q itself, whose reduced denominator is <= n
    k = (n - q0) // q1
    # p1/q1 lies q/(q1*den) from p/q; the semiconvergent lies
    # 1/(q1*(q0 + k*q1)) from p1/q1, across p/q
    if 2 * q * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _rescale(f, ld, md, cap):
    """The seed that f, the least SEPM at a value of denominator ld, gives
    the probe at a value of denominator md and energy cap ``cap``: top
    stays top, x becomes floor(x*md/ld), and what is above cap is top."""
    if f is None:
        return None
    old, top = f.cap, cap + 1
    return energy.EnergyFunction(
        [top if x > old else min(x * md // ld, top) for x in f.values], cap)


def solve_values(arena):
    """Exact game value of every vertex.

    Invariant per group: lo <= val(v) < hi for all members, where lo and
    hi are earlier probes or the bounds -W and W + 1 of the first group,
    kept as coprime int pairs ln/ld and hn/hd.  The probe mid = mn/md is
    the fraction nearest the middle of the interval with denominator
    <= k, the group's size (``_nearest``, the rule of
    ``Fraction.limit_denominator``), and splits the group by the finite
    region of the reweighted least SEPM.

    Why k suffices.  The groups' intervals are pairwise disjoint, so the
    value class C of a member u, the vertices of value val(u), lies in
    u's group.  C induces a subgame whose value is val(u) everywhere, and
    in it optimal positional strategies of both players, played from u,
    close a simple cycle of mean exactly val(u) inside C.  So
    den(val(u)) <= |C| <= k: every member's value is a candidate of
    denominator <= k in [lo, hi).  Every point strictly inside the
    interval is nearer the middle than lo and hi are, so mid is lo or hi
    only when no such candidate lies strictly between them; then every
    value is lo.  A group {u} of one vertex is its own class, whose only
    cycle is u's self-loop: val(u) is that loop's weight, and no probe
    is made.  A lone vertex without a self-loop in [lo, hi) contradicts
    this and raises InternalError.  A ``Fraction`` is built only to
    reweight and to assign a value.

    Warm probes.  Each group also keeps f_lo, the least SEPM of the probe
    at lo, and mid's probe lifts from it rescaled (``_rescale``), or from
    all-zero while the group's lo is -W, which was never probed.  Every
    probe reweights the whole arena, whatever the group's size, so f_lo
    and f_mid measure the same vertices.  This is sound.  On the arena
    reweighted by nu = m/b, whose weights are b*(w - nu), a finite least
    SEPM value x reads x/b in real units: the least credit with which
    Player 0 keeps the running sum of w - nu nonnegative forever, and top
    means none suffices.  Lowering every weight can only raise that
    credit, so it is monotone in nu, top included.  Since lo < mid,
    f*_mid(v) >= f_lo(v)*md/ld >= floor(f_lo(v)*md/ld), and f*_mid(v) is
    top where f_lo(v) is.  A rescaled value above mid's cap bounds
    f*_mid(v) from below, so f*_mid(v) exceeds the cap too and is top:
    the cap never cuts a finite least value.  So the seed lies pointwise
    below f*_mid, which is all that ``least_sepm`` asks of a seed, and the
    measure, hence the split, is the cold probe's.  Winners carry f_mid
    to [mid, hi); losers keep f_lo on [lo, mid).
    """
    n = arena.n
    vals = [None] * n
    groups = [(list(range(n)), -arena.W, 1, arena.W + 1, 1, None)]
    while groups:
        members, ln, ld, hn, hd, below = groups.pop()
        if len(members) == 1:
            (u,) = members
            w = next((w for v, w in arena.out[u] if v == u), None)
            if w is None or not ln <= w * ld or not w * hd < hn:
                raise InternalError(
                    "vertex %s is alone in its value interval [%s, %s) "
                    "without a self-loop there"
                    % (arena.names[u], Fraction(ln, ld), Fraction(hn, hd)))
            vals[u] = Fraction(w)
            continue
        mn, md = _nearest(ln * hd + hn * ld, 2 * ld * hd, len(members))
        if (mn == ln and md == ld) or (mn == hn and md == hd):
            lo = Fraction(ln, ld)
            for u in members:
                vals[u] = lo
            continue
        probe = reweight(arena, Fraction(mn, md))
        f = energy.least_sepm(
            probe, seed=_rescale(below, ld, md, energy.arena_cap(probe)))
        cap, levels = f.cap, f.values
        winners = [u for u in members if levels[u] <= cap]
        losers = [u for u in members if levels[u] > cap]
        if winners:
            groups.append((winners, mn, md, hn, hd, f))
        if losers:
            groups.append((losers, ln, ld, mn, md, below))
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
