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
its self-loop, with no probe.  For the same reason a group's own induced
subgame has its values, so each probe reweights and lifts that subgame
alone, from all-zero, not the whole arena.  The bisection runs on pairs
of ints.

Grouping vertices by value yields the ergodic partition; each class
induces a nu-valued subgame that is analyzed independently.  An optimal
strategy is assembled per class from arcs compatible with the class
subgame's least progress measure in the reweighted energy game, and
those measures certify it in O(|E|) (``certify_optimal``).
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


def _induce(arena, members, what):
    """The subgame that ``members``, ascending vertices of ``arena``,
    induce: their rows, cut to the arcs between them.  A member left
    without an arc is an InternalError about ``what()``, a callable so
    that the message is built only when raised."""
    local = {u: i for i, u in enumerate(members)}
    out = []
    for u in members:
        row = [(local[v], w) for v, w in arena.out[u] if v in local]
        if not row:
            raise InternalError("%s does not induce a subgame: vertex %s "
                                "has no outgoing arc"
                                % (what(), arena.names[u]))
        out.append(row)
    return Arena._from_rows([arena.names[u] for u in members],
                            [arena.owner[u] for u in members],
                            out, arena.scale)


def solve_values(arena):
    """Exact game value of every vertex.

    Invariant per group: lo <= val(v) < hi for all members, where lo and
    hi are earlier probes or the bounds -W and W + 1 of the first group,
    kept as coprime int pairs ln/ld and hn/hd.  The probe mid = mn/md is
    the fraction nearest the middle of the interval with denominator
    <= k, the group's size (``_nearest``, the rule of
    ``Fraction.limit_denominator``), and splits the group by the finite
    region of the least SEPM of the group's subgame reweighted by mid.

    Why the subgame.  The groups' intervals are pairwise disjoint, so a
    group's members have values in [lo, hi) and every other vertex has
    its value outside.  A Player-0 member's arcs that leave the group
    thus go to lower values, and a Player-1 member's to higher ones, and
    each member's optimal arcs stay inside its value class, which lies
    in the group.  So the subgame that the group induces has no dead
    end, and optimal strategies of both players restrict to it: it has
    the same values, and its probe splits the group exactly as the
    probe of the whole arena does.  Winners and losers induce their
    subgames from the probed one when it splits them, and keep it
    whole when it does not; ``verts`` maps its vertices back to the
    arena's.  A dead end there contradicts this and raises
    InternalError.

    Why k suffices.  The value class C of a member u, the vertices of
    value val(u), lies in u's group.  C induces a subgame whose value is
    val(u) everywhere, and in it optimal positional strategies of both
    players, played from u, close a simple cycle of mean exactly val(u)
    inside C.  So den(val(u)) <= |C| <= k: every member's value is a
    candidate of denominator <= k in [lo, hi).  Every point strictly
    inside the interval is nearer the middle than lo and hi are, so mid
    is lo or hi only when no such candidate lies strictly between them;
    then every value is lo.  A group {u} of one vertex is its own class,
    whose only cycle is u's self-loop: val(u) is that loop's weight, read
    off u's row in the subgame it was split from, and no subgame is
    built.  A lone vertex without a self-loop in [lo, hi) contradicts
    this and raises InternalError.  A ``Fraction`` is built only to
    reweight and to assign a value.
    """
    n = arena.n
    vals = [None] * n
    # (a subgame that holds the group, its vertices in the arena, the
    # group's members among them, ln, ld, hn, hd)
    groups = [(arena, range(n), range(n), -arena.W, 1, arena.W + 1, 1)]
    while groups:
        sub, verts, members, ln, ld, hn, hd = groups.pop()
        if len(members) == 1:
            (i,) = members
            w = next((w for v, w in sub.out[i] if v == i), None)
            if w is None or not ln <= w * ld or not w * hd < hn:
                raise InternalError(
                    "vertex %s is alone in its value interval [%s, %s) "
                    "without a self-loop there"
                    % (sub.names[i], Fraction(ln, ld), Fraction(hn, hd)))
            vals[verts[i]] = Fraction(w)
            continue
        mn, md = _nearest(ln * hd + hn * ld, 2 * ld * hd, len(members))
        if (mn == ln and md == ld) or (mn == hn and md == hd):
            lo = Fraction(ln, ld)
            for i in members:
                vals[verts[i]] = lo
            continue
        if len(members) < sub.n:
            sub = _induce(sub, members, lambda: "value group [%s, %s)"
                          % (Fraction(ln, ld), Fraction(hn, hd)))
            verts = [verts[i] for i in members]
        f = energy.least_sepm(reweight(sub, Fraction(mn, md)))
        cap, levels = f.cap, f.values
        winners = [i for i in range(sub.n) if levels[i] <= cap]
        losers = [i for i in range(sub.n) if levels[i] > cap]
        if winners:
            groups.append((sub, verts, winners, mn, md, hn, hd))
        if losers:
            groups.append((sub, verts, losers, ln, ld, mn, md))
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
    return [ErgodicClass(nu, members,
                         _induce(arena, members,
                                 lambda: "value class %s" % (nu,)))
            for nu, members in by_value.items()]


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


def certify_optimal(arena, vals, classes, strategy):
    """Do the class measures certify that the strategy secures ``vals``?

    ``classes`` is the ergodic partition of ``vals``, and each class C of
    value nu = num/den supplies f = ``C.least_sepm()``.  G_sigma is the
    arena with each Player-0 row cut to its pick.  In O(|E|), reading the
    arena's own rows and w' = w*den - num, so that neither the lifting
    nor the class subgames are trusted, it checks:

    (a) sigma stays in its class: it has one entry per vertex, None at
        each Player-1 vertex and one of its own arcs at each Player-0
        vertex.  No arc of G_sigma ends at a lower printed value, so a
        Player-1 arc that leaves C ends higher; a Player-0 pick that
        leaves C leaves its vertex no arc inside C, and (c) rejects it.
        The classes cover the arena once, each vertex printed at its
        class's value, and each class's f is finite;
    (b) f is a potential for sigma: f(u) >= f(v) - w' on every arc of
        G_sigma inside C;
    (c) a zero-weight cycle is reachable: every vertex of C reaches, over
        G_sigma's arcs inside C, a cycle of tight arcs, f(u) = f(v) - w'.
        Peeling the vertices with no tight arc to a vertex still left
        leaves those on or before a tight cycle; one reverse search from
        them must cover the arena.

    Why this is exact.  By (a) a play of sigma leaves a class only upward,
    so every cycle reachable from u lies in one class C' of value
    nu' >= printed(u), and by (b) its w' sum to at least the change of f
    around it, 0: its mean is at least nu'.  By (c) u reaches a cycle in
    its own class whose w' sum to 0 exactly, of mean printed(u).  So
    sigma's payoff, the least mean of a reachable cycle, equals the
    printed values, which is what ``is_optimal`` asks Karp to check.  For
    the synthesized sigma and correct values all three hold: sigma's arcs
    are compatible with f, so (b) holds, and u reaches a cycle of mean
    nu inside C, whose w' sum to 0 with slacks >= 0, so every arc of it is
    tight.  The check is one-sided: it rejects optimal strategies that f
    does not witness, such as an optimal pick that is not compatible.
    """
    n = arena.n
    printed, picks = vals.vals, strategy.choice
    if len(printed) != n or len(picks) != n:
        return False
    nus = sorted({cls.nu for cls in classes})
    rank = {nu: r for r, nu in enumerate(nus)}
    shift = [(nu.numerator, nu.denominator) for nu in nus]  # by rank
    where = [None] * n  # each vertex's class rank
    level = [0] * n     # each vertex's f, in its class's scale
    for cls in classes:
        r, nu, f = rank[cls.nu], cls.nu, cls.least_sepm()
        if len(f.values) != len(cls.vertices) or not f.all_finite():
            return False
        for u, x in zip(cls.vertices, f.values):
            if where[u] is not None or printed[u] != nu:
                return False
            where[u], level[u] = r, x
    if None in where:
        return False
    owner, out = arena.owner, arena.out
    arcs_in = [[] for _ in range(n)]   # G_sigma's arcs inside a class,
    tight_in = [[] for _ in range(n)]  # and its tight ones, reversed
    exits = [0] * n                    # tight arcs out of each vertex
    for u in range(n):
        r, x, pick = where[u], level[u], picks[u]
        num, den = shift[r]
        if owner[u]:
            if pick is not None:
                return False
            row = out[u]
        else:
            row = [arc for arc in out[u] if arc[0] == pick]
            if not row:
                return False
        for v, w in row:
            if where[v] != r:
                if where[v] < r:
                    return False
                continue
            slack = x - level[v] + w * den - num
            if slack < 0:
                return False
            arcs_in[v].append(u)
            if not slack:
                tight_in[v].append(u)
                exits[u] += 1
    stack = [u for u in range(n) if not exits[u]]
    while stack:
        for u in tight_in[stack.pop()]:
            exits[u] -= 1
            if not exits[u]:
                stack.append(u)
    reached = [bool(k) for k in exits]
    stack = [u for u in range(n) if reached[u]]
    while stack:
        for u in arcs_in[stack.pop()]:
            if not reached[u]:
                reached[u] = True
                stack.append(u)
    return all(reached)


def is_optimal(arena, vals, strategy):
    """Does the strategy secure the exact value from every vertex?

    The independent check, for tests, ``mpg verify`` and the demos, which
    may pass in any strategy; ``mpg solve`` certifies its own strategy
    with ``certify_optimal`` instead, in O(|E|) and without Karp.
    The payoff of a fixed strategy from v is the minimum mean weight over
    cycles reachable from v in the strategy-restricted graph, evaluated by
    the oracle's Karp per component; optimality is payoff == value
    everywhere (the payoff can never exceed the value).  For a nu-valued
    arena this is equivalent to the restricted reweighted graph being
    conservative.  Values of another length (another game's) get False.
    """
    from . import oracle  # local import: oracle depends on this module

    if len(vals.vals) != arena.n:
        return False
    graph = restrict(arena, strategy)
    payoffs = oracle.payoff_vector(graph)
    return all(payoffs[u] == vals.vals[u] for u in range(arena.n))
