"""Strategy-restricted arenas, block membership, reference potentials.

Fixing a positional Player-0 strategy turns the arena into a one-player
graph G_sigma, whose least SEPM is its least feasible potential pi*: the
least energy map dominating successor (-) weight along EVERY arc.  Only
``restrict`` builds G_sigma, through ``Arena._keep``; block membership
reads it in place, certifying that a given finite f is pi* by one pass
over the arcs and one reverse search over the tight ones.  The oracle and
the checks use ``least_feasible_potential``, an independent Bellman-Ford
reference: |V| saturated relaxation sweeps, one more to flag vertices
still rising, and top propagated back to every vertex that reaches them
(exactly those from which a negative cycle is reachable).
"""

from __future__ import annotations

from .energy import EnergyFunction, arena_cap, ominus
from .errors import InternalError, StrategyError


class PositionalStrategy:
    """Choice of one successor per Player-0 vertex.

    ``choice[u]`` is the chosen destination index for Player-0 vertices and
    None for Player-1 vertices.
    """

    __slots__ = ("choice",)

    def __init__(self, choice):
        self.choice = tuple(choice)

    @classmethod
    def from_dict(cls, arena, mapping):
        choice = [None] * arena.n
        for u, v in mapping.items():
            if u not in range(arena.n):
                raise StrategyError("strategy key %r is no vertex" % (u,))
            choice[u] = v
        return cls(choice)

    def to_json(self, arena):
        return {"choice": {arena.names[u]: arena.names[v]
                           for u, v in enumerate(self.choice) if v is not None}}

    def __eq__(self, other):
        if not isinstance(other, PositionalStrategy):
            return NotImplemented
        return self.choice == other.choice

    def __hash__(self):
        return hash(self.choice)

    def __repr__(self):
        return "PositionalStrategy(%r)" % (self.choice,)


def _picks(arena, strategy):
    """The strategy's picks, one entry per vertex; each row's pick is
    checked by ``_sigma_row``."""
    picks = strategy.choice
    if len(picks) != arena.n:
        raise StrategyError("strategy has %d entries for %d vertices"
                            % (len(picks), arena.n))
    return picks


def _sigma_row(arena, u, pick):
    """G_sigma's arcs out of u: u's row at a Player-1 vertex, which must
    have no pick, and the picked arc at a Player-0 vertex, which must be
    one of its own."""
    row = arena.out[u]
    if arena.owner[u]:
        if pick is not None:
            raise StrategyError("strategy assigns a Player-1 vertex %s"
                                % arena.names[u])
        return row
    for arc in row:
        if arc[0] == pick:
            return (arc,)
    raise StrategyError("strategy needs an arc at %s" % arena.names[u])


def restrict(arena, strategy):
    """G_sigma, each Player-0 row cut to its pick by ``Arena._keep``.

    Raises StrategyError unless the strategy has one entry per vertex, one
    of its own arcs at each Player-0 vertex and None at each Player-1 one.
    """
    picks = _picks(arena, strategy)
    for u, pick in enumerate(picks):
        _sigma_row(arena, u, pick)
    return arena._keep({u: (v,) for u, v in enumerate(picks) if v is not None})


def least_feasible_potential(graph):
    """Least pi with pi(u) >= pi(v) (-) w(u,v) along every arc.

    Reference only (oracle, checks, tests); the solver lifts instead.
    pi(v) is top exactly when a negative cycle is reachable from v.  Finite
    values on conservative parts never exceed (|V|-1) times the largest
    |weight| of the graph's own arcs, so a value above that would indicate
    a bug and raises InternalError.
    """
    cap = arena_cap(graph)
    top = cap + 1
    n = graph.n
    out = graph.out
    f = [0] * n
    changed_last = set()
    for _ in range(n + 1):
        changed_last = set()
        for u in range(n):
            best = max(ominus(f[v], w, cap) for v, w in out[u])
            if best > f[u]:
                f[u] = best
                changed_last.add(u)
        if not changed_last:
            break
    if changed_last or any(x == top for x in f):
        # Still rising after |V| sweeps (or already saturated): every vertex
        # that can reach the rising set reaches a negative cycle.
        reach = set(changed_last) | {u for u in range(n) if f[u] == top}
        frontier = list(reach)
        while frontier:
            v = frontier.pop()
            for u, _ in graph.ins[v]:
                if u not in reach:
                    reach.add(u)
                    frontier.append(u)
        for u in reach:
            f[u] = top
    own_bound = (n - 1) * max(abs(w) for _, _, w in graph.arcs())
    for u in range(n):
        if f[u] != top and f[u] > own_bound:
            raise InternalError("finite potential above (|V|-1)*W at %s"
                                % graph.names[u])
    return EnergyFunction(f, cap, graph.scale)


def is_conservative(graph):
    """True iff the graph has no negative-total-weight cycle.

    Independent Bellman-Ford check (all-zero source vector), used as a
    cross-check against the top region of the least feasible potential.
    """
    n = graph.n
    dist = [0] * n
    for _ in range(n - 1):
        changed = False
        for u, v, w in graph.arcs():
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            return True
    return all(dist[v] + w >= dist[u] for u, v, w in graph.arcs())


def delta_membership(arena, f, strategy):
    """Is f the least SEPM of G_sigma, the strategy-restricted arena?

    ``arena`` must already be reweighted.  G_sigma is read from the
    arena's own rows, no restriction built, in one pass that checks both
    the strategy, row by row as ``restrict`` does (``_sigma_row``), and
    f's SEPM inequalities; a bad strategy is a StrategyError before any
    answer about f.  f must be finite everywhere, as every energy-lattice
    element is (ValueError otherwise); an f of another cap or length gets
    False.

    Certificate: f is the least SEPM of G_sigma iff f is an SEPM of
    G_sigma along every arc and every vertex reaches a vertex with f = 0
    by tight arcs of G_sigma, those with f(v) (-) w = f(u).
      If: the least SEPM g is at most f, so g = f at the zeros, and along
    a tight arc (u, v) with g(v) = f(v), g(u) >= g(v) (-) w = f(u).  So
    g = f back along the tight arcs, at every vertex.
      Only if: the unreached vertices U are all positive, and lowering f
    by 1 on U gives a smaller SEPM.  An arc from u in U to v outside U is
    not tight, so f(u) - 1 >= f(v) (-) w; an arc inside U has
    (f(v) - 1) (-) w = max(0, f(v) (-) w - 1) <= f(u) - 1; and an arc out
    of a vertex outside U sees no larger value at its head.
    """
    picks, vals = _picks(arena, strategy), f.values
    finite = f.all_finite()
    sepm = finite and len(vals) == arena.n and f.cap == arena_cap(arena)
    # With f finite, f(v) (-) w exceeds f(u) iff f(v) - w does, and for a
    # positive f(u) the arc is tight iff f(v) - w = f(u).
    tight_preds = [[] for _ in vals]
    for u, pick in enumerate(picks):
        row = _sigma_row(arena, u, pick)
        if sepm:
            for v, w in row:
                lifted = vals[v] - w
                if lifted > vals[u]:
                    sepm = False
                elif lifted == vals[u]:
                    tight_preds[v].append(u)
    if not finite:
        raise ValueError("energy lattice elements are finite everywhere")
    if not sepm:
        return False
    reached = [x == 0 for x in vals]
    stack = [v for v, zero in enumerate(reached) if zero]
    while stack:
        for u in tight_preds[stack.pop()]:
            if not reached[u]:
                reached[u] = True
                stack.append(u)
    return all(reached)
