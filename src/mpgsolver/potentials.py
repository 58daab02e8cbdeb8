"""Strategy-restricted arenas, block membership, reference potentials.

Fixing a positional Player-0 strategy turns the arena into a one-player
graph, whose least SEPM is its least feasible potential pi*: the least
energy map dominating successor (-) weight along EVERY arc.  Block
membership computes it with ``energy.least_sepm``.  The oracle and the
checks use ``least_feasible_potential``, an independent Bellman-Ford
reference: |V| saturated relaxation sweeps, one more to flag vertices
still rising, and top propagated back to every vertex that reaches them
(exactly those from which a negative cycle is reachable).
"""

from __future__ import annotations

from .arena import Arena
from .energy import EnergyFunction, arena_cap, least_sepm, ominus
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
            choice[u] = v
        return cls(choice)

    def validate(self, arena):
        for u in range(arena.n):
            if arena.owner[u] == 0:
                v = self.choice[u]
                if v is None or not arena.has_arc(u, v):
                    raise StrategyError("strategy needs an arc at %s"
                                        % arena.names[u])
            elif self.choice[u] is not None:
                raise StrategyError("strategy assigns a Player-1 vertex %s"
                                    % arena.names[u])

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


def restrict(arena, strategy):
    """The arena keeping only the strategy's arcs at Player-0 vertices."""
    strategy.validate(arena)
    out = [row if arena.owner[u] == 1
           else [(v, w) for v, w in row if v == strategy.choice[u]]
           for u, row in enumerate(arena.out)]
    return Arena._from_rows(arena.names, arena.owner, out, arena.scale)


def least_feasible_potential(graph, cap=None):
    """Least pi with pi(u) >= pi(v) (-) w(u,v) along every arc.

    Reference only (oracle, checks, tests); the solver lifts instead.
    pi(v) is top exactly when a negative cycle is reachable from v.  Finite
    values on conservative parts never exceed (|V|-1)*W, so a value above
    the cap would indicate a bug and raises InternalError; the cap
    defaults to the graph's own (|V|-1)*W.
    """
    if cap is None:
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
    own_bound = min(cap, (n - 1) * graph.W)
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
    """Is f the least SEPM of the strategy-restricted arena?

    ``arena`` must already be reweighted.  Player 0 has no choice left
    there, so this least SEPM is the strategy's least feasible potential.
    """
    return least_sepm(restrict(arena, strategy), cap=f.cap) == f
