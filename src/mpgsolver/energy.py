"""Energy-game semantics: progress measures and the lifting fixpoint.

Energy values live in {0, ..., K} plus a top element.  Internally a value
is a plain int, with K+1 standing for top; this keeps the lifting loop in
cheap integer comparisons while staying exact.  K is the arena's cap
(|V|-1)*W: no finite least progress-measure entry can exceed it.  W is
the game's weight bound, which Player-0 restrictions keep, so every
subgame of a game has the game's cap and their measures compare.  The
lifting loop saturates earlier, at the arena's credit bound B (the sum of
the |V|-1 largest drops, see ``least_sepm``): any lift past min(K, B) goes
straight to top, while K stays the cap that values are reported against.

A small energy-progress measure (SEPM) f must, at every Player-0 vertex,
dominate f(v) (-) w(u,v) for SOME successor v, and at every Player-1
vertex for ALL successors, where (-) is truncated subtraction saturating
at 0 below and at top above the cap.  The pointwise-least SEPM is computed
by worklist value iteration (Brim et al., FMSD 2011): repeatedly lift a
violating vertex to the smallest conforming value.  One rule keeps the
worklist complete: lifting u to a value x can only violate a predecessor
p with f(p) < x (-) w(p,u), so exactly those predecessors are enqueued.
The least SEPM's finite region is Player 0's winning region in the
energy game.
"""

from __future__ import annotations

from collections import deque

from .errors import InternalError


def arena_cap(arena):
    """Cap K = (|V|-1)*W for finite energy levels of this arena."""
    return (arena.n - 1) * arena.W


def ominus(value, weight, cap):
    """Saturated subtraction: value (-) weight, clamped to [0, cap] + top."""
    if value > cap:
        return cap + 1
    lifted = value - weight
    if lifted <= 0:
        return 0
    if lifted > cap:
        return cap + 1
    return lifted


class EnergyFunction:
    """Total map vertex -> energy value, with its cap and reporting scale.

    Values are ints; ``cap + 1`` encodes top.  Instances are immutable and
    safe to share.
    """

    __slots__ = ("values", "cap", "scale")

    def __init__(self, values, cap, scale=1):
        values = tuple(values)
        for x in values:
            if not (0 <= x <= cap + 1):
                raise InternalError("energy value %r outside [0, cap+1]" % (x,))
        self.values = values
        self.cap = cap
        self.scale = scale

    def is_top(self, u):
        return self.values[u] > self.cap

    def all_finite(self):
        return all(x <= self.cap for x in self.values)

    def finite_vertices(self):
        """V_f, the vertices mapped below top."""
        return tuple(u for u, x in enumerate(self.values) if x <= self.cap)

    def pointwise_le(self, other):
        if self.cap != other.cap or len(self.values) != len(other.values):
            raise InternalError("comparing energy functions of different games")
        return all(a <= b for a, b in zip(self.values, other.values))

    def to_json(self, arena):
        return {
            "cap": self.cap,
            "scale": self.scale,
            "values": {arena.names[u]: ("top" if x > self.cap else x)
                       for u, x in enumerate(self.values)},
        }

    def __eq__(self, other):
        if not isinstance(other, EnergyFunction):
            return NotImplemented
        return self.values == other.values and self.cap == other.cap

    def __hash__(self):
        return hash((self.values, self.cap))

    def __repr__(self):
        body = ", ".join("top" if x > self.cap else str(x) for x in self.values)
        return "EnergyFunction([%s], cap=%d)" % (body, self.cap)


def _lift_target(arena, f, cap, u):
    """Smallest value at u satisfying its progress condition under f."""
    reqs = (ominus(f[v], w, cap) for v, w in arena.out[u])
    return min(reqs) if arena.owner[u] == 0 else max(reqs)


def is_sepm(arena, f):
    """Check the progress condition at every vertex."""
    cap = f.cap
    vals = f.values
    for u in range(arena.n):
        if vals[u] < _lift_target(arena, vals, cap, u):
            return False
    return True


def least_sepm(arena, seed=None, lift_counter=None):
    """Pointwise-least SEPM by worklist value iteration.

    ``seed`` must lie pointwise below the true least SEPM (a parent
    subgame's least SEPM qualifies, since dropping Player-0 arcs can only
    raise the fixpoint); by default iteration starts from all-zero.  A
    seed from another game (its cap or length is not this arena's) raises
    InternalError.  The FIFO worklist starts with the violated vertices in
    declaration order.  After u is lifted to ``target``, every predecessor
    p of u that is not queued and has ``f[p] < target (-) w(p, u)`` is
    enqueued; this covers u's own self-loop too.  A popped vertex is lifted
    only if it is still violated, since a Player-0 vertex may be satisfied
    by another arc.

    A lift whose target exceeds ``min(cap, B)`` goes straight to top,
    where B is the sum of the |V|-1 largest drops max(0, -min weight out
    of x).  This is exact: if Player 0 wins from x, a positional winning
    strategy s makes every cycle of G_s reachable from x non-negative, so
    the least credit at x is at most minus the weight of a simple path,
    which is at most B.  Lifting iterates stay below the least SEPM, so an
    iterate above B marks a top vertex.

    ``lift_counter``, if given, is a one-element list accumulating the
    number of lift operations (diagnostic only).
    """
    cap = arena_cap(arena)
    n = arena.n
    if seed is None:
        f = [0] * n
    else:
        f = list(seed.values)
        if seed.cap != cap or len(f) != n:
            raise InternalError("seed (%d, cap %d) is from another game "
                                "(%d, cap %d)" % (len(f), seed.cap, n, cap))
    drops = [max(0, -min(w for _, w in row)) for row in arena.out]
    limit = min(cap, sum(drops) - min(drops))  # B: all drops but the least
    queued = [f[u] < _lift_target(arena, f, cap, u) for u in range(n)]
    queue = deque(u for u in range(n) if queued[u])

    lifts = 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        target = _lift_target(arena, f, cap, u)
        if target <= f[u]:
            continue
        if target > limit:
            target = cap + 1
        f[u] = target
        lifts += 1
        for p, w in arena.ins[u]:
            if not queued[p] and f[p] < ominus(target, w, cap):
                queue.append(p)
                queued[p] = True
    if lift_counter is not None:
        lift_counter[0] += lifts
    return EnergyFunction(f, cap, arena.scale)


def winning_regions(arena):
    """(W0, W1): vertices where Player 0 does / does not win the energy game.

    W0 is the finite region of the least SEPM, W1 its complement.
    """
    f = least_sepm(arena)
    w0 = frozenset(f.finite_vertices())
    w1 = frozenset(range(arena.n)) - w0
    return w0, w1


def compatible_arcs(arena, f, u):
    """Arcs (u, v) compatible with f at the Player-0 vertex u."""
    cap = f.cap
    return [(u, v) for v, w in arena.out[u]
            if f.values[u] >= ominus(f.values[v], w, cap)]
