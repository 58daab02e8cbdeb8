"""Energy-game semantics: progress measures and the lifting fixpoint.

Energy values live in {0, ..., K} plus a top element.  Internally a value
is a plain int, with K+1 standing for top; this keeps the lifting loop in
cheap integer comparisons while staying exact.  K is the arena's cap
(|V|-1)*W: no finite least progress-measure entry can exceed it.  W is
the game's weight bound, which Player-0 restrictions keep, so every
subgame of a game has the game's cap and their measures compare.

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

One acceleration, after accelerated lifting (Dorfman, Kaplan & Zwick,
ICALP 2019), cuts the climbs whose lifts grow with W: a region that
climbs around negative cycles, negative self-loops among them, is raised
to its exits, or to top, in one jump (``_jump``, proof at
``least_sepm``).
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
    """Smallest value at u satisfying its progress condition under f.

    One plain pass over u's arcs: the operator T.  The clamp to [0, cap]
    and top is monotone, so it is taken once, of the min (Player 0) or the
    max (Player 1) of f(v) - w: a top successor is skipped by Player 0 and
    sends a Player-1 vertex to top.
    """
    top = cap + 1
    if arena.owner[u] == 0:
        best = top
        for v, w in arena.out[u]:
            x = f[v]
            if x < top:
                x -= w
                if x < best:
                    best = x
    else:
        best = 0
        for v, w in arena.out[u]:
            x = f[v]
            if x == top:
                return top
            x -= w
            if x > best:
                best = x
    if best <= 0:
        return 0
    return best if best <= cap else top


def _jump(arena, f, top, region):
    """Raise the finite vertices of ``region`` to a lower bound g of f*.

    Sets f to max(f, g) and returns the raised vertices in ``region``
    order.  The construction and its proof are in ``least_sepm``.
    """
    n = arena.n
    inside = [v for v in region if f[v] < top]  # S
    member = [False] * n
    for v in inside:
        member[v] = True
    arcs = [()] * n  # v -> its kept arcs (x, w) with x in S
    g = [top] * n  # starts at the clamp of v's least exit f(x) - w
    for v in inside:
        kept = []
        low = top
        if arena.owner[v]:
            # one arc: the best finite one, as an exit if it leaves S,
            # but never a self-loop of weight >= 0
            arc = None
            for x, w in arena.out[v]:
                y = f[x]
                if (y < top and (x != v or w < 0)
                        and (arc is None or y - w > low)):
                    arc, low = (x, w), y - w
            if arc is not None and member[arc[0]]:
                kept.append(arc)
                low = top
        else:
            for x, w in arena.out[v]:
                y = f[x]
                if y < top:
                    if member[x]:
                        kept.append((x, w))
                    elif y - w < low:
                        low = y - w
        arcs[v] = kept
        g[v] = 0 if low <= 0 else min(low, top)
    # Freeze each vertex that reaches a cycle of weight >= 0, that is a
    # negative cycle of -(n+1)*w - 1: after |S| rounds of Bellman-Ford to
    # a zero virtual sink, some vertex of each such cycle still relaxes.
    scale = -(n + 1)
    d = [0] * n
    changed = False
    for _ in inside:
        changed = False
        for v in inside:
            for x, w in arcs[v]:
                c = d[x] + scale * w - 1
                if c < d[v]:
                    d[v] = c
                    changed = True
        if not changed:
            break
    live = inside
    if changed:
        frozen = [False] * n
        back = [[] for _ in range(n)]
        stack = []
        for v in inside:
            for x, w in arcs[v]:
                back[x].append(v)
                if not frozen[v] and d[x] + scale * w - 1 < d[v]:
                    frozen[v] = True
                    stack.append(v)
        while stack:
            for p in back[stack.pop()]:
                if not frozen[p]:
                    frozen[p] = True
                    stack.append(p)
        live = [v for v in inside if not frozen[v]]
    # Every cycle left is negative: relax g down from top, in rounds.
    changed = True
    while changed:
        changed = False
        for v in live:
            low = top
            for x, w in arcs[v]:
                y = g[x]
                if y < top and y - w < low:
                    low = y - w
            if low < 0:
                low = 0
            if low < g[v]:
                g[v] = low
                changed = True
    raised = [v for v in live if g[v] > f[v]]
    for v in raised:
        f[v] = g[v]
    return raised


def is_sepm(arena, f):
    """Check the progress condition at every vertex.

    A measure of another game (its cap or length is not this arena's) is
    not an SEPM of this one: False.
    """
    cap = f.cap
    vals = f.values
    if cap != arena_cap(arena) or len(vals) != arena.n:
        return False
    for u in range(arena.n):
        if vals[u] < _lift_target(arena, vals, cap, u):
            return False
    return True


def least_sepm(arena, seed=None, cut=None, lift_counter=None):
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

    ``cut`` names the one vertex the seed may violate: the seed must meet
    the progress condition at every other vertex, as a parent's least SEPM
    does in a child cut at one Player-0 row.  The first queue is then
    [cut] or empty, the queue the full scan would build, so the lifts are
    the same and only the scan is saved.  A ``cut`` without a seed, or
    outside ``range(n)``, raises InternalError.

    Jumps.  When a vertex's lift count in this call reaches 3, and again
    at 4, 8, 16, ..., the region S of finite vertices lifted so far in
    this call is raised in one step to a lower bound g of the least SEPM
    f* (``_jump``), instead of climbing around its negative cycles one
    lift at a time.  A jump passes over S several times, so it also
    waits until the call has made |S| lifts since the last jump:
    - vertices outside S read as the constants f(v);
    - each Player-1 vertex of S keeps one arc, its best finite one under
      f that is not a self-loop of weight >= 0 (none: it reads top), and
      each Player-0 vertex keeps all its arcs to finite vertices;
    - vertices of S that reach a cycle of weight >= 0 over the kept arcs
      stay at f (Bellman-Ford on the weights -(n+1)*w - 1, whose
      negative cycles are exactly those cycles);
    - on the rest of S, g is relaxed down from top: g(v) is the clamp of
      the least f(x) - w over v's kept arcs that leave S and g(x) - w
      over those inside S;
    - f becomes max(f, g), and the predecessors of each raised vertex
      are queued by the rule that follows a lift.
    This is exact.  Let G be the operator of the kept arcs on the relaxed
    part of S, every other vertex held at f, with the clamp of a lift.
    G is monotone and G(f*) <= f*: a held vertex reads f <= f*, an arc
    that leaves S reads f(x) - w <= f*(x) - w, an arc dropped for a top
    f(x) ends at a top f*(x), and a Player-1 vertex that keeps any one
    arc reads at most T(f*) = f*, T the operator of ``_lift_target``.  A
    Player-1 vertex v of S with no candidate arc reads top, and rightly:
    v was lifted, so it has an arc other than a self-loop of weight >= 0,
    and each such arc then ends at a top f, so f*(v) is top.  Skipping
    those self-loops keeps a tie from freezing the region: kept at v, a
    0-weight self-loop would close a cycle of weight >= 0 and hold v at
    f, to climb one lift at a time.  A negative self-loop stays a
    candidate: kept, it relaxes v to top.  So lfp(G) <= f*.  Every cycle
    of the relaxed part is negative, so at a fixpoint of G each finite
    value is met along a path to an exit, and G has one fixpoint, which
    the relaxation from top reaches:
    g = lfp(G) <= f*.
    Hence f stays below f*, every violated vertex stays queued, and the
    loop still ends at f*.  The first jump waits for a vertex's third
    lift: on lattice children, jumping at the second costs more than it
    saves.

    ``lift_counter``, if given, is a one-element list accumulating the
    number of lift operations (diagnostic only).  Each vertex that a jump
    raises counts as one lift.
    """
    cap = arena_cap(arena)
    top = cap + 1
    n = arena.n
    if seed is None:
        f = [0] * n
    else:
        f = list(seed.values)
        if seed.cap != cap or len(f) != n:
            raise InternalError("seed (%d, cap %d) is from another game "
                                "(%d, cap %d)" % (len(f), seed.cap, n, cap))
    if cut is None:
        queued = [f[u] < _lift_target(arena, f, cap, u) for u in range(n)]
        queue = deque(u for u in range(n) if queued[u])
    elif seed is None or not 0 <= cut < n:
        raise InternalError("cut %r needs a seed and a vertex of this game"
                            % (cut,))
    else:
        queued = [False] * n
        queued[cut] = f[cut] < _lift_target(arena, f, cap, cut)
        queue = deque([cut] if queued[cut] else [])

    lifts = 0
    count = [0] * n  # lifts per vertex in this call
    region = []  # the vertices lifted so far, in first-lift order
    paid = 0  # lifts counted at the last jump
    while queue:
        u = queue.popleft()
        queued[u] = False
        target = _lift_target(arena, f, cap, u)
        if target <= f[u]:
            continue
        f[u] = target
        lifts += 1
        raised = [u]
        c = count[u] = count[u] + 1
        if c == 1:
            region.append(u)
        elif (target < top and (c == 3 or (c > 3 and not c & (c - 1)))
              and lifts - paid >= len(region)):
            jumped = _jump(arena, f, top, region)
            lifts += len(jumped)
            paid = lifts
            raised += jumped
        for v in raised:
            y = f[v]
            for p, w in arena.ins[v]:
                # f[p] < f[v] (-) w, with f[v] top or finite
                x = f[p]
                if x < top and not queued[p] and (y == top or x < y - w):
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
