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
        return not self.values or max(self.values) <= self.cap

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


def _fall(inside, arcs, d, n):
    """Bellman-Ford on d down from the exits over the kept ``arcs``, for
    at most |S| rounds.  Returns None when d settles, or else the flags of
    the vertices still falling and of all that reach one (frozen)."""
    changed = False
    for _ in inside:
        changed = False
        for v in inside:
            for x, s in arcs[v]:
                c = d[x] - s
                if c < d[v] > 0:
                    d[v] = c if c > 0 else 0
                    changed = True
        if not changed:
            return None
    frozen = [False] * n
    back = [[] for _ in range(n)]
    stack = []
    for v in inside:
        for x, s in arcs[v]:
            back[x].append(v)
            if not frozen[v] and d[x] - s < d[v] > 0:
                frozen[v] = True
                stack.append(v)
    while stack:
        for p in back[stack.pop()]:
            if not frozen[p]:
                frozen[p] = True
                stack.append(p)
    return frozen


def _jump(arena, f, top, region):
    """Raise the finite vertices of ``region`` to a lower bound g of f*.

    Sets f to max(f, g) and returns the raised vertices in ``region``
    order.  The construction and its proof are in ``least_sepm``.
    """
    n = arena.n
    scale = n + 1
    inside = [v for v in region if f[v] < top]  # S
    member = [False] * n
    for v in inside:
        member[v] = True
    arcs = [()] * n  # v -> its kept arcs (x, (n+1)*w + 1) with x in S
    lows = [0] * n  # v -> f(x) - w of its exit (Player 0: least), or top
    d = [0] * n  # (n+1)*g, from the clamp of lows
    ties = []  # (v, arcs tied for best, their f(x) - w): Player-1 v
    for v in inside:
        kept = []
        low = top
        if arena.owner[v]:
            # one arc: the best finite one, the first of those tied in
            # index order, as an exit if it leaves S, but never a
            # self-loop of weight >= 0
            arc = tied = None
            for x, w in arena.out[v]:
                y = f[x]
                if y < top and (x != v or w < 0):
                    if arc is None or y - w > low:
                        arc, low, tied = (x, w), y - w, None
                    elif y - w == low:
                        if tied is None:
                            tied = [arc]
                        tied.append((x, w))
            if tied:
                ties.append((v, tied, low))
            if arc is not None and member[arc[0]]:
                kept.append((arc[0], scale * arc[1] + 1))
                low = top
        else:
            for x, w in arena.out[v]:
                y = f[x]
                if y < top:
                    if member[x]:
                        kept.append((x, scale * w + 1))
                    elif y - w < low:
                        low = y - w
        arcs[v] = kept
        lows[v] = low
    raised = []
    for passes in range(1, 5):
        for v in inside:
            low = lows[v]
            # top reads 2*top: what falls from it over < |S| arcs reads top
            d[v] = 0 if low <= 0 else scale * (low if low < top else 2 * top)
        frozen = _fall(inside, arcs, d, n)
        for v in inside:
            if frozen is None or not frozen[v]:
                g = min(top, -(-d[v] // scale))
                if g > f[v]:
                    f[v] = g
                    raised.append(v)
        if frozen is None or not ties:
            break
        # each held Player-1 vertex whose arc stays in S turns to its next
        # tied arc, unless that arc's head has just turned
        turned = set()
        for v, tied, low in ties:
            if frozen[v] and arcs[v] and arcs[v][0][0] not in turned:
                tied.append(tied.pop(0))
                x, w = tied[0]
                if member[x]:
                    arcs[v], lows[v] = ((x, scale * w + 1),), top
                else:
                    arcs[v], lows[v] = (), low
                turned.add(v)
        if not turned:
            break
    if passes > 1:
        up = set(raised)
        raised = [v for v in inside if v in up]
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

    ``seed`` must lie pointwise below the true least SEPM; by default
    iteration starts from all-zero.  A parent subgame's least SEPM
    qualifies, since dropping Player-0 arcs can only raise the fixpoint.
    A seed from another game (its cap or length is not this arena's)
    raises InternalError.  The FIFO worklist starts with the vertices
    that the seed violates, in declaration order.  After u is lifted to
    ``target``, every predecessor p of u that is not queued and has
    ``f[p] < target (-) w(p, u)`` is enqueued; this covers u's own
    self-loop too.  A popped vertex is lifted only if it is still
    violated, since a Player-0 vertex may be satisfied by another arc.

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
    lift at a time.  A jump passes over S up to |S| times, so it also
    waits until the call has made |S| lifts since the last jump:
    - vertices outside S read as the constants f(v);
    - each Player-1 vertex of S keeps one arc, its best finite one under
      f that is not a self-loop of weight >= 0 (none: it reads top), the
      first in index order of those tied for best, and each Player-0
      vertex keeps all its arcs to finite vertices;
    - d = (n+1)*g starts at (n+1) times v's least exit f(x) - w over the
      kept arcs that leave S: at 0 when that is <= 0, and at (n+1)*2*top
      when it is >= top or v has no exit;
    - Bellman-Ford over the kept arcs inside S lowers d(v) to
      max(0, d(x) - (n+1)*w - 1), for up to |S| rounds, fewer when a
      round changes nothing;
    - a vertex still falling after |S| rounds stays at f, and so does
      every vertex that reaches one over the kept arcs;
    - on the rest L of S, g = min(top, ceil(d / (n+1)));
    - if a vertex was held, each held Player-1 vertex whose arc stays in
      S turns to the next of its arcs tied for best, if it has another,
      unless the head of its arc turned before it in this pass; then d
      restarts and the relaxation and hold above are redone, in at most 4
      passes in all, until nothing turns;
    - f becomes max(f, g) for the g of every pass, and the predecessors
      of each raised vertex are queued by the rule that follows a lift.
    This is exact.  Let G be the operator of the kept arcs on L, which
    they never leave, every vertex outside S held at f, with the clamp of
    a lift.  G is monotone and G(f*) <= f*: a held vertex reads f <= f*,
    an arc that leaves S reads f(x) - w <= f*(x) - w, an arc dropped for
    a top f(x) ends at a top f*(x), and a Player-1 vertex that keeps any
    one arc reads at most T(f*) = f*, T the operator of
    ``_lift_target``.  A Player-1 vertex v of S with no candidate arc
    reads top, and rightly: v was lifted, so it has an arc other than a
    self-loop of weight >= 0, and each such arc then ends at a top f, so
    f*(v) is top.  Skipping those self-loops keeps a tie from freezing
    the region: kept at v, a 0-weight self-loop would keep v falling and
    hold it at f, to climb one lift at a time.  A negative self-loop
    stays a candidate: kept, it leaves v at top.  So lfp(G) <= f*.  Let
    G' be G with top read as the number 2*top, capped there; with
    pi(x) = min(x, top), pi o G' <= G o pi, so pi(lfp(G')) <= lfp(G)
    over the iterates from 0.  Let h = lfp(G') and E = d - (n+1)*h.  No
    kept arc of L relaxes d, so at the exit or arc that attains h(v),
    E(v) <= 0 or E(v) <= max(0, E(x) - 1): from a positive E(v), E would
    rise without end along those arcs on the finite L.  So E <= 0 and
    g <= pi(h) <= f*, whatever the signs of the cycles: one of weight
    >= 0 falls to d = 0, which is sound, or is still falling after |S|
    rounds and is held.  Starting at 2*top keeps each value reached over
    fewer than |S| arcs above the cap, where it reads top, as an
    absorbing top would; a start at top is as sound, but raises less.
    Each pass keeps one arc per Player-1 vertex, so each pass's g is
    <= f*, and so is their maximum.  Hence f stays below f*, every
    violated vertex stays queued, and the loop still ends at f*.  The
    first jump waits for a vertex's third lift: on lattice children,
    jumping at the second costs more than it saves.

    Turns.  A tie can close a cycle of weight 0 that holds the region:
    in x0 -> x1 (-1), x1 -> x0 (1), x1 -> x2 (0), x2 -> x2 (-W),
    x2 -> x0 (0), with x1 of Player 1, f reads (a + 1, a, a) at every
    jump, x1 keeps x0, and a region held at every jump took 6W + 3 lifts
    to top.  Turning x1 to x2, as good under f, breaks the cycle.  Only
    tied arcs are tried: a worse arc can close a cycle of weight >= 0
    again.  Two tied vertices on one cycle of weight 0 turn one at a
    time, since turned together each can close another such cycle.  No
    bound on the lifts that does not grow with W is proven: a region
    still held after 4 passes climbs one lift at a time, as before.

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
