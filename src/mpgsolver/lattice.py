"""Enumeration of extremal progress measures and basic subgames.

For a nu-valued arena, the optimal positional strategies split into
disjoint blocks, one per *extremal* progress measure: the least feasible
potentials of optimal strategy graphs in the reweighted energy game.  The
recursive enumeration visits subgames obtained by keeping, at one
Player-0 vertex at a time, exactly the arcs that are strictly
incompatible with the current subgame's least progress measure:

  1. compute the least progress measure f of the current subgame and emit
     it if unseen;
  2. for each Player-0 vertex u with a nonempty incompatible arc set E_u,
     form the child keeping only E_u at u; skip children already
     visited, and children whose retained arcs lie, at every Player-0
     vertex, inside those of a child already pruned; compute the child's
     least measure seeded from f; keep the child only if that measure is
     finite everywhere.  A child is its parent's subgame arena with row u
     cut, by ``Arena._keep`` as every Player-0 restriction is: it shares
     every other row, so no subgame is rebuilt from the root.  f meets
     the child's progress condition everywhere but at u, so the child's
     lifting starts its worklist at u.  Two shortcuts, both exact, keep
     each step cheap:
     - the sets E_u come from the parent.  A row's set changes only with
       its own row, the cut one, or with the measure at u or at one of
       its heads; the vertices whose measure changed, and their
       predecessors over the child's ``ins``, name the rows to recompute,
       and every other row keeps its parent's set.  Every node's f is
       finite, so a row's test is f(u) < f(v) - w (``_cut_set``), and
       ``incompatible_arcs`` stays the definition;
     - a subgame is one integer, with one bit per Player-0 arc of the
       root.  A child is its parent's integer with row u's bits replaced
       by E_u's, and it lies inside a pruned subgame exactly when it
       keeps none of the arcs that one drops: one AND per pruned subgame;
  3. recurse into the kept children, last discovered first.

One exact-membership index per kind of element, subgames keyed by their
integers and measures by their value vectors, guarantees each
subgame and each measure is emitted exactly once.  The visited subgames,
root included, form the basic-subgame lattice; taking least measures is
the onto, antitone map to the energy lattice, and it can identify
distinct subgames (degenerate games).

Removing Player-0 arcs can only raise the least measure, so a subgame
inside a pruned one has a top entry too: skipping it in step 2 changes
nothing that is emitted, and saves lifting it.
"""

from __future__ import annotations

import itertools
import math

from . import energy
from .arena import SubgameMask, reweight
from .errors import InternalError, NotNuValuedError
from .potentials import delta_membership, PositionalStrategy


def incompatible_arcs(arena, f, u):
    """Arcs (u, v) strictly incompatible with f at the Player-0 vertex u.

    ``arena`` must already carry the reweighting; the test is
    f(u) < f(v) (-) w(u, v) in the saturated algebra.
    """
    cap = f.cap
    return [(u, v) for v, w in arena.out[u]
            if f.values[u] < energy.ominus(f.values[v], w, cap)]


class SubgameNode:
    """One basic subgame: ``kept``, whose bit b is set when it keeps
    Player-0 arc b of the root, read through the shared table ``rows`` of
    (vertex, ((head, bit), ...)); its measure; and its discoverers."""

    __slots__ = ("id", "kept", "rows", "sepm_id", "parent_ids")

    def __init__(self, node_id, kept, rows, sepm_id, parent_ids):
        self.id = node_id
        self.kept = kept
        self.rows = rows
        self.sepm_id = sepm_id
        self.parent_ids = list(parent_ids)

    @property
    def key(self):
        """The destination set each Player-0 vertex keeps, in vertex order,
        decoded from ``kept`` on each read."""
        kept = self.kept
        return tuple(frozenset([v for v, bit in row if kept & bit])
                     for _, row in self.rows)

    @property
    def mask(self):
        """This subgame's ``SubgameMask``, decoded on each read."""
        return SubgameMask({u: tuple(sorted(heads))
                            for (u, _), heads in zip(self.rows, self.key)})

    def removed_arcs(self, arena):
        """Arcs of the root arena this subgame drops, canonical order."""
        return [(u, v) for (u, _), heads in zip(self.rows, self.key)
                for v, _ in arena.out[u] if v not in heads]


class EnergyLattice:
    """Extremal progress measures in emission order (root's first)."""

    __slots__ = ("sepms",)

    def __init__(self, sepms):
        self.sepms = list(sepms)

    @property
    def root_sepm(self):
        return self.sepms[0]

    def pointwise_minimum(self):
        mins = list(self.sepms[0].values)
        for f in self.sepms[1:]:
            mins = [min(a, b) for a, b in zip(mins, f.values)]
        return tuple(mins)

    def __len__(self):
        return len(self.sepms)

    def __iter__(self):
        return iter(self.sepms)


class SubgameLattice:
    """Basic subgames with recursion edges and the map to their measures."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self.nodes = list(nodes)

    def edges(self):
        for node in self.nodes:
            for parent in node.parent_ids:
                yield parent, node.id

    def __len__(self):
        return len(self.nodes)


def enumerate_lattice(arena, nu, on_sepm=None, on_subgame=None,
                      seed_children=True):
    """Enumerate the energy lattice and basic subgames of a nu-valued arena.

    Returns (EnergyLattice, SubgameLattice).  ``on_sepm(sepm_id, f)`` and
    ``on_subgame(node)`` stream each element exactly once, at discovery.
    Children's measure computations are seeded with the parent's energy
    levels unless ``seed_children`` is false (the unseeded mode exists for
    differential testing).  A child whose retained arcs lie inside those of
    a pruned child is pruned without being built or lifted.  Raises
    NotNuValuedError when the root's least measure is not finite
    everywhere, the detectable symptom of a caller breaking the nu-valued
    precondition.
    """
    scaled = reweight(arena, nu)
    root_f = energy.least_sepm(scaled)
    if not root_f.all_finite():
        raise NotNuValuedError("reweighted arena is not everywhere winning; "
                               "input is not %s-valued" % (nu,))
    p0 = scaled.vertices_of(0)
    slot_of = [None] * scaled.n  # vertex -> its slot in p0, None at Player 1
    for i, u in enumerate(p0):
        slot_of[u] = i
    # A subgame is one integer, with bit b set when it keeps Player-0 arc
    # b of the root; ``rows``, which every node shares, names each bit.
    next_bit = map((1).__lshift__, itertools.count())  # 1, 2, 4, ...
    rows = tuple((u, tuple((v, next(next_bit)) for v, _ in scaled.out[u]))
                 for u in p0)
    bit_of = [dict(row) for _, row in rows]  # slot -> head -> bit
    row_bits = [sum(bits.values()) for bits in bit_of]
    sepms = []
    sepm_ids = {}  # measure values -> sepm id
    nodes = []
    node_ids = {}  # subgame -> node id
    # Each pruned subgame as the arcs it drops, ~kept: a subgame lies inside
    # it exactly when it keeps none of them.  They form an antichain.
    pruned = []

    def emit(kept, f, parent_ids):
        if kept in node_ids:
            raise InternalError("subgame inserted twice")
        sepm_id = sepm_ids.get(f.values)
        if sepm_id is None:
            sepm_id = sepm_ids[f.values] = len(sepms)
            sepms.append(f)
            if on_sepm is not None:
                on_sepm(sepm_id, f)
        node = SubgameNode(len(nodes), kept, rows, sepm_id, parent_ids)
        node_ids[kept] = node.id
        nodes.append(node)
        if on_subgame is not None:
            on_subgame(node)
        return node.id

    # Explicit stack mirroring the recursion: children are pushed in
    # declaration order and expanded last-first, each with its arena, the
    # slot it was cut at, and its parent's cut sets (as bits) and measure.
    pending = [(emit(sum(row_bits), root_f, []), scaled, None, None, None)]
    while pending:
        node_id, sub, cut_slot, cuts, parent_vals = pending.pop()
        node = nodes[node_id]
        kept, f = node.kept, sepms[node.sepm_id]
        vals = f.values
        if cuts is None:  # the root
            stale = range(len(p0))
            cuts = [0] * len(p0)
        else:
            # A row's cut set changes only with its own row (the cut
            # slot), its vertex's measure, or a head's measure.
            stale = {cut_slot}
            if vals != parent_vals:
                for v, x in enumerate(vals):
                    if x != parent_vals[v]:
                        stale.add(slot_of[v])
                        for u, _ in sub.ins[v]:
                            stale.add(slot_of[u])
                stale.discard(None)
            cuts = list(cuts)
        for i in stale:
            cuts[i] = sum(map(bit_of[i].__getitem__,
                              _cut_set(sub, vals, p0[i])))
        cuts = tuple(cuts)
        for i, cut in enumerate(cuts):
            if not cut:
                continue
            child = kept & ~row_bits[i] | cut
            known = node_ids.get(child)
            if known is not None:
                # expanded once, and its children differ pairwise
                nodes[known].parent_ids.append(node_id)
                continue
            if not all(map(child.__and__, pruned)):
                continue  # inside a pruned subgame: pruned too
            u, row = rows[i]
            child_sub = sub._keep({u: [v for v, bit in row if cut & bit]})
            child_f = (energy.least_sepm(child_sub, seed=f, cut=u)
                       if seed_children else energy.least_sepm(child_sub))
            if not child_f.all_finite():
                # Player 0 no longer wins everywhere: pruned
                dropped = ~child
                pruned = [other for other in pruned if ~other & dropped]
                pruned.append(dropped)
                continue
            pending.append((emit(child, child_f, [node_id]), child_sub, i,
                            cuts, vals))
    return EnergyLattice(sepms), SubgameLattice(nodes)


def _cut_set(arena, vals, u):
    """The heads of ``incompatible_arcs`` at the Player-0 vertex u, for a
    measure ``vals`` finite everywhere: there the test is f(u) < f(v) - w."""
    x = vals[u]
    return [v for v, w in arena.out[u] if x < vals[v] - w]


class DeltaBlock:
    """One block of the optimal-strategy decomposition."""

    __slots__ = ("sepm_id", "count", "strategies")

    def __init__(self, sepm_id, count, strategies):
        self.sepm_id = sepm_id
        self.count = count
        self.strategies = list(strategies)

    @property
    def truncated(self):
        return self.count > len(self.strategies)


def _strategy(n, p0, picks):
    """The positional strategy choosing ``picks`` at the vertices ``p0``."""
    choice = [None] * n
    for u, v in zip(p0, picks):
        choice[u] = v
    return PositionalStrategy(choice)


def decompose(arena, nu, lattice, max_listed=None):
    """Split the optimal strategies into one block per extremal measure.

    Candidates for a measure f are the Cartesian product of f-tight arcs
    per Player-0 vertex u, those with f(v) (-) w(u, v) = f(u): a member's
    least SEPM meets its one arc at u with equality.  For the root's least
    measure every candidate is a member, so its count is the plain
    product; other blocks keep the candidates whose restricted arena has f
    as its least SEPM, certified by its tight arcs without lifting
    (``delta_membership``).  Counts are always exact;
    listed strategies are truncated at ``max_listed`` (None lists
    everything).  A negative cap, or a lattice whose root measure is no
    SEPM of the reweighted arena (another game's, or another nu's), raises
    ValueError.
    """
    if max_listed is not None and max_listed < 0:
        raise ValueError("max_listed must be >= 0, got %d" % max_listed)
    scaled = reweight(arena, nu)
    if not energy.is_sepm(scaled, lattice.root_sepm):
        raise ValueError("lattice enumerated from another game or nu")
    n, p0 = scaled.n, scaled.vertices_of(0)
    blocks = []
    for sepm_id, f in enumerate(lattice.sepms):
        # f is finite everywhere, so f(v) (-) w equals f(u) iff
        # max(0, f(v) - w) does: the two differ only above the cap
        vals = f.values
        pools = [[v for v, w in scaled.out[u]
                  if (vals[v] - w if vals[v] > w else 0) == vals[u]]
                 for u in p0]
        members = (_strategy(n, p0, picks)
                   for picks in itertools.product(*pools))
        if sepm_id:
            members = (s for s in members if delta_membership(scaled, f, s))
        listed = list(itertools.islice(members, max_listed))
        count = (len(listed) + sum(1 for _ in members) if sepm_id
                 else math.prod(len(pool) for pool in pools))
        blocks.append(DeltaBlock(sepm_id, count, listed))
    return blocks
