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
     cut (``Arena._cut_row``): it shares every other row, so no subgame
     is rebuilt from the root;
  3. recurse into the kept children, last discovered first.

One exact-membership index per kind of element, subgames keyed by their
canonical arc sets and measures by their value vectors, guarantees each
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
    """One basic subgame: its mask, its measure, and its discoverers."""

    __slots__ = ("id", "mask", "sepm_id", "parent_ids")

    def __init__(self, node_id, mask, sepm_id, parent_ids):
        self.id = node_id
        self.mask = mask
        self.sepm_id = sepm_id
        self.parent_ids = list(parent_ids)

    def removed_arcs(self, arena):
        """Arcs of the root arena this subgame drops, canonical order."""
        removed = []
        for u in sorted(self.mask.retained):
            kept = set(self.mask.retained[u])
            removed.extend((u, v) for v, _ in arena.out[u] if v not in kept)
        return removed


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
    sepms = []
    sepm_ids = {}  # measure values -> sepm id
    nodes = []
    node_ids = {}  # mask key -> node id
    # Retained arcs of the pruned children, one frozenset per p0 vertex;
    # an antichain under inclusion, as a contained entry adds nothing.
    pruned = []

    def emit(mask, key, f, parent_ids):
        if key in node_ids:
            raise InternalError("subgame inserted twice")
        sepm_id = sepm_ids.get(f.values)
        if sepm_id is None:
            sepm_id = sepm_ids[f.values] = len(sepms)
            sepms.append(f)
            if on_sepm is not None:
                on_sepm(sepm_id, f)
        node = SubgameNode(len(nodes), mask, sepm_id, parent_ids)
        node_ids[key] = node.id
        nodes.append(node)
        if on_subgame is not None:
            on_subgame(node)
        return node.id

    # Explicit stack mirroring the recursion: children are pushed in
    # declaration order and expanded last-first, each with its subgame.
    root = SubgameMask.full(scaled)
    pending = [(emit(root, root.key(), root_f, []), root_f, scaled)]
    while pending:
        node_id, f, sub = pending.pop()
        mask = nodes[node_id].mask
        for u in p0:
            cut = [v for _, v in incompatible_arcs(sub, f, u)]
            if not cut:
                continue
            child_mask = mask.with_restriction(u, cut)
            key = child_mask.key()
            known = node_ids.get(key)
            if known is not None:
                parents = nodes[known].parent_ids
                if node_id not in parents:
                    parents.append(node_id)
                continue
            arcs = [frozenset(child_mask.retained[v]) for v in p0]
            if any(all(map(frozenset.issubset, arcs, other))
                   for other in pruned):
                continue  # inside a pruned subgame: pruned too
            child = sub._cut_row(u, cut)
            child_f = energy.least_sepm(child,
                                        seed=f if seed_children else None)
            if not child_f.all_finite():
                # Player 0 no longer wins everywhere: pruned
                pruned = [other for other in pruned
                          if not all(map(frozenset.issubset, other, arcs))]
                pruned.append(arcs)
                continue
            pending.append((emit(child_mask, key, child_f, [node_id]),
                            child_f, child))
    return EnergyLattice(sepms), SubgameLattice(nodes)


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
    everything; a negative cap raises ValueError).
    """
    if max_listed is not None and max_listed < 0:
        raise ValueError("max_listed must be >= 0, got %d" % max_listed)
    scaled = reweight(arena, nu)
    p0 = scaled.vertices_of(0)
    blocks = []
    for sepm_id, f in enumerate(lattice.sepms):
        pools = [[v for v, w in scaled.out[u]
                  if energy.ominus(f.values[v], w, f.cap) == f.values[u]]
                 for u in p0]
        members = (_strategy(scaled.n, p0, picks)
                   for picks in itertools.product(*pools))
        if sepm_id:
            members = (s for s in members if delta_membership(scaled, f, s))
        listed = list(itertools.islice(members, max_listed))
        count = (len(listed) + sum(1 for _ in members) if sepm_id
                 else math.prod(len(pool) for pool in pools))
        blocks.append(DeltaBlock(sepm_id, count, listed))
    return blocks
