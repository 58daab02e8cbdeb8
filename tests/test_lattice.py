import gc
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from mpgsolver import arena as arena_module, lattice
from mpgsolver import (Arena, EnergyFunction, NotNuValuedError,
                       SubgameMask, apply_mask, compatible_arcs, decompose,
                       enumerate_lattice, incompatible_arcs,
                       least_feasible_potential, least_sepm, ominus,
                       restrict, reweight)
from mpgsolver.oracle import (exhaustive_opt, gen_random_arena,
                              reference_energy_lattice)
from mpgsolver.potentials import PositionalStrategy, delta_membership
from mpgsolver.values import ergodic_partition, solve_values

F_STAR = (0, 4, 8, 4, 0, 4, 0)
F_1 = (0, 4, 8, 4, 3, 4, 0)
F_2 = (0, 4, 8, 4, 7, 4, 0)


def _strategy(n, p0, picks):
    choice = [None] * n
    for u, v in zip(p0, picks):
        choice[u] = v
    return PositionalStrategy(choice)


def _tight_arcs(scaled, f, u):
    return [(u, v) for v, w in scaled.out[u]
            if ominus(f.values[v], w, f.cap) == f.values[u]]


def test_incompatible_arcs(gamma_ex, gamma_d):
    scaled = reweight(gamma_ex, Fraction(-1))
    f = least_sepm(scaled)
    e = scaled.index["E"]
    assert incompatible_arcs(scaled, f, e) == [
        (e, scaled.index["C"]), (e, scaled.index["F"])]

    fd = least_sepm(gamma_d)
    t = gamma_d.index["t"]
    assert incompatible_arcs(gamma_d, fd, t) == [(t, gamma_d.index["u4"])]

    all_top = EnergyFunction([f.cap + 1] * 7, f.cap)
    assert incompatible_arcs(scaled, all_top, e) == []


def test_enumerate_gamma_ex(gamma_ex):
    x, b = enumerate_lattice(gamma_ex, Fraction(-1))
    assert [f.values for f in x] == [F_STAR, F_1, F_2]
    assert len(b) == 3
    assert b.nodes[0].parent_ids == []
    assert b.nodes[0].removed_arcs(gamma_ex) == []
    names = gamma_ex.names
    removed_1 = {(names[u], names[v])
                 for u, v in b.nodes[1].removed_arcs(gamma_ex)}
    assert removed_1 == {("E", "A"), ("E", "G")}
    assert [node.sepm_id for node in b.nodes] == [0, 1, 2]


def test_enumerate_gamma_d_degenerate(gamma_d):
    x, b = enumerate_lattice(gamma_d, Fraction(0))
    assert len(b) > len(x)
    names = gamma_d.names
    shared = {"u3": 2, "v3": 2, "t": 10}
    expect = tuple(shared.get(name, 0) for name in names)
    # the two distinct basic subgames of the worked degeneracy example
    want = [{("t", "v4"), ("u3", "t")}, {("t", "v4"), ("v3", "t")}]
    found = []
    for node in b.nodes:
        removed = {(names[u], names[v]) for u, v in node.removed_arcs(gamma_d)}
        if removed in want:
            found.append(node)
    assert len(found) == 2
    assert found[0].mask != found[1].mask
    for node in found:
        assert x.sepms[node.sepm_id].values == expect


def test_enumerate_forced_arena_is_single_node():
    a = Arena(["p", "q"], [0, 1], [(0, 1, 1), (1, 0, -1)])
    x, b = enumerate_lattice(a, Fraction(0))
    assert len(x) == 1
    assert len(b) == 1


def test_enumerate_rejects_wrong_nu(gamma_ex):
    with pytest.raises(NotNuValuedError):
        enumerate_lattice(gamma_ex, Fraction(0))


def test_enumerate_streams_each_element_once(gamma_d):
    seen_sepms, seen_nodes = [], []
    x, b = enumerate_lattice(
        gamma_d, Fraction(0),
        on_sepm=lambda i, f: seen_sepms.append((i, f.values)),
        on_subgame=lambda node: seen_nodes.append(node.id))
    assert seen_sepms == [(i, f.values) for i, f in enumerate(x.sepms)]
    assert seen_nodes == [node.id for node in b.nodes]
    assert len(set(seen_nodes)) == len(seen_nodes)


def test_enumerate_deterministic(gamma_d):
    runs = [enumerate_lattice(gamma_d, Fraction(0)) for _ in range(2)]
    (x1, b1), (x2, b2) = runs
    assert [f.values for f in x1] == [f.values for f in x2]
    assert [n.mask.key() for n in b1.nodes] == [n.mask.key() for n in b2.nodes]
    assert [n.parent_ids for n in b1.nodes] == [n.parent_ids for n in b2.nodes]


def test_seeded_equals_unseeded(gamma_d):
    x1, b1 = enumerate_lattice(gamma_d, Fraction(0))
    x2, b2 = enumerate_lattice(gamma_d, Fraction(0), seed_children=False)
    assert [f.values for f in x1] == [f.values for f in x2]
    assert [n.mask.key() for n in b1.nodes] == [n.mask.key() for n in b2.nodes]


@pytest.mark.parametrize("seed_children", [True, False])
def test_enumerate_keys_children_without_masks(gamma_d, monkeypatch,
                                               seed_children):
    # A basic subgame is one integer, a bit per kept Player-0 arc: the
    # enumeration builds no SubgameMask, no node holds one, and a node
    # links each of its discoverers once.
    a = gen_random_arena(24, 3, 1, 2)
    games = [(gamma_d, Fraction(0))] + [
        (cls.subgame, cls.nu) for cls in ergodic_partition(a, solve_values(a))]
    built = []
    real_init = SubgameMask.__init__

    def spy_init(mask, retained):
        built.append(retained)
        real_init(mask, retained)

    monkeypatch.setattr(SubgameMask, "__init__", spy_init)
    shared = 0
    for arena, nu in games:
        _, b = enumerate_lattice(arena, nu, seed_children=seed_children)
        assert built == []
        for node in b.nodes:
            assert not any(isinstance(getattr(node, slot), SubgameMask)
                           for slot in lattice.SubgameNode.__slots__)
            assert len(set(node.parent_ids)) == len(node.parent_ids)
            shared += len(node.parent_ids) > 1
        assert b.nodes[-1].mask.key() and len(built) == 1  # the spy counts
        built.clear()
    assert shared  # the link check has nodes with several parents


@pytest.mark.parametrize("seed_children", [True, False])
def test_enumerate_lifts_no_child_inside_a_pruned_one(gamma_d, monkeypatch,
                                                      seed_children):
    # Spy on the arenas enumerate_lattice lifts: the first is the root, the
    # others its children, whose masks are their Player-0 rows.  No mask is
    # lifted twice, none lies inside a child already found pruned, and no
    # child is rebuilt through apply_mask.
    lifted = []  # (Player-0 rows, least SEPM) of each lifted arena, in order
    masked = []
    real_apply, real_lift = arena_module.apply_mask, lattice.energy.least_sepm

    def spy_apply(arena, mask):
        masked.append(mask)
        return real_apply(arena, mask)

    def spy_lift(arena, **kwargs):
        f = real_lift(arena, **kwargs)
        lifted.append(({u: tuple(v for v, _ in arena.out[u])
                        for u in arena.vertices_of(0)}, f))
        return f

    monkeypatch.setattr(arena_module, "apply_mask", spy_apply)
    monkeypatch.setattr(lattice.energy, "least_sepm", spy_lift)
    a = gen_random_arena(24, 3, 1, 2)
    games = [(gamma_d, Fraction(0))] + [
        (cls.subgame, cls.nu) for cls in ergodic_partition(a, solve_values(a))]
    pruned_total = 0
    for arena, nu in games:
        lifted.clear()
        x, b = enumerate_lattice(arena, nu, seed_children=seed_children)
        children = lifted[1:]
        assert len(children) == len(b) - 1 + sum(
            not f.all_finite() for _, f in children)
        keys = [tuple(sorted(mask.items())) for mask, _ in children]
        assert len(set(keys)) == len(keys)
        assert set(keys) >= {node.mask.key() for node in b.nodes[1:]}
        pruned = []
        for mask, f in children:
            for other in pruned:
                assert not all(set(mask[u]) <= set(other[u]) for u in mask)
            if not f.all_finite():
                pruned.append(mask)
        pruned_total += len(pruned)
    assert pruned_total > 0
    assert masked == [] and not hasattr(lattice, "apply_mask")


def test_phi_onto_and_antitone(gamma_d):
    x, b = enumerate_lattice(gamma_d, Fraction(0))
    assert {n.sepm_id for n in b.nodes} == set(range(len(x)))
    for parent, child in b.edges():
        pf = x.sepms[b.nodes[parent].sepm_id]
        cf = x.sepms[b.nodes[child].sepm_id]
        assert pf.pointwise_le(cf)


def test_root_is_pointwise_minimum(gamma_d):
    x, _ = enumerate_lattice(gamma_d, Fraction(0))
    assert x.pointwise_minimum() == x.root_sepm.values
    assert x.root_sepm is x.sepms[0]


def test_decompose_gamma_ex(gamma_ex):
    x, _ = enumerate_lattice(gamma_ex, Fraction(-1))
    blocks = decompose(gamma_ex, Fraction(-1), x)
    assert [bl.count for bl in blocks] == [2, 1, 1]
    assert sum(bl.count for bl in blocks) == 4
    idx = gamma_ex.index
    e_choices = [{s.choice[idx["E"]] for s in bl.strategies} for bl in blocks]
    assert e_choices == [{idx["A"], idx["G"]}, {idx["F"]}, {idx["C"]}]
    for bl in blocks:
        for s in bl.strategies:
            assert s.choice[idx["B"]] == idx["C"]
            assert s.choice[idx["D"]] == idx["A"]
            assert s.choice[idx["G"]] == idx["F"]


def test_decompose_truncates_listing_not_count(gamma_ex):
    x, _ = enumerate_lattice(gamma_ex, Fraction(-1))
    blocks = decompose(gamma_ex, Fraction(-1), x, max_listed=1)
    assert [bl.count for bl in blocks] == [2, 1, 1]
    assert [len(bl.strategies) for bl in blocks] == [1, 1, 1]
    assert blocks[0].truncated and not blocks[1].truncated


def test_decompose_rejects_negative_listing_cap(gamma_ex):
    x, _ = enumerate_lattice(gamma_ex, Fraction(-1))
    with pytest.raises(ValueError, match="max_listed"):
        decompose(gamma_ex, Fraction(-1), x, max_listed=-1)


def test_decompose_rejects_a_lattice_of_another_game(gamma_ex, gamma_d):
    # Each lattice's root measure is no SEPM of the other reweighted game:
    # its length or its cap differs.
    x_ex, _ = enumerate_lattice(gamma_ex, Fraction(-1))
    x_d, _ = enumerate_lattice(gamma_d, Fraction(0))
    for arena, nu, x in [(gamma_ex, Fraction(-1), x_d),
                         (gamma_d, Fraction(1), x_d),
                         (gamma_d, Fraction(0), x_ex)]:
        with pytest.raises(ValueError, match="another game or nu"):
            decompose(arena, nu, x)


def test_decompose_forced_arena():
    a = Arena(["p", "q"], [0, 1], [(0, 1, 1), (1, 0, -1)])
    x, _ = enumerate_lattice(a, Fraction(0))
    blocks = decompose(a, Fraction(0), x)
    assert len(blocks) == 1
    assert blocks[0].count == 1
    assert blocks[0].strategies[0].choice == (1, None)


def test_decompose_matches_oracle_on_random_classes():
    members = outsiders = 0
    for seed in range(25):
        a = gen_random_arena(5, 3, 4, seed)
        vals = solve_values(a)
        for cls in ergodic_partition(a, vals):
            sub, nu = cls.subgame, cls.nu
            x, _ = enumerate_lattice(sub, nu)
            blocks = decompose(sub, nu, x)
            # Lifted membership agrees with the Bellman-Ford potential on
            # every compatible candidate of every block, members or not,
            # and members pick only tight arcs.
            scaled = reweight(sub, nu)
            p0 = scaled.vertices_of(0)
            for f in x:
                pools = [[v for _, v in compatible_arcs(scaled, f, u)]
                         for u in p0]
                tight = {arc for u in p0 for arc in _tight_arcs(scaled, f, u)}
                for picks in itertools.product(*pools):
                    s = _strategy(scaled.n, p0, picks)
                    pi = least_feasible_potential(restrict(scaled, s))
                    member = delta_membership(scaled, f, s)
                    assert member == (pi == f)
                    if member:
                        assert set(zip(p0, picks)) <= tight
                    members += member
                    outsiders += not member
            _, opt = exhaustive_opt(sub)
            union = set()
            for bl in blocks:
                chosen = {s.choice for s in bl.strategies}
                assert len(chosen) == bl.count
                assert not (union & chosen)
                union |= chosen
            assert union == {s.choice for s in opt}
            ref = reference_energy_lattice(sub, nu, opt)
            assert {f.values for f in x} == {f.values for f in ref}
    assert members > 0 and outsiders > 0


def _compatible_walk(arena, nu, x, max_listed):
    """Reference blocks as (sepm_id, count, listed choices): the product of
    f-compatible arcs, filtered by lifted membership except at the root."""
    scaled = reweight(arena, nu)
    p0 = scaled.vertices_of(0)
    blocks = []
    for sepm_id, f in enumerate(x.sepms):
        pools = [[v for _, v in compatible_arcs(scaled, f, u)] for u in p0]
        candidates = (_strategy(scaled.n, p0, picks)
                      for picks in itertools.product(*pools))
        if sepm_id == 0:
            count = math.prod(len(pool) for pool in pools)
            listed = list(itertools.islice(candidates, max_listed))
        else:
            found = [s for s in candidates if delta_membership(scaled, f, s)]
            count, listed = len(found), found[:max_listed]
        blocks.append((sepm_id, count, [s.choice for s in listed]))
    return blocks


@pytest.fixture(scope="module")
def random_classes():
    games = []
    for args in [(24, 3, 1, 2), (16, 3, 2, 5), (20, 3, 2, 9), (24, 3, 1, 19),
                 (18, 4, 1, 25)]:
        a = gen_random_arena(*args)
        games += [(cls.subgame, cls.nu)
                  for cls in ergodic_partition(a, solve_values(a))]
    return games


def test_node_keys_differ_in_one_slot_and_match_their_masks(gamma_d,
                                                            random_classes):
    # A child's key equals its first parent's in every slot but the cut
    # vertex's; a node's removed arcs are the arcs its mask drops.
    games = [(gamma_d, Fraction(0))] + random_classes
    children = 0
    for sub, nu in games:
        _, b = enumerate_lattice(sub, nu)
        for node in b.nodes:
            kept = apply_mask(sub, node.mask)
            assert node.removed_arcs(sub) == [
                (u, v) for u, v, _ in sub.arcs() if v not in dict(kept.out[u])]
            if not node.parent_ids:
                continue
            parent = b.nodes[node.parent_ids[0]]
            same = [mine == theirs
                    for mine, theirs in zip(node.key, parent.key)]
            assert same.count(False) == 1
            children += 1
    assert children > len(games)


@pytest.mark.parametrize("max_listed", [16, None])
def test_decompose_matches_compatible_walk(gamma_d, random_classes,
                                           monkeypatch, max_listed):
    games = [(gamma_d, Fraction(0))] + random_classes
    calls = []

    def spy(arena, f, strategy):
        calls.append(strategy)
        return delta_membership(arena, f, strategy)

    monkeypatch.setattr(lattice, "delta_membership", spy)
    walked = members = 0
    for arena, nu in games:
        x, _ = enumerate_lattice(arena, nu)
        calls.clear()
        blocks = decompose(arena, nu, x, max_listed=max_listed)
        assert [(bl.sepm_id, bl.count, [s.choice for s in bl.strategies])
                for bl in blocks] == _compatible_walk(arena, nu, x, max_listed)
        scaled = reweight(arena, nu)
        p0 = scaled.vertices_of(0)
        # One lift per candidate of each non-root block, tight arcs only.
        assert len(calls) == sum(
            math.prod(len(_tight_arcs(scaled, f, u)) for u in p0)
            for f in x.sepms[1:])
        walked += len(calls)
        members += sum(bl.count for bl in blocks[1:])
    assert walked > members > 0


class _Enough(Exception):
    """Stops an enumeration after a chosen number of basic subgames."""


def _reference_enumeration(arena, nu, seed_children, limit=None):
    """The enumeration written plainly, as (key, sepm id, parent ids,
    measure) per node: every node computes every row's cut set with
    ``incompatible_arcs``, and every child scans every pruned key.
    Stops after ``limit`` nodes."""
    scaled = reweight(arena, nu)
    p0 = scaled.vertices_of(0)
    sepm_ids, nodes, node_ids, pruned = {}, [], {}, []

    def emit(key, f, parent_id):
        sepm_id = sepm_ids.setdefault(f.values, len(sepm_ids))
        node_ids[key] = len(nodes)
        nodes.append((key, sepm_id, [] if parent_id is None else [parent_id],
                      f))
        if len(nodes) == limit:
            raise _Enough
        return len(nodes) - 1

    root_f = least_sepm(scaled)
    root_key = tuple(frozenset(v for v, _ in scaled.out[u]) for u in p0)
    pending = [(emit(root_key, root_f, None), scaled)]
    try:
        while pending:
            node_id, sub = pending.pop()
            key, _, _, f = nodes[node_id]
            for i, u in enumerate(p0):
                cut = frozenset(v for _, v in incompatible_arcs(sub, f, u))
                if not cut:
                    continue
                kept = key[:i] + (cut,) + key[i + 1:]
                if kept in node_ids:
                    nodes[node_ids[kept]][2].append(node_id)
                    continue
                if any(all(a <= b for a, b in zip(kept, other))
                       for other in pruned):
                    continue
                child = sub._keep({u: cut})
                child_f = (least_sepm(child, seed=f, cut=u) if seed_children
                           else least_sepm(child))
                if not child_f.all_finite():
                    pruned = [other for other in pruned
                              if not all(a <= b for a, b in zip(other, kept))]
                    pruned.append(kept)
                    continue
                pending.append((emit(kept, child_f, node_id), child))
    except _Enough:
        pass
    return [(key, sepm_id, parents, f.values)
            for key, sepm_id, parents, f in nodes]


def _enumerated(arena, nu, seed_children=True, limit=None):
    """``enumerate_lattice``'s nodes in the reference's form, stopped by
    ``on_subgame`` after ``limit`` nodes."""
    nodes, sepms = [], []

    def on_subgame(node):
        nodes.append(node)
        if len(nodes) == limit:
            raise _Enough

    try:
        enumerate_lattice(arena, nu, seed_children=seed_children,
                          on_sepm=lambda i, f: sepms.append(f),
                          on_subgame=on_subgame)
    except _Enough:
        pass
    return [(node.key, node.sepm_id, node.parent_ids,
             sepms[node.sepm_id].values) for node in nodes]


@pytest.fixture(scope="module")
def r40():
    """r40's one value class: 40 vertices, 28 of them Player 0, and a
    lattice of more than 40,000 basic subgames."""
    a = gen_random_arena(40, 4, 1, 7)
    (cls,) = ergodic_partition(a, solve_values(a))
    return cls.subgame, cls.nu


@pytest.mark.parametrize("seed_children", [True, False])
def test_enumeration_matches_the_plain_reference(gamma_d, seed_children):
    # Cut sets carried from the parent and the mask pruned test give the
    # plain enumeration's nodes, keys, sepm ids, parents and measures.
    games = [(gamma_d, Fraction(0))]
    for seed in range(200):
        a = gen_random_arena(6, 3, 4, seed)
        games += [(cls.subgame, cls.nu)
                  for cls in ergodic_partition(a, solve_values(a))]
    shared = 0
    for arena, nu in games:
        want = _reference_enumeration(arena, nu, seed_children)
        assert _enumerated(arena, nu, seed_children) == want
        shared += sum(len(parents) > 1 for _, _, parents, _ in want)
    assert shared > 0


def test_enumeration_matches_the_plain_reference_on_r40(r40):
    sub, nu = r40
    want = _reference_enumeration(sub, nu, True, limit=3000)
    assert len(want) == 3000
    assert _enumerated(sub, nu, limit=3000) == want


def test_enumeration_keeps_one_integer_per_node(r40):
    # A node records its subgame as one integer, read through a table all
    # nodes share: r40's first 5,000 nodes retain about 265 bytes each,
    # and 494 when each node kept a tuple of interned sets.
    sub, nu = r40
    nodes = []

    def on_subgame(node):
        nodes.append(node)
        if len(nodes) == 5000:
            raise _Enough

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(_Enough):
            enumerate_lattice(sub, nu, on_subgame=on_subgame)
        gc.collect()  # the stopped enumeration's frames hold cycles
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(nodes) == 5000
    assert retained / len(nodes) < 350


def test_enumeration_recomputes_only_the_rows_that_changed(r40,
                                                          monkeypatch):
    # A node recomputes its cut row and the rows whose vertex or heads
    # changed measure, not every Player-0 row.
    calls = []
    real = lattice._cut_set

    def spy(arena, vals, u):
        calls.append(u)
        return real(arena, vals, u)

    monkeypatch.setattr(lattice, "_cut_set", spy)
    sub, nu = r40
    nodes = _enumerated(sub, nu, limit=2000)
    p0 = reweight(sub, nu).vertices_of(0)
    assert len(nodes) == 2000 and len(p0) == 28
    assert len(calls) < len(nodes) * len(p0) / 2


def test_regrouping_by_potential_reproduces_lattice(gamma_ex):
    # uniqueness: grouping optimal strategies by their least feasible
    # potential recovers exactly the enumerated blocks
    scaled = reweight(gamma_ex, Fraction(-1))
    x, _ = enumerate_lattice(gamma_ex, Fraction(-1))
    blocks = decompose(gamma_ex, Fraction(-1), x)
    _, opt = exhaustive_opt(gamma_ex)
    for bl in blocks:
        f = x.sepms[bl.sepm_id]
        regroup = {s.choice for s in opt if delta_membership(scaled, f, s)}
        assert regroup == {s.choice for s in bl.strategies}


def test_restrictions_share_the_games_cap():
    # A basic subgame's least SEPM is its node's measure, and a listed
    # block member's least feasible potential is its block's measure,
    # though the restriction may have lost the game's heaviest arc.
    lighter = 0
    for s in range(100):
        a = gen_random_arena(5 + s % 6, 3, 1 + s % 6, 5000 + s)
        for cls in ergodic_partition(a, solve_values(a)):
            scaled = reweight(cls.subgame, cls.nu)
            x, b = enumerate_lattice(cls.subgame, cls.nu)
            for node in b.nodes:
                child = apply_mask(scaled, node.mask)
                assert least_sepm(child) == x.sepms[node.sepm_id]
                lighter += max(abs(w) for *_, w in child.arcs()) < scaled.W
            for block in decompose(cls.subgame, cls.nu, x):
                for strategy in block.strategies:
                    graph = restrict(scaled, strategy)
                    assert (least_feasible_potential(graph)
                            == x.sepms[block.sepm_id])
                    lighter += (max(abs(w) for *_, w in graph.arcs())
                                < scaled.W)
    assert lighter > 0
