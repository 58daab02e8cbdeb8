import itertools
from fractions import Fraction

import pytest

from mpgsolver import (Arena, EnergyFunction, NotNuValuedError,
                       compatible_arcs, decompose, enumerate_lattice,
                       incompatible_arcs, least_feasible_potential,
                       least_sepm, restrict, reweight)
from mpgsolver.oracle import (exhaustive_opt, gen_random_arena,
                              reference_energy_lattice)
from mpgsolver.potentials import PositionalStrategy, delta_membership
from mpgsolver.values import ergodic_partition, solve_values

F_STAR = (0, 4, 8, 4, 0, 4, 0)
F_1 = (0, 4, 8, 4, 3, 4, 0)
F_2 = (0, 4, 8, 4, 7, 4, 0)


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
    assert [b.phi(i) for i in range(3)] == [0, 1, 2]


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
            # every candidate of every block, members or not.
            scaled = reweight(sub, nu)
            p0 = scaled.vertices_of(0)
            for f in x:
                pools = [[v for _, v in compatible_arcs(scaled, f, u)]
                         for u in p0]
                for picks in itertools.product(*pools):
                    choice = [None] * scaled.n
                    for u, v in zip(p0, picks):
                        choice[u] = v
                    s = PositionalStrategy(choice)
                    pi = least_feasible_potential(restrict(scaled, s),
                                                  cap=f.cap)
                    member = delta_membership(scaled, f, s)
                    assert member == (pi == f)
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
