"""Acceptance suite: the package's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All comparisons are exact (integers and fractions);
the two timed criteria assert their stated wall-clock budgets.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mpgsolver import (decompose, enumerate_lattice, least_sepm, parse_arena,
                       reweight, serialize_arena, winning_regions)
from mpgsolver.oracle import (all_strategies, exhaustive_opt,
                              gen_random_arena, naive_least_sepm,
                              reference_energy_lattice)
from mpgsolver.potentials import (is_conservative, restrict)
from mpgsolver.ttpg import (audit_min_table, convergence_horizon,
                            min_ttpg_fixpoint)
from mpgsolver.values import ergodic_partition, solve_values
from mpgsolver import apply_mask

F_STAR = (0, 4, 8, 4, 0, 4, 0)
F_1 = (0, 4, 8, 4, 3, 4, 0)
F_2 = (0, 4, 8, 4, 7, 4, 0)

CORPUS_SIZE = 200


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d (%s): FAIL" % (number, label))
        raise
    print("ACCEPTANCE %d (%s): PASS" % (number, label))


@pytest.fixture(scope="module")
def corpus():
    """The seeded random corpus shared by criteria 3, 4, 5, 6 and 7."""
    return [gen_random_arena(6, 3, 4, seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def corpus_classes(corpus):
    """(subgame, nu) for every value class of every corpus arena."""
    classes = []
    for arena in corpus:
        vals = solve_values(arena)
        for cls in ergodic_partition(arena, vals):
            classes.append((cls.subgame, cls.nu))
    return classes


def test_criterion_1_gamma_ex_golden(gamma_ex):
    with criterion(1, "gamma_ex golden"):
        start = time.perf_counter()
        vals = solve_values(gamma_ex)
        assert vals.vals == (Fraction(-1),) * 7

        scaled = reweight(gamma_ex, Fraction(-1))
        assert least_sepm(scaled).values == F_STAR

        x, b = enumerate_lattice(gamma_ex, Fraction(-1))
        assert [f.values for f in x] == [F_STAR, F_1, F_2]
        assert len(b) == 3

        blocks = decompose(gamma_ex, Fraction(-1), x)
        assert [bl.count for bl in blocks] == [2, 1, 1]
        assert sum(bl.count for bl in blocks) == 4
        _, opt = exhaustive_opt(gamma_ex)
        assert len(opt) == 4
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, "took %.3fs" % elapsed


def test_criterion_2_gamma_d_degeneracy(gamma_d):
    with criterion(2, "gamma_d degeneracy"):
        start = time.perf_counter()
        vals = solve_values(gamma_d)
        oracle_vals, _ = exhaustive_opt(gamma_d)
        assert vals == oracle_vals
        assert all(v == 0 for v in vals.vals)

        root = least_sepm(gamma_d)
        expect = {"u3": 1, "v3": 1, "t": 0}
        assert all(root.values[u] == expect.get(name, 0)
                   for u, name in enumerate(gamma_d.names))

        x, b = enumerate_lattice(gamma_d, Fraction(0))
        shared = {"u3": 2, "v3": 2, "t": 10}
        target = tuple(shared.get(name, 0) for name in gamma_d.names)
        twins = [node for node in b.nodes
                 if x.sepms[node.sepm_id].values == target]
        assert len(twins) >= 2
        assert len({node.mask.key() for node in twins}) == len(twins)
        assert len(b) > len(x)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, "took %.3fs" % elapsed


def test_criterion_3_oracle_equivalence(corpus):
    with criterion(3, "oracle equivalence on %d arenas" % CORPUS_SIZE):
        start = time.perf_counter()
        assert len(corpus) >= 200
        for arena in corpus:
            vals = solve_values(arena)
            oracle_vals, _ = exhaustive_opt(arena)
            assert vals == oracle_vals
            for cls in ergodic_partition(arena, vals):
                sub, nu = cls.subgame, cls.nu
                _, opt = exhaustive_opt(sub)
                opt_set = {s.choice for s in opt}

                x, _ = enumerate_lattice(sub, nu)
                ref = reference_energy_lattice(sub, nu, opt)
                assert {f.values for f in x} == {f.values for f in ref}

                union = set()
                for block in decompose(sub, nu, x):
                    chosen = {s.choice for s in block.strategies}
                    assert len(chosen) == block.count
                    assert not (union & chosen)
                    union |= chosen
                assert union == opt_set

                scaled = reweight(sub, nu)
                for s in all_strategies(sub):
                    conservative = is_conservative(restrict(scaled, s))
                    assert conservative == (s.choice in opt_set)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, "took %.1fs" % elapsed


def test_criterion_4_min_ttpg_convergence(corpus, gamma_ex, gamma_d):
    with criterion(4, "min-variant truncated payoff convergence"):
        instances = list(corpus)
        instances.append(reweight(gamma_ex, Fraction(-1)))
        instances.append(gamma_d)
        for arena in instances:
            f, k_reached, table = min_ttpg_fixpoint(arena, keep_history=True)
            assert f == least_sepm(arena)
            w0 = sum(1 for u in range(arena.n) if not f.is_top(u))
            assert k_reached <= convergence_horizon(arena, w0, arena.n - w0)
            assert audit_min_table(arena, table, fstar=f) == []


def test_criterion_5_fixpoint_cross_checks(corpus_classes):
    with criterion(5, "worklist vs Kleene and seeded vs unseeded"):
        for sub, nu in corpus_classes:
            scaled = reweight(sub, nu)
            assert least_sepm(scaled) == naive_least_sepm(scaled)
            x, b = enumerate_lattice(sub, nu)
            for parent_id, child_id in b.edges():
                parent_f = x.sepms[b.nodes[parent_id].sepm_id]
                child = apply_mask(scaled, b.nodes[child_id].mask)
                warm = least_sepm(child, seed=parent_f)
                cold = least_sepm(child)
                assert warm == cold
                assert warm == x.sepms[b.nodes[child_id].sepm_id]


def test_criterion_6_enumeration_hygiene(corpus_classes, data_dir,
                                         run_cli_process):
    with criterion(6, "no repeated emissions; byte-identical output"):
        for sub, nu in corpus_classes:
            emitted_sepms, emitted_nodes = [], []
            x, b = enumerate_lattice(
                sub, nu,
                on_sepm=lambda i, f: emitted_sepms.append(f.values),
                on_subgame=lambda node: emitted_nodes.append(node.mask.key()))
            assert len(set(emitted_sepms)) == len(emitted_sepms) == len(x)
            assert len(set(emitted_nodes)) == len(emitted_nodes) == len(b)
        for name in ("gamma_ex.mpg", "gamma_d.mpg", "nonpositional.mpg"):
            path = str(data_dir / name)
            first = run_cli_process("enum", path)
            second = run_cli_process("enum", path)
            assert first.returncode == 0
            assert first.stdout == second.stdout


def test_criterion_7_format_round_trip(corpus, data_dir):
    with criterion(7, "parse/serialize round-trip"):
        for name in ("gamma_ex.mpg", "gamma_d.mpg", "nonpositional.mpg",
                     "random_6_3_4_7.mpg"):
            text = (data_dir / name).read_text()
            arena = parse_arena(text)
            assert parse_arena(serialize_arena(arena)) == arena
        for arena in corpus:
            assert parse_arena(serialize_arena(arena)) == arena
