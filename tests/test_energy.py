import itertools
import random
from fractions import Fraction

import pytest

from mpgsolver import (Arena, EnergyFunction, SubgameMask, apply_mask,
                       arena_cap, compatible_arcs, ergodic_partition,
                       incompatible_arcs, is_sepm, least_sepm, ominus,
                       reweight, solve_values, winning_regions)
from mpgsolver.errors import InternalError
from mpgsolver.oracle import gen_random_arena, naive_least_sepm

GAMMA_EX_FSTAR = (0, 4, 8, 4, 0, 4, 0)  # A..G on the w+1 reweighting


def rw_ex(gamma_ex):
    return reweight(gamma_ex, Fraction(-1))


def test_ominus_examples():
    # f*(t)=0 and weight -1 force f*(u3)=1 in the degenerate arena
    assert ominus(0, -1, 100) == 1
    assert ominus(5, 5, 100) == 0
    assert ominus(24, -1, 24) == 25  # past the cap: top
    assert ominus(25, 7, 24) == 25   # top is absorbing
    assert ominus(3, 10, 24) == 0    # clamped at zero from below


def test_is_sepm_gamma_ex(gamma_ex):
    scaled = rw_ex(gamma_ex)
    cap = arena_cap(scaled)
    assert is_sepm(scaled, EnergyFunction(GAMMA_EX_FSTAR, cap))
    assert is_sepm(scaled, EnergyFunction([cap + 1] * 7, cap))
    lowered = (0, 3, 8, 4, 0, 4, 0)  # arc (B,C): 8 (-) 4 = 4 > 3
    assert not is_sepm(scaled, EnergyFunction(lowered, cap))


def test_least_sepm_gamma_ex(gamma_ex):
    f = least_sepm(rw_ex(gamma_ex))
    assert f.values == GAMMA_EX_FSTAR
    assert f.all_finite()


def test_least_sepm_gamma_d(gamma_d):
    f = least_sepm(gamma_d)
    expect = {"u3": 1, "v3": 1, "t": 0}
    for u, name in enumerate(gamma_d.names):
        assert f.values[u] == expect.get(name, 0)


def test_least_sepm_gamma_d_subgame(gamma_d):
    # keep only u3->u1, v3->v1 at the choice vertices and t->u4 at t
    idx = gamma_d.index
    mask = (SubgameMask.full(gamma_d)
            .with_restriction(idx["u3"], [idx["u1"]])
            .with_restriction(idx["v3"], [idx["v1"]])
            .with_restriction(idx["t"], [idx["u4"]]))
    f = least_sepm(apply_mask(gamma_d, mask))
    expect = {"u3": 2, "v3": 2, "t": 10}
    for u, name in enumerate(gamma_d.names):
        assert f.values[u] == expect.get(name, 0)


def test_winning_regions(gamma_ex):
    w0, w1 = winning_regions(rw_ex(gamma_ex))
    assert w0 == frozenset(range(7))
    assert w1 == frozenset()

    loser = Arena(["x"], [0], [(0, 0, -1)])
    assert winning_regions(loser) == (frozenset(), frozenset({0}))
    winner = Arena(["x"], [0], [(0, 0, 0)])
    assert winning_regions(winner) == (frozenset({0}), frozenset())


def test_compatible_arcs(gamma_ex, gamma_d):
    scaled = rw_ex(gamma_ex)
    f = least_sepm(scaled)
    e = scaled.index["E"]
    assert compatible_arcs(scaled, f, e) == [
        (e, scaled.index["A"]), (e, scaled.index["G"])]

    fd = least_sepm(gamma_d)
    t = gamma_d.index["t"]
    assert compatible_arcs(gamma_d, fd, t) == [(t, gamma_d.index["v4"])]

    all_top = EnergyFunction([f.cap + 1] * 7, f.cap)
    assert len(compatible_arcs(scaled, all_top, e)) == 4


def test_least_sepm_is_sepm_and_matches_kleene():
    seeded_to_top = 0
    for seed in range(60):
        base = gen_random_arena(5, 3, 4, seed)
        for nu in (Fraction(0), Fraction(-1), Fraction(1, 2),
                   Fraction(-3, 4)):
            a = reweight(base, nu)
            f = least_sepm(a)
            assert is_sepm(a, f)
            assert f == naive_least_sepm(a)
            # Seeded runs on masked children, as the lattice makes them:
            # keep only the arcs incompatible with the parent's measure.
            for u in a.vertices_of(0):
                cut = [v for _, v in incompatible_arcs(a, f, u)]
                if not cut:
                    continue
                child = apply_mask(
                    a, SubgameMask.full(a).with_restriction(u, cut))
                g = least_sepm(child, seed=f)
                assert g == naive_least_sepm(child)
                seeded_to_top += not g.all_finite()
    assert seeded_to_top > 0


def test_least_sepm_self_loop_climb():
    # P0 vertex with only a negative self-loop and a cheap escape must
    # climb past neither: it takes the escape
    a = Arena(["p", "q"], [0, 1], [(0, 0, -1), (0, 1, -2), (1, 1, 0)])
    f = least_sepm(a)
    assert f.values == (2, 0)
    # without the escape the self-loop pumps the value to top
    b = Arena(["p"], [0], [(0, 0, -1)])
    fb = least_sepm(b)
    assert not fb.all_finite()
    # a P1 vertex must answer every arc: a zero self-loop costs nothing,
    # so it settles at its escape's requirement ...
    c = Arena(["p", "q"], [1, 1], [(0, 0, 0), (0, 1, -2), (1, 1, 0)])
    assert least_sepm(c).values == (2, 0)
    # ... while a negative self-loop pumps it to top despite the escape
    d = Arena(["p", "q"], [1, 0], [(0, 0, -1), (0, 1, 0), (1, 1, 0)])
    fd = least_sepm(d)
    assert fd.is_top(0) and fd.values[1] == 0


def test_lift_past_credit_bound_goes_to_top():
    # a (Player 1) pumps its -1 self-loop; the +1000 arcs raise the cap
    # K to 1000 but the credit bound B (sum of the |V|-1 largest drops)
    # is 1, so a's second lift, to 2, goes straight to top
    a = Arena(["a", "b"], [1, 0], [(0, 0, -1), (0, 1, 1000), (1, 1, 1000)])
    counter = [0]
    f = least_sepm(a, lift_counter=counter)
    assert f.cap == 1000
    assert f.values == (f.cap + 1, 0)
    assert counter[0] <= 2


def test_value_at_credit_bound_stays_finite():
    # the gadget u -> u (-1), u -> x (-W), x -> x (0) has least SEPM
    # u = W, which equals its credit bound B: a lift to exactly B is finite
    w = 7
    a = Arena(["u", "x"], [0, 0], [(0, 0, -1), (0, 1, -w), (1, 1, 0)])
    f = least_sepm(a)
    assert f.values == (w, 0)
    assert f.all_finite()


def test_credit_bound_matches_kleene_with_tops():
    # off-value reweightings leave many vertices top; the early
    # saturation must agree with the plain Kleene iteration up to K
    tops = finite = 0
    for seed in range(300):
        rng = random.Random(seed)
        base = gen_random_arena(2 + seed % 5, 3, 1 + seed % 4, seed)
        a = reweight(base, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        f = least_sepm(a)
        assert f == naive_least_sepm(a)
        tops += not f.all_finite()
        finite += f.all_finite()
        # a seeded one-vertex child, as the lattice makes it
        for u in a.vertices_of(0):
            cut = [v for _, v in incompatible_arcs(a, f, u)]
            if cut:
                child = apply_mask(
                    a, SubgameMask.full(a).with_restriction(u, cut))
                g = least_sepm(child, seed=f)
                assert g == naive_least_sepm(child)
                tops += not g.all_finite()
                break
    assert tops > 100 and finite > 50


def test_seeded_restart_equals_cold_start(gamma_d):
    idx = gamma_d.index
    parent = least_sepm(gamma_d)
    mask = SubgameMask.full(gamma_d).with_restriction(idx["t"], [idx["u4"]])
    child = apply_mask(gamma_d, mask)
    cold = least_sepm(child)
    warm = least_sepm(child, seed=parent)
    assert cold == warm


def test_monotone_under_p0_arc_removal():
    for seed in range(30):
        a = gen_random_arena(5, 3, 4, seed)
        f = least_sepm(a)
        p0 = [u for u in a.vertices_of(0) if len(a.out[u]) > 1]
        if not p0:
            continue
        u = p0[0]
        keep = [v for v, _ in a.out[u]][1:]
        sub = apply_mask(a, SubgameMask.full(a).with_restriction(u, keep))
        g = least_sepm(sub)
        assert all(x <= y for x, y in zip(f.values, g.values))


def test_least_sepm_antitone_in_retained_arcs():
    # The enumeration skips a child inside a pruned one because of this:
    # for masks M' inside M, least_sepm(M') >= least_sepm(M) with the
    # same cap, so every top entry of M carries over to M'.
    newly_top = 0
    for seed in range(40):
        a = gen_random_arena(7, 3, 4, seed)
        rng = random.Random(seed)
        for cls in ergodic_partition(a, solve_values(a)):
            scaled = reweight(cls.subgame, cls.nu)
            masks = [SubgameMask.full(scaled)]
            for _ in range(4):
                retained = masks[-1].retained
                wide = sorted(u for u, d in retained.items() if len(d) > 1)
                if not wide:
                    break
                u = rng.choice(wide)
                dsts = retained[u]
                keep = rng.sample(dsts, rng.randint(1, len(dsts) - 1))
                masks.append(masks[-1].with_restriction(u, keep))
            fs = [least_sepm(apply_mask(scaled, m)) for m in masks]
            assert fs[0].all_finite()
            for big, small in itertools.combinations(fs, 2):
                assert big.pointwise_le(small)
                assert all(small.is_top(u) for u in range(scaled.n)
                           if big.is_top(u))
                newly_top += big.all_finite() and not small.all_finite()
    assert newly_top > 0


def test_winning_regions_partition():
    for seed in range(30):
        a = gen_random_arena(6, 3, 4, seed)
        w0, w1 = winning_regions(a)
        assert w0 | w1 == frozenset(range(a.n))
        assert not (w0 & w1)


def test_lift_counter_counts_something(gamma_ex):
    counter = [0]
    least_sepm(rw_ex(gamma_ex), lift_counter=counter)
    assert counter[0] > 0


def test_energy_function_json(gamma_ex):
    f = least_sepm(rw_ex(gamma_ex))
    blob = f.to_json(gamma_ex)
    assert blob["cap"] == f.cap
    assert blob["scale"] == 1
    assert blob["values"]["C"] == 8
    g = EnergyFunction([f.cap + 1] * 7, f.cap)
    assert g.to_json(gamma_ex)["values"]["A"] == "top"


def test_seed_from_another_game_raises():
    # same vertices, but W = 1 against W = 2: the caps differ
    a = Arena(["x", "y"], [0, 1], [(0, 1, 1), (1, 0, -1)])
    b = Arena(["x", "y"], [0, 1], [(0, 1, 2), (1, 0, -1)])
    with pytest.raises(InternalError):
        least_sepm(b, seed=least_sepm(a))
    # equal caps, (3 - 1) * 2 == (5 - 1) * 1, but unequal lengths
    small = Arena(["x", "y", "z"], [0, 1, 0],
                  [(0, 1, 2), (1, 2, -1), (2, 0, 1)])
    large = Arena(["a", "b", "c", "d", "e"], [0, 1, 0, 1, 0],
                  [(0, 1, 1), (1, 2, 1), (2, 3, -1), (3, 4, 1), (4, 0, 1)])
    assert arena_cap(small) == arena_cap(large) == 4
    for arena, other in [(small, large), (large, small)]:
        with pytest.raises(InternalError):
            least_sepm(arena, seed=least_sepm(other))


def test_pointwise_le_requires_same_cap():
    a = EnergyFunction([0], 3)
    b = EnergyFunction([0], 4)
    with pytest.raises(Exception):
        a.pointwise_le(b)
    # the same cap but another length: zip would compare a prefix only
    short, long = EnergyFunction([0, 0, 0], 4), EnergyFunction([0] * 4, 4)
    for x, y in [(short, long), (long, short)]:
        with pytest.raises(InternalError):
            x.pointwise_le(y)
