import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

from mpgsolver import (Arena, EnergyFunction, SubgameMask, apply_mask,
                       arena_cap, compatible_arcs, energy, ergodic_partition,
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


def test_energy_function_range_and_finiteness():
    # values live in [0, cap + 1]; the first one outside is reported
    for values, bad in [((0, 5, -1, 9), 5), ((2, -1, 7), -1),
                        ((4, 4, 3, 0, 6), 6)]:
        with pytest.raises(InternalError,
                           match=r"energy value %d outside" % bad):
            EnergyFunction(values, 3)
    assert EnergyFunction((0, 3, 3), 3).all_finite()
    assert not EnergyFunction((0, 4, 3), 3).all_finite()
    assert EnergyFunction((), 3).all_finite()


def test_is_sepm_gamma_ex(gamma_ex):
    scaled = rw_ex(gamma_ex)
    cap = arena_cap(scaled)
    assert is_sepm(scaled, EnergyFunction(GAMMA_EX_FSTAR, cap))
    assert is_sepm(scaled, EnergyFunction([cap + 1] * 7, cap))
    lowered = (0, 3, 8, 4, 0, 4, 0)  # arc (B,C): 8 (-) 4 = 4 > 3
    assert not is_sepm(scaled, EnergyFunction(lowered, cap))
    # a measure of another length or cap is no SEPM of this game, as
    # delta_membership answers for it
    assert not is_sepm(scaled, EnergyFunction(GAMMA_EX_FSTAR + (0,), cap))
    assert not is_sepm(scaled, EnergyFunction(GAMMA_EX_FSTAR[:-1], cap))
    assert not is_sepm(scaled, EnergyFunction([1] * 7, 0))  # all top
    assert not is_sepm(scaled, EnergyFunction(GAMMA_EX_FSTAR, cap + 1))


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
                full, at_cut = [0], [0]
                g = least_sepm(child, seed=f, lift_counter=full)
                assert g == naive_least_sepm(child)
                # f violates the child only at u: starting the queue there
                # makes the same lifts as the full scan
                assert least_sepm(child, seed=f, cut=u,
                                  lift_counter=at_cut) == g
                assert at_cut == full
                seeded_to_top += not g.all_finite()
    assert seeded_to_top > 0


def test_least_sepm_self_loop_climb():
    # P0 vertex with a negative self-loop and a cheap escape climbs the
    # self-loop only until the escape is as cheap: two lifts
    a = Arena(["p", "q"], [0, 1], [(0, 0, -1), (0, 1, -2), (1, 1, 0)])
    counter = [0]
    f = least_sepm(a, lift_counter=counter)
    assert f.values == (2, 0)
    assert counter[0] <= 2
    # without the escape the self-loop pumps the value to top
    b = Arena(["p"], [0], [(0, 0, -1)])
    counter = [0]
    fb = least_sepm(b, lift_counter=counter)
    assert not fb.all_finite()
    assert counter[0] <= 2
    # a P1 vertex must answer every arc: a zero self-loop costs nothing,
    # so it settles at its escape's requirement ...
    c = Arena(["p", "q"], [1, 1], [(0, 0, 0), (0, 1, -2), (1, 1, 0)])
    counter = [0]
    assert least_sepm(c, lift_counter=counter).values == (2, 0)
    assert counter[0] <= 2
    # ... while a negative self-loop pumps it to top despite the escape
    d = Arena(["p", "q"], [1, 0], [(0, 0, -1), (0, 1, 0), (1, 1, 0)])
    counter = [0]
    fd = least_sepm(d, lift_counter=counter)
    assert fd.is_top(0) and fd.values[1] == 0
    assert counter[0] <= 2


def test_losing_cycles_go_to_top_at_a_large_cap():
    # a (Player 1) pumps its -1 self-loop; the +W arcs raise the cap K to
    # W, and a jump sends a to top in as many lifts at every W
    counts = set()
    for w in (7, 10**3, 10**6, 10**12):
        a = Arena(["a", "b"], [1, 0], [(0, 0, -1), (0, 1, w), (1, 1, w)])
        counter = [0]
        f = least_sepm(a, lift_counter=counter)
        assert f.cap == w
        assert f.values == (f.cap + 1, 0)
        counts.add(counter[0])
    assert len(counts) == 1 and max(counts) <= 4
    # the same loss around the two-cycle a -> c -> a: a jump sends it to
    # top whatever the cap
    for w in (10**3, 10**6, 10**12):
        a = Arena(["a", "b", "c"], [1, 0, 0],
                  [(0, 1, w), (0, 2, -1), (1, 1, w), (2, 0, 0)])
        counter = [0]
        f = least_sepm(a, lift_counter=counter)
        assert f.cap == 2 * w
        assert f.values == (f.cap + 1, 0, f.cap + 1)
        assert counter[0] <= 8


def test_value_at_the_cap_stays_finite():
    # the gadget u -> u (-1), u -> x (-W), x -> x (0) has least SEPM
    # u = W, which equals the cap K = (|V|-1)*W: a lift to exactly K is
    # finite; a jump raises u from its self-loop to its exit, so that
    # takes as many lifts at every W
    counts = set()
    for w in (7, 10**3, 10**6, 10**12):
        a = Arena(["u", "x"], [0, 0], [(0, 0, -1), (0, 1, -w), (1, 1, 0)])
        counter = [0]
        f = least_sepm(a, lift_counter=counter)
        assert f.values == (w, 0)
        assert f.all_finite()
        counts.add(counter[0])
    assert len(counts) == 1 and max(counts) <= 4


def test_a_tie_with_a_zero_self_loop_does_not_freeze_a_jump():
    # a (Player 1) ties between its 0 self-loop and a -> c (-1), whose
    # cycle a -> c -> a loses 1 per round.  A jump that kept the self-loop
    # would hold a on a cycle of weight 0 and climb 4W + 2 lifts to top.
    counts = set()
    for w in (10**3, 10**4, 10**5):
        a = Arena(["a", "c", "z"], [1, 1, 0],
                  [(0, 0, 0), (0, 1, -1), (1, 0, 0), (1, 2, w), (2, 2, w)])
        counter = [0]
        f = least_sepm(a, lift_counter=counter)
        assert f.values == (f.cap + 1, f.cap + 1, 0)
        counts.add(counter[0])
    assert len(counts) == 1 and max(counts) <= 8


def skew(arena, factor):
    """The arena with every positive weight multiplied by ``factor``."""
    return Arena(arena.names, arena.owner,
                 [(u, v, w * factor if w > 0 else w)
                  for u, v, w in arena.arcs()])


def test_lifting_matches_kleene_with_tops():
    # off-value reweightings leave many vertices top; lifting must agree
    # with the plain Kleene iteration up to K
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
    # positive weights x1000 raise K far above the credit bound B of the
    # per-lift reference, so a top vertex reaches top there by B and here
    # by a jump.  Kleene climbs to K too slowly to be the reference at
    # this scale.
    tops = 0
    for seed in range(300):
        rng = random.Random(seed)
        base = gen_random_arena(2 + seed % 5, 3, 1 + seed % 4, seed)
        a = skew(reweight(base, Fraction(rng.randint(-6, 6),
                                         rng.randint(1, 3))), 1000)
        f = least_sepm(a)
        assert f == per_lift_least_sepm(a)
        tops += not f.all_finite()
        for u, child in one_row_children(a, f):
            g = least_sepm(child, seed=f, cut=u)
            assert g == per_lift_least_sepm(child, seed=f, cut=u)
            tops += not g.all_finite()
    assert tops > 100


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


def test_cut_needs_a_seed_and_a_vertex_of_the_game():
    # x -> y (-3) violates the all-zero start at x, not at the cut y: a
    # cut without a seed would leave x at 0, where f* needs 3
    a = Arena(["x", "y"], [0, 0], [(0, 1, -3), (1, 1, 0)])
    assert least_sepm(a).values == (3, 0)
    with pytest.raises(InternalError):
        least_sepm(a, cut=1)
    seed = EnergyFunction([0, 0], arena_cap(a))
    for cut in (2, 5, -1, -2):
        with pytest.raises(InternalError):
            least_sepm(a, seed=seed, cut=cut)
    assert least_sepm(a, seed=seed, cut=0).values == (3, 0)


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


# The lifting loop before jumps, kept as the reference that the jumps
# must reproduce: one lift per pop, a negative self-loop read as a top
# successor, and lifts past min(cap, B) sent to top, where the credit
# bound B is the sum of the |V|-1 largest per-row drops.  If Player 0
# wins from x, a positional winning strategy makes every cycle it reaches
# non-negative, so the least credit at x is at most minus the weight of
# a simple path, at most B.
def per_lift_target(arena, f, cap, u):
    top = cap + 1
    if arena.owner[u] == 0:
        best = top
        for v, w in arena.out[u]:
            x = f[v]
            if x < top and (v != u or w >= 0):
                best = min(best, x - w)
    else:
        best = 0
        for v, w in arena.out[u]:
            x = f[v]
            if x == top or (v == u and w < 0):
                return top
            best = max(best, x - w)
    if best <= 0:
        return 0
    return best if best <= cap else top


def per_lift_least_sepm(arena, seed=None, cut=None, lift_counter=None):
    cap = arena_cap(arena)
    top = cap + 1
    n = arena.n
    f = [0] * n if seed is None else list(seed.values)
    drops = [max(0, -min(w for _, w in row)) for row in arena.out]
    limit = min(cap, sum(drops) - min(drops))
    if cut is None:
        queued = [f[u] < per_lift_target(arena, f, cap, u) for u in range(n)]
        queue = deque(u for u in range(n) if queued[u])
    else:
        queued = [False] * n
        queued[cut] = f[cut] < per_lift_target(arena, f, cap, cut)
        queue = deque([cut] if queued[cut] else [])
    lifts = 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        target = per_lift_target(arena, f, cap, u)
        if target <= f[u]:
            continue
        if target > limit:
            target = top
        f[u] = target
        lifts += 1
        for p, w in arena.ins[u]:
            x = f[p]
            if x < top and not queued[p] and (target == top
                                              or x < target - w):
                queue.append(p)
                queued[p] = True
    if lift_counter is not None:
        lift_counter[0] += lifts
    return EnergyFunction(f, cap, arena.scale)


def one_row_children(arena, f):
    """(u, child) for each Player-0 row cut to its f-incompatible arcs."""
    for u in arena.vertices_of(0):
        cut = [v for _, v in incompatible_arcs(arena, f, u)]
        if cut:
            yield u, apply_mask(
                arena, SubgameMask.full(arena).with_restriction(u, cut))


def test_jump_raises_a_two_vertex_climb_to_its_exit():
    # u and x climb the cycle u -> x -> u of weight -1 one unit per lift
    # until u's exit to z, W below, pays off: W lifts without the jump
    w = 10**6
    a = Arena(["u", "x", "z"], [0, 0, 0],
              [(0, 1, -1), (0, 2, -w), (1, 0, 0), (2, 2, 0)])
    counter = [0]
    f = least_sepm(a, lift_counter=counter)
    assert f.values == (w, w, 0)
    assert counter[0] <= 16


def test_jump_sends_two_cycles_through_one_vertex_to_top():
    # a (Player 0) picks between the cycles a -> b -> a and a -> c -> a,
    # both of weight -1; its only exit leads to d, which is top.  Jumping
    # one cycle at a time would leave the other holding it back.
    for w in (5, 10**6):
        a = Arena(["a", "b", "c", "d"], [0, 0, 1, 0],
                  [(0, 1, -1), (0, 2, 0), (0, 3, -w), (1, 0, 0), (2, 0, -1),
                   (3, 3, -1)])
        counter = [0]
        f = least_sepm(a, lift_counter=counter)
        assert f.values == (f.cap + 1,) * 4
        assert counter[0] <= 16
    assert f.cap == 3 * 10**6  # K = 3W: a jump, not a climb, reaches top


def test_jumps_match_kleene_on_the_corpus():
    # the 200-arena corpus of the acceptance suite, reweighted at and off
    # its values so that many measures have top entries, with seeded
    # one-row children as the lattice makes them
    tops = cases = 0
    jumped, plain = [0], [0]
    for seed in range(200):
        a = gen_random_arena(6, 3, 4, seed)
        vals = sorted(set(solve_values(a).vals))
        for nu in {vals[0], vals[-1], vals[0] - Fraction(1, 2),
                   vals[-1] + Fraction(1, 3)}:
            scaled = reweight(a, nu)
            f = least_sepm(scaled, lift_counter=jumped)
            assert f == naive_least_sepm(scaled)
            per_lift_least_sepm(scaled, lift_counter=plain)
            cases += 1
            tops += not f.all_finite()
            for u, child in one_row_children(scaled, f):
                g = least_sepm(child, seed=f, cut=u, lift_counter=jumped)
                assert g == naive_least_sepm(child)
                per_lift_least_sepm(child, seed=f, cut=u, lift_counter=plain)
                cases += 1
                tops += not g.all_finite()
    assert cases > 1200 and tops > 600
    assert jumped[0] < plain[0]  # the jumps ran


def test_jumps_match_the_per_lift_loop_on_larger_arenas(monkeypatch):
    # every value probe of denominator <= 16 that solve_values makes on
    # four n = 100 arenas, each on its group's subgame, and the seeded
    # one-row children of each probe and of each value class, against
    # the loop without jumps
    from mpgsolver import energy
    probes = []
    real = energy.least_sepm
    monkeypatch.setattr(energy, "least_sepm",
                        lambda arena, **kwargs: (probes.append(arena)
                                                 or real(arena, **kwargs)))
    games = [gen_random_arena(100, 3, 10, s) for s in (1, 2, 3, 4)]
    for a in games:
        probes += [reweight(cls.subgame, cls.nu)
                   for cls in ergodic_partition(a, solve_values(a))]
    monkeypatch.undo()
    jumped, plain = [0], [0]
    cases = 0
    for scaled in probes:
        if scaled.scale > 16:
            continue
        f = least_sepm(scaled, lift_counter=jumped)
        assert f == per_lift_least_sepm(scaled, lift_counter=plain)
        cases += 1
        for u, child in one_row_children(scaled, f):
            g = least_sepm(child, seed=f, cut=u, lift_counter=jumped)
            assert g == per_lift_least_sepm(child, seed=f, cut=u,
                                            lift_counter=plain)
            cases += 1
    assert cases > 300
    assert 10 * jumped[0] < plain[0]


def zero_arc_arena(seed):
    """A random arena, reweighted, with many 0 arcs and short self-loops."""
    rng = random.Random(seed * 7919 + 1)
    n = rng.randint(3, 30)
    base = gen_random_arena(n, rng.randint(2, 4), rng.randint(1, 5),
                            90000 + seed)
    arcs = [(u, v, 0 if rng.random() < 0.2 else w)
            for u, v, w in base.arcs()]
    for u in range(n):
        if all(v != u for v, _ in base.out[u]) and rng.random() < 0.3:
            arcs.append((u, u, rng.choice((0, 0, -1, -2, 1))))
    return reweight(Arena(base.names, base.owner, arcs),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def test_lifts_do_not_grow_with_the_weights():
    # ties at 0 arcs and 0 self-loops, with positive weights x10^3 and
    # x10^5: roots and seeded one-row children make as many lifts at both
    # scales, and the measures at x10^3 match the per-lift reference
    for seed in range(300):
        a = zero_arc_arena(seed)
        counts = []
        for factor in (10**3, 10**5):
            b = skew(a, factor)
            counter = [0]
            f = least_sepm(b, lift_counter=counter)
            if factor == 10**3:
                assert f == per_lift_least_sepm(b)
            for u, child in one_row_children(b, f):
                g = least_sepm(child, seed=f, cut=u, lift_counter=counter)
                if factor == 10**3:
                    assert g == per_lift_least_sepm(child, seed=f, cut=u)
            counts.append(counter[0])
        assert counts[0] == counts[1], seed


# The region jump before the one-pass Bellman-Ford, kept as the reference
# that the jumps must cover: a freeze test of |S| rounds on the weights
# -(n+1)*w - 1, which holds every vertex that reaches a cycle of weight
# >= 0 at f, then a relaxation of g down from an absorbing top.
def two_pass_jump(arena, f, top, region):
    n = arena.n
    inside = [v for v in region if f[v] < top]
    member = [False] * n
    for v in inside:
        member[v] = True
    arcs = [()] * n
    g = [top] * n
    for v in inside:
        kept = []
        low = top
        if arena.owner[v]:
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


def jump_from_zero(arena, region):
    """(raised, f) of one jump over ``region`` from f = 0, and the same
    of ``two_pass_jump``."""
    top = arena_cap(arena) + 1
    f, ref = [0] * arena.n, [0] * arena.n
    return ((energy._jump(arena, f, top, region), f),
            (two_pass_jump(arena, ref, top, region), ref))


def test_jump_raises_past_a_zero_self_loop_that_reaches_an_exit():
    # z's 0 self-loop is a cycle of weight >= 0, but z's exit to t needs
    # nothing, so u must be raised to f*(u) = 3; the freeze test held u
    a = Arena(["u", "z", "t"], [0, 0, 0],
              [(0, 1, -3), (0, 2, -10), (1, 1, 0), (1, 2, 5), (2, 2, 0)])
    (raised, f), (old, ref) = jump_from_zero(a, [0, 1])
    assert raised == [0] and f == [3, 0, 0]
    assert f[0] == least_sepm(a).values[0]
    assert old == [] and ref == [0, 0, 0]


def test_jump_reads_top_as_twice_top():
    # b -> c -> b loses 1 a round, so b, c and a, which pays 5 to reach
    # b, are all top; a start at top would leave a at top - 5
    a = Arena(["a", "b", "c"], [0, 0, 0], [(0, 1, 5), (1, 2, -1), (2, 1, 0)])
    (raised, f), (old, ref) = jump_from_zero(a, [0, 1, 2])
    top = arena_cap(a) + 1
    assert raised == old == [0, 1, 2]
    assert f == ref == [top] * 3


def test_jump_holds_an_exitless_zero_cycle():
    # p <-> q of weight 0 has no exit and f* = 0: it falls in every round
    # and is held at f, where an absorbing top would send it to top
    a = Arena(["p", "q"], [0, 0], [(0, 1, 0), (1, 0, 0)])
    (raised, f), (old, ref) = jump_from_zero(a, [0, 1])
    assert raised == old == [] and f == ref == [0, 0]
    assert least_sepm(a).values == (0, 0)


def tie_fuzz_arena(seed, nmax=10, w=1000):
    """A random arena of 0, +-1 and +-W arcs, whose Player-1 ties can
    close a cycle of weight 0."""
    r = random.Random(seed)
    n = r.randint(3, nmax)
    owner = [r.randint(0, 1) for _ in range(n)]
    arcs = {}
    for u in range(n):
        for _ in range(r.randint(1, 3)):
            v, weight = r.randrange(n), r.choice((0, 0, 0, -1, 1, w, -w))
            arcs.setdefault((u, v), weight)
    return Arena(["x%d" % u for u in range(n)], owner,
                 [(u, v, weight) for (u, v), weight in arcs.items()])


def fuzz_lifts(arena, check=False):
    """Lifts of the root and, when the root is finite everywhere, of the
    seeded children that keep one of the first two arcs of each Player-0
    row with more than one; with ``check``, each measure is checked
    against the per-lift reference."""
    counter = [0]
    f = least_sepm(arena, lift_counter=counter)
    if check:
        assert f == per_lift_least_sepm(arena)
    if f.all_finite():
        for u in arena.vertices_of(0):
            if len(arena.out[u]) > 1:
                for v, _ in arena.out[u][:2]:
                    child = arena._keep({u: (v,)})
                    g = least_sepm(child, seed=f, cut=u, lift_counter=counter)
                    if check:
                        assert g == per_lift_least_sepm(child, seed=f, cut=u)
    return counter[0]


def test_a_player1_tie_that_closes_a_zero_two_cycle_does_not_freeze_a_jump():
    # x1 (Player 1) ties between x0 and x2 at every jump, where f reads
    # (a + 1, a, a); keeping x0 closes x0 -> x1 -> x0 of weight 0, which
    # froze the region, and x2's -W self-loop then took 6W + 3 lifts.
    # Turning x1 to x2 breaks the cycle.
    counts = set()
    for w in (10**3, 10**4, 10**5):
        a = Arena(["x0", "x1", "x2"], [0, 1, 0],
                  [(0, 1, -1), (1, 2, 0), (1, 0, 1), (2, 2, -w), (2, 0, 0)])
        counter = [0]
        f = least_sepm(a, lift_counter=counter)
        assert f.values == (f.cap + 1,) * 3
        if w == 10**3:
            assert f == per_lift_least_sepm(a)
        counts.add(counter[0])
    assert len(counts) == 1 and max(counts) <= 16


def test_a_seeded_tie_on_a_zero_two_cycle_does_not_freeze_a_jump():
    # v7 ties between v0 and v4 and kept v0, so v0 <-> v7 of weight 0
    # froze every jump of this seeded child: 19W + 3 lifts
    counts = set()
    for w in (10**3, 10**4, 10**5):
        a = Arena(["v0", "v4", "v7", "v9", "v11"], [1, 1, 1, 1, 0],
                  [(0, 2, 0), (1, 4, 0), (2, 0, 0), (2, 1, -1), (3, 0, w),
                   (4, 2, 0)])
        seed = EnergyFunction((1, 0, 1, 0, 0), arena_cap(a))
        counter = [0]
        f = least_sepm(a, seed=seed, cut=4, lift_counter=counter)
        assert f.values == (f.cap + 1,) * 5
        if w == 10**3:
            assert f == per_lift_least_sepm(a, seed=seed, cut=4)
        counts.add(counter[0])
    assert len(counts) == 1 and max(counts) <= 16


def test_player1_ties_do_not_make_lifts_grow_with_the_weights():
    # tie-fuzz roots and seeded one-row children make as many lifts at
    # W = 10^3 as at 10^4, and the first 500 match the per-lift reference
    # at 10^3.  At the freezing jump 3 of these 2,000 seeds grew 10x.  Seed
    # 43446 at nmax = 20 holds two tied Player-1 vertices on one 0-cycle,
    # x2 <-> x6: turned together, each closes another 0-cycle, so only
    # the first turns.
    for seed, nmax in [(s, 10) for s in range(20000, 22000)] + [(43446, 20)]:
        low = fuzz_lifts(tie_fuzz_arena(seed, nmax, 10**3),
                         check=seed < 20500 or nmax > 10)
        assert low == fuzz_lifts(tie_fuzz_arena(seed, nmax, 10**4)), seed


def test_seeded_probes_start_below_and_end_at_the_cold_measure(monkeypatch):
    # the seeded one-row children, as the lattice makes them, of each
    # game's whole arena reweighted at the first 8 value probes of
    # solve_values, on the 200-arena corpus, on random arenas up to
    # n = 200 at three weight scales and on 600 tie-fuzz roots: the
    # parent's measure lies below the child's, and that is the cold one
    games = [gen_random_arena(6, 3, 4, s) for s in range(200)]
    games += [gen_random_arena(n, 3, w, 1) for n in (20, 50, 100, 200)
              for w in (1, 10, 1000)]
    games += [tie_fuzz_arena(s) for s in range(20000, 20600)]
    probes = []
    monkeypatch.setattr("mpgsolver.values.reweight",
                        lambda a, nu: probes.append(nu) or reweight(a, nu))
    seeded = tops = 0
    for a in games:
        probes.clear()
        solve_values(a)
        for nu in probes[:8]:
            scaled = reweight(a, nu)
            f = least_sepm(scaled)
            for u, child in one_row_children(scaled, f):
                g = least_sepm(child, seed=f, cut=u)
                assert f.pointwise_le(g)
                assert g == least_sepm(child)
                seeded += 1
                tops += not f.all_finite()
    assert seeded > 6000 and tops > 2500


def test_one_pass_jump_covers_the_two_pass_jump(monkeypatch):
    # every jump of the corpus probes, of 300 zero-arc arenas and of 500
    # tie-fuzz arenas, roots and seeded one-row children, raises every
    # vertex the two-pass jump raises, to the same value
    real = energy._jump
    calls = [0]

    def checked(arena, f, top, region):
        ref = list(f)
        old = two_pass_jump(arena, ref, top, region)
        raised = real(arena, f, top, region)
        assert set(old) <= set(raised)
        assert all(f[v] == ref[v] for v in old)
        calls[0] += 1
        return raised

    monkeypatch.setattr(energy, "_jump", checked)
    for seed in range(200):
        solve_values(gen_random_arena(6, 3, 4, seed))
    for seed in range(300):
        a = zero_arc_arena(seed)
        f = least_sepm(a)
        for u, child in one_row_children(a, f):
            least_sepm(child, seed=f, cut=u)
    for seed in range(20000, 20500):
        a = tie_fuzz_arena(seed)
        f = least_sepm(a)
        if f.all_finite():
            for u in a.vertices_of(0):
                if len(a.out[u]) > 1:
                    for v, _ in a.out[u][:2]:
                        least_sepm(a._keep({u: (v,)}), seed=f, cut=u)
    assert calls[0] > 500
