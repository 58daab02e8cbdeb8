"""Input families of the three workloads, made from the workload seed.

Each family is a fixed list of games.  The seed shuffles the vertex
declaration order of every game (names are kept) and the order in which a
pass runs them.  The declaration order sets the worklist order of the
lifting loop, the order of enumeration and the tie-breaks of strategy
synthesis, but not the game, so the work of one pass stays nearly the
same from seed to seed.  Games drawn from the seed would not: the solve
time of gen_random_arena games of one (n, W) varies between generator
seeds with a coefficient of variation of 0.3 to 1.0, far more than the
benchmark's bounds.
"""

from __future__ import annotations

import pathlib
import random

from mpgsolver import Arena, oracle, parse_arena

DATA = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
TEST_ARENAS = ("gamma_d", "gamma_ex", "nonpositional", "random_6_3_4_7")

# gen_random_arena(n, max_out, W, generator seed) for the solve workload:
# n from 10 to 20, W in {1, 3, 10}.  With the four test arenas, an even
# number of operations, so op_p50_s is the mean of two middle operations.
SOLVE_GAMES = (
    (16, 3, 1, 0), (20, 3, 1, 1),
    (10, 3, 3, 0), (13, 3, 3, 0), (16, 3, 3, 0),
    (10, 3, 10, 0),
)

# Low-W games with many basic subgames: |B*| from 50 to 108, at most 432
# strategies each, so that the oracle can check them.  Left out because
# their cost moves with the declaration order: (24, 3, 1, 19) by 40%,
# (18, 4, 1, 25) by 12%.  With gamma_d, an even number of operations.
ENUMERATE_GAMES = ((24, 3, 1, 2), (16, 3, 2, 5), (20, 3, 2, 9))

# The two-vertex family: e a a -1, e b b W, e a b -W, both owned by
# Player 0.  W = 10**6 does not finish within the per-operation limit.
TWO_VERTEX_W = (10 ** 3, 10 ** 4, 10 ** 6)
# tests/data arenas with every weight multiplied by a fixed factor.
# nonpositional is left out: its lift count moves by up to a factor of two
# with the declaration order, and here it would be the median operation.
SCALED_ARENAS = (
    ("gamma_ex", 10), ("gamma_ex", 30),
    ("random_6_3_4_7", 3), ("random_6_3_4_7", 10),
)


class Case:
    """One operation's input: a named arena, shuffled by the seed.

    For ``enumerate``, set-up adds the values and the value classes.
    """

    def __init__(self, name, arena, degenerate=False):
        self.name = name
        self.arena = arena
        self.degenerate = degenerate  # |B*| > |X*| is expected
        self.vals = None
        self.classes = None


def load_test_arena(name):
    return parse_arena((DATA / (name + ".mpg")).read_bytes())


def shuffled(arena, rng):
    """The same game with its vertices declared in a random order."""
    order = list(range(arena.n))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    return Arena([arena.names[u] for u in order],
                 [arena.owner[u] for u in order],
                 [(new[u], new[v], w) for u, v, w in arena.arcs()])


def scaled(arena, factor):
    return Arena(arena.names, arena.owner,
                 [(u, v, w * factor) for u, v, w in arena.arcs()])


def two_vertex(w):
    return Arena(["a", "b"], [0, 0], [(0, 0, -1), (1, 1, w), (0, 1, -w)])


def _generated(spec):
    n, max_out, w, gen_seed = spec
    return "random_%d_%d_%d_%d" % spec, oracle.gen_random_arena(
        n, max_out, w, gen_seed)


def family(workload, seed):
    """The workload's cases for this seed, in the order a pass runs them."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "solve":
        games = [(name, load_test_arena(name)) for name in TEST_ARENAS]
        games += [_generated(spec) for spec in SOLVE_GAMES]
    elif workload == "enumerate":
        games = [_generated(spec) for spec in ENUMERATE_GAMES]
        games.append(("gamma_d", load_test_arena("gamma_d")))
    elif workload == "wide-weights":
        games = [("two_vertex_W%d" % w, two_vertex(w)) for w in TWO_VERTEX_W]
        games += [("%s_x%d" % (name, factor),
                   scaled(load_test_arena(name), factor))
                  for name, factor in SCALED_ARENAS]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    cases = [Case(name, shuffled(arena, rng), degenerate=name == "gamma_d")
             for name, arena in games]
    rng.shuffle(cases)
    return cases
