"""Walk through solving one mean payoff game end to end.

The arena has seven vertices and two simple cycles, both of mean weight
-1, so every vertex has value -1.  Player 0's only genuine decision is at
E.  We compute exact values, reweight by the value, read off the least
energy-progress measure, and synthesize an optimal strategy from its
compatible arcs.  The punchline at the end: an optimal strategy need NOT
be compatible with the least measure, which is what the energy-lattice
enumeration (see enumerate_lattices.py) exists to repair.
"""

from fractions import Fraction

from mpgsolver import (compatible_arcs, ergodic_partition, is_optimal,
                       parse_arena, reweight, solve_values, synthesize_optimal)
from mpgsolver.potentials import PositionalStrategy

ARENA = """
# two cycles of mean -1; E chooses between them
v A 1
v B 0
v C 1
v D 0
v E 0
v F 1
v G 0
e A B 3
e B C 3
e C D -5
e D A -5
e E A 0
e E C 0
e E F 0
e E G 0
e F G -5
e G F 3
"""


def main():
    arena = parse_arena(ARENA)
    print("arena:", arena)

    vals = solve_values(arena)
    print("\nexact values (cycle means both players can secure):")
    for u, name in enumerate(arena.names):
        print("  val(%s) = %s" % (name, vals.vals[u]))

    (cls,) = ergodic_partition(arena, vals)  # one value class: all of it
    nu = cls.nu
    scaled = reweight(arena, nu)
    print("\nreweighting by w - (%s) shifts every weight by +1" % nu)

    f = cls.least_sepm()
    print("least energy-progress measure of the reweighted game:")
    print(" ", " ".join("%s=%d" % (n, v)
                        for n, v in zip(arena.names, f.values)))

    e = arena.index["E"]
    good = [arena.names[v] for _, v in compatible_arcs(scaled, f, e)]
    print("\narcs at E compatible with the least measure:", ", ".join(good))

    strategy = synthesize_optimal(arena, [cls])
    print("synthesized optimal strategy:")
    for u, v in enumerate(strategy.choice):
        if v is not None:
            print("  %s -> %s" % (arena.names[u], arena.names[v]))

    # The converse of the synthesis theorem fails: E -> F is optimal too,
    # although it is not compatible with the least measure.
    idx = arena.index
    sneaky = PositionalStrategy.from_dict(arena, {
        idx["B"]: idx["C"], idx["D"]: idx["A"],
        idx["G"]: idx["F"], idx["E"]: idx["F"]})
    print("\nsigma(E)=F optimal?", is_optimal(arena, vals, sneaky))
    print("sigma(E)=F compatible with the least measure?",
          (e, idx["F"]) in compatible_arcs(scaled, f, e))


if __name__ == "__main__":
    main()
