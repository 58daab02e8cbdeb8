"""Enumerate the energy lattice and watch a degenerate game in action.

Every optimal positional strategy of a nu-valued game induces a least
feasible potential on the reweighted arena; collecting the distinct ones
yields the energy lattice, and the optimal strategies split into one
disjoint block per lattice element.  The enumeration below produces the
lattice without touching the strategy space: it recursively restricts one
Player-0 vertex at a time to its incompatible arcs, visiting each
subgame once.

The second arena is degenerate: the recursion visits MORE basic subgames
than there are lattice elements, i.e. distinct subgames can share their
least measure.
"""

from fractions import Fraction

from mpgsolver import decompose, enumerate_lattice, parse_arena, solve_values

SIMPLE = """
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

DEGENERATE = """
# all values are 0; u3, v3 and t carry the real decisions
v u1 0
v u2 1
v u3 0
v v1 0
v v2 1
v v3 0
v t 0
v u4 0
v u5 1
v v4 0
v v5 1
e u1 u2 0
e u2 u1 0
e u3 u1 -2
e u3 t -1
e v1 v2 0
e v2 v1 0
e v3 v1 -2
e v3 t -1
e t u4 -10
e t v4 0
e u4 u5 0
e u5 u4 0
e v4 v5 0
e v5 v4 0
"""


def show(label, text):
    arena = parse_arena(text)
    nu = solve_values(arena).vals[0]
    print("=" * 60)
    print("%s  (every vertex has value %s)" % (label, nu))

    def on_sepm(sepm_id, f):
        cells = " ".join("%s=%d" % (n, v)
                         for n, v in zip(arena.names, f.values) if v)
        print("  measure %d: %s" % (sepm_id, cells or "all zero"))

    def on_subgame(node):
        removed = node.removed_arcs(arena)
        what = ", ".join("%s->%s" % (arena.names[u], arena.names[v])
                         for u, v in removed) or "root"
        print("  subgame %d (measure %d): %s"
              % (node.id, node.sepm_id, what))

    x, b = enumerate_lattice(arena, nu, on_sepm=on_sepm,
                             on_subgame=on_subgame)
    print("lattice size %d, basic subgames %d%s"
          % (len(x), len(b),
             "  <-- degenerate" if len(b) > len(x) else ""))

    blocks = decompose(arena, nu, x, max_listed=4)
    total = sum(bl.count for bl in blocks)
    print("optimal strategies: %d, split as %s"
          % (total, "/".join(str(bl.count) for bl in blocks)))


def main():
    show("seven-vertex example", SIMPLE)
    show("degenerate example", DEGENERATE)


if __name__ == "__main__":
    main()
