"""Answer checks, by means apart from the solver's fast paths.

Values and optimal strategy sets come from ``mpgsolver.oracle`` (exhaustive
strategy enumeration and Karp's minimum cycle mean); energy levels are
checked against the progress condition with this file's own arithmetic.
Every check raises ``CheckFailed`` with a reason.
"""

from __future__ import annotations

import json
from fractions import Fraction

from mpgsolver import oracle


class CheckFailed(Exception):
    pass


def require(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args)


def oracle_solution(arena):
    """(values, optimal strategies) by exhaustion."""
    vals, opt = oracle.exhaustive_opt(arena, max_strategies=10 ** 5)
    return list(vals.vals), opt


def check_values(arena, vals, oracle_vals):
    """Exact values: the oracle's, denominators <= |V|, |value| <= W."""
    require(len(vals) == arena.n, "%d values for %d vertices",
            len(vals), arena.n)
    for u, v in enumerate(vals):
        name = arena.names[u]
        require(v == oracle_vals[u], "value of %s is %s, the oracle says %s",
                name, v, oracle_vals[u])
        require(v.denominator <= arena.n, "value of %s has denominator %d > "
                "|V|", name, v.denominator)
        require(abs(v) <= arena.W, "value of %s exceeds W", name)


def check_progress_measure(arena, members, nu, measure):
    """The printed least SEPM of one class is finite and progressive.

    The class subgame is induced by ``members`` and reweighted by ``nu``
    (w becomes w*den - num); its cap is (|C|-1) times its largest |weight|.
    """
    local = {u: i for i, u in enumerate(members)}
    out = [[(local[v], w * nu.denominator - nu.numerator)
            for v, w in arena.out[u] if v in local] for u in members]
    cap = (len(members) - 1) * max(abs(w) for row in out for _, w in row)
    require(measure["cap"] == cap, "cap %s, expected %d", measure["cap"], cap)
    require(measure["scale"] == nu.denominator, "scale %s, expected %d",
            measure["scale"], nu.denominator)
    names = [arena.names[u] for u in members]
    require(sorted(measure["values"]) == sorted(names),
            "measure covers %s", sorted(measure["values"]))
    f = [measure["values"][name] for name in names]
    for i, x in enumerate(f):
        require(isinstance(x, int) and 0 <= x <= cap,
                "energy of %s is %r, not finite", names[i], x)
    for i, row in enumerate(out):
        needs = [max(0, f[j] - w) for j, w in row]
        need = min(needs) if arena.owner[members[i]] == 0 else max(needs)
        require(f[i] >= need, "progress fails at %s: %d < %d",
                names[i], f[i], need)


def check_solve_output(arena, text, expected):
    """Checks ``mpg solve --format json`` output against the oracle.

    ``expected`` is ``oracle_solution(arena)``.
    """
    oracle_vals, opt = expected
    doc = json.loads(text)
    index = arena.index
    require(sorted(doc["values"]) == sorted(arena.names),
            "values cover %s", sorted(doc["values"]))
    vals = [None] * arena.n
    for name, v in doc["values"].items():
        vals[index[name]] = Fraction(v["num"], v["den"])
    check_values(arena, vals, oracle_vals)
    covered = []
    for cls in doc["classes"]:
        nu = Fraction(cls["nu"]["num"], cls["nu"]["den"])
        members = sorted(index[name] for name in cls["vertices"])
        require(members == [u for u in range(arena.n) if vals[u] == nu],
                "class %s does not hold exactly the vertices of value %s",
                cls["vertices"], nu)
        check_progress_measure(arena, members, nu, cls["least_sepm"])
        covered += members
    require(sorted(covered) == list(range(arena.n)),
            "classes do not partition the vertices")
    choice = [None] * arena.n
    for src, dst in doc["strategy"].items():
        choice[index[src]] = index[dst]
    require(tuple(choice) in {s.choice for s in opt},
            "printed strategy is not optimal")


def check_enumeration(sub, nu, result, expected, degenerate):
    """Checks one class's lattice and blocks against the oracle.

    ``result`` is (EnergyLattice, SubgameLattice, blocks) and ``expected``
    is ``oracle_solution(sub)``.
    """
    sub_vals, opt = expected
    choices = {s.choice for s in opt}
    require(all(v == nu for v in sub_vals),
            "class subgame is not %s-valued", nu)
    x, b, blocks = result
    emitted = [f.values for f in x]
    require(len(set(emitted)) == len(emitted), "a measure is emitted twice")
    masks = [node.mask.key() for node in b.nodes]
    require(len(set(masks)) == len(masks), "a subgame is emitted twice")
    reference = oracle.reference_energy_lattice(sub, nu, opt)
    require(set(emitted) == {f.values for f in reference},
            "measures differ from the oracle's energy lattice")
    require(len(blocks) == len(x), "%d blocks for %d measures",
            len(blocks), len(x))
    require(all(block.count >= 1 for block in blocks), "an empty block")
    require(sum(block.count for block in blocks) == len(opt),
            "block counts sum to %d, |opt| = %d",
            sum(block.count for block in blocks), len(opt))
    for block in blocks:
        require(len(block.strategies) == min(block.count, 16),
                "block %d lists %d strategies", block.sepm_id,
                len(block.strategies))
        require(all(s.choice in choices for s in block.strategies),
                "block %d lists a strategy that is not optimal",
                block.sepm_id)
    require(len(b) >= len(x), "|B*| < |X*|")
    if degenerate:
        require(len(b) > len(x), "|B*| = |X*| on a degenerate arena")
