"""Shows that the benchmark's checks pass right answers and fail wrong ones.

Usage, from the root of a checkout:  python3 bench/selftest.py

Each case takes a right answer from the package, corrupts it in one way
and expects ``checks.CheckFailed``.  Exits 1 if a right answer fails or a
corrupted one passes.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction

import run  # puts src/ on sys.path
from checks import (CheckFailed, check_enumeration, check_solve_output,
                    oracle_solution)
from families import load_test_arena
from mpgsolver import lattice, oracle, values
from mpgsolver.lattice import DeltaBlock, EnergyLattice, SubgameLattice


def solve_json(arena, name):
    path = run.OUT / ("selftest-%s.mpg" % name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(run.serialize_arena(arena), encoding="utf-8")
    return json.loads(run.solve_op(str(path))())


def shift_value(doc, arena):
    name = arena.names[0]
    v = doc["values"][name]
    shifted = Fraction(v["num"], v["den"]) + Fraction(1, arena.n)
    doc["values"][name] = {"num": shifted.numerator,
                           "den": shifted.denominator}


def other_strategy(doc, arena, opt):
    """Swap in a strategy outside the optimal set."""
    choices = {s.choice for s in opt}
    for s in oracle.all_strategies(arena):
        if s.choice not in choices:
            doc["strategy"] = s.to_json(arena)["choice"]
            return
    raise SystemExit("selftest: every strategy of the arena is optimal")


def lower_energy(doc, arena):
    """Lower one positive entry of a least SEPM: no longer progressive."""
    for cls in doc["classes"]:
        entries = cls["least_sepm"]["values"]
        for name, x in sorted(entries.items()):
            if x != "top" and x > 0:
                entries[name] = x - 1
                return
    raise SystemExit("selftest: no positive energy level to lower")


def top_energy(doc, arena):
    entries = doc["classes"][0]["least_sepm"]["values"]
    entries[sorted(entries)[0]] = "top"


SOLVE_CORRUPTIONS = {
    "value shifted by 1/|V|": lambda doc, arena, opt: shift_value(doc, arena),
    "strategy not optimal": other_strategy,
    "least SEPM entry lowered": lambda doc, arena, opt: lower_energy(doc, arena),
    "least SEPM entry top": lambda doc, arena, opt: top_energy(doc, arena),
}


def enumeration_corruptions(x, b, blocks):
    first = blocks[0]
    bumped = DeltaBlock(first.sepm_id, first.count + 1, first.strategies)
    return {
        "measure dropped": (EnergyLattice(x.sepms[:-1]), b, blocks[:-1]),
        "measure repeated": (EnergyLattice(x.sepms + x.sepms[-1:]), b,
                             blocks + blocks[-1:]),
        "block count off by one": (x, b, [bumped] + blocks[1:]),
        "subgames merged": (x, SubgameLattice(b.nodes[:len(x)]), blocks),
    }


def expect(label, check, *args):
    try:
        check(*args)
    except CheckFailed as exc:
        return "caught %s: %s" % (label, exc)
    return None


def main():
    problems = []
    arena = load_test_arena("random_6_3_4_7")
    expected = oracle_solution(arena)
    right = solve_json(arena, "random_6_3_4_7")
    if expect("", check_solve_output, arena, json.dumps(right), expected):
        problems.append("the right solve answer fails its check")
    for label, corrupt in SOLVE_CORRUPTIONS.items():
        doc = copy.deepcopy(right)
        corrupt(doc, arena, expected[1])
        outcome = expect(label, check_solve_output, arena, json.dumps(doc),
                         expected)
        print(outcome or "MISSED %s" % label)
        problems += [] if outcome else [label]

    gamma_d = load_test_arena("gamma_d")
    (cls,) = values.ergodic_partition(gamma_d, values.solve_values(gamma_d))
    x, b = lattice.enumerate_lattice(cls.subgame, cls.nu)
    blocks = lattice.decompose(cls.subgame, cls.nu, x, max_listed=run.LISTED)
    expected = oracle_solution(cls.subgame)
    if expect("", check_enumeration, cls.subgame, cls.nu, (x, b, blocks),
              expected, True):
        problems.append("the right enumeration fails its check")
    for label, result in enumeration_corruptions(x, b, blocks).items():
        outcome = expect(label, check_enumeration, cls.subgame, cls.nu,
                         result, expected, True)
        print(outcome or "MISSED %s" % label)
        problems += [] if outcome else [label]

    if problems:
        print("selftest FAILED: %s" % "; ".join(problems))
        return 1
    print("selftest passed: every corrupted answer failed its check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
