"""Command-line surface: solve, enum, ttpg, verify.

Exit codes: 0 success, 1 unreadable or malformed arena file, 2 usage
error, 3 verification found a broken identity, 4 internal invariant
failure (a bug, not bad input), 141 stdout closed by its reader, as a
shell reports SIGPIPE (nothing is printed then).
MPG_LOG={quiet,info,debug} tunes logging.  Output is deterministic:
running a command twice on the same input produces byte-identical output.

JSON output is byte for byte what ``json.dumps(doc, indent=2,
sort_keys=True)`` prints for the documents of the library's ``to_json``
methods, but it is laid out straight from the solver's objects: each
value is formatted once and placed by ``_array`` and ``_object`` at its
nesting depth.  Ids match ``[A-Za-z0-9_]+`` by the arena grammar, so
they are quoted without escaping and sort as ``sort_keys`` sorts them.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from fractions import Fraction

from . import lattice as lattice_mod, oracle, ttpg as ttpg_mod
from . import values as values_mod, verify as verify_mod
from .arena import parse_arena, reweight, serialize_arena
from .errors import (ArenaFormatError, InternalError, MpgError,
                     OracleBoundError)

log = logging.getLogger("mpgsolver")


def _frac_text(v):
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    return "%d/%d" % (v.numerator, v.denominator)


def _array(items, depth):
    """JSON array of the formatted ``items``, opened at nesting ``depth``."""
    if not items:
        return "[]"
    sep = "\n" + "  " * (depth + 1)
    return "[" + sep + ("," + sep).join(items) + "\n" + "  " * depth + "]"


def _object(pairs, depth):
    """JSON object of (key, formatted value) ``pairs``, given in sorted key
    order, opened at nesting ``depth``."""
    if not pairs:
        return "{}"
    sep = "\n" + "  " * (depth + 1)
    return ("{" + sep + ("," + sep).join(['"%s": %s' % pair for pair in pairs])
            + "\n" + "  " * depth + "}")


def _array_chunks(items, depth):
    """``_array`` of one or more formatted ``items``, yielded one item at a
    time."""
    sep = "\n" + "  " * (depth + 1)
    lead = "[" + sep
    for item in items:
        yield lead + item
        lead = "," + sep
    yield "\n" + "  " * depth + "]"


def _fraction_json(v, depth):
    return _object([("den", str(v.denominator)), ("num", str(v.numerator))],
                   depth)


def _measure_json(f, names, depth):
    """``EnergyFunction.to_json``: {cap, scale, values}, top as "top"."""
    cap = f.cap
    values = [(name, '"top"' if x > cap else str(x))
              for name, x in sorted(zip(names, f.values))]
    return _object([("cap", str(cap)), ("scale", str(f.scale)),
                    ("values", _object(values, depth + 1))], depth)


def _choice_json(strategy, names, depth):
    """The ``choice`` of ``PositionalStrategy.to_json``."""
    return _object(sorted([(names[u], '"%s"' % names[v])
                           for u, v in enumerate(strategy.choice)
                           if v is not None]), depth)


def _names_json(names, depth):
    return _array(['"%s"' % name for name in names], depth)


def _sepm_text(arena, f):
    return " ".join("%s=%s" % (arena.names[u],
                               "top" if f.is_top(u) else f.values[u])
                    for u in range(arena.n))


def _load(path):
    with open(path, "rb") as handle:
        return parse_arena(handle.read())


def cmd_solve(args):
    arena = _load(args.file)
    log.info("solving %s", arena)
    vals = values_mod.solve_values(arena)
    partition = values_mod.ergodic_partition(arena, vals)
    log.info("%d value class(es): %s", len(partition),
             ", ".join(_frac_text(c.nu) for c in partition))
    strategy = values_mod.synthesize_optimal(arena, partition)
    if not values_mod.certify_optimal(arena, vals, partition, strategy):
        raise InternalError("synthesized strategy failed its certificate")
    if args.format == "json":
        names = arena.names
        classes = [_object([
            ("least_sepm", _measure_json(cls.least_sepm(), cls.subgame.names,
                                         3)),
            ("nu", _fraction_json(cls.nu, 3)),
            ("vertices", _names_json([names[u] for u in cls.vertices], 3)),
        ], 2) for cls in partition]
        print(_object([
            ("classes", _array(classes, 1)),
            ("strategy", _choice_json(strategy, names, 1)),
            ("values", _object([(name, _fraction_json(v, 2)) for name, v
                                in sorted(zip(names, vals.vals))], 1)),
        ], 0))
    else:
        print("values:")
        for u in range(arena.n):
            print("  %s = %s" % (arena.names[u], _frac_text(vals.vals[u])))
        for i, cls in enumerate(partition):
            f = cls.least_sepm()
            print("class %d: nu = %s, vertices %s" % (
                i, _frac_text(cls.nu),
                ",".join(arena.names[u] for u in cls.vertices)))
            print("  least-sepm (scale %d): %s"
                  % (f.scale, _sepm_text(cls.subgame, f)))
        print("strategy:")
        for u, v in enumerate(strategy.choice):
            if v is not None:
                print("  %s -> %s" % (arena.names[u], arena.names[v]))
    return 0


def _enum_class(cls, index, list_cap, fmt):
    sub, nu = cls.subgame, cls.nu
    if fmt == "text":
        print("class %d: nu = %s" % (index, _frac_text(nu)))

        def on_sepm(sepm_id, f):
            print("  sepm %d: %s" % (sepm_id, _sepm_text(sub, f)))

        def on_subgame(node):
            removed = node.removed_arcs(sub)
            label = "root" if not removed else "removed " + ",".join(
                "%s->%s" % (sub.names[u], sub.names[v]) for u, v in removed)
            print("  subgame %d: %s (sepm %d)"
                  % (node.id, label, node.sepm_id))
    else:
        on_sepm = on_subgame = None
    x, b = lattice_mod.enumerate_lattice(sub, nu, on_sepm=on_sepm,
                                         on_subgame=on_subgame)
    log.info("class %d: %d measure(s), %d basic subgame(s)",
             index, len(x), len(b))
    blocks = lattice_mod.decompose(sub, nu, x, max_listed=list_cap)
    total = sum(block.count for block in blocks)
    degenerate = len(b) > len(x)
    if fmt == "text":
        for block in blocks:
            print("  delta %d: count %d%s" % (
                block.sepm_id, block.count,
                " (listing %d)" % len(block.strategies)
                if block.truncated else ""))
            for s in block.strategies:
                pairs = ["%s->%s" % (sub.names[u], sub.names[v])
                         for u, v in enumerate(s.choice) if v is not None]
                print("    strategy %s" % " ".join(pairs))
        if degenerate:
            print("  degenerate: |B*| > |X*|")
        print("  summary: %d sepms, %d subgames, %d optimal strategies"
              % (len(x), len(b), total))
        return None
    return _enum_class_json(sub, nu, x, b, blocks, degenerate)


def _enum_class_json(sub, nu, x, b, blocks, degenerate):
    """One class object of ``mpg enum --format json``, at nesting depth 2,
    yielded piece by piece: each basic subgame, block and measure is
    formatted only when it is written."""
    names = sub.names
    arc_json = {(u, v): _names_json((names[u], names[v]), 6)
                for u, row in enumerate(sub.out) for v, _ in row}
    yield '{\n      "basic_subgames": '
    yield from _array_chunks((_object([
        ("id", str(node.id)),
        ("least_sepm_id", str(node.sepm_id)),
        ("parent_ids", _array(list(map(str, node.parent_ids)), 5)),
        ("removed_arcs", _array(list(map(arc_json.__getitem__,
                                         node.removed_arcs(sub))), 5)),
    ], 4) for node in b.nodes), 3)
    yield ',\n      "decomposition": '
    yield from _array_chunks((_object([
        ("count", str(block.count)),
        ("sepm_id", str(block.sepm_id)),
        ("strategies", _array([_choice_json(s, names, 6)
                               for s in block.strategies], 5)),
    ], 4) for block in blocks), 3)
    yield ',\n      "degenerate": %s' % ("true" if degenerate else "false")
    yield ',\n      "extremal_sepms": '
    yield from _array_chunks((_measure_json(f, names, 4) for f in x), 3)
    yield ',\n      "nu": ' + _fraction_json(nu, 3)
    yield ',\n      "vertices": ' + _names_json(names, 3)
    yield "\n    }"


def cmd_enum(args):
    arena = _load(args.file)
    vals = values_mod.solve_values(arena)
    partition = values_mod.ergodic_partition(arena, vals)
    if args.format == "json":
        # Each class is written once it is enumerated and decomposed, one
        # piece at a time; no whole document is held.
        out = sys.stdout
        lead = '{\n  "classes": [\n    '
        for i, cls in enumerate(partition):
            chunks = _enum_class(cls, i, args.list_strategies, "json")
            out.write(lead)
            out.writelines(chunks)
            lead = ",\n    "
        out.write("\n  ]\n}\n")
    else:
        for i, cls in enumerate(partition):
            _enum_class(cls, i, args.list_strategies, "text")
    return 0


def cmd_ttpg(args):
    if args.fixpoint and args.variant != "min":
        print("error: --fixpoint is only valid with --variant min",
              file=sys.stderr)
        return 2
    arena = _load(args.file)
    if args.reweight:
        vals = values_mod.solve_values(arena)
        if len(set(vals.vals)) != 1:
            print("error: --reweight needs a single-valued arena",
                  file=sys.stderr)
            return 2
        arena = reweight(arena, vals.vals[0])
    if args.fixpoint:
        # min_ttpg_fixpoint raises InternalError unless the rows reach -f*.
        f, k_reached, _ = ttpg_mod.min_ttpg_fixpoint(arena)
        if args.format == "json":
            print(_object([
                ("agrees_with_least_sepm", "true"),
                ("energy", _measure_json(f, arena.names, 1)),
                ("k_reached", str(k_reached)),
            ], 0))
        else:
            print("fixpoint at k = %d" % k_reached)
            print("agrees with least-sepm: yes")
            print("energy (scale %d): %s" % (f.scale, _sepm_text(arena, f)))
        return 0
    table = (ttpg_mod.plain_ttpg if args.variant == "plain"
             else ttpg_mod.min_ttpg)(arena, args.k)
    if args.format == "json":
        print(_object([
            ("kind", '"%s"' % table.kind),
            ("rows", _array([_array([str(x) for x in row], 2)
                             for row in table.rows], 1)),
            ("vertices", _names_json(arena.names, 1)),
        ], 0))
    else:
        sys.stdout.write(table.to_tsv(arena))
    return 0


def cmd_verify(args):
    if not args.file and not args.random:
        print("error: give an arena file or --random", file=sys.stderr)
        return 2
    jobs = [(args.file, _load(args.file))] if args.file else []
    if args.random:
        n, max_out, w_max, seed, count = args.random
        if n < 1 or max_out < 1 or w_max < 0 or count < 0:
            print("error: --random needs N >= 1, MAX_OUT >= 1, W_MAX >= 0 "
                  "and COUNT >= 0", file=sys.stderr)
            return 2
        jobs += [("random-%d" % (seed + i),
                  oracle.gen_random_arena(n, max_out, w_max, seed + i))
                 for i in range(count)]
    failed = 0
    skipped = 0
    for tag, arena in jobs:
        try:
            report = verify_mod.verify_arena(arena, args.max_strategies)
        except OracleBoundError as exc:
            skipped += 1
            print("SKIP %s: %s" % (tag, exc))
            continue
        note = " (degenerate)" if report.degenerate else ""
        if report.ok:
            print("PASS %s: %d classes, %d sepms, %d subgames, %d optimal%s"
                  % (tag, report.classes, report.sepms, report.subgames,
                     report.optimal, note))
            continue
        failed += 1
        repro = "mpg_failure_%s.mpg" % tag.replace("/", "_").replace(".", "_")
        with open(repro, "w", encoding="utf-8") as handle:
            handle.write(serialize_arena(arena))
        print("FAIL %s: reproducer written to %s" % (tag, repro))
        for failure in report.failures:
            print("  %s" % failure)
    tail = ", %d skipped (oracle bound)" % skipped if skipped else ""
    print("verified %d arena(s), %d failure(s)%s"
          % (len(jobs) - skipped, failed, tail))
    return 3 if failed else 0


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="mpg",
        description="Mean payoff game solver: values, optimal strategies, "
                    "energy-lattice enumeration, truncated total payoffs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="values and one optimal strategy")
    p_solve.add_argument("file")
    p_solve.add_argument("--format", choices=("text", "json"), default="text")
    p_solve.set_defaults(func=cmd_solve)

    p_enum = sub.add_parser("enum", help="enumerate extremal progress "
                                         "measures and basic subgames")
    p_enum.add_argument("file")
    p_enum.add_argument("--list-strategies", type=_nonnegative_int,
                        default=16, metavar="N",
                        help="strategies listed per block (counts stay exact)")
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.set_defaults(func=cmd_enum)

    p_ttpg = sub.add_parser("ttpg", help="truncated total-payoff tables")
    p_ttpg.add_argument("file")
    p_ttpg.add_argument("--k", type=_nonnegative_int, default=10)
    p_ttpg.add_argument("--variant", choices=("plain", "min"),
                        default="plain")
    p_ttpg.add_argument("--fixpoint", action="store_true",
                        help="iterate the min variant to its fixpoint")
    p_ttpg.add_argument("--reweight", action="store_true",
                        help="reweight by the game value first "
                             "(single-valued arenas)")
    p_ttpg.add_argument("--format", choices=("text", "json"), default="text")
    p_ttpg.set_defaults(func=cmd_ttpg)

    p_verify = sub.add_parser("verify", help="differential battery against "
                                             "the brute-force oracle")
    p_verify.add_argument("file", nargs="?")
    p_verify.add_argument("--random", nargs=5, type=int,
                          metavar=("N", "MAX_OUT", "W_MAX", "SEED", "COUNT"))
    p_verify.add_argument("--max-strategies", type=_nonnegative_int,
                          default=10 ** 6)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    levels = {"quiet": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(os.environ.get("MPG_LOG", "quiet"), logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Keep the flush at interpreter exit from failing a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (OSError, ArenaFormatError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    except MpgError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
