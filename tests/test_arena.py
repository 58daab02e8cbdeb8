import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from mpgsolver import (Arena, ArenaFormatError, MaskError, SubgameMask,
                       apply_mask, decompose, enumerate_lattice,
                       ergodic_partition, least_sepm, parse_arena, restrict,
                       reweight, serialize_arena, solve_values)
from mpgsolver import values as values_mod
from mpgsolver.oracle import all_strategies, gen_random_arena


def test_parse_gamma_ex(gamma_ex):
    assert gamma_ex.n == 7
    assert gamma_ex.arc_count() == 10
    assert gamma_ex.W == 5
    assert gamma_ex.names == ("A", "B", "C", "D", "E", "F", "G")
    assert gamma_ex.owner == (1, 0, 1, 0, 0, 1, 0)


def test_parse_single_self_loop():
    a = parse_arena("v x 0\ne x x 0\n")
    assert a.n == 1
    assert a.W == 0
    assert a.out[0] == ((0, 0),)


def test_parse_dead_end_rejected():
    text = "v a 0\nv b 1\ne a b 1\n"
    with pytest.raises(ArenaFormatError) as err:
        parse_arena(text)
    assert "b" in str(err.value)
    assert err.value.line == 2


@pytest.mark.parametrize("text,fragment", [
    ("v a 0\ne a a 1\ne a a 2\n", "duplicate arc"),
    ("v a 0\ne a zz 1\n", "unknown vertex"),
    ("v a 2\ne a a 1\n", "owner"),
    ("v a 0\ne a a x\n", "integer"),
    ("v a 0\ne a a 1_0\n", "integer"),
    ("v a 0\ne a a +3\n", "integer"),
    ("v a 0\ne a a \u0661\u0662\n", "integer"),
    ("v a-b 0\n", "invalid id"),
    ("w a 0\n", "unknown statement"),
    ("v a 0\nv a 0\ne a a 1\n", "declared twice"),
    ("# only a comment\n", "no vertices"),
    (b"v a 0\ne a a 1\n\xff\n", "invalid UTF-8 byte 0xff"),
    # only LF ends a line: a comment runs on past U+2028, and a form
    # feed does not start a new statement
    ("v a 0\n# note\u2028e a a 5\n", "no outgoing arc"),
    ("v a 0\x0ce a a 7\n", "expected 'v <id> <0|1>'"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ArenaFormatError) as err:
        parse_arena(text)
    assert fragment in str(err.value)


def test_parse_sorts_rows_whatever_the_arc_order(gamma_ex):
    lines = serialize_arena(gamma_ex).splitlines()
    arcs = [line for line in lines if line.startswith("e ")]
    text = "\n".join([line for line in lines if line not in arcs]
                     + arcs[::-1])
    assert parse_arena(text) == gamma_ex


def test_parse_error_reports_position():
    with pytest.raises(ArenaFormatError) as err:
        parse_arena("v a 0\ne a a oops\n")
    assert err.value.line == 2
    assert err.value.column == 7


@pytest.mark.parametrize("text,line,column", [
    ("v v 0\nv v 0\n", 2, 3),            # the id, not the statement
    ("v a 0\ne e a 5\n", 2, 3),          # unknown source named "e"
    ("v a 0\ne a e 5\n", 2, 5),          # unknown destination named "e"
    ("v 2 2\n", 1, 5),                    # the owner, not the id
    ("v 0-1 0\n", 1, 3),
    ("v a 0\ne a a a\n", 2, 7),
    ("\tv  a 0\ne\ta  b 5 \n", 2, 6),   # after runs of separators
    ("  w a 0\n", 1, 3),                  # a statement's own faults
    ("v a 0\n v a\n", 2, 2),
    ("v a 0\ne a a 1\n\te a a 2\n", 3, 2),
    ("  v a 0\n", 1, 3),                 # a dead end: its declaration
    ("v a 0\n\tv b 1\ne a a 1\n", 2, 2),
])
def test_parse_error_column_is_its_field(text, line, column):
    with pytest.raises(ArenaFormatError) as err:
        parse_arena(text)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("data,line,column", [
    (b"v a 0\ne a a 1\n\xff\n", 3, 1),
    (b"\xfe", 1, 1),
    (b"v a 0\ne a a 1 # \xc3\xa9\xff\n", 2, 12),  # column counts characters
    (b"v a 0\ne a a 1\r\n\x80\n", 3, 1),
    (b"v a 0\n# \xe2\x80\xa8 note\n\xff\n", 3, 1),  # U+2028 ends no line
    (b"v a 0 \xc2\x85\xff\n", 1, 8),                 # nor does U+0085
])
def test_parse_rejects_non_utf8_at_first_bad_byte(data, line, column):
    with pytest.raises(ArenaFormatError) as err:
        parse_arena(data)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_breaks_lines_at_lf_only():
    a = parse_arena("v a 0\r\n# note\u2028e a a 5\r\ne a a 1\r\n")
    assert a.out == (((0, 1),),)


def test_parse_separates_fields_by_spaces_and_tabs():
    plain = parse_arena("v a 0\ne a a 5\n")
    for text in ["\tv\ta  0 \t\r\n  # note\u3000x\r\n e a a 5 \r\n",
                 "v a 0\r\ne a a 5\r"]:
        assert parse_arena(text) == plain


@pytest.mark.parametrize("text,line,column", [
    ("v\u3000a 0\ne a a 5\n", 1, 1),      # ideographic space
    ("v a\xa0 0\ne a a 5\n", 1, 3),        # no-break space
    ("v a 0\ne a a\x0c5\x85\n", 2, 1),     # form feed, next line
    ("v a 0\ne a a 5\x85\n", 2, 7),
    ("v a 0\ne a a 5\x0b\n", 2, 7),        # vertical tab
    ("v a 0\ne a\x1c a 5\n", 2, 3),        # file separator
    ("v a 0\ne a a\x1f5\n", 2, 1),         # unit separator
    ("v a 0\n\x0c\ne a a 5\n", 2, 1),      # a form feed is no blank line
    ("v a 0\r\r\ne a a 5\n", 1, 5),        # one CR ends a line, not two
    ("v a 0\ne a a 5\u2028\n", 2, 7),
])
def test_parse_rejects_other_whitespace(text, line, column):
    with pytest.raises(ArenaFormatError) as err:
        parse_arena(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_accepts_bytes_and_comments(gamma_ex):
    text = "# heading\n\n" + serialize_arena(gamma_ex)
    assert parse_arena(text.encode("utf-8")) == gamma_ex


def test_reweight_gamma_ex_matches_displayed_weights(gamma_ex):
    scaled = reweight(gamma_ex, Fraction(-1))
    by_pair = {(scaled.names[u], scaled.names[v]): w
               for u, v, w in scaled.arcs()}
    assert by_pair[("A", "B")] == 4
    assert by_pair[("B", "C")] == 4
    assert by_pair[("C", "D")] == -4
    assert by_pair[("D", "A")] == -4
    assert by_pair[("F", "G")] == -4
    assert by_pair[("G", "F")] == 4
    assert all(by_pair[("E", x)] == 1 for x in "ACFG")
    assert scaled.scale == 1


def test_reweight_zero_is_identity(gamma_ex):
    assert reweight(gamma_ex, Fraction(0)) == gamma_ex


def test_reweight_scales_by_denominator():
    a = Arena(["x"], [0], [(0, 0, 3)])
    scaled = reweight(a, Fraction(1, 2))
    assert scaled.out[0] == ((0, 5),)
    assert scaled.scale == 2


def test_reweight_composes_scales():
    a = Arena(["x"], [0], [(0, 0, 3)])
    twice = reweight(reweight(a, Fraction(1, 2)), Fraction(1, 3))
    assert twice.scale == 6


def test_apply_mask_gamma_d_drops_one_arc(gamma_d):
    t = gamma_d.index["t"]
    v4 = gamma_d.index["v4"]
    u4 = gamma_d.index["u4"]
    mask = SubgameMask.full(gamma_d).with_restriction(t, [u4])
    sub = gamma_d  # noqa: F841  (readability)
    restricted = apply_mask(gamma_d, mask)
    assert restricted.arc_count() == 13
    assert restricted.out[t] == ((u4, -10),)
    assert gamma_d.out[t] == ((u4, -10), (v4, 0))
    assert restricted.names == gamma_d.names


def test_apply_full_mask_is_identity(gamma_d):
    assert apply_mask(gamma_d, SubgameMask.full(gamma_d)) == gamma_d


COVER = "mask must cover exactly the Player-0 vertices"


# Each mask has one defect against the full mask of gamma_d: the changed
# Player-0 vertex keeps the given destinations, or None drops it.  Names
# are gamma_d's vertices; integers are raw indices.
@pytest.mark.parametrize("changes,message", [
    ({"t": None}, COVER),
    ({"u2": ("u1",)}, COVER),
    ({99: ("u4",)}, COVER),
    ({-1: ("u4",)}, COVER),
    ({"t": ()}, "mask empties out-arcs of t"),
    ({"t": ("u4", "u1")}, "mask keeps missing arc t -> u1"),
    ({"t": ("u1",)}, "mask keeps missing arc t -> u1"),
    ({"t": ("u4", 99)}, "mask keeps missing arc t -> 99"),
    ({"t": (-1,)}, "mask keeps missing arc t -> -1"),
], ids=["missing-player-0", "player-1-key", "key-99", "key-minus-1",
        "empties", "foreign-arc", "foreign-arc-only", "destination-99",
        "destination-minus-1"])
def test_apply_mask_rejects_malformed_mask(gamma_d, changes, message):
    retained = SubgameMask.full(gamma_d).retained
    for u, dsts in changes.items():
        u = gamma_d.index.get(u, u)
        if dsts is None:
            del retained[u]
        else:
            retained[u] = tuple(gamma_d.index.get(v, v) for v in dsts)
    with pytest.raises(MaskError) as err:
        apply_mask(gamma_d, SubgameMask(retained))
    assert str(err.value) == message


def test_apply_mask_ignores_repeated_destinations(gamma_d):
    t, u4, v4 = (gamma_d.index[name] for name in ("t", "u4", "v4"))
    full = SubgameMask.full(gamma_d)
    assert (apply_mask(gamma_d, full.with_restriction(t, [u4, u4]))
            == apply_mask(gamma_d, full.with_restriction(t, [u4])))
    assert (apply_mask(gamma_d, full.with_restriction(t, [v4, u4, v4]))
            == gamma_d)
    # equal subgames, equal masks: equality and hash ignore repeats
    for repeated, plain in [(full.with_restriction(t, [u4, u4]),
                             full.with_restriction(t, [u4])),
                            (full.with_restriction(t, [v4, u4, v4]), full)]:
        assert repeated == plain
        assert hash(repeated) == hash(plain)
        assert repeated.key() == plain.key()


def test_mask_monotone_means_arc_subset(gamma_d):
    t = gamma_d.index["t"]
    smaller = SubgameMask.full(gamma_d).with_restriction(
        t, [gamma_d.index["u4"]])
    sub = apply_mask(gamma_d, smaller)
    parent_arcs = set(gamma_d.arcs())
    assert set(sub.arcs()) < parent_arcs


def test_serialize_round_trip_gamma_ex(gamma_ex, data_dir):
    source = (data_dir / "gamma_ex.mpg").read_text()
    once = parse_arena(source)
    again = parse_arena(serialize_arena(once))
    assert once == again
    # canonical text is a fixpoint of serialize(parse(.))
    assert serialize_arena(again) == serialize_arena(once)


def test_equality_and_hash_count_the_cap():
    # cutting a's -9 arc keeps the game's W = 9, which the text of the
    # restriction does not carry: parsed back, its rows bound W at 1
    a = parse_arena("v a 0\nv b 1\ne a a -1\ne a b -9\ne b a 0\n")
    s = apply_mask(a, SubgameMask({0: (0,)}))
    again = parse_arena(serialize_arena(s))
    assert (s.W, again.W) == (9, 1)
    assert s.out == again.out
    assert least_sepm(s) != least_sepm(again)
    assert s != again
    assert hash(s) != hash(again)


def test_serialize_single_loop_shape():
    text = serialize_arena(Arena(["x"], [0], [(0, 0, 0)]))
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "v x 0"
    assert lines[2] == "e x x 0"
    assert len(lines) == 3


def test_serialize_gamma_d_counts(gamma_d):
    again = parse_arena(serialize_arena(gamma_d))
    assert again.n == 11
    assert again.arc_count() == 14


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_random_arenas(seed):
    a = gen_random_arena(6, 3, 6, seed)
    assert parse_arena(serialize_arena(a)) == a


def assert_same_slots(arena, checked):
    for slot in ("names", "owner", "out", "ins", "index", "W", "scale"):
        assert getattr(arena, slot) == getattr(checked, slot), slot


def assert_same_as_checked(derived, restricted=None):
    """A derived arena equals the one the checking constructor builds from
    its arcs, except that a restriction keeps the W of the arena it
    restricts (the scale is carried, not built)."""
    checked = Arena(derived.names, derived.owner, list(derived.arcs()))
    for slot in ("names", "owner", "out", "ins", "index"):
        assert getattr(derived, slot) == getattr(checked, slot), slot
    assert derived.W == (checked if restricted is None else restricted).W


def assert_shares_untouched(restricted, arena):
    """A Player-0 restriction shares ``index``, every ``out`` row it keeps
    whole and every ``ins`` row that loses no arc with its arena."""
    assert restricted.index is arena.index
    for u in range(arena.n):
        if restricted.out[u] == arena.out[u]:
            assert restricted.out[u] is arena.out[u], u
        if restricted.ins[u] == arena.ins[u]:
            assert restricted.ins[u] is arena.ins[u], u


def test_keep_matches_checked_construction():
    # The lattice's children cut one Player-0 row of a subgame, itself cut
    # before; masks and strategies cut several at once.  Each cut is the
    # checked arena with the game's W, and shares every row it leaves
    # alone.
    cuts = 0
    for seed in range(8):
        a = reweight(gen_random_arena(6, 3, 4, seed), Fraction(1, 3))
        p0 = a.vertices_of(0)
        firsts = a._keep({u: {a.out[u][0][0]} for u in p0})
        assert_same_as_checked(firsts, a)
        assert_shares_untouched(firsts, a)
        for parent in [a] + [a._keep({u: [a.out[u][0][0]]}) for u in p0]:
            for u in parent.vertices_of(0):
                dsts = [v for v, _ in parent.out[u]]
                for size in range(1, len(dsts)):
                    for kept in itertools.combinations(dsts, size):
                        child = parent._keep({u: kept})
                        assert_same_as_checked(child, a)
                        assert [v for v, _ in child.out[u]] == list(kept)
                        for v in range(a.n):
                            assert v == u or child.out[v] is parent.out[v]
                            cut = v in dsts and v not in kept
                            assert cut or child.ins[v] is parent.ins[v]
                        assert child.index is parent.index
                        cuts += 1
    assert cuts > 100


def test_masks_and_strategies_share_untouched_rows(gamma_d):
    # apply_mask and restrict cut rows as the lattice's children do: the
    # full mask and every strategy share the rows they leave alone.
    arenas = [gamma_d] + [gen_random_arena(8, 3, 4, seed)
                          for seed in range(10)]
    for a in arenas:
        full = apply_mask(a, SubgameMask.full(a))
        assert full == a
        assert_shares_untouched(full, a)
        strategies = all_strategies(a)
        for strategy in itertools.islice(strategies, 0, None, 7):
            assert_shares_untouched(restrict(a, strategy), a)


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent / "data").glob("*.mpg")),
    ids=lambda path: path.name)
def test_parsed_files_match_checked_construction(path):
    """The parser builds the arena that ``Arena(names, owners, arcs)``
    builds from the file's statements, read here by plain splitting."""
    text = path.read_text(encoding="utf-8")
    names, owners, arcs = [], [], []
    for fields in map(str.split, text.splitlines()):
        if fields[:1] == ["v"]:
            names.append(fields[1])
            owners.append(int(fields[2]))
        elif fields[:1] == ["e"]:
            arcs.append((names.index(fields[1]), names.index(fields[2]),
                         int(fields[3])))
    assert_same_slots(parse_arena(text), Arena(names, owners, arcs))


def test_reweight_matches_a_rebuild_on_every_probe(monkeypatch):
    # reweight shifts its arena's rows: on every probe and class measure
    # of the 200-arena corpus it builds what _from_rows rebuilds from the
    # shifted out rows, ins and index included, which == does not compare
    probes = []

    def spy(arena, nu):
        shifted = reweight(arena, nu)
        probes.append((arena, Fraction(nu), shifted))
        return shifted
    monkeypatch.setattr(values_mod, "reweight", spy)
    for seed in range(200):
        a = gen_random_arena(6, 3, 4, seed)
        for cls in ergodic_partition(a, solve_values(a)):
            cls.least_sepm()
    assert len(probes) > 400
    for arena, nu, shifted in probes:
        den, num = nu.denominator, nu.numerator
        rebuilt = Arena._from_rows(
            arena.names, arena.owner,
            [[(v, w * den - num) for v, w in row] for row in arena.out],
            arena.scale * den)
        assert_same_slots(shifted, rebuilt)
        assert shifted.index is arena.index


@pytest.mark.parametrize("n,seed", [(5, s) for s in range(8)]
                         + [(8, s) for s in range(4)])
def test_derived_arenas_match_checked_construction(n, seed):
    a = gen_random_arena(n, 3, 4, seed)
    for nu in (Fraction(0), Fraction(1, 3), Fraction(-5, 2)):
        assert_same_as_checked(reweight(a, nu))
    for cls in ergodic_partition(a, solve_values(a)):
        sub, nu = cls.subgame, cls.nu
        assert_same_as_checked(sub)
        scaled = reweight(sub, nu)
        assert_same_as_checked(scaled)
        x, b = enumerate_lattice(sub, nu)
        for node in b.nodes:
            assert_same_as_checked(apply_mask(scaled, node.mask), scaled)
        for block in decompose(sub, nu, x):
            for strategy in block.strategies:
                assert_same_as_checked(restrict(scaled, strategy), scaled)
