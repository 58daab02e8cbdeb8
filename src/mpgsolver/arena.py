"""Weighted bipartitioned game arenas and their on-disk text format.

An arena is a finite directed graph with integer arc weights whose vertices
are split between Player 0 (maximizer) and Player 1 (minimizer).  Every
vertex must have at least one outgoing arc, so plays never get stuck.

Text format (UTF-8, one statement per line; a line ends at LF, and one
CR just before it is dropped):

    # comment
    v <id> <0|1>          vertex declaration, owner 0 or 1
    e <src> <dst> <int>   arc declaration

Fields are separated by runs of ASCII spaces or tabs, which may also lead
and trail a line.  Ids match ``[A-Za-z0-9_]+`` and weights ``-?[0-9]+``,
so any other whitespace in a statement is part of a field that fails its
check, and raises an error at that line and column.  Canonical
serialization writes one header comment, all ``v`` lines in declaration
order, then ``e`` lines sorted by (src, dst) declaration index;
parse/serialize round-trips bit-exactly.  Equal arenas also share W, so
the round trip holds for arenas whose W is their own rows' bound: parsed,
constructed, reweighted and value-class arenas, which are all the arenas
that ``mpg verify`` and acceptance criterion 7 round-trip.  A Player-0
restriction keeps its game's W, which its text does not carry.

This module builds every arena.  Input is checked once, where it enters:
``parse_arena`` and ``Arena(...)`` check ids, owners, arcs and dead ends,
``apply_mask`` checks a mask and ``potentials.restrict`` a strategy.
Value-class subgames are built from checked rows by ``Arena._from_rows``,
and ``reweight`` shifts its arena's rows; both take W from their rows.
Every Player-0 restriction (masked subgames, strategy restrictions, the
lattice's children) is cut from its game by ``Arena._keep``, which keeps
the game's W and shares every row the cut leaves alone.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ArenaFormatError, MaskError

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")


class Arena:
    """Immutable game graph.

    Vertices are indexed 0..n-1 in declaration order.  ``out[u]`` holds
    ``(dst, weight)`` pairs sorted by destination index; all iteration in
    the package follows this canonical order, making runs reproducible.

    ``scale`` records the denominator accumulated by reweightings, so that
    energy levels computed on this arena are expressed in scaled units.
    ``W`` is the game's weight bound, which sets its energy cap: the
    largest |weight| of its rows, kept by Player-0 restrictions
    (``_keep``) so that a subgame's measures compare with its game's.

    The constructor checks its input.  Parsed and derived arenas come from
    ``_from_rows``, ``_keep`` or ``reweight``, which trust input already
    checked.
    """

    __slots__ = ("names", "owner", "out", "scale", "index", "ins", "W")

    def __init__(self, names, owners, arcs):
        names = tuple(names)
        owners = tuple(owners)
        if not names:
            raise ArenaFormatError("arena declares no vertices")
        if len(set(names)) != len(names):
            raise ArenaFormatError("duplicate vertex id")
        for name in names:
            if not _ID_RE.match(name):
                raise ArenaFormatError("invalid vertex id %r" % (name,))
        if len(owners) != len(names) or any(o not in (0, 1) for o in owners):
            raise ArenaFormatError("owner must be 0 or 1 for every vertex")
        n = len(names)
        out = [[] for _ in range(n)]
        seen = set()
        for src, dst, w in arcs:
            if not (0 <= src < n and 0 <= dst < n):
                raise ArenaFormatError("arc endpoint out of range")
            if not isinstance(w, int):
                raise ArenaFormatError("arc weight must be an exact integer")
            if (src, dst) in seen:
                raise ArenaFormatError(
                    "duplicate arc %s -> %s" % (names[src], names[dst]))
            seen.add((src, dst))
            out[src].append((dst, w))
        for u in range(n):
            if not out[u]:
                raise ArenaFormatError("vertex %s has no outgoing arc" % names[u])
            out[u].sort()
        self._fill(names, owners, out, 1)

    @classmethod
    def _from_rows(cls, names, owners, out, scale):
        """Unchecked arena; each ``out[u]`` must be a nonempty sequence of
        in-range ``(dst, weight)`` pairs sorted by destination index."""
        arena = cls.__new__(cls)
        arena._fill(names, owners, out, scale)
        return arena

    def _fill(self, names, owners, out, scale):
        self.names = tuple(names)
        self.owner = tuple(owners)
        self.out = tuple(tuple(row) for row in out)
        ins = [[] for _ in self.names]
        for u, row in enumerate(self.out):
            for v, w in row:
                ins[v].append((u, w))
        self.ins = tuple(tuple(row) for row in ins)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.W = max(abs(w) for row in self.out for _, w in row)
        self.scale = scale

    def _keep(self, kept):
        """Unchecked Player-0 restriction: each ``u`` in ``kept`` keeps only
        its arcs to ``kept[u]``, a nonempty subset of u's destinations,
        tested by ``in`` as given.  It shares every other ``out`` row,
        every ``ins`` row the cut leaves alone, ``names``, ``owner``,
        ``index``, ``scale`` and ``W`` with this arena."""
        arena = Arena.__new__(Arena)
        arena.names, arena.owner = self.names, self.owner
        arena.index, arena.scale, arena.W = self.index, self.scale, self.W
        out, ins = list(self.out), list(self.ins)
        for u, dsts in kept.items():
            row = out[u]
            kept_row = tuple([arc for arc in row if arc[0] in dsts])
            if len(kept_row) < len(row):
                out[u] = kept_row
                for v, _ in row:
                    if v not in dsts:
                        ins[v] = tuple([arc for arc in ins[v] if arc[0] != u])
        arena.out, arena.ins = tuple(out), tuple(ins)
        return arena

    @property
    def n(self):
        return len(self.names)

    def arcs(self):
        """All arcs as (src, dst, weight) in canonical order."""
        for u in range(self.n):
            for v, w in self.out[u]:
                yield u, v, w

    def arc_count(self):
        return sum(len(row) for row in self.out)

    def vertices_of(self, player):
        return tuple(u for u in range(self.n) if self.owner[u] == player)

    def __eq__(self, other):
        if not isinstance(other, Arena):
            return NotImplemented
        return (self.names == other.names and self.owner == other.owner
                and self.out == other.out and self.scale == other.scale
                and self.W == other.W)

    def __hash__(self):
        return hash((self.names, self.owner, self.out, self.scale, self.W))

    def __repr__(self):
        return "Arena(|V|=%d, |E|=%d, W=%d, scale=%d)" % (
            self.n, self.arc_count(), self.W, self.scale)


class SubgameMask:
    """Restriction of a Player-0 vertex's outgoing arcs.

    Player-1 arcs are always retained.  ``retained`` maps each Player-0
    vertex index to the sorted tuple of destination indices it keeps.
    """

    __slots__ = ("retained",)

    def __init__(self, retained):
        self.retained = dict(retained)

    @classmethod
    def full(cls, arena):
        return cls({u: tuple(v for v, _ in arena.out[u])
                    for u in range(arena.n) if arena.owner[u] == 0})

    def with_restriction(self, u, dsts):
        """New mask keeping only ``dsts`` at Player-0 vertex ``u``."""
        retained = dict(self.retained)
        retained[u] = tuple(sorted(dsts))
        return SubgameMask(retained)

    def key(self):
        """Canonical hashable form; equal keys mean equal subgames."""
        return tuple(sorted((u, tuple(sorted(set(d))))
                            for u, d in self.retained.items()))

    def __eq__(self, other):
        if not isinstance(other, SubgameMask):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "SubgameMask(%r)" % (self.retained,)


def _column(line, k):
    """1-based column of field k (from 0) of a line; errors only."""
    return [m.start() for m in re.finditer("[^ ]+", line)][k] + 1


def parse_arena(text):
    """Parse the line-based arena format; accepts str or UTF-8 bytes.

    Raises ArenaFormatError with a 1-based line/column for bytes that are
    not UTF-8, syntax problems, unknown endpoints, duplicate arcs and
    dead-end vertices.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the sentinel marks the bad byte's place, even at a line start
            head = (text[:exc.start].decode("utf-8") + "x").split("\n")
            raise ArenaFormatError("invalid UTF-8 byte 0x%02x"
                                   % text[exc.start], len(head),
                                   len(head[-1])) from None
    names, owners, vertex_lines = [], [], []
    index = {}
    rows = []  # per vertex, destination -> weight
    # A tab separates like a space, and a line may end in one CR: neither
    # moves a column, so errors point into the text as given.
    lines = text.replace("\t", " ").replace("\r\n", "\n").split("\n")
    if lines[-1].endswith("\r"):
        lines[-1] = lines[-1][:-1]
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split(" ")
        if "" in fields:  # a run of separators, or one at either end
            fields = [field for field in fields if field]
        if not fields or fields[0][0] == "#":
            continue
        kind = fields[0]
        if kind == "v":
            if len(fields) != 3:
                raise ArenaFormatError("expected 'v <id> <0|1>'", lineno,
                                       _column(raw, 0))
            _, name, owner = fields
            if not _ID_RE.match(name):
                raise ArenaFormatError("invalid id %r" % name, lineno,
                                       _column(raw, 1))
            if name in index:
                raise ArenaFormatError("vertex %r declared twice" % name,
                                       lineno, _column(raw, 1))
            if owner not in ("0", "1"):
                raise ArenaFormatError("owner must be 0 or 1", lineno,
                                       _column(raw, 2))
            index[name] = len(names)
            names.append(name)
            owners.append(int(owner))
            vertex_lines.append((lineno, raw))
            rows.append({})
        elif kind == "e":
            if len(fields) != 4:
                raise ArenaFormatError("expected 'e <src> <dst> <int>'",
                                       lineno, _column(raw, 0))
            _, src, dst, weight = fields
            u, v = index.get(src), index.get(dst)
            if u is None or v is None:
                k = 1 if u is None else 2
                raise ArenaFormatError("unknown vertex %r" % fields[k],
                                       lineno, _column(raw, k))
            if not _INT_RE.match(weight):
                raise ArenaFormatError("weight %r is not an integer" % weight,
                                       lineno, _column(raw, 3))
            row = rows[u]
            if v in row:
                raise ArenaFormatError("duplicate arc %s -> %s" % (src, dst),
                                       lineno, _column(raw, 0))
            row[v] = int(weight)
        else:
            raise ArenaFormatError("unknown statement %r" % kind, lineno,
                                   _column(raw, 0))
    if not names:
        raise ArenaFormatError("arena declares no vertices")
    for name, row, (lineno, raw) in zip(names, rows, vertex_lines):
        if not row:
            raise ArenaFormatError("vertex %r has no outgoing arc" % name,
                                   lineno, _column(raw, 0))
    return Arena._from_rows(names, owners,
                            [sorted(row.items()) for row in rows], 1)


def serialize_arena(arena):
    """Canonical text for an arena; parse(serialize(a)) == a when a's W
    is its own rows' bound (not a restriction that dropped the heaviest
    arc)."""
    lines = ["# mpg arena"]
    for name, owner in zip(arena.names, arena.owner):
        lines.append("v %s %d" % (name, owner))
    for u, v, w in arena.arcs():
        lines.append("e %s %s %d" % (arena.names[u], arena.names[v], w))
    return "\n".join(lines) + "\n"


def reweight(arena, nu):
    """Shift every weight by -nu, scaling to keep weights integral.

    Weight w becomes w*den - num where nu = num/den; the arena's scale is
    multiplied by den so energy levels downstream stay interpretable.
    Python integers are arbitrary precision, so no overflow is possible.
    It shifts the ``out`` and ``ins`` rows, takes W from the shifted
    rows, and shares ``names``, ``owner`` and ``index`` with ``arena``.
    """
    nu = Fraction(nu)
    den, num = nu.denominator, nu.numerator
    shifted = Arena.__new__(Arena)
    shifted.names, shifted.owner = arena.names, arena.owner
    shifted.index, shifted.scale = arena.index, arena.scale * den
    shifted.out = tuple([tuple([(v, w * den - num) for v, w in row])
                         for row in arena.out])
    shifted.ins = tuple([tuple([(u, w * den - num) for u, w in row])
                         for row in arena.ins])
    shifted.W = max(abs(w) for row in shifted.out for _, w in row)
    return shifted


def apply_mask(arena, mask):
    """Subgame with Player-0 out-arcs restricted to the mask's choice.

    Raises MaskError unless the mask keeps, at exactly the Player-0
    vertices, a nonempty set of each one's own destinations.
    """
    if mask.retained.keys() != set(arena.vertices_of(0)):
        raise MaskError("mask must cover exactly the Player-0 vertices")
    for u in arena.vertices_of(0):
        dsts = mask.retained[u]
        if not dsts:
            raise MaskError("mask empties out-arcs of %s" % arena.names[u])
        have = dict(arena.out[u])
        for v in dsts:
            if v not in have:
                raise MaskError("mask keeps missing arc %s -> %s" % (
                    arena.names[u],
                    arena.names[v] if v in range(arena.n) else repr(v)))
    return arena._keep(mask.retained)

