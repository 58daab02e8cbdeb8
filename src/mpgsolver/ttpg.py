"""Truncated total-payoff tables and their convergence to energy levels.

In the k-step truncated game the players build a path of length exactly k
and the outcome is its total weight; values obey the backward recursion
with base row zero.  In the *min* variant Player 1 may additionally shrink
the remaining horizon at any moment, which caps every value at zero and
makes columns non-increasing in k.  On Player 0's energy-game winning
region the min-variant values converge, within an explicit horizon k',
to the negated least progress measure; on the losing region they diverge
to minus infinity at rate at least 1/|W1| per step.
"""

from __future__ import annotations

from . import energy
from .errors import InternalError


class TruncatedValueTable:
    """Rows nu_0 .. nu_k of a (plain or min-variant) truncated game."""

    __slots__ = ("kind", "rows")

    def __init__(self, kind, rows):
        if kind not in ("plain", "min"):
            raise ValueError("kind must be 'plain' or 'min'")
        self.kind = kind
        self.rows = [tuple(row) for row in rows]

    def to_json(self, arena):
        return {
            "kind": self.kind,
            "vertices": list(arena.names),
            "rows": [list(row) for row in self.rows],
        }

    def to_tsv(self, arena):
        lines = ["k\t" + "\t".join(arena.names)]
        for k, row in enumerate(self.rows):
            lines.append("%d\t%s" % (k, "\t".join(str(x) for x in row)))
        return "\n".join(lines) + "\n"


def _moves(arena, prev):
    """One step: each vertex's owner picks the best total w + prev[v]."""
    row = []
    for u in range(arena.n):
        totals = [w + prev[v] for v, w in arena.out[u]]
        row.append(max(totals) if arena.owner[u] == 0 else min(totals))
    return row


def _min_step(arena, prev):
    """One min-variant step: Player 1 may stop with prev[u] instead."""
    return [min(stay, move) for stay, move in zip(prev, _moves(arena, prev))]


def _table(kind, arena, k):
    if k < 0:
        raise ValueError("k must be >= 0")
    step = _moves if kind == "plain" else _min_step
    rows = [[0] * arena.n]
    for _ in range(k):
        rows.append(step(arena, rows[-1]))
    return TruncatedValueTable(kind, rows)


def plain_ttpg(arena, k):
    """Table of the k-step truncated game values, rows 0..k."""
    return _table("plain", arena, k)


def min_ttpg(arena, k):
    """Table of the min-variant values, rows 0..k."""
    return _table("min", arena, k)


def convergence_horizon(arena, w0_size, w1_size):
    """The proven stabilization bound k' for the min-variant values."""
    W = arena.W
    return ((arena.n * W - 2 * W + 1) * w1_size
            + (w0_size - 1) * w0_size * W + 3)


def min_ttpg_fixpoint(arena, keep_history=False):
    """Iterate the min-variant until it matches the least progress measure.

    Returns (f, k_reached, table): ``f`` is the least progress measure,
    which maps Player-0's energy winning region to the negated stabilized
    values and the losing region to top; ``k_reached`` is the first k >= 1
    whose row is both stationary on the winning region and equal to the
    negated least measure there.  The iteration is capped at the proven
    horizon k'; failing to stabilize by then would falsify the convergence
    theorem and raises InternalError.  ``table`` is None unless
    ``keep_history`` (rolling two-row storage otherwise).
    """
    fstar = energy.least_sepm(arena)
    w0 = fstar.finite_vertices()
    bound = convergence_horizon(arena, len(w0), arena.n - len(w0))
    prev = [0] * arena.n
    rows = [tuple(prev)] if keep_history else None
    k_reached = None
    for k in range(1, bound + 1):
        row = _min_step(arena, prev)
        if keep_history:
            rows.append(tuple(row))
        stationary = all(row[u] == prev[u] for u in w0)
        agrees = all(row[u] == -fstar.values[u] for u in w0)
        prev = row
        if stationary and agrees:
            k_reached = k
            break
    if k_reached is None:
        raise InternalError("min-variant did not stabilize to the least "
                            "progress measure within k'=%d" % bound)
    table = TruncatedValueTable("min", rows) if keep_history else None
    return fstar, k_reached, table


def audit_min_table(arena, table, fstar=None):
    """Row-by-row checks of every proven min-variant property.

    Returns a list of violation descriptions (empty when all hold):
    monotone columns, values <= 0, the [-(|W0|-1)W, 0] band and
    nu' >= -f* on the winning region, the divergence bound on the losing
    region (skipped when it is empty), and stop-is-gameover: whenever the
    stay branch strictly beats the move branch at k-1, the k-entry is 0.
    """
    if table.kind != "min":
        raise ValueError("audit applies to min-variant tables")
    if fstar is None:
        fstar = energy.least_sepm(arena)
    w0 = frozenset(fstar.finite_vertices())
    w1 = [u for u in range(arena.n) if u not in w0]
    W = arena.W
    band_low = -(len(w0) - 1) * W if w0 else 0
    failures = []
    for k, row in enumerate(table.rows):
        for u in range(arena.n):
            x = row[u]
            if x > 0:
                failures.append("k=%d %s: value %d > 0"
                                % (k, arena.names[u], x))
            if k > 0 and x > table.rows[k - 1][u]:
                failures.append("k=%d %s: column not monotone"
                                % (k, arena.names[u]))
            if u in w0:
                if x < band_low:
                    failures.append("k=%d %s: below -(|W0|-1)W band"
                                    % (k, arena.names[u]))
                if x < -fstar.values[u]:
                    failures.append("k=%d %s: below -f*"
                                    % (k, arena.names[u]))
            elif w1:
                limit = -(k // len(w1)) + (len(w1) - 1) * W
                if x > limit:
                    failures.append("k=%d %s: divergence bound %d violated"
                                    % (k, arena.names[u], limit))
        if k == 0:
            continue
        prev = table.rows[k - 1]
        moves = _moves(arena, prev)
        for u in range(arena.n):
            if prev[u] < moves[u] and row[u] != 0:
                failures.append("k=%d %s: stay preferred but value %d != 0"
                                % (k, arena.names[u], row[u]))
    return failures
