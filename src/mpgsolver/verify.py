"""Cross-module differential battery over one arena.

Runs every identity the solver promises against the brute-force oracle:
values against exhaustive payoff maximization, the enumerated energy
lattice against least feasible potentials of optimal strategies, the
decomposition against the exact optimal set, conservativeness against
optimality, seeded against unseeded lifting, truncated-payoff convergence
row by row, and the text round-trip.  Desk-scale instruments: strategy
spaces are exhausted, so sizes are guarded by the oracle bound.
"""

from __future__ import annotations

from fractions import Fraction

from . import energy, lattice, oracle, potentials, ttpg, values
from .arena import parse_arena, reweight, serialize_arena


class BatteryReport:
    """Failures (empty means pass) plus cheap statistics for the log."""

    def __init__(self):
        self.failures = []
        self.classes = 0
        self.sepms = 0
        self.subgames = 0
        self.optimal = 0
        self.degenerate = False

    @property
    def ok(self):
        return not self.failures

    def fail(self, message):
        self.failures.append(message)


def _check_class(report, cls, max_strategies):
    """All per-class identities on one value class."""
    sub, nu = cls.subgame, cls.nu
    scaled = reweight(sub, nu)

    vals_sub, opt = oracle.exhaustive_opt(sub, max_strategies)
    if any(v != nu for v in vals_sub.vals):
        report.fail("class tagged nu=%s has oracle value %s"
                    % (nu, vals_sub.vals))
        return
    report.optimal += len(opt)

    x, b = lattice.enumerate_lattice(sub, nu)
    x_plain, b_plain = lattice.enumerate_lattice(sub, nu, seed_children=False)
    report.sepms += len(x)
    report.subgames += len(b)
    if len(b) > len(x):
        report.degenerate = True

    # Enumeration determinism and seeded == unseeded, edge by edge.
    if [f.values for f in x] != [f.values for f in x_plain]:
        report.fail("seeded and unseeded enumerations emit different measures")
    if [n.kept for n in b.nodes] != [n.kept for n in b_plain.nodes]:
        report.fail("seeded and unseeded enumerations visit different subgames")

    # No repetitions.
    if len({f.values for f in x}) != len(x):
        report.fail("duplicate extremal measure emitted")
    if len({n.kept for n in b.nodes}) != len(b):
        report.fail("duplicate basic subgame visited")

    # The defining description of the energy lattice.
    potential = {s.choice: potentials.least_feasible_potential(
                     potentials.restrict(scaled, s)).values
                 for s in opt}
    if {f.values for f in x} != set(potential.values()):
        report.fail("enumerated lattice differs from optimal-strategy "
                    "potentials")

    # Every emitted measure is a finite-everywhere SEPM with a live block.
    blocks = lattice.decompose(sub, nu, x)
    for f, block in zip(x, blocks):
        if not f.all_finite():
            report.fail("emitted measure has a top entry")
        if not energy.is_sepm(scaled, f):
            report.fail("emitted measure is not a progress measure")
        if block.count < 1:
            report.fail("extremal measure with an empty strategy block")

    # Blocks partition the optimal set.
    opt_set = {s.choice for s in opt}
    seen = {}
    union = set()
    for block in blocks:
        for s in block.strategies:
            if s.choice in seen:
                report.fail("strategy in two blocks (%d and %d)"
                            % (seen[s.choice], block.sepm_id))
            seen[s.choice] = block.sepm_id
        if block.count != len(block.strategies):
            report.fail("untruncated block count mismatch")
        union.update(s.choice for s in block.strategies)
    if union != opt_set:
        report.fail("block union differs from the optimal strategy set")

    # Regrouping optimal strategies by their Bellman-Ford potential
    # reproduces the lifted blocks exactly (uniqueness of decomposition).
    for block in blocks:
        f = x.sepms[block.sepm_id]
        regroup = {choice for choice, pi in potential.items() if pi == f.values}
        if regroup != {s.choice for s in block.strategies}:
            report.fail("potential regrouping disagrees with block %d"
                        % block.sepm_id)

    # Conservative iff optimal, over the whole strategy space.
    for s in oracle.all_strategies(sub):
        conservative = potentials.is_conservative(potentials.restrict(scaled, s))
        if conservative != (s.choice in opt_set):
            report.fail("conservative/optimal mismatch at %r" % (s.choice,))
            break

    # The map from subgames to measures is onto and antitone.
    hit = {node.sepm_id for node in b.nodes}
    if hit != set(range(len(x))):
        report.fail("subgame-to-measure map is not onto")
    for parent, child in b.edges():
        pf = x.sepms[b.nodes[parent].sepm_id]
        cf = x.sepms[b.nodes[child].sepm_id]
        if not pf.pointwise_le(cf):
            report.fail("measure map not antitone on edge %d->%d"
                        % (parent, child))

    # The root measure is the pointwise minimum of the lattice.
    if x.pointwise_minimum() != x.root_sepm.values:
        report.fail("root measure is not the pointwise minimum")

    # Worklist against naive Kleene iteration on the reweighted subgame.
    if oracle.naive_least_sepm(scaled) != cls.least_sepm():
        report.fail("worklist and Kleene least measures differ")


def _check_ttpg(report, arena):
    try:
        f, k_reached, table = ttpg.min_ttpg_fixpoint(arena, keep_history=True)
    except Exception as exc:
        report.fail("min-variant fixpoint failed: %s" % exc)
        return
    w0 = sum(1 for u in range(arena.n) if not f.is_top(u))
    bound = ttpg.convergence_horizon(arena, w0, arena.n - w0)
    if k_reached > bound:
        report.fail("stabilization at k=%d exceeds k'=%d" % (k_reached, bound))
    for failure in ttpg.audit_min_table(arena, table, fstar=f):
        report.fail("min-variant audit: %s" % failure)
    # Plain recursion against the exponential game-tree oracle.
    small_k = 4
    plain = ttpg.plain_ttpg(arena, small_k)
    for k in range(small_k + 1):
        for u in range(arena.n):
            if plain.rows[k][u] != oracle.ttpg_game_tree_value(arena, u, k):
                report.fail("plain table disagrees with game tree at k=%d %s"
                            % (k, arena.names[u]))


def verify_arena(arena, max_strategies=10 ** 6):
    """Run the whole battery; returns a BatteryReport."""
    report = BatteryReport()

    if parse_arena(serialize_arena(arena)) != arena:
        report.fail("serialize/parse round-trip is not the identity")

    vals = values.solve_values(arena)
    oracle_vals, _ = oracle.exhaustive_opt(arena, max_strategies)
    if vals != oracle_vals:
        report.fail("solver values %r differ from oracle %r"
                    % (vals.vals, oracle_vals.vals))
        return report
    if any(v.denominator > arena.n for v in vals.vals):
        report.fail("a value has denominator above |V|")
    if any(abs(v) > Fraction(arena.W) for v in vals.vals):
        report.fail("a value exceeds the weight bound")

    partition = values.ergodic_partition(arena, vals)
    strategy = values.synthesize_optimal(arena, partition)
    if not values.is_optimal(arena, vals, strategy):
        report.fail("synthesized strategy is not optimal")

    report.classes = len(partition)
    for cls in partition:
        _check_class(report, cls, max_strategies)

    _check_ttpg(report, arena)
    return report
