"""Mean payoff game solver.

Computes exact per-vertex values and optimal positional strategies through
reweighted energy games, enumerates without repetition the lattice of
extremal small energy-progress measures together with the basic subgames
that generate them, decomposes the space of optimal positional strategies
into the corresponding disjoint blocks, and iterates min-variant truncated
total-payoff values to their energy fixpoint.  All arithmetic is exact
(integers and fractions); a brute-force oracle cross-checks every fast
path on small instances.
"""

from .arena import (Arena, SubgameMask, apply_mask, parse_arena, reweight,
                    serialize_arena)
from .energy import (EnergyFunction, arena_cap, compatible_arcs, is_sepm,
                     least_sepm, ominus, winning_regions)
from .errors import (ArenaFormatError, InternalError, MaskError, MpgError,
                     NotNuValuedError, OracleBoundError, StrategyError)
from .lattice import (DeltaBlock, EnergyLattice, SubgameLattice, SubgameNode,
                      decompose, enumerate_lattice, incompatible_arcs)
from .potentials import (PositionalStrategy, delta_membership, is_conservative,
                         least_feasible_potential, restrict)
from .ttpg import (TruncatedValueTable, audit_min_table, convergence_horizon,
                   min_ttpg, min_ttpg_fixpoint, plain_ttpg)
from .values import (ErgodicClass, ValueAssignment, certify_optimal,
                     ergodic_partition, is_optimal, solve_values,
                     synthesize_optimal)
from .verify import BatteryReport, verify_arena

__version__ = "0.1.0"

__all__ = [
    "Arena", "SubgameMask", "apply_mask", "parse_arena", "reweight",
    "serialize_arena",
    "EnergyFunction", "arena_cap", "compatible_arcs", "is_sepm", "least_sepm",
    "ominus", "winning_regions",
    "ArenaFormatError", "InternalError", "MaskError", "MpgError",
    "NotNuValuedError", "OracleBoundError", "StrategyError",
    "DeltaBlock", "EnergyLattice", "SubgameLattice", "SubgameNode",
    "decompose", "enumerate_lattice", "incompatible_arcs",
    "PositionalStrategy", "delta_membership", "is_conservative",
    "least_feasible_potential", "restrict",
    "TruncatedValueTable", "audit_min_table", "convergence_horizon",
    "min_ttpg", "min_ttpg_fixpoint", "plain_ttpg",
    "ErgodicClass", "ValueAssignment", "certify_optimal",
    "ergodic_partition", "is_optimal", "solve_values", "synthesize_optimal",
    "BatteryReport", "verify_arena",
    "__version__",
]
