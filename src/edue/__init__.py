"""Dynamic user equilibrium with elastic travel demand on road networks.

Point-queue network loading, a fixed-point projection solver for the
discretized equilibrium problem, verification against the equilibrium
definition, and a brute-force oracle for tiny instances.
"""

from .cost import A1ViolationError, CostField, SchedulePenalty, effective_delay
from .demand import InverseDemand
from .dnl import HorizonOverflowError, LoadingResult, load
from .grid import ExtendedPoint, TimeGrid
from .network import Link, Network, Path
from .oracle import OracleResult, TinyInstance, brute_force_equilibrium
from .solver import SolveReport, SolverConfig, compute_gap, f_map, fixed_point_step, lemma2_bound, solve
from .verify import ResidualReport, best_response, due_residuals, is_feasible, random_probe, reduced_costs, vi_lhs

__version__ = "0.1.0"
