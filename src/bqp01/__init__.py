"""Exact solvers for the bipartite unconstrained 0-1 quadratic program.

Maximize x^T Q y + c.x + d.y + c0 over binary x and y, exactly, in
rational arithmetic.  The package detects exploitable structure in Q
(nonnegativity, additive decomposability, low rank, sparse negativity)
and routes each instance to a matching polynomial-time solver, with an
exhaustive oracle for cross-validation.
"""

from .additive import solve_additive
from .analysis import (
    AdditiveDecomposition,
    Eliminator,
    RankFactorization,
    detect_additive,
    detect_nonnegative,
    min_negative_eliminator,
    rank_factorize,
)
from .dispatch import (
    ALGORITHMS,
    AnalysisReport,
    BenchRow,
    SolveReport,
    analyze,
    bench,
    dispatch_solve,
)
from .enumeration import best_y_for_x, solve_enumeration, solve_oracle
from .errors import CrossValidationError, ParseError, SolverRefusal
from .fixed_rank import BasisStructure, enumerate_dual_feasible_bases, solve_fixed_rank
from .generate import SplitMix64, generate_instance
from .mincut import solve_nonnegative, solve_with_eliminator
from .model import (
    BipartiteWeightedGraph,
    CutInstance,
    Instance,
    IntegerInstance,
    Solution,
    as_fraction,
    evaluate_cut_objective,
    evaluate_objective,
    normalize_orientation,
    transpose_instance,
)
from .rank_one import (
    BreakpointTrack,
    RankOneForm,
    pkp_breakpoints,
    solve_rank_one,
    ulp_breakpoints,
)
from .textio import (
    format_instance,
    format_solution,
    parse_instance,
    parse_integer_instance,
    parse_rational,
)
from .transforms import (
    big_m_bound,
    bmaxcut_to_bqp11h,
    bqp01_to_cut,
    bqp01_to_qp01,
    bqp11h_to_bmaxcut,
    cut_to_bqp01,
    mwbp_to_bqp01,
    qp01_to_bqp01,
    rank1_binary_approx_to_bqp01,
    to_homogeneous,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AdditiveDecomposition",
    "AnalysisReport",
    "BasisStructure",
    "BenchRow",
    "BipartiteWeightedGraph",
    "BreakpointTrack",
    "CrossValidationError",
    "CutInstance",
    "Eliminator",
    "Instance",
    "IntegerInstance",
    "ParseError",
    "RankFactorization",
    "RankOneForm",
    "SolveReport",
    "SolverRefusal",
    "Solution",
    "SplitMix64",
    "analyze",
    "as_fraction",
    "bench",
    "best_y_for_x",
    "big_m_bound",
    "bmaxcut_to_bqp11h",
    "bqp01_to_cut",
    "bqp01_to_qp01",
    "bqp11h_to_bmaxcut",
    "cut_to_bqp01",
    "detect_additive",
    "detect_nonnegative",
    "dispatch_solve",
    "enumerate_dual_feasible_bases",
    "evaluate_cut_objective",
    "evaluate_objective",
    "format_instance",
    "format_solution",
    "generate_instance",
    "min_negative_eliminator",
    "mwbp_to_bqp01",
    "normalize_orientation",
    "parse_instance",
    "parse_integer_instance",
    "parse_rational",
    "pkp_breakpoints",
    "qp01_to_bqp01",
    "rank1_binary_approx_to_bqp01",
    "rank_factorize",
    "solve_additive",
    "solve_enumeration",
    "solve_fixed_rank",
    "solve_nonnegative",
    "solve_oracle",
    "solve_rank_one",
    "solve_with_eliminator",
    "to_homogeneous",
    "transpose_instance",
    "ulp_breakpoints",
]
