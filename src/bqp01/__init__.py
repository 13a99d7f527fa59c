"""Exact solvers for the bipartite unconstrained 0-1 quadratic program.

Maximize x^T Q y + c.x + d.y + c0 over binary x and y, exactly, in
rational arithmetic.  The package detects exploitable structure in Q
(nonnegativity, additive decomposability, low rank, sparse negativity)
and routes each instance to a matching polynomial-time solver, with an
exhaustive oracle for cross-validation.

Importing the package loads none of its modules.  The first public name
read from it binds the whole public API here at once; a submodule read as
an attribute (``from . import mincut``) loads that module alone, so
``bqp01 solve`` loads only the solver its route runs.
"""

__version__ = "0.1.0"

# Home module -> the public names it exports.
_EXPORTS = {
    "additive": ("solve_additive",),
    "analysis": (
        "AdditiveDecomposition", "Eliminator", "RankFactorization", "detect_additive",
        "detect_nonnegative", "min_negative_eliminator", "rank_factorize",
    ),
    "dispatch": (
        "ALGORITHMS", "AnalysisReport", "BenchRow", "SolveReport", "analyze", "bench",
        "dispatch_solve",
    ),
    "enumeration": ("best_y_for_x", "solve_enumeration", "solve_oracle"),
    "errors": ("CrossValidationError", "ParseError", "SolverRefusal"),
    "fixed_rank": ("BasisStructure", "enumerate_dual_feasible_bases", "solve_fixed_rank"),
    "generate": ("SplitMix64", "generate_instance"),
    "mincut": ("solve_nonnegative", "solve_with_eliminator"),
    "model": (
        "BipartiteWeightedGraph", "CutInstance", "Instance", "IntegerInstance", "Solution",
        "as_fraction", "evaluate_cut_objective", "evaluate_objective",
        "normalize_orientation", "transpose_instance",
    ),
    "rank_one": (
        "BreakpointTrack", "RankOneForm", "pkp_breakpoints", "solve_rank_one",
        "ulp_breakpoints",
    ),
    "textio": (
        "format_instance", "format_solution", "parse_instance", "parse_integer_instance",
    ),
    "transforms": (
        "big_m_bound", "bmaxcut_to_bqp11h", "bqp01_to_cut", "bqp01_to_qp01",
        "bqp11h_to_bmaxcut", "cut_to_bqp01", "mwbp_to_bqp01", "qp01_to_bqp01",
        "rank1_binary_approx_to_bqp01", "to_homogeneous",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "fixtures"}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _submodule(name):
    # The import statement's own path, unlike importlib.import_module, so
    # ``python -X importtime`` lists every module loaded here.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bind every public name, as an eager import would, so the first read
    # pays for all of them and later reads are plain module globals.
    for home, names in _EXPORTS.items():
        module = _submodule(home)
        for export in names:
            globals()[export] = getattr(module, export)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
