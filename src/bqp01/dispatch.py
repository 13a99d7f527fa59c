"""Structure analysis, automatic solver selection, and cross-validation.

``dispatch_solve`` routes an instance to the first solver, in a fixed
order, whose structure it has: min-cut for nonnegative matrices, the
cardinality scan for additive ones, the breakpoint sweep or basis
enumeration for low rank, x-side enumeration for few rows, and
eliminator fixing for few negative entries.  Every route is exact; the
first match is not always the fastest (few rows take ``enum`` even
where a small eliminator is far faster).  ``bench`` runs several
solvers on the same instances and fails hard if any two disagree.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cached_property

from .analysis import (
    Eliminator,
    detect_additive,
    min_negative_eliminator,
)
from .errors import (
    ALGORITHMS,
    DEFAULT_ELIMINATOR_LIMIT,
    DEFAULT_ENUM_LIMIT,
    DEFAULT_P_LIMIT,
    CrossValidationError,
    SolverRefusal,
)
from .model import CutInstance, Instance, IntegerInstance, Record, Solution, normalize_orientation


class AnalysisReport(Record):
    """Structure of ``work``, the integer instance the solvers run on.

    ``work`` is the input in 0-1 form, transposed when ``transposed`` so
    that m <= n.  Each fact is computed on first use and describes ``work``;
    ``lines`` reports in the caller's orientation.
    """

    work: IntegerInstance
    transposed: bool

    @property
    def nonnegative(self) -> bool:
        return self.work.nonnegative

    @cached_property
    def additive(self) -> bool:
        return detect_additive(self.work.q) is not None

    @cached_property
    def eliminator(self) -> Eliminator:
        return min_negative_eliminator(self.work.q)

    def lines(self) -> list[tuple[str, str]]:
        """(key, value) text pairs.

        The rank prints exactly up to ``DEFAULT_P_LIMIT`` (6) and as
        ``>6`` above it, so no rank query reads past the seventh
        independent row.
        """
        limit = DEFAULT_P_LIMIT
        fact = self.work.rank_at_most(limit)
        m, n = self.work.m, self.work.n
        rows, cols = self.eliminator.rows, self.eliminator.cols
        if self.transposed:
            m, n, rows, cols = n, m, cols, rows
        return [
            ("m", str(m)),
            ("n", str(n)),
            ("rank", f">{limit}" if fact is None else str(fact.p)),
            ("additive", "yes" if self.additive else "no"),
            ("nonnegative", "yes" if self.nonnegative else "no"),
            ("eliminator-size", str(self.eliminator.size)),
            ("eliminator-rows", " ".join(map(str, rows)) or "-"),
            ("eliminator-cols", " ".join(map(str, cols)) or "-"),
        ]


class SolveReport(Record):
    """A solution plus how it was obtained."""

    solution: Solution
    algorithm: str
    detected: str
    wall_time: float


def analyze(inst: Instance | CutInstance | IntegerInstance) -> AnalysisReport:
    """The lazy structure report that ``dispatch_solve`` routes the instance on."""
    return AnalysisReport(*normalize_orientation(inst.integer))


def dispatch_solve(
    inst: Instance | CutInstance | IntegerInstance,
    algorithm: str = "auto",
    *,
    p_limit: int = DEFAULT_P_LIMIT,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    eliminator_limit: int = DEFAULT_ELIMINATOR_LIMIT,
) -> SolveReport:
    """Solve with the named algorithm, or pick one automatically.

    Cut-form instances (a CutInstance, or an IntegerInstance with ``cut``
    set) are solved on their integer form, which holds the 0-1 rewrite,
    and reported as signs s = 2w - 1.  Solvers run on the integer form,
    oriented so the enumerated/parameterized side is the shorter one;
    solutions are reported in the original orientation.  ``auto`` takes
    the first route, in ``_run``'s order, whose condition holds within the
    limits; if none does, a SolverRefusal carrying the analysis report is
    raised.  A forced ``oracle`` refuses when m + n > enum_limit.  A
    reported value that differs from the objective at its point raises
    CrossValidationError.  ``wall_time`` times the whole call, conversions
    and that check too.
    """
    start = time.perf_counter()
    return _solve(analyze(inst), algorithm, start, p_limit, enum_limit, eliminator_limit)


def _solve(found: AnalysisReport, algorithm: str, start: float, *limits: int) -> SolveReport:
    """``dispatch_solve`` on a made report and its three limits, timed from ``start``."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    work = found.work
    route, detected, solution = _run(found, algorithm, *limits)

    x, y = solution.x, solution.y
    if work.objective(x, y) != solution.value * work.scale:
        raise CrossValidationError(
            f"{route} reported {solution.value}, but the objective at its point "
            f"is {Fraction(work.objective(x, y), work.scale)}"
        )
    if found.transposed:
        x, y = y, x
    if work.cut:
        x = tuple(2 * v - 1 for v in x)
        y = tuple(2 * v - 1 for v in y)
    return SolveReport(
        solution=Solution(x, y, solution.value),
        algorithm=route,
        detected=detected,
        wall_time=time.perf_counter() - start,
    )


def _run(
    found: AnalysisReport, algorithm: str, p_limit: int, enum_limit: int, eliminator_limit: int
) -> tuple[str, str, Solution]:
    """(route, detected label, solution) of the named solver on ``found.work``.

    One branch per route, in ``auto``'s order: ``auto`` takes the first
    whose condition holds, reading each fact only when reached, and a
    forced name skips every condition.  Only the chosen route's module is
    imported, and each solver is read from its module at call time, so a
    patched one runs.
    """
    work = found.work
    auto = algorithm == "auto"
    if algorithm == "mincut" or auto and found.nonnegative:
        from . import mincut

        return "mincut", "nonnegative matrix", mincut.solve_nonnegative(work)
    if algorithm == "additive" or auto and found.additive:
        from . import additive

        # A known-additive matrix goes straight to the scan; otherwise
        # solve_additive raises, naming the first mismatch.
        scan = additive.cardinality_scan if found.additive else additive.solve_additive
        return "additive", "additive matrix", scan(work)
    # Only ranks up to max(p_limit, 1) route, so the row pass stops one independent row past that.
    fact = work.rank_at_most(max(p_limit, 1)) if auto else None
    if algorithm == "rank1" or auto and fact is not None and fact.p <= 1:
        from . import rank_one

        return "rank1", "rank-one matrix", rank_one.solve_rank_one(work)
    if algorithm == "rankp" or auto and fact is not None:
        from . import fixed_rank

        solution = fixed_rank.solve_fixed_rank(work, p_limit)
        return "rankp", f"rank-{work.rank_at_most(p_limit).p} matrix", solution
    if algorithm in ("oracle", "enum") or auto and work.m <= enum_limit:
        from . import enumeration

        if algorithm == "oracle":
            if work.m + work.n > enum_limit:
                raise SolverRefusal(
                    f"oracle over 2^{work.m + work.n} (x, y) pairs exceeds enum_limit "
                    f"2^{enum_limit}; raise enum_limit (--enum-limit) to force"
                )
            return "oracle", "exhaustive scan", enumeration.solve_oracle(work)
        return "enum", f"{work.m} rows", enumeration.solve_enumeration(work, enum_limit)
    if algorithm == "eliminator" or auto and found.eliminator.size <= eliminator_limit:
        from . import mincut

        elim = found.eliminator
        return (
            "eliminator",
            f"negative eliminator of size {elim.size}",
            mincut.solve_with_eliminator(work, elim, eliminator_limit),
        )
    raise SolverRefusal(
        f"no solver applicable within limits: rank > p_limit {p_limit}, "
        f"min(m, n) {work.m} > enum_limit {enum_limit}, "
        f"eliminator {found.eliminator.size} > "
        f"eliminator_limit {eliminator_limit}, matrix not nonnegative or additive; "
        f"raise one of them (--p-limit, --enum-limit, --eliminator-limit)",
        report=found,
    )


class BenchRow(Record):
    instance: str
    algorithm: str
    value: Fraction
    wall_time: float


def bench(
    instances: list[tuple[str, Instance | CutInstance | IntegerInstance]],
    algorithms: list[str],
    *,
    p_limit: int = DEFAULT_P_LIMIT,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    eliminator_limit: int = DEFAULT_ELIMINATOR_LIMIT,
) -> list[BenchRow]:
    """Run each algorithm on each instance; fail if optima disagree.

    This is the cross-validation harness: a disagreement between two exact
    solvers is a bug, reported as CrossValidationError.  Every algorithm
    runs on one ``analyze`` report per instance, so each detector runs once.
    ``BenchRow.wall_time`` covers the route choice, the solver, the objective
    check and each detector in the first row that reads it; the integer
    conversion and orientation precede the rows, untimed.
    """
    rows: list[BenchRow] = []
    for name, inst in instances:
        found = analyze(inst)
        values: dict[str, Fraction] = {}
        for algorithm in algorithms:
            report = _solve(
                found, algorithm, time.perf_counter(), p_limit, enum_limit, eliminator_limit
            )
            rows.append(
                BenchRow(name, algorithm, report.solution.value, report.wall_time)
            )
            values[algorithm] = report.solution.value
        distinct = set(values.values())
        if len(distinct) > 1:
            detail = ", ".join(f"{alg}={val}" for alg, val in sorted(values.items()))
            raise CrossValidationError(
                f"solvers disagree on {name}: {detail}"
            )
    return rows
