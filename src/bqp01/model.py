"""Data model for bipartite unconstrained 0-1 quadratic programs.

An instance is the coefficient tuple (Q, c, d, c0) of the objective

    f(x, y) = x^T Q y + c.x + d.y + c0

maximized over binary vectors x (length m) and y (length n).  Every
coefficient is an exact rational, held as an ``int`` when it was given as
one and as a ``fractions.Fraction`` otherwise; no operation in this package
rounds.  The constant c0 is always a Fraction, so objective values computed
from an instance are Fractions.  Instances are immutable, so they are safe
to share between threads and to use as dictionary keys; an int-built
instance equals, and hashes like, the same instance built from Fractions.

Solvers and detectors run on plain ints.  ``clear_denominators`` is the
one scaling step: ``Instance.integer`` applies it once per instance, giving
an :class:`IntegerInstance` whose objective is the original times a
positive ``scale``.  That keeps every argmax and tie, so solvers compare
ints and divide by ``scale`` only in ``Solution.value``.  The command line
reads files straight into this form (``textio.parse_integer_instance``,
the same least common denominator without a Fraction per coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

Numeric = Union[int, str, float, Fraction]


def as_fraction(value: Numeric) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts ints, Fractions, exact decimal strings like ``-2.5``, and
    rational strings like ``7/3``.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


_INT_ONLY = frozenset((int,))


def clear_denominators(
    vectors: Sequence[Sequence[Fraction | int]],
) -> tuple[list[tuple[int, ...]], int]:
    """Scale vectors of exact rationals to integers by one common factor k.

    Returns ([tuple(k * v for v in vector) ...], k) with k the least
    positive integer making every value integral (the lcm of the
    denominators).  Vectors that hold only ints need no scan; when k is 1
    they are returned as they are (as tuples), not copied.
    """
    pairs = [(vec, _INT_ONLY.issuperset(map(type, vec))) for vec in map(tuple, vectors)]
    scale = lcm(*[v.denominator for vec, ints in pairs if not ints for v in vec])
    if scale == 1:
        return [vec if ints else tuple(v.numerator for v in vec) for vec, ints in pairs], 1
    return [tuple(v.numerator * (scale // v.denominator) for v in vec) for vec, _ in pairs], scale


def _freeze(value: Numeric) -> int | Fraction:
    return value if type(value) is int else as_fraction(value)


def freeze_vector(values: Sequence[Numeric]) -> tuple[int | Fraction, ...]:
    """Values as a tuple: ints (not bools) kept, anything else a Fraction."""
    out = tuple(values)
    if _INT_ONLY.issuperset(map(type, out)):
        return out
    return tuple(map(_freeze, out))


def freeze_matrix(rows: Sequence[Sequence[Numeric]]) -> tuple[tuple[int | Fraction, ...], ...]:
    out = tuple(freeze_vector(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("matrix rows have inconsistent lengths")
    return out


def _coerce_fields(obj) -> None:
    q = freeze_matrix(obj.q)
    if not q or not q[0]:
        raise ValueError("matrix must have at least one row and one column")
    m, n = len(q), len(q[0])
    c = freeze_vector(obj.c) if obj.c is not None else (0,) * m
    d = freeze_vector(obj.d) if obj.d is not None else (0,) * n
    if len(c) != m:
        raise ValueError(f"c has length {len(c)}, expected {m}")
    if len(d) != n:
        raise ValueError(f"d has length {len(d)}, expected {n}")
    object.__setattr__(obj, "q", q)
    object.__setattr__(obj, "c", c)
    object.__setattr__(obj, "d", d)
    object.__setattr__(obj, "c0", as_fraction(obj.c0))


class _Shape:
    """m x n shape of the coefficient matrix ``q``."""

    @property
    def m(self) -> int:
        return len(self.q)

    @property
    def n(self) -> int:
        return len(self.q[0])


@dataclass(frozen=True)
class IntegerInstance(_Shape):
    """(q, c, d, c0) of an instance times the positive integer ``scale``.

    Every coefficient is a Python int, so the original objective value at
    a point is ``Fraction(self.objective(x, y), self.scale)``.  Solvers
    accept this form wherever they accept an :class:`Instance`.

    ``cut`` marks the coefficients of the {-1,+1} cut form
    (``CutInstance.integer``, or ``parse_integer_instance`` of a bqp11
    file).  Solvers read every instance as 0-1, so ``dispatch`` first
    converts a cut one with ``cut_to_bqp01``, on ints at the same scale.
    """

    q: tuple[tuple[int, ...], ...]
    c: tuple[int, ...]
    d: tuple[int, ...]
    c0: int
    scale: int
    cut: bool = False

    @property
    def integer(self) -> "IntegerInstance":
        return self

    def rank_at_most(self, limit: int):
        """The integer rank factorization of q if rank(q) <= limit, else None.

        The elimination stops once limit + 1 pivots prove the rank larger,
        so ``rank_at_most(min(m, n)).p`` is the exact rank.  One record keeps
        what the eliminations proved: the finished factorization, or the
        largest limit shown to be exceeded.  A limit that record answers
        runs no new elimination.
        """
        record = self.__dict__.get("_rank", -1)  # an int k: rank(q) > k is proved
        if isinstance(record, int) and limit > record:
            record = self.__dict__["_rank"] = self._factorize(limit + 1) or limit
        if isinstance(record, int) or record.p > limit:
            return None
        return record

    def _factorize(self, max_pivots: int):
        """The factorization, or None if ``max_pivots`` pivots stopped it."""
        from .analysis import RankFactorization, bareiss  # analysis imports model

        rows, pivots, det = bareiss(self.q, max_pivots)
        if len(pivots) == max_pivots:
            return None
        left = tuple(tuple(row[col] for col in pivots) for row in self.q)
        return RankFactorization(len(pivots), left, tuple(map(tuple, rows[: len(pivots)])), det)

    def objective(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Scale times the original objective at the binary point (x, y)."""
        return _bilinear_value(self.q, self.c, self.d, self.c0, x, y)


def _integer_instance(obj) -> IntegerInstance:
    ints, scale = clear_denominators((*obj.q, obj.c, obj.d, (obj.c0,)))
    (c0,) = ints.pop()
    d, c = ints.pop(), ints.pop()
    return IntegerInstance(tuple(ints), c, d, c0, scale, isinstance(obj, CutInstance))


@dataclass(frozen=True)
class _Rational(_Shape):
    """Exact coefficients, each an int or a Fraction, and c0 a Fraction.

    ``integer`` is built on first use; for all-int coefficients it shares
    the rows of ``q``.
    """

    q: tuple[tuple[int | Fraction, ...], ...]
    c: tuple[int | Fraction, ...] | None = None
    d: tuple[int | Fraction, ...] | None = None
    c0: Fraction = Fraction(0)

    integer = cached_property(_integer_instance)


@dataclass(frozen=True)
class Instance(_Rational):
    """A BQP01 instance: maximize x^T Q y + c.x + d.y + c0 over binary x, y."""

    def __post_init__(self) -> None:
        _coerce_fields(self)


@dataclass(frozen=True)
class CutInstance(_Rational):
    """Same coefficient shape as :class:`Instance`, variables in {-1, +1}."""

    def __post_init__(self) -> None:
        _coerce_fields(self)

    def is_homogeneous(self) -> bool:
        return (
            all(v == 0 for v in self.c)
            and all(v == 0 for v in self.d)
            and self.c0 == 0
        )


@dataclass(frozen=True)
class Solution:
    """A feasible point and its exact objective value."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class BipartiteWeightedGraph:
    """Edge-weighted bipartite graph on left part {0..m-1}, right part {0..n-1}."""

    m: int
    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("graph parts must be nonempty")
        edges = tuple((i, j, as_fraction(w)) for (i, j, w) in self.edges)
        seen = set()
        for i, j, _ in edges:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        object.__setattr__(self, "edges", edges)

    def total_weight(self) -> Fraction:
        return sum((w for _, _, w in self.edges), Fraction(0))

    def weight_matrix(self) -> list[list[Fraction]]:
        """Dense m x n weight matrix with 0 for absent edges."""
        mat = [[Fraction(0)] * self.n for _ in range(self.m)]
        for i, j, w in self.edges:
            mat[i][j] = w
        return mat


def _check_assignment(vec: Sequence[int], size: int, allowed: tuple[int, int], label: str) -> None:
    if len(vec) != size:
        raise ValueError(f"{label} has length {len(vec)}, expected {size}")
    for v in vec:
        if v not in allowed:
            raise ValueError(f"{label} entries must be in {allowed}, got {v!r}")


def _bilinear_value(q, c, d, c0, x, y):
    """x^T q y + c.x + d.y + c0, exact in the coefficients' own arithmetic."""
    cols = [j for j, v in enumerate(y) if v]
    total = c0 + sum(d[j] * y[j] for j in cols)
    for row, ci, xi in zip(q, c, x):
        if xi:
            total += xi * (ci + sum(row[j] * y[j] for j in cols))
    return total


def evaluate_objective(inst: Instance, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """Exact objective value of ``inst`` at the binary point (x, y)."""
    _check_assignment(x, inst.m, (0, 1), "x")
    _check_assignment(y, inst.n, (0, 1), "y")
    return _bilinear_value(inst.q, inst.c, inst.d, inst.c0, x, y)


def evaluate_cut_objective(cut: CutInstance, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """Exact objective value of ``cut`` at the sign point (x, y) in {-1,+1}."""
    _check_assignment(x, cut.m, (-1, 1), "x")
    _check_assignment(y, cut.n, (-1, 1), "y")
    return _bilinear_value(cut.q, cut.c, cut.d, cut.c0, x, y)


def transpose_instance(inst: Instance | IntegerInstance):
    """Swap the roles of x and y: transpose Q and exchange c with d.

    Works on either form and returns the same form.
    """
    return replace(inst, q=tuple(zip(*inst.q)), c=inst.d, d=inst.c)


def normalize_orientation(inst: Instance | IntegerInstance):
    """Return an equivalent instance with m <= n, plus a transposed flag.

    When the flag is True the instance was transposed, and a solution
    (x, y) of the result corresponds to (y, x) of the input with the same
    objective value.
    """
    if inst.m <= inst.n:
        return inst, False
    return transpose_instance(inst), True
