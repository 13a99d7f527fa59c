"""Structure detection for cost matrices.

Four detectors drive solver selection: the rank, by fraction-free
elimination (Bareiss), additive decomposability q_ij = a_i + b_j,
entrywise nonnegativity, and the minimum set of rows/columns whose
deletion removes all negative entries (a minimum vertex cover of the
negativity graph, read off a minimum cut of its unit flow network on the
shared Dinic core of ``mincut``).  Dispatch routes on
``IntegerInstance.rank_at_most``, which asks one fact at a time: a
matrix of rank at most one needs no elimination, since :func:`_rank_one`
recognises it in one pass that compares each row with a multiple of the
first pivot's row; otherwise :func:`_row_basis` reduces the rows in order
and stops at its limit's next independent row, and only the few basis
rows it finds are eliminated to reduced row echelon form.  The two
one-pass detectors, :func:`_rank_one` and :func:`additive_mismatch`, key
each row that passes by its multiplier or its shift; two rows that pass
with one key are equal, so a row with a key seen before is checked by one
tuple compare with the row stored under it, and only a new key costs an
entrywise test.
``rank_factorize`` factors any matrix in full, by :func:`bareiss`.  The
detectors take a matrix of exact rationals as it is; dispatch passes
them ints.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import countOf, floordiv, mul, sub

from .model import Record, _freeze_rows, _pair, _scale_pairs


class RankFactorization(Record):
    """Exact factorization q = left @ right / denominator, p = rank(q).

    ``left`` is m x p (the pivot columns of q, so it has full column rank)
    and ``right`` is p x n (denominator times the nonzero rows of the
    reduced row echelon form, so it has full row rank).  Rational factors
    have denominator 1.  ``IntegerInstance.rank_at_most`` returns all-int
    ones whose denominator is |det| of the pivot minor of the basis rows
    it eliminated: the pivot row for rank one, the rows ``_row_basis``
    kept otherwise.
    """

    p: int
    left: tuple[tuple[Fraction, ...], ...]
    right: tuple[tuple[Fraction, ...], ...]
    denominator: int = 1


class AdditiveDecomposition(Record):
    """Vectors with q_ij = row_offsets[i] + col_offsets[j] for all i, j."""

    row_offsets: tuple[Fraction, ...]
    col_offsets: tuple[Fraction, ...]


class Eliminator(Record):
    """Rows and columns whose deletion leaves the matrix nonnegative.

    Produced minimum-size: len(rows) + len(cols) equals the maximum
    matching size of the bipartite negativity graph (König's theorem).
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.rows) + len(self.cols)


def bareiss(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (rows, pivots, det) with rows = det * RREF(matrix) and det > 0
    (+-det of the pivot minor; 1 if there is no pivot).  Pivots take the
    first nonzero entry in column order.  Each step replaces every other
    row by (pivot * row - factor * pivot row) / previous pivot; by
    Sylvester's identity the division is exact and every entry is a minor
    of the input (Bareiss, Math. Comp. 22, 1968), so no fractions arise.
    A matrix of rank at most one is answered without elimination, by
    :func:`_rank_one`, with the zero rows elimination would leave below
    its pivot row; the result is the same.
    """
    found = _rank_one(matrix)
    if found is None:
        return _eliminate(matrix)
    rows, pivots, det = found
    zeros = ([0] * len(row) for row in matrix[len(rows):])
    return [*rows, *zeros], pivots, det


def _eliminate(matrix: Sequence[Sequence[int]]):
    """:func:`bareiss` without the rank <= 1 pass, for a caller that knows
    the pass cannot save an elimination."""
    rows = [list(row) for row in matrix]
    m = len(rows)
    pivots: list[int] = []
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        pivot = top[col]
        for i, row in enumerate(rows):
            factor = row[col]
            if i != r and (factor or pivot != prev):
                # Rows below the pivot are zero left of col.
                lo = col if i > r else 0
                row[lo:] = [(pivot * a - factor * b) // prev for a, b in zip(row[lo:], top[lo:])]
        pivots.append(col)
        prev = pivot
    if prev < 0:
        return [[-v for v in row] for row in rows], pivots, -prev
    return rows, pivots, prev


def _row_basis(matrix: Sequence[Sequence[int]], max_pivots: int):
    """The rows of matrix, in order, that the rows before them do not
    span, or None as soon as ``max_pivots`` of them are found.

    A fraction-free forward elimination driven by rows: each row is
    brought through the pivot steps recorded so far, (pivot * row -
    factor * pivot row) / previous pivot, exact as in :func:`_eliminate`
    because each step is a Bareiss step of the matrix with the pivot rows
    first.  A nonzero remainder makes the row a basis row, its first
    nonzero entry the next pivot.  So rank >= max_pivots is proved after
    reading only the rows up to the max_pivots-th independent one, in
    about max_pivots^2 n / 2 steps.  The basis spans the row space, so
    its RREF is the matrix's.
    """
    basis: list[Sequence[int]] = []
    steps: list[tuple[Sequence[int], int, int]] = []  # (pivot row, column, pivot)
    for row in matrix:
        v, prev = row, 1
        for top, col, pivot in steps:
            factor = v[col]
            if factor:
                v = [(pivot * a - factor * b) // prev for a, b in zip(v, top)]
            elif pivot != prev:
                v = [pivot * a // prev for a in v]
            prev = pivot
        if not any(v):
            continue
        if len(basis) + 1 == max_pivots:
            return None
        basis.append(row)
        col = v.index(next(filter(None, v)))  # entries before it are zero
        steps.append((v, col, v[col]))
    return basis


def _rank_one(matrix: Sequence[Sequence[int]]):
    """:func:`bareiss`'s result without its zero rows when rank(matrix) <= 1, else None.

    The first pivot is found as the elimination finds it, and its row
    divided by its gcd is a primitive row t.  An integer row is a rational
    multiple of t only as an integer multiple, so the rank is at most one
    exactly when every row equals t times its own entry in the pivot
    column over t's, its multiplier, stopping at the first row that
    differs.  Two rows that pass with one multiplier are equal, so a row
    whose multiplier an earlier row passed with is compared with that row
    alone; only a new multiplier, or a row unequal to its stored one, pays
    a ``map`` for the product.  Rows are compared as tuples, so list and
    tuple rows mix.  Elimination would leave the pivot row,
    sign-normalised, above m - 1 zero rows, with |pivot| the determinant;
    only the pivot row is returned, and no row for a zero matrix.
    """
    n = len(matrix[0]) if matrix else 0
    first = next(((row, col) for col in range(n) for row in matrix if row[col]), None)
    if first is None:
        return [], [], 1
    top, col = first
    pivot = top[col]
    t = tuple(map(floordiv, top, repeat(gcd(*top))))
    lead = t[col]
    passed = {}  # multiplier -> the first row that passed with it
    for row in matrix:
        row = tuple(row)
        k = row[col] // lead
        if passed.get(k) != row:
            if tuple(map(mul, t, repeat(k))) != row:
                return None
            passed[k] = row
    return [list(top) if pivot > 0 else [-v for v in top]], [col], abs(pivot)


def rank_factorize(matrix: Sequence[Sequence]) -> RankFactorization:
    """Factor q = left @ right with p = rank(q), both factors exact.

    left collects the pivot columns of q; right collects the nonzero rows
    of RREF(q), which :func:`bareiss` gives times its determinant on the
    integer-scaled matrix.  A zero matrix yields p = 0 with empty factors.
    """
    q, flags = _freeze_rows(matrix)
    rows, pivots, det = bareiss(_scale_pairs(list(map(_pair, q, flags)))[0])
    left = tuple(tuple(row[col] for col in pivots) for row in q)
    right = tuple(tuple(Fraction(v, det) for v in row) for row in rows[: len(pivots)])
    return RankFactorization(len(pivots), left, right)


def additive_mismatch(q: Sequence[Sequence]) -> tuple[int, int] | None:
    """First (i, j) with q_ij - q_i0 - q_0j + q_00 != 0, else None.

    None exactly when q_ij = a_i + b_j for some vectors a and b.  Two rows
    that pass with one shift q_i0 - q_00 are equal, so a row whose shift
    an earlier row passed with (row 0 with shift 0) passes when it equals
    that row: one compare, pointer-fast on small ints, and one hash of the
    shift.  Any other row is tested at C speed, by counting the
    q_ij - q_0j equal to its shift, with no set, and a row that fails is
    walked to find its first mismatching entry, so the stored rows never
    change the answer.
    """
    top = q[0]
    base = top[0]
    n = len(top)
    passed = {0: top}  # shift -> a row that passed with it
    for i in range(1, len(q)):
        row = q[i]
        shift = row[0] - base
        if passed.get(shift) != row:
            if countOf(map(sub, row, top), shift) != n:
                for j, (v, t) in enumerate(zip(row, top)):
                    if v != t + shift:
                        return (i, j)
            passed[shift] = row
    return None


def detect_additive(matrix: Sequence[Sequence]) -> AdditiveDecomposition | None:
    """Recover q_ij = a_i + b_j if possible, else None.

    Convention: a_i = q_i0 and b_j = q_0j - q_00, which exists exactly when
    every 2x2 minor of the shifted matrix vanishes:
    q_ij - q_i0 - q_0j + q_00 = 0.  Any other decomposition differs by a
    constant shift between the two vectors.
    """
    if additive_mismatch(matrix) is not None:
        return None
    base = matrix[0][0]
    return AdditiveDecomposition(
        tuple(row[0] for row in matrix), tuple(v - base for v in matrix[0])
    )


def detect_nonnegative(matrix: Sequence[Sequence]) -> bool:
    """True iff every entry of the matrix is >= 0.

    One C-level ``min`` per row, stopping at the first row with a negative.
    """
    return all(min(row, default=0) >= 0 for row in matrix)


def min_negative_eliminator(matrix: Sequence[Sequence]) -> Eliminator:
    """Minimum row/column set covering all negative entries.

    By König's theorem this minimum vertex cover of the negativity graph is
    a minimum cut of the unit network source -> row i -> column j -> sink,
    with one row-column arc per negative q_ij.  Dinic finds the maximum
    flow in O(E sqrt(V)) on such a network (Even and Tarjan, SIAM J.
    Comput. 4, 1975), and its last BFS gives the cover: the rows the source
    cannot reach and the columns it can.  The source reaches exactly the
    nodes on alternating paths from unmatched rows, a set that is the same
    for every maximum matching, so the cover does not depend on which one
    the flow finds.
    """
    from .mincut import _FlowGraph  # mincut imports analysis

    m, n = len(matrix), len(matrix[0])
    arcs = [(0, 2 + i, 1) for i in range(m)] + [(2 + m + j, 1, 1) for j in range(n)]
    arcs += [
        (2 + i, 2 + m + j, 1) for i, row in enumerate(matrix) for j, v in enumerate(row) if v < 0
    ]
    graph = _FlowGraph(2 + m + n, 0, 1, arcs)
    size = graph.augment()
    level = graph.level
    elim = Eliminator(
        tuple(i for i in range(m) if level[2 + i] < 0),
        tuple(j for j in range(n) if level[2 + m + j] >= 0),
    )
    if elim.size != size:
        raise AssertionError("vertex cover size disagrees with flow value")
    return elim
