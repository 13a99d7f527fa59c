"""O(mn log n) solver for additively decomposable cost matrices.

When q_ij = a_i + b_j the objective collapses onto the pair of cardinalities
K = sum(y), L = sum(x):

    f(x, y) = sum_i (K a_i + c_i) x_i + sum_j (L b_j + d_j) y_j + c0

so for each fixed (K, L) the best x picks the L largest keys K a_i + c_i
and the best y picks the K largest keys L b_j + d_j.  Sorting the keys
alone once per K (resp. L) turns each row of partial optima into a prefix
sum, and the overall optimum is the best of the (n+1)(m+1) combinations.
Indices are recovered only for the winning (K, L).  The scan runs on the
instance's integer form (``Instance.integer``), whose matrix has the
integer decomposition a_i = q_i0, b_j = q_0j - q_00.

Before the scan, gain bounds decide the variables that take the same value
in every optimum (first-order persistency, Hammer, Hansen and Simeone,
Math. Programming 28, 1984).  x_i's gain c_i + sum_j (a_i + b_j) y_j lies
between the sums of its negative and of its positive terms over the free
y_j, and those terms are the free b_j below (above) -a_i: one ``bisect``
into the free b sorted once, with prefix sums.  A lower bound above 0
fixes x_i = 1, an upper bound below 0 fixes x_i = 0, and the y side is
symmetric.  Decided variables fold into the other side's linear terms and
the constant, so the free part is again additive and only it is scanned.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, count
from operator import add, itemgetter

from .analysis import additive_mismatch
from .model import IntegerInstance, Instance, Solution


def solve_additive(inst: Instance | IntegerInstance) -> Solution:
    """Optimal solution of an instance whose matrix is additive.

    Raises ValueError naming the first entry that breaks
    q_ij = a_i + b_j; otherwise runs :func:`cardinality_scan`.
    """
    work = inst.integer
    bad = additive_mismatch(work.q)
    if bad is not None:
        raise ValueError(f"matrix is not additively decomposable: mismatch at {bad}")
    return cardinality_scan(work)


def cardinality_scan(work: IntegerInstance) -> Solution:
    """The solve itself, on an integer instance already known to be additive.

    Ties between (K, L) pairs prefer the smallest K, then the smallest L.
    The winning pair's selections then have no tie at their cut, since
    dropping a tied key would give an earlier pair just as good.  The
    persistency pass keeps this answer: it decides only variables that
    every optimum shares, so the optimal pairs of the free part are those
    of the whole shifted by constants, in the same order.
    """
    a = [row[0] for row in work.q]
    b = [v - work.q[0][0] for v in work.q[0]]
    c, d, c0 = list(work.c), list(work.d), work.c0
    x, y = [None] * work.m, [None] * work.n
    rows, cols = list(range(work.m)), list(range(work.n))
    sides = ((x, rows, a, c, cols, b, d), (y, cols, b, d, rows, a, c))
    for turn in count():
        side = sides[turn % 2]
        left = len(side[1])
        c0 += _fix_side(*side)
        # A side that decides nothing leaves the other side's bounds as
        # they were when it last ran, so neither side can decide more.
        if turn and len(side[1]) == left:
            break
    sub_x, sub_y, total = _scan(
        [a[i] for i in rows], [b[j] for j in cols], [c[i] for i in rows], [d[j] for j in cols]
    )
    for vals, free, sub in ((x, rows, sub_x), (y, cols, sub_y)):
        for k, v in zip(free, sub):
            vals[k] = v
    return Solution(tuple(x), tuple(y), Fraction(total + c0, work.scale))


def _fix_side(vals, own, rates, offsets, other, other_rates, other_offsets) -> int:
    """Decide the free variables ``own`` of one side by strict gain bounds.

    Variable p's gain is offsets[p] + sum over the free ``other`` of
    rates[p] + other_rates[k].  Decided indices leave ``own`` (in order) and
    get their value in ``vals``; those decided 1 fold into
    ``other_offsets``.  Returns the constant they fold in.
    """
    ranked = sorted(other_rates[k] for k in other)
    prefix = list(accumulate(ranked, initial=0))
    width, total = len(ranked), prefix[-1]
    ones, free = [], []
    for p in own:
        r, o = rates[p], offsets[p]
        below = bisect_left(ranked, -r)
        if o + below * r + prefix[below] > 0:
            vals[p] = 1
            ones.append(p)
            continue
        above = bisect_right(ranked, -r)
        if o + (width - above) * r + total - prefix[above] < 0:
            vals[p] = 0
        else:
            free.append(p)
    own[:] = free
    if ones:
        size, shift = len(ones), sum(rates[p] for p in ones)
        for k in other:
            other_offsets[k] += shift + size * other_rates[k]
    return sum(offsets[p] for p in ones)


def _scan(a: list[int], b: list[int], c: list[int], d: list[int]):
    """(x, y, value) of the cardinality scan on q_ij = a_i + b_j with linear
    terms c and d and no constant; the tie rule is :func:`cardinality_scan`'s."""
    # y_sums[L][K]: the best y-side value with L rows and K columns chosen.
    y_sums = [_best_sums(_keys(L, b, d)) for L in range(len(a) + 1)]
    best_total, best_k, best_l = None, 0, 0
    for K in range(len(b) + 1):
        totals = list(map(add, _best_sums(_keys(K, a, c)), map(itemgetter(K), y_sums)))
        total = max(totals)
        if best_total is None or total > best_total:
            best_total, best_k, best_l = total, K, totals.index(total)
    return _top(best_l, _keys(best_k, a, c)), _top(best_k, _keys(best_l, b, d)), best_total


def _keys(count: int, rates: list[int], offsets: list[int]) -> list[int]:
    """The selection keys count * rate + offset, one per variable."""
    return [count * r + o for r, o in zip(rates, offsets)]


def _best_sums(keys: list[int]) -> list[int]:
    """Entry t is the largest sum of t of the keys."""
    return list(accumulate(sorted(keys, reverse=True), initial=0))


def _top(count: int, keys: list[int]) -> tuple[int, ...]:
    """0-1 indicator of the ``count`` largest keys; the stable sort prefers smaller indices."""
    chosen = set(sorted(range(len(keys)), key=lambda i: -keys[i])[:count])
    return tuple(int(i in chosen) for i in range(len(keys)))
