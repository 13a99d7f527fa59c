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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
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
    """The scan itself, on an integer instance already known to be additive.

    Ties between (K, L) pairs prefer the smallest K, then the smallest L.
    The winning pair's selections then have no tie at their cut, since
    dropping a tied key would give an earlier pair just as good.
    """
    ia = [row[0] for row in work.q]
    ib = [v - work.q[0][0] for v in work.q[0]]
    # y_sums[L][K]: the best y-side value with L rows and K columns chosen.
    y_sums = [_best_sums(_keys(L, ib, work.d)) for L in range(work.m + 1)]
    best_total, best_k, best_l = None, 0, 0
    for K in range(work.n + 1):
        totals = list(map(add, _best_sums(_keys(K, ia, work.c)), map(itemgetter(K), y_sums)))
        total = max(totals)
        if best_total is None or total > best_total:
            best_total, best_k, best_l = total, K, totals.index(total)
    x = _top(best_l, _keys(best_k, ia, work.c))
    y = _top(best_k, _keys(best_l, ib, work.d))
    return Solution(x, y, Fraction(best_total + work.c0, work.scale))


def _keys(count: int, rates: list[int], offsets: tuple[int, ...]) -> list[int]:
    """The selection keys count * rate + offset, one per variable."""
    return [count * r + o for r, o in zip(rates, offsets)]


def _best_sums(keys: list[int]) -> list[int]:
    """Entry t is the largest sum of t of the keys."""
    return list(accumulate(sorted(keys, reverse=True), initial=0))


def _top(count: int, keys: list[int]) -> tuple[int, ...]:
    """0-1 indicator of the ``count`` largest keys; the stable sort prefers smaller indices."""
    chosen = set(sorted(range(len(keys)), key=lambda i: -keys[i])[:count])
    return tuple(int(i in chosen) for i in range(len(keys)))
