"""O(mn log n) solver for additively decomposable cost matrices.

When q_ij = a_i + b_j the objective collapses onto the pair of cardinalities
K = sum(y), L = sum(x):

    f(x, y) = sum_i (K a_i + c_i) x_i + sum_j (L b_j + d_j) y_j + c0

so for each fixed (K, L) the best x picks the L largest keys K a_i + c_i
and the best y picks the K largest keys L b_j + d_j.  Sorting the keys once
per K (resp. L) makes each row of partial optima a prefix-sum scan, and the
overall optimum is the best of the (n+1)(m+1) combinations.  The scan runs
on the instance's integer form (``Instance.integer``), whose matrix has the
integer decomposition a_i = q_i0, b_j = q_0j - q_00.
"""

from __future__ import annotations

from fractions import Fraction

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

    Ties between (K, L) pairs prefer the smallest K, then the smallest L;
    ties inside a sort prefer smaller indices.
    """
    m, n = work.m, work.n
    ia = [row[0] for row in work.q]
    ib = [v - work.q[0][0] for v in work.q[0]]
    ic, id_ = work.c, work.d

    # y-side prefix table: row L holds, for each K, the best sum of K keys
    # L*b_j + d_j; (m+1) rows of (n+1) prefix sums.
    y_table: list[list[int]] = []
    for L in range(m + 1):
        pairs = [(-(L * ib[j] + id_[j]), j) for j in range(n)]
        pairs.sort()
        prefix = [0] * (n + 1)
        acc = 0
        for K in range(n):
            acc -= pairs[K][0]
            prefix[K + 1] = acc
        y_table.append(prefix)

    best_total: int | None = None
    best_k = 0
    best_l = 0
    for K in range(n + 1):
        pairs = [(-(K * ia[i] + ic[i]), i) for i in range(m)]
        pairs.sort()
        x_prefix = 0
        for L in range(m + 1):
            if L > 0:
                x_prefix -= pairs[L - 1][0]
            total = x_prefix + y_table[L][K]
            if best_total is None or total > best_total:
                best_total = total
                best_k = K
                best_l = L
    assert best_total is not None

    x_pairs = [(-(best_k * ia[i] + ic[i]), i) for i in range(m)]
    x_pairs.sort()
    x = [0] * m
    for _, i in x_pairs[:best_l]:
        x[i] = 1
    y_pairs = [(-(best_l * ib[j] + id_[j]), j) for j in range(n)]
    y_pairs.sort()
    y = [0] * n
    for _, j in y_pairs[:best_k]:
        y[j] = 1

    value = Fraction(best_total + work.c0, work.scale)
    return Solution(tuple(x), tuple(y), value)
