"""Exhaustive solvers.

`solve_oracle` maximizes over all 2^(m+n) assignments and exists purely as
an independent reference for cross-validation.  `solve_enumeration` walks
the 2^m x-vectors in Gray-code order, maintaining column sums in O(n) per
step and completing each x with the closed-form optimal y.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import SolverRefusal
from .model import IntegerInstance, Instance, Solution

DEFAULT_ENUM_LIMIT = 25


def best_y_for_x(
    inst: Instance | IntegerInstance, x: Sequence[int]
) -> tuple[tuple[int, ...], Fraction]:
    """Optimal y for fixed x: y_j = 1 iff sum_i q_ij x_i + d_j > 0.

    Ties (zero coefficient) leave y_j = 0; the value is unaffected.
    Returns (y, objective value).
    """
    work = inst.integer
    if len(x) != work.m:
        raise ValueError(f"x has length {len(x)}, expected {work.m}")
    gains, value = _column_gains(work, x)
    value += sum(g for g in gains if g > 0)
    return tuple(1 if g > 0 else 0 for g in gains), Fraction(value, work.scale)


def _column_gains(work: IntegerInstance, x: Sequence[int]) -> tuple[list[int], int]:
    """(d_j + sum_i q_ij x_i for each j, c.x + c0) at the point x."""
    gains, base = list(work.d), work.c0
    for xi, row, ci in zip(x, work.q, work.c):
        if xi:
            gains = [g + v for g, v in zip(gains, row)]
            base += ci
    return gains, base


def solve_enumeration(
    inst: Instance | IntegerInstance, enum_limit: int = DEFAULT_ENUM_LIMIT
) -> Solution:
    """Optimal solution by enumerating all 2^m x-vectors.

    Gray-code order flips a single x_i per step, so the n column gains
    d_j + sum_i q_ij x_i are updated in O(n) integer operations; total cost
    O(2^m n) after O(mn) setup.  Among optimal x-vectors the
    lexicographically smallest is returned, completed by `best_y_for_x`.
    """
    work = inst.integer
    m = work.m
    if m > enum_limit:
        raise SolverRefusal(
            f"enumeration over 2^{m} x-vectors exceeds enum_limit 2^{enum_limit}; "
            f"raise enum_limit (--enum-limit) to force",
            limit=enum_limit,
            measured=m,
        )
    q, c = work.q, work.c
    gains = list(work.d)
    linear = 0
    mask = 0
    best_value = sum(g for g in gains if g > 0)
    best_mask = 0
    for step in range(1, 1 << m):
        i = (step & -step).bit_length() - 1
        bit = 1 << i
        mask ^= bit
        if mask & bit:
            linear += c[i]
            gains = [g + v for g, v in zip(gains, q[i])]
        else:
            linear -= c[i]
            gains = [g - v for g, v in zip(gains, q[i])]
        value = linear + sum([g for g in gains if g > 0])
        if value > best_value:
            best_value = value
            best_mask = mask
        elif value == best_value:
            # x_i is bit i, so the lexicographically smaller vector is the
            # one without the lowest bit where the two masks differ.
            diff = mask ^ best_mask
            if not mask & diff & -diff:
                best_mask = mask
    x = tuple((best_mask >> i) & 1 for i in range(m))
    y, value = best_y_for_x(work, x)
    return Solution(x, y, value)


def solve_oracle(inst: Instance | IntegerInstance) -> Solution:
    """Reference optimum over all 2^(m+n) assignments.

    Every (x, y) pair's objective is evaluated; no structural shortcut is
    taken.  Intended for cross-validating the specialized solvers on small
    instances.  Pairs are scanned in lexicographic order and the first
    best one is kept, so ties prefer the smallest (x, y).
    """
    work = inst.integer

    def scored():
        for x in product((0, 1), repeat=work.m):
            gains, base = _column_gains(work, x)
            for y in product((0, 1), repeat=work.n):
                yield base + sum(g for g, yj in zip(gains, y) if yj), x, y

    value, x, y = max(scored(), key=lambda item: item[0])
    return Solution(x, y, Fraction(value, work.scale))
