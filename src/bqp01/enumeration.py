"""Exhaustive solvers.

`solve_oracle` maximizes over all 2^(m+n) assignments and exists purely as
an independent reference for cross-validation.  `solve_enumeration` walks
the 2^m x-vectors in Gray-code order and completes the best x with the
closed-form optimal y.

The walk keeps the n column gains g_j = d_j + sum_i q_ij x_i in one int of
W-bit fields, so a step is one big-int add and the positive sum a few
whole-int operations ("SIMD within a register": Lamport, "Multiple byte
processing with full-word instructions", CACM 18(8), 1975; Warren,
*Hacker's Delight*, ch. 5).  With B = max_j (|d_j| + sum_i |q_ij|), which
bounds every |g_j|, and w = bitlen(B) + 2, field j holds g_j + 2^(w-1),
which stays in [1, 2^w): no field borrows from or carries into its
neighbour.  A field's top bit is then set exactly when g_j >= 0, and its
low w - 1 bits are g_j, so the positive gains are the fields masked to
those bits, summed by one reduction modulo 2^W - 1 (2^W is 1 modulo
2^W - 1).  W = 8 ceil((w + bitlen(n) + 1) / 8) keeps the sum of n fields
below the modulus.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import product
from operator import add

from .errors import DEFAULT_ENUM_LIMIT, SolverRefusal
from .model import IntegerInstance, Instance, Solution


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


def pack_fields(values: Sequence[int], size: int, offset: int) -> int:
    """sum_j (values[j] + offset) 2^(8 size j), each 0 <= values[j] + offset
    < 2^(8 size): the raised values as fields of ``size`` bytes, joined."""
    return int.from_bytes(
        b"".join([(v + offset).to_bytes(size, "little") for v in values]), "little"
    )


def pack_column_gains(work: IntegerInstance) -> tuple[list[int], int, int, int, int, int]:
    """The packing of the n column gains d_j + sum_i q_ij x_i into one int.

    Returns (rows, packed, top, shift, low, modulus): rows[i] is row i of q
    as one signed int of W-bit fields, packed holds the gains at x = 0
    (each field raised by 2^(w-1)), and a packed P = packed + sum of the
    rows of the set x_i has positive gain sum
    (P & ((P & top) >> shift) * low) % modulus.
    """
    q, d = work.q, work.d
    bound = max(map(add, map(abs, d), (sum(map(abs, col)) for col in zip(*q))))
    shift = bound.bit_length() + 1
    bias = 1 << shift
    size = (shift + work.n.bit_length() + 9) // 8
    unit = int.from_bytes((b"\1" + bytes(size - 1)) * work.n, "little")
    # rows[i] is sum_j q_ij 2^(jW): packed with each entry raised by the
    # bound to make it nonnegative, then lowered as one int.
    lowered = bound * unit
    rows = [pack_fields(row, size, bound) - lowered for row in q]
    return rows, pack_fields(d, size, bias), bias * unit, shift, bias - 1, (1 << 8 * size) - 1


def solve_enumeration(
    inst: Instance | IntegerInstance, enum_limit: int = DEFAULT_ENUM_LIMIT
) -> Solution:
    """Optimal solution by enumerating all 2^m x-vectors.

    Gray-code order flips a single x_i per step, so the packed column
    gains d_j + sum_i q_ij x_i take one big-int add of a packed row, and
    their positive sum a mask and one reduction; total cost O(2^m n W)
    bit operations, done a machine word at a time, after O(mn) setup.
    Among optimal x-vectors the lexicographically smallest is returned,
    completed by `best_y_for_x`.
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
    c, d = work.c, work.d
    rows, packed, top, shift, low, modulus = pack_column_gains(work)
    linear = 0
    mask = 0
    best_value = sum(g for g in d if g > 0)
    best_mask = 0
    for step in range(1, 1 << m):
        i = (step & -step).bit_length() - 1
        bit = 1 << i
        mask ^= bit
        if mask & bit:
            linear += c[i]
            packed += rows[i]
        else:
            linear -= c[i]
            packed -= rows[i]
        # Mask each field with g_j >= 0 to its low bits, g_j, and sum.
        value = linear + (packed & ((packed & top) >> shift) * low) % modulus
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
