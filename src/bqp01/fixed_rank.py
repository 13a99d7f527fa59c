"""Polynomial solver for instances whose cost matrix has fixed rank p.

With q = left @ right (rank factorization), the objective along the
parameter vector t_k = (k-th column of left).x decomposes into a concave
multiparametric LP over x and a convex completion over y.  The optimum is
attained at an extreme point of a characteristic region of some dual
feasible basis structure of the x-side LP, and every such extreme point is
a binary x-vector with basic entries in {0,1} and nonbasic entries pinned
at their bounds.  Enumerating all C(m,p) candidate bases, resolving each
basis's unique lower/upper split from reduced-cost signs, and emitting the
2^p corner vectors per structure yields a candidate set of at most
C(m,p) * 2^p binary vectors that provably contains an optimal x.

The reduced costs of a basis come from one dual price vector
pi = c_B^T adj(B), computed once per basis, so each nonbasic sign costs
O(p).  Each candidate is the sign vector of a cell of the arrangement of
the m hyperplanes c_i + L_i.u = 0 in R^p, and a cell is the corner of
every basis (vertex) on its boundary, so most candidates repeat; each
distinct x is scored once.

Degenerate (zero) reduced costs are resolved by a symbolic lexicographic
perturbation of the objective vector, c_i -> c_i + eps^i for an
infinitesimal eps: the sign of a reduced cost becomes the sign of the
first nonzero in (base value, perturbation coefficients by variable
index).  The perturbation only selects structures; candidates are always
scored under the original objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import mul
from typing import Sequence

from .analysis import bareiss
from .errors import SolverRefusal
from .model import (
    IntegerInstance,
    Instance,
    Solution,
    clear_denominators,
    freeze_matrix,
    freeze_vector,
)

DEFAULT_P_LIMIT = 6


@dataclass(frozen=True)
class BasisStructure:
    """Partition of x-variables into basic, at-lower-bound, at-upper-bound."""

    basis: tuple[int, ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.basis) + len(self.lower) + len(self.upper)


def integer_inverse(
    rows: Sequence[Sequence[int]],
) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """(det, adj) with adj @ rows == det * I for a square integer matrix.

    :func:`bareiss` on [rows | I] leaves [D I | D rows^-1] with D = |det|,
    so the pair is the determinant and adjugate up to a common sign.  None
    if the matrix is singular; the empty matrix gives (1, ()).
    """
    p = len(rows)
    aug, pivots, det = bareiss(
        [list(row) + [int(i == j) for j in range(p)] for i, row in enumerate(rows)]
    )
    if pivots != list(range(p)):
        return None
    return det, tuple(tuple(row[p:]) for row in aug)


def reduced_cost_sign(
    left: Sequence[Sequence[int]],
    c: Sequence[int],
    basis: Sequence[int],
    det: int,
    adjugate: Sequence[Sequence[int]],
    j: int,
) -> int:
    """Sign (+1 or -1) of the perturbed reduced cost of nonbasic variable j.

    ``(det, adjugate)`` is the :func:`integer_inverse` of the basis matrix,
    so det > 0.  The reduced cost is c_B.w - c_j with w = B^-1 a_j; its
    sign is that of the first nonzero in (reduced cost, perturbation
    coefficients by variable index), the coefficients being w_k at
    basis[k] and -1 at j, so it is never zero.  All are computed times det.
    """
    column = left[j]
    w = [sum(a * v for a, v in zip(row, column)) for row in adjugate]
    base = sum(c[i] * wk for i, wk in zip(basis, w)) - det * c[j]
    if not base:
        coeffs = dict(zip(basis, w))
        coeffs[j] = -det
        base = next(coeffs[i] for i in sorted(coeffs) if coeffs[i])
    return 1 if base > 0 else -1


def enumerate_dual_feasible_bases(
    left: Sequence[Sequence], c: Sequence
) -> list[BasisStructure]:
    """All dual feasible basis structures of the x-side parametric LP.

    ``left`` is the m x p rank factor; its transpose is the constraint
    matrix.  Each nonsingular p-subset of variables yields exactly one
    structure: nonbasic variables go to the lower set on positive reduced
    cost and to the upper set on negative (signs are never zero under the
    symbolic perturbation).  The reduced cost of j times det is
    pi.L_j - det c_j with the basis's price vector pi; only a zero one
    goes to :func:`reduced_cost_sign` for the perturbation's tie rule.
    At most C(m, p) structures are returned.
    Scaling ``left`` and ``c`` to integers keeps every sign.  Raises
    ValueError if no p-subset is nonsingular (column rank below p).
    """
    left = clear_denominators(freeze_matrix(left))[0]
    (c,), _ = clear_denominators([freeze_vector(c)])
    m = len(c)
    if len(left) != m:
        raise ValueError("factor row count must match objective length")
    p = len(left[0]) if left and left[0] else 0
    structures = []
    for basis in combinations(range(m), p):
        inverse = integer_inverse([[left[i][k] for i in basis] for k in range(p)])
        if inverse is None:
            continue
        det, adjugate = inverse
        prices = [
            sum(c[i] * a for i, a in zip(basis, column)) for column in zip(*adjugate)
        ]
        lower, upper = [], []
        basis_set = set(basis)
        for j in range(m):
            if j not in basis_set:
                base = sum(map(mul, prices, left[j])) - det * c[j]
                if not base:
                    base = reduced_cost_sign(left, c, basis, det, adjugate, j)
                (lower if base > 0 else upper).append(j)
        structures.append(BasisStructure(basis, tuple(lower), tuple(upper)))
    if not structures:
        raise ValueError("factor does not have full column rank")
    return structures


def candidates_from_basis(structure: BasisStructure) -> list[tuple[int, ...]]:
    """The 2^p corner x-vectors of a basis structure.

    Basic positions take every 0/1 combination; lower-set positions are 0,
    upper-set positions are 1.  The parameter vector itself is never
    materialized.
    """
    template = [0] * structure.size
    for j in structure.upper:
        template[j] = 1
    result = []
    for corner in product((0, 1), repeat=len(structure.basis)):
        x = list(template)
        for position, bit in zip(structure.basis, corner):
            x[position] = bit
        result.append(tuple(x))
    return result


def _completion(right, d, left, x) -> tuple[tuple[int, ...], object]:
    """Optimal y for fixed x and its gain: y_j = 1 iff coefficient_j > 0,
    with coefficient_j = d_j + sum_k right[k][j] * (left^T x)_k; the gain
    is the sum of the positive coefficients."""
    t = [0] * len(right)
    for xi, row in zip(x, left):
        if xi:
            t = [a + b for a, b in zip(t, row)]
    coeffs = list(d)
    for tk, row in zip(t, right):
        if tk:
            coeffs = [a + tk * b for a, b in zip(coeffs, row)]
    return tuple(1 if v > 0 else 0 for v in coeffs), sum(v for v in coeffs if v > 0)


def complete_y(
    right: Sequence[Sequence[Fraction]],
    d: Sequence[Fraction],
    left: Sequence[Sequence[Fraction]],
    x: Sequence[int],
) -> tuple[int, ...]:
    """Closed-form optimal y for fixed x: y_j = 1 iff its coefficient > 0."""
    return _completion(right, d, left, x)[0]


def solve_fixed_rank(
    inst: Instance | IntegerInstance, p_limit: int = DEFAULT_P_LIMIT
) -> Solution:
    """Optimal solution via basis-structure candidate enumeration.

    Uses the integer rank factorization q = L R / D of
    ``rank_at_most(p_limit)``, refusing once p_limit + 1 pivots are found.
    Enumerates candidate x-vectors from all dual feasible basis structures,
    completes each distinct one with its closed-form y, and returns the best; a
    repeat (the same arrangement cell reached from another basis) is
    counted against the C(m,p) * 2^p bound but not scored again.  Each
    candidate is scored in O((m + n) p) integer operations from
    t = L^T x: D times the objective is D (c.x + c0) plus the positive
    coefficients D d_j + (R^T t)_j.  Ties prefer the lexicographically
    smallest (x, y).
    """
    work = inst.integer
    fact = work.rank_at_most(p_limit)
    if fact is None:
        raise SolverRefusal(
            f"matrix rank > p_limit {p_limit}; raise p_limit (--p-limit) to allow it",
            limit=p_limit,
            measured=p_limit + 1,
        )
    den = fact.denominator
    d = [den * v for v in work.d]
    best: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None
    bound = comb(work.m, fact.p) * (2 ** fact.p)
    count = 0
    seen = set()  # bytes(x), not x: a 0/1 tuple takes 8 bytes a position
    for structure in enumerate_dual_feasible_bases(fact.left, work.c):
        for x in candidates_from_basis(structure):
            count += 1
            key = bytes(x)
            if key in seen:
                continue
            seen.add(key)
            y, gain = _completion(fact.right, d, fact.left, x)
            value = gain + den * (work.c0 + sum(ci for ci, xi in zip(work.c, x) if xi))
            if best is None or value > best[0] or (
                value == best[0] and (x, y) < (best[1], best[2])
            ):
                best = (value, x, y)
    if count > bound:
        raise AssertionError(f"candidate count {count} exceeds C(m,p)*2^p = {bound}")
    assert best is not None
    return Solution(best[1], best[2], Fraction(best[0], den * work.scale))
