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

Bases are visited depth-first in `combinations` order.  The walk keeps
the minors of the chosen rows of V = [L | c] on every subset of V's p + 1
columns and extends them by Laplace expansion along each added row, so
it never divides.  At a basis B the signed cofactors gamma of a (p+1)-th
row give det [V_B; V_j] = gamma.V_j, which is 0 at basic j, and
gamma_p = det(L_B).  Scaled to gamma_p = -|det(L_B)|, gamma is therefore
(pi, -|det|) with pi the basis's dual price vector c_B^T adj(L_B^T), and
the det-scaled reduced cost pi.L_j - |det| c_j of every j is gamma.V_j
up to sign.  The p + 1 columns of V's cofactor rows are packed once per
call, each into one int of byte-aligned fields wide enough for the
a-priori bound (p + 1) (ceil(sqrt p) max|V|)^p max|V| on |gamma.V_j|
(Lamport's packing, as in `enumeration`), so all m reduced costs of a
basis are the fields of one sum of p + 1 big-int products, and the top
bytes of that sum, and of it minus one per field, are the masks of the
costs >= 0 and > 0.  The interior nodes are at most the sum over k < p
of C(m, k) row subsets; a basis costs (p + 1) p multiplies for its
cofactors, p + 1 packed multiply-adds and two byte reads.

Each candidate is the sign vector of a cell of the arrangement of the m
hyperplanes c_i + L_i.u = 0 in R^p, the cells that Allemand, Fukuda,
Liebling & Steiner (Math. Programming 91, 2001) enumerate for fixed-rank
0-1 quadratic programs.  A cell is the corner of every basis (vertex) on
its boundary, so most candidates repeat; candidates are kept as int masks
and each distinct x is scored once, on the packed column gains of
`enumeration.pack_column_gains`.

Degenerate (zero) reduced costs are resolved by a symbolic lexicographic
perturbation of the objective vector, c_i -> c_i + eps^i for an
infinitesimal eps: the sign of a reduced cost becomes the sign of the
first nonzero in (base value, perturbation coefficients by variable
index).  The perturbation only selects structures; candidates are always
scored under the original objective.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import combinations, product
from math import comb, isqrt
from operator import itemgetter, mul, neg

from .analysis import _row_reduce
from .enumeration import best_y_for_x, pack_column_gains, pack_fields
from .errors import DEFAULT_P_LIMIT, SolverRefusal
from .model import (
    IntegerInstance,
    Instance,
    Record,
    Solution,
    _freeze_rows,
    _pair,
    _scale_pairs,
    clear_denominators,
)


class BasisStructure(Record):
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

    :func:`~bqp01.analysis._row_reduce` on [rows | I] leaves
    [D I | D rows^-1] with D = |det|, so the pair is the determinant and
    adjugate up to a common sign.  A singular matrix puts a pivot in the
    I block: None.  The empty matrix gives (1, ()).  [rows | I] has rank
    p, so the rank <= 1 pass could answer only p <= 1, where the
    elimination is one step: it is skipped.
    """
    p = len(rows)
    aug, pivots, det = _row_reduce(
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


def _laplace_terms(p: int) -> list[list[tuple]]:
    """Getters that extend the minors of k chosen rows of V = [L | c].

    Entry k lists, for each (k+1)-subset T of V's p + 1 columns in
    `combinations` order, a getter on a new row followed by its negation
    and one on the k-row minors (in the same order) whose products sum to
    the Laplace expansion of the minor on T along the new, last row.
    """
    width = p + 1

    def getter(indices):
        return itemgetter(*indices) if len(indices) > 1 else lambda seq: (seq[indices[0]],)

    levels = []
    for k in range(p):
        index = {s: i for i, s in enumerate(combinations(range(width), k))}
        levels.append([
            (
                getter([col + width * ((k + pos) % 2) for pos, col in enumerate(target)]),
                getter([index[target[:pos] + target[pos + 1:]] for pos in range(k + 1)]),
            )
            for target in combinations(range(width), k + 1)
        ])
    return levels


# A field's top byte read as one character, "1" when its top bit is set.
# With m = 0 the read is empty, and `or b"0"` makes it the empty mask.
_TOP_BIT = b"0" * 128 + b"1" * 128


def _dual_feasible_bases(
    left: Sequence[Sequence[int]], c: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(basis, upper mask) of every dual feasible basis structure, over ints.

    Bases come in `combinations` order from a depth-first walk that keeps
    the minors of the chosen rows of V = [left | c].  Bit j of the mask is
    set when nonbasic j is at its upper bound; the rest of the nonbasic
    variables are at their lower bounds.  The p + 1 cofactor columns of V
    are packed once, each as one int of byte-aligned W-bit fields, so at a
    basis with cofactors gamma, P = bias + sum_k gamma_k col_k holds
    gamma.V_j + 2^(W-1) in field j, and the top bits of P and of P - ones
    are the masks of gamma.V_j >= 0 and > 0.  Raises ValueError if no
    p-subset is nonsingular.
    """
    m = len(c)
    p = len(left[0]) if left and left[0] else 0
    rows = [(*row, ci) for row, ci in zip(left, c)]
    signed = [row + tuple(map(neg, row)) for row in rows]
    # The p-row minors leave out column p, p - 1, ..., 0 in turn, so the
    # cofactors gamma of a further row are the minors times the signs of
    # column k, (-1)^k V_j,p-k.  Each minor is at most (sqrt(p) max|V|)^p
    # by Hadamard's inequality, so with two spare bits every field of P and
    # of P - ones stays in [1, 2^W): none borrows from or carries into its
    # neighbour.  Columns are packed raised by max|V|, then lowered.
    largest = max([abs(v) for row in rows for v in row], default=0)
    bound = (p + 1) * ((isqrt(p - 1) + 1 if p else 0) * largest) ** p * largest
    size = (bound.bit_length() + 9) // 8
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * m, "little")
    lowered = largest * ones
    columns = [
        pack_fields([(-1) ** k * row[p - k] for row in rows], size, largest) - lowered
        for k in range(p + 1)
    ]
    bias, length, full = ones << 8 * size - 1, m * size, (1 << m) - 1
    levels = _laplace_terms(p)
    found = False
    # Depth-first, children pushed in reverse: bases pop in combinations order.
    stack = [((), 0, (1,))]
    while stack:
        basis, chosen, minors = stack.pop()
        k = len(basis)
        if k < p:
            terms = levels[k]
            for r in reversed(range(basis[-1] + 1 if basis else 0, m - p + k + 1)):
                row = signed[r]
                extended = [sum(map(mul, cols(row), sub(minors))) for cols, sub in terms]
                stack.append(((*basis, r), chosen | 1 << r, extended))
            continue
        # minors[0] = gamma_p = det(L_B), and gamma.V_j is -sign(det) times
        # the reduced cost of j times |det|, which is 0 at basic j.
        det = minors[0]
        if not det:
            continue
        packed = sum(map(mul, minors, columns), bias)
        ge = int(packed.to_bytes(length, "big")[::size].translate(_TOP_BIT) or b"0", 2)
        gt = int((packed - ones).to_bytes(length, "big")[::size].translate(_TOP_BIT) or b"0", 2)
        upper = gt if det > 0 else full ^ ge
        ties = (ge ^ gt) & ~chosen
        if ties:
            # A nonbasic zero: the tie rule needs the basis inverse.
            inverse = integer_inverse([[left[i][col] for i in basis] for col in range(p)])
            while ties:
                bit = ties & -ties
                ties ^= bit
                if reduced_cost_sign(left, c, basis, *inverse, bit.bit_length() - 1) < 0:
                    upper |= bit
        found = True
        yield basis, upper
    if not found:
        raise ValueError("factor does not have full column rank")


def enumerate_dual_feasible_bases(
    left: Sequence[Sequence], c: Sequence
) -> list[BasisStructure]:
    """All dual feasible basis structures of the x-side parametric LP.

    ``left`` is the m x p rank factor; its transpose is the constraint
    matrix.  Each nonsingular p-subset of variables yields exactly one
    structure: nonbasic variables go to the lower set on positive reduced
    cost and to the upper set on negative (signs are never zero under the
    symbolic perturbation).  The structures are those of the basis walk
    that :func:`solve_fixed_rank` runs, in `combinations` order; only a
    zero reduced cost at a nonbasic j goes to :func:`reduced_cost_sign`
    for the perturbation's tie rule.  At most C(m, p) structures are
    returned.  Scaling ``left`` and ``c`` to integers keeps every sign.
    Raises ValueError if no p-subset is nonsingular (column rank below p).
    """
    left, flags = _freeze_rows(left)
    left = _scale_pairs(list(map(_pair, left, flags)))[0]
    (c,), _ = clear_denominators([c])
    m = len(c)
    if len(left) != m:
        raise ValueError("factor row count must match objective length")
    structures = []
    for basis, upper in _dual_feasible_bases(left, c):
        lower = [j for j in range(m) if not upper >> j & 1 and j not in basis]
        uppers = [j for j in range(m) if upper >> j & 1]
        structures.append(BasisStructure(basis, tuple(lower), tuple(uppers)))
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


def complete_y(
    right: Sequence[Sequence[Fraction]],
    d: Sequence[Fraction],
    left: Sequence[Sequence[Fraction]],
    x: Sequence[int],
) -> tuple[int, ...]:
    """Closed-form optimal y for fixed x: y_j = 1 iff its coefficient
    d_j + sum_k right[k][j] * (left^T x)_k is positive."""
    t = [0] * len(right)
    for xi, row in zip(x, left):
        if xi:
            t = [a + b for a, b in zip(t, row)]
    coeffs = list(d)
    for tk, row in zip(t, right):
        if tk:
            coeffs = [a + tk * b for a, b in zip(coeffs, row)]
    return tuple(1 if v > 0 else 0 for v in coeffs)


def _best_corner(work: IntegerInstance, corners: set[int]) -> int:
    """The best of the distinct corners, as x masks (x_i = bit i).

    Each is scored as c.x plus its positive column gains
    d_j + sum_i q_ij x_i, packed by `enumeration.pack_column_gains`:
    one packed add per set bit.  Ties go to the lexicographically
    smallest x.
    """
    rows, start, top, shift, low, modulus = pack_column_gains(work)
    c = work.c
    best_value, best = None, 0
    for mask in corners:
        packed, linear, rest = start, 0, mask
        while rest:
            bit = rest & -rest
            i = bit.bit_length() - 1
            packed += rows[i]
            linear += c[i]
            rest ^= bit
        value = linear + (packed & ((packed & top) >> shift) * low) % modulus
        if best_value is None or value > best_value:
            best_value, best = value, mask
        elif value == best_value:
            # The lexicographically smaller x lacks the lowest bit where
            # the two masks differ.
            diff = mask ^ best
            if not mask & diff & -diff:
                best = mask
    return best


def solve_fixed_rank(
    inst: Instance | IntegerInstance, p_limit: int = DEFAULT_P_LIMIT
) -> Solution:
    """Optimal solution via basis-structure candidate enumeration.

    Uses the left factor of the integer rank factorization of
    ``rank_at_most(p_limit)``, refusing once p_limit + 1 independent rows
    are found.  Collects the corner x-vectors of all dual feasible basis
    structures as int masks; a repeat (the same arrangement cell reached
    from another basis) is counted against the C(m,p) * 2^p bound but
    scored once.  Each distinct corner is scored on q's packed column
    gains, and only the best is completed with its closed-form y.  Ties
    prefer the lexicographically smallest x, and so the smallest (x, y).
    """
    work = inst.integer
    fact = work.rank_at_most(p_limit)
    if fact is None:
        raise SolverRefusal(
            f"matrix rank > p_limit {p_limit}; raise p_limit (--p-limit) to allow it",
            limit=p_limit,
            measured=p_limit + 1,
        )
    bound = comb(work.m, fact.p) * (2 ** fact.p)
    count = 0
    corners = set()
    for basis, upper in _dual_feasible_bases(fact.left, work.c):
        corners_of_basis = [upper]
        for i in basis:
            corners_of_basis += [s | 1 << i for s in corners_of_basis]
        corners.update(corners_of_basis)
        count += len(corners_of_basis)
    if count > bound:
        raise AssertionError(f"candidate count {count} exceeds C(m,p)*2^p = {bound}")
    best = _best_corner(work, corners)
    x = tuple((best >> i) & 1 for i in range(work.m))
    y, value = best_y_for_x(work, x)
    return Solution(x, y, value)
