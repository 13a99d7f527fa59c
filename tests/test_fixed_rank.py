import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from bqp01 import (
    BasisStructure,
    Instance,
    Solution,
    SolverRefusal,
    SplitMix64,
    best_y_for_x,
    dispatch_solve,
    enumerate_dual_feasible_bases,
    evaluate_objective,
    rank_factorize,
    solve_enumeration,
    solve_fixed_rank,
    solve_rank_one,
    RankOneForm,
    generate_instance,
)
from bqp01 import fixed_rank
from bqp01.fixed_rank import (
    candidates_from_basis,
    integer_inverse,
    reduced_cost_sign,
)
from bqp01.fixtures import sample_additive, sample_rank_one
from bqp01.model import clear_denominators

from conftest import (
    exhaustive_best,
    random_matrix,
    random_rank_one_instance,
    random_vector,
)


def random_rank_p_instance(rng, m, n, p):
    assert p <= min(m, n)
    while True:
        left = random_matrix(rng, m, p, -4, 4)
        right = random_matrix(rng, p, n, -4, 4)
        q = [
            [sum(left[i][k] * right[k][j] for k in range(p)) for j in range(n)]
            for i in range(m)
        ]
        if rank_factorize(q).p == p:
            return Instance(
                q, random_vector(rng, m), random_vector(rng, n), rng.randint(-5, 5)
            )


def test_structures_on_rich_rank_one_instance():
    inst = sample_rank_one()
    fact = rank_factorize(inst.q)
    structures = enumerate_dual_feasible_bases(fact.left, inst.c)
    by_basis = {s.basis: s for s in structures}
    first = by_basis[(0,)]
    assert first.lower == () and first.upper == (1, 2, 3, 4)
    assert candidates_from_basis(first) == [(0, 1, 1, 1, 1), (1, 1, 1, 1, 1)]
    # Reduced costs c_B B^-1 a_j - c_j for the first basis, and their signs.
    left = [[int(v) for v in row] for row in fact.left]
    c = [int(v) for v in inst.c]
    det, adj = integer_inverse([[left[0][0]]])
    costs = [Fraction(c[0] * adj[0][0] * left[j][0], det) - c[j] for j in (1, 2, 3, 4)]
    assert costs == [-1, -12, -2, -9]
    signs = [reduced_cost_sign(left, c, (0,), det, adj, j) for j in (1, 2, 3, 4)]
    assert signs == [-1, -1, -1, -1]


def test_singular_bases_are_skipped():
    left = ((Fraction(1),), (Fraction(0),))
    structures = enumerate_dual_feasible_bases(left, (Fraction(1), Fraction(2)))
    assert [s.basis for s in structures] == [(0,)]


def test_structure_count_within_binomial_bound():
    rng = random.Random(61)
    for _ in range(20):
        m, p = rng.randint(2, 6), 2
        inst = random_rank_p_instance(rng, m, rng.randint(2, 5), p)
        fact = rank_factorize(inst.q)
        structures = enumerate_dual_feasible_bases(fact.left, inst.c)
        assert len(structures) <= comb(m, p)
        assert sum(len(candidates_from_basis(s)) for s in structures) <= comb(m, p) * 4
        for s in structures:
            assert sorted(s.basis + s.lower + s.upper) == list(range(m))


def test_candidate_counts_per_structure():
    inst = random_rank_p_instance(random.Random(62), 4, 4, 2)
    fact = rank_factorize(inst.q)
    for structure in enumerate_dual_feasible_bases(fact.left, inst.c):
        candidates = candidates_from_basis(structure)
        assert len(candidates) == 4
        assert all(set(c) <= {0, 1} for c in candidates)


def test_zero_rank_gives_single_linear_candidate():
    inst = Instance([[0, 0], [0, 0]], [1, -1], [-1, 1], 0)
    sol = solve_fixed_rank(inst)
    assert sol.value == 2
    assert sol.x == (1, 0) and sol.y == (0, 1)


def test_rejects_rank_deficient_factor():
    with pytest.raises(ValueError):
        enumerate_dual_feasible_bases(
            ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))),
            (Fraction(1), Fraction(1)),
        )


def test_refusal_past_rank_limit():
    inst = sample_additive()  # rank 2
    with pytest.raises(SolverRefusal) as err:
        solve_fixed_rank(inst, p_limit=1)
    assert err.value.measured == 2 and err.value.limit == 1
    assert "p_limit" in str(err.value) and "--p-limit" in str(err.value)


def test_reduced_cost_sign_tie_breaking():
    def sign(left, c, basis, j):
        det, adj = integer_inverse([[left[i][k] for i in basis] for k in range(len(basis))])
        return reduced_cost_sign(left, c, basis, det, adj, j)

    # A nonzero reduced cost decides alone.
    assert sign(((1,), (2,)), (3, 1), (0,), 1) == 1
    assert sign(((1,), (1,)), (1, 5), (0,), 1) == -1
    # A zero one falls to the first nonzero perturbation coefficient by
    # variable index: the multiplier at basic variable 0, or the -1 at j = 0.
    assert sign(((1,), (1,)), (1, 1), (0,), 1) == 1
    assert sign(((1,), (1,)), (1, 1), (1,), 0) == -1
    # A negative basis matrix: det stays positive, the adjugate carries the sign.
    assert integer_inverse([[-1]]) == (1, ((-1,),))
    assert sign(((-1,), (1,)), (-1, 1), (0,), 1) == -1


def test_integer_inverse_roundtrip_and_singular():
    rows = ((2, 1), (1, 1))
    assert integer_inverse(rows) == (1, ((1, -1), (-1, 2)))
    det, adj = integer_inverse(((2, 3), (1, 4)))
    assert det == 5 and adj == ((4, -3), (-1, 2))
    rows = ((0, 2, 1), (3, -1, 4), (2, 2, 5))
    det, adj = integer_inverse(rows)
    product = [[sum(adj[i][k] * rows[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert det != 0 and product == [[det * (i == j) for j in range(3)] for i in range(3)]
    assert integer_inverse(((1, 2), (2, 4))) is None
    assert integer_inverse(()) == (1, ())


def test_matches_oracle_on_rich_instance():
    sol = solve_fixed_rank(sample_rank_one())
    assert sol.value == 56


def test_matches_oracle_per_rank():
    rng = random.Random(63)
    for p in (1, 2, 3):
        for _ in range(40):
            m = rng.randint(p, 5)
            n = rng.randint(max(p, 1), 5)
            inst = random_rank_p_instance(rng, m, n, p)
            sol = solve_fixed_rank(inst)
            assert sol.value == exhaustive_best(inst), (p, inst)


def test_agrees_with_breakpoint_solver_on_rank_one():
    rng = random.Random(64)
    for _ in range(500):
        inst = random_rank_one_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
        a = solve_fixed_rank(inst).value
        b = solve_rank_one(RankOneForm.from_instance(inst)).value
        assert a == b


def all_basis_structures(left, m):
    """Every nonsingular basis with every lower/upper split of the rest.

    A deliberately exponential superset of the dual feasible structures.
    """
    p = len(left[0])
    for basis in combinations(range(m), p):
        if rank_factorize([left[i] for i in basis]).p < p:
            continue
        rest = [j for j in range(m) if j not in basis]
        for bits in product((0, 1), repeat=len(rest)):
            lower = tuple(j for j, bit in zip(rest, bits) if bit == 0)
            upper = tuple(j for j, bit in zip(rest, bits) if bit == 1)
            yield BasisStructure(basis, lower, upper)


def test_dual_filter_never_discards_the_optimum():
    rng = random.Random(65)
    for _ in range(30):
        p = rng.randint(1, 2)
        m = rng.randint(p, 6)
        inst = random_rank_p_instance(rng, m, rng.randint(p, 4), p)
        superset_best = max(
            best_y_for_x(inst, x)[1]
            for structure in all_basis_structures(rank_factorize(inst.q).left, m)
            for x in candidates_from_basis(structure)
        )
        assert solve_fixed_rank(inst).value == superset_best


def test_superset_enumeration_covers_all_splits():
    left = ((Fraction(1),), (Fraction(2),), (Fraction(3),))
    structures = list(all_basis_structures(left, 3))
    # 3 bases x 2^2 splits of the remaining two variables.
    assert len(structures) == 12


def degenerate_factors(rng, count):
    """(left, c) pairs of full column rank: random ones, and ones whose
    arrangement of hyperplanes c_i + left_i.u = 0 is degenerate (repeated
    rows of ``left``, c = 0, or many hyperplanes through one point)."""
    out = []
    while len(out) < count:
        kind = len(out) % 4
        p = rng.randint(1, 3)
        m = rng.randint(p, 7)
        left = random_matrix(rng, m, p, -3, 3)
        c = random_vector(rng, m, -4, 4)
        if kind == 1:
            for i in range(1, m, 2):
                left[i] = list(left[i - 1])
                c[i] = c[i - 1]
        elif kind == 2:
            c = [0] * m
        elif kind == 3:
            point = random_vector(rng, p, -2, 2)
            for i in range(rng.randint(m // 2, m)):
                c[i] = -sum(a * u for a, u in zip(left[i], point))
        if rank_factorize(left).p == p:
            out.append((left, c))
    return out


def test_price_vector_signs_equal_reduced_cost_signs(monkeypatch):
    fallbacks = []

    def counting(left, c, basis, det, adjugate, j):
        fallbacks.append(j)
        return reduced_cost_sign(left, c, basis, det, adjugate, j)

    monkeypatch.setattr(fixed_rank, "reduced_cost_sign", counting)
    for left, c in degenerate_factors(random.Random(66), 80):
        m, p = len(left), len(left[0])
        structures = enumerate_dual_feasible_bases(left, c)
        expected = []
        for basis in combinations(range(m), p):
            inverse = integer_inverse([[left[i][k] for i in basis] for k in range(p)])
            if inverse is None:
                continue
            signs = {
                j: reduced_cost_sign(left, c, basis, *inverse, j)
                for j in range(m)
                if j not in basis
            }
            lower = tuple(j for j, sign in signs.items() if sign > 0)
            upper = tuple(j for j, sign in signs.items() if sign < 0)
            expected.append(BasisStructure(basis, lower, upper))
        assert structures == expected, (left, c)
    # Zero reduced costs occur (c = 0 makes every one zero) and take the
    # perturbation's tie rule.
    assert fallbacks


def degenerate_instances(rng, count):
    """Small instances q = left @ right over the factors above."""
    out = []
    for left, c in degenerate_factors(rng, count):
        p = len(left[0])
        n = rng.randint(p, 5)
        right = random_matrix(rng, p, n, -3, 3)
        if rank_factorize(right).p < p:
            continue
        q = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        out.append(Instance(q, c, random_vector(rng, n, -4, 4), rng.randint(-3, 3)))
    return out


def every_corner_best(inst):
    """Best candidate when every corner of every structure is scored,
    repeats included; ties go to the smallest (x, y)."""
    work = inst.integer
    fact = work.rank_at_most(min(work.m, work.n))
    scored = []
    for structure in enumerate_dual_feasible_bases(fact.left, work.c):
        for x in candidates_from_basis(structure):
            y, value = best_y_for_x(inst, x)
            scored.append((-value, x, y))
    value, x, y = min(scored)
    return Solution(x, y, -value)


def test_each_distinct_candidate_is_scored_once(monkeypatch):
    scored = Counter()
    original = fixed_rank._best_corner

    def counting(work, corners):
        for mask in corners:
            scored[tuple((mask >> i) & 1 for i in range(work.m))] += 1
        return original(work, corners)

    monkeypatch.setattr(fixed_rank, "_best_corner", counting)
    repeats = 0
    for inst in degenerate_instances(random.Random(67), 60):
        scored.clear()
        sol = solve_fixed_rank(inst)
        work = inst.integer
        corners = [
            x
            for structure in enumerate_dual_feasible_bases(
                work.rank_at_most(min(work.m, work.n)).left, work.c
            )
            for x in candidates_from_basis(structure)
        ]
        repeats += len(corners) - len(set(corners))
        assert set(scored) == set(corners)
        assert set(scored.values()) == {1}
        assert sol == every_corner_best(inst)
        assert sol.value == exhaustive_best(inst)
    assert repeats > 0


def per_basis_structures(left, c, ties, wide):
    """The structures from one integer_inverse per basis, with the reduced
    costs of its price vector: the reference for the packed basis walk.
    Appends each nonbasic zero reduced cost to ``ties``, and to ``wide``
    each one that fields a byte narrower than the walk's could not hold:
    those are 8 ceil((bitlen(bound) + 2) / 8) bits wide for the bound
    (p + 1) (ceil(sqrt p) max|V|)^p max|V| on V = [left | c]."""
    left = clear_denominators(left)[0]
    (c,), _ = clear_denominators([c])
    m, p = len(c), len(left[0])
    largest = max(abs(v) for row in left for v in (*row, *c))
    bound = (p + 1) * (math.ceil(math.sqrt(p)) * largest) ** p * largest
    narrow = max(8 * ((bound.bit_length() + 9) // 8 - 1) - 1, 0)
    structures = []
    for basis in combinations(range(m), p):
        inverse = integer_inverse([[left[i][k] for i in basis] for k in range(p)])
        if inverse is None:
            continue
        det, adjugate = inverse
        prices = [sum(c[i] * a for i, a in zip(basis, col)) for col in zip(*adjugate)]
        lower, upper = [], []
        for j in range(m):
            if j not in basis:
                base = sum(a * b for a, b in zip(prices, left[j])) - det * c[j]
                if abs(base) >> narrow:
                    wide.append(j)
                if not base:
                    ties.append(j)
                    base = reduced_cost_sign(left, c, basis, det, adjugate, j)
                (lower if base > 0 else upper).append(j)
        structures.append(BasisStructure(basis, tuple(lower), tuple(upper)))
    return structures


def reference_factors(rng, count):
    """(left, c) pairs of full column rank, p <= 6 and m <= 12, in turn:
    p = 0, Fraction entries, repeated rows, c = k * (row sums), entries
    above 2^53, and rows of +-M among rows in [-M, M], for M up to 2^62,
    which bring the reduced costs near the walk's field width."""
    out = []
    while len(out) < count:
        kind = len(out) % 6
        p = 0 if kind == 0 else rng.randint(1, 6)
        m = rng.randint(max(p, 1), 12)
        hi = {4: 2**60, 5: rng.randint(1, 2 ** rng.randint(1, 62))}.get(kind, 3)
        left = random_matrix(rng, m, p, -hi, hi)
        c = random_vector(rng, m, -hi, hi)
        if kind == 1:
            left = [[Fraction(v, rng.randint(1, 4)) for v in row] for row in left]
            c = [Fraction(v, rng.randint(1, 4)) for v in c]
        elif kind == 2:
            for i in range(1, m, 2):
                left[i], c[i] = list(left[i - 1]), c[i - 1]
        elif kind == 3:
            k = rng.randint(-2, 2)
            c = [k * sum(row) for row in left]
        elif kind == 5:
            for i in range(0, m, 2):
                left[i] = [rng.choice((-hi, hi)) for _ in range(p)]
                c[i] = rng.choice((-hi, hi))
        if not p or rank_factorize(left).p == p:
            out.append((left, c))
    return out


def test_prefix_minor_walk_matches_per_basis_inverses():
    ties, wide = [], []
    for left, c in reference_factors(random.Random(68), 300):
        expected = per_basis_structures(left, c, ties, wide)
        assert enumerate_dual_feasible_bases(left, c) == expected, (left, c)
    # Nonbasic zeros take the tie rule, and some reduced costs would
    # overflow fields one byte narrower.
    assert ties and wide


def test_forced_rankp_on_zero_matrix_matches_enumeration():
    rng = random.Random(69)
    for m, n in ((1, 1), (3, 5), (6, 2)):
        # c_0 = 0 makes the one basis's first reduced cost zero.
        c = [0] + random_vector(rng, m - 1)
        inst = Instance([[0] * n for _ in range(m)], c, random_vector(rng, n))
        sol = dispatch_solve(inst, "rankp").solution
        assert sol.value == solve_enumeration(inst).value
        assert evaluate_objective(inst, sol.x, sol.y) == sol.value


def test_matches_enumeration_up_to_ten_rows():
    rng = random.Random(70)
    instances = degenerate_instances(rng, 40)
    for _ in range(60):
        p = rng.randint(1, 4)
        instances.append(random_rank_p_instance(rng, rng.randint(p, 10), rng.randint(p, 12), p))
    for inst in instances:
        sol = solve_fixed_rank(inst)
        assert sol.value == solve_enumeration(inst).value
        assert evaluate_objective(inst, sol.x, sol.y) == sol.value


# The six rankp instances of perfbench's combinatorial pool at seed 1, and
# the solutions solve_fixed_rank gave when it scored every corner.
COMBINATORIAL_RANKP = [
    ("rank2", 16, 40, "1011100111000110", "1011101101010001011010011100011011111111", 4340),
    ("rank2", 16, 40, "1101101011101101", "1101100000101110000011010010001001110100", 6442),
    ("rank2", 16, 40, "1011001011011001", "0110100101111111000110001011110101111011", 5208),
    ("rank3", 10, 15, "1110101010", "110001100100101", 1873),
    ("rank3", 10, 15, "0100011000", "111101001010110", 1572),
    ("rank3", 10, 15, "0001110110", "111111011001010", 1510),
]


def test_benchmark_rankp_solutions_are_unchanged():
    rng = SplitMix64(1 * 1_000_003 + 2)
    seeds = [rng.next_u64() for _ in range(9)][3:]
    for seed, (kind, m, n, x, y, value) in zip(seeds, COMBINATORIAL_RANKP):
        sol = solve_fixed_rank(generate_instance(kind, m, n, seed))
        assert sol == Solution(tuple(map(int, x)), tuple(map(int, y)), Fraction(value))
