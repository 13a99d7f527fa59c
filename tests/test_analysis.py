import random
from fractions import Fraction
from itertools import combinations, product

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bqp01.analysis
from bqp01 import (
    Instance,
    detect_additive,
    detect_nonnegative,
    min_negative_eliminator,
    rank_factorize,
)
from bqp01.analysis import RankFactorization, _rank_one, _row_reduce, additive_mismatch
from bqp01.fixed_rank import integer_inverse
from bqp01.fixtures import sample_additive, sample_nonnegative, sample_rank_one

from conftest import eliminate, matching_size, negativity_graph, random_fraction, random_matrix


def multiply(left, right, m, n):
    p = len(right)
    return [
        [
            sum((left[i][k] * right[k][j] for k in range(p)), Fraction(0))
            for j in range(n)
        ]
        for i in range(m)
    ]


def determinant(rows):
    rows = [list(r) for r in rows]
    size = len(rows)
    det = Fraction(1)
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, size):
            factor = rows[i][col] / rows[col][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return det


def minor_rank(q):
    """Largest k with a nonzero k x k minor; independent rank oracle."""
    m, n = len(q), len(q[0])
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[q[i][j] for j in cols] for i in rows]
                if determinant(sub) != 0:
                    return k
    return 0


def test_rank_factorization_of_outer_product():
    inst = sample_rank_one()
    fact = rank_factorize(inst.q)
    assert fact.p == 1
    column = [row[0] for row in fact.left]
    # One factor column proportional to the generating vector.
    assert column == [2, 2, -3, 4, -2]
    assert multiply(fact.left, fact.right, inst.m, inst.n) == [
        list(row) for row in inst.q
    ]


def test_rank_factorization_of_nonsingular_matrix():
    inst = sample_additive()
    fact = rank_factorize(inst.q)
    assert fact.p == 2
    assert fact.left == inst.q
    assert fact.right == ((1, 0), (0, 1))


def test_rank_factorization_zero_matrix():
    fact = rank_factorize([[0, 0], [0, 0]])
    assert fact.p == 0
    assert fact.left == ((), ())
    assert fact.right == ()


def test_factorization_reconstructs_random_matrices():
    rng = random.Random(31)
    for _ in range(60):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        q = [[random_fraction(rng) for _ in range(n)] for _ in range(m)]
        fact = rank_factorize(q)
        assert multiply(fact.left, fact.right, m, n) == q
        # Full column/row rank of the factors.
        if fact.p:
            assert minor_rank(fact.left) == fact.p
            assert minor_rank(fact.right) == fact.p


def test_rank_agrees_with_minor_oracle():
    rng = random.Random(32)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        q = random_matrix(rng, m, n, -3, 3)
        assert rank_factorize(q).p == minor_rank(q)


def test_rref_pivots_are_unit_columns():
    fact = rank_factorize([[2, 4, 1], [1, 2, 3]])
    assert fact.left == ((2, 1), (1, 3))  # columns 0 and 2 are the pivots
    right = fact.right
    for r, col in enumerate([0, 2]):
        assert right[r][col] == 1
        assert all(right[i][col] == 0 for i in range(len(right)) if i != r)


def product_of_rank(rng, m, n, r):
    """An m x n integer matrix of rank at most r, usually exactly r."""
    left = random_matrix(rng, m, r, -4, 4)
    right = random_matrix(rng, r, n, -4, 4)
    return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(m)]


def kept_rows(q):
    """Indices of the rows the rows before them do not span: the pivot
    columns of q's transpose (sympy)."""
    return list(sympy.Matrix(q).T.rref()[1])


def test_bounded_rank_matches_sympy(monkeypatch):
    calls = []
    original_pass, original_rows = bqp01.analysis._rank_one, bqp01.analysis._row_reduce

    def rank_one(matrix):
        calls.append("rank one")
        return original_pass(matrix)

    def row_reduce(matrix, max_pivots=None):
        calls.append(max_pivots)
        return original_rows(matrix, max_pivots)

    monkeypatch.setattr(bqp01.analysis, "_rank_one", rank_one)
    monkeypatch.setattr(bqp01.analysis, "_row_reduce", row_reduce)
    rng = random.Random(33)
    cases = [[[0] * 4] * 3, [[0] * 5], [[3, 0, -1, 2]], [[0], [2], [0]]]
    cases += [random_matrix(rng, 1, rng.randint(1, 6), -3, 3) for _ in range(10)]
    for _ in range(150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        cases.append(product_of_rank(rng, m, n, rng.randint(0, min(m, n))))
    cases += [product_of_rank(rng, 9, 3, 3) for _ in range(10)]  # m > n, full column rank
    at_limit = over_limit = 0
    for q in cases:
        rank = sympy.Matrix(q).rank()
        full = eliminate(q)
        assert len(full[1]) == rank
        kept = kept_rows(q)
        for limit in range(0, 5):
            found = original_rows(q, limit + 1)
            if rank > limit:
                assert found is None
            else:  # finished: the rows that raise the rank, reduced, and q's pivots
                assert found == eliminate([q[i] for i in kept]) and found[1] == full[1]
            at_limit += rank == limit
            over_limit += rank == limit + 1
        # Any order of limits gives sympy's answer.  A limit that the
        # earlier calls answered runs no pass; any other runs the rank <= 1
        # pass unless an earlier call proved rank > 1, and the row pass too
        # unless that pass finished.
        limits = list(range(6))
        rng.shuffle(limits)
        work = Instance(q).integer
        exact, above = None, -1
        for limit in limits:
            calls.clear()
            fact = work.rank_at_most(limit)
            assert (None if fact is None else fact.p) == (rank if rank <= limit else None)
            if exact is not None or limit <= above:
                assert calls == []
            elif rank <= 1:
                assert calls == ["rank one"]
                exact = rank
            else:
                assert calls == ["rank one"] * (above < 1) + [limit + 1]
                exact, above = (rank, above) if rank <= limit else (None, limit)
    assert at_limit > 50 and over_limit > 50
    # Rank 3 queried at 1, then at 6: the second query skips the pass.
    work = Instance(product_of_rank(rng, 8, 7, 3)).integer
    calls.clear()
    assert work.rank_at_most(1) is None and work.rank_at_most(6).p == 3
    assert calls == ["rank one", 2, 7]


ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([0, 2**31 + 1, -(2**31) - 3, 3 * 2**30]),
    st.integers(-(2**31), 2**31),
)


def row_types(draw, q):
    """q's rows as lists, as tuples, or each one either."""
    types = draw(st.sampled_from(["lists", "tuples", "both"]))
    if types == "both":
        return [tuple(row) if draw(st.booleans()) else list(row) for row in q]
    return [(tuple if types == "tuples" else list)(row) for row in q]


def copy_with_one_change(draw, q, avoid):
    """Replace a later row of q by a copy of an earlier one with the entry
    at one column other than ``avoid`` changed (by 0: an exact repeat)."""
    n = len(q[0])
    k, i = sorted(draw(st.lists(st.integers(0, len(q) - 1), min_size=2, max_size=2, unique=True)))
    q[i] = list(q[k])
    j = draw(st.sampled_from([j for j in range(n) if j > avoid] or [j for j in range(n) if j != avoid]))
    q[i][j] += draw(st.sampled_from([0, 1, -1, 2**40]))


@st.composite
def near_rank_one(draw):
    """Outer products a b^T times a common factor, with zero rows, leading
    zero columns and near 2^62 entries, sometimes with one row replaced
    (often the last, so every earlier row is a multiple), sometimes with a
    row that copies an earlier one, multiplier and all, but for one entry
    off the pivot column (right of it where there is one); lists, tuples
    or both."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    a = draw(st.lists(ENTRIES, min_size=m, max_size=m))
    b = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    lead = draw(st.integers(0, n))
    b[:lead] = [0] * lead
    g = draw(st.sampled_from([1, -1, 2, 6, 2**40]))
    q = [[g * x * y for y in b] for x in a]
    if m and draw(st.booleans()):
        i = m - 1 if draw(st.booleans()) else draw(st.integers(0, m - 1))
        q[i] = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    if m > 1 and n > 1 and draw(st.booleans()):
        pivot_col = next((j for j in range(n) for row in q if row[j]), 0)
        copy_with_one_change(draw, q, pivot_col)
    return row_types(draw, q)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(near_rank_one())
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 0, 0, 0], [0, 0, 2, -4], [0, 0, 0, 0], [0, 0, -3, 6]])
@example([[0, 0], [2, 4], [1, 2]])
@example([[-2, 4, 6], [1, -2, -3], [0, 0, 0]])
@example([[1, 2, 3], [2, 4, 6], [-3, -6, -9], [1, 2, 4]])
@example([[2**62 - 2, 2**61 - 1], [-(2**62) + 2, -(2**61) + 1], [0, 0]])
@example([[2**62 - 2, 2**61 - 1], [-(2**62) + 2, -(2**61) + 2]])
@example([[-7, 1]])  # integer_inverse([[-7]]) eliminates [a | 1]
@example([[0, 1]])
@example([])
def test_rank_one_pass_returns_what_elimination_returns(q):
    copy = [list(row) for row in q]
    full = eliminate(q)
    # The row pass finishes the rows that raise the rank to their
    # elimination, with q's pivots and RREF, sharing no row with q or with
    # itself.
    got, want = _row_reduce(q), eliminate([q[i] for i in kept_rows(q)])
    assert got == want and repr(got) == repr(want) and got[1] == full[1]
    rref = [[Fraction(v, full[2]) for v in row] for row in full[0][: len(full[1])]]
    assert [[Fraction(v, got[2]) for v in row] for row in got[0]] == rref
    assert len({id(row) for row in got[0]}) == len(got[0])
    assert not {id(row) for row in got[0]} & {id(row) for row in q}
    # The rank <= 1 pass answers every matrix of rank <= 1, and no other,
    # with the row pass's result.
    one = _rank_one(q)
    assert (one is None) == (len(full[1]) > 1)
    if one is not None:
        assert one == got and repr(one) == repr(got)
    # The row pass stops at its bound, and otherwise finishes.
    for max_pivots in (1, 2, 3, 7):
        found = _row_reduce(q, max_pivots)
        assert (found is None) == (len(full[1]) >= max_pivots)
        if found is not None:
            assert repr(found) == repr(got)
    assert [list(row) for row in q] == copy


def parent_factorize(q, max_pivots):
    """``IntegerInstance._factorize`` as it was when it eliminated all of q,
    stopping at ``max_pivots`` pivots."""
    rows, pivots, det = eliminate(q, max_pivots)
    if len(pivots) == max_pivots:
        return None
    left = tuple(tuple(row[col] for col in pivots) for row in q)
    return RankFactorization(len(pivots), left, tuple(map(tuple, rows[: len(pivots)])), det)


NEAR_2_62 = st.sampled_from([2**62 - 1, -(2**62) + 3, 2**62 + 7, 3 * 2**60, -(2**61) - 1])


@st.composite
def leading_dependent_rows(draw):
    """An m x r times r x n integer product (rank r <= 7, usually exactly r)
    with entries near 2^62, after up to three leading rows that add no
    rank: zero rows, a repeat of a later row, or a multiple of one."""
    r = draw(st.integers(0, 7))
    m, n = draw(st.integers(max(r, 1), 9)), draw(st.integers(max(r, 1), 9))
    left = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(st.one_of(st.integers(-4, 4), NEAR_2_62), min_size=n, max_size=n),
                          min_size=r, max_size=r))
    q = [[sum(row[k] * right[k][j] for k in range(r)) for j in range(n)] for row in left]
    lead = draw(st.sampled_from(["none", "zero", "repeat", "multiple"]))
    for _ in range(draw(st.integers(1, 3))):
        later = q[draw(st.integers(0, len(q) - 1))]
        if lead == "zero":
            q.insert(0, [0] * n)
        elif lead == "repeat":
            q.insert(0, list(later))
        elif lead == "multiple":
            f = draw(st.sampled_from([2, -3, 2**62 - 1]))
            q.insert(0, [f * v for v in later])
    return q


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(leading_dependent_rows())
@example([[0, 0, 0, 0, 0, 0, 0]])  # 1 x n
@example([[3, -1, 2, 0, 5, 7, 1]])
@example([[0], [2**62 - 1], [0], [-5]])  # m x 1
@example([[0], [0]])
@example([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 0], [1, 2, 3]])
@example([[2, 0, 4], [0, 0, 0], [1, 0, 2], [0, 3, 1], [0, 6, 2]])
@example([[1 if i == j else 0 for j in range(8)] for i in range(8)])  # rank 8 > every limit
def test_row_pass_keeps_the_parents_factorization(q):
    rref, _ = sympy.Matrix(q).rref()
    kept = kept_rows(q)
    rank = len(kept)
    found = []
    for limit in range(8):
        reduced = _row_reduce(q, limit + 1)
        fact = Instance(q).integer.rank_at_most(limit)
        parent = parent_factorize(q, limit + 1)
        assert (reduced is None) == (fact is None) == (parent is None) == (rank > limit)
        if fact is not None:
            assert reduced == eliminate([q[i] for i in kept])
            assert (fact.p, fact.left) == (parent.p, parent.left) and fact.p == rank
            found.append(fact)
    if not found:
        return
    assert found.count(found[0]) == len(found)  # every finished limit, one factorization
    fact, k = found[0], found[0].denominator
    if rank == 0:
        assert (fact.right, k) == ((), 1)
        return
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*fact.right)] for row in fact.left]
    assert product == [[k * v for v in row] for row in q]
    assert [[Fraction(v, k) for v in row] for row in fact.right] == [
        [Fraction(int(v.p), int(v.q)) for v in rref.row(t)] for t in range(rank)
    ]
    # The denominator is |det| of the basis rows' pivot minor.
    cols = [next(j for j, v in enumerate(row) if v) for row in fact.right]
    assert k == abs(sympy.Matrix([[q[i][j] for j in cols] for i in kept]).det())


def test_row_pass_reads_rows_up_to_its_bound_only():
    """Rank > limit is proved at the (limit + 1)-th independent row: when
    the first limit + 1 rows are independent, after reading exactly those."""
    rng = random.Random(41)
    independent_first = 0
    for limit in range(8):
        for zeros in range(3):
            q = [[0] * 9] * zeros + product_of_rank(rng, limit + 1 + rng.randint(0, 4), 9, 9)
            kept = kept_rows(q)
            read = []

            def rows():
                for row in q:
                    read.append(row)
                    yield row

            found = _row_reduce(rows(), limit + 1)
            if len(kept) > limit:
                assert found is None and len(read) == kept[limit] + 1
                independent_first += kept[limit] == zeros + limit
            else:
                assert found == eliminate([q[i] for i in kept]) and len(read) == len(q)
    assert independent_first > 20


def test_integer_inverse_runs_no_rank_one_pass(monkeypatch):
    """[rows | I] has rank p, so the pass could answer only p <= 1: the
    basis inverses of rankp run the elimination alone, with its result."""
    passes = []
    monkeypatch.setattr(bqp01.analysis, "_rank_one", passes.append)
    rng = random.Random(8)
    for p in (0, 1, 1, 2, 2, 2, 3, 4):
        rows = random_matrix(rng, p, p, -3, 3)
        aug, pivots, det = eliminate([row + [int(i == j) for j in range(p)] for i, row in enumerate(rows)])
        want = (det, tuple(tuple(row[p:]) for row in aug)) if pivots == list(range(p)) else None
        assert integer_inverse(rows) == want
    assert integer_inverse([[2, 4], [1, 2]]) is None
    assert passes == []


def first_additive_mismatch(q):
    """The first (i, j) in row order whose 2x2 minor with row 0 and column 0
    is nonzero, q_ij - q_i0 - q_0j + q_00 != 0, else None."""
    return next(
        ((i, j) for i in range(len(q)) for j in range(len(q[0]))
         if q[i][j] - q[i][0] - q[0][j] + q[0][0]),
        None,
    )


def test_additive_mismatch_is_the_first_one():
    a, b = [3, -1, 4, 1, -5, 9], [2, 6, -5, 3, 5]
    q = [[ai + bj for bj in b] for ai in a]
    assert additive_mismatch(q) is None
    q[4][4] += 1  # last column of a late row
    q[5][2] -= 1
    assert additive_mismatch(q) == (4, 4)
    assert additive_mismatch([[Fraction(v, 3) for v in row] for row in q]) == (4, 4)
    rng = random.Random(21)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [rng.randint(-3, 3) for _ in range(m)]
        b = [rng.choice((rng.randint(-3, 3), 2**62 + 1)) for _ in range(n)]
        q = [[ai + bj + (rng.random() < 0.1) for bj in b] for ai in a]
        assert additive_mismatch(q) == first_additive_mismatch(q)


@st.composite
def near_additive(draw):
    """q_ij = a_i + b_j with few distinct shifts a_i - a_0 and entries near
    2^62, with zero rows (which pass when b is constant), sometimes a row
    that copies an earlier row, shift and all, but for one entry at some
    j >= 1, and sometimes Fraction entries; lists, tuples or both."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    a = draw(st.lists(st.one_of(st.integers(-2, 2), NEAR_2_62), min_size=m, max_size=m))
    b = draw(st.lists(st.one_of(st.integers(-4, 4), NEAR_2_62), min_size=n, max_size=n))
    if draw(st.booleans()):
        b = [b[0]] * n
    q = [[x + y for y in b] for x in a]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        q[i] = [0] * n
    if m > 1 and n > 1 and draw(st.booleans()):
        copy_with_one_change(draw, q, 0)
    if draw(st.booleans()):
        den = draw(st.sampled_from([3, 2**40]))
        q = [[Fraction(v, den) for v in row] for row in q]
    return row_types(draw, q)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(near_additive())
@example([[0, 0, 0], [1, 1, 1], [1, 1, 2]])  # row 1's shift, off at j = 2
@example([[5, 5], [0, 0], [0, 0], [0, 1]])
@example([(1, 2, 3), [2, 3, 4], (2, 3, 4), [2, 3, 4], (2, 3, 5)])
@example([[2**62 + 1, 3], [2**62 + 1, 3], [2**62 + 1, 4]])  # shift 0, the top row's
@example([[7]])
def test_additive_mismatch_is_the_first_on_repeated_shifts(q):
    """A row whose shift an earlier passing row had passes only by being
    equal to it; any other row is tested in full, so the first mismatch is
    the reference's, whatever the rows' types."""
    copy = [list(row) for row in q]
    first = first_additive_mismatch(q)
    assert additive_mismatch(q) == first
    assert (detect_additive(q) is None) == (first is not None)
    assert [list(row) for row in q] == copy


def test_additive_detection_recovers_convention():
    dec = detect_additive(sample_additive().q)
    assert dec is not None
    assert dec.row_offsets == (3, 1)
    assert dec.col_offsets == (0, -5)
    assert dec.row_offsets[1] + dec.col_offsets[1] == -4


def test_additive_detection_rejects_outer_product():
    assert detect_additive(sample_rank_one().q) is None


def test_additive_detection_constant_matrix():
    dec = detect_additive([[5, 5], [5, 5]])
    assert dec.row_offsets == (5, 5)
    assert dec.col_offsets == (0, 0)


def test_additive_detection_iff_shifted_rank_zero():
    rng = random.Random(33)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        if rng.random() < 0.5:
            a = [rng.randint(-5, 5) for _ in range(m)]
            b = [rng.randint(-5, 5) for _ in range(n)]
            q = [[ai + bj for bj in b] for ai in a]
        else:
            q = random_matrix(rng, m, n, -5, 5)
        shifted = [
            [q[i][j] - q[i][0] - q[0][j] + q[0][0] for j in range(n)]
            for i in range(m)
        ]
        dec = detect_additive(q)
        shifted_zero = all(v == 0 for row in shifted for v in row)
        assert shifted_zero == (minor_rank(shifted) == 0)
        assert (dec is not None) == shifted_zero
        if dec is not None:
            for i in range(m):
                for j in range(n):
                    assert q[i][j] == dec.row_offsets[i] + dec.col_offsets[j]


def test_nonnegative_detection():
    assert detect_nonnegative(sample_nonnegative().q) is True
    assert detect_nonnegative(sample_rank_one().q) is False
    assert detect_nonnegative([[0, 0], [0, 0]]) is True


def brute_force_min_cover(q):
    m, n = len(q), len(q[0])
    negatives = [(i, j) for i in range(m) for j in range(n) if q[i][j] < 0]
    for size in range(m + n + 1):
        for rows_taken in range(min(size, m) + 1):
            cols_taken = size - rows_taken
            if cols_taken > n:
                continue
            for rows in combinations(range(m), rows_taken):
                for cols in combinations(range(n), cols_taken):
                    if all(i in rows or j in cols for i, j in negatives):
                        return size
    return m + n


def test_eliminator_single_negative_entry():
    elim = min_negative_eliminator([[-1, 2], [3, 4]])
    assert elim.size == 1


def test_eliminator_all_negative_square():
    elim = min_negative_eliminator([[-1, -1], [-1, -1]])
    assert elim.size == 2


def test_eliminator_empty_for_nonnegative():
    elim = min_negative_eliminator([[1, 0], [2, 3]])
    assert elim.rows == () and elim.cols == ()


def test_eliminator_is_minimum_cover_and_covers_everything():
    rng = random.Random(34)
    for _ in range(80):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        q = random_matrix(rng, m, n, 0, 5)
        for _ in range(rng.randint(0, 5)):
            q[rng.randrange(m)][rng.randrange(n)] = rng.randint(-5, -1)
        elim = min_negative_eliminator(q)
        for i in range(m):
            for j in range(n):
                if q[i][j] < 0:
                    assert i in elim.rows or j in elim.cols
        assert elim.size == brute_force_min_cover(q)
        # Deleting the eliminator leaves a nonnegative matrix.
        kept_rows = [i for i in range(m) if i not in elim.rows]
        kept_cols = [j for j in range(n) if j not in elim.cols]
        assert all(q[i][j] >= 0 for i in kept_rows for j in kept_cols)


def test_eliminator_size_equals_matching_size():
    rng = random.Random(35)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        q = random_matrix(rng, m, n, 0, 4)
        for _ in range(rng.randint(0, 6)):
            q[rng.randrange(m)][rng.randrange(n)] = -1
        assert min_negative_eliminator(q).size == matching_size(q)


def test_eliminator_is_the_konig_cover_of_networkx():
    import networkx as nx

    rng = random.Random(36)
    seen = dict.fromkeys(("tall", "all-negative", "no-negative", "isolated"), 0)
    for _ in range(2400):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice((0.0, 0.1, 0.25, 0.5, 0.8, 1.0))
        q = [[-1 if rng.random() < density else rng.randint(0, 3) for _ in range(n)]
             for _ in range(m)]
        if rng.random() < 0.3:
            q[rng.randrange(m)] = [rng.randint(0, 3) for _ in range(n)]
            j = rng.randrange(n)
            for row in q:
                row[j] = abs(row[j])
        negative = [[v < 0 for v in row] for row in q]
        seen["tall"] += m > n
        seen["all-negative"] += all(map(all, negative))
        seen["no-negative"] += not any(map(any, negative))
        seen["isolated"] += (
            any(map(any, negative)) and not all(map(any, negative))
            and not all(map(any, zip(*negative)))
        )
        graph, rows = negativity_graph(q)
        matching = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=rows)
        cover = nx.bipartite.to_vertex_cover(graph, matching, top_nodes=rows)
        elim = min_negative_eliminator(q)
        assert elim.rows == tuple(sorted(v for v in cover if v < m))
        assert elim.cols == tuple(sorted(v - m for v in cover if v >= m))
    assert min(seen.values()) >= 100, seen


def test_eliminator_survives_paths_deeper_than_the_recursion_limit():
    rng = random.Random(3003)
    q = [[0] * 3000 for _ in range(3000)]
    for row in q:
        for j in rng.sample(range(3000), 3):
            row[j] = -1
    elim = min_negative_eliminator(q)
    assert elim.size == matching_size(q)
    rows, cols = set(elim.rows), set(elim.cols)
    assert all(
        i in rows or j in cols for i, row in enumerate(q) for j, v in enumerate(row) if v < 0
    )
