"""Metamorphic tests: transform an instance and check the optimum moves with it.

Complementing x_i (x_i -> 1 - x_i) negates row i of q, adds that row to d,
moves c_i into c0 and negates c_i.  Every point keeps its objective value
under the matching complement, so the optimum value is unchanged, and
the rank of q is unchanged, so forced ``rankp`` must give the same value on
both instances.  Instances are rank 2 or 3, up to 8 x 12, with planted ties.

Above the oracle's sizes, up to 12 x 40, two routes are checked against
each other the same way.  Complementing rows S of a nonnegative q leaves
its negative entries in rows S, so forced ``mincut`` on the original and
forced ``eliminator`` on the image must agree; complementing rows of a
rank-one q keeps it rank one, so forced ``rank1`` must agree on both.  The
linear terms are balanced (c_i = -floor(row sum / 2), d_j likewise), so
bounds decide few variables, and entries reach past 2^53.  Every point is
checked to be a mutual best response.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bqp01 import Instance, dispatch_solve, evaluate_objective, solve_enumeration

from conftest import assert_mutual_best_response

METAMORPHIC = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VALUES = st.integers(-4, 4) | st.sampled_from([2**53 + 1, -(2**60) - 3])


@st.composite
def low_rank_instances(draw):
    """q = left @ right with p = 2 or 3 factor columns, and ties planted
    in one of three ways: repeated rows of q and c, c = k * (row sums of
    q), or d_j = -(the column sum of q over some rows), a zero gain there."""
    p = draw(st.integers(2, 3))
    m, n = draw(st.integers(p, 8)), draw(st.integers(p, 12))

    def vec(size):
        return draw(st.lists(VALUES, min_size=size, max_size=size))

    left = [vec(p) for _ in range(m)]
    right = [vec(n) for _ in range(p)]
    c, d = vec(m), vec(n)
    tie = draw(st.sampled_from(("repeated", "scaled", "zero-gain")))
    if tie == "repeated":
        for i in range(1, m, 2):
            left[i], c[i] = left[i - 1], c[i - 1]
    q = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    if tie == "scaled":
        k = draw(st.integers(-2, 2))
        c = [k * sum(row) for row in q]
    elif tie == "zero-gain":
        rows = draw(st.sets(st.integers(0, m - 1)))
        d = [-sum(q[i][j] for i in rows) for j in range(n)]
    return Instance(q, c, d, draw(VALUES))


def complement_rows(inst, rows):
    """The instance in x'_i = 1 - x_i for each i in ``rows``."""
    q, c, d, c0 = [list(row) for row in inst.q], list(inst.c), list(inst.d), inst.c0
    for i in rows:
        d = [dj + qij for dj, qij in zip(d, q[i])]
        c0 += c[i]
        c[i] = -c[i]
        q[i] = [-v for v in q[i]]
    return Instance(q, c, d, c0)


@METAMORPHIC
@given(low_rank_instances(), st.data())
def test_rankp_optimum_is_invariant_under_complementing_rows(inst, data):
    rows = data.draw(st.sets(st.integers(0, inst.m - 1), min_size=1))
    flipped = complement_rows(inst, rows)
    value = dispatch_solve(inst, "rankp").solution.value
    assert dispatch_solve(flipped, "rankp").solution.value == value
    assert solve_enumeration(flipped).value == value


def balanced(q):
    """Instance(q) with c_i = -floor(row sum / 2) and d_j = -floor(column sum / 2)."""
    return Instance(q, [-(sum(row) // 2) for row in q], [-(sum(col) // 2) for col in zip(*q)])


def random_shape(rng):
    return rng.randint(2, 12), rng.randint(1, 40)


def nonnegative_matrix(rng):
    m, n = random_shape(rng)
    huge = rng.random() / 2

    def entry():
        return 2**53 + rng.randint(0, 2**40) if rng.random() < huge else rng.randint(0, 9)

    return [[entry() for _ in range(n)] for _ in range(m)]


def rank_one_matrix(rng):
    m, n = random_shape(rng)

    def factor(size):
        return [rng.choice((-1, 1)) * rng.choice((rng.randint(0, 9), rng.randint(2**27, 2**31)))
                for _ in range(size)]

    a, b = factor(m), factor(n)
    return [[ai * bj for bj in b] for ai in a]


def check_route_pair(inst, original, flipped, image, rows):
    """Each point a best response; equal optima; the image's point, mapped
    back, has its value on the original."""
    assert_mutual_best_response(inst, original.x, original.y)
    assert_mutual_best_response(flipped, image.x, image.y)
    assert image.value == original.value
    back = [1 - v if i in rows else v for i, v in enumerate(image.x)]
    assert evaluate_objective(inst, back, image.y) == image.value


@pytest.mark.parametrize("seed", range(40))
def test_mincut_and_eliminator_agree_across_a_row_complement(seed):
    rng = random.Random(seed)
    inst = balanced(nonnegative_matrix(rng))
    rows = set(rng.sample(range(inst.m), rng.randint(1, min(inst.m, 5))))
    flipped = complement_rows(inst, rows)
    assert all(v >= 0 for i, row in enumerate(flipped.q) if i not in rows for v in row)
    original = dispatch_solve(inst, "mincut").solution
    image = dispatch_solve(flipped, "eliminator").solution
    check_route_pair(inst, original, flipped, image, rows)


@pytest.mark.parametrize("seed", range(40))
def test_rank1_optimum_is_invariant_under_complementing_rows(seed):
    rng = random.Random(seed)
    inst = balanced(rank_one_matrix(rng))
    rows = set(rng.sample(range(inst.m), rng.randint(1, inst.m)))
    flipped = complement_rows(inst, rows)
    original = dispatch_solve(inst, "rank1").solution
    image = dispatch_solve(flipped, "rank1").solution
    check_route_pair(inst, original, flipped, image, rows)
