"""Metamorphic tests: transform an instance and check the optimum moves with it.

Complementing x_i (x_i -> 1 - x_i) negates row i of q, adds that row to d,
moves c_i into c0 and negates c_i.  Every point keeps its objective value
under the matching complement, so the optimum value is unchanged, and
the rank of q is unchanged, so forced ``rankp`` must give the same value on
both instances.  Instances are rank 2 or 3, up to 8 x 12, with planted ties.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bqp01 import Instance, dispatch_solve, solve_enumeration

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
