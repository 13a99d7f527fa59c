import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bqp01 import (
    Instance,
    Solution,
    SolverRefusal,
    best_y_for_x,
    evaluate_objective,
    solve_enumeration,
    solve_oracle,
)
from bqp01.fixtures import sample_general, sample_rank_one

from conftest import exhaustive_best, random_instance


def test_best_y_known_points():
    inst = sample_general()
    y, value = best_y_for_x(inst, (0, 1))
    assert y == (1, 1) and value == 4
    # Zero column coefficient stays at zero under the strict rule.
    y, value = best_y_for_x(inst, (1, 1))
    assert y == (1, 0) and value == 4


def test_best_y_with_zero_x():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        y, value = best_y_for_x(inst, (0,) * inst.m)
        assert y == tuple(1 if dj > 0 else 0 for dj in inst.d)
        assert value == evaluate_objective(inst, (0,) * inst.m, y)


def test_best_y_rejects_bad_length():
    with pytest.raises(ValueError):
        best_y_for_x(sample_general(), (0,))


def test_best_y_single_flips_never_improve():
    rng = random.Random(42)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 5))
        x = tuple(rng.randint(0, 1) for _ in range(inst.m))
        y, value = best_y_for_x(inst, x)
        for j in range(inst.n):
            flipped = list(y)
            flipped[j] = 1 - flipped[j]
            assert evaluate_objective(inst, x, flipped) <= value


def test_enumeration_known_optima():
    assert solve_enumeration(sample_general()).value == 4
    assert solve_enumeration(sample_rank_one()).value == 56


def test_enumeration_zero_instance():
    sol = solve_enumeration(Instance([[0, 0], [0, 0]], None, None, 7))
    assert sol.value == 7
    assert sol.x == (0, 0) and sol.y == (0, 0)


def test_enumeration_matches_exhaustive_scan():
    rng = random.Random(43)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        sol = solve_enumeration(inst)
        assert sol.value == exhaustive_best(inst)
        assert sol.value == evaluate_objective(inst, sol.x, sol.y)


def test_enumeration_incremental_equals_recomputation():
    # From-scratch reference: scan x-vectors in lexicographic order,
    # recomputing every column sum, with the same completion and tie rule.
    rng = random.Random(44)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        best = None
        for x in product((0, 1), repeat=inst.m):
            y, value = best_y_for_x(inst, x)
            if best is None or value > best[0]:
                best = (value, x, y)
        sol = solve_enumeration(inst)
        assert (sol.value, sol.x, sol.y) == best


def test_enumeration_returns_lex_smallest_optimal_x():
    inst = sample_general()
    # Both (0,1) and (1,1) attain 4; the smaller one wins.
    assert solve_enumeration(inst).x == (0, 1)


def test_enumeration_refuses_past_limit():
    inst = random_instance(random.Random(45), 5, 2)
    with pytest.raises(SolverRefusal) as err:
        solve_enumeration(inst, enum_limit=4)
    assert "4" in str(err.value)
    assert "enum_limit" in str(err.value) and "--enum-limit" in str(err.value)
    assert err.value.limit == 4 and err.value.measured == 5


def test_oracle_agrees_with_direct_scan():
    rng = random.Random(46)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        sol = solve_oracle(inst)
        assert sol.value == exhaustive_best(inst)
        assert sol.value == evaluate_objective(inst, sol.x, sol.y)


# -- the packed scan against a list of column gains ---------------------------

PROPERTY = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([2**53 + 1, -(2**53) - 1, 3 * 2**60 + 1, -(2**62)]),
    st.integers(-(2**64), 2**64),
)


def list_loop_enumeration(inst):
    """The same Gray-code scan and tie rule with the n column gains kept as
    a Python list, rebuilt and summed at every step."""
    work = inst.integer
    q, c = work.q, work.c
    gains = list(work.d)
    linear = mask = best_mask = 0
    best_value = sum(g for g in gains if g > 0)
    for step in range(1, 1 << work.m):
        i = (step & -step).bit_length() - 1
        bit = 1 << i
        mask ^= bit
        if mask & bit:
            linear += c[i]
            gains = [g + v for g, v in zip(gains, q[i])]
        else:
            linear -= c[i]
            gains = [g - v for g, v in zip(gains, q[i])]
        value = linear + sum(g for g in gains if g > 0)
        if value > best_value:
            best_value, best_mask = value, mask
        elif value == best_value:
            diff = mask ^ best_mask
            if not mask & diff & -diff:
                best_mask = mask
    x = tuple((best_mask >> i) & 1 for i in range(work.m))
    y, value = best_y_for_x(work, x)
    return Solution(x, y, value)


@st.composite
def dense(draw, max_m=10, max_n=12):
    """Mutable (q, c, d, c0) of mixed-sign entries, some above 2^53."""
    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n))

    def vec(size):
        return draw(st.lists(ENTRIES, min_size=size, max_size=size))

    c = [0] * m if draw(st.booleans()) else vec(m)
    return [vec(n) for _ in range(m)], c, vec(n), draw(ENTRIES)


@st.composite
def planted_zero_gains(draw):
    """Columns that are zero, or whose gain is exactly zero at a chosen x."""
    q, c, d, c0 = draw(dense())
    x = draw(st.lists(st.integers(0, 1), min_size=len(q), max_size=len(q)))
    for j in range(len(d)):
        plant = draw(st.sampled_from(("none", "zero column", "zero at x")))
        if plant == "zero column":
            for row in q:
                row[j] = 0
            d[j] = 0
        elif plant == "zero at x":
            d[j] = -sum(row[j] for row, xi in zip(q, x) if xi)
    return q, c, d, c0


@st.composite
def repeated_rows(draw):
    """Up to 10 rows drawn, with their c_i, from at most 3 distinct ones."""
    base_q, base_c, d, c0 = draw(dense(max_m=3))
    picks = draw(st.lists(st.integers(0, len(base_q) - 1), min_size=2, max_size=10))
    return [list(base_q[k]) for k in picks], [base_c[k] for k in picks], d, c0


@PROPERTY
@given(dense())
def test_packed_scan_matches_list_loop(coeffs):
    inst = Instance(*coeffs)
    sol = solve_enumeration(inst)
    assert sol == list_loop_enumeration(inst)
    assert sol.value == evaluate_objective(inst, sol.x, sol.y)


@PROPERTY
@given(planted_zero_gains())
def test_packed_scan_matches_list_loop_on_zero_gains(coeffs):
    # A zero gain sets its field's top bit but adds nothing, and y keeps
    # the strict > 0 rule.
    inst = Instance(*coeffs)
    assert solve_enumeration(inst) == list_loop_enumeration(inst)


@PROPERTY
@given(repeated_rows())
def test_packed_scan_matches_list_loop_on_repeated_rows(coeffs):
    # Repeated rows with equal c_i tie whole classes of x-vectors, so the
    # lexicographic rule decides x.
    inst = Instance(*coeffs)
    assert solve_enumeration(inst) == list_loop_enumeration(inst)


@pytest.mark.parametrize("bound", [3, 2**61 - 1, 2**62])
def test_packed_scan_at_the_field_bound(bound):
    # Every column has |d_j| + sum_i |q_ij| equal to the bound B the fields
    # are sized by.  A gain spans an interval of width sum_i |q_ij| <= B, so
    # no column reaches both +B and -B.  At x = (1, 1, 1) the 16
    # all-positive columns and the one with d_j = B sit at +B, and their
    # negatives at -B, so 17 fields at +B are summed: with B = 2^61 - 1
    # that is above 2^64, more than a field width without the bitlen(n)
    # headroom could hold.
    parts = [bound // 3, bound // 3, bound - 2 * (bound // 3)]
    q = [[v] * 16 + [-v] * 16 + [0, 0] for v in parts]
    inst = Instance(q, [0, 0, 0], [0] * 32 + [bound, -bound])
    sol = solve_enumeration(inst)
    assert sol == list_loop_enumeration(inst)
    assert sol.x == (1, 1, 1)
    assert sol.y == (1,) * 16 + (0,) * 16 + (1, 0)
    assert sol.value == 17 * bound
