"""Property tests: every applicable solver, and ``auto``, against the oracle.

Instances are drawn by hypothesis with adversarial coefficients: small
ints, rationals with large coprime denominators, and ints above 2^53 (where
float ratio keys collide), in shapes 1 x n, m > n and m <= n, including the
zero matrix and structured matrices that the specialized solvers accept.
Each optimum is checked against ``solve_oracle`` and against the plain
Fraction scan of ``conftest.exhaustive_best``, and each route's point is
checked to be a mutual best response.  Instances built from ints must have
the integer form of the same instance built from Fractions.
"""

from fractions import Fraction
from itertools import product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bqp01 import (
    CutInstance,
    Instance,
    RankOneForm,
    cut_to_bqp01,
    detect_additive,
    detect_nonnegative,
    dispatch_solve,
    evaluate_cut_objective,
    evaluate_objective,
    min_negative_eliminator,
    rank_factorize,
    solve_additive,
    solve_enumeration,
    solve_fixed_rank,
    solve_nonnegative,
    solve_oracle,
    solve_rank_one,
    solve_with_eliminator,
)

from conftest import assert_mutual_best_response, exhaustive_best

PROPERTY = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SMALL = st.integers(-6, 6)
COPRIME = st.builds(
    Fraction, st.integers(-30_000, 30_000), st.sampled_from([10007, 10009, 9973])
)
HUGE = st.sampled_from([2**53, 2**53 + 1, 2**53 + 2, -(2**53) - 1, 3 * 2**60 + 1]) | st.integers(
    -(2**64), 2**64
)
VALUES = st.one_of(SMALL, COPRIME, HUGE)
INTS = st.one_of(SMALL, HUGE)
KINDS = ("dense", "zero", "rank1", "additive", "nonnegative", "sparse-negative")


@st.composite
def coefficients(draw, values=VALUES):
    """(q, c, d, c0) of one of the KINDS, with 1 <= m, n <= 4."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(KINDS))

    def vec(size):
        return draw(st.lists(values, min_size=size, max_size=size))

    if kind == "zero":
        q = [[0] * n for _ in range(m)]
    elif kind in ("rank1", "additive"):
        a, b = vec(m), vec(n)
        q = [[ai * bj if kind == "rank1" else ai + bj for bj in b] for ai in a]
    elif kind == "dense":
        q = [vec(n) for _ in range(m)]
    else:
        q = [[abs(v) for v in vec(n)] for _ in range(m)]
        if kind == "sparse-negative":
            q[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = -abs(draw(values)) - 1
    return q, vec(m), vec(n), draw(values)


def applicable(inst: Instance) -> list[str]:
    """Named algorithms whose precondition the 0-1 instance meets."""
    names = ["auto", "oracle", "enum", "rankp", "eliminator"]
    if rank_factorize(inst.q).p <= 1:
        names.append("rank1")
    if detect_additive(inst.q) is not None:
        names.append("additive")
    if detect_nonnegative(inst.q):
        names.append("mincut")
    return names


@PROPERTY
@given(coefficients())
def test_every_applicable_solver_matches_the_oracle(coeffs):
    inst = Instance(*coeffs)
    best = solve_oracle(inst).value
    assert best == exhaustive_best(inst)
    for name in applicable(inst):
        sol = dispatch_solve(inst, name).solution
        assert_mutual_best_response(inst, sol.x, sol.y)
        assert sol.value == best, name
        assert evaluate_objective(inst, sol.x, sol.y) == best, name

    # The public solvers called directly on the rational instance.
    direct = [
        solve_enumeration(inst),
        solve_fixed_rank(inst),
        solve_with_eliminator(inst, min_negative_eliminator(inst.q)),
    ]
    if rank_factorize(inst.q).p <= 1:
        direct.append(solve_rank_one(RankOneForm.from_instance(inst)))
    if detect_additive(inst.q) is not None:
        direct.append(solve_additive(inst))
    if detect_nonnegative(inst.q):
        direct.append(solve_nonnegative(inst))
    for sol in direct:
        assert_mutual_best_response(inst, sol.x, sol.y)
        assert sol.value == best
        assert evaluate_objective(inst, sol.x, sol.y) == best


@PROPERTY
@given(coefficients())
def test_cut_form_solvers_match_the_sign_space_optimum(coeffs):
    cut = CutInstance(*coeffs)
    best = max(
        evaluate_cut_objective(cut, x, y)
        for x in product((-1, 1), repeat=cut.m)
        for y in product((-1, 1), repeat=cut.n)
    )
    binary = cut_to_bqp01(cut)
    for name in applicable(binary):
        sol = dispatch_solve(cut, name).solution
        bits = [(s + 1) // 2 for s in sol.x], [(s + 1) // 2 for s in sol.y]
        assert_mutual_best_response(binary, *bits)
        assert sol.value == best, name
        assert evaluate_cut_objective(cut, sol.x, sol.y) == best, name


@PROPERTY
@given(coefficients(), st.data())
def test_integer_instance_round_trips_the_objective(coeffs, data):
    inst = Instance(*coeffs)
    work = inst.integer
    assert work.scale > 0
    assert all(type(v) is int for row in work.q for v in row)
    assert all(type(v) is int for v in (*work.c, *work.d, work.c0))
    for _ in range(4):
        x = data.draw(st.lists(st.integers(0, 1), min_size=inst.m, max_size=inst.m))
        y = data.draw(st.lists(st.integers(0, 1), min_size=inst.n, max_size=inst.n))
        assert Fraction(work.objective(x, y), work.scale) == evaluate_objective(inst, x, y)


@PROPERTY
@given(coefficients(INTS))
def test_int_built_instance_has_the_fraction_built_integer_form(coeffs):
    q, c, d, c0 = coeffs
    inst = Instance(q, c, d, c0)
    rational = Instance(
        [[Fraction(v) for v in row] for row in q], map(Fraction, c), map(Fraction, d), Fraction(c0)
    )
    assert inst.integer == rational.integer
    assert inst.integer.scale == 1
    assert all(mine is theirs for mine, theirs in zip(inst.integer.q, inst.q))


@PROPERTY
@given(st.integers(2**55, 2**70), st.integers(1, 5), st.booleans())
def test_rank_one_sweep_orders_float_equal_ratios_exactly(big, gap, swap):
    # c1 < L < K < c2 with c2 - c1 below a float ulp of the ratios c_i / a_i,
    # so only exact ordering of equal-float ratios finds the unique optimum
    # x = (index of c2), y = (1,) with value c2 + L.
    c1, c2 = big, big + gap
    low, high = c1 + Fraction(gap, 3), c1 + Fraction(2 * gap, 3)
    c = (c2, c1) if swap else (c1, c2)
    inst = Instance([[-high], [-high]], c, [high + low], 0)
    best = c2 + low
    assert solve_oracle(inst).value == best
    direct = solve_rank_one(RankOneForm.from_instance(inst))
    for sol in (direct, dispatch_solve(inst, "rank1").solution):
        assert_mutual_best_response(inst, sol.x, sol.y)
        assert sol.value == best
