import random
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bqp01 import (
    CutInstance,
    Instance,
    RankOneForm,
    Solution,
    analyze,
    dispatch_solve,
    evaluate_cut_objective,
    evaluate_objective,
    generate_instance,
    pkp_breakpoints,
    solve_rank_one,
    ulp_breakpoints,
)
from bqp01.fixtures import sample_rank_one
from bqp01.rank_one import _sorted_ratio_groups

from conftest import exhaustive_best, random_rank_one_instance, random_vector


RICH = RankOneForm.from_instance(sample_rank_one())


def test_form_recovery_from_instance():
    assert RICH.a == (2, 2, -3, 4, -2)
    assert RICH.b == (1, 1, -4, 0, -1, -2, 1)
    assert RICH.lambda_min == -5
    assert RICH.lambda_max == 8


def test_form_rejects_higher_rank():
    inst = Instance([[1, 0], [0, 1]])
    for build in (RankOneForm.from_instance, solve_rank_one, pkp_breakpoints, ulp_breakpoints):
        with pytest.raises(ValueError, match="rank > 1"):
            build(inst)


def test_concave_track_known_values():
    track = pkp_breakpoints(RICH)
    assert track.breakpoints == (-5, 1, 3, 6, 8)
    assert track.values == (11, 26, 30, 24, 19)
    states = [track.state_after(k) for k in range(5)]
    assert states == [
        (0, 0, 1, 0, 1),
        (0, 1, 1, 1, 1),
        (1, 1, 1, 1, 1),
        (1, 1, 0, 1, 1),
        (1, 1, 0, 1, 0),
    ]


def test_convex_track_known_values():
    track = ulp_breakpoints(RICH)
    assert track.breakpoints == (-2, 0, Fraction(3, 4), 2, 4)
    assert track.values == (27, 17, Fraction(59, 4), 16, 20)
    assert track.initial == (1, 0, 1, 1, 1, 1, 0)
    assert (track.intercepts[0], track.slopes[0]) == (15, -6)
    assert (track.intercepts[3], track.slopes[3]) == (14, 1)
    assert track.intercepts[0] + RICH.lambda_min * track.slopes[0] == 45


def test_sweep_candidate_scores():
    concave = pkp_breakpoints(RICH)
    convex = ulp_breakpoints(RICH)
    scores = []
    flips = 0
    for k, t in enumerate(concave.breakpoints):
        while flips < len(convex.breakpoints) and convex.breakpoints[flips] <= t:
            flips += 1
        scores.append(
            concave.values[k] + convex.intercepts[flips] + t * convex.slopes[flips]
        )
    assert scores == [56, 41, 48, 50, 51]


def test_solver_on_rich_instance():
    sol = solve_rank_one(RICH)
    assert sol.value == 56
    assert sol.x == (0, 0, 1, 0, 1)
    assert sol.y == (1, 0, 1, 1, 1, 1, 0)
    assert RICH.evaluate(sol.x, sol.y) == 56


def test_trivial_single_cell():
    form = RankOneForm([1], [1], [0], [0], 0)
    assert solve_rank_one(form).value == 1
    track = pkp_breakpoints(form)
    assert track.breakpoints == (0, 1)
    assert track.values == (0, 0)


def test_concave_track_degenerate_zero_a():
    form = RankOneForm([0, 0], [1, 2], [3, -1], [0, 0], 0)
    track = pkp_breakpoints(form)
    assert track.breakpoints == (0,)
    assert track.groups == ()
    assert track.initial == (1, 0)
    assert track.values == (3,)


def test_convex_track_no_breakpoints_for_zero_b():
    form = RankOneForm([1], [0, 0], [0], [1, -1], 0)
    track = ulp_breakpoints(form)
    assert track.breakpoints == ()
    assert track.initial == (1, 0)
    assert track.intercepts == (1,) and track.slopes == (0,)


def test_zero_rate_zero_offset_starts_differ_between_tracks():
    # a_0 = c_0 = 0 starts at x_0 = 0 (the knapsack needs c_i > 0), while
    # b_0 = d_0 = 0 starts at y_0 = 1 (a zero margin takes b_j's sign, and
    # b_0 = 0 >= 0).  No ratio toggles them, so the solution keeps both.
    form = RankOneForm([0, 1], [0, -1], [0, 2], [0, 3], 0)
    assert pkp_breakpoints(form).initial == (0, 0)
    assert ulp_breakpoints(form).initial == (1, 1)
    sol = solve_rank_one(form)
    assert (sol.x, sol.y, sol.value) == ((0, 1), (1, 1), 4)


def test_boundary_tie_enters_initial_solution():
    # d + lambda_min * b == 0 is included (the >= rule).
    assert RICH.d[0] + RICH.lambda_min * RICH.b[0] == 0
    assert ulp_breakpoints(RICH).initial[0] == 1


def test_track_structural_invariants():
    rng = random.Random(51)
    for _ in range(60):
        inst = random_rank_one_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
        form = RankOneForm.from_instance(inst)
        concave = pkp_breakpoints(form)
        m = len(form.a)
        assert len(concave.breakpoints) <= m + 1
        assert concave.breakpoints[0] == form.lambda_min
        assert concave.breakpoints[-1] == form.lambda_max
        # Exact state identities at every breakpoint.
        for k, t in enumerate(concave.breakpoints):
            x = concave.state_after(k)
            assert sum(a * xi for a, xi in zip(form.a, x)) == t
            assert sum(c * xi for c, xi in zip(form.c, x)) == concave.values[k]
        # Concavity: segment slopes strictly decrease.
        slopes = [
            (concave.values[k + 1] - concave.values[k])
            / (concave.breakpoints[k + 1] - concave.breakpoints[k])
            for k in range(len(concave.breakpoints) - 1)
        ]
        assert all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:]))

        convex = ulp_breakpoints(form)
        # Convexity: running slopes strictly increase.
        assert all(
            s1 < s2 for s1, s2 in zip(convex.slopes, convex.slopes[1:])
        )
        # Flips are value-neutral exactly at their tie points.
        for t, group in zip(convex.breakpoints, convex.groups):
            for j, _ in group:
                assert form.d[j] + t * form.b[j] == 0
        # Envelope values match the recorded intercept/slope pairs.
        for ell, t in enumerate(convex.breakpoints):
            state = convex.state_after(ell + 1)
            dy = sum(dv for dv, yj in zip(form.d, state) if yj)
            by = sum(bv for bv, yj in zip(form.b, state) if yj)
            assert dy == convex.intercepts[ell + 1]
            assert by == convex.slopes[ell + 1]
            assert convex.values[ell] == dy + t * by


def test_track_flip_groups_disjoint():
    track = pkp_breakpoints(RICH)
    seen = set()
    for group in track.groups:
        for index, _ in group:
            assert index not in seen
            seen.add(index)


def test_solver_matches_oracle():
    rng = random.Random(52)
    for _ in range(300):
        inst = random_rank_one_instance(rng, rng.randint(1, 5), rng.randint(1, 6))
        form = RankOneForm.from_instance(inst)
        sol = solve_rank_one(form)
        assert sol.value == exhaustive_best(inst)
        assert form.evaluate(sol.x, sol.y) == sol.value


def test_solver_handles_zero_matrix():
    inst = Instance([[0, 0], [0, 0]], [1, -1], [-1, 1], 2)
    form = RankOneForm.from_instance(inst)
    assert form.a == form.b == (0, 0)
    assert solve_rank_one(form).value == solve_rank_one(inst).value == 4


def test_sweep_solves_one_sided_linear_terms():
    # The c = 0 or d = 0 special case needs no solver of its own.
    rng = random.Random(53)
    for _ in range(150):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = random_vector(rng, m, -5, 5)
        b = random_vector(rng, n, -5, 5)
        if rng.random() < 0.5:
            c, d = random_vector(rng, m, -5, 5), [0] * n
        else:
            c, d = [0] * m, random_vector(rng, n, -5, 5)
        inst = Instance([[ai * bj for bj in b] for ai in a], c, d)
        assert solve_rank_one(RankOneForm(a, b, c, d)).value == exhaustive_best(inst)


def test_sorted_ratio_groups_match_a_fraction_reference():
    def reference(pairs):
        order = sorted(pairs, key=lambda p: (Fraction(p[0], p[1]), p[2]))
        runs = groupby(order, key=lambda p: Fraction(p[0], p[1]))
        return [[idx for _, _, idx in run] for _, run in runs]

    rng = random.Random(211)
    for trial in range(300):
        big = (9, 2**40, 2**70)[trial % 3]
        pairs = []
        for idx in range(rng.randint(0, 25)):
            roll = rng.random()
            if pairs and roll < 0.3:
                # The same ratio written with other terms.
                num, den, _ = rng.choice(pairs)
                k = rng.randint(2, 9)
                pairs.append((k * num, k * den, idx))
            elif pairs and roll < 0.5:
                # A ratio within 1/(k * den) of an earlier one.
                num, den, _ = rng.choice(pairs)
                k = rng.randint(2, 9)
                pairs.append((k * num + rng.choice((-1, 1)), k * den, idx))
            else:
                pairs.append((rng.randint(-big, big), rng.randint(1, big), idx))
        rng.shuffle(pairs)
        assert _sorted_ratio_groups(pairs) == reference(pairs)


# --- one answer from an instance and from its form -----------------------------

SAME_ANSWER = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENTRIES = {
    "int": st.integers(-5, 5),
    "fraction": st.fractions(-4, 4, max_denominator=6),
    "big": st.sampled_from([0, 1, -3, 2**53 + 1, -(2**60) - 3, 2**61 + 5]),
}


@st.composite
def rank_one_instances(draw):
    """q = a b^T, 0-1 or cut form, of ints, Fractions or entries above 2^53,
    with zero rows and columns, sometimes a zero matrix, and ties planted:
    c_i = k a_i on chosen rows, and b_j = d_j = 0 on chosen columns."""
    values = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))

    def vec(size):
        return draw(st.lists(values, min_size=size, max_size=size))

    a, b, c, d = vec(m), vec(n), vec(m), vec(n)
    if draw(st.booleans()):
        a = [0] * m
    k = draw(st.integers(-3, 3))
    for i in draw(st.sets(st.integers(0, m - 1))):
        c[i] = k * a[i]
    for j in draw(st.sets(st.integers(0, n - 1))):
        b[j] = d[j] = 0
    cls = draw(st.sampled_from((Instance, CutInstance)))
    return cls([[ai * bj for bj in b] for ai in a], c, d, draw(values))


@SAME_ANSWER
@given(rank_one_instances())
def test_instance_and_its_form_give_one_answer(inst):
    form = RankOneForm.from_instance(inst)
    sol = solve_rank_one(inst)
    assert sol == solve_rank_one(form)
    for build in (pkp_breakpoints, ulp_breakpoints):
        assert vars(build(inst)) == vars(build(form))

    # A lower-level solver reads a cut instance as its 0-1 rewrite, and
    # dispatch reports that point as signs.
    cut = isinstance(inst, CutInstance)
    evaluate = evaluate_cut_objective if cut else evaluate_objective
    signs = (lambda vec: tuple(2 * v - 1 for v in vec)) if cut else tuple
    assert evaluate(inst, signs(sol.x), signs(sol.y)) == sol.value
    # dispatch solves the integer form with m <= n, so a taller instance
    # is swept along its other side and may end on another tied optimum.
    found = analyze(inst)
    if found.transposed:
        swept = solve_rank_one(found.work)
        assert swept.value == sol.value
        x, y = swept.y, swept.x
    else:
        x, y = sol.x, sol.y
    assert dispatch_solve(inst, "rank1").solution == Solution(signs(x), signs(y), sol.value)


def test_dispatch_builds_no_form(monkeypatch):
    def refuse(self):
        raise AssertionError("RankOneForm built on the rank1 route")

    monkeypatch.setattr(RankOneForm, "__post_init__", refuse)
    plain = generate_instance("rank1", 6, 9, 3)
    for inst in (plain, CutInstance(plain.q, plain.c, plain.d), generate_instance("rank1", 9, 4, 5)):
        for algorithm in ("auto", "rank1"):
            assert dispatch_solve(inst, algorithm).algorithm == "rank1"
