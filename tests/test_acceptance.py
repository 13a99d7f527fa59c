"""Acceptance suite: one test per top-level correctness/performance criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS line per criterion.  All value comparisons are exact rational
equality; the only tolerances anywhere are wall-clock budgets.
"""

import gc
import random
import time
from fractions import Fraction
from itertools import product
from math import comb

from bqp01 import (
    CutInstance,
    Instance,
    RankOneForm,
    SplitMix64,
    bqp01_to_cut,
    bqp01_to_qp01,
    bqp11h_to_bmaxcut,
    bmaxcut_to_bqp11h,
    cut_to_bqp01,
    detect_additive,
    enumerate_dual_feasible_bases,
    evaluate_cut_objective,
    evaluate_objective,
    generate_instance,
    min_negative_eliminator,
    mwbp_to_bqp01,
    pkp_breakpoints,
    qp01_to_bqp01,
    rank1_binary_approx_to_bqp01,
    rank_factorize,
    solve_additive,
    solve_enumeration,
    solve_fixed_rank,
    solve_nonnegative,
    solve_oracle,
    solve_rank_one,
    solve_with_eliminator,
    to_homogeneous,
    ulp_breakpoints,
    BipartiteWeightedGraph,
)
from bqp01.fixed_rank import candidates_from_basis
from bqp01.fixtures import sample_rank_one
from bqp01.mincut import build_cut_network

from conftest import exhaustive_best, matching_size


def report(criterion: int, message: str) -> None:
    print(f"criterion {criterion}: PASS - {message}")


def test_criterion_1_breakpoint_tracks_reproduce_known_study():
    start = time.perf_counter()
    form = RankOneForm.from_instance(sample_rank_one())
    concave = pkp_breakpoints(form)
    convex = ulp_breakpoints(form)
    elapsed = time.perf_counter() - start
    assert concave.breakpoints == (-5, 1, 3, 6, 8)
    assert concave.values == (11, 26, 30, 24, 19)
    assert convex.breakpoints == (-2, 0, Fraction(3, 4), 2, 4)
    assert convex.values == (27, 17, Fraction(59, 4), 16, 20)
    assert convex.intercepts[0] + form.lambda_min * convex.slopes[0] == 45
    assert elapsed < 1.0
    report(1, f"both breakpoint tracks exact in {elapsed:.3f}s")


def test_criterion_2_rich_sample_optimum_by_four_solvers():
    inst = sample_rank_one()
    values = {
        "rank1": solve_rank_one(RankOneForm.from_instance(inst)).value,
        "rankp": solve_fixed_rank(inst).value,
        "enum": solve_enumeration(inst).value,
        "oracle": solve_oracle(inst).value,
    }
    assert set(values.values()) == {Fraction(56)}, values
    report(2, "rank1, rankp, enum, oracle all return 56")


def test_criterion_3_oracle_equivalence_suites():
    start = time.perf_counter()
    checked = {}

    count = 0
    for seed in range(1000):
        rng = random.Random(seed * 7 + 1)
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        inst = generate_instance("rank1", m, n, seed)
        form = RankOneForm.from_instance(inst)
        track = pkp_breakpoints(form)
        assert len(track.breakpoints) <= m + 1
        assert solve_rank_one(form).value == solve_oracle(inst).value
        count += 1
    checked["rank-one"] = count

    for p in (1, 2, 3):
        count = 0
        for seed in range(500):
            rng = random.Random(seed * 11 + p)
            m, n = rng.randint(p, 6), rng.randint(p, 6)
            inst = generate_instance(f"rank{p}", m, n, seed)
            fact = rank_factorize(inst.q)
            assert fact.p == p
            structures = enumerate_dual_feasible_bases(fact.left, inst.c)
            candidates = sum(len(candidates_from_basis(s)) for s in structures)
            assert candidates <= comb(m, p) * 2 ** p
            assert solve_fixed_rank(inst).value == solve_oracle(inst).value
            count += 1
        checked[f"rank-{p}"] = count

    count = 0
    for seed in range(500):
        rng = random.Random(seed * 13 + 5)
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        inst = generate_instance("additive", m, n, seed)
        assert detect_additive(inst.q) is not None
        assert solve_additive(inst).value == solve_oracle(inst).value
        count += 1
    checked["additive"] = count

    count = 0
    for seed in range(500):
        rng = random.Random(seed * 17 + 3)
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        inst = generate_instance("nonnegative", m, n, seed)
        assert solve_nonnegative(inst).value == solve_oracle(inst).value
        count += 1
    checked["nonnegative"] = count

    count = 0
    for seed in range(500):
        rng = random.Random(seed * 19 + 9)
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        k = rng.randint(0, 3)
        inst = generate_instance(f"sparse-negative{k}" if k else "nonnegative", m, n, seed)
        elim = min_negative_eliminator(inst.q)
        assert elim.size <= 3
        assert solve_with_eliminator(inst, elim).value == solve_oracle(inst).value
        count += 1
    checked["sparse-negative"] = count

    elapsed = time.perf_counter() - start
    assert checked == {
        "rank-one": 1000,
        "rank-1": 500,
        "rank-2": 500,
        "rank-3": 500,
        "additive": 500,
        "nonnegative": 500,
        "sparse-negative": 500,
    }
    assert elapsed <= 300.0
    report(3, f"4000 solver-vs-oracle equalities, exact, in {elapsed:.1f}s")


def test_criterion_4_structural_bounds():
    breakpoint_checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        inst = generate_instance("rank1", m, n, seed + 5000)
        track = pkp_breakpoints(RankOneForm.from_instance(inst))
        assert len(track.breakpoints) <= m + 1
        breakpoint_checked += 1

    candidate_checked = 0
    for p in (1, 2, 3):
        for seed in range(100):
            rng = random.Random(seed + 100 * p)
            m, n = rng.randint(p, 6), rng.randint(p, 6)
            inst = generate_instance(f"rank{p}", m, n, seed + 9000)
            fact = rank_factorize(inst.q)
            structures = enumerate_dual_feasible_bases(fact.left, inst.c)
            assert len(structures) <= comb(m, p)
            total = sum(len(candidates_from_basis(s)) for s in structures)
            assert total <= comb(m, p) * 2 ** p
            candidate_checked += 1

    report(
        4,
        f"breakpoints <= m+1 on {breakpoint_checked} instances, "
        f"candidates <= C(m,p)*2^p on {candidate_checked} instances",
    )


def _random_rank_one_form(size: int, seed: int) -> RankOneForm:
    rng = SplitMix64(seed)
    return RankOneForm(
        [rng.randint(-1000, 1000) for _ in range(size)],
        [rng.randint(-1000, 1000) for _ in range(size)],
        [rng.randint(-1000, 1000) for _ in range(size)],
        [rng.randint(-1000, 1000) for _ in range(size)],
        rng.randint(-1000, 1000),
    )


def test_criterion_5_scale_smoke():
    # Rank-one at 100k variables per side.
    form = _random_rank_one_form(100_000, 2024)
    gc.collect()
    start = time.perf_counter()
    sol = solve_rank_one(form)
    rank1_time = time.perf_counter() - start
    assert sol.value == form.evaluate(sol.x, sol.y)
    assert rank1_time <= 10.0

    # Doubling n costs at most ~2.5x (n log n with slack); the two sizes
    # are timed interleaved, best of three each, to damp machine noise.
    halves, fulls = [], []
    for seed in (31, 32, 33):
        halves.append(_timed_solve(_random_rank_one_form(50_000, seed)))
        fulls.append(_timed_solve(_random_rank_one_form(100_000, seed + 10)))
    half, full = min(halves), min(fulls)
    assert full <= 2.5 * half + 0.1, (halves, fulls)

    # Additive at 2000x2000.
    rng = SplitMix64(77)
    a = [rng.randint(-50, 50) for _ in range(2000)]
    b = [rng.randint(-50, 50) for _ in range(2000)]
    inst = Instance(
        [[ai + bj for bj in b] for ai in a],
        [rng.randint(-50, 50) for _ in range(2000)],
        [rng.randint(-50, 50) for _ in range(2000)],
        rng.randint(-50, 50),
    )
    assert detect_additive(inst.q) is not None
    start = time.perf_counter()
    additive_sol = solve_additive(inst)
    additive_time = time.perf_counter() - start
    assert additive_time <= 30.0
    assert sum(additive_sol.x) >= 0  # solution materialized

    # Min-cut at 200x200.
    rng = SplitMix64(55)
    inst = Instance(
        [[rng.randint(0, 20) for _ in range(200)] for _ in range(200)],
        [rng.randint(-3000, 500) for _ in range(200)],
        [rng.randint(-3000, 500) for _ in range(200)],
        3,
    )
    start = time.perf_counter()
    cut_sol = solve_nonnegative(inst)
    mincut_time = time.perf_counter() - start
    assert mincut_time <= 10.0
    assert cut_sol.value == evaluate_objective(inst, cut_sol.x, cut_sol.y)

    report(
        5,
        f"rank1 100k {rank1_time:.2f}s (<=10), doubling {full / half:.2f}x (<=2.5), "
        f"additive 2000 {additive_time:.2f}s (<=30), mincut 200 {mincut_time:.2f}s (<=10)",
    )


def _timed_solve(form: RankOneForm) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        solve_rank_one(form)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _signs(bits):
    return tuple(2 * v - 1 for v in bits)


def test_criterion_6_transformation_identities_exhaustive():
    rng = random.Random(606)
    instances = 0
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        inst = Instance(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)],
            [rng.randint(-5, 5) for _ in range(m)],
            [rng.randint(-5, 5) for _ in range(n)],
            rng.randint(-3, 3),
        )
        points = [
            (x, y)
            for x in product((0, 1), repeat=m)
            for y in product((0, 1), repeat=n)
        ]

        # Sign-form rewrite: pointwise identity and exact round-trip.
        cut = bqp01_to_cut(inst)
        assert cut_to_bqp01(cut) == inst
        for x, y in points:
            assert evaluate_cut_objective(cut, _signs(x), _signs(y)) == \
                evaluate_objective(inst, x, y)

        # Homogenization: optimum shifts by exactly M, borders stick at 1.
        hom, m_val = to_homogeneous(inst)
        best = exhaustive_best(inst)
        hom_best = exhaustive_best(hom)
        assert hom_best == best + m_val
        for x in product((0, 1), repeat=hom.m):
            for y in product((0, 1), repeat=hom.n):
                if evaluate_objective(hom, x, y) == hom_best:
                    assert x[-1] == 1 and y[-1] == 1

        # Square block embedding evaluates identically.
        matrix, linear, constant = bqp01_to_qp01(inst)
        size = m + n
        for x, y in points:
            w = x + y
            value = (
                sum(matrix[i][j] * w[i] * w[j] for i in range(size) for j in range(size))
                + sum(linear[i] * w[i] for i in range(size))
                + constant
            )
            assert value == evaluate_objective(inst, x, y)

        # Square-to-bipartite embedding: diagonal optima, matching values.
        square = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(m)]
        lin = [rng.randint(-4, 4) for _ in range(m)]
        embedded, _ = qp01_to_bqp01(square, lin, inst.c0)
        square_best = max(
            sum(square[i][j] * u[i] * u[j] for i in range(m) for j in range(m))
            + sum(lin[i] * u[i] for i in range(m))
            + inst.c0
            for u in product((0, 1), repeat=m)
        )
        embedded_best = exhaustive_best(embedded)
        assert embedded_best == square_best
        for x in product((0, 1), repeat=m):
            for y in product((0, 1), repeat=m):
                if evaluate_objective(embedded, x, y) == embedded_best:
                    assert x == y

        # Max-cut correspondences, both directions, pointwise.
        hom_cut = CutInstance(inst.q)
        graph = bqp11h_to_bmaxcut(hom_cut)
        total_q = sum(v for row in inst.q for v in row)
        weight_of = {(i, j): w for i, j, w in graph.edges}
        for x, y in points:
            sx, sy = _signs(x), _signs(y)
            cut_val = sum(
                (w for (i, j), w in weight_of.items() if sx[i] == -sy[j]), Fraction(0)
            )
            assert evaluate_cut_objective(hom_cut, sx, sy) == total_q + cut_val

        back = bmaxcut_to_bqp11h(graph)
        half_total = graph.total_weight() / 2
        for x, y in points:
            sx, sy = _signs(x), _signs(y)
            cut_val = sum(
                (w for (i, j), w in weight_of.items() if sx[i] == -sy[j]), Fraction(0)
            )
            assert cut_val == half_total + evaluate_cut_objective(back, sx, sy)

        # Biclique reduction: reduced optimum equals the best biclique weight.
        positive = [(i, j, inst.q[i][j]) for i in range(m) for j in range(n)
                    if inst.q[i][j] > 0]
        if positive:
            graph = BipartiteWeightedGraph(m, n, tuple(positive))
            reduced = mwbp_to_bqp01(graph)
            present = {(i, j) for i, j, _ in positive}
            best_biclique = Fraction(0)
            for rows_pick in product((0, 1), repeat=m):
                for cols_pick in product((0, 1), repeat=n):
                    chosen_rows = [i for i in range(m) if rows_pick[i]]
                    chosen_cols = [j for j in range(n) if cols_pick[j]]
                    if all(
                        (i, j) in present
                        for i in chosen_rows
                        for j in chosen_cols
                    ):
                        weight = sum(
                            (inst.q[i][j] for i in chosen_rows for j in chosen_cols),
                            Fraction(0),
                        )
                        best_biclique = max(best_biclique, weight)
            assert exhaustive_best(reduced) == best_biclique

        # Rank-one binary fit: exact error expansion everywhere.
        h = [[1 if inst.q[i][j] > 0 else 0 for j in range(n)] for i in range(m)]
        fit = rank1_binary_approx_to_bqp01(h)
        total_h = sum(v for row in h for v in row)
        for u, v in points:
            error = sum(
                (h[i][j] - u[i] * v[j]) ** 2 for i in range(m) for j in range(n)
            )
            bilinear = sum(
                fit.q[i][j] * u[i] * v[j] for i in range(m) for j in range(n)
            )
            assert error == total_h + bilinear

        instances += 1
    assert instances == 200
    report(6, "all core transformation identities exact on every feasible point")


def test_criterion_7_cover_size_equals_matching_size():
    rng = random.Random(707)
    for trial in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        q = [[rng.randint(0, 6) for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(0, m * n // 2)):
            q[rng.randrange(m)][rng.randrange(n)] = rng.randint(-6, -1)
        elim = min_negative_eliminator(q)
        assert elim.size == matching_size(q)
        for i in range(m):
            for j in range(n):
                if q[i][j] < 0:
                    assert i in elim.rows or j in elim.cols
    report(7, "eliminator = minimum vertex cover on 500 random negativity graphs")


def test_criterion_8_cut_identity_all_labelings():
    rng = random.Random(808)
    for trial in range(100):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        inst = Instance(
            [[rng.randint(0, 6) for _ in range(n)] for _ in range(m)],
            [rng.randint(-6, 6) for _ in range(m)],
            [rng.randint(-6, 6) for _ in range(n)],
            rng.randint(-4, 4),
        )
        net, offset = build_cut_network(inst)
        for x in product((0, 1), repeat=m):
            for y in product((0, 1), repeat=n):
                side = {0}
                side.update(2 + i for i, v in enumerate(x) if v)
                side.update(2 + m + j for j, v in enumerate(y) if v)
                capacity = sum(
                    (w for u, v, w in net.arcs if u in side and v not in side),
                    Fraction(0),
                )
                assert offset - capacity == evaluate_objective(inst, x, y)
    report(8, "offset - induced cut = objective on all labelings of 100 instances")
