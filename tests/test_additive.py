import random
from fractions import Fraction
from itertools import accumulate, combinations

import pytest

from bqp01 import additive as additive_mod
from bqp01 import (
    Instance,
    Solution,
    detect_additive,
    evaluate_objective,
    solve_additive,
    solve_fixed_rank,
)
from bqp01.fixtures import sample_additive
from bqp01.generate import generate_instance

from conftest import exhaustive_best, random_vector


def random_additive_instance(rng, m, n, lo=-6, hi=6):
    a = random_vector(rng, m, lo, hi)
    b = random_vector(rng, n, lo, hi)
    q = [[ai + bj for bj in b] for ai in a]
    return Instance(
        q, random_vector(rng, m, lo, hi), random_vector(rng, n, lo, hi),
        rng.randint(lo, hi),
    )


def test_known_optimum():
    inst = sample_additive()
    sol = solve_additive(inst)
    assert sol.value == 4
    assert sol.x == (1, 1) and sol.y == (1, 0)
    assert evaluate_objective(inst, sol.x, sol.y) == 4


def test_pure_linear_instance():
    inst = Instance([[0, 0], [0, 0]], [1, -1], [2, -2], 0)
    sol = solve_additive(inst)
    assert sol.value == 3
    assert sol.x == (1, 0) and sol.y == (1, 0)


def test_rejects_mismatched_decomposition():
    # q_11 - q_10 - q_01 + q_00 = 2, so no a, b give q_ij = a_i + b_j.
    with pytest.raises(ValueError, match=r"mismatch at \(1, 1\)"):
        solve_additive(Instance([[1, 0], [0, 1]]))


def test_matches_oracle():
    rng = random.Random(71)
    for _ in range(150):
        inst = random_additive_instance(rng, rng.randint(1, 4), rng.randint(1, 5))
        sol = solve_additive(inst)
        assert sol.value == exhaustive_best(inst)
        assert sol.value == evaluate_objective(inst, sol.x, sol.y)


def test_greedy_cardinality_selection_is_optimal():
    # Core selection rule: the best size-L subset under linear keys is the
    # top L keys; checked against subset brute force.
    rng = random.Random(73)
    for _ in range(60):
        m = rng.randint(1, 5)
        keys = [Fraction(rng.randint(-9, 9)) for _ in range(m)]
        order = sorted(range(m), key=lambda i: (-keys[i], i))
        for size in range(m + 1):
            greedy = sum(keys[i] for i in order[:size])
            brute = max(
                (sum(keys[i] for i in chosen) for chosen in combinations(range(m), size)),
                default=Fraction(0),
            ) if size else Fraction(0)
            assert greedy == brute


def test_solution_cardinalities_are_consistent():
    rng = random.Random(74)
    for _ in range(40):
        inst = random_additive_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        dec = detect_additive(inst.q)
        sol = solve_additive(inst)
        k, l = sum(sol.y), sum(sol.x)
        # Re-deriving the two sides at the returned cardinalities reproduces
        # the returned value.
        f1 = sum(
            sorted((k * dec.row_offsets[i] + inst.c[i] for i in range(inst.m)),
                   reverse=True)[:l],
            Fraction(0),
        )
        f2 = sum(
            sorted((l * dec.col_offsets[j] + inst.d[j] for j in range(inst.n)),
                   reverse=True)[:k],
            Fraction(0),
        )
        assert f1 + f2 + inst.c0 == sol.value


def test_agrees_with_rank_based_solver():
    rng = random.Random(75)
    for _ in range(300):
        inst = random_additive_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert solve_additive(inst).value == solve_fixed_rank(inst).value


def test_fractional_coefficients():
    inst = Instance(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(7, 6), Fraction(1, 1)]],
        [Fraction(-1, 4), 1],
        [0, Fraction(2, 5)],
        Fraction(1, 7),
    )
    dec = detect_additive(inst.q)
    assert dec is not None
    sol = solve_additive(inst)
    assert sol.value == exhaustive_best(inst)


def tie_rule_reference(inst):
    """The documented scan, written out: K = 0..n, then L = 0..m, stable
    top-L / top-K selections, and the first strictly best pair kept."""
    dec = detect_additive(inst.q)
    a, b = dec.row_offsets, dec.col_offsets

    def top(count, keys):
        chosen = sorted(range(len(keys)), key=lambda i: -keys[i])[:count]
        return tuple(int(i in chosen) for i in range(len(keys)))

    best = None
    for k in range(inst.n + 1):
        for l in range(inst.m + 1):
            x = top(l, [k * a[i] + inst.c[i] for i in range(inst.m)])
            y = top(k, [l * b[j] + inst.d[j] for j in range(inst.n)])
            value = evaluate_objective(inst, x, y)
            if best is None or value > best.value:
                best = Solution(x, y, value)
    return best


def test_tie_rule_matches_reference():
    rng = random.Random(76)
    for trial in range(300):
        inst = random_additive_instance(rng, rng.randint(1, 4), rng.randint(1, 4), -2, 2)
        if trial % 6 == 0:
            inst = Instance(inst.q, None, inst.d, inst.c0)
        elif trial % 6 == 3:
            inst = Instance(inst.q, inst.c, None, inst.c0)
        sol = solve_additive(inst)
        assert sol == tie_rule_reference(inst)
        assert sol.value == exhaustive_best(inst)


def plain_scan(inst):
    """The cardinality scan over every variable, with no persistency pass:
    the same (K, L) tie rule and stable top-k selections."""
    work = inst.integer
    a = [row[0] for row in work.q]
    b = [v - work.q[0][0] for v in work.q[0]]

    def keys(count, rates, offsets):
        return [count * r + o for r, o in zip(rates, offsets)]

    def best_sums(values):
        return list(accumulate(sorted(values, reverse=True), initial=0))

    def top(count, values):
        chosen = set(sorted(range(len(values)), key=lambda i: -values[i])[:count])
        return tuple(int(i in chosen) for i in range(len(values)))

    y_sums = [best_sums(keys(l, b, work.d)) for l in range(work.m + 1)]
    best = None
    for k in range(work.n + 1):
        totals = [s + y_sums[l][k] for l, s in enumerate(best_sums(keys(k, a, work.c)))]
        if best is None or max(totals) > best[0]:
            best = (max(totals), k, totals.index(max(totals)))
    total, k, l = best
    return Solution(top(l, keys(k, a, work.c)), top(k, keys(l, b, work.d)),
                    Fraction(total + work.c0, work.scale))


def planted_tie_instance(rng, m, n, scale=1):
    """Additive instance from few distinct a_i and b_j (so keys tie often),
    with one of: c = k a, c = 0, d = 0, or gain bounds of exactly zero."""
    a = [scale * rng.randint(-2, 2) for _ in range(m)]
    b = [scale * rng.randint(-2, 2) for _ in range(n)]
    q = [[ai + bj for bj in b] for ai in a]
    c = [scale * rng.randint(-3, 3) for _ in range(m)]
    d = [scale * rng.randint(-3, 3) for _ in range(n)]
    kind = rng.randrange(5)
    if kind == 0:
        k = rng.randint(-n, n)
        c = [k * ai for ai in a]
    elif kind == 1:
        c = [0] * m
    elif kind == 2:
        d = [0] * n
    elif kind == 3:
        c = [-sum(min(0, v) for v in row) for row in q]
    else:
        d = [-sum(max(0, v) for v in col) for col in zip(*q)]
    return Instance(q, c, d, rng.randint(-3, 3))


def undecidable_instance(inst):
    """``inst`` with c_i = -floor(row sum / 2) and d_j likewise: every gain
    bound straddles 0, so the persistency pass decides nothing."""
    return Instance(inst.q, [-(sum(row) // 2) for row in inst.q],
                    [-(sum(col) // 2) for col in zip(*inst.q)], inst.c0)


@pytest.mark.parametrize("seed", range(4))
def test_persistency_keeps_the_plain_scan_answer_on_random_instances(seed):
    rng = random.Random(80 + seed)
    for _ in range(6):
        m = rng.randint(10, 40)
        inst = random_additive_instance(rng, m, rng.randint(15, 60), -30, 30)
        assert solve_additive(inst) == plain_scan(inst)


def test_persistency_keeps_the_plain_scan_answer_under_planted_ties():
    rng = random.Random(84)
    for trial in range(400):
        if trial < 300:
            inst = planted_tie_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
            sol = solve_additive(inst)
            assert sol.value == exhaustive_best(inst)
        else:
            inst = planted_tie_instance(rng, rng.randint(10, 30), rng.randint(15, 40))
            sol = solve_additive(inst)
        assert sol == plain_scan(inst)


def test_persistency_keeps_the_plain_scan_answer_above_two_to_the_53():
    rng = random.Random(85)
    big = 2 ** 60 + 1
    for trial in range(60):
        if trial % 2:
            inst = planted_tie_instance(rng, rng.randint(1, 20), rng.randint(1, 30), big)
        else:
            inst = random_additive_instance(rng, rng.randint(1, 20), rng.randint(1, 30), -big, big)
        sol = solve_additive(inst)
        assert sol == plain_scan(inst)
        if inst.m + inst.n <= 8:
            assert sol.value == exhaustive_best(inst)


@pytest.fixture
def scan_sizes(monkeypatch):
    """(rows, columns) of every sub-instance the cardinality scan runs on."""
    sizes = []
    real = additive_mod._scan

    def recording(a, b, c, d):
        sizes.append((len(a), len(b)))
        return real(a, b, c, d)

    monkeypatch.setattr(additive_mod, "_scan", recording)
    return sizes


def test_persistency_keeps_the_plain_scan_answer_when_nothing_is_decided(scan_sizes):
    rng = random.Random(86)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        for inst in (random_additive_instance(rng, m, n), random_additive_instance(rng, 3 * m, 10 * n)):
            inst = undecidable_instance(inst)
            scan_sizes.clear()
            sol = solve_additive(inst)
            assert scan_sizes == [(inst.m, inst.n)]
            assert sol == plain_scan(inst)
            if inst.m + inst.n <= 8:
                assert sol.value == exhaustive_best(inst)


def test_decided_variables_are_not_scanned(scan_sizes):
    # The generator's linear terms are small next to n |q|, so bounds decide
    # nearly every variable.
    for seed in (1, 7, 11):
        inst = generate_instance("additive", 60, 80, seed=seed)
        assert solve_additive(inst) == plain_scan(inst)
    assert len(scan_sizes) == 3
    assert all(m + n < (60 + 80) // 4 for m, n in scan_sizes)
