import random
from fractions import Fraction
from itertools import combinations

import pytest

from bqp01 import (
    Instance,
    Solution,
    detect_additive,
    evaluate_objective,
    solve_additive,
    solve_fixed_rank,
)
from bqp01.fixtures import sample_additive

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
