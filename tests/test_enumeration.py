import random
from itertools import product

import pytest

from bqp01 import (
    Instance,
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
