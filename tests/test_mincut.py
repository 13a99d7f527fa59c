import random
from fractions import Fraction
from itertools import product
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bqp01.analysis
import bqp01.mincut
from bqp01 import (
    CutInstance,
    Eliminator,
    Instance,
    Solution,
    SolverRefusal,
    dispatch_solve,
    evaluate_objective,
    generate_instance,
    min_negative_eliminator,
    solve_nonnegative,
    solve_oracle,
    solve_with_eliminator,
)
from bqp01.fixtures import sample_general, sample_nonnegative
from bqp01.mincut import (
    FlowNetwork,
    _fixing_optima,
    build_cut_network,
    max_flow,
    reduce_with_fixing,
)

from conftest import exhaustive_best, random_instance, random_matrix, random_vector


def random_nonnegative_instance(rng, m, n):
    return Instance(
        random_matrix(rng, m, n, 0, 8),
        random_vector(rng, m),
        random_vector(rng, n),
        rng.randint(-5, 5),
    )


def labeling_cut_capacity(net, x, y, m):
    # Source side: s, plus every variable node labeled 1.
    side = {0}
    side.update(2 + i for i, v in enumerate(x) if v)
    side.update(2 + m + j for j, v in enumerate(y) if v)
    return sum((w for u, v, w in net.arcs if u in side and v not in side), Fraction(0))


def test_max_flow_single_arc():
    value, side = max_flow(FlowNetwork(2, 0, 1, ((0, 1, 5),)))
    assert value == 5 and side == {0}


def test_max_flow_diamond():
    net = FlowNetwork(4, 0, 1, ((0, 2, 3), (0, 3, 2), (2, 1, 2), (3, 1, 3)))
    assert max_flow(net)[0] == 4


def test_max_flow_fractional_capacities():
    net = FlowNetwork(
        3, 0, 2, ((0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2)))
    )
    assert max_flow(net)[0] == Fraction(1, 3)


def test_network_validation():
    with pytest.raises(ValueError):
        FlowNetwork(2, 0, 0, ())
    with pytest.raises(ValueError):
        FlowNetwork(2, 0, 1, ((0, 1, -1),))
    with pytest.raises(ValueError):
        FlowNetwork(2, 0, 1, ((0, 5, 1),))


def test_network_for_known_instance():
    inst = sample_nonnegative()
    net, offset = build_cut_network(inst)
    assert offset == 1
    assert set(net.arcs) == {(0, 2, Fraction(1)), (2, 3, Fraction(1)), (2, 1, Fraction(2))}
    value, side = max_flow(net)
    assert value == 1 and side == {0}
    sol = solve_nonnegative(inst)
    assert sol.value == 0 and sol.x == (0,) and sol.y == (0,)


def test_profitable_cell_selected():
    sol = solve_nonnegative(Instance([[1]]))
    assert sol.value == 1 and sol.x == (1,) and sol.y == (1,)


def test_all_ones_matrix():
    inst = Instance([[1] * 3] * 3)
    sol = solve_nonnegative(inst)
    assert sol.value == 9
    assert sol.x == (1, 1, 1) and sol.y == (1, 1, 1)


def test_zero_instance_network():
    inst = Instance([[0]], None, None, Fraction(3, 2))
    net, offset = build_cut_network(inst)
    assert net.arcs == () and offset == Fraction(3, 2)
    assert solve_nonnegative(inst).value == Fraction(3, 2)


def test_rejects_negative_matrix():
    with pytest.raises(ValueError):
        build_cut_network(sample_general())
    with pytest.raises(ValueError):
        solve_nonnegative(sample_general())


def test_one_negative_entry_fails_forced_min_cut_the_same_way(monkeypatch):
    scans = []
    original = bqp01.analysis.detect_nonnegative

    def recording(matrix):
        scans.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(bqp01.analysis, "detect_nonnegative", recording)
    q = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]
    q[2][3] = -1
    inst = Instance(q, [1, -2, 0], [0, 3, -1, 2], 4)
    for solve in (
        lambda: dispatch_solve(inst, "mincut"),
        lambda: dispatch_solve(inst.integer, "mincut"),
        lambda: solve_nonnegative(inst),
        lambda: solve_nonnegative(inst.integer),
        lambda: dispatch_solve(CutInstance(q), "mincut"),
    ):
        with pytest.raises(ValueError, match="^cost matrix has a negative entry$"):
            solve()
    # The instance's one record answers every later read.
    assert scans == [3, 3]
    q[2][3] = 0
    scans.clear()
    nonnegative = Instance(q, [1, -2, 0], [0, 3, -1, 2], 4)
    assert dispatch_solve(nonnegative).algorithm == "mincut"
    assert solve_nonnegative(nonnegative).value == exhaustive_best(nonnegative)
    assert scans == [3]


def test_cut_identity_everywhere():
    rng = random.Random(81)
    for _ in range(40):
        inst = random_nonnegative_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
        net, offset = build_cut_network(inst)
        for x in product((0, 1), repeat=inst.m):
            for y in product((0, 1), repeat=inst.n):
                cap = labeling_cut_capacity(net, x, y, inst.m)
                assert offset - cap == evaluate_objective(inst, x, y)


def test_max_flow_equals_minimum_labeling_cut():
    rng = random.Random(82)
    for _ in range(30):
        inst = random_nonnegative_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
        net, _ = build_cut_network(inst)
        flow, _ = max_flow(net)
        cuts = [
            labeling_cut_capacity(net, x, y, inst.m)
            for x in product((0, 1), repeat=inst.m)
            for y in product((0, 1), repeat=inst.n)
        ]
        assert flow == min(cuts)


def test_nonnegative_matches_oracle():
    rng = random.Random(83)
    for _ in range(100):
        inst = random_nonnegative_instance(rng, rng.randint(1, 4), rng.randint(1, 5))
        sol = solve_nonnegative(inst)
        assert sol.value == exhaustive_best(inst)
        assert sol.value == evaluate_objective(inst, sol.x, sol.y)


def test_reduction_folds_fixings_exactly():
    rng = random.Random(84)
    for _ in range(50):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        fixed_x = {
            i: rng.randint(0, 1) for i in range(inst.m) if rng.random() < 0.4
        }
        fixed_y = {
            j: rng.randint(0, 1) for j in range(inst.n) if rng.random() < 0.4
        }
        reduced = reduce_with_fixing(inst, fixed_x, fixed_y)
        for x_free in product((0, 1), repeat=len(reduced.free_rows)):
            for y_free in product((0, 1), repeat=len(reduced.free_cols)):
                x, y = reduced.assemble(x_free, y_free)
                assert reduced.objective(x_free, y_free) + reduced.constant == \
                    evaluate_objective(inst, x, y)


def test_reduction_rejects_bad_fixing():
    inst = sample_general()
    with pytest.raises(ValueError):
        reduce_with_fixing(inst, {5: 1}, {})
    with pytest.raises(ValueError):
        reduce_with_fixing(inst, {0: 2}, {})


def test_eliminator_solver_on_mixed_instance():
    inst = sample_general()
    elim = min_negative_eliminator(inst.q)
    assert elim.size == 1
    sol = solve_with_eliminator(inst, elim)
    assert sol.value == 4


def test_eliminator_solver_trivial_on_nonnegative():
    inst = sample_nonnegative()
    elim = min_negative_eliminator(inst.q)
    assert elim.size == 0
    assert solve_with_eliminator(inst, elim).value == solve_nonnegative(inst).value


def test_eliminator_solver_refuses_past_limit():
    q = [[-1, 0], [0, -1]]
    inst = Instance(q)
    elim = min_negative_eliminator(q)
    with pytest.raises(SolverRefusal) as err:
        solve_with_eliminator(inst, elim, eliminator_limit=1)
    message = str(err.value)
    assert "eliminator_limit" in message and "--eliminator-limit" in message


def test_eliminator_solver_matches_oracle():
    rng = random.Random(85)
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        q = random_matrix(rng, m, n, 0, 8)
        for _ in range(rng.randint(0, 3)):
            q[rng.randrange(m)][rng.randrange(n)] = rng.randint(-8, -1)
        inst = Instance(q, random_vector(rng, m), random_vector(rng, n), rng.randint(-5, 5))
        sol = solve_with_eliminator(inst, min_negative_eliminator(q))
        assert sol.value == exhaustive_best(inst)
        assert sol.value == evaluate_objective(inst, sol.x, sol.y)


def test_eliminator_handles_full_row_and_column_fixings():
    # Everything negative: the eliminator may absorb a whole side.
    inst = Instance([[-1], [-1]], [3, 3], [5], 0)
    elim = min_negative_eliminator(inst.q)
    sol = solve_with_eliminator(inst, elim)
    assert sol.value == exhaustive_best(inst)


def fresh_fixing_optimum(work, fixed_x, fixed_y):
    """One fixing solved from scratch: reduce_with_fixing, then a new min cut."""
    reduced = reduce_with_fixing(work, fixed_x, fixed_y)
    if reduced.free_rows and reduced.free_cols:
        sol = solve_nonnegative(Instance(reduced.q, reduced.c, reduced.d))
        x_free, y_free, value = sol.x, sol.y, sol.value
    else:
        # A whole side is fixed, so each free variable stands alone; the
        # minimal optimum sets it to 1 only for a positive linear term.
        x_free = tuple(int(v > 0) for v in reduced.c)
        y_free = tuple(int(v > 0) for v in reduced.d)
        value = sum(v for v in reduced.c + reduced.d if v > 0)
    x, y = reduced.assemble(x_free, y_free)
    return value + reduced.constant, x, y


def random_sparse_negative_instance(rng, m, n, negatives, zero_linear):
    q = random_matrix(rng, m, n, 0, 6)
    for _ in range(negatives):
        q[rng.randrange(m)][rng.randrange(n)] = rng.randint(-6, -1)
    if zero_linear:  # ties: many fixings and cuts share a value
        return Instance(q, None, None, rng.randint(-3, 3))
    c, d = random_vector(rng, m, -6, 6), random_vector(rng, n, -6, 6)
    return Instance(q, c, d, rng.randint(-3, 3))


def test_warm_started_walk_equals_fresh_solves_on_every_fixing():
    rng = random.Random(86)
    sizes = set()
    for trial in range(90):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        inst = random_sparse_negative_instance(rng, m, n, rng.randint(0, 14), trial % 3 == 0)
        elim = min_negative_eliminator(inst.q)
        if trial % 5 == 1:
            elim = Eliminator(tuple(range(m)), ())  # every row: no free row is left
        elif trial % 5 == 2:
            elim = Eliminator((), tuple(range(n)))  # every column
        elif trial % 5 == 3:  # a larger, non-minimum eliminator
            free = sorted(set(range(m)) - set(elim.rows))
            rows = set(elim.rows) | set(rng.sample(free, len(free) // 2))
            elim = Eliminator(tuple(sorted(rows)), elim.cols)
        if elim.size > 8:
            continue
        work = inst.integer
        fresh = []
        for value, x, y in _fixing_optima(work, elim):
            fixed_x = {i: x[i] for i in elim.rows}
            fixed_y = {j: y[j] for j in elim.cols}
            fresh.append(fresh_fixing_optimum(work, fixed_x, fixed_y))
            assert (value, x, y) == fresh[-1]
        # Each fixing once, and the best of them with ties to the smallest (x, y).
        assert len({(x, y) for _, x, y in fresh}) == len(fresh) == 2 ** elim.size
        value, x, y = min(fresh, key=lambda r: (-r[0], r[1], r[2]))
        assert solve_with_eliminator(inst, elim) == Solution(x, y, Fraction(value))
        sizes.add(elim.size)
    assert sizes == set(range(9))


def test_eliminator_leaving_a_negative_entry_is_rejected():
    inst = Instance([[-1, 2], [3, -4]])
    for elim in (Eliminator((), ()), Eliminator((0,), ()), Eliminator((), (1,))):
        with pytest.raises(ValueError, match="negative entry"):
            solve_with_eliminator(inst, elim)


@pytest.fixture
def network_sizes(monkeypatch):
    """Node count of every flow network the min-cut solvers build."""
    sizes = []
    real = bqp01.mincut._FlowGraph

    def recording(node_count, *args):
        sizes.append(node_count)
        return real(node_count, *args)

    monkeypatch.setattr(bqp01.mincut, "_FlowGraph", recording)
    return sizes


@pytest.mark.parametrize("algorithm", ["mincut", "auto"])
def test_zero_gain_bounds_leave_the_variable_free(algorithm, network_sizes):
    # x's gain is 0 when y = 1, and y's is 0 when x = 1: neither is decided,
    # and the minimal optimum sets both to 0.
    for inst in (Instance([[1]], [-1], [0], 0), Instance([[0]], [0], [0], 0)):
        sol = dispatch_solve(inst, algorithm).solution
        assert (sol.x, sol.y, sol.value) == ((0,), (0,), 0)
    assert network_sizes == [4, 4]  # source, sink, x and y


def test_negative_entry_is_rejected_even_when_every_variable_is_decided():
    inst = Instance([[5, -1]], [100], [100, 100], 0)
    with pytest.raises(ValueError, match="negative entry"):
        solve_nonnegative(inst)
    with pytest.raises(ValueError, match="negative entry"):
        solve_with_eliminator(inst, Eliminator((), ()))


def test_decided_variables_get_no_network_node(network_sizes):
    # The generator's nonnegative instances are optimal at all ones: about
    # half the rows have c_i > 0, which decides them, then every column, then
    # every other row.
    for seed in range(5):
        inst = generate_instance("nonnegative", 40, 40, seed)
        ones = (1,) * 40
        assert solve_nonnegative(inst) == Solution(ones, ones, evaluate_objective(inst, ones, ones))
    assert network_sizes == [2] * 5  # source and sink only
    net, offset = build_cut_network(inst)
    assert offset - max_flow(net)[0] == evaluate_objective(inst, ones, ones)


@st.composite
def scaled_linear_nonnegative(draw):
    """Nonnegative q with c_i = -alpha * (row sum) + noise and d_j alike.

    Bounds decide most variables at alpha 0 (to 1) and 1 (to 0), about a
    quarter at 1/4, and almost none at 1/2.
    """
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    q = [[draw(st.integers(0, 8)) for _ in range(n)] for _ in range(m)]
    alpha = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    noise = st.integers(-2, 2)
    c = [draw(noise) - floor(alpha * sum(row)) for row in q]
    d = [draw(noise) - floor(alpha * sum(col)) for col in zip(*q)]
    return Instance(q, c, d, draw(st.integers(-3, 3)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scaled_linear_nonnegative())
def test_min_cut_returns_the_componentwise_minimal_optimum(inst):
    best = solve_oracle(inst).value
    optima = [
        x + y
        for x in product((0, 1), repeat=inst.m)
        for y in product((0, 1), repeat=inst.n)
        if evaluate_objective(inst, x, y) == best
    ]
    meet = tuple(map(min, zip(*optima)))
    for sol in (solve_nonnegative(inst), solve_with_eliminator(inst, Eliminator((), ()))):
        assert sol.value == best
        assert sol.x + sol.y == meet
