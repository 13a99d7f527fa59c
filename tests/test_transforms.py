import random
from fractions import Fraction
from itertools import chain, product
from math import lcm

import pytest

from bqp01 import (
    BipartiteWeightedGraph,
    CutInstance,
    Instance,
    big_m_bound,
    bmaxcut_to_bqp11h,
    bqp01_to_cut,
    bqp01_to_qp01,
    bqp11h_to_bmaxcut,
    cut_to_bqp01,
    evaluate_cut_objective,
    evaluate_objective,
    mwbp_to_bqp01,
    qp01_to_bqp01,
    rank1_binary_approx_to_bqp01,
    to_homogeneous,
)
from bqp01.fixtures import sample_general

from conftest import exhaustive_best, random_instance


def signs_of(bits):
    return tuple(2 * b - 1 for b in bits)


def all_points(m, n, values=(0, 1)):
    return product(product(values, repeat=m), product(values, repeat=n))


# --- 0/1 <-> {-1,+1} rewrites -------------------------------------------------

def test_cut_rewrite_single_cell():
    cut = bqp01_to_cut(Instance([[4]]))
    assert cut.q == ((Fraction(1),),)
    assert cut.c == (Fraction(1),)
    assert cut.d == (Fraction(1),)
    assert cut.c0 == 1
    assert evaluate_cut_objective(cut, (1,), (1,)) == 4
    assert evaluate_cut_objective(cut, (-1,), (-1,)) == 0


def test_binary_rewrite_single_cell():
    inst = cut_to_bqp01(CutInstance([[1]]))
    assert inst.q == ((Fraction(4),),)
    assert inst.c == (Fraction(-2),)
    assert inst.d == (Fraction(-2),)
    assert inst.c0 == 1
    assert evaluate_objective(inst, (1,), (1,)) == 1


def test_cut_rewrites_are_inverse():
    inst = sample_general()
    assert cut_to_bqp01(bqp01_to_cut(inst)) == inst
    zero = Instance([[0, 0], [0, 0]])
    cut = bqp01_to_cut(zero)
    assert all(v == 0 for row in cut.q for v in row)
    assert cut_to_bqp01(cut) == zero


def test_binary_rewrite_on_ints_keeps_the_cut_scale():
    rng = random.Random(1105)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        cut = CutInstance(
            [[Fraction(rng.randint(-9, 9), 4) for _ in range(n)] for _ in range(m)],
            [Fraction(rng.randint(-9, 9), 2) for _ in range(m)],
            [Fraction(rng.randint(-9, 9), 3) for _ in range(n)],
            Fraction(rng.randint(-9, 9), 5),
        )
        work = cut.integer
        assert work.cut and not Instance(cut.q, cut.c, cut.d, cut.c0).integer.cut
        values = [*chain.from_iterable(cut.q), *cut.c, *cut.d, cut.c0]
        assert work.scale == lcm(*(Fraction(v).denominator for v in values))
        rational = cut_to_bqp01(cut)
        for ints, exact in zip(
            (*work.q, work.c, work.d, (work.c0,)),
            (*rational.q, rational.c, rational.d, (rational.c0,)),
        ):
            assert tuple(Fraction(v, work.scale) for v in ints) == exact
        for w, z in all_points(m, n):
            assert Fraction(work.objective(w, z), work.scale) == \
                evaluate_cut_objective(cut, signs_of(w), signs_of(z))
        with pytest.raises(TypeError, match="already holds 0-1"):
            cut_to_bqp01(work)


def test_cut_rewrite_identity_everywhere():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
        cut = bqp01_to_cut(inst)
        assert cut_to_bqp01(cut) == inst
        for x, y in all_points(inst.m, inst.n):
            assert evaluate_cut_objective(cut, signs_of(x), signs_of(y)) == \
                evaluate_objective(inst, x, y)


def test_rewrites_stay_exact_on_ints_above_2_53():
    # Halving or quartering these ints as floats would round them.
    big = 2**60 + 1
    inst = Instance([[big, -big]], [big], [3, big], 5)
    cut = bqp01_to_cut(inst)
    assert cut.q[0] == (Fraction(big, 4), Fraction(-big, 4))
    assert cut_to_bqp01(cut) == inst
    embedded, m_val = qp01_to_bqp01([[big]], [big], 0, 1)
    assert embedded.c == (Fraction(big, 2) - 1,)


# --- homogenization ----------------------------------------------------------

def test_homogeneous_layout():
    inst = sample_general()
    hom, m_val = to_homogeneous(inst)
    assert (hom.m, hom.n) == (3, 3)
    assert hom.q[0][2] == 1 and hom.q[1][2] == -1
    assert hom.q[2][0] == 0 and hom.q[2][1] == 2
    assert hom.q[2][2] == m_val + inst.c0
    assert all(v == 0 for v in hom.c) and all(v == 0 for v in hom.d)
    assert hom.c0 == 0


def test_homogeneous_optimum_shift():
    inst = sample_general()
    hom, m_val = to_homogeneous(inst)
    assert exhaustive_best(hom) == 4 + m_val


def test_homogeneous_zero_instance():
    zero = Instance([[0]])
    hom, m_val = to_homogeneous(zero)
    assert m_val == 1
    assert exhaustive_best(hom) == m_val
    assert evaluate_objective(hom, (0, 1), (0, 1)) == m_val


def test_homogeneous_optimum_shift_randomized():
    rng = random.Random(22)
    for _ in range(15):
        inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
        hom, m_val = to_homogeneous(inst)
        assert exhaustive_best(hom) == exhaustive_best(inst) + m_val
        # Bordering variables stick at one in every optimum.
        best = exhaustive_best(hom)
        for x, y in all_points(hom.m, hom.n):
            if evaluate_objective(hom, x, y) == best:
                assert x[-1] == 1 and y[-1] == 1


# --- square QP embedding ------------------------------------------------------

def test_qp01_embedding_fixed_penalty():
    inst, m_val = qp01_to_bqp01([[2]], [-3], 0, 10)
    assert m_val == 10
    assert inst.q == ((Fraction(22),),)
    assert inst.c == (Fraction(-23, 2),)
    assert inst.d == (Fraction(-23, 2),)
    assert exhaustive_best(inst) == 0
    assert evaluate_objective(inst, (0,), (0,)) == 0


def test_qp01_embedding_matches_square_optimum():
    qp, cp, c0p = [[0, 3], [3, 0]], [-1, -1], 0
    inst, _ = qp01_to_bqp01(qp, cp, c0p)
    square_best = max(
        sum(qp[i][j] * u[i] * u[j] for i in range(2) for j in range(2))
        + sum(cp[i] * u[i] for i in range(2))
        + c0p
        for u in product((0, 1), repeat=2)
    )
    assert square_best == 4
    assert exhaustive_best(inst) == 4
    assert evaluate_objective(inst, (1, 1), (1, 1)) == 4


def test_qp01_mismatch_penalty_identity():
    m_val = Fraction(7)
    for xi, yi in product((0, 1), repeat=2):
        penalty = 2 * m_val * xi * yi - m_val * xi - m_val * yi
        assert penalty == (-m_val if xi != yi else 0)


def test_qp01_optima_diagonal():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 3)
        qp = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        cp = [rng.randint(-4, 4) for _ in range(n)]
        c0p = rng.randint(-3, 3)
        inst, _ = qp01_to_bqp01(qp, cp, c0p)
        square_best = max(
            sum(qp[i][j] * u[i] * u[j] for i in range(n) for j in range(n))
            + sum(cp[i] * u[i] for i in range(n))
            + c0p
            for u in product((0, 1), repeat=n)
        )
        best = exhaustive_best(inst)
        assert best == square_best
        for x, y in all_points(n, n):
            if evaluate_objective(inst, x, y) == best:
                assert x == y


def test_qp01_rejects_nonsquare():
    with pytest.raises(ValueError):
        qp01_to_bqp01([[1, 2]], [1])


def test_block_embedding_layout_and_identity():
    inst = sample_general()
    matrix, linear, constant = bqp01_to_qp01(inst)
    assert len(matrix) == 4
    assert matrix[0][2:] == tuple(inst.q[0])
    assert matrix[1][2:] == tuple(inst.q[1])
    assert all(v == 0 for row in matrix[2:] for v in row)
    assert all(v == 0 for row in matrix for v in row[:2])
    assert linear == inst.c + inst.d
    for x, y in all_points(2, 2):
        w = x + y
        value = (
            sum(matrix[i][j] * w[i] * w[j] for i in range(4) for j in range(4))
            + sum(linear[i] * w[i] for i in range(4))
            + constant
        )
        assert value == evaluate_objective(inst, x, y)
    zero_matrix, _, _ = bqp01_to_qp01(Instance([[0]]))
    assert all(v == 0 for row in zero_matrix for v in row)


# --- max-cut correspondence ----------------------------------------------------

def cut_value(graph, x, y):
    return sum(
        (w for i, j, w in graph.edges if x[i] == -y[j]), Fraction(0)
    )


def test_maxcut_from_homogeneous_cut():
    for q in ([[1]], [[-1]]):
        cut = CutInstance(q)
        graph = bqp11h_to_bmaxcut(cut)
        total_q = sum(Fraction(v) for row in q for v in row)
        values, cuts = [], []
        for x, y in all_points(1, 1, values=(-1, 1)):
            phi = evaluate_cut_objective(cut, x, y)
            assert phi == total_q + cut_value(graph, x, y)
            values.append(phi)
            cuts.append(cut_value(graph, x, y))
        assert max(values) == total_q + max(cuts)
    assert bqp11h_to_bmaxcut(CutInstance([[0, 0], [0, 0]])).edges == ()


def test_maxcut_requires_homogeneous():
    with pytest.raises(ValueError):
        bqp11h_to_bmaxcut(CutInstance([[1]], [1], [0], 0))


def test_homogeneous_cut_from_maxcut():
    graph = BipartiteWeightedGraph(1, 1, ((0, 0, 4),))
    cut = bmaxcut_to_bqp11h(graph)
    assert cut.q == ((Fraction(-2),),)
    half_total = graph.total_weight() / 2
    for x, y in all_points(1, 1, values=(-1, 1)):
        assert cut_value(graph, x, y) == half_total + evaluate_cut_objective(cut, x, y)

    empty = bmaxcut_to_bqp11h(BipartiteWeightedGraph(2, 3, ()))
    assert all(v == 0 for row in empty.q for v in row)

    graph = BipartiteWeightedGraph(2, 2, ((0, 0, 2), (1, 1, -2)))
    cut = bmaxcut_to_bqp11h(graph)
    assert cut.q == ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)))
    half_total = graph.total_weight() / 2
    for x, y in all_points(2, 2, values=(-1, 1)):
        assert cut_value(graph, x, y) == half_total + evaluate_cut_objective(cut, x, y)


# --- biclique reduction ---------------------------------------------------------

def test_biclique_reduction_complete_graph():
    graph = BipartiteWeightedGraph(
        2, 2, tuple((i, j, 1) for i in range(2) for j in range(2))
    )
    inst = mwbp_to_bqp01(graph)
    assert exhaustive_best(inst) == 4
    assert evaluate_objective(inst, (1, 1), (1, 1)) == 4


def test_biclique_reduction_single_edge():
    graph = BipartiteWeightedGraph(2, 2, ((0, 0, 5),))
    inst = mwbp_to_bqp01(graph)
    assert exhaustive_best(inst) == 5
    assert evaluate_objective(inst, (1, 0), (1, 0)) == 5


def test_biclique_reduction_empty_graph():
    inst = mwbp_to_bqp01(BipartiteWeightedGraph(2, 2, ()))
    assert exhaustive_best(inst) == 0


def test_biclique_reduction_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        mwbp_to_bqp01(BipartiteWeightedGraph(1, 1, ((0, 0, 0),)))


# --- rank-one binary approximation ----------------------------------------------

def approx_error(h, u, v):
    return sum(
        (h[i][j] - u[i] * v[j]) ** 2 for i in range(len(h)) for j in range(len(h[0]))
    )


@pytest.mark.parametrize(
    "h,expected_q,best_error",
    [
        ([[1]], ((-1,),), 0),
        ([[0]], ((1,),), 0),
        ([[1, 0], [0, 1]], ((-1, 1), (1, -1)), 1),
    ],
)
def test_rank_one_fit_instances(h, expected_q, best_error):
    inst = rank1_binary_approx_to_bqp01(h)
    assert inst.q == tuple(tuple(Fraction(v) for v in row) for row in expected_q)
    m, n = len(h), len(h[0])
    total = sum(v for row in h for v in row)
    errors = {}
    for u, v in all_points(m, n):
        bilinear = sum(
            inst.q[i][j] * u[i] * v[j] for i in range(m) for j in range(n)
        )
        # Squared fit error expands exactly to total + bilinear form.
        assert approx_error(h, u, v) == total + bilinear
        errors[(u, v)] = approx_error(h, u, v)
    assert min(errors.values()) == best_error
    # The minimizer of the returned form is the best approximation.
    best_points = [p for p, e in errors.items() if e == best_error]
    bilinear_min = min(
        sum(inst.q[i][j] * u[i] * v[j] for i in range(m) for j in range(n))
        for u, v in all_points(m, n)
    )
    assert total + bilinear_min == best_error
    assert best_points


def test_rank_one_fit_rejects_nonbinary():
    with pytest.raises(ValueError):
        rank1_binary_approx_to_bqp01([[2]])


# --- big-M bound ------------------------------------------------------------------

def test_big_m_dominates_objective_spread():
    rng = random.Random(24)
    for _ in range(15):
        inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
        bound = big_m_bound(inst)
        values = [
            evaluate_objective(inst, x, y) for x, y in all_points(inst.m, inst.n)
        ]
        assert bound > max(values) - min(values)
