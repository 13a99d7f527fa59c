"""Shared test helpers: independent reference optima and instance builders.

``exhaustive_best`` is the ground truth used throughout: a plain scan of
every binary assignment through the public objective evaluator, with no
structural shortcuts.  Random instances come from ``random.Random`` so the
tests do not depend on the package's own generator.
"""

from fractions import Fraction
from itertools import product

from bqp01 import Instance, evaluate_objective


def exhaustive_best(inst: Instance) -> Fraction:
    """Best objective over all 2^(m+n) assignments, by direct evaluation."""
    best = None
    for x in product((0, 1), repeat=inst.m):
        for y in product((0, 1), repeat=inst.n):
            value = evaluate_objective(inst, x, y)
            if best is None or value > best:
                best = value
    return best


def random_vector(rng, size, lo=-8, hi=8):
    return [rng.randint(lo, hi) for _ in range(size)]


def random_matrix(rng, m, n, lo=-8, hi=8):
    return [random_vector(rng, n, lo, hi) for _ in range(m)]


def random_instance(rng, m, n, lo=-8, hi=8):
    return Instance(
        random_matrix(rng, m, n, lo, hi),
        random_vector(rng, m, lo, hi),
        random_vector(rng, n, lo, hi),
        rng.randint(lo, hi),
    )


def random_rank_one_instance(rng, m, n, lo=-6, hi=6):
    a = random_vector(rng, m, lo, hi)
    while not any(a):
        a = random_vector(rng, m, lo, hi)
    b = random_vector(rng, n, lo, hi)
    while not any(b):
        b = random_vector(rng, n, lo, hi)
    q = [[ai * bj for bj in b] for ai in a]
    return Instance(
        q, random_vector(rng, m, lo, hi), random_vector(rng, n, lo, hi),
        rng.randint(lo, hi),
    )


def eliminate(matrix, max_pivots=None):
    """Column-driven Gauss-Jordan Bareiss elimination with row swaps, as
    the package ran before it recognised rank <= 1 in one pass, with the
    pivot bound that rank queries passed before the row pass: on the rows
    that raise the rank, the reference that the rank <= 1 pass and the row
    pass must reproduce."""
    rows = [list(row) for row in matrix]
    m = len(rows)
    pivots = []
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot_row is None:
            continue
        if r + 1 == max_pivots:
            pivots.append(col)
            break
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        pivot = top[col]
        for i, row in enumerate(rows):
            factor = row[col]
            if i != r and (factor or pivot != prev):
                lo = col if i > r else 0
                row[lo:] = [(pivot * a - factor * b) // prev for a, b in zip(row[lo:], top[lo:])]
        pivots.append(col)
        prev = pivot
    if prev < 0:
        return [[-v for v in row] for row in rows], pivots, -prev
    return rows, pivots, prev


def negativity_graph(q):
    """networkx graph of q's negative entries: row i is node i, column j is
    node m + j, and each q_ij < 0 is an edge.  Returns (graph, row nodes)."""
    import networkx as nx

    m = len(q)
    graph = nx.Graph()
    graph.add_nodes_from(range(m + len(q[0])))
    graph.add_edges_from(
        (i, m + j) for i, row in enumerate(q) for j, v in enumerate(row) if v < 0
    )
    return graph, range(m)


def matching_size(q) -> int:
    """Maximum matching size of q's negativity graph, by networkx."""
    import networkx as nx

    graph, rows = negativity_graph(q)
    return len(nx.bipartite.hopcroft_karp_matching(graph, top_nodes=rows)) // 2


def random_fraction(rng, denom_max=4, num_max=8):
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, denom_max))


def assert_mutual_best_response(inst, x, y):
    """Assert that no single flip improves the 0-1 point (x, y) of ``inst``.

    x_i = 1 needs the gain c_i + sum_j q_ij y_j >= 0 and x_i = 0 needs it
    <= 0; likewise y_j against d_j + sum_i q_ij x_i.  Every optimum is such
    a point, so this checks a route's point without knowing the optimum.
    """
    for i, (row, gain, xi) in enumerate(zip(inst.q, inst.c, x)):
        gain += sum(v for v, yj in zip(row, y) if yj)
        assert gain >= 0 if xi else gain <= 0, f"x[{i}] = {xi} against gain {gain}"
    for j, gain in enumerate(inst.d):
        gain += sum(row[j] for row, xi in zip(inst.q, x) if xi)
        assert gain >= 0 if y[j] else gain <= 0, f"y[{j}] = {y[j]} against gain {gain}"
