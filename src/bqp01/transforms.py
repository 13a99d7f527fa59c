"""Exact reductions between BQP01, its cut form, and related problems.

Every transformation preserves objective values through an explicit affine
identity, stated in each docstring and exercised point-by-point in the test
suite.  All arithmetic is exact.  Both directions between the 0-1 and the
{-1,+1} cut form are one change of variables, ``model.substitute``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .model import (
    BipartiteWeightedGraph,
    CutInstance,
    Instance,
    IntegerInstance,
    as_fraction,
    freeze_matrix,
    freeze_vector,
    substitute,
)


def big_m_bound(inst: Instance | CutInstance) -> Fraction:
    """A value strictly larger than the spread of attainable objectives.

    1 + sum|q_ij| + sum|c_i| + sum|d_j| + |c0|.  Any penalty of this size
    dominates every feasible objective difference.
    """
    entries = sum(abs(v) for row in inst.q for v in row)
    return Fraction(1) + abs(inst.c0) + entries + sum(map(abs, inst.c)) + sum(map(abs, inst.d))


def to_homogeneous(inst: Instance) -> tuple[Instance, Fraction]:
    """Border Q with c, d and a dominant corner so linear terms disappear.

    Returns (hom, M) where hom is the (m+1) x (n+1) instance

        [[ Q   c^T ]
         [ d   M+c0]]

    with zero linear and constant parts.  M is the big-M bound of the
    input, so the homogeneous optimum equals the original optimum plus M,
    and every optimal solution of hom sets both bordering variables to 1.
    """
    m_val = big_m_bound(inst)
    rows = [tuple(row) + (inst.c[i],) for i, row in enumerate(inst.q)]
    rows.append(tuple(inst.d) + (m_val + inst.c0,))
    hom = Instance(tuple(rows))
    return hom, m_val


def bqp01_to_cut(inst: Instance) -> CutInstance:
    """Rewrite a 0-1 instance over {-1,+1} variables.

    ``model.substitute`` at alpha = beta = 1/2 gives q^ = q/4,
    c^_i = (sum_j q_ij)/4 + c_i/2, d^_j = (sum_i q_ij)/4 + d_j/2 and the
    matching constant, so cut(2x - 1, 2y - 1) = f(x, y) for every binary
    (x, y).  Every coefficient is a Fraction.
    """
    half = Fraction(1, 2)
    return CutInstance(*substitute(inst.q, inst.c, inst.d, inst.c0, half, half))


def cut_to_bqp01(cut: CutInstance) -> Instance:
    """Rewrite a {-1,+1} instance over binary variables.

    ``model.substitute`` at (2, -1) gives f(w, z) = cut(2w - 1, 2z - 1)
    for every binary (w, z); inverse of :func:`bqp01_to_cut`.  Raises
    TypeError on an :class:`IntegerInstance`, which holds this rewrite
    already.
    """
    if isinstance(cut, IntegerInstance):
        raise TypeError("an IntegerInstance already holds 0-1 coefficients")
    return Instance(*substitute(cut.q, cut.c, cut.d, cut.c0, 2, -1))


def qp01_to_bqp01(
    qp_matrix: Sequence[Sequence], qp_c: Sequence, qp_c0=0, m_penalty=None
) -> tuple[Instance, Fraction]:
    """Embed a square 0-1 quadratic program as a bipartite one.

    The QP01 objective is u^T Q' u + c'.u + c0' over binary u.  The returned
    instance uses Q = Q' + 2MI and c = d = c'/2 - M, so a mismatch x_i != y_i
    costs exactly -M and every optimal bipartite solution has x = y, with x
    optimal for the QP01 at the same value.  ``m_penalty`` defaults to
    :func:`big_m_bound` of the source problem.
    """
    qp = freeze_matrix(qp_matrix)
    cp = freeze_vector(qp_c)
    c0 = as_fraction(qp_c0)
    n = len(qp)
    if any(len(row) != n for row in qp):
        raise ValueError("QP01 matrix must be square")
    if len(cp) != n:
        raise ValueError(f"c' has length {len(cp)}, expected {n}")
    if m_penalty is None:
        m_val = big_m_bound(Instance(qp, cp, None, c0))
    else:
        m_val = as_fraction(m_penalty)
    q = tuple(
        tuple(qp[i][j] + (2 * m_val if i == j else 0) for j in range(n))
        for i in range(n)
    )
    lin = tuple(Fraction(cp[i], 2) - m_val for i in range(n))
    return Instance(q, lin, lin, c0), m_val


def bqp01_to_qp01(
    inst: Instance,
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...], Fraction]:
    """Block-embed the bipartite instance as a square 0-1 quadratic program.

    Returns (Qbar, cbar, c0) of size m+n where Qbar carries Q in its
    upper-right block and zeros elsewhere, and cbar = (c | d).  For
    w = (x | y), w^T Qbar w + cbar.w + c0 = f(x, y).
    """
    zero = Fraction(0)
    rows = [(zero,) * inst.m + row for row in inst.q] + [(zero,) * (inst.m + inst.n)] * inst.n
    return tuple(rows), inst.c + inst.d, inst.c0


def bqp11h_to_bmaxcut(cut: CutInstance) -> BipartiteWeightedGraph:
    """Reduce a homogeneous sign instance to bipartite max-cut.

    On the complete bipartite graph with edge weight -2 q_ij, the cut value
    of the partition induced by signs (x, y) satisfies, pointwise,

        cut_value(x, y) = objective(x, y) - sum_ij q_ij

    so maximizing the cut maximizes the objective.  Zero-weight edges are
    omitted from the edge list.
    """
    if not cut.is_homogeneous():
        raise ValueError("input must be homogeneous (zero c, d, c0); homogenize first")
    edges = []
    for i, row in enumerate(cut.q):
        for j, v in enumerate(row):
            if v != 0:
                edges.append((i, j, -2 * v))
    return BipartiteWeightedGraph(cut.m, cut.n, tuple(edges))


def bmaxcut_to_bqp11h(graph: BipartiteWeightedGraph) -> CutInstance:
    """Reduce bipartite max-cut to a homogeneous sign instance.

    With q_ij = -w_ij / 2 (0 for absent edges), the cut value of the
    partition induced by signs (x, y) satisfies, pointwise,

        cut_value(x, y) = (sum of weights)/2 + objective(x, y)

    so the sign instance's maximizer induces a maximum cut.
    """
    weights = graph.weight_matrix()
    q = tuple(tuple(-w / 2 for w in row) for row in weights)
    return CutInstance(q)


def mwbp_to_bqp01(graph: BipartiteWeightedGraph) -> Instance:
    """Reduce the maximum weight biclique problem to BQP01.

    q_ij is the edge weight for edges and -M for non-edges, with M one more
    than the total edge weight; c = d = 0, c0 = 0.  Any positive-value
    optimum selects vertex sets inducing a biclique of maximum total weight.
    """
    for i, j, w in graph.edges:
        if w <= 0:
            raise ValueError(f"edge ({i}, {j}) has nonpositive weight {w}")
    m_val = Fraction(1) + graph.total_weight()
    weights = graph.weight_matrix()
    present = {(i, j) for i, j, _ in graph.edges}
    q = tuple(
        tuple(weights[i][j] if (i, j) in present else -m_val for j in range(graph.n))
        for i in range(graph.m)
    )
    return Instance(q)


def rank1_binary_approx_to_bqp01(h_matrix: Sequence[Sequence]) -> Instance:
    """Instance whose bilinear form measures rank-one binary fit error.

    For a binary matrix H, (h_ij - u_i v_j)^2 = h_ij + (1 - 2 h_ij) u_i v_j
    for binary u_i, v_j, so with q = 1 - 2H the squared error of the
    rank-one approximation u v^T is

        error(u, v) = sum_ij h_ij + u^T Q v.

    The best approximation therefore MINIMIZES the returned instance's
    bilinear form; equivalently, maximize the instance with negated Q.
    """
    h = freeze_matrix(h_matrix)
    if not h or not h[0]:
        raise ValueError("matrix must have at least one row and one column")
    for row in h:
        for v in row:
            if v != 0 and v != 1:
                raise ValueError(f"matrix entries must be 0 or 1, got {v}")
    q = tuple(tuple(1 - 2 * v for v in row) for row in h)
    return Instance(q)
