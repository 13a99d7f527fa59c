"""Min-cut solver for nonnegative cost matrices, plus the eliminator wrapper.

For q >= 0 the instance is a provisioning problem: activating x_i earns its
row sum of interactions, each missed pairing x_i = 1, y_j = 0 forfeits
q_ij, and linear terms are credits or charges.  Concretely,

    f(x, y) = offset - [ sum_i (R_i + max(c_i, 0)) (1 - x_i)
                       + sum_ij q_ij x_i (1 - y_j)
                       + sum_i max(-c_i, 0) x_i
                       + sum_j max(d_j, 0) (1 - y_j)
                       + sum_j max(-d_j, 0) y_j ]

with R_i the i-th row sum and offset = sum q + sum max(c, 0)
+ sum max(d, 0) + c0.  Each bracketed term is the capacity of one arc cut
by the labeling "source side = variable 1", so maximizing f is a minimum
s-t cut computation, solved exactly by Dinic's blocking-flow algorithm.

Matrices with scattered negative entries are handled by fixing the
variables of a negative eliminator to all 0/1 combinations, folding each
fixing into a reduced nonnegative instance, and taking the best of the
2^|eliminator| min-cut solves.

The solvers build their networks from ``Instance.integer``, so every
capacity is an int; :func:`max_flow` is the rational interface.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .analysis import Eliminator
from .errors import SolverRefusal
from .model import (
    IntegerInstance,
    Instance,
    Solution,
    _bilinear_value,
    _freeze,
    clear_denominators,
)

DEFAULT_ELIMINATOR_LIMIT = 25


@dataclass(frozen=True)
class FlowNetwork:
    """Directed capacitated network with a distinguished source and sink."""

    node_count: int
    source: int
    sink: int
    arcs: tuple[tuple[int, int, int | Fraction], ...]

    def __post_init__(self) -> None:
        if not (0 <= self.source < self.node_count):
            raise ValueError("source out of range")
        if not (0 <= self.sink < self.node_count):
            raise ValueError("sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        arcs = tuple((u, v, _freeze(w)) for (u, v, w) in self.arcs)
        for u, v, w in arcs:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"arc ({u}, {v}) out of range")
            if w < 0:
                raise ValueError(f"arc ({u}, {v}) has negative capacity {w}")
        object.__setattr__(self, "arcs", arcs)


def max_flow(net: FlowNetwork) -> tuple[Fraction, frozenset[int]]:
    """Exact maximum flow value and a minimum-cut source side.

    Capacities are scaled to integers by ``clear_denominators``, Dinic's
    level-graph/blocking-flow scheme runs in integer arithmetic, and the
    value is scaled back.  The returned node set is the residual
    reachability set of the source, whose outgoing arcs form a minimum cut.
    """
    (caps,), scale = clear_denominators([[w for _, _, w in net.arcs]])
    arcs = [(u, v, w) for (u, v, _), w in zip(net.arcs, caps)]
    total, side = _dinic(net.node_count, net.source, net.sink, arcs)
    return Fraction(total, scale), side


def _dinic(
    node_count: int, source: int, sink: int, arcs: Sequence[tuple[int, int, int]]
) -> tuple[int, frozenset[int]]:
    """Maximum flow value and minimum-cut source side, integer capacities."""
    # Arc 2k runs u -> v with capacity w; arc 2k + 1 is its residual twin.
    to = [x for u, v, _ in arcs for x in (v, u)]
    cap = [x for _, _, w in arcs for x in (w, 0)]
    heads: list[list[int]] = [[] for _ in range(node_count)]
    for k, (u, v, _) in enumerate(arcs):
        heads[u].append(2 * k)
        heads[v].append(2 * k + 1)

    total = 0
    level = [0] * node_count
    iters = [0] * node_count

    while True:
        for i in range(node_count):
            level[i] = -1
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for arc in heads[u]:
                v = to[arc]
                if cap[arc] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            break
        for i in range(node_count):
            iters[i] = 0
        # Blocking flow: repeated DFS along level-increasing arcs with a
        # per-node cursor so each arc is abandoned at most once per phase.
        while True:
            path: list[int] = []
            u = source
            pushed = False
            while True:
                if u == sink:
                    bottleneck = min(cap[arc] for arc in path)
                    for arc in path:
                        cap[arc] -= bottleneck
                        cap[arc ^ 1] += bottleneck
                    total += bottleneck
                    pushed = True
                    break
                advanced = False
                while iters[u] < len(heads[u]):
                    arc = heads[u][iters[u]]
                    v = to[arc]
                    if cap[arc] > 0 and level[v] == level[u] + 1:
                        path.append(arc)
                        u = v
                        advanced = True
                        break
                    iters[u] += 1
                if advanced:
                    continue
                level[u] = -1
                if not path:
                    break
                u = _arc_tail(to, path.pop())
            if not pushed and u == source:
                break

    reachable = [False] * node_count
    reachable[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for arc in heads[u]:
            v = to[arc]
            if cap[arc] > 0 and not reachable[v]:
                reachable[v] = True
                queue.append(v)
    side = frozenset(i for i in range(node_count) if reachable[i])
    return total, side


def _arc_tail(to: Sequence[int], arc: int) -> int:
    # Paired arcs: the reverse of arc k is k ^ 1, so the tail of k is the
    # head of its reverse.
    return to[arc ^ 1]


def _network_parts(q: Sequence[Sequence], c: Sequence, d: Sequence):
    """Nodes, arcs, and offset (without c0) for the provisioning network.

    Capacities are in the units of the coefficients: ints for an integer
    instance.  Accepts empty row or column sets so reduced instances can
    reuse it.  Node layout: 0 = source, 1 = sink, then the m row nodes,
    then the n column nodes.
    """
    m, n = len(c), len(d)
    offset = 0
    arcs = []
    for i in range(m):
        row_sum = sum(q[i])
        if any(v < 0 for v in q[i]):
            raise ValueError("cost matrix has a negative entry")
        offset += row_sum
        supply = row_sum + (c[i] if c[i] > 0 else 0)
        if supply > 0:
            arcs.append((0, 2 + i, supply))
        if c[i] > 0:
            offset += c[i]
        elif c[i] < 0:
            arcs.append((2 + i, 1, -c[i]))
        for j in range(n):
            if q[i][j] > 0:
                arcs.append((2 + i, 2 + m + j, q[i][j]))
    for j in range(n):
        if d[j] > 0:
            offset += d[j]
            arcs.append((0, 2 + m + j, d[j]))
        elif d[j] < 0:
            arcs.append((2 + m + j, 1, -d[j]))
    return 2 + m + n, arcs, offset


def build_cut_network(inst: Instance) -> tuple[FlowNetwork, Fraction]:
    """Provisioning network of a nonnegative instance, plus its offset.

    The returned offset satisfies max f = offset - mincut, and for every
    labeling "source side = variable 1" the induced cut capacity equals
    offset - f(x, y).  Raises ValueError on a negative matrix entry.
    """
    node_count, arcs, offset = _network_parts(inst.q, inst.c, inst.d)
    return (
        FlowNetwork(node_count, 0, 1, tuple(arcs)),
        offset + inst.c0,
    )


def _solve_nonnegative_parts(
    q: Sequence[Sequence[int]], c: Sequence[int], d: Sequence[int]
) -> tuple[int, list[int], list[int]]:
    """Optimal (value-without-c0, x, y) for nonnegative q; dims may be 0."""
    m, n = len(c), len(d)
    node_count, arcs, offset = _network_parts(q, c, d)
    cut_value, side = _dinic(node_count, 0, 1, arcs)
    x = [1 if (2 + i) in side else 0 for i in range(m)]
    y = [1 if (2 + m + j) in side else 0 for j in range(n)]
    return offset - cut_value, x, y


def solve_nonnegative(inst: Instance | IntegerInstance) -> Solution:
    """Optimal solution of an instance with entrywise nonnegative matrix."""
    work = inst.integer
    value, x, y = _solve_nonnegative_parts(work.q, work.c, work.d)
    return Solution(tuple(x), tuple(y), Fraction(value + work.c0, work.scale))


@dataclass(frozen=True)
class ReducedInstance:
    """An instance with some variables fixed and their effects folded away.

    Fixing x_i = 1 adds row i of q to the free d and c_i to the constant;
    fixing y_j = 1 adds column j to the free c and d_j to the constant;
    variables fixed to 0 simply disappear.  For any assignment of the free
    variables, objective(x_free, y_free) + constant equals the original
    objective with the fixings applied.  Coefficients are in the units of
    ``base``: ints when it is an :class:`IntegerInstance`.
    """

    base: Instance | IntegerInstance
    fixed_x: tuple[tuple[int, int], ...]
    fixed_y: tuple[tuple[int, int], ...]
    free_rows: tuple[int, ...]
    free_cols: tuple[int, ...]
    q: tuple[tuple[Fraction, ...], ...]
    c: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    constant: Fraction

    def objective(self, x_free: Sequence[int], y_free: Sequence[int]) -> Fraction:
        return _bilinear_value(self.q, self.c, self.d, 0, x_free, y_free)

    def assemble(
        self, x_free: Sequence[int], y_free: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Full (x, y) combining the fixings with free-variable values."""
        x = [0] * self.base.m
        y = [0] * self.base.n
        for i, v in self.fixed_x:
            x[i] = v
        for j, v in self.fixed_y:
            y[j] = v
        for a, i in enumerate(self.free_rows):
            x[i] = x_free[a]
        for bcol, j in enumerate(self.free_cols):
            y[j] = y_free[bcol]
        return tuple(x), tuple(y)


def reduce_with_fixing(
    inst: Instance | IntegerInstance, fixed_x: Mapping[int, int], fixed_y: Mapping[int, int]
) -> ReducedInstance:
    """Fold fixed variables into a reduced instance over the free ones."""
    for i, v in fixed_x.items():
        if not (0 <= i < inst.m) or v not in (0, 1):
            raise ValueError(f"bad x fixing {i} = {v}")
    for j, v in fixed_y.items():
        if not (0 <= j < inst.n) or v not in (0, 1):
            raise ValueError(f"bad y fixing {j} = {v}")
    free_rows = tuple(i for i in range(inst.m) if i not in fixed_x)
    free_cols = tuple(j for j in range(inst.n) if j not in fixed_y)
    constant = inst.c0
    for i, v in fixed_x.items():
        if v:
            constant += inst.c[i]
    for j, v in fixed_y.items():
        if v:
            constant += inst.d[j]
            for i, vx in fixed_x.items():
                if vx:
                    constant += inst.q[i][j]
    c = tuple(
        inst.c[i] + sum(inst.q[i][j] for j, v in fixed_y.items() if v)
        for i in free_rows
    )
    d = tuple(
        inst.d[j] + sum(inst.q[i][j] for i, v in fixed_x.items() if v)
        for j in free_cols
    )
    q = tuple(tuple(inst.q[i][j] for j in free_cols) for i in free_rows)
    return ReducedInstance(
        inst,
        tuple(sorted(fixed_x.items())),
        tuple(sorted(fixed_y.items())),
        free_rows,
        free_cols,
        q,
        c,
        d,
        constant,
    )


def solve_with_eliminator(
    inst: Instance | IntegerInstance,
    elim: Eliminator,
    eliminator_limit: int = DEFAULT_ELIMINATOR_LIMIT,
) -> Solution:
    """Optimal solution by enumerating fixings of the eliminator variables.

    Every 0/1 assignment of the eliminator's rows and columns leaves a
    nonnegative reduced matrix, solved by min-cut; the best of the
    2^|eliminator| reduced optima is optimal overall.  Ties prefer the
    lexicographically smallest (x, y).
    """
    if elim.size > eliminator_limit:
        raise SolverRefusal(
            f"eliminator size {elim.size} exceeds eliminator_limit {eliminator_limit}; "
            f"raise eliminator_limit (--eliminator-limit) to allow it",
            limit=eliminator_limit,
            measured=elim.size,
        )
    work = inst.integer
    best: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None
    for bits in product((0, 1), repeat=elim.size):
        fixed_x = {i: bits[a] for a, i in enumerate(elim.rows)}
        fixed_y = {j: bits[len(elim.rows) + b] for b, j in enumerate(elim.cols)}
        reduced = reduce_with_fixing(work, fixed_x, fixed_y)
        value, x_free, y_free = _solve_nonnegative_parts(
            reduced.q, reduced.c, reduced.d
        )
        value += reduced.constant
        x, y = reduced.assemble(x_free, y_free)
        if best is None or value > best[0] or (
            value == best[0] and (x, y) < (best[1], best[2])
        ):
            best = (value, x, y)
    assert best is not None
    return Solution(best[1], best[2], Fraction(best[0], work.scale))
