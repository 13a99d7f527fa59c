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
variables of a negative eliminator to all 0/1 combinations and taking the
best of the 2^|eliminator| min cuts, on one warm-started network over the
free rows and columns (see :func:`solve_with_eliminator`).

Before that network is built, bounds decide the free variables that take
one value in every optimum of every fixing (first-order persistency;
Hammer, Hansen and Simeone, Math. Programming 28, 1984).  The free block
is nonnegative, so x_i's gain c_i + sum_j q_ij y_j lies between c_i plus
q on free columns decided 1 and the negative q on eliminator columns, and
c_i plus q on free columns not decided 0 and the positive q there; y_j's
alike.  A lower bound > 0 decides 1, an upper bound < 0 decides 0, and
decisions move the other side's bounds until none changes, O(mn) in all.
Both tests are strict: a variable whose gain can be 0 stays in the
network, whose minimal min cut picks each fixing's smallest optimum.

The solvers build their networks from ``Instance.integer``, so every
capacity is an int; :func:`max_flow` is the rational interface.  All of
them, and ``analysis.min_negative_eliminator``, run one Dinic core on one
paired-arc layout (``_FlowGraph``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .analysis import Eliminator
from .errors import DEFAULT_ELIMINATOR_LIMIT, SolverRefusal
from .model import (
    IntegerInstance,
    Instance,
    Record,
    Solution,
    _bilinear_value,
    _freeze,
    clear_denominators,
)


class FlowNetwork(Record):
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
    graph = _FlowGraph(net.node_count, net.source, net.sink, arcs)
    total = graph.augment()
    return Fraction(total, scale), frozenset(graph.source_side())


class _FlowGraph:
    """Residual graph of an integer-capacity network, solved by Dinic.

    Arc k of the input list becomes arc 2k, with residual capacity
    ``cap[2k]``; arc 2k + 1 is its residual twin, whose capacity is the flow
    on arc 2k.  Callers may rewrite ``cap`` between calls to :meth:`augment`
    as long as no arc's flow exceeds its capacity, and the flow found so
    far is kept: that is how the eliminator walk warm-starts each fixing.
    """

    def __init__(
        self, node_count: int, source: int, sink: int, arcs: Sequence[tuple[int, int, int]]
    ) -> None:
        self.source, self.sink = source, sink
        self.to = [x for u, v, _ in arcs for x in (v, u)]
        self.cap = [x for _, _, w in arcs for x in (w, 0)]
        self.heads: list[list[int]] = [[] for _ in range(node_count)]
        for k, (u, v, _) in enumerate(arcs):
            self.heads[u].append(2 * k)
            self.heads[v].append(2 * k + 1)
        self.level = [0] * node_count

    def augment(self) -> int:
        """Raise the flow to a maximum one; returns the amount added.

        Each phase labels nodes by residual BFS distance from the source
        and pushes a blocking flow along level-increasing arcs, with a
        per-node cursor so each arc is abandoned at most once per phase.
        The last BFS, which misses the sink, leaves ``level`` >= 0 exactly
        on the nodes the source still reaches.
        """
        to, cap, heads = self.to, self.cap, self.heads
        source, sink = self.source, self.sink
        node_count = len(heads)
        added = 0
        while True:
            level = [-1] * node_count
            level[source] = 0
            queue = [source]
            for u in queue:
                next_level = level[u] + 1
                for arc in heads[u]:
                    v = to[arc]
                    if cap[arc] and level[v] < 0:
                        level[v] = next_level
                        queue.append(v)
            self.level = level
            if level[sink] < 0:
                return added
            cursor = [0] * node_count
            path: list[int] = []
            u = source
            while True:
                if u == sink:
                    bottleneck = min(cap[arc] for arc in path)
                    for arc in path:
                        cap[arc] -= bottleneck
                        cap[arc ^ 1] += bottleneck
                    added += bottleneck
                    # Resume from the tail of the first saturated arc.
                    del path[next(k for k, arc in enumerate(path) if not cap[arc]) :]
                    u = to[path[-1]] if path else source
                    continue
                arcs, next_level = heads[u], level[u] + 1
                for k in range(cursor[u], len(arcs)):
                    arc = arcs[k]
                    if cap[arc] and level[to[arc]] == next_level:
                        cursor[u] = k
                        path.append(arc)
                        u = to[arc]
                        break
                else:
                    cursor[u] = len(arcs)
                    if u == source:
                        break
                    # Dead end: no later path of this phase passes u.
                    level[u] = -1
                    u = to[path.pop() ^ 1]

    def source_side(self) -> list[int]:
        """Nodes reachable from the source after :meth:`augment`."""
        return [v for v, lv in enumerate(self.level) if lv >= 0]


def _terminal_caps(row_sum: int, linear: int) -> tuple[int, int]:
    """(source -> node, node -> sink) capacities of a variable node."""
    return row_sum + (linear if linear > 0 else 0), (-linear if linear < 0 else 0)


def _nonnegative_block(q, rows, cols=None, nonnegative=None) -> list:
    """Rows ``rows`` of q on ``cols`` (all when None); ValueError on a negative entry.

    A caller that knows the block's sign passes it as ``nonnegative``, and
    the block is not scanned.
    """
    block = [q[i] if cols is None else [q[i][j] for j in cols] for i in rows]
    if nonnegative is None:
        nonnegative = all(min(row, default=0) >= 0 for row in block)
    if not nonnegative:
        raise ValueError("cost matrix has a negative entry")
    return block


def _provisioning_arcs(block, linear) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Arcs of the provisioning network of a nonnegative block of q.

    Node 0 is the source, 1 the sink, 2 + p the p-th of the block's rows
    then columns, whose linear coefficient is ``linear[p]``.
    Arcs 2p and 2p + 1 are node 2 + p's source and sink arcs, present even
    at capacity 0 so the eliminator walk can rewrite them; the q arcs
    follow.  Also returns each node's row sum (0 for columns).
    """
    first_col = 2 + len(block)
    row_sums = [sum(row) for row in block] + [0] * (len(linear) - len(block))
    pair_arcs = [
        (2 + a, first_col + b, v) for a, row in enumerate(block) for b, v in enumerate(row) if v
    ]
    arcs = []
    for p, (row_sum, lin) in enumerate(zip(row_sums, linear)):
        to_node, to_sink = _terminal_caps(row_sum, lin)
        arcs += [(0, 2 + p, to_node), (2 + p, 1, to_sink)]
    return arcs + pair_arcs, row_sums


def build_cut_network(inst: Instance) -> tuple[FlowNetwork, Fraction]:
    """Provisioning network of a nonnegative instance, plus its offset.

    The returned offset satisfies max f = offset - mincut, and for every
    labeling "source side = variable 1" the induced cut capacity equals
    offset - f(x, y).  Raises ValueError on a negative matrix entry.
    """
    arcs, _ = _provisioning_arcs(_nonnegative_block(inst.q, range(inst.m)), (*inst.c, *inst.d))
    offset = sum(w for u, _, w in arcs if u == 0)
    return (
        FlowNetwork(2 + inst.m + inst.n, 0, 1, tuple(a for a in arcs if a[2])),
        offset + inst.c0,
    )


def solve_nonnegative(inst: Instance | IntegerInstance) -> Solution:
    """Optimal solution of an instance with entrywise nonnegative matrix."""
    return _best_fixing(inst.integer, Eliminator((), ()))


class ReducedInstance(Record):
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
    lexicographically smallest (x, y).  Raises ValueError if the
    eliminator leaves a negative entry.

    The fixings share one network over the free rows and columns, visited
    in Gray-code order.  Flipping row i moves d'_j = d_j + (sum of q_ij
    over rows fixed to 1) by q_ij on the free columns, flipping column j
    moves c'_i alike, and both move the constant.  Only the touched nodes'
    terminal arcs are rewritten, and the flow is kept.  Where a capacity
    falls below its arc's flow, the same delta is added to both terminal
    arcs of that node (Kohli and Torr, "Dynamic graph cuts", ICCV 2005):
    every cut crosses exactly one of them, so all cuts grow by delta, the
    minimum cuts stay the same sets, and the flow is feasible again.  Each
    fixing then augments only along the paths its change opened, and gets
    the same (value, x, y) as a fresh solve of :func:`reduce_with_fixing`.
    Free variables decided by bounds (module docstring) get no node.
    """
    if elim.size > eliminator_limit:
        raise SolverRefusal(
            f"eliminator size {elim.size} exceeds eliminator_limit {eliminator_limit}; "
            f"raise eliminator_limit (--eliminator-limit) to allow it",
            limit=eliminator_limit,
            measured=elim.size,
        )
    return _best_fixing(inst.integer, elim)


def _best_fixing(work: IntegerInstance, elim: Eliminator) -> Solution:
    """The best of the fixings' optima; ties take the smallest (x, y)."""
    value, x, y = min(_fixing_optima(work, elim), key=lambda opt: (-opt[0], opt[1], opt[2]))
    return Solution(x, y, Fraction(value, work.scale))


def _persistent(block, n, linear, spans) -> list[int | None]:
    """The value every optimum of every fixing gives each free node, or None.

    Nodes are ``block``'s rows, then its n columns; ``spans[p]`` is node p's
    q on eliminator lines.  ``linear`` gains the q of the nodes decided 1.
    """
    m = len(block)
    lines = block + (list(zip(*block)) if block else [()] * n)
    open_ = [sum(line) for line in lines]
    least = [sum(v for v in span if v < 0) for span in spans]
    most = [sum(v for v in span if v > 0) for span in spans]
    vals: list[int | None] = [None] * (m + n)
    while True:
        left = vals.count(None)
        for own, other in ((range(m), m), (range(m, m + n), 0)):
            undecided = [p for p in own if vals[p] is None]
            for value, decided in (
                (1, [p for p in undecided if linear[p] + least[p] > 0]),
                (0, [p for p in undecided if linear[p] + open_[p] + most[p] < 0]),
            ):
                for p in decided:
                    vals[p] = value
                for k, v in enumerate(map(sum, zip(*(lines[p] for p in decided))), other):
                    open_[k] -= v
                    linear[k] += value * v
        if vals.count(None) == left:
            return vals


def _fixing_optima(work: IntegerInstance, elim: Eliminator):
    """(value, x, y) of each fixing's minimal optimum, in Gray-code order.

    Values are in the units of ``work``.  Free nodes that
    :func:`_persistent` decides are folded in; the part of x and y on the
    rest is the residual source side, the minimal minimum cut.  With S the
    source-arc capacities, raised as :func:`solve_with_eliminator`
    describes, f = constant + sum S - cut for every labeling, so the
    fixing's value is constant + sum S - max flow.
    """
    q, c, d = work.q, work.c, work.d
    fixed_rows, fixed_cols = set(elim.rows), set(elim.cols)
    rows = [i for i in range(work.m) if i not in fixed_rows]
    cols = [j for j in range(work.n) if j not in fixed_cols]
    # With no line fixed the block is q, whose sign ``work`` records once.
    known = None if elim.size else work.nonnegative
    block = _nonnegative_block(q, rows, cols if elim.cols else None, known)
    linear = [c[i] for i in rows] + [d[j] for j in cols]
    spans = [[q[i][j] for j in elim.cols] for i in rows]
    spans += [[q[i][j] for i in elim.rows] for j in cols]
    vals = _persistent(block, len(cols), linear, spans)
    x, y = [0] * work.m, [0] * work.n
    nodes = [(x, i) for i in rows] + [(y, j) for j in cols]
    constant = work.c0
    for (vec, k), value, lin in zip(nodes, vals, linear):
        if value:
            vec[k] = 1
            constant += lin if vec is y else c[k]
    keep = [p for p, v in enumerate(vals) if v is None]
    if len(keep) < len(vals):
        keep_y = [p - len(rows) for p in keep if p >= len(rows)]
        block = [[block[a][b] for b in keep_y] for a in keep if a < len(rows)]
    nodes, linear = [nodes[p] for p in keep], [linear[p] for p in keep]
    arcs, row_sums = _provisioning_arcs(block, linear)
    graph = _FlowGraph(2 + len(linear), 0, 1, arcs)
    cap = graph.cap
    # Per eliminator variable: where it lives, its own linear term with the
    # free variables decided 1 folded in, its q entries on the network's
    # nodes, and those shared with the other eliminator side.
    flips = [
        (x, i, c[i] + sum(q[i][j] for j in range(work.n) if y[j]),
         [(p, q[i][k]) for p, (vec, k) in enumerate(nodes) if vec is y and q[i][k]],
         [(y, j, q[i][j]) for j in elim.cols])
        for i in elim.rows
    ] + [
        (y, j, d[j] + sum(q[i][j] for i in range(work.m) if x[i]),
         [(p, q[k][j]) for p, (vec, k) in enumerate(nodes) if vec is x and q[k][j]],
         [(x, i, q[i][j]) for i in elim.rows])
        for j in elim.cols
    ]
    source_total = sum(w for u, _, w in arcs if u == 0)
    flow = 0
    for step in range(1 << elim.size):
        if step:
            vec, k, own, couplings, shared = flips[(step & -step).bit_length() - 1]
            vec[k] ^= 1
            sign = 1 if vec[k] else -1
            constant += sign * (own + sum(v for other, at, v in shared if other[at]))
            for p, v in couplings:
                linear[p] += sign * v
                to_node, to_sink = _terminal_caps(row_sums[p], linear[p])
                s_arc, t_arc = 4 * p, 4 * p + 2
                s_flow, t_flow = cap[s_arc + 1], cap[t_arc + 1]
                extra = max(0, s_flow - to_node, t_flow - to_sink)
                source_total += to_node + extra - cap[s_arc] - s_flow
                cap[s_arc] = to_node + extra - s_flow
                cap[t_arc] = to_sink + extra - t_flow
        flow += graph.augment()
        for (vec, k), lv in zip(nodes, graph.level[2:]):
            vec[k] = 1 if lv >= 0 else 0
        yield constant + source_total - flow, tuple(x), tuple(y)
