"""Independent exact optima for the benchmark's answer checks.

Nothing here imports bqp01: each routine is a second exact route to the
optimum of max x^T Q y + c.x + d.y + c0 over binary x, y, written over
plain integers, so a wrong answer from the program cannot be masked by
the same bug in the reference.  Callers clear denominators first with
``to_ints``; every routine returns the integer optimum of the scaled
instance.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm


def to_ints(q, c, d, c0):
    """Scale rational coefficients to integers; returns (q, c, d, c0, scale)."""
    values = [c0, *c, *d]
    for row in q:
        values.extend(row)
    scale = 1
    for v in values:
        scale = lcm(scale, Fraction(v).denominator)

    def conv(v):
        v = Fraction(v) * scale
        return v.numerator

    return (
        [[conv(v) for v in row] for row in q],
        [conv(v) for v in c],
        [conv(v) for v in d],
        conv(c0),
        scale,
    )


def cut_to_binary(q, c, d, c0):
    """Rewrite a {-1,+1} objective over binary variables (s = 2w - 1)."""
    rows = [sum(row) for row in q]
    cols = [sum(col) for col in zip(*q)]
    return (
        [[4 * v for v in row] for row in q],
        [2 * (ci - ri) for ci, ri in zip(c, rows)],
        [2 * (dj - sj) for dj, sj in zip(d, cols)],
        sum(rows) - sum(c) - sum(d) + c0,
    )


def brute_force(q, c, d, c0):
    """Scan all 2^m x-vectors in Gray-code order; y is the best response."""
    m, n = len(q), len(q[0])
    if m > n:
        q = [list(col) for col in zip(*q)]
        c, d = d, c
        m, n = n, m
    sums = list(d)
    linear = c0
    best = linear + sum(v for v in sums if v > 0)
    mask = 0
    for step in range(1, 1 << m):
        i = (step & -step).bit_length() - 1
        mask ^= 1 << i
        row = q[i]
        if mask >> i & 1:
            linear += c[i]
            sums = [s + v for s, v in zip(sums, row)]
        else:
            linear -= c[i]
            sums = [s - v for s, v in zip(sums, row)]
        value = linear + sum(v for v in sums if v > 0)
        if value > best:
            best = value
    return best


def _max_flow(node_count, arcs, source, sink):
    """Dinic's algorithm on integer capacities; returns the flow value."""
    heads = [[] for _ in range(node_count)]
    to, cap = [], []
    for u, v, w in arcs:
        heads[u].append(len(to))
        to.append(v)
        cap.append(w)
        heads[v].append(len(to))
        to.append(u)
        cap.append(0)
    total = 0
    while True:
        level = [-1] * node_count
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for a in heads[u]:
                if cap[a] > 0 and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        if level[sink] < 0:
            return total
        pos = [0] * node_count

        def push(u, limit):
            if u == sink:
                return limit
            arcs_u = heads[u]
            while pos[u] < len(arcs_u):
                a = arcs_u[pos[u]]
                v = to[a]
                if cap[a] > 0 and level[v] == level[u] + 1:
                    got = push(v, min(limit, cap[a]))
                    if got:
                        cap[a] -= got
                        cap[a ^ 1] += got
                        return got
                pos[u] += 1
            return 0

        while True:
            got = push(source, float("inf"))
            if not got:
                break
            total += got


def nonnegative_optimum(q, c, d, c0):
    """Optimum for an entrywise nonnegative q, by a minimum s-t cut.

    With x_i y_j = x_i - x_i (1 - y_j), minimizing -f is a cut problem:
    source side = variables at 1, arc x_i -> y_j of capacity q_ij, and a
    terminal arc for each unary coefficient.
    """
    m, n = len(q), len(q[0])
    source, sink = m + n, m + n + 1
    arcs = []
    constant = -c0
    units = [-(ci + sum(row)) for ci, row in zip(c, q)] + [-dj for dj in d]
    for node, w in enumerate(units):
        if w > 0:
            arcs.append((node, sink, w))
        elif w < 0:
            constant += w
            arcs.append((source, node, -w))
    for i, row in enumerate(q):
        if any(v < 0 for v in row):
            raise ValueError("nonnegative_optimum needs q >= 0")
        for j, v in enumerate(row):
            if v:
                arcs.append((i, m + j, v))
    return -(constant + _max_flow(m + n + 2, arcs, source, sink))


def sparse_negative_optimum(q, c, d, c0):
    """Fix every row holding a negative entry both ways; min-cut the rest."""
    negative_rows = [i for i, row in enumerate(q) if any(v < 0 for v in row)]
    free_rows = [i for i in range(len(q)) if i not in set(negative_rows)]
    best = None
    for mask in range(1 << len(negative_rows)):
        chosen = [i for k, i in enumerate(negative_rows) if mask >> k & 1]
        dd = list(d)
        const = c0
        for i in chosen:
            const += c[i]
            dd = [a + b for a, b in zip(dd, q[i])]
        if free_rows:
            value = nonnegative_optimum(
                [q[i] for i in free_rows], [c[i] for i in free_rows], dd, const
            )
        else:
            value = const + sum(v for v in dd if v > 0)
        if best is None or value > best:
            best = value
    return best


def additive_optimum(q, c, d, c0):
    """Optimum for q_ij = a_i + b_j by a scan over both cardinalities.

    With L = |x| and K = |y| the objective is the sum of the top L of
    (K a_i + c_i) and the top K of (L b_j + d_j), plus c0.
    """
    m, n = len(q), len(q[0])
    a = [row[0] for row in q]
    b = [v - q[0][0] for v in q[0]]
    if any(q[i][j] != a[i] + b[j] for i in range(m) for j in range(n)):
        raise ValueError("additive_optimum needs q_ij = a_i + b_j")

    def prefix_best(weights, coeffs, mult):
        values = sorted((mult * w + v for w, v in zip(weights, coeffs)), reverse=True)
        out = [0]
        for v in values:
            out.append(out[-1] + v)
        return out

    x_side = [prefix_best(a, c, k) for k in range(n + 1)]
    y_side = [prefix_best(b, d, l) for l in range(m + 1)]
    return c0 + max(
        x_side[k][l] + y_side[l][k] for k in range(n + 1) for l in range(m + 1)
    )


def sorted_ratios(items):
    """``items`` (num, den, payload) sorted by num/den, exactly.

    Floats order the ratios fast; the order is then verified by integer
    cross-multiplication and redone with Fractions if floats got it wrong.
    """
    try:
        out = sorted(items, key=lambda it: it[0] / it[1])
    except OverflowError:
        return sorted(items, key=lambda it: Fraction(it[0], it[1]))
    for (n1, d1, _), (n2, d2, _) in zip(out, out[1:]):
        if (n1 * d2 - n2 * d1) * (d1 * d2) > 0:
            return sorted(items, key=lambda it: Fraction(it[0], it[1]))
    return out


def _same_ratio(p1, p2):
    return p1[0] * p2[1] == p2[0] * p1[1]


def rank_one_factors(q):
    """Integer a, b and a positive divisor g with q_ij * g = a_i * b_j."""
    for r, row in enumerate(q):
        for k, v in enumerate(row):
            if v:
                g = abs(v)
                sign = 1 if v > 0 else -1
                a = [sign * other[k] for other in q]
                b = list(row)
                if any(q[i][j] * g != a[i] * b[j] for i in range(len(q)) for j in range(len(b))):
                    raise ValueError("rank_one_factors needs a rank-one matrix")
                return a, b, g
    return [0] * len(q), [0] * len(q[0]), 1


def rank_one_optimum(a, b, c, d, c0, g=1):
    """Optimum of (a.x)(b.y)/g + c.x + d.y + c0, times g, in O((m+n) log).

    The best y for a given s = a.x is {j : b_j s + d_j > 0}; as s grows
    these sets only gain positive b_j and lose negative b_j, so t = b.y is
    nondecreasing over the sweep.  For each such y the best x takes every
    i with a_i t + g c_i > 0, evaluated by a second sweep over t.
    """
    c = [g * v for v in c]
    d = [g * v for v in d]
    c0 = g * c0
    t = 0
    dsum = 0
    thresholds = []
    for bj, dj in zip(b, d):
        if bj == 0:
            if dj > 0:
                dsum += dj
        else:
            if bj < 0:
                t += bj
                dsum += dj
            thresholds.append((-dj, bj, (bj, dj)))
    thresholds = sorted_ratios(thresholds)
    candidates = [(t, dsum)]
    k = 0
    while k < len(thresholds):
        end = k + 1
        while end < len(thresholds) and _same_ratio(thresholds[k], thresholds[end]):
            end += 1
        group = [payload for _, _, payload in thresholds[k:end]]
        for bj, dj in group:
            if bj < 0:
                t -= bj
                dsum -= dj
        candidates.append((t, dsum))
        for bj, dj in group:
            if bj > 0:
                t += bj
                dsum += dj
        candidates.append((t, dsum))
        k = end

    # h(t) = sum_i max(0, a_i t + c_i): track the sums of a and c over the
    # active i; a_i > 0 turns on at t >= -c_i/a_i, a_i < 0 turns off there.
    sum_a = sum(ai for ai in a if ai < 0)
    sum_c = sum(ci for ai, ci in zip(a, c) if ai < 0 or (ai == 0 and ci > 0))
    events = sorted_ratios([(-ci, ai, None) for ai, ci in zip(a, c) if ai])
    pos = 0
    best = None
    for t, dsum in candidates:
        # -c/a <= t  <=>  -c <= t a for a > 0, and -c >= t a for a < 0.
        while pos < len(events) and (events[pos][0] - t * events[pos][1]) * events[pos][1] <= 0:
            num, ai, _ = events[pos]
            sign = 1 if ai > 0 else -1
            sum_a += sign * ai
            sum_c -= sign * num
            pos += 1
        value = sum_a * t + sum_c + dsum + c0
        if best is None or value > best:
            best = value
    return best
