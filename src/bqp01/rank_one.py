"""O(n log n) solver for instances whose cost matrix has rank one.

With q_ij = a_i b_j the objective splits along the scalar t = a.x into two
piecewise-linear envelopes: the concave optimum of the parametric knapsack
problem max{c.x : a.x = t, x in [0,1]^m} and the convex optimum of the
unconstrained linear problem max{d.y + t b.y : y in [0,1]^n}.  Both
envelopes change slope at finitely many breakpoints with closed-form
locations, every breakpoint solution is integral, and the instance optimum
is attained at a breakpoint of the concave track.  A single merged sweep
over both breakpoint lists therefore solves the instance.

One parametric LP track, max{o.z + s r.z : z in [0,1]^k} as s grows,
builds both envelopes.  On (b, d) from s = lambda_min it is the convex
envelope itself.  On (a, c) from s = -infinity it is the Lagrangian dual
of the knapsack: each of its segments is a knapsack breakpoint, with the
slope a.x as the breakpoint and the intercept c.x as the value there.

The solvers take a :class:`RankOneForm` or an instance of rank at most
one.  ``_integer_form`` scales either to plain integers (a uniform positive
scaling of the objective, so the argmax is untouched); ratios are sorted by
an exact integer key, so no step rounds.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .model import (
    IntegerInstance,
    Instance,
    Record,
    Solution,
    _frozen,
    _pair,
    _scale_pairs,
    as_fraction,
)


class RankOneForm(Record):
    """Factored instance: maximize (a.x)(b.y) + c.x + d.y + c0.

    Coefficients are frozen like :class:`Instance` ones: ints stay ints,
    other numbers become Fractions, and c0 is always a Fraction.  Which
    vectors were all ints is kept from the freezing for the integer copy.
    """

    a: tuple[int | Fraction, ...]
    b: tuple[int | Fraction, ...]
    c: tuple[int | Fraction, ...]
    d: tuple[int | Fraction, ...]
    c0: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        vectors, flags = zip(*map(_frozen, (self.a, self.b, self.c, self.d)))
        for name, vec in zip("abcd", vectors):
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "c0", as_fraction(self.c0))
        object.__setattr__(self, "_int_vectors", flags)
        if len(self.a) != len(self.c):
            raise ValueError("a and c must have equal length")
        if len(self.b) != len(self.d):
            raise ValueError("b and d must have equal length")

    @classmethod
    def from_instance(cls, inst: Instance | IntegerInstance) -> "RankOneForm":
        """Factor inst.q = a b^T; raises ValueError if rank(q) exceeds one.

        The instance's integer form divided back by its scales: a is the
        pivot column of q, and b the pivot row divided by the pivot.
        """
        a, b, c, d, c0, ka, kb = _integer_form(inst)
        linear = [Fraction(v, ka * kb) for v in (*c, *d, c0)]
        a, b = [Fraction(v, ka) for v in a], [Fraction(v, kb) for v in b]
        return cls(a, b, linear[: len(a)], linear[len(a) : -1], linear[-1])

    @property
    def lambda_min(self) -> Fraction:
        """Smallest attainable a.x over the unit box."""
        return sum((v for v in self.a if v < 0), Fraction(0))

    @property
    def lambda_max(self) -> Fraction:
        """Largest attainable a.x over the unit box."""
        return sum((v for v in self.a if v > 0), Fraction(0))

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        ax = sum((v for v, xi in zip(self.a, x) if xi), Fraction(0))
        by = sum((v for v, yj in zip(self.b, y) if yj), Fraction(0))
        cx = sum((v for v, xi in zip(self.c, x) if xi), Fraction(0))
        dy = sum((v for v, yj in zip(self.d, y) if yj), Fraction(0))
        return ax * by + cx + dy + self.c0


class BreakpointTrack(Record):
    """Breakpoints of a piecewise-linear parametric optimum.

    ``values[k]`` is the envelope value at ``breakpoints[k]``.  ``groups``
    lists the variable flips between consecutive states as (index, new
    value) pairs; groups are pairwise disjoint, so the solution after any
    number of flips is reconstructed by replaying them onto ``initial``
    with :meth:`state_after`.  For the concave (knapsack) track group k
    moves the solution from breakpoint k to k+1; for the convex (linear)
    track group k fires at breakpoint k itself.  The convex track also
    records per-segment intercepts and slopes, so its envelope can be
    evaluated anywhere: value after k flips at parameter t is
    intercepts[k] + t * slopes[k].
    """

    breakpoints: tuple[Fraction, ...]
    groups: tuple[tuple[tuple[int, int], ...], ...]
    initial: tuple[int, ...]
    values: tuple[Fraction, ...]
    intercepts: tuple[Fraction, ...] = ()
    slopes: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        for left, right in zip(self.breakpoints, self.breakpoints[1:]):
            if not left < right:
                raise ValueError("breakpoints must be strictly increasing")
        seen: set[int] = set()
        for group in self.groups:
            for index, _ in group:
                if index in seen:
                    raise ValueError(f"index {index} appears in two flip groups")
                seen.add(index)

    def state_after(self, flips: int) -> tuple[int, ...]:
        """Solution vector after applying the first ``flips`` groups."""
        return _replay(self.initial, self.groups, flips)


# --- exact integer core -------------------------------------------------------


def _integer_form(source: RankOneForm | Instance | IntegerInstance):
    """Integer copy (A, B, C, D, C0) and its axis and slope scales ka, kb.

    A = ka*a, B = kb*b and the linear terms are scaled by ka*kb, as is the
    objective.  A form takes ka = kb = k from ``_scale_pairs``, reading
    which vectors its freezing found all ints.  An instance's integer q is
    left right / denominator by ``rank_at_most(1)``: A is the pivot column,
    B the factor row, ka its scale, kb the denominator.
    """
    if not isinstance(source, RankOneForm):
        work = source.integer
        fact = work.rank_at_most(1)
        if fact is None:
            raise ValueError("matrix has rank > 1, expected at most 1")
        k = fact.denominator
        a = [row[0] if row else 0 for row in fact.left]
        b = fact.right[0] if fact.p else (0,) * work.n
        return a, b, [k * v for v in work.c], [k * v for v in work.d], k * work.c0, work.scale, k
    vectors = source.a, source.b, source.c, source.d, (source.c0,)
    (a, b, c, d, (c0,)), k = _scale_pairs(list(map(_pair, vectors, (*source._int_vectors, False))))
    if k > 1:
        c, d, c0 = [k * x for x in c], [k * x for x in d], k * c0
    return a, b, c, d, c0, k, k


def _sorted_ratio_groups(pairs: list[tuple[int, int, int]]) -> list[list[int]]:
    """Group indices by exactly equal ratio, in ascending ratio order.

    ``pairs`` holds (numerator, positive denominator, index).  With D the
    largest denominator, two distinct ratios differ by at least 1/D^2, so
    the integer key num * D^2 // den orders them exactly and gives equal
    ratios equal keys.  Within a group, indices ascend.
    """
    square = max((den for _, den, _ in pairs), default=1) ** 2
    groups: list[list[int]] = []
    last = None
    for key, idx in sorted([(num * square // den, idx) for num, den, idx in pairs]):
        if key == last:
            groups[-1].append(idx)
        else:
            groups.append([idx])
            last = key
    return groups


def _parametric_track(rates: list[int], offsets: list[int], lo: int | None = None):
    """Parametric LP track of max{O.z + s R.z : z in [0,1]^k} as s grows.

    With lo None the sweep starts at s = -infinity, where z_i = 1 iff
    R_i < 0, or R_i = 0 < O_i.  Otherwise it starts at s = lo by the
    margin rule: z_i = 1 iff O_i + lo R_i > 0, a zero margin taking the
    sign of R_i (z_i = 1 iff R_i >= 0).  The sweep crosses the distinct
    ratios -O_i/R_i (R_i != 0) strictly above the start, in increasing
    order, and toggles every member of each tie group.

    Returns (initial, groups, intercepts, slopes): the start state; the
    group toggled at each crossed ratio, as (index, new value) pairs; and
    the running O.z and R.z, one entry per state (len(groups) + 1).  Each
    toggle raises the slope by |R_i|, so the slopes strictly increase, and
    the ratio crossed between states k and k+1 is where their lines meet:
    (intercepts[k] - intercepts[k+1]) / (slopes[k+1] - slopes[k]).
    """
    if lo is None:
        initial = tuple(
            1 if r < 0 or (r == 0 and o > 0) else 0 for r, o in zip(rates, offsets)
        )
    else:
        initial = tuple(
            1 if (margin := o + lo * r) > 0 or (margin == 0 and r >= 0) else 0
            for r, o in zip(rates, offsets)
        )
    intercept = sum(o for o, z in zip(offsets, initial) if z)
    slope = sum(r for r, z in zip(rates, initial) if z)
    pairs = [
        ((-o if r > 0 else o), abs(r), i) for i, (r, o) in enumerate(zip(rates, offsets)) if r
    ]
    if lo is not None:
        pairs = [pair for pair in pairs if pair[0] > lo * pair[1]]
    groups: list[tuple[tuple[int, int], ...]] = []
    intercepts = [intercept]
    slopes = [slope]
    for raw_group in _sorted_ratio_groups(pairs):
        group = []
        for i in raw_group:
            if initial[i]:
                group.append((i, 0))
                intercept -= offsets[i]
                slope -= rates[i]
            else:
                group.append((i, 1))
                intercept += offsets[i]
                slope += rates[i]
        groups.append(tuple(group))
        intercepts.append(intercept)
        slopes.append(slope)
    return initial, groups, intercepts, slopes


def _replay(initial: tuple[int, ...], groups, count: int) -> tuple[int, ...]:
    """``initial`` with the first ``count`` flip groups applied."""
    state = list(initial)
    for group in groups[:count]:
        for index, value in group:
            state[index] = value
    return tuple(state)


# --- public track construction --------------------------------------------------


def pkp_breakpoints(source: RankOneForm | Instance | IntegerInstance) -> BreakpointTrack:
    """Breakpoint track of max{c.x : a.x = t, x in [0,1]^m}.

    The base solution at t = lambda_min sets x_i = 1 for a_i < 0 and for
    a_i = 0 with c_i > 0.  Scanning the distinct ratios c_i/a_i in
    decreasing order, each tie group T advances the breakpoint by
    sum_{i in T} |a_i| and flips its members toward their upper (a_i > 0)
    or lower (a_i < 0) bound.  At most m+1 breakpoints; every breakpoint
    solution is binary and the track value is concave.
    """
    a, _, c, _, _, ka, kb = _integer_form(source)
    initial, groups, values, breakpoints = _parametric_track(a, c)
    return BreakpointTrack(
        tuple(Fraction(t, ka) for t in breakpoints),
        tuple(groups),
        initial,
        tuple(Fraction(h, ka * kb) for h in values),
    )


def ulp_breakpoints(source: RankOneForm | Instance | IntegerInstance) -> BreakpointTrack:
    """Breakpoint track of max{d.y + t b.y : y in [0,1]^n} for t >= lambda_min.

    The base solution at t = lambda_min sets y_j = 1 iff d_j + t b_j > 0,
    with ties d_j + t b_j = 0 resolved by the sign of b_j: a tied variable
    is value-neutral at lambda_min itself, so its state is chosen to be
    optimal just above, where the coefficient has b_j's sign.  (Tied
    variables never appear as breakpoints, since only ratios strictly
    above lambda_min qualify.)  Breakpoints are the distinct ratios
    -d_j/b_j (b_j != 0) strictly above lambda_min, in increasing order;
    crossing one toggles every member of its tie group, which is
    value-neutral at the tie point.  Running aggregates D = sum of active
    d_j and B = sum of active b_j give the envelope value D + t B on each
    segment; the slopes B strictly increase, so the track value is convex.
    """
    a, b, _, d, _, ka, kb = _integer_form(source)
    initial, groups, intercepts, slopes = _parametric_track(b, d, sum(x for x in a if x < 0))
    # Breakpoint k is where the lines of segments k and k+1 meet.
    mu_pairs = [
        (i0 - i1, s1 - s0) for i0, i1, s0, s1 in zip(intercepts, intercepts[1:], slopes, slopes[1:])
    ]
    values = tuple(
        Fraction(intercepts[k + 1] * den + num * slopes[k + 1], den * ka * kb)
        for k, (num, den) in enumerate(mu_pairs)
    )
    return BreakpointTrack(
        tuple(Fraction(num, den * ka) for num, den in mu_pairs),
        tuple(groups),
        initial,
        values,
        tuple(Fraction(i, ka * kb) for i in intercepts),
        tuple(Fraction(x, kb) for x in slopes),
    )


def solve_rank_one(source: RankOneForm | Instance | IntegerInstance) -> Solution:
    """Optimal solution of the factored instance via a merged sweep.

    Both tracks are built, then their breakpoints are scanned in increasing
    order starting at lambda_min.  Convex-track flips at or below the
    current concave breakpoint t are applied first (the flips are
    value-neutral at their tie points, so coincident breakpoints commute);
    the candidate value at t is then the sum of both envelope values plus
    c0.  The best candidate over all concave breakpoints is optimal.
    """
    a, b, c, d, c0, ka, kb = _integer_form(source)
    x_initial, x_groups, x_values, x_bps = _parametric_track(a, c)
    y_initial, y_groups, intercepts, slopes = _parametric_track(b, d, x_bps[0])

    flips = 0
    total_flips = len(y_groups)
    best_value: int | None = None
    best_k = 0
    best_flips = 0
    for k, t in enumerate(x_bps):
        # Past a convex breakpoint at or below t, the next segment's line is as high.
        line = intercepts[flips] + t * slopes[flips]
        while flips < total_flips and (up := intercepts[flips + 1] + t * slopes[flips + 1]) >= line:
            flips, line = flips + 1, up
        value = x_values[k] + line + c0
        if best_value is None or value > best_value:
            best_value = value
            best_k = k
            best_flips = flips
    assert best_value is not None

    x = _replay(x_initial, x_groups, best_k)
    y = _replay(y_initial, y_groups, best_flips)
    return Solution(x, y, Fraction(best_value, ka * kb))
