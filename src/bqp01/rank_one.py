"""O(n log n) solver for instances whose cost matrix has rank one.

With q_ij = a_i b_j the objective splits along the scalar t = a.x into two
piecewise-linear envelopes: the concave optimum of the parametric knapsack
problem max{c.x : a.x = t, x in [0,1]^m} and the convex optimum of the
unconstrained linear problem max{d.y + t b.y : y in [0,1]^n}.  Both
envelopes change slope at finitely many breakpoints with closed-form
locations, every breakpoint solution is integral, and the instance optimum
is attained at a breakpoint of the concave track.  A single merged sweep
over both breakpoint lists therefore solves the instance.

Internally the pipeline scales the form to integers with the shared
``clear_denominators`` step (a uniform positive scaling of the objective,
so the argmax is untouched) and runs on plain integers; ratios are sorted
by an exact integer key, so no step rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import (
    IntegerInstance,
    Instance,
    Solution,
    as_fraction,
    clear_denominators,
    freeze_vector,
)


@dataclass(frozen=True)
class RankOneForm:
    """Factored instance: maximize (a.x)(b.y) + c.x + d.y + c0.

    Coefficients are frozen like :class:`Instance` ones: ints stay ints,
    other numbers become Fractions, and c0 is always a Fraction.
    """

    a: tuple[int | Fraction, ...]
    b: tuple[int | Fraction, ...]
    c: tuple[int | Fraction, ...]
    d: tuple[int | Fraction, ...]
    c0: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", freeze_vector(self.a))
        object.__setattr__(self, "b", freeze_vector(self.b))
        object.__setattr__(self, "c", freeze_vector(self.c))
        object.__setattr__(self, "d", freeze_vector(self.d))
        object.__setattr__(self, "c0", as_fraction(self.c0))
        if len(self.a) != len(self.c):
            raise ValueError("a and c must have equal length")
        if len(self.b) != len(self.d):
            raise ValueError("b and d must have equal length")

    @classmethod
    def from_instance(cls, inst: Instance | IntegerInstance) -> "RankOneForm":
        """Factor inst.q = a b^T; raises ValueError if rank(q) exceeds one.

        Asks the integer instance for ``rank_at_most(1)``, so the
        elimination stops at its second pivot and a factorization already
        recorded there is reused.  a is the pivot column of q, and b the
        pivot row divided by the pivot.
        """
        work = inst.integer
        fact = work.rank_at_most(1)
        if fact is None:
            raise ValueError("matrix has rank > 1, expected at most 1")
        a = [Fraction(row[0], work.scale) if row else 0 for row in fact.left]
        b = [Fraction(v, fact.denominator) for v in fact.right[0]] if fact.p else [0] * work.n
        linear = [Fraction(v, work.scale) for v in (*work.c, *work.d, work.c0)]
        return cls(a, b, linear[: work.m], linear[work.m : -1], linear[-1])

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


@dataclass(frozen=True)
class BreakpointTrack:
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
        state = list(self.initial)
        for group in self.groups[:flips]:
            for index, value in group:
                state[index] = value
        return tuple(state)


# --- exact integer core -------------------------------------------------------


def _integer_form(form: RankOneForm):
    """Integer copy (A, B, C, D, C0) and its scale k.

    With k from ``clear_denominators`` over every coefficient, A = k*a,
    B = k*b and the linear terms are scaled by k^2, so the scaled
    objective is exactly k^2 times the original and the breakpoint axis
    (and the convex track's slopes) are scaled by k.
    """
    (a, b, c, d, (c0,)), k = clear_denominators([form.a, form.b, form.c, form.d, (form.c0,)])
    if k > 1:
        c, d, c0 = [k * x for x in c], [k * x for x in d], k * c0
    return a, b, c, d, c0, k


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


def _knapsack_track_ints(a: list[int], c: list[int]):
    """Concave envelope of max{C.x : A.x = t} in scaled integer units.

    Returns (breakpoints, groups, initial, values): breakpoints on the
    scaled axis, flip groups as (index, new value) pairs between
    consecutive breakpoints, the base solution at the smallest breakpoint,
    and the envelope value at each breakpoint.
    """
    m = len(a)
    initial = tuple(
        1 if (a[i] < 0 or (a[i] == 0 and c[i] > 0)) else 0 for i in range(m)
    )
    lam = sum(v for v in a if v < 0)
    value = sum(c[i] for i in range(m) if initial[i])
    # Descending ratio c_i/a_i == ascending -c_i/a_i, normalized positive-den.
    pairs = [
        ((-c[i] if a[i] > 0 else c[i]), abs(a[i]), i) for i in range(m) if a[i]
    ]
    breakpoints = [lam]
    values = [value]
    groups: list[tuple[tuple[int, int], ...]] = []
    for raw_group in _sorted_ratio_groups(pairs):
        step = 0
        gain = 0
        group = []
        for i in raw_group:
            if a[i] > 0:
                group.append((i, 1))
                step += a[i]
                gain += c[i]
            else:
                group.append((i, 0))
                step -= a[i]
                gain -= c[i]
        breakpoints.append(breakpoints[-1] + step)
        values.append(values[-1] + gain)
        groups.append(tuple(group))
    return breakpoints, groups, initial, values


def _linear_track_ints(b: list[int], d: list[int], lam_lo: int):
    """Convex envelope of max{D.y + t B.y} in scaled integer units.

    Returns (mu_pairs, groups, initial, intercepts, slopes): breakpoints
    as exact (numerator, positive denominator) pairs on the scaled axis,
    in strictly increasing order beyond lam_lo; the flip group firing at
    each; the base solution; and the running intercept/slope aggregates,
    one entry per state (len(groups) + 1).
    """
    n = len(b)
    initial = []
    for j in range(n):
        margin = d[j] + lam_lo * b[j]
        initial.append(1 if margin > 0 or (margin == 0 and b[j] >= 0) else 0)
    initial = tuple(initial)
    intercept = sum(d[j] for j in range(n) if initial[j])
    slope = sum(b[j] for j in range(n) if initial[j])
    pairs = []
    for j in range(n):
        if b[j]:
            num = -d[j] if b[j] > 0 else d[j]
            den = abs(b[j])
            if num > lam_lo * den:
                pairs.append((num, den, j))
    mu_pairs: list[tuple[int, int]] = []
    groups: list[tuple[tuple[int, int], ...]] = []
    intercepts = [intercept]
    slopes = [slope]
    for raw_group in _sorted_ratio_groups(pairs):
        group = []
        for j in raw_group:
            if initial[j]:
                group.append((j, 0))
                intercept -= d[j]
                slope -= b[j]
            else:
                group.append((j, 1))
                intercept += d[j]
                slope += b[j]
        j0 = raw_group[0]
        mu_pairs.append(((-d[j0] if b[j0] > 0 else d[j0]), abs(b[j0])))
        groups.append(tuple(group))
        intercepts.append(intercept)
        slopes.append(slope)
    return mu_pairs, groups, initial, intercepts, slopes


# --- public track construction --------------------------------------------------


def pkp_breakpoints(form: RankOneForm) -> BreakpointTrack:
    """Breakpoint track of max{c.x : a.x = t, x in [0,1]^m}.

    The base solution at t = lambda_min sets x_i = 1 for a_i < 0 and for
    a_i = 0 with c_i > 0.  Scanning the distinct ratios c_i/a_i in
    decreasing order, each tie group T advances the breakpoint by
    sum_{i in T} |a_i| and flips its members toward their upper (a_i > 0)
    or lower (a_i < 0) bound.  At most m+1 breakpoints; every breakpoint
    solution is binary and the track value is concave.
    """
    a, _, c, _, _, scale = _integer_form(form)
    breakpoints, groups, initial, values = _knapsack_track_ints(a, c)
    return BreakpointTrack(
        tuple(Fraction(t, scale) for t in breakpoints),
        tuple(groups),
        initial,
        tuple(Fraction(h, scale**2) for h in values),
    )


def ulp_breakpoints(form: RankOneForm) -> BreakpointTrack:
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
    a, b, _, d, _, scale = _integer_form(form)
    lam_lo = sum(x for x in a if x < 0)
    mu_pairs, groups, initial, intercepts, slopes = _linear_track_ints(b, d, lam_lo)
    values = tuple(
        Fraction(intercepts[k + 1] * den + num * slopes[k + 1], den * scale**2)
        for k, (num, den) in enumerate(mu_pairs)
    )
    return BreakpointTrack(
        tuple(Fraction(num, den * scale) for num, den in mu_pairs),
        tuple(groups),
        initial,
        values,
        tuple(Fraction(i, scale**2) for i in intercepts),
        tuple(Fraction(x, scale) for x in slopes),
    )


def solve_rank_one(form: RankOneForm) -> Solution:
    """Optimal solution of the factored instance via a merged sweep.

    Both tracks are built, then their breakpoints are scanned in increasing
    order starting at lambda_min.  Convex-track flips at or below the
    current concave breakpoint t are applied first (the flips are
    value-neutral at their tie points, so coincident breakpoints commute);
    the candidate value at t is then the sum of both envelope values plus
    c0.  The best candidate over all concave breakpoints is optimal.
    """
    a, b, c, d, c0, scale = _integer_form(form)
    x_bps, x_groups, x_initial, x_values = _knapsack_track_ints(a, c)
    lam_lo = x_bps[0]
    mu_pairs, y_groups, y_initial, intercepts, slopes = _linear_track_ints(
        b, d, lam_lo
    )

    flips = 0
    total_flips = len(mu_pairs)
    best_value: int | None = None
    best_k = 0
    best_flips = 0
    for k, t in enumerate(x_bps):
        while flips < total_flips and mu_pairs[flips][0] <= t * mu_pairs[flips][1]:
            flips += 1
        value = x_values[k] + intercepts[flips] + t * slopes[flips] + c0
        if best_value is None or value > best_value:
            best_value = value
            best_k = k
            best_flips = flips
    assert best_value is not None

    x = list(x_initial)
    for group in x_groups[:best_k]:
        for index, bit in group:
            x[index] = bit
    y = list(y_initial)
    for group in y_groups[:best_flips]:
        for index, bit in group:
            y[index] = bit
    return Solution(tuple(x), tuple(y), Fraction(best_value, scale**2))
