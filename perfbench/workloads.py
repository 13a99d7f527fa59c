"""The benchmark's four workloads: seeded instance pools and requests.

Each workload is a pool of distinct instances in classes of equal share,
interleaved so a closed loop cycling the pool runs the classes in turn.
Each workload has an odd number of classes (three or five), so the
median request falls inside one class rather than between two.

A request is what a user does: build the instance from raw Python ints
and call the public API, or run ``python -m bqp01 solve FILE``.  Answer
checking lives in ``check`` and is never timed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import bqp01
from bqp01.model import evaluate_cut_objective, evaluate_objective

import reference

REFUSED = ("refused", None, None, None)


@dataclass
class Item:
    """One pool instance: its class, inputs, and what checks need."""

    key: str
    cls: str
    data: object
    reference: object
    refusal_expected: bool = False
    cut: bool = False
    path: str = ""
    checked: dict = field(default_factory=dict)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.data).encode()).hexdigest()[:16]


def instance_seeds(seed: int, salt: int):
    """Per-instance seeds drawn from the workload seed."""
    rng = bqp01.SplitMix64(seed * 1_000_003 + salt)
    while True:
        yield rng.next_u64()


def raw_ints(inst):
    """(q, c, d, c0) of an integer instance as plain Python ints."""
    return (
        [[int(v) for v in row] for row in inst.q],
        [int(v) for v in inst.c],
        [int(v) for v in inst.d],
        int(inst.c0),
    )


def interleave(per_class: list[list[Item]]) -> list[Item]:
    return [item for group in zip(*per_class) for item in group]


# -- references: a second exact route per class ---------------------------


def ref_nonnegative(q, c, d, c0):
    q, c, d, c0, s = reference.to_ints(q, c, d, c0)
    return Fraction(reference.nonnegative_optimum(q, c, d, c0), s)


def ref_additive(q, c, d, c0):
    q, c, d, c0, s = reference.to_ints(q, c, d, c0)
    return Fraction(reference.additive_optimum(q, c, d, c0), s)


def ref_rank_one(q, c, d, c0):
    q, c, d, c0, s = reference.to_ints(q, c, d, c0)
    a, b, g = reference.rank_one_factors(q)
    return Fraction(reference.rank_one_optimum(a, b, c, d, c0, g), g * s)


def ref_brute_force(q, c, d, c0):
    q, c, d, c0, s = reference.to_ints(q, c, d, c0)
    return Fraction(reference.brute_force(q, c, d, c0), s)


def ref_sparse_negative(q, c, d, c0):
    q, c, d, c0, s = reference.to_ints(q, c, d, c0)
    return Fraction(reference.sparse_negative_optimum(q, c, d, c0), s)


def ref_refusal(q, c, d, c0):
    return None


# -- in-process dispatch workloads -----------------------------------------


class DispatchWorkload:
    """``dispatch_solve(auto)`` on instances built from raw Python ints."""

    cli = False

    def __init__(self, name, salt, classes, per_class):
        self.name = name
        self.salt = salt
        self.classes = classes
        self.per_class = per_class

    def build(self, seed: int, workdir: Path) -> list[Item]:
        seeds = instance_seeds(seed, self.salt)
        groups = []
        for label, kind, m, n, accept, ref in self.classes:
            group = []
            while len(group) < self.per_class:
                s = next(seeds)
                raw = raw_ints(bqp01.generate_instance(kind, m, n, s))
                if accept is not None and not accept(raw):
                    continue
                item = Item(f"{label}/{len(group)}", label, raw, ref)
                item.refusal_expected = ref is ref_refusal
                group.append(item)
            groups.append(group)
        return interleave(groups)

    def request(self, item: Item):
        q, c, d, c0 = item.data
        try:
            report = bqp01.dispatch_solve(bqp01.Instance(q, c, d, c0))
        except bqp01.SolverRefusal:
            return REFUSED
        sol = report.solution
        return (report.algorithm, sol.x, sol.y, sol.value)

    replay = request

    def reference(self, item: Item):
        return item.reference(*item.data)

    def evaluate(self, item: Item, x, y):
        return evaluate_objective(bqp01.Instance(*item.data), x, y)


def planted_in_distinct_lines(raw) -> bool:
    """True when the negative cells share no row and no column.

    Such an instance has a negative eliminator of exactly as many lines as
    negative cells, so every request of the class does 2^6 fixings.
    """
    cells = [(i, j) for i, row in enumerate(raw[0]) for j, v in enumerate(row) if v < 0]
    return len({i for i, _ in cells}) == len(cells) == len({j for _, j in cells})


STRUCTURED = DispatchWorkload(
    "structured",
    1,
    [
        ("nonnegative-160x160", "nonnegative", 160, 160, None, ref_nonnegative),
        ("additive-320x240", "additive", 320, 240, None, ref_additive),
        ("rank1-150x200", "rank1", 150, 200, None, ref_rank_one),
    ],
    per_class=3,
)

# Costs run enum < refusal < eliminator < rank-3 < rank-2, so the median
# request falls in the eliminator class, whose cost varies least by seed.
COMBINATORIAL = DispatchWorkload(
    "combinatorial",
    2,
    [
        ("general-9x80", "general", 9, 80, None, ref_brute_force),
        ("rank2-16x40", "rank2", 16, 40, None, ref_brute_force),
        ("rank3-10x15", "rank3", 10, 15, None, ref_brute_force),
        (
            "sparse-negative6-30x30",
            "sparse-negative6",
            30,
            30,
            planted_in_distinct_lines,
            ref_sparse_negative,
        ),
        ("general-30x40", "general", 30, 40, None, ref_refusal),
    ],
    per_class=3,
)


# -- factored rank one at the paper's headline scale -------------------------


class FactoredWorkload:
    """Build ``RankOneForm`` from raw ints, then ``solve_rank_one``."""

    name = "rank1-factored"
    cli = False
    size = 50_000
    bound = 1000
    per_class = 3

    def build(self, seed: int, workdir: Path) -> list[Item]:
        seeds = instance_seeds(seed, 3)
        items = []
        for k in range(self.per_class):
            rng = bqp01.SplitMix64(next(seeds))
            vecs = [
                [rng.randint(-self.bound, self.bound) for _ in range(self.size)]
                for _ in range(4)
            ]
            c0 = rng.randint(-self.bound, self.bound)
            label = f"factored-{self.size}"
            items.append(Item(f"{label}/{k}", label, (*vecs, c0), None))
        return items

    def request(self, item: Item):
        form = bqp01.RankOneForm(*item.data)
        sol = bqp01.solve_rank_one(form)
        return ("solve_rank_one", sol.x, sol.y, sol.value)

    replay = request

    def reference(self, item: Item):
        a, b, c, d, c0 = item.data
        return Fraction(reference.rank_one_optimum(a, b, c, d, c0))

    def evaluate(self, item: Item, x, y):
        a, b, c, d, c0 = item.data

        def dot(v, bits):
            return sum(vi for vi, bit in zip(v, bits) if bit)

        return Fraction(dot(a, x) * dot(b, y) + dot(c, x) + dot(d, y) + c0)


# -- the command line on rational text files ---------------------------------


def _rational(rng, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 12))


def _token(value: Fraction, rng) -> str:
    """Exact text for a rational: a decimal when one exists and a coin says so."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    for k in range(1, 4):
        if 10**k % den == 0:
            if rng.randint(0, 1):
                digits = str(abs(num) * (10**k // den)).rjust(k + 1, "0")
                sign = "-" if num < 0 else ""
                return f"{sign}{digits[:-k]}.{digits[-k:]}"
            break
    return f"{num}/{den}"


def _cli_nonnegative(rng, m, n):
    return [[_rational(rng, 0, 60) for _ in range(n)] for _ in range(m)]


def _cli_additive(rng, m, n):
    a = [_rational(rng, -60, 60) for _ in range(m)]
    b = [_rational(rng, -60, 60) for _ in range(n)]
    return [[ai + bj for bj in b] for ai in a]


def _cli_rank_one(rng, m, n):
    a = [_rational(rng, -24, 24) for _ in range(m)]
    b = [_rational(rng, -24, 24) for _ in range(n)]
    return [[ai * bj for bj in b] for ai in a]


def _ref_cut_rank_one(q, c, d, c0):
    return ref_rank_one(*reference.cut_to_binary(q, c, d, c0))


class CliWorkload:
    """One ``python -m bqp01 solve FILE`` child process per request."""

    name = "cli-rational"
    cli = True
    per_class = 2
    classes = [
        ("nonnegative-100x100", "bqp01", _cli_nonnegative, 100, 100, ref_nonnegative),
        ("additive-200x200", "bqp01", _cli_additive, 200, 200, ref_additive),
        ("rank1-cut-80x100", "bqp11", _cli_rank_one, 80, 100, _ref_cut_rank_one),
    ]

    def __init__(self, src: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.deadline = deadline  # seconds; the child is killed past it

    def build(self, seed: int, workdir: Path) -> list[Item]:
        seeds = instance_seeds(seed, 4)
        workdir.mkdir(parents=True, exist_ok=True)
        groups = []
        for label, header, make_q, m, n, ref in self.classes:
            group = []
            for k in range(self.per_class):
                rng = bqp01.SplitMix64(next(seeds))
                q = make_q(rng, m, n)
                c = [_rational(rng, -60, 60) for _ in range(m)]
                d = [_rational(rng, -60, 60) for _ in range(n)]
                c0 = _rational(rng, -60, 60)
                lines = [header, f"{m} {n}", _token(c0, rng)]
                for row in (c, d, *q):
                    lines.append(" ".join(_token(v, rng) for v in row))
                text = "\n".join(lines) + "\n"
                path = workdir / f"{label}-{k}.bqp"
                path.write_text(text, encoding="utf-8")
                item = Item(f"{label}/{k}", label, (q, c, d, c0), ref)
                item.path = str(path)
                item.cut = header == "bqp11"
                group.append(item)
            groups.append(group)
        return interleave(groups)

    def request(self, item: Item):
        proc = subprocess.run(
            [sys.executable, "-m", "bqp01", "solve", item.path],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=self.deadline,
        )
        if proc.returncode == 2:
            return REFUSED
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()}")
        return parse_solve_output(proc.stdout)

    def replay(self, item: Item):
        with open(item.path, encoding="utf-8") as handle:
            inst = bqp01.parse_instance(handle.read())
        try:
            report = bqp01.dispatch_solve(inst)
        except bqp01.SolverRefusal:
            return REFUSED
        text = f"algorithm  {report.algorithm}\n" + bqp01.format_solution(report.solution)
        return parse_solve_output(text)

    def reference(self, item: Item):
        return item.reference(*item.data)

    def evaluate(self, item: Item, x, y):
        if item.cut:
            return evaluate_cut_objective(bqp01.CutInstance(*item.data), x, y)
        return evaluate_objective(bqp01.Instance(*item.data), x, y)


def _bits(text: str) -> tuple[int, ...]:
    return tuple(1 if ch == "+" else -1 if ch == "-" else int(ch) for ch in text)


def parse_solve_output(text: str):
    """(route, x, y, value) from the text that ``bqp01 solve`` prints."""
    fields = {}
    for line in text.splitlines():
        parts = line.split()
        if parts:
            fields[parts[0]] = parts[1:]
    return (
        fields["algorithm"][0],
        _bits(fields["x"][0]),
        _bits(fields["y"][0]),
        Fraction(fields["value"][0]),
    )


def check(workload, item: Item, outcome, expected) -> str | None:
    """Why ``outcome`` is wrong for ``item``, or None when it is right.

    A solution must report the objective value at its own point and equal
    the reference optimum; a refusal must be expected.
    """
    route, x, y, value = outcome
    if route == "refused" or item.refusal_expected:
        if route == "refused" and item.refusal_expected:
            return None
        return f"{item.key}: route {route}, refusal expected: {item.refusal_expected}"
    memo = (x, y, value)
    if memo not in item.checked:
        at_point = workload.evaluate(item, x, y)
        if at_point != value:
            item.checked[memo] = f"{item.key}: reports {value}, objective at its point is {at_point}"
        elif value != expected:
            item.checked[memo] = f"{item.key}: reports {value}, reference optimum is {expected}"
        else:
            item.checked[memo] = None
    return item.checked[memo]
