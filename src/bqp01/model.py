"""Data model for bipartite unconstrained 0-1 quadratic programs.

An instance is the coefficient tuple (Q, c, d, c0) of the objective

    f(x, y) = x^T Q y + c.x + d.y + c0

maximized over binary vectors x (length m) and y (length n).  Every
coefficient is an exact rational, held as an ``int`` when it was given as
one and as a ``fractions.Fraction`` otherwise; no operation in this package
rounds.  The constant c0 is always a Fraction, so objective values computed
from an instance are Fractions.  Instances are immutable, so they are safe
to share between threads and to use as dictionary keys; an int-built
instance equals, and hashes like, the same instance built from Fractions.

Exact input reaches ints by one path.  ``_frozen`` freezes a vector and
scans its entry types once; records keep those all-int flags for
``_scale_pairs``, the one scaling step (behind ``Instance.integer``,
``RankOneForm``, ``clear_denominators`` and ``parse_integer_instance``).
An :class:`IntegerInstance` has the original objective times a positive
``scale``: every argmax and tie is kept, so solvers compare ints and
divide by ``scale`` only in ``Solution.value``.  Its coefficients are
always 0-1 ones: :func:`substitute`, the one change of variables,
rewrites a {-1,+1} cut form where it is made.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import countOf, floordiv, mul

Numeric = int | str | float | Fraction


class Record:
    """Base of the package's frozen records: fields from class annotations.

    A subclass's fields are its base's, then the names it annotates, in
    order; a value in the class body is that field's default.  ``__init__``
    takes the fields by position or keyword, stores them in the instance
    ``__dict__`` and then calls ``__post_init__``, looked up on the class
    at call time.  Assigning or deleting an attribute raises
    AttributeError, so a ``__post_init__`` that normalises a field writes
    it with ``object.__setattr__``; ``cached_property`` writes the
    ``__dict__`` itself and works as usual.  Records of the same class are
    equal, and hash alike, when their field tuples are.  Nothing is
    generated per class, so defining one costs no more than a plain class.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        body = vars(cls)
        cls._defaults = {**cls._defaults, **{name: body[name] for name in own if name in body}}
        cls._fields = (*cls._fields, *own)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            self.__dict__.update(self._bind(args, kwargs))
        else:
            self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """Field name -> value from the call's arguments and the defaults."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = {**cls._defaults, **dict(zip(fields, args))}
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        if len(values) < len(fields):
            missing = [key for key in fields if key not in values]
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return values

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(pairs)})"


def replace(record: Record, **changes) -> Record:
    """A record of the same class with the named fields changed; the class's
    ``__post_init__`` runs again."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


def as_fraction(value: Numeric) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts ints, Fractions, exact decimal strings like ``-2.5``, and
    rational strings like ``7/3``.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _all_ints(vec: tuple) -> bool:
    """Whether every value's type is int (so no bool): one C-level count."""
    return countOf(map(type, vec), int) == len(vec)


def _scale_pairs(rows) -> tuple[list[tuple[int, ...]], int]:
    """Rows of (numerators, denominators or None for ints) scaled to ints.

    Returns (the rows times k, k) with k the least common denominator: the
    values are scaled by the lcm S of the denominators, which need not be
    in lowest terms, then S and the values are divided by their gcd.  At
    k = 1 the numerator rows are returned as they are, not copied.
    """
    dens = {den for _, row_dens in rows if row_dens for den in row_dens}
    ints = [nums for nums, _ in rows]
    scale = lcm(*dens)
    if scale > 1:
        factor = {den: scale // den for den in dens}.__getitem__
        ints = [
            tuple(map(mul, nums, repeat(scale) if row_dens is None else map(factor, row_dens)))
            for nums, row_dens in rows
        ]
        common = gcd(scale, *chain.from_iterable(ints))
        if common > 1:
            scale //= common
            ints = [tuple(map(floordiv, row, repeat(common))) for row in ints]
    return ints, scale


def _pair(vec: tuple, all_int: bool):
    """(vec, None) for a vector of ints, else (numerators, denominators)."""
    if all_int:
        return vec, None
    return tuple(v.numerator for v in vec), tuple(v.denominator for v in vec)


def clear_denominators(vectors: Sequence[Sequence[Numeric]]) -> tuple[list[tuple[int, ...]], int]:
    """Scale vectors of exact numbers to integers by one common factor k.

    Returns ([tuple(k * v for v in vector) ...], k) with k the least
    positive integer making every value integral (the lcm of the
    denominators).  Each vector is frozen, and its types scanned, once;
    when k is 1 all-int vectors are returned as they are (as tuples).
    """
    return _scale_pairs([_pair(*_frozen(vec)) for vec in vectors])


def substitute(q, c, d, c0, alpha, beta):
    """Coefficients of f(alpha u + beta, alpha v + beta) in (u, v), in the
    arithmetic of the inputs: q' = alpha^2 q, c'_i = alpha (c_i + beta
    sum_j q_ij), d'_j likewise and c0' = beta (beta sum q + sum c + sum d)
    + c0.  (2, -1) gives a cut form's 0-1 form, f(w, z) = cut(2w - 1,
    2z - 1), and (1/2, 1/2) inverts it."""
    row_sums = [sum(row) for row in q]
    col_sums = [sum(col) for col in zip(*q)]
    square = alpha * alpha
    return (
        tuple(tuple(map(mul, row, repeat(square))) for row in q),
        tuple(alpha * (ci + beta * s) for ci, s in zip(c, row_sums)),
        tuple(alpha * (dj + beta * s) for dj, s in zip(d, col_sums)),
        beta * (beta * sum(row_sums) + sum(c) + sum(d)) + c0,
    )


def _freeze(value: Numeric) -> int | Fraction:
    return value if type(value) is int else as_fraction(value)


def _frozen(values: Sequence[Numeric]) -> tuple[tuple[int | Fraction, ...], bool]:
    """(:func:`freeze_vector` of values, whether they were all ints)."""
    out = tuple(values)
    if _all_ints(out):
        return out, True
    return tuple(map(_freeze, out)), False


def freeze_vector(values: Sequence[Numeric]) -> tuple[int | Fraction, ...]:
    """Values as a tuple: ints (not bools) kept, anything else a Fraction."""
    return _frozen(values)[0]


def _freeze_rows(rows: Sequence[Sequence[Numeric]]):
    """(:func:`freeze_matrix` of rows, each row's all-int flag)."""
    out, flags = tuple(zip(*map(_frozen, rows))) or ((), ())
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("matrix rows have inconsistent lengths")
    return out, flags


def freeze_matrix(rows: Sequence[Sequence[Numeric]]) -> tuple[tuple[int | Fraction, ...], ...]:
    return _freeze_rows(rows)[0]


def _coerce_fields(obj) -> None:
    """Freeze the fields, keeping each vector's all-int flag for ``integer``."""
    q, q_ints = _freeze_rows(obj.q)
    if not q or not q[0]:
        raise ValueError("matrix must have at least one row and one column")
    m, n = len(q), len(q[0])
    c, c_int = _frozen(obj.c) if obj.c is not None else ((0,) * m, True)
    d, d_int = _frozen(obj.d) if obj.d is not None else ((0,) * n, True)
    if len(c) != m:
        raise ValueError(f"c has length {len(c)}, expected {m}")
    if len(d) != n:
        raise ValueError(f"d has length {len(d)}, expected {n}")
    object.__setattr__(obj, "q", q)
    object.__setattr__(obj, "c", c)
    object.__setattr__(obj, "d", d)
    object.__setattr__(obj, "c0", as_fraction(obj.c0))
    object.__setattr__(obj, "_int_vectors", (c_int, d_int, *q_ints))


class _Shape(Record):
    """m x n shape of the coefficient matrix ``q``."""

    @property
    def m(self) -> int:
        return len(self.q)

    @property
    def n(self) -> int:
        return len(self.q[0])


class IntegerInstance(_Shape):
    """(q, c, d, c0) of an instance times the positive integer ``scale``.

    Every coefficient is a Python int, so the original objective value at
    a point is ``Fraction(self.objective(x, y), self.scale)``.  Solvers
    accept this form wherever they accept an :class:`Instance`.

    The coefficients are the 0-1 ones the solvers read.  ``cut`` marks an
    instance made from the {-1,+1} cut form (``CutInstance.integer``, or
    ``parse_integer_instance`` of a bqp11 file) by ``substitute``, at the
    cut form's scale; ``dispatch_solve`` reports its points as signs.
    """

    q: tuple[tuple[int, ...], ...]
    c: tuple[int, ...]
    d: tuple[int, ...]
    c0: int
    scale: int
    cut: bool = False

    @property
    def integer(self) -> "IntegerInstance":
        return self

    def rank_at_most(self, limit: int):
        """The integer rank factorization of q if rank(q) <= limit, else None.

        A query reads only as far as its answer needs: the rows up to the
        (limit + 1)-th independent one prove the rank larger, so
        ``rank_at_most(min(m, n)).p`` is the exact rank.  One record keeps
        what the queries proved: the finished factorization, or the
        largest limit shown to be exceeded.  A limit that record answers
        reads no row.
        """
        record = self.__dict__.get("_rank", -1)  # an int k: rank(q) > k is proved
        if isinstance(record, int) and limit > record:
            record = self.__dict__["_rank"] = self._factorize(limit + 1, record < 1) or limit
        if isinstance(record, int) or record.p > limit:
            return None
        return record

    @cached_property
    def nonnegative(self) -> bool:
        """Whether every entry of q is >= 0: one scan, read by dispatch and min cut."""
        from .analysis import detect_nonnegative  # analysis imports model

        return detect_nonnegative(self.q)

    def _factorize(self, max_pivots: int, rank_one: bool):
        """The factorization, or None once ``max_pivots`` independent rows are found.

        If ``rank_one`` (no earlier query proved rank > 1), the rank <= 1
        pass answers first, finished whatever the limit.  Otherwise the
        row pass collects the independent rows in order, and only those few
        are eliminated: they span q's row space, so the pivot columns, p
        and the RREF are q's own.
        """
        # analysis imports model
        from .analysis import RankFactorization, _eliminate, _rank_one, _row_basis

        found = _rank_one(self.q) if rank_one else None
        if found is None:
            basis = _row_basis(self.q, max_pivots)
            if basis is None:
                return None
            found = _eliminate(basis)
        rows, pivots, det = found
        left = tuple(tuple(row[col] for col in pivots) for row in self.q)
        return RankFactorization(len(pivots), left, tuple(map(tuple, rows)), det)

    def objective(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Scale times the original objective at the 0-1 point (x, y).

        Sums the chosen entries with ``compress``; points are 0-1 here even
        for a cut-form instance, whose signs are mapped after the check.
        """
        return (self.c0 + sum(compress(self.d, y)) + sum(compress(self.c, x))
                + sum(sum(compress(row, y)) for row in compress(self.q, x)))


def integer_instance(rows, cut: bool) -> IntegerInstance:
    """The IntegerInstance of the pair rows (c0,), c, d, q_1 ... q_m of
    :func:`_scale_pairs`, taken to 0-1 form by :func:`substitute` if ``cut``."""
    ints, scale = _scale_pairs(rows)
    (c0,), c, d, *q = ints
    if cut:
        q, c, d, c0 = substitute(q, c, d, c0, 2, -1)
    return IntegerInstance(tuple(q), c, d, c0, scale, cut)


class _Rational(_Shape):
    """Exact coefficients, each an int or a Fraction, and c0 a Fraction.

    ``integer`` is built on first use; for an all-int :class:`Instance`
    it shares the rows of ``q``.  It reads which vectors were all ints
    from the freezing, so no entry's type is checked twice.
    """

    q: tuple[tuple[int | Fraction, ...], ...]
    c: tuple[int | Fraction, ...] | None = None
    d: tuple[int | Fraction, ...] | None = None
    c0: Fraction = Fraction(0)

    @cached_property
    def integer(self) -> IntegerInstance:
        vectors = ((self.c0,), self.c, self.d, *self.q)
        rows = list(map(_pair, vectors, (False, *self._int_vectors)))
        return integer_instance(rows, isinstance(self, CutInstance))


class Instance(_Rational):
    """A BQP01 instance: maximize x^T Q y + c.x + d.y + c0 over binary x, y."""

    def __post_init__(self) -> None:
        _coerce_fields(self)


class CutInstance(_Rational):
    """Same coefficient shape as :class:`Instance`, variables in {-1, +1}."""

    def __post_init__(self) -> None:
        _coerce_fields(self)

    def is_homogeneous(self) -> bool:
        return not any(self.c) and not any(self.d) and self.c0 == 0


class Solution(Record):
    """A feasible point and its exact objective value."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    value: Fraction


class BipartiteWeightedGraph(Record):
    """Edge-weighted bipartite graph on left part {0..m-1}, right part {0..n-1}."""

    m: int
    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("graph parts must be nonempty")
        edges = tuple((i, j, as_fraction(w)) for (i, j, w) in self.edges)
        seen = set()
        for i, j, _ in edges:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        object.__setattr__(self, "edges", edges)

    def total_weight(self) -> Fraction:
        return sum((w for _, _, w in self.edges), Fraction(0))

    def weight_matrix(self) -> list[list[Fraction]]:
        """Dense m x n weight matrix with 0 for absent edges."""
        mat = [[Fraction(0)] * self.n for _ in range(self.m)]
        for i, j, w in self.edges:
            mat[i][j] = w
        return mat


def _check_assignment(vec: Sequence[int], size: int, allowed: tuple[int, int], label: str) -> None:
    if len(vec) != size:
        raise ValueError(f"{label} has length {len(vec)}, expected {size}")
    for v in vec:
        if v not in allowed:
            raise ValueError(f"{label} entries must be in {allowed}, got {v!r}")


def _bilinear_value(q, c, d, c0, x, y):
    """x^T q y + c.x + d.y + c0, exact in the coefficients' own arithmetic."""
    cols = [j for j, v in enumerate(y) if v]
    total = c0 + sum(d[j] * y[j] for j in cols)
    for row, ci, xi in zip(q, c, x):
        if xi:
            total += xi * (ci + sum(row[j] * y[j] for j in cols))
    return total


def evaluate_objective(inst, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """Exact objective value of ``inst`` at the binary point (x, y).  An
    :class:`IntegerInstance` gives its source's, dividing by ``scale``: for
    a ``cut`` one, the cut value at (2x - 1, 2y - 1)."""
    _check_assignment(x, inst.m, (0, 1), "x")
    _check_assignment(y, inst.n, (0, 1), "y")
    value = _bilinear_value(inst.q, inst.c, inst.d, inst.c0, x, y)
    return Fraction(value, inst.scale) if isinstance(inst, IntegerInstance) else value


def evaluate_cut_objective(cut: CutInstance, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """Exact objective value of ``cut`` at the sign point (x, y) in {-1,+1}."""
    _check_assignment(x, cut.m, (-1, 1), "x")
    _check_assignment(y, cut.n, (-1, 1), "y")
    return _bilinear_value(cut.q, cut.c, cut.d, cut.c0, x, y)


def transpose_instance(inst: Instance | IntegerInstance):
    """Swap the roles of x and y: transpose Q and exchange c with d.

    Works on either form and returns the same form.
    """
    return replace(inst, q=tuple(zip(*inst.q)), c=inst.d, d=inst.c)


def normalize_orientation(inst: Instance | IntegerInstance):
    """Return an equivalent instance with m <= n, plus a transposed flag.

    When the flag is True the instance was transposed, and a solution
    (x, y) of the result corresponds to (y, x) of the input with the same
    objective value.
    """
    if inst.m <= inst.n:
        return inst, False
    return transpose_instance(inst), True
