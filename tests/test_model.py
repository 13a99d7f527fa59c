import copy
import pickle
import random
from fractions import Fraction

import pytest

from bqp01 import (
    ALGORITHMS,
    BipartiteWeightedGraph,
    CutInstance,
    Instance,
    RankOneForm,
    dispatch_solve,
    evaluate_cut_objective,
    evaluate_objective,
    format_instance,
    min_negative_eliminator,
    normalize_orientation,
    parse_instance,
    parse_integer_instance,
    pkp_breakpoints,
    solve_additive,
    solve_enumeration,
    solve_fixed_rank,
    solve_nonnegative,
    solve_oracle,
    solve_rank_one,
    solve_with_eliminator,
    transpose_instance,
    ulp_breakpoints,
)
from bqp01 import model, rank_one
from bqp01.analysis import RankFactorization, bareiss, rank_factorize
from bqp01.fixed_rank import BasisStructure, enumerate_dual_feasible_bases
from bqp01.fixtures import sample_general, sample_rank_one
from bqp01.mincut import FlowNetwork, max_flow
from bqp01.model import (
    IntegerInstance,
    Record,
    Solution,
    _all_ints,
    _pair,
    _scale_pairs,
    as_fraction,
    clear_denominators,
    freeze_matrix,
    freeze_vector,
    integer_instance,
    replace,
)
from bqp01.rank_one import _integer_form as rank_one_integer_form
from bqp01.textio import _read
from bqp01.transforms import bqp01_to_cut, cut_to_bqp01

from conftest import random_instance


def _pairs(vectors):
    """Each vector's :func:`_pair`, its types scanned here: the pairing that
    ``clear_denominators`` once ran on vectors its callers had frozen."""
    return [_pair(vec, _all_ints(vec)) for vec in map(tuple, vectors)]


def test_coercion_to_exact_fractions():
    inst = Instance([["1/2", -2], [0.25, "3"]], [1, "-2.5"], [0, 2], "7/3")
    assert inst.q[0][0] == Fraction(1, 2)
    assert inst.q[1][0] == Fraction(1, 4)
    assert inst.c[1] == Fraction(-5, 2)
    assert inst.c0 == Fraction(7, 3)


def test_default_zero_linear_terms():
    inst = Instance([[1, 2]])
    assert inst.c == (Fraction(0),)
    assert inst.d == (Fraction(0), Fraction(0))
    assert inst.c0 == 0


@pytest.mark.parametrize(
    "bad",
    [
        dict(q=[[1], [2, 3]]),
        dict(q=[[]]),
        dict(q=[[1, 2]], c=[1, 2]),
        dict(q=[[1, 2]], d=[1]),
        dict(q=[[Fraction(1, 2), 2], [3]]),
        dict(q=[[1, 2], [True]]),
    ],
)
def test_invalid_shapes_rejected(bad):
    with pytest.raises(ValueError):
        Instance(**bad)


def test_evaluate_known_points():
    inst = sample_general()
    assert evaluate_objective(inst, (0, 1), (1, 1)) == 4
    assert evaluate_objective(inst, (0, 0), (0, 0)) == inst.c0
    rich = sample_rank_one()
    assert evaluate_objective(rich, (0, 0, 1, 0, 1), (1, 0, 1, 1, 1, 1, 0)) == 56


def test_evaluate_rejects_bad_assignments():
    inst = sample_general()
    with pytest.raises(ValueError):
        evaluate_objective(inst, (0,), (1, 1))
    with pytest.raises(ValueError):
        evaluate_objective(inst, (0, 2), (1, 1))


def test_evaluate_is_order_independent():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = [rng.randint(0, 1) for _ in range(inst.m)]
        y = [rng.randint(0, 1) for _ in range(inst.n)]
        expected = evaluate_objective(inst, x, y)
        # Summing the same terms in a shuffled order must give the identical
        # rational, not merely a close one.
        terms = [inst.c0]
        terms += [inst.q[i][j] for i in range(inst.m) for j in range(inst.n) if x[i] and y[j]]
        terms += [inst.c[i] for i in range(inst.m) if x[i]]
        terms += [inst.d[j] for j in range(inst.n) if y[j]]
        rng.shuffle(terms)
        assert sum(terms, Fraction(0)) == expected


def test_evaluate_integer_form_divides_by_its_scale():
    inst = Instance([[1, -2], [0, 3]], [Fraction(1, 3), 1], [Fraction(-1, 2), 2], Fraction(1, 6))
    work = inst.integer
    assert work.scale == 6
    assert evaluate_objective(work, (0, 1), (0, 1)) == Fraction(37, 6)
    cut = CutInstance(inst.q, inst.c, inst.d, inst.c0)
    for x in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        for y in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            assert evaluate_objective(work, x, y) == evaluate_objective(inst, x, y)
            signs = [2 * v - 1 for v in x], [2 * v - 1 for v in y]
            value = evaluate_objective(cut.integer, x, y)
            assert type(value) is Fraction and value == evaluate_cut_objective(cut, *signs)


def test_cut_evaluation_and_validation():
    cut = CutInstance([[2]], [1], [-1], 3)
    assert evaluate_cut_objective(cut, (1,), (-1,)) == -2 + 1 + 1 + 3
    with pytest.raises(ValueError):
        evaluate_cut_objective(cut, (0,), (1,))


def test_normalize_orientation_noop_when_wide():
    inst = random_instance(random.Random(1), 2, 3)
    same, flipped = normalize_orientation(inst)
    assert same is inst and flipped is False


def test_normalize_orientation_transposes_tall():
    rng = random.Random(2)
    inst = random_instance(rng, 3, 2)
    turned, flipped = normalize_orientation(inst)
    assert flipped is True
    assert (turned.m, turned.n) == (2, 3)
    for x in [(0, 1, 1), (1, 0, 0)]:
        for y in [(1, 0), (0, 1)]:
            assert evaluate_objective(inst, x, y) == evaluate_objective(turned, y, x)
    assert transpose_instance(turned) == inst


def test_graph_validation():
    g = BipartiteWeightedGraph(2, 2, ((0, 0, 2), (1, 1, -2)))
    assert g.total_weight() == 0
    assert g.weight_matrix()[0] == [2, 0]
    with pytest.raises(ValueError):
        BipartiteWeightedGraph(2, 2, ((0, 0, 1), (0, 0, 2)))
    with pytest.raises(ValueError):
        BipartiteWeightedGraph(2, 2, ((2, 0, 1),))


def test_instances_are_immutable_and_hashable():
    inst = sample_general()
    with pytest.raises(Exception):
        inst.c0 = Fraction(1)
    assert hash(inst) == hash(sample_general())


# --- coefficient types: ints stay ints, everything else becomes a Fraction ---

BIG = 2**60 + 1


def _frozen_values(obj):
    if isinstance(obj, RankOneForm):
        return (*obj.a, *obj.b, *obj.c, *obj.d)
    if isinstance(obj, FlowNetwork):
        return tuple(w for _, _, w in obj.arcs)
    return (*(v for row in obj.q for v in row), *obj.c, *obj.d)


INT_BUILT = [
    lambda: Instance([[1, -2], [BIG, 0]], [3, 4], [-5, 6], 7),
    lambda: Instance([[1, 2, 3]]),
    lambda: CutInstance([[1, -2], [BIG, 0]], [3, 4], [-5, 6], 7),
    lambda: RankOneForm([1, -2], [BIG, 0, 3], [3, 4], [-5, 6, 0], 7),
    lambda: FlowNetwork(3, 0, 2, ((0, 1, 5), (1, 2, BIG))),
]


@pytest.mark.parametrize("build", INT_BUILT)
def test_all_int_coefficients_stay_ints(build):
    assert all(type(v) is int for v in _frozen_values(build()))


@pytest.mark.parametrize(
    "raw, frozen",
    [(True, Fraction(1)), (False, Fraction(0)), ("2", Fraction(2)), ("1/3", Fraction(1, 3)),
     (0.25, Fraction(1, 4)), (Fraction(3), Fraction(3))],
)
def test_other_numbers_freeze_to_fractions(raw, frozen):
    built = [
        Instance([[raw]], [raw], [raw], raw),
        CutInstance([[raw]], [raw], [raw], raw),
        RankOneForm([raw], [raw], [raw], [raw], raw),
        FlowNetwork(2, 0, 1, ((0, 1, raw),)),
    ]
    for obj in built:
        values = _frozen_values(obj) + ((obj.c0,) if hasattr(obj, "c0") else ())
        assert all(type(v) is Fraction and v == frozen for v in values)
    # One int among them changes nothing for the others.
    mixed = Instance([[raw, 1]])
    assert type(mixed.q[0][0]) is Fraction and type(mixed.q[0][1]) is int


def test_int_and_fraction_built_instances_are_equal():
    q, c, d, c0 = [[1, -2], [BIG, 0]], [3, 4], [-5, 6], 7
    for cls in (Instance, CutInstance):
        ints = cls(q, c, d, c0)
        fracs = cls(
            [[Fraction(v) for v in row] for row in q], map(Fraction, c), map(Fraction, d), Fraction(c0)
        )
        assert ints == fracs and hash(ints) == hash(fracs)
        assert ints.integer == fracs.integer
        parsed = parse_instance(format_instance(ints))
        assert parsed == ints and hash(parsed) == hash(ints)
    vectors = ([1, 2], [3], [4, 5], [6])
    form = RankOneForm(*vectors, 7)
    twin = RankOneForm(*([Fraction(v) for v in vec] for vec in vectors), Fraction(7))
    assert form == twin and hash(form) == hash(twin)


def test_public_values_are_fractions_on_int_input():
    # Nonnegative, additive and rank one at once, so every solver applies.
    inst = Instance([[2, 2, 2], [2, 2, 2]], [-3, 1], [-1, -2, 0], 1)
    form = RankOneForm.from_instance(inst)
    values = [
        evaluate_objective(inst, (1, 0), (0, 1, 1)),
        evaluate_cut_objective(CutInstance(inst.q, inst.c, inst.d, 1), (1, -1), (-1, 1, 1)),
        form.evaluate((1, 0), (0, 1, 1)),
        RankOneForm([1], [2], [3], [4]).evaluate((1,), (1,)),
        *pkp_breakpoints(form).values,
        *ulp_breakpoints(form).values,
        max_flow(FlowNetwork(2, 0, 1, ((0, 1, 5),)))[0],
        solve_oracle(inst).value,
        solve_enumeration(inst).value,
        solve_fixed_rank(inst).value,
        solve_additive(inst).value,
        solve_nonnegative(inst).value,
        solve_with_eliminator(inst, min_negative_eliminator(inst.q)).value,
        solve_rank_one(form).value,
        *(dispatch_solve(inst, name).solution.value for name in ALGORITHMS),
        dispatch_solve(CutInstance(inst.q, inst.c, inst.d)).solution.value,
    ]
    assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize(
    "q, c, d, c0",
    [
        ([[1, -2], [BIG, 0]], [3, 4], [-5, 6], 7),
        ([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(BIG, 5), Fraction(0)]],
         [Fraction(3, 4), Fraction(1)], [Fraction(-5), Fraction(6, 7)], Fraction(7, 9)),
        ([[1, Fraction(-2, 3)], [BIG, 0]], [3, "0.25"], None, "1/6"),
        ([[True, 2], [False, -3]], [True, 0], [0, False], True),
        ([[1, -2], [BIG, 0]], [3, 4], [-5, 6], Fraction(1, 3)),
    ],
    ids=["int", "fraction", "mixed", "bool", "int-third-c0"],
)
def test_integer_reads_the_freezing_type_scan(q, c, d, c0):
    for cls in (Instance, CutInstance):
        inst = cls(q, c, d, c0)
        scanned = integer_instance(_pairs(((inst.c0,), inst.c, inst.d, *inst.q)), cls is CutInstance)
        assert inst.integer == scanned
        as_fractions = cls(
            [[Fraction(v) for v in row] for row in inst.q],
            [Fraction(v) for v in inst.c], [Fraction(v) for v in inst.d], inst.c0,
        )
        assert as_fractions == inst and hash(as_fractions) == hash(inst)
        assert as_fractions.integer == inst.integer
    # An int matrix keeps its rows unless a Fraction elsewhere scales them.
    inst = Instance(q, c, d, c0)
    assert (inst.integer.q[0] is inst.q[0]) == (q[0] == [1, -2] and c0 == 7)


# --- Record: the frozen-record base of every model class ---


class Point(Record):
    x: int
    y: int = 0


class Point3(Point):
    z: int = 5


def test_record_fields_come_from_annotations_base_first():
    assert Point3._fields == ("x", "y", "z")
    assert Instance._fields == CutInstance._fields == ("q", "c", "d", "c0")
    assert IntegerInstance._fields == ("q", "c", "d", "c0", "scale", "cut")
    assert Point3(1) == Point3(1, 0, 5) == Point3(z=5, x=1)
    assert Point3(1, z=7) == Point3(1, 0, 7)
    assert IntegerInstance(((1,),), (0,), (0,), 0, 1).cut is False
    assert RankFactorization(1, ((1,),), ((1,),)).denominator == 1
    assert Instance(q=[[1, 2]], c0="1/2") == Instance([[1, 2]], None, None, Fraction(1, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Solution((0,), (1,)), "missing arguments: value"),
        (lambda: Point3(), "missing arguments: x"),
        (lambda: Solution((0,), (1,), 1, 2), "takes 3 arguments but 4 were given"),
        (lambda: Solution((0,), (1,), value=1, z=2), "unexpected keyword argument 'z'"),
        (lambda: Solution((0,), (1,), 1, x=(1,)), "multiple values for argument 'x'"),
        (lambda: Instance([[1]], q=[[2]]), "multiple values for argument 'q'"),
    ],
    ids=["missing", "missing-first", "too-many", "unknown", "repeated", "repeated-frozen"],
)
def test_record_construction_errors(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_records_are_frozen():
    inst = Instance([[1, 2]])
    sol = Solution((0,), (1,), Fraction(1))
    for obj, name in [(inst, "c0"), (inst, "m"), (inst, "new"), (sol, "value"), (Point(1), "x")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert sol.value == 1 and inst.c0 == 0
    # __post_init__ freezing writes through object.__setattr__, and
    # cached_property keeps its value in the instance __dict__.
    assert inst.integer is inst.integer
    object.__setattr__(sol, "value", Fraction(2))
    assert sol.value == 2


def test_record_equality_needs_the_same_class():
    q, c, d = [[1, -2]], [3], [4, 5]
    assert Instance(q, c, d) == Instance(q, c, d)
    assert Instance(q, c, d) != CutInstance(q, c, d)
    assert Point(1, 2) != Point3(1, 2, 5) and Point(1, 2) != (1, 2)
    work = Instance(q, c, d).integer
    fresh = Instance(q, c, d).integer
    work.rank_at_most(1)  # cached facts are not fields
    assert work == fresh and hash(work) == hash(fresh)
    assert hash(Point(1, 2)) == hash((1, 2))
    assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2


def test_record_repr_lists_the_fields():
    assert repr(Solution((0, 1), (1,), Fraction(3, 2))) == (
        "Solution(x=(0, 1), y=(1,), value=Fraction(3, 2))"
    )
    assert repr(Instance([[1, 2]])) == "Instance(q=((1, 2),), c=(0,), d=(0, 0), c0=Fraction(0, 1))"
    assert repr(Point3(1)) == "Point3(x=1, y=0, z=5)"


def test_post_init_is_looked_up_on_the_class_at_call_time(monkeypatch):
    calls = []
    original = Instance.__post_init__

    def recording(self):
        calls.append(type(self).__name__)
        original(self)

    monkeypatch.setattr(Instance, "__post_init__", recording)
    assert Instance([[1, "1/2"]]).q == ((1, Fraction(1, 2)),)
    CutInstance([[1]])
    monkeypatch.setattr(Solution, "__post_init__", lambda self: calls.append("Solution"))
    Solution((0,), (1,), Fraction(0))
    assert calls == ["Instance", "Solution"]


def test_transpose_keeps_the_type_and_refreezes(monkeypatch):
    calls = []
    original = CutInstance.__post_init__
    monkeypatch.setattr(CutInstance, "__post_init__", lambda self: calls.append(original(self)))
    cut = CutInstance([[1, Fraction(1, 2)], [3, 4], [5, 6]], [1, 2, 3], [Fraction(1, 3), 0])
    turned = transpose_instance(cut)
    assert type(turned) is CutInstance and len(calls) == 2
    assert turned.q == ((1, 3, 5), (Fraction(1, 2), 4, 6)) and turned.c == cut.d
    # Freezing ran again, so the integer form reads the transposed vectors.
    assert turned.integer == CutInstance(turned.q, turned.c, turned.d).integer
    work = Instance([[1, 2], [3, 4], [5, 6]], [1, 2, 3], [4, 5]).integer
    flipped = transpose_instance(work)
    assert type(flipped) is IntegerInstance and flipped.scale == work.scale
    assert transpose_instance(flipped) == work
    assert replace(Point3(1), y=4) == Point3(1, 4, 5)
    with pytest.raises(TypeError, match="unexpected keyword argument 'w'"):
        replace(Point3(1), w=4)


@pytest.mark.parametrize(
    "obj",
    [
        Instance([[1, Fraction(1, 2)]], [3], [4, 5], "1/3"),
        CutInstance([[1, -2]]),
        Instance([[1, 2]]).integer,
        Solution((0, 1), (1,), Fraction(3, 2)),
        RankOneForm([1, 2], [3], [4, 5], [6]),
        BasisStructure((0,), (1,), (2,)),
    ],
    ids=lambda obj: type(obj).__name__,
)
def test_records_copy_and_pickle(obj):
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
        with pytest.raises(AttributeError):
            twin.x = 1
    if isinstance(obj, Instance):
        assert pickle.loads(pickle.dumps(obj)).integer == obj.integer


# --- one path from exact input to ints, against copies of the earlier code ---
#
# Each exact entry point once froze its input and then scanned its types
# again, and the 0-1 <-> {-1,+1} rewrites were two hand-written formulas.
# These copies of that code (with ``_pairs`` above) are the references.


def _binary_form(q, c, d, c0):
    row_sums = [sum(row) for row in q]
    col_sums = [sum(col) for col in zip(*q)]
    return (
        tuple(tuple(4 * v for v in row) for row in q),
        tuple(2 * (ci - s) for ci, s in zip(c, row_sums)),
        tuple(2 * (dj - s) for dj, s in zip(d, col_sums)),
        sum(row_sums) - sum(c) - sum(d) + c0,
    )


def _bqp01_to_cut(inst):
    m, n = inst.m, inst.n
    row_sums = [sum(row) for row in inst.q]
    col_sums = [sum(inst.q[i][j] for i in range(m)) for j in range(n)]
    q = tuple(tuple(Fraction(v, 4) for v in row) for row in inst.q)
    c = tuple(Fraction(row_sums[i], 4) + Fraction(inst.c[i], 2) for i in range(m))
    d = tuple(Fraction(col_sums[j], 4) + Fraction(inst.d[j], 2) for j in range(n))
    c0 = Fraction(sum(row_sums), 4) + Fraction(sum(inst.c), 2) + Fraction(sum(inst.d), 2) + inst.c0
    return CutInstance(q, c, d, c0)


def _integer_instance(rows, cut):
    ints, scale = _scale_pairs(rows)
    (c0,), c, d, *q = ints
    if cut:
        q, c, d, c0 = _binary_form(q, c, d, c0)
    return IntegerInstance(tuple(q), c, d, c0, scale, cut)


def _clear_denominators(vectors):
    """The earlier scaling, on vectors frozen first as its callers did."""
    return _scale_pairs(_pairs(map(freeze_vector, vectors)))


def _rank_factorize(matrix):
    q = freeze_matrix(matrix)
    rows, pivots, det = bareiss(_clear_denominators(q)[0])
    left = tuple(tuple(row[col] for col in pivots) for row in q)
    right = tuple(tuple(Fraction(v, det) for v in row) for row in rows[: len(pivots)])
    return RankFactorization(len(pivots), left, right)


def _form_integers(source):
    if not isinstance(source, RankOneForm):
        return rank_one_integer_form(source)
    vectors = source.a, source.b, source.c, source.d, (source.c0,)
    (a, b, c, d, (c0,)), k = _scale_pairs(_pairs(vectors))
    if k > 1:
        c, d, c0 = [k * x for x in c], [k * x for x in d], k * c0
    return a, b, c, d, c0, k, k


def _typed(value):
    """``value`` with the type of every container and leaf; a record by fields."""
    if isinstance(value, Record):
        return type(value), _typed(value._values())
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(_typed, value))
    return type(value), value


def _outcome(call, *args):
    try:
        return _typed(call(*args))
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


HUGE = 2**53 + 1
EXACT_INPUTS = {
    "ints": ([[1, -2, 0], [BIG, 0, 3]], [3, 4], [-5, 6, 0], 7),
    "fractions": (
        [[Fraction(1, 2), Fraction(-2, 3), Fraction(0)],
         [Fraction(BIG, 5), Fraction(0), Fraction(3)]],
        [Fraction(3, 4), Fraction(1)], [Fraction(-5), Fraction(6, 7), Fraction(2)], Fraction(7, 9),
    ),
    "decimal-strings": ([["0.5", "-2.25", "0"], ["1e3", "3", "-0.125"]], ["1.5", "2"],
                        ["0", "-3.75", "1/3"], "0.1"),
    "huge": ([[HUGE, -(2**60) - 3, 2**64], [Fraction(2**55 + 1, 3), 1, 0]],
             [HUGE + 1, Fraction(-(2**54) - 1, 7)], [2**61, 0, -1], HUGE),
    "zeros": ([[0, 0, 0], [0, 0, 0]], [0, 0], [0, 0, 0], 0),
    "zero-fractions": ([[Fraction(0)] * 3] * 2, [Fraction(0)] * 2, [Fraction(0)] * 3, Fraction(0)),
}


@pytest.mark.parametrize("coefficients", EXACT_INPUTS.values(), ids=EXACT_INPUTS)
def test_exact_entry_points_match_the_earlier_code(coefficients, monkeypatch):
    q, c, d, c0 = coefficients
    vectors = ([c0], c, d, *q)
    assert _typed(clear_denominators(vectors)) == _typed(_clear_denominators(vectors))
    for cls in (Instance, CutInstance):
        inst = cls(q, c, d, c0)
        frozen = ((inst.c0,), inst.c, inst.d, *inst.q)
        expected = _typed(_integer_instance(_pairs(frozen), cls is CutInstance))
        assert _typed(inst.integer) == expected
        text = format_instance(inst)
        header, rows = _read(text)
        parsed = _typed(parse_integer_instance(text))
        assert parsed == expected == _typed(_integer_instance(rows, header == "bqp11"))
    inst, cut = Instance(q, c, d, c0), CutInstance(q, c, d, c0)
    assert _typed(bqp01_to_cut(inst)) == _typed(_bqp01_to_cut(inst))
    assert _typed(cut_to_bqp01(cut)) == _typed(Instance(*_binary_form(cut.q, cut.c, cut.d, cut.c0)))
    for matrix in (q, list(zip(*q))):
        assert _outcome(rank_factorize, matrix) == _outcome(_rank_factorize, matrix)
    left, objective = list(zip(*q)), d
    scaled = (_clear_denominators(freeze_matrix(left))[0], _clear_denominators([objective])[0][0])
    assert _outcome(enumerate_dual_feasible_bases, left, objective) == _outcome(
        enumerate_dual_feasible_bases, *scaled
    )
    form = RankOneForm(q[0], c, q[1], c[::-1], c0)
    fields = (*map(freeze_vector, (q[0], c, q[1], c[::-1])), as_fraction(c0))
    assert _typed(form._values()) == _typed(fields)
    assert _typed(rank_one_integer_form(form)) == _typed(_form_integers(form))
    solved = _typed(solve_rank_one(form))
    monkeypatch.setattr(rank_one, "_integer_form", _form_integers)
    assert solved == _typed(solve_rank_one(form))


def test_each_input_vector_is_type_scanned_once(monkeypatch):
    calls = []
    real = model._all_ints

    def counted(vec):
        calls.append(len(vec))
        return real(vec)

    monkeypatch.setattr(model, "_all_ints", counted)
    solve_rank_one(RankOneForm([1, -2], [BIG, 0, 3], [3, Fraction(1, 2)], [-5, "6", 0], 7))
    assert calls == [2, 3, 2, 3]
    left = [[1, 2], [3, Fraction(1, 2)], [0, 5], [7, -1], [2, 2]]
    for call, args, scans in [
        (enumerate_dual_feasible_bases, (left, [1, -1, "2.5", 0, 3]), len(left) + 1),
        (rank_factorize, (left,), len(left)),
    ]:
        calls.clear()
        call(*args)
        assert len(calls) == scans
