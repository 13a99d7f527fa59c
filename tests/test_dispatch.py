import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy

import bqp01.analysis
import bqp01.cli
import bqp01.dispatch
import bqp01.enumeration
import bqp01.fixed_rank
import bqp01.model
from bqp01 import (
    ALGORITHMS,
    CrossValidationError,
    CutInstance,
    Instance,
    RankOneForm,
    Solution,
    SolverRefusal,
    analyze,
    bench,
    detect_additive,
    detect_nonnegative,
    dispatch_solve,
    evaluate_cut_objective,
    evaluate_objective,
    generate_instance,
    pkp_breakpoints,
    rank_factorize,
    solve_additive,
    solve_enumeration,
    solve_fixed_rank,
    solve_nonnegative,
    solve_oracle,
    solve_rank_one,
    ulp_breakpoints,
)
from bqp01.cli import main
from bqp01.fixtures import (
    sample_additive,
    sample_general,
    sample_nonnegative,
    sample_rank_one,
)
from bqp01.textio import format_instance, parse_instance, parse_integer_instance
from bqp01.transforms import cut_to_bqp01

from conftest import exhaustive_best, random_instance


def test_auto_routes_by_structure():
    cases = [
        (sample_rank_one(), "rank1", 56),
        (sample_nonnegative(), "mincut", 0),
        (sample_additive(), "additive", 4),
        # Any 2x2 matrix with q00 + q11 == q01 + q10 is additive too.
        (sample_general(), "additive", 4),
    ]
    for inst, expected_algorithm, expected_value in cases:
        report = dispatch_solve(inst)
        assert report.algorithm == expected_algorithm
        assert report.solution.value == expected_value


def test_auto_falls_back_to_enumeration_and_eliminator():
    dense = generate_instance("general", 7, 7, 17)  # full rank, not structured
    report = dispatch_solve(dense)
    assert report.algorithm == "enum"
    assert report.solution.value == dispatch_solve(dense, "oracle").solution.value

    sparse = generate_instance("sparse-negative2", 5, 5, 17)
    report = dispatch_solve(sparse, p_limit=1, enum_limit=2)
    assert report.algorithm == "eliminator"
    assert report.solution.value == dispatch_solve(sparse, "oracle").solution.value


def test_additive_detection_beats_rank():
    # Additive matrices also have rank <= 2; the cheaper scan wins.
    report = dispatch_solve(sample_additive())
    assert report.algorithm == "additive"


def test_every_named_algorithm_agrees():
    inst = sample_rank_one()
    values = {
        name: dispatch_solve(inst, name).solution.value
        for name in ("oracle", "enum", "rank1", "rankp", "eliminator")
    }
    assert set(values.values()) == {Fraction(56)}


def test_every_forced_route_reports_its_name_and_label(monkeypatch):
    # All-ones q: nonnegative, additive and rank one, so every route applies.
    inst = Instance([[1, 1], [1, 1]], [-1, 0], [0, -2])
    expected = {
        "auto": ("mincut", "nonnegative matrix"),
        "oracle": ("oracle", "exhaustive scan"),
        "enum": ("enum", "2 rows"),
        "rank1": ("rank1", "rank-one matrix"),
        "rankp": ("rankp", "rank-1 matrix"),
        "additive": ("additive", "additive matrix"),
        "mincut": ("mincut", "nonnegative matrix"),
        "eliminator": ("eliminator", "negative eliminator of size 0"),
    }
    assert set(expected) == set(ALGORITHMS)
    calls = []

    def counted(name):
        detector = getattr(bqp01.dispatch, name)

        def count(q):
            calls.append(name)
            return detector(q)

        return count

    for name in ("detect_additive", "min_negative_eliminator"):
        monkeypatch.setattr(bqp01.dispatch, name, counted(name))
    # Only its own route runs a detector: a forced name reads no condition.
    own = {"additive": ["detect_additive"], "eliminator": ["min_negative_eliminator"]}
    for algorithm in ALGORITHMS:
        calls.clear()
        report = dispatch_solve(inst, algorithm)
        assert (report.algorithm, report.detected) == expected[algorithm]
        assert report.solution.value == 1
        assert calls == own.get(algorithm, [])


def test_auto_never_beaten_by_oracle():
    rng = random.Random(101)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        report = dispatch_solve(inst)
        assert report.solution.value == exhaustive_best(inst)
        assert report.solution.value == evaluate_objective(
            inst, report.solution.x, report.solution.y
        )


def test_solution_reported_in_original_orientation():
    rng = random.Random(102)
    inst = random_instance(rng, 5, 2)  # taller than wide
    report = dispatch_solve(inst, "enum")
    assert len(report.solution.x) == 5 and len(report.solution.y) == 2
    assert evaluate_objective(inst, report.solution.x, report.solution.y) == \
        report.solution.value


def test_cut_instances_solved_in_sign_space():
    rng = random.Random(103)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        cut = CutInstance(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)],
            [rng.randint(-5, 5) for _ in range(m)],
            [rng.randint(-5, 5) for _ in range(n)],
            rng.randint(-3, 3),
        )
        report = dispatch_solve(cut, "oracle")
        best = max(
            evaluate_cut_objective(cut, x, y)
            for x in product((-1, 1), repeat=m)
            for y in product((-1, 1), repeat=n)
        )
        assert report.solution.value == best
        assert evaluate_cut_objective(cut, report.solution.x, report.solution.y) == best


def test_explicit_algorithm_precondition_failures():
    with pytest.raises(ValueError):
        dispatch_solve(sample_general(), "mincut")
    with pytest.raises(ValueError):
        dispatch_solve(sample_rank_one(), "additive")
    with pytest.raises(ValueError):
        dispatch_solve(sample_general(), "rank1")
    with pytest.raises(ValueError, match="unknown algorithm"):
        dispatch_solve(sample_general(), "magic")


def routes_that_apply(q):
    """Each route that applies to the m x n matrix q: mincut, additive and
    rank1 exactly where q has no negative entry, is additive, or has rank
    <= 1 by its 2x2 minors; rankp, enum and eliminator always."""
    m, n = len(q), len(q[0])
    minors = [(i, k, j, l) for i, k in combinations(range(m), 2) for j, l in combinations(range(n), 2)]
    return {
        "mincut": min(map(min, q)) >= 0,
        "additive": not any(q[i][j] + q[k][l] - q[i][l] - q[k][j] for i, k, j, l in minors),
        "rank1": not any(q[i][j] * q[k][l] - q[i][l] * q[k][j] for i, k, j, l in minors),
        "rankp": True,
        "enum": True,
        "eliminator": True,
    }


def check_every_route(inst, applies):
    """auto and every forced route that applies reach solve_oracle's value."""
    best = solve_oracle(inst).value
    auto = dispatch_solve(inst)
    assert auto.solution.value == best, inst
    # Forcing auto's route would run the same solver on the same facts.
    for route in [route for route, holds in applies.items() if holds and route != auto.algorithm]:
        assert dispatch_solve(inst, route).solution.value == best, (route, inst)


def check_refusals(q, applies):
    for route in [route for route, holds in applies.items() if not holds]:
        with pytest.raises(ValueError):
            dispatch_solve(Instance(q), route)


@pytest.mark.parametrize("m, n", [(2, 2), (1, 3), (3, 1)])
def test_every_route_on_every_small_instance(m, n):
    """Every m x n instance with q, c and d in {-1, 0, 1}: 6,561 at 2 x 2,
    2,187 at 1 x 3 and at 3 x 1.  auto and every forced route that applies
    reach solve_oracle's value, and mincut, additive and rank1 raise, on
    each matrix, exactly where it has a negative entry, is not additive,
    or has rank > 1 by its 2x2 minors.  Zero and repeated rows, where the
    detectors compare a row with an earlier one, are common at this scope."""
    for cells in product((-1, 0, 1), repeat=m * n):
        q = [cells[i * n:(i + 1) * n] for i in range(m)]
        applies = routes_that_apply(q)
        check_refusals(q, applies)
        for linear in product((-1, 0, 1), repeat=m + n):
            check_every_route(Instance(q, linear[:m], linear[m:]), applies)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2)])
def test_every_route_on_sampled_small_instances(m, n):
    """2,000 seeded m x n draws of q, c and d in {-1, 0, 1}, checked as in
    the exhaustive test above.  One draw in three has a zero row, a
    repeated row or c = 0 planted, so that about half of the draws (2 x 3)
    or more (3 x 2) have one: the rows where the rank <= 1 pass and the row
    pass compare a row with an earlier one, and the rank-one case the
    paper solves in O(n)."""
    rng = random.Random(10 * m + n)
    signs = (-1, 0, 1)
    special = 0
    for _ in range(2000):
        q = [[rng.choice(signs) for _ in range(n)] for _ in range(m)]
        c, d = [rng.choice(signs) for _ in range(m)], [rng.choice(signs) for _ in range(n)]
        plant = rng.randrange(9)
        if plant == 0:
            q[rng.randrange(m)] = [0] * n
        elif plant == 1:
            i, k = rng.sample(range(m), 2)
            q[k] = list(q[i])
        elif plant == 2:
            c = [0] * m
        special += [0] * n in q or len(set(map(tuple, q))) < m or not any(c)
        applies = routes_that_apply(q)
        check_refusals(q, applies)
        check_every_route(Instance(q, c, d), applies)
    assert special > 800


def test_refusal_carries_analysis_report():
    inst = generate_instance("general", 7, 7, 11)
    with pytest.raises(SolverRefusal) as err:
        dispatch_solve(inst, p_limit=2, enum_limit=3, eliminator_limit=1)
    report = err.value.report
    assert report is not None
    rank = sympy.Matrix(inst.q).rank()
    assert rank > 2
    assert ("rank", str(rank) if rank <= 6 else ">6") in report.lines()
    for setting in ("p_limit", "enum_limit", "eliminator_limit"):
        assert setting in str(err.value)
        assert "--" + setting.replace("_", "-") in str(err.value)


def test_bounded_rank_lines_print_the_exact_rank_without_a_stopped_elimination():
    report = analyze(generate_instance("general", 8, 9, 4))
    assert dict(report.lines())["rank"] == ">6"
    assert dict(analyze(generate_instance("rank3", 8, 9, 4)).lines())["rank"] == "3"


def test_analyze_reports_all_detectors():
    report = analyze(sample_rank_one())
    pairs = dict(report.lines())
    assert pairs["rank"] == "1"
    assert pairs["additive"] == "no"
    assert pairs["nonnegative"] == "no"
    assert int(pairs["eliminator-size"]) >= 1


def test_bench_checks_agreement():
    instances = [
        ("rich", sample_rank_one()),
        ("flat", sample_additive()),
    ]
    rows = bench(instances, ["oracle", "rankp", "auto"])
    assert len(rows) == 6
    by_name = {}
    for row in rows:
        by_name.setdefault(row.instance, set()).add(row.value)
    assert by_name == {"rich": {Fraction(56)}, "flat": {Fraction(4)}}


def test_bench_raises_on_disagreement(monkeypatch):
    real = bqp01.dispatch._solve

    def fake(found, algorithm, *args):
        report = real(found, algorithm, *args)
        if algorithm == "enum":
            wrong = Solution(report.solution.x, report.solution.y, report.solution.value + 1)
            return type(report)(wrong, report.algorithm, report.detected, report.wall_time)
        return report

    monkeypatch.setattr(bqp01.dispatch, "_solve", fake)
    with pytest.raises(CrossValidationError, match="disagree"):
        bench([("bad", sample_general())], ["oracle", "enum"])


def test_bench_analyzes_each_instance_once(monkeypatch):
    calls = []
    real = bqp01.dispatch.detect_additive

    def counted(q):
        calls.append(len(q))
        return real(q)

    monkeypatch.setattr(bqp01.dispatch, "detect_additive", counted)
    inst = generate_instance("additive", 30, 40, 1)
    rows = bench([("a", inst)], ["auto", "additive"])
    assert len(calls) == 1
    assert [row.algorithm for row in rows] == ["auto", "additive"]
    assert rows[0].value == rows[1].value == solve_additive(inst).value


def test_wall_time_covers_cut_form_conversion(monkeypatch):
    real = bqp01.model.substitute

    def slow(*coefficients):
        time.sleep(0.2)
        return real(*coefficients)

    monkeypatch.setattr(bqp01.model, "substitute", slow)
    report = dispatch_solve(CutInstance([[1, -2], [3, 0]], [1, 0], [0, 1], 0))
    assert report.wall_time >= 0.2


def test_wrong_solver_value_fails_the_post_condition(monkeypatch):
    real = bqp01.enumeration.solve_enumeration

    def wrong(inst, enum_limit):
        sol = real(inst, enum_limit)
        return Solution(sol.x, sol.y, sol.value + Fraction(1, 3))

    monkeypatch.setattr(bqp01.enumeration, "solve_enumeration", wrong)
    inst = generate_instance("general", 7, 7, 17)
    with pytest.raises(CrossValidationError, match="objective at its point"):
        dispatch_solve(inst)
    with pytest.raises(CrossValidationError):
        dispatch_solve(inst, "enum")


# --- command-line behavior -----------------------------------------------------


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.bqp"
    path.write_text(format_instance(sample_rank_one()), encoding="utf-8")
    return str(path)


def test_cli_solve(instance_file, capsys):
    assert main(["solve", instance_file]) == 0
    out = capsys.readouterr().out
    assert "algorithm" in out and "rank1" in out
    assert "value 56 56.0" in out
    assert "x 00101" in out


def test_cli_solve_kv_format(instance_file, capsys):
    assert main(["solve", instance_file, "--algorithm", "rankp", "--format", "kv"]) == 0
    out = capsys.readouterr().out
    assert "algorithm=rankp" in out


def test_cli_solve_dump_breakpoints(instance_file, capsys):
    assert main(["solve", instance_file, "--dump-breakpoints"]) == 0
    out = capsys.readouterr().out
    assert "# concave-x track" in out and "# convex-y track" in out
    assert "-5 11" in out and "3/4 59/4" in out


def test_cli_dump_breakpoints_of_a_rational_cut_file(tmp_path, capsys):
    a, b = [Fraction(1, 2), -3, 0], [Fraction(2, 3), Fraction(-5, 4), 1, 0]
    q = [[ai * bj for bj in b] for ai in a]
    cut = CutInstance(q, [Fraction(7, 5), 0, Fraction(-1, 6)], [1, Fraction(-3, 8), 0, 2], "1/9")
    text = format_instance(cut)
    path = tmp_path / "rational.bqp"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path), "--dump-breakpoints"]) == 0
    out = capsys.readouterr().out
    form = RankOneForm.from_instance(cut_to_bqp01(parse_instance(text)))
    expected = ""
    for label, track in (("concave-x", pkp_breakpoints(form)), ("convex-y", ulp_breakpoints(form))):
        expected += f"# {label} track: breakpoint value\n"
        expected += "".join(f"{t} {h}\n" for t, h in zip(track.breakpoints, track.values))
    assert out[out.index("# concave-x") :] == expected


def test_cli_dump_converts_and_eliminates_a_cut_file_once(tmp_path, capsys, monkeypatch, rank_work):
    plain, cut = tmp_path / "r1.bqp", tmp_path / "r1c.bqp"
    assert main(["gen", "--kind", "rank1", "-m", "30", "-n", "40", "--seed", "3",
                 "-o", str(plain)]) == 0
    assert main(["transform", str(plain), "--to", "cut"]) == 0
    cut.write_text(capsys.readouterr().out, encoding="utf-8")
    conversions = []
    real = bqp01.model.substitute

    def counted(*coefficients):
        conversions.append(len(coefficients[0]))
        return real(*coefficients)

    monkeypatch.setattr(bqp01.model, "substitute", counted)
    assert main(["solve", str(cut), "--dump-breakpoints"]) == 0
    assert "# convex-y track" in capsys.readouterr().out
    # One rank query, which the rank <= 1 pass finishes: nothing is eliminated.
    assert conversions == [30] and rank_work == [("rank one", 30, True)]


def test_cli_dump_breakpoints_refuses_rank_two_before_output(tmp_path, capsys):
    path = tmp_path / "rank2.bqp"
    path.write_text(format_instance(generate_instance("rank2", 4, 5, 1)), encoding="utf-8")
    assert main(["solve", str(path), "--dump-breakpoints"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "matrix has rank > 1, expected at most 1" in captured.err


def test_cli_analyze(instance_file, capsys):
    assert main(["analyze", instance_file, "--format", "kv"]) == 0
    out = capsys.readouterr().out
    assert "rank=1" in out and "nonnegative=no" in out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.bqp"
    path.write_text("bqp01\n2 2\n0\n1\n", encoding="utf-8")
    assert main(["solve", str(path)]) == 3
    assert "parse error" in capsys.readouterr().err


def test_cli_refusal_exit_code(tmp_path, capsys):
    inst = generate_instance("general", 7, 7, 13)
    path = tmp_path / "hard.bqp"
    path.write_text(format_instance(inst), encoding="utf-8")
    code = main(
        ["solve", str(path), "--p-limit", "2", "--enum-limit", "3",
         "--eliminator-limit", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "refused" in err and "rank=" in err


def test_forced_oracle_refuses_past_enum_limit(monkeypatch):
    inst = sample_rank_one()  # 5 x 7: the oracle scans 2^12 points

    def never(work):
        raise AssertionError("the oracle ran past its limit")

    monkeypatch.setattr(bqp01.enumeration, "solve_oracle", never)
    for run in (
        lambda: dispatch_solve(inst, "oracle", enum_limit=11),
        lambda: bench([("rich", inst)], ["auto", "oracle"], enum_limit=11),
    ):
        with pytest.raises(SolverRefusal, match="enum_limit 2\\^11.*--enum-limit"):
            run()
    monkeypatch.undo()
    assert dispatch_solve(inst, "oracle", enum_limit=12).solution.value == 56


def test_cli_forced_oracle_refusal_exit_code(instance_file, capsys, monkeypatch):
    monkeypatch.setattr(bqp01.enumeration, "solve_oracle", None)  # must not be called
    for argv in (
        ["solve", instance_file, "--algorithm", "oracle", "--enum-limit", "11"],
        ["bench", instance_file, "--algorithms", "auto,oracle", "--enum-limit", "11"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "refused" in captured.err
        assert "--enum-limit" in captured.err


def test_cli_gen_analyze_round_trip(tmp_path, capsys):
    path = tmp_path / "gen.bqp"
    assert main(["gen", "--kind", "additive", "-m", "3", "-n", "4",
                 "--seed", "5", "-o", str(path)]) == 0
    assert main(["analyze", str(path), "--format", "kv"]) == 0
    assert "additive=yes" in capsys.readouterr().out


def test_cli_gen_deterministic(capsys):
    assert main(["gen", "--kind", "rank1", "-m", "3", "-n", "3", "--seed", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--kind", "rank1", "-m", "3", "-n", "3", "--seed", "8"]) == 0
    assert capsys.readouterr().out == first


def test_cli_bench(instance_file, capsys):
    assert main(["bench", instance_file, "--algorithms", "oracle,rank1,rankp"]) == 0
    out = capsys.readouterr().out
    assert out.count("56") >= 3


def test_cli_bench_kv_format(instance_file, capsys):
    assert main(["bench", instance_file, "--algorithms", "oracle,rank1", "--format", "kv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" time=", 1)[0] for line in lines] == [
        f"instance={instance_file} algorithm={name} value=56" for name in ("oracle", "rank1")
    ]


def test_cli_bench_unknown_algorithm_exit_code(instance_file, capsys):
    assert main(["bench", instance_file, "--algorithms", "oracle,nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown algorithm 'nope'" in captured.err


@pytest.mark.parametrize("names", [",", " , ,", ""])
def test_cli_bench_without_algorithms_exit_code(instance_file, capsys, names):
    assert main(["bench", instance_file, "--algorithms", names]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--algorithms names no algorithm" in captured.err


def test_cli_bench_disagreement_exit_code(instance_file, capsys, monkeypatch):
    def fake(instances, algorithms, **kw):
        raise CrossValidationError("solvers disagree on demo")

    monkeypatch.setattr("bqp01.dispatch.bench", fake)
    assert main(["bench", instance_file, "--algorithms", "oracle,enum"]) == 4
    assert "cross-validation" in capsys.readouterr().err


def test_cli_transform_cut_round_trip(instance_file, capsys, tmp_path):
    assert main(["transform", instance_file, "--to", "cut"]) == 0
    cut_text = capsys.readouterr().out
    assert cut_text.startswith("bqp11")
    back = tmp_path / "cut.bqp"
    back.write_text(cut_text, encoding="utf-8")
    assert main(["transform", str(back), "--to", "cut"]) == 0
    binary_text = capsys.readouterr().out
    assert binary_text.startswith("bqp01")


def test_cli_transform_homogeneous(instance_file, capsys):
    assert main(["transform", instance_file, "--to", "homogeneous"]) == 0
    out = capsys.readouterr().out
    assert "bqp01" in out and out.splitlines()[2] == "6 8"


def test_cli_transform_qp01(instance_file, capsys):
    assert main(["transform", instance_file, "--to", "qp01"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "qp01" and lines[1] == "12"


@pytest.mark.parametrize("target", ["homogeneous", "qp01"])
def test_cli_transform_of_a_cut_file_needs_bqp01(target, instance_file, capsys, tmp_path):
    assert main(["transform", instance_file, "--to", "cut"]) == 0
    cut = tmp_path / "cut.bqp"
    cut.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["transform", str(cut), "--to", target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{target} transform expects a bqp01 instance" in captured.err


def test_cli_solve_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO(format_instance(sample_nonnegative()))
    )
    assert main(["solve", "-", "--format", "kv"]) == 0
    out = capsys.readouterr().out
    assert "algorithm=mincut" in out and "value 0 0.0" in out


def test_refusal_report_is_in_the_callers_orientation():
    inst = generate_instance("sparse-negative40", 40, 30, 1)
    with pytest.raises(SolverRefusal) as err:
        dispatch_solve(inst, enum_limit=10, eliminator_limit=5)
    pairs = dict(err.value.report.lines())
    assert (pairs["m"], pairs["n"]) == ("40", "30")
    rows = {int(i) for i in pairs["eliminator-rows"].split() if i != "-"}
    cols = {int(j) for j in pairs["eliminator-cols"].split() if j != "-"}
    assert len(rows) + len(cols) == int(pairs["eliminator-size"]) > 5
    # Deleting the listed rows and columns of the input leaves no negative entry.
    assert all(
        v >= 0
        for i, row in enumerate(inst.q) if i not in rows
        for j, v in enumerate(row) if j not in cols
    )


def test_refusal_names_the_shorter_side_for_enum():
    for (m, n), size in (((40, 30), 21), ((30, 40), 20)):
        inst = generate_instance("sparse-negative40", m, n, 1)
        with pytest.raises(SolverRefusal) as err:
            dispatch_solve(inst, enum_limit=10, eliminator_limit=5)
        assert str(err.value) == (
            "no solver applicable within limits: rank > p_limit 6, "
            f"min(m, n) 30 > enum_limit 10, eliminator {size} > eliminator_limit 5, "
            "matrix not nonnegative or additive; "
            "raise one of them (--p-limit, --enum-limit, --eliminator-limit)"
        )
        # The report bounds the rank where the default p_limit does.
        assert dict(err.value.report.lines())["rank"] == ">6"


def test_routes_eliminate_the_full_matrix_at_most_once(rank_work):
    cases = [
        (generate_instance("rank1", 7, 9, 1), {}, "rank1"),
        (generate_instance("rank1", 9, 7, 2), {}, "rank1"),
        (generate_instance("rank2", 8, 11, 3), {}, "rankp"),
        (generate_instance("rank3", 11, 8, 4), {}, "rankp"),
        (generate_instance("general", 6, 9, 5), dict(p_limit=2), "enum"),
        (generate_instance("sparse-negative5", 30, 30, 6), dict(p_limit=2, enum_limit=3),
         "eliminator"),
    ]
    for inst, limits, route in cases:
        rank, limit = rank_factorize(inst.q).p, limits.get("p_limit", 6)
        m = min(inst.m, inst.n)  # the shorter side is enumerated
        rank_work.clear()
        assert dispatch_solve(inst, **limits).algorithm == route
        # One query: the rank <= 1 pass finishes rank one.  Otherwise the row
        # pass reads every row and finishes its basis when the rank is within
        # p_limit, and reads limit + 1 rows when it is not.
        if rank <= 1:
            assert rank_work == [("rank one", m, True)]
        elif rank <= limit:
            assert rank_work == [("rank one", m, False), ("rows", m, m, rank)]
        else:
            assert rank_work == [("rank one", m, False), ("rows", limit + 1, m, None)]


def test_cli_refusal_prints_rank_bound_without_full_elimination(tmp_path, capsys, rank_work):
    path = tmp_path / "general.bqp"
    path.write_text(format_instance(generate_instance("general", 40, 40, 1)), encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "  rank=>6\n" in err
    # auto's query and the report's share one row pass over 7 of 40 rows.
    assert rank_work == [("rank one", 40, False), ("rows", 7, 40, None)]


@pytest.fixture
def rank_work(monkeypatch):
    """What the rank queries did, in order: ("rank one", rows, answered) for
    each rank <= 1 pass and ("rows", rows read, rows given, rank or None)
    for each row pass of ``analysis`` (rankp's basis inverses, bound at
    import, are not counted)."""
    work = []
    rank_one, row_reduce = bqp01.analysis._rank_one, bqp01.analysis._row_reduce

    def one_pass(matrix):
        found = rank_one(matrix)
        work.append(("rank one", len(matrix), found is not None))
        return found

    def row_pass(matrix, max_pivots=None):
        read = []

        def rows():
            for row in matrix:
                read.append(row)
                yield row

        found = row_reduce(rows(), max_pivots)
        work.append(("rows", len(read), len(matrix), None if found is None else len(found[1])))
        return found

    monkeypatch.setattr(bqp01.analysis, "_rank_one", one_pass)
    monkeypatch.setattr(bqp01.analysis, "_row_reduce", row_pass)
    return work


@pytest.mark.parametrize(
    "args, code, limit",
    [
        (["analyze", "--format", "kv"], 0, 6),
        (["solve", "--algorithm", "rankp"], 2, 6),
        (["solve", "--algorithm", "rank1"], 1, 1),
        (["solve", "--dump-breakpoints"], 1, 1),
    ],
    ids=["analyze", "rankp", "rank1", "dump-breakpoints"],
)
def test_cli_rank_queries_stop_the_elimination(args, code, limit, tmp_path, capsys, rank_work):
    path = tmp_path / "general.bqp"
    path.write_text(format_instance(generate_instance("general", 40, 40, 1)), encoding="utf-8")
    assert main([args[0], str(path), *args[1:]]) == code
    out = capsys.readouterr().out
    if args[0] == "analyze":
        assert "rank=>6\n" in out
    elif code == 1:
        assert out == ""
    # One query: its row pass reads limit + 1 of the 40 rows and stops
    # before finishing any.
    assert rank_work == [("rank one", 40, False), ("rows", limit + 1, 40, None)]


def test_forced_rankp_refusal_measures_the_rank_bound(rank_work):
    with pytest.raises(SolverRefusal) as err:
        dispatch_solve(generate_instance("general", 40, 40, 1), "rankp")
    assert (err.value.limit, err.value.measured) == (6, 7)
    assert "matrix rank > p_limit 6" in str(err.value)
    assert rank_work == [("rank one", 40, False), ("rows", 7, 40, None)]


# The README's solver table, in auto's order: the first rule that holds
# names the route, and an instance no rule accepts is refused.
ROUTE_RULES = [
    ("mincut", lambda found, rank, m, n, limits: found.nonnegative),
    ("additive", lambda found, rank, m, n, limits: found.additive),
    ("rank1", lambda found, rank, m, n, limits: rank <= 1),
    ("rankp", lambda found, rank, m, n, limits: rank <= limits["p_limit"]),
    ("enum", lambda found, rank, m, n, limits: min(m, n) <= limits["enum_limit"]),
    (
        "eliminator",
        lambda found, rank, m, n, limits: found.eliminator.size <= limits["eliminator_limit"],
    ),
]


def test_auto_takes_the_first_applicable_rule():
    kinds = ["nonnegative", "additive", "rank1", "rank2", "rank3",
             "sparse-negative2", "sparse-negative5", "general"]
    instances = [
        generate_instance(kind, m, n, seed)
        for seed, kind in enumerate(kinds)
        for m, n in ((5, 7), (8, 4), (3, 9))
    ]
    instances += [CutInstance(inst.q, inst.c, inst.d, inst.c0) for inst in instances[::3]]
    seen = set()
    for limits in (
        dict(p_limit=6, enum_limit=25, eliminator_limit=25),
        dict(p_limit=2, enum_limit=3, eliminator_limit=2),
    ):
        for inst in instances:
            found = analyze(inst)
            facts = dict(found.lines())
            m, n = int(facts["m"]), int(facts["n"])
            assert (m, n) == (inst.m, inst.n)
            rank = sympy.Matrix(inst.q).rank()  # the cut form's 0-1 matrix is 4q
            expected = next(
                (name for name, holds in ROUTE_RULES if holds(found, rank, m, n, limits)),
                "refused",
            )
            seen.add(expected)
            if expected == "refused":
                with pytest.raises(SolverRefusal):
                    dispatch_solve(inst, **limits)
            else:
                assert dispatch_solve(inst, **limits).algorithm == expected
    assert seen == {name for name, _ in ROUTE_RULES} | {"refused"}


def test_cut_form_analysis_equals_its_binary_rewrite():
    rng = random.Random(104)
    for _ in range(10):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        cut = CutInstance(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)],
            [rng.randint(-5, 5) for _ in range(m)],
            [rng.randint(-5, 5) for _ in range(n)],
            rng.randint(-3, 3),
        )
        assert analyze(cut).lines() == analyze(cut_to_bqp01(cut)).lines()


# --- cut form on ints, and the integer reader --------------------------------


def _quartered_cut(rng, kind, m, n):
    """A cut instance of ``kind`` with q in quarters: its 0-1 form 4q has a
    smaller common denominator than the cut form itself."""

    def quarter(lo, hi):
        return Fraction(rng.randint(lo, hi), 4)

    if kind == "nonnegative":
        q = [[quarter(0, 9) for _ in range(n)] for _ in range(m)]
    elif kind == "sparse-negative":
        q = [[quarter(0, 9) for _ in range(n)] for _ in range(m)]
        for _ in range(2):
            q[rng.randrange(m)][rng.randrange(n)] = quarter(-9, -1)
    elif kind == "additive":
        a, b = [quarter(-9, 9) for _ in range(m)], [quarter(-9, 9) for _ in range(n)]
        q = [[ai + bj for bj in b] for ai in a]
    elif kind.startswith("rank"):
        q = [[0] * n for _ in range(m)]
        for _ in range(int(kind[4:])):
            a, b = [rng.randint(-3, 3) for _ in range(m)], [quarter(-5, 5) for _ in range(n)]
            q = [[v + ai * bj for v, bj in zip(row, b)] for row, ai in zip(q, a)]
    else:
        q = [[quarter(-9, 9) for _ in range(n)] for _ in range(m)]
    return CutInstance(
        q,
        [Fraction(rng.randint(-9, 9), 2) for _ in range(m)],
        [Fraction(rng.randint(-9, 9), 2) for _ in range(n)],
        quarter(-9, 9),
    )


def _outcome(inst, algorithm, signs):
    """(solution in signs, algorithm, detected), or the exception's type and text."""
    try:
        report = dispatch_solve(inst, algorithm)
    except (ValueError, SolverRefusal) as exc:
        return type(exc), str(exc)
    x, y = report.solution.x, report.solution.y
    if signs:
        x, y = tuple(2 * v - 1 for v in x), tuple(2 * v - 1 for v in y)
    return Solution(x, y, report.solution.value), report.algorithm, report.detected


def test_cut_form_solves_equal_its_binary_rewrite_on_every_route():
    rng = random.Random(1103)
    larger_scale = 0
    for kind in ("nonnegative", "sparse-negative", "additive", "rank1", "rank2", "general"):
        for _ in range(8):
            cut = _quartered_cut(rng, kind, rng.randint(1, 6), rng.randint(1, 6))
            binary = cut_to_bqp01(cut)
            cut_scale, binary_scale = analyze(cut).work.scale, analyze(binary).work.scale
            assert cut_scale == cut.integer.scale and cut_scale % binary_scale == 0
            larger_scale += cut_scale > binary_scale
            for algorithm in ALGORITHMS:
                assert _outcome(cut, algorithm, False) == _outcome(binary, algorithm, True), (
                    kind, algorithm, cut,
                )
    assert larger_scale >= 24


def _cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    out = [line.split(" time=")[0] for line in captured.out.splitlines()]
    return code, [line for line in out if not line.startswith("time=")], captured.err


def test_cli_integer_reader_prints_what_the_rational_reader_prints(tmp_path, capsys, monkeypatch):
    rng = random.Random(1104)
    sparse = [[Fraction(v, rng.randint(1, 12)) for v in row]
              for row in generate_instance("sparse-negative2", 6, 5, 3).q]
    instances = [
        _quartered_cut(rng, "rank1", 4, 6),
        _quartered_cut(rng, "general", 3, 5),
        _quartered_cut(rng, "additive", 5, 4),
        generate_instance("nonnegative", 5, 6, 2),
        generate_instance("general", 7, 7, 13),
        Instance(sparse, ["0.5"] * 6, ["2.25"] * 5, "1/3"),
    ]
    paths = []
    for k, inst in enumerate(instances):
        path = tmp_path / f"inst{k}.bqp"
        path.write_text(format_instance(inst), encoding="utf-8")
        paths.append(str(path))
    commands = [["analyze", p, "--format", "kv"] for p in paths]
    commands += [["solve", p, "--format", "kv"] for p in paths]
    commands += [["solve", p, "--format", "kv", "--algorithm", "oracle"] for p in paths]
    limits = ["--p-limit", "2", "--enum-limit", "3", "--eliminator-limit", "1"]
    commands += [["solve", paths[4], *limits]]  # a refusal, with its report on stderr
    commands += [["bench", *paths, "--algorithms", "auto,oracle,enum", "--format", "kv"]]
    integer = [_cli(argv, capsys) for argv in commands]
    monkeypatch.setattr(bqp01.textio, "parse_integer_instance", parse_instance)
    rational = [_cli(argv, capsys) for argv in commands]
    assert integer == rational
    assert {code for code, _, _ in integer} == {0, 2}


def test_lower_level_solvers_read_cut_input_as_its_binary_rewrite():
    """A public solver given a cut instance, or its bqp11 text read either
    way, returns the cut optimum at the 0-1 point w = (s + 1) / 2."""
    rng = random.Random(1107)
    kinds = ("nonnegative", "sparse-negative", "additive", "rank1", "rank2", "general")
    for k in range(200):
        cut = _quartered_cut(rng, kinds[k % len(kinds)], rng.randint(1, 4), rng.randint(1, 4))
        best = dispatch_solve(cut).solution.value
        assert best == max(
            evaluate_cut_objective(cut, x, y)
            for x in product((-1, 1), repeat=cut.m)
            for y in product((-1, 1), repeat=cut.n)
        )
        text = format_instance(cut)
        for inst in (cut, parse_instance(text), parse_integer_instance(text)):
            solutions = [solve_oracle(inst), solve_enumeration(inst), solve_fixed_rank(inst)]
            # Structure of the 0-1 form 4q read off the cut form's q.
            if detect_nonnegative(cut.q):
                solutions.append(solve_nonnegative(inst))
            if detect_additive(cut.q) is not None:
                solutions.append(solve_additive(inst))
            if rank_factorize(cut.q).p <= 1:
                solutions.append(solve_rank_one(RankOneForm.from_instance(inst)))
            for sol in solutions:
                assert sol.value == best, (inst, sol)
                x, y = (tuple(2 * v - 1 for v in vec) for vec in (sol.x, sol.y))
                assert evaluate_cut_objective(cut, x, y) == best, (inst, sol)
