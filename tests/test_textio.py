import random
from fractions import Fraction

import pytest

from bqp01 import (
    CutInstance,
    Instance,
    ParseError,
    Solution,
    format_instance,
    format_solution,
    parse_instance,
    parse_rational,
)
from bqp01.fixtures import sample_general

from conftest import random_instance


SAMPLE_TEXT = """\
# tiny demonstration instance
bqp01
2 2
0
1 -1
0 2
1 -2
3 0
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE_TEXT)
    assert inst == sample_general()


def test_exact_number_grammar():
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-2.5") == Fraction(-5, 2)
    assert parse_rational("+4") == 4
    with pytest.raises(ParseError):
        parse_rational("nope")
    with pytest.raises(ParseError):
        parse_rational("1/0")


@pytest.mark.parametrize("token", ["1_0", "+7", "-0", "\u0663", "1e3", "0x10", "00", "12/4", "3.0"])
def test_integer_fast_path_accepts_what_fraction_accepts(token):
    try:
        expected = Fraction(token)
    except ValueError:
        with pytest.raises(ParseError):
            parse_rational(token)
        return
    assert parse_rational(token) == expected


def test_plain_integers_parse_as_ints():
    tokens = ("+7", "-0", "00", "\u0663", "1e3", "3.0", "12/4")
    assert [type(parse_rational(t)) for t in tokens] == [int] * 4 + [Fraction] * 3
    inst = parse_instance(SAMPLE_TEXT.replace("0 2", "0 5/2"))
    assert all(type(v) is int for row in inst.q for v in row + inst.c)
    assert inst.d == (0, Fraction(5, 2)) and type(inst.d[1]) is Fraction


def test_round_trip_is_stable():
    rng = random.Random(91)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        text = format_instance(inst)
        assert parse_instance(text) == inst
        assert format_instance(parse_instance(text)) == text


def test_round_trip_fractions_and_cut_form():
    cut = CutInstance([[Fraction(1, 3), -2]], [Fraction(-5, 2)], [1, "7/3"], "0.5")
    text = format_instance(cut)
    parsed = parse_instance(text)
    assert isinstance(parsed, CutInstance)
    assert parsed == cut


def test_truncated_matrix_row_names_the_row():
    text = "bqp01\n2 2\n0\n1 -1\n0 2\n1 -2\n3\n"
    with pytest.raises(ParseError, match="row 2"):
        parse_instance(text)


def test_missing_rows_reported():
    text = "bqp01\n2 2\n0\n1 -1\n0 2\n"
    with pytest.raises(ParseError, match="row 1"):
        parse_instance(text)


def test_bad_header():
    with pytest.raises(ParseError, match="bqp01 or bqp11"):
        parse_instance("qubo\n1 1\n0\n0\n0\n0\n")


def test_bad_dimensions():
    with pytest.raises(ParseError):
        parse_instance("bqp01\n0 2\n0\n\n1 1\n")
    with pytest.raises(ParseError, match="2 value"):
        parse_instance("bqp01\n3\n0\n1 1 1\n1\n1\n1\n1\n")
    with pytest.raises(ParseError, match="line 2: bad dimensions"):
        parse_instance("bqp01\n1 x\n0\n1\n1\n1\n")


def test_trailing_content_rejected():
    text = SAMPLE_TEXT + "99\n"
    with pytest.raises(ParseError, match="trailing"):
        parse_instance(text)


def test_error_carries_line_number():
    text = "bqp01\n1 1\n0\n1\nx\n1\n"
    with pytest.raises(ParseError, match="line 5"):
        parse_instance(text)


def test_empty_input():
    with pytest.raises(ParseError, match="empty"):
        parse_instance("# only a comment\n")


def test_comments_and_blank_lines_ignored():
    text = "\n# header\nbqp01\n\n1 1  # dims\n0\n# c\n1\n2\n3\n\n"
    inst = parse_instance(text)
    assert inst.q == ((Fraction(3),),)
    assert inst.c == (Fraction(1),) and inst.d == (Fraction(2),)


def test_solution_formatting():
    sol = Solution((1, 0), (0, 1, 1), Fraction(7, 2))
    assert format_solution(sol) == "value 7/2 3.5\nx 10\ny 011\n"
    cut_sol = Solution((1, -1), (-1, 1), Fraction(3))
    assert format_solution(cut_sol) == "value 3 3.0\nx +-\ny -+\n"


def test_solution_formatting_huge_value():
    sol = Solution((1,), (1,), Fraction(10 ** 400))
    assert "overflow" in format_solution(sol)
