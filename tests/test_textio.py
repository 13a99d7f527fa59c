import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bqp01 import (
    CutInstance,
    Instance,
    ParseError,
    Solution,
    format_instance,
    format_solution,
    parse_instance,
    parse_integer_instance,
)
from bqp01.fixtures import sample_general
from bqp01.textio import _ratio

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


def _c0_file(token: str) -> str:
    """A 1 x 1 instance whose constant c0 (line 3) is ``token``."""
    return f"bqp01\n1 1\n{token}\n0\n0\n0\n"


def test_exact_number_grammar():
    assert _ratio("7/3") == (7, 3)
    assert Fraction(*_ratio("-2.5")) == Fraction(-5, 2)
    assert _ratio("+4") == (4, 1)
    assert parse_instance(_c0_file("-2.5")).c0 == Fraction(-5, 2)
    for bad in ("nope", "1/0"):
        with pytest.raises(ParseError):
            _ratio(bad)
        with pytest.raises(ParseError, match="line 3"):
            parse_instance(_c0_file(bad))


@pytest.mark.parametrize("token", ["1_0", "+7", "-0", "\u0663", "1e3", "0x10", "00", "12/4", "3.0"])
def test_integer_fast_path_accepts_what_fraction_accepts(token):
    try:
        expected = Fraction(token)
    except ValueError:
        with pytest.raises(ParseError):
            _ratio(token)
        return
    assert Fraction(*_ratio(token)) == expected


def test_plain_integers_parse_as_ints():
    # Only a token written with '/' or '.' gives a Fraction; "1e3" is 1000.
    tokens = ("+7", "-0", "00", "\u0663", "1e3", "3.0", "12/4")
    inst = parse_instance(f"bqp01\n7 1\n0\n{' '.join(tokens)}\n0\n" + "0\n" * 7)
    assert [type(v) for v in inst.c] == [int] * 5 + [Fraction] * 2
    assert inst.c == (7, 0, 0, 3, 1000, 3, 3)
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


@pytest.mark.parametrize("header", ["bqp01", "bqp11"])
def test_format_refuses_an_integer_instance(header):
    # Written as bqp11 with its 0-1 coefficients, the scaled form of this
    # 1 x 2 bqp01 file would re-read with optimum 3 instead of 2.
    text = f"{header}\n1 2\n0\n1\n0 0\n1 -1\n"
    with pytest.raises(TypeError, match="IntegerInstance"):
        format_instance(parse_integer_instance(text))
    with pytest.raises(TypeError, match="IntegerInstance"):
        format_instance(parse_instance(text).integer)
    assert format_instance(parse_instance(text)) == text


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


def test_solution_prints_both_vectors_as_signs_or_neither():
    # bqp11 / 1 2 / 0 / 1 / 1 -5 / 1 1 is solved at x = (1,), y = (1, -1).
    assert format_solution(Solution((1,), (1, -1), 7)) == "value 7 7.0\nx +\ny +-\n"
    assert format_solution(Solution((-1, 1), (1,), 2)) == "value 2 2.0\nx -+\ny +\n"
    assert format_solution(Solution((1,), (1, 1), 0)) == "value 0 0.0\nx 1\ny 11\n"


def test_solution_formatting_huge_value():
    sol = Solution((1,), (1,), Fraction(10 ** 400))
    assert "overflow" in format_solution(sol)


# --- the integer reader ---------------------------------------------------------

TOKEN_CHARS = "0123456789+-./eE_\u0663"
NEAR_NUMBERS = st.from_regex(
    r"[+-]?[0-9_\u0663]{0,4}([./][0-9_\u0663+-]{0,4})?([eE][+-]?[0-9_]{0,3})?", fullmatch=True
)


def _check_token(token):
    """_ratio, and parse_instance on a file holding the token, accept exactly
    what Fraction accepts, with its value, and reject the rest with
    Fraction's message."""
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ParseError) as info:
            _ratio(token, 3)
        assert str(info.value) == str(ParseError(f"bad number {token!r} ({exc})", 3))
        assert info.value.line == 3
        if token:
            with pytest.raises(ParseError) as parsed:
                parse_instance(_c0_file(token))
            assert str(parsed.value) == str(info.value) and parsed.value.line == 3
        return
    num, den = _ratio(token)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == expected
    assert parse_instance(_c0_file(token)).c0 == expected


def test_tokenizer_on_every_short_token():
    for size in range(5):
        for chars in product(TOKEN_CHARS, repeat=size):
            _check_token("".join(chars))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(TOKEN_CHARS, min_size=5, max_size=9) | NEAR_NUMBERS)
@example("-.5")
@example("1/-2")
@example("1/+2")
@example("1_0/3")
@example("\u0663/\u0663")
@example("-12.50e-1")
def test_tokenizer_accepts_exactly_what_fraction_accepts(token):
    _check_token(token)


def _token(rng, value: Fraction) -> str:
    """Some exact spelling of value: p/q, possibly unreduced, a decimal,
    an exponent or a plain int, with an optional '+' sign."""
    num, den = value.numerator, value.denominator
    k = rng.randint(1, 3)
    forms = [f"{num * k}/{den * k}"]
    if den == 1:
        forms += [str(num), f"{num}.0", f"{num}e0"]
    for digits in range(1, 4):
        if 10**digits % den == 0:
            text = str(abs(num) * (10**digits // den)).rjust(digits + 1, "0")
            forms.append(f"{'-' if num < 0 else ''}{text[:-digits]}.{text[-digits:]}")
            break
    token = rng.choice(forms)
    return "+" + token if rng.random() < 0.1 and not token.startswith("-") else token


def _random_text(rng, header="bqp01") -> str:
    """Instance text whose numbers use every spelling of ``_token``."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    dens = rng.choice([(1,), (1, 2, 4), (1, 3, 7), (2, 5, 8, 10), (1, 12, 125)])

    def value():
        return Fraction(rng.randint(-60, 60), rng.choice(dens))

    rows = [[value()], [value() for _ in range(m)], [value() for _ in range(n)]]
    rows += [[value() for _ in range(n)] for _ in range(m)]
    body = "\n".join(" ".join(_token(rng, v) for v in row) for row in rows)
    return f"# random instance\n{header}\n{m} {n}\n{body}\n"


def test_integer_reader_equals_the_rational_reader():
    rng = random.Random(1101)
    for k in range(300):
        text = _random_text(rng, "bqp11" if k % 3 == 0 else "bqp01")
        rational = parse_instance(text)
        integer = parse_integer_instance(text)
        assert integer == rational.integer
        assert integer.cut == (k % 3 == 0)
        assert parse_integer_instance(format_instance(rational)) == integer


def test_integer_reader_keeps_int_rows_at_scale_one():
    text = SAMPLE_TEXT.replace("1 -2", "1e1 -2")  # int() rejects 1e1: per-token path
    integer = parse_integer_instance(text)
    assert integer.scale == 1 and integer == parse_instance(text).integer
    assert integer.q == ((10, -2), (3, 0)) and not integer.cut


def test_integer_reader_reduces_to_the_least_common_denominator():
    text = "bqp01\n1 2\n0.5\n2/4\n0.25 1.50\n6/8 0.125\n"
    integer = parse_integer_instance(text)
    assert integer.scale == 8
    assert (integer.c0, integer.c, integer.d, integer.q) == (4, (4,), (2, 12), ((6, 1),))


MALFORMED = [
    "",
    "# nothing\n",
    "qubo\n1 1\n0\n0\n0\n0\n",
    "bqp01\n1 x\n0\n1\n1\n1\n",
    "bqp01\n0 2\n0\n\n1 1\n",
    "bqp01\n3\n0\n1 1 1\n1\n1\n1\n1\n",
    "bqp01\n1 1\n0\n1\nx\n1\n",
    "bqp01\n1 2\n0\n1/2\n3 1/0\n1 2\n",
    "bqp11\n1 2\n0\n1\n2 3\n1/3 .\n",
    "bqp01\n1 2\n+.\n1\n2 3\n1 2\n",
    "bqp01\n1 2\n0\n1\n2 3\n1 2 3\n",
    "bqp01\n2 2\n0\n1 -1\n0 2\n1 -2\n",
    "bqp01\n1 1\n0\n1\n2\n3\n4\n",
    "bqp01\n1 1\n0\n1e\n2\n1/2 # c\n",
    "bqp01\n1 1\n0\n1\n2\n1__0\n",
    "bqp01\n1 2\n0\nx\n1\n1 2\n",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_readers_reject_malformed_text_alike(text):
    with pytest.raises(ParseError) as rational:
        parse_instance(text)
    with pytest.raises(ParseError) as integer:
        parse_integer_instance(text)
    assert str(integer.value) == str(rational.value)
    assert integer.value.line == rational.value.line
