"""Plain-text instance and solution formats.

Instance format ('#' starts a comment, blank lines ignored, numbers are
exact: optional sign, integer, decimal like -2.5, or rational like 7/3):

    bqp01           <- or bqp11 for the {-1,+1} cut form
    m n
    c0
    c_1 ... c_m
    d_1 ... d_n
    q_11 ... q_1n   <- m rows of Q follow
    ...

Two readers share one tokenizer, which turns plain integers, ``p/q`` and
plain decimals into (num, den) pairs by hand and leaves any other token to
``Fraction``, and one row reader, which converts a row of plain integers
with one ``map(int, ...)``.  ``parse_instance`` builds the public rational
:class:`Instance` or :class:`CutInstance`.  ``parse_integer_instance``,
which the command line solves on, builds the same instance's exact
:class:`IntegerInstance` without a Fraction per coefficient.

Solutions render as three lines: value (exact and decimal), then the x and
y assignments as bit strings, both as '+'/'-' when either holds a -1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import ParseError
from .model import CutInstance, Instance, IntegerInstance, Solution, integer_instance


def _ratio(token: str, line: int | None = None) -> tuple[int, int]:
    """(num, den) with den > 0 and num/den == Fraction(token), not reduced.

    Plain integers, ``p/q`` and plain decimals are split by hand.  Every
    other token, and every token holding '_' (before Python 3.11
    ``Fraction`` rejects underscores), goes to ``Fraction``, so the grammar
    and the error text are ``Fraction``'s on every Python version.
    """
    if "_" not in token:
        # text[text[:1] in "+-":] drops one leading sign.
        num, slash, den = token.partition("/")
        if slash:
            if num[num[:1] in "+-" :].isdecimal() and den.isdecimal() and (d := int(den)):
                return int(num), d
        elif "." in token:
            whole, _, frac = token.partition(".")
            if (whole[whole[:1] in "+-" :] + frac).isdecimal():
                return int(whole + frac), 10 ** len(frac)
        else:
            try:
                return int(token), 1
            except ValueError:
                pass
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {token!r} ({exc})", line) from None
    return value.numerator, value.denominator


def _integer_row(tokens: list[str], line: int, body: str):
    """(numerators, denominators) of the tokens; denominators None for an all-int row."""
    if "_" not in body:
        try:
            return tuple(map(int, tokens)), None
        except ValueError:
            pass
    return tuple(zip(*[_ratio(t, line) for t in tokens]))


def _content_lines(text: str) -> list[tuple[list[str], int, str]]:
    """(tokens, line number, text before any '#') of each line holding a token."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            out.append((tokens, lineno, body))
    return out


def _read(text: str) -> tuple[str, list]:
    """The header, then ``_integer_row`` of the c0, c, d and Q rows in file
    order, each row checked for its count before converting."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input")
    pos = 0

    def take(expected: int, what: str) -> tuple[list[str], int, str]:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of input, expected {what}", lines[-1][1])
        tokens, lineno, body = lines[pos]
        pos += 1
        if len(tokens) != expected:
            raise ParseError(
                f"expected {expected} value(s) for {what}, got {len(tokens)}", lineno
            )
        return tokens, lineno, body

    (header,), lineno, _ = take(1, "format header")
    if header not in ("bqp01", "bqp11"):
        raise ParseError(f"unknown format {header!r}, expected bqp01 or bqp11", lineno)

    tokens, lineno, _ = take(2, "dimensions 'm n'")
    try:
        m, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"bad dimensions {tokens!r}", lineno) from None
    if m < 1 or n < 1:
        raise ParseError(f"dimensions must be positive, got {m} x {n}", lineno)

    shapes = [(1, "constant c0"), (m, "vector c"), (n, "vector d")]
    shapes += [(n, f"row {i + 1} of Q") for i in range(m)]
    rows = [_integer_row(*take(count, what)) for count, what in shapes]
    if pos < len(lines):
        raise ParseError("trailing content after the matrix", lines[pos][1])
    return header, rows


def parse_instance(text: str) -> Instance | CutInstance:
    """Parse instance text; returns a CutInstance for the bqp11 header."""
    header, rows = _read(text)
    (c0,), c, d, *q = [
        nums if dens is None else [n if k == 1 else Fraction(n, k) for n, k in zip(nums, dens)]
        for nums, dens in rows
    ]
    cls = Instance if header == "bqp01" else CutInstance
    return cls(q, c, d, c0)


def parse_integer_instance(text: str) -> IntegerInstance:
    """Parse instance text straight into its exact integer form.

    Equals ``parse_instance(text).integer`` (0-1 coefficients, ``cut`` set
    for the bqp11 header), but builds no Fraction per coefficient: the
    model scales the tokens' (num, den) pairs, and keeps the rows of a
    file of plain integers at scale 1.
    """
    header, rows = _read(text)
    return integer_instance(rows, header == "bqp11")


def format_instance(inst: Instance | CutInstance) -> str:
    """Canonical text form; parse(format(inst)) reproduces inst exactly.
    Raises TypeError on a scaled, always 0-1 :class:`IntegerInstance`."""
    if isinstance(inst, IntegerInstance):
        raise TypeError("an IntegerInstance is scaled; format the instance it came from")
    header = "bqp01" if isinstance(inst, Instance) else "bqp11"
    lines = [
        header,
        f"{inst.m} {inst.n}",
        str(inst.c0),
        " ".join(str(v) for v in inst.c),
        " ".join(str(v) for v in inst.d),
    ]
    for row in inst.q:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _approx(value: Fraction) -> str:
    try:
        return repr(float(value))
    except OverflowError:
        return "overflow"


def format_solution(sol: Solution) -> str:
    """Value line, then x and y as digits, or both as signs if either holds a -1.

    A cut solution with no -1 prints as 1s, which reads the same in both forms.
    """
    signs = any(v < 0 for v in chain(sol.x, sol.y))
    bit = (lambda v: "+" if v > 0 else "-") if signs else str
    lines = [
        f"value {sol.value} {_approx(sol.value)}",
        f"x {''.join(map(bit, sol.x))}",
        f"y {''.join(map(bit, sol.y))}",
    ]
    return "\n".join(lines) + "\n"
