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

Solutions render as three lines: value (exact and decimal), then the x and
y assignments as bit strings ('+'/'-' for cut solutions).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ParseError
from .model import CutInstance, Instance, Solution


def parse_rational(token: str, line: int | None = None) -> int | Fraction:
    """Parse a sign/decimal/rational token exactly: an int when the token
    is a plain integer, else a Fraction.

    A token without '/', '.' or '_' is tried as an int first (``int`` and
    ``Fraction`` agree on those; before Python 3.11 ``Fraction`` rejects
    underscores, so they always take the ``Fraction`` path).
    """
    if "/" not in token and "." not in token and "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {token!r} ({exc})", line) from None


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            out.append((lineno, tokens))
    return out


def parse_instance(text: str) -> Instance | CutInstance:
    """Parse instance text; returns a CutInstance for the bqp11 header."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input")
    pos = 0

    def take(expected: int, what: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else None
            raise ParseError(f"unexpected end of input, expected {what}", last)
        lineno, tokens = lines[pos]
        pos += 1
        if len(tokens) != expected:
            raise ParseError(
                f"expected {expected} value(s) for {what}, got {len(tokens)}", lineno
            )
        return lineno, tokens

    lineno, tokens = take(1, "format header")
    header = tokens[0]
    if header not in ("bqp01", "bqp11"):
        raise ParseError(f"unknown format {header!r}, expected bqp01 or bqp11", lineno)

    lineno, tokens = take(2, "dimensions 'm n'")
    try:
        m, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"bad dimensions {tokens!r}", lineno) from None
    if m < 1 or n < 1:
        raise ParseError(f"dimensions must be positive, got {m} x {n}", lineno)

    lineno, tokens = take(1, "constant c0")
    c0 = parse_rational(tokens[0], lineno)
    lineno, tokens = take(m, "vector c")
    c = [parse_rational(t, lineno) for t in tokens]
    lineno, tokens = take(n, "vector d")
    d = [parse_rational(t, lineno) for t in tokens]
    q = []
    for i in range(m):
        lineno, tokens = take(n, f"row {i + 1} of Q")
        q.append([parse_rational(t, lineno) for t in tokens])
    if pos < len(lines):
        raise ParseError("trailing content after the matrix", lines[pos][0])

    cls = Instance if header == "bqp01" else CutInstance
    return cls(q, c, d, c0)


def format_instance(inst: Instance | CutInstance) -> str:
    """Canonical text form; parse(format(inst)) reproduces inst exactly."""
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


def _bits(vec: Sequence[int]) -> str:
    if any(v < 0 for v in vec):
        return "".join("+" if v > 0 else "-" for v in vec)
    return "".join(str(v) for v in vec)


def format_solution(sol: Solution) -> str:
    lines = [
        f"value {sol.value} {_approx(sol.value)}",
        f"x {_bits(sol.x)}",
        f"y {_bits(sol.y)}",
    ]
    return "\n".join(lines) + "\n"
