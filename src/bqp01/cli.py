"""Command-line interface.

Subcommands: solve (pick or force an algorithm), analyze (structure
report), transform (homogeneous / cut / qp01 rewrites), gen (deterministic
instance generation), bench (cross-validating timing table).

Exit codes: 0 solved, 2 solver refusal (a size limit), 3 parse error,
4 cross-validation failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import (
    ALGORITHMS,
    DEFAULT_ELIMINATOR_LIMIT,
    DEFAULT_ENUM_LIMIT,
    DEFAULT_P_LIMIT,
    CrossValidationError,
    ParseError,
    SolverRefusal,
)

# Each command imports what it runs inside its function, so parsing the
# arguments (--version, --help) loads only this module and ``errors``.


def _read_instance(path: str, parse):
    """The file (stdin for '-') read by ``parse``: ``parse_integer_instance``
    for the solvers, ``parse_instance`` for ``transform``, which prints
    rationals."""
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _emit(pairs: list[tuple[str, str]], fmt: str) -> None:
    if fmt == "kv":
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        width = max(len(key) for key, _ in pairs)
        for key, value in pairs:
            print(f"{key:<{width}}  {value}")


def _cmd_solve(args) -> int:
    from .dispatch import dispatch_solve
    from .textio import format_solution, parse_integer_instance

    inst = _read_instance(args.instance, parse_integer_instance)
    if args.dump_breakpoints:
        from .rank_one import pkp_breakpoints, ulp_breakpoints

        # Built first, so a matrix of rank above one fails before any output.
        tracks = [("concave-x", pkp_breakpoints(inst)), ("convex-y", ulp_breakpoints(inst))]
    report = dispatch_solve(
        inst,
        args.algorithm,
        p_limit=args.p_limit,
        enum_limit=args.enum_limit,
        eliminator_limit=args.eliminator_limit,
    )
    pairs = [
        ("algorithm", report.algorithm),
        ("detected", report.detected),
        ("time", f"{report.wall_time:.6f}"),
    ]
    _emit(pairs, args.format)
    sys.stdout.write(format_solution(report.solution))
    if args.dump_breakpoints:
        for label, track in tracks:
            print(f"# {label} track: breakpoint value")
            for t, h in zip(track.breakpoints, track.values):
                print(f"{t} {h}")
    return 0


def _cmd_analyze(args) -> int:
    from .dispatch import analyze
    from .textio import parse_integer_instance

    inst = _read_instance(args.instance, parse_integer_instance)
    _emit(analyze(inst).lines(), args.format)
    return 0


def _cmd_transform(args) -> int:
    from .model import Instance
    from .textio import format_instance, parse_instance
    from .transforms import bqp01_to_cut, bqp01_to_qp01, cut_to_bqp01, to_homogeneous

    inst = _read_instance(args.instance, parse_instance)
    if args.to == "homogeneous":
        if not isinstance(inst, Instance):
            raise ValueError("homogeneous transform expects a bqp01 instance")
        hom, m_val = to_homogeneous(inst)
        print(f"# homogeneous form; optimum = original optimum + {m_val}")
        sys.stdout.write(format_instance(hom))
    elif args.to == "cut":
        if isinstance(inst, Instance):
            sys.stdout.write(format_instance(bqp01_to_cut(inst)))
        else:
            sys.stdout.write(format_instance(cut_to_bqp01(inst)))
    else:
        if not isinstance(inst, Instance):
            raise ValueError("qp01 transform expects a bqp01 instance")
        matrix, linear, constant = bqp01_to_qp01(inst)
        print("qp01")
        print(len(matrix))
        print(constant)
        print(" ".join(str(v) for v in linear))
        for row in matrix:
            print(" ".join(str(v) for v in row))
    return 0


def _cmd_gen(args) -> int:
    from .generate import generate_instance
    from .textio import format_instance

    inst = generate_instance(
        args.kind, args.rows, args.cols, args.seed, value_range=args.range
    )
    text = format_instance(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    from .dispatch import bench
    from .textio import parse_integer_instance

    algorithms = [token.strip() for token in args.algorithms.split(",") if token.strip()]
    if not algorithms:
        raise ValueError(f"--algorithms names no algorithm: {args.algorithms!r}")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    instances = [(path, _read_instance(path, parse_integer_instance)) for path in args.instances]
    rows = bench(
        instances,
        algorithms,
        p_limit=args.p_limit,
        enum_limit=args.enum_limit,
        eliminator_limit=args.eliminator_limit,
    )
    if args.format == "kv":
        for row in rows:
            print(
                f"instance={row.instance} algorithm={row.algorithm} "
                f"value={row.value} time={row.wall_time:.6f}"
            )
    else:
        name_w = max(len(r.instance) for r in rows) if rows else 8
        alg_w = max((len(r.algorithm) for r in rows), default=9)
        print(f"{'instance':<{name_w}}  {'algorithm':<{alg_w}}  {'value':>12}  {'time':>10}")
        for row in rows:
            print(
                f"{row.instance:<{name_w}}  {row.algorithm:<{alg_w}}  "
                f"{str(row.value):>12}  {row.wall_time:>10.6f}"
            )
    return 0


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    for flag, default, text in (
        ("--p-limit", DEFAULT_P_LIMIT, "largest matrix rank rankp accepts"),
        ("--enum-limit", DEFAULT_ENUM_LIMIT, "largest row count enum accepts"),
        (
            "--eliminator-limit",
            DEFAULT_ELIMINATOR_LIMIT,
            "largest negative-eliminator size the eliminator solver accepts",
        ),
    ):
        parser.add_argument(flag, type=int, default=default, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqp01",
        description="Exact solvers for bipartite unconstrained 0-1 quadratic programs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file ('-' for stdin)")
    p_solve.add_argument("instance")
    p_solve.add_argument(
        "--algorithm", choices=ALGORITHMS, default="auto", help="solver to use"
    )
    _add_limit_flags(p_solve)
    p_solve.add_argument(
        "--dump-breakpoints",
        action="store_true",
        help="rank-one only: print both breakpoint tracks after solving",
    )
    p_solve.add_argument("--format", choices=("text", "kv"), default="text")
    p_solve.set_defaults(func=_cmd_solve)

    p_analyze = sub.add_parser("analyze", help="report detected matrix structure")
    p_analyze.add_argument("instance")
    p_analyze.add_argument("--format", choices=("text", "kv"), default="text")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_transform = sub.add_parser("transform", help="rewrite an instance")
    p_transform.add_argument("instance")
    p_transform.add_argument(
        "--to", choices=("homogeneous", "cut", "qp01"), required=True
    )
    p_transform.set_defaults(func=_cmd_transform)

    p_gen = sub.add_parser("gen", help="generate a deterministic random instance")
    p_gen.add_argument("--kind", default="general")
    p_gen.add_argument("-m", "--rows", type=int, required=True)
    p_gen.add_argument("-n", "--cols", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--range", type=int, default=10, help="entry magnitude bound")
    p_gen.add_argument("-o", "--output", help="write to a file instead of stdout")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser(
        "bench", help="run several algorithms and cross-check their optima"
    )
    p_bench.add_argument("instances", nargs="+")
    p_bench.add_argument(
        "--algorithms", required=True, help="comma-separated algorithm names"
    )
    _add_limit_flags(p_bench)
    p_bench.add_argument("--format", choices=("text", "kv"), default="text")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except SolverRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        if exc.report is not None:
            for key, value in exc.report.lines():
                print(f"  {key}={value}", file=sys.stderr)
        return 2
    except CrossValidationError as exc:
        print(f"cross-validation failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
