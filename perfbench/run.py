"""Layered benchmark for bqp01: end-to-end metrics, or per-layer ones traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload structured --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs a closed loop with one client for ``--seconds`` and
reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` replays
the pool in whole passes, alternately without and with timing wrappers on
bqp01's public functions, and reports the per-layer metrics.  Every answer
is checked against an independent reference optimum outside the timed
region; any failed request makes the run exit 1.  The last line of
standard output is a JSON object with keys correct, attempted, failed and
metrics.  perfbench/README.md defines each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
MIN_TRACE_PASSES = 2
WORKLOAD_NAMES = ("structured", "combinatorial", "rank1-factored", "cli-rational")
# A request running past its deadline fails; the run goes on without it.
# The slowest healthy request takes about 1.2 s.
DEADLINE_S = 15
# Calibration kernel time at the reference speed; the unit of the *_cal_s metrics.
CAL_REF_S = 0.003
ROUTES = ("mincut", "additive", "rank1", "rankp", "enum", "eliminator", "refused")


class DeadlineExceeded(BaseException):
    """Raised into an in-process request when its deadline passes."""


def _alarm(signum, frame):
    raise DeadlineExceeded


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_program():
    """Import bqp01 from this checkout's src/, never from elsewhere."""
    if not (SRC / "bqp01" / "__init__.py").is_file():
        raise RuntimeError(f"no bqp01 package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import bqp01

    if Path(bqp01.__file__).resolve().parent != SRC / "bqp01":
        raise RuntimeError(f"imported bqp01 from {bqp01.__file__}, not {SRC}")
    return bqp01


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the calibration
    kernel measures the CPU that runs the requests."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def workload_by_name(name):
    import workloads

    return {
        "structured": workloads.STRUCTURED,
        "combinatorial": workloads.COMBINATORIAL,
        "rank1-factored": workloads.FactoredWorkload(),
        "cli-rational": workloads.CliWorkload(SRC, DEADLINE_S),
    }[name]


# -- set-up -----------------------------------------------------------------


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports bqp01 and exits."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import bqp01"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


def set_up(workload, seed: int, workdir: Path):
    """Build the pool SETUP_REPEATS times; the builds must be identical."""
    totals, raw, imports, builds, pools = [], [], [], [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        before = statistics.median(kernel_seconds() for _ in range(3))
        imp = import_seconds()
        start = time.perf_counter()
        pool = workload.build(seed, workdir)
        build = time.perf_counter() - start
        after = statistics.median(kernel_seconds() for _ in range(3))
        totals.append(calibrated(imp + build, before, after))
        raw.append(imp + build)
        imports.append(imp)
        builds.append(build)
        pools.append([item.digest() for item in pool])
    if any(p != pools[0] for p in pools):
        raise RuntimeError("pool generation is not deterministic")
    if len(set(pools[0])) != len(pools[0]):
        raise RuntimeError("pool holds duplicate instances")
    stats = {
        "setup_s": statistics.median(totals),
        "setup_wall_s": statistics.median(raw),
        "cli.import_s": statistics.median(imports),
        "generate.instance_s": statistics.median(builds) / len(pool),
    }
    return pool, stats


def _optimum_text(value) -> str:
    return "refused" if value is None else str(value)


def references(workload, pool, seed: int | None):
    """Reference optimum per pool item, computed before timing.

    For the default seed the computed optima must also match the stored
    table, and each stored input digest must match the pool.
    """
    computed = [workload.reference(item) for item in pool]
    if seed == DEFAULT_SEED:
        stored = json.loads(REFERENCES.read_text()).get(workload.name, {})
        for item, value in zip(pool, computed):
            entry = stored.get(item.key)
            if entry is None or entry["digest"] != item.digest():
                raise RuntimeError(f"{item.key}: missing from {REFERENCES.name} or its inputs changed")
            if entry["optimum"] != _optimum_text(value):
                raise RuntimeError(f"{item.key}: reference {value} differs from stored {entry['optimum']}")
    return computed


def write_references(workload, pool, refs) -> None:
    table = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    table[workload.name] = {
        item.key: {"digest": item.digest(), "optimum": _optimum_text(ref)}
        for item, ref in zip(pool, refs)
    }
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# -- requests ---------------------------------------------------------------


def timed_request(fn, item, in_process: bool):
    """(latency, outcome, error) of one request under its deadline.

    An in-process request gets DeadlineExceeded from SIGALRM at its next
    bytecode; a child process is killed by its own timeout.
    """
    start = time.perf_counter()
    try:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                outcome = fn(item)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        else:
            outcome = fn(item)
        error = None
    except (DeadlineExceeded, subprocess.TimeoutExpired):
        outcome, error = None, f"missed the {DEADLINE_S} s deadline"
    except Exception as exc:  # a crashed request is a failed request
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome, error


def calibration_kernel():
    """Fixed pure-Python work of the kinds bqp01 does: Fraction arithmetic,
    a sort and a dict.  It takes about 3 ms at the reference speed."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(i % 7 + 1, 3)
    order = sorted((i * 7919) % 1009 for i in range(2000))
    table = {i: i * i for i in range(2000)}
    return acc, order, table


def kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def closed_loop(workload, pool, seconds: float):
    """One client: send the next pool item as soon as the last returns.

    The calibration kernel runs between requests, on the same CPU, so each
    request is bracketed by a kernel time just before and just after it.
    """
    records, kernels = [], [kernel_seconds()]
    start = time.perf_counter()
    end = start + seconds
    k = 0
    while True:
        index = k % len(pool)
        latency, outcome, error = timed_request(workload.request, pool[index], not workload.cli)
        records.append((index, latency, outcome, error))
        kernels.append(kernel_seconds())
        k += 1
        if time.perf_counter() >= end:
            break
    return records, kernels, time.perf_counter() - start


def calibrated(seconds: float, before: float, after: float) -> float:
    """Wall time rescaled to the reference speed, where the kernel takes
    CAL_REF_S; the speed during the interval is taken as the mean of the
    kernel times just before and just after it."""
    return seconds * CAL_REF_S / ((before + after) / 2)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it: (value, pct, n)."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- traced passes ----------------------------------------------------------


def traced_passes(workload, pool, seconds: float):
    """Whole passes over the pool, each item once without and once with spans.

    Which of the two runs first alternates from item to item and pass to
    pass, so warm-up and drift fall on both sides of trace.overhead_share.
    """
    from tracing import Tracer

    tracer = Tracer()
    passes = []  # (untraced records, traced records, span range, counts)
    end = time.perf_counter() + seconds
    restored_ok = True
    while len(passes) < MIN_TRACE_PASSES or time.perf_counter() < end:
        first = len(tracer.spans)
        before = Counter(tracer.counts)
        plain, traced = [], []
        for index, item in enumerate(pool):
            order = (False, True) if (index + len(passes)) % 2 == 0 else (True, False)
            for is_traced in order:
                if not is_traced:
                    plain.append((index, *timed_request(workload.replay, item, True)))
                    continue
                tracer.request = len(passes) * len(pool) + index
                tracer.install()
                try:
                    traced.append((index, *timed_request(workload.replay, item, True)))
                finally:
                    left = tracer.uninstall()
                if left:
                    print(f"perfbench: wrappers not restored: {left}", file=sys.stderr)
                    restored_ok = False
        counts = Counter(tracer.counts)
        counts.subtract(before)
        passes.append((plain, traced, (first, len(tracer.spans)), +counts))
    return tracer, passes, restored_ok


def layer_metrics(tracer, passes, setup_stats):
    from tracing import per_layer

    calls, incl, self_s = Counter(), Counter(), Counter()
    counts = Counter()
    ratios = []
    exact = []
    for plain, records, (first, last), pass_counts in passes:
        ratios.extend(t[1] / u[1] for u, t in zip(plain, records))
        c, i, s = tracer.totals(first, last)
        calls.update(c)
        incl.update(i)
        self_s.update(s)
        counts.update(pass_counts)
        routes = Counter(r[2][0] if r[2] else "failed" for r in records)
        exact.append((dict(c), dict(pass_counts), dict(routes)))
    metrics = per_layer(calls, incl, self_s, counts, len(ratios))
    first_routes = exact[0][2]
    for route in ROUTES:
        metrics[f"dispatch.route.{route}"] = first_routes.get(route, 0)
    metrics["cli.import_s"] = setup_stats["cli.import_s"]
    metrics["generate.instance_s"] = setup_stats["generate.instance_s"]
    # Paired by item and pass, so machine drift and the class mix cancel.
    metrics["trace.overhead_share"] = statistics.median(ratios) - 1
    repeat_ok = all(e == exact[0] for e in exact)
    return metrics, repeat_ok


# -- one workload -----------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: int, spec, save_refs: bool):
    import workloads

    workload = workload_by_name(name)
    workdir = OUT / f"files-{name}-{seed}-{os.getpid()}"
    phases = {}
    clock = time.perf_counter()

    def phase(label):
        nonlocal clock
        now = time.perf_counter()
        phases[label] = round(now - clock, 3)
        clock = now

    try:
        pool, setup_stats = set_up(workload, seed, workdir)
        phase("set_up")
        refs = references(workload, pool, seed if not save_refs else None)
        if save_refs:
            write_references(workload, pool, refs)
        phase("references")
        if trace:
            tracer, passes, restored_ok = traced_passes(workload, pool, seconds)
            records = [r for plain, traced, _, _ in passes for r in plain + traced]
        else:
            records, kernels, loop_s = closed_loop(workload, pool, seconds)
        phase("measure")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = []
    for index, latency, outcome, error in records:
        if error is None:
            error = workloads.check(workload, pool[index], outcome, refs[index])
        errors.append(error)
    phase("check")
    notes_phases = "wall s per phase: " + " ".join(f"{k} {v}" for k, v in phases.items())
    failed = sum(e is not None for e in errors)
    notes, problems = [], []
    if trace:
        metrics, repeat_ok = layer_metrics(tracer, passes, setup_stats)
        by_item = {}
        for index, _, outcome, _ in records:
            by_item.setdefault(index, set()).add(outcome)
        same_ok = all(len(v) == 1 for v in by_item.values())
        if not restored_ok:
            problems.append("a wrapper was not restored")
        if not repeat_ok:
            problems.append("exact counts differ between traced passes")
        if not same_ok:
            problems.append("traced and untraced passes returned different solutions")
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        latencies = [r[1] for r in records]
        scaled = [calibrated(t, kernels[i], kernels[i + 1]) for i, t in enumerate(latencies)]
        succeeded = len(records) - failed
        tail_value, tail_pct, count = tail(scaled)
        metrics = {
            "latency_cal_s.p50": statistics.median(scaled),
            "latency_cal_s.tail": tail_value,
            "solves_per_cal_s": succeeded / sum(scaled),
            "setup_s": setup_stats["setup_s"],
            "peak_rss_mb": peak_rss_mb(workload),
        }
        notes.append(f"latency_cal_s.tail is p{tail_pct:.1f} of {count} requests")
        notes.append(f"failed_share {failed / len(records):.4f} ratio")
        notes.append(
            f"uncalibrated: latency_s.p50 {statistics.median(latencies):.6g} s, "
            f"latency_s.tail {tail(latencies)[0]:.6g} s, solves_per_s {succeeded / loop_s:.6g} 1/s, "
            f"setup wall {setup_stats['setup_wall_s']:.6g} s, "
            f"median kernel {statistics.median(kernels) * 1000:.4g} ms"
        )
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metadata": run_metadata(),
        "requests": [
            {
                "class": pool[index].cls,
                "item": pool[index].key,
                "route": outcome[0] if outcome else None,
                "latency_s": latency,
                "error": error,
            }
            for (index, latency, outcome, _), error in zip(records, errors)
        ],
        "metrics": metrics,
        "notes": notes,
        "problems": problems,
        "phases_s": phases,
    }
    if trace:
        detail["spans"] = tracer.spans
    else:
        detail["kernel_s"] = kernels
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail))

    for key in wanted:
        print(f"{name:15} {key:40} {metrics[key]:>16.6g} {units[key]}")
    for note in notes + [notes_phases]:
        print(f"{name:15} {note}")
    for error in sorted({e for e in errors if e}) + problems:
        print(f"{name:15} FAILED {error}")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
    }
    return result


def run_metadata() -> dict:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "bqp01").glob("*.py"))
    )
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_bqp01_lines": src_lines,
    }


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 and proc.returncode != 1:
            return proc.returncode
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-references", action="store_true",
        help=f"compute reference optima for --seed {DEFAULT_SEED} and store them",
    )
    args = parser.parse_args(argv)
    if args.write_references and args.seed != DEFAULT_SEED:
        return fail(f"references are stored for seed {DEFAULT_SEED} only")
    spec_path = ROOT / "BENCHMARK.json"
    try:
        load_program()
        spec = json.loads(spec_path.read_text())
    except (RuntimeError, ImportError, OSError, ValueError) as exc:
        return fail(str(exc))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _alarm)
    pin_to_one_cpu()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec, args.write_references)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
