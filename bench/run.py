"""Benchmark of the `cubicham` command line.

One client sends one command at a time (a closed loop) from this process,
calling `cubicham.cli.main(argv)` in-process on JSON files written during
set-up, with `--jobs 1`. Starting an interpreter per command would take
longer than most chain commands. Each run is a fresh interpreter, so
module state such as the chain engine's layer cache starts empty.

    python3 bench/run.py --workload chain-analyze --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all      # every workload, untraced then traced

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics untraced, the
per-layer metrics with `--trace 1`. The package is imported from `src/`
beside this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
SETUP_REPEATS = 5
# Commands whose inputs a timed set-up writes: about half a second of work.
SETUP_OPS = {"graph-audit": 400, "chain-analyze": 100, "chain-check": 100}

# Times are scaled to a host on which `_calibration()` takes this long. The
# shared host this was built on changes speed by up to 2x over minutes; a
# calibration taken every CALIBRATE_EVERY_S of the timed phase (and around
# each set-up) tracks that, and each command's time is multiplied by
# (REFERENCE_CALIBRATION_S / calibration) ** SPEED_EXPONENT, the calibration
# being the mean of those just before and after it. The exponent is the
# slope of log(enumeration time) on log(calibration time) there, 0.66 to
# 0.81 over four runs of about 2000 pairs each: the program slows less than
# the calibration does. Calibrations are not timed. The timed phase ends
# after `--seconds` of commands at reference speed, so a run does the same
# work on a slow host as on a fast one.
REFERENCE_CALIBRATION_S = 0.0025
SPEED_EXPONENT = 0.75
CALIBRATE_EVERY_S = 0.1

# peak_rss_mb is read once this many commands are done (or at the end of a
# shorter run), so that a faster program does not read higher only because
# it got further through the pool.
RSS_AFTER_OPS = {"graph-audit": 150, "chain-analyze": 600, "chain-check": 150}

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def _import_fresh():
    """Import the package from `src/` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "cubicham" or m.startswith("cubicham.")]:
        del sys.modules[name]
    importlib.import_module("cubicham")
    cli = importlib.import_module("cubicham.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cubicham imported from {cli.__file__}, not from {SRC}")
    return cli


def _run_op(cli, argv: list) -> workloads.Result:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
        except Exception as exc:  # a crash is a failed command, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return workloads.Result(code, out.getvalue(), err.getvalue(), seconds, error)


# The circulant graph C12(1, 4), for the calibration's search.
_CIRCULANT = [sorted({(v + s) % 12 for s in (1, 4, 8, 11)}) for v in range(12)]


def _calibration() -> float:
    """Seconds the host takes to count the Hamilton cycles of `_CIRCULANT`
    by a plain depth-first search: backtracking over small lists and sets,
    like the program's own hot loops, but none of its code."""
    path, seen = [0], {0}

    def extend(v: int) -> int:
        if len(path) == len(_CIRCULANT):
            return int(0 in _CIRCULANT[v])
        found = 0
        for w in _CIRCULANT[v]:
            if w not in seen:
                seen.add(w)
                path.append(w)
                found += extend(w)
                path.pop()
                seen.discard(w)
        return found

    start = time.perf_counter()
    extend(0)
    return time.perf_counter() - start


def _speed_factor(calibration: float) -> float:
    return (REFERENCE_CALIBRATION_S / calibration) ** SPEED_EXPONENT


def _speed_factors(marks: list, n: int) -> list:
    """Per command, the speed factor of the mean of the calibrations taken
    just before and just after it. `marks` holds (index of the next
    command, calibration seconds), in order."""
    factors = []
    j = 0
    for i in range(n):
        while j + 1 < len(marks) and marks[j + 1][0] <= i:
            j += 1
        after = next(c for k, c in marks[j + 1:] if k > i)
        factors.append(_speed_factor((marks[j][1] + after) / 2))
    return factors


def _setup(workload: str, seed: int, seconds: float, work: Path, tracer) -> tuple:
    """Set up SETUP_REPEATS times and time it, then fill the pool.

    A set-up imports the package afresh and writes the inputs of the first
    SETUP_OPS[workload] commands; its time is scaled to reference speed by
    the calibrations around it. The last set-up's stream goes on to fill the
    pool, untimed.
    """
    stream, _ = workloads.WORKLOADS[workload]
    times = []
    for repeat in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        before = _calibration()
        start = time.perf_counter()
        cli = _import_fresh()
        if tracer and repeat == SETUP_REPEATS - 1:
            tracer.install()
        ops = stream(random.Random(seed), work)
        pool = list(itertools.islice(ops, SETUP_OPS[workload]))
        raw = time.perf_counter() - start
        factor = _speed_factor((before + _calibration()) / 2)
        times.append(raw * factor)
    if tracer:
        tracer.op = -1  # filling the pool is not part of the set-up
    size = max(len(pool), math.ceil(seconds * workloads.POOL_RATE[workload]))
    pool += itertools.islice(ops, size - len(pool))
    return cli, pool, times, factor


def run(workload: str, seed: int, seconds: float, trace: bool, max_ops: int | None,
        work: Path) -> dict:
    tracer = tracing.Tracer() if trace else None
    cli, ops, setup_times, setup_factor = _setup(workload, seed, seconds, work, tracer)
    if tracer and tracer.missing:
        print("untraced, not found: " + ", ".join(tracer.missing), file=sys.stderr)

    gc.collect()
    results: list = []
    marks = [(0, _calibration())]
    last_mark = time.perf_counter()
    busy = 0.0  # seconds of commands, at reference speed
    peak_rss_mb = None
    for i, op in enumerate(ops[:max_ops]):
        if max_ops is None and busy >= seconds:
            break
        if time.perf_counter() - last_mark >= CALIBRATE_EVERY_S:
            marks.append((i, _calibration()))
            last_mark = time.perf_counter()
        if tracer:
            tracer.op = i
        results.append(_run_op(cli, op.argv))
        busy += results[-1].seconds * _speed_factor(marks[-1][1])
        if len(results) == RSS_AFTER_OPS[workload]:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    marks.append((len(results), _calibration()))
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    reference = {}
    if seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(workload, {})
    check = workloads.WORKLOADS[workload][1]
    failures = [m for m in check(ops, results, reference) if m]
    factors = _speed_factors(marks, len(results))
    lat = sorted(r.seconds * f for r, f in zip(results, factors))
    phase = sum(lat)
    out = {
        "ops": ops,
        "results": results,
        "failures": failures,
        "phase_s": phase,
        "raw_phase_s": sum(r.seconds for r in results),
        "setup_times": setup_times,
    }
    if tracer:
        out["metrics"] = tracer.metrics(len(results), phase, factors, setup_factor)
        tracer.write(ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json")
    else:
        out["metrics"] = {
            "ops_per_s": len(results) / phase,
            "op_p50_s": statistics.median(lat),
            "op_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
    return out


def _report(workload: str, seed: int, trace: bool, outcome: dict) -> dict:
    results, failures = outcome["results"], outcome["failures"]
    n = len(results)
    print(f"{workload} seed {seed}: {n} commands in {outcome['raw_phase_s']:.3f} s "
          f"({outcome['phase_s']:.3f} s at reference speed), {len(failures)} failed "
          f"(fail_frac {len(failures) / max(n, 1):.4f} ratio)")
    for message in failures[:20]:
        print(f"  FAIL {message}")
    units = {name: unit for name, unit, _ in (tracing.PER_LAYER if trace else END_TO_END)}
    samples = {"setup_s": len(outcome["setup_times"])}
    metrics = {}
    for name, value in outcome["metrics"].items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:34s} {value:<14.6g} {units[name]:8s} (n={samples.get(name, n)})")
    return {"correct": not failures, "attempted": n, "failed": len(failures),
            "metrics": metrics}


def _record_reference(names: list, seconds: float) -> int:
    """Run every command of the default seed's pools and store the counts
    and classes they return, for later runs to compare against."""
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table["seed"] = DEFAULT_SEED
    for workload in names:
        work = ROOT / ".bench_work" / f"reference-{workload}"
        try:
            outcome = _pool_run(workload, seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if outcome["failures"]:
            print("\n".join(outcome["failures"]), file=sys.stderr)
            return 1
        table[workload] = workloads.reference_entries(outcome["ops"], outcome["results"])
        print(f"{workload}: {len(table[workload])} reference entries")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def _pool_run(workload: str, seconds: float, work: Path) -> dict:
    """Every command of the default seed's pool for `seconds`, however long
    they take."""
    cli, ops, _, _ = _setup(workload, DEFAULT_SEED, seconds, work, None)
    results = [_run_op(cli, op.argv) for op in ops]
    check = workloads.WORKLOADS[workload][1]
    return {"ops": ops, "results": results, "failures": [m for m in check(ops, results, {}) if m]}


def _run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced over the same commands."""
    script = str(Path(__file__).resolve())
    status = 0
    for workload in workloads.WORKLOADS:
        rows = {}
        for trace in (0, 1):
            argv = [sys.executable, script, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            if trace:
                argv += ["--max-ops", str(rows[0]["attempted"])]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            *lines, last = proc.stdout.splitlines() or [""]
            print("\n".join(lines))
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                return proc.returncode
            rows[trace] = json.loads(last)
            status |= not rows[trace]["correct"]
        untraced = rows[0]["attempted"] / rows[0]["metrics"]["ops_per_s"]["value"]
        traced = rows[1]["metrics"]["trace.phase_s"]["value"]
        print(f"  tracing overhead: {traced - untraced:.3f} s on {rows[0]['attempted']} commands "
              f"({(traced - untraced) / untraced:+.1%} of {untraced:.3f} s untraced)\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="run exactly the first N commands of the pool, however long they "
                             "take (smoke tests, tracing overhead)")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the workload's entries in reference.json from the default "
                             "seed's pool")
    args = parser.parse_args(argv)
    if not (SRC / "cubicham" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cubicham'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        return _record_reference(names, args.seconds)
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.max_ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(_report(args.workload, args.seed, bool(args.trace), outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
