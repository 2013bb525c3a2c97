"""Benchmark of wittzeta: three seeded, closed-loop, single-client workloads.

Run from the repository root:

    python3 benchmark/run.py --workload witt-arith --seed 1 --seconds 20 --trace 0

Workloads are ``witt-arith``, ``sym-pipeline`` and ``enum-count``; their
problem classes and the reasons for them are in ``benchmark/design.json``.
One process runs one workload on one thread.  It solves whole cycles of
problems, one at a time, until ``--seconds`` have passed, and checks every
output against the plain-integer oracles in ``benchmark/oracles.py``
outside the timed region.  Human-readable results go to stderr; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Their times are reference
seconds: wall time rescaled by a fixed calibration kernel timed between
problems (``benchmark/calibration.py``), so that the drifting speed of a
shared CPU does not drown a change of the library's speed; the wall-clock
figures are printed beside them on stderr.  ``--trace 1`` takes a
fixed number of cycles, solves each problem untraced and traced (in
alternating order), then runs them all traced once more, and reports the
per-layer metrics from ``benchmark/tracing.py``.  It also checks that
traced outputs equal untraced ones, that the exact counts repeat, that
every expected function was called and every binding restored, and it
prints the tracing overhead and the per-call means beside the ROADMAP
baseline.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 11
# Enough problems that at least 10 samples lie beyond the nearest-rank p90.
MIN_PROBLEMS = 100

sys.path.insert(0, SRC)

from calibration import REF_S, Speedometer  # noqa: E402
from tracing import EXACT_COUNTS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_cycle  # noqa: E402


def log(text: str = "") -> None:
    sys.stderr.write(text + "\n")


def load_library():
    """Import wittzeta (and its CLI) from this checkout's src, afresh."""
    for name in [n for n in sys.modules if n == "wittzeta" or n.startswith("wittzeta.")]:
        del sys.modules[name]
    wz = importlib.import_module("wittzeta")
    importlib.import_module("wittzeta.cli")
    if os.path.dirname(os.path.abspath(wz.__file__)) != os.path.join(SRC, "wittzeta"):
        raise ImportError(f"wittzeta was imported from {wz.__file__}, not from {SRC}")
    return wz


def setup(workload: str, seed: int):
    """Import plus seeded generation of the first cycle; returns (wz, cycle)."""
    wz = load_library()
    return wz, make_cycle(workload, seed, 0, wz)


def solve(problem, tracer=None):
    """Run one problem; returns (ok, seconds, raw output or None)."""
    if tracer is not None:
        tracer.root = problem.cls
    start = time.perf_counter()
    try:
        out = problem.run()
    except Exception:
        elapsed = time.perf_counter() - start
        log(f"FAILED {problem.cls}: exception\n{traceback.format_exc()}")
        return False, elapsed, None
    elapsed = time.perf_counter() - start
    try:
        raw = problem.raw(out)
        ok = bool(problem.check(raw))
    except Exception:
        log(f"FAILED {problem.cls}: exception while checking\n{traceback.format_exc()}")
        return False, elapsed, None
    if not ok:
        log(f"FAILED {problem.cls}: output does not match the oracle")
    return ok, elapsed, raw


def _corrupt(raw):
    """A copy of raw with its first integer (keys in sorted order) plus one."""
    if isinstance(raw, bool):
        return None
    if isinstance(raw, int):
        return raw + 1
    if isinstance(raw, (list, dict)):
        keys = sorted(raw) if isinstance(raw, dict) else range(len(raw))
        for key in keys:
            changed = _corrupt(raw[key])
            if changed is not None:
                copy = dict(raw) if isinstance(raw, dict) else list(raw)
                copy[key] = changed
                return copy
    return None


def self_test(samples: dict) -> bool:
    """Re-check one corrupted output per class; every one must be caught."""
    attempted = failed = 0
    for cls, (problem, raw) in sorted(samples.items()):
        attempted += 1
        try:
            caught = not problem.check(_corrupt(raw))
        except Exception:
            caught = True
        failed += caught
        if not caught:
            log(f"SELF-TEST: a corrupted {cls} output passed its check")
    frac = failed / attempted if attempted else 0.0
    log(f"self-test: corrupted outputs caught {failed}/{attempted} (failed_frac {frac:.3f})")
    return attempted > 0 and failed == attempted


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(workload: str, seed: int, seconds: float, wz, cycle, speed: Speedometer) -> dict:
    """Closed loop: whole cycles, one problem at a time, until seconds pass.

    A run also goes on until MIN_PROBLEMS problems are solved.  Between
    problems the speedometer times its kernel every INTERVAL_S seconds.
    Start times and latencies are kept as packed doubles and per-class
    sums, so the harness's own memory barely grows with throughput; peak
    RSS is read before any post-processing.
    """
    starts = array.array("d")
    latencies = array.array("d")
    by_class: dict[str, list] = {}
    samples: dict = {}
    failed = 0
    verified = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for problem in cycle:
            starts.append(time.perf_counter())
            ok, elapsed, raw = solve(problem)
            latencies.append(elapsed)
            stats = by_class.setdefault(problem.cls, [0, 0.0])
            stats[0] += 1
            stats[1] += elapsed
            if ok:
                verified += 1
                samples.setdefault(problem.cls, (problem, raw))
            else:
                failed += 1
            speed.tick()
        index += 1
        if time.perf_counter() >= deadline and len(latencies) >= MIN_PROBLEMS:
            break
        cycle = make_cycle(workload, seed, index, wz)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"starts": starts, "latencies": latencies, "by_class": by_class, "samples": samples,
            "failed": failed, "verified": verified, "cycles": index, "rss_mb": rss_mb}


def _new_pass() -> dict:
    return {"outputs": [], "seconds": 0.0, "failed": 0, "by_class": {}}


def _record(result: dict, problem, ok: bool, elapsed: float, raw) -> None:
    result["outputs"].append(json.dumps(raw, sort_keys=True))
    result["seconds"] += elapsed
    result["failed"] += not ok
    result["by_class"].setdefault(problem.cls, []).append(elapsed)


def _ops_per_s(result: dict) -> float:
    return (len(result["outputs"]) - result["failed"]) / result["seconds"]


def paired_passes(problems, tracer: Tracer) -> tuple[dict, dict]:
    """Solve each problem untraced and traced, alternating which goes first.

    Pairing problem by problem keeps slow drift of the machine out of the
    overhead; the wrappers are installed only around the traced solve.
    """
    plain, traced = _new_pass(), _new_pass()
    for i, problem in enumerate(problems):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                _record(plain, problem, *solve(problem))
                continue
            tracer.install()
            try:
                result = solve(problem, tracer)
            finally:
                tracer.remove()
            _record(traced, problem, *result)
    return plain, traced


def traced_pass(problems, tracer: Tracer) -> dict:
    result = _new_pass()
    tracer.install()
    try:
        for problem in problems:
            _record(result, problem, *solve(problem, tracer))
    finally:
        tracer.remove()
    return result


def load_design() -> dict:
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(args, wz, cycle, speed: Speedometer, setup_s: float,
               setup_wall_s: float) -> tuple[bool, int, int, dict]:
    result = measure(args.workload, args.seed, args.seconds, wz, cycle, speed)
    wall = result["latencies"]
    # Each latency in reference seconds: its wall time rescaled by the kernel
    # times sampled around it (calibration.py).
    latencies = sorted(x * speed.factor(t, t + x) for t, x in zip(result["starts"], wall))
    attempted = len(latencies)
    failed = result["failed"]
    total = sum(latencies)
    ops = result["verified"] / total
    p50, p90 = nearest_rank(latencies, 0.5), nearest_rank(latencies, 0.9)
    beyond = sum(1 for x in latencies if x > p90)
    wall_sorted = sorted(wall)
    rss_mb = result["rss_mb"]
    selftest_ok = self_test(result["samples"])

    log(f"workload {args.workload}, seed {args.seed}: {result['cycles']} cycles, "
        f"{attempted} problems, closed loop with one client")
    for cls, (n, seconds) in result["by_class"].items():
        log(f"  {cls:32s} n={n:5d}  mean {1000 * seconds / n:9.3f} ms")
    log(f"speed: kernel median {1000 * speed.median_s():.4f} ms over {len(speed.seconds)} "
        f"samples, reference {1000 * REF_S:.1f} ms; times below are reference seconds "
        f"(wall-clock figures in brackets)")
    log(f"ops_per_s      {ops:.4f} problems/s   [{result['verified'] / sum(wall):.4f}]")
    log(f"latency_p50_ms {1000 * p50:.4f} ms   [{1000 * nearest_rank(wall_sorted, 0.5):.4f}]")
    log(f"latency_p90_ms {1000 * p90:.4f} ms   [{1000 * nearest_rank(wall_sorted, 0.9):.4f}]   "
        f"({attempted} samples, {beyond} beyond p90)")
    log(f"setup_s        {setup_s:.6f} s   [{setup_wall_s:.6f}]   (median of {SETUP_REPEATS} set-ups)")
    log(f"peak_rss_mb    {rss_mb:.3f} MB")
    log(f"failed_frac    {failed / attempted:.6f} ratio   ({failed} failed of {attempted} attempted)")

    metrics = {
        "ops_per_s": {"value": ops, "unit": "problems/s"},
        "latency_p50_ms": {"value": 1000 * p50, "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * p90, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return failed == 0 and selftest_ok, attempted, failed, metrics


def traced(args, wz, cycle) -> tuple[bool, int, int, dict]:
    design = load_design()["workloads"][args.workload]
    problems = list(cycle)
    for index in range(1, design["trace_cycles"]):
        problems.extend(make_cycle(args.workload, args.seed, index, wz))

    tracer = Tracer()
    plain, first = paired_passes(problems, tracer)
    metrics = tracer.metrics()
    counts, shapes, spans = dict(tracer.counts), dict(tracer.shapes), dict(tracer.spans)
    tracer.reset()
    second = traced_pass(problems, tracer)
    metrics_again = tracer.metrics()

    ok = True
    passes = (plain, first, second)
    failed = sum(p["failed"] for p in passes)
    if failed:
        ok = False
    if not (plain["outputs"] == first["outputs"] == second["outputs"]):
        log("TRACE: traced outputs differ from untraced outputs")
        ok = False
    drift = [n for n in EXACT_COUNTS if counts[n] != tracer.counts[n]]
    drift += [f"{layer}.{name}.calls" for layer, name, _, _ in TARGETS
              if metrics[f"{layer}.{name}.calls"] != metrics_again[f"{layer}.{name}.calls"]]
    if drift:
        log(f"DETERMINISM: counts drifted between two traced passes: {drift}")
        ok = False
    uncovered = [span for span in design["exercises"] if metrics[f"{span}.calls"][0] == 0]
    if uncovered:
        log(f"COVERAGE: expected calls but saw none: {uncovered}")
        ok = False
    for fault in tracer.faults:
        log(f"WRAPPING: {fault}")
        ok = False
    samples = {}
    for problem, out in zip(problems, plain["outputs"]):
        samples.setdefault(problem.cls, (problem, json.loads(out)))
    ok = self_test(samples) and ok

    traced_ops, plain_ops = _ops_per_s(first), _ops_per_s(plain)
    overhead = 1 - traced_ops / plain_ops
    log(f"workload {args.workload}, seed {args.seed}: traced run of {len(problems)} problems "
        f"({design['trace_cycles']} cycles), each solved untraced and traced in alternating "
        f"order, then traced again")
    log(f"outputs byte-identical across the three passes: {plain['outputs'] == first['outputs'] == second['outputs']}")
    log(f"exact counts repeat: {not drift}; expected functions all called: {not uncovered}; "
        f"every binding wrapped and restored: {not tracer.faults}")
    log(f"tracing overhead: 1 - {traced_ops:.4f} / {plain_ops:.4f} problems/s = {overhead:.4f}")
    for name in EXACT_COUNTS:
        log(f"  {name:36s} {counts[name]}")
    log("spans (span <- parent: calls, total s, self s):")
    for (span, parent), (n, total, own) in sorted(spans.items()):
        log(f"  {span:34s} <- {parent:34s} {n:9d} {total / 1e9:10.4f} {own / 1e9:10.4f}")
    baseline_report(design, shapes, plain["by_class"])

    out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    out["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return ok, sum(len(problems) for _ in passes), failed, out


def baseline_report(design: dict, shapes: dict, by_class: dict) -> None:
    """Per-call means beside the ROADMAP baseline figures (report only)."""
    log("baseline cross-check (report only; traced means include tracing overhead):")
    for entry in design["baseline"]:
        record = shapes.get((entry["span"], entry["shape"]))
        traced_ms = f"{1000 * record[1] / 1e9 / record[0]:.2f} ms over {record[0]} calls" if record else "not run"
        times = by_class.get(entry["class"], [])
        plain_ms = f"{1000 * statistics.fmean(times):.2f} ms per {entry['class']} problem" if times else "-"
        log(f"  {entry['operation']}: ROADMAP {entry['roadmap']}; traced {traced_ms}; "
            f"untraced {plain_ms}; inputs: {entry['inputs']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        wz, cycle = setup(args.workload, args.seed)
    except (ImportError, OSError) as exc:
        log(f"cannot import wittzeta from {SRC}: {exc}")
        return 2
    setups = [time.perf_counter() - _START]
    speed = Speedometer()
    scaled = [setups[0] * speed.factor_now()]
    for _ in range(SETUP_REPEATS - 1):
        start = time.perf_counter()
        wz, cycle = setup(args.workload, args.seed)
        setups.append(time.perf_counter() - start)
        scaled.append(setups[-1] * speed.factor_now())
    setup_s = statistics.median(scaled)

    if args.trace:
        correct, attempted, failed, metrics = traced(args, wz, cycle)
    else:
        correct, attempted, failed, metrics = end_to_end(args, wz, cycle, speed, setup_s,
                                                         statistics.median(setups))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
