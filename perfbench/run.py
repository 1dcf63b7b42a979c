"""jetcert benchmark: one closed-loop client, one process, no extra threads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fermat-c5 --seed 1 --seconds 38 --trace 0

The run repeats the workload's request list (a "pass") until ``--seconds``
have elapsed, checks every answer, prints a table and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, and writes the
spans to ``.perfbench_spans/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fermat-c5", "controls-nullspace", "calculators")
SETUP_RUNS = 11
# A fresh interpreter up to ``import jetcert.cli`` done and the preset loaded.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import jetcert.cli as cli; "
    "sys.argv[1] and cli.load_conics(sys.argv[1]); print('ready', flush=True)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Put the checkout's ``src`` first on the path and import jetcert from
    it; refuse to run against any other copy."""
    src = ROOT / "src"
    if not (src / "jetcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no jetcert sources under {src}")
    sys.path.insert(0, str(src))
    import jetcert

    if Path(jetcert.__file__).resolve().parent != (src / "jetcert").resolve():
        raise SystemExit(f"error: imported jetcert from {jetcert.__file__}, not {src}")


def measure_setup(preset: str) -> float:
    """Median over ``SETUP_RUNS`` fresh interpreters of the time from spawn
    to the child's ready line."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, preset],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.close()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise SystemExit("error: set-up child failed")
        times.append(elapsed)
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(executor, requests, problems: list[str]) -> list[float | None]:
    """One pass over the request list: the latency of each request, None
    where it raised; every failure is appended to ``problems``."""
    latencies = []
    for req in requests:
        latency, issues = executor.execute(req)
        latencies.append(latency)
        if issues:
            problems.append(f"{req.key}: " + "; ".join(issues))
    return latencies


def repeat(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while the next call, at the
    median duration so far, still ends within ``seconds``."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def end_to_end(args, wl, requests, executor, problems) -> tuple[dict, int, list[str]]:
    preset = requests[0].args[0] if requests[0].kind in ("certify", "control") else ""
    setup_s = measure_setup(preset)
    executor.execute(wl.smallest_request(args.workload))  # warm-up, not counted
    passes: list[list[float | None]] = []
    repeat(args.seconds, lambda: passes.append(run_pass(executor, requests, problems)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # A request that raised in every pass counts as 0 s; such a run is not correct anyway.
    per_request = [[p[i] for p in passes if p[i] is not None] or [0.0] for i in range(len(requests))]
    largest = wl.is_largest(args.workload)
    largest_lat = [lat for req, lats in zip(requests, per_request) if largest(req) for lat in lats]
    typical = [statistics.median(lats) for lats in per_request]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(typical), "s"),
        "largest_s": (statistics.median(largest_lat), "s"),
        "latency_ms.p50": (1000 * percentile(typical, 50), "ms"),
        "latency_ms.p99": (1000 * percentile(typical, 99), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"passes: {len(passes)} of {len(requests)} requests; latency percentiles over "
        f"{len(typical)} per-request medians of {len(passes)} samples each; "
        f"largest_s samples: {len(largest_lat)}; setup_s: median of {SETUP_RUNS} fresh interpreters",
    ]
    return metrics, len(passes) * len(requests), notes


def per_layer(args, wl, tr, requests, executor, problems) -> tuple[dict, int, list[str]]:
    spans_dir = ROOT / ".perfbench_spans"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    executor.execute(wl.smallest_request(args.workload))  # warm-up, not counted
    parallel = args.workload == "fermat-c5"
    untraced_walls: list[float] = []
    rounds: list[dict] = []
    small_systems: dict = {}
    start = time.perf_counter()

    def one_round():
        untraced_walls.append(sum(lat or 0.0 for lat in run_pass(executor, requests, problems)))
        traced = tr.TracedPass(executor.reference, executor.workdir, parallel_check=parallel)
        traced.run(requests)
        problems.extend(traced.problems)
        small_systems.update(traced.systems)
        traced.tracer.dump(str(spans_path), start, len(rounds))
        rounds.append(traced.metrics())

    repeat(args.seconds, one_round)
    problems.extend(tr.dense_cross_check(small_systems))
    metrics = {}
    for name, (unit, _moves) in tr.LAYER_METRICS.items():
        if name != "trace.overhead_s":
            # Counts repeat exactly from round to round; times are medians.
            values = [r[name] for r in rounds]
            metrics[name] = (values[-1] if unit == "count" else statistics.median(values), unit)
    metrics["trace.overhead_s"] = (
        metrics["trace.traced_wall_s"][0] - statistics.median(untraced_walls), "s")
    metrics = {name: metrics[name] for name in tr.LAYER_METRICS}
    notes = [f"rounds: {len(rounds)}, each one untraced and one traced pass; spans: {spans_path.relative_to(ROOT)}"]
    if parallel:
        notes.append(f"[parallel] metrics: {tr.PARALLEL_WORKERS} threads on {os.cpu_count()} cores")
    return metrics, 2 * len(rounds) * len(requests), notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as wl

    reference = wl.load_reference()
    requests = wl.build_requests(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    problems: list[str] = []
    try:
        executor = wl.Executor(reference, workdir)
        if args.trace:
            import traced as tr

            metrics, attempted, notes = per_layer(args, wl, tr, requests, executor, problems)
        else:
            metrics, attempted, notes = end_to_end(args, wl, requests, executor, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(problems)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    print(f"  {'failed_frac':32s} {failed / attempted:16.6f} fraction ({failed} of {attempted})")
    for line in notes + problems:
        print(f"  {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
