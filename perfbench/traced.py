"""The traced run: each request replayed through the layers' public calls,
with a span around every call.

The replay follows the order of ``jetcert.linsys.assemble`` and
``jetcert.cli.run_verify``.  A span records its name, start, end, parent and
request id; spans stay in memory until the run writes them out.  A span's
self time is its duration minus the time its child spans cover.  Per-layer
times are summed over one pass of the workload's request list; counts are
taken from the public results (``JetExpansion.blocks``, the assembled
``LinearSystem`` and the elimination result).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from jetcert import cli, gflinalg, linsys
from jetcert.conics import chart_data, is_coordinate_triangle, jacobian_cubic
from jetcert.jets import AnsatzSpace, expand_ansatz, obstruction_rows

import workloads as wl

ROOT = "cli.request"
PARALLEL_ROOT = "cli.request[parallel]"
PROBE = "probe.rank_nullity"
PARALLEL_WORKERS = 4
CHART_IDS = sorted(cli.parse_charts(wl.CHARTS))

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
LAYER_METRICS = {
    "jets.expand_s": ("s", "wall_s, largest_s: fermat-c5 (~70% of a pass), controls-nullspace (~35%)"),
    "jets.rows_s": ("s", "wall_s: fermat-c5"),
    "jets.rows_raw": ("count", "wall_s: fermat-c5"),
    "jets.expand_parallel_s": ("s", "none; the --parallel path, 4 threads, fermat-c5 only"),
    "polynomials.block_terms": ("count", "wall_s: fermat-c5"),
    "polynomials.block_terms_max": ("count", "largest_s: fermat-c5"),
    "conics.chart_data_s": ("s", "setup_s scale only; expected negligible"),
    "linsys.merge_s": ("s", "wall_s: fermat-c5"),
    "linsys.rows_dedup": ("count", "wall_s: fermat-c5"),
    "linsys.dedup_ratio": ("ratio", "wall_s: fermat-c5 (deduplicated rows over linsys raw rows)"),
    "linsys.checksum_s": ("s", "wall_s: all certification workloads"),
    "linsys.sms_write_s": ("s", "wall_s: controls-nullspace"),
    "linsys.sms_read_s": ("s", "wall_s: controls-nullspace"),
    "linsys.sms_bytes": ("count", "wall_s: controls-nullspace"),
    "gflinalg.eliminate_s": ("s", "wall_s, largest_s, peak_rss_mb: fermat-c5"),
    "gflinalg.nnz": ("count", "wall_s, largest_s, peak_rss_mb: fermat-c5"),
    "gflinalg.rank": ("count", "wall_s, largest_s, peak_rss_mb: fermat-c5"),
    "gflinalg.backsub_s": ("s", "wall_s: controls-nullspace"),
    "gflinalg.verify_s": ("s", "wall_s: controls-nullspace"),
    "gflinalg.eliminate_parallel_s": ("s", "none; the --parallel path, 4 threads, fermat-c5 only"),
    "thresholds.report_s": ("s", "latency_ms.p50, latency_ms.p99: calculators"),
    "thresholds.enumerate_s": ("s", "latency_ms.p50, latency_ms.p99: calculators"),
    "thresholds.tower_s": ("s", "latency_ms.p50, latency_ms.p99: calculators"),
    "cli.residual_s": ("s", "wall_s: fermat-c5"),
    "trace.traced_wall_s": ("s", "base of trace.overhead_s and trace.coverage"),
    "trace.overhead_s": ("s", "none; traced wall_s minus untraced wall_s"),
    "trace.coverage": ("ratio", "none; layer self time over traced wall_s"),
}

# Span names whose self time makes up each per-layer time metric.
TIME_SPANS = {
    "jets.expand_s": ("jets.expand_ansatz",),
    "jets.rows_s": ("jets.obstruction_rows",),
    "jets.expand_parallel_s": ("jets.expand_ansatz[parallel]",),
    "conics.chart_data_s": ("conics.chart_data",),
    "linsys.merge_s": ("linsys.merge_rows",),
    "linsys.checksum_s": ("linsys.sms_checksum",),
    "linsys.sms_write_s": ("linsys.write_sms",),
    "linsys.sms_read_s": ("linsys.read_sms",),
    "gflinalg.eliminate_s": ("gflinalg.nullspace_basis", "gflinalg.nullspace_basis[readback]"),
    "gflinalg.verify_s": ("gflinalg.verify_solution",),
    "gflinalg.eliminate_parallel_s": ("gflinalg.nullspace_basis[parallel]",),
    "thresholds.report_s": ("thresholds.build_threshold_report",),
    "thresholds.enumerate_s": ("thresholds.exceptional_pairs",),
    "thresholds.tower_s": ("thresholds.z_cube_intersection",),
    "cli.residual_s": (ROOT,),
}

CALC_SPANS = {
    "report": "thresholds.build_threshold_report",
    "enumerate": "thresholds.exceptional_pairs",
    "tower": "thresholds.z_cube_intersection",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded client."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, request))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def root_of(self, index: int) -> str:
        while self.spans[index].parent is not None:
            index = self.spans[index].parent
        return self.spans[index].name

    def dump(self, path: str, offset: float, pass_index: int) -> None:
        """Append the spans as JSON lines, times relative to ``offset``."""
        with open(path, "a", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "pass": pass_index, "name": s.name, "request": s.request,
                    "parent": s.parent, "start": s.start - offset, "end": s.end - offset,
                }) + "\n")


@dataclass
class Replay:
    """What a traced certification replay hands back for checks and counts."""

    report: dict
    exit_code: int
    system: linsys.LinearSystem
    outcome: gflinalg.EliminationResult
    block_terms: int


def replay_verify(tr: Tracer, rid: int, preset: str, m: int, t: int, *,
                  parallel: bool = False, export: str | None = None) -> Replay:
    """``cli.run_verify`` step by step, one span per layer call."""
    tag = "[parallel]" if parallel else ""
    triple = cli.load_conics(preset)
    with tr.span("conics.jacobian_cubic", rid):
        monomial = is_coordinate_triangle(jacobian_cubic(triple))
    with tr.span("jets.ansatz_space", rid):
        space = AnsatzSpace.build(m, t)
    rows, terms = [], 0
    for chart in CHART_IDS:
        with tr.span("conics.chart_data", rid):
            data = chart_data(triple, chart, modulus=wl.PRIME)
        with tr.span("jets.expand_ansatz" + tag, rid):
            expansion = expand_ansatz(data, space, parallel=parallel)
        with tr.span("jets.obstruction_rows" + tag, rid):
            rows.extend(obstruction_rows(expansion, wl.PRIME, parallel=parallel))
        # Counted here so that, as in assemble, only one expansion is alive.
        terms += sum(len(poly.terms) for slots in expansion.blocks.values() for poly in slots.values())
        del expansion
    with tr.span("linsys.merge_rows", rid):
        system = linsys.merge_rows(rows, wl.PRIME, space.n_vars, space)
    with tr.span("gflinalg.nullspace_basis" + tag, rid):
        outcome = gflinalg.nullspace_basis(system, workers=PARALLEL_WORKERS if parallel else 0)
    if system.n_vars == 0:
        verdict = "vacuous"
    elif outcome.nullity == 0:
        verdict = "vanishing-certified"
    else:
        verdict = "nontrivial-nullspace"
    with tr.span("linsys.sms_checksum", rid):
        checksum = linsys.sms_checksum(system)
    result = cli.VanishingVerdict(
        params={"conics": preset, "m": m, "t": t, "prime": wl.PRIME,
                "charts": CHART_IDS, "parallel": parallel,
                "jacobian_monomial": monomial},
        counts={"n_vars": system.n_vars, "n_rows_raw": system.n_rows_raw,
                "n_rows_dedup": system.n_rows},
        result={"rank": outcome.rank, "nullity": outcome.nullity, "verdict": verdict},
        checksum=checksum,
        timings={},
    )
    if export:
        with tr.span("linsys.write_sms", rid):
            linsys.write_sms(system, export)
    report = result.as_dict()
    json.dumps(report, sort_keys=True, indent=2)  # the report rendering run_verify's caller prints
    return Replay(report, result.exit_code, system, outcome, terms)


class TracedPass:
    """One traced pass over a request list, with its checks and counts."""

    def __init__(self, reference: dict, workdir: str, parallel_check: bool):
        self.reference = reference
        self.workdir = workdir
        self.parallel_check = parallel_check
        self.tracer = Tracer()
        self.counts = {"jets.rows_raw": 0, "linsys.rows_dedup": 0, "gflinalg.nnz": 0,
                       "gflinalg.rank": 0, "linsys.sms_bytes": 0,
                       "polynomials.block_terms": 0, "polynomials.block_terms_max": 0}
        self.backsub = 0.0
        self.systems: dict[str, tuple[linsys.LinearSystem, int, int]] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def run(self, requests: list[wl.Request]) -> None:
        for rid, req in enumerate(requests):
            self.attempted += 1
            try:
                problems = self._request(rid, req)
            except Exception as exc:  # a raising request is a failed request
                problems = [f"{req.key} raised {type(exc).__name__}: {exc}"]
            if problems:
                self.problems.append(f"{req.key}: " + "; ".join(problems))

    def _count(self, replay: Replay) -> None:
        system = replay.system
        self.counts["jets.rows_raw"] += system.n_rows_raw
        self.counts["linsys.rows_dedup"] += system.n_rows
        self.counts["gflinalg.nnz"] += sum(len(row) for row in system.rows)
        self.counts["gflinalg.rank"] += replay.outcome.rank
        self.counts["polynomials.block_terms"] += replay.block_terms
        self.counts["polynomials.block_terms_max"] = max(
            self.counts["polynomials.block_terms_max"], replay.block_terms)

    def _request(self, rid: int, req: wl.Request) -> list[str]:
        tr = self.tracer
        if req.kind in CALC_SPANS:
            with tr.span(ROOT, rid):
                with tr.span(CALC_SPANS[req.kind], rid):
                    answer = wl.run_calculator(req)
            return wl.check_calculator(req, answer, self.reference["calculators"])
        preset, m, t = req.args
        expected = self.reference["certification"][wl.certification_key(preset, m, t)]
        if req.kind == "certify":
            with tr.span(ROOT, rid):
                replay = replay_verify(tr, rid, preset, m, t)
            self._count(replay)
            self._keep_small(req, replay)
            problems = wl.check_certification(replay.report, replay.exit_code, expected)
            if self.parallel_check:
                problems += self._parallel(rid, req, replay)
            return problems
        path = os.path.join(self.workdir, f"traced_{preset}_{m}_{t}.sms")
        with tr.span(ROOT, rid):
            replay = replay_verify(tr, rid, preset, m, t, export=path)
            with tr.span("linsys.read_sms", rid):
                system = linsys.read_sms(path, wl.PRIME)
            with tr.span("gflinalg.nullspace_basis[readback]", rid) as with_basis:
                outcome = gflinalg.nullspace_basis(system)
            with tr.span("gflinalg.verify_solution", rid):
                annihilates = [gflinalg.verify_solution(system, vec) for vec in outcome.basis]
        # Back-substitution time: the same system's elimination alone,
        # measured outside the request so it stays out of the traced wall.
        with tr.span(PROBE, rid) as without_basis:
            gflinalg.rank_nullity(system)
        self.backsub += with_basis.duration - without_basis.duration
        self._count(replay)
        self._keep_small(req, replay)
        self.counts["linsys.sms_bytes"] += os.path.getsize(path)
        problems = wl.check_control(
            replay.report, replay.exit_code, expected, wl.sha256_file(path),
            system, outcome.basis, annihilates, AnsatzSpace.build(m, t),
        )
        os.remove(path)
        return problems

    def _keep_small(self, req: wl.Request, replay: Replay) -> None:
        if replay.system.n_vars <= gflinalg.DENSE_LIMIT:
            self.systems[req.key] = (replay.system, replay.outcome.rank, replay.outcome.nullity)

    def _parallel(self, rid: int, req: wl.Request, serial: Replay) -> list[str]:
        """The threaded path: the checksum and rank must match the serial run."""
        with self.tracer.span(PARALLEL_ROOT, rid):
            threaded = replay_verify(self.tracer, rid, *req.args, parallel=True)
        problems = []
        if threaded.report["checksum"] != serial.report["checksum"]:
            problems.append("parallel checksum differs from the serial run")
        if threaded.outcome.rank != serial.outcome.rank:
            problems.append("parallel rank differs from the serial run")
        return problems

    def metrics(self) -> dict[str, float]:
        """Per-layer times (self time summed by name) and counts of this pass."""
        own = self.tracer.self_times()
        by_name: dict[str, float] = {}
        wall = layer = 0.0
        for index, s in enumerate(self.tracer.spans):
            root = self.tracer.root_of(index)
            # Spans of the threaded replay count only in the [parallel] metrics.
            if root == ROOT or s.name.endswith("[parallel]"):
                by_name[s.name] = by_name.get(s.name, 0.0) + own[index]
            if s.name == ROOT:
                wall += s.duration
            elif root == ROOT:
                layer += own[index]
        out = {name: sum(by_name.get(span, 0.0) for span in spans) for name, spans in TIME_SPANS.items()}
        out["gflinalg.backsub_s"] = self.backsub
        out.update(self.counts)
        raw = self.counts["jets.rows_raw"]
        out["linsys.dedup_ratio"] = self.counts["linsys.rows_dedup"] / raw if raw else 0.0
        out["trace.traced_wall_s"] = wall
        out["trace.coverage"] = layer / wall if wall else 0.0
        return out


def dense_cross_check(systems: dict[str, tuple[linsys.LinearSystem, int, int]]) -> list[str]:
    """Rank and nullity of every small system against the dense oracle."""
    problems = []
    for key, (system, rank, nullity) in sorted(systems.items()):
        if gflinalg.dense_rank_nullity(system) != (rank, nullity):
            problems.append(f"{key}: sparse rank/nullity disagree with the dense oracle")
    return problems
