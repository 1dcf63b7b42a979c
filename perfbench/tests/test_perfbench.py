"""The benchmark's own tests: the answer checks fail closed, every workload
runs at its smallest request, and the output keeps to BENCHMARK.json.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jetcert.gflinalg
import run
import traced as tr
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


def run_one(reference, workdir, req):
    return wl.Executor(reference, str(workdir)).execute(req)


# -- the checks fail closed -------------------------------------------------------------


def test_tampered_checksum_fails(reference, tmp_path):
    tampered = copy.deepcopy(reference)
    entry = tampered["certification"]["fermat:3:3"]
    entry["checksum"] = entry["checksum"][::-1]
    latency, problems = run_one(tampered, tmp_path, wl.Request("certify", ("fermat", 3, 3)))
    assert latency is not None and problems


def test_wrong_nullity_fails(reference, tmp_path):
    tampered = copy.deepcopy(reference)
    tampered["certification"]["fermat:3:0"]["result"]["nullity"] += 1
    _, problems = run_one(tampered, tmp_path, wl.Request("control", ("fermat", 3, 0)))
    assert any("nullity" in p for p in problems)


def test_non_annihilating_basis_vector_fails(reference, tmp_path, monkeypatch):
    real = jetcert.gflinalg.nullspace_basis

    def corrupted(system, **kwargs):
        outcome = real(system, **kwargs)
        first = dict(outcome.basis[0])
        col = next(c for c in range(system.n_vars) if c not in first)
        first[col] = 1
        return dataclasses.replace(outcome, basis=(first,) + outcome.basis[1:])

    monkeypatch.setattr(jetcert.gflinalg, "nullspace_basis", corrupted)
    _, problems = run_one(reference, tmp_path, wl.Request("control", ("fermat", 3, 0)))
    assert any("not annihilated" in p for p in problems)


def test_raising_request_fails(reference, tmp_path):
    latency, problems = run_one(reference, tmp_path, wl.Request("certify", ("no-such-preset", 3, 3)))
    assert latency is None and problems


@pytest.mark.parametrize(
    "req, answer",
    [
        (wl.Request("tower", (4, 2, Fraction(1, 2), 1)), Fraction(0)),
        (wl.Request("enumerate", (Fraction(5), 20)), [(3, 3), (4, 3)]),
    ],
)
def test_wrong_calculator_answers_fail(reference, req, answer):
    assert wl.check_calculator(req, answer, reference["calculators"])


def test_wrong_threshold_report_fails(reference):
    req = wl.Request("report", ((3, 2, 2), 5, 4))
    good = wl.run_calculator(req)
    assert wl.check_calculator(req, good, reference["calculators"]) == []
    bad = copy.deepcopy(good)
    bad["one_jet"]["delta1"]["coefficient"] = "1/12"
    assert wl.check_calculator(req, bad, reference["calculators"])
    bad = copy.deepcopy(good)
    bad["tau"]["tau1"]["decimal"] = "0.25"
    assert wl.check_calculator(req, bad, reference["calculators"])


def test_root_check_is_exact():
    # delta1(3,2,2) = (6 - sqrt 33)/12 is a root of 16x^2 - 16x + 1/3; its
    # neighbours in value and in rendering are not accepted.
    root = {"rational": "1/2", "coefficient": "-1/12", "radicand": 33,
            "decimal": "0.0212864461218309450124490443151"}
    quadratic = (Fraction(16), Fraction(-16), Fraction(1, 3))
    assert wl.is_root(root, *quadratic)
    assert not wl.is_root({**root, "coefficient": "-1/11"}, *quadratic)
    assert not wl.is_root({**root, "decimal": "0.0212864461218309460124490443151"}, *quadratic)


# -- smoke runs at the smallest request ---------------------------------------------------


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smallest_request_untraced(reference, tmp_path, workload):
    latency, problems = run_one(reference, tmp_path, wl.smallest_request(workload))
    assert problems == [] and latency > 0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smallest_request_traced(reference, tmp_path, workload):
    traced = tr.TracedPass(reference, str(tmp_path), parallel_check=workload == "fermat-c5")
    traced.run([wl.smallest_request(workload)])
    assert traced.problems == []
    assert tr.dense_cross_check(traced.systems) == []
    metrics = traced.metrics()
    assert set(metrics) == set(tr.LAYER_METRICS) - {"trace.overhead_s"}
    assert 0 < metrics["trace.coverage"] <= 1


def test_calculator_requests_stay_in_the_pinned_domain(reference, tmp_path):
    executor = wl.Executor(reference, str(tmp_path))
    for req in wl.calculator_requests(random.Random(7), count=300):
        assert executor.execute(req)[1] == []


def test_seed_sets_order_and_mix():
    assert wl.build_requests("fermat-c5", 1) == wl.build_requests("fermat-c5", 1)
    assert sorted(wl.build_requests("fermat-c5", 1), key=str) == sorted(wl.build_requests("fermat-c5", 2), key=str)
    assert wl.build_requests("calculators", 1) != wl.build_requests("calculators", 2)
    assert len(wl.build_requests("calculators", 3)) >= 1000


def test_self_time_subtracts_children():
    tracer = tr.Tracer()
    with tracer.span("outer", 0):
        with tracer.span("inner", 0):
            sum(range(10000))
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert own[1] == pytest.approx(inner.end - inner.start)
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


# -- the command line keeps to BENCHMARK.json -----------------------------------------------


def test_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {name: unit for name, (unit, _) in tr.LAYER_METRICS.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_command_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calculators", "--seed", "5",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1000
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fermat-c5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
