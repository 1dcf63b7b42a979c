"""Workloads, request execution and answer checking for the jetcert benchmark.

Every request goes through a public entry point of jetcert and every answer
is checked: certification requests against the pinned reference in
``reference.json`` (generated by ``make_reference.py``, cross-checked there
against the dense elimination oracle), calculator requests against the
pinned reference and against independent recomputations and the published
values.  A request that raises, exits with the wrong code or disagrees with
any check counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable

from jetcert import cli, gflinalg, linsys, thresholds
from jetcert.jets import AnsatzSpace, wronskian_solution_vector

PRIME = 5
CHARTS = "z0,z2"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Every request stays near or under a second, so that a run holds dozens
# of samples of each; hence the c = 5 exceptional pairs capped at m <= 5
# ((6, 5) takes about 2 s).
FERMAT_C5 = ((3, 3), (4, 3), (5, 4))
# Untwisted controls with nullity 17, 40 and 75.
CONTROLS = ((3, 0), (4, 0), (5, 0))

WORKLOADS = ("fermat-c5", "controls-nullspace", "calculators")

# Published values (README / acceptance gate).
PUBLISHED_PAIRS = {
    (Fraction(5), 20): [
        (3, 3), (4, 3), (5, 4), (6, 5), (7, 5), (8, 6),
        (9, 7), (10, 7), (11, 8), (12, 9), (13, 9),
    ],
    (Fraction(19), 20): [(3, 3), (4, 4), (5, 5), (6, 6), (7, 7)],
}
PUBLISHED_DELTA1_322 = (Fraction(1, 2), Fraction(-1, 12), 33)  # (6 - sqrt 33)/12
PUBLISHED_TWO_JET_LOWER = (Fraction(4, 9), Fraction(-1, 9), 10)  # (4 - sqrt 10)/9

# The calculator request domain; make_reference.py pins every point of it.
CALC_REQUESTS = 2000
MAX_DEGREE = 6
TAU_M_MAX = 20
ENUM_M_MAX = 40
# c = 2, 5/2, 3, ..., 20, all above the enumerator's minimum (3 + sqrt 6)/3.
ENUM_CONSTANTS = tuple(Fraction(k, 2) for k in range(4, 41))
TOWER_M_MAX = 12


@dataclass(frozen=True)
class Request:
    """One request: ``kind`` selects the entry point, ``args`` its inputs."""

    kind: str  # certify | control | report | enumerate | tower
    args: tuple

    @property
    def key(self) -> str:
        return f"{self.kind}:" + ":".join(str(a) for a in self.args)


def certification_key(preset: str, m: int, t: int) -> str:
    return f"{preset}:{m}:{t}"


def degree_triples() -> list[tuple[int, int, int]]:
    """Sorted degree triples of the domain; (1, 1, 1) has total degree 3,
    which the threshold quadratic rejects, so it is left out."""
    return [
        (d1, d2, d3)
        for d1 in range(1, MAX_DEGREE + 1)
        for d2 in range(1, d1 + 1)
        for d3 in range(1, d2 + 1)
        if d1 + d2 + d3 != 3
    ]


def build_requests(workload: str, seed: int) -> list[Request]:
    """The request list of a workload.  The seed shuffles the order of the
    certification workloads and draws the request mix of ``calculators``."""
    rng = random.Random(seed)
    if workload == "fermat-c5":
        reqs = [Request("certify", ("fermat", m, t)) for m, t in FERMAT_C5]
    elif workload == "controls-nullspace":
        reqs = [Request("control", ("fermat", m, t)) for m, t in CONTROLS]
    elif workload == "calculators":
        return calculator_requests(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def calculator_requests(rng: random.Random, count: int = CALC_REQUESTS) -> list[Request]:
    # The published instances always run, so their checks always apply.
    reqs = [
        Request("enumerate", (Fraction(5), 20)),
        Request("enumerate", (Fraction(19), 20)),
        Request("report", ((3, 2, 2), 5, 4)),
    ]
    triples = degree_triples()
    while len(reqs) < count:
        draw = rng.random()
        if draw < 0.5:
            degrees = rng.choice(triples) if rng.random() < 0.75 else None
            m = t = None
            if degrees is None or rng.random() < 0.5:
                m = rng.randint(1, TAU_M_MAX)
                t = rng.randint(0, 3 * m)
            reqs.append(Request("report", (degrees, m, t)))
        elif draw < 0.75:
            reqs.append(Request("enumerate", (rng.choice(ENUM_CONSTANTS), rng.randint(3, ENUM_M_MAX))))
        else:
            m = rng.randint(1, TOWER_M_MAX)
            b1 = rng.randint(0, m)
            tau = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
            reqs.append(Request("tower", (m, rng.randint(0, m), tau, b1)))
    return reqs


def smallest_request(workload: str) -> Request:
    """The cheapest request of a workload (warm-up and smoke runs)."""
    if workload == "fermat-c5":
        return Request("certify", ("fermat", *FERMAT_C5[0]))
    if workload == "controls-nullspace":
        return Request("control", ("fermat", *CONTROLS[0]))
    return Request("tower", (1, 0, Fraction(0), 0))


def is_largest(workload: str) -> Callable[[Request], bool]:
    """Which requests ``largest_s`` follows: the certification request with
    the most unknowns, or on ``calculators`` every tower pairing, the
    slowest calculator kind (about 1.3 ms against 0.2 ms for the others)."""
    if workload == "calculators":
        return lambda req: req.kind == "tower"
    pairs = {"fermat-c5": FERMAT_C5, "controls-nullspace": CONTROLS}
    top = max(pairs[workload], key=lambda mt: AnsatzSpace.build(*mt).n_vars)
    return lambda req: req.args[1:] == top


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def digest(obj) -> str:
    """Short stable digest of a JSON-serializable answer."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- certification --------------------------------------------------------------------


def verify_argv(preset: str, m: int, t: int, export: str | None = None) -> list[str]:
    argv = ["verify", "--conics", preset, "--m", str(m), "--t", str(t),
            "--prime", str(PRIME), "--charts", CHARTS]
    if export:
        argv += ["--export-matrix", export]
    return argv


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``jetcert.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def check_certification(report: dict, exit_code: int, expected: dict) -> list[str]:
    """Compare a ``verify`` report with its pinned reference entry."""
    problems = []
    if exit_code != expected["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit_code']}")
    for section in ("params", "counts", "result"):
        if report.get(section) != expected[section]:
            problems.append(f"{section} {report.get(section)} != {expected[section]}")
    if report.get("checksum") != expected["checksum"]:
        problems.append("checksum differs from the reference")
    return problems


def check_control(
    report: dict,
    exit_code: int,
    expected: dict,
    sms_sha256: str,
    system: linsys.LinearSystem,
    basis: tuple[dict[int, int], ...],
    annihilates: list[bool],
    space: AnsatzSpace,
) -> list[str]:
    """Checks of one nullspace-control request beyond the report itself:
    the exported file hashes to the checksum, the read-back system has the
    pinned shape, the basis has the pinned size, is independent and is
    annihilated by every row, and at (3, 0) it spans the Wronskian section."""
    problems = check_certification(report, exit_code, expected)
    if sms_sha256 != report.get("checksum"):
        problems.append("SMS file SHA-256 differs from the report checksum")
    if (system.n_rows, system.n_vars) != (expected["counts"]["n_rows_dedup"], expected["counts"]["n_vars"]):
        problems.append("read-back system has the wrong shape")
    nullity = expected["result"]["nullity"]
    if len(basis) != nullity:
        problems.append(f"basis has {len(basis)} vectors, expected nullity {nullity}")
    if not all(annihilates) or len(annihilates) != len(basis):
        problems.append("a basis vector is not annihilated by the system")
    rows = tuple(tuple(sorted((c, v % PRIME) for c, v in vec.items() if v % PRIME)) for vec in basis)
    span = linsys.LinearSystem(prime=PRIME, n_vars=system.n_vars, rows=rows)
    if gflinalg.rank_nullity(span).rank != len(basis):
        problems.append("basis vectors are linearly dependent")
    if (space.m, space.t) == (3, 0) and basis:
        if not gflinalg.in_row_span(system, basis, wronskian_solution_vector(space)):
            problems.append("the Wronskian section is outside the nullspace")
    return problems


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# -- calculators ------------------------------------------------------------------------


def _quad(entry: dict) -> tuple[Fraction, Fraction, int]:
    return Fraction(entry["rational"]), Fraction(entry["coefficient"]), int(entry["radicand"])


def is_root(entry: dict, a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Whether the rendered ``u + v*sqrt(r)`` is a root of ``a x^2 + b x + c``,
    in exact arithmetic, and its decimal rendering agrees to 25 digits."""
    u, v, r = _quad(entry)
    if r == 0 or v == 0:
        rational, irrational = a * u * u + b * u + c, Fraction(0)
    else:
        if isqrt(r) ** 2 == r:
            return False  # the radicand must be folded square-free
        rational = a * (u * u + v * v * r) + b * u + c
        irrational = 2 * a * u * v + b * v
    if rational or irrational:
        return False
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(u.numerator) / Decimal(u.denominator)
        if r and v:
            exact += Decimal(v.numerator) / Decimal(v.denominator) * Decimal(r).sqrt()
        return abs(exact - Decimal(entry["decimal"])) < Decimal("1e-25")


def check_report(args: tuple, out: dict, ref: dict) -> list[str]:
    degrees, m, t = args
    problems = []
    if digest(out["two_jet"]) != ref["two_jet"]:
        problems.append("two_jet differs from the reference")
    lower = out["two_jet"]["lower_root"]
    if _quad(lower) != PUBLISHED_TWO_JET_LOWER or not is_root(lower, Fraction(54), Fraction(-48), Fraction(4)):
        problems.append("two-jet lower root is not (4 - sqrt 10)/9")
    if degrees is None:
        if "one_jet" in out:
            problems.append("unexpected one_jet block")
    else:
        one = out.get("one_jet")
        key = ",".join(map(str, degrees))
        if one is None or digest(one) != ref["one_jet"][key]:
            problems.append(f"one_jet {key} differs from the reference")
        elif not one["negative_radicand"]:
            d = sum(degrees)
            pair_sum = degrees[0] * degrees[1] + degrees[1] * degrees[2] + degrees[2] * degrees[0]
            lead = Fraction((d - 3) ** 2)
            const = Fraction(pair_sum, 3) - d + 2
            if not (is_root(one["delta1"], lead, -lead, const) and is_root(one["delta2"], lead, -lead, const)):
                problems.append(f"delta roots of {key} fail the 1-jet quadratic")
            if tuple(degrees) == (3, 2, 2) and _quad(one["delta1"]) != PUBLISHED_DELTA1_322:
                problems.append("delta1(3,2,2) is not (6 - sqrt 33)/12")
    if m is None:
        if "tau" in out:
            problems.append("unexpected tau block")
    else:
        tau = out.get("tau")
        key = f"{m},{t}"
        if tau is None or digest(tau) != ref["tau"][key]:
            problems.append(f"tau {key} differs from the reference")
        elif not all(
            is_root(tau[name], Fraction(m), Fraction(-3 * (4 * m - t)), Fraction(12 * (m - t)))
            for name in ("tau1", "tau2")
        ):
            problems.append(f"tau roots of {key} fail the self-intersection quadratic")
    return problems


def expected_pairs(c: Fraction, m_max: int) -> list[tuple[int, int]]:
    """The exceptional pairs recomputed from their definition: for each
    weight m >= 3 the least twist t >= 1 with g(c)*m <= t, kept when
    t < m/c + 7, with g(c) = 2(3c^2 - 6c + 1) / (3c(2c - 1))."""
    slope = 2 * (3 * c * c - 6 * c + 1) / (3 * c * (2 * c - 1))
    pairs = []
    for m in range(3, m_max + 1):
        t = max(1, -(-(slope * m).numerator // (slope * m).denominator))
        if t < Fraction(m) / c + 7:
            pairs.append((m, t))
    return pairs


def check_enumerate(args: tuple, pairs: list, ref: dict) -> list[str]:
    c, m_max = args
    got = [tuple(p) for p in pairs]
    problems = []
    pinned = [tuple(p) for p in ref["enumerate"][str(c)] if p[0] <= m_max]
    if got != pinned:
        problems.append(f"pairs for c={c}, m_max={m_max} differ from the reference")
    if got != expected_pairs(c, m_max):
        problems.append(f"pairs for c={c}, m_max={m_max} differ from the definition")
    published = PUBLISHED_PAIRS.get((c, m_max))
    if published is not None and got != published:
        problems.append(f"pairs for c={c} differ from the published list")
    return problems


def check_tower(args: tuple, value) -> list[str]:
    m, t, tau, _b1 = args
    closed = 3 * (m * tau**2 - 3 * (4 * m - t) * tau + 12 * (m - t))
    return [] if value == closed else [f"z^3 pairing {value} != closed form {closed}"]


def run_calculator(req: Request):
    """The public thresholds call behind a calculator request."""
    if req.kind == "report":
        degrees, m, t = req.args
        return thresholds.build_threshold_report(degrees=degrees, m=m, t=t).as_dict()
    if req.kind == "enumerate":
        return thresholds.exceptional_pairs(*req.args)
    m, t, tau, b1 = req.args
    return thresholds.z_cube_intersection(m, t, tau, b1, m - b1)


def check_calculator(req: Request, answer, ref: dict) -> list[str]:
    if req.kind == "report":
        return check_report(req.args, answer, ref)
    if req.kind == "enumerate":
        return check_enumerate(req.args, answer, ref)
    return check_tower(req.args, answer)


# -- untraced execution ------------------------------------------------------------------


class Executor:
    """Runs requests the way a closed-loop client would and checks them.

    ``execute`` returns the request's latency in seconds (only the calls
    into jetcert are timed, never the checks), or None when it raised, and
    the list of problems.
    Exported SMS files go to ``workdir``."""

    def __init__(self, reference: dict, workdir: str):
        self.reference = reference
        self.workdir = workdir

    def execute(self, req: Request) -> tuple[float | None, list[str]]:
        try:
            if req.kind == "certify":
                return self._certify(req)
            if req.kind == "control":
                return self._control(req)
            start = time.perf_counter()
            answer = run_calculator(req)
            latency = time.perf_counter() - start
            return latency, check_calculator(req, answer, self.reference["calculators"])
        except Exception as exc:  # a raising request is a failed request
            return None, [f"{req.key} raised {type(exc).__name__}: {exc}"]

    def _expected(self, req: Request) -> dict:
        return self.reference["certification"][certification_key(*req.args)]

    def _certify(self, req: Request) -> tuple[float, list[str]]:
        start = time.perf_counter()
        code, text = call_cli(verify_argv(*req.args))
        latency = time.perf_counter() - start
        return latency, check_certification(json.loads(text), code, self._expected(req))

    def _control(self, req: Request) -> tuple[float, list[str]]:
        preset, m, t = req.args
        path = os.path.join(self.workdir, f"{preset}_{m}_{t}.sms")
        start = time.perf_counter()
        code, text = call_cli(verify_argv(preset, m, t, export=path))
        system = linsys.read_sms(path, PRIME)
        outcome = gflinalg.nullspace_basis(system)
        annihilates = [gflinalg.verify_solution(system, vec) for vec in outcome.basis]
        latency = time.perf_counter() - start
        problems = check_control(
            json.loads(text), code, self._expected(req), sha256_file(path),
            system, outcome.basis, annihilates, AnsatzSpace.build(m, t),
        )
        os.remove(path)
        return latency, problems
