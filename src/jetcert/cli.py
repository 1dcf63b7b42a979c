"""Command-line front end: configuration, verification runs, reports.

Commands
--------
verify         assemble the obstruction system for a conic configuration and
               certify its GF(p) nullity (exit 0 certified / 1 nontrivial
               nullspace / 3 vacuous / 2 bad configuration)
export-matrix  write the assembled system in SMS text form
thresholds     print the exact threshold report (optionally with tau data)
enumerate      list the weight/twist pairs needing explicit certificates
tower          print the quartic pairing table and the degree-4 identity check

argparse hands each command to its runner, which returns the JSON payload and
exit code that ``main`` prints and returns.  ``verify`` and ``export-matrix``
merge their flags with ``--config`` into a :class:`RunConfig`; the calculators
``thresholds``, ``enumerate`` and ``tower`` read argv alone.

Bad input, including a singular or repeated conic, two tangent conics, three
conics through one point, or a prime modulo which a conic is singular or two
conics are equal up to scale, exits 2 with a one-line reason.  Any other
exception is reported on one stderr line as ``error: internal: <Type>:
<message>`` with exit code 4, so that a crash is never mistaken for a verdict.

Reports are JSON with sorted keys and are byte-deterministic for a fixed
configuration except for the ``timings`` block.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import __version__
from .conics import (
    PRESET_TRIPLES,
    Conic,
    ConicTriple,
    DegenerateConic,
    is_coordinate_triangle,
    jacobian_cubic,
    pencil_discriminant,
    salmon_determinant,
)
from .gflinalg import PRIME_BOUND, is_prime, rank_nullity
from .linsys import IoFailure, LinearSystem, assemble, sms_checksum, write_sms
from .polynomials import MultiPoly
from .thresholds import (
    ConstantTooSmall,
    DegenerateTotalDegree,
    build_threshold_report,
    exceptional_pairs,
    quartic_monomial_table,
    split_independence_report,
    vanishing_slope,
    z_cube_intersection,
)


class ConfigError(Exception):
    """Invalid command-line or config-file input; maps to exit code 2."""


_CHART_TOKENS = {"z0": 0, "z1": 1, "z2": 2, "0": 0, "1": 1, "2": 2}
#: Upper bound of ``--digits``; decimal rendering grows superlinearly.
_MAX_DIGITS = 10_000
#: Upper bound of ``--m-max``; ``enumerate`` can list a pair for every weight.
_MAX_M_MAX = 10_000
#: Upper bound of ``thresholds --m``, ``--t`` and each degree; far larger
#: ones render numbers past Python's limit for integer strings.
_MAX_CALCULATOR_INT = 10**6
#: Longest ``enumerate --c``; an exponent is refused before any ``Fraction``.
_MAX_CONSTANT_CHARS = 64


@dataclass
class RunConfig:
    """The inputs of ``verify`` and ``export-matrix``, merged from argv and
    ``--config`` by :func:`_merge_config`.  ``output`` is export-matrix's
    destination; ``export_matrix`` and ``report`` are verify's."""

    command: str
    conics: str
    m: int | None
    t: int | None
    prime: int
    charts: tuple[int, ...]
    export_matrix: str | None
    report: str | None
    output: str | None


@dataclass(frozen=True)
class VanishingVerdict:
    """Machine-readable outcome of one verification run.

    ``work`` holds deterministic work counts, such as the rows admitted to
    elimination; unlike ``timings`` they repeat exactly between runs."""

    params: dict
    counts: dict
    result: dict
    checksum: str
    timings: dict
    work: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "version": __version__,
            "params": self.params,
            "counts": self.counts,
            "result": self.result,
            "checksum": self.checksum,
            "timings": self.timings,
            "work": self.work,
        }

    @property
    def exit_code(self) -> int:
        verdict = self.result["verdict"]
        if verdict == "vanishing-certified":
            return 0
        if verdict == "vacuous":
            return 3
        return 1


def parse_charts(text: str) -> tuple[int, ...]:
    charts = []
    for token in text.split(","):
        token = token.strip().lower()
        if token not in _CHART_TOKENS:
            raise ConfigError(f"unknown chart {token!r}; use z0, z1, z2")
        charts.append(_CHART_TOKENS[token])
    if len(set(charts)) != len(charts):
        raise ConfigError("charts must be distinct")
    return tuple(charts)


def _parse_entry(value) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError("conic coefficients must be numbers or fraction strings")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad conic coefficient {value!r}") from exc
    raise ConfigError(f"bad conic coefficient {value!r}")


def _read_json(path: str, what: str):
    """The JSON value in a file; ``what`` names the file in the reasons."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def load_conics(source: str) -> ConicTriple:
    """A builtin preset name, or a JSON file holding three 6-entry rows."""
    if source in PRESET_TRIPLES:
        return PRESET_TRIPLES[source]
    payload = _read_json(source, "conic file")
    if not (isinstance(payload, list) and len(payload) == 3):
        raise ConfigError("conic file must hold exactly three rows")
    conics = []
    for row in payload:
        if not (isinstance(row, list) and len(row) == 6):
            raise ConfigError("each conic row must have six coefficients")
        try:
            conics.append(Conic.from_rationals([_parse_entry(v) for v in row]))
        except DegenerateConic as exc:
            raise ConfigError(f"bad conic row {row!r}: {exc}") from exc
    return ConicTriple(*conics)


def check_configuration(triple: ConicTriple, prime: int) -> MultiPoly:
    """Reject a triple the certifier cannot read soundly, and return its
    Jacobian cubic.

    Rejected, in this order: a singular conic; two conics equal up to scale;
    two tangent conics or a point on all three, either of which breaks the
    simple normal crossings that carry the certificate to the generic
    triple; a prime modulo which some conic is singular (the chart reduction
    degenerates there; always so at p = 2); a prime modulo which two conics
    are equal up to scale, every 2x2 minor of their rows 0 mod p (then
    ``alpha``, ``beta`` or ``X - Y`` is 0, so ansatz columns vanish or repeat)."""
    conics = triple.conics()
    for pos, conic in enumerate(conics, start=1):
        if not conic.is_smooth():
            raise ConfigError(f"conic {pos} {conic.coefficients} is singular")
    canonical = [conic.canonical() for conic in conics]
    pairs = list(combinations(range(3), 2))
    for i, j in pairs:
        if canonical[i] == canonical[j]:
            raise ConfigError(f"conics {i + 1} and {j + 1} are equal up to scale")
    for i, j in pairs:
        if pencil_discriminant(conics[i], conics[j]) == 0:
            raise ConfigError(f"conics {i + 1} and {j + 1} are tangent")
    jacobian = jacobian_cubic(triple)
    if salmon_determinant(triple, jacobian) == 0:
        raise ConfigError("the three conics share a point")
    for pos, conic in enumerate(conics, start=1):
        if conic.determinant() % prime == 0:
            raise ConfigError(
                f"conic {pos} {conic.coefficients} is singular mod {prime}; "
                "choose another prime"
            )
    for i, j in pairs:
        minors = combinations(zip(conics[i].coefficients, conics[j].coefficients), 2)
        if all((x * y2 - y * x2) % prime == 0 for (x, x2), (y, y2) in minors):
            raise ConfigError(
                f"conics {i + 1} and {j + 1} are equal up to scale mod {prime}; "
                "choose another prime"
            )
    return jacobian


def _assemble_checked(
    cfg: RunConfig, min_charts: int
) -> tuple[MultiPoly, LinearSystem]:
    """Validate the input shared by ``verify`` and ``export-matrix``, load
    and check the conics, and assemble the system on ``cfg.charts``.
    Returns the triple's Jacobian cubic and the system."""
    if cfg.m is None or cfg.t is None:
        raise ConfigError(f"{cfg.command} requires --m and --t")
    if cfg.m < 1 or cfg.t < 0:
        raise ConfigError("need weight m >= 1 and twist t >= 0")
    if cfg.prime >= PRIME_BOUND:
        raise ConfigError(f"--prime must be below 2^64, got {cfg.prime}")
    if not is_prime(cfg.prime):
        raise ConfigError(f"--prime must be prime, got {cfg.prime}")
    if len(cfg.charts) < min_charts:
        need = "one chart" if min_charts == 1 else "two charts to cover the surface"
        raise ConfigError(f"{cfg.command} needs at least {need}")
    triple = load_conics(cfg.conics)
    jacobian = check_configuration(triple, cfg.prime)
    return jacobian, assemble(triple, cfg.m, cfg.t, cfg.prime, cfg.charts)


def run_verify(cfg: RunConfig) -> VanishingVerdict:
    """Assemble, eliminate, and classify; see the exit-code contract above."""
    timings: dict[str, float] = {}
    start = time.perf_counter()
    jacobian, system = _assemble_checked(cfg, 2)
    timings["assemble_s"] = round(time.perf_counter() - start, 6)

    start = time.perf_counter()
    outcome = rank_nullity(system)
    timings["eliminate_s"] = round(time.perf_counter() - start, 6)
    timings["max_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2
    )

    # An export hashes the bytes it writes, so the system is serialized once.
    if cfg.export_matrix:
        checksum = write_sms(system, cfg.export_matrix)
    else:
        checksum = sms_checksum(system)

    if system.n_vars == 0:
        verdict = "vacuous"
    elif outcome.nullity == 0:
        verdict = "vanishing-certified"
    else:
        verdict = "nontrivial-nullspace"

    result = VanishingVerdict(
        params={
            "conics": cfg.conics,
            "m": cfg.m,
            "t": cfg.t,
            "prime": cfg.prime,
            "charts": list(cfg.charts),
            # Always false: the certifier has one serial path, and
            # perfbench/reference.json still pins this key.
            "parallel": False,
            "jacobian_monomial": is_coordinate_triangle(jacobian),
        },
        counts={
            "n_vars": system.n_vars,
            "n_rows_raw": system.n_rows_raw,
            "n_rows_dedup": system.n_rows,
        },
        result={
            "rank": outcome.rank,
            "nullity": outcome.nullity,
            "verdict": verdict,
        },
        checksum=checksum,
        timings=timings,
        work={"rows_admitted": outcome.rows_admitted},
    )
    if cfg.report:
        try:
            with open(cfg.report, "w", encoding="utf-8") as handle:
                json.dump(result.as_dict(), handle, sort_keys=True, indent=2)
                handle.write("\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report {cfg.report!r}: {exc}") from exc
    return result


def _verify_command(args: argparse.Namespace) -> tuple[dict, int]:
    verdict = run_verify(_merge_config(args))
    return verdict.as_dict(), verdict.exit_code


def run_export(args: argparse.Namespace) -> tuple[dict, int]:
    cfg = _merge_config(args)
    if not cfg.output:
        raise ConfigError("export-matrix requires --output")
    _, system = _assemble_checked(cfg, 1)
    checksum = write_sms(system, cfg.output)
    return {
        "output": cfg.output,
        "n_vars": system.n_vars,
        "n_rows": system.n_rows,
        "checksum": checksum,
    }, 0


def run_thresholds(args: argparse.Namespace) -> tuple[dict, int]:
    degrees = None
    if args.degrees is not None:
        try:
            parsed = sorted((int(tok) for tok in args.degrees.split(",")), reverse=True)
        except ValueError as exc:
            raise ConfigError(f"bad degrees {args.degrees!r}") from exc
        if len(parsed) != 3:
            raise ConfigError("exactly three degrees are required")
        if parsed[0] > _MAX_CALCULATOR_INT:
            raise ConfigError(f"degrees must be at most {_MAX_CALCULATOR_INT}")
        degrees = tuple(parsed)
    if args.digits < 1:
        raise ConfigError(f"--digits must be at least 1, got {args.digits}")
    if args.digits > _MAX_DIGITS:
        raise ConfigError(f"--digits must be at most {_MAX_DIGITS}, got {args.digits}")
    if (args.m is None) != (args.t is None):
        raise ConfigError("thresholds needs both --m and --t for the tau pair")
    for flag, value in (("--m", args.m), ("--t", args.t)):
        if value is not None and value > _MAX_CALCULATOR_INT:
            raise ConfigError(f"{flag} must be at most {_MAX_CALCULATOR_INT}")
    try:
        report = build_threshold_report(degrees=degrees, m=args.m, t=args.t)
    except (DegenerateTotalDegree, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return report.as_dict(digits=args.digits), 0


def run_enumerate(args: argparse.Namespace) -> tuple[dict, int]:
    if len(args.c) > _MAX_CONSTANT_CHARS or "e" in args.c.lower():
        raise ConfigError(
            f"--c must be a rational of at most {_MAX_CONSTANT_CHARS} characters, "
            "without an exponent"
        )
    try:
        constant = Fraction(args.c)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad constant {args.c!r}") from exc
    if args.m_max > _MAX_M_MAX:
        raise ConfigError(f"--m-max must be at most {_MAX_M_MAX}, got {args.m_max}")
    try:
        pairs = exceptional_pairs(constant, args.m_max)
    except ConstantTooSmall as exc:
        raise ConfigError(str(exc)) from exc
    return {
        "constant": str(constant),
        "slope": str(vanishing_slope(constant)),
        "m_max": args.m_max,
        "pairs": [list(pair) for pair in pairs],
    }, 0


def run_tower(args: argparse.Namespace) -> tuple[dict, int]:
    table = {name: str(value) for name, value in quartic_monomial_table().items()}
    checked = 0
    all_match = True
    for m in range(1, 7):
        for t in range(0, m + 1):
            for b1 in range(0, m + 1):
                for tau in (Fraction(0), Fraction(1, 2), Fraction(1)):
                    expected = 3 * (
                        m * tau**2 - 3 * (4 * m - t) * tau + 12 * (m - t)
                    )
                    got = z_cube_intersection(m, t, tau, b1, m - b1)
                    checked += 1
                    if got != expected:
                        all_match = False
    independence = split_independence_report(4, 2, Fraction(1, 2))
    return {
        "quartic_values": table,
        "self_intersection_identity": {"checked": checked, "all_match": all_match},
        "split_independence_general_pairings": independence[
            "independent_for_general_pairings"
        ],
    }, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcert",
        description="Certify vanishing of twisted 2-jet differential spaces "
        "for three-conic configurations, and compute the companion "
        "threshold/enumeration data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_flags(p, with_verify_outputs):
        p.add_argument("--conics", default=None, help="preset name or JSON file")
        p.add_argument("--m", type=int, default=None, help="jet weight")
        p.add_argument("--t", type=int, default=None, help="twist")
        p.add_argument("--prime", type=int, default=None, help="field size (prime)")
        p.add_argument(
            "--charts", default=None, help="comma list from z0,z1,z2 (default z0,z2)"
        )
        p.add_argument("--config", default=None, help="JSON file with these keys")
        if with_verify_outputs:
            p.add_argument("--export-matrix", dest="export_matrix", default=None)
            p.add_argument("--report", default=None, help="write the JSON report here")

    verify = sub.add_parser("verify", help="certify one (m, t) configuration")
    add_system_flags(verify, with_verify_outputs=True)
    verify.set_defaults(run=_verify_command)

    export = sub.add_parser("export-matrix", help="write the SMS matrix")
    add_system_flags(export, with_verify_outputs=False)
    export.add_argument("--output", required=True, help="SMS destination path")
    export.set_defaults(run=run_export)

    thresholds = sub.add_parser("thresholds", help="exact threshold report")
    thresholds.add_argument("--degrees", default=None, help="comma list d1,d2,d3")
    thresholds.add_argument("--m", type=int, default=None)
    thresholds.add_argument("--t", type=int, default=None)
    thresholds.add_argument(
        "--digits",
        type=int,
        default=30,
        help=f"significant digits, from 1 to {_MAX_DIGITS}",
    )
    thresholds.set_defaults(run=run_thresholds)

    enumerate_cmd = sub.add_parser("enumerate", help="pairs needing certificates")
    enumerate_cmd.add_argument("--c", required=True, help="constant (rational)")
    enumerate_cmd.add_argument(
        "--m-max", dest="m_max", type=int, default=20,
        help=f"largest weight, at most {_MAX_M_MAX}",
    )
    enumerate_cmd.set_defaults(run=run_enumerate)

    tower = sub.add_parser("tower", help="quartic table and identity check")
    tower.set_defaults(run=run_tower)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The :class:`RunConfig` of a ``verify`` or ``export-matrix`` argv: a
    flag given on the command line wins over the ``--config`` file's key of
    the same name, which wins over the default.  File values keep their
    JSON types; a wrong type is bad input, never coerced.  Like the
    calculators' keys, verify's output keys are ignored by export-matrix."""
    file_values: dict = {}
    if args.config == "":
        raise ConfigError("config must not be empty")
    if args.config is not None:
        file_values = _read_json(args.config, "config")
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")

    def pick(name, default):
        cli_value = getattr(args, name)
        if cli_value is not None:
            return cli_value
        if name in file_values:
            return file_values[name]
        return default

    def pick_path(name):
        value = pick(name, None)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{name} must be a file path")
        if value == "":
            raise ConfigError(f"{name} must not be empty")
        return value

    def pick_int(name, default):
        value = pick(name, default)
        if value is None and default is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return value

    conics = pick("conics", "fermat")
    if not isinstance(conics, str):
        raise ConfigError(f"conics must be a preset name or file path, got {conics!r}")

    charts_value = pick("charts", "z0,z2")
    if isinstance(charts_value, str):
        charts = parse_charts(charts_value)
    elif isinstance(charts_value, (list, tuple)):
        charts = parse_charts(",".join(str(c) for c in charts_value))
    else:
        raise ConfigError("charts must be a string or list")

    verify = args.command == "verify"
    return RunConfig(
        command=args.command,
        conics=conics,
        m=pick_int("m", None),
        t=pick_int("t", None),
        prime=pick_int("prime", 5),
        charts=charts,
        export_matrix=pick_path("export_matrix") if verify else None,
        report=pick_path("report") if verify else None,
        output=None if verify else args.output,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.run(args)
        print(json.dumps(payload, sort_keys=True, indent=2))
        return code
    except (ConfigError, IoFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a crash must not read as a verdict
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
