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

Bad input, including a singular or repeated conic or a prime modulo which a
conic is singular, exits 2 with a one-line reason.  Any other exception is
reported on one stderr line as ``error: internal: <Type>: <message>`` with
exit code 4, so that a crash is never mistaken for a verdict.

Reports are JSON with sorted keys and are byte-deterministic for a fixed
configuration except for the ``timings`` block.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .conics import (
    PRESET_TRIPLES,
    Conic,
    ConicTriple,
    DegenerateConic,
    is_coordinate_triangle,
    jacobian_cubic,
)
from .gflinalg import is_prime, rank_nullity
from .linsys import IoFailure, assemble, sms_checksum, write_sms
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


@dataclass
class RunConfig:
    command: str
    conics: str = "fermat"
    m: int | None = None
    t: int | None = None
    prime: int = 5
    charts: tuple[int, ...] = (0, 2)
    export_matrix: str | None = None
    report: str | None = None
    output: str | None = None
    degrees: tuple[int, int, int] | None = None
    constant: Fraction | None = None
    m_max: int = 20
    digits: int = 30


@dataclass(frozen=True)
class VanishingVerdict:
    """Machine-readable outcome of one verification run."""

    params: dict
    counts: dict
    result: dict
    checksum: str
    timings: dict

    def as_dict(self) -> dict:
        return {
            "version": __version__,
            "params": self.params,
            "counts": self.counts,
            "result": self.result,
            "checksum": self.checksum,
            "timings": self.timings,
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


def load_conics(source: str) -> ConicTriple:
    """A builtin preset name, or a JSON file holding three 6-entry rows."""
    if source in PRESET_TRIPLES:
        return PRESET_TRIPLES[source]
    try:
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read conic file {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"conic file {source!r} is not valid JSON: {exc}") from exc
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


def check_configuration(triple: ConicTriple, prime: int) -> None:
    """Reject a triple the certifier cannot read soundly: a singular conic,
    two conics equal up to scale, or a prime modulo which some conic is
    singular (the chart reduction degenerates there; always so at p = 2)."""
    conics = triple.conics()
    for pos, conic in enumerate(conics, start=1):
        if not conic.is_smooth():
            raise ConfigError(f"conic {pos} {conic.coefficients} is singular")
    canonical = [conic.canonical() for conic in conics]
    for i in range(3):
        for j in range(i + 1, 3):
            if canonical[i] == canonical[j]:
                raise ConfigError(f"conics {i + 1} and {j + 1} are equal up to scale")
    for pos, conic in enumerate(conics, start=1):
        if conic.determinant() % prime == 0:
            raise ConfigError(
                f"conic {pos} {conic.coefficients} is singular mod {prime}; "
                "choose another prime"
            )


def run_verify(cfg: RunConfig) -> VanishingVerdict:
    """Assemble, eliminate, and classify; see the exit-code contract above."""
    if cfg.m is None or cfg.t is None:
        raise ConfigError("verify requires --m and --t")
    if cfg.m < 1 or cfg.t < 0:
        raise ConfigError("need weight m >= 1 and twist t >= 0")
    if not is_prime(cfg.prime):
        raise ConfigError(f"--prime must be prime, got {cfg.prime}")
    if len(cfg.charts) < 2:
        raise ConfigError("verify needs at least two charts to cover the surface")
    triple = load_conics(cfg.conics)
    check_configuration(triple, cfg.prime)
    jacobian = jacobian_cubic(triple)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    system = assemble(triple, cfg.m, cfg.t, cfg.prime, cfg.charts)
    timings["assemble_s"] = round(time.perf_counter() - start, 6)

    start = time.perf_counter()
    outcome = rank_nullity(system)
    timings["eliminate_s"] = round(time.perf_counter() - start, 6)
    timings["max_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2
    )

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
        checksum=sms_checksum(system),
        timings=timings,
    )
    if cfg.export_matrix:
        write_sms(system, cfg.export_matrix)
    if cfg.report:
        try:
            with open(cfg.report, "w", encoding="utf-8") as handle:
                json.dump(result.as_dict(), handle, sort_keys=True, indent=2)
                handle.write("\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report {cfg.report!r}: {exc}") from exc
    return result


def run_export(cfg: RunConfig) -> dict:
    if cfg.m is None or cfg.t is None:
        raise ConfigError("export-matrix requires --m and --t")
    if cfg.m < 1 or cfg.t < 0:
        raise ConfigError("need weight m >= 1 and twist t >= 0")
    if not is_prime(cfg.prime):
        raise ConfigError(f"--prime must be prime, got {cfg.prime}")
    if not cfg.charts:
        raise ConfigError("export-matrix needs at least one chart")
    if not cfg.output:
        raise ConfigError("export-matrix requires --output")
    triple = load_conics(cfg.conics)
    check_configuration(triple, cfg.prime)
    system = assemble(triple, cfg.m, cfg.t, cfg.prime, cfg.charts)
    write_sms(system, cfg.output)
    return {
        "output": cfg.output,
        "n_vars": system.n_vars,
        "n_rows": system.n_rows,
        "checksum": sms_checksum(system),
    }


def run_thresholds(cfg: RunConfig) -> dict:
    if cfg.digits < 1:
        raise ConfigError(f"--digits must be at least 1, got {cfg.digits}")
    try:
        report = build_threshold_report(degrees=cfg.degrees, m=cfg.m, t=cfg.t)
    except (DegenerateTotalDegree, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return report.as_dict(digits=cfg.digits)


def run_enumerate(cfg: RunConfig) -> dict:
    if cfg.constant is None:
        raise ConfigError("enumerate requires --c")
    try:
        pairs = exceptional_pairs(cfg.constant, cfg.m_max)
    except ConstantTooSmall as exc:
        raise ConfigError(str(exc)) from exc
    return {
        "constant": str(cfg.constant),
        "slope": str(vanishing_slope(cfg.constant)),
        "m_max": cfg.m_max,
        "pairs": [list(pair) for pair in pairs],
    }


def run_tower(cfg: RunConfig) -> dict:
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
    }


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

    export = sub.add_parser("export-matrix", help="write the SMS matrix")
    add_system_flags(export, with_verify_outputs=False)
    export.add_argument("--output", required=True, help="SMS destination path")

    thresholds = sub.add_parser("thresholds", help="exact threshold report")
    thresholds.add_argument("--degrees", default=None, help="comma list d1,d2,d3")
    thresholds.add_argument("--m", type=int, default=None)
    thresholds.add_argument("--t", type=int, default=None)
    thresholds.add_argument(
        "--digits", type=int, default=30, help="significant digits, at least 1"
    )

    enumerate_cmd = sub.add_parser("enumerate", help="pairs needing certificates")
    enumerate_cmd.add_argument("--c", required=True, help="constant (rational)")
    enumerate_cmd.add_argument("--m-max", dest="m_max", type=int, default=20)

    sub.add_parser("tower", help="quartic table and identity check")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path!r} is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")

    def pick(name, default):
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            return cli_value
        if name in file_values:
            return file_values[name]
        return default

    def pick_path(name):
        value = pick(name, None)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{name} must be a file path")
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

    # --degrees, --c and --m-max belong to commands without --config.
    degrees = None
    degrees_value = getattr(args, "degrees", None)
    if degrees_value is not None:
        try:
            parsed = sorted(
                (int(tok) for tok in degrees_value.split(",")), reverse=True
            )
        except ValueError as exc:
            raise ConfigError(f"bad degrees {degrees_value!r}") from exc
        if len(parsed) != 3:
            raise ConfigError("exactly three degrees are required")
        degrees = tuple(parsed)

    constant = None
    constant_value = getattr(args, "c", None)
    if constant_value is not None:
        try:
            constant = Fraction(constant_value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad constant {constant_value!r}") from exc

    return RunConfig(
        command=args.command,
        conics=conics,
        m=pick_int("m", None),
        t=pick_int("t", None),
        prime=pick_int("prime", 5),
        charts=charts,
        export_matrix=pick_path("export_matrix"),
        report=pick_path("report"),
        output=getattr(args, "output", None),
        degrees=degrees,
        constant=constant,
        m_max=getattr(args, "m_max", 20),
        digits=getattr(args, "digits", 30),
    )


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if cfg.command == "verify":
            verdict = run_verify(cfg)
            print(_dump(verdict.as_dict()))
            return verdict.exit_code
        if cfg.command == "export-matrix":
            print(_dump(run_export(cfg)))
            return 0
        if cfg.command == "thresholds":
            print(_dump(run_thresholds(cfg)))
            return 0
        if cfg.command == "enumerate":
            print(_dump(run_enumerate(cfg)))
            return 0
        if cfg.command == "tower":
            print(_dump(run_tower(cfg)))
            return 0
        raise ConfigError(f"unknown command {cfg.command!r}")
    except (ConfigError, IoFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a crash must not read as a verdict
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
