"""Regenerate ``reference.json``, the pinned answers the benchmark checks.

Run from the root of a source checkout, on the commit whose answers are to
be pinned:

    python3 perfbench/make_reference.py

Every certification request runs through ``jetcert verify``; its rank and
nullity are also checked here against the dense elimination oracle whenever
the system has at most ``gflinalg.DENSE_LIMIT`` unknowns.  The calculator
answers are pinned as digests over the whole request domain.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jetcert import __version__, gflinalg, linsys, thresholds  # noqa: E402
from jetcert.conics import PRESET_TRIPLES  # noqa: E402

import workloads as wl  # noqa: E402


def certification_entry(preset: str, m: int, t: int) -> dict:
    code, text = wl.call_cli(wl.verify_argv(preset, m, t))
    report = json.loads(text)
    entry = {"exit_code": code, "checksum": report["checksum"]}
    for section in ("params", "counts", "result"):
        entry[section] = report[section]
    system = linsys.assemble(PRESET_TRIPLES[preset], m, t, wl.PRIME)
    if linsys.sms_checksum(system) != report["checksum"]:
        raise SystemExit(f"{preset} ({m},{t}): assemble and verify disagree")
    if system.n_vars <= gflinalg.DENSE_LIMIT:
        dense = gflinalg.dense_rank_nullity(system)
        if dense != (report["result"]["rank"], report["result"]["nullity"]):
            raise SystemExit(f"{preset} ({m},{t}): sparse and dense elimination disagree")
        entry["dense_checked"] = True
    else:
        entry["dense_checked"] = False
    return entry


def main() -> None:
    cases = [("fermat", m, t) for m, t in wl.FERMAT_C5 + wl.CONTROLS]
    certification = {wl.certification_key(*case): certification_entry(*case) for case in cases}
    report = thresholds.build_threshold_report().as_dict()
    calculators = {
        "two_jet": wl.digest(report["two_jet"]),
        "one_jet": {
            ",".join(map(str, d)): wl.digest(thresholds.build_threshold_report(degrees=d).as_dict()["one_jet"])
            for d in wl.degree_triples()
        },
        "tau": {
            f"{m},{t}": wl.digest(thresholds.build_threshold_report(m=m, t=t).as_dict()["tau"])
            for m in range(1, wl.TAU_M_MAX + 1)
            for t in range(0, 3 * m + 1)
        },
        "enumerate": {
            str(c): thresholds.exceptional_pairs(c, wl.ENUM_M_MAX) for c in wl.ENUM_CONSTANTS
        },
    }
    out = {"jetcert_version": __version__, "certification": certification, "calculators": calculators}
    path = wl.REFERENCE_PATH
    text = json.dumps(out, sort_keys=True, indent=1)
    text = re.sub(r"\[\s*(\d+),\s*(\d+)\s*\]", r"[\1, \2]", text)  # one (m, t) pair per line
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}: {len(certification)} certification entries")


if __name__ == "__main__":
    main()
