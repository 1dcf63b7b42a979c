"""Tests for the command-line front end and its report contracts."""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys

import pytest

from jetcert import cli
from jetcert.conics import PRESET_TRIPLES, QUADRIC_MONOMIALS, Conic
from jetcert.linsys import assemble, sms_checksum

from _util import reference_exceptional_pairs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_verify_certified_exit_zero(capsys):
    code, payload = run_json(
        capsys, "verify", "--conics", "fermat", "--m", "4", "--t", "3"
    )
    assert code == 0
    assert payload["result"]["verdict"] == "vanishing-certified"
    assert payload["result"]["nullity"] == 0
    assert payload["counts"]["n_vars"] == 295
    assert payload["params"]["jacobian_monomial"] is True
    assert payload["params"]["parallel"] is False
    assert payload["params"]["charts"] == [0, 2]


def test_verify_negative_control_exit_one(capsys):
    code, payload = run_json(capsys, "verify", "--m", "3", "--t", "0")
    assert code == 1
    assert payload["result"]["verdict"] == "nontrivial-nullspace"
    assert payload["result"]["nullity"] >= 1


def test_verify_vacuous_exit_three(capsys):
    code, payload = run_json(capsys, "verify", "--m", "1", "--t", "4")
    assert code == 3
    assert payload["result"]["verdict"] == "vacuous"
    assert payload["counts"]["n_vars"] == 0


def test_verify_twist_three_weight_one_has_constant_stratum(capsys):
    # 3m - t = 0 keeps a (two-dimensional) constant stratum: not vacuous.
    code, payload = run_json(capsys, "verify", "--m", "1", "--t", "3")
    assert code == 0
    assert payload["counts"]["n_vars"] == 2
    assert payload["result"]["verdict"] == "vanishing-certified"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--m", "3", "--t", "3", "--charts", "z0"),
        ("verify", "--m", "3", "--t", "3", "--prime", "6"),
        ("verify", "--t", "3"),
        ("verify", "--m", "3"),
        ("verify", "--m", "0", "--t", "1"),
        ("verify", "--m", "3", "--t", "-1"),
        ("verify", "--m", "3", "--t", "3", "--charts", "z0,z4"),
        ("verify", "--m", "3", "--t", "3", "--charts", "z0,z0"),
        ("verify", "--m", "3", "--t", "3", "--conics", "/nonexistent.json"),
        ("thresholds", "--degrees", "1,1,1"),
        ("thresholds", "--degrees", "3,2"),
        ("thresholds", "--digits", "-3"),
        ("thresholds", "--digits", "0"),
        ("thresholds", "--digits", "10001"),
        ("thresholds", "--m", "3"),
        ("thresholds", "--t", "3"),
        ("enumerate", "--c", "9/5"),
        ("verify", "--m", "3", "--t", "3", "--report", "/nonexistent/dir/r.json"),
        ("verify", "--m", "3", "--t", "3", "--conics", "@not-utf8"),
        ("export-matrix", "--m", "3", "--t", "3", "--conics", "@not-utf8",
         "--output", "out.sms"),
        ("verify", "--m", "3", "--t", "3", "--report", ""),
        ("verify", "--m", "3", "--t", "3", "--export-matrix", ""),
        ("export-matrix", "--m", "3", "--t", "3", "--output", ""),
        ("export-matrix", "--t", "3", "--output", "out.sms"),
        ("export-matrix", "--m", "3", "--t", "3", "--prime", "1", "--output", "out.sms"),
        ("verify", "--m", "3", "--t", "3", "--charts", ""),
        ("enumerate", "--c", "5", "--m-max", "10001"),
        ("enumerate", "--c", "1e4000", "--m-max", "5"),
        ("thresholds", "--m", "9" * 2500, "--t", "1"),
        ("thresholds", "--degrees", "9" * 2500 + ",2,2"),
        ("enumerate", "--c", "1e100000"),
    ],
)
def test_config_errors_exit_two(capsys, tmp_path, monkeypatch, argv):
    # ``@not-utf8`` is a file made here, of bytes that are not UTF-8.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "@not-utf8").write_bytes(b"\xff\xfe[[1,2]]")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "prime", [318665857834031151167461, 2**89 - 1], ids=["composite", "mersenne-89"]
)
def test_prime_at_or_above_two_to_the_64_exits_two(capsys, prime):
    """The primality test is exact only below 2^64, and the composite here
    passes it; neither it nor the prime 2^89 - 1 reaches the elimination."""
    code, out, err = run_cli(capsys, "verify", "--m", "3", "--t", "0",
                             "--prime", str(prime))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "below 2^64" in err


DOUBLE_LINES = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
REPEATED = [[2, 1, 1, 0, 0, 0], [1, 2, 1, 0, 0, 0], [-4, -2, -2, 0, 0, 0]]
# Conics 1 and 2 meet only at [1:0:0], with multiplicity four.
TANGENT = [[0, -1, 0, 0, 1, 0], [0, -1, 1, 0, 1, 0], [1, 1, 2, 0, 0, 0]]
# Pairwise transverse, all three through [0:0:1].
SHARED_POINT = [[0, -1, 0, 0, 1, 0], [-1, 0, 0, 0, 0, 1], [-1, -1, 0, 0, 1, 1]]
# Smooth mod 3, but conic 3 is twice conic 1 mod 3.
SCALED_MOD_3 = [[2, -1, 1, 0, 0, 0], [1, 2, 1, 0, 0, 0], [1, 1, 2, 0, 0, 0]]


@pytest.mark.parametrize(
    "command, conics, prime, reason",
    [
        ("verify", "fermat", 2, "singular mod 2"),
        ("verify", "case72", 7, "singular mod 7"),
        ("export-matrix", "case72", 7, "singular mod 7"),
        ("verify", DOUBLE_LINES, 5, "is singular"),
        ("verify", REPEATED, 5, "equal up to scale"),
        ("verify", TANGENT, 5, "conics 1 and 2 are tangent"),
        ("export-matrix", TANGENT, 5, "conics 1 and 2 are tangent"),
        ("verify", SHARED_POINT, 5, "the three conics share a point"),
        ("export-matrix", SHARED_POINT, 5, "the three conics share a point"),
        ("verify", SCALED_MOD_3, 3,
         "conics 1 and 3 are equal up to scale mod 3; choose another prime"),
        ("export-matrix", SCALED_MOD_3, 3,
         "conics 1 and 3 are equal up to scale mod 3; choose another prime"),
        ("verify", "case72", 5, "the Jacobian cubic is not a constant times Z0*Z1*Z2"),
        ("export-matrix", "case72", 5,
         "the Jacobian cubic is not a constant times Z0*Z1*Z2"),
    ],
)
def test_degenerate_input_exits_two(capsys, tmp_path, command, conics, prime, reason):
    if not isinstance(conics, str):
        path = tmp_path / "conics.json"
        path.write_text(json.dumps(conics))
        conics = str(path)
    argv = [command, "--conics", conics, "--m", "3", "--t", "3",
            "--prime", str(prime)]
    if command == "export-matrix":
        argv += ["--output", str(tmp_path / "out.sms")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and reason in err
    assert "Traceback" not in err


def _conic_through(rng, point):
    """A random smooth integer conic through an integer point: draw the
    coefficients, then solve for one whose monomial is nonzero there."""
    values = [
        point[0] ** e0 * point[1] ** e1 * point[2] ** e2
        for e0, e1, e2 in QUADRIC_MONOMIALS
    ]
    while True:
        k = rng.choice([i for i, v in enumerate(values) if v])
        coeffs = [rng.randint(-3, 3) * values[k] for _ in range(6)]
        coeffs[k] = 0
        coeffs[k] = -sum(c * v for c, v in zip(coeffs, values)) // values[k]
        conic = Conic(tuple(coeffs)) if any(coeffs) else None
        if conic is not None and conic.is_smooth():
            return conic


def test_planted_common_point_exits_two(capsys, tmp_path):
    """Seeded triples planted through a rational point fail the simple
    normal crossings check; both presets pass it, and ``case72`` is then
    refused for its Jacobian cubic, the last check."""
    rng = random.Random(20261019)
    checked = 0
    for case in range(24):
        point = [0, 0, 0]
        while not any(point):
            point = [rng.randint(-3, 3) for _ in range(3)]
        triple = [_conic_through(rng, point) for _ in range(3)]
        if len({conic.canonical() for conic in triple}) < 3:
            continue
        path = tmp_path / f"planted{case}.json"
        path.write_text(json.dumps([list(conic.coefficients) for conic in triple]))
        code, out, err = run_cli(
            capsys, "verify", "--conics", str(path), "--m", "3", "--t", "3"
        )
        assert code == 2 and out == "", (point, triple)
        # Two of the conics may also be tangent at the planted point; the
        # pairwise check runs first and reports that.
        assert "share a point" in err or "are tangent" in err, (point, triple, err)
        checked += 1
    assert checked >= 20
    assert cli.check_configuration(PRESET_TRIPLES["fermat"], 5) is None
    with pytest.raises(cli.ConfigError, match="Jacobian cubic"):
        cli.check_configuration(PRESET_TRIPLES["case72"], 5)


def test_internal_error_exits_four(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated fault")

    # cli binds linsys.assemble at import, so patch the name it calls.
    monkeypatch.setattr(cli, "assemble", broken)
    code, out, err = run_cli(capsys, "verify", "--m", "3", "--t", "3")
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: simulated fault\n"


def test_report_is_deterministic_except_timings(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _ = run_json(
            capsys,
            "verify", "--m", "3", "--t", "3", "--report", str(path),
        )
        assert code == 0
    payloads = [json.loads(path.read_text()) for path in paths]
    for payload in payloads:
        del payload["timings"]
    assert payloads[0] == payloads[1]


def test_report_checksum_matches_sms_export(capsys, tmp_path):
    report = tmp_path / "report.json"
    matrix = tmp_path / "matrix.sms"
    code, _ = run_json(
        capsys,
        "verify", "--m", "3", "--t", "3",
        "--report", str(report), "--export-matrix", str(matrix),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    digest = hashlib.sha256(matrix.read_bytes()).hexdigest()
    assert payload["checksum"] == digest
    system = assemble(PRESET_TRIPLES["fermat"], 3, 3, 5)
    assert payload["checksum"] == sms_checksum(system)
    # export-matrix writes the same bytes and reports the same checksum.
    exported = tmp_path / "exported.sms"
    code, out = run_json(
        capsys, "export-matrix", "--m", "3", "--t", "3", "--output", str(exported)
    )
    assert code == 0
    assert exported.read_bytes() == matrix.read_bytes()
    assert out["checksum"] == digest


def test_report_structure(capsys, tmp_path):
    path = tmp_path / "report.json"
    run_json(capsys, "verify", "--m", "3", "--t", "3", "--report", str(path))
    payload = json.loads(path.read_text())
    assert set(payload) == {
        "version", "params", "counts", "result", "checksum", "timings", "work",
    }
    assert payload["work"] == {"rows_admitted": 119}
    assert set(payload["counts"]) == {"n_vars", "n_rows_raw", "n_rows_dedup"}
    assert set(payload["result"]) == {"rank", "nullity", "verdict"}
    assert {"assemble_s", "eliminate_s", "max_rss_mb"} <= set(payload["timings"])
    # Sorted keys in the serialized file.
    assert path.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_conic_file_ingestion(capsys, tmp_path):
    path = tmp_path / "conics.json"
    # Rational strings and decimal floats are both read exactly.
    path.write_text(
        json.dumps(
            [
                ["1/2", "1/4", "1/4", 0, 0, 0],
                [0.25, "1/2", 0.25, 0, 0, 0],
                ["0.25", "0.25", "0.5", 0, 0, 0],
            ]
        )
    )
    triple = cli.load_conics(str(path))
    # Cleared to primitive integer vectors: these are the Fermat-type conics.
    assert triple.first.coefficients == (2, 1, 1, 0, 0, 0)
    assert triple.second.coefficients == (1, 2, 1, 0, 0, 0)
    assert triple.third.coefficients == (1, 1, 2, 0, 0, 0)
    code, payload = run_json(
        capsys, "verify", "--conics", str(path), "--m", "3", "--t", "3"
    )
    assert code == 0
    assert payload["result"]["verdict"] == "vanishing-certified"


@pytest.mark.parametrize(
    "content",
    [
        "[[1,2,3,0,0,0],[1,1,2,0,0,0]]",  # two rows
        "[[1,2,3,0,0],[1,1,2,0,0,0],[2,1,1,0,0,0]]",  # short row
        '[[1,"x",3,0,0,0],[1,1,2,0,0,0],[2,1,1,0,0,0]]',  # bad entry
        "[[0,0,0,0,0,0],[1,1,2,0,0,0],[2,1,1,0,0,0]]",  # zero row
        '{"first": [1,2,3,0,0,0]}',  # not a list of rows
        "not json",
    ],
)
def test_conic_file_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(cli.ConfigError):
        cli.load_conics(str(path))


def test_parse_charts_variants():
    assert cli.parse_charts("z0,z2") == (0, 2)
    assert cli.parse_charts("0,2") == (0, 2)
    assert cli.parse_charts(" Z1 , z0 ") == (1, 0)
    with pytest.raises(cli.ConfigError):
        cli.parse_charts("z3")
    with pytest.raises(cli.ConfigError):
        cli.parse_charts("z0,z0")


def test_thresholds_command_sorts_degrees(capsys):
    code, payload = run_json(capsys, "thresholds", "--degrees", "2,3,2")
    assert code == 0
    assert payload["one_jet"]["degrees"] == [3, 2, 2]
    assert payload["one_jet"]["delta1"]["radicand"] == 33
    assert "tau" not in payload
    code, payload = run_json(
        capsys, "thresholds", "--degrees", "3,2,2", "--m", "5", "--t", "4"
    )
    assert code == 0
    assert payload["tau"]["m"] == 5 and payload["tau"]["t"] == 4


def test_enumerate_command(capsys):
    code, payload = run_json(capsys, "enumerate", "--c", "19")
    assert code == 0
    assert payload["pairs"] == [[3, 3], [4, 4], [5, 5], [6, 6], [7, 7]]
    assert payload["slope"] == "1940/2109"


_LONGEST_CONSTANT = "7" * 32 + "/" + "3" * 31  # the 64 characters --c allows


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--c", "5", "--m-max", "20"), 0),
        (("--c", "19", "--m-max", "20"), 0),
        (("--c", _LONGEST_CONSTANT, "--m-max", "10000"), 0),
        (("--c", "9/5"), 2),
    ],
    ids=["c5", "c19", "longest-constant", "below-the-minimum"],
)
def test_enumerate_output_matches_the_fraction_loop(capsys, monkeypatch, argv, code):
    """``enumerate`` prints the same bytes and exits with the same code as
    it does with the ``Fraction`` loop that ``exceptional_pairs`` replaced."""
    got = run_cli(capsys, "enumerate", *argv)
    monkeypatch.setattr(cli, "exceptional_pairs", reference_exceptional_pairs)
    assert got == run_cli(capsys, "enumerate", *argv)
    assert got[0] == code
    if code == 2:
        assert got[1:] == ("", "error: constant must exceed (3 + sqrt(6))/3, got 9/5\n")


def test_tower_command(capsys):
    code, payload = run_json(capsys, "tower")
    assert code == 0
    assert payload["quartic_values"]["u1^0*u2^4"] == "36"
    assert payload["self_intersection_identity"]["all_match"] is True
    assert payload["split_independence_general_pairings"] is True


def test_export_matrix_single_chart_allowed(capsys, tmp_path):
    path = tmp_path / "one-chart.sms"
    code, payload = run_json(
        capsys,
        "export-matrix", "--m", "3", "--t", "3", "--charts", "z0",
        "--output", str(path),
    )
    assert code == 0
    header = path.read_text().splitlines()[0]
    assert header.endswith("113 M")
    assert payload["n_vars"] == 113


def test_missing_required_argument_is_argparse_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["enumerate"])  # --c is required


def test_parallel_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--m", "3", "--t", "3", "--parallel"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "export-matrix"])
def test_config_flag_is_gone(capsys, tmp_path, monkeypatch, command):
    # Flags are the only input of verify and export-matrix.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"m": 3, "t": 3}))
    argv = [command, "--m", "3", "--t", "3", "--config", "run.json"]
    if command == "export-matrix":
        argv += ["--output", "y.sms"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jetcert.cli", "enumerate", "--c", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pairs"][0] == [3, 3]


# -- seeded fuzz of the exit-code contract -----------------------------------------------

_FUZZ_FLAG_VALUES = {
    "thresholds": {
        "--degrees": ("3,2,2", "2,2,2", "4,3,1", "1,1,1", "2,3", "3,,2", "-1,2,2", "x"),
        "--m": ("-1", "0", "1", "3", "5", "12", "x"),
        "--t": ("-1", "0", "1", "3", "5", "12", "x"),
        "--digits": ("-3", "-1", "0", "1", "5", "30", "x"),
    },
    "enumerate": {
        "--c": ("5", "19", "9/5", "7/3", "-2", "1/0", "nan", "x"),
        "--m-max": ("-1", "0", "3", "20", "x"),
    },
    "tower": {},
}
_FUZZ_STRAYS = ("--bogus", "--conics", "--c", "--digits", "--m", "5", "x")
_FUZZ_JUNK = (
    "x", "", -1, 0, 2, 1.5, None, True, [], {}, [0, 9], "z0,z0", "7.5",
    "/nonexistent/dir/file", ".",
)
_FERMAT_ROWS = [[2, 1, 1, 0, 0, 0], [1, 2, 1, 0, 0, 0], [1, 1, 2, 0, 0, 0]]


def _fuzz_calculator_argv(rng):
    command = rng.choice(("thresholds", "thresholds", "enumerate", "enumerate", "tower"))
    flags = _FUZZ_FLAG_VALUES[command]
    argv = [command]
    for flag in sorted(flags):
        if rng.random() < 0.7:
            argv += [flag, rng.choice(flags[flag])]
    # A bare `tower` is covered by test_tower_command; here it only gets
    # stray tokens: unknown flags, flags of other commands, dangling flags.
    if command == "tower" or rng.random() < 0.15:
        argv += rng.sample(_FUZZ_STRAYS, rng.randint(1, 2))
    return argv


def _fuzz_verify_argv(rng, tmp_path, case):
    m, t = rng.randint(0, 3), rng.randint(-1, 10)
    rows = [list(row) for row in _FERMAT_ROWS]
    edit = rng.randrange(5)
    if edit == 1:
        rows[rng.randrange(3)][rng.randrange(6)] = rng.choice(_FUZZ_JUNK)
    elif edit == 2:
        rows = rows[: rng.randint(0, 2)] if rng.random() < 0.5 else rows + [rows[0]]
    elif edit == 3:
        rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(3)]
    elif edit == 4:
        rows[rng.randrange(3)] = rows[rng.randrange(3)][: rng.randint(0, 5)]
    path = tmp_path / f"conics{case}.json"
    path.write_text(json.dumps(rows))
    return ["verify", "--conics", str(path), "--m", str(m), "--t", str(t),
            "--prime", rng.choice(("2", "3", "5", "7", "11"))]


def test_fuzzed_input_keeps_exit_code_contract(capsys, tmp_path, monkeypatch):
    """Seeded random argv and conic files: every outcome is one of
    the documented verdict or bad-input codes, never a crash."""
    monkeypatch.chdir(tmp_path)  # junk report paths such as "x" land here
    rng = random.Random(20261018)
    cases = [_fuzz_calculator_argv(rng) for _ in range(150)]
    cases += [_fuzz_verify_argv(rng, tmp_path, case) for case in range(24)]
    for argv in cases:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err and "internal:" not in err, (argv, err)
