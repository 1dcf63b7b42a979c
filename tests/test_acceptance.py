"""End-to-end acceptance gates for the certification pipeline.

Reference values, wall-clock budgets, and the cross-checking property
suites, in one place.  Default ``pytest`` runs everything except the
``extended`` and ``stretch`` certification sweeps (see pyproject.toml);
run those with ``pytest -m extended`` / ``pytest -m stretch -s``.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from jetcert.conics import PRESET_TRIPLES, chart_data, jacobian_cubic
from jetcert.gflinalg import (
    dense_rank_nullity,
    in_row_span,
    nullspace_basis,
    rank_nullity,
    verify_solution,
)
from jetcert.jets import AnsatzSpace, case_m3_dim_counts, expand_ansatz, twist_lowering_embedding, wronskian_solution_vector
from jetcert import linsys
from jetcert.linsys import assemble, sms_checksum, write_sms
from jetcert.polynomials import MultiPoly
from jetcert.thresholds import (
    H,
    U1,
    U2,
    DegreeTriple,
    MINIMUM_CONSTANT,
    QuadExt,
    delta1,
    exceptional_pairs,
    quartic_monomial_table,
    tower_integral,
    two_jet_phi_roots,
    two_over_tau1,
    z_cube_intersection,
)

from _util import random_poly, reduce_blocks, reduce_mod, reference_blocks, sms_system, sms_text

FERMAT = PRESET_TRIPLES["fermat"]
PRIME = 5


# -- exact reference values ----------------------------------------------------------


def test_fermat_jacobian_is_the_coordinate_triangle():
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        jac = jacobian_cubic(FERMAT)
        best = min(best, time.perf_counter() - start)
    assert jac == MultiPoly(3, {(1, 1, 1): 32})
    assert best < 0.001


def test_unknown_count_of_the_largest_instance():
    start = time.perf_counter()
    space = AnsatzSpace.build(13, 9)
    elapsed = time.perf_counter() - start
    assert space.n_vars == 12550
    assert space.counting_formula() == 12550
    assert elapsed < 1.0


def test_dimension_counts_for_weight_three_divisibility():
    counts = case_m3_dim_counts()
    assert counts == {
        "coefficient_space": 186,
        "target_space": 1200,
        "divisible_subspace": 480,
    }
    assert counts["coefficient_space"] + counts["divisible_subspace"] == 666
    assert 666 < counts["target_space"]


# -- vanishing certifications --------------------------------------------------------

# The pairs the enumerator flags for c = 5 and c = 19, tiered by weight.
# The stretch tier is about a minute of assembly and elimination, under
# 400 MB.
CERTIFIED_PAIRS = sorted(set(exceptional_pairs(5, 20)) | set(exceptional_pairs(19, 20)))
GATING_PAIRS = [(m, t) for m, t in CERTIFIED_PAIRS if m <= 5]
EXTENDED_PAIRS = [(m, t) for m, t in CERTIFIED_PAIRS if 6 <= m <= 10]
STRETCH_PAIRS = [(m, t) for m, t in CERTIFIED_PAIRS if m >= 11]
CONTROL_PAIRS = [(3, 0), (4, 0), (5, 0)]
# SHA-256 of each assembled system's SMS text (fermat, p = 5, charts z0,z2).
SYSTEM_SHA256 = {
    (3, 3): "1d849afc0e1cce37ac10319aaf7e9cc8f268f9790e80c6b8bac08042a0e36012",
    (4, 3): "720d41ff92da56a6468365a0051fed5de05d40d1853206f2081bb8b92bb6d660",
    (4, 4): "5bbc45dce98d20b5559d20573c266e07088b809bcfcd94a2ec4611d21d53097b",
    (5, 4): "438b864627fe4bdf517d390d1c688ff81bad3216fedd00b1fe3cd3f73d001046",
    (5, 5): "ad001faab6b73a3db2e4329c353730962e0378886f49605961b78d10e3e297b6",
    (3, 0): "20899766ebb50909e1d0680dd4f9818dda962031c1f002c0345927716cbba2d5",
    (4, 0): "e37e202238434d49098267bc1b0f8b220e301efc84de516e36765b546a06f46d",
    (5, 0): "18f1f9a4b95ab2e1613a5b309e844e3bcef624d7dfeadc2c68ec4d01eecbc147",
    (6, 5): "f2a3ecc68053e623da3ea20ca2117b0c0d594091083adb2e29727bcfce5971e9",
    (6, 6): "c36762f63495211ec10af35987a937bc951460e5d14e688f41b83ebffb9fed09",
    (7, 5): "8403129719c995e14c01f7a9299b1a6b17cb253a03aea8328d1af2648a28ddfc",
    (7, 7): "23ddd219aa73b474da0f6c80fda73116cdb69dd75b3325e9e853c75deb8245f9",
    (8, 6): "8ce0d7455b51cfd2fc2618a3c991847bb8d3a9527fafb575a155f130452a93e3",
    (9, 7): "be0bc1398b334375394be249ef07a3882645c5977d94eabf89ca4d02f417d160",
    (10, 7): "a636f8125967b3f534dd9a68bedaac2fafbfd8e9d7528fff46ebed0103db4bdd",
    (11, 8): "eab058f81631fd80f1ba75d0055626c8f413c2b80b53337be2883477bad39017",
    (12, 9): "38f69aa8da6b8f8e15b83d546455d57bb202a74d657cf7ea6f9db18bbe0b21ce",
    (13, 9): "a5aab969a7dc13860770035d5fc9d60a7ce616c39c25abfa0657aeafb32b077c",
}
# Rows the online elimination reduces before reaching full rank.
ROWS_ADMITTED = {(3, 3): 119, (4, 3): 323, (4, 4): 247, (5, 4): 607, (5, 5): 471}


@pytest.mark.parametrize("m,t", GATING_PAIRS)
def test_gating_certification(m, t):
    start = time.perf_counter()
    system = assemble(FERMAT, m, t, PRIME)
    outcome = rank_nullity(system)
    elapsed = time.perf_counter() - start
    assert sms_checksum(system) == SYSTEM_SHA256[(m, t)]
    assert outcome.nullity == 0
    assert outcome.rank == system.n_vars
    assert outcome.rows_admitted == ROWS_ADMITTED[(m, t)] < system.n_rows
    assert elapsed < 120.0
    # Cross-check against the dense elimination oracle on every system
    # small enough for it.
    if system.n_vars <= 500:
        assert dense_rank_nullity(system) == (outcome.rank, outcome.nullity)


@pytest.mark.parametrize("m,t", CONTROL_PAIRS)
def test_control_system_digest(m, t):
    assert sms_checksum(assemble(FERMAT, m, t, PRIME)) == SYSTEM_SHA256[(m, t)]


def test_certified_pairs_cover_the_enumerated_list():
    """Every enumerated pair and every control has a pinned digest, and no
    other pair does."""
    assert set(SYSTEM_SHA256) == set(CERTIFIED_PAIRS) | set(CONTROL_PAIRS)


@pytest.mark.extended
@pytest.mark.parametrize("m,t", EXTENDED_PAIRS)
def test_extended_certification(m, t):
    system = assemble(FERMAT, m, t, PRIME)
    assert sms_checksum(system) == SYSTEM_SHA256[(m, t)]
    outcome = rank_nullity(system)
    assert outcome.nullity == 0
    assert outcome.rank == system.n_vars


@pytest.mark.extended
def test_sms_read_back_memory(tmp_path):
    """A fresh process reads the (8,6) export back with its peak RSS grown
    by under 30 MB; the whole-text parser grew it by 94 MB.  ``ru_maxrss``
    is in kilobytes on Linux."""
    system = assemble(FERMAT, 8, 6, PRIME)
    path = tmp_path / "system.sms"
    assert write_sms(system, str(path)) == SYSTEM_SHA256[(8, 6)]
    code = (
        "import resource, sys\n"
        "from jetcert.linsys import read_sms\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "system = read_sms(sys.argv[1], int(sys.argv[2]))\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(after - before, system.n_rows, sum(len(row) for row in system.rows))\n"
    )
    src = str(Path(linsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path), str(PRIME)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    growth_kb, n_rows, nonzeros = map(int, proc.stdout.split())
    assert (n_rows, nonzeros) == (system.n_rows, sum(len(row) for row in system.rows))
    assert growth_kb < 30 * 1024, f"read-back grew the peak RSS by {growth_kb} kB"


@pytest.mark.stretch
@pytest.mark.parametrize("m,t", STRETCH_PAIRS)
def test_stretch_certification(m, t):
    timings = {}
    start = time.perf_counter()
    system = assemble(FERMAT, m, t, PRIME)
    timings["assemble_s"] = round(time.perf_counter() - start, 2)
    assert sms_checksum(system) == SYSTEM_SHA256[(m, t)]
    start = time.perf_counter()
    outcome = rank_nullity(system)
    timings["eliminate_s"] = round(time.perf_counter() - start, 2)
    timings["max_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2
    )
    print(
        json.dumps(
            {
                "instance": {"m": m, "t": t},
                "counts": {"n_vars": system.n_vars, "n_rows": system.n_rows},
                "result": {"rank": outcome.rank, "nullity": outcome.nullity},
                "timings": timings,
            }
        )
    )
    assert outcome.nullity == 0
    assert outcome.rank == system.n_vars
    # Rows are built and deduplicated slot by slot, and a chart's rows share
    # one (column, coefficient) tuple per distinct pair, so the peak is about
    # the assembled system's row tuples alone.
    if (m, t) == (13, 9):
        assert timings["max_rss_mb"] < 400


def test_negative_control_has_the_wronskian_section():
    start = time.perf_counter()
    system = assemble(FERMAT, 3, 0, PRIME)
    outcome = nullspace_basis(system)
    assert outcome.nullity >= 1
    # The explicit unknown-vector for the product-of-derivatives section
    # (j = 1 stratum, coefficient Z0*Z1*Z2) must satisfy every assembled
    # condition, on each default chart separately.
    vector = wronskian_solution_vector(AnsatzSpace.build(3, 0))
    for chart in (0, 2):
        single = assemble(FERMAT, 3, 0, PRIME, charts=(chart,))
        assert verify_solution(single, vector)
    assert verify_solution(system, vector)
    assert time.perf_counter() - start < 10.0
    assert dense_rank_nullity(system) == (outcome.rank, outcome.nullity)


# -- threshold numerics --------------------------------------------------------------


def test_one_jet_threshold_for_degrees_3_2_2():
    entry = delta1(DegreeTriple.of(3, 2, 2))
    assert abs(float(entry.delta1) - (6 - math.sqrt(33)) / 12) < 1e-12


def test_two_jet_positivity_roots_in_radical_form():
    lower, upper = two_jet_phi_roots()
    assert lower == QuadExt.make(Fraction(4, 9), Fraction(-1, 9), 10)
    assert upper == QuadExt.make(Fraction(4, 9), Fraction(1, 9), 10)


def test_restricted_two_jet_constant_at_slope_92_over_135():
    value = two_over_tau1(135, 92)
    assert value == QuadExt.make(5)
    assert abs(float(value) - 5) < 1e-9


def test_grid_infimum_of_the_tau_constant():
    ratios = [Fraction(1, 10**k) for k in range(1, 9)]
    ratios += [Fraction(j, 100) for j in range(1, 100)]
    floor = float(MINIMUM_CONSTANT)
    values = []
    for ratio in ratios:
        value = float(two_over_tau1(ratio.denominator, ratio.numerator))
        assert value > floor
        values.append(value)
    assert min(values) - floor < 1e-6


# -- intersection-tower identities ---------------------------------------------------


def test_quartic_monomial_values():
    assert quartic_monomial_table() == {
        "u1^4*u2^0": Fraction(0),
        "u1^3*u2^1": Fraction(0),
        "u1^2*u2^2": Fraction(9),
        "u1^1*u2^3": Fraction(-18),
        "u1^0*u2^4": Fraction(36),
    }


def test_mixed_hyperplane_pairings():
    assert tower_integral(U1 * U2 * H * H) == 1
    assert tower_integral(U2 * U2 * H * H) == -1
    assert tower_integral(U1 * U1 * H * H) == 0
    assert tower_integral(U2 * U2 * U2 * H) == 0
    assert tower_integral(U1 * U1 * U2 * H) == 3


def test_z_cube_closed_form_exhaustive():
    taus = (Fraction(0), Fraction(1, 2), Fraction(1))
    for m in range(1, 11):
        for t in range(0, m + 1):
            for b1 in range(0, m + 1):
                for tau in taus:
                    expected = 3 * (
                        m * tau**2 - 3 * (4 * m - t) * tau + 12 * (m - t)
                    )
                    assert z_cube_intersection(m, t, tau, b1, m - b1) == expected


# -- enumerator reproduction ---------------------------------------------------------


def test_exceptional_pairs_for_constant_five():
    assert exceptional_pairs(Fraction(5), 20) == [
        (3, 3), (4, 3), (5, 4), (6, 5), (7, 5), (8, 6),
        (9, 7), (10, 7), (11, 8), (12, 9), (13, 9),
    ]


def test_exceptional_pairs_for_constant_nineteen():
    assert exceptional_pairs(Fraction(19), 20) == [
        (3, 3), (4, 4), (5, 5), (6, 6), (7, 7),
    ]


def test_floor_table_of_the_vanishing_slope():
    got = [math.floor(Fraction(92, 135) * m) for m in range(3, 15)]
    assert got == [2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 9]


# -- property suites -----------------------------------------------------------------


def test_reduction_is_a_ring_homomorphism_bulk():
    rng = random.Random(20260816)
    for _ in range(1000):
        f = random_poly(rng, 2, max_degree=5, n_terms=6)
        g = random_poly(rng, 2, max_degree=5, n_terms=6)
        assert reduce_mod(f * g, PRIME) == reduce_mod(f, PRIME) * reduce_mod(g, PRIME)
        assert reduce_mod(f + g, PRIME) == reduce_mod(f, PRIME) + reduce_mod(g, PRIME)


def test_unit_factor_never_changes_divisibility():
    rng = random.Random(20260818)

    def divisible(poly: MultiPoly, ea: int, eb: int) -> bool:
        return all(e[0] >= ea and e[1] >= eb for e in poly.terms)

    checked = 0
    while checked < 200:
        f = random_poly(rng, 2, max_degree=5, n_terms=6, modulus=PRIME)
        if f.is_zero:
            continue
        g = random_poly(rng, 2, max_degree=3, n_terms=4, modulus=PRIME)
        if g.terms.get((0, 0), 0) == 0:
            g = g + MultiPoly.constant(2, rng.randint(1, 4), modulus=PRIME)
        ea, eb = rng.randint(1, 3), rng.randint(1, 3)
        assert divisible(f * g, ea, eb) == divisible(f, ea, eb)
        checked += 1


@pytest.mark.parametrize("m,t", [(3, 0), (3, 3), (4, 3), (4, 4)])
def test_reduced_substitution_matches_full_low_weight(m, t):
    """The expansion's blocks equal the per-block elimination of
    ``full_block`` modulo ``u^m * v^m`` on both default charts, so the
    assembled systems agree."""
    space = AnsatzSpace.build(m, t)
    for chart in (0, 2):
        data = chart_data(FERMAT, chart, modulus=PRIME)
        expected = reduce_blocks(reference_blocks(data, space), m)
        assert expand_ansatz(data, space).blocks == expected


def test_twist_lowering_embeds_solution_spaces():
    source = AnsatzSpace.build(3, 1)
    target = AnsatzSpace.build(3, 0)
    sys_high = assemble(FERMAT, 3, 1, PRIME)
    sys_low = assemble(FERMAT, 3, 0, PRIME)
    outcome = nullspace_basis(sys_high)
    assert outcome.nullity >= 1  # the embedding below is exercised for real
    assert dense_rank_nullity(sys_high) == (outcome.rank, outcome.nullity)
    low_basis = nullspace_basis(sys_low).basis
    for vector in outcome.basis:
        embedded = twist_lowering_embedding(source, target, vector)
        assert verify_solution(sys_low, embedded)
        # ... and lands inside the computed solution space, not merely
        # orthogonal to every condition row.
        assert in_row_span(sys_low, tuple(low_basis), embedded)


def test_sms_round_trip_is_byte_exact(tmp_path):
    system = assemble(FERMAT, 4, 3, PRIME)
    text = sms_text(system, tmp_path)
    again = sms_system(text, tmp_path, PRIME)
    assert sms_text(again, tmp_path) == text
    assert again == system
