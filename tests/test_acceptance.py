"""End-to-end acceptance gates for the certification pipeline.

Reference values, wall-clock budgets, and the cross-checking property
suites, in one place.  Default ``pytest`` runs everything except the
``extended`` and ``stretch`` certification sweeps (see pyproject.toml);
run those with ``pytest -m extended`` / ``pytest -m stretch -s``.
"""

from __future__ import annotations

import json
import math
import random
import resource
import time
from fractions import Fraction

import pytest

from jetcert.conics import PRESET_TRIPLES, jacobian_cubic
from jetcert.gflinalg import (
    dense_rank_nullity,
    in_row_span,
    nullspace_basis,
    rank_nullity,
    verify_solution,
)
from jetcert.jets import AnsatzSpace, case_m3_dim_counts, twist_lowering_embedding, wronskian_solution_vector
from jetcert.linsys import assemble, export_sms, import_sms
from jetcert.polynomials import MultiPoly, obstruction
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

from _util import random_poly

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

GATING_PAIRS = [(3, 3), (4, 3), (4, 4), (5, 4), (5, 5)]
EXTENDED_PAIRS = [(6, 5), (6, 6), (7, 5), (7, 7), (8, 6)]


@pytest.mark.parametrize("m,t", GATING_PAIRS)
def test_gating_certification(m, t):
    start = time.perf_counter()
    system = assemble(FERMAT, m, t, PRIME)
    outcome = rank_nullity(system)
    elapsed = time.perf_counter() - start
    assert outcome.nullity == 0
    assert outcome.rank == system.n_vars
    assert elapsed < 120.0
    # Cross-check against the dense elimination oracle on every system
    # small enough for it.
    if system.n_vars <= 500:
        assert dense_rank_nullity(system) == (outcome.rank, outcome.nullity)


@pytest.mark.extended
@pytest.mark.parametrize("m,t", EXTENDED_PAIRS)
def test_extended_certification(m, t):
    system = assemble(FERMAT, m, t, PRIME)
    outcome = rank_nullity(system)
    assert outcome.nullity == 0
    assert outcome.rank == system.n_vars


@pytest.mark.stretch
def test_stretch_certification_weight_13_twist_9():
    timings = {}
    start = time.perf_counter()
    system = assemble(FERMAT, 13, 9, PRIME)
    timings["assemble_s"] = round(time.perf_counter() - start, 2)
    start = time.perf_counter()
    outcome = rank_nullity(system)
    timings["eliminate_s"] = round(time.perf_counter() - start, 2)
    timings["max_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2
    )
    print(
        json.dumps(
            {
                "instance": {"m": 13, "t": 9},
                "counts": {"n_vars": system.n_vars, "n_rows": system.n_rows},
                "result": {"rank": outcome.rank, "nullity": outcome.nullity},
                "timings": timings,
            }
        )
    )
    assert system.n_vars == 12550
    assert outcome.nullity == 0


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
        assert (f * g).reduce_mod(PRIME) == f.reduce_mod(PRIME) * g.reduce_mod(PRIME)
        assert (f + g).reduce_mod(PRIME) == f.reduce_mod(PRIME) + g.reduce_mod(PRIME)


def test_obstruction_is_idempotent_bulk():
    rng = random.Random(20260817)
    for _ in range(1000):
        f = random_poly(rng, 3, max_degree=6, n_terms=10, modulus=PRIME)
        ea = rng.randint(1, 4)
        eb = rng.randint(1, 4)
        ob = obstruction(f, 0, ea, 1, eb)
        assert obstruction(ob, 0, ea, 1, eb) == ob


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
    shortcut = assemble(FERMAT, m, t, PRIME, second_order="reduced")
    full = assemble(FERMAT, m, t, PRIME, second_order="full")
    assert shortcut == full


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


def test_sms_round_trip_is_byte_exact():
    system = assemble(FERMAT, 4, 3, PRIME)
    text = export_sms(system)
    again = import_sms(text, PRIME)
    assert export_sms(again) == text
    assert again == system
