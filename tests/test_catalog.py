from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from keyvariety.algebra import (PointAffineRep, Polynomial, SmallPrime,
                                jacobian_rank, parse_poly)
from keyvariety.catalog import (ALL_CASES, MAIN_CASES, UnknownCaseError,
                                build_case, normalize_pairing, pinned_coordinate_change,
                                plane_containment_check, plucker_ideal,
                                rank_locus_member, spec_dump)
from keyvariety.projspace import ScanPlan, scan_system

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n,count", [(4, 1), (5, 5), (6, 15)])
def test_plucker_ideal_sizes(n, count):
    gens = plucker_ideal(n)
    assert len(gens) == count
    assert all(g.total_degree() == 2 and len(g.terms) == 3 for g in gens)


def test_plucker_ideal_classical_relation():
    (g,) = plucker_ideal(4)
    assert g == parse_poly("p12*p34 - p13*p24 + p14*p23", g.ring_vars)


def test_plucker_ideal_rejects_small_n():
    with pytest.raises(ValueError):
        plucker_ideal(3)


def test_unknown_case():
    with pytest.raises(UnknownCaseError):
        build_case("nonsense")


def test_build_case_shapes():
    g4 = build_case("g4_sigma_bar")
    assert g4.ambient_dim == 13 and len(g4.vars) == 14
    assert sorted(g.total_degree() for g in g4.generators) == [2, 3]
    assert g4.expected_dim == 11

    g5 = build_case("g5_sigma_bar")
    assert g5.ambient_dim == 15 and len(g5.generators) == 3
    assert all(g.total_degree() == 2 for g in g5.generators)
    assert g5.expected_dim == 12

    g8 = build_case("g8_sigma_bar")
    assert g8.ambient_dim == 11 and len(g8.vars) == 12
    assert len(g8.generators) == 15
    assert all(g.total_degree() == 2 for g in g8.generators)
    assert g8.expected_dim == 5

    g6q = build_case("g6q_sigma_bar")
    assert g6q.ambient_dim == 13 and len(g6q.generators) == 6
    g6c = build_case("g6c_sigma_bar")
    assert g6c.ambient_dim == 12 and len(g6c.generators) == 6


def test_case_aliases():
    assert build_case("g4") is build_case("g4_sigma_bar")


def test_generators_are_homogeneous():
    for case in ALL_CASES:
        spec = build_case(case)
        assert all(g.is_homogeneous() for g in spec.generators), case
        assert len(spec.vars) == spec.ambient_dim + 1


def test_metadata_table():
    rows = {case: build_case(case).metadata for case in MAIN_CASES}
    assert [rows[c].genus for c in MAIN_CASES] == [4, 5, 6, 6, 8]
    assert [rows[c].num_half_points_N for c in MAIN_CASES] == [2, 1, 1, 1, 1]
    assert rows["g8_sigma_bar"].X_prime == "B_5"
    assert rows["g6c_sigma_bar"].X_prime == "B_3"
    # auxiliary models carry no classification row
    assert build_case("B5").metadata is None


@pytest.mark.parametrize("case", ALL_CASES)
def test_declared_planes_contained(case):
    spec = build_case(case)
    for name, plane in spec.planes.items():
        if plane.contained:
            assert plane_containment_check(spec, name), (case, name)


def test_generic_hyperplane_not_contained():
    # substituting a single coordinate plane that is NOT declared: the cubic
    # does not vanish after setting only y1 = 0
    spec = build_case("g4_sigma_bar")
    images = {"y1": Polynomial.zero(spec.vars)}
    assert not all(g.substitute(images).is_zero() for g in spec.generators)


def _expand(f, images):
    """f with images substituted by repeated Polynomial * and +."""
    target = next(iter(images.values())).ring_vars
    out = Polynomial.zero(target)
    for e, c in f.terms.items():
        term = Polynomial.constant(target, c)
        for name, k in zip(f.ring_vars, e):
            img = images[name] if name in images else Polynomial.variable(target, name)
            for _ in range(k):
                term = term * img
        out = out + term
    return out


@pytest.mark.parametrize("case", ALL_CASES)
def test_substitute_equals_repeated_expansion(case):
    spec = build_case(case)
    ring = spec.vars
    x = [Polynomial.variable(ring, v) for v in ring]
    moves = {v: x[i] + x[i + 1] for i, v in enumerate(ring[:-1])}
    # a quadratic image with a constant, and one that cancels terms
    mixed = {ring[0]: x[1] * x[-1] - Polynomial.constant(ring, 2),
             ring[1]: x[1] - x[2], ring[2]: x[1] + x[2] * 3}
    zeros = {v: Polynomial.zero(ring) for v in ring[::2]}
    for images in (moves, mixed, zeros):
        for g in spec.generators:
            assert g.substitute(images) == _expand(g, images)
    assert pinned_coordinate_change(spec) == tuple(
        _expand(g, moves) for g in spec.generators)


def test_substitute_rejects_mixed_rings():
    f = parse_poly("x*y", ("x", "y"))
    with pytest.raises(ValueError):
        f.substitute({"x": parse_poly("a", ("a", "b")),
                      "y": parse_poly("x", ("x", "y"))})


def test_unknown_plane_name():
    with pytest.raises(KeyError):
        plane_containment_check(build_case("g4_sigma_bar"), "nope")


def test_aq_generators_vanish_on_its_plane():
    spec = build_case("g6q_AQ")
    assert plane_containment_check(spec, "Pi")


@pytest.mark.parametrize("case", ALL_CASES)
def test_golden_dump(case):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert spec_dump(build_case(case)) == expected


@pytest.mark.parametrize("case", ALL_CASES)
def test_two_path_count_invariance_p2(case):
    spec = build_case(case)
    plan = ScanPlan(spec.ambient_dim, SmallPrime(2))
    direct = scan_system(plan, list(spec.generators)).matched
    transformed = scan_system(plan, list(pinned_coordinate_change(spec))).matched
    assert direct == transformed


@pytest.mark.parametrize("case", ["g8_sigma_bar", "g6c_sigma_bar", "Q3_g6q", "B6"])
def test_two_path_count_invariance_p3_small(case):
    spec = build_case(case)
    plan = ScanPlan(spec.ambient_dim, SmallPrime(3))
    direct = scan_system(plan, list(spec.generators)).matched
    transformed = scan_system(plan, list(pinned_coordinate_change(spec))).matched
    assert direct == transformed


def test_rank_locus_g5_examples():
    spec = build_case("g5_sigma_bar")
    locus = spec.rank_locus
    rank2 = PointAffineRep(tuple([0] * 4 + [1, 0, 0, 0] + [0, 1, 0, 0] + [0] * 4))
    assert rank_locus_member(locus, rank2, 2)
    off_plane = PointAffineRep(tuple([1, 0, 0, 0] + [0, 0, 0, 0] * 3))
    assert not rank_locus_member(locus, off_plane, 2)


def test_rank_locus_g6q_vertex_plane():
    spec = build_case("g6q_sigma_bar")
    # z = x = 0: the vertex matrix is zero so any dual vector is annihilated
    pt = PointAffineRep((0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0))
    assert rank_locus_member(spec.rank_locus, pt, 2)
    # cross-check: the Jacobian rank drops below the codimension there
    assert jacobian_rank(list(spec.generators), pt, 2) < 13 - 9


def test_b5_smoothness_probe():
    spec = build_case("B5")
    for p in (2, 3, 5):
        plan = ScanPlan(spec.ambient_dim, SmallPrime(p))
        res, pts = scan_system(plan, list(spec.generators), collect=True)
        assert res.matched == p**3 + p**2 + p + 1
        for row in pts.tolist():
            pt = PointAffineRep(tuple(row))
            assert jacobian_rank(list(spec.generators), pt, p) == 3


def test_normalize_pairing_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert normalize_pairing(eye) == [[Fraction(1), 0, 0], [0, Fraction(1), 0],
                                      [0, 0, Fraction(1)]]


def test_normalize_pairing_random_invertible():
    M0 = [[2, 1, 0], [1, 1, 1], [0, 3, 1]]
    S = normalize_pairing(M0)
    # symbolic expansion oracle: y^T M0 (S x') must expand to y^T x'
    prod = [[sum(Fraction(M0[i][k]) * S[k][j] for k in range(3))
             for j in range(3)] for i in range(3)]
    assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_normalize_pairing_inverts_invertible_matrices(M0):
    det = (M0[0][0] * (M0[1][1] * M0[2][2] - M0[1][2] * M0[2][1])
           - M0[0][1] * (M0[1][0] * M0[2][2] - M0[1][2] * M0[2][0])
           + M0[0][2] * (M0[1][0] * M0[2][1] - M0[1][1] * M0[2][0]))
    if det == 0:
        with pytest.raises(ValueError):
            normalize_pairing(M0)
        return
    S = normalize_pairing(M0)
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    assert [[sum(S[i][k] * M0[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)] == eye
    assert [[sum(M0[i][k] * S[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)] == eye


def test_normalize_pairing_rejects_rank2():
    with pytest.raises(ValueError):
        normalize_pairing([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
