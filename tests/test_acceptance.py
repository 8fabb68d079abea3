"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion. Run with `pytest -s tests/test_acceptance.py`
to see the lines; failures surface as ordinary assertion errors.
"""
import itertools
import time

import pytest

from keyvariety.algebra import SmallPrime
from keyvariety.catalog import build_case, plucker_ideal
from keyvariety.cli import main
from keyvariety.incidence import (count_two_subspaces,
                                  g4_intersection_plane_fiber_check,
                                  g5_plane_fiber_dichotomy,
                                  g8_plane_fiber_profile, linalg_equiv_check,
                                  projected_veronese_points)
from keyvariety.invariants import (ci_degree, estimate_dimension,
                                   grassmann_degree, hilbert_ci_degree,
                                   singular_scan)
from keyvariety.numerology import (case_table_check, normal_bundle_ledger,
                                   run_ledger)
from keyvariety.projspace import ScanPlan, scan_system


def _report(number, name, started):
    print(f"\nACCEPTANCE {number} [{name}]: PASS ({time.time() - started:.1f}s)")


def test_criterion_1_grassmannian_counts():
    started = time.time()
    expected = {(5, 2): 155, (5, 3): 1210, (6, 2): 651}
    for (n, p), want in expected.items():
        gens = plucker_ideal(n)
        plan = ScanPlan(len(gens[0].ring_vars) - 1, SmallPrime(p))
        got = scan_system(plan, gens).matched
        assert got == want, (n, p, got)
        assert count_two_subspaces(n, p) == want, (n, p)
    assert time.time() - started < 60
    _report(1, "Grassmannian counts vs 2-subspace oracle", started)


def test_criterion_2_dimensions():
    started = time.time()
    expected = {"g4_sigma_bar": 11, "g5_sigma_bar": 12, "g6q_sigma_bar": 9,
                "g6c_sigma_bar": 8, "g8_sigma_bar": 5}
    for case, dim in expected.items():
        est = estimate_dimension(build_case(case), (2, 3))
        assert est.consistent, (case, est)
        assert est.estimated_dim == dim, (case, est)
    assert time.time() - started < 600
    _report(2, "dimensions 11/12/9/8/5 consistent over p in {2,3}", started)


def test_criterion_3_singular_loci():
    started = time.time()
    for case in ("g4_sigma_bar", "g5_sigma_bar", "g6q_sigma_bar"):
        spec = build_case(case)
        for p in (2, 3):
            rep = singular_scan(spec, p)
            assert len(rep.difference) == 0, (case, p)
    spec = build_case("g6c_sigma_bar")
    plane = [spec.var_index(v) for v in spec.planes["Pibar"].vanishing_vars]
    for p in (2, 3):
        rep = singular_scan(spec, p)
        assert rep.difference is None
        assert len(rep.singular) and (rep.singular[:, plane] == 0).all(), p
    _report(3, "singular loci equal their rank descriptions; "
               "the C-type singular set lies in its plane", started)


def test_criterion_4_degree_genus_numerology():
    started = time.time()
    assert ci_degree((2, 3)) == 6 == 2 * 4 - 2
    assert ci_degree((2, 2, 2)) == 8 == 2 * 5 - 2
    assert 2 * grassmann_degree(5) == 10 == 2 * 6 - 2
    assert grassmann_degree(6) == 14 == 2 * 8 - 2
    # tableau enumeration agrees with the closed form (asserted internally)
    for n in range(4, 9):
        grassmann_degree(n)
    assert hilbert_ci_degree((2, 3), 13) == 6
    assert hilbert_ci_degree((2, 2, 2), 15) == 8
    _report(4, "degree = 2g - 2 for genus 4/5/6/8", started)


def test_criterion_5_fiber_dichotomies():
    started = time.time()
    # (a) genus 5 over the plane, exhaustively at p = 2: 1 / 3 / 7 by rank
    counter, ok = g5_plane_fiber_dichotomy(2)
    assert ok
    assert dict(counter) == {(3, 1): 2520, (2, 3): 1470, (1, 7): 105}
    # (b) genus 8: the jumping locus is the projected Veronese surface
    for p in (2, 3):
        profile, jump = g8_plane_fiber_profile(p)
        veronese, all_rank4 = projected_veronese_points(p)
        assert all_rank4
        assert set(profile) == {1, p + 1}
        assert len(jump) == p * p + p + 1
        assert jump == set(veronese)
    # (c) genus 4 over the plane intersection: fiber equals the independent
    # hyperplane-section count at all 255 points
    profile, mismatches = g4_intersection_plane_fiber_check(2)
    assert sum(profile.values()) == 255
    assert mismatches == []
    assert time.time() - started < 300
    _report(5, "fiber dichotomies (genus 5 ranks, genus 8 Veronese, "
               "genus 4 surface fibers)", started)


def test_criterion_6_decomposability_equivalence():
    started = time.time()
    npairs = 6
    unit = [tuple(1 if k == i else 0 for k in range(npairs))
            for i in range(npairs)]
    checked = 0
    for r in range(npairs + 1):
        for subset in itertools.combinations(range(npairs), r):
            U = [unit[i] for i in subset]
            for x in itertools.product(range(2), repeat=4):
                for ycoef in itertools.product(range(2), repeat=len(U)):
                    y = [0] * npairs
                    for c, row in zip(ycoef, U):
                        for k in range(npairs):
                            y[k] ^= c * row[k]
                    if not any(y):
                        continue
                    side1, side2 = linalg_equiv_check(x, y, U, 2)
                    assert side1 == side2, (x, y, U)
                    checked += 1
    # per subset U of the 6 unit bivectors: all 16 x, all 2^|U| - 1 nonzero y
    assert checked == 16 * (3 ** 6 - 2 ** 6)
    # the one-sided y = 0 edge case is reproduced, documented, not judged
    side1, side2 = linalg_equiv_check((0, 0, 0, 1), (0,) * 6,
                                      [(0, 0, 0, 1, 0, 0)], 2)
    assert (side1, side2) == (True, False)
    assert time.time() - started < 60
    _report(6, "decomposability equivalence, exhaustive over F_2 for y != 0; "
               "y = 0 edge case reproduced", started)


def test_criterion_7_divisor_ledger():
    started = time.time()
    records = run_ledger()
    assert len(records) == 19
    for rec in records:
        assert rec.verdict.ok, (rec.lattice, rec.identity, rec.verdict.residual)
    expected = {"g4": (11, 9, 2), "g5": (12, 10, 1), "g6q": (9, 7, 1),
                "g6c": (8, 6, 1), "g8": (5, 3, 1)}
    for case, (dim, index, half) in expected.items():
        consts = case_table_check(case)
        assert (consts.dim_Sigma, consts.fano_index_r,
                consts.half_point_count) == (dim, index, half)
        for fact in normal_bundle_ledger(case):
            assert fact.normal_degree == -2
    _report(7, "all committed divisor identities, indices, discrepancies "
               "and normal-bundle degrees", started)


def test_criterion_8_report_determinism(tmp_path):
    started = time.time()
    config = tmp_path / "determinism.cfg"
    config.write_text("cases=g8,g6c,grass_2_5\nprimes=2,3\n"
                      "checks=count,dimension,singular-locus,degrees,ledger\n")
    paths = []
    for threads in ("1", "8"):
        path = tmp_path / f"report_t{threads}.json"
        assert main(["run", "--threads", threads, "--config", str(config),
                     "--out", str(path)]) == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _report(8, "byte-identical reports across thread counts", started)
