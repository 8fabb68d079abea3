import numpy as np
import pytest

from keyvariety import projspace
from keyvariety.algebra import PointAffineRep, SmallPrime, parse_poly
from keyvariety.catalog import plucker_ideal
from keyvariety.projspace import (DEFAULT_SAMPLE_CAP, ScanPlan, ScanResult,
                                  _run_chunks, clear_point_sets,
                                  enumerate_points, index_to_point, point_set,
                                  point_to_index, points_block,
                                  proj_point_count, scan_system)


def scan(plan, predicate, threads=None, sample_cap=DEFAULT_SAMPLE_CAP):
    """Slow pointwise oracle: count the points where a pure predicate holds,
    chunk by chunk on the scan workers, joined in chunk order."""
    def work(rng):
        start, stop = rng
        pts = [PointAffineRep(tuple(row)) for row in
               points_block(plan.ambient_dim, plan.prime, start, stop).tolist()]
        return stop - start, [pt for pt in pts if predicate(pt)]

    results = _run_chunks(work, plan.chunk_ranges(), threads)
    hits = [pt for _, chunk in results for pt in chunk]
    return ScanResult(sum(n for n, _ in results), len(hits),
                      tuple(hits[:sample_cap]))


def test_point_count_examples():
    assert proj_point_count(2, 2) == 7
    assert proj_point_count(13, 3) == 2_391_484
    assert proj_point_count(15, 2) == 65_535
    with pytest.raises(ValueError):
        proj_point_count(-1, 2)


def test_enumerate_line_over_f2():
    pts = {pt.coords for pt in enumerate_points(ScanPlan(1, SmallPrime(2)))}
    assert pts == {(1, 0), (1, 1), (0, 1)}


def test_enumerate_plane_over_f2():
    pts = list(enumerate_points(ScanPlan(2, SmallPrime(2))))
    assert len(pts) == 7
    assert len({p.coords for p in pts}) == 7


def test_enumerate_p3_over_f3():
    pts = list(enumerate_points(ScanPlan(3, SmallPrime(3))))
    assert len(pts) == 40
    assert len({p.coords for p in pts}) == 40


def test_index_bijection():
    plan = ScanPlan(3, SmallPrime(3))
    for i, pt in enumerate(enumerate_points(plan)):
        assert index_to_point(plan, i) == pt.coords
        assert point_to_index(plan, pt.coords) == i


def test_chunks_partition_exactly():
    plan = ScanPlan(4, SmallPrime(3), chunk_count=7)
    ranges = plan.chunk_ranges()
    assert ranges[0][0] == 0 and ranges[-1][1] == plan.total
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c and a < b


def test_scan_true_predicate():
    plan = ScanPlan(2, SmallPrime(2))
    res = scan(plan, lambda pt: True)
    assert res.total_examined == res.matched == 7


@pytest.mark.parametrize("chunks", [1, 2, 8])
def test_scan_chunk_invariance(chunks):
    plan = ScanPlan(4, SmallPrime(3), chunk_count=chunks)
    res = scan(plan, lambda pt: pt.coords[0] == 0, threads=2)
    base = scan(ScanPlan(4, SmallPrime(3), chunk_count=1),
                lambda pt: pt.coords[0] == 0, threads=1)
    assert (res.total_examined, res.matched) == (base.total_examined, base.matched)
    assert res.sample == base.sample


def test_scan_g24_quadric():
    quad = plucker_ideal(4)
    plan = ScanPlan(5, SmallPrime(2))
    res = scan(plan, lambda pt: all(g.eval_mod(pt.coords, 2) == 0 for g in quad))
    assert res.matched == 35


def test_scan_segre_incidence_surface():
    # (1,1)-divisor in P^2 x P^2, counted in its rank-one Segre model
    from keyvariety.catalog import build_case
    spec = build_case("B6")
    res = scan_system(ScanPlan(spec.ambient_dim, SmallPrime(2)),
                      list(spec.generators))
    assert res.matched == 21


def test_scan_system_matches_predicate_scan():
    ring = ("x", "y", "z")
    f = parse_poly("x*y - z^2", ring)
    plan = ScanPlan(2, SmallPrime(5))
    fast = scan_system(plan, [f])
    slow = scan(plan, lambda pt: f.eval_mod(pt.coords, 5) == 0)
    assert fast.matched == slow.matched
    assert fast.total_examined == slow.total_examined == proj_point_count(2, 5)


def test_scan_system_collect_and_sample_cap():
    ring = ("x", "y", "z")
    f = parse_poly("x", ring)
    plan = ScanPlan(2, SmallPrime(3))
    res, pts = scan_system(plan, [f], collect=True, sample_cap=2)
    assert res.matched == pts.shape[0] == 4  # the line {x=0} in P^2(F_3)
    assert len(res.sample) == 2
    assert all(isinstance(s, PointAffineRep) for s in res.sample)


def test_gaussian_binomial_counts():
    from keyvariety.incidence import count_two_subspaces, gaussian_binomial_2
    for (n, p, expected) in ((5, 2, 155), (5, 3, 1210), (6, 2, 651)):
        gens = plucker_ideal(n)
        plan = ScanPlan(len(gens[0].ring_vars) - 1, SmallPrime(p))
        assert scan_system(plan, gens).matched == expected
        assert gaussian_binomial_2(n, p) == expected
        assert count_two_subspaces(n, p) == expected


def test_point_set_scans_once_and_is_read_only(monkeypatch):
    calls = []
    real = projspace.scan_system
    monkeypatch.setattr(projspace, "scan_system",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    ring = ("x", "y", "z")
    f = parse_poly("x*y - z^2", ring)
    plan = ScanPlan(2, SmallPrime(5))
    first = point_set(plan, [f], threads=1)
    assert point_set(plan, (f,), threads=2) is first and len(calls) == 1
    assert first.dtype == np.int64 and not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 7
    res, pts = real(plan, [f], collect=True)
    assert np.array_equal(first, pts) and res.matched == len(first) == 6
    clear_point_sets()
    point_set(plan, [f])
    assert len(calls) == 2
