import dataclasses

import numpy as np
import pytest

from keyvariety import invariants, projspace
from keyvariety.catalog import RankLocusSpec, build_case
from keyvariety.invariants import (bracket_dimension, ci_degree, count_points,
                                   estimate_dimension, grassmann_degree,
                                   hilbert_ci_degree, singular_scan,
                                   two_path_count_check)
from keyvariety.projspace import (BudgetExceeded, ScanPlan, point_set,
                                  proj_point_count)
from keyvariety.sections import section_report

# frozen by exhaustive scans; regression-guarded here
FROZEN_COUNTS = {
    ("g4_sigma_bar", 2): 6527, ("g4_sigma_bar", 3): 401_314,
    ("g5_sigma_bar", 2): 11_775,
    ("g6q_sigma_bar", 2): 1471, ("g6q_sigma_bar", 3): 39_001,
    ("g6c_sigma_bar", 2): 703, ("g6c_sigma_bar", 3): 12_757,
    ("g8_sigma_bar", 2): 91, ("g8_sigma_bar", 3): 481,
}


def test_ci_degree_examples():
    assert ci_degree((2, 3)) == 6 == 2 * 4 - 2
    assert ci_degree((2, 2, 2)) == 8 == 2 * 5 - 2
    assert ci_degree((2,)) == 2
    with pytest.raises(ValueError):
        ci_degree(())
    with pytest.raises(ValueError):
        ci_degree((2, 0))


@pytest.mark.parametrize("degrees,ambient", [
    ((2, 3), 5), ((2, 3), 13), ((2, 2, 2), 6), ((2, 2, 2), 15),
    ((2,), 4), ((3, 3), 7), ((2, 2, 3), 9),
])
def test_hilbert_oracle_agrees(degrees, ambient):
    assert hilbert_ci_degree(degrees, ambient) == ci_degree(degrees)


def test_grassmann_degree_values():
    assert grassmann_degree(4) == 2
    assert grassmann_degree(5) == 5
    assert grassmann_degree(6) == 14
    assert 2 * grassmann_degree(5) == 10 == 2 * 6 - 2
    assert grassmann_degree(6) == 2 * 8 - 2


def test_grassmann_degree_range():
    # the enumeration itself asserts agreement with the hook-length form
    for n in range(4, 9):
        assert grassmann_degree(n) >= 1
    with pytest.raises(ValueError):
        grassmann_degree(3)


def test_bracket_dimension():
    assert bracket_dimension(7, 2, 10) == 2
    assert bracket_dimension(6, 2, 10) == 1   # below #P^2(F_2)
    assert bracket_dimension(0, 2, 10) == -1
    for d in range(6):
        assert bracket_dimension(proj_point_count(d, 3), 3, 10) == d


def test_estimate_dimension_projective_space():
    spec = build_case("Q3_g6q")
    est = estimate_dimension(spec, (2, 3))
    assert est.estimated_dim == 3 and est.consistent
    assert est.counts == {2: 15, 3: 40}  # odd quadrics count like P^3


def test_estimate_dimension_g8():
    est = estimate_dimension(build_case("g8_sigma_bar"), (2, 3))
    assert est.estimated_dim == 5 and est.consistent
    assert est.counts[2] == 91 and est.counts[3] == 481


def test_estimate_dimension_budget():
    with pytest.raises(BudgetExceeded):
        estimate_dimension(build_case("g5_sigma_bar"), (13,))


@pytest.mark.parametrize("case,p", list(FROZEN_COUNTS))
def test_frozen_counts(case, p):
    if (case, p) == ("g5_sigma_bar", 3):
        pytest.skip("covered by the acceptance suite")
    assert count_points(build_case(case), p) == FROZEN_COUNTS[(case, p)]


def test_two_path_agreement_g6c():
    direct, transformed = two_path_count_check(build_case("g6c_sigma_bar"), 3)
    assert direct == transformed == 12_757


@pytest.mark.parametrize("case,expected_sing", [
    ("g4_sigma_bar", 1151), ("g5_sigma_bar", 1575), ("g6q_sigma_bar", 151)])
def test_singular_scan_equality_p2(case, expected_sing):
    spec = build_case(case)
    rep = singular_scan(spec, 2)
    assert rep.difference.shape == (0, len(spec.vars))
    assert len(rep.singular) == expected_sing
    pts = point_set(ScanPlan(spec.ambient_dim, 2), spec.generators)
    assert rep.count == len(pts) == FROZEN_COUNTS[(case, 2)]
    member = invariants._rank_locus_mask(spec, spec.rank_locus, pts, 2)
    assert np.array_equal(pts[member], rep.singular)


def _row_positions(rows, points):
    index = {row: i for i, row in enumerate(map(tuple, points.tolist()))}
    return [index[row] for row in map(tuple, rows.tolist())]


def test_singular_scan_reports_true_difference_count():
    # with an empty rank-locus description the difference is the whole
    # singular set, every row of it, in index order
    from keyvariety.algebra import PointAffineRep, jacobian_rank

    spec = build_case("g6q_sigma_bar")
    empty = RankLocusSpec(spec.case_id, "no branches", ())
    rep = singular_scan(dataclasses.replace(spec, rank_locus=empty), 2)
    pts = point_set(ScanPlan(spec.ambient_dim, 2), spec.generators)
    assert rep.count == len(pts) == FROZEN_COUNTS[("g6q_sigma_bar", 2)]
    assert not pts.flags.writeable
    assert len(rep.difference) == len(rep.singular) == 151
    assert np.array_equal(rep.difference, rep.singular)
    positions = _row_positions(rep.difference, pts)
    assert positions == sorted(set(positions))
    codim = spec.ambient_dim - spec.expected_dim
    for row in rep.difference.tolist():
        assert jacobian_rank(list(spec.generators), PointAffineRep(tuple(row)), 2) < codim


def test_jacobian_mask_independent_of_block_size(monkeypatch):
    from keyvariety.projspace import ScanPlan, scan_system

    spec = build_case("g6q_sigma_bar")
    _, pts = scan_system(ScanPlan(spec.ambient_dim, 2), list(spec.generators),
                         collect=True)
    assert pts.shape[0] <= invariants._RANK_BLOCK
    one = invariants._jacobian_singular_mask(spec, pts, 2)
    # blocks of 100 rows, the last one partial: the block join is checked
    monkeypatch.setattr(invariants, "_RANK_BLOCK", 100)
    assert pts.shape[0] > 5 * invariants._RANK_BLOCK
    assert pts.shape[0] % invariants._RANK_BLOCK
    blocked = invariants._jacobian_singular_mask(spec, pts, 2)
    assert one.shape == blocked.shape == (pts.shape[0],)
    assert np.array_equal(one, blocked)
    assert int(one.sum()) == 151
    assert invariants._jacobian_singular_mask(spec, pts[:0], 2).shape == (0,)


def test_jacobian_mask_matches_pointwise_rank_g4_p3(monkeypatch):
    """The batched mask (bit planes at p = 3) against jacobian_rank < codim
    at a seeded 3000 points of g4, in blocks of 1024 rows."""
    from keyvariety.algebra import PointAffineRep, jacobian_rank
    from keyvariety.projspace import ScanPlan, point_set

    spec = build_case("g4_sigma_bar")
    pts = point_set(ScanPlan(spec.ambient_dim, 3), spec.generators)
    rows = pts[np.random.default_rng(11).choice(pts.shape[0], 3000, replace=False)]
    monkeypatch.setattr(invariants, "_RANK_BLOCK", 1024)
    mask = invariants._jacobian_singular_mask(spec, rows, 3)
    codim = spec.ambient_dim - spec.expected_dim
    gens = list(spec.generators)
    want = [jacobian_rank(gens, PointAffineRep(tuple(row)), 3) < codim
            for row in rows.tolist()]
    assert mask.tolist() == want
    assert 0 < mask.sum() < len(want)


def _zero_block_rows(spec, branch, pts):
    return (pts[:, [spec.var_index(v) for v in branch.zero_vars]] == 0).all(axis=1)


@pytest.mark.parametrize("case,p,sample", [
    ("g4_sigma_bar", 2, None), ("g5_sigma_bar", 2, None),
    ("g6q_sigma_bar", 2, None), ("g4_sigma_bar", 3, 1000),
    ("g5_sigma_bar", 3, 1000), ("g6q_sigma_bar", 3, 1000)])
def test_rank_locus_mask_matches_pointwise_membership(monkeypatch, case, p,
                                                      sample):
    """The array mask against catalog.rank_locus_member at every point; at
    p = 3 a seeded sample of 1000 points plus 1000 with a zero block. A
    branch's matrix is only ever ranked on its zero-block rows."""
    from keyvariety.algebra import PointAffineRep
    from keyvariety.catalog import rank_locus_member
    from keyvariety.projspace import ScanPlan, point_set

    spec = build_case(case)
    locus = spec.rank_locus
    pts = point_set(ScanPlan(spec.ambient_dim, p), spec.generators)
    if sample is not None:
        rng = np.random.default_rng(8)
        blocks = np.any([_zero_block_rows(spec, b, pts) for b in locus.branches],
                        axis=0)
        pts = np.concatenate([
            pts[rng.choice(pts.shape[0], sample, replace=False)],
            pts[rng.choice(np.flatnonzero(blocks), sample, replace=False)]])
    seen = []
    real = invariants._rank_mask
    monkeypatch.setattr(invariants, "_rank_mask",
                        lambda matrix, rows, q, t: seen.append(rows.shape[0])
                        or real(matrix, rows, q, t))
    member = invariants._rank_locus_mask(spec, locus, pts, p)
    assert seen == [int(_zero_block_rows(spec, b, pts).sum())
                    for b in locus.branches]
    assert all(n < pts.shape[0] for n in seen)
    want = [rank_locus_member(locus, PointAffineRep(tuple(row)), p)
            for row in pts.tolist()]
    assert member.tolist() == want
    assert 0 < member.sum() < pts.shape[0]


def test_rank_locus_mask_multiplies_no_polynomial(monkeypatch):
    """The declared matrices are ranked point by point: no minor is expanded
    symbolically once the specs are built."""
    from keyvariety.algebra import Polynomial
    from keyvariety.projspace import ScanPlan, point_set

    specs = [build_case(c) for c in ("g4_sigma_bar", "g5_sigma_bar", "g6q_sigma_bar")]
    sets = [point_set(ScanPlan(s.ambient_dim, 2), s.generators) for s in specs]

    def refuse(*_):
        raise AssertionError("a Polynomial product")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    for spec, pts in zip(specs, sets):
        assert invariants._rank_locus_mask(spec, spec.rank_locus, pts, 2).any()


def test_g8_singular_set_is_projected_veronese():
    from keyvariety.incidence import projected_veronese_points
    spec = build_case("g8_sigma_bar")
    for p in (2, 3):
        rep = singular_scan(spec, p)
        veronese, _ = projected_veronese_points(p)
        embedded = {tuple(v) + (0,) * 7 for v in veronese}
        assert set(map(tuple, rep.singular.tolist())) == embedded
        assert len(rep.singular) == p * p + p + 1


def test_singular_scan_g6c_containment_p2():
    spec = build_case("g6c_sigma_bar")
    rep = singular_scan(spec, 2)
    assert rep.difference is None
    plane = [spec.var_index(v) for v in spec.planes["Pibar"].vanishing_vars]
    assert (rep.singular[:, plane] == 0).all()
    assert len(rep.singular) == 87
    pts = point_set(ScanPlan(spec.ambient_dim, 2), spec.generators)
    assert rep.count == len(pts) == FROZEN_COUNTS[("g6c_sigma_bar", 2)]
    positions = _row_positions(rep.singular, pts)
    assert positions == sorted(set(positions))


@pytest.mark.parametrize("case,p", list(FROZEN_COUNTS))
def test_streamed_singular_scan_equals_held(case, p, monkeypatch):
    """singular_scan on a set nobody holds (streamed by point_batches) and
    on the held set (slices of point_set's rows) give the same rows and
    count, with chunks and batches small enough that batches gather several
    chunks and split index groups; the streamed scan adds nothing to the
    memo. g6c and g8, with no declared rank locus, report no difference."""
    spec = build_case(case)
    plan = ScanPlan(spec.ambient_dim, p)
    count = FROZEN_COUNTS[(case, p)]
    monkeypatch.setattr(projspace, "GRID_CHUNK_POINTS", p ** 7)
    monkeypatch.setattr(projspace, "_SCAN_BATCH", count // 6)
    batches = []
    real = projspace._collected_rows
    monkeypatch.setattr(projspace, "_collected_rows",
                        lambda pieces, *a: batches.append(
                            [piece[0][0] for piece in pieces])
                        or real(pieces, *a))
    streamed = singular_scan(spec, p)
    assert projspace._POINT_SETS == {}
    assert len(batches) >= 6
    assert any(len(groups) > 1 for groups in batches)
    assert len({groups[-1] for groups in batches}) < len(batches)
    pts = point_set(plan, spec.generators)
    held = singular_scan(spec, p)
    assert streamed.count == held.count == len(pts) == count
    assert np.array_equal(streamed.singular, held.singular)
    assert streamed.singular.dtype == held.singular.dtype == pts.dtype
    if spec.rank_locus is None:
        assert streamed.difference is held.difference is None
    else:
        assert np.array_equal(streamed.difference, held.difference)
        assert len(held.difference) == 0


def test_singular_scan_of_a_held_set_runs_no_scan(monkeypatch):
    spec = build_case("g6q_sigma_bar")
    pts = point_set(ScanPlan(spec.ambient_dim, 3), spec.generators)
    chunks = []
    real = projspace._grid_chunk
    monkeypatch.setattr(projspace, "_grid_chunk",
                        lambda *a: chunks.append(a[2]) or real(*a))
    rep = singular_scan(spec, 3)
    assert chunks == []
    assert rep.count == len(pts) == FROZEN_COUNTS[("g6q_sigma_bar", 3)]
    assert len(rep.singular) == 1201 and len(rep.difference) == 0


def test_streamed_singular_scan_stays_small_in_memory():
    """The traced peak of the g4 singular scan at p = 3 stays below 6 MiB:
    its 401,314 rows (5.4 MiB of uint8) are ranked a batch at a time as the
    scan finds them and never held whole; holding them took 10.2 MiB."""
    import tracemalloc

    spec = build_case("g4_sigma_bar")
    tracemalloc.start()
    try:
        rep = singular_scan(spec, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.count == FROZEN_COUNTS[("g4_sigma_bar", 3)]
    assert len(rep.difference) == 0
    assert peak < 6 * 2**20


def test_g6q_dual_vertex_plane_is_singular():
    # every point with z = x = 0 is Jacobian-singular and in the rank locus
    from keyvariety.algebra import PointAffineRep, jacobian_rank
    from keyvariety.catalog import rank_locus_member
    from keyvariety.projspace import points_block, proj_point_count

    spec = build_case("g6q_sigma_bar")
    codim = spec.ambient_dim - spec.expected_dim
    for y in points_block(4, 2, 0, proj_point_count(4, 2)).tolist():
        pt = PointAffineRep((0,) * 9 + tuple(y))
        assert jacobian_rank(list(spec.generators), pt, 2) < codim
        assert rank_locus_member(spec.rank_locus, pt, 2)


@pytest.mark.parametrize("check", [
    lambda spec: two_path_count_check(spec, 5),
    lambda spec: singular_scan(spec, 5),
    lambda spec: section_report(spec, (5,)),
], ids=["two_path_count_check", "singular_scan", "section_report"])
def test_unbudgeted_paths_hit_the_default_budget(check):
    # P^15(F_5) has 3.8e10 points; the scan refuses before it starts
    with pytest.raises(BudgetExceeded):
        check(build_case("g5_sigma_bar"))


def test_transformed_path_scans_when_the_memo_holds_the_direct_set(monkeypatch):
    from keyvariety import projspace

    spec = build_case("g8_sigma_bar")
    plan = projspace.ScanPlan(spec.ambient_dim, 2)
    direct = projspace.point_set(plan, spec.generators)
    memo_scans, own_scans = [], []
    for module, calls in ((projspace, memo_scans), (invariants, own_scans)):
        real = module.scan_system
        monkeypatch.setattr(module, "scan_system",
                            lambda *a, real=real, calls=calls, **k:
                            calls.append(a) or real(*a, **k))
    assert two_path_count_check(spec, 2) == (len(direct), 91)
    assert memo_scans == [] and len(own_scans) == 1
