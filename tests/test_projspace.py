import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from keyvariety import projspace
from keyvariety.algebra import (PointAffineRep, Polynomial, SmallPrime,
                                parse_poly)
from keyvariety.catalog import build_case, plucker_ideal
from keyvariety.projspace import (GRID_CHUNK_POINTS, LANE_DTYPE, ROW_DTYPE,
                                  CompiledSystem, ScanPlan, ScanResult,
                                  _fits_float32,
                                  _matmul_mod, _term_sum, _zero_mod,
                                  clear_point_sets, point_batches, point_set,
                                  points_block, proj_point_count, scan_system)
from keyvariety.sections import SectionSpec, cut, section_report


def scan(plan, predicate, ranges=None):
    """Slow pointwise oracle: the points where a pure predicate holds, range
    by range (the whole index range unless ranges are given) in range order.
    Returns (ScanResult, the matching points in index order)."""
    hits = []
    for start, stop in ranges or [(0, plan.total)]:
        rows = points_block(plan.ambient_dim, plan.prime, start, stop).tolist()
        pts = [PointAffineRep(tuple(row)) for row in rows]
        hits.extend(pt for pt in pts if predicate(pt))
    return ScanResult(len(hits)), tuple(hits)


def test_point_count_examples():
    assert proj_point_count(2, 2) == 7
    assert proj_point_count(13, 3) == 2_391_484
    assert proj_point_count(15, 2) == 65_535
    with pytest.raises(ValueError):
        proj_point_count(-1, 2)


def _all_rows(plan):
    return [tuple(row) for row in points_block(
        plan.ambient_dim, plan.prime, 0, plan.total).tolist()]


def test_enumerate_line_over_f2():
    pts = set(_all_rows(ScanPlan(1, SmallPrime(2))))
    assert pts == {(1, 0), (1, 1), (0, 1)}


def test_enumerate_plane_over_f2():
    pts = _all_rows(ScanPlan(2, SmallPrime(2)))
    assert len(pts) == 7
    assert len(set(pts)) == 7


def test_enumerate_p3_over_f3():
    pts = _all_rows(ScanPlan(3, SmallPrime(3)))
    assert len(pts) == 40
    assert len(set(pts)) == 40


def test_index_bijection():
    """points_block gives each point of P^3(F_3) once, as its normalized
    representative, in index order: by the position k of the leading 1, then
    the coordinates after it in base-p lexicographic order."""
    plan = ScanPlan(3, SmallPrime(3))
    want = [(0,) * k + (1,) + digits for k in range(4)
            for digits in itertools.product(range(3), repeat=3 - k)]
    rows = _all_rows(plan)
    assert rows == want and len(rows) == plan.total
    for coords in rows:
        PointAffineRep(coords)  # a normalized representative


def test_scan_true_predicate():
    plan = ScanPlan(2, SmallPrime(2))
    res, _ = scan(plan, lambda pt: True)
    assert res.matched == plan.total == 7


@pytest.mark.parametrize("chunks", [1, 2, 8])
def test_scan_chunk_invariance(chunks):
    plan = ScanPlan(4, SmallPrime(3))
    bounds = [plan.total * c // chunks for c in range(chunks + 1)]
    res = scan(plan, lambda pt: pt.coords[0] == 0,
               ranges=list(zip(bounds, bounds[1:])))
    base = scan(plan, lambda pt: pt.coords[0] == 0, ranges=[(0, plan.total)])
    assert res == base and base[0].matched == proj_point_count(3, 3)


def test_scan_g24_quadric():
    quad = plucker_ideal(4)
    plan = ScanPlan(5, SmallPrime(2))
    res, _ = scan(plan, lambda pt: all(g.eval_mod(pt.coords, 2) == 0 for g in quad))
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
    slow, _ = scan(plan, lambda pt: f.eval_mod(pt.coords, 5) == 0)
    assert fast == slow == ScanResult(6)  # a smooth conic: p + 1 points


def test_scan_system_collect():
    ring = ("x", "y", "z")
    f = parse_poly("x", ring)
    plan = ScanPlan(2, SmallPrime(3))
    res, pts = scan_system(plan, [f], collect=True)
    assert res == ScanResult(4) == scan_system(plan, [f])
    # the line {x=0} in P^2(F_3), in index order
    assert pts.tolist() == [[0, 1, 0], [0, 1, 1], [0, 1, 2], [0, 0, 1]]


def test_scan_rejects_generators_of_another_ring():
    # a 2-variable generator beside a quadric of P^2: a count of nothing if
    # only the first generator's ring were checked
    quadric = parse_poly("x0*x1 - x2^2", ("x0", "x1", "x2"))
    line = parse_poly("a - b", ("a", "b"))
    plan = ScanPlan(2, SmallPrime(3))
    assert scan_system(plan, [quadric]).matched == 4
    for polys in ([quadric, line], [line, quadric]):
        for collect in (False, True):
            with pytest.raises(ValueError, match="arity"):
                scan_system(plan, polys, collect=collect)


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
    first = point_set(plan, [f])
    assert point_set(plan, (f,)) is first and len(calls) == 1
    assert first.dtype == np.min_scalar_type(5 - 1) and not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 7
    res, pts = real(plan, [f], collect=True)
    assert np.array_equal(first, pts) and res.matched == len(first) == 6
    clear_point_sets()
    point_set(plan, [f])
    assert len(calls) == 2


def _oracle_rows(plan, polys):
    """Every common zero by the pointwise oracle: (ScanResult, the points as
    int64 rows in index order)."""
    res, hits = scan(plan, lambda pt: all(f.eval_mod(pt.coords, plan.prime) == 0
                                          for f in polys))
    rows = [pt.coords for pt in hits]
    return res, np.array(rows, dtype=np.int64).reshape(len(rows), plan.ambient_dim + 1)


@st.composite
def _systems(draw):
    """(n, p, generators): 1-3 polynomials of degree <= 3 in n + 1 variables,
    coefficients in [-8, 8] (some of them 0 mod p). n stops at 3 for p = 13
    and at 1 for p = 181, the largest SmallPrime, which keeps the pointwise
    oracle below P^5(F_7) (19,608 points)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 181]))
    n = draw(st.integers(0, 5 if p < 13 else 3 if p == 13 else 1))
    ring = tuple(f"x{i}" for i in range(n + 1))
    monomial = st.lists(st.integers(0, n), max_size=3).map(
        lambda vs: tuple(vs.count(i) for i in range(n + 1)))
    poly = st.dictionaries(monomial, st.integers(-8, 8), min_size=1,
                           max_size=6).map(lambda t: Polynomial(ring, t))
    return n, p, draw(st.lists(poly, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(_systems())
def test_grid_kernel_matches_pointwise_oracle(system):
    n, p, polys = system
    plan = ScanPlan(n, SmallPrime(p))
    want, want_rows = _oracle_rows(plan, polys)
    # chunks of max(8, total/256) points cut every larger group (the largest
    # group of every plan above 16 points) into blocks of outer rows, so the
    # chunk bounds and the join are checked as well, in a few hundred chunks
    # at most rather than thousands
    for chunk_points in (GRID_CHUNK_POINTS, max(8, plan.total // 256)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(projspace, "GRID_CHUNK_POINTS", chunk_points)
            res, rows = scan_system(plan, polys, collect=True)
            assert res == want == scan_system(plan, polys)
            assert np.array_equal(rows, want_rows)


def test_small_grid_chunks_split_groups(monkeypatch):
    chunks = []
    real = projspace._grid_chunk
    monkeypatch.setattr(projspace, "_grid_chunk",
                        lambda group, p, r0, r1:
                        chunks.append((group.k, r0, r1)) or
                        real(group, p, r0, r1))
    monkeypatch.setattr(projspace, "GRID_CHUNK_POINTS", 8)
    ring = tuple(f"x{i}" for i in range(5))
    scan_system(ScanPlan(4, SmallPrime(3)), [parse_poly("x0*x1 - x4^2", ring)])
    # group 0 is F_3^4: an inner grid of 3 points, 2 outer rows per chunk
    group0 = [(r0, r1) for k, r0, r1 in chunks if k == 0]
    assert group0 == [(r0, min(r0 + 2, 27)) for r0 in range(0, 27, 2)]


def test_matmul_mod_exact_at_largest_prime():
    """At p = 181, over an inner length past the float32 edge, from operands
    of the narrow row dtype as from int64 ones."""
    p, k = 181, 600
    rng = np.random.default_rng(5)
    a = rng.integers(p - 50, p, (3, k), dtype=np.int64)
    b = rng.integers(p - 50, p, (k, 4), dtype=np.int64)
    want = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % p
             for j in range(4)] for i in range(3)]
    assert _matmul_mod(a, b, p).tolist() == want
    assert _matmul_mod(a.astype(ROW_DTYPE), b.astype(ROW_DTYPE), p).tolist() == want


def _edge(p):
    """The longest inner length at which float32 products are exact mod p."""
    return (2**24 - p - 1) // (p - 1) ** 2


_EDGES = [(p, k, 1, 1, 0) for p in (5, 13, 181) for k in (_edge(p), _edge(p) + 1)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 13, 181]).flatmap(
    lambda p: st.tuples(st.just(p),
                        st.integers(1, 64) | st.sampled_from(
                            [_edge(p), _edge(p) + 1] if p > 3 else [1]),
                        st.integers(0, 2), st.integers(0, 2),
                        st.integers(0, 2**32 - 1))))
@example(_EDGES[0])
@example(_EDGES[1])
@example(_EDGES[2])
@example(_EDGES[3])
@example(_EDGES[4])
@example(_EDGES[5])
def test_zero_mod_matches_matmul_mod(case):
    p, k, rows, cols, seed = case
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, (rows + 1, k), dtype=np.int64)
    b = rng.integers(0, p, (k, cols + 2), dtype=np.int64)
    # the largest entry the inner length allows, once as a multiple of p:
    # the all-(p-1) row against an all-(p-1) column, and against one whose
    # first k mod p entries are 0
    a[-1] = b[:, -2:] = p - 1
    b[:k % p, -1] = 0
    got = _zero_mod(a, b, p)
    assert got.dtype == bool
    assert np.array_equal(got, _matmul_mod(a, b, p) == 0)
    assert got[-1, -1]


def test_zero_mod_row_blocks():
    # 2^18 // (9 * 100) = 291 rows per block: 18 blocks, the last one short
    rng = np.random.default_rng(3)
    a = rng.integers(0, 13, (5000, 9), dtype=np.int64)
    b = rng.integers(0, 13, (9, 100), dtype=np.int64)
    got = _zero_mod(a, b, 13)
    assert got.any() and np.array_equal(got, _matmul_mod(a, b, 13) == 0)


def test_float32_bound_edges():
    for p in (5, 13, 181):
        assert _fits_float32(_edge(p), p) and not _fits_float32(_edge(p) + 1, p)
    assert _edge(181) == 517


def test_zero_mod_dispatch(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the wrong product path ran")

    p = 181
    monkeypatch.setattr(projspace, "_float32_zero", boom)
    # past the float32 edge: 518 * 180^2 = 156 mod 181
    a = np.full((2, _edge(p) + 1), p - 1, dtype=np.int64)
    assert _zero_mod(a, a.T, p).tolist() == [[False] * 2] * 2
    monkeypatch.undo()
    gens = plucker_ideal(5)
    plan = ScanPlan(len(gens[0].ring_vars) - 1, SmallPrime(3))
    want, want_rows = scan_system(plan, gens, collect=True)
    monkeypatch.setattr(projspace, "_matmul_mod", boom)
    got, rows = scan_system(plan, gens, collect=True)
    assert got == want and got.matched == 1210
    assert np.array_equal(rows, want_rows)


def test_grid_kernel_exact_at_largest_prime_on_p0():
    p = SmallPrime(181)
    ring = ("x",)
    plan = ScanPlan(0, p)
    vanishing = parse_poly(f"{p - 1}*x^3 + {p - 2}*x^2 + 3*x", ring)
    other = parse_poly(f"{p - 1}*x^3 + {p - 2}*x^2 + 2*x", ring)
    res, rows = scan_system(plan, [vanishing], collect=True)
    assert res.matched == 1 and rows.tolist() == [[1]]
    assert scan_system(plan, [other]).matched == 0
    assert scan_system(plan, [vanishing, other]).matched == 0


@st.composite
def _rows_and_systems(draw):
    """(p, rows, index rows, generators): 1-3 polynomials of degree <= 6 in
    1-5 variables with coefficients up to 10^12 in size, and 1-12 residue
    rows plus the all-zero and the all-(p-1) row."""
    p = draw(st.sampled_from([2, 3, 181]))
    nvars = draw(st.integers(1, 5))
    ring = tuple(f"x{i}" for i in range(nvars))
    monomial = st.lists(st.integers(0, nvars - 1), max_size=6).map(
        lambda vs: tuple(vs.count(i) for i in range(nvars)))
    coef = st.integers(-10**12, 10**12)
    poly = st.dictionaries(monomial, coef, min_size=1,
                           max_size=8).map(lambda t: Polynomial(ring, t))
    polys = draw(st.lists(poly, min_size=1, max_size=3))
    coord = st.integers(0, p - 1)
    rows = draw(st.lists(st.lists(coord, min_size=nvars, max_size=nvars),
                         min_size=1, max_size=12))
    rows += [[0] * nvars, [p - 1] * nvars]
    pts = np.array(rows, dtype=np.int64)
    idx = np.array(draw(st.lists(st.integers(0, len(rows) - 1), max_size=20)),
                   dtype=np.int64)
    return p, pts, idx, polys


@settings(max_examples=200, deadline=None)
@given(_rows_and_systems())
def test_compiled_system_matches_eval_mod(case):
    """The bound-tracked term loop is exact at every prime, up to the
    largest SmallPrime, on all rows and on rows gathered by an index."""
    p, pts, idx, polys = case
    system = CompiledSystem(polys)
    want = np.array([[f.eval_mod(row, p) for row in pts.tolist()]
                     for f in polys], dtype=np.int64)
    assert np.array_equal(system.eval_block(pts, p), want)
    for gen, values in zip(system.compiled, want):
        for rows, expect in ((pts, values), (pts[idx], values[idx])):
            got = _term_sum(gen, projspace._Monomials(rows, p), p)
            assert np.array_equal(got, expect)
    assert np.array_equal(system.vanishing_mask(pts, p), (want == 0).all(axis=0))


@pytest.mark.parametrize("p", [2, 3, 181])
def test_monomial_builder_matches_eval_mod(p):
    """Every monomial of degree <= 6 in three variables equals eval_mod at
    random residue rows and the all-(p-1) row, over the whole SmallPrime
    range: the raw values are in the lane and lie in [0, hi] with hi at most
    the lane's largest value, and reduced() gives the residues. Monomials
    are asked for in ascending and in descending degree (a high one first
    builds the lower ones it needs), on int64 rows and on rows of the narrow
    dtype gathered by an index. At p = 181 the bound forces reductions from
    degree 3."""
    rng = np.random.default_rng(p)
    ring = ("x0", "x1", "x2")
    wide = rng.integers(0, p, (12, 3), dtype=np.int64)
    wide[-1] = p - 1
    idx = np.array([11, 0, 3, 3], dtype=np.int64)
    exps = sorted((e for e in itertools.product(range(7), repeat=3) if sum(e) <= 6),
                  key=sum)
    for order in (exps, exps[::-1]):
        for pts, want_rows in ((wide, wide),
                               (wide.astype(ROW_DTYPE)[idx], wide[idx])):
            want = {e: [Polynomial(ring, {e: 1}).eval_mod(r, p)
                        for r in want_rows.tolist()]
                    for e in order}
            monomials = projspace._Monomials(pts, p)
            for e in order:
                values, hi = monomials[e]
                assert values.dtype == LANE_DTYPE
                assert hi <= np.iinfo(LANE_DTYPE).max
                assert 0 <= values.min() and values.max() <= hi
                assert (values % p).tolist() == want[e]
            for e in order:
                assert monomials.reduced(e).tolist() == want[e]


def test_grid_kernel_builds_each_monomial_once_per_group_and_chunk(monkeypatch):
    """A scan of the Plucker quadrics of G(2, 5) at p = 3 in small chunks
    counts every build of the monomial builder (a row of ones, a widened
    column or one multiply) against the group table or the chunk it runs
    in: the inner monomials are built at most once per group, for all
    generators and parts, and the outer ones at most once per chunk, for
    all generators."""
    builds = Counter()
    where = []
    real_build = projspace._Monomials._build
    real_group, real_chunk = projspace._grid_group, projspace._grid_chunk

    def build(self, e):
        builds[where[-1], e] += 1
        return real_build(self, e)

    def group(polys, n, k, p):
        where.append(("group", k))
        try:
            return real_group(polys, n, k, p)
        finally:
            where.pop()

    def chunk(group, p, r0, r1):
        where.append(("chunk", group.k, r0))
        try:
            return real_chunk(group, p, r0, r1)
        finally:
            where.pop()

    monkeypatch.setattr(projspace._Monomials, "_build", build)
    monkeypatch.setattr(projspace, "_grid_group", group)
    monkeypatch.setattr(projspace, "_grid_chunk", chunk)
    # group 0 splits into 243 chunks of one outer row of 81 inner points,
    # the inner digits p25, p34, p35, p45 holding the monomial p25*p34
    monkeypatch.setattr(projspace, "GRID_CHUNK_POINTS", 81)
    gens = plucker_ideal(5)
    assert scan_system(ScanPlan(9, SmallPrime(3)), gens).matched == 1210
    assert max(builds.values()) == 1
    multiplies = Counter(ctx[0] for ctx, e in builds if sum(e) > 1)
    chunks = {ctx for ctx, _ in builds if ctx[0] == "chunk"}
    assert multiplies["group"] > 0 and multiplies["chunk"] > 0
    assert len({ctx[1] for ctx in chunks}) < len(chunks)


def _count_scans(monkeypatch):
    """Count the runs of the grid kernel from here on: one per scan."""
    calls = []
    real = projspace._scan_pieces
    monkeypatch.setattr(projspace, "_scan_pieces",
                        lambda *a: calls.append(a) or real(*a))
    return calls


def test_cut_rows_from_memo_filter_equal_direct_scan(monkeypatch):
    spec = build_case("g8_sigma_bar")
    forms = tuple(parse_poly(t, spec.vars) for t in ("x2 - p24", "x3 - p35"))
    w = cut(spec, SectionSpec(spec.case_id, forms))
    plan = ScanPlan(spec.ambient_dim, SmallPrime(3))
    point_set(plan, spec.generators)
    _, direct = scan_system(plan, list(w.generators), collect=True)
    calls = _count_scans(monkeypatch)
    filtered = np.concatenate(list(point_batches(plan, w.generators)))
    assert calls == []
    assert len(direct) > 0 and np.array_equal(filtered, direct)
    assert (plan, w.generators) not in projspace._POINT_SETS


def test_section_report_reads_the_memo_and_adds_nothing(monkeypatch):
    spec = build_case("g8_sigma_bar")
    forms = tuple(parse_poly(t, spec.vars) for t in ("x2 - p24", "x3 - p35"))
    w = cut(spec, SectionSpec(spec.case_id, forms))
    plan = ScanPlan(spec.ambient_dim, SmallPrime(3))
    _, direct = scan_system(plan, list(w.generators), collect=True)
    point_set(plan, spec.generators)
    held = dict(projspace._POINT_SETS)
    calls = _count_scans(monkeypatch)
    (rep,) = section_report(w, (3,))
    assert calls == [] and rep.count == len(direct)
    assert projspace._POINT_SETS == held
    clear_point_sets()
    (again,) = section_report(w, (3,))
    assert len(calls) == 1 and again == rep
    assert projspace._POINT_SETS == {}


def test_section_report_of_an_unheld_cut_stays_narrow_in_memory():
    """With nothing held, the g5 cut x1 = y11 at p = 3 is streamed from its
    scan a batch at a time: the traced peak of section_report stays below
    the bytes of the whole cut (344,452 rows of 16 one-byte residues,
    5.3 MiB): about 3.3 MiB, where collecting the cut whole peaks at about
    7.2 MiB."""
    import tracemalloc

    spec = build_case("g5_sigma_bar")
    w = cut(spec, SectionSpec(spec.case_id, (parse_poly("x1 - y11", spec.vars),)))
    clear_point_sets()
    tracemalloc.start()
    try:
        (rep,) = section_report(w, (3,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rep.count, rep.singular_count) == (344_452, 15_565)
    assert projspace._POINT_SETS == {}
    assert peak < 344_452 * 16


def test_narrow_rows_equal_int64_rows_at_the_largest_prime():
    """Rows held in ROW_DTYPE give every kernel the results of the same rows
    as int64 at p = 181, the largest SmallPrime, and products of inner
    length 3p leave float32 for _matmul_mod. Each kernel widens by an
    explicit cast, so this holds under the promotion rules of numpy 1.x and
    2.x alike."""
    from keyvariety.algebra import matrix_rank_mod_p
    from keyvariety.incidence import _trace_zero_rows
    from keyvariety.invariants import _rank_mask

    p, dtype = 181, ROW_DTYPE
    rng = np.random.default_rng(p)
    wide = rng.integers(0, p, (40, 8), dtype=np.int64)
    wide[0], wide[1] = 0, p - 1
    # every other row on x0 = x1, x2*x3 = x4*x5, so that the mask holds both
    wide[::2, 1] = wide[::2, 0]
    wide[::2, 4:6] = wide[::2, 2:4]
    narrow = wide.astype(dtype)
    assert narrow.max() == p - 1
    assert np.array_equal(narrow, wide)

    ring = tuple(f"x{i}" for i in range(8))
    polys = [parse_poly(t, ring) for t in
             ("x0 - x1", "x2*x3 - x4*x5", f"{p - 1}*x6^3 - x7*x0^2 + 5")]
    system = CompiledSystem(polys)
    values = system.eval_block(narrow, p)
    want = [[f.eval_mod(row, p) for row in wide.tolist()] for f in polys]
    assert np.array_equal(values, system.eval_block(wide, p))
    assert values.tolist() == want
    held = CompiledSystem(polys[:2]).vanishing_mask(narrow, p)
    assert held[::2].all() and not held.all()
    assert np.array_equal(held, CompiledSystem(polys[:2]).vanishing_mask(wide, p))

    entries = [Polynomial.variable(ring, v) for v in ring]
    matrix = (entries[:4], entries[4:])
    ranks = [matrix_rank_mod_p([row[:4], row[4:]], p) for row in wide.tolist()]
    for t in range(4):
        low = _rank_mask(matrix, narrow, p, t)
        assert np.array_equal(low, _rank_mask(matrix, wide, p, t))
        assert low.tolist() == [r < t for r in ranks]

    traced = _trace_zero_rows(narrow, p)
    assert np.array_equal(traced, _trace_zero_rows(wide, p))
    assert traced[:, 8].tolist() == [-(r[0] + r[4]) % p for r in wide.tolist()]

    # the all-(p-1) row against the all-(p-1) column: 3p(p-1)^2 = 0 mod p
    assert not _fits_float32(3 * p, p)
    b = rng.integers(0, p, (3 * p, 3), dtype=np.int64)
    b[:, 0] = p - 1
    a = rng.integers(0, p, (4, 3 * p), dtype=np.int64)
    a[-1] = p - 1
    zero = _zero_mod(a.astype(dtype), b.astype(dtype), p)
    assert np.array_equal(zero, _zero_mod(a, b, p))
    assert np.array_equal(zero, _matmul_mod(a, b, p) == 0) and zero[-1, 0]
    assert np.array_equal(_matmul_mod(a.astype(dtype), b.astype(dtype), p),
                          _matmul_mod(a, b, p))

    f = parse_poly("x0^2 + x0*x1", ("x0", "x1"))
    _, rows = scan_system(ScanPlan(1, SmallPrime(p)), [f], collect=True)
    assert rows.dtype == dtype and rows.tolist() == [[1, p - 1], [0, 1]]


@pytest.mark.parametrize("p,dtype", [(2, np.uint8), (181, np.uint8)])
def test_eval_block_gives_narrow_residues(p, dtype, monkeypatch):
    """eval_block returns residues in ROW_DTYPE, equal to eval_mod per
    generator, and a generator with no terms gives a zero row without a run
    of the term loop."""
    ring = tuple(f"x{i}" for i in range(4))
    polys = [parse_poly("x0*x1 - x2^2", ring), Polynomial.zero(ring),
             parse_poly(f"{p - 1}*x3^3 + x0 + 7", ring), Polynomial.zero(ring)]
    rng = np.random.default_rng(p)
    wide = rng.integers(0, p, (30, 4), dtype=np.int64)
    wide[0] = p - 1
    loops = []
    real = projspace._term_sum
    monkeypatch.setattr(projspace, "_term_sum",
                        lambda terms, *a: loops.append(terms) or real(terms, *a))
    for pts in (wide, wide.astype(dtype)):
        values = CompiledSystem(polys).eval_block(pts, p)
        assert values.dtype == dtype == ROW_DTYPE
        assert values.tolist() == [[f.eval_mod(row, p) for row in wide.tolist()]
                                   for f in polys]
        assert not values[1].any() and not values[3].any()
    assert len(loops) == 4 and all(loops)


@pytest.mark.parametrize("p,n", [(2, 7), (3, 5), (5, 4)])
def test_collect_rows_equal_brute_force_mask(p, n, monkeypatch):
    """The rows a collect scan writes from its chunk offsets equal the
    points of points_block that vanishing_mask keeps, in index order, with
    chunks small enough that groups split into many of them; x0*x3 vanishes
    on every group past the first, so whole chunks match."""
    ring = tuple(f"x{i}" for i in range(n + 1))
    polys = [parse_poly(t, ring) for t in (f"x0*x1 - x2^2 + x{n}^2", "x0*x3")]
    plan = ScanPlan(n, SmallPrime(p))
    everything = points_block(n, p, 0, plan.total)
    want = everything[CompiledSystem(polys).vanishing_mask(everything, p)]
    for chunk_points in (8, 27, 64):
        monkeypatch.setattr(projspace, "GRID_CHUNK_POINTS", chunk_points)
        res, rows = scan_system(plan, polys, collect=True)
        assert rows.dtype == ROW_DTYPE
        assert res.matched == len(want) and np.array_equal(rows, want)


def test_jacobian_value_slabs_stay_narrow_in_memory():
    """The traced peak of the Jacobian mask of g6q at p = 3 (39,001 points,
    84 partials of which 45 are zero) stays below 4 MiB: it is about
    1.5 MiB with ROW_DTYPE value slabs in blocks of 8192 points, and
    about 9 MiB when eval_block returns int64 slabs."""
    import tracemalloc

    from keyvariety.invariants import _jacobian_singular_mask

    spec = build_case("g6q_sigma_bar")
    pts = point_set(ScanPlan(spec.ambient_dim, SmallPrime(3)), spec.generators)
    tracemalloc.start()
    try:
        sing = _jacobian_singular_mask(spec, pts, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_point_sets()
    assert len(pts) == 39_001 and 0 < sing.sum() < len(pts)
    assert peak < 4 * 2**20


def test_point_sets_stay_narrow_in_memory():
    """The traced peak of the g4 point set at p = 3 (401,314 rows of 14
    one-byte residues) stays below one and a half times its bytes: the scan
    holds each chunk's matches as narrow offsets and writes every row once,
    where holding both the chunk pieces and their join would take twice the
    rows. A linear cut of it filtered from the memo widens one block of
    batch of _SCAN_BATCH rows at a time, read through point_batches: at most
    2(n + 1) int64 vectors of a batch at once, besides its mask and cut
    rows."""
    import tracemalloc

    spec = build_case("g4_sigma_bar")
    plan = ScanPlan(spec.ambient_dim, SmallPrime(3))
    ncols = spec.ambient_dim + 1
    form = parse_poly(" + ".join(f"{i + 1}*{v}" for i, v in enumerate(spec.vars)),
                      spec.vars)
    clear_point_sets()
    tracemalloc.start()
    try:
        pts = point_set(plan, spec.generators)
        _, scan_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        rows = np.concatenate(list(point_batches(plan, spec.generators + (form,))))
        _, cut_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_point_sets()
    assert pts.shape == (401_314, ncols) and pts.dtype == np.uint8
    assert scan_peak < 1.5 * pts.nbytes
    assert 0 < len(rows) < len(pts)
    assert cut_peak - held < (2 * ncols * projspace._SCAN_BATCH * 8
                              + pts.shape[0] + pts.nbytes)


@pytest.mark.parametrize("case,p,chunk_points,batch", [
    ("g6q_sigma_bar", 2, 64, 100), ("g6c_sigma_bar", 3, 729, 1000),
    ("g8_sigma_bar", 3, 81, 1)])
def test_scan_batches_join_to_the_collected_rows(case, p, chunk_points, batch,
                                                 monkeypatch):
    """Batches of at least _SCAN_BATCH rows (the last may be shorter), each
    gathered from whole chunks, whose join is the collect scan's rows."""
    spec = build_case(case)
    plan = ScanPlan(spec.ambient_dim, SmallPrime(p))
    want = point_set(plan, spec.generators)
    clear_point_sets()
    monkeypatch.setattr(projspace, "GRID_CHUNK_POINTS", chunk_points)
    monkeypatch.setattr(projspace, "_SCAN_BATCH", batch)
    batches = list(point_batches(plan, spec.generators))
    assert len(batches) > 2
    assert all(len(b) >= batch for b in batches[:-1])
    assert 0 < len(batches[-1])
    assert all(b.dtype == ROW_DTYPE for b in batches)
    assert np.array_equal(np.concatenate(batches), want)
    assert projspace._POINT_SETS == {}


def test_scan_batches_of_an_empty_set_yield_nothing():
    ring = tuple(f"x{i}" for i in range(3))
    plan = ScanPlan(2, SmallPrime(3))
    assert list(point_batches(plan, [parse_poly("x0^2 + x1^2 + x2^2 + 1", ring),
                                     parse_poly("x0", ring),
                                     parse_poly("x1", ring),
                                     parse_poly("x2", ring)])) == []


def test_scan_batches_check_budget_and_arity_at_the_call(monkeypatch):
    """P^15(F_5) for g5 and a generator of another ring are refused when
    point_batches is called for an unheld set, before any group is built."""
    def refuse(*_):
        raise AssertionError("a group was built")

    monkeypatch.setattr(projspace, "_grid_group", refuse)
    spec = build_case("g5_sigma_bar")
    with pytest.raises(projspace.BudgetExceeded):
        point_batches(ScanPlan(spec.ambient_dim, SmallPrime(5)), spec.generators)
    with pytest.raises(ValueError, match="arity"):
        point_batches(ScanPlan(3, SmallPrime(2)), spec.generators)


def _fresh_python(code, **env_set):
    """stdout of code run in a fresh interpreter that imports keyvariety from
    this source tree, with OPENBLAS_NUM_THREADS unset unless env_set sets
    it."""
    src = str(Path(projspace.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_set)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_starts_no_blas_threads(preset):
    """The package root sets OPENBLAS_NUM_THREADS=1 before keyvariety.cli
    imports numpy, which starts OpenBLAS, so a fresh interpreter holds one
    thread; a value already set is kept."""
    env_set = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    out = _fresh_python("import keyvariety.cli, os; "
                        "print(len(os.listdir('/proc/self/task')), "
                        "os.environ['OPENBLAS_NUM_THREADS'])", **env_set)
    threads, value = out.split()
    if preset is None:
        assert (threads, value) == ("1", "1")
    else:
        assert value == preset


def test_package_import_loads_no_module():
    """The package root re-exports nothing: importing it loads no keyvariety
    module and not numpy, so a launch compiles only what its own imports
    reach."""
    out = _fresh_python("import keyvariety, sys; print(sorted(m for m in "
                        "sys.modules if m.startswith('keyvariety') "
                        "or m.split('.')[0] == 'numpy'))")
    assert out.split() == ["['keyvariety']"]
