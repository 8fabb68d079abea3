import itertools
import random
import re
from collections import Counter

import pytest

from keyvariety import incidence
from keyvariety.algebra import (OffVarietyError, PointAffineRep, Polynomial,
                                SmallPrime, matrix_rank_mod_p, nullspace_mod_p)
from keyvariety.catalog import build_case, trace_zero_matrix
from keyvariety.cli import RunConfig, check_fibers
from keyvariety.incidence import (FIBER_CASES, _classify, base_points,
                                  fiber_birationality_check, fiber_over,
                                  g4_intersection_plane_fiber_check,
                                  g5_plane_fiber_dichotomy,
                                  g6q_vertex_fiber_oracle,
                                  g8_plane_fiber_profile, in_span,
                                  linalg_equiv_check, plucker_vector,
                                  projected_veronese_points, proportional,
                                  subspace_from_plucker, two_subspaces)
from keyvariety.projspace import (BudgetExceeded, ScanPlan, _zero_mod,
                                  point_set, points_block, proj_point_count)


def test_subspace_from_plucker_basis_vector():
    # e1 ^ e2 in a 4-space: p12 = 1, the rest 0
    basis = subspace_from_plucker((1, 0, 0, 0, 0, 0), 4, 3)
    assert in_span((1, 0, 0, 0), basis, 3)
    assert in_span((0, 1, 0, 0), basis, 3)
    assert not in_span((0, 0, 1, 0), basis, 3)


def test_subspace_from_plucker_mixed_bivector():
    # e1 ^ e2 + e1 ^ e3 = e1 ^ (e2 + e3): pairs lex (12),(13),(14),(23),(24),(34)
    basis = subspace_from_plucker((1, 1, 0, 0, 0, 0), 4, 5)
    assert in_span((1, 0, 0, 0), basis, 5)
    assert in_span((0, 1, 1, 0), basis, 5)
    assert not in_span((0, 1, 0, 0), basis, 5)


def test_subspace_from_plucker_rejects_nondecomposable():
    # e1 ^ e2 + e3 ^ e4 violates the single relation of 4-space
    with pytest.raises(ValueError):
        subspace_from_plucker((1, 0, 0, 0, 0, 1), 4, 3)
    with pytest.raises(ValueError):
        subspace_from_plucker((0, 0, 0, 0, 0, 0), 4, 3)


@pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (4, 5), (5, 3)])
def test_plucker_vector_round_trip(n, p):
    """The recovered basis spans the original subspace: both have the same
    kernel forms, the fiber annihilators of the g8 and g6q bases."""
    for basis in itertools.islice(two_subspaces(n, p), 40):
        rec = subspace_from_plucker(plucker_vector(basis, p), n, p)
        assert len(rec) == 2
        assert nullspace_mod_p(rec, p) == nullspace_mod_p(basis, p)


# ---------------------------------------------------------------------------
# fibers


def test_g5_fiber_off_plane_is_a_point():
    t = PointAffineRep((0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0))
    rep = fiber_over("g5", t, 2)
    assert rep.fiber_count == 1 and rep.classified_shape == "point"
    # generic off-plane point: x != 0
    t2 = PointAffineRep((0, 0, 0, 1) + (0,) * 12)
    rep2 = fiber_over("g5", t2, 2)
    assert rep2.fiber_count == 1


def test_g5_fiber_rank2_is_line():
    coords = [0, 0, 0, 0] + [1, 0, 0, 0] + [0, 1, 0, 0] + [0, 0, 0, 0]
    for p in (2, 3):
        rep = fiber_over("g5", PointAffineRep(tuple(coords)), p)
        assert rep.fiber_count == p + 1
        assert rep.classified_shape == "P1"


def test_g5_fiber_rank1_is_plane():
    coords = [0, 0, 0, 0] + [1, 0, 0, 0] + [0, 0, 0, 0] + [0, 0, 0, 0]
    for p in (2, 3):
        rep = fiber_over("g5", PointAffineRep(tuple(coords)), p)
        assert rep.fiber_count == p * p + p + 1
        assert rep.classified_shape == "P2"


def test_fiber_requires_point_on_variety():
    bad = PointAffineRep((1, 0, 0, 0) + (1,) + (0,) * 11)
    with pytest.raises(OffVarietyError):
        fiber_over("g5", bad, 2)


def test_fiber_rejects_unpinned_case():
    with pytest.raises(KeyError):
        base_points("g6c", 2)


def _g5_rank_strata(p):
    """{(rank, #P^(3 - rank)(F_p)): number of points of P^11(F_p)} for the
    3x4 matrices My of each rank, up to scale: the rank-r matrices number
    prod_{i<r} (p^3 - p^i)(p^4 - p^i)/(p^r - p^i)."""
    out = {}
    for r in (1, 2, 3):
        num = den = 1
        for i in range(r):
            num *= (p**3 - p**i) * (p**4 - p**i)
            den *= p**r - p**i
        out[(r, proj_point_count(3 - r, p))] = num // den // (p - 1)
    return out


def test_g5_dichotomy_exhaustive_f3():
    counter, ok = g5_plane_fiber_dichotomy(3)
    assert ok
    assert dict(counter) == _g5_rank_strata(3) == {
        (3, 1): 224640, (2, 4): 40560, (1, 13): 520}


def test_g5_dichotomy_exhaustive_f2():
    counter, ok = g5_plane_fiber_dichotomy(2)
    assert ok
    assert dict(counter) == {(3, 1): 2520, (2, 3): 1470, (1, 7): 105}


def test_g8_fiber_over_generic_point():
    # a base point s with nonzero bivector part: its fiber subspace maps to
    # points with y-part proportional to s, so the fiber over such a point is s
    s7, basis = base_points("g8", 2)[0]
    x = basis[0]
    coords = tuple(x) + tuple(s7)
    t = PointAffineRep.normalize(coords, 2)
    rep = fiber_over("g8", t, 2)
    assert rep.fiber_count == 1
    assert rep.fiber_points[0] == s7


def test_g8_plane_profile_and_veronese():
    for p in (2, 3):
        counter, jump = g8_plane_fiber_profile(p)
        assert set(counter) == {1, p + 1}
        veronese, all_rank4 = projected_veronese_points(p)
        assert all_rank4
        assert len(jump) == p * p + p + 1
        assert jump == set(veronese)


def test_g4_plane_fiber_matches_hyperplane_oracle():
    profile, mismatches = g4_intersection_plane_fiber_check(2)
    assert mismatches == []
    assert sum(profile.values()) == 255


def test_g6q_vertex_fiber_is_confirmed_surface():
    # the fibers check names the vertex fiber a surface when its count is
    # the oracle's; fiber_over itself only sees a count
    t = PointAffineRep((0,) * 9 + (1, 0, 0, 0, 0))
    oracle = g6q_vertex_fiber_oracle(t, 2)
    assert fiber_over("g6q", t, 2).fiber_count == oracle
    [record] = [r for r in check_fibers(RunConfig(cases=("g6q_sigma_bar",)))
                if "vertex-plane" in r.anchor]
    assert record.expected == record.observed == {"count": oracle, "shape": "surface"}
    assert record.verdict == "pass"


@pytest.mark.parametrize("case", ["g8", "g6q", "g5", "g4"])
def test_fiber_birationality_off_distinguished_loci(case):
    checked, violations = fiber_birationality_check(case, 2)
    assert checked > 0 and violations == 0


def test_g4_fiber_off_both_planes_single_point():
    # y = e1, x = e2 (orthogonal), M = 0 lies on both generators
    coords = (1, 0, 0) + (0, 1, 0) + (0,) * 8
    rep = fiber_over("g4", PointAffineRep(coords), 3)
    assert rep.fiber_count == 1
    w, u = rep.fiber_points[0]
    assert w == (1, 0, 0) and u == (0, 1, 0)


# ---------------------------------------------------------------------------
# the base index against the pointwise oracle


def _rank_in_span(vec, basis, p):
    rows = [list(b) for b in basis]
    return matrix_rank_mod_p(rows + [list(vec)], p) == matrix_rank_mod_p(rows, p)


def _g4_pairing(w, zc, u, p):
    z = trace_zero_matrix(zc)
    return sum(w[i] * z[i][j] * u[j] for i in range(3) for j in range(3)) % p


def _oracle_fiber(case, t, p):
    """fiber_over as it was before the base index: every base point tested
    by scalar eliminations."""
    coords = t.coords
    hits = []
    if case == "g8":
        x, y = coords[:5], coords[5:]
        for s, basis in base_points("g8", p):
            if proportional(y, s, p) and _rank_in_span(x, basis, p):
                hits.append(s)
    elif case == "g6q":
        z, x, y = coords[:4], coords[4:9], coords[9:]
        for s, basis in base_points("g6q", p):
            if (proportional(x, s, p) and _rank_in_span(z, basis, p)
                    and sum(a * b for a, b in zip(y, s)) % p == 0):
                hits.append(s)
    elif case == "g4":
        y, x, zc = coords[:3], coords[3:6], coords[6:]
        for w, u in base_points("g4", p):
            if (proportional(y, w, p) and proportional(x, u, p)
                    and _g4_pairing(w, zc, u, p) == 0):
                hits.append((w, u))
    else:
        x, yc = coords[:4], coords[4:]
        My = [yc[4 * i:4 * i + 4] for i in range(3)]
        for u in base_points("g5", p):
            if (all(sum(a * b for a, b in zip(row, u)) % p == 0 for row in My)
                    and proportional(x, u, p)):
                hits.append(u)
    return hits


# coordinates set to zero in the sampled points of each case: none, each key
# block (which keeps every base point a candidate) and, for g4 and g6q, the
# plane where both vanish
_ZERO_BLOCKS = {
    "g4": [(), (0, 1, 2), (3, 4, 5), (0, 1, 2, 3, 4, 5)],
    "g5": [(), (0, 1, 2, 3)],
    "g6q": [(), (4, 5, 6, 7, 8), tuple(range(9))],
    "g8": [(), (5, 6, 7, 8, 9, 10, 11)],
}


def _model_points(case, p, zero, rng, k):
    """k seeded points of the case's model with the coordinates in zero set
    to 0, by rejection."""
    spec = build_case(f"{case}_sigma_bar")
    out = []
    for _ in range(200000):
        raw = [0 if i in zero else rng.randrange(p)
               for i in range(spec.ambient_dim + 1)]
        if not any(raw) or any(g.eval_mod(raw, p) for g in spec.generators):
            continue
        out.append(PointAffineRep.normalize(raw, p))
        if len(out) == k:
            return out
    raise AssertionError(f"too few {case} points with {zero} = 0 at p = {p}")


@pytest.mark.parametrize("case", ["g4", "g5", "g6q", "g8"])
@pytest.mark.parametrize("p", [2, 3])
def test_fiber_over_matches_pointwise_oracle(case, p):
    rng = random.Random(1000 * p + FIBER_CASES.index(case))
    shapes = Counter()
    for zero in _ZERO_BLOCKS[case]:
        for t in _model_points(case, p, zero, rng, 25):
            hits = _oracle_fiber(case, t, p)
            rep = fiber_over(case, t, p)
            assert rep.fiber_points == tuple(hits), (case, p, t)
            assert rep.fiber_count == len(hits)
            # over g6q's dual vertex plane {z = x = 0} a fiber of the
            # oracle's count is the quadric surface, named for its shape
            want = _classify(len(hits), p)
            if (case == "g6q" and zero == tuple(range(9))
                    and len(hits) == g6q_vertex_fiber_oracle(t, p)):
                want = "surface"
            assert rep.classified_shape == want
            shapes[rep.classified_shape] += 1
    assert len(shapes) > 1  # the samples reach more than one fiber shape
    assert shapes["surface"] == (25 if case == "g6q" else 0)


def _oracle_g4_plane_check(p):
    b6 = build_case("B6")
    segre = [trace_zero_matrix(r) for r in point_set(
        ScanPlan(b6.ambient_dim, SmallPrime(p)), b6.generators).tolist()]
    profile = Counter()
    mismatches = []
    for zc in points_block(7, p, 0, proj_point_count(7, p)).tolist():
        t = PointAffineRep((0,) * 6 + tuple(zc))
        count = len(_oracle_fiber("g4", t, p))
        zmat = trace_zero_matrix(zc)
        oracle = sum(1 for P in segre
                     if sum(zmat[i][j] * P[i][j]
                            for i in range(3) for j in range(3)) % p == 0)
        profile[(count, oracle)] += 1
        if count != oracle:
            mismatches.append(t)
    return profile, mismatches


@pytest.mark.parametrize("p", [2, 3])
def test_g4_plane_check_matches_oracle_loop(p):
    profile, mismatches = g4_intersection_plane_fiber_check(p)
    want_profile, want_mismatches = _oracle_g4_plane_check(p)
    assert list(profile.items()) == list(want_profile.items())
    assert mismatches == want_mismatches


def test_probes_make_no_scalar_elimination(monkeypatch):
    rng = random.Random(7)
    probes = []
    for p in (2, 3):
        for case in FIBER_CASES:
            base_points(case, p)
            for zero in _ZERO_BLOCKS[case]:
                probes += [(case, t, p)
                           for t in _model_points(case, p, zero, rng, 5)]

    def boom(*args, **kwargs):
        raise AssertionError("scalar elimination after the base was built")

    monkeypatch.setattr(incidence, "matrix_rank_mod_p", boom)
    monkeypatch.setattr(incidence, "nullspace_mod_p", boom)
    for case, t, p in probes:
        fiber_over(case, t, p)
    for p in (2, 3):
        g8_plane_fiber_profile(p)
        g4_intersection_plane_fiber_check(p)
        for case in FIBER_CASES if p == 2 else ("g8", "g6q"):
            fiber_birationality_check(case, p)


# the distinguished locus of each case is where the old per-row loop skipped
_OFF_LOCUS = {
    "g8": lambda c: any(c[5:]),
    "g6q": lambda c: any(c[4:9]),
    "g5": lambda c: any(c[:4]),
    "g4": lambda c: any(c[:3]) and any(c[3:6]),
}


def _oracle_birationality(case, p):
    """fiber_birationality_check as it was: fiber_over, with its model
    check, on every row of the model's point set off the distinguished
    locus."""
    spec = build_case(f"{case}_sigma_bar")
    pts = point_set(ScanPlan(spec.ambient_dim, SmallPrime(p)), spec.generators)
    checked = violations = 0
    for row in pts.tolist():
        if _OFF_LOCUS[case](row):
            checked += 1
            rep = fiber_over(case, PointAffineRep(tuple(row)), p)
            violations += rep.fiber_count != 1
    return checked, violations


@pytest.mark.parametrize("case, p", [("g4", 2), ("g5", 2), ("g6q", 2),
                                     ("g8", 2), ("g6q", 3), ("g8", 3)])
def test_birationality_matches_per_row_probe_loop(case, p):
    assert fiber_birationality_check(case, p) == _oracle_birationality(case, p)


def test_birationality_and_g5_dichotomy_make_no_model_check(monkeypatch):
    for case in FIBER_CASES:
        spec = build_case(f"{case}_sigma_bar")
        point_set(ScanPlan(spec.ambient_dim, SmallPrime(2)), spec.generators)
        base_points(case, 2)

    def boom(*args, **kwargs):
        raise AssertionError("a model generator was evaluated")

    monkeypatch.setattr(Polynomial, "eval_mod", boom)
    for case in FIBER_CASES:
        checked, violations = fiber_birationality_check(case, 2)
        assert checked > 0 and violations == 0
    counter, ok = g5_plane_fiber_dichotomy(2)
    assert ok and dict(counter) == {(3, 1): 2520, (2, 3): 1470, (1, 7): 105}


def test_fiber_over_rejects_non_residues():
    # y = 0 puts the points on the g5 model, so only the residue check fails;
    # it runs both before and after the base is built
    incidence.clear_base_points()
    for built in (False, True):
        for coords in ((1, 5) + (0,) * 14, (1, -3) + (0,) * 14):
            assert not any(g.eval_mod(coords, 3)
                           for g in build_case("g5_sigma_bar").generators)
            with pytest.raises(ValueError, match="residues"):
                fiber_over("g5", PointAffineRep(coords), 3)
        assert (("g5", 3) in incidence._BASE_POINTS) == built
        base_points("g5", 3)


def test_off_model_probe_message_before_and_after_the_base():
    t = PointAffineRep((1, 0, 0, 0, 1) + (0,) * 11)
    text = "1:0:0:0:1:0:0:0:0:0:0:0:0:0:0:0 is not on g5_sigma_bar mod 2"
    incidence.clear_base_points()
    with pytest.raises(OffVarietyError, match=f"^{re.escape(text)}$"):
        fiber_over("g5", t, 2)
    assert ("g5", 2) not in incidence._BASE_POINTS  # checked before the build
    base_points("g5", 2)
    with pytest.raises(OffVarietyError, match=f"^{re.escape(text)}$"):
        fiber_over("g5", t, 2)


def test_base_budget_fails_before_any_enumeration(monkeypatch):
    """The Python point lists of the g5 and g4 bases and of the g6q vertex
    oracle are held to 10^6 entries before any point is listed: from
    p = 101 for the bases (1,040,604 points of P^3 and 1,050,906 incident
    pairs) and from p = 37 for the oracle (1,926,221 points of P^4)."""
    def boom(*args, **kwargs):
        raise AssertionError("enumeration started over the list budget")

    for name in ("_build_base_points", "points_block", "point_set"):
        monkeypatch.setattr(incidence, name, boom)
    for case, p in (("g5", 101), ("g4", 101)):
        with pytest.raises(BudgetExceeded, match=f"the {case} fiber base"):
            base_points(case, p)
    t = PointAffineRep((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    with pytest.raises(BudgetExceeded, match=re.escape("P^3(F_101): 1040604")):
        fiber_over("g5", t, 101)
    vertex = PointAffineRep((0,) * 9 + (1, 0, 0, 0, 0))
    with pytest.raises(BudgetExceeded,
                       match=re.escape("vertex oracle enumerates P^4(F_37)")):
        fiber_over("g6q", vertex, 37)
    # just under the list budget: 922,180 points and 931,686 pairs at p = 97,
    # 954,305 points of P^4 at p = 31
    incidence._check_base_budget("g5", 97)
    incidence._check_base_budget("g4", 97)
    assert proj_point_count(4, 31) <= incidence._LIST_BUDGET


@pytest.mark.parametrize("check,p,space", [
    (g5_plane_fiber_dichotomy, 7, "P^11(F_7)"),             # 2,306,881,200 rows
    (g4_intersection_plane_fiber_check, 17, "P^7(F_17)"),   # 437,462,640 rows
])
def test_plane_checks_over_budget_fail_before_any_enumeration(monkeypatch, check,
                                                              p, space):
    def boom(*args, **kwargs):
        raise AssertionError("plane or base enumeration started over the budget")

    monkeypatch.setattr(incidence, "points_block", boom)
    with pytest.raises(BudgetExceeded, match=f"^{re.escape(space)} has "):
        check(p)


def _skewed_zero_mod(a, b, p):
    """_zero_mod with its first column flipped on the rows of a whose
    entries sum to 0 mod 5. The flip reads row contents only, so chunked and
    single-array runs must still agree, and the g4 plane check gets
    mismatches whose order is compared."""
    out = _zero_mod(a, b, p)
    out[:, 0] ^= a.sum(axis=1) % 5 == 0
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_plane_checks_enumerate_in_chunks(monkeypatch, p):
    monkeypatch.setattr(incidence, "_zero_mod", _skewed_zero_mod)
    requests = []
    monkeypatch.setattr(incidence, "points_block",
                        lambda n, p, lo, hi: requests.append((n, hi - lo))
                        or points_block(n, p, lo, hi))
    runs = []
    for chunk in (10**9, 100):
        monkeypatch.setattr(incidence, "GRID_CHUNK_POINTS", chunk)
        requests.clear()
        g4 = g4_intersection_plane_fiber_check(p)
        g5 = g5_plane_fiber_dichotomy(p)
        assert max(size for _, size in requests) <= chunk
        # the planes are P^7 (g4) and P^11 (g5); the bases are smaller
        planes = sum(n in (7, 11) for n, _ in requests)
        runs.append((list(g4[0].items()), g4[1], list(g5[0].items()), g5[1],
                     planes))
    single, chunked = runs
    assert single[-1] == 2 and chunked[-1] > 2
    assert single[:-1] == chunked[:-1]
    # the skew reaches the g4 mismatches and the g5 fiber counts
    assert single[1] and dict(single[2]) != _g5_rank_strata(p)


@pytest.mark.parametrize("case", ["g8", "g6q"])
def test_scanned_bases_over_budget_fail_in_the_scan(case):
    with pytest.raises(BudgetExceeded, match=r"^P\^\d+\(F_101\) has "):
        base_points(case, 101)


def test_fiber_over_unsupported_case_message():
    with pytest.raises(KeyError, match="unsupported fiber case 'g6c'"):
        fiber_over("g6c", PointAffineRep((1,) + (0,) * 12), 2)


# ---------------------------------------------------------------------------
# the decomposability equivalence


def test_linalg_equiv_y_zero_counterexample():
    # x = e4, y = 0, U spanned by e2 ^ e3: the cone membership holds but no
    # 2-subspace through x has its bivector line inside U
    x = (0, 0, 0, 1)
    y = (0, 0, 0, 0, 0, 0)
    U = [(0, 0, 0, 1, 0, 0)]  # pairs lex of 4-space: (23) is slot 3
    side1, side2 = linalg_equiv_check(x, y, U, 2)
    assert side1 is True and side2 is False


def test_linalg_equiv_decomposable_cases():
    # x = 0, y = e2 ^ e3 in U: both sides hold
    U = [(0, 0, 0, 1, 0, 0)]
    side1, side2 = linalg_equiv_check((0, 0, 0, 0), (0, 0, 0, 1, 0, 0), U, 2)
    assert side1 and side2
    # x in the support of a decomposable y spanning U
    side1, side2 = linalg_equiv_check((0, 1, 0, 0), (0, 0, 0, 1, 0, 0), U, 2)
    assert side1 and side2


def test_linalg_equiv_validates_input():
    with pytest.raises(ValueError):
        linalg_equiv_check((0, 0, 0), (0, 0, 0), [], 2)  # bad V' dimension
    with pytest.raises(ValueError):
        linalg_equiv_check((0, 0, 0, 0), (0, 0, 0, 0, 0, 0), [], 2)  # (0, 0)
    with pytest.raises(ValueError):
        # y outside the span of U_basis
        linalg_equiv_check((0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
                           [(0, 0, 0, 1, 0, 0)], 2)
