"""Pointwise fiber probes for the small resolutions, realized as incidence
correspondences over tiny base varieties, plus the decomposability
equivalence test they rest on.

Fibers are computed by exhaustive enumeration of the base over F_p: the
bases (quintic del Pezzo 3-fold, (1,1)-divisor in P^2 x P^2, quadric 3-fold,
P^3) have a handful of rational points at the scan primes, so enumeration is
oracle-grade simple and needs no symbolic solving.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import (OffVarietyError, PointAffineRep, SmallPrime,
                      matrix_rank_mod_p, nullspace_mod_p)
from .catalog import (build_case, g8_dual_net_matrix, g8_lift_to_wedge,
                      pair_labels, trace_zero_matrix)
from .projspace import ScanPlan, enumerate_points, point_set

FIBER_CASES = ("g8", "g4", "g6q", "g5")


@dataclass(frozen=True)
class FiberReport:
    target_point: PointAffineRep
    fiber_points: tuple
    fiber_count: int
    classified_shape: str


def _classify(count: int, p: int, confirmed_surface_count: int | None) -> str:
    if confirmed_surface_count is not None and count == confirmed_surface_count:
        return "surface"
    if count == 0:
        return "empty"
    if count == 1:
        return "point"
    if count == p + 1:
        return "P1"
    if count == p * p + p + 1:
        return "P2"
    return f"other({count})"


# ---------------------------------------------------------------------------
# 2-subspaces and Plucker vectors


def two_subspaces(n: int, p: int) -> Iterator[tuple]:
    """Every 2-dimensional subspace of F_p^n exactly once, as a pair of
    reduced-echelon basis rows."""
    for c1, c2 in itertools.combinations(range(n), 2):
        free1 = [j for j in range(c1 + 1, n) if j != c2]
        free2 = [j for j in range(c2 + 1, n)]
        for vals1 in itertools.product(range(p), repeat=len(free1)):
            row1 = [0] * n
            row1[c1] = 1
            for j, v in zip(free1, vals1):
                row1[j] = v
            for vals2 in itertools.product(range(p), repeat=len(free2)):
                row2 = [0] * n
                row2[c2] = 1
                for j, v in zip(free2, vals2):
                    row2[j] = v
                yield (tuple(row1), tuple(row2))


def count_two_subspaces(n: int, p: int) -> int:
    """Direct enumeration oracle for the Gaussian binomial [n, 2]_p."""
    return sum(1 for _ in two_subspaces(n, p))


def gaussian_binomial_2(n: int, p: int) -> int:
    return ((p**n - 1) * (p**(n - 1) - 1)) // ((p * p - 1) * (p - 1))


def plucker_vector(basis: tuple, p: int) -> tuple:
    """Plucker coordinates (lex pair order) of the span of two rows."""
    u, w = basis
    n = len(u)
    return tuple((u[i] * w[j] - u[j] * w[i]) % p
                 for i in range(n) for j in range(i + 1, n))


def _plucker_relations_hold(vec: Sequence[int], n: int, p: int) -> bool:
    idx = {pr: k for k, pr in enumerate(pair_labels(n, offset=0))}
    for i, j, k, l in itertools.combinations(range(n), 4):
        val = (vec[idx[(i, j)]] * vec[idx[(k, l)]]
               - vec[idx[(i, k)]] * vec[idx[(j, l)]]
               + vec[idx[(i, l)]] * vec[idx[(j, k)]])
        if val % p:
            return False
    return True


def subspace_from_plucker(vec: Sequence[int], n: int, p: int) -> tuple:
    """Basis of the unique 2-subspace with the given Plucker vector,
    recovered by contracting the bivector against the coordinate covectors.

    Raises ValueError when the vector is zero or violates a Plucker relation.
    """
    vec = [int(v) % p for v in vec]
    if not any(vec):
        raise ValueError("zero bivector")
    if not _plucker_relations_hold(vec, n, p):
        raise ValueError("Plucker relations violated: not a decomposable bivector")
    A = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(pair_labels(n, offset=0)):
        A[i][j] = vec[k]
        A[j][i] = (-vec[k]) % p
    basis: list = []
    for row in A:
        if not any(x % p for x in row):
            continue
        cand = basis + [tuple(x % p for x in row)]
        if matrix_rank_mod_p(cand, p) > len(basis):
            basis.append(cand[-1])
        if len(basis) == 2:
            return tuple(basis)
    raise ValueError("bivector spans less than a 2-subspace")


def in_span(vec: Sequence[int], basis: Sequence[tuple], p: int) -> bool:
    rows = [list(b) for b in basis]
    base_rank = matrix_rank_mod_p(rows, p)
    return matrix_rank_mod_p(rows + [list(vec)], p) == base_rank


def proportional(a: Sequence[int], b: Sequence[int], p: int) -> bool:
    return matrix_rank_mod_p([list(a), list(b)], p) <= 1


# ---------------------------------------------------------------------------
# base varieties of the four resolutions


_BASE_POINTS: dict = {}


def base_points(case: str, p: int) -> tuple:
    """Rational points of the resolution base, with fiber-subspace data.
    Built once per (case, prime) and held until clear_base_points()."""
    key = (case, int(p))
    pts = _BASE_POINTS.get(key)
    if pts is None:
        pts = _BASE_POINTS[key] = _build_base_points(case, SmallPrime(p))
    return pts


def clear_base_points() -> None:
    _BASE_POINTS.clear()


def _build_base_points(case: str, p: SmallPrime) -> tuple:
    if case == "g8":
        spec = build_case("B5")
        pts = point_set(ScanPlan(spec.ambient_dim, p), spec.generators)
        out = []
        for row in pts.tolist():
            full = g8_lift_to_wedge(row, p)
            vec = [full[(i, j)] for (i, j) in pair_labels(5, offset=2)]
            basis = subspace_from_plucker(vec, 5, p)
            out.append((tuple(row), basis))
        return tuple(out)
    if case == "g6q":
        spec = build_case("Q3_g6q")
        pts = point_set(ScanPlan(spec.ambient_dim, p), spec.generators)
        out = []
        for row in pts.tolist():
            x23, x25, x34, x35, x45 = row
            vec = (x23, x35, x25, x34, x35, x45)  # lex pairs of e2..e5; x24 = x35
            basis = subspace_from_plucker(vec, 4, p)
            out.append((tuple(row), basis))
        return tuple(out)
    if case == "g4":
        plane = list(enumerate_points(ScanPlan(2, p)))
        out = []
        for w in plane:
            for u in plane:
                if sum(a * b for a, b in zip(w.coords, u.coords)) % p == 0:
                    out.append((w.coords, u.coords))
        return tuple(out)
    if case == "g5":
        return tuple(pt.coords for pt in enumerate_points(ScanPlan(3, p)))
    raise KeyError(f"unsupported fiber case {case!r} (the g6c resolution base "
                   "has no pinned equations)")


def _case_spec(case: str):
    return build_case({"g8": "g8_sigma_bar", "g4": "g4_sigma_bar",
                       "g6q": "g6q_sigma_bar", "g5": "g5_sigma_bar"}[case])


def _g4_pairing(w: Sequence[int], zc: Sequence[int], u: Sequence[int], p: int) -> int:
    z = trace_zero_matrix(zc)
    return sum(w[i] * z[i][j] * u[j] for i in range(3) for j in range(3)) % p


def fiber_over(case: str, t: PointAffineRep, p: int,
               confirmed_surface_count: int | None = None) -> FiberReport:
    """All base points whose fiber subspace contains t, by exhaustive
    enumeration of the base over F_p. Requires t on the corresponding model."""
    spec = _case_spec(case)
    coords = t.coords
    for g in spec.generators:
        if g.eval_mod(coords, p):
            raise OffVarietyError(
                f"{t.serialize()} is not on {spec.case_id} mod {p}")
    hits: list = []
    if case == "g8":
        x, y = coords[:5], coords[5:]
        for s, basis in base_points("g8", p):
            if proportional(y, s, p) and in_span(x, basis, p):
                hits.append(s)
    elif case == "g6q":
        z, x, y = coords[:4], coords[4:9], coords[9:]
        for s, basis in base_points("g6q", p):
            if (proportional(x, s, p) and in_span(z, basis, p)
                    and sum(a * b for a, b in zip(y, s)) % p == 0):
                hits.append(s)
    elif case == "g4":
        y, x, zc = coords[:3], coords[3:6], coords[6:]
        for w, u in base_points("g4", p):
            if (proportional(y, w, p) and proportional(x, u, p)
                    and _g4_pairing(w, zc, u, p) == 0):
                hits.append((w, u))
    elif case == "g5":
        x, yc = coords[:4], coords[4:]
        My = [yc[4 * i:4 * i + 4] for i in range(3)]
        for u in base_points("g5", p):
            if (all(sum(a * b for a, b in zip(row, u)) % p == 0 for row in My)
                    and proportional(x, u, p)):
                hits.append(u)
    else:
        raise KeyError(f"unsupported fiber case {case!r}")
    return FiberReport(t, tuple(hits), len(hits),
                       _classify(len(hits), p, confirmed_surface_count))


# ---------------------------------------------------------------------------
# decomposability equivalence (membership in the Grassmannian cone vs.
# existence of a containing 2-subspace)


def linalg_equiv_check(x: Sequence[int], y: Sequence[int],
                       U_basis: Sequence[Sequence[int]], p: int) -> tuple:
    """Two sides of the decomposability equivalence for V = V^1 + V'.

    x lives in V' (dimension 4 or 5), y in the subspace U of wedge^2 V'
    spanned by U_basis (pair-lex coordinates). side1 decides membership of
    [x + y] in G(2, V) cut to P(V' + U) by evaluating the Plucker relations
    on the bivector v1 ^ x + y; side2 brute-forces the existence of a
    2-subspace V2 of V' with wedge^2 V2 in U, x in V2 and y in wedge^2 V2.
    """
    dv = len(x)
    if dv not in (4, 5):
        raise ValueError("V' must have dimension 4 or 5")
    npairs = dv * (dv - 1) // 2
    if len(y) != npairs:
        raise ValueError("y has the wrong number of bivector coordinates")
    x = [int(v) % p for v in x]
    y = [int(v) % p for v in y]
    if not any(x) and not any(y):
        raise ValueError("(x, y) must be nonzero")
    if any(y) and not in_span(y, [tuple(b) for b in U_basis] or [tuple([0] * npairs)], p):
        raise ValueError("y is not in the span of U_basis")

    # side 1: v1 ^ x + y as a bivector on V^1 + V' (dimension dv + 1)
    n = dv + 1
    vec = [0] * (n * (n - 1) // 2)
    idx = {pr: k for k, pr in enumerate(pair_labels(n, offset=0))}
    for j in range(dv):
        vec[idx[(0, j + 1)]] = x[j]
    for k, (i, j) in enumerate(pair_labels(dv, offset=0)):
        vec[idx[(i + 1, j + 1)]] = y[k]
    side1 = _plucker_relations_hold(vec, n, p)

    # side 2: exhaustive search over 2-subspaces of V'
    side2 = False
    U_rows = [list(b) for b in U_basis]
    u_rank = matrix_rank_mod_p(U_rows, p) if U_rows else 0
    for basis in two_subspaces(dv, p):
        w2 = plucker_vector(basis, p)
        if matrix_rank_mod_p(U_rows + [list(w2)], p) != u_rank:
            continue  # wedge^2 V2 not inside U
        if not in_span(x, basis, p):
            continue
        if any(y) and not proportional(y, w2, p):
            continue
        side2 = True
        break
    return side1, side2


# ---------------------------------------------------------------------------
# oracles and exhaustive fiber profiles used by the checks


def projected_veronese_points(p: int) -> tuple:
    """Image of the kernel map of the dual net of alternating forms: the
    degree-2 map P^2 -> P^4 whose image is the projected Veronese surface
    in the genus-8 vertex plane.

    Returns (points, all_rank4): points is the frozenset of normalized kernel
    points; all_rank4 reports whether every form in the net has rank 4.
    """
    points = set()
    all_rank4 = True
    for c in enumerate_points(ScanPlan(2, p)):
        # the 5x5 form has rank 4 exactly when its kernel is a line
        ker = nullspace_mod_p(g8_dual_net_matrix(c.coords, p), p)
        if len(ker) != 1:
            all_rank4 = False
            continue
        points.add(PointAffineRep.normalize(ker[0], p).coords)
    return frozenset(points), all_rank4


def g8_plane_fiber_profile(p: int):
    """Fiber counts over every point of the genus-8 vertex plane.

    Returns (counter, jump_set): counter maps fiber_count -> #points, and
    jump_set is the set of plane points with fiber count p + 1.
    """
    counter: Counter = Counter()
    jump = set()
    bases = base_points("g8", p)
    for x in enumerate_points(ScanPlan(4, p)):
        cnt = sum(1 for _, basis in bases if in_span(x.coords, basis, p))
        counter[cnt] += 1
        if cnt == p + 1:
            jump.add(x.coords)
    return counter, jump


def g5_plane_fiber_dichotomy(p: int):
    """(rank, fiber_count) profile over the genus-5 plane {x = 0};
    the expected law is fiber_count = #P^(3 - rank)(F_p)."""
    counter: Counter = Counter()
    ok = True
    for yc in enumerate_points(ScanPlan(11, p)):
        My = [yc.coords[4 * i:4 * i + 4] for i in range(3)]
        rank = matrix_rank_mod_p(My, p)
        t = PointAffineRep(tuple([0, 0, 0, 0]) + yc.coords)
        rep = fiber_over("g5", t, p)
        counter[(rank, rep.fiber_count)] += 1
        expected = (p ** (4 - rank) - 1) // (p - 1)
        if rep.fiber_count != expected:
            ok = False
    return counter, ok


def g4_intersection_plane_fiber_check(p: int):
    """Over each point of the genus-4 plane intersection {x = y = 0}:
    fiber count vs. the independent hyperplane-section count of the base
    surface in its Segre model. Returns (profile, mismatches)."""
    b6 = build_case("B6")
    segre_pts = point_set(ScanPlan(b6.ambient_dim, SmallPrime(p)), b6.generators)
    segre = [trace_zero_matrix(r) for r in segre_pts.tolist()]
    profile: Counter = Counter()
    mismatches = []
    for zc in enumerate_points(ScanPlan(7, p)):
        t = PointAffineRep((0,) * 6 + zc.coords)
        rep = fiber_over("g4", t, p)
        zmat = trace_zero_matrix(zc.coords)
        oracle = 0
        for P in segre:
            if sum(zmat[i][j] * P[i][j] for i in range(3) for j in range(3)) % p == 0:
                oracle += 1
        profile[(rep.fiber_count, oracle)] += 1
        if rep.fiber_count != oracle:
            mismatches.append(t)
    return profile, mismatches


def g6q_vertex_fiber_oracle(t: PointAffineRep, p: int) -> int:
    """Independent count of the quadric-surface fiber over a point of the
    dual vertex plane {z = x = 0}: the hyperplane section of the base
    quadric 3-fold cut by the dual pairing with t's y-block."""
    y = t.coords[9:]
    spec = build_case("Q3_g6q")
    count = 0
    for s in enumerate_points(ScanPlan(4, p)):
        if all(g.eval_mod(s.coords, p) == 0 for g in spec.generators):
            if sum(a * b for a, b in zip(y, s.coords)) % p == 0:
                count += 1
    return count


def fiber_birationality_check(case: str, p: int):
    """Exhaustively confirm that the resolution is one-to-one over the locus
    the fiber dichotomies leave untouched. Returns (#checked, #violations)."""
    spec = _case_spec(case)
    pts = point_set(ScanPlan(spec.ambient_dim, SmallPrime(p)), spec.generators)
    checked = violations = 0
    for row in pts.tolist():
        coords = tuple(row)
        if case == "g8":
            off = any(coords[5:])
        elif case == "g6q":
            off = any(coords[4:9])
        elif case == "g5":
            off = any(coords[:4])
        elif case == "g4":
            off = any(coords[:3]) and any(coords[3:6])
        else:
            raise KeyError(case)
        if not off:
            continue
        checked += 1
        rep = fiber_over(case, PointAffineRep(coords), p)
        if rep.fiber_count != 1:
            violations += 1
    return checked, violations
