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
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .algebra import (OffVarietyError, PointAffineRep, SmallPrime, _echelon,
                      matrix_rank_mod_p, matrix_rank_mod_p_batch,
                      nullspace_mod_p)
from .catalog import (build_case, g8_dual_net_matrix, g8_lift_to_wedge,
                      pair_labels, plucker_ideal, trace_zero_matrix)
from .projspace import (GRID_CHUNK_POINTS, BudgetExceeded, CompiledSystem,
                        ScanPlan, _check_budget, _zero_mod, point_set,
                        points_block, proj_point_count)

# The most points held in one Python list here. A base point with its forms
# costs about 0.9 KB: the g5 base at p = 97, 922,180 points, took 844 MB.
_LIST_BUDGET = 1_000_000

@dataclass(frozen=True)
class FiberReport:
    fiber_points: tuple
    fiber_count: int
    classified_shape: str


def _classify(count: int, p: int) -> str:
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


@lru_cache(maxsize=None)
def _plucker_quadrics(n: int) -> tuple:
    """catalog.plucker_ideal(n); below n = 4 every bivector is decomposable."""
    return tuple(plucker_ideal(n)) if n >= 4 else ()


def subspace_from_plucker(vec: Sequence[int], n: int, p: int) -> tuple:
    """Basis of the unique 2-subspace with the given Plucker vector: the two
    pivot rows of one elimination of the matrix that contracts the bivector
    against the coordinate covectors, whose rows span the subspace.

    Raises ValueError when the vector is zero or violates a Plucker relation.
    """
    vec = [int(v) % p for v in vec]
    if not any(vec):
        raise ValueError("zero bivector")
    if any(f.eval_mod(vec, p) for f in _plucker_quadrics(n)):
        raise ValueError("Plucker relations violated: not a decomposable bivector")
    A = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(pair_labels(n, offset=0)):
        A[i][j] = vec[k]
        A[j][i] = -vec[k]
    rref, pivots = _echelon(A, p)
    if len(pivots) != 2:
        raise ValueError("bivector spans less than a 2-subspace")
    return tuple(map(tuple, rref[:2]))


def _annihilated(forms: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> bool:
    """Whether every linear form in forms vanishes at vec mod p."""
    return all(sum(map(mul, f, vec)) % p == 0 for f in forms)


def in_span(vec: Sequence[int], basis: Sequence[tuple], p: int) -> bool:
    return _annihilated(nullspace_mod_p(basis, p), vec, p)


def proportional(a: Sequence[int], b: Sequence[int], p: int) -> bool:
    return matrix_rank_mod_p([list(a), list(b)], p) <= 1


# ---------------------------------------------------------------------------
# base varieties of the four resolutions and their probe index


@dataclass(frozen=True)
class _FiberCase:
    """The coordinate layout of one resolution: the slices of the key blocks
    (which name a base point) and of the free vector the base forms act on."""
    keys: tuple
    free: slice


# g8: x | y, the y-block names s; g4: y | x | z, with z the eight entries of
# the trace-zero matrix; g6q: z | x | y, the forms act on the whole row (the
# fiber annihilator on z, the pairing y.s on y); g5: x | y1 y2 y3.
_CASES = {
    "g8": _FiberCase((slice(5, 12),), slice(0, 5)),
    "g4": _FiberCase((slice(0, 3), slice(3, 6)), slice(6, 14)),
    "g6q": _FiberCase((slice(4, 9),), slice(0, 14)),
    "g5": _FiberCase((slice(0, 4),), slice(4, 16)),
}
FIBER_CASES = tuple(_CASES)


def _fiber_model(case: str):
    """The catalog spec of a fiber case's model, after the case is checked."""
    if case not in _CASES:
        raise KeyError(f"unsupported fiber case {case!r}: the fiber cases are "
                       f"{', '.join(FIBER_CASES)} (the g6c resolution base has "
                       "no pinned equations)")
    return build_case(case)


class BasePoints(tuple):
    """The rational points of a resolution base in base order, with the
    index that probes are looked up in.

    rows holds, per base point, (point, tuple of key blocks, forms). blocks
    holds each point's key blocks as a probe reports them: the block where
    there is one, the pair (w, u) for g4. index maps a tuple of normalized
    key blocks, with None for a zero block, to the positions of the base
    points it fits, in base order (every combination of each block and
    None, so g4 keys on (w, u), (w, None), (None, u) and (None, None)).
    forms holds, per base point, linear forms that all vanish on a probe's
    free vector exactly when the probe lies over that point: the annihilator
    of the fiber subspace (g8), the same plus the pairing 0^9 s (g6q),
    w^T Z u on the trace-zero entries (g4), or the rows u, 0^4 u, 0^8 u of
    My.u = 0 (g5). A form may be shorter than the free vector; it reads the
    leading entries. model is the spec of the resolved model.
    """

    def __new__(cls, rows: Sequence[tuple], model):
        self = super().__new__(cls, [point for point, _, _ in rows])
        self.blocks = tuple(b if len(b) > 1 else b[0] for _, b, _ in rows)
        self.forms = tuple(forms for _, _, forms in rows)
        self.model = model
        index = defaultdict(list)
        for i, (_, blocks, _) in enumerate(rows):
            for key in itertools.product(*((b, None) for b in blocks)):
                index[key].append(i)
        self.index = {k: tuple(v) for k, v in index.items()}
        return self


_BASE_POINTS: dict = {}


def base_points(case: str, p: int) -> BasePoints:
    """Rational points of the resolution base, with fiber-subspace data, the
    probe index and the model spec. Built once per (case, prime) and held
    until clear_base_points(). Raises BudgetExceeded before any enumeration
    when the base would list more than _LIST_BUDGET points."""
    key = (case, int(p))
    base = _BASE_POINTS.get(key)
    if base is None:
        model = _fiber_model(case)
        p = SmallPrime(p)
        _check_base_budget(case, p)
        base = _BASE_POINTS[key] = BasePoints(_build_base_points(case, p), model)
    return base


def clear_base_points() -> None:
    _BASE_POINTS.clear()


def _check_list(what: str, total: int) -> None:
    """Raise BudgetExceeded when what, a list of total points, would hold
    more than _LIST_BUDGET of them."""
    if total > _LIST_BUDGET:
        raise BudgetExceeded(f"{what}: {total} points, list budget {_LIST_BUDGET}")


def _check_base_budget(case: str, p: int) -> None:
    """Raise BudgetExceeded when the base of g5 (P^3) or g4 (the
    (p^2 + p + 1)(p + 1) incident pairs of P^2 x P^2) would list more than
    _LIST_BUDGET points. The g8 and g6q bases come from point_set, whose
    scan budget keeps them below it."""
    if case == "g5":
        space, total = f"P^3(F_{p})", proj_point_count(3, p)
    elif case == "g4":
        space = f"the incident pairs of P^2(F_{p}) x P^2(F_{p})"
        total = proj_point_count(2, p) * (p + 1)
    else:
        return
    _check_list(f"the {case} fiber base enumerates {space}", total)


def _all_points(n: int, p: int) -> list:
    """Every point of P^n(F_p) in index order, as tuples."""
    return list(map(tuple, points_block(n, p, 0, proj_point_count(n, p)).tolist()))


def _build_base_points(case: str, p: SmallPrime) -> list:
    """(point, key blocks, forms) for each base point, in base order."""
    out = []
    if case in ("g8", "g6q"):
        spec = build_case("B5" if case == "g8" else "Q3_g6q")
        pts = point_set(ScanPlan(spec.ambient_dim, p), spec.generators)
        for row in pts.tolist():
            s = tuple(row)
            if case == "g8":
                full = g8_lift_to_wedge(row, p)
                basis = subspace_from_plucker(
                    [full[pair] for pair in pair_labels(5, offset=2)], 5, p)
                pairing = ()
            else:
                x23, x25, x34, x35, x45 = row  # lex pairs of e2..e5; x24 = x35
                basis = subspace_from_plucker((x23, x35, x25, x34, x35, x45), 4, p)
                pairing = ((0,) * 9 + s,)
            forms = tuple(tuple(v) for v in nullspace_mod_p(basis, p)) + pairing
            out.append(((s, basis), (s,), forms))
    elif case == "g4":
        plane = _all_points(2, p)
        for w in plane:
            for u in plane:
                if sum(map(mul, w, u)) % p == 0:
                    # w^T Z u with z33 = -(z11 + z22) folded into z11 and z22
                    wu = [a * b for a in w for b in u]
                    wu[0] -= wu[8]
                    wu[4] -= wu[8]
                    out.append(((w, u), (w, u), (tuple(v % p for v in wu[:8]),)))
    else:
        for u in _all_points(3, p):
            out.append((u, (u,), (u, (0,) * 4 + u, (0,) * 8 + u)))
    return out


def _block_key(block: Sequence[int], p: int) -> tuple | None:
    """The normalized representative of a coordinate block (first nonzero
    entry 1), or None for the zero block."""
    for v in block:
        if v % p:
            inv = pow(v, -1, p)
            return tuple(c * inv % p for c in block)
    return None


def _trace_zero_rows(e: np.ndarray, p: int) -> np.ndarray:
    """trace_zero_matrix of each row of e (8 residues, widened to int64
    first, as m33 = -(m11 + m22) is negative), flattened in row order and
    reduced mod p: shape (len(e), 9)."""
    e = e.astype(np.int64, copy=False)
    return np.stack([m for row in trace_zero_matrix(e.T) for m in row], axis=1) % p


def _hits(case: str, base: BasePoints, coords: Sequence[int], p: int) -> list:
    """The key blocks (base.blocks) of every base point that the model point
    coords lies over, in base order: the candidates of its key blocks in the
    index whose forms all vanish on its free vector. coords must be residues
    on the model; nothing here checks it."""
    layout = _CASES[case]
    key = tuple([_block_key(coords[s], p) for s in layout.keys])
    vec = coords[layout.free]
    forms = base.forms
    hits = []
    for i in base.index.get(key, ()):
        for f in forms[i]:
            if sum(map(mul, f, vec)) % p:
                break
        else:  # every form vanishes
            hits.append(base.blocks[i])
    return hits


def fiber_over(case: str, t: PointAffineRep, p: int) -> FiberReport:
    """All base points whose fiber subspace contains t, in base order (the
    base point's key block, or the (w, u) pair for g4). Requires t on the
    corresponding model, with entries in [0, p); both are checked before
    the base is built. The shape is named from the count alone, except over
    g6q's dual vertex plane {z = x = 0}, where a count equal to
    g6q_vertex_fiber_oracle names the quadric-surface fiber "surface"; the
    oracle runs first, so that its list budget fails before the base is
    built."""
    base = _BASE_POINTS.get((case, p))
    spec = _fiber_model(case) if base is None else base.model
    coords = t.coords
    if min(coords) < 0 or max(coords) >= p:
        raise ValueError(f"coordinates must be residues in [0, {p})")
    for g in spec.generators:
        if g.eval_mod(coords, p):
            raise OffVarietyError(
                f"{t.serialize()} is not on {spec.case_id} mod {p}")
    vertex = case == "g6q" and not any(coords[:9])
    oracle = g6q_vertex_fiber_oracle(t, p) if vertex else None
    if base is None:
        base = base_points(case, p)
    hits = tuple(_hits(case, base, coords, p))
    shape = "surface" if len(hits) == oracle else _classify(len(hits), p)
    return FiberReport(hits, len(hits), shape)


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
    # linear forms cutting out U inside wedge^2 V'
    u_forms = nullspace_mod_p([list(b) for b in U_basis] or [[0] * npairs], p)
    if not _annihilated(u_forms, y, p):
        raise ValueError("y is not in the span of U_basis")

    # side 1: v1 ^ x + y as a bivector on V^1 + V' (dimension dv + 1)
    n = dv + 1
    vec = [0] * (n * (n - 1) // 2)
    idx = {pr: k for k, pr in enumerate(pair_labels(n, offset=0))}
    for j in range(dv):
        vec[idx[(0, j + 1)]] = x[j]
    for k, (i, j) in enumerate(pair_labels(dv, offset=0)):
        vec[idx[(i + 1, j + 1)]] = y[k]
    side1 = not any(f.eval_mod(vec, p) for f in _plucker_quadrics(n))

    # side 2: exhaustive search over 2-subspaces of V'
    side2 = False
    for basis in two_subspaces(dv, p):
        w2 = plucker_vector(basis, p)
        if not _annihilated(u_forms, w2, p):
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
    for c in _all_points(2, p):
        # the 5x5 form has rank 4 exactly when its kernel is a line
        ker = nullspace_mod_p(g8_dual_net_matrix(c, p), p)
        if len(ker) != 1:
            all_rank4 = False
            continue
        points.add(PointAffineRep.normalize(ker[0], p).coords)
    return frozenset(points), all_rank4


def g8_plane_fiber_profile(p: int):
    """Fiber counts over every point of the genus-8 vertex plane, from one
    product of the plane points with the stacked fiber annihilators.

    Returns (counter, jump_set): counter maps fiber_count -> #points, and
    jump_set is the set of plane points with fiber count p + 1.
    """
    bases = base_points("g8", p)
    plane = points_block(4, p, 0, proj_point_count(4, p))
    forms = np.array(bases.forms, dtype=np.int64).reshape(-1, 5)
    vanish = _zero_mod(plane, forms.T, p)
    counts = vanish.reshape(len(plane), len(bases), -1).all(axis=2).sum(axis=1)
    counter = Counter(counts.tolist())
    jump = {tuple(row) for row in plane[counts == p + 1].tolist()}
    return counter, jump


def _point_blocks(n: int, p: int) -> Iterator[np.ndarray]:
    """P^n(F_p) in index order, as points_block arrays of at most
    GRID_CHUNK_POINTS rows each."""
    total = proj_point_count(n, p)
    for lo in range(0, total, GRID_CHUNK_POINTS):
        yield points_block(n, p, lo, min(lo + GRID_CHUNK_POINTS, total))


def g5_plane_fiber_dichotomy(p: int):
    """(rank, fiber_count) profile over the genus-5 plane {x = 0};
    the expected law is fiber_count = #P^(3 - rank)(F_p). A plane row y lies
    over the base points u with My.u = 0, so its fiber count is the number
    of u on which all three 4-column blocks of y vanish: three _zero_mod
    tests against the stacked base points, AND-ed. The batched rank of My is
    the independent side. The plane is enumerated in blocks of at most
    GRID_CHUNK_POINTS rows. Raises BudgetExceeded before any enumeration
    when P^11(F_p) exceeds DEFAULT_POINT_BUDGET."""
    _check_budget(ScanPlan(11, p))
    u = np.array(base_points("g5", p), dtype=np.int64).T
    counter: Counter = Counter()
    for y in _point_blocks(11, p):
        rank = matrix_rank_mod_p_batch(y.reshape(-1, 3, 4), p)
        hit = _zero_mod(y[:, :4], u, p)
        hit &= _zero_mod(y[:, 4:8], u, p)
        hit &= _zero_mod(y[:, 8:], u, p)
        counter.update(zip(rank.tolist(), hit.sum(axis=1).tolist()))
    ok = all(count == (p ** (4 - rank) - 1) // (p - 1) for rank, count in counter)
    return counter, ok


def g4_intersection_plane_fiber_check(p: int):
    """Over each point of the genus-4 plane intersection {x = y = 0}:
    fiber count vs. the independent hyperplane-section count of the base
    surface in its Segre model. Both counts are zero counts of one product:
    the plane's z-block against the forms w^T Z u of the incident base
    pairs on the fiber side, its trace-zero matrices Z against those of the
    B6 Segre rows on the oracle side. The plane is enumerated in blocks of
    at most GRID_CHUNK_POINTS rows, so the mismatches are in index order.
    Returns (profile, mismatches). Raises BudgetExceeded before any
    enumeration when P^7(F_p) exceeds DEFAULT_POINT_BUDGET."""
    _check_budget(ScanPlan(7, p))
    base = base_points("g4", p)
    spec = base.model
    model = CompiledSystem(spec.generators)
    pairs = np.array([f for (f,) in base.forms], dtype=np.int64).T
    b6 = build_case("B6")
    segre = point_set(ScanPlan(b6.ambient_dim, SmallPrime(p)), b6.generators)
    segre_z = _trace_zero_rows(segre, p).T
    profile: Counter = Counter()
    mismatches = []
    for zc in _point_blocks(7, p):
        pts = np.zeros((len(zc), spec.ambient_dim + 1), dtype=np.int64)
        pts[:, 6:] = zc
        on_model = model.vanishing_mask(pts, p)
        if not on_model.all():
            t = PointAffineRep(tuple(pts[np.argmin(on_model)].tolist()))
            raise OffVarietyError(
                f"{t.serialize()} is not on {spec.case_id} mod {p}")
        fiber = _zero_mod(zc, pairs, p).sum(axis=1)
        oracle = _zero_mod(_trace_zero_rows(zc, p), segre_z, p).sum(axis=1)
        profile.update(zip(fiber.tolist(), oracle.tolist()))
        mismatches += [PointAffineRep(tuple(row))
                       for row in pts[fiber != oracle].tolist()]
    return profile, mismatches


def g6q_vertex_fiber_oracle(t: PointAffineRep, p: int) -> int:
    """Independent count of the quadric-surface fiber over a point of the
    dual vertex plane {z = x = 0}: the hyperplane section of the base
    quadric 3-fold cut by the dual pairing with t's y-block. Raises
    BudgetExceeded before any enumeration when the list of P^4(F_p) would
    pass _LIST_BUDGET."""
    _check_list(f"the g6q vertex oracle enumerates P^4(F_{p})",
                proj_point_count(4, p))
    y = t.coords[9:]
    spec = build_case("Q3_g6q")
    count = 0
    for s in _all_points(4, p):
        if all(g.eval_mod(s, p) == 0 for g in spec.generators):
            if sum(a * b for a, b in zip(y, s)) % p == 0:
                count += 1
    return count


def fiber_birationality_check(case: str, p: int):
    """Exhaustively confirm that the resolution is one-to-one over the locus
    the fiber dichotomies leave untouched: every row of the model's point
    set whose key blocks are all nonzero. The rows are on the model by
    construction, so they go to the hit routine with no model check. They
    become Python tuples one block of GRID_CHUNK_POINTS rows at a time.
    Returns (#checked, #violations)."""
    spec = _fiber_model(case)
    layout = _CASES[case]
    pts = point_set(ScanPlan(spec.ambient_dim, SmallPrime(p)), spec.generators)
    base = base_points(case, p)
    checked = violations = 0
    for lo in range(0, pts.shape[0], GRID_CHUNK_POINTS):
        for row in pts[lo:lo + GRID_CHUNK_POINTS].tolist():
            if all(any(row[s]) for s in layout.keys):
                checked += 1
                violations += len(_hits(case, base, row, p)) != 1
    return checked, violations
