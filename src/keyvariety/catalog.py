"""Pinned coordinate models for every explicitly-equationed variety in scope.

Each case fixes: an ambient projective space with a frozen variable order
(normative for point serialization), a generator list, named distinguished
linear subspaces, classification metadata, and - where a rank description of
the singular locus is available - a rank-locus rule.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .algebra import (Polynomial, PointAffineRep, _echelon,
                      matrix_rank_mod_p, parse_poly)


class UnknownCaseError(KeyError):
    pass


MAIN_CASES = ("g4_sigma_bar", "g5_sigma_bar", "g6q_sigma_bar",
              "g6c_sigma_bar", "g8_sigma_bar")

AUX_CASES = ("g6q_AQ", "g6c_AC", "grass_2_5", "grass_2_6", "B5", "B6", "Q3_g6q")

ALL_CASES = MAIN_CASES + AUX_CASES

# short aliases accepted on the command line and in config files
CASE_ALIASES = {
    "g4": "g4_sigma_bar", "g5": "g5_sigma_bar", "g6q": "g6q_sigma_bar",
    "g6c": "g6c_sigma_bar", "g8": "g8_sigma_bar",
}
# and the inverse: the short name of each full id that has one
CASE_SHORT = {full: short for short, full in CASE_ALIASES.items()}


@dataclass(frozen=True)
class CaseRecord:
    """Classification metadata of the underlying 3-fold family.

    genus and num_half_points_N, with VarietySpec.expected_dim, are claims
    that only the expected side of checks reads; expected_dim is also the
    codimension input of the Jacobian criterion and of 3-fold sections,
    which the dimension check's count-growth path guards. e, deg_C and
    genus_C are recorded for reference only; no check asserts them (they
    would require intersection theory out of scope here).
    """
    genus: int
    num_half_points_N: int
    e: int
    deg_C: int
    genus_C: int
    X_prime: str


@dataclass(frozen=True)
class PlaneSpec:
    """A distinguished coordinate subspace {vanishing_vars = 0}."""
    vanishing_vars: tuple
    contained: bool  # containment in the variety is claimed and checked


@dataclass(frozen=True)
class RankBranch:
    zero_vars: tuple                 # coordinate block that must vanish
    matrix: tuple                    # tuple of rows of Polynomial entries
    rank_bound: int


@dataclass(frozen=True)
class RankLocusSpec:
    case_id: str
    description: str
    branches: tuple


@dataclass(frozen=True)
class VarietySpec:
    case_id: str
    ambient_dim: int
    vars: tuple
    generators: tuple
    planes: Mapping[str, PlaneSpec]
    expected_dim: int
    metadata: CaseRecord | None = None
    rank_locus: RankLocusSpec | None = None

    def var_index(self, name: str) -> int:
        return self.vars.index(name)


# ---------------------------------------------------------------------------
# Plucker machinery


def pair_labels(n: int, offset: int = 1) -> list[tuple]:
    return [(i, j) for i in range(offset, n + offset) for j in range(i + 1, n + offset)]


def plucker_ideal(n: int) -> list[Polynomial]:
    """The C(n,4) three-term quadrics p_ij p_kl - p_ik p_jl + p_il p_jk
    cutting out G(2,n) in its Plucker embedding. Variables p12, p13, ...
    indexed over 1 <= i < j <= n.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    labels = pair_labels(n)
    ring = tuple(f"p{i}{j}" for i, j in labels)
    gens = []
    for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
        text = f"p{i}{j}*p{k}{l} - p{i}{k}*p{j}{l} + p{i}{l}*p{j}{k}"
        gens.append(parse_poly(text, ring))
    return gens


# ---------------------------------------------------------------------------
# genus-8 pinned constants
#
# Ambient: P(V' + U^7) with V' = <e2..e6> inside V = <e1..e6>. The V'-block
# variables x2..x6 stand for the bivectors e1 ^ ej. U^7 inside wedge^2 V' is
# the graph of an integral linear map: the three coordinates below are
# eliminated in favour of the seven kept ones. The constants were validated
# by the smoothness probe of the induced quintic del Pezzo 3-fold (Jacobian
# rank 3 at every rational point over F_2, F_3, F_5) and by the fiber and
# dimension checks shipped in the test suite.

G8_KEPT = ("p24", "p25", "p26", "p35", "p36", "p45", "p46")
G8_ELIMINATED = ("p23", "p34", "p56")
G8_MATRIX = (
    (0, 1, -1, 1, 0, 0, 1),
    (1, 1, 1, 1, 1, -1, 0),
    (1, 0, 0, -1, 0, 0, -1),
)
G8_VARS = ("x2", "x3", "x4", "x5", "x6") + G8_KEPT
B5_VARS = G8_KEPT


def _g8_substitution(ring: tuple, include_v1: bool) -> dict[str, Polynomial]:
    """Map full G(2,6) Plucker variables into the 12- or 7-variable ring."""
    sub: dict[str, Polynomial] = {}
    if include_v1:
        for j in range(2, 7):
            sub[f"p1{j}"] = Polynomial.variable(ring, f"x{j}")
    for name in G8_KEPT:
        sub[name] = Polynomial.variable(ring, name)
    for k, name in enumerate(G8_ELIMINATED):
        img = Polynomial.zero(ring)
        for t, kept in enumerate(G8_KEPT):
            img = img + Polynomial.variable(ring, kept) * G8_MATRIX[k][t]
        sub[name] = img
    return sub


def _build_g8_generators() -> tuple:
    sub = _g8_substitution(G8_VARS, include_v1=True)
    gens = []
    for f in plucker_ideal(6):
        gens.append(f.substitute(sub))
    return tuple(g for g in gens if not g.is_zero())


def _build_b5_generators() -> tuple:
    # the last five quadrics of plucker_ideal(6) are those free of index 1
    sub = _g8_substitution(B5_VARS, include_v1=False)
    gens = [f.substitute(sub) for f in plucker_ideal(6)[-5:]]
    return tuple(g for g in gens if not g.is_zero())


def g8_lift_to_wedge(kept: Sequence[int], p: int) -> dict[tuple, int]:
    """Lift the 7 kept coordinates of a U^7 vector to all 10 wedge^2 V'
    coordinates, as a map (i, j) -> value with 2 <= i < j <= 6."""
    full: dict[tuple, int] = {}
    for t, name in enumerate(G8_KEPT):
        full[(int(name[1]), int(name[2]))] = int(kept[t]) % p
    for k, name in enumerate(G8_ELIMINATED):
        val = sum(G8_MATRIX[k][t] * int(kept[t]) for t in range(7)) % p
        full[(int(name[1]), int(name[2]))] = val
    return full


def g8_dual_net_matrix(coefs: Sequence[int], p: int) -> list[list[int]]:
    """The alternating form on V' dual to a point of P((U^7)-perp),
    as a 5x5 antisymmetric matrix in the e2..e6 basis."""
    A = [[0] * 5 for _ in range(5)]

    def add(i, j, v):
        A[i - 2][j - 2] = (A[i - 2][j - 2] + v) % p
        A[j - 2][i - 2] = (A[j - 2][i - 2] - v) % p

    for k, name in enumerate(G8_ELIMINATED):
        add(int(name[1]), int(name[2]), int(coefs[k]))
    for t, name in enumerate(G8_KEPT):
        v = -sum(int(coefs[k]) * G8_MATRIX[k][t] for k in range(3))
        add(int(name[1]), int(name[2]), v)
    return A


# ---------------------------------------------------------------------------
# case construction


def _vars_g4():
    return ("y1", "y2", "y3", "x1", "x2", "x3",
            "z11", "z12", "z13", "z21", "z22", "z23", "z31", "z32")


def trace_zero_matrix(e: Sequence) -> tuple:
    """The trace-zero 3x3 matrix with entries e = (m11, m12, m13, m21, m22,
    m23, m31, m32) in row order and m33 = -(m11 + m22); the entries may be
    integers or Polynomials."""
    return ((e[0], e[1], e[2]), (e[3], e[4], e[5]), (e[6], e[7], -(e[0] + e[4])))


def _trace_zero_variables(ring: tuple, letter: str) -> tuple:
    """trace_zero_matrix of the variables letter11, ..., letter32 of ring."""
    return trace_zero_matrix([Polynomial.variable(ring, f"{letter}{i}{j}")
                              for i in (1, 2, 3) for j in (1, 2, 3)
                              if (i, j) != (3, 3)])


def _mq_matrix(z2, z3, z4, z5) -> tuple:
    """The antisymmetric 5x5 matrix of quadratic entries in the vertex
    coordinates z2..z5 (integers or Polynomials)."""
    return (
        (0, z2 * z2, z3 * z3, z2 * z3, z2 * z4 - z3 * z5),
        (-(z2 * z2), 0, z3 * z5 + z2 * z4, z2 * z5, -(z5 * z5)),
        (-(z3 * z3), -(z3 * z5 + z2 * z4), 0, -(z3 * z4), -(z4 * z4)),
        (-(z2 * z3), -(z2 * z5), z3 * z4, 0, -(z4 * z5)),
        (-(z2 * z4 - z3 * z5), z5 * z5, z4 * z4, z4 * z5, 0),
    )


_G6Q_VARS = ("z2", "z3", "z4", "z5",
             "x23", "x25", "x34", "x35", "x45",
             "y23", "y25", "y34", "y35", "y45")

_G6Q_AQ_TEXTS = (
    "z4*x23 + z2*x34 - z3*x35",
    "z5*x23 - z3*x25 + z2*x35",
    "-z4*x25 + z5*x35 + z2*x45",
    "z5*x34 - z4*x35 + z3*x45",
    "x23*x45 - x35^2 + x25*x34",
)

_G6C_VARS = ("x1", "x2", "x3", "y1", "y2", "y3", "y4", "y5",
             "z1", "z2", "z3", "z4", "z5")

_G6C_AC_TEXTS = (
    "y4*x1 + y3*x2 + y2*x3",
    "y3*x1 + y2*x2 + y1*x3",
    "y5*x1 - y2^2 + y1*y3",
    "y5*x2 - y1*y4 + y2*y3",
    "y5*x3 - y3^2 + y2*y4",
)

_TABLE = {
    "g4_sigma_bar": CaseRecord(4, 2, 7, 7, 8, "P(1^3,2)"),
    "g5_sigma_bar": CaseRecord(5, 1, 6, 9, 9, "P^3"),
    "g6q_sigma_bar": CaseRecord(6, 1, 5, 9, 6, "Q^3"),
    "g6c_sigma_bar": CaseRecord(6, 1, 6, 3, 0, "B_3"),
    "g8_sigma_bar": CaseRecord(8, 1, 4, 7, 2, "B_5"),
}


def _rank_locus_g4(ring) -> RankLocusSpec:
    y = [Polynomial.variable(ring, f"y{i}") for i in (1, 2, 3)]
    x = [Polynomial.variable(ring, f"x{i}") for i in (1, 2, 3)]
    z = _trace_zero_variables(ring, "z")
    yM = [sum((y[i] * z[i][j] for i in range(3)), Polynomial.zero(ring)) for j in range(3)]
    Mx = [sum((z[i][j] * x[j] for j in range(3)), Polynomial.zero(ring)) for i in range(3)]
    return RankLocusSpec(
        "g4_sigma_bar",
        "on {x=0}: rank(y ; yM) <= 1, on {y=0}: rank(x ; Mx) <= 1",
        (
            RankBranch(("x1", "x2", "x3"), (tuple(y), tuple(yM)), 1),
            RankBranch(("y1", "y2", "y3"), (tuple(x), tuple(Mx)), 1),
        ),
    )


def _rank_locus_g5(ring) -> RankLocusSpec:
    My = tuple(tuple(Polynomial.variable(ring, f"y{i}{j}") for j in range(1, 5))
               for i in range(1, 4))
    return RankLocusSpec(
        "g5_sigma_bar",
        "on {x=0}: rank of the 3x4 coordinate matrix <= 2",
        (RankBranch(("x1", "x2", "x3", "x4"), My, 2),),
    )


def _rank_locus_g6q(ring) -> RankLocusSpec:
    MQ = _mq_matrix(*(Polynomial.variable(ring, n) for n in ("z2", "z3", "z4", "z5")))
    yv = [Polynomial.variable(ring, n) for n in ("y23", "y25", "y34", "y35", "y45")]
    zero = Polynomial.zero(ring)
    rows = []
    for i in range(5):
        entry = zero
        for j in range(5):
            coef = MQ[i][j]
            if coef == 0:
                continue
            entry = entry + coef * yv[j]
        rows.append((entry,))
    return RankLocusSpec(
        "g6q_sigma_bar",
        "on {x=0}: the quadratic antisymmetric matrix in the vertex "
        "coordinates annihilates the dual block",
        (RankBranch(("x23", "x25", "x34", "x35", "x45"), tuple(rows), 0),),
    )


def build_case(case_id: str) -> VarietySpec:
    """Fully pinned spec for a recognized case id (aliases accepted)."""
    return _build_case(CASE_ALIASES.get(case_id, case_id))


@lru_cache(maxsize=None)
def _build_case(case_id: str) -> VarietySpec:
    if case_id == "g4_sigma_bar":
        ring = _vars_g4()
        y = [Polynomial.variable(ring, f"y{i}") for i in (1, 2, 3)]
        x = [Polynomial.variable(ring, f"x{i}") for i in (1, 2, 3)]
        z = _trace_zero_variables(ring, "z")
        # y^T z x with z33 eliminated by the trace-zero relation
        cubic = sum((y[i] * z[i][j] * x[j] for i in range(3) for j in range(3)),
                    Polynomial.zero(ring))
        gens = (parse_poly("y1*x1 + y2*x2 + y3*x3", ring), cubic)
        planes = {
            "Pibar1": PlaneSpec(("x1", "x2", "x3"), True),
            "Pibar2": PlaneSpec(("y1", "y2", "y3"), True),
        }
        return VarietySpec(case_id, 13, ring, gens, planes, 11,
                           _TABLE[case_id], _rank_locus_g4(ring))
    if case_id == "g5_sigma_bar":
        ring = tuple(["x1", "x2", "x3", "x4"]
                     + [f"y{i}{j}" for i in range(1, 4) for j in range(1, 5)])
        gens = tuple(parse_poly(" + ".join(f"y{i}{j}*x{j}" for j in range(1, 5)), ring)
                     for i in range(1, 4))
        planes = {"Pibar": PlaneSpec(("x1", "x2", "x3", "x4"), True)}
        return VarietySpec(case_id, 15, ring, gens, planes, 12,
                           _TABLE[case_id], _rank_locus_g5(ring))
    if case_id == "g6q_AQ":
        ring = _G6Q_VARS[:9]
        gens = tuple(parse_poly(t, ring) for t in _G6Q_AQ_TEXTS)
        planes = {"Pi": PlaneSpec(("x23", "x25", "x34", "x35", "x45"), True)}
        return VarietySpec(case_id, 8, ring, gens, planes, 5)
    if case_id == "g6q_sigma_bar":
        ring = _G6Q_VARS
        texts = _G6Q_AQ_TEXTS + (
            "x23*y23 + x25*y25 + x34*y34 + x35*y35 + x45*y45",)
        gens = tuple(parse_poly(t, ring) for t in texts)
        planes = {
            "Pibar": PlaneSpec(("x23", "x25", "x34", "x35", "x45"), True),
            "PUdual": PlaneSpec(("z2", "z3", "z4", "z5",
                                 "x23", "x25", "x34", "x35", "x45"), True),
        }
        return VarietySpec(case_id, 13, ring, gens, planes, 9,
                           _TABLE[case_id], _rank_locus_g6q(ring))
    if case_id == "g6c_AC":
        ring = _G6C_VARS[:8]
        gens = tuple(parse_poly(t, ring) for t in _G6C_AC_TEXTS)
        planes = {"Pi": PlaneSpec(("y1", "y2", "y3", "y4", "y5"), True)}
        return VarietySpec(case_id, 7, ring, gens, planes, 4)
    if case_id == "g6c_sigma_bar":
        ring = _G6C_VARS
        texts = _G6C_AC_TEXTS + ("y1*z1 + y2*z2 + y3*z3 + y4*z4 + y5*z5",)
        gens = tuple(parse_poly(t, ring) for t in texts)
        planes = {"Pibar": PlaneSpec(("y1", "y2", "y3", "y4", "y5"), True)}
        return VarietySpec(case_id, 12, ring, gens, planes, 8, _TABLE[case_id])
    if case_id == "g8_sigma_bar":
        gens = _build_g8_generators()
        planes = {
            "Pibar": PlaneSpec(G8_KEPT, True),
            # 2-plane of lines through the marked vector inside <e1..e4>
            "Pi": PlaneSpec(("x5", "x6") + G8_KEPT, True),
            "PU7": PlaneSpec(("x2", "x3", "x4", "x5", "x6"), False),
        }
        return VarietySpec(case_id, 11, G8_VARS, gens, planes, 5, _TABLE[case_id])
    if case_id == "B5":
        gens = _build_b5_generators()
        return VarietySpec(case_id, 6, B5_VARS, gens, {}, 3)
    if case_id == "grass_2_5":
        gens = tuple(plucker_ideal(5))
        ring = gens[0].ring_vars
        return VarietySpec(case_id, 9, ring, gens, {}, 6)
    if case_id == "grass_2_6":
        gens = tuple(plucker_ideal(6))
        ring = gens[0].ring_vars
        return VarietySpec(case_id, 14, ring, gens, {}, 8)
    if case_id == "B6":
        ring = ("p11", "p12", "p13", "p21", "p22", "p23", "p31", "p32")
        entries = _trace_zero_variables(ring, "p")
        gens = []
        for r1, r2 in itertools.combinations(range(3), 2):
            for c1, c2 in itertools.combinations(range(3), 2):
                gens.append(entries[r1][c1] * entries[r2][c2]
                            - entries[r1][c2] * entries[r2][c1])
        return VarietySpec(case_id, 7, ring, tuple(gens), {}, 3)
    if case_id == "Q3_g6q":
        ring = ("x23", "x25", "x34", "x35", "x45")
        gens = (parse_poly("x23*x45 - x35^2 + x25*x34", ring),)
        return VarietySpec(case_id, 4, ring, gens, {}, 3)
    raise UnknownCaseError(f"unknown case {case_id!r}")


# ---------------------------------------------------------------------------
# operations on specs


def plane_containment_check(spec: VarietySpec, plane_name: str) -> bool:
    """True iff every generator vanishes identically (over Z, hence in every
    characteristic) after setting the plane's vanishing coordinates to zero."""
    if plane_name not in spec.planes:
        raise KeyError(f"unknown plane {plane_name!r} for case {spec.case_id}")
    plane = spec.planes[plane_name]
    images = {v: Polynomial.zero(spec.vars) for v in plane.vanishing_vars}
    return all(g.substitute(images).is_zero() for g in spec.generators)


def form_vanishes_on_plane(form: Polynomial, plane: PlaneSpec) -> bool:
    images = {v: Polynomial.zero(form.ring_vars) for v in plane.vanishing_vars}
    return form.substitute(images).is_zero()


def rank_locus_member(locus: RankLocusSpec, pt: PointAffineRep, p: int) -> bool:
    """Membership in the rank-locus description (pointwise reference path)."""
    spec = build_case(locus.case_id)
    coords = pt.coords
    for branch in locus.branches:
        if any(coords[spec.var_index(v)] % p for v in branch.zero_vars):
            continue
        rows = [[e.eval_mod(coords, p) for e in row] for row in branch.matrix]
        if matrix_rank_mod_p(rows, p) <= branch.rank_bound:
            return True
    return False


def normalize_pairing(M0: Sequence[Sequence]) -> list[list[Fraction]]:
    """Substitution S = M0^-1 with exact rational entries: replacing x by
    S x' turns the pairing y^T M0 x into the standard y^T x'.

    Raises ValueError when rank M0 <= 2 (a decomposable pairing).
    """
    if len(M0) != 3 or any(len(r) != 3 for r in M0):
        raise ValueError("expected a 3x3 matrix")
    # Gauss-Jordan on [M0 | I]: M0 is invertible iff its columns hold the
    # pivots, and then the right-hand block is M0^-1
    aug, pivots = _echelon([list(row) + [int(i == k) for k in range(3)]
                            for i, row in enumerate(M0)])
    if pivots[:3] != [0, 1, 2]:
        raise ValueError("pairing matrix has rank <= 2")
    return [row[3:] for row in aug]


def pinned_coordinate_change(spec: VarietySpec) -> tuple:
    """Generators rewritten through the committed unipotent change
    v_i -> v_i + v_{i+1} (last variable fixed); used for the two-path
    point-count cross check."""
    ring = spec.vars
    images = {}
    for i, name in enumerate(ring[:-1]):
        images[name] = (Polynomial.variable(ring, name)
                        + Polynomial.variable(ring, ring[i + 1]))
    return tuple(g.substitute(images) for g in spec.generators)


def spec_dump(spec: VarietySpec) -> str:
    """Canonical text dump used by the golden-file tests."""
    lines = [f"case {spec.case_id}",
             f"ambient P^{spec.ambient_dim}",
             "vars " + ",".join(spec.vars),
             f"expected_dim {spec.expected_dim}"]
    for g in spec.generators:
        lines.append(f"generator {g}")
    for name in sorted(spec.planes):
        plane = spec.planes[name]
        lines.append(f"plane {name} contained={str(plane.contained).lower()} "
                     "zero=" + ",".join(plane.vanishing_vars))
    return "\n".join(lines) + "\n"
