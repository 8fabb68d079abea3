"""Exact divisor-class arithmetic over declared symbol bases and relation
sets, plus the per-case framework constants and normal-bundle bookkeeping.

Each relation of a lattice is declared as a labelled identity in the grammar
of the ledger's identities ("mKY + Ep == 4*fH" means mKY + Ep - 4 fH = 0) and
read by the same parse_identity. Divisor symbols are opaque: no intersection
products are formed beyond the scalar curve pairings recorded in the
primitivity facts. Rewriting uses the relations in their declared order, each
contributing one pivot symbol.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .catalog import CASE_SHORT


@dataclass(frozen=True)
class Relation:
    label: str
    vector: dict  # symbol -> Fraction, meaning sum == 0


@dataclass(frozen=True)
class ClassLattice:
    name: str
    basis: tuple
    relations: tuple

    def __post_init__(self):
        for rel in self.relations:
            for sym in rel.vector:
                if sym not in self.basis:
                    raise ValueError(f"relation {rel.label} uses undeclared {sym}")


@dataclass(frozen=True)
class IdentityVerdict:
    identity: str
    ok: bool
    residual: dict
    trace: tuple


_TERM_RE = re.compile(
    r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*?\s*)?([a-zA-Z][a-zA-Z0-9]*)?")


def parse_expression(text: str, basis) -> dict:
    """Linear expression over the basis symbols with rational coefficients,
    e.g. "3*M - 3/2*F + E"."""
    vec: dict[str, Fraction] = {}
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty expression")
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse expression at: {text[pos:]!r}")
        sign, coeff, sym = m.groups()
        if sign is None and not first:
            raise ValueError(f"missing +/- before: {text[pos:]!r}")
        if coeff is None and sym is None:
            raise ValueError(f"cannot parse expression at: {text[pos:]!r}")
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        if sym is None:
            raise ValueError("constant terms are not divisor classes")
        if sym not in basis:
            raise KeyError(f"undeclared symbol {sym!r}")
        vec[sym] = vec.get(sym, Fraction(0)) + c
        pos = m.end()
        first = False
    return {s: c for s, c in vec.items() if c}


def parse_identity(text: str, basis) -> dict:
    if "==" not in text:
        raise ValueError(f"identity must contain '==': {text!r}")
    lhs, rhs = text.split("==", 1)
    vec = parse_expression(lhs, basis)
    for sym, c in parse_expression(rhs, basis).items():
        vec[sym] = vec.get(sym, Fraction(0)) - c
    return {s: c for s, c in vec.items() if c}


def _echelon(lattice: ClassLattice):
    """Relations in echelon form: ordered (pivot_symbol, row, label)."""
    pivots = []
    for rel in lattice.relations:
        row = dict(rel.vector)
        for sym, prow, _ in pivots:
            c = row.get(sym)
            if c:
                for s2, v2 in prow.items():
                    row[s2] = row.get(s2, Fraction(0)) - c * v2
        row = {s: c for s, c in row.items() if c}
        if not row:
            continue  # dependent relation; consistent, carries no new pivot
        pivot = next(s for s in lattice.basis if row.get(s))
        inv = 1 / row[pivot]
        row = {s: c * inv for s, c in row.items()}
        pivots.append((pivot, row, rel.label))
    return pivots


def reduce_expression(lattice: ClassLattice, vec: dict):
    """Normal form of a symbol vector modulo the relations, with the
    substitution trace."""
    residual = dict(vec)
    trace = []
    for pivot, row, label in _echelon(lattice):
        c = residual.get(pivot)
        if c:
            for sym, v in row.items():
                residual[sym] = residual.get(sym, Fraction(0)) - c * v
            trace.append(f"substituted {pivot} by {label} (coefficient {c})")
    return ({s: c for s, c in residual.items() if c}, tuple(trace))


def verify_identity(lattice: ClassLattice, identity: str) -> IdentityVerdict:
    vec = parse_identity(identity, lattice.basis)
    residual, trace = reduce_expression(lattice, vec)
    return IdentityVerdict(identity, not residual, residual, trace)


# ---------------------------------------------------------------------------
# case lattices

# Fano index of the projection target minus one, per case
LINK_Z = {"g5": 3, "g6q": 2, "g6c": 1, "g8": 1}

# framework constants of the bundle construction for the three unified cases
BUNDLE_CONSTANTS = {
    "g4": dict(dim_A=4, f_A=4, d=2, l=2, N=7),
    "g6q": dict(dim_A=5, f_A=4, d=1, l=1, N=4),
    "g6c": dict(dim_A=4, f_A=3, d=1, l=1, N=4),
}

def _lattice(name: str, basis: tuple, relations: tuple) -> ClassLattice:
    """A lattice whose relations are labelled identities in the ledger's
    grammar, each meaning lhs - rhs == 0."""
    return ClassLattice(name, basis, tuple(
        Relation(label, parse_identity(text, basis)) for label, text in relations))


@lru_cache(maxsize=None)
def lattice_by_name(name: str) -> ClassLattice:
    """The lattice named case.kind; KeyError naming it for any other name."""
    case, _, kind = name.partition(".")
    if kind == "link" and case in LINK_Z:
        z = LINK_Z[case]
        return _lattice(name, ("mKY", "Etld", "Ep", "fH"), (
            ("blowup-along-curve", f"mKY + Ep == {z + 1}*fH"),
            ("exceptional-class-table", f"Ep + {z + 1}*Etld == {z}*mKY"),
        ))
    if kind == "bundle" and case in BUNDLE_CONSTANTS:
        c = BUNDLE_CONSTANTS[case]
        return _lattice(name, ("mKSig", "H", "LA", "Fa", "LB", "E", "F"), (
            ("bundle-anticanonical",
             f"mKSig + Fa + LB == {c['N'] + 1}*H + {c['f_A'] - 1}*LA"),
            ("blowdown-hyperplane", f"LB + Fa == {c['d']}*LA"),
            ("subbundle-divisor", "E + LA == H"),
            ("exceptional-pullback", "F == Fa"),
        ))
    if kind == "key" and case in (*BUNDLE_CONSTANTS, "g8", "g5"):
        if case in BUNDLE_CONSTANTS:
            c = BUNDLE_CONSTANTS[case]
            disc = c["dim_A"] - 3
            basis, half = ("mK", "H", "E", "F", "M"), "F"
            anticanonical = ("anticanonical-on-flipped-model",
                             f"mK + {disc}*E == {c['N'] + 1 + disc}*H")
        elif case == "g8":
            basis, half = ("mK", "H", "Pt", "M"), "Pt"
            anticanonical = ("anticanonical-on-flopped-model", "mK == 3*H")
        else:
            basis, half = ("mK", "H", "E", "Pt", "M"), "Pt"
            anticanonical = ("anticanonical-after-center-blowup", "mK + 4*E == 10*H")
        return _lattice(name, basis, (
            anticanonical,
            ("half-point-polarization", f"H + 1/2*{half} == M"),
        ))
    if kind == "sarkisov" and case == "g4":
        return _lattice(name, ("mKZp", "H", "piaL", "pibL", "E1p", "E2p", "ECp",
                               "E1pp", "E2pp", "LB6"), (
            ("anticanonical-is-polarization", "mKZp == piaL"),
            ("hyperplane-restriction", "H == piaL"),
            ("blowdown-hyperplane-restricted", "2*piaL == E1p + E2p + pibL"),
            ("blowup-of-base-along-curve", "mKZp + ECp == 2*pibL"),
            ("strict-transform-1", "E1p + ECp == E1pp"),
            ("strict-transform-2", "E2p + ECp == E2pp"),
            ("hyperplane-pullback", "pibL == LB6"),
        ))
    raise KeyError(f"unknown lattice {name!r}")


# ---------------------------------------------------------------------------
# framework constants per case


@dataclass(frozen=True)
class CaseConstants:
    case_id: str
    dim_A: int | None
    f_A: int | None
    d: int | None
    l: int
    N: int | None
    dim_Sigma: int
    fano_index_r: int
    half_point_count: int


_MODEL_DIM = {"g8": 5, "g5": 12}


def case_table_check(case_id: str) -> CaseConstants:
    """Framework constants with the framework inequality re-evaluated. The
    index is the M-coefficient of -K's normal form in the case's key
    lattice; a case with no key lattice raises KeyError."""
    short = CASE_SHORT.get(case_id, case_id)
    c = BUNDLE_CONSTANTS.get(short)
    index = reduce_expression(lattice_by_name(f"{short}.key"),
                              {"mK": Fraction(1)})[0]["M"]
    if index.denominator != 1:
        raise AssertionError(f"non-integral index {index}")
    if c is None:
        return CaseConstants(short, None, None, None, 1, None,
                             _MODEL_DIM[short], int(index), 1)
    if c["d"] != c["f_A"] - (c["dim_A"] - 2) or c["d"] <= 0:
        raise AssertionError("framework inequality violated")
    return CaseConstants(short, c["dim_A"], c["f_A"], c["d"], c["l"], c["N"],
                         c["dim_A"] + c["N"], int(index), c["l"])


# ---------------------------------------------------------------------------
# normal-bundle and primitivity bookkeeping


@dataclass(frozen=True)
class NormalBundleFact:
    case_id: str
    label: str
    restricted_degree: int  # degree of -K of the big model on the center
    exceptional_dim: int    # the center is P^exceptional_dim
    normal_degree: int
    splitting: tuple


def normal_bundle_ledger(case_id: str) -> list:
    """Stated normal-bundle degrees re-derived from adjunction bookkeeping:
    deg N = deg(-K restricted) - deg(-K of the exceptional projective space).
    """
    short = CASE_SHORT.get(case_id, case_id)
    facts: list[NormalBundleFact] = []
    if short in BUNDLE_CONSTANTS:
        c = BUNDLE_CONSTANTS[short]
        dim_A, N = c["dim_A"], c["N"]
        facts.append(NormalBundleFact(
            short, "contracted-hyperplane", dim_A + N - 2, dim_A + N - 1,
            -2, (-2,)))
        facts.append(NormalBundleFact(
            short, "flip-center-fiber", dim_A - 3, dim_A - 2,
            -2, (-1, -1) + (0,) * N))
    elif short == "g8":
        facts.append(NormalBundleFact(short, "vertex-plane", 3, 4, -2, (-2,)))
    elif short == "g5":
        facts.append(NormalBundleFact(short, "vertex-plane", 10, 11, -2, (-2,)))
        facts.append(NormalBundleFact(
            short, "flip-center-fiber", 4, 5, -2, (-1, -1, 0, 0, 0, 0, 0)))
    else:
        raise KeyError(f"unknown case {case_id!r}")
    for fact in facts:
        if fact.normal_degree != fact.restricted_degree - (fact.exceptional_dim + 1):
            raise AssertionError(f"adjunction bookkeeping broken: {fact}")
        if sum(fact.splitting) != fact.normal_degree:
            raise AssertionError(f"splitting degree mismatch: {fact}")
    return facts


@dataclass(frozen=True)
class PrimitivityFact:
    case_id: str
    polarization_pairing: int  # (2H + exceptional) . flopping curve
    indivisible: bool


def primitivity_checks() -> list:
    """Arithmetic core of the primitivity arguments: the half-polarization
    pairs to -1 with a flopping curve, and -1 admits no divisor >= 2."""
    out = []
    for case in ("g4", "g6q", "g6c", "g8", "g5"):
        h_dot, exc_dot = 0, -1
        value = 2 * h_dot + exc_dot
        out.append(PrimitivityFact(case, value, abs(value) == 1))
    return out


# ---------------------------------------------------------------------------
# shipped identity ledger


@dataclass(frozen=True)
class LedgerRecord:
    lattice: str
    identity: str
    anchor: str
    verdict: IdentityVerdict


def load_ledger_lines(text: str):
    """Parse the ledger file format: '# anchor: ...' comment lines attach to
    the following '<lattice>: lhs == rhs' identity lines."""
    anchor = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("anchor:"):
                anchor = body[len("anchor:"):].strip()
            continue
        if ":" not in line:
            raise ValueError(f"ledger line without lattice prefix: {line!r}")
        lattice, identity = line.split(":", 1)
        yield lattice.strip(), identity.strip(), anchor
        anchor = ""


def run_ledger(case: str | None = None):
    """Verify every identity in the shipped ledger file; optionally restrict
    to one case, by short alias or full id. Returns LedgerRecord list; a case
    with no identity raises KeyError."""
    text = resources.files("keyvariety").joinpath("data/identities.led").read_text()
    prefix = None if case is None else CASE_SHORT.get(case, case) + "."
    records = []
    for lattice_name, identity, anchor in load_ledger_lines(text):
        if prefix is not None and not lattice_name.startswith(prefix):
            continue
        lattice = lattice_by_name(lattice_name)
        records.append(LedgerRecord(lattice_name, identity, anchor,
                                    verify_identity(lattice, identity)))
    if case is not None and not records:
        raise KeyError(f"no ledger identities for case {case!r}")
    return records
