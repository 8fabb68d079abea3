"""Exact sparse multivariate polynomial arithmetic and linear algebra over F_p
and Q.

Field elements are canonical integer residues 0 <= a < p. Polynomials carry
arbitrary-precision integer coefficients; reduction mod p happens only at
evaluation time, so one symbolic catalog serves every scan prime.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

Monomial = tuple  # exponent vector, one slot per ring variable


class ParseError(ValueError):
    """Malformed polynomial text or unknown variable."""


class OffVarietyError(ValueError):
    """A point was required to lie on a variety and does not."""


class SmallPrime(int):
    """A prime modulus 2 <= p <= 2^31, checked by trial division."""

    def __new__(cls, p: int) -> "SmallPrime":
        p = int(p)
        if not 2 <= p <= 2**31:
            raise ValueError(f"prime out of range: {p}")
        if p % 2 == 0 and p != 2:
            raise ValueError(f"not prime: {p}")
        d = 3
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"not prime: {p}")
            d += 2
        return super().__new__(cls, p)


_TOKEN_RE = re.compile(r"\s*([a-z][a-z0-9]*|\d+|\^|\*|\+|-|−)")


def _product(terms: Mapping[Monomial, int], other) -> dict[Monomial, int]:
    """Terms of the product of terms (a dict) and other ((exponents,
    coefficient) pairs), zero coefficients kept."""
    out: dict[Monomial, int] = {}
    for e1, c1 in terms.items():
        for e2, c2 in other:
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


class Polynomial:
    """Sparse polynomial over the integers in a fixed ordered variable list.

    Terms map full-length exponent tuples to nonzero integer coefficients.
    Instances are immutable; all operators return new objects. The hash and
    the sparse term list that eval_mod walks are computed on first use.
    """

    __slots__ = ("ring_vars", "terms", "_hash", "_sparse")

    def __init__(self, ring_vars: Sequence[str], terms: Mapping[Monomial, int] | None = None):
        object.__setattr__(self, "ring_vars", tuple(ring_vars))
        n = len(self.ring_vars)
        clean: dict[Monomial, int] = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != n:
                raise ValueError(f"exponent vector of length {len(expo)}, expected {n}")
            if any(e < 0 for e in expo):
                raise ValueError("negative exponent")
            coeff = int(coeff)
            if coeff:
                clean[tuple(int(e) for e in expo)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_sparse", None)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, ring_vars: Sequence[str]) -> "Polynomial":
        return cls(ring_vars, {})

    @classmethod
    def constant(cls, ring_vars: Sequence[str], c: int) -> "Polynomial":
        n = len(ring_vars)
        return cls(ring_vars, {(0,) * n: int(c)} if c else {})

    @classmethod
    def variable(cls, ring_vars: Sequence[str], name: str) -> "Polynomial":
        ring_vars = tuple(ring_vars)
        if name not in ring_vars:
            raise ParseError(f"unknown variable {name!r}")
        e = [0] * len(ring_vars)
        e[ring_vars.index(name)] = 1
        return cls(ring_vars, {tuple(e): 1})

    # -- ring operations ----------------------------------------------
    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring_vars != other.ring_vars:
            raise ValueError("mixed polynomial rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.ring_vars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(self.ring_vars, {e: c * other for e, c in self.terms.items()})
        self._check_ring(other)
        return Polynomial(self.ring_vars, _product(self.terms, other.terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.ring_vars == other.ring_vars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring_vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- calculus and evaluation ----------------------------------------
    def partial(self, var_index: int) -> "Polynomial":
        if not 0 <= var_index < len(self.ring_vars):
            raise IndexError(f"variable index {var_index} out of range")
        out: dict[Monomial, int] = {}
        for e, c in self.terms.items():
            k = e[var_index]
            if k:
                e2 = list(e)
                e2[var_index] = k - 1
                key = tuple(e2)
                out[key] = out.get(key, 0) + c * k
        return Polynomial(self.ring_vars, out)

    def eval_mod(self, coords: Sequence[int], p: int) -> int:
        """Value at the integer point coords as a residue in [0, p): the
        exact integer sum of the terms c * prod(x_i ** k_i) over the nonzero
        exponents only, reduced once."""
        if len(coords) != len(self.ring_vars):
            raise ValueError(
                f"point has {len(coords)} coordinates, ring has {len(self.ring_vars)}")
        sparse = self._sparse
        if sparse is None:
            sparse = tuple((c, tuple((i, k) for i, k in enumerate(e) if k))
                           for e, c in self.terms.items())
            object.__setattr__(self, "_sparse", sparse)
        total = 0
        for c, factors in sparse:
            for i, k in factors:
                x = int(coords[i])
                c *= x if k == 1 else x ** k
            total += c
        return total % p

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute variables by polynomials (same target ring for all images)."""
        target = None
        for img in images.values():
            target = img.ring_vars
            break
        if target is None:
            return self
        # every expanded term goes into one dict, and one Polynomial is built
        # at the end; the image terms of each variable are read once
        factors: dict = {}
        out: dict[Monomial, int] = {}
        for e, c in self.terms.items():
            term = {(0,) * len(target): c}
            for name, k in zip(self.ring_vars, e):
                if not k:
                    continue
                img = factors.get(name)
                if img is None:
                    poly = images.get(name)
                    if poly is None:
                        poly = Polynomial.variable(target, name)
                    elif poly.ring_vars != target:
                        raise ValueError("mixed polynomial rings")
                    img = factors[name] = tuple(poly.terms.items())
                for _ in range(k):
                    term = _product(term, img)
            for m, tc in term.items():
                out[m] = out.get(m, 0) + tc
        return Polynomial(target, out)

    # -- text form ------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        parts: list[str] = []
        for e in keys:
            c = self.terms[e]
            factors = []
            for name, k in zip(self.ring_vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r}, vars={self.ring_vars!r})"


def parse_poly(text: str, ring_vars: Sequence[str]) -> Polynomial:
    """Parse the ASCII grammar: terms of integer and variable^int factors
    joined by '*', combined with '+'/'-'. A bare "0" is the zero polynomial.
    """
    ring_vars = tuple(ring_vars)
    pos = 0
    tokens: list[str] = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad character {text[pos]!r} at position {pos}")
        tok = m.group(1)
        tokens.append("-" if tok == "−" else tok)
        pos = m.end()
    if not tokens:
        raise ParseError("empty expression")

    # one pass: each term's factors go into one exponent vector and one
    # coefficient, and the terms into one dict
    terms: dict[Monomial, int] = {}
    n = len(tokens)
    i = 1 if tokens[0] in ("+", "-") else 0
    sign = -1 if tokens[0] == "-" else 1
    while True:
        coeff = sign
        expo = [0] * len(ring_vars)
        while True:
            if i == n:
                raise ParseError("unexpected end of expression")
            tok = tokens[i]
            i += 1
            if tok.isdigit():
                coeff *= int(tok)
            elif tok[0].isalpha():
                if tok not in ring_vars:
                    raise ParseError(f"unknown variable {tok!r}")
                k = 1
                if i < n and tokens[i] == "^":
                    if i + 1 == n or not tokens[i + 1].isdigit():
                        raise ParseError("exponent must be a nonnegative integer")
                    k = int(tokens[i + 1])
                    i += 2
                expo[ring_vars.index(tok)] += k
            else:
                raise ParseError(f"unexpected token {tok!r}")
            if i == n or tokens[i] != "*":
                break
            i += 1
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + coeff
        if i == n:
            return Polynomial(ring_vars, terms)
        op = tokens[i]
        i += 1
        if op not in ("+", "-"):
            raise ParseError(f"expected + or -, got {op!r}")
        sign = -1 if op == "-" else 1


# ---------------------------------------------------------------------------
# projective point representatives


@dataclass(frozen=True)
class PointAffineRep:
    """Normalized projective point: first nonzero coordinate equals 1."""

    coords: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", cs)
        for c in cs:
            if c == 0:
                continue
            if c != 1:
                raise ValueError(f"representative not normalized: {cs}")
            break
        else:
            raise ValueError("zero vector is not a projective point")

    @classmethod
    def normalize(cls, raw: Sequence[int], p: int) -> "PointAffineRep":
        vals = [int(x) % p for x in raw]
        for v in vals:
            if v:
                inv = pow(v, -1, p)
                return cls(tuple((x * inv) % p for x in vals))
        raise ValueError("zero vector is not a projective point")

    @classmethod
    def parse(cls, text: str) -> "PointAffineRep":
        return cls(tuple(int(t) for t in text.split(":")))

    def serialize(self) -> str:
        return ":".join(str(c) for c in self.coords)

    def __len__(self) -> int:
        return len(self.coords)


# ---------------------------------------------------------------------------
# linear algebra over F_p and Q


def _echelon(rows: Sequence[Sequence], p: int | None = None) -> tuple[list, list]:
    """Gauss-Jordan over F_p (residue entries) when p is given, else over Q
    (exact Fractions): the reduced row echelon form of the matrix, pivot
    rows first, and its pivot columns. Stops once every row holds a pivot."""
    A = [[Fraction(x) if p is None else int(x) % p for x in row] for row in rows]
    field = Fraction if p is None else p.__rmod__   # x -> x % p
    m, n = len(A), len(A[0]) if A else 0
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = 1 / A[r][c] if p is None else pow(A[r][c], -1, p)
        A[r] = [field(x * inv) for x in A[r]]
        for i in range(m):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [field(x - f * y) for x, y in zip(A[i], A[r])]
        pivots.append(c)
        if len(pivots) == m:
            break
    return A, pivots


def matrix_rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of a rectangular integer matrix over F_p by Gaussian elimination."""
    return len(_echelon(rows, p)[1])


def nullspace_mod_p(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel over F_p, one vector per non-pivot column."""
    A, pivots = _echelon(rows, p)
    n = len(A[0]) if A else 0
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = 1
        for i, c in enumerate(pivots):
            v[c] = (-A[i][fc]) % p
        basis.append(v)
    return basis


def fraction_matrix_rank(M: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix over Q, from exact rational elimination."""
    return len(_echelon(M)[1])


_MOD_P_SMALL = 1 << 10


def mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x % p for an integer array x, in x's dtype, which must hold p: from
    _MOD_P_SMALL entries up as x - p*(x // p). numpy divides an integer
    array by a scalar with libdivide in //, not in %: on 32,768 entries
    this takes about a seventh of the time of % in int16 and a third in
    int64. Below that size the three calls cost more than one %, which is
    used there. Floor division makes it equal x % p for negative entries
    too; a product p*(x // p) that wraps in a signed dtype wraps back in the
    subtraction, since the true result lies in [0, p). One temporary is
    allocated and holds the result. p is passed as a Python int, which keeps
    x's dtype under the promotion rules of numpy 1.x and 2.x alike because
    the dtype holds it, and costs less per call than a numpy scalar."""
    p = int(p)
    if x.size < _MOD_P_SMALL:
        return x % p
    q = x // p
    q *= p
    return np.subtract(x, q, out=q)


def _inverse_mod_p(v: np.ndarray, p: int) -> np.ndarray:
    """Elementwise v^(p-2) mod p by square-and-multiply: the inverse of each
    nonzero residue (Fermat), and 0 for v = 0 when p > 2."""
    result = np.ones_like(v)
    base = v
    e = p - 2
    while e:
        if e & 1:
            result = mod_p(result * base, p)
        base = mod_p(base * base, p)
        e >>= 1
    return result


def _bit_planes(T: np.ndarray, p: int) -> list:
    """Pack a batch-last (r, c, B) integer view, c <= 64, into bit planes of
    shape (r, B) in the narrowest unsigned word that holds c bits (uint8,
    uint16, uint32 or uint64): bit j of a plane holds column j. p = 2 gives
    one plane (the entry is odd: x & 1 is x mod 2 for every integer in two's
    complement), p = 3 two (the entry is 1, the entry is 2). At p = 3 each
    column is reduced by mod_p on its own, unless every entry is a residue
    already: the check costs about as much as reducing two columns. Each
    column is cast into one buffer of the plane's word before any & or <<,
    and is shifted there in place, so that packing allocates nothing per
    column. Every scalar is of the plane's own word, so no operation widens
    a plane under the promotion rules of numpy 1.x or 2.x."""
    r, c, B = T.shape
    word = np.min_scalar_type((1 << c) - 1)
    one = word.type(1)
    planes = [np.zeros((r, B), dtype=word) for _ in range(p - 1)]
    reduce = p == 3 and T.size and (T.min() < 0 or T.max() > 2)
    low = np.empty((r, B), dtype=word)
    high = np.empty_like(low) if p == 3 else None
    for j in range(c):
        np.copyto(low, mod_p(T[:, j, :], p) if reduce else T[:, j, :],
                  casting="unsafe")
        shift = word.type(j)
        if p == 3:
            np.right_shift(low, one, out=high)
            high <<= shift
            planes[1] |= high
        low &= one
        low <<= shift
        planes[0] |= low
    return planes


def _rank_bitsliced(T: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_2 or F_3 of a batch-last (r, c, B) view with c <= 64, by
    the elimination of matrix_rank_mod_p_batch on the bit planes of
    _bit_planes (Boothby and Bradshaw, arXiv:0901.1413), all in the planes'
    word, the 1 of the pivot mask a scalar of that word. Step i takes the
    lowest set bit of row i as its pivot. A lower row that holds the pivot
    bit h gets row i added under the mask -h, which is all ones from the
    pivot bit up, where row i lives.
    At p = 3 row i is first scaled so that its pivot entry cancels the lower
    row's: negated (planes swapped) where the two entries are equal. The F_3
    sum of one-hot planes (a1, a2) + (b1, b2) is, with t = (a1|b2)^(a2|b1),
    ((a2|b2)^t, (a1|b1)^t)."""
    r, B = T.shape[0], T.shape[2]
    planes = _bit_planes(T, p)
    one = planes[0].dtype.type(1)
    rank = np.zeros(B, dtype=np.int64)
    for i in range(r):
        if p == 2:
            x = planes[0][i]
        else:
            x1, x2 = planes[0][i], planes[1][i]
            x = x1 | x2
        rank += x != 0
        if i == r - 1:
            break
        piv = x & (~x + one)
        if p == 2:
            below = planes[0][i + 1:]
            below ^= x & np.negative(below & piv)
            continue
        b1, b2 = planes[0][i + 1:], planes[1][i + 1:]
        same = np.negative(((b1 & x1) | (b2 & x2)) & piv)
        diff = np.negative(((b1 & x2) | (b2 & x1)) & piv)
        a1 = (x2 & same) | (x1 & diff)
        a2 = (x1 & same) | (x2 & diff)
        t = (b1 | a2) ^ (b2 | a1)
        planes[0][i + 1:], planes[1][i + 1:] = (b2 | a2) ^ t, (b1 | a1) ^ t
    return rank


def matrix_rank_mod_p_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a batch of small matrices, shape (B, r, c).

    Row-echelon elimination vectorized across the batch, over the shorter
    side (a batch with r > c is transposed). Step i takes the first nonzero
    column of row i as its pivot and clears that column from the rows below;
    the rank is the number of rows that are nonzero when reached. At p = 2
    and 3, with the longer side at most 64, the rows are bit planes in the
    narrowest unsigned word that holds a row, packed from the batch-last
    view in its own integer dtype, so a (B, r, c) view whose batch axis is
    the last in memory is read without a copy (_rank_bitsliced). Otherwise
    the entries are widened to int64, reduced by mod_p, and the pivot is
    inverted by Fermat's little theorem (v^(p-2)): residues stay below p and
    products below p^2 < 2^62, so every prime SmallPrime accepts (p < 2^31)
    is exact, and no memory of size p is allocated. The result,
    int64, matches matrix_rank_mod_p row by row.
    """
    A = np.asarray(mats)
    T = A.transpose(1, 2, 0)
    if T.shape[0] > T.shape[1]:
        T = T.transpose(1, 0, 2)
    if p in (2, 3) and T.shape[0] >= 1 and T.shape[1] <= 64:
        return _rank_bitsliced(T, p)
    A = mod_p(A.astype(np.int64, copy=False), p)
    if A.shape[1] > A.shape[2]:
        A = np.ascontiguousarray(A.transpose(0, 2, 1))
    B, r, c = A.shape
    rank = np.zeros(B, dtype=np.int64)
    for i in range(r):
        row = A[:, i, :]
        nonzero = row != 0
        rank += nonzero.any(axis=1)
        if i == r - 1:
            break
        # a zero row gets pivot column 0 and value 0; it clears nothing
        piv = nonzero.argmax(axis=1)[:, None, None]
        pivot = np.take_along_axis(row, piv[:, 0], axis=1)[:, 0]
        below = A[:, i + 1:, :]
        factors = np.take_along_axis(below, piv, axis=2)[:, :, 0]
        factors = mod_p(factors * _inverse_mod_p(pivot, p)[:, None], p)
        below -= factors[:, :, None] * row[:, None, :]
        below[...] = mod_p(below, p)
    return rank


@lru_cache(maxsize=64)
def _jacobian_partials(fs: tuple) -> tuple:
    """The Jacobian of fs as polynomials: one tuple of partials per f, over
    every ring variable. Built once per generator tuple."""
    return tuple(tuple(f.partial(i) for i in range(len(f.ring_vars))) for f in fs)


def jacobian_rank(fs: Sequence[Polynomial], pt: PointAffineRep, p: int) -> int:
    """Rank over F_p of the Jacobian of fs at a point of their common zero set.

    Raises OffVarietyError when some f does not vanish at the point.
    """
    coords = pt.coords
    for f in fs:
        if f.eval_mod(coords, p) != 0:
            raise OffVarietyError(f"point {pt.serialize()} not on the variety mod {p}")
    rows = [[d.eval_mod(coords, p) for d in row] for row in _jacobian_partials(tuple(fs))]
    return matrix_rank_mod_p(rows, p)
