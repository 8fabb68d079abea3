"""Exhaustive enumeration of P^n(F_p) and polynomial-system scans.

Index bijection: points are grouped by the position k of their leading 1
(coordinates before k vanish), group k holding p^(n-k) points; inside a group
the free coordinates after position k run in base-p lexicographic order, the
coordinate right after the leading 1 being the most significant digit.
points_block builds the rows of an index range, and a scan's chunks are
ranges of it.

One routine evaluates polynomials on rows of residues: the term loop
_term_sum, which reads the values of each monomial from a monomial builder
(_Monomials) over a block of rows. A builder computes in one signed lane,
LANE_DTYPE = int16, which holds (p - 1)^2 for every SmallPrime (p <= 181).
It holds each monomial it has built for the life of the block and builds a
new one with one multiply, from the monomial with its last nonzero exponent
lowered by 1 and the column of that variable; the constant monomial is a row
of ones and a degree-1 one is its column, cast to the lane once. Each term
of the loop is a raw product of its coefficient and monomial in the lane,
added raw into the sum. Python-int bounds on the entries of every held
monomial, term and sum decide when to reduce mod p, only where the next
product or addition could pass 2^15 - 1; one reduction ends the sum where
its bound is p or more. A term of reduced factors always fits, so every
value is exact. At p = 2 and 3 nothing is reduced before the end for the
catalog's degrees, and at p = 181 a product is reduced about once per
factor. Every array reduction here is algebra.mod_p, x - p*(x // p) in one
temporary, which numpy runs with libdivide where x % p does not.

One routine tests products: _zero_mod(a, b, p) is (a @ b) % p == 0 for
entries in [0, p). An entry of a @ b is at most L(p-1)^2 for inner length L.
Where L(p-1)^2 + p < 2^24 (at p = 181, L <= 517) the product runs in float32
on BLAS, in row blocks small enough to stay on the calling thread, and is
exact: every product and partial sum is an integer below 2^24, so the result
is the same in any summation order, with or without FMA. The test
x == p*rint(x/p) is exact too: if p divides x, x/p is exact; otherwise
p*rint(x/p) is a representable multiple of p, so it differs from x. Where
the bound fails the product is int64, which holds L(p-1)^2 for any L below
2^48.

Scans use a grid kernel. Group k is the full grid F_p^m, m = n - k, with its
most significant digits first; split into s = ceil(m/2) outer and m - s inner
digits (more outer ones where the inner grid would exceed GRID_CHUNK_POINTS
points), its indices are outer-major. With x_0..x_{k-1} = 0 and x_k = 1 a
generator is sum_j M_j(o) P_j(i) over its distinct outer monomials M_j. Its
fused table F, built once per group, holds P_j on the inner digit grid in row
j, a term-loop sum over one builder on the inner digits that all generators
and parts of the group share. A block of outer rows holds a common zero where
M_O[rows] @ F vanishes mod p: one _zero_mod per generator and block, M_O the
values of the M_j reduced to [0, p) from one builder on the block's outer
digits that all generators share, taken at the rows still live. Matched
entries are kept as offsets, which np.flatnonzero returns in index order.
CompiledSystem evaluates generators on explicit rows of points, which
points_block builds by index: eval_block with one builder for all
generators of a block, vanishing_mask with one per generator on the rows
still held, gathered from the block.

Chunks (blocks of outer rows of about GRID_CHUNK_POINTS points) run one after
another in index order, which bounds the memory of one step. One generator,
_scan_pieces, runs them and yields a piece per chunk: its group's (k, s,
width, inner digits), its first outer row and its match mask. A count sums
the matches of the masks; _batches keeps each chunk's matches as offsets and
decodes them into rows, all at once for a collect=True scan_system, or as
they come into batches of at least _SCAN_BATCH rows. Every scan is held to a
point budget, checked when it is called. Point sets of the catalog's
varieties go through a memo (point_set), so each (generators, prime) pair is
scanned once until clear_point_sets().

One reader, point_batches, gives a set that the caller does not hold,
without adding to the memo. It yields slices of _SCAN_BATCH rows of the
held set; else, where a leading part of the generators is held (the base of
a linear section), those slices of the base, each filtered by
vanishing_mask of the other generators; else the batches of a scan as the
scan finds them. So a caller reads the rows of a set it does not hold a
batch at a time and never holds the set whole.

Point sets are narrow: the rows of a collect scan, of point_set and of a
batch are in ROW_DTYPE = uint8, which holds every residue, an eighth of
int64. They are widened to the term loop's lane or to int64 only inside
arithmetic, and never a whole set at once: the monomial builder casts each
column it reads, vanishing_mask gets at most GRID_CHUNK_POINTS rows,
_matmul_mod casts its operands and _float32_zero casts to float32. A scan
holds each chunk's matches as offsets in the narrowest dtype that holds a
chunk, with its group's inner digits, and writes every row of a batch once
into one ROW_DTYPE array of the batch's count. A group's inner digits and
the values of eval_block are in ROW_DTYPE as well, so the value slabs of the
rank loci stay narrow up to the rank. The outer digit grid of a chunk is
built in the lane, so that its builder casts no column, and points_block
stays int64.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Polynomial, SmallPrime, mod_p

DEFAULT_POINT_BUDGET = 100_000_000
LANE_DTYPE = np.dtype(np.int16)
ROW_DTYPE = np.dtype(np.uint8)
_LANE_MAX = int(np.iinfo(LANE_DTYPE).max)


class BudgetExceeded(RuntimeError):
    pass


def proj_point_count(n: int, p: int) -> int:
    """#P^n(F_p) = (p^(n+1) - 1)/(p - 1), exact."""
    if n < 0:
        raise ValueError("ambient dimension must be >= 0")
    return (p ** (n + 1) - 1) // (p - 1)


@dataclass(frozen=True)
class ScanPlan:
    ambient_dim: int
    prime: SmallPrime

    def __post_init__(self):
        object.__setattr__(self, "prime", SmallPrime(self.prime))
        if self.ambient_dim < 0:
            raise ValueError("ambient_dim must be >= 0")

    @property
    def total(self) -> int:
        return proj_point_count(self.ambient_dim, self.prime)


@dataclass(frozen=True)
class ScanResult:
    matched: int


def _check_budget(plan: ScanPlan) -> None:
    if plan.total > DEFAULT_POINT_BUDGET:
        raise BudgetExceeded(f"P^{plan.ambient_dim}(F_{plan.prime}) has "
                             f"{plan.total} points, budget {DEFAULT_POINT_BUDGET}")


def points_block(n: int, p: int, start: int, stop: int) -> np.ndarray:
    """Normalized representatives with indices [start, stop), one per row."""
    out = np.zeros((stop - start, n + 1), dtype=np.int64)
    pos = 0
    gstart = 0
    for k in range(n + 1):
        gend = gstart + p ** (n - k)
        lo, hi = max(start, gstart), min(stop, gend)
        if lo < hi:
            rows = slice(pos, pos + hi - lo)
            out[rows, k] = 1
            out[rows, k + 1:] = _digit_grid(p, lo - gstart, hi - gstart, n - k,
                                            ROW_DTYPE)
            pos += hi - lo
        gstart = gend
    return out


def _digit_grid(p: int, start: int, stop: int, width: int,
                dtype: np.dtype) -> np.ndarray:
    """Base-p digits of start..stop-1, most significant first, in dtype:
    (stop-start, width)."""
    h = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, width), dtype=dtype)
    for j in range(width - 1, -1, -1):
        out[:, j] = mod_p(h, p)
        h //= p
    return out


# ---------------------------------------------------------------------------
# fast path: vectorized evaluation of polynomial systems


class _Monomials:
    """Values of monomials on every row of pts, held for one block in the
    lane LANE_DTYPE: each exponent tuple over the columns of pts maps to
    (values, hi), hi bounding the entries. The constant monomial is a row of
    ones and a degree-1 monomial is its column, cast to the lane once (no
    copy for rows in the lane); any other is built with one multiply from
    the monomial with its last nonzero exponent lowered by 1, which is
    reduced mod p first (and held reduced) only where the product could pass
    the lane's largest value. p must be a SmallPrime: a larger one raises
    ValueError, since a product of two residues would overflow the lane."""

    def __init__(self, pts: np.ndarray, p: int):
        self.pts, self.p = pts, SmallPrime(p)
        self.size = pts.shape[0]
        self._held: dict = {}

    def __getitem__(self, e: tuple) -> tuple:
        held = self._held.get(e)
        if held is None:
            held = self._held[e] = self._build(e)
        return held

    def reduced(self, e: tuple) -> np.ndarray:
        """The values of e reduced to [0, p), held reduced from then on."""
        values, hi = self[e]
        if hi >= self.p:
            values, hi = self._held[e] = mod_p(values, self.p), self.p - 1
        return values

    def _build(self, e: tuple) -> tuple:
        top = self.p - 1
        v = len(e) - 1
        while v >= 0 and not e[v]:
            v -= 1
        if v < 0:
            return np.ones(self.size, dtype=LANE_DTYPE), 1
        unit = (0,) * v + (1,) + (0,) * (len(e) - v - 1)
        if e == unit:
            return self.pts[:, v].astype(LANE_DTYPE, copy=False), top
        lower = e[:v] + (e[v] - 1,) + e[v + 1:]
        values, hi = self[lower]
        if hi * top > _LANE_MAX:
            values, hi = self.reduced(lower), top
        return values * self[unit][0], hi * top


def _term_sum(terms, monomials: _Monomials, p: int) -> np.ndarray:
    """The term loop: sum c * M_e mod p over the (e, c) pairs of terms, M_e
    read from monomials, as residues in LANE_DTYPE. Each term is a raw
    product of its coefficient and monomial in the lane, added raw into the
    sum, which starts as the first term; hi and acc_hi bound the entries of
    term and acc, and the monomial or acc is reduced mod p (by mod_p) only
    where the next product or sum could pass the lane's largest value, and
    the sum at the end only where acc_hi shows it may not be a residue yet.
    The lane holds (p - 1)^2, so a term of reduced factors always fits."""
    top, limit = p - 1, _LANE_MAX
    acc, acc_hi = None, 0
    for e, c in terms:
        c %= p
        if not c:
            continue
        values, hi = monomials[e]
        if hi * c > limit:
            values, hi = monomials.reduced(e), top
        hi *= c
        if acc is None:
            acc, acc_hi = values * c, hi
            continue
        term = values if c == 1 else values * c
        if acc_hi + hi > limit:
            acc = mod_p(acc, p)
            acc_hi = top
            if acc_hi + hi > limit:
                term = mod_p(term, p)
                hi = top
        acc += term
        acc_hi += hi
    if acc is None:
        return np.zeros(monomials.size, dtype=LANE_DTYPE)
    return acc if acc_hi < p else mod_p(acc, p)


class CompiledSystem:
    """Generators as (exponents, coefficient) pairs, evaluated by the term
    loop on explicit rows of points whose entries are residues in [0, p):
    compiled holds one entry per generator."""

    def __init__(self, polys: Sequence[Polynomial]):
        if not polys:
            raise ValueError("empty system")
        self.compiled = [tuple(f.terms.items()) for f in polys]

    def eval_block(self, pts: np.ndarray, p: int) -> np.ndarray:
        """Values of all generators on a block of points as residues in
        ROW_DTYPE: shape (ngens, npts), their monomials built once for the
        block. A generator with no terms (an identically zero partial) gets
        a zero row without running the term loop."""
        monomials = _Monomials(pts, p)
        out = np.empty((len(self.compiled), pts.shape[0]), dtype=ROW_DTYPE)
        for g, gen in enumerate(self.compiled):
            out[g] = _term_sum(gen, monomials, p) if gen else 0
        return out

    def vanishing_mask(self, pts: np.ndarray, p: int) -> np.ndarray:
        """Rows of pts on which every generator vanishes mod p, each
        generator evaluated by the term loop over a builder of its own on
        the rows still held: all of pts for the first, then the rows on
        which every earlier generator vanished, gathered after each one.
        Every caller passes at most GRID_CHUNK_POINTS rows, so the rows one
        call copies are the most ever copied at once."""
        mask = np.zeros(pts.shape[0], dtype=bool)
        idx = np.arange(pts.shape[0])
        for gen in self.compiled:
            if not idx.size:
                break
            zero = _term_sum(gen, _Monomials(pts, p), p) == 0
            pts, idx = pts[zero], idx[zero]
        mask[idx] = True
        return mask


# ---------------------------------------------------------------------------
# grid kernel: the generators on one index group as outer x inner products

GRID_CHUNK_POINTS = 1 << 16


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p for integer matrices with entries in [0, p), widened to
    int64, exact: an entry of a @ b is at most (inner length)*(p-1)^2,
    below 2^63 for any inner length below 2^48."""
    return mod_p(a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False), p)


_FLOAT32_EXACT = 1 << 24
# OpenBLAS runs a gemm of at most 65536 * GEMM_MULTITHREAD_THRESHOLD (4)
# multiply-adds on the calling thread. A chunk's product is about 2^16 * T
# of them, too small to gain from a second thread: with one, fibers-p3
# launches took 5-25% more wall and CPU time on 2 CPUs (five each way).
_BLAS_ONE_THREAD = 1 << 18


def _fits_float32(inner: int, p: int) -> bool:
    """Whether every entry of an inner-length product of residues mod p, and
    p*rint(x/p) for each, stays below 2^24, so that float32 is exact."""
    return inner * (p - 1) ** 2 + p < _FLOAT32_EXACT


def _float32_zero(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p == 0 by a float32 product x, in row blocks that each stay
    under _BLAS_ONE_THREAD, tested by x == p*rint(x/p); exact only where
    _fits_float32(a.shape[1], p) holds."""
    a = a.astype(np.float32)
    b = b.astype(np.float32, copy=False)
    x = np.empty((a.shape[0], b.shape[1]), dtype=np.float32)
    step = max(1, (_BLAS_ONE_THREAD - 1) // max(1, b.size))
    for lo in range(0, a.shape[0], step):
        np.matmul(a[lo:lo + step], b, out=x[lo:lo + step])
    pf = np.float32(p)
    q = np.divide(x, pf)
    np.rint(q, out=q)
    q *= pf
    return q == x


def _zero_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p == 0 for matrices with entries in [0, p), exact: the
    float32 product where _fits_float32 holds for the inner length, else
    _matmul_mod."""
    if _fits_float32(a.shape[1], p):
        return _float32_zero(a, b, p)
    return _matmul_mod(a, b, p) == 0


@dataclass(frozen=True)
class _GridGroup:
    """Index group k (leading 1 at k) split into p^s outer rows of `width`
    inner points. outer holds the exponents on the outer digits of every
    distinct outer monomial of the group. gens holds, per generator that does
    not vanish on the whole group, the positions in outer of its outer
    monomials M_j and its fused table F, whose row j is P_j on the inner
    digits: the generator's value at outer row o and inner point i is
    sum_j M_j(o) F[j, i] mod p. F is float32 where _fits_float32 holds for
    its row count, else in the lane."""
    k: int
    s: int
    width: int
    inner_digits: np.ndarray  # (width, m - s), in ROW_DTYPE
    outer: tuple
    gens: tuple


def _grid_group(polys: Sequence[Polynomial], n: int, k: int, p: int) -> _GridGroup:
    """Restrict every generator to group k (x_0..x_{k-1} = 0, x_k = 1) and
    split its m = n - k free digits in half, the outer half taking the odd
    digit and any more it needs to leave at most GRID_CHUNK_POINTS inner
    points. Balanced grids keep both digit grids near p^(m/2) rows and few
    outer monomials in the product over all p^m points; the widest inner grid
    puts nearly every monomial there and made the scans of the catalog's
    systems about ten times slower. Terms that merge under x_k = 1 have their
    coefficients summed before the term loop evaluates the tables, all of
    them over one monomial builder on the inner digit grid."""
    m = n - k
    s = max((m + 1) // 2,
            next(s for s in range(m + 1) if p ** (m - s) <= GRID_CHUNK_POINTS))
    width = p ** (m - s)
    inner_digits = _digit_grid(p, 0, width, m - s, ROW_DTYPE)
    inner = _Monomials(inner_digits, p)
    outer: dict = {}
    gens = []
    for f in polys:
        parts: dict = {}
        for e, c in f.terms.items():
            if c % p and not any(e[:k]):
                part = parts.setdefault(e[k + 1:k + 1 + s], {})
                part[e[k + 1 + s:]] = part.get(e[k + 1 + s:], 0) + c
        if not parts:
            continue
        table = np.stack([_term_sum(part.items(), inner, p)
                          for part in parts.values()])
        if _fits_float32(len(parts), p):
            table = table.astype(np.float32)
        cols = np.array([outer.setdefault(o, len(outer)) for o in parts])
        gens.append((cols, table))
    return _GridGroup(k, s, width, inner_digits, tuple(outer), tuple(gens))


def _grid_chunk(group: _GridGroup, p: int, r0: int, r1: int) -> np.ndarray:
    """Scan outer rows [r0, r1) of a group: the residues of every outer
    monomial of the group at these rows, from one monomial builder on their
    outer digits, then per generator the columns of its outer monomials at
    the rows that still hold a common zero, and one _zero_mod of them against
    its fused table. Returns the match mask of the chunk's points in index
    order, flat: a count reads only its number of matches, so that no
    offsets are made for it."""
    outer = _digit_grid(p, r0, r1, group.s, LANE_DTYPE)
    monomials = _Monomials(outer, p)
    values = np.array([monomials.reduced(e) for e in group.outer]).T
    mask = np.ones((r1 - r0, group.width), dtype=bool)
    for cols, table in group.gens:
        live = np.flatnonzero(mask.any(axis=1))
        if live.size == 0:
            break
        mask[live] &= _zero_mod(values[live][:, cols], table, p)
    return mask.ravel()


def _collected_rows(pieces: list, n: int, p: int, count: int) -> np.ndarray:
    """The count matched rows of pieces, each written once into one
    ROW_DTYPE array. pieces holds, per chunk with a match, its group's
    (k, s, width, inner digits), its first outer row r0 and its offsets h:
    a row has its leading 1 at k, the inner digits of h % width and the s
    base-p digits of outer row r0 + h // width, the least significant last.
    One int64 copy of a chunk's offsets is divided in place."""
    rows = np.zeros((count, n + 1), dtype=ROW_DTYPE)
    pos = 0
    for (k, s, width, inner), r0, hits in pieces:
        block = rows[pos:pos + hits.size]
        pos += hits.size
        h = hits.astype(np.int64)
        block[:, k] = 1
        block[:, k + 1 + s:] = inner[mod_p(h, width)]
        h //= width
        h += r0
        for j in range(k + s, k, -1):
            block[:, j] = mod_p(h, p)
            h //= p
    return rows


def _check_scan(plan: ScanPlan, polys: Sequence[Polynomial]) -> None:
    """Raise BudgetExceeded when P^n(F_p) exceeds DEFAULT_POINT_BUDGET, and
    ValueError for an empty system or a generator whose ring does not match
    the plan."""
    _check_budget(plan)
    if not polys:
        raise ValueError("empty system")
    if any(len(f.ring_vars) != plan.ambient_dim + 1 for f in polys):
        raise ValueError("system arity does not match the scan plan")


def _scan_pieces(plan: ScanPlan, polys: Sequence[Polynomial]):
    """Run the grid kernel over every chunk in index order and yield a piece
    per chunk: its group's (k, s, width, inner digits), its first outer row
    r0 and its match mask."""
    n, p = plan.ambient_dim, int(plan.prime)
    for k in range(n + 1):
        group = _grid_group(polys, n, k, p)
        step = max(1, GRID_CHUNK_POINTS // group.width)
        nrows = p ** group.s
        spot = (k, group.s, group.width, group.inner_digits)
        for r0 in range(0, nrows, step):
            yield spot, r0, _grid_chunk(group, p, r0, min(r0 + step, nrows))


def _batches(plan: ScanPlan, polys: Sequence[Polynomial], size: int | None):
    """The common zeros of polys as ROW_DTYPE batches in index order,
    yielded as the scan finds them. A batch decodes the pieces of
    consecutive chunks, each row written once, as soon as at least size rows
    have gathered (the last batch may be shorter, and an empty set yields
    nothing); with size None there is one batch, empty for an empty set.
    Until then a chunk's matches are held as offsets from its first point,
    in the narrowest dtype that holds the chunk."""
    n, p = plan.ambient_dim, int(plan.prime)
    pieces, count = [], 0
    for spot, r0, match in _scan_pieces(plan, polys):
        hits = np.flatnonzero(match).astype(np.min_scalar_type(match.size - 1))
        del match  # a chunk's mask is freed before the next chunk runs
        if not hits.size:
            continue
        count += hits.size
        pieces.append((spot, r0, hits))
        if size is not None and count >= size:
            yield _collected_rows(pieces, n, p, count)
            pieces, count = [], 0
    if count or size is None:
        yield _collected_rows(pieces, n, p, count)


def scan_system(plan: ScanPlan, polys: Sequence[Polynomial], *,
                collect: bool = False):
    """Scan for common zeros of a polynomial system with the grid kernel.

    Returns a ScanResult, or (ScanResult, matched_points_array) with
    collect=True, the rows in ROW_DTYPE. Chunks run in index order, so the
    rows are in index order. Raises BudgetExceeded before any work when
    P^n(F_p) exceeds DEFAULT_POINT_BUDGET.
    """
    _check_scan(plan, polys)
    if not collect:
        matched = 0
        for _, _, match in _scan_pieces(plan, polys):
            matched += int(np.count_nonzero(match))
            del match  # a chunk's mask is freed before the next chunk runs
        return ScanResult(matched)
    (rows,) = _batches(plan, polys, None)
    return ScanResult(rows.shape[0]), rows


_SCAN_BATCH = 1 << 15
_POINT_SETS: dict = {}


def point_batches(plan: ScanPlan, polys: Sequence[Polynomial]):
    """The common zeros of polys in P^n(F_p) in index order as batches of
    ROW_DTYPE rows, read through the memo without adding to it: slices
    of _SCAN_BATCH rows of the held set when point_set holds it; else those
    slices of the set of the longest held leading part of polys (a cut's
    base), each filtered by the other generators; else the batches of a
    scan, at least _SCAN_BATCH rows each (the last may be shorter), yielded
    as the scan finds them. No batch is held after it is yielded. Raises
    BudgetExceeded at the call for a set it would scan over the budget, and
    ValueError for a generator whose ring does not match the plan."""
    polys = tuple(polys)
    for j in range(len(polys), 0, -1):
        held = _POINT_SETS.get((plan, polys[:j]))
        if held is not None:
            slices = (held[lo:lo + _SCAN_BATCH]
                      for lo in range(0, len(held), _SCAN_BATCH))
            if j == len(polys):
                return slices
            rest = CompiledSystem(polys[j:])
            return (rows[rest.vanishing_mask(rows, plan.prime)] for rows in slices)
    _check_scan(plan, polys)
    return _batches(plan, polys, _SCAN_BATCH)


def point_set(plan: ScanPlan, polys: Sequence[Polynomial]) -> np.ndarray:
    """Common zeros of polys in P^n(F_p) as read-only ROW_DTYPE rows, in
    index order. The first call per (plan, generators) finds them with one
    collect=True scan and holds them; later calls return the held array
    until clear_point_sets()."""
    key = (plan, tuple(polys))
    pts = _POINT_SETS.get(key)
    if pts is None:
        _, pts = scan_system(plan, key[1], collect=True)
        pts.setflags(write=False)
        _POINT_SETS[key] = pts
    return pts


def clear_point_sets() -> None:
    _POINT_SETS.clear()

