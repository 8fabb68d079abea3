"""Exhaustive enumeration of P^n(F_p) and predicate-filtered scans.

Index bijection: points are grouped by the position k of their leading 1
(coordinates before k vanish), group k holding p^(n-k) points; inside a group
the free coordinates after position k run in base-p lexicographic order, the
coordinate right after the leading 1 being the most significant digit. This
gives O(1) index -> point and a trivially partitionable index range.

Scans are chunked; chunk results are joined in chunk-index order, so results
are independent of the worker count. Every scan is held to a point budget.
Point sets of the catalog's varieties go through a memo (point_set), so each
(generators, prime) pair is scanned once until clear_point_sets().
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .algebra import PointAffineRep, Polynomial, SmallPrime

DEFAULT_SAMPLE_CAP = 1024
DEFAULT_CHUNK_SIZE = 1 << 18
DEFAULT_POINT_BUDGET = 100_000_000


class BudgetExceeded(RuntimeError):
    pass


def default_threads() -> int:
    env = os.environ.get("KEYVARIETY_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def proj_point_count(n: int, p: int) -> int:
    """#P^n(F_p) = (p^(n+1) - 1)/(p - 1), exact."""
    if n < 0:
        raise ValueError("ambient dimension must be >= 0")
    return (p ** (n + 1) - 1) // (p - 1)


@dataclass(frozen=True)
class ScanPlan:
    ambient_dim: int
    prime: SmallPrime
    chunk_count: int = 0  # 0: pick from DEFAULT_CHUNK_SIZE

    def __post_init__(self):
        object.__setattr__(self, "prime", SmallPrime(self.prime))
        if self.ambient_dim < 0:
            raise ValueError("ambient_dim must be >= 0")
        if self.chunk_count < 0:
            raise ValueError("chunk_count must be >= 0")

    @property
    def total(self) -> int:
        return proj_point_count(self.ambient_dim, self.prime)

    def chunk_ranges(self) -> list[tuple[int, int]]:
        total = self.total
        chunks = self.chunk_count
        if chunks == 0:
            chunks = max(1, (total + DEFAULT_CHUNK_SIZE - 1) // DEFAULT_CHUNK_SIZE)
        chunks = min(chunks, total)
        bounds = [(total * k) // chunks for k in range(chunks + 1)]
        return [(bounds[k], bounds[k + 1]) for k in range(chunks)]


@dataclass(frozen=True)
class ScanResult:
    total_examined: int
    matched: int
    sample: tuple = ()


def _check_budget(plan: ScanPlan, budget: int) -> None:
    if plan.total > budget:
        raise BudgetExceeded(f"P^{plan.ambient_dim}(F_{plan.prime}) has "
                             f"{plan.total} points, budget {budget}")


def index_to_point(plan: ScanPlan, index: int) -> tuple:
    n, p = plan.ambient_dim, plan.prime
    if not 0 <= index < plan.total:
        raise IndexError(index)
    gstart = 0
    for k in range(n + 1):
        gsize = p ** (n - k)
        if index < gstart + gsize:
            off = index - gstart
            coords = [0] * (n + 1)
            coords[k] = 1
            m = n - k
            for j in range(m):
                coords[k + 1 + j] = (off // p ** (m - 1 - j)) % p
            return tuple(coords)
        gstart += gsize
    raise AssertionError("unreachable")


def point_to_index(plan: ScanPlan, coords: Sequence[int]) -> int:
    n, p = plan.ambient_dim, plan.prime
    k = next(i for i, c in enumerate(coords) if c)
    if coords[k] != 1:
        raise ValueError("representative not normalized")
    gstart = sum(p ** (n - i) for i in range(k))
    off = 0
    for c in coords[k + 1:]:
        off = off * p + int(c)
    return gstart + off


def points_block(n: int, p: int, start: int, stop: int) -> np.ndarray:
    """Normalized representatives with indices [start, stop), one per row."""
    out = np.zeros((stop - start, n + 1), dtype=np.int64)
    pos = 0
    gstart = 0
    for k in range(n + 1):
        gsize = p ** (n - k)
        gend = gstart + gsize
        lo, hi = max(start, gstart), min(stop, gend)
        if lo < hi:
            off = np.arange(lo - gstart, hi - gstart, dtype=np.int64)
            rows = slice(pos, pos + hi - lo)
            out[rows, k] = 1
            m = n - k
            for j in range(m):
                out[rows, k + 1 + j] = (off // p ** (m - 1 - j)) % p
            pos += hi - lo
        gstart = gend
    return out


def enumerate_points(plan: ScanPlan) -> Iterator[PointAffineRep]:
    """Every normalized point exactly once, in documented index order."""
    for start, stop in plan.chunk_ranges():
        block = points_block(plan.ambient_dim, plan.prime, start, stop)
        for row in block.tolist():
            yield PointAffineRep(tuple(row))


# ---------------------------------------------------------------------------
# fast path: vectorized evaluation of polynomial systems


class CompiledSystem:
    """Generators compiled to coefficient/exponent arrays for block evaluation."""

    def __init__(self, polys: Sequence[Polynomial]):
        if not polys:
            raise ValueError("empty system")
        nv = len(polys[0].ring_vars)
        self.nvars = nv
        self.polys = tuple(polys)
        self.compiled = []
        for f in polys:
            coeffs = np.array(list(f.terms.values()), dtype=np.int64)
            expos = np.array([list(e) for e in f.terms], dtype=np.int64).reshape(len(f.terms), nv)
            self.compiled.append((coeffs, expos))

    def eval_block(self, pts: np.ndarray, p: int) -> np.ndarray:
        """Values of all generators on a block of points: shape (ngens, npts)."""
        out = np.empty((len(self.compiled), pts.shape[0]), dtype=np.int64)
        for g, (coeffs, expos) in enumerate(self.compiled):
            acc = np.zeros(pts.shape[0], dtype=np.int64)
            for t in range(coeffs.shape[0]):
                term = np.full(pts.shape[0], int(coeffs[t]) % p, dtype=np.int64)
                for v in range(self.nvars):
                    e = int(expos[t, v])
                    for _ in range(e):
                        term = (term * pts[:, v]) % p
                acc = (acc + term) % p
            out[g] = acc
        return out

    def vanishing_mask(self, pts: np.ndarray, p: int) -> np.ndarray:
        mask = np.ones(pts.shape[0], dtype=bool)
        for g, (coeffs, expos) in enumerate(self.compiled):
            if not mask.any():
                break
            sub = pts[mask]
            acc = np.zeros(sub.shape[0], dtype=np.int64)
            for t in range(coeffs.shape[0]):
                term = np.full(sub.shape[0], int(coeffs[t]) % p, dtype=np.int64)
                for v in range(self.nvars):
                    e = int(expos[t, v])
                    for _ in range(e):
                        term = (term * sub[:, v]) % p
                acc = (acc + term) % p
            keep = acc == 0
            idx = np.nonzero(mask)[0]
            mask[idx[~keep]] = False
        return mask


def scan_system(plan: ScanPlan, polys: Sequence[Polynomial],
                threads: int | None = None, sample_cap: int = DEFAULT_SAMPLE_CAP,
                collect: bool = False):
    """Scan for common zeros of a polynomial system.

    Returns a ScanResult, or (ScanResult, matched_points_array) with collect=True.
    Deterministic: chunk results are folded in index order. Raises
    BudgetExceeded before any work when P^n(F_p) exceeds DEFAULT_POINT_BUDGET.
    """
    _check_budget(plan, DEFAULT_POINT_BUDGET)
    system = CompiledSystem(polys)
    if system.nvars != plan.ambient_dim + 1:
        raise ValueError("system arity does not match the scan plan")
    p = plan.prime
    ranges = plan.chunk_ranges()

    def work(rng: tuple[int, int]):
        start, stop = rng
        block = points_block(plan.ambient_dim, p, start, stop)
        mask = system.vanishing_mask(block, p)
        hits = block[mask]
        return stop - start, hits if collect else hits[:sample_cap], int(mask.sum())

    results = _run_chunks(work, ranges, threads)
    total = 0
    matched = 0
    pieces = []
    for examined, hits, nmatch in results:
        total += examined
        matched += nmatch
        pieces.append(hits)
    sample_rows = []
    for piece in pieces:
        if len(sample_rows) >= sample_cap:
            break
        for row in piece[: sample_cap - len(sample_rows)].tolist():
            sample_rows.append(PointAffineRep(tuple(row)))
    result = ScanResult(total, matched, tuple(sample_rows))
    if collect:
        stacked = (np.concatenate(pieces, axis=0) if pieces
                   else np.zeros((0, plan.ambient_dim + 1), dtype=np.int64))
        return result, stacked
    return result


_POINT_SETS: dict = {}


def point_set(plan: ScanPlan, polys: Sequence[Polynomial],
              threads: int | None = None) -> np.ndarray:
    """Common zeros of polys in P^n(F_p) as read-only int64 rows, in index
    order. The first call per (plan, generators) scans with collect=True;
    later calls return the held array until clear_point_sets(). The thread
    count is not part of the key: scan results do not depend on it."""
    key = (plan, tuple(polys))
    pts = _POINT_SETS.get(key)
    if pts is None:
        _, pts = scan_system(plan, polys, threads=threads, collect=True)
        pts.setflags(write=False)
        _POINT_SETS[key] = pts
    return pts


def clear_point_sets() -> None:
    _POINT_SETS.clear()


def _run_chunks(work, ranges, threads):
    nthreads = threads if threads else default_threads()
    if nthreads <= 1 or len(ranges) <= 1:
        return [work(r) for r in ranges]
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        return list(pool.map(work, ranges))
