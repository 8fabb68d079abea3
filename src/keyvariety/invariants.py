"""Degree, genus and dimension computations with independent oracles, and
full singular-locus scans comparing the Jacobian criterion against the
declared rank-locus descriptions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import SmallPrime, _jacobian_partials, matrix_rank_mod_p_batch
from .catalog import VarietySpec, RankLocusSpec, pinned_coordinate_change
from .projspace import (BudgetExceeded,  # noqa: F401
                        CompiledSystem, ScanPlan, lane_dtype, point_batches,
                        point_set, proj_point_count, row_dtype, scan_system)

_RANK_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# degree numerology


def ci_degree(degrees) -> int:
    """Degree of a complete intersection of the given multidegree: the
    product of the degrees."""
    degrees = list(degrees)
    if not degrees or any(int(d) < 1 for d in degrees):
        raise ValueError("need a nonempty list of degrees >= 1")
    out = 1
    for d in degrees:
        out *= int(d)
    return out


def hilbert_ci_degree(degrees, ambient_dim: int) -> int:
    """Independent degree oracle: expand prod(1 - t^d) / (1 - t)^(n+1) and
    take the dim-th finite difference of the tail, which is dim! times the
    leading Hilbert coefficient."""
    degrees = list(int(d) for d in degrees)
    n = int(ambient_dim)
    dim = n - len(degrees)
    if dim < 0:
        raise ValueError("more hypersurfaces than the ambient dimension")
    # numerator coefficients of prod (1 - t^d)
    num = {0: 1}
    for d in degrees:
        nxt: dict[int, int] = {}
        for e, c in num.items():
            nxt[e] = nxt.get(e, 0) + c
            nxt[e + d] = nxt.get(e + d, 0) - c
        num = nxt
    shift = sum(degrees)

    def series_coeff(j: int) -> int:
        # coefficient of t^j in numerator / (1-t)^(n+1)
        total = 0
        for e, c in num.items():
            if e <= j:
                total += c * math.comb(j - e + n, n)
        return total

    values = [series_coeff(shift + k) for k in range(dim + 1)]
    for _ in range(dim):
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


_PINNED_CI = (((2, 3), 13), ((2, 2, 2), 15), ((2,), 4))
for _degs, _amb in _PINNED_CI:
    assert ci_degree(_degs) == hilbert_ci_degree(_degs, _amb)


def grassmann_degree(n: int) -> int:
    """Degree of the Plucker-embedded Grassmannian of 2-planes in n-space:
    the number of standard Young tableaux of shape 2 x (n - 2), counted by
    exhaustive enumeration and cross-checked against the hook-length form.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    m = n - 2
    if m > 14:
        raise ValueError("tableau enumeration capped at n = 16")

    def count(r1: int, r2: int) -> int:
        # r1, r2: cells filled so far in each row (rows increase, columns too)
        if r1 == m and r2 == m:
            return 1
        total = 0
        if r1 < m:
            total += count(r1 + 1, r2)
        if r2 < r1:
            total += count(r1, r2 + 1)
        return total

    enumerated = count(0, 0)
    hooks = 1
    for j in range(m):
        hooks *= (m - j + 1) * (m - j)
    closed_form = math.factorial(2 * m) // hooks
    assert enumerated == closed_form, "tableau enumeration disagrees with hook lengths"
    return enumerated


# ---------------------------------------------------------------------------
# dimension estimation from point counts


@dataclass(frozen=True)
class DimensionEstimate:
    counts: dict
    per_prime: dict
    estimated_dim: int
    consistent: bool


def bracket_dimension(count: int, p: int, max_dim: int) -> int:
    """Largest d with #P^d(F_p) <= count (-1 for an empty set).

    The naive nearest-count rule misclassifies these models at p = 2: they
    contain linear subspaces of dimension close to their own, which inflate
    small-prime counts by up to a factor p. Bracketing from below is exact
    for every catalog case at p in {2, 3}.
    """
    if count <= 0:
        return -1
    d = 0
    while d < max_dim and proj_point_count(d + 1, p) <= count:
        d += 1
    return d


def count_points(spec: VarietySpec, p: int) -> int:
    return len(point_set(ScanPlan(spec.ambient_dim, SmallPrime(p)), spec.generators))


def estimate_dimension(spec: VarietySpec, primes) -> DimensionEstimate:
    """Per-prime point counts and bracket dimension estimates."""
    counts: dict[int, int] = {}
    per_prime: dict[int, int] = {}
    for p in primes:
        p = SmallPrime(p)
        counts[p] = count_points(spec, p)
        per_prime[p] = bracket_dimension(counts[p], p, spec.ambient_dim)
    estimates = set(per_prime.values())
    consistent = len(estimates) == 1
    largest = max(per_prime) if per_prime else None
    estimated = per_prime[largest] if largest is not None else -1
    return DimensionEstimate(counts, per_prime, estimated, consistent)


def two_path_count_check(spec: VarietySpec, p: int,
                         moved: tuple | None = None) -> tuple:
    """Count the variety twice: from the pinned generators and from the
    generators rewritten through the committed coordinate change (moved, the
    result of pinned_coordinate_change(spec), which does not depend on p;
    computed here when None). The counts agree iff both predicate paths see
    the same point set cardinality. The transformed path always scans: it
    never reads the point-set memo."""
    plan = ScanPlan(spec.ambient_dim, SmallPrime(p))
    direct = len(point_set(plan, spec.generators))
    if moved is None:
        moved = pinned_coordinate_change(spec)
    transformed = scan_system(plan, list(moved)).matched
    return direct, transformed


# ---------------------------------------------------------------------------
# singular-locus scans


@dataclass(frozen=True)
class SingularScanReport:
    count: int                      # the number of rational points
    singular: np.ndarray            # Jacobian-singular rows
    difference: np.ndarray | None   # rows where the two masks differ


def _rank_mask(matrix, pts: np.ndarray, p: int, t: int) -> np.ndarray:
    """Whether the F_p rank is below t at each row of pts, for a matrix of
    polynomials given as its rows. The points go one _RANK_BLOCK block at a
    time, copied column-major into the term loop's lane (lane_dtype(p)), so
    that each column the entries read is contiguous and needs no further
    copy; a block is small enough that its values and bit planes stay in
    cache. Each block is evaluated once over every entry and ranked once at
    full width: the bit-sliced rank holds a whole row of up to 64 columns in
    one word, so ranking part of the columns would cost about as much. The
    row_dtype(p) values of eval_block reach the batch rank as (B, rows,
    columns) views of their batch-last arrays, so no int64 value slab is
    made."""
    rows, cols = len(matrix), len(matrix[0])
    system = CompiledSystem([e for row in matrix for e in row])
    out = np.zeros(pts.shape[0], dtype=bool)
    for s in range(0, pts.shape[0], _RANK_BLOCK):
        block = np.asfortranarray(pts[s:s + _RANK_BLOCK], dtype=lane_dtype(p))
        vals = system.eval_block(block, p).reshape(rows, cols, -1)
        out[s:s + block.shape[0]] = (
            matrix_rank_mod_p_batch(vals.transpose(2, 0, 1), p) < t)
    return out


def _on_zero_block(spec: VarietySpec, names, pts: np.ndarray) -> np.ndarray:
    """Rows of pts (residues) on the coordinate subspace {names = 0}."""
    return (pts[:, [spec.var_index(v) for v in names]] == 0).all(axis=1)


def _jacobian_singular_mask(spec: VarietySpec, pts: np.ndarray, p: int) -> np.ndarray:
    """Rank < codimension of the Jacobian at each point."""
    return _rank_mask(_jacobian_partials(tuple(spec.generators)), pts, p,
                      spec.ambient_dim - spec.expected_dim)


def _rank_locus_mask(spec: VarietySpec, locus: RankLocusSpec,
                     pts: np.ndarray, p: int) -> np.ndarray:
    """Membership in the declared rank locus. A branch's matrix is ranked
    only on the rows where its zero block vanishes; over a field, rank <= r
    holds exactly where every (r+1)-minor vanishes."""
    member = np.zeros(pts.shape[0], dtype=bool)
    for branch in locus.branches:
        idx = np.flatnonzero(_on_zero_block(spec, branch.zero_vars, pts))
        below = _rank_mask(branch.matrix, pts[idx], p, branch.rank_bound + 1)
        member[idx[below]] = True
    return member


def singular_scan(spec: VarietySpec, p: int) -> SingularScanReport:
    """Classify every rational point of the variety as smooth or singular by
    the Jacobian criterion (rank < codimension). difference holds the rows
    where that mask and membership in the declared rank locus
    (spec.rank_locus) disagree, and is None where no rank locus is declared.
    All row arrays are in index order.

    The points are classified a batch at a time (point_batches): slices of
    the held set when an earlier check put it in the memo, else batches
    streamed from a scan as it finds them, so only the singular and the
    differing rows are kept. A streamed scan adds nothing to the memo: a
    later check that reads the same set (fibers at p = 2, sections at
    p = 3) scans it again.
    """
    p = SmallPrime(p)
    locus = spec.rank_locus
    empty = np.zeros((0, spec.ambient_dim + 1), dtype=row_dtype(p))
    count, sing_rows, diff_rows = 0, [empty], [empty]
    for pts in point_batches(ScanPlan(spec.ambient_dim, p), spec.generators):
        count += pts.shape[0]
        sing = _jacobian_singular_mask(spec, pts, p)
        sing_rows.append(pts[sing])
        if locus is not None:
            diff_rows.append(pts[sing ^ _rank_locus_mask(spec, locus, pts, p)])
    return SingularScanReport(count, np.concatenate(sing_rows),
                              None if locus is None else np.concatenate(diff_rows))
