"""The narrow lanes of the singular classification: the term loop's int16 and
int64 lanes, the mod_p remainder, bit planes in the narrowest word and the
rank mask, which evaluates and ranks each block of points once at full
width; its masks are checked against the pointwise oracles. CI runs this
file with -W error::RuntimeWarning on the numpy 1.x and 2.x legs."""
import tracemalloc

import numpy as np
import pytest

from keyvariety import invariants, projspace
from keyvariety.algebra import (PointAffineRep, Polynomial, _bit_planes,
                                jacobian_rank, matrix_rank_mod_p,
                                matrix_rank_mod_p_batch, mod_p)
from keyvariety.catalog import build_case, rank_locus_member
from keyvariety.projspace import (CompiledSystem, ScanPlan, _Monomials,
                                  _term_sum, lane_dtype, point_set)

from test_invariants import FROZEN_COUNTS

_RING = ("x0", "x1", "x2", "x3")


@pytest.mark.parametrize("p,lane", [(2, np.int16), (3, np.int16),
                                    (181, np.int16), (191, np.int64),
                                    (4099, np.int64), (2**31 - 1, np.int64)])
def test_lane_is_int16_exactly_where_a_product_of_residues_fits(p, lane):
    assert lane_dtype(p) == lane
    assert ((p - 1) ** 2 <= np.iinfo(np.int16).max) == (lane == np.int16)


@pytest.mark.parametrize("p", [181, 191])
def test_term_loop_matches_eval_mod_at_the_lane_edge(p):
    """181 is the last int16 prime and 191 the first int64 one. Random
    polynomials of degree <= 6 with coefficients far outside [0, p), and a
    sum of 30 terms (p - 1) * x_i^2 * x_j whose raw value at the all-(p-1)
    row passes 2^15 many times over, equal eval_mod on random rows, the
    all-(p-1) row and the zero row, through eval_block and through the
    term loop on rows of the narrow dtype gathered by an index."""
    rng = np.random.default_rng(p)
    polys = []
    for _ in range(6):
        terms = {}
        for _ in range(12):
            e = tuple(rng.multinomial(rng.integers(0, 7), [0.25] * 4))
            terms[e] = int(rng.integers(-10**12, 10**12))
        polys.append(Polynomial(_RING, terms))
    heavy = {}
    for i in range(4):
        for j in range(4):
            e = [0] * 4
            e[i] += 2
            e[j] += 1
            heavy[tuple(e)] = heavy.get(tuple(e), 0) + 2 * (p - 1)
    polys.append(Polynomial(_RING, heavy))
    wide = rng.integers(0, p, (50, 4), dtype=np.int64)
    wide[0], wide[1] = p - 1, 0
    want = [[f.eval_mod(row, p) for row in wide.tolist()] for f in polys]
    values = CompiledSystem(polys).eval_block(wide, p)
    assert values.tolist() == want
    narrow = wide.astype(projspace.row_dtype(p))
    assert np.array_equal(CompiledSystem(polys).eval_block(narrow, p), values)
    idx = np.array([0, 7, 1, 7, 49], dtype=np.int64)
    for f, row in zip(polys, want):
        gen = tuple(f.terms.items())
        got = _term_sum(gen, _Monomials(narrow[idx], p), p)
        assert got.dtype == lane_dtype(p)
        assert got.tolist() == [row[i] for i in idx]


_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
               np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("dtype", _INT_DTYPES)
def test_mod_p_equals_remainder_for_every_integer_dtype(dtype):
    """mod_p(x, p) equals x % p, in x's dtype, for entries across the whole
    dtype (its extremes and negative entries included) and prime moduli
    from 2 up to the largest the dtype holds (2^61 - 1 for the 64-bit
    dtypes), on arrays above and below _MOD_P_SMALL entries; x is left as
    it was."""
    from keyvariety.algebra import _MOD_P_SMALL

    info = np.iinfo(dtype)
    rng = np.random.default_rng(info.bits)
    x = rng.integers(info.min, info.max, 4000, dtype=dtype, endpoint=True)
    x[:6] = [info.min, info.min + 1, 0, 1, info.max - 1, info.max]
    if info.min < 0:
        x[6:500] = rng.integers(-300, 0, 494)
    before = x.copy()
    largest = {8: 127, 16: 32749, 32: 2**31 - 1, 64: 2**61 - 1}[info.bits]
    if info.min == 0:
        largest = {8: 251, 16: 65521, 32: 4294967291, 64: 2**61 - 1}[info.bits]
    assert x.size >= _MOD_P_SMALL > 600
    for p in [q for q in (2, 3, 5, 181, 191) if q < largest] + [largest]:
        for part in (x, x[:600]):
            got = mod_p(part, p)
            assert got.dtype == x.dtype
            assert np.array_equal(got, part % dtype(p))
            assert got.tolist() == [int(v) % p for v in part.tolist()]
    assert np.array_equal(x, before)


def test_mod_p_allocates_one_temporary():
    x = np.arange(-(1 << 15), 1 << 15, dtype=np.int64) * 7919
    tracemalloc.start()
    try:
        out = mod_p(x, 4099)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * x.nbytes
    assert np.array_equal(out, x % 4099)


_WORDS = {8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32,
          32: np.uint32, 33: np.uint64, 64: np.uint64}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("c", sorted(_WORDS))
def test_bit_planes_use_the_narrowest_word_and_rank_exactly(p, c):
    """c columns pack into planes of the narrowest unsigned word with c bits,
    whose bit j is column j (odd at p = 2, 1 and 2 at p = 3, after reducing
    entries outside [0, p)); the batch ranks of the (B, 5, c) matrices and
    of their (B, c, 5) transposes equal matrix_rank_mod_p one by one."""
    rng = np.random.default_rng(c * p)
    mats = rng.integers(-4, 9, (60, 5, c)) * (rng.random((60, 5, c)) < 0.4)
    mats[:, -1] = mats[:, 0] - 2 * mats[:, 1]
    mats[::7, 2] = 0
    vals = np.ascontiguousarray(mats.reshape(60, 5 * c).T)
    view = vals.reshape(5, c, 60).transpose(2, 0, 1)      # batch-last
    planes = _bit_planes(view.transpose(1, 2, 0), p)
    assert len(planes) == p - 1
    assert all(plane.dtype == _WORDS[c] for plane in planes)
    res = np.asarray(mats % p, dtype=np.int64)
    for k, plane in enumerate(planes, start=1):
        bits = (plane[:, None, :].astype(np.uint64)
                >> np.arange(c, dtype=np.uint64)[None, :, None]) & np.uint64(1)
        assert np.array_equal(bits, (res == k).transpose(1, 2, 0))
    want = [matrix_rank_mod_p(m.tolist(), p) for m in mats]
    assert matrix_rank_mod_p_batch(view, p).tolist() == want
    assert matrix_rank_mod_p_batch(mats.transpose(0, 2, 1), p).tolist() == want
    assert len(set(want)) > 1


@pytest.mark.parametrize("case,p", list(FROZEN_COUNTS))
def test_rank_masks_equal_pointwise_oracles(case, p):
    """On the nine frozen cases, the Jacobian mask (rank < codim) and the
    rank-locus mask (rank <= bound on a branch whose zero block vanishes)
    equal the pointwise oracles jacobian_rank and rank_locus_member at every
    row either mask marks and at a seeded sample of 200 of the other rows."""
    spec = build_case(case)
    pts = point_set(ScanPlan(spec.ambient_dim, p), spec.generators)
    assert len(pts) == FROZEN_COUNTS[(case, p)]
    locus = spec.rank_locus
    sing = invariants._jacobian_singular_mask(spec, pts, p)
    member = (invariants._rank_locus_mask(spec, locus, pts, p) if locus
              else np.zeros(len(pts), dtype=bool))
    assert 0 < sing.sum() < len(pts) or case == "g8_sigma_bar"
    rest = np.flatnonzero(~(sing | member))
    sample = np.random.default_rng(len(pts)).choice(
        rest, min(200, rest.size), replace=False)
    codim = spec.ambient_dim - spec.expected_dim
    for i in np.concatenate([np.flatnonzero(sing | member), sample]).tolist():
        pt = PointAffineRep(tuple(pts[i].tolist()))
        assert sing[i] == (jacobian_rank(spec.generators, pt, p) < codim)
        if locus is not None:
            assert member[i] == rank_locus_member(locus, pt, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_mask_counts_rank_from_every_column(p):
    """A crafted batch of 2 x 4 matrices [x0 x1 x2 x3; x4 x5 x6 x7] at t = 2:
    rows whose first two columns are zero or of rank 1 but whose full rank
    is 2 are not below t, rows of full rank 1 or 0 are."""
    ring = tuple(f"x{i}" for i in range(8))
    x = [Polynomial.variable(ring, v) for v in ring]
    matrix = (x[:4], x[4:])
    pts = np.array([
        [0, 0, 1, 0, 0, 0, 0, 1],   # prefix rank 0, full rank 2
        [1, 0, 0, 0, 1, 0, 1, 0],   # prefix rank 1, full rank 2
        [1, 0, 1, 0, 1, 0, 1, 0],   # rank 1 throughout
        [0, 0, 0, 0, 0, 0, 0, 0],   # rank 0
        [1, 0, 0, 0, 0, 1, 0, 0],   # prefix rank 2
        [0, 1, 0, 0, 0, 1, 0, 1],   # prefix rank 1, full rank 2
    ], dtype=projspace.row_dtype(p))
    low = invariants._rank_mask(matrix, pts, p, 2)
    want = [matrix_rank_mod_p([row[:4], row[4:]], p) < 2 for row in pts.tolist()]
    assert low.tolist() == want == [False, False, True, True, False, False]


def test_g8_jacobian_mask_evaluates_and_ranks_each_block_once(monkeypatch):
    """g8's 15 x 12 Jacobian at p = 3 (481 points, one block): one eval_block
    call over all 180 entries and one batch rank of the (481, 15, 12)
    matrices."""
    spec = build_case("g8_sigma_bar")
    pts = point_set(ScanPlan(spec.ambient_dim, 3), spec.generators)
    evaluated, ranked = [], []
    real_eval, real_rank = CompiledSystem.eval_block, invariants.matrix_rank_mod_p_batch
    monkeypatch.setattr(
        CompiledSystem, "eval_block",
        lambda self, block, q: evaluated.append((len(self.compiled), block.shape[0]))
        or real_eval(self, block, q))
    monkeypatch.setattr(invariants, "matrix_rank_mod_p_batch",
                        lambda mats, q: ranked.append(mats.shape) or real_rank(mats, q))
    invariants._jacobian_singular_mask(spec, pts, 3)
    assert evaluated == [(15 * 12, 481)]
    assert ranked == [(481, 15, 12)]
