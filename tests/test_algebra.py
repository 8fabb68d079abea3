import pytest

from hypothesis import given, settings, strategies as st

from keyvariety.algebra import (OffVarietyError, ParseError, PointAffineRep,
                                Polynomial, SmallPrime,
                                fraction_matrix_rank, jacobian_rank,
                                matrix_rank_mod_p, matrix_rank_mod_p_batch,
                                nullspace_mod_p, parse_poly)

import numpy as np


def test_small_prime_accepts_scan_primes():
    for p in (2, 3, 5, 7, 11, 13):
        assert SmallPrime(p) == p


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 2**31 + 1, -7])
def test_small_prime_rejects(bad):
    with pytest.raises(ValueError):
        SmallPrime(bad)


def test_parse_bilinear_form():
    ring = ("x1", "x2", "x3", "y1", "y2", "y3")
    f = parse_poly("x1*y1 + x2*y2 + x3*y3", ring)
    assert len(f.terms) == 3
    assert f.is_homogeneous() and f.total_degree() == 2


def test_parse_zero():
    f = parse_poly("0", ("x",))
    assert f.is_zero()
    assert str(f) == "0"


def test_parse_plucker_three_term():
    ring = ("x23", "x25", "x34", "x35", "x45")
    f = parse_poly("x23*x45 - x35^2 + x25*x34", ring)
    assert len(f.terms) == 3
    assert f.terms[(0, 0, 0, 2, 0)] == -1


def test_parse_round_trip():
    ring = ("a", "b2", "c")
    for text in ("a^3 - 2*b2*c + 7", "a*b2*c", "-a + b2", "5"):
        f = parse_poly(text, ring)
        assert parse_poly(str(f), ring) == f


@pytest.mark.parametrize("text, message", [
    pytest.param("x + w", "unknown variable 'w'", id="unknown-variable"),
    pytest.param("x ++ y", "unexpected token '+'", id="double-plus"),
    pytest.param("--x", "unexpected token '-'", id="double-minus"),
    pytest.param("", "empty expression", id="empty"),
    pytest.param("x^", "exponent must be a nonnegative integer", id="bare-caret"),
    pytest.param("x^y", "exponent must be a nonnegative integer", id="variable-exponent"),
    pytest.param("x y", "expected + or -, got 'y'", id="missing-operator"),
    pytest.param("x*", "unexpected end of expression", id="trailing-star"),
    pytest.param("+", "unexpected end of expression", id="bare-sign"),
    pytest.param("x$", "bad character '$' at position 1", id="bad-character"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, ("x", "y"))
    assert str(exc.value) == message


_RING = ("x", "y", "z1")
_SPACES = st.sampled_from(["", " ", "  "])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_poly_matches_built_polynomial(data):
    """A rendered term list parses to the polynomial that variable, * and +
    build from the same terms."""
    terms = data.draw(st.lists(st.tuples(
        st.integers(-30, 30),
        st.lists(st.tuples(st.sampled_from(_RING), st.integers(0, 3)), max_size=4)),
        min_size=1, max_size=5))
    expected = Polynomial.zero(_RING)
    tokens = []
    for k, (c, factors) in enumerate(terms):
        term = Polynomial.constant(_RING, c)
        words = []
        for v, e in factors:
            for _ in range(e):
                term = term * Polynomial.variable(_RING, v)
            words.append([v] if e == 1 and data.draw(st.booleans()) else [v, "^", str(e)])
        expected = expected + term
        if abs(c) != 1 or not words or data.draw(st.booleans()):
            words.append([str(abs(c))])
        if c < 0:
            tokens.append(data.draw(st.sampled_from(["-", "\u2212"])))
        elif k or data.draw(st.booleans()):
            tokens.append("+")
        for j, word in enumerate(data.draw(st.permutations(words))):
            tokens += ["*"] * bool(j) + word
    text = "".join(data.draw(_SPACES) + t for t in tokens)
    assert parse_poly(text, _RING) == expected


def test_eval_examples():
    f = parse_poly("x^2 + y", ("x", "y"))
    assert f.eval_mod((1, 2), 5) == 3
    # at the all-ones point mod 2 a polynomial counts its odd coefficients
    g = parse_poly("3*x*y + 2*x + y + 4", ("x", "y"))
    odd = sum(1 for c in g.terms.values() if c % 2)
    assert g.eval_mod((1, 1), 2) == odd % 2


def test_eval_plucker_point():
    ring = ("p12", "p13", "p14", "p23", "p24", "p34")
    f = parse_poly("p12*p34 - p13*p24 + p14*p23", ring)
    pt = PointAffineRep((1, 0, 0, 0, 0, 1))
    assert f.eval_mod(pt.coords, 3) == 1


def test_eval_arity_mismatch():
    f = parse_poly("x", ("x", "y"))
    with pytest.raises(ValueError):
        f.eval_mod((1,), 3)


def _dense_eval_mod(f, coords, p):
    """Oracle: walks every exponent slot of every term, with one pow(x, k, p)
    per factor and a reduction after each product."""
    if len(coords) != len(f.ring_vars):
        raise ValueError("arity")
    total = 0
    for e, c in f.terms.items():
        t = c % p
        for x, k in zip(coords, e):
            if k:
                t = (t * pow(int(x), k, p)) % p
        total += t
    return total % p


_RING4 = ("a", "b", "c", "d")
# a term of degree <= 6 is a multiset of at most six variable indices
_MONO6 = st.lists(st.integers(0, len(_RING4) - 1), max_size=6).map(
    lambda idx: tuple(idx.count(i) for i in range(len(_RING4))))
_COORD = st.one_of(
    st.integers(-10**15, 10**15),
    st.integers(2**62 - 10**6, 2**62).map(np.int64),
    st.integers(-2**62, -2**62 + 10**6).map(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_MONO6, st.integers(-10**12, 10**12), max_size=6),
       st.tuples(*[_COORD for _ in _RING4]),
       st.sampled_from([2, 3, 65537, 2**31 - 1]))
def test_eval_mod_matches_dense_oracle(terms, pt, p):
    f = Polynomial(_RING4, terms)
    want = _dense_eval_mod(f, pt, p)
    assert f.eval_mod(pt, p) == want
    assert f.eval_mod(pt, p) == want  # from the cached term list
    assert type(f.eval_mod(pt, p)) is int and 0 <= want < p


def test_eval_mod_zero_and_constants():
    for p in (2, 3, 65537, 2**31 - 1):
        pt = (-5, p, p + 1, np.int64(2**62))
        assert Polynomial.zero(_RING4).eval_mod(pt, p) == 0
        for c in (1, -7, 10**12, -10**12):
            assert Polynomial.constant(_RING4, c).eval_mod(pt, p) == c % p


def test_eval_mod_checks_length_first():
    for f in (Polynomial.zero(("x", "y")), parse_poly("x*y + 1", ("x", "y"))):
        assert f.eval_mod((1, 2), 5) == _dense_eval_mod(f, (1, 2), 5)
        with pytest.raises(ValueError, match="point has 1 coordinates"):
            f.eval_mod((1,), 5)
        with pytest.raises(ValueError, match="point has 3 coordinates"):
            f.eval_mod((1, 2, 3), 5)


def test_eval_cache_leaves_equality_and_hash():
    ring = ("x", "y")
    f = parse_poly("x^2*y - 3*y + 1", ring)
    g = parse_poly("1 - 3*y + x^2*y", ring)
    h_before = hash(f)
    f.eval_mod((2, 3), 7)
    assert f == g and g == f
    assert hash(f) == hash(g) == h_before
    assert len({f, g}) == 1
    assert f != parse_poly("x^2*y - 3*y", ring)


def test_partial_examples():
    f = parse_poly("x^2*y", ("x", "y"))
    assert str(f.partial(0)) == "2*x*y"
    assert parse_poly("x^2", ("x", "y")).partial(1).is_zero()


def test_partial_of_plucker_quadric():
    ring = ("x23", "x25", "x34", "x35", "x45")
    f = parse_poly("x23*x45 - x35^2 + x25*x34", ring)
    assert f.partial(0) == parse_poly("x45", ring)
    assert f.partial(3) == parse_poly("-2*x35", ring)


_SMALL = st.integers(min_value=-4, max_value=4)


def _poly_strategy(ring):
    mono = st.tuples(*[st.integers(0, 2) for _ in ring])
    return st.dictionaries(mono, _SMALL, max_size=4).map(
        lambda terms: Polynomial(ring, terms))


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(("x", "y", "z")), _poly_strategy(("x", "y", "z")),
       st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
       st.sampled_from([2, 3, 5, 7]))
def test_eval_is_ring_homomorphism(f, g, pt, p):
    assert (f + g).eval_mod(pt, p) == (f.eval_mod(pt, p) + g.eval_mod(pt, p)) % p
    assert (f * g).eval_mod(pt, p) == (f.eval_mod(pt, p) * g.eval_mod(pt, p)) % p


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(("x", "y")), _poly_strategy(("x", "y")),
       st.integers(0, 1))
def test_partial_satisfies_leibniz(f, g, i):
    prod = f * g
    assert prod.partial(i) == f.partial(i) * g + f * g.partial(i)


def test_matrix_rank_examples():
    assert matrix_rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5) == 3
    assert matrix_rank_mod_p([[0] * 5] * 4, 3) == 0
    assert matrix_rank_mod_p([[2, 4], [1, 2]], 5) == 1
    assert matrix_rank_mod_p([[2, 4], [1, 2]], 3) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_SMALL, min_size=4, max_size=4), min_size=2, max_size=5),
       st.sampled_from([2, 3, 5]))
def test_rank_equals_transpose_rank(rows, p):
    cols = [[rows[i][j] for i in range(len(rows))] for j in range(4)]
    assert matrix_rank_mod_p(rows, p) == matrix_rank_mod_p(cols, p)


_MATRICES = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(st.lists(_SMALL, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(_MATRICES, st.sampled_from([2, 3, 5, 7]))
def test_nullspace_is_an_independent_kernel_basis(rows, p):
    ncols = len(rows[0])
    basis = nullspace_mod_p(rows, p)
    for v in basis:
        assert len(v) == ncols and all(0 <= x < p for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)
    assert len(basis) == ncols - matrix_rank_mod_p(rows, p)
    if basis:
        assert matrix_rank_mod_p(basis, p) == len(basis)


@settings(max_examples=60, deadline=None)
@given(_MATRICES, st.sampled_from([2, 3, 5, 7]))
def test_rank_over_q_bounds_rank_mod_p(rows, p):
    assert fraction_matrix_rank(rows) >= matrix_rank_mod_p(rows, p)


def test_fraction_matrix_rank_examples():
    assert fraction_matrix_rank([[2, 4], [1, 2]]) == 1
    assert fraction_matrix_rank([[3, 0], [0, 3]]) == 2   # rank 0 mod 3
    assert fraction_matrix_rank([[0, 0, 0]]) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 5]))
def test_batch_rank_matches_single(seed, p):
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, p, size=(20, 3, 6))
    batch = matrix_rank_mod_p_batch(mats, p)
    for k in range(mats.shape[0]):
        assert batch[k] == matrix_rank_mod_p(mats[k].tolist(), p)


_BATCH_SHAPES = st.sampled_from([(1, 1), (1, 6), (6, 1), (4, 2), (5, 3),
                                  (15, 12), (3, 16), (4, 4)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), _BATCH_SHAPES, st.sampled_from([2, 3, 5, 7]))
def test_batch_rank_matches_single_any_shape(seed, shape, p):
    rng = np.random.default_rng(seed)
    # sparse entries so that rank-deficient matrices are common
    mats = rng.integers(0, p, size=(12,) + shape) * (rng.random((12,) + shape) < 0.4)
    batch = matrix_rank_mod_p_batch(mats, p)
    for k in range(mats.shape[0]):
        assert batch[k] == matrix_rank_mod_p(mats[k].tolist(), p)


@pytest.mark.parametrize("shape", [(3, 16), (15, 12)])
def test_batch_rank_at_largest_prime(shape):
    import tracemalloc

    p = 2**31 - 1
    assert SmallPrime(p) == p
    rng = np.random.default_rng(7)
    mats = rng.integers(0, p, size=(8,) + shape)
    # make row 1 a multiple of row 0 and row 2 a combination of rows 0 and 1
    mats[:, 1] = mats[:, 0] * 12345 % p
    mats[:, 2] = (mats[:, 0] * (p - 3) + mats[:, 1] * 99991) % p
    mats[1] = 0
    tracemalloc.start()
    try:
        batch = matrix_rank_mod_p_batch(mats, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an inverse table of size p would need 16 GiB
    assert peak < 1 << 20
    expected = [matrix_rank_mod_p(m.tolist(), p) for m in mats]
    assert batch.tolist() == expected
    assert expected[1] == 0 and expected[0] == min(shape[0] - 2, shape[1])


# (4, 65) is one column past the bit planes and takes the int64 path
_BITSLICE_SHAPES = st.sampled_from([(1, 1), (2, 14), (6, 14), (15, 12), (3, 16),
                                    (4, 64), (4, 65)])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), _BITSLICE_SHAPES, st.sampled_from([2, 3]),
       st.sampled_from([0, 1, 12]),
       st.sampled_from([(0, 3), (-9, 10), (-2**62, 2**62)]),
       st.booleans())
def test_batch_rank_bit_planes_match_single(seed, shape, p, batch, entries,
                                            batch_last):
    rng = np.random.default_rng(seed)
    r, c = shape
    # sparse entries, and the last row a combination of the first two, so
    # that rank-deficient matrices are common
    mats = rng.integers(*entries, size=(batch, r, c)) * (rng.random((batch, r, c)) < 0.5)
    if r >= 3:
        mats[:, -1] = mats[:, 0] * rng.integers(-3, 4) + mats[:, 1] * rng.integers(-3, 4)
    if batch_last:
        # the Jacobian's layout: a transposed view of (r * c, B) values
        vals = np.ascontiguousarray(mats.reshape(batch, r * c).T)
        mats = vals.reshape(r, c, batch).transpose(2, 0, 1)
        assert mats.strides[0] == mats.itemsize
    out = matrix_rank_mod_p_batch(mats, p)
    assert out.dtype == np.int64 and out.shape == (batch,)
    assert out.tolist() == [matrix_rank_mod_p(m.tolist(), p) for m in mats]


def _narrow_batch_last(seed, p, shape, batch, dtype):
    """Random (batch, r, c) residue matrices of varied density, the last row
    a combination of the first two and a random set of rows zeroed, each
    entry then lifted by a random multiple of p up to the dtype's maximum:
    the lifted int64 matrices and the (B, r, c) view of their batch-last copy
    in dtype, the layout eval_block hands the rank in _rank_mask."""
    rng = np.random.default_rng(seed)
    r, c = shape
    top = int(np.iinfo(dtype).max)
    mats = rng.integers(0, p, size=(batch, r, c))
    mats *= rng.random((batch, r, c)) < rng.random((batch, 1, 1))
    mats[:, -1] = (mats[:, 0] * rng.integers(0, p) + mats[:, 1] * rng.integers(0, p)) % p
    mats *= rng.random((batch, r, 1)) < 0.8
    mats += p * rng.integers(0, (top - mats) // p + 1)
    vals = np.ascontiguousarray(mats.reshape(batch, r * c).T).astype(dtype)
    view = vals.reshape(r, c, batch).transpose(2, 0, 1)
    assert view.strides[0] == view.itemsize and np.array_equal(view, mats)
    assert view.max() >= p
    return mats, view


# at least 9 columns: a bit shifted past 7 is lost in a uint8 plane, which a
# narrow column & a uint64 scalar stays under numpy 1.x
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("shape", [(3, 9), (7, 12), (14, 6), (4, 64)])
def test_batch_rank_bit_planes_read_narrow_views(p, dtype, shape):
    mats, view = _narrow_batch_last(shape[1], p, shape, 40, dtype)
    out = matrix_rank_mod_p_batch(view, p)
    assert out.dtype == np.int64
    assert np.array_equal(out, matrix_rank_mod_p_batch(mats, p))
    assert out.tolist() == [matrix_rank_mod_p(m.tolist(), p) for m in mats]
    assert len(set(out.tolist())) > 1


@pytest.mark.parametrize("p,dtype", [(5, np.uint8), (257, np.uint16)])
def test_batch_rank_fermat_path_reads_narrow_views(p, dtype):
    mats, view = _narrow_batch_last(0, p, (4, 9), 40, dtype)
    out = matrix_rank_mod_p_batch(view, p)
    assert out.dtype == np.int64
    assert np.array_equal(out, matrix_rank_mod_p_batch(mats, p))
    assert out.tolist() == [matrix_rank_mod_p(m.tolist(), p) for m in mats]


def test_batch_rank_takes_bit_planes_only_at_p2_p3_up_to_64(monkeypatch):
    from keyvariety import algebra

    def boom(*args):
        raise AssertionError("bit planes")

    monkeypatch.setattr(algebra, "_rank_bitsliced", boom)
    eye = np.eye(4, 65, dtype=np.int64)[None]
    assert matrix_rank_mod_p_batch(eye, 3).tolist() == [4]
    assert matrix_rank_mod_p_batch(eye[:, :, :14], 5).tolist() == [4]
    assert matrix_rank_mod_p_batch(eye[:, :0], 2).tolist() == [0]
    for p in (2, 3):
        with pytest.raises(AssertionError, match="bit planes"):
            matrix_rank_mod_p_batch(eye[:, :, :64].transpose(0, 2, 1), p)


def test_jacobian_rank_single_form():
    ring = ("y1", "y2", "y3", "x1", "x2", "x3")
    f = parse_poly("y1*x1 + y2*x2 + y3*x3", ring)
    pt = PointAffineRep((1, 0, 0, 0, 0, 0))
    assert jacobian_rank([f], pt, 5) == 1


def _g5_system():
    ring = tuple(["x1", "x2", "x3", "x4"]
                 + [f"y{i}{j}" for i in range(1, 4) for j in range(1, 5)])
    return [parse_poly(" + ".join(f"y{i}{j}*x{j}" for j in range(1, 5)), ring)
            for i in range(1, 4)], ring


def test_jacobian_rank_matrix_point():
    fs, ring = _g5_system()
    # x = 0, matrix of rank 2
    coords = [0, 0, 0, 0] + [1, 0, 0, 0] + [0, 1, 0, 0] + [0, 0, 0, 0]
    assert jacobian_rank(fs, PointAffineRep(tuple(coords)), 3) == 2
    coords = [0, 0, 0, 0] + [1, 0, 0, 0] + [0, 1, 0, 0] + [0, 0, 1, 0]
    assert jacobian_rank(fs, PointAffineRep(tuple(coords)), 3) == 3


def test_jacobian_rank_requires_vanishing():
    fs, ring = _g5_system()
    coords = [1, 0, 0, 0] + [1] + [0] * 11
    with pytest.raises(OffVarietyError):
        jacobian_rank(fs, PointAffineRep(tuple(coords)), 3)


def test_jacobian_rank_rescaling_invariance():
    fs, ring = _g5_system()
    base = [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    p = 5
    r0 = jacobian_rank(fs, PointAffineRep.normalize(base, p), p)
    for scale in (2, 3, 4):
        scaled = [(scale * c) % p for c in base]
        assert jacobian_rank(fs, PointAffineRep.normalize(scaled, p), p) == r0


def test_jacobian_rank_builds_partials_once_per_generators(monkeypatch):
    fs, ring = _g5_system()
    coords = [0, 0, 0, 0] + [1, 0, 0, 0] + [0, 1, 0, 0] + [0, 0, 0, 0]
    pt = PointAffineRep(tuple(coords))
    assert jacobian_rank(fs, pt, 3) == 2

    def boom(self, var_index):
        raise AssertionError("partials built again")

    monkeypatch.setattr(Polynomial, "partial", boom)
    assert jacobian_rank(list(fs), pt, 3) == 2
    assert jacobian_rank(tuple(fs), pt, 2) == 2


def test_point_normalization_and_serialization():
    pt = PointAffineRep.normalize((0, 2, 1), 3)
    assert pt.coords == (0, 1, 2)
    assert pt.serialize() == "0:1:2"
    assert PointAffineRep.parse("0:1:2") == pt
    with pytest.raises(ValueError):
        PointAffineRep((0, 2, 1))  # not normalized
    with pytest.raises(ValueError):
        PointAffineRep.normalize((0, 0), 3)
