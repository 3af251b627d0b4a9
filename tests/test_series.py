import json
import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from refltower.jacobi import JacobiForm, eta_power, quasi_pullback
from refltower.series import (
    FourierSeries,
    TruncationWindow,
    _decode,
    _encode,
    _coord,
    _frame,
    _packed_reduce,
    _peel_divide,
    _qz_decode,
    _qz_mul,
    _restride,
    _slice_mul_py,
)

from helpers import (add, coefficient, copy, derivative_z, lowest_term, neg, scale_variables,
                     scaled, shifted, sub)
import oracles
from oracles import exp_s


def rand_series(rng, r, den_z, wq, ws, nterms, fractions=False):
    f = FourierSeries(r, den_z, TruncationWindow(wq, ws))
    for _ in range(nterms):
        q = rng.randrange(0, wq + 1)
        s = rng.randrange(0, ws + 1)
        z = tuple(rng.randrange(-4, 5) for _ in range(r))
        c = rng.randrange(-9, 10)
        if fractions and rng.random() < 0.3:
            c = Fraction(c, rng.randrange(1, 5))
        f.add_term(q, z, s, c)
    return f


def naive_mul(a, b):
    w = TruncationWindow(
        min(a.window.q_max + b.q_valuation(), b.window.q_max + a.q_valuation()),
        min(a.window.s_max + b.s_valuation(), b.window.s_max + a.s_valuation()),
    )
    out = FourierSeries(a.r, a.den_z, w)
    for qa, za, sa, ca in a.terms():
        for qb, zb, sb, cb in b.terms():
            z = tuple(x + y for x, y in zip(za, zb))
            out.add_term(qa + qb, z, sa + sb, ca * cb)
    return out


def test_add_sub_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_series(rng, 2, 2, 30, 4, 25)
        b = rand_series(rng, 2, 2, 30, 4, 25)
        c = sub(add(a, b), b)
        assert c.first_difference(a) is None


def test_mul_matches_naive():
    rng = random.Random(11)
    for _ in range(15):
        a = rand_series(rng, 2, 2, 20, 2, 20)
        b = rand_series(rng, 2, 2, 20, 2, 20)
        got = a.mul(b)
        want = naive_mul(a, b)
        assert got.first_difference(want) is None


def test_mul_commutes_and_associates():
    rng = random.Random(13)
    for _ in range(10):
        a = rand_series(rng, 1, 2, 16, 2, 10)
        b = rand_series(rng, 1, 2, 16, 2, 10)
        c = rand_series(rng, 1, 2, 16, 2, 10)
        assert a.mul(b).first_difference(b.mul(a)) is None
        lhs = a.mul(b).mul(c)
        rhs = a.mul(b.mul(c))
        assert lhs.first_difference(rhs) is None


def test_mul_distributes():
    rng = random.Random(17)
    for _ in range(10):
        a = rand_series(rng, 2, 2, 16, 2, 12)
        b = rand_series(rng, 2, 2, 16, 2, 12)
        c = rand_series(rng, 2, 2, 16, 2, 12)
        lhs = a.mul(add(b, c))
        rhs = add(a.mul(b), a.mul(c))
        assert lhs.first_difference(rhs) is None


def test_numpy_kernel_agrees_with_python():
    rng = random.Random(19)
    A = {}
    B = {}
    for _ in range(200):
        A[tuple(rng.randrange(-6, 7) for _ in range(3))] = rng.randrange(-50, 51) or 1
        B[tuple(rng.randrange(-6, 7) for _ in range(3))] = rng.randrange(-50, 51) or 1
    a = FourierSeries(3, 2, TruncationWindow(0, 0))
    b = FourierSeries(3, 2, TruncationWindow(0, 0))
    a.cells[(0, 0)] = dict(A)
    b.cells[(0, 0)] = dict(B)
    got = a.mul(b)  # large enough to hit the packed path
    want = {}
    _slice_mul_py(want, A, B)
    assert got.cells.get((0, 0), {}) == want


def test_division_roundtrip_integer():
    rng = random.Random(23)
    for _ in range(10):
        b = FourierSeries(2, 2, TruncationWindow(24, 4))
        b.add_term(2, (1, 0), 0, 1)  # unit pivot at the corner
        for _ in range(8):
            b.add_term(rng.randrange(2, 12), (rng.randrange(-3, 2), rng.randrange(-3, 4)),
                       rng.randrange(0, 3), rng.randrange(-5, 6))
        a = rand_series(rng, 2, 2, 20, 3, 15)
        prod = a.mul(b)
        back = prod.div(b)
        assert back.first_difference(a) is None


def test_division_roundtrip_fraction():
    rng = random.Random(29)
    b = FourierSeries(1, 2, TruncationWindow(20, 2))
    b.add_term(0, (2,), 0, -1)
    b.add_term(3, (0,), 0, Fraction(1, 2))
    b.add_term(5, (-1,), 1, 3)
    a = rand_series(rng, 1, 2, 14, 1, 12, fractions=True)
    prod = a.mul(b)
    back = prod.div(b)
    assert back.first_difference(a) is None


def test_division_detects_remainder():
    a = FourierSeries.monomial(1, 0, (0,), 0, 2, TruncationWindow(10, 0))
    b = FourierSeries(1, 2, TruncationWindow(10, 0))
    b.add_term(0, (1,), 0, 1)
    b.add_term(0, (-1,), 0, -1)
    try:
        a.div(b)
    except ArithmeticError:
        pass
    else:
        assert False, "expected a remainder error"


def test_peel_and_binomial_division_agree():
    rng = random.Random(31)
    binom = {(1, -1): 1, (-1, 1): -1}
    for _ in range(12):
        Q = {}
        for _ in range(10):
            Q[tuple(rng.randrange(-4, 5) for _ in range(2))] = rng.randrange(-7, 8)
        Q = {z: c for z, c in Q.items() if c}
        if not Q:
            continue
        R = {}
        _slice_mul_py(R, Q, binom)
        assert _peel_divide(dict(R), binom, 2) == Q


@pytest.mark.parametrize("kind", ["wrapping int64", "big ints", "fractions"])
def test_packed_reduce_equals_reduceat(kind):
    """Group sums as differences of one running sum equal ``np.add.reduceat``
    on seeded keys in many small groups, with groups that cancel dropped:
    on int64 values whose running sum wraps past 2^63 many times (each
    group sum still below 2^62), and on python ints and Fractions."""
    rng = random.Random(kind)
    n, groups = 6000, 2500
    keys = np.array([rng.randrange(groups) for _ in range(n)], dtype=np.int64)
    if kind == "wrapping int64":
        raw = [rng.choice([1, -1]) * rng.randrange(2 ** 58, 2 ** 59) for _ in range(n)]
        for i in range(0, n, 3):  # positive runs: the running sum wraps
            raw[i] = abs(raw[i])
        vals = np.array(raw, dtype=np.int64)
        run = accumulate(vals[np.argsort(keys, kind="stable")].tolist())
        assert max(map(abs, run)) >= 2 ** 63
    elif kind == "big ints":
        vals = np.array([rng.randrange(-2 ** 80, 2 ** 80) for _ in range(n)], dtype=object)
    else:
        vals = np.array([Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n)],
                        dtype=object)
    # cancelling groups: a key whose values sum to zero must be dropped
    for g in range(groups, groups + 200):
        keys = np.append(keys, [g, g])
        vals = np.append(vals, [vals[g % n], -vals[g % n]]).astype(vals.dtype)
    got, want = _packed_reduce(keys, vals), oracles.packed_reduce(keys, vals)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist() and got[1].dtype == want[1].dtype
    assert not set(range(groups, groups + 200)) & set(got[0].tolist())
    assert len(got[0]) < len(set(keys.tolist()))


def test_coord_reads_each_axis_of_an_unsheared_frame():
    rng = np.random.default_rng(5)
    lo, hi = np.array([-4, -7, 0]), np.array([5, 3, 9])
    z, lv = _box_rows(rng, lo, hi, 300), rng.integers(0, 4, 300)
    f = _frame(lo, hi, 3)
    keys = _encode(z, f, lv)
    for i in range(3):
        assert np.array_equal(_coord(keys, f, i), z[:, i])


def _box_rows(rng, lo, hi, n):
    return np.stack([rng.integers(a, b + 1, n) for a, b in zip(lo, hi)], axis=1)


def test_packed_frame_round_trips_and_stays_additive():
    rng = np.random.default_rng(11)
    # identity frame with levels: the level is the top digit
    lo, hi = np.array([-4, -7, 0]), np.array([5, 3, 9])
    z, lv = _box_rows(rng, lo, hi, 300), rng.integers(0, 4, 300)
    f = _frame(lo, hi, 3)
    keys = _encode(z, f, lv)
    assert (keys // f.stq == lv).all() and (keys >= 0).all()
    assert (_decode(keys, f) == z).all()
    assert len(set(keys.tolist())) == len(set(zip(lv.tolist(), map(tuple, z.tolist()))))
    assert f.st[f.order[-1]] == 1
    # the A2 shears: the block direction is the active axis, stride one
    lo, hi = np.array([-12, -9]), np.array([15, 6])
    z = _box_rows(rng, lo, hi, 300)
    for d in ((-3, 3), (0, 3)):
        f = _frame(lo, hi, 0, d)
        keys = _encode(z, f)
        assert (keys >= 0).all() and (keys < f.stq).all()
        assert (_decode(keys, f) == z).all()
        ax = f.order[-1]
        assert f.st[ax] == 1 and int(np.dot(d, f.w)) == d[ax]
    # a product frame: the key of a sum is the sum of the keys minus zero
    ha, hb, top = np.array([3, 1, 4]), np.array([2, 5, 0]), 4
    f = _frame(-(ha + hb), ha + hb, top)
    za, zb = _box_rows(rng, -ha, ha, 200), _box_rows(rng, -hb, hb, 200)
    la, lb = rng.integers(0, 3, 200), rng.integers(0, 3, 200)
    ks = _encode(za, f, la) + _encode(zb, f, lb) - f.zero
    assert (ks == _encode(za + zb, f, la + lb)).all()
    assert (_decode(ks, f) == za + zb).all() and (ks // f.stq == la + lb).all()
    assert _encode(np.zeros((1, 3), np.int64), f)[0] == f.zero
    with pytest.raises(ValueError, match="packed span too wide"):
        _frame(np.full(4, -2 ** 15), np.full(4, 2 ** 15))


@st.composite
def _frames_and_rows(draw):
    """A frame (a box, maybe an A2 shear, a top level), rows and levels
    inside it, and a second frame at least as wide, maybe sheared."""
    r = draw(st.integers(1, 4))
    lo = np.array(draw(st.lists(st.integers(-6, 0), min_size=r, max_size=r)))
    hi = np.array(draw(st.lists(st.integers(0, 6), min_size=r, max_size=r)))
    top = draw(st.integers(0, 3))

    def shear():
        if r < 2 or not draw(st.booleans()):
            return None
        c = draw(st.integers(0, r - 2))
        d = draw(st.sampled_from([(-3, 3), (3, 0), (0, 3)]))
        return (0,) * c + d + (0,) * (r - c - 2)

    f = _frame(lo, hi, top, shear())
    n = draw(st.integers(0, 20))
    z = np.array([[draw(st.integers(a, b)) for a, b in zip(lo, hi)] for _ in range(n)],
                 np.int64).reshape(n, r)
    lv = np.array(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), np.int64)
    grow = st.lists(st.integers(0, 3), min_size=r, max_size=r)
    g = _frame(lo - draw(grow), hi + draw(grow), top + draw(st.integers(0, 2)), shear())
    return f, g, z, lv


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_frames_and_rows())
def test_packed_keys_round_trip_and_move_between_frames(case):
    """On random boxes, A2 shears and levels: ``_decode`` inverts
    ``_encode`` (the level being the top digit), ``_restride`` into a
    wider frame equals decode-then-encode, and ``_coord`` reads each axis
    of an unsheared frame."""
    f, g, z, lv = case
    keys = _encode(z, f, lv)
    assert np.array_equal(_decode(keys, f), z) and np.array_equal(keys // f.stq, lv)
    assert np.array_equal(_restride(keys, f, g), _encode(_decode(keys, f), g, lv))
    if f.minv is None:
        for i in range(z.shape[1]):
            assert np.array_equal(_coord(keys, f, i), z[:, i])


@st.composite
def _monomial_and_factors(draw):
    """A window, a monomial c q^a zeta^z s^b inside it (c != 0), and up to
    three sparse factors with q, s >= 0, each built in the window less
    (a, b): some empty, some with no constant term."""
    r = draw(st.integers(1, 2))
    zs = st.lists(st.integers(-2, 2), min_size=r, max_size=r).map(tuple)
    w = TruncationWindow(draw(st.integers(0, 72)), draw(st.integers(0, 6)))
    c = draw(st.sampled_from([-2, -1, 1, 3, Fraction(1, 2)]))
    qa, z, sa = draw(st.integers(0, w.q_max)), draw(zs), draw(st.integers(0, w.s_max))
    fw = TruncationWindow(w.q_max - qa, w.s_max - sa)
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        f = FourierSeries(r, 2, fw)
        for term in draw(st.lists(st.tuples(st.integers(0, fw.q_max), zs,
                                            st.integers(0, fw.s_max), st.integers(-3, 3)),
                                  max_size=4)):
            f.add_term(*term)
        factors.append(f)
    return w, (c, qa, z, sa), fw, factors


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_monomial_and_factors())
def test_factors_multiplied_into_a_monomial_equal_their_product_shifted(case):
    """Factors with q, s >= 0 built in the window less a monomial's
    exponents, multiplied one by one into the monomial at the window,
    give the cells of their product at the smaller window, shifted and
    scaled by the monomial, and its window, the whole one, for as long
    as no step multiplies by an empty series: ``FourierSeries.mul``
    takes the meet of the windows there, the factors' window, which is
    why ``borcherds_product_form`` returns a monomial past the window at
    once and multiplies in only groups with constant term 1."""
    w, (c, qa, z, sa), fw, factors = case
    lhs = FourierSeries.monomial(c, qa, z, sa, 2, w)
    rhs = FourierSeries.monomial(1, 0, (0,) * len(z), 0, 2, fw)
    met_empty = False
    for f in factors:
        met_empty = met_empty or lhs.is_zero() or f.is_zero()
        lhs, rhs = lhs.mul(f, w), rhs.mul(f, fw)
    rhs = scaled(shifted(rhs, qa, z, sa), c)
    assert lhs.cells == rhs.cells
    assert rhs.window == w and lhs.window == (fw if met_empty else w)


def test_a_product_with_an_empty_operand_gets_the_meet_of_the_windows():
    """A monomial at q^1 exact through (1, 0) times an empty factor exact
    through (0, 0) is empty through (0, 0), either way round, although
    the monomial's valuation alone would make it exact through (1, 0)."""
    mono = FourierSeries.monomial(1, 1, (0,), 0, 2, TruncationWindow(1, 0))
    empty = FourierSeries(1, 2, TruncationWindow(0, 0))
    for prod in (mono.mul(empty, mono.window), empty.mul(mono)):
        assert prod.is_zero() and prod.window == TruncationWindow(0, 0)


def test_a_product_with_an_empty_operand_keeps_within_the_window_argument():
    """An empty product is exact through the meet of the two windows and
    of the window argument, either way round, as a nonzero one is."""
    mono = FourierSeries.monomial(1, 0, (0,), 0, 2, TruncationWindow(48, 4))
    empty = FourierSeries(1, 2, TruncationWindow(48, 4))
    for prod in (mono.mul(empty, TruncationWindow(24, 2)), empty.mul(mono, TruncationWindow(24, 2))):
        assert prod.is_zero() and prod.window == TruncationWindow(24, 2)


def _dict_sums(keys, vals) -> list:
    """[sorted keys, their nonzero sums], summed in a dict: the oracle of
    ``_packed_reduce``."""
    acc = {}
    for k, v in zip(keys, vals):
        acc[k] = acc.get(k, 0) + v
    items = [(k, v) for k, v in sorted(acc.items()) if v]
    return [[k for k, _ in items], [v for _, v in items]]


_BIG = 2 ** 59 - 1  # seven of these in one group stay below 2^62


@st.composite
def _int64_groups(draw):
    """Shuffled (keys, values) in groups of at most seven int64 values of
    |v| <= 2^59, so every group sum is below 2^62 while the running sum
    over many groups may wrap past 2^63."""
    vals = st.integers(-_BIG, _BIG) | st.sampled_from([_BIG, -_BIG, 0])
    groups = draw(st.lists(st.lists(vals, min_size=1, max_size=7), max_size=12))
    pairs = [(k, v) for k, g in enumerate(groups) for v in g]
    order = draw(st.permutations(range(len(pairs))))
    return [pairs[i][0] * 3 for i in order], [pairs[i][1] for i in order]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_int64_groups())
@example(([0] * 7 + [3] * 7 + [6] * 7 + [9] * 7, [_BIG] * 28))  # the running sum wraps
@example(([5, 5, 2, 5], [_BIG, -_BIG, 0, 1]))  # a cancelling group, a zero value
@example(([], []))
def test_packed_reduce_equals_a_dict_sum_on_int64(case):
    """Group sums of int64 values equal a dict sum, groups that cancel
    dropped, also when the running sum wraps past 2^63."""
    keys, vals = case
    got = _packed_reduce(np.array(keys, np.int64), np.array(vals, np.int64))
    want = _dict_sums(keys, vals)
    assert got[1].dtype == np.int64 and want == [got[0].tolist(), got[1].tolist()]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6),
                          st.integers(-2 ** 80, 2 ** 80) | st.fractions(max_denominator=6)),
                max_size=30))
@example([(1, Fraction(1, 2)), (1, Fraction(-1, 2)), (0, 2 ** 70), (0, 1)])
def test_packed_reduce_equals_a_dict_sum_on_objects(case):
    """Group sums of python ints and Fractions equal a dict sum, exactly."""
    keys, vals = [k for k, _ in case], [v for _, v in case]
    got = _packed_reduce(np.array(keys, np.int64), np.array(vals, object))
    want = _dict_sums(keys, vals)
    assert got[1].dtype == object and want == [got[0].tolist(), got[1].tolist()]


@st.composite
def _packed_pairs(draw):
    """(r, top, pairs): up to three pairs of packed series, each {level:
    {z: c}} with levels 0..3 and |z_i| <= 2, values small ints (int64)
    or big ints and Fractions (object)."""
    r, top = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    coeffs = draw(st.sampled_from([st.integers(-9, 9),
                                   st.integers(-2 ** 70, 2 ** 70) | st.fractions(max_denominator=4)]))
    series = st.dictionaries(st.integers(0, 3), st.dictionaries(
        st.lists(st.integers(-2, 2), min_size=r, max_size=r).map(tuple), coeffs, max_size=4),
        max_size=3)
    return r, top, draw(st.lists(st.tuples(series, series), min_size=1, max_size=3))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_packed_pairs())
@example((1, 1, [({0: {(1,): 1}, 2: {(2,): 3}}, {0: {(-1,): 2}, 1: {(1,): -1}})]))  # a level past top
@example((2, 0, [({}, {0: {(0, 0): 1}})]))  # an empty operand
def test_qz_mul_equals_the_dict_product_truncated(case):
    """``_qz_mul`` of packed pairs equals the sum of their dict products
    (``_slice_mul_py``) level by level through top, and no further."""
    r, top, pairs = case
    f = _frame(np.full(r, -4), np.full(r, 4), top)

    def packed(series):
        rows = [(lvl, z, c) for lvl, sl in series.items() for z, c in sl.items() if c]
        vals = [c for *_, c in rows]
        dtype = np.int64 if all(type(c) is int and abs(c) < 2 ** 20 for c in vals) else object
        keys = _encode(np.array([z for _, z, _ in rows], np.int64).reshape(-1, r), f,
                       np.array([lvl for lvl, *_ in rows], np.int64))
        return _packed_reduce(keys, np.array(vals, object).astype(dtype))

    want = {}
    for a, b in pairs:
        for i, A in a.items():
            for j, B in b.items():
                if i + j <= top:
                    _slice_mul_py(want.setdefault(i + j, {}), A, B)
    packs = [(packed(a), packed(b)) for a, b in pairs]
    keys, vals = _qz_mul(packs, f, top)
    assert _qz_decode(keys, vals, f, None) == {lvl: sl for lvl, sl in sorted(want.items()) if sl}


def test_exp_s_inverse():
    rng = random.Random(37)
    for _ in range(6):
        x = FourierSeries(1, 2, TruncationWindow(12, 6))
        for _ in range(6):
            x.add_term(rng.randrange(0, 10), (rng.randrange(-2, 3),),
                       rng.randrange(1, 4), rng.randrange(-4, 5))
        e = exp_s(x)
        einv = exp_s(neg(x))
        prod = e.mul(einv)
        one = FourierSeries.monomial(1, 0, (0,), 0, 2, prod.window)
        assert prod.first_difference(one) is None


def test_scale_variables_grid_check():
    f = FourierSeries.monomial(3, 5, (1,), 0, 2, TruncationWindow(40, 0))
    g = scale_variables(f, 2, 2)
    assert coefficient(g, 10, (2,)) == 3
    try:
        scale_variables(f, Fraction(1, 2), 1)
    except ValueError:
        pass
    else:
        assert False, "expected an off-grid error"


def test_scale_variables_claims_only_the_window_it_has():
    half = scale_variables(eta_power(24, 48), Fraction(1, 2))
    deep = scale_variables(eta_power(24, 96), Fraction(1, 2))
    assert half.window.q_max == 24
    assert coefficient(deep, 36, ()) == 252
    assert half.first_difference(deep) is None
    odd = scale_variables(FourierSeries(1, 2, TruncationWindow(41, 0)), Fraction(1, 2))
    assert odd.window.q_max == 20
    assert scale_variables(eta_power(24, 48), 3).window.q_max == 144
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            scale_variables(half, bad)


def test_restrict_and_derivative():
    f = FourierSeries(2, 2, TruncationWindow(10, 0))
    f.add_term(1, (1, 2), 0, 5)
    f.add_term(1, (-1, 2), 0, 4)
    f.add_term(2, (3, -1), 0, 2)
    g = f.restrict_z(0)
    assert g.r == 1
    assert coefficient(g, 1, (2,)) == 9
    d = derivative_z(f, 0)
    assert coefficient(d, 1, (1, 2)) == Fraction(5, 2)
    assert coefficient(d, 1, (-1, 2)) == -2


def _canonical(f):
    """Every stored coefficient is a nonzero int or a non-integral Fraction."""
    return all(c and (type(c) is int or c.denominator != 1)
               for sl in f.cells.values() for c in sl.values())


def test_restrict_and_derivative_match_the_general_formulas():
    """restrict_z equals map_z by the projection matrix, and derivative_z
    the Fraction product c * z_i / den_z, on seeded series with Fraction
    coefficients, terms that cancel (or sum to an integer) under the
    restriction, and r = 1 -> 0."""
    rng = random.Random(43)
    for trial in range(60):
        r, den_z = rng.randrange(1, 4), rng.choice((1, 2, 4, 6))
        f = rand_series(rng, r, den_z, 30, 3, 25, fractions=trial % 2 == 0)
        i = rng.randrange(r)
        for _ in range(6):  # pairs that meet at z_i = 0: cancel, or sum to 1
            q, s = rng.randrange(31), rng.randrange(4)
            z = [rng.randrange(-4, 5) for _ in range(r)]
            c = rng.choice((rng.randrange(1, 9), Fraction(rng.randrange(1, 9), 3)))
            f.add_term(q, tuple(z), s, c)
            z[i] += rng.randrange(1, 4)
            f.add_term(q, tuple(z), s, -c if rng.random() < 0.5 else 1 - c)
        proj = [[1 if j == col else 0 for col in range(r) if col != i] for j in range(r)]
        got, want = f.restrict_z(i), f.map_z(proj)
        assert got == want and _canonical(got)
        assert got.den_z == (den_z if r > 1 else 1)
        d = derivative_z(f, i)
        want = {}
        for cq, sl in f.cells.items():
            cell = {z: c * Fraction(z[i], den_z) for z, c in sl.items()}
            cell = {z: int(c) if c.denominator == 1 else c for z, c in cell.items() if c}
            if cell:
                want[cq] = cell
        assert d.cells == want and _canonical(d)
        assert (d.r, d.den_z, d.window) == (f.r, f.den_z, f.window)


def test_quasi_pullback_is_the_derivative_restricted():
    """quasi_pullback's one integer pass equals derivative_z followed by
    restrict_z on seeded series, with Fraction coefficients and sums that
    leave a remainder mod den_z, r = 1 -> 0 included; a coordinate out of
    range raises ValueError."""
    rng = random.Random(47)
    for trial in range(60):
        r, den_z = rng.randrange(1, 4), rng.choice((1, 2, 4, 6))
        f = rand_series(rng, r, den_z, 30, 3, 25, fractions=trial % 2 == 0)
        form = JacobiForm("f", f, 1, Fraction(1), None, None, 0)
        i = rng.randrange(r)
        got = quasi_pullback(form, i).series
        assert got == derivative_z(f, i).restrict_z(i) and _canonical(got)
        with pytest.raises(ValueError):
            quasi_pullback(form, r)


def test_map_z_relabel():
    f = FourierSeries(1, 2, TruncationWindow(10, 0))
    f.add_term(3, (2,), 0, 7)
    g = f.map_z([[3, 0]], den_z_new=6)
    assert g.r == 2
    assert g.den_z == 6
    assert coefficient(g, 3, (6, 0)) == 7


def test_json_roundtrip_bytes():
    rng = random.Random(41)
    f = rand_series(rng, 3, 6, 25, 4, 30, fractions=True)
    text = f.to_json()
    g = FourierSeries.from_json(text)
    assert g == f
    assert g.to_json() == text


@st.composite
def _fraction_series(draw):
    """A series of rank 0-3 with distinct terms, coefficients nonzero
    integers (some past 2^63) or Fractions, anywhere in its window."""
    r, den_z = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    w = TruncationWindow(draw(st.integers(0, 48)), draw(st.integers(0, 4)))
    key = st.tuples(st.integers(-24, w.q_max), st.integers(0, w.s_max),
                    st.tuples(*[st.integers(-9, 9)] * r))
    coeff = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.fractions(max_denominator=12))
    f = FourierSeries(r, den_z, w)
    for (q, s, z), c in draw(st.dictionaries(key, coeff.filter(bool), max_size=12)).items():
        f.add_term(q, z, s, c)
    return f


_CORRUPTIONS = ["swap", "outside-q", "outside-s", "zero", "z-length", "float-q", "float-s",
                "float-z"]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_fraction_series(), st.sampled_from(_CORRUPTIONS), st.integers(0, 10 ** 6))
@example(rand_series(random.Random(41), 3, 6, 25, 4, 30, fractions=True), "swap", 7)
@example(rand_series(random.Random(41), 3, 6, 25, 4, 30, fractions=True), "float-z", 0)
def test_from_json_inverts_to_json_and_refuses_one_corruption(f, kind, at):
    """``from_json(to_json(f)) == f``, and one structural corruption of one
    term of the body raises ValueError: two adjacent terms swapped, a
    term outside the window, a zero coefficient, a z of the wrong length,
    or a q, s or z entry that is not an integer."""
    text = f.to_json()
    assert FourierSeries.from_json(text) == f
    doc = json.loads(text)
    terms = doc["terms"]
    if len(terms) < (2 if kind == "swap" else 1):
        return
    t = terms[at % len(terms)]
    if kind == "swap":
        i = at % (len(terms) - 1)
        terms[i], terms[i + 1] = terms[i + 1], terms[i]
    elif kind.startswith("outside"):
        t[kind[-1]] = doc["window"][kind[-1] + "_max"] + 1
    elif kind == "zero":
        t["c"] = "0"
    elif kind == "z-length":
        t["z"].append(0)
    elif kind == "float-z" and t["z"]:
        t["z"][-1] += 0.5
    else:  # float-q, float-s, and float-z at r = 0
        t[kind[-1] if kind != "float-z" else "q"] += 0.5
    with pytest.raises(ValueError):
        FourierSeries.from_json(json.dumps(doc))


def test_lowest_term_and_valuations():
    f = FourierSeries(2, 2, TruncationWindow(20, 4))
    f.add_term(7, (0, 1), 2, 4)
    f.add_term(5, (1, -1), 2, -2)
    f.add_term(9, (0, 0), 4, 1)
    assert f.q_valuation() == 5
    assert f.s_valuation() == 2
    assert f.corner_cell() == (2, 5)
    assert lowest_term(f) == (5, (1, -1), 2, -2)


def test_to_json_writes_only_nonzero_terms_inside_the_window():
    f = FourierSeries(1, 2, TruncationWindow(24, 2))
    f.add_term(3, (1,), 0, 5)
    want = f.to_json()
    f.cells[(0, 3)][(2,)] = 0
    f.cells[(2, 0)] = {}
    f.cells[(0, 25)] = {(0,): 1}
    f.cells[(4, 0)] = {(0,): 1}
    assert f.to_json() == want
    assert FourierSeries.from_json(want).cells == {(0, 3): {(1,): 5}}


def _json_cases():
    """Series whose bodies cover every shape of term and header."""
    f = FourierSeries(2, 6, TruncationWindow(48, 4))
    f.add_term(3, (-5, 2), 0, 5)
    f.add_term(3, (4, -1), 0, Fraction(-7, 3))
    f.add_term(27, (0, 0), 2, -12345678901234567890)
    f.add_term(48, (-1, -1), 4, Fraction(1, 2))
    dirty = copy(f)
    dirty.cells[(0, 3)][(9, 9)] = 0  # a stored zero
    dirty.cells[(2, 0)] = {}  # an empty cell
    dirty.cells[(0, 49)] = {(0, 0): 1}  # outside the window in q
    dirty.cells[(6, 0)] = {(0, 0): 1}  # and in s
    g = FourierSeries(0, 1, TruncationWindow(24, 0))  # r = 0: z is []
    g.add_term(0, (), 0, 3)
    g.add_term(24, (), 0, Fraction(-1, 4))
    rng = random.Random(7)
    return [f, dirty, g, FourierSeries(3, 2, TruncationWindow(0, 0)),
            rand_series(rng, 3, 6, 25, 4, 30, fractions=True),
            eta_power(24, 240)]


def test_to_json_matches_the_json_dumps_writer_byte_for_byte():
    for f in _json_cases():
        assert f.to_json() == oracles.to_json(f), f


@pytest.mark.parametrize("part, change", [
    pytest.param("terms", {"c": "7"}, id="duplicate"),
    pytest.param("terms", {"z": [3], "c": "0"}, id="zero"),
    pytest.param("terms", {"q": 25}, id="outside-window"),
    pytest.param("terms", {"q": 1.5}, id="float-q"),
    pytest.param("terms", {"q": 11, "z": [True]}, id="bool-z"),
    pytest.param("terms", {"q": 11, "z": ["1"]}, id="string-z"),
    pytest.param("terms", {"q": 11, "z": [1, 1]}, id="z-longer-than-r"),
    pytest.param("terms", {"q": 11, "c": "1/0"}, id="zero-denominator"),
    pytest.param("header", {"den_z": 0}, id="zero-den-z"),
    pytest.param("header", {"den_z": True}, id="bool-den-z"),
    pytest.param("header", {"r": True}, id="bool-r"),
    pytest.param("header", {"r": -1}, id="negative-r"),
    pytest.param("header", {"r": 1.0}, id="float-r"),
    pytest.param("window", {"q_max": 24.5}, id="float-q-max"),
    pytest.param("window", {"s_max": True}, id="bool-s-max"),
    pytest.param("window", {"s_max": "2"}, id="string-s-max"),
])
def test_from_json_rejects_malformed_terms(part, change):
    f = FourierSeries(1, 2, TruncationWindow(24, 2))
    f.add_term(3, (1,), 0, 5)
    f.add_term(3, (-1,), 0, -5)
    doc = json.loads(f.to_json())
    if part == "terms":
        doc["terms"].append(dict(doc["terms"][0], **change))
    else:
        (doc if part == "header" else doc["window"]).update(change)
    with pytest.raises(ValueError, match="bad term" if part == "terms" else "bad header"):
        FourierSeries.from_json(json.dumps(doc))


def sorted_first_difference(a, b, w):
    """The comparison as a sort over every (s, q, z) key of both series."""
    keys = {(s, q, z) for src in (a, b) for (s, q), sl in src.cells.items()
            if s <= w.s_max and q <= w.q_max for z in sl}
    for (s, q, z) in sorted(keys):
        ca, cb = coefficient(a, q, z, s), coefficient(b, q, z, s)
        if ca != cb:
            return (s, q, z, ca, cb)
    return None


def test_first_difference_matches_sorting_every_key():
    rng = random.Random(43)
    kinds = set()
    for trial in range(300):
        a = rand_series(rng, 2, 2, 30, 4, 40, fractions=trial % 3 == 0)
        b = copy(a)
        for _ in range(rng.randrange(0, 3)):  # changed, added or removed terms
            q, z, s, _ = rng.choice(list(a.terms()) or [(0, (0, 0), 0, 0)])
            if rng.random() < 0.5:
                q, z = rng.randrange(0, 31), (rng.randrange(-4, 5), rng.randrange(-4, 5))
            b.add_term(q, z, s, rng.choice([-1, 1, Fraction(1, 2), -coefficient(b, q, z, s)]))
        # cells that differ as dicts only: missing on one side and empty or
        # holding a stored zero on the other
        for _ in range(rng.randrange(0, 3)):
            cell = (rng.randrange(0, 5), rng.randrange(0, 31))
            if cell not in b.cells:
                sl = a.cells.setdefault(cell, {})
                if rng.random() < 0.5:
                    sl[(rng.randrange(-4, 5), 0)] = 0
        w = rng.choice([None, TruncationWindow(rng.randrange(0, 31), rng.randrange(0, 5))])
        got = a.first_difference(b, w)
        assert got == sorted_first_difference(a, b, a.window.meet(w or a.window))
        assert b.first_difference(a, w) == (None if got is None else got[:3] + got[:2:-1])
        kinds.add(got is None)
    assert kinds == {True, False}
