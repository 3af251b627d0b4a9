import json
import random
from fractions import Fraction

import numpy as np
import pytest

from refltower.jacobi import JacobiForm, eta_power, quasi_pullback
from refltower.series import (
    FourierSeries,
    TruncationWindow,
    _decode,
    _encode,
    _frame,
    _peel_divide,
    _slice_mul_py,
)

from helpers import coefficient, copy, derivative_z, lowest_term
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
        c = (a + b) - b
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
        lhs = a.mul(b + c)
        rhs = a.mul(b) + a.mul(c)
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


def test_exp_s_inverse():
    rng = random.Random(37)
    for _ in range(6):
        x = FourierSeries(1, 2, TruncationWindow(12, 6))
        for _ in range(6):
            x.add_term(rng.randrange(0, 10), (rng.randrange(-2, 3),),
                       rng.randrange(1, 4), rng.randrange(-4, 5))
        e = exp_s(x)
        einv = exp_s(-x)
        prod = e.mul(einv)
        one = FourierSeries.monomial(1, 0, (0,), 0, 2, prod.window)
        assert prod.first_difference(one) is None


def test_scale_variables_grid_check():
    f = FourierSeries.monomial(3, 5, (1,), 0, 2, TruncationWindow(40, 0))
    g = f.scale_variables(2, 2)
    assert coefficient(g, 10, (2,)) == 3
    try:
        f.scale_variables(Fraction(1, 2), 1)
    except ValueError:
        pass
    else:
        assert False, "expected an off-grid error"


def test_scale_variables_claims_only_the_window_it_has():
    half = eta_power(24, 48).scale_variables(Fraction(1, 2))
    deep = eta_power(24, 96).scale_variables(Fraction(1, 2))
    assert half.window.q_max == 24
    assert coefficient(deep, 36, ()) == 252
    assert half.first_difference(deep) is None
    odd = FourierSeries(1, 2, TruncationWindow(41, 0)).scale_variables(Fraction(1, 2))
    assert odd.window.q_max == 20
    assert eta_power(24, 48).scale_variables(3).window.q_max == 144
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            half.scale_variables(bad)


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
