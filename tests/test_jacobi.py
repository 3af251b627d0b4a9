"""Tests for theta blocks, Hecke translates, and the weight-0 quotients."""

import itertools
import random
from fractions import Fraction
from functools import partial
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from refltower import borcherds, jacobi, series
from refltower.jacobi import (
    MEMBERS,
    JacobiForm,
    _divisors,
    _eta_coeff,
    build,
    chi4,
    eta_power,
    member_hecke_slice,
    member_series,
    member_slice,
    phi0_by_division,
    quasi_pullback,
    theta,
    theta_A2,
    theta_product_form,
    weak_weight0,
)
from refltower.lattices import lattice
from refltower.lifting import gritsenko_lift, lift_layers
from refltower.series import FourierSeries, TruncationWindow

from helpers import (coefficient, cold_memos, divide_slices, exp_series, hecke_reach, norm,
                     scale_variables)
import oracles
from oracles import eta_product


# ---------------------------------------------------------------------------
# independent constructions the tests compare the program against


def member_coefficient(key: str, q_num: int, z: tuple) -> int:
    meta = MEMBERS[key]
    if meta.family in ("D", "A1"):
        if any(c % 2 == 0 for c in z):
            return 0
        ssq = sum(c * c for c in z)
        e = _eta_coeff(meta.eta_exp, q_num - 3 * ssq)
        if not e:
            return 0
        s = 1
        for c in z:
            s *= chi4(c)
        return e * s
    if meta.family == "D1":
        m2 = z[0]
        if m2 % 4 == 0 or m2 % 2:
            return 0
        m = m2 // 2
        return _eta_coeff(meta.eta_exp, q_num - 3 * m * m) * chi4(m)
    return oracles.member_slice(key, q_num).get(tuple(z), 0)


def corner_slice(meta) -> dict:
    """prod over the corner directions d of (zeta^d - zeta^-d), as a z-slice."""
    acc = {(0,) * meta.r: 1}
    for d in jacobi._corner_dirs(meta):
        nxt: dict = {}
        series._slice_mul_into(nxt, acc, {d: 1, tuple(-a for a in d): -1}, meta.r)
        acc = nxt
    return acc


def hecke_Vm_subst(form: JacobiForm, m: int) -> JacobiForm:
    """The same translate as an average over tau -> (a tau + b)/d.

    Literal sum m^-1 sum_{ad=m} a^k sum_{b mod d} psi((a tau + b)/d, a z);
    the b-average keeps exactly the keys with d | n.  Only integral
    q-grids are supported: on half-integral grids the average acquires
    multiplier-system phases and stops being a plain divisor sum.
    """
    ser = form.series
    if any(q % 24 for (_, q) in ser.cells):
        raise ValueError("substitution average needs an integral q-grid")
    wq = ser.window.q_max // m
    out = FourierSeries(ser.r, ser.den_z, TruncationWindow(wq, ser.window.s_max))
    for a in _divisors(m):
        d = m // a
        factor = Fraction(a ** form.weight * d, m)
        for (s, q), sl in ser.cells.items():
            n = q // 24
            if n % d:
                continue  # the b-average kills this key
            qq = 24 * a * n // d
            if qq > wq:
                continue
            for z, c in sl.items():
                out.add_term(qq, tuple(a * x for x in z), s, factor * c)
    return JacobiForm("%s|V_%d" % (form.name, m), out, form.weight,
                      form.index * m, form.lattice_name, form.family,
                      form.copies)


def phi0_by_general_division(key: str, q_depth: int) -> JacobiForm:
    """Same quotient through the generic series division (cross-check path)."""
    meta = MEMBERS[key]
    p = meta.hecke_p
    w_num = FourierSeries(meta.r, meta.den_z,
                          TruncationWindow(meta.val_q + 24 * q_depth, 0))
    w_den = FourierSeries(meta.r, meta.den_z,
                          TruncationWindow(meta.val_q + 24 * q_depth, 0))
    for j in range(q_depth + 1):
        q = meta.val_q + 24 * j
        num = member_hecke_slice(key, p, q)
        if num:
            w_num.cells[(0, q)] = num
        den = member_slice(key, q)
        if den:
            w_den.cells[(0, q)] = dict(den)
    quo = w_num.div(w_den)
    ser = (-quo).truncated(TruncationWindow(24 * q_depth, 0))
    return JacobiForm("phi0_%s" % meta.lattice_name, ser, 0, Fraction(1),
                      meta.lattice_name, meta.family, meta.copies)


def restrict_tower(form: JacobiForm, target_lattice: str) -> JacobiForm:
    """Set the trailing block of elliptic variables to zero."""
    tgt = lattice(target_lattice)
    meta_family = "D" if tgt.family == "D" else ("A2" if tgt.family == "A2" else "A1")
    if form.family in ("D", "D1"):
        src_family = "D"
    else:
        src_family = form.family
    if src_family != meta_family:
        raise ValueError("restriction stays inside one family")
    ser = form.series
    r_target = tgt.rank if tgt.family != "A2" else tgt.rank
    if r_target > ser.r:
        raise ValueError("restriction cannot add variables")
    while ser.r > r_target:
        ser = ser.restrict_z(ser.r - 1)
    return JacobiForm("%s|%s" % (form.name, target_lattice), ser, form.weight,
                      form.index, target_lattice, form.family, 0)


def dual_from_z(family: str, z: tuple) -> tuple:
    """Dual lattice vector of a stored z-exponent tuple.

    The D1 block stores zeta-exponents of theta(tau, 2z) whose dual
    vectors are z/4 in e-coordinates; its holomorphic support bound pins
    the normalisation down.
    """
    if family == "D":
        return tuple(Fraction(a, 2) for a in z)
    if family == "A2":
        return tuple(Fraction(a, 6) for a in z)
    if family in ("A1", "D1"):
        return tuple(Fraction(a, 4) for a in z)
    raise ValueError("unknown family %r" % (family,))


def z_from_dual(family: str, ell: tuple) -> tuple:
    den = {"D": 2, "D1": 4, "A2": 6, "A1": 4}[family]
    out = []
    for a in ell:
        v = Fraction(a) * den
        if v.denominator != 1:
            raise ValueError("vector is not on the z grid")
        out.append(int(v))
    return tuple(out)


def test_theta_sum_equals_triple_product():
    q_max = 12 * 24
    assert theta(q_max).first_difference(theta_product_form(q_max)) is None


def test_eta_cube_from_theta_pullback():
    tf = build("theta", TruncationWindow(1200, 0))
    qp = quasi_pullback(tf, 0)
    cube = eta_power(3, 1200)
    assert qp.series.first_difference(cube) is None
    # closed form: coefficient at q^(N^2/8) is (-4/N) N, nothing else
    for n in range(1, 1201):
        c = coefficient(cube, n, ())
        root = 0
        for m in range(1, 21):
            if 3 * m * m == n:
                root = m
        assert c == (chi4(root) * root if root else 0)


def test_delta_coefficients():
    tau = [_eta_coeff(24, 24 * n) for n in range(1, 8)]
    assert tau == [1, -24, 252, -1472, 4830, -6048, -16744]


def test_eta_table_matches_the_naive_product():
    for p in range(-30, 25):
        assert jacobi._eta_table(p, 60)[:61] == eta_product(p, 60), p


def test_eta_table_extended_in_place_equals_a_fresh_one(monkeypatch):
    for p in (-30, -1, 0, 3, 24):
        monkeypatch.setattr(jacobi, "_SIGMA", [0])
        monkeypatch.setattr(jacobi, "_ETA_TABLES", {})
        short = jacobi._eta_table(p, 10)
        assert len(short) == 11
        deep = jacobi._eta_table(p, 60)
        assert deep is short and len(deep) == 61
        monkeypatch.setattr(jacobi, "_ETA_TABLES", {})
        assert jacobi._eta_table(p, 60) == deep


def test_eta_inverse_roundtrip():
    w = TruncationWindow(240, 0)
    prod = eta_power(-5, 240).mul(eta_power(5, 240), w)
    one = FourierSeries.monomial(1, 0, (), 0, 1, w)
    assert prod.first_difference(one) is None


def test_theta_a2_support_is_null():
    f = theta_A2(24 * 8)
    lat = lattice("A2")
    for (s, q), sl in f.cells.items():
        assert q % 24 == 8
        for z in sl:
            ell = dual_from_z("A2", z)
            assert 2 * Fraction(q, 24) == norm(lat, ell)


def test_registry_keys_and_metadata():
    assert len(MEMBERS) == 15
    w = TruncationWindow(96, 0)
    for name in ("theta", "Theta_A2"):
        assert build(name, w).name == name
    for key, meta in MEMBERS.items():
        form = build(key, w)
        assert form.name == key
        assert form.weight == meta.weight
        assert form.lattice_name == meta.lattice_name
        n_theta = {"D": meta.copies, "D1": 1, "A1": meta.copies,
                   "A2": 3 * meta.copies}[meta.family]
        # the A2 block carries its own eta^-1, one per copy
        eta_net = meta.eta_exp - (meta.copies if meta.family == "A2" else 0)
        assert 2 * meta.weight == eta_net + n_theta
        assert form.series.q_valuation() == meta.val_q
    assert build("eta^-2", w).weight == Fraction(-1)
    assert build("theta", w).weight == Fraction(1, 2)
    with pytest.raises(KeyError):
        build("psi_4_E8", w)


def test_member_corner_is_binomial_product():
    for key, meta in MEMBERS.items():
        assert member_slice(key, meta.val_q) == corner_slice(meta)


# the deepest level of each block that the benchmark's sweep windows reach
SWEEP_PSI_DEPTHS = {
    "psi_10_D2": 31, "eta21_theta2z": 31, "psi_9_A2": 31, "psi_5_A1": 46,
    "psi_4_2A1": 46, "psi_3_3A1": 19, "psi_9_D3": 13, "psi_8_D4": 13,
    "psi_6_2A2": 13, "psi_2_4A1": 13, "psi_7_D5": 9, "psi_6_D6": 9,
    "psi_5_D7": 16, "psi_4_D8": 5, "psi_3_3A2": 5,
}


def test_odd_shell_equals_a_brute_force_enumeration(fresh_memos):
    """Each shell, built by the recursion from cold memos, is every odd
    vector with the given sum of squares, signed prod chi4(m_i), for
    r <= 4 and totals r..r+40 (those off r mod 8 are empty)."""
    for r in range(1, 5):
        for t in range(r, r + 41):
            odd = [m for m in range(-isqrt(t), isqrt(t) + 1) if m % 2]
            want = {v: prod(map(chi4, v)) for v in itertools.product(odd, repeat=r)
                    if sum(m * m for m in v) == t}
            assert jacobi._odd_shell(r, t) == want, (r, t)


def test_packed_block_rows_equal_the_dict_slices():
    """The block multiplied out factor by factor from the unit, held on
    z_i > 0 of its sign axes (all of D, D1 and A1, none of A2) and
    mirrored out (``_mirror_rows``), equals the odd-shell slices (D, D1,
    A1) and the Theta_A2 convolution (A2) at every level the sweep
    reaches, and D7 to level 16: the held rows, all on the orthant, are
    the slice's terms there (mirrored out they are all of them, and
    2^len(axes) times as many), with the slice's reach and max |v|."""
    assert set(SWEEP_PSI_DEPTHS) == set(MEMBERS)
    for key, depth in SWEEP_PSI_DEPTHS.items():
        val = MEMBERS[key].val_q
        axes = jacobi._sign_axes(MEMBERS[key])
        assert list(axes) == ([] if MEMBERS[key].family == "A2" else list(range(MEMBERS[key].r)))
        for lvl in range(depth + 1):
            zh, vh, reach, vmax = jacobi._member_rows(key, val + 24 * lvl)
            z, v = jacobi._mirror_rows(zh, vh, axes)
            assert len(z) == len(zh) << len(axes) and np.all(zh[:, list(axes)] > 0), (key, lvl)
            want = oracles.member_slice(key, val + 24 * lvl)
            assert len(z) == len(want), (key, lvl)
            assert dict(zip(map(tuple, z.tolist()), v.tolist())) == want, (key, lvl)
            assert reach.tolist() == np.abs(z).max(axis=0, initial=0).tolist(), (key, lvl)
            assert vmax == int(np.abs(v).max(initial=0)), (key, lvl)


@pytest.mark.parametrize("key, dirs", [
    ("psi_9_A2", [(3, 0), (3, -3), (0, 3)]),
    ("psi_10_D2", [(1, 0), (0, -1)]),
    ("eta21_theta2z", [(1,)]),
])
def test_phi0_rejects_a_block_whose_corner_differs_from_the_registry(monkeypatch, fresh_memos,
                                                                    key, dirs):
    """Corner directions that build a different block (a Theta_A2 direction
    flipped, a D2 sign flipped, the D1 scale lost) fail the corner check
    against the registry's theta cells."""
    monkeypatch.setattr(jacobi, "_corner_dirs", lambda meta: dirs)
    with pytest.raises(AssertionError, match="corner"):
        phi0_by_division(key, 2)


def test_cold_hecke_levels_build_the_block_once(monkeypatch, fresh_memos):
    """hecke_levels asks for its deepest slice first, so a cold call
    multiplies the block out once, not once per level."""
    real, calls = jacobi.multiply_by_member, []

    def spy(f, layers, key, depth):
        calls.append(key)
        return real(f, layers, key, depth)

    monkeypatch.setattr(jacobi, "multiply_by_member", spy)
    for key, meta in MEMBERS.items():
        orders = [m for _, m in lift_layers(key, 6)] + [meta.hecke_p]
        jacobi.hecke_levels(key, orders, 3 if meta.r <= 6 else 1)
    assert calls == list(MEMBERS)


def test_cold_a2_dict_callers_build_the_block_once(monkeypatch):
    """A cold lift or member_series of an A2 member multiplies its block
    out once, for the deepest slice it reads; D, D1 and A1 dict slices
    come from shells and read no packed rows."""
    real_mul, real_rows, calls = jacobi.multiply_by_member, jacobi._member_rows, []

    def spy(f, layers, key, depth):
        calls.append((key, depth))
        return real_mul(f, layers, key, depth)

    def rows(key, q_num):
        calls.append(key)
        return real_rows(key, q_num)

    monkeypatch.setattr(jacobi, "multiply_by_member", spy)
    for run in (lambda: gritsenko_lift("psi_6_2A2", TruncationWindow(96, 6)),
                lambda: gritsenko_lift("psi_3_3A2", TruncationWindow(72, 4)),
                lambda: member_series("psi_9_A2", TruncationWindow(24 * 12, 0))):
        with cold_memos():
            del calls[:]
            run()
        assert len(calls) == 1, calls
    monkeypatch.setattr(jacobi, "_member_rows", rows)
    del calls[:]
    for key, meta in MEMBERS.items():
        if meta.family != "A2":
            gritsenko_lift(key, TruncationWindow(48, 4))
            member_series(key, TruncationWindow(72, 0))
    assert calls == []


def test_member_series_matches_direct_product():
    q_max = 120
    th = theta(q_max + 9)
    f1 = th.map_z([[1, 0, 0]], den_z_new=2)
    f2 = th.map_z([[0, 1, 0]], den_z_new=2)
    f3 = th.map_z([[0, 0, 1]], den_z_new=2)
    eta15 = eta_power(15, q_max + 9)
    e = FourierSeries(3, 2, eta15.window)
    for (s, q), sl in eta15.cells.items():
        e.cells[(s, q)] = {(0, 0, 0): sl[()]}
    direct = f1.mul(f2).mul(f3).mul(e).truncated(TruncationWindow(q_max, 0))
    assert direct.first_difference(member_series("psi_9_D3", TruncationWindow(q_max, 0))) is None


def test_member_coefficient_lookup():
    for key in ("psi_8_D4", "psi_3_3A1", "eta21_theta2z", "psi_6_2A2"):
        meta = MEMBERS[key]
        for j in range(4):
            q = meta.val_q + 24 * j
            sl = member_slice(key, q)
            for z, c in list(sl.items())[:40]:
                assert build is not None
                assert member_coefficient(key, q, z) == c
            assert member_coefficient(key, q, (5,) * meta.r) == sl.get((5,) * meta.r, 0)


def test_member_support_norms():
    """Singular blocks live on the null cone, the rest strictly above it."""
    for key, meta in MEMBERS.items():
        lat = lattice(meta.lattice_name)
        ser = member_series(key, TruncationWindow(meta.val_q + 24 * 3, 0))
        norms = set()
        for (s, q), sl in ser.cells.items():
            for z in sl:
                ell = dual_from_z(meta.family, z)
                norms.add(2 * Fraction(q, 24) * meta.index - norm(lat, ell))
        if key in ("psi_4_D8", "psi_3_3A2", "psi_2_4A1"):
            assert norms == {0}
        else:
            assert min(norms) > 0


def test_phi0_constant_terms():
    expected = {"psi_10_D2": 20, "psi_9_D3": 18, "psi_8_D4": 16,
                "psi_7_D5": 14, "psi_6_D6": 12, "psi_5_D7": 10,
                "psi_4_D8": 8, "eta21_theta2z": 22, "psi_9_A2": 18,
                "psi_6_2A2": 12, "psi_3_3A2": 6, "psi_5_A1": 10,
                "psi_4_2A1": 8, "psi_3_3A1": 6, "psi_2_4A1": 4}
    for key, meta in MEMBERS.items():
        f = weak_weight0(key, 0)
        assert coefficient(f.series, 0, (0,) * meta.r) == expected[key]


def test_phi0_q0_slices():
    # D family: constant + zeta_i + zeta_i^-1
    for k in range(2, 9):
        key = "psi_%d_D%d" % (12 - k, k)
        sl = weak_weight0(key, 0).series.cells[(0, 0)]
        want = {(0,) * k: 24 - 2 * k}
        for i in range(k):
            for sgn in (2, -2):
                z = [0] * k
                z[i] = sgn
                want[tuple(z)] = 1
        assert sl == want
    # rank one: constant 22 + zeta^(+-1) at z = +-4
    assert weak_weight0("eta21_theta2z", 0).series.cells[(0, 0)] == \
        {(0,): 22, (4,): 1, (-4,): 1}
    # A2 family: six unit keys per copy
    for c, key in ((1, "psi_9_A2"), (2, "psi_6_2A2"), (3, "psi_3_3A2")):
        sl = weak_weight0(key, 0).series.cells[(0, 0)]
        want = {(0,) * (2 * c): 24 - 6 * c}
        for i in range(c):
            for pat in ((6, 0), (-6, 0), (0, 6), (0, -6), (6, -6), (-6, 6)):
                z = [0] * (2 * c)
                z[2 * i], z[2 * i + 1] = pat
                want[tuple(z)] = 1
        assert sl == want
    # A1 family
    for c, key in ((1, "psi_5_A1"), (2, "psi_4_2A1"), (3, "psi_3_3A1"),
                   (4, "psi_2_4A1")):
        sl = weak_weight0(key, 0).series.cells[(0, 0)]
        want = {(0,) * c: 12 - 2 * c}
        for i in range(c):
            for sgn in (2, -2):
                z = [0] * c
                z[i] = sgn
                want[tuple(z)] = 1
        assert sl == want


def test_phi0_negative_support_is_minimal_norm():
    minimal = {"D": Fraction(-1), "D1": Fraction(-1),
               "A2": Fraction(-2, 3), "A1": Fraction(-1, 2)}
    for key, meta in MEMBERS.items():
        depth = 2 if meta.r >= 6 else 3
        f = phi0_by_division(key, depth)
        lat = lattice(meta.lattice_name)
        seen = {}
        for (s, q), sl in f.series.cells.items():
            for z, c in sl.items():
                hyper = 2 * Fraction(q, 24) - norm(lat, dual_from_z(meta.family, z))
                if hyper < 0:
                    seen.setdefault(hyper, set()).add(c)
        assert set(seen) == {minimal[meta.family]}
        assert seen[minimal[meta.family]] == {1}


def test_phi0_d8_first_slice_values():
    c = partial(coefficient, weak_weight0("psi_4_D8", 1).series)
    assert c(24, (0,) * 8) == 128
    assert c(24, (2, 0, 0, 0, 0, 0, 0, 0)) == 36
    assert c(24, (2, 2, 0, 0, 0, 0, 0, 0)) == 8
    assert c(24, (4, 0, 0, 0, 0, 0, 0, 0)) == 0
    assert c(24, (1,) * 8) == -8
    assert c(24, (2,) * 8) == 0


def test_phi0_class_invariance_samples():
    """c(n, l) depends only on the norm 2n - l^2 and on l modulo the lattice."""
    f1 = partial(coefficient, weak_weight0("eta21_theta2z", 6).series)
    assert f1(24, (4,)) == 232 and f1(120, (12,)) == 232
    assert f1(48, (0,)) == 33044 and f1(96, (8,)) == 33044
    f8 = partial(coefficient, weak_weight0("psi_4_D8", 5).series)
    assert f8(24, (2, 0, 0, 0, 0, 0, 0, 0)) == 36
    assert f8(120, (6, 0, 0, 0, 0, 0, 0, 0)) == 36
    assert f8(24, (1,) * 8) == -8
    assert f8(48, (3, 1, 1, 1, 1, 1, 1, 1)) == -8


def test_phi0_restriction_matches_division():
    for top_key, key in (("psi_4_D8", "psi_6_D6"), ("psi_3_3A2", "psi_9_A2"),
                         ("psi_2_4A1", "psi_4_2A1")):
        top = phi0_by_division(top_key, 2)
        res = restrict_tower(top, MEMBERS[key].lattice_name)
        own = phi0_by_division(key, 2)
        assert res.series.first_difference(own.series) is None


def test_phi0_d1_is_doubled_restriction():
    top = phi0_by_division("psi_4_D8", 3)
    ser = top.series
    while ser.r > 1:
        ser = ser.restrict_z(ser.r - 1)
    doubled = scale_variables(ser, 1, 2)
    own = phi0_by_division("eta21_theta2z", 3)
    assert doubled.first_difference(own.series) is None


def test_phi0_general_division_agrees():
    cases = [(key, 5) for key, meta in MEMBERS.items() if meta.r <= 4]
    cases += [("psi_7_D5", 4), ("psi_6_D6", 4), ("psi_3_3A2", 3),
              ("psi_5_D7", 3), ("psi_4_D8", 2)]
    for key, depth in cases:
        a = phi0_by_division(key, depth)
        b = phi0_by_general_division(key, depth)
        assert a.series == b.series, key


def test_division_rejects_a_corrupt_a2_dividend():
    key = "psi_6_2A2"
    val = MEMBERS[key].val_q
    levels = [member_hecke_slice(key, 2, val + 24 * j) for j in range(4)]
    assert divide_slices([dict(sl) for sl in levels], key, 3)[3]
    for j in (0, 2):
        bad = [dict(sl) for sl in levels]
        z = sorted(bad[j])[len(bad[j]) // 2]
        bad[j][z] += 1
        with pytest.raises(ArithmeticError):
            divide_slices(bad, key, 3)


def _spy_mirrors(monkeypatch) -> list:
    """Record the sign of every ``jacobi._mirror`` call."""
    calls, real = [], jacobi._mirror
    monkeypatch.setattr(jacobi, "_mirror", lambda *a: calls.append(a[4]) or real(*a))
    return calls


def _spy_folds(monkeypatch) -> list:
    """Record whether each ``jacobi._divide_packed`` run divided on a sign
    orthant (some axis given): no True means the full loop ran."""
    calls, real = [], jacobi._divide_packed

    def spy(*a):
        calls.append(bool(a[1]))
        return real(*a)

    monkeypatch.setattr(jacobi, "_divide_packed", spy)
    return calls


@pytest.mark.parametrize("key", list(MEMBERS))
def test_division_recovers_a_random_quotient(monkeypatch, key):
    """psi * Q divided by psi gives Q back exactly, and one unit added at
    the deepest level of the dividend leaves a remainder.  The packed
    multiply of Q by the block equals psi * Q from ``FourierSeries.mul``
    on z_i > 0 of the sign axes (all of it for A2), the part it forms.  A
    random Q is not even, so psi * Q is not odd: it is divided whole, in
    a frame symmetric on no axis, and no coordinate is folded."""
    folds = _spy_folds(monkeypatch)
    meta = MEMBERS[key]
    depth = 3 if meta.r >= 7 else 4
    rng = random.Random(key)
    quo = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * depth, 0))
    for j in range(depth + 1):
        cell = {tuple(rng.randint(-3, 3) for _ in range(meta.r)): rng.choice([-5, -2, 1, 3, 7])
                for _ in range(4)}
        quo.cells[(0, 24 * j)] = cell
    prod = member_series(key, TruncationWindow(meta.val_q + 24 * depth, 0)).mul(quo)
    levels = [prod.cells.get((0, meta.val_q + 24 * j), {}) for j in range(depth + 1)]
    rows = series._qz_rows({j: quo.cells[(0, 24 * j)] for j in range(depth + 1)},
                           meta.r, np.int64)
    f = series._frame(-rows[3], rows[3], depth)
    g, [(k, v)] = jacobi.multiply_by_member(f, [series._qz_pack(rows, f)], key, depth)
    axes = jacobi._sign_axes(meta)
    orthant = [{z: c for z, c in sl.items() if all(z[i] > 0 for i in axes)} for sl in levels]
    assert series._qz_decode(k, v, g) == {j: sl for j, sl in enumerate(orthant) if sl}
    assert divide_slices(levels, key, depth) == [quo.cells[(0, 24 * j)]
                                                 for j in range(depth + 1)]
    z = sorted(levels[depth])[len(levels[depth]) // 2]
    levels[depth][z] += 1
    with pytest.raises(ArithmeticError):
        divide_slices(levels, key, depth)
    assert True not in folds


def test_division_quotient_wider_than_its_dividend():
    """psi_0 / psi spreads by about 2 (D) or 6 (A2) per level beyond the
    single dividend cell, so the packed grid needs its derived margin."""
    depth = 4
    for key in ("psi_10_D2", "psi_9_A2", "psi_6_2A2", "eta21_theta2z",
                "psi_2_4A1", "psi_8_D4"):
        meta = MEMBERS[key]
        w = TruncationWindow(meta.val_q + 24 * depth, 0)
        num = FourierSeries(meta.r, meta.den_z, w)
        num.cells[(0, meta.val_q)] = dict(member_slice(key, meta.val_q))
        want = num.div(member_series(key, w))
        got = divide_slices([num.cells[(0, meta.val_q)]], key, depth)
        assert got[depth]
        for j in range(depth + 1):
            assert got[j] == want.cells.get((0, 24 * j), {})


@pytest.mark.parametrize("key", ["psi_8_D4", "eta21_theta2z", "psi_6_2A2", "psi_3_3A1"])
def test_quotient_does_not_depend_on_the_dividend_frame(monkeypatch, key):
    """The same dividend levels packed in their tight symmetric frame and
    in a wider, asymmetric, unsheared one give the quotient of the
    ``FourierSeries.div`` oracle, and a dividend with a remainder is
    refused in both.  Neither folds a coordinate: the dividend is not
    odd, so it goes in whole, and the wide frame is not symmetric on any
    axis (the orthant contract folds only axes a frame holds
    symmetrically)."""
    folds = _spy_folds(monkeypatch)
    meta = MEMBERS[key]
    depth = 3
    rng = random.Random("frame " + key)
    quo = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * depth, 0))
    for j in range(depth + 1):
        quo.cells[(0, 24 * j)] = {tuple(rng.randint(-3, 3) for _ in range(meta.r)):
                                  rng.choice([-5, -2, 1, 3, 7]) for _ in range(4)}
    psi = member_series(key, TruncationWindow(meta.val_q + 24 * depth, 0))
    num = psi.mul(quo)
    want = num.div(psi)
    levels = [num.cells.get((0, meta.val_q + 24 * j), {}) for j in range(depth + 1)]
    reach = np.abs([z for sl in levels for z in sl]).max(axis=0)
    skew = np.arange(1, meta.r + 1)
    wide = series._frame(-reach - skew, reach + 3 * skew + 2, depth)
    bad = [dict(sl) for sl in levels]
    z = sorted(bad[1])[len(bad[1]) // 2]
    bad[1][z] += 1
    for frame in (None, wide):
        got = divide_slices(levels, key, depth, frame)
        assert got == [want.cells.get((0, 24 * j), {}) for j in range(depth + 1)]
        assert got == [quo.cells[(0, 24 * j)] for j in range(depth + 1)]
        with pytest.raises(ArithmeticError):
            divide_slices(bad, key, depth, frame)
    assert not np.any(wide.lo == -wide.hi)
    assert True not in folds


SIGN_MEMBERS = [key for key, meta in MEMBERS.items() if meta.family != "A2"]


def _hecke_dividend(key: str, depth: int) -> tuple:
    """(frame, keys, values) that ``phi0_by_division`` divides: psi|V_p on
    levels 0..depth, packed, level digit left out, keys sorted, on z_i > 0
    of the sign axes as ``hecke_levels`` builds it from the block rows."""
    f, [(k, v)] = jacobi.hecke_levels(key, [MEMBERS[key].hecke_p], depth)
    spans = list(itertools.pairwise(np.searchsorted(k, np.arange(depth + 2) * f.stq).tolist()))
    return f, [k[a:b] - j * f.stq for j, (a, b) in enumerate(spans)], [v[a:b] for a, b in spans]


@pytest.mark.parametrize("key", SIGN_MEMBERS)
def test_orthant_division_equals_the_full_loop(monkeypatch, key):
    """psi|V_p is odd in every coordinate of a D, D1 or A1 block, so it is
    built and divided on one sign orthant, every coordinate folded.  At
    depths 0-4 that quotient equals the full loop's on the dividend
    mirrored out whole (``_sign_axes`` made to fold nothing): frame,
    sorted keys, values and dtype, on int64 and on the python-int rerun
    that a 2^62 bound lowered to 1 forces on both."""
    meta = MEMBERS[key]
    axes = list(range(meta.r))
    for depth in range(5):
        f, keys, vals = _hecke_dividend(key, depth)
        whole = [jacobi._mirror_out(k, v, f, axes, -1) for k, v in zip(keys, vals)]
        out = {}
        for full, safe in itertools.product((False, True), (series._INT64_SAFE, 1)):
            with monkeypatch.context() as m:
                mirrors = _spy_mirrors(m)
                if full:
                    m.setattr(jacobi, "_sign_axes", lambda *a: [])
                m.setattr(jacobi, "_INT64_SAFE", safe)
                out[full, safe] = jacobi.divide_by_member(
                    *(zip(*whole) if full else (keys, vals)), f, key, depth)
            # each axis mirrored once before its theta factor and once at
            # the end, in the run that finishes (the lowered bound stops
            # the int64 run before its first theta factor)
            assert sorted(set(mirrors)) == ([] if full else [-1, 1]), (key, depth)
            assert len(mirrors) == (0 if full else 2 * meta.r * (depth + 1))
        for safe, dtype in ((series._INT64_SAFE, np.int64), (1, object)):
            (g, quo), (g_full, quo_full) = out[False, safe], out[True, safe]
            assert all(np.array_equal(a, b) for a, b in zip(g, g_full)), (key, depth)
            assert len(quo) == len(quo_full) == depth + 1
            for (k, v), (k_full, v_full) in zip(quo, quo_full):
                assert np.array_equal(k, k_full) and np.all(np.diff(k) > 0), (key, depth)
                assert np.array_equal(v, v_full) and v.dtype == v_full.dtype == dtype
        assert any(len(k) for k, _ in quo)


@pytest.mark.parametrize("key", ["psi_8_D4", "eta21_theta2z", "psi_3_3A1"])
def test_division_refuses_a_whole_dividend_in_a_symmetric_frame(key):
    """Under the orthant contract a dividend in a frame symmetric on the
    sign axes is the z_i > 0 part of an odd one: psi|V_p mirrored out
    whole there is refused (a ValueError, not a wrong quotient), and in a
    frame symmetric on no axis the same whole dividend gives the quotient
    of its orthant."""
    depth = 2
    f, keys, vals = _hecke_dividend(key, depth)
    axes = jacobi._sign_axes(MEMBERS[key])
    whole = [jacobi._mirror_out(k, v, f, axes, -1) for k, v in zip(keys, vals)]
    with pytest.raises(ValueError, match="orthant"):
        jacobi.divide_by_member(*zip(*whole), f, key, depth)
    g, want = jacobi.divide_by_member(keys, vals, f, key, depth)
    wide = series._frame(f.lo, f.hi + 1, 0)
    h, got = jacobi.divide_by_member([series._restride(k, f, wide) for k, _ in whole],
                                     [v for _, v in whole], wide, key, depth)
    assert [series._qz_decode(k, v, h) for k, v in got] == \
        [series._qz_decode(k, v, g) for k, v in want]


def test_even_check_refuses_every_asymmetry():
    """Weight-0 rows even in both axes, in packed-key order, pass
    ``jacobi._check_even``, keys on an axis included; a key missing its
    image, an image with another value or negated, rows out of order and
    a key given twice are refused, and with no axis nothing is checked."""
    even = {(0, 0): 7, (0, 1): 4, (0, -1): 4, (2, 0): 3, (-2, 0): 3}
    for a, b in ((1, 2), (3, 1)):
        even.update({(s * a, t * b): 5 * a + b for s in (1, -1) for t in (1, -1)})

    def check(cells, level=1, unsorted=False, dup=False):
        rows = sorted((level, z, c) for z, c in cells.items())
        if dup:
            rows.append(rows[-1])
        if unsorted:
            rows = rows[::-1]
        lv, z, v = zip(*rows)
        return jacobi._check_even((np.array(lv), np.array(z, dtype=np.int64), np.array(v)), [0, 1])

    check(even)
    for bad in ({z: c for z, c in even.items() if z != (-3, -1)}, {**even, (-3, -1): 1},
                {**even, (-1, 2): -even[(-1, 2)]}, {**even, (0, -1): -4}):
        with pytest.raises(ValueError, match="not even"):
            check(bad)
    for kw in ({"unsorted": True}, {"dup": True}):
        with pytest.raises(ValueError, match="not even"):
            check(even, **kw)
    jacobi._check_even((np.zeros(1, np.int64), np.array([[1, 0]]), np.array([1])), [])


def test_orthant_binomial_passes_see_a_twentieth_of_the_keys(monkeypatch):
    """psi_4_D8's depth-2 division: its binomial passes, summed over every
    theta factor and level, see at most 1/20 of the keys the full loop's
    see."""
    key, depth = "psi_4_D8", 2
    f, keys, vals = _hecke_dividend(key, depth)
    whole = [jacobi._mirror_out(k, v, f, list(range(8)), -1) for k, v in zip(keys, vals)]
    seen = {}
    for full in (False, True):
        with monkeypatch.context() as m:
            calls, real = [], jacobi._binomial_packed
            m.setattr(jacobi, "_binomial_packed", lambda k, *a: calls.append(len(k)) or real(k, *a))
            if full:
                m.setattr(jacobi, "_sign_axes", lambda *a: [])
            jacobi.divide_by_member(*(zip(*whole) if full else (keys, vals)), f, key, depth)
        seen[full] = sum(calls)
    assert 20 * seen[False] <= seen[True]


def test_division_rejects_a_corrupt_d_dividend(monkeypatch):
    """The D twin of the A2 test: a unit added to one key of psi|V_2 leaves
    a remainder at level 0 and at level 2.  The dividend is then not odd,
    so the full loop finds it."""
    key = "psi_8_D4"
    val = MEMBERS[key].val_q
    levels = [member_hecke_slice(key, 2, val + 24 * j) for j in range(4)]
    assert divide_slices([dict(sl) for sl in levels], key, 3)[3]
    folds = _spy_folds(monkeypatch)
    for j in (0, 2):
        bad = [dict(sl) for sl in levels]
        z = sorted(bad[j])[len(bad[j]) // 2]
        bad[j][z] += 1
        with pytest.raises(ArithmeticError):
            divide_slices(bad, key, 3)
    assert folds == [False, False]


@pytest.mark.parametrize("key", ["psi_8_D4", "psi_3_3A1", "eta21_theta2z"])
def test_an_odd_corruption_is_divided_on_the_orthant(monkeypatch, key):
    """A unit added at a key together with all its sign images, negated
    once per flipped sign, keeps psi|V_2 odd, so the orthant path divides
    it.  Every odd Laurent polynomial is divisible by zeta - zeta^-1, so
    on the D and A1 blocks the corrupted dividend still has an exact
    quotient, and it is the ``FourierSeries.div`` oracle's.  On the
    doubled rank-one block an odd exponent is not divisible by
    zeta^2 - zeta^-2: the corruption leaves a remainder."""
    meta = MEMBERS[key]
    depth = 3
    w = TruncationWindow(meta.val_q + 24 * depth, 0)
    num = FourierSeries(meta.r, meta.den_z, w)
    for j in range(depth + 1):
        num.cells[(0, meta.val_q + 24 * j)] = member_hecke_slice(key, meta.hecke_p,
                                                                 meta.val_q + 24 * j)
    z0 = (1,) if meta.family == "D1" else max(num.cells[(0, meta.val_q + 48)])
    assert all(z0)
    for signs in itertools.product((1, -1), repeat=meta.r):
        num.add_term(meta.val_q + 48, tuple(s * a for s, a in zip(signs, z0)), 0,
                     int(np.prod(signs)))
    levels = [num.cells.get((0, meta.val_q + 24 * j), {}) for j in range(depth + 1)]
    folds = _spy_folds(monkeypatch)
    if meta.family == "D1":
        with pytest.raises(ArithmeticError):
            divide_slices(levels, key, depth)
    else:
        want = num.div(member_series(key, w))
        assert divide_slices(levels, key, depth) == [want.cells.get((0, 24 * j), {})
                                                      for j in range(depth + 1)]
    assert folds == [True]


@st.composite
def _even_quotients(draw):
    """(member, depth, [{z: value} per level], dtype): sparse terms of a
    random member's quotient at depth 0-3, values small or within 2^10 of
    +-2^62 (which sends the multiply, and so the division, to python
    ints), to be held as int64 or as python ints."""
    key = draw(st.sampled_from(list(MEMBERS)))
    r, depth = MEMBERS[key].r, draw(st.integers(0, 3))
    big = st.integers(2 ** 62 - 2 ** 10, 2 ** 62)
    value = st.one_of(st.integers(-9, 9).filter(bool), big, big.map(lambda v: -v))
    cell = st.dictionaries(st.tuples(*[st.integers(-3, 3)] * r), value, max_size=3)
    return key, depth, draw(st.lists(cell, min_size=depth + 1, max_size=depth + 1)), \
        draw(st.sampled_from([np.int64, object]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_even_quotients())
@example(("psi_4_D8", 3, [{}, {}, {(1, -1, 2, 0, 0, 3, -2, 1): 7}, {}], np.int64))
@example(("psi_3_3A2", 2, [{(3, -3, 0, 0, 6, 6): 2 ** 62}, {}, {}], object))
def test_division_inverts_the_multiply_under_the_orthant_contract(case):
    """``divide_by_member(multiply_by_member(x)) == x`` for a sparse x even
    in the member's sign axes (each drawn term completed by its sign
    images, one value, later terms first): the multiply gives the odd
    product's part on z_i > 0 of those axes in a symmetric frame, which
    is exactly the dividend the division takes, and the division gives x
    back whole, keys sorted, on int64 or, past 2^62, on python ints."""
    key, depth, terms, dtype = case
    meta = MEMBERS[key]
    axes = jacobi._sign_axes(meta)
    levels = [{} for _ in terms]
    for sl, cell in zip(levels, terms):
        for z, c in cell.items():
            for signs in itertools.product((1, -1), repeat=len(axes)):
                img = list(z)
                for i, sg in zip(axes, signs):
                    img[i] *= sg
                sl.setdefault(tuple(img), c)
    if not any(levels):
        levels[0][(0,) * meta.r] = 1
    lv, z, v = zip(*[(j, t, c) for j, sl in enumerate(levels) for t, c in sl.items()])
    z, lv = np.array(z, dtype=np.int64).reshape(-1, meta.r), np.array(lv)
    box = np.abs(z).max(axis=0)
    f = series._frame(-box, box, depth)
    k = series._encode(z, f, lv)
    o = np.argsort(k)
    big = max(map(abs, v)) >= 2 ** 62 - 2 ** 10
    g, [(pk, pv)] = jacobi.multiply_by_member(f, [(k[o], np.array(v, dtype=dtype)[o])], key, depth)
    assert pv.dtype == (object if big or dtype is object else np.int64)
    assert jacobi._orthant(pk, g, axes, 1).all()
    spans = list(itertools.pairwise(np.searchsorted(pk, np.arange(depth + 2) * g.stq).tolist()))
    h, quo = jacobi.divide_by_member([pk[a:b] - j * g.stq for j, (a, b) in enumerate(spans)],
                                     [pv[a:b] for a, b in spans], g, key, depth)
    assert len(quo) == depth + 1
    for (qk, qv), sl in zip(quo, levels):
        assert np.all(np.diff(qk) > 0)
        assert dict(zip(map(tuple, series._decode(qk, h).tolist()), qv.tolist())) == sl


# the deepest block level that c05 and the sweep windows read, per member
READ_DEPTH = {"psi_10_D2": 31, "eta21_theta2z": 31, "psi_9_A2": 31, "psi_5_A1": 46,
              "psi_4_2A1": 46, "psi_3_3A1": 25, "psi_2_4A1": 25}


@pytest.mark.parametrize("key", list(MEMBERS))
def test_block_rows_stay_int16_where_they_are_read(key):
    """The block's rows are decoded into int16 through the deepest level
    that the benchmark windows and c05 read (c05 builds them too), as they
    were when the choice followed the rows' own max |z|; each level's
    reach and max |v| are those of its rows."""
    meta = MEMBERS[key]
    depth = READ_DEPTH.get(key, 17)
    jacobi._member_rows(key, meta.val_q + 24 * depth)
    levels = jacobi._PSI_LEVELS[key][:depth + 1]
    assert len(levels) == depth + 1
    for z, v, reach, vmax in levels:
        assert z.dtype == np.int16 and not z.flags.writeable
        top = np.maximum(z.max(axis=0, initial=0), -z.min(axis=0, initial=0).astype(np.int64))
        assert np.array_equal(reach, top) and reach.max(initial=0) < 1 << 15
        assert vmax == int(np.abs(v).max(initial=0))


def test_division_input_errors_are_loud():
    with pytest.raises(TypeError):
        divide_slices([{(1, 1): Fraction(1)}], "psi_10_D2", 0)
    far = 2 ** 40 + 1
    with pytest.raises(ValueError, match="span too wide"):
        divide_slices([{(1, 1): 1, (far, far): 1}], "psi_10_D2", 0)


def _binomial_dividend(rng, s, span, n_lines, dtype):
    """Sorted packed keys and values of random quotient lines times
    (zeta^s - zeta^-s), lines drawn with gaps between them."""
    keys, vals = [], []
    for line in sorted(rng.sample(range(3 * n_lines), n_lines)):
        acc = {}
        for _ in range(rng.randint(1, 6)):
            d = rng.randrange(abs(s), span - abs(s))
            c = rng.choice([-3, -1, 1, 2, 5]) * (2 ** 70 if dtype is object else 1)
            acc[d + s] = acc.get(d + s, 0) + c
            acc[d - s] = acc.get(d - s, 0) - c
        for d in sorted(acc):
            if acc[d]:
                keys.append(line * span + d)
                vals.append(acc[d])
    return np.array(keys, dtype=np.int64), np.array(vals, dtype=dtype)


@pytest.mark.parametrize("s", [1, -1, 2, -2, 3, -3, 6, -6])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_binomial_packed_equals_the_per_class_oracle(s, dtype):
    """The one-pass division equals the old per-residue body, keys, order
    and dtype included, in one block and (for two s) split by the cell
    cap into several; a +1 anywhere leaves a remainder in both."""
    rng = random.Random(100 * s + (dtype is object))
    cases = [(64, 40)]
    if s in (2, -6):
        cases.append((1 << 17, 40))  # 16 lines per block: three blocks
    for span, n_lines in cases:
        keys, vals = _binomial_dividend(rng, s, span, n_lines, dtype)
        got = jacobi._binomial_packed(keys, vals, span, s)
        want = oracles.binomial_packed(keys, vals, span, s)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert got[1].dtype == want[1].dtype == np.dtype(dtype)
        bad = vals.copy()
        bad[rng.randrange(len(bad))] += 1
        for div in (jacobi._binomial_packed, oracles.binomial_packed):
            with pytest.raises(ArithmeticError, match="remainder"):
                div(keys, bad, span, s)


@pytest.mark.parametrize("s, dtype", [(1, np.int64), (-3, np.int64), (2, object)])
def test_binomial_packed_on_ragged_lines_equals_the_oracle(s, dtype):
    """Lines of very different lengths, most a few digits wide at scattered
    offsets and a few across the whole span, where a dense (class, line,
    column) block is mostly padding: keys, order and dtype equal the
    oracle's, and a +1 anywhere leaves a remainder."""
    rng = random.Random("ragged %d" % s)
    span, step = 1 << 10, 2 * abs(s)
    keys, vals = [], []
    for line in sorted(rng.sample(range(400), 120)):
        lo = rng.randrange(abs(s), span - abs(s) - 4 * step)
        hi = span - abs(s) if line % 40 == 0 else lo + 4 * step
        acc = {}
        for _ in range(rng.randint(1, 4)):
            d = rng.randrange(lo, hi)
            c = rng.choice([-3, -1, 1, 2, 5]) * (2 ** 70 if dtype is object else 1)
            acc[d + s] = acc.get(d + s, 0) + c
            acc[d - s] = acc.get(d - s, 0) - c
        keys += [line * span + d for d in sorted(acc) if acc[d]]
        vals += [acc[d] for d in sorted(acc) if acc[d]]
    keys, vals = np.array(keys, dtype=np.int64), np.array(vals, dtype=dtype)
    got = jacobi._binomial_packed(keys, vals, span, s)
    want = oracles.binomial_packed(keys, vals, span, s)
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    assert got[1].dtype == want[1].dtype == np.dtype(dtype)
    dense = len(np.unique(keys // span)) * (int(np.ptp(keys % span)) + 1)  # the old block's cells
    assert dense > 20 * len(got[0])
    bad = vals.copy()
    bad[rng.randrange(len(bad))] += 1
    with pytest.raises(ArithmeticError, match="remainder"):
        jacobi._binomial_packed(keys, bad, span, s)


@pytest.mark.parametrize("key", list(MEMBERS))
def test_restride_equals_decode_and_encode_on_the_division_frames(monkeypatch, key):
    """Every frame move of a depth-3 division, the entry of the multiply
    by the block into its frame, and a move into a product frame widened
    as ``compare_lift_product`` widens it: each pair, both ways, gives on
    seeded keys (with a level digit where the frames carry levels) what
    ``_encode(_decode(...))`` gives, and no move calls ``_decode``.  Every
    A2 member moves into and out of a sheared frame, and no other does."""
    depth = 3
    f, layers = jacobi.hecke_levels(key, [1], depth)
    phi0_by_division(key, depth)  # the block's rows built: below, only the division moves
    real_decode, decodes = series._decode, []

    def count(*args):
        decodes.append(1)
        return real_decode(*args)

    moves, real = {}, jacobi._restride

    def spy(k, a, b):
        moves.setdefault((id(a), id(b)), (a, b))
        return real(k, a, b)

    monkeypatch.setattr(series, "_decode", count)
    monkeypatch.setattr(jacobi, "_restride", spy)
    phi0_by_division(key, depth)
    division = [(a, b, 0) for a, b in moves.values()]
    moves.clear()
    g, _ = jacobi.multiply_by_member(f, layers, key, depth)
    assert [(a is f, b is g) for a, b in moves.values()] == [(True, True)]
    assert decodes == []
    wide = series._frame(-g.hi - 1, g.hi + 1, depth)
    rng = np.random.default_rng(len(key))
    for i, (a, b, top) in enumerate(division + [(f, g, depth), (g, wide, depth)]):
        for x, y in ((a, b), (b, a)):
            k = rng.integers(0, (top + 1) * x.stq, 2000)
            got = series._restride(k, x, y)
            assert decodes == [], (key, i)
            assert np.array_equal(got, series._encode(real_decode(k, x), y, k // x.stq)), (key, i)
    assert len(division) == len(jacobi._corner_dirs(MEMBERS[key]))
    assert any(b.minv is not None for _, b, _ in division) == (MEMBERS[key].family == "A2")


@pytest.mark.parametrize("key", list(MEMBERS))
def test_phi0_rows_come_in_packed_key_order(key):
    """The held phi0 rows, and the rows ``weight0_rows`` converts for a
    copy of phi0 whose cells were inserted in reverse, are equal and
    strictly increasing in packed-key order, (level, z lexicographic)."""
    depth = 3
    phi = weak_weight0(key, depth).series
    held = jacobi.weight0_rows(key, phi, depth)
    rev = FourierSeries(phi.r, phi.den_z, TruncationWindow(24 * depth, 0))
    for lv, z, c in reversed(list(zip(held[0].tolist(), map(tuple, held[1].tolist()),
                                      held[2].tolist()))):
        rev.cells.setdefault((0, 24 * lv), {})[z] = c
    conv = jacobi.weight0_rows(key, rev, depth)
    assert all(np.array_equal(a, b) for a, b in zip(held, conv))
    for lv, z, _ in (held, conv):
        box = np.abs(z).max(axis=0)
        assert np.all(np.diff(series._encode(z, series._frame(-box, box, depth), lv)) > 0)


def test_held_phi0_rows_keep_their_division_dtype(monkeypatch, fresh_memos):
    """Every member's held phi0 rows are int64, as its division's quotient
    is.  A division forced onto python ints (the 2^62 bound lowered to 1,
    the block built before) holds object rows of the same values, and
    held in their place they give the same E_j and psi * E_j as the int64
    rows."""
    for key in MEMBERS:
        assert weak_weight0(key, 2).series.rows[2].dtype == np.int64, key
    key, j_max, q_depth = "psi_8_D4", 2, 2
    held = weak_weight0(key, j_max * q_depth)
    want = [exp_series(key, j_max, q_depth, psi) for psi in (False, True)]
    with monkeypatch.context() as m:
        m.setattr(jacobi, "_INT64_SAFE", 1)
        wide = phi0_by_division(key, j_max * q_depth)
    assert wide.series.rows[2].dtype == object
    assert all(type(c) is int for c in wide.series.rows[2].tolist())
    assert all(np.array_equal(a, b) for a, b in zip(wide.series.rows, held.series.rows))
    monkeypatch.setitem(jacobi._PHI0_CACHE, key, wide)
    monkeypatch.setattr(borcherds, "_EXP_MEMO", {})
    got = [exp_series(key, j_max, q_depth, psi) for psi in (False, True)]
    assert all(v.dtype == object for _, v in borcherds.exp_layers(key, j_max, q_depth)[1])
    assert [[layer.cells for layer in e] for e in got] == [[layer.cells for layer in e]
                                                            for e in want]


@pytest.mark.parametrize("key, per_level", [("psi_9_A2", 6), ("psi_4_D8", 2)])
def test_division_margin_per_axis(key, per_level):
    """The division's margin grows by the largest per-level growth of the
    factors on an axis: 2 per level on D8, and 6 on A2, where the three
    factors of a copy share one margin rather than adding to 12."""
    meta = MEMBERS[key]
    for depth in range(1, 5):
        pad = jacobi._pad(jacobi._factor_stack(meta, depth), depth, meta.r)
        assert pad == [per_level * depth] * meta.r


def test_division_near_2_62_reruns_on_python_ints(monkeypatch):
    """Dividend entries below 2^62 whose steps could pass it: the int64
    pass gives up and the object-dtype rerun is exact."""
    key, depth = "psi_9_A2", 3
    meta = MEMBERS[key]
    rng = random.Random(62)
    quo = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * depth, 0))
    for _ in range(20):
        z = tuple(rng.randrange(-6, 7) for _ in range(meta.r))
        quo.add_term(24 * rng.randrange(depth + 1), z, 0,
                     rng.randrange(-2 ** 54, 2 ** 54))
    psi = member_series(key, TruncationWindow(meta.val_q + 24 * depth, 0))
    num = psi.mul(quo)
    levels = [dict(num.cells.get((0, meta.val_q + 24 * j), {}))
              for j in range(depth + 1)]
    assert 2 ** 61 <= max(abs(c) for sl in levels for c in sl.values()) < 2 ** 62
    dtypes = []
    real = jacobi._divide_packed

    def spy(*args):
        dtypes.append(args[-1])
        return real(*args)

    monkeypatch.setattr(jacobi, "_divide_packed", spy)
    got = divide_slices(levels, key, depth)
    assert dtypes == [np.int64, object]
    want = num.div(psi)
    for j in range(depth + 1):
        assert got[j] == want.cells.get((0, 24 * j), {})
        assert got[j] == quo.cells.get((0, 24 * j), {})
    # eight entries of 2^61 on one line sum to 2^64, which int64 reads as
    # zero: the line is not divisible by the binomial all the same
    wrap = {}
    for k in range(8):
        wrap[(2 * k + 1, 1)] = 2 ** 61
        wrap[(2 * k + 1, -1)] = -2 ** 61
    with pytest.raises(ArithmeticError):
        divide_slices([wrap], "psi_10_D2", 0)


def test_phi0_weight0_tautology():
    """psi|V_2 = -psi * phi0, the defining relation of the quotient."""
    key = "psi_8_D4"
    meta = MEMBERS[key]
    depth = 3
    phi = weak_weight0(key, depth)
    psi = member_series(key, TruncationWindow(meta.val_q + 24 * depth, 0))
    rhs = -psi.mul(phi.series)
    lhs = FourierSeries(meta.r, meta.den_z, rhs.window)
    for j in range(depth + 1):
        q = meta.val_q + 24 * j
        sl = member_hecke_slice(key, 2, q)
        if sl:
            lhs.cells[(0, q)] = sl
    assert lhs.first_difference(rhs) is None


def test_hecke_subst_agrees_with_divisor_form():
    for key, m in (("psi_5_D7", 2), ("psi_5_D7", 3), ("psi_9_A2", 2)):
        f = build(key, TruncationWindow(24 * 4 * m, 0))
        b = hecke_Vm_subst(f, m).series
        for n in range(5):
            assert member_hecke_slice(key, m, 24 * n) == b.cells.get((0, 24 * n), {})


def test_hecke_on_half_grid_rules():
    f = build("psi_5_A1", TruncationWindow(12 + 24 * 4, 0))
    with pytest.raises(ValueError):
        hecke_Vm_subst(f, 3)
    with pytest.raises(ValueError):
        member_hecke_slice("psi_5_A1", 2, 36)
    for m in (0, -2):
        with pytest.raises(ValueError):
            member_hecke_slice("psi_9_A2", m, 48)
    sl = member_hecke_slice("psi_5_A1", 3, 36)
    assert sl and all(len(z) == 1 for z in sl)


def _hecke_levels_as_dicts(key, orders, depth):
    """jacobi.hecke_levels as {(order, j): slice dict}, each layer mirrored
    out whole from z_i > 0 of the sign axes, where every key of it lies;
    every layer's keys strictly increase and its reach bound
    (``jacobi._part_specs``) fits the frame."""
    f, layers = jacobi.hecke_levels(key, orders, depth)
    axes = jacobi._sign_axes(MEMBERS[key])
    out = {}
    for m, (k, v), reach in zip(orders, layers, hecke_reach(key, orders, depth)):
        assert np.all(np.diff(k) > 0) and np.all(reach <= f.hi)
        assert jacobi._orthant(k, f, axes, 1).all()
        for j, sl in series._qz_decode(*jacobi._mirror_out(k, v, f, axes, -1), f).items():
            out[(m, j)] = sl
    return out


def _hecke_dicts(key, orders, depth):
    val = MEMBERS[key].val_q
    return {(m, j): sl for m in orders for j in range(depth + 1)
            if (sl := member_hecke_slice(key, m, val + 24 * j))}


def test_hecke_levels_equal_the_dict_translates():
    """The packed dividend builder against the divisor-sum dicts, for the
    layer orders of every member and its phi0 translate."""
    for key, meta in MEMBERS.items():
        orders = [m for _, m in lift_layers(key, 6)] + [meta.hecke_p]
        depth = 4 if meta.r <= 4 else 2 if meta.r <= 6 else 1
        assert _hecke_levels_as_dicts(key, orders, depth) == _hecke_dicts(key, orders, depth), key


def test_hecke_levels_past_2_62_run_on_python_ints(monkeypatch):
    """Member slices and packed block rows scaled by 2^60: weighted by
    d^(k-1) and summed over divisors they pass 2^63, and the levels must
    come out exact."""
    real, real_rows = jacobi.member_slice, jacobi._member_rows
    monkeypatch.setattr(jacobi, "member_slice",
                        lambda key, q: {z: c << 60 for z, c in real(key, q).items()})

    def scaled_rows(key, q):
        z, v, reach, vmax = real_rows(key, q)
        return z, v.astype(object) << 60, reach, vmax << 60

    monkeypatch.setattr(jacobi, "_member_rows", scaled_rows)
    key, orders, depth = "psi_10_D2", [1, 2, 3, 4], 5
    got = _hecke_levels_as_dicts(key, orders, depth)
    assert got == _hecke_dicts(key, orders, depth)
    assert max(abs(c) for sl in got.values() for c in sl.values()) >= 2 ** 63


def test_hecke_levels_past_2_62_in_one_layer_run_every_layer_on_python_ints(monkeypatch):
    """Block rows scaled by 2^48 stay int64 and keep every order-1 bound
    below 2^62; the order-2 layer weighs its d = 2 parts 2^9 = 2^(wt-1)
    and passes it.  That one layer puts every layer on python ints, one
    dtype for the whole result, and both layers equal the dict translates
    of the scaled slices; the order-1 layer alone stays on int64."""
    real, real_rows = jacobi.member_slice, jacobi._member_rows
    monkeypatch.setattr(jacobi, "member_slice",
                        lambda key, q: {z: c << 48 for z, c in real(key, q).items()})

    def scaled_rows(key, q):
        z, v, reach, vmax = real_rows(key, q)
        return z, v << 48, reach, vmax << 48

    monkeypatch.setattr(jacobi, "_member_rows", scaled_rows)
    key, orders, depth = "psi_10_D2", [1, 2], 3
    _, layers = jacobi.hecke_levels(key, orders, depth)
    assert [v.dtype for _, v in layers] == [object, object]
    assert all(type(c) is int for _, v in layers for c in v.tolist())
    assert _hecke_levels_as_dicts(key, orders, depth) == _hecke_dicts(key, orders, depth)
    _, [(_, v)] = jacobi.hecke_levels(key, [1], depth)
    assert v.dtype == np.int64


def test_divisor_terms_equal_a_brute_force_oracle():
    """(d, n m / d^2) for every common divisor d of n and m, increasing,
    for 0 <= n, m <= 60: every divisor of m when n = 0, none for n = m = 0."""
    for n in range(61):
        for m in range(61):
            want = [(d, n * m // (d * d)) for d in range(1, max(n, m) + 1)
                    if n % d == 0 and m % d == 0]
            assert jacobi._divisor_terms(n, m) == want, (n, m)


def test_hecke_slice_matches_series_operator():
    key, m = "psi_9_A2", 2
    f = build(key, TruncationWindow(24 * 8, 0))
    op = hecke_Vm_subst(f, m)
    for n in range(1, 5):
        cell = op.series.cells.get((0, 24 * n), {})
        assert member_hecke_slice(key, m, 24 * n) == cell


def test_quasi_pullback_steps_down_the_tower():
    w = TruncationWindow(96, 0)
    for k in range(3, 9):
        src = build("psi_%d_D%d" % (12 - k, k), w)
        tgt = build("psi_%d_D%d" % (12 - (k - 1), k - 1), w)
        qp = quasi_pullback(src, k - 1)
        assert qp.weight == tgt.weight
        assert qp.lattice_name == tgt.lattice_name
        assert qp.series.first_difference(tgt.series) is None


def test_dual_coordinate_roundtrip():
    for family, z in (("D", (3, -1, 2)), ("D1", (4,)), ("A2", (6, -12)),
                      ("A1", (2, 0, -4))):
        assert z_from_dual(family, dual_from_z(family, z)) == z
    with pytest.raises(ValueError):
        z_from_dual("D", (Fraction(1, 3),))
