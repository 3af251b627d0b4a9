"""Borcherds products: exponential form, literal product, divisor scan."""

import random
from fractions import Fraction

import numpy as np
import pytest

from refltower.series import FourierSeries, TruncationWindow, _slice_mul_py
from refltower import borcherds, jacobi, lifting, series, verification

import oracles
from oracles import exp_s


def test_weyl_data():
    wd = borcherds.weyl_data("psi_4_D8")
    assert wd == ((24, (-1,) * 8, 2, 1))
    wd = borcherds.weyl_data("psi_5_A1")
    assert wd == ((12, (-1,), 1, -1))
    wd = borcherds.weyl_data("eta21_theta2z")
    assert wd == ((24, (-2,), 2, -1))
    # the Weyl monomial is the lex-lowest corner term of the block
    sl = jacobi.member_slice("eta21_theta2z", 24)
    assert sl[(-2,)] == -1 and min(sl) == (-2,)


def test_hecke_v0_relabels_towards_longer_vectors():
    phi = jacobi.weak_weight0("psi_5_A1", 4).series
    v2 = borcherds.hecke_v0(phi, 2, 2)
    assert v2.cells[(0, 0)] == {
        (-4,): Fraction(1, 2), (-2,): 1, (0,): 15,
        (2,): 1, (4,): Fraction(1, 2)}
    # odd output rows see only d = 1, so they copy deep slices of phi
    assert v2.cells[(0, 24)] == phi.cells[(0, 48)]


def test_exp_layers_match_direct_formulas():
    for key in ("psi_10_D2", "psi_2_4A1"):
        E = borcherds.exp_layers(key, 2, 3)
        phi = jacobi.weak_weight0(key, 6).series
        win = E[1].window
        assert E[0].term_count() == 1 and E[0].coefficient(0, (0,) * E[0].r) == 1
        assert E[1].first_difference((-phi).truncated(win)) is None
        direct = phi.mul(phi, win).scaled(Fraction(1, 2)) \
            - borcherds.hecke_v0(phi, 2, 3)
        assert E[2].first_difference(direct) is None


def test_exponential_form_equals_lift():
    w = TruncationWindow(72, 4)
    for key in ("psi_10_D2", "psi_9_A2", "psi_5_A1"):
        B = borcherds.borcherds_exp(key, w)
        L = lifting.gritsenko_lift(key, w).series
        assert B.first_difference(L) is None


# (q_max, s_max) per member: the largest windows that keep the product
# against the exponential form to a few seconds (under ten for all twelve
# members outside A2); D8 reaches only the block layer.
PRODUCT_WINDOWS = {
    "psi_10_D2": (120, 6), "psi_9_D3": (120, 6), "psi_8_D4": (96, 4),
    "psi_7_D5": (72, 4), "psi_6_D6": (48, 4), "psi_5_D7": (48, 4),
    "psi_4_D8": (96, 2), "eta21_theta2z": (120, 6), "psi_9_A2": (120, 6),
    "psi_6_2A2": (96, 4), "psi_3_3A2": (48, 4), "psi_5_A1": (120, 6),
    "psi_4_2A1": (120, 6), "psi_3_3A1": (120, 6), "psi_2_4A1": (96, 4),
}
A2_MEMBERS = [key for key, meta in jacobi.MEMBERS.items() if meta.family == "A2"]


def _product_equals_exponential(key):
    w = TruncationWindow(*PRODUCT_WINDOWS[key])
    P = borcherds.borcherds_product_form(key, w)
    B = borcherds.borcherds_exp(key, w)
    assert P.first_difference(B) is None, key


def test_product_form_equals_exponential_form():
    for key in PRODUCT_WINDOWS:
        if key not in A2_MEMBERS:
            _product_equals_exponential(key)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the literal product halves the z-only walls lexicographically (z <= 0), "
    "which keeps (6,-6) where the A2 corner directions need (-6,6); the "
    "product first differs at the corner cell (2, 24)"))
@pytest.mark.parametrize("key", A2_MEMBERS)
def test_a2_product_form_equals_exponential_form(key):
    _product_equals_exponential(key)


def test_grouped_product_equals_one_factor_at_a_time():
    # the A2 members included: their product is wrong, but the same
    for key, meta in jacobi.MEMBERS.items():
        w = TruncationWindow(48, 4 if meta.r <= 4 else 2)
        assert (borcherds.borcherds_product_form(key, w).digest()
                == oracles.product_form(key, w).digest()), key


def test_product_block_factors_rebuild_the_block():
    # the m = 0 wall of the product carries the theta block: truncating
    # the s window to the first layer must reproduce the member series
    w = TruncationWindow(96, 2)
    P = borcherds.borcherds_product_form("psi_10_D2", w)
    psi = jacobi.member_series("psi_10_D2", TruncationWindow(96, 0))
    got = {q: sl for (s, q), sl in P.cells.items() if s == 2}
    want = {q: sl for (s, q), sl in psi.cells.items()}
    assert got == want


def test_exponential_form_is_integral():
    w = TruncationWindow(60, 4)
    for key in jacobi.MEMBERS:
        B = borcherds.borcherds_exp(key, w)
        for (s, q), sl in B.cells.items():
            assert all(isinstance(c, int) for c in sl.values())


def test_compare_reports_layers_and_terms():
    rep = borcherds.compare_lift_product("psi_10_D2", 3, 2)
    assert rep["status"] == "pass"
    assert rep["first_mismatch"] is None
    assert [row["s_num"] for row in rep["layers"]] == [2, 4]
    assert rep["checked_terms"] == sum(row["terms"] for row in rep["layers"])
    assert rep["checked_terms"] > 0


def test_compare_half_grid_member():
    rep = borcherds.compare_lift_product("psi_4_2A1", 3, 2)
    assert rep["status"] == "pass"
    assert [row["order"] for row in rep["layers"]] == [1, 3]


def test_scan_d_family_single_class():
    rep = borcherds.reflective_divisor_scan("psi_10_D2", 4)
    assert len(rep["classes"]) == 1
    c = rep["classes"][0]
    assert (c.v2, c.div) == (-4, 2)
    assert c.kappa == (Fraction(0), Fraction(1))
    assert c.multiplicities == (1,)
    assert rep["wall_count"] == 62


def test_scan_a1_and_a2_classes():
    rep = borcherds.reflective_divisor_scan("psi_5_A1", 4)
    assert [(c.v2, c.div, c.kappa, c.multiplicities) for c in rep["classes"]] \
        == [(-2, 2, (Fraction(1, 2),), (1,))]
    rep = borcherds.reflective_divisor_scan("psi_9_A2", 4)
    assert [(c.v2, c.div, c.multiplicities) for c in rep["classes"]] \
        == [(-6, 3, (1,))]


def test_scan_splits_one_class_per_copy():
    rep = borcherds.reflective_divisor_scan("psi_4_2A1", 4)
    assert [(c.v2, c.div, c.kappa) for c in rep["classes"]] == [
        (-2, 2, (Fraction(0), Fraction(1, 2))),
        (-2, 2, (Fraction(1, 2), Fraction(0))),
    ]
    assert all(c.multiplicities == (1,) for c in rep["classes"])
    assert rep["classes"][0].walls == rep["classes"][1].walls == 45


def test_scan_rank_one_block_has_two_components():
    rep = borcherds.reflective_divisor_scan("eta21_theta2z", 5)
    rows = [(c.v2, c.div, c.kappa, c.multiplicities) for c in rep["classes"]]
    assert rows == [
        (-4, 2, (Fraction(1),), (1,)),
        (-4, 4, (Fraction(1, 2),), (1,)),
    ]
    # the div-4 component is carried by walls whose own coefficient
    # vanishes; only the doubled index contributes to the multiplicity
    phi = jacobi.weak_weight0("eta21_theta2z", 5).series
    assert (2,) not in phi.cells[(0, 0)]
    assert phi.cells[(0, 0)][(4,)] == 1


def test_hecke_v0_rejects_shallow_windows():
    with pytest.raises(ValueError):
        borcherds.hecke_v0(jacobi.weak_weight0("psi_5_A1", 2).series, 3, 4)


def test_exp_layers_match_the_exponential_of_all_members():
    """Independent oracle: E_j is the s^j layer of exp(-X) for
    X = sum_j (phi0|V_j) s^j, expanded by the exp_s oracle."""
    j_max, q_depth = 2, 2
    for key, meta in jacobi.MEMBERS.items():
        phi = jacobi.weak_weight0(key, j_max * q_depth).series
        X = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * q_depth, 2 * j_max))
        for j in range(1, j_max + 1):
            for (_, q), sl in borcherds.hecke_v0(phi, j, q_depth).cells.items():
                X.cells[(2 * j, q)] = dict(sl)
        want = exp_s(-X)
        E = borcherds.exp_layers(key, j_max, q_depth)
        assert len(E) == j_max + 1
        for j, Ej in enumerate(E):
            assert Ej.cells == {(0, q): sl for (s, q), sl in want.cells.items()
                                if s == 2 * j}, (key, j)


def test_block_product_near_2_62_reruns_on_python_ints(monkeypatch):
    """Layer entries in [2^61, 2^62): the int64 product gives up before
    it can wrap, and the object-dtype rerun equals the dict product."""
    key, depth = "psi_8_D4", 2
    meta = jacobi.MEMBERS[key]
    rng = random.Random(61)
    layer = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * depth, 0))
    for _ in range(40):
        z = tuple(rng.randrange(-3, 4) for _ in range(meta.r))
        c = rng.randrange(2 ** 61, 2 ** 62) * rng.choice((1, -1))
        layer.add_term(24 * rng.randrange(depth + 1), z, 0, c)
    dtypes = []
    real = series._qz_mul

    def spy(pairs, f, top):
        dtypes.append(pairs[0][0][1].dtype)
        return real(pairs, f, top)

    monkeypatch.setattr(series, "_qz_mul", spy)
    got = borcherds._block_times(key, layer, depth)
    assert dtypes == [np.int64, object]
    for n in range(depth + 1):
        want = {}
        for a in range(n + 1):
            _slice_mul_py(want, jacobi.member_slice(key, meta.val_q + 24 * a),
                          layer.cells.get((0, 24 * (n - a)), {}))
        assert got.get(n, {}) == want
        assert all(type(c) is int for c in got.get(n, {}).values())
    assert max(abs(c) for sl in got.values() for c in sl.values()) >= 2 ** 63
    # four products of 2^61 on one key sum to 2^63, which int64 reads as
    # -2^63: the bound sends them to python ints all the same
    a = {0: {(k,): 1 for k in range(4)}}
    b = {0: {(-k,): 2 ** 61 for k in range(4)}}
    with pytest.raises(series._NotInt64):
        series._qz_product(a, b, 1, 0, np.int64)
    assert series._qz_product(a, b, 1, 0, object)[0][(0,)] == 2 ** 63


def _corrupt_weight0(monkeypatch, victim, factor):
    real = jacobi.weak_weight0

    def crooked(key, depth):
        form = real(key, depth)
        if key == victim:
            return form._replace(series=form.series.scaled(factor))
        return form

    monkeypatch.setattr(borcherds, "weak_weight0", crooked)


def test_negative_control_corrupt_weight0_fails_the_comparison(monkeypatch):
    # doubling phi0 squares exp(-sum X_j s^j): the product stays
    # integral, only the comparison with the lift can see it
    _corrupt_weight0(monkeypatch, "psi_10_D2", 2)
    rep = borcherds.compare_lift_product("psi_10_D2", 3, 2)
    assert rep["status"] == "fail"
    bad = rep["first_mismatch"]
    assert bad["lift"] != bad["product"]
    assert verification.run("borcherds-integrality").status == "pass"
    # halving it leaves Fractions in the layers: still a reported fail,
    # and the product is no longer integral
    _corrupt_weight0(monkeypatch, "psi_10_D2", Fraction(1, 2))
    rep = borcherds.compare_lift_product("psi_10_D2", 3, 2)
    assert rep["status"] == "fail"
    bad = rep["first_mismatch"]
    assert bad["lift"] != bad["product"]
    rep = verification.run("borcherds-integrality")
    assert rep.status == "fail"
    assert "non-integral" in rep.details["psi_10_D2"]
    with pytest.raises(ArithmeticError):
        borcherds.borcherds_exp("psi_10_D2", TruncationWindow(72, 4))


def test_exp_layer_remainder_stays_exact(monkeypatch):
    """A translate with 2 V_2 integral but off by one: the quotient of
    2 E_2 by 2 leaves a remainder, which stays an exact Fraction."""
    real = borcherds.hecke_v0

    def crooked(phi, m, q_depth):
        v = real(phi, m, q_depth)
        if m == 2:
            sl = v.cells[(0, 0)]
            sl[min(sl)] += Fraction(1, 2)
        return v

    monkeypatch.setattr(borcherds, "hecke_v0", crooked)
    E = borcherds.exp_layers("psi_10_D2", 2, 2)
    assert [c for sl in E[2].cells.values() for c in sl.values()
            if isinstance(c, Fraction)] == [Fraction(-1, 2)]
    with pytest.raises(ArithmeticError, match="non-integral"):
        borcherds.borcherds_exp("psi_10_D2", TruncationWindow(72, 6))
