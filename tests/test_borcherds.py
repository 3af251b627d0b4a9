"""Borcherds products: exponential form, literal product, divisor scan."""

import random
from fractions import Fraction

import numpy as np
import pytest

from refltower.series import FourierSeries, TruncationWindow
from refltower import borcherds, jacobi, lifting, series, verification

from helpers import divide_slices, exp_series
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
        E = exp_series(key, 2, 3)
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


# (q_depth, s_depth) windows per size class, as the benchmark sweep sizes
# them (perfbench/workloads.py); the class goes by rank, one class
# smaller for the tower tops
SWEEP_CLASSES = (
    ((4, 3), (6, 4)),
    ((3, 3), (4, 3)),
    ((3, 2), (3, 3)),
    ((2, 2), (3, 2)),
)


def _sweep_windows(key):
    r = jacobi.MEMBERS[key].r
    c = 0 if r <= 2 else 1 if r <= 4 else 2 if r <= 6 else 3
    if key in jacobi.TOWER_TOPS:
        c += 1
    return SWEEP_CLASSES[min(c, len(SWEEP_CLASSES) - 1)]


def test_compare_equals_the_layer_by_layer_oracle_on_every_sweep_window():
    for key in jacobi.MEMBERS:
        for q_depth, s_depth in _sweep_windows(key):
            got = borcherds.compare_lift_product(key, q_depth, s_depth)
            assert got["status"] == "pass"
            assert got == oracles.compare_lift_product(key, q_depth, s_depth), key


def _level_dicts(lvl, count):
    """A batched PackedLevel as one z-slice dict per batch entry."""
    out = [{} for _ in range(count)]
    for row, c in zip(lvl.z.tolist(), lvl.v.tolist()):
        out[row[0]][tuple(row[1:])] = c
    return out


def _batch(dicts, r):
    """z-slice dicts as one PackedLevel, the entry index as first column."""
    rows = [(t,) + z for t, sl in enumerate(dicts) for z in sl]
    vals = [c for sl in dicts for c in sl.values()]
    return series.PackedLevel(np.array(rows, dtype=np.int64).reshape(len(rows), r + 1),
                              np.array(vals, dtype=np.int64))


def _corrupt_layer(monkeypatch, key, order, change):
    """Apply change(level, slice) to one lift layer in both sources: the
    dicts the oracle reads and the packed levels the program divides."""
    meta = jacobi.MEMBERS[key]
    real_dicts, real_packed = jacobi.member_hecke_slice, borcherds.hecke_levels

    def dicts(k, m, q):
        sl = real_dicts(k, m, q)
        return change((q - meta.val_q) // 24, dict(sl)) if (k, m) == (key, order) else sl

    def packed(k, orders, depth):
        levels = real_packed(k, orders, depth)
        if k == key and order in orders:
            t = orders.index(order)
            for j, lvl in enumerate(levels):
                sls = _level_dicts(lvl, len(orders))
                sls[t] = change(j, sls[t])
                levels[j] = _batch(sls, meta.r)
        return levels

    monkeypatch.setattr(jacobi, "member_hecke_slice", dicts)
    monkeypatch.setattr(borcherds, "hecke_levels", packed)
    raised = []
    real_div = borcherds.divide_by_member

    def divide(levels, k, depth):
        try:
            return real_div(levels, k, depth)
        except ArithmeticError:
            raised.append(k)
            raise

    monkeypatch.setattr(borcherds, "divide_by_member", divide)
    return raised


# (member, window, layer order, level): a non-first layer at level >= 1
CORRUPTIONS = [("psi_8_D4", (4, 3), 2, 1), ("psi_6_2A2", (3, 3), 3, 2),
               ("psi_4_2A1", (4, 3), 3, 1)]


@pytest.mark.parametrize("key,window,order,level", CORRUPTIONS)
def test_compare_equals_the_oracle_when_a_layer_gains_a_block_multiple(
        monkeypatch, key, window, order, level):
    """q^level psi added to one layer keeps it divisible: the batch
    divides, and its quotient differs from E_j from that level on."""
    val = jacobi.MEMBERS[key].val_q

    def change(j, sl):
        if j >= level:
            for z, c in jacobi.member_slice(key, val + 24 * (j - level)).items():
                sl[z] = sl.get(z, 0) + c
        return {z: c for z, c in sl.items() if c}

    raised = _corrupt_layer(monkeypatch, key, order, change)
    got = borcherds.compare_lift_product(key, *window)
    assert not raised
    assert got["status"] == "fail"
    assert got["first_mismatch"]["q_num"] == val + 24 * level
    assert got == oracles.compare_lift_product(key, *window)


@pytest.mark.parametrize("key,window,order,level", CORRUPTIONS)
def test_compare_equals_the_oracle_when_a_layer_does_not_divide(
        monkeypatch, key, window, order, level):
    """One coefficient off by one: that layer has no quotient, so the
    whole batch raises and every layer is compared outright."""

    def change(j, sl):
        if j == level:
            sl[min(sl)] += 1
        return sl

    raised = _corrupt_layer(monkeypatch, key, order, change)
    got = borcherds.compare_lift_product(key, *window)
    assert raised == [key]
    assert got["status"] == "fail"
    assert got == oracles.compare_lift_product(key, *window)


def test_batch_with_one_layer_near_2_62_reruns_on_python_ints(monkeypatch):
    """Mirrors the dict division test near 2^62: only the second layer of
    the batch could pass 2^62, yet the whole batch reruns on python ints,
    and both layers come out exact."""
    key, depth = "psi_9_A2", 3
    meta = jacobi.MEMBERS[key]
    rng = random.Random(62)
    quo = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * depth, 0))
    for _ in range(20):
        z = tuple(rng.randrange(-6, 7) for _ in range(meta.r))
        quo.add_term(24 * rng.randrange(depth + 1), z, 0,
                     rng.randrange(-2 ** 54, 2 ** 54))
    psi = jacobi.member_series(key, TruncationWindow(meta.val_q + 24 * depth, 0))
    num = psi.mul(quo)
    lift = [jacobi.member_hecke_slice(key, 1, meta.val_q + 24 * j) for j in range(depth + 1)]
    big = [dict(num.cells.get((0, meta.val_q + 24 * j), {})) for j in range(depth + 1)]
    assert max(abs(c) for sl in lift for c in sl.values()) < 2 ** 40
    assert 2 ** 61 <= max(abs(c) for sl in big for c in sl.values()) < 2 ** 62
    batch = [_batch([a, b], meta.r) for a, b in zip(lift, big)]
    dtypes = []
    real = jacobi._divide_packed

    def spy(*args):
        dtypes.append(args[-1])
        return real(*args)

    monkeypatch.setattr(jacobi, "_divide_packed", spy)
    got = jacobi.divide_by_member(batch, key, depth)
    assert dtypes == [np.int64, object]
    want = divide_slices(lift, key, depth)
    for j in range(depth + 1):
        small, large = _level_dicts(got[j], 2)
        assert small == want[j]
        assert large == quo.cells.get((0, 24 * j), {})
        assert all(type(c) is int for c in got[j].v.tolist())


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
    # phi0 divided afresh: the memoised form may already be deeper
    with pytest.raises(ValueError):
        borcherds.hecke_v0(jacobi.phi0_by_division("psi_5_A1", 2).series, 3, 4)


def _exp_oracle(key, j_max, q_depth):
    """The s^j layers, j <= j_max, of exp(-X) for X = sum_j (phi0|V_j) s^j,
    expanded by the exp_s oracle, as q-z series."""
    meta = jacobi.MEMBERS[key]
    phi = borcherds.weak_weight0(key, max(j_max * q_depth, 1)).series
    X = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * q_depth, 2 * j_max))
    for j in range(1, j_max + 1):
        for (_, q), sl in borcherds.hecke_v0(phi, j, q_depth).cells.items():
            X.cells[(2 * j, q)] = dict(sl)
    want = exp_s(-X)
    out = []
    for j in range(j_max + 1):
        layer = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * q_depth, 0))
        layer.cells = {(0, q): sl for (s, q), sl in want.cells.items() if s == 2 * j}
        out.append(layer)
    return out


def test_exp_layers_match_the_exponential_of_all_members():
    """Independent oracle: E_j is the s^j layer of exp(-X) for
    X = sum_j (phi0|V_j) s^j, expanded by the exp_s oracle."""
    j_max, q_depth = 2, 2
    for key in jacobi.MEMBERS:
        E = exp_series(key, j_max, q_depth)
        assert len(E) == j_max + 1
        for j, (Ej, want) in enumerate(zip(E, _exp_oracle(key, j_max, q_depth))):
            assert Ej.cells == want.cells, (key, j)


def _psi_times(key, layers, q_depth):
    """psi * each layer through level q_depth, by ``FourierSeries.mul``."""
    meta = jacobi.MEMBERS[key]
    psi = jacobi.member_series(key, TruncationWindow(meta.val_q + 24 * q_depth, 0))
    return [{cq: sl for cq, sl in psi.mul(layer).cells.items() if sl} for layer in layers]


def test_exp_layers_started_at_psi_are_psi_times_the_exponential():
    """The recursion started at psi gives psi * E_j for every member:
    the oracle's s-layers times the member series."""
    j_max, q_depth = 2, 2
    for key in jacobi.MEMBERS:
        got = exp_series(key, j_max, q_depth, psi=True)
        want = _psi_times(key, _exp_oracle(key, j_max, q_depth), q_depth)
        assert [layer.cells for layer in got] == want, key


def test_block_product_near_2_62_reruns_on_python_ints(monkeypatch):
    """A translate with one entry near 2^61 sends the int64 recursion
    started at psi past its 2^62 bound before it can wrap; the rerun on
    python ints still equals psi times the exp_s oracle."""
    key, j_max, q_depth = "psi_8_D4", 2, 2
    real = borcherds.hecke_v0

    def crooked(phi, m, depth):
        v = real(phi, m, depth)
        if m == 1:
            sl = v.cells[(0, 24)]
            sl[min(sl)] += 2 ** 61  # even, so E_2 = X_1^2 / 2 - X_2 stays integral
        return v

    monkeypatch.setattr(borcherds, "hecke_v0", crooked)
    monkeypatch.setattr(borcherds, "_EXP_MEMO", {})  # the memo cannot see hecke_v0
    dtypes = []
    real_exp = borcherds._exp_packed

    def spy(*args):
        dtypes.append(args[-1])
        return real_exp(*args)

    monkeypatch.setattr(borcherds, "_exp_packed", spy)
    got = exp_series(key, j_max, q_depth, psi=True)
    assert dtypes == [np.int64, object]
    want = _psi_times(key, _exp_oracle(key, j_max, q_depth), q_depth)
    assert [layer.cells for layer in got] == want
    values = [c for layer in got for sl in layer.cells.values() for c in sl.values()]
    assert all(type(c) is int for c in values)
    assert max(map(abs, values)) >= 2 ** 63


def test_packed_product_near_2_62_reruns_on_python_ints():
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
    monkeypatch.setattr(borcherds, "_EXP_MEMO", {})  # the memo cannot see hecke_v0
    E = exp_series("psi_10_D2", 2, 2)
    assert [c for sl in E[2].cells.values() for c in sl.values()
            if isinstance(c, Fraction)] == [Fraction(-1, 2)]
    with pytest.raises(ArithmeticError, match="non-integral"):
        borcherds.borcherds_exp("psi_10_D2", TruncationWindow(72, 6))


@pytest.mark.parametrize("q_depth,s_depth", [(3, 0), (3, -1), (-1, 2)])
def test_compare_rejects_windows_that_check_nothing(monkeypatch, q_depth, s_depth):
    """(3, 0) and (3, -1) have no layer and (-1, 2) no level: a ValueError
    before anything is built or looked up, not a vacuous pass."""

    def untouched(*args):
        raise AssertionError("built or looked up for an empty window")

    monkeypatch.setattr(borcherds, "weak_weight0", untouched)
    monkeypatch.setattr(borcherds, "exp_layers", untouched)
    with pytest.raises(ValueError):
        borcherds.compare_lift_product("psi_10_D2", q_depth, s_depth)


def _arrays(layers):
    """Keys, values and reach of every layer of an exp_layers result."""
    return [a for layer in layers[1] for a in layer]


def test_exp_layer_memo_hits_equal_a_fresh_build_and_are_read_only(monkeypatch):
    """Every exp_layers window of the sweep, for all fifteen members: a
    warm hit is the stored object, equal to a build from an empty memo,
    and none of its arrays takes a write."""
    calls = []
    real = borcherds.exp_layers

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(borcherds, "exp_layers", spy)
    for key in jacobi.MEMBERS:
        for window in _sweep_windows(key):
            borcherds.compare_lift_product(key, *window)
    monkeypatch.undo()
    assert {args[0] for args in calls} == set(jacobi.MEMBERS)
    for args in calls:
        hit = borcherds.exp_layers(*args)
        assert borcherds.exp_layers(*args) is hit
        with monkeypatch.context() as m:
            m.setattr(borcherds, "_EXP_MEMO", {})
            fresh = borcherds.exp_layers(*args)
        assert fresh is not hit
        assert all(np.array_equal(a, b) for a, b in zip(hit[0], fresh[0]))
        got, want = _arrays(hit), _arrays(fresh)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


def test_exp_layer_memo_repeats_add_no_entry():
    borcherds.exp_layers("psi_5_A1", 3, 4, psi=True)
    borcherds.compare_lift_product("psi_5_A1", 4, 3)
    memo = dict(borcherds._EXP_MEMO)
    for _ in range(3):
        borcherds.exp_layers("psi_5_A1", 3, 4, psi=True)
        borcherds.compare_lift_product("psi_5_A1", 4, 3)
    assert borcherds._EXP_MEMO.keys() == memo.keys()
    assert all(borcherds._EXP_MEMO[k] is v for k, v in memo.items())


def test_negative_control_corrupt_weight0_fails_after_a_warm_hit(monkeypatch):
    """The memo serves only the phi0 object it was built from: with the
    layers warm, a doubled or halved phi0 is still seen."""
    key, window = "psi_10_D2", TruncationWindow(72, 4)
    assert borcherds.compare_lift_product(key, 3, 2)["status"] == "pass"
    good = borcherds.borcherds_exp(key, window)
    assert borcherds.compare_lift_product(key, 3, 2)["status"] == "pass"
    assert borcherds.borcherds_exp(key, window).first_difference(good) is None
    _corrupt_weight0(monkeypatch, key, 2)
    assert borcherds.compare_lift_product(key, 3, 2)["status"] == "fail"
    assert borcherds.borcherds_exp(key, window).first_difference(good) is not None
    _corrupt_weight0(monkeypatch, key, Fraction(1, 2))
    assert borcherds.compare_lift_product(key, 3, 2)["status"] == "fail"
    with pytest.raises(ArithmeticError, match="non-integral"):
        borcherds.borcherds_exp(key, window)
    monkeypatch.undo()
    assert borcherds.compare_lift_product(key, 3, 2)["status"] == "pass"
    assert borcherds.borcherds_exp(key, window).first_difference(good) is None
