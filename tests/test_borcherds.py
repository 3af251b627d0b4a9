"""Borcherds products: exponential form, literal product, divisor scan."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from refltower.series import FourierSeries, TruncationWindow
from refltower import borcherds, jacobi, lifting, series, verification

from helpers import (coefficient, cold_memos, copy, digest, exp_series, hecke_reach,
                     packed_translate, translate)
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
    v2 = translate("psi_5_A1", phi, 2, 2)
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
        assert E[0].term_count() == 1 and coefficient(E[0], 0, (0,) * E[0].r) == 1
        assert E[1].first_difference((-phi).truncated(win)) is None
        direct = phi.mul(phi, win).scaled(Fraction(1, 2)) \
            - translate(key, phi, 2, 3)
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
        assert (digest(borcherds.borcherds_product_form(key, w))
                == digest(oracles.product_form(key, w))), key


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


def test_compare_fails_loudly_when_arrays_and_dicts_disagree(monkeypatch):
    """A layer the array comparison rejects but whose dicts show no
    differing key is an internal contradiction: it raises, never passes.
    Two keys of one level swapped leave the dicts equal and the keys out
    of order."""
    real = borcherds.hecke_levels

    def swapped(key, orders, depth, frame=None):
        f, out = real(key, orders, depth, frame)
        k, v = out[-1]
        lv = k // f.stq
        i = int(np.flatnonzero(lv[1:] == lv[:-1])[0])
        order = np.arange(len(v))
        order[[i, i + 1]] = i + 1, i
        out[-1] = (k[order], v[order])
        return f, out

    monkeypatch.setattr(borcherds, "hecke_levels", swapped)
    with pytest.raises(AssertionError, match="differs as arrays but not as dicts"):
        borcherds.compare_lift_product("psi_10_D2", 3, 2)


def _compare_frame(key, q_depth, s_depth):
    """The product frame, the depth, and the lift layers and their frame
    as ``compare_lift_product`` reads them."""
    meta = jacobi.MEMBERS[key]
    layers = lifting.lift_layers(key, 2 * s_depth)
    q_aux = max((24 * q_depth - meta.val_q) // 24, 0)
    j_max = max((s - meta.s_step) // 2 for s, _ in layers)
    fp, _ = borcherds.exp_layers(key, j_max, q_aux)
    return fp, q_aux, jacobi.hecke_levels(key, [m for _, m in layers], q_aux, fp)


def _lift_reach(key, q_aux, s_depth):
    """The reach bound of each lift layer of ``_compare_frame``
    (``helpers.hecke_reach``)."""
    return hecke_reach(key, [m for _, m in lifting.lift_layers(key, 2 * s_depth)], q_aux)


def test_lift_rows_encode_to_strictly_increasing_product_keys():
    """The array comparison needs no sort: every lift layer comes in the
    product's own frame, its reach bound inside the box, its keys
    strictly increasing."""
    for key in jacobi.MEMBERS:
        for window in _sweep_windows(key):
            fp, q_aux, (f, num) = _compare_frame(key, *window)
            assert f is fp, (key, window)
            for (k, v), reach in zip(num, _lift_reach(key, q_aux, window[1])):
                assert np.all(reach <= fp.hi), (key, window)
                assert np.all(np.diff(k) > 0), (key, window)


SIGN_MEMBERS = [key for key, meta in jacobi.MEMBERS.items() if jacobi._sign_axes(meta)]


def _sweep_sides(key, window):
    """(block rows as {q_num: slice}, frame and lift layers, frame and
    psi * E_j) of one sweep window, as ``compare_lift_product`` reads
    them, the block at every level the lift layers read."""
    meta = jacobi.MEMBERS[key]
    layers = lifting.lift_layers(key, 2 * window[1])
    q_aux = max((24 * window[0] - meta.val_q) // 24, 0)
    orders = [m for _, m in layers]
    fp, prod = borcherds.exp_layers(key, max((s - meta.s_step) // 2 for s, _ in layers), q_aux)
    f, num = jacobi.hecke_levels(key, orders, q_aux, fp)
    block = {}
    for lvl in jacobi._hecke_plan(key, tuple(orders), q_aux).levels:
        z, v = jacobi._mirror_rows(*jacobi._member_rows(key, meta.q_grid * lvl)[:2],
                                   jacobi._sign_axes(meta))
        block[meta.q_grid * lvl] = dict(zip(map(tuple, z.tolist()), v.tolist()))
    return block, (f, num), (fp, prod)


@pytest.mark.parametrize("key", SIGN_MEMBERS)
def test_orthant_sides_mirror_out_to_the_all_signs_build(monkeypatch, key):
    """On every sweep window of a D, D1 or A1 member, the block held on
    z_i > 0 of its sign axes, the lift layers built from it and the cut
    psi * E_j, mirrored out whole, equal what the same code builds from
    cold memos with no axis held on an orthant (``_sign_axes`` made to
    give none): the all-signs multiply of the unit, its lift layers and
    the uncut product, in the same frames, keys, values and dtypes."""
    axes = jacobi._sign_axes(jacobi.MEMBERS[key])
    for window in _sweep_windows(key):
        held = _sweep_sides(key, window)
        with cold_memos(), monkeypatch.context() as m:
            for mod in (jacobi, borcherds):
                m.setattr(mod, "_sign_axes", lambda meta: [])
            whole = _sweep_sides(key, window)
        assert held[0] == whole[0] and all(whole[0].values()), (key, window)
        for (f, got), (g, want) in zip(held[1:], whole[1:]):
            assert np.array_equal(f.lo, g.lo) and np.array_equal(f.hi, g.hi), (key, window)
            assert len(got) == len(want)
            for (k, v), (wk, wv) in zip(got, want):
                assert jacobi._orthant(k, f, axes, 1).all()
                mk, mv = jacobi._mirror_out(k, v, f, axes, -1)
                assert np.array_equal(mk, wk) and np.array_equal(mv, wv), (key, window)
                assert mv.dtype == wv.dtype and len(wk) == len(k) << len(axes)


def test_negative_control_phi0_off_the_orthant_raises(monkeypatch):
    """The product side holds psi * E_j on z_i > 0 alone, sound only for
    an even phi0.  A phi0 with one coefficient changed at a key with
    negative coordinates is not even: ``_exp_packed`` checks the rows it
    reads, and the comparison and the product raise rather than pass.
    The same change on every sign image keeps phi0 even, and the
    comparison reports the failure."""
    key, window = "psi_8_D4", (4, 3)
    real = jacobi.weak_weight0

    def bump(images):
        def crooked(k, depth):
            form = real(k, depth)
            series = copy(form.series)
            sl = series.cells[(0, 24)]
            z = min(sl)
            assert all(a < 0 for a in z if a)
            for signs in itertools.product((1, -1), repeat=len(z) if images else 0):
                sl[tuple(a * sg for a, sg in zip(z, signs)) if images else z] += 1
            return form._replace(series=series)
        monkeypatch.setattr(borcherds, "weak_weight0", crooked)

    bump(images=False)
    with pytest.raises(ValueError, match="not even"):
        borcherds.compare_lift_product(key, *window)
    with pytest.raises(ValueError, match="not even"):
        borcherds.borcherds_exp(key, TruncationWindow(72, 4))
    bump(images=True)
    rep = borcherds.compare_lift_product(key, *window)
    assert rep["status"] == "fail" and rep["first_mismatch"]["q_num"] == 24 + 24


def _edit_block_level(monkeypatch, key, q_num, change):
    """Apply change(slice) to the packed block rows of one level, their
    reach and max|v| rebuilt to match: every lift layer that reads the
    level sees the change before it is encoded, while the product
    (multiplied out from the unit) does not."""
    real = jacobi._member_rows

    def rows(k, q):
        got = real(k, q)
        if (k, q) != (key, q_num):
            return got
        sl = change(dict(zip(map(tuple, got[0].tolist()), got[1].tolist())))
        z = np.array(sorted(sl), dtype=np.int64).reshape(len(sl), got[0].shape[1])
        v = np.array([sl[t] for t in sorted(sl)], dtype=np.int64)
        return z, v, np.abs(z).max(axis=0, initial=0), int(np.abs(v).max(initial=0))

    monkeypatch.setattr(jacobi, "_member_rows", rows)


# psi_8_D4 at (4, 3): the lift layers run to level 3.  Block level 7 (q_num
# 192) is read only by the order-2 layer (s^4), at level 3; block level 5
# (q_num 144) by the order-2 layer at level 2 and by the later order-3 layer.
BOX_CASE = ("psi_8_D4", (4, 3))


def test_lift_term_past_the_product_box_fails_without_raising(monkeypatch):
    """A lift term one step past the product frame's box on one axis is
    a mismatch, reported, never an error.  The block rows are held on
    z_i > 0, so the term goes in there, and the report names its first
    sign image in (s, q, z) order, all signs flipped."""
    key, window = BOX_CASE
    fp, q_aux, _ = _compare_frame(key, *window)
    far = (1,) * (len(fp.hi) - 1) + (int(fp.hi[-1]) + 1,)
    _edit_block_level(monkeypatch, key, 192, lambda sl: {**sl, far: 1})
    got = borcherds.compare_lift_product(key, *window)
    assert got["status"] == "fail"
    assert got["first_mismatch"] == {
        "s_num": 4, "q_num": jacobi.MEMBERS[key].val_q + 24 * q_aux,
        "z": tuple(-a for a in far), "lift": (-1) ** len(far), "product": 0}


def test_a_reach_bound_past_the_box_alone_decides_nothing(monkeypatch):
    """Block reaches loosened past the product's box (still upper bounds)
    send the lift layers into the symmetric frame that holds the product's
    box and every bound, with no key decoded, and the report unchanged."""
    key, window = BOX_CASE
    want = borcherds.compare_lift_product(key, *window)
    fp, _, _ = _compare_frame(key, *window)
    real = jacobi._member_rows

    def loose(k, q):
        z, v, reach, vmax = real(k, q)
        return z, v, reach + 2 * fp.hi, vmax

    monkeypatch.setattr(jacobi, "_member_rows", loose)
    calls = []
    _spy_everywhere(monkeypatch, "_decode", calls, (jacobi,))
    _, q_aux, (f, num) = _compare_frame(key, *window)
    assert calls == []
    assert np.array_equal(f.lo, -f.hi) and np.all(f.hi >= fp.hi) and np.all(f.lo <= fp.lo)
    reach = _lift_reach(key, q_aux, window[1])
    assert len(reach) == len(num)
    assert all(np.all(rk <= f.hi) for rk in reach)
    assert np.any(np.max(reach, axis=0) > fp.hi)
    assert borcherds.compare_lift_product(key, *window) == want


def test_lift_term_that_aliases_a_product_key_past_the_box_fails(monkeypatch):
    """z - e_(r-2) + (2 hi + 1) e_(r-1) leaves the box and encodes to the
    key of z: only the box check tells the moved term from the real one.
    The block rows are held on z_i > 0, so z is taken with z_(r-2) >= 2
    and the alias stays there; the first differing key in (s, q, z)
    order is then z with every sign flipped, where the moved term is
    missing from the lift."""
    key, window = BOX_CASE
    fp, _, _ = _compare_frame(key, *window)
    zr, vr, _, _ = jacobi._member_rows(key, 144)
    i = int(np.flatnonzero(zr[:, -2] >= 2)[0])
    z0 = tuple(zr[i].tolist())
    alias = z0[:-2] + (z0[-2] - 1, z0[-1] + 2 * int(fp.hi[-1]) + 1)
    assert series._encode(np.array([alias]), fp) == series._encode(np.array([z0]), fp)
    _edit_block_level(monkeypatch, key, 144,
                      lambda sl: {alias if z == z0 else z: c for z, c in sl.items()})
    got = borcherds.compare_lift_product(key, *window)
    assert got["status"] == "fail"
    bad = got["first_mismatch"]
    assert (bad["s_num"], bad["q_num"], bad["z"]) == (4, jacobi.MEMBERS[key].val_q + 48,
                                                      tuple(-a for a in z0))
    assert bad["product"] - bad["lift"] == (-1) ** len(z0) * int(vr[i])


def _spy_everywhere(monkeypatch, name, calls, mods=(jacobi, borcherds)):
    """Count calls of a refltower function through every module that binds it."""
    for mod in mods:
        real = getattr(mod, name, None)
        if real is not None:
            def spy(*args, real=real, **kw):
                calls.append(name)
                return real(*args, **kw)

            monkeypatch.setattr(mod, name, spy)


def test_warm_compare_neither_divides_nor_builds_layers(monkeypatch):
    """A second comparison on a window reads psi * E_j from the memo: no
    division, no exponential recursion and no multiply by the block."""
    for key in ("psi_8_D4", "psi_6_2A2", "psi_4_2A1"):
        window = _sweep_windows(key)[0]
        first = borcherds.compare_lift_product(key, *window)
        calls = []
        with monkeypatch.context() as m:
            for name in ("divide_by_member", "_divide_packed", "_exp_packed",
                         "multiply_by_member", "_multiply_packed"):
                _spy_everywhere(m, name, calls)
            assert borcherds.compare_lift_product(key, *window) == first
        assert calls == [], key


def test_warm_compare_builds_no_frame_and_decodes_nothing(monkeypatch):
    """Warm, the lift layers are encoded straight into the product's frame
    and compared as arrays: no frame is built and no key decoded."""
    for key in jacobi.MEMBERS:
        window = _sweep_windows(key)[0]
        first = borcherds.compare_lift_product(key, *window)
        calls = []
        with monkeypatch.context() as m:
            for name in ("_decode", "_frame"):
                _spy_everywhere(m, name, calls, (series, jacobi, borcherds))
            assert borcherds.compare_lift_product(key, *window) == first
        assert calls == [], key


@pytest.mark.parametrize("key, window", [BOX_CASE, ("psi_5_A1", (4, 3)), ("psi_6_2A2", (3, 3))])
def test_warm_compare_encodes_once_and_reads_each_block_level_once(monkeypatch, key, window):
    """Warm, one ``hecke_levels`` call builds every lift layer with one
    encode and reads each block level its divisor sums reach once through
    ``_member_rows``, the deepest first.  No plan holds block data: a
    term added to the deepest level afterwards (on z_i > 0, where the rows
    of D, D1 and A1 are held) fails the next compare there."""
    meta = jacobi.MEMBERS[key]
    orders = [m for _, m in lifting.lift_layers(key, 2 * window[1])]
    q_aux = (24 * window[0] - meta.val_q) // 24
    levels = {meta.q_grid * n * m // (d * d) for m in orders for j in range(q_aux + 1)
              for n in [(meta.val_q + 24 * j) // meta.q_grid]
              for d in range(1, m + 1) if n % d == 0 and m % d == 0}
    assert borcherds.compare_lift_product(key, *window)["status"] == "pass"
    calls = []
    with monkeypatch.context() as m:
        _spy_everywhere(m, "hecke_levels", calls, (borcherds,))
        _spy_everywhere(m, "_encode_parts", calls, (jacobi,))
        real = jacobi._member_rows
        m.setattr(jacobi, "_member_rows", lambda k, q: calls.append(q) or real(k, q))
        assert borcherds.compare_lift_product(key, *window)["status"] == "pass"
    assert calls == ["hecke_levels", *sorted(levels, reverse=True), "_encode_parts"]
    deep = max(levels)
    held = set(map(tuple, jacobi._member_rows(key, deep)[0].tolist()))
    new = next(z for z in itertools.product(range(1, 4), repeat=meta.r) if z not in held)
    _edit_block_level(monkeypatch, key, deep, lambda sl: {**sl, new: 1})
    got = borcherds.compare_lift_product(key, *window)
    assert got["status"] == "fail"
    assert got["first_mismatch"]["q_num"] == meta.val_q + 24 * q_aux


def test_sweep_rounds_after_the_first_build_no_layers(monkeypatch, fresh_memos):
    """A member's larger sweep window deepens its cached phi0; the layers
    built from the shallower phi0 stay served, since both are exact
    quotients and agree on every level those layers read.  Three rounds,
    every member's smaller window first in round one: only round one
    runs the exponential recursion or the multiply by the block."""
    jobs = [(key, window) for key in jacobi.MEMBERS for window in _sweep_windows(key)]
    counts = []
    for order in (jobs, jobs[::-1], jobs):
        calls = []
        with monkeypatch.context() as m:
            for name in ("_exp_packed", "_multiply_packed"):
                _spy_everywhere(m, name, calls)
            for key, window in order:
                assert borcherds.compare_lift_product(key, *window)["status"] == "pass"
        counts.append((calls.count("_exp_packed"), calls.count("_multiply_packed")))
    assert counts[0][0] == len(jobs) and counts[0][1] >= len(jobs)
    assert counts[1:] == [(0, 0), (0, 0)]
    phi = jacobi.weak_weight0("psi_10_D2", 1).series
    assert jacobi.holds_phi0("psi_10_D2", phi)
    assert not jacobi.holds_phi0("psi_10_D2", phi.scaled(1))


def test_cold_compare_leaves_the_held_phi0_undecoded(fresh_memos):
    """A cold sweep job reads phi0 only as rows: the held series never
    decodes its cells, and a later dict read gives the cells the division
    gave when it built dicts directly (their digest at depth 6)."""
    assert borcherds.compare_lift_product("psi_8_D4", 4, 3)["status"] == "pass"
    phi = jacobi.weak_weight0("psi_8_D4", 1).series
    assert jacobi.holds_phi0("psi_8_D4", phi) and phi.window.q_max == 144
    with pytest.raises(AttributeError):
        object.__getattribute__(phi, "cells")
    assert digest(phi) == "e1f300ccfe233d11852da1a17ff05099ed1669a1398d4b260db249de36786dea"
    assert object.__getattribute__(phi, "cells") is phi.cells


def _corrupt_layer(monkeypatch, key, order, change):
    """Apply change(level, slice) to one lift layer in both sources: the
    dicts the oracle reads and the packed layer the program compares,
    mirrored out whole, changed and cut back to z_i > 0 of the sign axes,
    where the program holds it (so the change must keep the layer odd
    there)."""
    meta = jacobi.MEMBERS[key]
    axes = jacobi._sign_axes(meta)
    real_dicts, real_packed = jacobi.member_hecke_slice, borcherds.hecke_levels

    def dicts(k, m, q):
        sl = real_dicts(k, m, q)
        return change((q - meta.val_q) // 24, dict(sl)) if (k, m) == (key, order) else sl

    def packed(k, orders, depth, frame=None):
        f, out = real_packed(k, orders, depth, frame)
        if k == key and order in orders:
            t = orders.index(order)
            sls = series._qz_decode(*jacobi._mirror_out(*out[t], f, axes, -1), f)
            rows = series._qz_rows({j: {z: c for z, c in change(j, dict(sls.get(j, {}))).items()
                                        if all(z[i] > 0 for i in axes)}
                                    for j in range(depth + 1)}, meta.r, np.int64)
            out[t] = series._qz_pack(rows, f)
        return f, out

    monkeypatch.setattr(jacobi, "member_hecke_slice", dicts)
    monkeypatch.setattr(borcherds, "hecke_levels", packed)


# (member, window, layer order, level): a non-first layer at level >= 1
CORRUPTIONS = [("psi_8_D4", (4, 3), 2, 1), ("psi_6_2A2", (3, 3), 3, 2),
               ("psi_4_2A1", (4, 3), 3, 1)]


@pytest.mark.parametrize("key,window,order,level", CORRUPTIONS)
def test_compare_equals_the_oracle_when_a_layer_gains_a_block_multiple(
        monkeypatch, key, window, order, level):
    """q^level psi added to one layer keeps it divisible by the block:
    the layer differs from psi * E_j from that level on."""
    val = jacobi.MEMBERS[key].val_q

    def change(j, sl):
        if j >= level:
            for z, c in jacobi.member_slice(key, val + 24 * (j - level)).items():
                sl[z] = sl.get(z, 0) + c
        return {z: c for z, c in sl.items() if c}

    _corrupt_layer(monkeypatch, key, order, change)
    got = borcherds.compare_lift_product(key, *window)
    assert got["status"] == "fail"
    assert got["first_mismatch"]["q_num"] == val + 24 * level
    assert got == oracles.compare_lift_product(key, *window)


@pytest.mark.parametrize("key,window,order,level", CORRUPTIONS)
def test_compare_equals_the_oracle_when_a_layer_does_not_divide(
        monkeypatch, key, window, order, level):
    """One coefficient off by one: the layer differs from psi * E_j at
    that level.  On the A2 member it is not divisible by the block.  The
    D and A1 lift layers are odd by construction, so there the change
    comes with every sign image of the key, negated once per flipped
    sign."""
    axes = jacobi._sign_axes(jacobi.MEMBERS[key])

    def change(j, sl):
        if j == level:
            z = min(sl)
            for signs in itertools.product((1, -1), repeat=len(axes)):
                img = list(z)
                for i, sg in zip(axes, signs):
                    img[i] *= sg
                sl[tuple(img)] += int(np.prod(signs))
        return sl

    _corrupt_layer(monkeypatch, key, order, change)
    got = borcherds.compare_lift_product(key, *window)
    assert got["status"] == "fail"
    assert got["first_mismatch"]["q_num"] == jacobi.MEMBERS[key].val_q + 24 * level
    assert got == oracles.compare_lift_product(key, *window)


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


def test_scan_equals_the_per_wall_oracle():
    """The batched scan and grouping give the reports of the per-wall scan
    on dicts: classes, multiplicities, wall counts and first walls, for
    every member at depths 2 to 4 and for the rank-one member at 5."""
    runs = [(key, d) for key in jacobi.MEMBERS for d in (2, 3, 4)] + [("eta21_theta2z", 5)]
    for key, d in runs:
        assert borcherds.reflective_divisor_scan(key, d) == \
            oracles.reflective_divisor_scan(key, d), (key, d)


def test_scan_rejects_a_window_too_small_for_the_multiplicity_sum(monkeypatch):
    """A planted term c(1, 6/4) of the rank-one member makes (1, 6, 1) a
    wall of norm -1/4, whose double still lies above the floor -1 but
    sits at level 4, past a depth-1 scan."""
    real = jacobi.weak_weight0

    def crooked(key, depth):
        form = real(key, depth)
        series = copy(form.series)
        assert coefficient(series, 24, (6,)) == 0
        series.add_term(24, (6,), 0, 1)
        return form._replace(series=series)

    monkeypatch.setattr(borcherds, "weak_weight0", crooked)
    monkeypatch.setattr(jacobi, "weak_weight0", crooked)
    for scan in (borcherds._scan_walls, oracles.scan_walls):
        with pytest.raises(ValueError, match="window too small for the multiplicity sum"):
            scan("eta21_theta2z", 1)


def test_hecke_v0_rejects_shallow_windows():
    # phi0 divided afresh: the memoised form may already be deeper; its
    # rows through level 3 * 4 are asked for, deeper than its window
    with pytest.raises(ValueError, match="too shallow"):
        borcherds.hecke_v0(jacobi.weight0_rows(
            "psi_5_A1", jacobi.phi0_by_division("psi_5_A1", 2).series, 12), [3], 4, np.int64)


def _by_level(f):
    """{level: slice} of a series on the 24-grid, as ``_qz_decode`` gives it."""
    return {q // 24: sl for (_, q), sl in f.cells.items()}


def test_packed_translate_equals_the_dict_reference():
    """W_m = -m phi|V_m^(0) from ``hecke_v0``'s parts, encoded as the
    exponential layers encode it, is -m times the dict reference
    ``oracles.hecke_v0``: every member, orders 1..3, at the q depths of
    its sweep windows.  The keys come out sorted and the same when phi's
    slices hold their terms in reversed order (the encoder skips its
    reduce only for keys that arrive strictly increasing), and phi / 2
    runs on object values and gives Fractions."""
    for key in jacobi.MEMBERS:
        depths = sorted({q for _, q in _exp_windows(key)})
        phi = borcherds.weak_weight0(key, 3 * depths[-1]).series
        rev = FourierSeries(phi.r, phi.den_z, phi.window)
        rev.cells = {cq: dict(reversed(sl.items())) for cq, sl in phi.cells.items()}
        half = phi.scaled(Fraction(1, 2))
        for q_depth, m in itertools.product(depths, (1, 2, 3)):
            f, k, v = packed_translate(key, phi, m, q_depth, np.int64)
            assert v.dtype == np.int64 and np.all(k[1:] > k[:-1]), (key, m)
            assert series._qz_decode(k, v, f) == _by_level(
                oracles.hecke_v0(phi, m, q_depth).scaled(-m)), (key, q_depth, m)
            _, kr, vr = packed_translate(key, rev, m, q_depth, np.int64)
            assert np.array_equal(kr, k) and np.array_equal(vr, v), (key, q_depth, m)
            with pytest.raises(series._NotInt64):
                borcherds.hecke_v0(jacobi.weight0_rows(key, half, m * q_depth), [m], q_depth,
                                   np.int64)
            f, k, v = packed_translate(key, half, m, q_depth, object)
            assert v.dtype == object and np.all(k[1:] > k[:-1])
            assert any(type(c) is Fraction and c.denominator > 1 for c in v.tolist())
            assert series._qz_decode(k, v, f) == _by_level(
                oracles.hecke_v0(half, m, q_depth).scaled(-m)), (key, q_depth, m)


def test_translate_bound_past_2_62_reruns_on_python_ints(monkeypatch):
    """A phi0 entry v near 2^61 on level 0: W_1 stays below 2^62, but W_2
    reads that level twice, with weights -2 and -1, so its bound
    sigma(2) |v| reaches 2^62 (2 |v|, the bound without the weights,
    would not).  The int64 recursion raises _NotInt64 before anything is
    encoded, and the rerun encodes every W_i in one call, one dtype for
    all, python ints, and equals the exp_s oracle of the same phi."""
    key, j_max, q_depth = "psi_9_D3", 2, 2
    phi = copy(borcherds.weak_weight0(key, j_max * q_depth).series)
    sl = phi.cells[(0, 0)]
    # (-2, 0, 0) and its image: the rows stay even in z, as ``_exp_packed``
    # checks, and the change is even, so every layer stays integral
    for z in (min(sl), tuple(-a for a in min(sl))):
        sl[z] += 2 ** 61 - 2 ** 58
    encoded = []
    real = borcherds._encode_parts

    def spy(plan, rows, f, dtype):
        encoded.append(dtype)
        return real(plan, rows, f, dtype)

    monkeypatch.setattr(borcherds, "_encode_parts", spy)
    with pytest.raises(series._NotInt64):
        borcherds._exp_packed(key, j_max, q_depth, phi, np.int64)
    assert encoded == []
    f, F = series._int64_first(borcherds._exp_packed, key, j_max, q_depth, phi)
    assert encoded == [object]
    assert all(v.dtype == object for _, v in F)
    want = _exp_oracle(key, j_max, q_depth, phi)
    for (k, v), layer in zip(F, want):
        assert series._qz_decode(k, v, f) == _by_level(layer)
    values = [c for _, v in F for c in v.tolist()]
    assert all(type(c) is int for c in values) and max(map(abs, values)) >= 2 ** 119


def _exp_oracle(key, j_max, q_depth, phi=None):
    """The s^j layers, j <= j_max, of exp(-X) for X = sum_j (phi|V_j) s^j,
    phi the member's phi0 unless given, with the translates of the dict
    reference ``oracles.hecke_v0``, expanded by the exp_s oracle, as q-z
    series."""
    meta = jacobi.MEMBERS[key]
    if phi is None:
        phi = borcherds.weak_weight0(key, max(j_max * q_depth, 1)).series
    X = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * q_depth, 2 * j_max))
    for j in range(1, j_max + 1):
        for (_, q), sl in oracles.hecke_v0(phi, j, q_depth).cells.items():
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


def _exp_windows(key):
    """(j_max, q depth) of the exp_layers calls of the member's sweep windows."""
    meta = jacobi.MEMBERS[key]
    return {(max((s - meta.s_step) // 2 for s, _ in lifting.lift_layers(key, 2 * s_depth)),
             max((24 * q_depth - meta.val_q) // 24, 0))
            for q_depth, s_depth in _sweep_windows(key)}


def test_exp_layers_started_at_psi_are_psi_times_the_exponential():
    """The block times E_j is psi * E_j for every member: the oracle's
    s-layers times the member series at (2, 2), and E_j times the member
    series (``FourierSeries.mul``) at every window of the sweep."""
    j_max, q_depth = 2, 2
    for key in jacobi.MEMBERS:
        got = exp_series(key, j_max, q_depth, psi=True)
        want = _psi_times(key, _exp_oracle(key, j_max, q_depth), q_depth)
        assert [layer.cells for layer in got] == want, key
        for window in _exp_windows(key):
            got = exp_series(key, *window, psi=True)
            want = _psi_times(key, exp_series(key, *window), window[1])
            assert [layer.cells for layer in got] == want, (key, window)


def _with_part(got, layer, level, z, value, dtype):
    """``hecke_v0``'s plan and rows with one more part, last in its layer:
    ``value`` at z on ``level``, d = 1, weight -1, from rows of its own."""
    plan, rows = got
    _, zr, v, reach = series._qz_rows({0: {z: value}}, len(z), dtype)
    at = int(plan.edges[layer + 1])
    plan = plan._replace(j=np.insert(plan.j, at, level), d=np.insert(plan.d, at, 1),
                         src=np.insert(plan.src, at, len(rows)),
                         w=plan.w[:at] + (-1,) + plan.w[at:],
                         wsum=plan.wsum + 1,
                         edges=plan.edges + (np.arange(len(plan.edges)) > layer))
    return plan, rows + [(zr, v, reach, abs(value))]


def test_block_product_near_2_62_reruns_on_python_ints(monkeypatch, fresh_memos):
    """A translate with entries near 2^61 leaves E_1 on int64, but
    multiplying it by the block could pass 2^62 before it wraps: the
    multiply reruns on python ints and still equals psi times the exp_s
    oracle, whose translate carries the same entries.  They sit on one
    key and its sign images, so E_1 stays even, as psi * E_1 on the sign
    orthant needs."""
    key, j_max, q_depth = "psi_8_D4", 1, 2
    real, real_dict = borcherds.hecke_v0, oracles.hecke_v0
    jacobi.weak_weight0(key, j_max * q_depth)  # builds the block before the spies

    def images(z):
        return sorted({tuple(s * a for s, a in zip(signs, z))
                       for signs in itertools.product((1, -1), repeat=len(z))})

    def axis_key(zs):  # the least key with one nonzero coordinate: two images
        return min(z for z in zs if sum(map(bool, z)) == 1)

    def crooked(rows, orders, depth, dtype):
        # -(2^61 - 2^58) on that W_1 key at level 1 and on its image
        lv, z, _ = rows
        got = real(rows, orders, depth, dtype)
        for img in images(axis_key(map(tuple, z[lv == 1].tolist()))):
            got = _with_part(got, 0, 1, img, 2 ** 61 - 2 ** 58, dtype)
        return got

    def crooked_dict(phi, m, depth):
        v = real_dict(phi, m, depth)
        sl = v.cells[(0, 24)]
        for img in images(axis_key(sl)):
            sl[img] += 2 ** 61 - 2 ** 58
        return v

    monkeypatch.setattr(borcherds, "hecke_v0", crooked)  # unseen by a warm layer memo
    monkeypatch.setattr(oracles, "hecke_v0", crooked_dict)
    dtypes = {"exp": [], "mul": []}
    for name, mod, attr in (("exp", borcherds, "_exp_packed"),
                            ("mul", jacobi, "_multiply_packed")):
        def spy(*args, name=name, real=getattr(mod, attr)):
            dtypes[name].append(args[-1])
            return real(*args)

        monkeypatch.setattr(mod, attr, spy)
    got = exp_series(key, j_max, q_depth, psi=True)
    assert dtypes == {"exp": [np.int64], "mul": [np.int64, object]}
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


def test_a_fraction_in_phi0_sends_the_recursion_to_the_object_path(monkeypatch):
    """phi0 / 2 holds Fractions, which a cast to int64 would truncate
    without a word: ``weight0_rows`` converts it to object rows, the int64
    try stops at ``hecke_v0``, which takes no object rows, and the
    recursion reruns on objects.  With one layer no remainder could
    catch the truncation later, and E_1 = -phi0 / 2 keeps its halves."""
    key, q_depth = "psi_10_D2", 2
    _corrupt_weight0(monkeypatch, key, Fraction(1, 2))
    dtypes = []
    real = borcherds._exp_packed

    def spy(*args):
        dtypes.append(args[-1])
        return real(*args)

    monkeypatch.setattr(borcherds, "_exp_packed", spy)
    E = exp_series(key, 1, q_depth)
    assert dtypes == [np.int64, object]
    half = borcherds.weak_weight0(key, q_depth).series
    assert [layer.cells for layer in E] == [
        layer.cells for layer in _exp_oracle(key, 1, q_depth, half)]
    assert any(type(c) is Fraction and c.denominator == 2
               for sl in E[1].cells.values() for c in sl.values())


def test_exp_layer_remainder_stays_exact(monkeypatch, fresh_memos):
    """A translate with 2 V_2 integral but off by one: the quotient of
    2 E_2 by 2 leaves a remainder, which stays an exact Fraction."""
    real = borcherds.hecke_v0
    phi = jacobi.weak_weight0("psi_10_D2", 4).series

    def crooked(rows, orders, q_depth, dtype):
        got = real(rows, orders, q_depth, dtype)
        if 2 in orders:  # -1 on the W_2 key at level 0 where phi|V_2's z is least
            z = min(oracles.hecke_v0(phi, 2, q_depth).cells[(0, 0)])
            got = _with_part(got, list(orders).index(2), 0, z, 1, dtype)
        return got

    monkeypatch.setattr(borcherds, "hecke_v0", crooked)  # unseen by a warm layer memo
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
    """Keys and values of every layer of an exp_layers result."""
    return [a for layer in layers[1] for a in layer]


def test_exp_layer_memo_hits_equal_a_fresh_build_and_are_read_only(monkeypatch):
    """Every exp_layers window of the sweep, for all fifteen members: a
    warm hit is the stored object, each result equals a build from an
    empty memo, and none of its arrays takes a write."""
    calls = []
    real = borcherds.exp_layers

    def spy(*args, **kw):
        calls.append(args[:3])
        return real(*args, **kw)

    monkeypatch.setattr(borcherds, "exp_layers", spy)
    for key in jacobi.MEMBERS:
        for window in _sweep_windows(key):
            borcherds.compare_lift_product(key, *window)
    monkeypatch.undo()
    assert {args[0] for args in calls} == set(jacobi.MEMBERS)
    for args in set(calls):
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
    borcherds.exp_layers("psi_5_A1", 3, 4)
    borcherds.compare_lift_product("psi_5_A1", 4, 3)
    memo = dict(borcherds._EXP_MEMO)
    for _ in range(3):
        borcherds.exp_layers("psi_5_A1", 3, 4)
        borcherds.compare_lift_product("psi_5_A1", 4, 3)
    assert borcherds._EXP_MEMO.keys() == memo.keys()
    assert all(borcherds._EXP_MEMO[k] is v for k, v in memo.items())


def test_a_phi0_weak_weight0_does_not_hold_leaves_the_memo_alone(monkeypatch):
    """A comparison with a phi0 that ``weak_weight0`` does not hold (an
    equal copy, as a negative control would pass a corrupted one) builds
    its own layers and keeps every memo entry; the next genuine
    comparison is served from the memo and builds no layer."""
    key, window = "psi_8_D4", (4, 3)
    assert borcherds.compare_lift_product(key, *window)["status"] == "pass"
    memo = dict(borcherds._EXP_MEMO)
    _corrupt_weight0(monkeypatch, key, 1)
    assert borcherds.compare_lift_product(key, *window)["status"] == "pass"
    monkeypatch.undo()
    assert borcherds._EXP_MEMO.keys() == memo.keys()
    assert all(borcherds._EXP_MEMO[k] is v for k, v in memo.items())
    calls = []
    _spy_everywhere(monkeypatch, "_exp_packed", calls)
    assert borcherds.compare_lift_product(key, *window)["status"] == "pass"
    assert calls == []


def test_negative_control_corrupt_weight0_fails_after_a_warm_hit(monkeypatch):
    """The memo serves only the phi0 ``weak_weight0`` holds: with the
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


def test_row_unique_orders_rows_as_numpy_unique_does():
    """The packed-key grouping of the divisor scan returns np.unique's
    first indices, inverse and counts, signed rows and rows too wide for
    one int64 key (which fall back to np.unique on the rows) included."""
    rng = np.random.default_rng(7)
    for rows in (rng.integers(-4, 5, (300, 4)), rng.integers(0, 3, (50, 1)),
                 np.zeros((0, 3), np.int64),
                 np.array([[2 ** 40, -3], [-2 ** 40, 5], [2 ** 40, -3]], np.int64),
                 rng.integers(-2 ** 20, 2 ** 20, (40, 4))):
        _, first, inverse, counts = np.unique(rows, axis=0, return_index=True,
                                              return_inverse=True, return_counts=True)
        got = borcherds._row_unique(rows)
        for a, b in zip(got, (first, inverse, counts)):
            assert np.array_equal(a, b.reshape(-1))
