import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from refltower import borcherds, jacobi, lattices, lifting, verification
from refltower.series import TruncationWindow, _qz_rows

from helpers import coefficient, copy, scaled


def hyper_norm_fraction(lat, q, z, index=1) -> Fraction:
    """2 (q/24) index - (l, l) in Fraction arithmetic: the oracle of
    verification._hyper_norms."""
    return Fraction(q, 12) * index - Fraction(lat.grid_norm(z), lat.norm_den)


def test_identity_listing_is_sorted_and_complete():
    names = verification.identities()
    assert names == sorted(names)
    base = [n for n in names if not n.startswith("lift-equals-product:")]
    per_member = [n for n in names if n.startswith("lift-equals-product:")]
    assert len(base) == 16
    assert len(per_member) == len(jacobi.MEMBERS)
    assert "lift-equals-product:psi_4_D8" in per_member


def test_report_shape_and_json_safety():
    rep = verification.run("weight-equals-half-constant")
    assert rep.identity == "weight-equals-half-constant"
    assert rep.claim
    assert rep.status == "pass"
    assert rep.checked_terms == len(jacobi.MEMBERS)
    json.dumps(rep.details)


def test_theta_triple_product_runs_clean():
    rep = verification.run("theta-triple-product")
    assert rep.status == "pass"
    assert rep.window == (288, 0)
    assert rep.checked_terms > 0


def test_eta3_closed_law():
    rep = verification.run("eta3-closed-form")
    assert rep.status == "pass"
    assert rep.window == (1200, 0)
    # every surviving power through the window is 3 n^2, n odd
    assert rep.details["law_terms"] == len([n for n in range(1, 21, 2) if 3 * n * n <= 1200])


def test_q0_and_support_identities_pass():
    for name in ("q0-terms", "lemma13-support-bounds", "singular-support",
                 "cusp-support"):
        rep = verification.run(name)
        assert rep.status == "pass", rep.details
        assert rep.checked_terms > 0


def test_symmetry_identities_pass():
    for name in ("nm-symmetry", "weyl-symmetry", "coefficient-class-invariance"):
        rep = verification.run(name)
        assert rep.status == "pass", rep.details


def test_pullback_chain_reports_each_step():
    rep = verification.run("quasi-pullback-chain", TruncationWindow(72, 0))
    assert rep.status == "pass"
    assert [s["to"] for s in rep.details["steps"]] == [
        "psi_5_D7", "psi_6_D6", "psi_7_D5", "psi_8_D4", "psi_9_D3",
        "psi_10_D2", "eta^3"]


def test_fj1_and_delta11_pass():
    rep = verification.run("fj1-recovery", TruncationWindow(72, 2))
    assert rep.status == "pass", rep.details
    rep = verification.run("delta11-block")
    assert rep.status == "pass", rep.details
    assert rep.details["classes"] == [[-4, 2], [-4, 4]]


def test_window_meets_the_cap():
    rep = verification.run("singular-support", TruncationWindow(72, 8))
    assert rep.window == (72, 0)


def test_suite_selection_is_name_ordered():
    reps = verification.run_suite(
        ["weight-equals-half-constant", "q0-terms"])
    assert [r.identity for r in reps] == [
        "q0-terms", "weight-equals-half-constant"]


def test_unknown_identity_raises():
    try:
        verification.run("no-such-identity")
        raise AssertionError("expected KeyError")
    except KeyError:
        pass
    try:
        verification.run_suite(["q0-terms", "nope"])
        raise AssertionError("expected KeyError")
    except KeyError:
        pass


def test_negative_control_catches_corrupt_product(monkeypatch):
    real = jacobi.theta_product_form
    monkeypatch.setattr(jacobi, "theta_product_form",
                        lambda q_max: scaled(real(q_max), 3))
    rep = verification.run("theta-triple-product", TruncationWindow(48, 0))
    assert rep.status == "fail"
    assert rep.details["first_difference"] is not None


def test_negative_control_catches_corrupt_weight0(monkeypatch):
    real = jacobi.weak_weight0

    def crooked(key, depth):
        phi = real(key, depth)
        return scaled(phi, 2) if key == "psi_5_A1" else phi

    monkeypatch.setattr(jacobi, "weak_weight0", crooked)
    rep = verification.run("q0-terms")
    assert rep.status == "fail"
    assert "psi_5_A1" in rep.details["mismatches"]


def test_negative_control_catches_doubled_wall(monkeypatch):
    # l = e_1 at q^0 is a wall of psi_10_D2 with coefficient one; doubling
    # it doubles the multiplicity of every wall on that line
    real = borcherds.weak_weight0
    wall = (2, 0)

    def crooked(key, depth):
        phi = real(key, depth)
        if key == "psi_10_D2":
            phi = copy(phi)
            assert coefficient(phi, 0, wall) == 1
            phi.add_term(0, wall, 0, 1)
        return phi

    monkeypatch.setattr(borcherds, "weak_weight0", crooked)
    rep = verification.run("reflective-divisor-classes", TruncationWindow(48, 0))
    assert rep.status == "fail"
    assert rep.details["psi_10_D2"]["simple"] is False
    assert all(d["simple"] for k, d in rep.details.items() if k != "psi_10_D2")


def _zero_kappa_of(monkeypatch, victim, div):
    """The scan of victim with its class of div given kappa = 0."""
    real = borcherds.reflective_divisor_scan

    def crooked(key, q_depth):
        rep = real(key, q_depth)
        if key != victim:
            return rep
        classes = [c._replace(kappa=(Fraction(0),) * len(c.kappa)) if c.div == div else c
                   for c in rep["classes"]]
        assert classes != rep["classes"]
        return dict(rep, classes=classes)

    monkeypatch.setattr(borcherds, "reflective_divisor_scan", crooked)


def test_negative_control_catches_a_class_the_lattice_does_not_reflect(monkeypatch):
    """(-4, 2) with kappa = 0 is no reflective class of D4, nor (-4, 4)
    with kappa = 0 of D1: each identity fails, though its details, the
    (v^2, div) table and the multiplicities, are those of a passing run."""
    for name, victim, lat, div in (("reflective-divisor-classes", "psi_8_D4", "D4", 2),
                                   ("delta11-block", "eta21_theta2z", "D1", 4)):
        refl = lattices.lattice(lat).classify_reflective()
        assert (-4, div) in {(c.v2, c.div) for c in refl}
        assert all(any(k) for c in refl if (c.v2, c.div) == (-4, div) for k in c.kappas)
        good = verification.run(name)
        assert good.status == "pass"
        with monkeypatch.context() as m:
            _zero_kappa_of(m, victim, div)
            rep = verification.run(name)
        assert rep.status == "fail", name
        assert rep.details == good.details and rep.checked_terms == good.checked_terms


def test_negative_control_catches_corrupt_lift(monkeypatch):
    # the lift layers reach the check packed, one (keys, values) per
    # layer with sorted keys: the first key of the m = 1 layer is the
    # lex-first z at the corner, and its value is corrupted
    real = borcherds.hecke_levels
    for key in ("psi_5_A1", "psi_9_A2"):

        def crooked(k, orders, depth, frame=None):
            f, out = real(k, orders, depth, frame)
            if 1 in orders:
                t = orders.index(1)
                keys, v = out[t]
                assert keys[0] // f.stq == 0
                v = v.copy()
                v[0] += 1
                out[t] = (keys, v)
            return f, out

        monkeypatch.setattr(borcherds, "hecke_levels", crooked)
        rep = verification.run("lift-equals-product:%s" % key,
                               TruncationWindow(48, 2))
        assert rep.status == "fail", key
        assert rep.details["first_mismatch"] is not None


def _closed_form_failures(monkeypatch, mod, name, crooked):
    """``closed-form-vs-lift`` at (72, 4) with mod.name made crooked: the
    report passes before and fails after, with the same count."""
    win = TruncationWindow(72, 4)
    good = verification.run("closed-form-vs-lift", win)
    assert good.status == "pass"
    monkeypatch.setattr(mod, name, crooked)
    rep = verification.run("closed-form-vs-lift", win)
    assert rep.status == "fail" and rep.checked_terms == good.checked_terms
    return rep.details["mismatched_slices"]


def test_negative_control_catches_a_corrupt_orthant_closed_form(monkeypatch):
    """+1 on one orthant coefficient of the closed formula, D5 at
    (n, m) = (2, 2), fails exactly that slice."""
    real = lifting.closed_form_slice

    def crooked(k, n, m, signs):
        sl = dict(real(k, n, m, signs))
        if (k, n, m) == (5, 2, 2):
            assert signs == (1,)
            z = next(iter(sl))
            sl[z] += 1
        return sl

    assert _closed_form_failures(monkeypatch, lifting, "closed_form_slice", crooked) == {
        "psi_7_D5": [(2, 2)]}


def test_negative_control_catches_a_corrupt_held_lift_row(monkeypatch):
    """+1 on one held row of the D5 lift layer m = 2, the first key of
    level 1 (q^2), fails exactly (n, m) = (2, 2)."""
    real = jacobi.hecke_levels

    def crooked(key, orders, depth, frame=None):
        f, out = real(key, orders, depth, frame)
        if key == "psi_7_D5":
            t = orders.index(2)
            keys, v = out[t]
            i = int(np.searchsorted(keys, f.stq))
            assert keys[i] // f.stq == 1
            v = v.copy()
            v[i] += 1
            out[t] = (keys, v)
        return f, out

    assert _closed_form_failures(monkeypatch, jacobi, "hecke_levels", crooked) == {
        "psi_7_D5": [(2, 2)]}


def _bump_held_row(monkeypatch, key, lvl):
    """+1 on the first held block row of level lvl, in a copy of the
    member's ``jacobi._PSI_LEVELS`` entry."""
    levels = list(jacobi._PSI_LEVELS[key])
    z, v, reach, vmax = levels[lvl]
    v = v.copy()
    v[0] += 1
    levels[lvl] = (z, v, reach, max(vmax, abs(int(v[0]))))
    monkeypatch.setitem(jacobi._PSI_LEVELS, key, levels)


def _fj1_failures(monkeypatch, corrupt):
    """``fj1-recovery`` at (96, 4) after corrupt(monkeypatch): the report
    passes before and fails after, with the same count."""
    win = TruncationWindow(96, 4)
    good = verification.run("fj1-recovery", win)
    assert good.status == "pass"
    corrupt(monkeypatch)
    rep = verification.run("fj1-recovery", win)
    assert rep.status == "fail" and rep.checked_terms == good.checked_terms
    return rep.details


def test_fj1_fails_on_a_corrupt_held_block_row(monkeypatch):
    """+1 on one held row of the D5 block at q^2: the lift's layer 1 is
    encoded from those rows, the orthant shell sum is not."""
    assert _fj1_failures(monkeypatch, lambda mp: _bump_held_row(mp, "psi_7_D5", 1)) == {
        "mismatches": ["psi_7_D5"]}


def test_fj1_fails_on_a_corrupt_orthant_shell_term(monkeypatch):
    """+1 on one vector of the orthant shell of five odd squares summing
    to 13, which the D5 slices from q^2 on read."""
    shell = dict(jacobi._odd_shell(5, 13, (1,)))
    shell[next(iter(shell))] += 1
    assert _fj1_failures(monkeypatch, lambda mp: mp.setitem(
        jacobi._SHELL_CACHE, (5, 13, (1,)), shell)) == {"mismatches": ["psi_7_D5"]}


def test_fj1_fails_on_an_a2_layer_key_off_its_rows(monkeypatch):
    """A2 has no second construction: its layer 1 must be its own rows,
    key for key, so a layer whose last key moves by one fails."""
    real = jacobi.hecke_levels

    def crooked(key, orders, depth, frame=None):
        f, out = real(key, orders, depth, frame)
        if key == "psi_9_A2":
            keys, v = out[0]
            out[0] = (np.append(keys[:-1], keys[-1] + 1), v)
        return f, out

    assert _fj1_failures(monkeypatch, lambda mp: mp.setattr(jacobi, "hecke_levels", crooked)) == {
        "mismatches": ["psi_9_A2"]}


def test_pullback_chain_fails_both_steps_at_a_corrupt_held_row(monkeypatch):
    """+1 on one held D7 row at q^2 breaks D8 -> D7 (the target's rows)
    and D7 -> D6 (the source's sum), and no other step."""
    win = TruncationWindow(72, 0)
    good = verification.run("quasi-pullback-chain", win)
    assert good.status == "pass"
    _bump_held_row(monkeypatch, "psi_5_D7", 1)
    rep = verification.run("quasi-pullback-chain", win)
    assert rep.status == "fail" and rep.checked_terms == good.checked_terms
    assert [(s["from"], s["to"]) for s in rep.details["steps"] if not s["ok"]] == [
        ("psi_4_D8", "psi_5_D7"), ("psi_5_D7", "psi_6_D6")]


def test_fj1_and_pullback_chain_build_no_dict_slice(monkeypatch, fresh_memos):
    """Cold, both checks read the held block rows alone: no call of
    ``member_slice`` and nothing memoised in ``_PSI_SLICES``."""
    slices = _count_calls(monkeypatch, jacobi, "member_slice")
    for name in ("fj1-recovery", "quasi-pullback-chain"):
        assert verification.run(name, TruncationWindow(96, 4)).status == "pass"
    assert slices == [] and jacobi._PSI_SLICES == {}


def test_integer_hyper_norm_matches_the_fraction_oracle():
    """The batched numerators are the Fraction norm, row by row: over
    _norm_den on every block slice through q = 96 (the held rows,
    mirrored out, are the slice's terms), and over norm_den
    (``Lattice._wall_norms``, as
    lemma13-support-bounds reads them) on every phi0 term through depth
    2, the identity-mix windows of the support and class checks, for all
    15 members (the index-1/2 A1 family included)."""
    checked = 0
    for key, meta in jacobi.MEMBERS.items():
        lat = lattices.lattice(meta.lattice_name)
        cells = []
        rows = verification._block_rows(key, 96, 4)
        assert [q for q, *_ in rows] == list(range(meta.val_q, 97, 24))
        for q, z, v in rows:  # held on the sign orthant: mirrored out, the slice's terms
            z = jacobi._symmetry(meta).whole(z, v, -1)[0]
            assert sorted(map(tuple, z.tolist())) == sorted(jacobi.member_slice(key, q))
            cells.append((meta.index, q, z, verification._hyper_norms(lat, q, z, meta.index),
                          verification._norm_den(lat, meta.index)))
        phi = jacobi.weak_weight0(key, 2).truncated(TruncationWindow(48, 0))
        lv, z, _, _ = _qz_rows({q // 24: sl for (_, q), sl in phi.cells.items()}, lat.rank, object)
        assert len(z) == phi.term_count()
        cells.append((Fraction(1), 24 * lv, z, lat._wall_norms(lv, z, 1), lat.norm_den))
        for index, q, z, got, den in cells:
            assert got.dtype == np.int64 and len(got) == len(z)
            for qi, row, num in zip(np.broadcast_to(q, len(z)).tolist(), z.tolist(), got.tolist()):
                assert Fraction(num, den) == hyper_norm_fraction(lat, qi, row, index), (key, qi, row)
                checked += 1
    assert checked > 50000
    # a numerator too wide for int64 raises instead of wrapping
    with pytest.raises(ValueError, match="too wide"):
        verification._hyper_norms(lattices.lattice("D8"), 2 ** 60, np.zeros((1, 8), np.int64),
                                  Fraction(1))


def test_class_rows_equal_the_per_term_keys_and_norms():
    """The batched norms and class keys of coefficient-class-invariance
    equal the Fraction norm and ``_key(_dual(z))`` on every term it reads,
    row by row in the series' order."""
    checked = 0
    for key in verification._CLASS_REPS:
        lat = lattices.lattice(jacobi.MEMBERS[key].lattice_name)
        phi = jacobi.weak_weight0(key, 3)
        nrm, cls, v = verification._class_rows(lat, *jacobi.weight0_rows(key, phi, 3))
        terms = [(q, z, c) for (_, q), sl in phi.truncated(TruncationWindow(72, 0)).cells.items()
                 for z, c in sl.items()]
        assert len(terms) == len(nrm) == len(cls) == len(v)
        for (q, z, c), a, k, b in zip(terms, nrm.tolist(), cls.tolist(), v.tolist()):
            assert Fraction(a, lat.norm_den) == hyper_norm_fraction(lat, q, z)
            assert tuple(k) == lat._key(lat._dual(z, grid=True))
            assert b == c
        checked += len(terms)
    assert checked == verification.run("coefficient-class-invariance").checked_terms
    # a term off S^vee raises, as _dual does: (1/2, 0, ..., 0) is not in D8^vee
    phi = copy(jacobi.weak_weight0("psi_4_D8", 1))
    phi.add_term(24, (1,) + (0,) * 7, 0, 1)
    with pytest.raises(ValueError):
        verification._class_rows(lattices.lattice("D8"), *jacobi.weight0_rows("psi_4_D8", phi, 1))


def _add_slice_term(monkeypatch, key, q, z):
    """Append z, with coefficient one, to the block rows at q that the
    support checks read."""
    real = jacobi._member_rows

    def crooked(k, q_num):
        rows = real(k, q_num)
        if (k, q_num) == (key, q):
            zs, v, reach, vmax = rows
            rows = (np.vstack([zs, np.array([z], zs.dtype)]), np.append(v, 1),
                    np.maximum(reach, np.abs(z)), max(vmax, 1))
        return rows

    monkeypatch.setattr(jacobi, "_member_rows", crooked)


def _bump_phi0_term(monkeypatch, key, q, z):
    real = jacobi.weak_weight0

    def crooked(k, depth):
        phi = real(k, depth)
        if k == key:
            phi = copy(phi)
            phi.add_term(q, z, 0, 1)
        return phi

    monkeypatch.setattr(jacobi, "weak_weight0", crooked)


def test_negative_control_below_cone_slice_term(monkeypatch):
    # 2 - 15/4: below the cone, and off the integers
    z = (3, 1, 1, 1, 1, 1, 1, 0)
    # the crooked rows are the block's corner, which a cold division checks
    jacobi.weak_weight0("psi_4_D8", 2)
    _add_slice_term(monkeypatch, "psi_4_D8", 24, z)
    rep = verification.run("lemma13-support-bounds", TruncationWindow(48, 4))
    assert rep.status == "fail"
    # the rows are held on z_i > 0 and read mirrored out: z and its 2^7 sign images
    images = {tuple(s * a for s, a in zip(signs, z))
              for signs in itertools.product((1, -1), repeat=8)}
    assert len(images) == 128 and list(rep.details["violations"]) == ["psi_4_D8"]
    assert sorted(rep.details["violations"]["psi_4_D8"]) == sorted([24, list(w)] for w in images)
    rep = verification.run("singular-support", TruncationWindow(96, 4))
    assert rep.status == "fail"
    assert rep.details["psi_4_D8"] == ["-7/4", 0]
    assert rep.details["psi_3_3A2"] == [0]


def test_negative_control_phi0_term_below_the_floor(monkeypatch):
    # -(l, l) = -4 with l = 2 e_1, below the D floor -1
    _bump_phi0_term(monkeypatch, "psi_10_D2", 0, (4, 0))
    rep = verification.run("lemma13-support-bounds", TruncationWindow(48, 4))
    assert rep.status == "fail"
    assert rep.details["violations"] == {"psi_10_D2": [[0, [4, 0], 1]]}


def test_negative_control_floor_term_off_coefficient_one(monkeypatch):
    # l = e_1 at q^0 sits on the D floor -1 with coefficient one
    _bump_phi0_term(monkeypatch, "psi_10_D2", 0, (2, 0))
    rep = verification.run("lemma13-support-bounds", TruncationWindow(48, 4))
    assert rep.status == "fail"
    assert rep.details["violations"] == {"psi_10_D2": [[0, [2, 0], 2]]}


@pytest.mark.parametrize("q_max", [0, 11, 23])
def test_support_checks_fail_below_a_block_without_raising(q_max):
    """Below q = 24 a member whose block has no term inside the window is
    reported as null (cusp-support) or no norms (singular-support), and
    the check fails: a window that checks a member nothing never passes.
    Below q = 12 no block has a term, so nothing is checked at all."""
    below = [k for k, meta in jacobi.MEMBERS.items() if meta.val_q > q_max]
    for name, tops, none in (("singular-support", True, []), ("cusp-support", False, None)):
        rep = verification.run(name, TruncationWindow(q_max, 4))
        assert rep.status == "fail"
        assert sorted(rep.details) == sorted(k for k in jacobi.MEMBERS
                                             if (k in jacobi.TOWER_TOPS) == tops)
        assert sorted(k for k, d in rep.details.items() if d == none) == \
            sorted(k for k in rep.details if k in below), name
        assert (rep.checked_terms == 0) == (q_max < 12)


def test_negative_control_cone_term_below_a_top(monkeypatch):
    # 48/12 - 16/4 = 0: on the cone
    _add_slice_term(monkeypatch, "psi_8_D4", 48, (2, 2, 2, 2))
    rep = verification.run("cusp-support", TruncationWindow(96, 4))
    assert rep.status == "fail"
    assert rep.details["psi_8_D4"] == 0
    assert all(Fraction(low) > 0 for k, low in rep.details.items() if k != "psi_8_D4")


def test_negative_control_d8_phi0_term_off_the_restriction(monkeypatch):
    # the D8 term at q^1, z = 2 e_1 is one of those the restriction sums
    # into z = 2, doubled to z = 4 on the rank-one grid: 232 there becomes 233
    _bump_phi0_term(monkeypatch, "psi_4_D8", 24, (2, 0, 0, 0, 0, 0, 0, 0))
    rep = verification.run("delta11-block")
    assert rep.status == "fail"
    assert rep.details["restriction_difference"] == [0, 24, [4], 233, 232]


def _count_calls(monkeypatch, owner, name) -> list:
    """Patch owner.name with a spy that records each call's arguments."""
    real, calls = getattr(owner, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_warm_delta11_divides_nothing(monkeypatch):
    """Once weak_weight0 holds both quotients, delta11-block reads them."""
    verification.run("delta11-block")
    calls = _count_calls(monkeypatch, jacobi, "phi0_by_division")
    rep = verification.run("delta11-block")
    assert rep.status == "pass" and rep.checked_terms > 0
    assert calls == []


def test_support_checks_read_block_rows_not_slices(monkeypatch):
    """The three support checks take their norms from the block rows in
    array passes: no scalar grid norm and no dict slice."""
    norms = _count_calls(monkeypatch, lattices.Lattice, "grid_norm")
    slices = _count_calls(monkeypatch, jacobi, "member_slice")
    for name in ("lemma13-support-bounds", "singular-support", "cusp-support"):
        assert verification.run(name).status == "pass"
    assert norms == [] and slices == []


def _count_rows_calls(monkeypatch) -> list:
    """Spy on ``_qz_rows`` in every module of the program that binds it."""
    calls = []
    for mod in (jacobi, borcherds, verification):
        if hasattr(mod, "_qz_rows"):
            calls.append(_count_calls(monkeypatch, mod, "_qz_rows"))
    return calls


def test_warm_identity_checks_read_held_rows(monkeypatch, fresh_memos):
    """Warm, delta11-block restricts the held D8 rows in one pass (no
    restrict_z), the support, divisor and class checks reuse the held phi0
    rows (coefficient-class-invariance with no truncated copy), and
    borcherds-integrality counts packed layer keys without decoding them
    into a series.  A cold exponential recursion for a member whose rows
    are held converts no phi0 either."""
    names = ("delta11-block", "lemma13-support-bounds", "reflective-divisor-classes",
             "borcherds-integrality", "coefficient-class-invariance")
    want = [verification.run(n) for n in names]
    restrict = _count_calls(monkeypatch, verification.FourierSeries, "restrict_z")
    rows = _count_rows_calls(monkeypatch)
    decode = _count_calls(monkeypatch, borcherds, "_qz_decode")
    truncated = _count_calls(monkeypatch, verification.FourierSeries, "truncated")
    assert verification.run("coefficient-class-invariance") == want[-1]
    assert truncated == []
    assert [verification.run(n) for n in names] == want
    assert all(rep.status == "pass" for rep in want)
    assert restrict == [] and all(c == [] for c in rows) and decode == []
    key, j_max, q_depth = "psi_8_D4", 2, 2
    jacobi.weight0_rows(key, jacobi.weak_weight0(key, j_max * q_depth), j_max * q_depth)
    # the checks above read layers of j_max 1 only: these are still cold
    exp = _count_calls(monkeypatch, borcherds, "_exp_packed")
    borcherds.exp_layers(key, j_max, q_depth)
    assert len(exp) == 1 and all(c == [] for c in rows)


def test_integrality_counts_the_terms_of_the_materialised_product():
    win = TruncationWindow(72, 4)
    want = sum(borcherds.borcherds_exp(key, win).term_count() for key in jacobi.MEMBERS)
    assert verification.run("borcherds-integrality", win).checked_terms == want


def _refers_to(obj, target, seen) -> bool:
    """Whether target is obj or sits inside it through dicts, lists and tuples."""
    if obj is target:
        return True
    if not isinstance(obj, (dict, list, tuple)) or id(obj) in seen:
        return False
    seen.add(id(obj))
    items = obj.values() if isinstance(obj, dict) else obj
    return any(_refers_to(x, target, seen) for x in items)


def test_weight0_rows_are_held_once_beside_the_held_series(monkeypatch, fresh_memos):
    """The held series is built from its rows, so reading them converts
    nothing: every depth up to its own is a read-only prefix equal to
    ``_qz_rows`` of the series truncated there.  Another phi is converted
    afresh and leaves the held rows alone, and a deeper division drops the
    replaced series together with its rows."""
    key, depth = "psi_8_D4", 2
    phi = jacobi.weak_weight0(key, depth)
    conversions = _count_calls(monkeypatch, jacobi, "_qz_rows")
    for d in range(depth + 1):
        rows = jacobi.weight0_rows(key, phi, d)
        want = _qz_rows({q // 24: sl for (_, q), sl in
                         phi.truncated(TruncationWindow(24 * d, 0)).cells.items()}, phi.r, object)
        assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(rows, want))
    assert len(conversions) == 0
    with pytest.raises(ValueError, match="too shallow"):
        jacobi.weight0_rows(key, phi, depth + 1)
    got = jacobi.weight0_rows(key, copy(phi), depth)
    assert len(conversions) == 1
    assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(got, rows))
    assert not any(np.shares_memory(a, b) for a, b in zip(got, rows))
    again = jacobi.weight0_rows(key, phi, depth)
    assert len(conversions) == 1 and all(np.shares_memory(a, b) for a, b in zip(again, rows))
    jacobi.weak_weight0(key, depth + 1)
    assert not any(_refers_to(x, phi, set()) for x in vars(jacobi).values())


def test_negative_control_coefficient_off_its_class(monkeypatch):
    # c(1, 2 e_1) = 36 is shared by every permutation and sign change
    _bump_phi0_term(monkeypatch, "psi_4_D8", 24, (2, 0, 0, 0, 0, 0, 0, 0))
    rep = verification.run("coefficient-class-invariance", TruncationWindow(48, 4))
    assert rep.status == "fail"
    assert rep.details["psi_4_D8"]["broken"] >= 1
    assert all(d["broken"] == 0 for k, d in rep.details.items() if k != "psi_4_D8")
