import json

from refltower import borcherds, jacobi, verification
from refltower.series import TruncationWindow


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
                        lambda q_max: real(q_max).scaled(3))
    rep = verification.run("theta-triple-product", TruncationWindow(48, 0))
    assert rep.status == "fail"
    assert rep.details["first_difference"] is not None


def test_negative_control_catches_corrupt_weight0(monkeypatch):
    real = jacobi.weak_weight0

    def crooked(key, depth):
        form = real(key, depth)
        if key == "psi_5_A1":
            return form._replace(series=form.series.scaled(2))
        return form

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
        form = real(key, depth)
        if key == "psi_10_D2":
            series = form.series.copy()
            assert series.coefficient(0, wall) == 1
            series.add_term(0, wall, 0, 1)
            return form._replace(series=series)
        return form

    monkeypatch.setattr(borcherds, "weak_weight0", crooked)
    rep = verification.run("reflective-divisor-classes", TruncationWindow(48, 0))
    assert rep.status == "fail"
    assert rep.details["psi_10_D2"]["simple"] is False
    assert all(d["simple"] for k, d in rep.details.items() if k != "psi_10_D2")


def test_negative_control_catches_corrupt_lift(monkeypatch):
    real = borcherds.member_hecke_slice
    for key in ("psi_5_A1", "psi_9_A2"):
        val = jacobi.MEMBERS[key].val_q

        def crooked(k, m, q_num, val=val):
            sl = real(k, m, q_num)
            if m == 1 and q_num == val:
                sl = dict(sl)
                z = sorted(sl)[0]
                sl[z] += 1
            return sl

        monkeypatch.setattr(borcherds, "member_hecke_slice", crooked)
        rep = verification.run("lift-equals-product:%s" % key,
                               TruncationWindow(48, 2))
        assert rep.status == "fail", key
        assert rep.details["first_mismatch"] is not None
