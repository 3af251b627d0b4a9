"""Top-level acceptance checks, one per machine-checkable claim.

Each test prints one pass line with its measured size and time; budgets
are asserted where a claim carries one.  Everything is exact equality on
truncated expansions, no floats.
"""

import random
import time

from fractions import Fraction

from refltower import borcherds, jacobi, lattices, verification
from refltower.series import FourierSeries, TruncationWindow

from helpers import discriminant_group


def _ok(rep):
    assert rep.status == "pass", (rep.identity, rep.details)
    return rep


def test_c01_theta_triple_product_fast():
    t0 = time.perf_counter()
    rep = _ok(verification.run("theta-triple-product"))
    dt = time.perf_counter() - t0
    assert rep.window == (288, 0)
    assert dt < 1.0, dt
    print("PASS c01 theta sum=product through q^12, %d terms, %.3fs" % (rep.checked_terms, dt))


def test_c02_eta_cube_closed_form_fast():
    t0 = time.perf_counter()
    rep = _ok(verification.run("eta3-closed-form"))
    dt = time.perf_counter() - t0
    assert rep.window == (1200, 0)
    assert dt < 1.0, dt
    print("PASS c02 eta^3 law through q^(400/8), %.3fs" % dt)


def test_c03_weight0_constant_terms():
    t0 = time.perf_counter()
    rep = _ok(verification.run("q0-terms"))
    dt = time.perf_counter() - t0
    consts = rep.details["constants"]
    assert [consts["psi_%d_D%d" % (12 - k, k)] for k in range(2, 9)] == [
        24 - 2 * k for k in range(2, 9)]
    assert consts["psi_9_A2"] == 18
    assert consts["psi_6_2A2"] == 12
    assert consts["psi_3_3A2"] == 6
    assert consts["psi_5_A1"] == 10
    assert consts["psi_2_4A1"] == 4
    assert consts["eta21_theta2z"] == 22
    assert dt < 30.0, dt
    print("PASS c03 q^0 constants of all 15 weight-0 forms, %.1fs" % dt)


def test_c04_weight_is_half_constant():
    rep = _ok(verification.run("weight-equals-half-constant"))
    got = {k: v["weight"] for k, v in rep.details.items()}
    for k in range(2, 9):
        assert got["psi_%d_D%d" % (12 - k, k)] == 12 - k
    assert got["eta21_theta2z"] == 11
    assert [got["psi_9_A2"], got["psi_6_2A2"], got["psi_3_3A2"]] == [9, 6, 3]
    assert [got["psi_5_A1"], got["psi_4_2A1"], got["psi_3_3A1"],
            got["psi_2_4A1"]] == [5, 4, 3, 2]
    print("PASS c04 weight equals half the q^0 constant for all 15 members")


def test_c05_lift_equals_product_all_members():
    t0 = time.perf_counter()
    order = ["psi_4_D8", "psi_3_3A2", "psi_2_4A1", "eta21_theta2z"]
    order += [k for k in jacobi.MEMBERS if k not in order]
    total = 0
    for key in order:
        rep = borcherds.compare_lift_product(key, 5, 3)
        assert rep["status"] == "pass", (key, rep["first_mismatch"])
        total += rep["checked_terms"]
    dt = time.perf_counter() - t0
    assert dt < 600.0, dt
    print("PASS c05 lift = product for all 15 members at depth (5,3), "
          "%d coefficients, %.0fs" % (total, dt))


def test_c06_closed_formula_matches_lift():
    rep = _ok(verification.run("closed-form-vs-lift"))
    assert rep.window == (120, 6)
    print("PASS c06 divisor-sum formula = lift for D2..D8 at depth (5,3), "
          "%d coefficients" % rep.checked_terms)


def test_c07_singular_and_cusp_support():
    rep = _ok(verification.run("singular-support"))
    assert set(rep.details) == {"psi_4_D8", "psi_3_3A2", "psi_2_4A1"}
    rep2 = _ok(verification.run("cusp-support"))
    assert all(Fraction(v) > 0 for v in rep2.details.values())
    print("PASS c07 singular tops sit on the cone, the other 12 stay off it, "
          "%d keys" % (rep.checked_terms + rep2.checked_terms))


def test_c08_reflective_divisor_classes():
    rep = _ok(verification.run("reflective-divisor-classes"))
    det = rep.details
    for k in range(2, 9):
        assert det["psi_%d_D%d" % (12 - k, k)]["classes"] == [(-4, 2)]
    assert det["eta21_theta2z"]["classes"] == [(-4, 2), (-4, 4)]
    for c, key in ((1, "psi_9_A2"), (2, "psi_6_2A2"), (3, "psi_3_3A2")):
        assert det[key]["classes"] == [(-6, 3)] * c
    for c, key in ((1, "psi_5_A1"), (2, "psi_4_2A1"), (3, "psi_3_3A1"),
                   (4, "psi_2_4A1")):
        assert det[key]["classes"] == [(-2, 2)] * c
    assert all(d["simple"] for d in det.values())
    print("PASS c08 reflective walls all multiplicity 1 in the expected "
          "classes, %d walls" % rep.checked_terms)


def test_c09_lattice_classification_fast():
    t0 = time.perf_counter()
    for n in range(1, 9):
        name = "D%d" % n
        inv = discriminant_group(lattices.lattice(name)).invariants
        assert inv == ((4,) if n % 2 else (2, 2)), (name, inv)
    refl = lattices.lattice("D5").classify_reflective()
    stable = [c for c in refl if c.in_tilde_so]
    assert len(stable) == 1
    assert (stable[0].v2, stable[0].div) == (-4, 2)
    dt = time.perf_counter() - t0
    assert dt < 1.0, dt
    print("PASS c09 D_n discriminant dichotomy and the unique D5 "
          "reflective class, %.3fs" % dt)


def test_c10_quasi_pullback_chain():
    rep = _ok(verification.run("quasi-pullback-chain"))
    assert all(s["ok"] for s in rep.details["steps"])
    assert rep.details["steps"][-1]["to"] == "eta^3"
    print("PASS c10 pullback chain D8 -> D7 -> ... -> D2 and theta -> eta^3, "
          "%d coefficients" % rep.checked_terms)


def test_c11_product_integrality():
    rep = _ok(verification.run("borcherds-integrality"))
    print("PASS c11 integral product coefficients for all 15 members, "
          "%d terms" % rep.checked_terms)


def _random_series(rng, r, den_z, window, nterms):
    f = FourierSeries(r, den_z, window)
    for _ in range(nterms):
        q = rng.randrange(0, window.q_max + 1)
        s = rng.randrange(0, window.s_max + 1)
        z = tuple(rng.randrange(-3, 4) for _ in range(r))
        f.add_term(q, z, s, Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))))
    return f


def test_c12_property_suites_fast():
    t0 = time.perf_counter()
    # ring laws on random small series
    rng = random.Random(7)
    w = TruncationWindow(40, 4)
    for _ in range(12):
        a = _random_series(rng, 2, 2, w, 14)
        b = _random_series(rng, 2, 2, w, 14)
        c = _random_series(rng, 2, 2, w, 14)
        assert a.mul(b, w).first_difference(b.mul(a, w)) is None
        lhs = a.mul(b + c, w)
        rhs = a.mul(b, w) + a.mul(c, w)
        assert lhs.first_difference(rhs) is None
        assert a.mul(b, w).mul(c, w).first_difference(a.mul(b.mul(c, w), w)) is None
    for rep in verification.run_suite([
            "nm-symmetry", "weyl-symmetry", "coefficient-class-invariance",
            "lemma13-support-bounds"]):
        _ok(rep)
    dt = time.perf_counter() - t0
    assert dt < 120.0, dt
    print("PASS c12 ring laws and invariance suites, %.1fs" % dt)
