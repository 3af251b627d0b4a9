"""Named machine checks for the tower identities.

Each identity has a short name, a plain-language claim, a window cap, and a
runner.  ``run`` executes one identity inside the cap (intersected with a
caller window when given) and returns a ``VerificationReport``.  ``run_suite``
executes a selection in name order so output is deterministic.

The caps exist because some identities are expensive: the lift-vs-product
comparisons walk every Fourier cell of both sides, and the deep D-tower
members have millions of terms per slice.  Cheap scalar identities carry
generous caps instead.
"""

from fractions import Fraction
from typing import NamedTuple

from .series import TruncationWindow
from . import jacobi
from . import lattices
from . import lifting
from . import borcherds


class VerificationReport(NamedTuple):
    identity: str
    claim: str
    window: tuple  # (q_max, s_max) actually used
    status: str  # "pass" or "fail"
    checked_terms: int
    details: dict


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else x.numerator
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


# ---------------------------------------------------------------------------
# runners; each returns (ok, checked_terms, details)


def _run_theta_triple(win):
    a = jacobi.theta(win.q_max)
    b = jacobi.theta_product_form(win.q_max)
    diff = a.first_difference(b)
    return diff is None, a.term_count(), {"first_difference": _jsonable(diff)}


def _run_eta3(win):
    # closed law: the only surviving powers are 3*n^2 with coefficient
    # chi4(n)*n, which is the square-indexed expansion of the eta cube
    table = jacobi.eta_power(3, win.q_max)
    want = {}
    n = 1
    while 3 * n * n <= win.q_max:
        c = jacobi.chi4(n) * n
        if c:
            want[3 * n * n] = c
        n += 1
    got = {q: sl[()] for (s, q), sl in table.cells.items() if sl}
    ok = got == want
    checked = len(want)
    # and the table really is the gradient of the theta function at z = 0
    qmax = win.q_max
    th = jacobi.build("theta", TruncationWindow(qmax, 0))
    qp = jacobi.quasi_pullback(th, 0)
    diff = qp.series.first_difference(jacobi.eta_power(3, qmax))
    ok = ok and diff is None
    checked += qp.series.term_count()
    return ok, checked, {"law_terms": len(want), "pullback_difference": _jsonable(diff)}


_Q0_CONST = {
    "D": lambda meta: 24 - 2 * meta.r,
    "D1": lambda meta: 22,
    "A2": lambda meta: 24 - 6 * meta.copies,
    "A1": lambda meta: 12 - 2 * meta.copies,
}


def _run_q0_terms(win):
    ok = True
    checked = 0
    bad = {}
    for key, meta in jacobi.MEMBERS.items():
        phi = jacobi.weak_weight0(key, max(win.q_max // 24, 1)).series
        got = phi.cells.get((0, 0), {})
        want = {(0,) * meta.r: _Q0_CONST[meta.family](meta)}
        for dvec in jacobi._corner_dirs(meta):
            want[tuple(2 * a for a in dvec)] = 1
            want[tuple(-2 * a for a in dvec)] = 1
        if got != want:
            ok = False
            bad[key] = {"got": _jsonable(got), "want": _jsonable(want)}
        checked += len(want)
    return ok, checked, {"constants": {k: _Q0_CONST[m.family](m) for k, m in jacobi.MEMBERS.items()}, "mismatches": bad}


def _hyper_norm(lat, q, z, index=1) -> int:
    """2 (q/24) index - (l, l) for the index (q, z) of a form on the grid of
    lat, as a numerator over ``_norm_den(lat, index)``."""
    return q * index.numerator * lat.norm_den - 12 * index.denominator * lat.grid_norm(z)


def _norm_den(lat, index=1) -> int:
    return 12 * index.denominator * lat.norm_den


def _run_support_bounds(win):
    # two-sided support control: block coefficients never sit below the
    # cone, weight-0 coefficients never drop below the family floor, and
    # every below-cone weight-0 term sits exactly on the floor with
    # coefficient one
    ok = True
    checked = 0
    bad = {}
    depth = max(win.q_max // 24, 1)
    for key, meta in jacobi.MEMBERS.items():
        lat = lattices.lattice(meta.lattice_name)
        for j in range(depth + 1):
            q = meta.val_q + 24 * j
            if q > win.q_max:
                break
            for z in jacobi.member_slice(key, q):
                checked += 1
                if _hyper_norm(lat, q, z, meta.index) < 0:
                    ok = False
                    bad.setdefault(key, []).append(_jsonable((q, z)))
        floor = borcherds._FAMILY_MIN[meta.family] * _norm_den(lat)
        assert floor.denominator == 1, "family floor off the norm grid"
        floor = floor.numerator
        pdepth = min(depth, 4)
        phi = jacobi.weak_weight0(key, pdepth).series.truncated(TruncationWindow(24 * pdepth, 0))
        for (s, q), sl in phi.cells.items():
            for z, c in sl.items():
                checked += 1
                nrm = _hyper_norm(lat, q, z)
                if nrm < floor or (nrm < 0 and (nrm != floor or c != 1)):
                    ok = False
                    bad.setdefault(key, []).append(_jsonable((q, z, c)))
    return ok, checked, {"violations": bad}


def _support_norms(key, win):
    meta = jacobi.MEMBERS[key]
    lat = lattices.lattice(meta.lattice_name)
    depth = max(win.q_max // 24, 1)
    norms = set()
    count = 0
    for j in range(depth + 1):
        q = meta.val_q + 24 * j
        if q > win.q_max:
            break
        for z in jacobi.member_slice(key, q):
            norms.add(_hyper_norm(lat, q, z, meta.index))
            count += 1
    den = _norm_den(lat, meta.index)
    return {Fraction(n, den) for n in norms}, count


def _run_singular_support(win):
    ok = True
    checked = 0
    details = {}
    for key in sorted(jacobi.TOWER_TOPS):
        norms, count = _support_norms(key, win)
        checked += count
        details[key] = [_jsonable(n) for n in sorted(norms)]
        if norms != {Fraction(0)}:
            ok = False
    return ok, checked, details


def _run_cusp_support(win):
    ok = True
    checked = 0
    details = {}
    for key in jacobi.MEMBERS:
        if key in jacobi.TOWER_TOPS:
            continue
        norms, count = _support_norms(key, win)
        checked += count
        low = min(norms)
        details[key] = _jsonable(low)
        if low <= 0:
            ok = False
    return ok, checked, details


def _run_closed_form(win):
    ok = True
    checked = 0
    bad = {}
    q_depth = max(win.q_max // 24, 1)
    s_depth = max(win.s_max // 2, 1)
    for k in range(2, 9):
        key = "psi_%d_D%d" % (12 - k, k)
        for m in range(1, s_depth + 1):
            for n in range(1, q_depth + 1):
                want = jacobi.member_hecke_slice(key, m, 24 * n)
                got = lifting.closed_form_slice(k, n, m)
                checked += len(want)
                if got != want:
                    ok = False
                    bad.setdefault(key, []).append((n, m))
    return ok, checked, {"mismatched_slices": bad}


def _lift_product_runner(key):
    def run(win):
        rep = borcherds.compare_lift_product(key, max(win.q_max // 24, 1), max(win.s_max // 2, 1))
        details = {
            "member": rep["member"],
            "layers": [l["s_num"] for l in rep["layers"]],
            "first_mismatch": _jsonable(rep["first_mismatch"]),
        }
        return rep["status"] == "pass", rep["checked_terms"], details

    return run


_EXPECTED_CLASSES = {
    "D": lambda meta: [(-4, 2)],
    "D1": lambda meta: [(-4, 2), (-4, 4)],
    "A2": lambda meta: [(-6, 3)] * meta.copies,
    "A1": lambda meta: [(-2, 2)] * meta.copies,
}


def _all_reflective(name: str, classes) -> bool:
    """Every scanned wall class (v^2, div, kappa) is a reflective class of the lattice."""
    refl = {(c.v2, c.div, k) for c in lattices.lattice(name).classify_reflective()
            for k in c.kappas}
    return all((c.v2, c.div, c.kappa) in refl for c in classes)


def _run_divisor_classes(win):
    ok = True
    checked = 0
    details = {}
    depth = max(win.q_max // 24, 2)
    for key, meta in jacobi.MEMBERS.items():
        rep = borcherds.reflective_divisor_scan(key, depth)
        checked += rep["wall_count"]
        got = sorted((c.v2, c.div) for c in rep["classes"])
        want = sorted(_EXPECTED_CLASSES[meta.family](meta))
        simple = all(set(c.multiplicities) == {1} for c in rep["classes"])
        details[key] = {"classes": got, "walls": rep["wall_count"], "simple": simple}
        if got != want or not simple or not _all_reflective(meta.lattice_name, rep["classes"]):
            ok = False
    return ok, checked, details


_NM_SAMPLES = [
    ("psi_7_D5", [(1, 2), (2, 3), (1, 4)]),
    ("eta21_theta2z", [(1, 2), (2, 3), (1, 4)]),
    ("psi_6_2A2", [(1, 2), (2, 3)]),
    ("psi_3_3A1", [(1, 3), (3, 5)]),
]


def _run_nm_symmetry(win):
    ok = True
    checked = 0
    bad = []
    for key, pairs in _NM_SAMPLES:
        unit = jacobi.MEMBERS[key].q_grid
        for n, m in pairs:
            if unit * n * max(n, m) > win.q_max:
                continue
            a = jacobi.member_hecke_slice(key, m, unit * n)
            b = jacobi.member_hecke_slice(key, n, unit * m)
            checked += len(a)
            if a != b:
                ok = False
                bad.append((key, n, m))
    return ok, checked, {"mismatches": bad}


def _check_map(sl, f, sign):
    return all(sl.get(f(z)) == sign * c for z, c in sl.items())


def _run_weyl_symmetry(win):
    ok = True
    checked = 0
    details = {}

    def probe(key, q, tests):
        nonlocal ok, checked
        sl = jacobi.member_slice(key, min(q, win.q_max))
        res = {}
        for name, f, sign in tests:
            good = _check_map(sl, f, sign)
            res[name] = good
            ok = ok and good
            checked += len(sl)
        details[key] = res

    probe("psi_8_D4", 120, [
        ("rotate", lambda z: z[1:] + z[:1], 1),
        ("single_flip", lambda z: (-z[0],) + z[1:], -1),
        ("double_flip", lambda z: (-z[0], -z[1]) + z[2:], 1),
    ])
    probe("psi_4_2A1", jacobi.MEMBERS["psi_4_2A1"].val_q + 48, [
        ("copy_swap", lambda z: (z[1], z[0]), 1),
        ("single_flip", lambda z: (-z[0], z[1]), -1),
    ])
    probe("psi_9_A2", 96, [
        ("reflection", lambda z: (-z[0], z[0] + z[1]), 1),
        ("rotation", lambda z: (z[1], -z[0] - z[1]), 1),
        ("full_flip", lambda z: (-z[0], -z[1]), -1),
        ("swap", lambda z: (z[1], z[0]), -1),
    ])
    probe("psi_6_2A2", 96, [
        ("copy_swap", lambda z: z[2:] + z[:2], 1),
    ])
    probe("eta21_theta2z", jacobi.MEMBERS["eta21_theta2z"].val_q + 48, [
        ("flip", lambda z: (-z[0],), -1),
    ])
    return ok, checked, details


_CLASS_REPS = ["psi_4_D8", "psi_10_D2", "eta21_theta2z", "psi_9_A2", "psi_5_A1", "psi_2_4A1"]


def _run_class_invariance(win):
    # group weight-0 coefficients by (hyperbolic norm numerator,
    # discriminant class, as its integer key); each group must be constant
    ok = True
    checked = 0
    details = {}
    depth = min(max(win.q_max // 24, 1), 3)
    for key in _CLASS_REPS:
        meta = jacobi.MEMBERS[key]
        lat = lattices.lattice(meta.lattice_name)
        phi = jacobi.weak_weight0(key, depth).series.truncated(TruncationWindow(24 * depth, 0))
        groups = {}
        for (s, q), sl in phi.cells.items():
            for z, c in sl.items():
                nrm = _hyper_norm(lat, q, z)
                groups.setdefault((nrm, lat._key(lat._dual(z, grid=True))), set()).add(c)
                checked += 1
        broken = sum(1 for vals in groups.values() if len(vals) != 1)
        details[key] = {"groups": len(groups), "broken": broken}
        if broken:
            ok = False
    return ok, checked, details


def _run_pullback_chain(win):
    ok = True
    checked = 0
    steps = []
    w = TruncationWindow(win.q_max, 0)
    cur = jacobi.build("psi_4_D8", w)
    for k in range(8, 2, -1):
        tgt = jacobi.build("psi_%d_D%d" % (12 - (k - 1), k - 1), w)
        qp = jacobi.quasi_pullback(cur, k - 1)
        diff = qp.series.first_difference(tgt.series)
        good = diff is None and qp.weight == tgt.weight
        steps.append({"from": cur.name, "to": tgt.name, "ok": good})
        ok = ok and good
        checked += tgt.series.term_count()
        cur = tgt
    th = jacobi.build("theta", w)
    qp = jacobi.quasi_pullback(th, 0)
    diff = qp.series.first_difference(jacobi.eta_power(3, w.q_max))
    good = diff is None
    steps.append({"from": "theta", "to": "eta^3", "ok": good})
    ok = ok and good
    checked += qp.series.term_count()
    return ok, checked, {"steps": steps}


def _run_weight_constant(win):
    ok = True
    checked = 0
    details = {}
    for key, meta in jacobi.MEMBERS.items():
        c00 = jacobi.weak_weight0(key, 1).series.cells.get((0, 0), {}).get((0,) * meta.r, 0)
        details[key] = {"weight": meta.weight, "constant": c00}
        checked += 1
        if 2 * meta.weight != c00:
            ok = False
    return ok, checked, details


def _run_integrality(win):
    ok = True
    checked = 0
    details = {}
    for key in jacobi.MEMBERS:
        try:
            b = borcherds.borcherds_exp(key, win)
        except ArithmeticError as exc:
            ok = False
            details[key] = str(exc)
            continue
        checked += b.term_count()
    return ok, checked, details


def _run_fj1(win):
    checked = 0
    bad = []
    for key, meta in jacobi.MEMBERS.items():
        for q in range(meta.val_q, win.q_max + 1, 24):
            a = jacobi.member_hecke_slice(key, 1, q)
            checked += len(a)
            if a != jacobi.member_slice(key, q) and key not in bad:
                bad.append(key)
    return not bad, checked, {"mismatches": bad}


def _run_delta11(win):
    depth = min(max(win.q_max // 24, 1), 3)
    top = jacobi.phi0_by_division("psi_4_D8", depth).series
    while top.r > 1:
        top = top.restrict_z(top.r - 1)
    doubled = top.scale_variables(1, 2)
    own = jacobi.phi0_by_division("eta21_theta2z", depth).series
    diff = doubled.first_difference(own)
    ok = diff is None
    checked = own.term_count()
    rep = borcherds.reflective_divisor_scan("eta21_theta2z", max(depth + 2, 5))
    got = sorted((c.v2, c.div) for c in rep["classes"])
    simple = all(set(c.multiplicities) == {1} for c in rep["classes"])
    ok = ok and got == [(-4, 2), (-4, 4)] and simple and _all_reflective("D1", rep["classes"])
    checked += rep["wall_count"]
    return ok, checked, {"restriction_difference": _jsonable(diff),
                         "classes": _jsonable(got), "simple": simple}


# ---------------------------------------------------------------------------
# registry

_W = TruncationWindow

_REGISTRY = {
    "theta-triple-product": (
        "The odd theta series equals its triple product expansion.",
        _W(288, 0), _run_theta_triple),
    "eta3-closed-form": (
        "The eta cube is supported on three times the squares with "
        "coefficient chi4(n) times n, and is the theta gradient at zero.",
        _W(1200, 0), _run_eta3),
    "q0-terms": (
        "Each weight-0 form starts with the family constant plus one for "
        "every unit direction of its block.",
        _W(48, 0), _run_q0_terms),
    "lemma13-support-bounds": (
        "Block coefficients never sit below the cone and weight-0 "
        "coefficients never drop below the family floor.",
        _W(96, 0), _run_support_bounds),
    "singular-support": (
        "The three tower tops are supported exactly on the cone.",
        _W(144, 0), _run_singular_support),
    "cusp-support": (
        "Every member below a top keeps a positive distance from the cone.",
        _W(144, 0), _run_cusp_support),
    "closed-form-vs-lift": (
        "The divisor-sum formula reproduces every lift coefficient of the "
        "D tower.",
        _W(120, 6), _run_closed_form),
    "reflective-divisor-classes": (
        "Product divisors are simple and form one reflection class per "
        "block component.",
        _W(96, 0), _run_divisor_classes),
    "nm-symmetry": (
        "Lift coefficients are symmetric in the two hyperbolic indices.",
        _W(144, 0), _run_nm_symmetry),
    "weyl-symmetry": (
        "Slices carry the block symmetries with the parity of the flip.",
        _W(144, 0), _run_weyl_symmetry),
    "coefficient-class-invariance": (
        "Weight-0 coefficients depend only on the hyperbolic norm and the "
        "discriminant class.",
        _W(72, 0), _run_class_invariance),
    "quasi-pullback-chain": (
        "Setting one elliptic variable to zero steps down the D tower one "
        "member at a time, ending at the eta cube.",
        _W(96, 0), _run_pullback_chain),
    "weight-equals-half-constant": (
        "The weight of each member is half the constant term of its "
        "weight-0 form.",
        _W(24, 0), _run_weight_constant),
    "borcherds-integrality": (
        "Product expansions have integer coefficients for all members.",
        _W(72, 4), _run_integrality),
    "fj1-recovery": (
        "The first Fourier-Jacobi layer of each lift is the block itself.",
        _W(144, 2), _run_fj1),
    "delta11-block": (
        "The rank-one member is the doubled restriction of the D8 "
        "weight-0 form and carries two divisor components.",
        _W(72, 0), _run_delta11),
}

for _key in jacobi.MEMBERS:
    _REGISTRY["lift-equals-product:" + _key] = (
        "The arithmetic lift of %s equals its Borcherds product layer by "
        "layer." % _key,
        _W(120, 6), _lift_product_runner(_key))


def identities() -> list:
    return sorted(_REGISTRY)


def run(identity: str, window: TruncationWindow = None) -> VerificationReport:
    if identity not in _REGISTRY:
        raise KeyError("unknown identity %r" % identity)
    claim, cap, runner = _REGISTRY[identity]
    eff = cap if window is None else cap.meet(window)
    ok, checked, details = runner(eff)
    return VerificationReport(
        identity=identity,
        claim=claim,
        window=(eff.q_max, eff.s_max),
        status="pass" if ok else "fail",
        checked_terms=checked,
        details=details,
    )


def run_suite(names=None, window: TruncationWindow = None) -> list:
    if names is None:
        names = identities()
    else:
        for n in names:
            if n not in _REGISTRY:
                raise KeyError("unknown identity %r" % n)
    return [run(n, window) for n in sorted(names)]
