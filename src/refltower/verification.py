"""Named machine checks for the tower identities.

Each identity has a short name, a plain-language claim, a window cap, and a
runner.  ``run`` executes one identity inside the cap (intersected with a
caller window when given) and returns a ``VerificationReport``.  ``run_suite``
executes a selection in name order so output is deterministic.

The caps exist because some identities are expensive: the lift-vs-product
comparisons walk every Fourier cell of both sides, and the deep D-tower
members have millions of terms per slice.  Cheap scalar identities carry
generous caps instead.

The D, D1 and A1 blocks and their product layers are held on the sign
orthant z_i > 0 (``jacobi._sign_axes``).  A norm does not see the signs,
and an odd slice has no key with z_i = 0, so the support checks read the
held rows, each standing for 2^len(axes) terms, and mirror out only the
rows a report lists (``_block_rows``, ``jacobi._mirror_rows``); the
integrality check counts the held product layers the same way.
"""

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .series import FourierSeries, TruncationWindow, np
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


def _hyper_norms(lat, q, Z, index):
    """2 (q/24) index - (l, l) of each row (q, z) of a block slice on the
    grid of lat, l = z / den, as int64 numerators over
    ``_norm_den(lat, index)``; q is one int or one per row.  Weight-0 rows
    take ``Lattice._wall_norms`` instead."""
    g = lat._grid_norms(Z)
    a, b = index.numerator * lat.norm_den, 12 * index.denominator
    lattices._fit(lattices._amax(q) * a + b * lattices._amax(g))
    return q * a - b * g


def _norm_den(lat, index) -> int:
    return 12 * index.denominator * lat.norm_den


def _block_rows(key, q_max: int, depth: int) -> list:
    """(q, z rows, values) of the block's slices on levels 0..depth through
    q_max as ``jacobi._member_rows`` holds them, on the sign orthant for
    D, D1 and A1; the deepest level is read first, so a cold block is
    multiplied out once."""
    val_q = jacobi.MEMBERS[key].val_q
    top = min(depth, (q_max - val_q) // 24)
    jacobi._member_rows(key, val_q + 24 * top)
    return [(val_q + 24 * j, *jacobi._member_rows(key, val_q + 24 * j)[:2])
            for j in range(top + 1)]


def _run_support_bounds(win):
    """Two-sided support control: block coefficients never sit below the
    cone, and every below-cone weight-0 term sits exactly on the family
    floor (never below it) with coefficient one.  The norms of each block
    slice and of the phi0 terms are one array expression each; violations
    are listed in row order."""
    ok = True
    checked = 0
    bad = {}
    depth = max(win.q_max // 24, 1)
    for key, meta in jacobi.MEMBERS.items():
        lat = lattices.lattice(meta.lattice_name)
        axes = jacobi._sign_axes(meta)
        for q, z, v in _block_rows(key, win.q_max, depth):
            checked += len(z) << len(axes)
            below = _hyper_norms(lat, q, z, meta.index) < 0
            if below.any():  # the whole rows below the cone, in row order
                zb = jacobi._mirror_rows(z[below], v[below], axes)[0]
                for row in zb[np.lexsort(zb.T[::-1])].tolist():
                    ok = False
                    bad.setdefault(key, []).append([q, row])
        floor = borcherds._norm_floor(meta.family, lat)
        pdepth = min(depth, 4)
        lv, z, v = jacobi.weight0_rows(key, jacobi.weak_weight0(key, pdepth).series, pdepth)
        nrm = lat._wall_norms(lv, z, 1)
        checked += len(v)
        off = np.flatnonzero((nrm < 0) & ((nrm != floor) | (v != 1)))
        for lvl, row, c in zip(lv[off].tolist(), z[off].tolist(), v[off].tolist()):
            ok = False
            bad.setdefault(key, []).append([24 * lvl, row, _jsonable(c)])
    return ok, checked, {"violations": bad}


def _support_norms(key, win):
    """The distinct norms 2 (q/24) index - (l, l) of the block's terms
    through the window, as Fractions, and the number of terms: one array
    pass per slice over the held rows of ``jacobi._member_rows``, each
    2^len(axes) terms of one norm."""
    meta = jacobi.MEMBERS[key]
    lat = lattices.lattice(meta.lattice_name)
    shift = len(jacobi._sign_axes(meta))
    norms, count = set(), 0
    for q, z, _ in _block_rows(key, win.q_max, max(win.q_max // 24, 1)):
        norms.update(np.unique(_hyper_norms(lat, q, z, meta.index)).tolist())
        count += len(z) << shift
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
        low = min(norms, default=None)  # None: no term inside the window
        details[key] = _jsonable(low)
        if low is None or low <= 0:
            ok = False
    return ok, checked, details


def _run_closed_form(win):
    ok = True
    checked = 0
    bad = {}
    q_depth = max(win.q_max // 24, 1)
    s_depth = win.s_max // 2
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
        if win.s_max < 2:  # no layer: nothing checked, which ``run`` reads as a fail
            return False, 0, {"member": key, "layers": [], "first_mismatch": None}
        rep = borcherds.compare_lift_product(key, max(win.q_max // 24, 1), win.s_max // 2)
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


@cache
def _reflective_keys(name: str) -> frozenset:
    """(v^2, div, kappa) of every reflective class of a lattice, once per process."""
    return frozenset((c.v2, c.div, k) for c in lattices.lattice(name).classify_reflective()
                     for k in c.kappas)


def _all_reflective(name: str, classes) -> bool:
    """Every scanned wall class (v^2, div, kappa) is a reflective class of the lattice."""
    refl = _reflective_keys(name)
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


def _class_rows(lat, lv, z, v):
    """(norms, class keys, values) of weight-0 rows (``jacobi.weight0_rows``),
    row for row: norms as (2 n - (l, l)) * norm_den, keys as
    ``Lattice._key``; a term off S^vee raises ValueError."""
    lat._content(z)  # the S^vee check
    return lat._wall_norms(lv, z, 1), lat._keys(z), v


def _run_class_invariance(win):
    # group weight-0 coefficients by (hyperbolic norm, discriminant class
    # as its integer key); each group must be constant
    ok = True
    checked = 0
    details = {}
    depth = min(max(win.q_max // 24, 1), 3)
    for key in _CLASS_REPS:
        lat = lattices.lattice(jacobi.MEMBERS[key].lattice_name)
        rows = jacobi.weight0_rows(key, jacobi.weak_weight0(key, depth).series, depth)
        nrm, cls, v = _class_rows(lat, *rows)
        _, group, _ = borcherds._row_unique(np.column_stack([nrm, cls]))
        # groups holding more than one distinct coefficient
        seen = np.bincount([g for g, _ in set(zip(group.tolist(), v.tolist()))])
        broken = int(np.count_nonzero(seen > 1))
        checked += len(v)
        details[key] = {"groups": len(seen), "broken": broken}
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
    for key, meta in jacobi.MEMBERS.items():
        shift = len(jacobi._sign_axes(meta))  # the held layers, never decoded: 2^shift terms a key
        try:
            checked += sum(len(k) for _, _, k, _ in borcherds.product_layers(key, win)) << shift
        except ArithmeticError as exc:
            ok = False
            details[key] = str(exc)
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
    held = TruncationWindow(24 * depth, 0)
    top = jacobi.weak_weight0("psi_4_D8", depth).series
    # the restriction to z_1 = 0, ..., z_7 = 0 in one pass: sum the
    # coefficients of the held rows over (level, z_0)
    lv, z, v = jacobi.weight0_rows("psi_4_D8", top, depth)
    z0 = z[:, 0]
    cuts = np.flatnonzero(np.diff(lv, prepend=-1) | np.diff(z0, prepend=z0[:1] - 1))
    doubled = FourierSeries(1, top.den_z, top.window.meet(held))
    sums = np.add.reduceat(v.astype(object), cuts)  # exact, whatever the rows' dtype
    for l, a, c in zip(lv[cuts].tolist(), z0[cuts].tolist(), sums.tolist()):
        if c:
            doubled.cells.setdefault((0, 24 * l), {})[(2 * a,)] = c
    own = jacobi.weak_weight0("eta21_theta2z", depth).series.truncated(held)
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
        status="pass" if ok and checked else "fail",  # a check that examined nothing fails
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
