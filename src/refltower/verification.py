"""Named machine checks for the tower identities.

Each identity has a short name, a plain-language claim, a window cap, and a
runner.  ``run`` executes one identity inside the cap (intersected with a
caller window when given) and returns a ``VerificationReport``.  ``run_suite``
executes a selection in name order so output is deterministic.

The caps exist because some identities are expensive: the lift-vs-product
comparisons walk every Fourier cell of both sides, and the deep D-tower
members have millions of terms per slice.  Cheap scalar identities carry
generous caps instead.

The blocks and their product layers are held under each member's sign
symmetry (``jacobi._symmetry``).  A norm does not see the signs, so the
support checks read the held rows, count the terms they stand for with
the object, and complete only the rows a report lists (``_block_rows``);
the integrality check counts the held product layers the same way.  The
closed formula is odd too (each chi4 factor is), so ``closed-form-vs-lift``
compares it on the orthant z_i > 0 with the held lift layers
(``jacobi.hecke_levels``).  ``fj1-recovery`` compares the lift's layer 1
there with the orthant shell sum (``jacobi._shell_slice``), and
``quasi-pullback-chain`` steps down the D tower on the held rows
themselves; neither builds a dict slice.
"""

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .series import FourierSeries, TruncationWindow, _encode, _qz_decode, np
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
    # and the table really is the gradient of the theta function at z = 0
    diff, terms = _theta_to_eta3(win.q_max)
    return (got == want and diff is None, len(want) + terms,
            {"law_terms": len(want), "pullback_difference": _jsonable(diff)})


def _theta_to_eta3(q_max: int) -> tuple:
    """(first difference, terms) of theta's quasi-pullback at z = 0
    against eta^3, through q_max."""
    qp = jacobi.quasi_pullback(jacobi.build("theta", TruncationWindow(q_max, 0)), 0)
    return qp.series.first_difference(jacobi.eta_power(3, q_max)), qp.series.term_count()


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
        sym = jacobi._symmetry(meta)
        for q, z, v in _block_rows(key, win.q_max, depth):
            checked += sym.count(len(z))
            below = _hyper_norms(lat, q, z, meta.index) < 0
            if below.any():  # the whole rows below the cone, in row order
                zb = sym.whole(z[below], v[below], -1)[0]
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
    pass per slice over the held rows of ``jacobi._member_rows``, the
    terms counted by ``jacobi._symmetry``."""
    meta = jacobi.MEMBERS[key]
    lat = lattices.lattice(meta.lattice_name)
    sym = jacobi._symmetry(meta)
    norms, count = set(), 0
    for q, z, _ in _block_rows(key, win.q_max, max(win.q_max // 24, 1)):
        norms.update(np.unique(_hyper_norms(lat, q, z, meta.index)).tolist())
        count += sym.count(len(z))
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
    """Each D_k lift layer psi|V_m, as ``jacobi.hecke_levels`` holds it
    (level j is q^n, n = j + 1), against the closed formula on the same
    orthant z_i > 0; both are odd, so the terms are the held count of
    ``jacobi._symmetry``."""
    ok = True
    checked = 0
    bad = {}
    q_depth = max(win.q_max // 24, 1)
    s_depth = win.s_max // 2
    orders = list(range(1, s_depth + 1))
    for k in range(2, 9):
        key = "psi_%d_D%d" % (12 - k, k)
        sym = jacobi._symmetry(jacobi.MEMBERS[key])
        f, layers = jacobi.hecke_levels(key, orders, q_depth - 1)
        for m, (keys, vals) in zip(orders, layers):
            lift = _qz_decode(keys, vals, f, None)
            for n in range(1, q_depth + 1):
                want = lift.get(n - 1, {})
                got = lifting.closed_form_slice(k, n, m, (1,))
                checked += sym.count(len(want))
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
    """D8 -> D7 -> ... -> D2 on the held block rows (``_block_rows``: on
    z_i > 0, lexicographic in z per level, so each run of one z[:-1] is
    contiguous).  The quasi-pullback of an odd block at z' is 2 sum
    c z_last over its run (z_last > 0, the images z_last < 0 doubling
    it) over den_z = 2, one ``np.add.reduceat``; odd in z' again, it must
    equal the next member's held rows, keys and values, whose terms
    ``jacobi._symmetry`` counts.  theta -> eta^3 ends the chain."""
    ok = True
    checked = 0
    steps = []
    depth = win.q_max // 24
    for k in range(8, 2, -1):
        src, tgt = "psi_%d_D%d" % (12 - k, k), "psi_%d_D%d" % (13 - k, k - 1)
        good = jacobi.MEMBERS[src].weight + 1 == jacobi.MEMBERS[tgt].weight
        sym = jacobi._symmetry(jacobi.MEMBERS[tgt])
        for (_, z, v), (_, zt, vt) in zip(_block_rows(src, win.q_max, depth),
                                          _block_rows(tgt, win.q_max, depth)):
            head = z[:, :-1]
            first = np.ones(len(z), bool)  # the first row of each run of one z'
            first[1:] = np.any(head[1:] != head[:-1], axis=1)
            cuts = np.flatnonzero(first)
            sums = np.add.reduceat(v.astype(object) * z[:, -1], cuts)  # exact, whatever the rows' dtype
            keep = sums != 0
            good = good and np.array_equal(head[cuts][keep], zt) and np.array_equal(sums[keep], vt)
            checked += sym.count(len(zt))
        steps.append({"from": src, "to": tgt, "ok": good})
        ok = ok and good
    diff, terms = _theta_to_eta3(win.q_max)
    steps.append({"from": "theta", "to": "eta^3", "ok": diff is None})
    return ok and diff is None, checked + terms, {"steps": steps}


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
        try:  # the held layers, never decoded
            held = sum(len(k) for _, _, k, _ in borcherds.product_layers(key, win))
            checked += jacobi._symmetry(meta).count(held)
        except ArithmeticError as exc:
            ok = False
            details[key] = str(exc)
    return ok, checked, details


def _run_fj1(win):
    """Layer 1 of each lift, psi|V_1 as ``jacobi.hecke_levels`` encodes it
    from the block's held rows (the layer ``compare_lift_product``
    reads), against the block's other construction.  For D, D1 and A1
    that is the odd-shell sum on the orthant z_i > 0
    (``jacobi._shell_slice``); both are odd, so the terms are the held
    count of ``jacobi._symmetry``.  A2 has no second construction: its
    layer is checked against its own rows (``jacobi._member_rows``) as
    packed keys, which covers the encoder alone."""
    checked = 0
    bad = []
    for key, meta in jacobi.MEMBERS.items():
        top = (win.q_max - meta.val_q) // 24
        if top < 0:
            continue
        f, [(keys, vals)] = jacobi.hecke_levels(key, [1], top)
        checked += jacobi._symmetry(meta).count(len(keys))
        if meta.family != "A2":
            lift = _qz_decode(keys, vals, f, None)
            good = all(lift.get(j, {}) == jacobi._shell_slice(meta, meta.val_q + 24 * j, (1,))
                       for j in range(top + 1))
        else:
            rows = _block_rows(key, win.q_max, top)
            lv = np.repeat(np.arange(top + 1), [len(v) for _, _, v in rows])
            z = np.concatenate([z for _, z, _ in rows])
            v = np.concatenate([v for _, _, v in rows])
            good = np.array_equal(keys, _encode(z, f, lv)) and np.array_equal(vals, v)
        if not good:
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
