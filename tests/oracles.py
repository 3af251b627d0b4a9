"""Reference implementations the tests compare the program against."""

import json
from fractions import Fraction
from math import gcd

import numpy as np

from refltower import borcherds, jacobi, lifting
from refltower.lattices import _dot, lattice
from refltower.series import FourierSeries, TruncationWindow

from helpers import add, divide_slices, exp_series, scaled, shifted


def exp_s(x: FourierSeries) -> FourierSeries:
    """exp of a series with positive s-valuation, exact on its window."""
    one = FourierSeries.monomial(1, 0, (0,) * x.r, 0, x.den_z, x.window)
    if x.is_zero():
        return one
    sval = x.s_valuation()
    if sval <= 0:
        raise ValueError("exp needs positive s-valuation")
    out = one
    term = one
    j = 1
    while j * sval <= x.window.s_max:
        term = scaled(term.mul(x, x.window), Fraction(1, j))
        if term.is_zero():
            break
        out = add(out, term)
        j += 1
    return out


def eta_product(p: int, depth: int) -> list:
    """prod_{n>=1} (1 - q^n)^p through q^depth, one factor (1 - q^n) at a time."""
    a = [1] + [0] * depth
    for n in range(1, depth + 1):
        for _ in range(abs(p)):
            if p > 0:  # times (1 - q^n)
                for i in range(depth, n - 1, -1):
                    a[i] -= a[i - n]
            else:  # divided by (1 - q^n)
                for i in range(n, depth + 1):
                    a[i] += a[i - n]
    return a


def a2_levels(k: int, p: int, depth: int, _memo: dict = {}) -> list:
    """Slices of eta^p Theta_A2^(x k) at levels l = 0..depth, q_num p + 8k + 24l,
    by dict convolution of ``jacobi.theta_A2`` slices.

    Copy c of Theta_A2 holds coordinates 2c, 2c+1.  Memoised per (k, p)
    and extended by the missing levels only, as eta^p (x) Theta^(x k) or
    Theta^(x (k-1)) (x) Theta; Theta_A2 itself is cut from a block built
    at least twice as deep as the last one.
    """
    have = _memo.setdefault((k, p), [])
    if len(have) > depth:
        return have
    if (k, p) == (1, 0):
        top = max(depth, 2 * len(have), 6)
        block = jacobi.theta_A2(8 + 24 * top)
        have[:] = [block.cells.get((0, 8 + 24 * lvl), {}) for lvl in range(top + 1)]
        return have
    if p:
        a = a2_levels(k, 0, depth)
        b = [{(): jacobi._eta_coeff(p, p + 24 * m)} for m in range(depth + 1)]
    else:
        a = a2_levels(k - 1, 0, depth)
        b = a2_levels(1, 0, depth)
    for n in range(len(have), depth + 1):
        acc: dict = {}
        for i in range(n + 1):
            for za, ca in a[i].items():
                for zb, cb in b[n - i].items():
                    z = za + zb
                    acc[z] = acc.get(z, 0) + ca * cb
        have.append({z: c for z, c in acc.items() if c})
    return have


def member_slice(key: str, q_num: int) -> dict:
    """A member's slice from the dicts: ``jacobi.member_slice``'s odd shells
    for the D, D1 and A1 blocks, ``a2_levels`` for the A2 blocks."""
    meta = jacobi.MEMBERS[key]
    if meta.family != "A2":
        return jacobi.member_slice(key, q_num)
    n, off = divmod(q_num - meta.val_q, 24)
    return {} if n < 0 or off else a2_levels(meta.copies, meta.eta_exp, n)[n]


def hecke_v0(phi: FourierSeries, m: int, q_depth: int) -> FourierSeries:
    """phi|V_m^(0) on levels 0..q_depth by the divisor sum on dicts, with
    1/d weights: the sum over d | (n, m) (every d | m when n = 0) of
    phi at level n m / d^2 over d, keys scaled by d, sums that cancel
    dropped.  The reference for the packed ``borcherds.hecke_v0``."""
    if m < 1:
        raise ValueError("translate order must be positive")
    if phi.window.q_max < 24 * q_depth * m:
        raise ValueError("weight-0 form is too shallow for this translate")
    out = FourierSeries(phi.r, phi.den_z, TruncationWindow(24 * q_depth, 0))
    for n in range(q_depth + 1):
        g = gcd(n, m)
        acc: dict = {}  # m times the translate, so the weights m/d are integers
        for d in (d for d in range(1, g + 1) if g % d == 0):
            for z, c in phi.cells.get((0, 24 * (n * m // (d * d))), {}).items():
                zz = tuple(d * a for a in z)
                acc[zz] = acc.get(zz, 0) + (m // d) * c
        cell = {z: v // m if v % m == 0 else Fraction(v, m) for z, v in acc.items() if v}
        if cell:
            out.cells[(0, 24 * n)] = cell
    return out


def primitive_wall(lat, n: int, z: tuple, m: int) -> tuple:
    """``Lattice._primitive`` by trial division: each prime p of
    gcd(n, z, m) is taken out once more while z / (t p) stays in S^vee."""
    g = gcd(n, m, *z)
    t = 1
    rest = g
    p = 2
    while p * p <= rest:
        while rest % p == 0:
            if lat.in_dual(tuple(a // (t * p) for a in z), grid=True):
                t *= p
            rest //= p
        p += 1
    if rest > 1 and lat.in_dual(tuple(a // (t * rest) for a in z), grid=True):
        t *= rest
    return n // t, tuple(a // t for a in z), m // t


def eichler_key(lat, n: int, z: tuple, m: int) -> tuple:
    """(v^2, div, class key) of the primitive vector on the line of
    (n, z / den, m), one wall at a time by the lattice's scalar tables:
    the reference for ``Lattice._eichler_rows``."""
    pairs = [_dot(z, p) for p in lat._P.T.tolist()]
    if any(p % lat._pair_den for p in pairs):
        raise ValueError("ell must be a dual vector")
    D = lat._order(z)
    v2, rem = divmod(D * D * (2 * n * m * lat.norm_den - lat.grid_norm(z)), lat.norm_den)
    if rem:
        raise ValueError("non-integral vector norm")
    dv = D * gcd(n, m, gcd(*pairs) // lat._pair_den)
    return v2, dv, lat._key(tuple(a * D // dv for a in z))


def scan_walls(key: str, q_depth: int) -> list:
    """Sorted (n, z, m, multiplicity) of the primitive walls of nonzero
    multiplicity, one phi0 term and one wall at a time on dicts, walls
    made primitive by ``primitive_wall``: the reference for
    ``borcherds._scan_walls``."""
    meta = jacobi.MEMBERS[key]
    lat = lattice(meta.lattice_name)
    N = lat.norm_den
    floor = borcherds._FAMILY_MIN[meta.family] * N
    phi = jacobi.weak_weight0(key, q_depth).truncated(
        TruncationWindow(24 * q_depth, 0))
    walls: set = set()
    for (_, qn), sl in phi.cells.items():
        nphi = qn // 24
        for z in sl:
            if 2 * nphi * N >= lat.grid_norm(z):
                continue
            if nphi:
                splits = [(a, nphi // a) for a in range(1, nphi + 1)
                          if nphi % a == 0 and a <= q_depth and nphi // a <= q_depth]
            else:
                splits = [(0, m) for m in range(q_depth + 1)]
                splits += [(n, 0) for n in range(1, q_depth + 1)]
            for n, m in splits:
                n0, z0, m0 = primitive_wall(lat, n, z, m)
                if n0 == 0 and m0 == 0 and z0 < tuple(-a for a in z0):
                    z0 = tuple(-a for a in z0)
                walls.add((n0, z0, m0))
    out = []
    for (n0, z0, m0) in sorted(walls):
        mu2 = 2 * n0 * m0 * N - lat.grid_norm(z0)
        mult = 0
        d = 1
        while d * d * mu2 >= floor:
            qn = 24 * d * d * n0 * m0
            if qn > phi.window.q_max:
                raise ValueError("window too small for the multiplicity sum")
            mult += phi.cells.get((0, qn), {}).get(tuple(d * a for a in z0), 0)
            d += 1
        if mult:
            out.append((n0, z0, m0, mult))
    return out


def reflective_divisor_scan(key: str, q_depth: int) -> dict:
    """``borcherds.reflective_divisor_scan`` on ``scan_walls``, grouped one
    wall at a time by ``eichler_key`` on (v^2, div, the smaller of the
    keys of kappa and -kappa)."""
    lat = lattice(jacobi.MEMBERS[key].lattice_name)
    N = lat.norm_den
    groups: dict = {}  # (v2, div, class key) -> [multiplicities, walls, first wall]
    for (n0, z0, m0, mult) in scan_walls(key, q_depth):
        v2, dv, k = eichler_key(lat, n0, z0, m0)
        row = groups.setdefault((v2, dv, min(k, tuple(-a % N for a in k))),
                                [set(), 0, (n0, z0, m0)])
        row[0].add(mult)
        row[1] += 1
    out = []
    for mset, cnt, ex in groups.values():
        ec = lat.eichler_invariant(*ex, grid=True)
        kappa = min(ec.kappa, lat.disc_reduce(tuple(-a for a in ec.kappa)))
        out.append(borcherds.WallClass(ec.v2, ec.div, kappa, tuple(sorted(mset)), cnt, ex))
    out.sort()
    return {"member": key, "q_depth": q_depth, "classes": out,
            "wall_count": sum(c.walls for c in out)}


def to_json(f: FourierSeries) -> str:
    """``FourierSeries.to_json`` by ``json.dumps`` over one dict per term."""
    terms = [{"q": q, "z": list(z), "s": s, "c": str(c)} for q, z, s, c in f.terms()]
    doc = {"schema": 1, "r": f.r, "den_z": f.den_z,
           "window": {"q_max": f.window.q_max, "s_max": f.window.s_max},
           "terms": terms}
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def product_form(key: str, window) -> FourierSeries:
    """``borcherds.borcherds_product_form`` with the running product
    multiplied by one binomial factor at a time."""
    meta = jacobi.MEMBERS[key]
    wd = borcherds.weyl_data(key)
    m_max = max((window.s_max - wd.s_num) // 2, 0)
    q_depth = max((window.q_max - meta.val_q) // 24, 0)
    phi = jacobi.weak_weight0(key, max(q_depth * max(m_max, 1), 1))
    zero = (0,) * meta.r
    out = FourierSeries.monomial(1, 0, zero, 0, meta.den_z, window)
    for m in range(m_max + 1):
        for n in range(q_depth + 1):
            sl = phi.cells.get((0, 24 * n * m), {})
            for z in sorted(sl):
                if sl[z] and not (n == 0 and m == 0 and z <= zero):
                    out = out.mul(borcherds._binom_factor(
                        sl[z], 24 * n, z, 2 * m, meta.r, meta.den_z, window), window)
    return scaled(shifted(out, wd.q_num, wd.z, wd.s_num), wd.sign).truncated(window)


def compare_lift_product(key: str, q_depth: int, s_depth: int) -> dict:
    """``borcherds.compare_lift_product`` one layer at a time on dicts:
    each lift layer from ``jacobi.member_hecke_slice``, divided on its
    own and compared with the decoded E_j slice by slice; a layer that
    differs is compared with psi * E_j from ``FourierSeries.mul``."""
    meta = jacobi.MEMBERS[key]
    s0 = meta.s_step
    layers = lifting.lift_layers(key, 2 * s_depth)
    q_aux = max((24 * q_depth - meta.val_q) // 24, 0)
    j_max = max(((s - s0) // 2) for s, _ in layers) if layers else 0
    E = exp_series(key, j_max, q_aux)
    psi = jacobi.member_series(key, TruncationWindow(meta.val_q + 24 * q_aux, 0))
    checked = 0
    mismatch = None
    rows = []
    for s_num, order in layers:
        Ej = E[(s_num - s0) // 2]
        lifts = [jacobi.member_hecke_slice(key, order, meta.val_q + 24 * j)
                 for j in range(q_aux + 1)]
        layer_terms = sum(len(sl) for sl in lifts)
        try:
            quo = divide_slices(lifts, key, q_aux)
        except ArithmeticError:
            quo = None
        rhs = None
        for j in range(q_aux + 1):
            if mismatch is not None:
                break
            if quo is not None and quo[j] == Ej.cells.get((0, 24 * j), {}):
                continue
            if rhs is None:
                rhs = psi.mul(Ej)
            q = meta.val_q + 24 * j
            cell = rhs.cells.get((0, q), {})
            z = next((k for k in sorted(lifts[j].keys() | cell.keys())
                      if lifts[j].get(k, 0) != cell.get(k, 0)), None)
            if z is not None:
                levels = {qe // 24: sl for (_, qe), sl in Ej.cells.items()}
                mismatch = {
                    "s_num": s_num, "q_num": q, "z": z,
                    "lift": lifts[j].get(z, 0),
                    "product": borcherds._product_coefficient(key, levels, q, z),
                }
        checked += layer_terms
        rows.append({"s_num": s_num, "order": order, "terms": layer_terms})
    return {
        "status": "pass" if mismatch is None else "fail",
        "member": key,
        "q_depth": q_depth,
        "s_depth": s_depth,
        "layers": rows,
        "checked_terms": checked,
        "first_mismatch": mismatch,
    }


def binomial_packed(keys, vals, span: int, s: int):
    """``jacobi._binomial_packed`` with ``np.unique`` lines and one dense
    running sum per residue class mod 2|s|."""
    n = len(keys)
    if n == 0:
        return keys, vals
    sign = 1 if s > 0 else -1
    s = abs(s)
    step = 2 * s
    out_k = []
    out_v = []
    lines = keys // span
    bounds = np.flatnonzero(lines[1:] != lines[:-1]) + 1
    limit = max(1, (1 << 21) // span)
    edges = np.concatenate(([0], bounds, [n]))
    b0 = 0
    while b0 < len(edges) - 1:
        b1 = min(b0 + limit, len(edges) - 1)
        lo, hi = edges[b0], edges[b1]
        b0 = b1
        lb = lines[lo:hi]
        digits = keys[lo:hi] - lb * span
        dmin = int(digits.min())
        uniq, inv = np.unique(lb, return_inverse=True)
        dense = np.zeros((len(uniq), int(digits.max()) - dmin + 1),
                         dtype=vals.dtype)
        dense[inv, digits - dmin] = vals[lo:hi]
        for rho in range(min(step, dense.shape[1])):
            c = dense[:, rho::step][:, ::-1].cumsum(axis=1)[:, ::-1]
            if np.any(c[:, 0]):
                raise ArithmeticError("binomial division left a remainder")
            rows, cols = np.nonzero(c)
            if len(rows):
                out_k.append(uniq[rows] * span + (dmin + rho - s + step * cols))
                out_v.append(c[rows, cols] if sign > 0 else -c[rows, cols])
    if not out_k:
        return keys[:0], vals[:0]
    return np.concatenate(out_k), np.concatenate(out_v)


def packed_reduce(keys, vals):
    """``series._packed_reduce`` with one ``np.add.reduceat`` over the
    sorted groups."""
    order = np.argsort(keys, kind="stable")
    ks, vs = keys[order], vals[order]
    if len(ks) == 0:
        return ks, vs
    idx = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1])))
    sums = np.add.reduceat(vs, idx)
    keep = sums != 0
    return ks[idx][keep], sums[keep]
