"""Theta blocks, eta powers, and weak weight-0 Jacobi forms of the towers.

The registry covers three families of theta blocks:

* D family: eta^(24-3k) prod_i theta(tau, z_i) for k = 2..8, the rank-one
  doubled block eta^21 theta(tau, 2z), and their common conventions
  (den_z = 2, the dual vector of a key z is z/2 in e-coordinates);
* A2 family: powers of the A2 theta function Theta = eta^-1 theta(z1)
  theta(z2 - z1) theta(z2) with weight-coordinate exponents (den_z = 6,
  dual vector z/6);
* A1 family: eta^(12-3n) prod theta(tau, z_i), index one half, supported
  on a shifted grid (den_z = 2, dual vector z/4 in root coordinates).

The rank-one doubled block stores exponents of theta(tau, 2z), whose dual
vectors are z/4.  Each member's lattice (``refltower.lattices``) computes
on these keys directly, as numerators over its grid denominator.

Each weight-0 form is minus the quotient of a Hecke translate of its
theta block by the block itself; the minus sign is what makes the
constant term positive and the exponential lift reproduce the block.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from math import gcd as _gcd
from typing import NamedTuple

from .series import (
    _INT64_SAFE,
    FourierSeries,
    TruncationWindow,
    _decode,
    _encode,
    _frame,
    _int64_first,
    _NotInt64,
    _qz_decode,
    _qz_rows,
    _reduce_parts,
    _slice_mul_into,
    np,
)


def chi4(m: int) -> int:
    """Kronecker symbol (-4/m)."""
    if m % 2 == 0:
        return 0
    return 1 if m % 4 == 1 else -1


def _divisors(n: int) -> list:
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# eta powers


_ETA_TABLES: dict = {}


def _conv1(a: list, b: list, depth: int) -> list:
    out = [0] * (depth + 1)
    for i, x in enumerate(a):
        if x == 0 or i > depth:
            continue
        top = min(depth - i, len(b) - 1)
        for j in range(top + 1):
            y = b[j]
            if y:
                out[i + j] += x * y
    return out


def _euler(depth: int) -> list:
    """prod_{n>=1} (1 - q^n) by the pentagonal number recursion."""
    e = [0] * (depth + 1)
    e[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= depth:
        s = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= depth:
                e[g] = s
        k += 1
    return e


def _eta_table(p: int, depth: int) -> list:
    """Integer-exponent coefficients of prod (1 - q^n)^p up to q^depth."""
    tab = _ETA_TABLES.get(p)
    if tab is not None and len(tab) > depth:
        return tab
    depth = max(depth, 32, 2 * (len(tab) - 1) if tab else 0)
    e = _euler(depth)
    if p >= 0:
        base = e
    else:
        base = [0] * (depth + 1)
        base[0] = 1
        for n in range(1, depth + 1):
            acc = 0
            for k in range(1, n + 1):
                if e[k]:
                    acc += e[k] * base[n - k]
            base[n] = -acc
    result = [1] + [0] * depth
    power = base
    n = abs(p)
    while n:
        if n & 1:
            result = _conv1(result, power, depth)
        n >>= 1
        if n:
            power = _conv1(power, power, depth)
    _ETA_TABLES[p] = result
    return result


def _eta_coeff(p: int, q_num: int) -> int:
    """Coefficient of eta^p at q^(q_num/24); exponents are p/24 + Z_{>=0}."""
    t = q_num - p
    if t < 0 or t % 24:
        return 0
    return _eta_table(p, t // 24)[t // 24]


def eta_power(p: int, q_max: int, s_max: int = 0) -> FourierSeries:
    """eta^p as an r=0 series, exact through q_num <= q_max."""
    f = FourierSeries(0, 1, TruncationWindow(q_max, s_max))
    t = 0
    while p + 24 * t <= q_max:
        c = _eta_coeff(p, p + 24 * t)
        if c:
            f.add_term(p + 24 * t, (), 0, c)
        t += 1
    return f


# ---------------------------------------------------------------------------
# theta functions


def theta(q_max: int, s_max: int = 0) -> FourierSeries:
    """The odd Jacobi theta function as a series: sum chi4(m) q^(m^2/8) zeta^(m/2)."""
    f = FourierSeries(1, 2, TruncationWindow(q_max, s_max))
    m = 1
    while 3 * m * m <= q_max:
        f.add_term(3 * m * m, (m,), 0, chi4(m))
        f.add_term(3 * m * m, (-m,), 0, chi4(-m))
        m += 2
    return f


def theta_product_form(q_max: int) -> FourierSeries:
    """The same theta function from its triple product expansion."""
    w = TruncationWindow(q_max, 0)
    out = FourierSeries.monomial(-1, 3, (-1,), 0, 2, w)
    n = 1
    while True:
        built_any = False
        for q_num, z in ((24 * (n - 1), 2), (24 * n, -2), (24 * n, 0)):
            if q_num <= q_max - 3:
                fac = FourierSeries(1, 2, w)
                fac.add_term(0, (0,), 0, 1)
                fac.add_term(q_num, (z,), 0, -1)
                out = out.mul(fac, w)
                built_any = True
        if not built_any:
            break
        n += 1
    return out.truncated(w)


def _promote(f: FourierSeries, r: int, den_z: int) -> FourierSeries:
    """Embed an r=0 series into r variables."""
    out = FourierSeries(r, den_z, f.window)
    zero = (0,) * r
    for (s, q), sl in f.cells.items():
        out.cells[(s, q)] = {zero: sl[()]}
    return out


def theta_A2(q_max: int) -> FourierSeries:
    """Theta function of the A2 lattice, exponents in weight coordinates."""
    pad = 24
    th = theta(q_max + pad)
    f1 = th.map_z([[3, 0]], den_z_new=6)
    f2 = th.map_z([[-3, 3]], den_z_new=6)
    f3 = th.map_z([[0, 3]], den_z_new=6)
    prod = f1.mul(f2).mul(f3)
    em1 = _promote(eta_power(-1, q_max + pad), 2, 6)
    return prod.mul(em1).truncated(TruncationWindow(q_max, 0))


# ---------------------------------------------------------------------------
# the member registry


class MemberMeta(NamedTuple):
    key: str
    family: str  # "D", "D1", "A2", "A1"
    lattice_name: str
    copies: int  # number of theta factors (A2: copies of the A2 block)
    eta_exp: int
    weight: int
    r: int
    den_z: int
    val_q: int  # q_num of the lowest slice
    index: Fraction
    hecke_p: int  # the Hecke translate used for the weight-0 form


MEMBERS: dict = {}

for _k in range(2, 9):
    _key = "psi_%d_D%d" % (12 - _k, _k)
    MEMBERS[_key] = MemberMeta(_key, "D", "D%d" % _k, _k, 24 - 3 * _k,
                               12 - _k, _k, 2, 24, Fraction(1), 2)
MEMBERS["eta21_theta2z"] = MemberMeta("eta21_theta2z", "D1", "D1", 1, 21,
                                      11, 1, 2, 24, Fraction(1), 2)
for _c, _key in ((1, "psi_9_A2"), (2, "psi_6_2A2"), (3, "psi_3_3A2")):
    MEMBERS[_key] = MemberMeta(_key, "A2", ("%dA2" % _c) if _c > 1 else "A2",
                               _c, 24 - 8 * _c, 12 - 3 * _c, 2 * _c, 6, 24,
                               Fraction(1), 2)
for _c, _key in ((1, "psi_5_A1"), (2, "psi_4_2A1"), (3, "psi_3_3A1"),
                 (4, "psi_2_4A1")):
    MEMBERS[_key] = MemberMeta(_key, "A1", ("%dA1" % _c) if _c > 1 else "A1",
                               _c, 12 - 3 * _c, 6 - _c, _c, 2, 12,
                               Fraction(1, 2), 3)

TOWER_TOPS = {"psi_4_D8", "psi_3_3A2", "psi_2_4A1"}
REGISTRY_KEYS = ("theta", "Theta_A2") + tuple(MEMBERS)


class JacobiForm(NamedTuple):
    name: str
    series: FourierSeries
    weight: object  # int or Fraction
    index: Fraction
    lattice_name: object  # str or None
    family: object  # str or None
    copies: int


# ---------------------------------------------------------------------------
# coefficient slices of the members


_SHELL_CACHE: dict = {}
_SHELL_CACHE_MAX_U = 9


def _odd_shell(r: int, total: int) -> dict:
    """Odd vectors with sum of squares == total, mapped to prod chi4(m_i)."""
    if total < r or (total - r) % 8:
        return {}
    key = (r, total)
    cached = _SHELL_CACHE.get(key)
    if cached is not None:
        return cached
    out: dict = {}
    vec = [0] * r

    def rec(i, rem, sign):
        left = r - i
        if left == 1:
            m = isqrt(rem)
            if m * m == rem and m % 2:
                s = sign * chi4(m)
                vec[i] = m
                out[tuple(vec)] = s
                vec[i] = -m
                out[tuple(vec)] = -s
            return
        m = 1
        while m * m <= rem - (left - 1):
            s = sign * chi4(m)
            vec[i] = m
            rec(i + 1, rem - m * m, s)
            vec[i] = -m
            rec(i + 1, rem - m * m, -s)
            m += 2

    rec(0, total, 1)
    if total <= r + 8 * _SHELL_CACHE_MAX_U:
        _SHELL_CACHE[key] = out
    return out


_A2_LEVELS: dict = {}


def _a2_levels(k: int, p: int, depth: int) -> list:
    """Slices of eta^p Theta_A2^(x k) at levels l = 0..depth, q_num p + 8k + 24l.

    Copy c of Theta_A2 holds coordinates 2c, 2c+1.  Memoised per (k, p)
    and extended by the missing levels only, as eta^p (x) Theta^(x k) or
    Theta^(x (k-1)) (x) Theta; Theta_A2 itself is cut from a block built
    at least twice as deep as the last one.
    """
    have = _A2_LEVELS.setdefault((k, p), [])
    if len(have) > depth:
        return have
    if (k, p) == (1, 0):
        top = max(depth, 2 * len(have), 6)
        block = theta_A2(8 + 24 * top)
        have[:] = [block.cells.get((0, 8 + 24 * lvl), {}) for lvl in range(top + 1)]
        return have
    if p:
        a = _a2_levels(k, 0, depth)
        b = [{(): _eta_coeff(p, p + 24 * m)} for m in range(depth + 1)]
    else:
        a = _a2_levels(k - 1, 0, depth)
        b = _a2_levels(1, 0, depth)
    for n in range(len(have), depth + 1):
        acc: dict = {}
        for i in range(n + 1):
            for za, ca in a[i].items():
                for zb, cb in b[n - i].items():
                    z = za + zb
                    acc[z] = acc.get(z, 0) + ca * cb
        have.append({z: c for z, c in acc.items() if c})
    return have


_PSI_SLICES: dict = {}
_PSI_SLICE_CACHE_DEPTH = 6


def member_slice(key: str, q_num: int) -> dict:
    """The z-slice of a registry theta block at the given q_num."""
    meta = MEMBERS[key]
    if q_num < meta.val_q or (q_num - meta.val_q) % 24:
        return {}
    ck = (key, q_num)
    cached = _PSI_SLICES.get(ck)
    if cached is not None:
        return cached
    if meta.family in ("D", "A1"):
        out = {}
        u = 0
        while True:
            ssq = meta.copies + 8 * u
            rest = q_num - 3 * ssq
            if rest < meta.eta_exp:
                break
            e = _eta_coeff(meta.eta_exp, rest)
            if e:
                for z, s in _odd_shell(meta.copies, ssq).items():
                    out[z] = e * s
            u += 1
    elif meta.family == "D1":
        out = {}
        m = 1
        while 3 * m * m <= q_num - meta.eta_exp:
            e = _eta_coeff(meta.eta_exp, q_num - 3 * m * m)
            if e:
                s = chi4(m)
                out[(2 * m,)] = e * s
                out[(-2 * m,)] = -e * s
            m += 2
    else:
        n = (q_num - meta.val_q) // 24
        out = dict(_a2_levels(meta.copies, meta.eta_exp, n)[n])
    if (q_num - meta.val_q) // 24 <= _PSI_SLICE_CACHE_DEPTH:
        _PSI_SLICES[ck] = out
    return out


def member_series(key: str, window: TruncationWindow) -> FourierSeries:
    meta = MEMBERS[key]
    f = FourierSeries(meta.r, meta.den_z, window)
    q = meta.val_q
    while q <= window.q_max:
        sl = member_slice(key, q)
        if sl:
            f.cells[(0, q)] = dict(sl)
        q += 24
    return f


def build(name: str, window: TruncationWindow) -> JacobiForm:
    """Construct a registry form, exact through the window."""
    m = re.fullmatch(r"eta\^(-?\d+)", name)
    if m:
        p = int(m.group(1))
        return JacobiForm(name, eta_power(p, window.q_max, window.s_max),
                          Fraction(p, 2), Fraction(0), None, None, 0)
    if name == "theta":
        return JacobiForm(name, theta(window.q_max, window.s_max),
                          Fraction(1, 2), Fraction(1, 2), None, None, 1)
    if name == "Theta_A2":
        return JacobiForm(name, theta_A2(window.q_max), 1, Fraction(1),
                          "A2", "A2", 1)
    if name in MEMBERS:
        meta = MEMBERS[name]
        return JacobiForm(name, member_series(name, window), meta.weight,
                          meta.index, meta.lattice_name, meta.family,
                          meta.copies)
    raise KeyError("unknown registry name %r" % (name,))


# ---------------------------------------------------------------------------
# Hecke translates


def _divisor_sum(slice_at, n: int, m: int, weight) -> dict:
    """Sum over d | (n, m) of weight(d) * slice_at(n m / d^2), keys scaled by d.

    Every divisor of m counts when n = 0.  Sums that cancel are dropped.
    """
    out: dict = {}
    for d in _divisors(_gcd(n, m)):
        src = slice_at(n * m // (d * d))
        if not src:
            continue
        w = weight(d)
        if d == 1:  # the first divisor: no key to rebuild, nothing to add to
            out = dict(src) if w == 1 else {z: w * c for z, c in src.items()}
            continue
        for z, c in src.items():
            zz = tuple([d * a for a in z])
            v = out.get(zz, 0) + w * c
            if v:
                out[zz] = v
            else:
                out.pop(zz, None)
    return out


def member_hecke_slice(key: str, m: int, q_num: int) -> dict:
    """z-slice of psi|V_m at q_num, by the divisor-sum formula.

    The A1 family runs in display coordinates on the half grid (q in
    steps of 12, doubled exponents, odd translate orders, so every
    divisor is odd); the others on the integral grid.  The divisor
    condition d | (n, l, m) is realised by scaling source keys, so
    l-divisibility needs no separate test.
    """
    meta = MEMBERS[key]
    grid = 24
    if meta.family == "A1":
        if m % 2 == 0:
            raise ValueError("translate order must be odd on the half grid")
        grid = 12
    if q_num % grid:
        return {}
    return _divisor_sum(lambda k: member_slice(key, grid * k), q_num // grid, m,
                        lambda d: d ** (meta.weight - 1))


# ---------------------------------------------------------------------------
# weak weight-0 forms


def _corner_dirs(meta: MemberMeta) -> list:
    if meta.family in ("D", "A1"):
        dirs = []
        for i in range(meta.r):
            d = [0] * meta.r
            d[i] = 1
            dirs.append(tuple(d))
        return dirs
    if meta.family == "D1":
        return [(2,)]
    dirs = []
    for c in range(meta.copies):
        for pat in ((3, 0), (-3, 3), (0, 3)):
            d = [0] * meta.r
            d[2 * c], d[2 * c + 1] = pat
            dirs.append(tuple(d))
    return dirs


def _corner_slice(meta: MemberMeta) -> dict:
    """prod over directions of (zeta^dvec - zeta^-dvec), as a z-slice."""
    acc = {(0,) * meta.r: 1}
    for dvec in _corner_dirs(meta):
        neg = tuple(-a for a in dvec)
        binom = {dvec: 1, neg: -1}
        nxt: dict = {}
        _slice_mul_into(nxt, acc, binom, meta.r)
        acc = nxt
    return acc


def _factor_stack(meta: MemberMeta, depth: int) -> list:
    """The theta factors of a block, as (dirs, {level: slice}) pairs.

    Each factor's cells are indexed by 24-grid level above its own
    valuation, with the level-0 binomial left out (it is handled by the
    per-direction division).  All higher cells are tiny, which is what
    makes dividing by the whole block factor by factor cheap.
    """
    stack = []
    if meta.family in ("D", "A1", "D1"):
        scale = 2 if meta.family == "D1" else 1
        for i in range(meta.r):
            cells: dict = {}
            m = 3
            while 3 * (m * m - 1) <= 24 * depth:
                lvl = (m * m - 1) // 8
                z = [0] * meta.r
                z[i] = scale * m
                cells.setdefault(lvl, {})[tuple(z)] = chi4(m)
                z[i] = -scale * m
                cells[lvl][tuple(z)] = -chi4(m)
                m += 2
            d = [0] * meta.r
            d[i] = scale
            stack.append(([tuple(d)], cells))
        return stack
    block = _a2_levels(1, 0, depth)
    dirs_all = _corner_dirs(meta)
    for c in range(meta.copies):
        pre, post = (0,) * (2 * c), (0,) * (meta.r - 2 * c - 2)
        cells = {lvl: {pre + ab + post: co for ab, co in block[lvl].items()}
                 for lvl in range(1, depth + 1) if block[lvl]}
        stack.append((dirs_all[3 * c:3 * c + 3], cells))
    return stack


def _binomial_packed(keys, vals, span: int, s: int):
    """Divide packed (line*span + d) data by (zeta^s - zeta^-s) on the digit.

    Keys must come in sorted so lines are contiguous.  Per line and
    residue class mod 2|s| the quotient is the descending running sum,
    shifted down by |s| (and negated when s < 0); a nonzero class total
    means a remainder.  Values keep their dtype, int64 or object.
    """
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
    # cap the dense block at a few million cells
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


def _pad(stack: list, depth: int, r: int) -> list:
    """Margin per axis that every intermediate of the division stays in.

    An exact binomial quotient line reaches |s| inside its dividend at
    both ends, and a level-l correction term reaches b_l beyond the
    quotient it shifts; so a factor moves the data of level j at most
    j * g past its input box, g = max over l of (b_l - half)/l, where
    half is the level-0 binomial product's half width on the axis.
    """
    pad = [0] * r
    for dirs, cells in stack:
        for i in range(r):
            half = sum(abs(d[i]) for d in dirs)
            reach = 0
            for lvl, t in cells.items():
                b = max(abs(zc[i]) for zc in t)
                if lvl <= depth and b > half:
                    reach = max(reach, depth * (b - half) // lvl)
            pad[i] += reach
    return pad


def _divide_packed(levels: list, meta: MemberMeta, depth: int, stack: list,
                   dtype) -> list:
    """The factored division on packed keys with values of one dtype.

    Each level is held as (packed keys, values) in the frame of the
    factor at hand; every binomial direction is divided out in its own
    frame (``series._frame``) and correction terms are key offsets.  With
    int64 values every step first bounds its output from the actual
    maxima of its inputs; a bound reaching 2^62 raises _NotInt64.
    Raises ArithmeticError when division is not exact, TypeError on
    non-int coefficients, ValueError when the keys do not fit int64.
    """
    r = meta.r
    checked = dtype is not object
    lv, z, v, _ = _qz_rows(dict(enumerate(levels[:depth + 1])), r, dtype)
    if not checked and set(map(type, v.tolist())) - {int}:
        raise TypeError("packed division needs plain integers")
    if not len(z):
        return [{} for _ in range(depth + 1)]
    pad = np.array(_pad(stack, depth, r), dtype=np.int64)
    L, H = z.min(axis=0) - pad, z.max(axis=0) + pad
    frames = [[_frame(L, H, 0, d) for d in dirs] for dirs, _ in stack]

    def amax(v):
        return int(np.abs(v).max()) if checked and len(v) else 0

    def guard(bound):
        if checked and bound >= _INT64_SAFE:
            raise _NotInt64

    cur = frames[0][0]
    cuts = np.searchsorted(lv, np.arange(1, depth + 1))
    work = list(zip(np.split(_encode(z, cur), cuts), np.split(v, cuts)))
    mx = [amax(v) for _, v in work]
    e = meta.eta_exp
    if e:
        coeffs = [_eta_coeff(e, e + 24 * i) for i in range(depth + 1)]
        for j in range(1, depth + 1):
            guard(mx[j] + sum(abs(coeffs[i]) * mx[j - i]
                              for i in range(1, j + 1)))
            parts = [work[j]] + [(work[j - i][0], work[j - i][1] * -coeffs[i])
                                 for i in range(1, j + 1)
                                 if coeffs[i] and len(work[j - i][0])]
            work[j] = _reduce_parts(parts)
            mx[j] = amax(work[j][1])
    for (dirs, cells), fr in zip(stack, frames):
        f0 = fr[0]
        if f0 is not cur:
            work = [(_encode(_decode(k, cur), f0), v) for k, v in work]
            cur = f0
        terms = [(lvl, int(np.dot(zc, f0.w)), cc)
                 for lvl, t in sorted(cells.items()) if lvl <= depth
                 for zc, cc in t.items()]
        for j in range(depth + 1):
            guard(mx[j] + sum(abs(cc) * mx[j - lvl]
                              for lvl, _, cc in terms if lvl <= j))
            parts = [work[j]] + [(work[j - lvl][0] + off, work[j - lvl][1] * -cc)
                                 for lvl, off, cc in terms
                                 if lvl <= j and len(work[j - lvl][0])]
            k, v = _reduce_parts(parts)
            prev = f0
            for d, f in zip(dirs, fr):
                if f is not prev:
                    k = _encode(_decode(k, prev), f)
                    order = np.argsort(k)
                    k, v = k[order], v[order]
                    prev = f
                ax = f.order[-1]
                w_ax = int(f.hi[ax] - f.lo[ax]) + 1
                guard(amax(v) * (w_ax // (2 * abs(d[ax])) + 1))
                k, v = _binomial_packed(k, v, w_ax, d[ax])
            if prev is not f0:
                k = _encode(_decode(k, prev), f0)
            work[j] = (k, v)
            mx[j] = amax(v)
    return [_qz_decode(k, v, cur).get(0, {}) for k, v in work]


def divide_by_member(levels: list, key: str, depth: int) -> list:
    """Exact division of 24-grid levels by the whole theta block.

    ``levels[j]`` is the dividend slice at q_num = val + 24*j; the result
    is the quotient slice list on levels 0..depth.  Works factor by
    factor on packed keys: the eta power contributes a scalar level
    recurrence, each theta factor a sparse correction plus one linear
    binomial pass per direction of its level-0 cell.  Values are int64
    unless some step could reach 2^62, in which case the division is
    run again on python ints.  Raises ArithmeticError when the division
    is not exact.
    """
    meta = MEMBERS[key]
    stack = _factor_stack(meta, depth)
    return _int64_first(_divide_packed, levels, meta, depth, stack)


def phi0_by_division(key: str, q_depth: int) -> JacobiForm:
    """The weak weight-0 form as -(psi|V_p)/psi, solved slice by slice."""
    meta = MEMBERS[key]
    p = meta.hecke_p
    val = meta.val_q
    corner = _corner_slice(meta)
    if member_slice(key, val) != corner:
        raise AssertionError("theta block corner is not the binomial product")
    quo = divide_by_member(
        [member_hecke_slice(key, p, val + 24 * j) for j in range(q_depth + 1)],
        key, q_depth)
    out = FourierSeries(meta.r, meta.den_z, TruncationWindow(24 * q_depth, 0))
    for j, sl in enumerate(quo):
        if sl:
            out.cells[(0, 24 * j)] = {z: -c for z, c in sl.items()}
    return JacobiForm("phi0_%s" % meta.lattice_name, out, 0, Fraction(1),
                      meta.lattice_name, meta.family, meta.copies)


_PHI0_CACHE: dict = {}


def weak_weight0(key: str, q_depth: int) -> JacobiForm:
    """Weight-0 form of a member, memoised per member.

    Every member divides its own block: restricting a cached tower top
    instead reads the whole top form once per dropped variable, which
    costs far more than the member's own division.  That restriction
    and direct division agree is a checked identity.
    """
    cached = _PHI0_CACHE.get(key)
    if cached is not None and cached.series.window.q_max >= 24 * q_depth:
        return cached
    f = phi0_by_division(key, q_depth)
    _PHI0_CACHE[key] = f
    return f


def quasi_pullback(form: JacobiForm, coord: int) -> JacobiForm:
    """Derivative in one elliptic variable followed by its restriction.

    Sends a block vanishing on z_coord = 0 to a block in one variable
    fewer; theta goes to eta^3, and each D-family block to its neighbour.
    """
    ser = form.series.derivative_z(coord).restrict_z(coord)
    new_lat = None
    if form.family == "D" and form.lattice_name and form.lattice_name != "D2":
        k = int(form.lattice_name[1:])
        if k >= 3:
            new_lat = "D%d" % (k - 1)
    weight = form.weight + 1
    return JacobiForm("qp(%s)" % form.name, ser, weight, form.index,
                      new_lat, form.family, max(0, form.copies - 1))

