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

Every block is an eta power times one theta(tau, (d, z)) per corner
direction d (``_corner_dirs``; Theta_A2 contributes three directions and
an eta^-1 per copy).  The packed division reads the block as that list
of factors (``_factor_stack``), one frame and one binomial per theta
factor; the packed multiply by the block reads the same list in one
frame, each binomial two key shifts.  Keys enter every frame by digit
arithmetic (``series._restride``).

theta(tau, -z) = -theta(tau, z), so every D, D1 and A1 block is odd in
each coordinate, and so are its Hecke translates and its product with
an even series.  Each member's one sign-symmetry object (``_symmetry``,
no axes for A2) says what "held" means: an odd series is held on
z_i > 0 of every axis, an even one on z_i >= 0, each held row standing
for itself and its sign images.  The multiply keeps z_i > 0 right after
the theta factor of axis i, which no later factor moves, so applied to
the unit it gives the block's rows on the orthant exactly
(``_member_rows``, with each level's reach and max|v|), and applied to
an even E_j the orthant of psi * E_j.  The Hecke translates of the lift
(``hecke_levels``) are built from those rows straight into a product's
packed frame by ``_encode_parts`` (d > 0 keeps them on the orthant), as
phi0's are from ``weight0_rows``; the division takes psi|V_p as it
comes, on the orthant, and mirrors its even quotient out whole once.
Readers that need every term complete them on demand (the object's
``whole``); nothing holds both forms.  Dict slices of the A2 blocks
are decoded from the rows, the others summed from odd shells
(``_shell_slice`` over ``_odd_shell``, one memoised recursion).  The
dict Hecke translates and the D-family closed formula
(``lifting.closed_form_slice``) are one divisor sum over such slices
(``_hecke_sum``).  Each kernel picks its result's one dtype under
``series._int64_first``.  A packed layer is
(keys, values); a reach bound (``_part_specs``) only chooses a frame.

Each weight-0 form is minus the quotient of a Hecke translate of its
theta block by the block itself; the minus sign is what makes the
constant term positive and the exponential lift reproduce the block.
The quotient is held as rows in packed-key order (level, then z
lexicographic); a dict reader alone decodes its cells (``_RowSeries``).

A form is its series: ``build``, ``phi0_by_division``, ``weak_weight0``
and ``quasi_pullback`` return the ``FourierSeries`` they built, and a
member's weight, index, lattice and copies live in ``MEMBERS`` alone.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from math import gcd as _gcd
from typing import NamedTuple

from .series import (
    _INT64_SAFE,
    _NP_CHUNK,
    FourierSeries,
    TruncationWindow,
    _coord,
    _decode,
    _encode,
    _frame,
    _int64_first,
    _level_runs,
    _NotInt64,
    _packed_reduce,
    _qz_rows,
    _reduce_parts,
    _restride,
    _slice_mul_into,
    np,
)


def chi4(m: int) -> int:
    """Kronecker symbol (-4/m)."""
    if m % 2 == 0:
        return 0
    return 1 if m % 4 == 1 else -1


def _divisors(n: int) -> list:
    """The positive divisors of |n| in increasing order, found below its
    square root; none for n = 0."""
    n = abs(n)
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def _divisor_terms(n: int, m: int) -> list:
    """(d, n m / d^2) over d | (n, m); every divisor of m when n = 0."""
    return [(d, n * m // (d * d)) for d in _divisors(_gcd(n, m))]


# ---------------------------------------------------------------------------
# eta powers


_SIGMA = [0]  # sigma(k), the divisor sums, for k < len(_SIGMA)
_ETA_TABLES: dict = {}


def _eta_table(p: int, depth: int) -> list:
    """Integer-exponent coefficients of prod (1 - q^n)^p up to q^depth.

    The log derivative gives n a_n = -p sum_{k=1..n} sigma(k) a_(n-k);
    each table is memoised per p and extended in place.
    """
    tab = _ETA_TABLES.get(p)
    if tab is not None and len(tab) > depth:
        return tab
    if tab is None:
        tab = _ETA_TABLES[p] = [1]
    while len(_SIGMA) <= depth:
        _SIGMA.append(sum(_divisors(len(_SIGMA))))
    for n in range(len(tab), depth + 1):
        tab.append(-p * sum(_SIGMA[k] * tab[n - k] for k in range(1, n + 1)) // n)
    return tab


def _eta_coeff(p: int, q_num: int) -> int:
    """Coefficient of eta^p at q^(q_num/24); exponents are p/24 + Z_{>=0}."""
    t = q_num - p
    if t < 0 or t % 24:
        return 0
    return _eta_table(p, t // 24)[t // 24]


def eta_power(p: int, q_max: int, s_max: int = 0) -> FourierSeries:
    """eta^p as an r=0 series, exact through q_num <= q_max."""
    f = FourierSeries(0, 1, TruncationWindow(q_max, s_max))
    top = (q_max - p) // 24
    if top >= 0:
        for t, c in enumerate(_eta_table(p, top)[:top + 1]):
            f.add_term(p + 24 * t, (), 0, c)
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


def theta_A2(q_max: int, s_max: int = 0) -> FourierSeries:
    """Theta function of the A2 lattice, exponents in weight coordinates."""
    pad = 24
    th = theta(q_max + pad, s_max)
    f1 = th.map_z([[3, 0]], den_z_new=6)
    f2 = th.map_z([[-3, 3]], den_z_new=6)
    f3 = th.map_z([[0, 3]], den_z_new=6)
    prod = f1.mul(f2).mul(f3)
    em1 = _promote(eta_power(-1, q_max + pad, s_max), 2, 6)
    return prod.mul(em1).truncated(TruncationWindow(q_max, s_max))


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
    s_step: int  # s_num of the first layer, 2 * index: 1 on the A1 half grid
    q_grid: int  # q_num step of the Hecke divisor sums, 24 * index


MEMBERS: dict = {}


def _member(*fields) -> MemberMeta:
    """A registry entry; its s_step and q_grid are worked out from its index once."""
    index = fields[-2]
    return MemberMeta(*fields, int(2 * index), int(24 * index))


for _k in range(2, 9):
    _key = "psi_%d_D%d" % (12 - _k, _k)
    MEMBERS[_key] = _member(_key, "D", "D%d" % _k, _k, 24 - 3 * _k,
                            12 - _k, _k, 2, 24, Fraction(1), 2)
MEMBERS["eta21_theta2z"] = _member("eta21_theta2z", "D1", "D1", 1, 21,
                                   11, 1, 2, 24, Fraction(1), 2)
for _c, _key in ((1, "psi_9_A2"), (2, "psi_6_2A2"), (3, "psi_3_3A2")):
    MEMBERS[_key] = _member(_key, "A2", ("%dA2" % _c) if _c > 1 else "A2",
                            _c, 24 - 8 * _c, 12 - 3 * _c, 2 * _c, 6, 24,
                            Fraction(1), 2)
for _c, _key in ((1, "psi_5_A1"), (2, "psi_4_2A1"), (3, "psi_3_3A1"),
                 (4, "psi_2_4A1")):
    MEMBERS[_key] = _member(_key, "A1", ("%dA1" % _c) if _c > 1 else "A1",
                            _c, 12 - 3 * _c, 6 - _c, _c, 2, 12,
                            Fraction(1, 2), 3)

TOWER_TOPS = {"psi_4_D8", "psi_3_3A2", "psi_2_4A1"}


# ---------------------------------------------------------------------------
# coefficient slices of the members


_SHELL_CACHE: dict = {}
_SHELL_CACHE_MAX_U = 9


def _odd_shell(r: int, total: int, signs: tuple) -> dict:
    """Odd vectors with sum of squares == total and every coordinate's
    sign in signs, mapped to prod chi4(m_i): each g m, g in signs and m
    odd, in front of every vector of shell(r - 1, total - m^2).  Signs
    (1,) give the orthant m_i > 0, (1, -1) every vector."""
    if total < r or (total - r) % 8:
        return {}
    out = _SHELL_CACHE.get((r, total, signs))
    if out is not None:
        return out
    if r == 1:
        m = isqrt(total)
        out = {(g * m,): chi4(g * m) for g in signs} if m * m == total else {}
    else:
        out = {}
        for m in range(1, isqrt(total - r + 1) + 1, 2):
            tail = _odd_shell(r - 1, total - m * m, signs).items()
            for head in [g * m for g in signs]:
                c = chi4(head)
                for v, s in tail:
                    out[(head, *v)] = c * s
    if total <= r + 8 * _SHELL_CACHE_MAX_U:
        _SHELL_CACHE[r, total, signs] = out
    return out


def _theta_scale(meta: MemberMeta) -> int:
    """The exponent scale of a block's theta factors: 2 for theta(tau, 2z)."""
    return 2 if meta.family == "D1" else 1


def _shell_slice(meta: MemberMeta, q_num: int, signs: tuple) -> dict:
    """A D, D1 or A1 block's z-slice at q_num on the 24-grid above its
    valuation, from odd shells: the eta coefficient at q_num - 3 ssq
    times each vector of ``_odd_shell(copies, ssq, signs)``, exponents
    scaled for D1.  Signs (1,) give its part on z_i > 0, (1, -1) every
    term; no numpy, no memo of its own."""
    out = {}
    scale = _theta_scale(meta)
    for ssq in range(meta.copies, (q_num - meta.eta_exp) // 3 + 1, 8):
        e = _eta_coeff(meta.eta_exp, q_num - 3 * ssq)
        if e:
            for z, s in _odd_shell(meta.copies, ssq, signs).items():
                out[z if scale == 1 else tuple([scale * a for a in z])] = e * s
    return out


_PSI_SLICES: dict = {}
_PSI_SLICE_CACHE_DEPTH = 6


def member_slice(key: str, q_num: int) -> dict:
    """The z-slice of a registry theta block at the given q_num: decoded
    from the packed rows for A2, else summed from odd shells
    (``_shell_slice``, no numpy)."""
    meta = MEMBERS[key]
    if q_num < meta.val_q or (q_num - meta.val_q) % 24:
        return {}
    ck = (key, q_num)
    cached = _PSI_SLICES.get(ck)
    if cached is not None:
        return cached
    if meta.family == "A2":
        z, v, *_ = _member_rows(key, q_num)
        out = dict(zip(map(tuple, z.tolist()), v.tolist()))
    else:
        out = _shell_slice(meta, q_num, (1, -1))
    if (q_num - meta.val_q) // 24 <= _PSI_SLICE_CACHE_DEPTH:
        _PSI_SLICES[ck] = out
    return out


_PSI_LEVELS: dict = {}  # key -> [(z rows, values, reach, max|v|)] on levels 0..depth
_BAND = 1 << 15  # keys decoded at a time into the block's rows


def _member_rows(key: str, q_num: int) -> tuple:
    """The block's slice at q_num as (z rows, values, reach, max|v|), no
    dict: the block times the unit layer, factor by factor
    (``multiply_by_member``), memoised per member and rebuilt only when a
    deeper level is asked for.  The rows are the block as held
    (``_symmetry``: for D, D1 and A1 its part on z_i > 0, which the
    multiply gives exactly); A2 rows are whole.  The reach (largest |z_i| per
    axis, int64) and max|v| of each level, the same on the orthant as
    whole, are taken once, when the block is built.  Rows are int16 when the
    product's frame fits them, decoded straight into place band by band;
    the arrays are read-only."""
    meta = MEMBERS[key]
    lvl, off = divmod(q_num - meta.val_q, 24)
    if lvl < 0 or off:
        return (np.zeros((0, meta.r), np.int16), np.zeros(0, np.int64),
                np.zeros(meta.r, np.int64), 0)
    levels = _PSI_LEVELS.get(key)
    if levels is None or len(levels) <= lvl:
        zero = np.zeros(meta.r, np.int64)
        unit = (np.zeros(1, np.int64), np.ones(1, np.int64))
        g, [(k, v)] = multiply_by_member(_frame(zero, zero, lvl), [unit], key, lvl)
        z = np.empty((len(k), meta.r), np.int16 if g.hi.max() < 1 << 15 else np.int64)
        for a in range(0, len(k), _BAND):  # no int64 copy of all rows at once
            z[a:a + _BAND] = _decode(k[a:a + _BAND], g)
        z.flags.writeable = v.flags.writeable = False
        cuts = np.searchsorted(k, np.arange(lvl + 2) * g.stq).tolist()
        levels = _PSI_LEVELS[key] = []
        for a, b in zip(cuts, cuts[1:]):
            rk = np.abs(z[a:b]).max(axis=0, initial=0).astype(np.int64)
            rk.flags.writeable = False
            levels.append((z[a:b], v[a:b], rk, int(np.abs(v[a:b]).max(initial=0))))
    return levels[lvl]


def _prefetch_block(key: str, q_num: int) -> None:
    """Build an A2 block's rows through q_num at once, so a loop over its
    dict slices multiplies it out once; other families need no rows."""
    if MEMBERS[key].family == "A2":
        _member_rows(key, q_num)


def member_series(key: str, window: TruncationWindow) -> FourierSeries:
    meta = MEMBERS[key]
    f = FourierSeries(meta.r, meta.den_z, window)
    _prefetch_block(key, meta.val_q + 24 * ((window.q_max - meta.val_q) // 24))
    for q in range(meta.val_q, window.q_max + 1, 24):
        sl = member_slice(key, q)
        if sl:
            f.cells[(0, q)] = dict(sl)
    return f


def build(name: str, window: TruncationWindow) -> FourierSeries:
    """Construct a registry form, exact through the window."""
    m = re.fullmatch(r"eta\^(-?\d+)", name)
    if m:
        return eta_power(int(m.group(1)), window.q_max, window.s_max)
    if name == "theta":
        return theta(window.q_max, window.s_max)
    if name == "Theta_A2":
        return theta_A2(window.q_max, window.s_max)
    if name in MEMBERS:
        return member_series(name, window)
    raise KeyError("unknown registry name %r" % (name,))


# ---------------------------------------------------------------------------
# Hecke translates


def member_hecke_slice(key: str, m: int, q_num: int) -> dict:
    """z-slice of psi|V_m at q_num, by the divisor-sum formula on dicts
    (``_hecke_sum`` over ``member_slice``, no numpy; ``hecke_levels``
    packs the same sum).

    The A1 family runs in display coordinates on the half grid (q in
    steps of 12, doubled exponents, odd translate orders, so every
    divisor is odd); the others on the integral grid.  The divisor
    condition d | (n, l, m) is realised by scaling source keys, so
    l-divisibility needs no separate test.
    """
    if m < 1:
        raise ValueError("translate order must be positive")
    meta = MEMBERS[key]
    grid = meta.q_grid
    if meta.s_step == 1 and m % 2 == 0:
        raise ValueError("translate order must be odd on the half grid")
    if q_num % grid:
        return {}
    return _hecke_sum(lambda k: member_slice(key, grid * k), q_num // grid, m,
                      meta.weight - 1)


def _hecke_sum(slice_at, n: int, m: int, wt: int) -> dict:
    """Sum over (d, k) of ``_divisor_terms(n, m)`` of d^wt times the
    slice ``slice_at(k)`` with its keys scaled by d, as a fresh dict
    (``slice_at`` may return a memo)."""
    (_, k), *rest = _divisor_terms(n, m)
    out = dict(slice_at(k))  # d = 1: weight 1, no key to rebuild
    for d, k in rest:
        w = d ** wt
        for z, c in slice_at(k).items():
            zz = tuple([d * a for a in z])
            out[zz] = out.get(zz, 0) + w * c
            if not out[zz]:  # a sum that cancels
                del out[zz]
    return out


class _Plan(NamedTuple):
    """The divisor parts of several layers, integers only.  Part i reads
    source level ``levels[src[i]]``, scales its z rows by d[i] and its
    values by w[i], and lands on output level j[i]; layer t holds the
    parts edges[t]:edges[t + 1], in (j, d) order."""

    levels: tuple  # the distinct source levels, deepest first
    j: object  # int64 arrays, one entry per part
    d: object
    src: object
    w: tuple  # python ints, one per part
    wsum: int  # sum of |w| over all parts
    edges: object  # int64: each layer's first part, then the part count


def _divisor_plan(orders, ns, weight) -> _Plan:
    """One layer per order m over output levels j, n = ns[j]: a part
    (j, d, weight(m, d), source level k) per (d, k) of
    ``_divisor_terms(n, m)``."""
    parts = [(t, j, d, weight(m, d), k) for t, m in enumerate(orders)
             for j, n in enumerate(ns) for d, k in _divisor_terms(n, m)]
    t, j, d, w, k = map(list, zip(*parts)) if parts else ([],) * 5
    levels = sorted(set(k), reverse=True)
    at = {lvl: i for i, lvl in enumerate(levels)}
    plan = _Plan(tuple(levels), np.array(j, np.int64), np.array(d, np.int64),
                 np.array([at[x] for x in k], np.int64), tuple(w),
                 sum(map(abs, w)), np.searchsorted(t, np.arange(len(orders) + 1)))
    for a in (plan.j, plan.d, plan.src, plan.edges):
        a.flags.writeable = False
    return plan


def _part_specs(plan: _Plan, rows: list, dtype) -> list:
    """The reach bound of each layer of the plan, the largest d * reach
    over its parts, from its source rows (z rows, values, reach, max|v|).
    With int64 values, object rows or a layer whose sum of |w| max|v|
    over its parts reaches 2^62 raise _NotInt64."""
    if not rows:
        return []
    starts = plan.edges[:-1]
    vmax = np.array([b[3] for b in rows], object)
    if dtype is not object and (any(b[1].dtype == object for b in rows) or (
            max(vmax) * plan.wsum >= _INT64_SAFE  # else no layer's sum can reach it
            and max(np.add.reduceat(np.abs(np.array(plan.w, object)) * vmax[plan.src],
                                    starts)) >= _INT64_SAFE)):
        raise _NotInt64
    reach = np.array([b[2] for b in rows])[plan.src] * plan.d[:, None]
    return list(np.maximum.reduceat(reach, starts, axis=0))


def _encode_parts(plan: _Plan, rows: list, f, dtype) -> list:
    """Sorted (keys, values) of every layer of the plan in frame f, in one
    pass: the source rows (z rows, values) are concatenated and keyed
    once (z @ w), and each part gathers its source's run, keys times d
    plus zero + j stq and values times w, by ``np.repeat``, the values
    cast to dtype once.  One diff finds the layers whose keys do not come
    out strictly increasing (several divisors on a level); those alone
    are summed and sorted in one reduce, which adds unchecked:
    ``_part_specs`` bounds int64 sums first."""
    if not rows:
        return []
    size = np.array([len(b[1]) for b in rows])
    cnt = size[plan.src]
    end = np.cumsum(cnt)
    at = np.repeat((np.cumsum(size) - size)[plan.src] - (end - cnt), cnt) + np.arange(end[-1])
    k = ((np.concatenate([b[0] for b in rows]) @ f.w)[at] * np.repeat(plan.d, cnt)
         + np.repeat(plan.j * f.stq + f.zero, cnt))
    v = (np.concatenate([b[1] for b in rows])[at].astype(dtype, copy=False)
         * np.repeat(np.array(plan.w, dtype), cnt))
    cut = np.concatenate(([0], end))[plan.edges]
    drop = np.flatnonzero(k[1:] <= k[:-1])  # key i + 1 not above key i
    lay = np.searchsorted(cut, drop, side="right") - 1
    unsorted = set(lay[drop + 1 < cut[lay + 1]].tolist())  # both keys in one layer
    return [_packed_reduce(k[a:b], v[a:b]) if t in unsorted else (k[a:b], v[a:b])
            for t, (a, b) in enumerate(zip(cut.tolist(), cut[1:].tolist()))]


@lru_cache(maxsize=256)
def _hecke_plan(key: str, orders: tuple, depth: int) -> _Plan:
    """``hecke_levels``' divisor plan, memoised: it follows from the
    member's grid and weight, never from its rows."""
    meta = MEMBERS[key]
    wt = meta.weight - 1
    return _divisor_plan(orders, [(meta.val_q + 24 * j) // meta.q_grid for j in range(depth + 1)],
                         lambda m, d: d ** wt)


def _hecke_packed(key: str, orders: tuple, depth: int, f, dtype) -> tuple:
    """``hecke_levels`` with values of one dtype."""
    meta = MEMBERS[key]
    plan = _hecke_plan(key, orders, depth)
    rows = [_member_rows(key, meta.q_grid * k) for k in plan.levels]
    reach = _part_specs(plan, rows, dtype)
    top = np.max(reach + [np.zeros(meta.r, np.int64)], axis=0)
    if f is None or np.any(top > f.hi) or np.any(-top < f.lo):
        top = top if f is None else np.max([top, f.hi, -f.lo], axis=0)
        f = _frame(-top, top, depth)
    return f, _encode_parts(plan, rows, f, dtype)


def hecke_levels(key: str, orders: list, depth: int, frame=None) -> tuple:
    """member_hecke_slice of each order (as ``lift_layers`` gives them) on
    levels 0..depth, packed as ``multiply_by_member`` returns a product:
    (frame, [(keys, values)]), one layer per order, keys sorted.  Built
    from the block's held rows, each layer is its part on z_i > 0 of the
    sign axes (D, D1, A1; d > 0 keeps a row there), whole for A2.

    Divisor d sends a block row z to d z and its value to d^(wt-1) times
    it, wt the block's weight.  The divisor plan (``_hecke_plan``) lists
    the parts; each distinct block level it reads is read once through
    ``_member_rows``, the deepest first, so a cold block is built once.
    Reach bounds come from ``_part_specs`` on the levels' stored reaches,
    and every layer is encoded straight into the frame in one pass
    (``_encode_parts``).  A given frame (unsheared) is used if every
    bound fits its box; otherwise, or without a frame, every layer goes
    into the symmetric frame of the largest bound and the given box, and
    that frame is returned.  No key is ever formed outside its frame's
    box, and a bound alone decides no comparison.  Every layer is int64,
    or all are python ints if some layer's sum could reach 2^62.
    """
    return _int64_first(_hecke_packed, key, tuple(orders), depth, frame)


# ---------------------------------------------------------------------------
# weak weight-0 forms


def _corner_dirs(meta: MemberMeta) -> list:
    """The block's binomial directions, one per theta factor theta(tau, (d, z)).

    A2 copy c holds coordinates 2c, 2c+1 and the directions (3, 0),
    (-3, 3), (0, 3) of Theta_A2 = eta^-1 theta(z1) theta(z2 - z1) theta(z2);
    every other copy holds one coordinate and the direction (s,), with s
    the exponent scale of its theta factor.
    """
    base = [(3, 0), (-3, 3), (0, 3)] if meta.family == "A2" else [(_theta_scale(meta),)]
    w = len(base[0])
    return [(0,) * (w * c) + d + (0,) * (meta.r - w * c - w)
            for c in range(meta.copies) for d in base]


@lru_cache(maxsize=None)
def _registry_corner(meta: MemberMeta) -> dict:
    """The block's lowest slice from the registry forms: the lowest cell of
    theta (exponents scaled as in the block) or of Theta_A2, one per copy,
    multiplied over the copies; once per member (callers only read it)."""
    if meta.family == "A2":
        cell = theta_A2(8).cells[(0, 8)]
    else:
        s = _theta_scale(meta)
        cell = {(s * z[0],): c for z, c in theta(3).cells[(0, 3)].items()}
    w = len(next(iter(cell)))
    acc = {(0,) * meta.r: 1}
    for c in range(meta.copies):
        nxt: dict = {}
        _slice_mul_into(nxt, acc, {(0,) * (w * c) + z + (0,) * (meta.r - w * c - w): v
                                   for z, v in cell.items()}, meta.r)
        acc = nxt
    return acc


def _factor_stack(meta: MemberMeta, depth: int) -> list:
    """The factors of a block, as (direction, {level: slice}) pairs.

    Every block is an eta power times one theta(tau, (d, z)) per corner
    direction d; an A2 block folds the eta^-1 of each Theta_A2 copy into
    its eta power.  The eta power comes first, with direction None.
    Cells are indexed by 24-grid level above the factor's valuation, with
    the level-0 binomial left out (it is divided out in the direction's
    frame): a theta factor's cell at level (m^2 - 1)/8 is chi4(m)
    (zeta^(m d) - zeta^(-m d)) for odd m >= 3.  All these cells are tiny,
    which is what makes dividing by the whole block factor by factor
    cheap.
    """
    eta = _eta_table(meta.eta_exp - (meta.copies if meta.family == "A2" else 0), depth)
    stack = [(None, {lvl: {(0,) * meta.r: eta[lvl]}
                     for lvl in range(1, depth + 1) if eta[lvl]})]
    for d in _corner_dirs(meta):
        stack.append((d, {(m * m - 1) // 8: {tuple(m * a for a in d): chi4(m),
                                             tuple(-m * a for a in d): -chi4(m)}
                          for m in range(3, isqrt(8 * depth + 1) + 1, 2)}))
    return stack


def _binomial_packed(keys, vals, span: int, s: int):
    """Divide packed (line*span + d) data by (zeta^s - zeta^-s) on the digit.

    Keys must come in sorted.  Per line and residue class mod 2|s| the
    quotient at e - |s| is the sum of the class's inputs at digits >= e
    (negated when s < 0): constant between consecutive inputs.  In blocks
    of _NP_CHUNK // span lines, ordered by class, then by line (a dense
    (class, line, column) pass's order, kept in the output), one running
    sum serves every (line, class) group: a nonzero group total is a
    remainder, else the sum before an input is minus the quotient down
    to the group's previous input, one ``np.repeat`` for all, in
    O(input + output).  Values keep their dtype, int64 or object.
    """
    n = len(keys)
    if n == 0:
        return keys, vals
    s, neg = abs(s), s < 0
    step = 2 * s
    lim = max(1, _NP_CHUNK // span)  # lines per block; n <= lim keys fill one
    cuts = (np.flatnonzero(np.diff(keys // span))[lim - 1::lim] + 1).tolist() if n > lim else []
    out = []
    for a, b in zip([0, *cuts], [*cuts, n]):
        ln, dg = np.divmod(keys[a:b], span)
        order = np.argsort(((dg - dg.min()) % step).astype(np.int16), kind="stable")
        k, ln = keys[a:b][order], ln[order]
        gap, off = np.divmod(k[1:] - k[:-1], step)
        same = (ln[1:] == ln[:-1]) & (off == 0)  # one line, one class
        # int64 may wrap inside the running sum, but each group's partial
        # sums stay below 2^62 (the caller's bound) once earlier totals are 0
        run = np.cumsum(vals[a:b][order])
        if run[-1] or run[:-1][~same].any():
            raise ArithmeticError("binomial division left a remainder")
        cnt = np.where(same & (run[:-1] != 0), gap, 0)
        ends = np.cumsum(cnt)
        out.append((np.repeat(k[:-1] + (step - s) - step * (ends - cnt), cnt)
                    + step * np.arange(int(cnt.sum())),
                    np.repeat(run[:-1] if neg else -run[:-1], cnt)))
    return tuple(map(np.concatenate, zip(*out)))


def _pad(stack: list, depth: int, r: int) -> list:
    """Margin per axis that every intermediate of the division stays in.

    A theta factor in direction d has level-l cells reaching b_l <= |d_i|
    + l g on axis i, g = max over l of (b_l - |d_i|)/l.  The block's
    level-0 slice reaches exactly the sum of the |d_i| (its extreme face
    cannot cancel), so the quotient, and every intermediate (the quotient
    times the factors still to divide by), reaches at most j * (largest
    g) past the dividend's box at level j: the three factors of an A2
    copy share one margin rather than adding theirs.
    """
    pad = [0] * r
    for d, cells in stack:
        for i in range(r):
            half = abs(d[i]) if d else 0
            for lvl, t in cells.items():
                b = max(abs(zc[i]) for zc in t)
                if lvl <= depth and b > half:
                    pad[i] = max(pad[i], depth * (b - half) // lvl)
    return pad


class _SignOrthant(NamedTuple):
    """A member's sign symmetry: z_i -> -z_i on each of ``axes`` takes a
    series of the member to sign (its character, -1 odd, 1 even) times
    itself.  Such a series is held on z_i > 0 (odd) or z_i >= 0 (even) of
    every axis, each held row standing for itself and its sign images.
    With no axes (A2) a series is held whole."""

    axes: tuple

    def held(self, keys, f, sign: int):
        """Whether each packed key of an unsheared frame is held, one
        digit pass per axis (``_coord``: a floor division by a scalar,
        which numpy does several times faster than one broadcast pass)."""
        m, low = np.ones(len(keys), bool), 1 if sign < 0 else 0
        for i in self.axes:
            m &= _coord(keys, f, i) >= low
        return m

    def whole(self, z, v, sign: int) -> tuple:
        """Held (z rows, values) completed by their sign images, values
        times sign once per flip, in no particular order."""
        for i in self.axes:
            m = z[:, i] > 0
            zm = z[m]
            zm[:, i] = -zm[:, i]
            z, v = np.concatenate((z, zm)), np.concatenate((v, v[m] * sign))
        return z, v

    def count(self, n: int) -> int:
        """The terms n held rows of an odd series stand for (none at z_i = 0)."""
        return int(n) << len(self.axes)

    def check(self, rows: tuple, sign: int) -> None:
        """Raise ValueError unless rows (levels, z rows, values) in
        packed-key order are invariant under the character: their held
        part, mirrored back out (``_mirror_out``) in the symmetric frame
        of their reach, must give them again, keys and values, which
        holds only if they are sorted and each key has all its images."""
        lv, z, v = rows
        box = np.abs(z).max(axis=0, initial=0)
        f = _frame(-box, box, int(lv[-1]) if len(lv) else 0)
        k = _encode(z, f, lv)
        cut = self.held(k, f, sign)
        mk, mv = _mirror_out(k[cut], v[cut], f, self.axes, sign)
        if not (np.array_equal(mk, k) and np.array_equal(mv, v)):
            raise ValueError("%s is not %s in the block's sign axes"
                             % (("weight-0 form", "even") if sign > 0 else ("series", "odd")))


@lru_cache(maxsize=None)
def _symmetry(meta: MemberMeta) -> _SignOrthant:
    """The member's sign symmetry, once per member: the coordinates on one
    theta factor alone, whose direction touches no other axis (all of D,
    D1 and A1, none of A2)."""
    dirs = _corner_dirs(meta)
    return _SignOrthant(tuple(i for i in range(meta.r)
                              if [sum(map(bool, d)) for d in dirs if d[i]] == [1]))


def _mirror(k, v, f, i: int, sign: int) -> tuple:
    """A level held on z_i >= 0 completed by its image under z_i -> -z_i,
    values times sign (-1 odd, 1 even); a key with z_i = 0 is its own."""
    z = _coord(k, f, i)
    m = z > 0
    return (np.concatenate((k, k[m] - 2 * int(f.st[i]) * z[m])),
            np.concatenate((v, -v[m] if sign < 0 else v[m])))


def _mirror_out(k, v, f, axes: list, sign: int) -> tuple:
    """A level held on z_i >= 0 of every axis completed by all its sign
    images (``_mirror`` axis by axis), keys sorted."""
    for i in axes:
        k, v = _mirror(k, v, f, i, sign)
    o = np.argsort(k)
    return k[o], v[o]


def _divide_packed(work: list, axes: list, f, meta: MemberMeta, depth: int,
                   stack: list, dtype) -> tuple:
    """The factored division on packed keys with values of one dtype.

    One loop over the factors of ``_factor_stack``.  The eta power comes
    first and runs in f: its corrections only shift levels.  Each theta
    factor moves the levels once, by digit arithmetic (``_restride``),
    into the frame of its direction over f's box widened by ``_pad``;
    then per level it subtracts its correction terms (key offsets of
    lower quotient levels) and divides out its binomial in one pass.

    Every theta factor is odd, so a dividend odd in the given axes comes
    in as its part on z_i > 0 there, which the eta power divides as it
    is.  The theta factor on axis i mirrors its levels (odd) so that its
    lines are whole, divides as above, and keeps z_i >= 0 of the even
    quotient.  The quotient is mirrored out once at the end
    (``_mirror_out``).  Levels come back with sorted keys.

    With int64 values every step first bounds its output from the actual
    maxima of its inputs (a mirror keeps them); a bound reaching 2^62
    raises _NotInt64.  Raises ArithmeticError when division is not exact,
    ValueError when the keys do not fit int64.
    """
    checked = dtype is not object
    if checked and any(v.dtype == object for _, v in work):
        raise _NotInt64
    work = [(k, v.astype(dtype, copy=False)) for k, v in work]
    work += [(np.zeros(0, np.int64), np.zeros(0, dtype))] * (depth + 1 - len(work))
    pad = np.array(_pad(stack, depth, meta.r), dtype=np.int64)

    def amax(v):
        return int(np.abs(v).max()) if checked and len(v) else 0

    def guard(bound):
        if checked and bound >= _INT64_SAFE:
            raise _NotInt64

    mx = [amax(v) for _, v in work]
    cur = f
    for d, cells in stack:
        if d:
            g = _frame(f.lo - pad, f.hi + pad, 0, d)
            work = [(_restride(k, cur, g), v) for k, v in work]
            cur = g
        ax = cur.order[-1]
        folded = d and ax in axes
        if folded:
            work = [_mirror(k, v, cur, ax, -1) for k, v in work]
        terms = [(lvl, int(np.dot(zc, cur.w)), cc)
                 for lvl, t in sorted(cells.items()) if lvl <= depth
                 for zc, cc in t.items()]
        w_ax = int(cur.hi[ax] - cur.lo[ax]) + 1
        for j in range(depth + 1):
            guard(mx[j] + sum(abs(cc) * mx[j - lvl]
                              for lvl, _, cc in terms if lvl <= j))
            parts = [work[j]] + [(work[j - lvl][0] + off, work[j - lvl][1] * -cc)
                                 for lvl, off, cc in terms
                                 if lvl <= j and len(work[j - lvl][0])]
            k, v = _reduce_parts(parts)
            if d:
                guard(amax(v) * (w_ax // (2 * abs(d[ax])) + 1))
                k, v = _binomial_packed(k, v, w_ax, d[ax])
            work[j] = (k, v)
            mx[j] = amax(v)
        if folded:
            work = [(k[m], v[m]) for k, v in work for m in [_coord(k, cur, ax) >= 0]]
    return cur, [_mirror_out(k, v, cur, axes, 1) for k, v in work]


def divide_by_member(keys: list, vals: list, f, key: str, depth: int) -> tuple:
    """Exact division of 24-grid levels by the whole theta block.

    ``keys[j]`` and ``vals[j]`` are the dividend at q_num = val + 24*j,
    packed in the unsheared frame f without the level digit, as
    ``hecke_levels`` lays them out; the result is (frame, [(keys,
    values)]), the quotient on levels 0..depth in the frame of the last
    factor, each level's keys sorted.  Works factor by factor: each
    factor, the eta power first, contributes a sparse correction per
    level, and each theta factor one linear binomial pass in its
    direction.

    The orthant contract: on each axis of ``_symmetry`` (all of a D, D1
    or A1 block) on which f's box is symmetric, the dividend is
    odd and comes as its part on z_i > 0, as ``hecke_levels`` and
    ``multiply_by_member`` give it; it is divided there as it is and its
    even quotient mirrored out whole.  On any other coordinate (all of
    A2, or an axis f holds asymmetrically) the dividend is whole.  A key
    off that orthant raises ValueError.  Values are int64 unless some
    step could reach 2^62, in which case the division is run again on
    python ints.  Raises ArithmeticError when the division is not exact,
    TypeError on non-int coefficients.
    """
    meta = MEMBERS[key]
    work = list(zip(keys, vals[:depth + 1]))
    if set().union(*(map(type, v.tolist()) for _, v in work if v.dtype == object)) - {int}:
        raise TypeError("packed division needs plain integers")
    sym = _SignOrthant(tuple(i for i in _symmetry(meta).axes if f.lo[i] == -f.hi[i]))
    if not all(sym.held(k, f, -1).all() for k, _ in work):
        raise ValueError("dividend key off the z_i > 0 orthant of the sign axes")
    return _int64_first(_divide_packed, work, sym.axes, f, meta, depth, _factor_stack(meta, depth))


def _multiply_packed(f, layers: list, meta: MemberMeta, depth: int, stack: list,
                     dtype) -> tuple:
    """The factored product with values of one dtype.  A factor is its
    level-0 part (1, or zeta^d - zeta^-d) plus its cells, each term a key
    offset lvl * stq + zc @ w in one frame, E's box plus the factors'
    summed reaches.  A term moves a key up exactly lvl levels, so no key
    past level ``depth`` is formed, and a factor with more than _NP_CHUNK
    pairs reduces them one output level at a time.  Right after the theta
    factor of a sign axis i each band keeps z_i > 0 alone: no later factor
    moves z_i, so that is the exact z_i > 0 part of the product.  With
    int64 values a bound max|v| sum|c| reaching 2^62 raises _NotInt64."""
    terms = [([(0, d, 1), (0, tuple(-a for a in d), -1)] if d else [(0, (0,) * meta.r, 1)])
             + [(lvl, zc, c) for lvl, t in cells.items() for zc, c in t.items()]
             for d, cells in stack]
    reach = np.sum([np.abs([zc for _, zc, _ in t]).max(axis=0) for t in terms], axis=0)
    g = _frame(-(f.hi + reach), f.hi + reach, depth)
    factors = [[(lvl, lvl * g.stq + int(np.dot(zc, g.w)), c) for lvl, zc, c in t] for t in terms]
    cut = [_SignOrthant(tuple(i for i in _symmetry(meta).axes if d and d[i])) for d, _ in stack]
    out = []
    for k, v in layers:
        if dtype is not object and v.dtype == object:
            raise _NotInt64
        k, v = _restride(k, f, g), v.astype(dtype, copy=False)
        for fac, ax in zip(factors, cut):
            if (dtype is not object and len(v)
                    and int(np.abs(v).max()) * sum(abs(c) for *_, c in fac) >= _INT64_SAFE):
                raise _NotInt64
            at = np.searchsorted(k, np.arange(depth + 2) * g.stq).tolist()  # first key per level
            cuts = range(depth + 2) if len(k) * len(fac) > _NP_CHUNK else (0, depth + 1)
            bands = []
            for lo, hi in zip(cuts, cuts[1:]):  # output levels lo..hi-1
                src = [(at[max(lo - lvl, 0)], at[max(hi - lvl, 0)], off, c) for lvl, off, c in fac]
                kb, vb = _reduce_parts([(k[a:b] + off, v[a:b] * c) for a, b, off, c in src])
                if ax.axes:
                    keep = ax.held(kb, g, -1)
                    kb, vb = kb[keep], vb[keep]
                bands.append((kb, vb))
            k, v = map(np.concatenate, zip(*bands))
        out.append((k, v))
    return g, out


def multiply_by_member(f, layers: list, key: str, depth: int) -> tuple:
    """The theta block times packed layers, the inverse of ``divide_by_member``.

    ``layers`` are (keys, values) with the level as the top key digit in
    the symmetric frame f, as ``borcherds._exp_packed`` returns (f,
    layers); level l of a product is at q_num val + 24 l.  Returns
    (frame, [(keys, values)]) through level depth, keys sorted, in f's
    box widened by the factors' summed reach: for D, D1 and A1 the
    product's exact part on z_i > 0 of every sign axis, which is the
    whole odd product when the layers are even (as E_j and the unit are),
    and the divisor's orthant contract.  Works factor by factor over
    ``_factor_stack``: the eta power, then one theta per corner
    direction, whose binomial is two key shifts.  Values are int64 unless
    some factor could reach 2^62, in which case the product is run again
    on python ints.
    """
    meta = MEMBERS[key]
    return _int64_first(_multiply_packed, f, layers, meta, depth, _factor_stack(meta, depth))


class _RowSeries(FourierSeries):
    """A weight-0 series held as read-only rows (levels, z rows, values):
    its cells (level j at q_num 24 j) are decoded on their first read."""

    __slots__ = ("rows",)

    def __init__(self, r: int, den_z: int, window: TruncationWindow, rows: tuple):
        self.r, self.den_z, self.window, self.rows = r, den_z, window, rows

    def __getattr__(self, name):  # reached only while the cells slot is unset
        if name != "cells":
            raise AttributeError(name)
        lv, z, v = self.rows
        zt, vl = list(map(tuple, z.tolist())), v.tolist()
        self.cells = {(0, 24 * j): dict(zip(zt[a:b], vl[a:b])) for j, a, b in _level_runs(lv, 1)}
        return self.cells


def phi0_by_division(key: str, q_depth: int) -> _RowSeries:
    """The weak weight-0 form as -(psi|V_p)/psi: the Hecke levels go to
    the division as packed keys, on the orthant z_i > 0 of the sign axes
    as ``hecke_levels`` builds them from the block's rows; the quotient's,
    mirrored out whole (even by construction) and sorted per level in its
    unsheared frame (packed-key order), become a ``_RowSeries``' rows,
    values in the division's dtype.  The block's level 0, mirrored out,
    must be the registry's corner (``_registry_corner``)."""
    meta = MEMBERS[key]
    f, [(k, v)] = hecke_levels(key, [meta.hecke_p], q_depth)
    cuts = np.searchsorted(k, np.arange(q_depth + 2) * f.stq).tolist()
    spans = list(zip(cuts, cuts[1:]))
    z, v0 = _symmetry(meta).whole(*_member_rows(key, meta.val_q)[:2], -1)
    if dict(zip(map(tuple, z.tolist()), v0.tolist())) != _registry_corner(meta):
        raise AssertionError("packed theta block corner differs from the registry's theta cells")
    g, quo = divide_by_member([k[a:b] - j * f.stq for j, (a, b) in enumerate(spans)],
                              [v[a:b] for a, b in spans], f, key, q_depth)
    qk, qv = zip(*quo)
    rows = (np.repeat(np.arange(q_depth + 1), [len(a) for a in qk]),
            _decode(np.concatenate(qk), g), -np.concatenate(qv))
    for a in rows:
        a.flags.writeable = False
    return _RowSeries(meta.r, meta.den_z, TruncationWindow(24 * q_depth, 0), rows)


_PHI0_CACHE: dict = {}  # key -> phi0's _RowSeries, which holds the rows (``weight0_rows``)


def weak_weight0(key: str, q_depth: int) -> _RowSeries:
    """Weight-0 form of a member, memoised per member.

    Every member divides its own block: restricting a cached tower top
    instead reads the whole top form once per dropped variable, which
    costs far more than the member's own division.  That restriction
    and direct division agree is a checked identity.  A deeper request
    replaces the cached form; every form cached is an exact quotient, so
    a deeper one agrees with the one it replaces on every level both hold.
    It is held as rows; only a dict read decodes cells.
    """
    cached = _PHI0_CACHE.get(key)
    if cached is None or cached.window.q_max < 24 * q_depth:
        cached = _PHI0_CACHE[key] = phi0_by_division(key, q_depth)
    return cached


def holds_phi0(key: str, phi: FourierSeries) -> bool:
    """Whether phi is the very series ``weak_weight0`` holds for the member;
    a series made anywhere else, a corrupted copy say, never is."""
    return _PHI0_CACHE.get(key) is phi


def weight0_rows(key: str, phi: FourierSeries, q_depth: int) -> tuple:
    """(levels, z rows, values) of a member's weight-0 series phi through
    level q_depth, in packed-key order (level, then z lexicographic),
    read-only: a prefix of the held series' own rows, or rows converted
    (int64 where every value allows) and sorted afresh for any other phi.
    A depth past phi's window raises ValueError."""
    if phi.window.q_max < 24 * q_depth:
        raise ValueError("weight-0 form is too shallow for rows through level %d" % q_depth)
    if holds_phi0(key, phi):
        rows = phi.rows
    else:
        levels = {j: phi.cells.get((0, 24 * j), {}) for j in range(q_depth + 1)}
        lv, z, v = _int64_first(_qz_rows, levels, phi.r)[:3]
        o = np.lexsort(np.column_stack([lv, z]).T[::-1])
        rows = lv[o], z[o], v[o]
        for a in rows:
            a.flags.writeable = False
    end = np.searchsorted(rows[0], q_depth + 1)
    return tuple(a[:end] for a in rows)


def quasi_pullback(f: FourierSeries, coord: int) -> FourierSeries:
    """Derivative in one elliptic variable followed by its restriction.

    Sends a block vanishing on z_coord = 0 to a block in one variable
    fewer, of weight one more; theta goes to eta^3, and each D-family
    block to its neighbour.  One integer pass: each restricted key sums
    c z_coord over its terms and is divided by den_z once, a Fraction
    only where that leaves a remainder.
    """
    d = f.den_z
    if not 0 <= coord < f.r:
        raise ValueError("coordinate out of range")
    grad = FourierSeries(f.r, d, f.window)  # den_z times the derivative in z_coord
    grad.cells = {cq: {z: c * z[coord] for z, c in sl.items() if z[coord]}
                  for cq, sl in f.cells.items()}
    ser = grad.restrict_z(coord)
    ser.cells = {cq: {z: Fraction(v, d) if v % d else v // d for z, v in sl.items()}
                 for cq, sl in ser.cells.items()}
    return ser
