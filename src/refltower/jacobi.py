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
arithmetic (``series._restride``).  Applied to the unit, the multiply
gives every block's packed rows (``_member_rows``, with each level's
reach and max|v|); dict slices of the A2 blocks are decoded from them,
the others summed from odd shells.  The Hecke translates of the lift
(``hecke_levels``) are built from the rows straight into a product's
packed frame by ``_encode_parts``, as phi0's are from ``weight0_rows``.

Each weight-0 form is minus the quotient of a Hecke translate of its
theta block by the block itself; the minus sign is what makes the
constant term positive and the exponential lift reproduce the block.
The quotient is held as rows in packed-key order (level, then z
lexicographic); a dict reader alone decodes its cells (``_RowSeries``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from math import gcd as _gcd
from typing import NamedTuple

from .series import (
    _INT64_SAFE,
    _NP_CHUNK,
    FourierSeries,
    TruncationWindow,
    _decode,
    _frame,
    _int64_first,
    _level_runs,
    _NotInt64,
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
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


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

    @property
    def s_step(self) -> int:
        """s_num of the first layer, 2 * index: 1 on the A1 half grid."""
        return int(2 * self.index)

    @property
    def q_grid(self) -> int:
        """q_num step of the Hecke divisor sums, 24 * index."""
        return 12 * self.s_step


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


def _theta_scale(meta: MemberMeta) -> int:
    """The exponent scale of a block's theta factors: 2 for theta(tau, 2z)."""
    return 2 if meta.family == "D1" else 1


_PSI_SLICES: dict = {}
_PSI_SLICE_CACHE_DEPTH = 6


def member_slice(key: str, q_num: int) -> dict:
    """The z-slice of a registry theta block at the given q_num: decoded
    from the packed rows for A2, else summed from odd shells (no numpy)."""
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
        out = {}
        scale = _theta_scale(meta)
        for ssq in range(meta.copies, (q_num - meta.eta_exp) // 3 + 1, 8):
            e = _eta_coeff(meta.eta_exp, q_num - 3 * ssq)
            if e:
                for z, s in _odd_shell(meta.copies, ssq).items():
                    out[z if scale == 1 else tuple([scale * a for a in z])] = e * s
    if (q_num - meta.val_q) // 24 <= _PSI_SLICE_CACHE_DEPTH:
        _PSI_SLICES[ck] = out
    return out


_PSI_LEVELS: dict = {}  # key -> [(z rows, values, reach, max|v|)] on levels 0..depth


def _member_rows(key: str, q_num: int) -> tuple:
    """The block's slice at q_num as (z rows, values, reach, max|v|), no
    dict: the block times the unit layer, factor by factor
    (``multiply_by_member``), memoised per member and rebuilt only when a
    deeper level is asked for.  The reach (largest |z_i| per axis, int64)
    and max|v| of each level are taken once, when the block is built.
    Rows are int16 when they fit; the arrays are read-only."""
    meta = MEMBERS[key]
    lvl, off = divmod(q_num - meta.val_q, 24)
    if lvl < 0 or off:
        return (np.zeros((0, meta.r), np.int16), np.zeros(0, np.int64),
                np.zeros(meta.r, np.int64), 0)
    levels = _PSI_LEVELS.get(key)
    if levels is None or len(levels) <= lvl:
        zero = np.zeros(meta.r, np.int64)
        unit = (np.zeros(1, np.int64), np.ones(1, np.int64), zero)
        g, [(k, v, _)] = multiply_by_member(_frame(zero, zero, lvl), [unit], key, lvl)
        z = _decode(k, g)
        z = z.astype(np.int16) if np.abs(z).max(initial=0) < 1 << 15 else z
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


def member_hecke_slice(key: str, m: int, q_num: int) -> dict:
    """z-slice of psi|V_m at q_num, by the divisor-sum formula on dicts
    (no numpy; ``hecke_levels`` packs the same sum).

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
    n = q_num // grid
    out = dict(member_slice(key, grid * n * m))  # d = 1: weight 1, no key to rebuild
    for d, k in _divisor_terms(n, m)[1:]:
        w = d ** (meta.weight - 1)
        for z, c in member_slice(key, grid * k).items():
            zz = tuple([d * a for a in z])
            out[zz] = out.get(zz, 0) + w * c
            if not out[zz]:  # a sum that cancels
                del out[zz]
    return out


def _encode_parts(parts: list, f, dtype) -> tuple:
    """Sorted (keys, values) of one layer from its divisor parts (level j,
    d, weight, rows) in frame f: keys d (z @ w) + zero + j stq, values
    times the weight, one pass over the concatenated rows.  Keys that do
    not come out strictly increasing are summed and sorted in one reduce,
    which adds unchecked: ``_part_specs`` picks the dtype first."""
    js, ds, ws, rows = zip(*parts)
    n = [len(b[1]) for b in rows]
    k = ((np.concatenate([b[0] for b in rows]) @ f.w) * np.repeat(ds, n)
         + np.repeat(np.array(js) * f.stq + f.zero, n))
    v = (np.concatenate([b[1] for b in rows]).astype(dtype)
         * np.repeat(np.array(ws, dtype=dtype), n))
    return (k, v) if np.all(k[1:] > k[:-1]) else _reduce_parts([(k, v)])


def _part_specs(layers: list) -> list:
    """(parts, dtype, reach) per layer of divisor parts (level j, d, w,
    rows (z rows, values, reach, max|v|)): python ints if the sum of
    |w| max|v| reaches 2^62, else int64; the reach bound is the largest
    d * reach over the parts."""
    return [(parts,
             object if sum(abs(w) * b[3] for _, _, w, b in parts) >= _INT64_SAFE else np.int64,
             np.max([d * b[2] for _, d, _, b in parts], axis=0))
            for parts in layers]


def hecke_levels(key: str, orders: list, depth: int, frame=None) -> tuple:
    """member_hecke_slice of each order (as ``lift_layers`` gives them) on
    levels 0..depth, packed as ``multiply_by_member`` returns a product:
    (frame, [(keys, values, reach)]), one layer per order, keys sorted.

    Divisor d sends a block row z (``_member_rows``) to d z and its value
    to d^(wt-1) times it, wt the block's weight; dtype and reach bound
    come from ``_part_specs`` on the block's stored reaches, and each part
    is encoded straight into the frame (``_encode_parts``).  A given
    frame (unsheared) is used if every
    bound fits its box; otherwise, or without a frame, every layer goes
    into the symmetric frame of the largest bound and the given box, and
    that frame is returned.  No key is ever formed outside its frame's
    box, and a bound alone decides no comparison.
    """
    meta = MEMBERS[key]
    grid = meta.q_grid
    # the deepest slice first, so the packed block is built once
    _member_rows(key, grid * ((meta.val_q + 24 * depth) // grid) * max(orders, default=0))
    specs = _part_specs([[(j, d, d ** (meta.weight - 1), _member_rows(key, grid * k))
                          for j in range(depth + 1)
                          for d, k in _divisor_terms((meta.val_q + 24 * j) // grid, m)]
                         for m in orders])
    top = np.max([rk for *_, rk in specs] + [np.zeros(meta.r, np.int64)], axis=0)
    f = frame
    if f is None or np.any(top > f.hi) or np.any(-top < f.lo):
        top = top if f is None else np.max([top, f.hi, -f.lo], axis=0)
        f = _frame(-top, top, depth)
    return f, [(*_encode_parts(parts, f, dtype), reach) for parts, dtype, reach in specs]


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


def _registry_corner(meta: MemberMeta) -> dict:
    """The block's lowest slice from the registry forms: the lowest cell of
    theta (exponents scaled as in the block) or of Theta_A2, one per copy,
    multiplied over the copies."""
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
    of (1 << 21) // span lines, ordered by class, then by line (a dense
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
    lim = max(1, (1 << 21) // span)  # lines per block; n <= lim keys fill one
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


def _divide_packed(keys: list, vals: list, f, meta: MemberMeta, depth: int,
                   stack: list, dtype) -> tuple:
    """The factored division on packed keys with values of one dtype.

    One loop over the factors of ``_factor_stack``.  The eta power comes
    first and runs in f: its corrections only shift levels.  Each theta
    factor moves the levels once, by digit arithmetic (``_restride``),
    into the frame of its direction over f's box widened by ``_pad``;
    then per level it subtracts its correction terms (key offsets of
    lower quotient levels) and divides out its binomial in one pass.
    With int64 values every step first bounds its output from the actual
    maxima of its inputs; a bound reaching 2^62 raises _NotInt64.  Raises
    ArithmeticError when division is not exact, TypeError on non-int
    coefficients, ValueError when the keys do not fit int64.
    """
    checked = dtype is not object
    vals = vals[:depth + 1]
    if checked and any(v.dtype == object for v in vals):
        raise _NotInt64
    vs = [v.astype(dtype, copy=False) for v in vals]
    if not checked and set().union(*(map(type, v.tolist()) for v in vs)) - {int}:
        raise TypeError("packed division needs plain integers")
    pad = np.array(_pad(stack, depth, meta.r), dtype=np.int64)

    def amax(v):
        return int(np.abs(v).max()) if checked and len(v) else 0

    def guard(bound):
        if checked and bound >= _INT64_SAFE:
            raise _NotInt64

    work = list(zip(keys, vs))
    work += [(np.zeros(0, np.int64), np.zeros(0, dtype))] * (depth + 1 - len(work))
    mx = [amax(v) for _, v in work]
    cur = f
    for d, cells in stack:
        if d:
            g = _frame(f.lo - pad, f.hi + pad, 0, d)
            work = [(_restride(k, cur, g), v) for k, v in work]
            cur = g
        terms = [(lvl, int(np.dot(zc, cur.w)), cc)
                 for lvl, t in sorted(cells.items()) if lvl <= depth
                 for zc, cc in t.items()]
        ax = cur.order[-1]
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
    return cur, work


def divide_by_member(keys: list, vals: list, f, key: str, depth: int) -> tuple:
    """Exact division of 24-grid levels by the whole theta block.

    ``keys[j]`` and ``vals[j]`` are the dividend at q_num = val + 24*j,
    packed in the unsheared frame f without the level digit, as
    ``hecke_levels`` lays them out; the result is (frame, [(keys,
    values)]), the quotient on levels 0..depth in the frame of the last
    factor.  Works factor by factor: each factor, the eta power first,
    contributes a sparse correction per level, and each theta factor one
    linear binomial pass in its direction.  Values are int64 unless some
    step could reach 2^62, in which case the division is run again on
    python ints.  Raises ArithmeticError when the division is not exact.
    """
    meta = MEMBERS[key]
    return _int64_first(_divide_packed, keys, vals, f, meta, depth, _factor_stack(meta, depth))


def _multiply_packed(f, layers: list, meta: MemberMeta, depth: int, stack: list,
                     dtype) -> tuple:
    """The factored product with values of one dtype.  A factor is its
    level-0 part (1, or zeta^d - zeta^-d) plus its cells, each term a key
    offset lvl * stq + zc @ w in one frame, E's box plus the factors'
    summed reaches.  A term moves a key up exactly lvl levels, so no key
    past level ``depth`` is formed, and a factor with more than _NP_CHUNK
    pairs reduces them one output level at a time.  With int64 values a
    bound max|v| sum|c| reaching 2^62 raises _NotInt64."""
    terms = [([(0, d, 1), (0, tuple(-a for a in d), -1)] if d else [(0, (0,) * meta.r, 1)])
             + [(lvl, zc, c) for lvl, t in cells.items() for zc, c in t.items()]
             for d, cells in stack]
    reach = np.sum([np.abs([zc for _, zc, _ in t]).max(axis=0) for t in terms], axis=0)
    g = _frame(-(f.hi + reach), f.hi + reach, depth)
    factors = [[(lvl, lvl * g.stq + int(np.dot(zc, g.w)), c) for lvl, zc, c in t] for t in terms]
    out = []
    for k, v, rk in layers:
        if dtype is not object and v.dtype == object:
            raise _NotInt64
        k, v = _restride(k, f, g), v.astype(dtype, copy=False)
        for fac in factors:
            if (dtype is not object and len(v)
                    and int(np.abs(v).max()) * sum(abs(c) for *_, c in fac) >= _INT64_SAFE):
                raise _NotInt64
            at = np.searchsorted(k, np.arange(depth + 2) * g.stq).tolist()  # first key per level
            cuts = range(depth + 2) if len(k) * len(fac) > _NP_CHUNK else (0, depth + 1)
            bands = []
            for lo, hi in zip(cuts, cuts[1:]):  # output levels lo..hi-1
                src = [(at[max(lo - lvl, 0)], at[max(hi - lvl, 0)], off, c) for lvl, off, c in fac]
                bands.append(_reduce_parts([(k[a:b] + off, v[a:b] * c) for a, b, off, c in src]))
            k, v = map(np.concatenate, zip(*bands))
        out.append((k, v, rk + reach))
    return g, out


def multiply_by_member(f, layers: list, key: str, depth: int) -> tuple:
    """The theta block times packed layers, the inverse of ``divide_by_member``.

    ``layers`` are (keys, values, reach) with the level as the top key
    digit in the symmetric frame f, as ``borcherds.exp_layers`` returns
    (f, layers); level l of a product is at q_num val + 24 l.  Returns
    (frame, [(keys, values, reach)]) through level depth, keys sorted,
    the frame symmetric.  Works factor by factor over ``_factor_stack``:
    the eta power, then one theta per corner direction, whose binomial
    is two key shifts.  Values are int64 unless some factor could reach
    2^62, in which case the product is run again on python ints.
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


def phi0_by_division(key: str, q_depth: int) -> JacobiForm:
    """The weak weight-0 form as -(psi|V_p)/psi: the Hecke levels go to
    the division as packed keys; the quotient's, sorted per level in its
    unsheared frame (packed-key order), become a ``_RowSeries``' rows."""
    meta = MEMBERS[key]
    f, [(k, v, _)] = hecke_levels(key, [meta.hecke_p], q_depth)
    cuts = np.searchsorted(k, np.arange(q_depth + 2) * f.stq).tolist()
    spans = list(zip(cuts, cuts[1:]))
    z, v0, *_ = _member_rows(key, meta.val_q)
    if dict(zip(map(tuple, z.tolist()), v0.tolist())) != _registry_corner(meta):
        raise AssertionError("packed theta block corner differs from the registry's theta cells")
    g, quo = divide_by_member([k[a:b] - j * f.stq for j, (a, b) in enumerate(spans)],
                              [v[a:b] for a, b in spans], f, key, q_depth)
    qk, qv = zip(*((k[o], v[o]) for k, v in quo for o in [np.argsort(k)]))
    rows = (np.repeat(np.arange(q_depth + 1), [len(a) for a in qk]),
            _decode(np.concatenate(qk), g), (-np.concatenate(qv)).astype(object))
    for a in rows:
        a.flags.writeable = False
    return JacobiForm("phi0_%s" % meta.lattice_name,
                      _RowSeries(meta.r, meta.den_z, TruncationWindow(24 * q_depth, 0), rows),
                      0, Fraction(1), meta.lattice_name, meta.family, meta.copies)


_PHI0_CACHE: dict = {}  # key -> the form; its series holds the rows (``weight0_rows``)


def weak_weight0(key: str, q_depth: int) -> JacobiForm:
    """Weight-0 form of a member, memoised per member.

    Every member divides its own block: restricting a cached tower top
    instead reads the whole top form once per dropped variable, which
    costs far more than the member's own division.  That restriction
    and direct division agree is a checked identity.  A deeper request
    replaces the cached form; every form cached is an exact quotient, so
    a deeper one agrees with the one it replaces on every level both hold.
    Its series is held as rows; only a dict read decodes cells.
    """
    cached = _PHI0_CACHE.get(key)
    if cached is None or cached.series.window.q_max < 24 * q_depth:
        cached = _PHI0_CACHE[key] = phi0_by_division(key, q_depth)
    return cached


def holds_phi0(key: str, phi: FourierSeries) -> bool:
    """Whether phi is the very series ``weak_weight0`` holds for the member;
    a series made anywhere else, a corrupted copy say, never is."""
    cached = _PHI0_CACHE.get(key)
    return cached is not None and cached.series is phi


def weight0_rows(key: str, phi: FourierSeries, q_depth: int) -> tuple:
    """(levels, z rows, values) of a member's weight-0 series phi through
    level q_depth, in packed-key order (level, then z lexicographic),
    object values, read-only: a prefix of the held series' own rows, or
    rows converted and sorted afresh for any other phi.  A depth past
    phi's window raises ValueError."""
    if phi.window.q_max < 24 * q_depth:
        raise ValueError("weight-0 form is too shallow for rows through level %d" % q_depth)
    if holds_phi0(key, phi):
        rows = phi.rows
    else:
        levels = {j: phi.cells.get((0, 24 * j), {}) for j in range(q_depth + 1)}
        lv, z, v = _qz_rows(levels, phi.r, object)[:3]
        o = np.lexsort(np.column_stack([lv, z]).T[::-1])
        rows = lv[o], z[o], v[o]
        for a in rows:
            a.flags.writeable = False
    end = np.searchsorted(rows[0], q_depth + 1)
    return tuple(a[:end] for a in rows)


def quasi_pullback(form: JacobiForm, coord: int) -> JacobiForm:
    """Derivative in one elliptic variable followed by its restriction.

    Sends a block vanishing on z_coord = 0 to a block in one variable
    fewer; theta goes to eta^3, and each D-family block to its neighbour.
    One integer pass: each restricted key sums c z_coord over its terms
    and is divided by den_z once, a Fraction only where that leaves a
    remainder.
    """
    f, d = form.series, form.series.den_z
    if not 0 <= coord < f.r:
        raise ValueError("coordinate out of range")
    grad = FourierSeries(f.r, d, f.window)  # den_z times the derivative in z_coord
    grad.cells = {cq: {z: c * z[coord] for z, c in sl.items() if z[coord]}
                  for cq, sl in f.cells.items()}
    ser = grad.restrict_z(coord)
    ser.cells = {cq: {z: Fraction(v, d) if v % d else v // d for z, v in sl.items()}
                 for cq, sl in ser.cells.items()}
    new_lat = None
    if form.family == "D" and form.lattice_name and form.lattice_name != "D2":
        k = int(form.lattice_name[1:])
        if k >= 3:
            new_lat = "D%d" % (k - 1)
    weight = form.weight + 1
    return JacobiForm("qp(%s)" % form.name, ser, weight, form.index,
                      new_lat, form.family, max(0, form.copies - 1))

