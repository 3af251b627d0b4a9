"""Helpers only the tests use: small views of program data, lattice
arithmetic in ambient coordinates, the primitive wall of one index,
series lookups, a series scaled or shifted by a monomial, the z
derivative, the packed theta-block division on z-slice dicts, the reach
bounds of the lift layers, the packed weight-0 Hecke translate as a
series, and every process-wide memo swapped for an empty one."""

from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from hashlib import sha256
from typing import NamedTuple

import pytest

from refltower import borcherds, cli, jacobi, lattices, verification
from refltower.lattices import Lattice, _dot
from refltower.series import (FourierSeries, TruncationWindow, _decode, _encode, _frame,
                              _int64_first, _norm_coeff, _qz_decode, _qz_rows, np)


class DiscGroup(NamedTuple):
    order: int
    invariants: tuple
    reps: tuple  # coordinate tuples of Fractions


def discriminant_group(lat: Lattice) -> DiscGroup:
    return DiscGroup(len(lat._reps), lat.invariants, lat._reps)


def gram(lat: Lattice) -> tuple:
    """The Gram matrix of the root basis."""
    return tuple(tuple(_dot(row, y) * lat.den // lat._pair_den for y in lat._basis)
                 for row in lat._P.T.tolist())


def inner(lat: Lattice, u, v) -> Fraction:
    """(u, v) for ambient coordinates on the lattice's grid."""
    zu, zv = lat._grid(u), lat._grid(v)
    if zu is None or zv is None:
        raise ValueError("vector is off the 1/%d grid" % lat.den)
    return Fraction(lat._bilinear(zu, zv), lat.norm_den)


def norm(lat: Lattice, v) -> Fraction:
    return inner(lat, v, v)


def basis(lat: Lattice) -> tuple:
    """A Z-basis of S in ambient coordinates (the root basis)."""
    return lat._basis


def content(lat: Lattice, v) -> int:
    """Positive generator of the pairing ideal (v, S) of a dual vector."""
    return int(lat._content(np.array([lat._dual(v)], np.int64))[0])


def disc_order(lat: Lattice, v) -> int:
    """The order of a dual vector in the discriminant group."""
    return lat._order(lat._dual(v))


def divisor(lat: Lattice, v) -> int:
    """div(v) for v in S."""
    if disc_order(lat, v) != 1:
        raise ValueError("divisor is defined for lattice vectors")
    return content(lat, v)


def primitive(lat: Lattice, n: int, z: tuple, m: int) -> tuple:
    """``Lattice._primitive`` on the one row (n, z, m), as python ints."""
    n0, z0, m0 = lat._primitive(np.array([n]), np.array([z], np.int64), np.array([m]))
    return int(n0[0]), tuple(z0[0].tolist()), int(m0[0])


def is_reflective(cls) -> bool:
    """Whether an EichlerClass has the invariants of a reflective vector."""
    a = -cls.v2
    return a > 0 and cls.v2 % cls.div == 0 and (2 * cls.div) % a == 0


def lowest_term(f) -> tuple:
    """(q_num, z, s_num, coeff) at the corner cell of a series, lex-least z."""
    s0, q0 = f.corner_cell()
    cell = f.cells[(s0, q0)]
    z = min(cell)
    return q0, z, s0, cell[z]


def coefficient(f: FourierSeries, q_num: int, z, s_num: int = 0):
    """The coefficient of one term, 0 where the series has none."""
    return f.cells.get((s_num, q_num), {}).get(tuple(z), 0)


def copy(f: FourierSeries) -> FourierSeries:
    """A copy whose cells can change without touching f."""
    out = FourierSeries(f.r, f.den_z, f.window)
    out.cells = {cq: dict(sl) for cq, sl in f.cells.items()}
    return out


def add(f: FourierSeries, g: FourierSeries) -> FourierSeries:
    """f + g, exact through the meet of their windows."""
    f._check_compatible(g)
    w = f.window.meet(g.window)
    out = FourierSeries(f.r, f.den_z, w)
    for src in (f, g):
        for (s, q), sl in src.cells.items():
            if s > w.s_max or q > w.q_max:
                continue
            for z, c in sl.items():
                out.add_term(q, z, s, c)
    return out


def neg(f: FourierSeries) -> FourierSeries:
    """-f."""
    out = FourierSeries(f.r, f.den_z, f.window)
    out.cells = {cq: {z: -c for z, c in sl.items()} for cq, sl in f.cells.items()}
    return out


def sub(f: FourierSeries, g: FourierSeries) -> FourierSeries:
    """f - g, exact through the meet of their windows."""
    return add(f, neg(g))


def scaled(f: FourierSeries, c) -> FourierSeries:
    """c times f, integral Fractions collapsed to int."""
    c = _norm_coeff(c)
    out = FourierSeries(f.r, f.den_z, f.window)
    if c:
        out.cells = {cq: {z: _norm_coeff(v * c) for z, v in sl.items()}
                     for cq, sl in f.cells.items()}
    return out


def shifted(f: FourierSeries, q_num: int, z, s_num: int) -> FourierSeries:
    """f times the monomial q^(q_num/24) zeta^z s^(s_num/2), the window
    moved with it."""
    out = FourierSeries(f.r, f.den_z, TruncationWindow(f.window.q_max + q_num,
                                                       f.window.s_max + s_num))
    out.cells = {(s + s_num, q + q_num): {tuple(a + b for a, b in zip(zz, z)): c
                                          for zz, c in sl.items()}
                 for (s, q), sl in f.cells.items()}
    return out


def scale_variables(f: FourierSeries, q_factor=1, z_factor=1) -> FourierSeries:
    """Substitute tau -> a*tau (a > 0), z -> b*z; errors if a key leaves
    the grid.  The result is exact through floor(a * q_max)."""
    qf = Fraction(q_factor)
    zf = Fraction(z_factor)
    if qf <= 0:
        raise ValueError("q factor must be positive")
    wq = f.window.q_max * qf.numerator // qf.denominator
    out = FourierSeries(f.r, f.den_z, TruncationWindow(wq, f.window.s_max))
    for (s, q), sl in f.cells.items():
        qn = q * qf
        if qn.denominator != 1:
            raise ValueError("q exponent leaves the 1/24 grid")
        for z, c in sl.items():
            zn = tuple(a * zf for a in z)
            if any(a.denominator != 1 for a in zn):
                raise ValueError("z exponent leaves the 1/den_z grid")
            out.add_term(int(qn), tuple(int(a) for a in zn), s, c)
    return out


def derivative_z(f: FourierSeries, i: int) -> FourierSeries:
    """Apply (2 pi i)^-1 d/dz_i, i.e. multiply each term by its z_i exponent."""
    if not 0 <= i < f.r:
        raise ValueError("coordinate out of range")
    out = FourierSeries(f.r, f.den_z, f.window)
    d = f.den_z
    for (s, q), sl in f.cells.items():
        acc = {}
        for z, c in sl.items():
            if type(c) is int:
                v, rem = divmod(c * z[i], d)
                if rem:
                    v = Fraction(c * z[i], d)
            else:
                v = _norm_coeff(c * Fraction(z[i], d))
            if v:
                acc[z] = v
        if acc:
            out.cells[(s, q)] = acc
    return out


def digest(f: FourierSeries) -> str:
    return sha256(f.to_json().encode()).hexdigest()


def is_odd(levels: list, axes: list) -> bool:
    """Whether z-slice dicts are odd in z_i on every axis: no key with
    z_i = 0, and each image under z_i -> -z_i holds the value negated."""
    return all(z[i] and sl.get(z[:i] + (-z[i],) + z[i + 1:]) == -c
               for sl in levels for z, c in sl.items() for i in axes)


def whole_keys(sym, k, v, f, sign: int) -> tuple:
    """Packed (keys, values) in an unsheared frame, held under a member's
    sign symmetry ``sym`` for the character sign, completed whole by
    ``sym.whole``, keys sorted.  The level rides along as a last column,
    which no axis touches."""
    z, w = sym.whole(np.column_stack([_decode(k, f), k // f.stq]), v, sign)
    kw = _encode(z[:, :-1], f, z[:, -1])
    o = np.argsort(kw)
    return kw[o], w[o]


def divide_slices(levels: list, key: str, depth: int, frame=None) -> list:
    """``jacobi.divide_by_member`` on whole z-slice dicts, quotients as
    dicts, under its orthant contract.

    Level j goes in as packed keys in ``frame`` (unsheared), with the
    level digit left out, sorted as ``jacobi.hecke_levels`` gives them.
    A dividend odd in every sign axis of the member (as psi|V_p is) goes
    in as its part on z_i > 0, by default in the tight symmetric frame of
    its reach; any other goes in whole, by default in that frame widened
    by one at the top of every axis, which is symmetric on none.  Its
    values are int64 where they fit, else python ints or Fractions, as
    the program's own dividends are.
    """
    r = jacobi.MEMBERS[key].r
    axes = jacobi._symmetry(jacobi.MEMBERS[key]).axes
    rows = [_int64_first(_qz_rows, {0: sl}, r) for sl in levels]
    odd = bool(axes) and is_odd(levels, axes)
    if frame is None:
        top = np.max([x[3] for x in rows] + [np.zeros(r, np.int64)], axis=0)
        frame = _frame(-top, top + (0 if odd else 1), depth)
    if odd and all(frame.lo[i] == -frame.hi[i] for i in axes):
        rows = [_int64_first(_qz_rows, {0: {z: c for z, c in sl.items()
                                            if all(z[i] > 0 for i in axes)}}, r)
                for sl in levels]
    keys = [_encode(x[1], frame) for x in rows]
    order = [np.argsort(k) for k in keys]
    g, quo = jacobi.divide_by_member([k[o] for k, o in zip(keys, order)],
                                     [x[2][o] for x, o in zip(rows, order)], frame, key, depth)
    return [dict(zip(map(tuple, _decode(k, g).tolist()), v.tolist())) for k, v in quo]


def hecke_reach(key: str, orders, depth: int) -> list:
    """The reach bound of each layer ``jacobi.hecke_levels`` builds, the
    bound that picks its frame: ``jacobi._part_specs`` on the block rows
    its divisor plan reads."""
    plan = jacobi._hecke_plan(key, tuple(orders), depth)
    rows = [jacobi._member_rows(key, jacobi.MEMBERS[key].q_grid * k) for k in plan.levels]
    return jacobi._part_specs(plan, rows, object)


def exp_series(key: str, j_max: int, q_depth: int, psi: bool = False) -> list:
    """The layers E_j, or psi * E_j with ``psi`` (``borcherds.exp_layers``,
    mirrored out whole from the sign orthant), decoded, one q-z series per
    layer: level l at q_num 24 l, or val + 24 l with ``psi``, exact
    through level q_depth.  E_j comes from
    ``borcherds._exp_packed`` on the series ``weak_weight0`` gives, as
    ``compare_lift_product``'s mismatch report reads it."""
    meta = jacobi.MEMBERS[key]
    q0 = meta.val_q if psi else 0
    if psi:
        f, layers = borcherds.exp_layers(key, j_max, q_depth)
        whole = partial(jacobi._symmetry(meta).whole, sign=-1)
    else:
        phi = borcherds.weak_weight0(key, max(j_max * q_depth, 1)).series
        f, layers = _int64_first(borcherds._exp_packed, key, j_max, q_depth, phi)
        whole = None
    out = []
    for k, v in layers:
        layer = FourierSeries(meta.r, meta.den_z, TruncationWindow(q0 + 24 * q_depth, 0))
        layer.cells = {(0, q0 + 24 * lvl): sl for lvl, sl in _qz_decode(k, v, f, whole).items()}
        out.append(layer)
    return out


def packed_translate(key: str, phi: FourierSeries, m: int, q_depth: int, dtype) -> tuple:
    """(frame, keys, values) of W_m = -m phi|V_m^(0) through level q_depth,
    phi a weight-0 series of the member: the divisor plan and rows
    ``borcherds.hecke_v0`` gives from phi's rows (``jacobi.weight0_rows``),
    encoded as ``borcherds._exp_packed`` encodes them, in the symmetric
    frame of the reach ``jacobi._part_specs`` gives them."""
    plan, src = borcherds.hecke_v0(jacobi.weight0_rows(key, phi, m * q_depth), [m], q_depth, dtype)
    [reach] = jacobi._part_specs(plan, src, dtype)
    f = _frame(-reach, reach, q_depth)
    [(k, v)] = jacobi._encode_parts(plan, src, f, dtype)
    return f, k, v


def translate(key: str, phi: FourierSeries, m: int, q_depth: int) -> FourierSeries:
    """phi|V_m^(0) as a series on levels 0..q_depth: the packed W_m
    (``packed_translate``, int64 where phi's values allow it) decoded and
    divided by -m."""
    f, k, v = _int64_first(packed_translate, key, phi, m, q_depth)
    out = FourierSeries(phi.r, phi.den_z, TruncationWindow(24 * q_depth, 0))
    out.cells = {(0, 24 * lvl): {z: _norm_coeff(Fraction(-c, m)) for z, c in sl.items()}
                 for lvl, sl in _qz_decode(k, v, f, None).items()}
    return out


# every process-wide memo of the program, as (module, name), and every
# function cache; test_dead_code checks both lists against the source
MEMOS = ((jacobi, "_SIGMA"), (jacobi, "_ETA_TABLES"), (jacobi, "_SHELL_CACHE"),
         (jacobi, "_PSI_SLICES"), (jacobi, "_PSI_LEVELS"), (jacobi, "_PHI0_CACHE"),
         (borcherds, "_EXP_MEMO"))
CACHED = ((verification, "_reflective_keys"), (cli, "_code_digest"), (jacobi, "_hecke_plan"),
          (jacobi, "_registry_corner"), (jacobi, "_symmetry"), (lattices, "lattice"))


@contextmanager
def cold_memos():
    """Every memo of MEMOS swapped for an empty one of its type and the
    CACHED caches cleared, as in a fresh process; the memos come back on
    exit, and the caches are cleared again."""
    with pytest.MonkeyPatch.context() as mp:
        for mod, name in MEMOS:
            mp.setattr(mod, name, type(getattr(mod, name))())
        try:
            for mod, name in CACHED:
                getattr(mod, name).cache_clear()
            yield
        finally:
            for mod, name in CACHED:
                getattr(mod, name).cache_clear()
