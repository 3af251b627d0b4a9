"""Helpers only the tests use: small views of program data, lattice
arithmetic in ambient coordinates, the primitive wall of one index,
series lookups, the z derivative, the packed theta-block division on
z-slice dicts, the packed weight-0 Hecke translate as a series, and
every process-wide memo swapped for an empty one."""

from contextlib import contextmanager
from fractions import Fraction
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


def divide_slices(levels: list, key: str, depth: int, frame=None) -> list:
    """``jacobi.divide_by_member`` on z-slice dicts, quotients as dicts.

    Level j goes in as packed keys in ``frame`` (unsheared), by default
    the tight symmetric frame of the dividend's reach, with the level
    digit left out.  Its values are int64 where they fit, else python
    ints or Fractions, as the program's own dividends are.
    """
    r = jacobi.MEMBERS[key].r
    rows = [_int64_first(_qz_rows, {0: sl}, r) for sl in levels]
    if frame is None:
        top = np.max([x[3] for x in rows] + [np.zeros(r, np.int64)], axis=0)
        frame = _frame(-top, top, depth)
    g, quo = jacobi.divide_by_member([_encode(x[1], frame) for x in rows],
                                     [x[2] for x in rows], frame, key, depth)
    return [dict(zip(map(tuple, _decode(k, g).tolist()), v.tolist())) for k, v in quo]


def exp_series(key: str, j_max: int, q_depth: int, psi: bool = False) -> list:
    """``borcherds.exp_layers`` decoded, one q-z series per layer: level l
    at q_num 24 l, or val + 24 l with ``psi``, exact through level q_depth."""
    meta = jacobi.MEMBERS[key]
    q0 = meta.val_q if psi else 0
    f, layers = borcherds.exp_layers(key, j_max, q_depth, psi)
    out = []
    for k, v, _ in layers:
        layer = FourierSeries(meta.r, meta.den_z, TruncationWindow(q0 + 24 * q_depth, 0))
        layer.cells = {(0, q0 + 24 * lvl): sl for lvl, sl in _qz_decode(k, v, f).items()}
        out.append(layer)
    return out


def packed_translate(key: str, phi: FourierSeries, m: int, q_depth: int, dtype) -> tuple:
    """(frame, keys, values) of W_m = -m phi|V_m^(0) through level q_depth,
    phi a weight-0 series of the member: the parts ``borcherds.hecke_v0``
    gives from phi's rows (``jacobi.weight0_rows``), encoded as
    ``borcherds._exp_packed`` encodes them, in the symmetric frame of the
    reach ``jacobi._part_specs`` gives them."""
    rows = jacobi.weight0_rows(key, phi, m * q_depth)
    [(parts, _, reach)] = jacobi._part_specs([borcherds.hecke_v0(rows, m, q_depth, dtype)])
    f = _frame(-reach, reach, q_depth)
    return (f, *jacobi._encode_parts(parts, f, dtype))


def translate(key: str, phi: FourierSeries, m: int, q_depth: int) -> FourierSeries:
    """phi|V_m^(0) as a series on levels 0..q_depth: the packed W_m
    (``packed_translate``, int64 where phi's values allow it) decoded and
    divided by -m."""
    f, k, v = _int64_first(packed_translate, key, phi, m, q_depth)
    out = FourierSeries(phi.r, phi.den_z, TruncationWindow(24 * q_depth, 0))
    out.cells = {(0, 24 * lvl): {z: _norm_coeff(Fraction(-c, m)) for z, c in sl.items()}
                 for lvl, sl in _qz_decode(k, v, f).items()}
    return out


# every process-wide memo of the program, as (module, name), and every
# function cache; test_dead_code checks both lists against the source
MEMOS = ((jacobi, "_SIGMA"), (jacobi, "_ETA_TABLES"), (jacobi, "_SHELL_CACHE"),
         (jacobi, "_PSI_SLICES"), (jacobi, "_PSI_LEVELS"), (jacobi, "_PHI0_CACHE"),
         (borcherds, "_EXP_MEMO"), (lattices, "_cache"))
CACHED = ((verification, "_reflective_keys"), (cli, "_code_digest"))


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
