"""Helpers only the tests use: small views of program data, and the
packed theta-block division on z-slice dicts."""

from typing import NamedTuple

from refltower import borcherds, jacobi
from refltower.lattices import Lattice, _dot
from refltower.series import (FourierSeries, PackedLevel, TruncationWindow, _int64_first,
                              _qz_decode, _qz_rows)


class DiscGroup(NamedTuple):
    order: int
    invariants: tuple
    reps: tuple  # coordinate tuples of Fractions


def discriminant_group(lat: Lattice) -> DiscGroup:
    return DiscGroup(len(lat._reps), lat.invariants, lat._reps)


def gram(lat: Lattice) -> tuple:
    """The Gram matrix of the root basis."""
    return tuple(tuple(_dot(row, y) * lat.den // lat._pair_den for y in lat._basis)
                 for row in lat._pair_rows)


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


def divide_slices(levels: list, key: str, depth: int) -> list:
    """``jacobi.divide_by_member`` on z-slice dicts, quotients as dicts.

    A slice goes in as int64 rows where its values fit, else as python
    ints or Fractions, as the program's own dividends do.
    """
    r = jacobi.MEMBERS[key].r
    packed = [PackedLevel(*_int64_first(_qz_rows, {0: sl}, r)[1:3]) for sl in levels]
    return [dict(zip(map(tuple, q.z.tolist()), q.v.tolist()))
            for q in jacobi.divide_by_member(packed, key, depth)]


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
