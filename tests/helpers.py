"""Helpers only the tests use: small views of program data, and the
packed theta-block division on z-slice dicts."""

from typing import NamedTuple

from refltower import jacobi
from refltower.lattices import Lattice, _dot
from refltower.series import PackedLevel, _int64_first, _qz_rows


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
