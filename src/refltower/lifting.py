"""Arithmetic lifts of the tower theta blocks.

The lift of a block of weight k and index one is assembled layer by
layer: the coefficient of s^m is the Hecke translate psi|V_m.  Members
of the half-integral family run in display coordinates, with doubled
exponents and odd translate orders only.

For the D family the lift coefficients also come straight from the
eta coefficient table: the coefficient at (n, l, m) is

    sum over d | (n, l, m) of d^(11-k) * e_p((24nm - 3*sum z_i^2)/d^2)
                                       * prod_i (-4 / (z_i/d))

where z = 2l in e-coordinates, p = 24 - 3k and e_p picks coefficients
of eta^p.  The Kronecker factor kills every vector that is not odd in
all coordinates, which is what confines the support to the right
cosets.
"""

from __future__ import annotations

from math import gcd as _gcd
from typing import NamedTuple

from .jacobi import (
    MEMBERS,
    _eta_coeff,
    _odd_shell,
    member_hecke_slice,
)
from .series import FourierSeries, TruncationWindow


class OrthogonalModularForm(NamedTuple):
    name: str
    series: FourierSeries
    weight: int
    member_key: str
    index_step: int  # s_num distance between Fourier-Jacobi layers


def lift_layers(key: str, s_max: int) -> list:
    """(s_num, translate order) pairs of the layers inside an s window."""
    step = MEMBERS[key].s_step  # 1 on the half grid: odd orders only
    return [(s, s // step) for s in range(step, s_max + 1, 2)]


def gritsenko_lift(key: str, window: TruncationWindow) -> OrthogonalModularForm:
    """The arithmetic lift as a materialised series over the window."""
    meta = MEMBERS[key]
    out = FourierSeries(meta.r, meta.den_z, window)
    for s_num, order in lift_layers(key, window.s_max):
        for q in range(meta.val_q, window.q_max + 1, 24):
            sl = member_hecke_slice(key, order, q)
            if sl:
                out.cells[(s_num, q)] = sl
    return OrthogonalModularForm("lift(%s)" % key, out, meta.weight, key, meta.s_step)


# ---------------------------------------------------------------------------
# closed coefficient formula for the D family


def closed_form_slice(k: int, n: int, m: int) -> dict:
    """The (q^n, s^m) slice of the D_k lift from the eta table.

    The d-th divisor term lives on d times the odd vectors, so the
    support is walked shell by shell for each divisor and the value is
    assembled from the eta coefficient and the per-coordinate Kronecker
    symbol at the rescaled index.
    """
    p = 24 - 3 * k
    acc: dict = {}
    g = _gcd(n, m)
    for d in range(1, g + 1):
        if g % d:
            continue
        num = 24 * n * m // (d * d)
        pw = d ** (11 - k)
        u = 0
        while True:
            ssq = k + 8 * u
            rest = num - 3 * ssq
            if rest < p:
                break
            e = _eta_coeff(p, rest)
            if e:
                pe = pw * e
                for w, kr in _odd_shell(k, ssq).items():
                    z = w if d == 1 else tuple(d * a for a in w)
                    v = acc.get(z, 0) + pe * kr
                    if v:
                        acc[z] = v
                    else:
                        acc.pop(z, None)
            u += 1
    return acc


def closed_form_Dk(k: int, window: TruncationWindow) -> OrthogonalModularForm:
    """The whole D_k lift from the closed formula, over a window."""
    out = FourierSeries(k, 2, window)
    for m in range(1, window.s_max // 2 + 1):
        for n in range(1, window.q_max // 24 + 1):
            sl = closed_form_slice(k, n, m)
            if sl:
                out.cells[(2 * m, 24 * n)] = sl
    key = "psi_%d_D%d" % (12 - k, k)
    return OrthogonalModularForm("closedform(D%d)" % k, out, 12 - k, key, 2)
