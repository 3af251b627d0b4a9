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
cosets.  Each chi4 factor is odd, so every coefficient is odd in each
z_i: ``closed_form_slice`` gives a whole slice, or its part on the
orthant z_i > 0, where the ``closed-form-vs-lift`` check compares it
with the lift layers as ``jacobi.hecke_levels`` holds them.
"""

from __future__ import annotations

from math import gcd as _gcd
from typing import NamedTuple

from .jacobi import (
    MEMBERS,
    _eta_coeff,
    _odd_shell,
    _prefetch_block,
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
    layers = lift_layers(key, window.s_max)
    # the deepest slice first: the top q on the divisor grid times the top order
    top = layers[-1][1] if layers else 0
    _prefetch_block(key, meta.q_grid * (window.q_max // meta.q_grid) * top)
    for s_num, order in layers:
        for q in range(meta.val_q, window.q_max + 1, 24):
            sl = member_hecke_slice(key, order, q)
            if sl:
                out.cells[(s_num, q)] = sl
    return OrthogonalModularForm("lift(%s)" % key, out, meta.weight, key, meta.s_step)


# ---------------------------------------------------------------------------
# closed coefficient formula for the D family


def closed_form_slice(k: int, n: int, m: int, signs: tuple) -> dict:
    """The (q^n, s^m) slice of the D_k lift from the eta table, on the
    vectors whose coordinates have their signs in signs (``_odd_shell``):
    (1,) gives its part on the orthant z_i > 0, (1, -1) all of it.

    The d-th divisor term lives on d times the odd vectors, so the
    support is walked shell by shell for each divisor and the value is
    assembled from the eta coefficient and the per-coordinate Kronecker
    symbol at the rescaled index.  Each chi4 factor is odd, so the slice
    is odd in every coordinate and has no term with z_i = 0: the orthant
    part holds every value, each standing for its 2^k sign images.
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
            if e and d == 1:  # distinct shells of one divisor share no vector
                shell = _odd_shell(k, ssq, signs)
                acc.update(zip(shell, [e * kr for kr in shell.values()]))
            elif e:
                pe = pw * e
                for w, kr in _odd_shell(k, ssq, signs).items():
                    z = tuple(d * a for a in w)
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
            sl = closed_form_slice(k, n, m, (1, -1))
            if sl:
                out.cells[(2 * m, 24 * n)] = sl
    key = "psi_%d_D%d" % (12 - k, k)
    return OrthogonalModularForm("closedform(D%d)" % k, out, 12 - k, key, 2)
