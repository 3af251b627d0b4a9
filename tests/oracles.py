"""Reference implementations the tests compare the program against."""

import json
from fractions import Fraction

from refltower import borcherds, jacobi
from refltower.series import FourierSeries


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
        term = term.mul(x, x.window).scaled(Fraction(1, j))
        if term.is_zero():
            break
        out = out + term
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
    phi = jacobi.weak_weight0(key, max(q_depth * max(m_max, 1), 1)).series
    zero = (0,) * meta.r
    out = FourierSeries.monomial(1, 0, zero, 0, meta.den_z, window)
    for m in range(m_max + 1):
        for n in range(q_depth + 1):
            sl = phi.cells.get((0, 24 * n * m), {})
            for z in sorted(sl):
                if sl[z] and not (n == 0 and m == 0 and z <= zero):
                    out = out.mul(borcherds._binom_factor(
                        sl[z], 24 * n, z, 2 * m, meta.r, meta.den_z, window), window)
    return out.shifted(wd.q_num, wd.z, wd.s_num).scaled(wd.sign).truncated(window)
