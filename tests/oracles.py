"""Reference implementations the tests compare the program against."""

import json
from fractions import Fraction

from refltower import borcherds, jacobi, lifting
from refltower.series import FourierSeries, TruncationWindow

from helpers import divide_slices, exp_series


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


def compare_lift_product(key: str, q_depth: int, s_depth: int) -> dict:
    """``borcherds.compare_lift_product`` one layer at a time on dicts:
    each lift layer from ``jacobi.member_hecke_slice``, divided on its
    own and compared with the decoded E_j slice by slice; a layer that
    differs is compared with psi * E_j from ``FourierSeries.mul``."""
    meta = jacobi.MEMBERS[key]
    s0 = meta.s_step
    layers = lifting.lift_layers(key, 2 * s_depth)
    q_aux = max((24 * q_depth - meta.val_q) // 24, 0)
    j_max = max(((s - s0) // 2) for s, _ in layers) if layers else 0
    E = exp_series(key, j_max, q_aux)
    psi = jacobi.member_series(key, TruncationWindow(meta.val_q + 24 * q_aux, 0))
    checked = 0
    mismatch = None
    rows = []
    for s_num, order in layers:
        Ej = E[(s_num - s0) // 2]
        lifts = [jacobi.member_hecke_slice(key, order, meta.val_q + 24 * j)
                 for j in range(q_aux + 1)]
        layer_terms = sum(len(sl) for sl in lifts)
        try:
            quo = divide_slices(lifts, key, q_aux)
        except ArithmeticError:
            quo = None
        rhs = None
        for j in range(q_aux + 1):
            if mismatch is not None:
                break
            if quo is not None and quo[j] == Ej.cells.get((0, 24 * j), {}):
                continue
            if rhs is None:
                rhs = psi.mul(Ej)
            q = meta.val_q + 24 * j
            z = borcherds._slice_first_diff(lifts[j], rhs.cells.get((0, q), {}))
            if z is not None:
                levels = {qe // 24: sl for (_, qe), sl in Ej.cells.items()}
                mismatch = {
                    "s_num": s_num, "q_num": q, "z": z,
                    "lift": lifts[j].get(z, 0),
                    "product": borcherds._product_coefficient(key, levels, q, z),
                }
        checked += layer_terms
        rows.append({"s_num": s_num, "order": order, "terms": layer_terms})
    return {
        "status": "pass" if mismatch is None else "fail",
        "member": key,
        "q_depth": q_depth,
        "s_depth": s_depth,
        "layers": rows,
        "checked_terms": checked,
        "first_mismatch": mismatch,
    }
