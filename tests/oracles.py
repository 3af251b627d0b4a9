"""Reference implementations the tests compare the program against."""

from fractions import Fraction

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
