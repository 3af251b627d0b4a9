"""Borcherds products of the tower weight-0 forms.

The product attached to a member psi with weight-0 form phi0 has two
computable shapes.  The exponential form

    B = psi * s^a * exp(- sum_{j>=1} (phi0|V_j^(0)) s^j)

is the workhorse: every layer is a finite convolution and the result
must come out integral, which the constructor asserts.  The literal
product form is the Weyl monomial times factors (1 - q^n s^m zeta^l)
with exponents read off phi0 at n*m: the running product starts at the
monomial, each factor is expanded only inside the window less the
monomial's exponents, where its terms can still land inside the window,
and the factors of one (n, m) are multiplied together before they meet
the running product.  It agrees with the
exponential form on the D, D1 and A1 families and is kept for modest
windows; on A2 it keeps the wrong half of the z-only walls (the
lexicographic half, where the corner directions need the other one) and
differs from the corner cell on.

One packed recursion (``_exp_packed``) gives the exponential layers E_j
from phi0's translates (``hecke_v0`` on phi0's held rows), encoded as
the lift's are, in one dtype, each (keys, values) in one frame;
``exp_layers`` gives psi * E_j, E_j times the block multiplied out
factor by factor (``jacobi.multiply_by_member``), memoised per (member,
j_max, q depth), with read-only arrays; the memo is read and written
only while phi0 is the series ``weak_weight0`` holds
(``jacobi.holds_phi0``).  Every series it held is an exact quotient, so
entries stay valid as phi0 deepens; any other phi0, a corrupted one say,
neither hits nor replaces an entry, and its rows must be even under the
member's sign symmetry (``jacobi._symmetry``).  E_j is then even and
psi * E_j odd, held as the lift layers are (``jacobi.hecke_levels``);
``borcherds_exp`` decodes each and completes it level by level
(``series._qz_decode``).  The lift-versus-product check compares the
two held sides as arrays of keys and values in psi * E_j's frame; only
a mismatch report decodes them, into series cells as ``borcherds_exp``
does, for ``FourierSeries.first_difference``.

The divisor scan walks the negative-norm support of phi0, reduces each
Fourier index to a primitive wall vector, sums the coefficients along
multiples of the wall, and groups the results by the invariants of the
reflection, all on phi0's held rows through the lattice's batched
kernel, grouped by packed row keys (``series._frame``).  Termination of
the multiplicity sum rests on the checked fact that negative-norm
support sits only at the minimal norm of the family; a wall whose
multiples leave the window raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .jacobi import (
    MEMBERS,
    _corner_dirs,
    _divisor_plan,
    _encode_parts,
    _part_specs,
    _symmetry,
    hecke_levels,
    member_slice,
    multiply_by_member,
    holds_phi0,
    weak_weight0,
    weight0_rows,
)
from .lattices import lattice
from .lifting import lift_layers
from .series import (FourierSeries, TruncationWindow, _encode, _frame, _int64_first,
                     _norm_coeff, _NotInt64, _qz_decode, _qz_mul, _restride, np)


class WeylData(NamedTuple):
    q_num: int  # 24 times the q-exponent of the leading monomial
    z: tuple  # stored z-exponent of the Weyl part
    s_num: int  # index scale, in half-integer s units
    sign: int


def weyl_data(key: str) -> WeylData:
    meta = MEMBERS[key]
    dirs = _corner_dirs(meta)
    zw = tuple(-sum(col) for col in zip(*dirs))
    return WeylData(meta.val_q, zw, meta.s_step, (-1) ** len(dirs))


# ---------------------------------------------------------------------------
# weight-0 Hecke translates and the exponential layers


def hecke_v0(rows: tuple, orders, q_depth: int, dtype) -> tuple:
    """W_m = -m phi|V_m^(0) on levels 0..q_depth for each order m, as a
    divisor plan (``jacobi._divisor_plan``: on level n, weight -(m/d) on
    phi's level n m / d^2 for d | (n, m)) and the rows (z rows, values,
    reach, max|v|) of each level of phi it reads, from phi's rows through
    level q_depth max(orders) (``jacobi.weight0_rows``): the 1/d weights
    of V_m^(0) cancel against m.  With int64 values, object rows raise
    _NotInt64: a cast would truncate a Fraction."""
    if any(m < 1 for m in orders):
        raise ValueError("translate order must be positive")
    plan = _divisor_plan(orders, range(q_depth + 1), lambda m, d: -(m // d))
    lv, z, v = rows
    if dtype is not object and v.dtype == object:
        raise _NotInt64
    cuts, src = np.searchsorted(lv, np.arange(max(plan.levels, default=0) + 2)).tolist(), []
    for k in plan.levels:
        zk, vk = z[cuts[k]:cuts[k + 1]], v[cuts[k]:cuts[k + 1]].astype(dtype, copy=False)
        src.append((zk, vk, np.abs(zk).max(axis=0, initial=0),
                    int(max(vk.max(initial=0), -vk.min(initial=0)))))
    return plan, src


def _exp_packed(key: str, j_max: int, q_depth: int, phi, dtype) -> tuple:
    """(frame, [(keys, values)] of E_0..E_j) from the weight-0 form phi,
    with values of one dtype.

    The reach list only sizes the frame's box: E_j is a sum of products
    of W_i whose orders add up to j, so its reach per axis is at most the
    largest reach(W_i) + reach(E_{j-i}), W_i's from ``jacobi._part_specs``.
    E_0 is the unit key; W_1..W_jmax, from ``hecke_v0``'s plan and rows,
    are encoded straight into the frame together (``jacobi._encode_parts``).
    phi must be even under the member's sign symmetry, so that E_j is
    and psi * E_j is odd: the rows of a phi ``weak_weight0`` does not
    hold are checked (``jacobi._symmetry``, ValueError).  With int64
    values object rows of phi, a W_i whose bound reaches 2^62, or a
    quotient by j that leaves a remainder raise _NotInt64; object values
    keep the remainder as a Fraction.
    """
    meta = MEMBERS[key]
    rows = weight0_rows(key, phi, j_max * q_depth)
    if not holds_phi0(key, phi):  # the held rows are even by construction
        _symmetry(meta).check(rows, 1)
    plan, src = hecke_v0(rows, range(1, j_max + 1), q_depth, dtype)
    rks = _part_specs(plan, src, dtype)
    reach = [np.zeros(meta.r, np.int64)]
    for j in range(1, j_max + 1):
        reach.append(np.max([rks[i - 1] + reach[j - i] for i in range(1, j + 1)], axis=0))
    box = np.max(reach, axis=0)
    f = _frame(-box, box, q_depth)
    W = [(np.array([f.zero], np.int64), np.ones(1, dtype))] + _encode_parts(plan, src, f, dtype)
    F = W[:1]
    for j in range(1, j_max + 1):
        k, v = _qz_mul([(W[i], F[j - i]) for i in range(1, j + 1)], f, q_depth)
        if dtype is object:
            v = np.array([_norm_coeff(Fraction(c, j)) for c in v.tolist()],
                         dtype=object)
        else:
            v, rem = np.divmod(v, j)
            if rem.any():
                raise _NotInt64
        F.append((k, v))
    return f, F


_EXP_MEMO: dict = {}  # (key, j_max, q_depth) -> exp_layers(...)


def exp_layers(key: str, j_max: int, q_depth: int) -> tuple:
    """Layers psi * E_0..psi * E_j, E_j those of exp(X),
    X = -sum (phi0|V_j^(0)) s^j, as packed (frame, ((keys, values), ...))
    through level q_depth, level l at q_num val + 24 l.

    s d/ds exp(X) = (s dX/ds) exp(X) is the first-order recursion
    j E_j = sum i X_i E_{j-i}, each step one packed product over whole
    layers (``_exp_packed``).  The combinations i X_i are integral (the
    1/d weights of V_i^(0) cancel against i), and so are the layers, as
    every product factor expands with binomial coefficients: the products
    run on int64 and the division by j is exact.  A bound reaching 2^62,
    or a remainder (only a corrupted phi0 leaves one), reruns the
    recursion on python ints and Fractions.  psi * E_j is E_j times the
    block, factor by factor (``jacobi.multiply_by_member``), memoised
    (see the module docstring).
    """
    phi = weak_weight0(key, max(j_max * q_depth, 1)).series
    ck = (key, j_max, q_depth)
    held = holds_phi0(key, phi)
    if held and ck in _EXP_MEMO:
        return _EXP_MEMO[ck]
    f, F = _int64_first(_exp_packed, key, j_max, q_depth, phi)
    f, F = multiply_by_member(f, F, key, q_depth)
    for a in (x for layer in F for x in layer):
        a.flags.writeable = False
    out = f, tuple(F)
    if held:
        _EXP_MEMO[ck] = out
    return out


def product_layers(key: str, window: TruncationWindow):
    """(s_num, frame, keys, values) of each packed product layer inside the
    window as ``exp_layers`` holds it (``jacobi._symmetry``); a layer
    holding a coefficient that is not an int (only the Fraction rerun
    leaves one) raises ArithmeticError at its first such level."""
    meta = MEMBERS[key]
    s0 = meta.s_step
    if window.q_max < meta.val_q:
        return
    f, F = exp_layers(key, max((window.s_max - s0) // 2, 0), (window.q_max - meta.val_q) // 24)
    for j, (k, v) in enumerate(F):
        s_num = s0 + 2 * j
        if s_num > window.s_max:
            break
        # int64 layers are integral; a remainder reruns as a Fraction
        bad = v.dtype == object and [i for i, c in enumerate(v.tolist()) if type(c) is not int]
        if bad:
            cq = (s_num, meta.val_q + 24 * int(k[bad[0]] // f.stq))
            raise ArithmeticError("non-integral product coefficient at %r" % (cq,))
        yield s_num, f, k, v


def borcherds_exp(key: str, window: TruncationWindow) -> FourierSeries:
    """The Borcherds product as a materialised series over a window, each
    held layer completed whole (odd)."""
    meta = MEMBERS[key]
    out = FourierSeries(meta.r, meta.den_z, window)
    odd = partial(_symmetry(meta).whole, sign=-1)
    for s_num, f, k, v in product_layers(key, window):
        for lvl, sl in _qz_decode(k, v, f, odd).items():
            out.cells[(s_num, meta.val_q + 24 * lvl)] = sl
    return out


# ---------------------------------------------------------------------------
# literal product form


def _binom_factor(c: int, q_num: int, z: tuple, s_num: int,
                  r: int, den_z: int, window: TruncationWindow) -> FourierSeries:
    """(1 - q^(q_num/24) zeta^z s^(s_num/2)) ** c inside a window."""
    out = FourierSeries(r, den_z, window)
    if q_num == 0 and s_num == 0:
        if c < 0:
            raise ValueError("z-only factors need a non-negative exponent")
        t_max = c
    else:
        t_max = min(window.q_max // q_num if q_num else 10 ** 9,
                    window.s_max // s_num if s_num else 10 ** 9)
    b = 1
    t = 0
    while t <= t_max:
        out.add_term(t * q_num, tuple(t * a for a in z), t * s_num,
                     b if t % 2 == 0 else -b)
        b = b * (c - t) // (t + 1)
        t += 1
    return out


def borcherds_product_form(key: str, window: TruncationWindow) -> FourierSeries:
    """The product over positive indices, for modest windows.

    The running product starts at the Weyl monomial, sign included, and
    each factor is built only inside the window less that monomial's q
    and s exponents: a factor term has both exponents >= 0, so a term
    past that smaller window lands past the asked one.  A monomial past
    the window leaves the empty series.  Factor exponents at (n, l, m)
    are phi0 coefficients at (nm, l); the m = 0 factors rebuild the theta
    block itself, so the only input beyond the member data is the
    weight-0 form.  The factors of one (n, m) share their q and s steps,
    so their product stays small; the running product is multiplied once
    per (n, m), not once per factor.  Of each +-pair of z-only walls the
    z lexicographically above zero is kept, which is wrong for the A2
    family (see the module docstring).
    """
    meta = MEMBERS[key]
    wd = weyl_data(key)
    s0 = wd.s_num
    out = FourierSeries.monomial(wd.sign, wd.q_num, wd.z, s0, meta.den_z, window)
    if out.is_zero():
        return out
    fw = TruncationWindow(window.q_max - wd.q_num, window.s_max - s0)
    m_max, q_depth = fw.s_max // 2, fw.q_max // 24
    phi = weak_weight0(key, max(q_depth * max(m_max, 1), 1)).series
    zero = (0,) * meta.r
    for m in range(m_max + 1):
        for n in range(q_depth + 1):
            sl = phi.cells.get((0, 24 * n * m))
            group = None  # the factors of one (n, m), multiplied together first
            for z in sorted(sl or ()):
                c = sl[z]
                if not c or (n == 0 and m == 0 and z <= zero):
                    continue  # no factor, or the other half of a +-pair of z-only walls
                fac = _binom_factor(c, 24 * n, z, 2 * m, meta.r, meta.den_z, fw)
                group = fac if group is None else group.mul(fac, fw)
            if group is not None:
                out = out.mul(group, window)
    return out


# ---------------------------------------------------------------------------
# lift versus product, layer by layer


def _product_coefficient(key: str, Ej: dict, q_num: int, z: tuple) -> object:
    """One coefficient of psi * E_j ({level: slice}), by direct convolution."""
    meta = MEMBERS[key]
    tot = 0
    for qa in range(meta.val_q, q_num + 1, 24):
        sb = Ej.get((q_num - qa) // 24)
        if sb:
            sa = member_slice(key, qa)
            for z1, c1 in sb.items():
                c0 = sa.get(tuple(a - b for a, b in zip(z, z1)))
                if c0:
                    tot += c0 * c1
    return tot


def compare_lift_product(key: str, q_depth: int, s_depth: int) -> dict:
    """Check lift layers against product layers in one packed pass.

    The product layer at s0 + 2j is psi * E_j, from ``exp_layers``: E_j
    times the block, multiplied out factor by factor and memoised.  All
    lift layers are built at once from packed
    member slices straight into the product's frame
    (``jacobi.hecke_levels``), keys sorted, so each is compared with its
    psi * E_j as keys and values, two ``array_equal`` calls.  Should a
    lift layer's reach bound leave the product's box, hecke_levels
    returns a wider frame, and the product keys are moved into it first.

    Both sides are odd and held under the member's sign symmetry
    (``jacobi._symmetry``): the lift by construction (the block's rows,
    scaled by d > 0), the product since ``_exp_packed`` reads phi0 rows
    that are even (held, or checked), so equal held sides are equal
    layers, and each layer's ``terms`` is the object's count of its held
    keys.  The first differing key of the first layer that differs is
    reported (``FourierSeries.first_difference`` on both layers, completed
    whole, as cells), the product coefficient recomputed from E_j
    (``_exp_packed`` on the same phi0); layers equal as cells raise
    AssertionError.  Raises ValueError for q_depth < 0 or s_depth < 1,
    which check nothing.
    """
    if q_depth < 0 or s_depth < 1:
        raise ValueError("compare needs q_depth >= 0 and s_depth >= 1")
    meta = MEMBERS[key]
    s0 = meta.s_step
    layers = lift_layers(key, 2 * s_depth)
    q_aux = max((24 * q_depth - meta.val_q) // 24, 0)
    j_max = max(((s - s0) // 2) for s, _ in layers) if layers else 0
    fp, prod = exp_layers(key, j_max, q_aux)
    f, num = hecke_levels(key, [order for _, order in layers], q_aux, fp)
    sym = _symmetry(meta)
    mismatch = None
    for (s_num, _), (kl, vl) in zip(layers, num):
        k, v = prod[(s_num - s0) // 2]
        if f is not fp:  # a lift bound past the product's box: compare in the wider frame
            k = _restride(k, fp, f)
        if np.array_equal(kl, k) and np.array_equal(vl, v):
            continue
        w = TruncationWindow(meta.val_q + 24 * q_aux, s_num)
        lift, rhs = FourierSeries(meta.r, meta.den_z, w), FourierSeries(meta.r, meta.den_z, w)
        for out, kv in ((lift, (kl, vl)), (rhs, (k, v))):
            out.cells = {(s_num, meta.val_q + 24 * lvl): sl
                         for lvl, sl in _qz_decode(*kv, f, partial(sym.whole, sign=-1)).items()}
        diff = lift.first_difference(rhs)
        if diff is None:
            raise AssertionError("layer s_num=%d differs as arrays but not as dicts" % s_num)
        _, q, z, c, _ = diff
        phi = weak_weight0(key, max(j_max * q_aux, 1)).series
        fe, E = _int64_first(_exp_packed, key, j_max, q_aux, phi)
        mismatch = {"s_num": s_num, "q_num": q, "z": z, "lift": c,
                    "product": _product_coefficient(
                        key, _qz_decode(*E[(s_num - s0) // 2], fe, None), q, z)}
        break
    return {
        "status": "pass" if mismatch is None else "fail",
        "member": key,
        "q_depth": q_depth,
        "s_depth": s_depth,
        "layers": [{"s_num": s, "order": o, "terms": sym.count(len(vs))}
                   for (s, o), (_, vs) in zip(layers, num)],
        "checked_terms": sym.count(sum(len(vs) for _, vs in num)),
        "first_mismatch": mismatch,
    }


# ---------------------------------------------------------------------------
# reflective divisor scan


_FAMILY_MIN = {
    "D": Fraction(-1),
    "D1": Fraction(-1),
    "A2": Fraction(-2, 3),
    "A1": Fraction(-1, 2),
}


def _norm_floor(family: str, lat) -> int:
    """The family's minimal norm on the grid of ``Lattice._wall_norms``,
    (2 n m - (l, l)) * norm_den, which must be an integer."""
    floor = _FAMILY_MIN[family] * lat.norm_den
    assert floor.denominator == 1, "family floor off the norm grid"
    return floor.numerator


class WallClass(NamedTuple):
    v2: int
    div: int
    kappa: tuple
    multiplicities: tuple  # distinct nonzero wall multiplicities seen
    walls: int
    example: tuple  # a primitive (n, z, m) realising the class


def _row_unique(rows) -> tuple:
    """(first index, inverse, count) of each distinct int64 row, as
    np.unique(rows, axis=0) orders them, sorted on one packed key per row
    (``series._frame``, lexicographic) unless the box is too wide to pack."""
    try:
        rows = _encode(rows, _frame(rows.min(axis=0, initial=0), rows.max(axis=0, initial=0)))
    except ValueError:  # packed span too wide
        pass
    return np.unique(rows, axis=0, return_index=True, return_inverse=True, return_counts=True)[1:]


def _scan_walls(key: str, q_depth: int) -> tuple:
    """(n, z rows, m, multiplicity) arrays of the primitive walls of nonzero
    multiplicity, the walls (n, z, m) in increasing order."""
    meta = MEMBERS[key]
    lat = lattice(meta.lattice_name)
    # rows through q_depth only, so the report does not depend on the cached depth
    lv, z, v = weight0_rows(key, weak_weight0(key, q_depth).series, q_depth)
    neg = lat._wall_norms(lv, z, 1) < 0  # the negative-norm support
    lv, z, v = lv[neg], z[neg], v[neg]
    # each term at level l splits as (n, m) for every n, m <= q_depth with n m = l
    n, m = np.divmod(np.arange((q_depth + 1) ** 2), q_depth + 1)
    i, j = np.nonzero(lv[:, None] == n * m)
    n0, z0, m0 = lat._primitive(n[j], z[i], m[j])
    # of each +-pair of z-only walls keep the z lexicographically above zero
    lead = z0[np.arange(len(z0)), (z0 != 0).argmax(axis=1)]
    z0[(n0 == 0) & (m0 == 0) & (lead < 0)] *= -1
    # sorted as sorted() sorts the (n, z, m) tuples
    walls = np.column_stack([n0, z0, m0])
    walls = walls[_row_unique(walls)[0]]
    n0, z0, m0 = walls[:, 0], walls[:, 1:-1], walls[:, -1]
    # the multiplicity sums the coefficients at the multiples d (n, z, m),
    # searched for in the negative-norm support packed and sorted (its rows are in key order)
    box = np.abs(z).max(axis=0, initial=0)
    f = _frame(-box, box, q_depth)
    keys = _encode(z, f, lv)
    mu2 = lat._wall_norms(n0, z0, m0)
    floor = _norm_floor(meta.family, lat)
    mult = np.zeros(len(walls), object)
    act, d = np.flatnonzero(mu2 >= floor), 1
    while len(act):
        lvl, zd = d * d * n0[act] * m0[act], d * z0[act]
        if (lvl > q_depth).any():
            raise ValueError("window too small for the multiplicity sum")
        inside = (np.abs(zd) <= box).all(axis=1)
        k = _encode(zd[inside], f, lvl[inside])
        pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        hit = keys[pos] == k
        mult[act[inside][hit]] += v[pos[hit]]
        d += 1
        act = act[d * d * mu2[act] >= floor]
    keep = mult != 0
    return n0[keep], z0[keep], m0[keep], mult[keep]


def reflective_divisor_scan(key: str, q_depth: int) -> dict:
    """Group the walls supporting the product divisor by reflection class.

    Every index (n, l, m) of negative norm inside the window, with n and m
    at most q_depth, is reduced to a primitive wall vector; the wall
    multiplicity is the sum of coefficients along its multiples, finite
    because negative support stops at the minimal norm of the family.
    Walls are grouped once, on (v^2, div, the class key of {kappa, -kappa});
    a class reports the smaller kappa and its first wall.
    """
    lat = lattice(MEMBERS[key].lattice_name)
    n0, z0, m0, mult = _scan_walls(key, q_depth)
    v2, dv, k = lat._eichler_rows(n0, z0, m0)
    # the class key of {kappa, -kappa}: the smaller of k and -k mod N as base-N numbers
    w = lat.norm_den ** np.arange(k.shape[1])[::-1]
    k = np.minimum(k @ w, (-k % lat.norm_den) @ w)
    first, group, walls = _row_unique(np.column_stack([v2, dv, k]))
    out = []
    for g, (i, cnt) in enumerate(zip(first.tolist(), walls.tolist())):
        ex = (int(n0[i]), tuple(z0[i].tolist()), int(m0[i]))  # the class's first wall
        # one eichler_invariant and one disc_reduce call per class, which the traced profile counts
        ec = lat.eichler_invariant(*ex, grid=True)
        kappa = min(ec.kappa, lat.disc_reduce(tuple(-a for a in ec.kappa)))
        mults = tuple(sorted(set(mult[group == g].tolist())))
        out.append(WallClass(ec.v2, ec.div, kappa, mults, cnt, ex))
    out.sort()
    return {
        "member": key,
        "q_depth": q_depth,
        "classes": out,
        "wall_count": sum(c.walls for c in out),
    }
