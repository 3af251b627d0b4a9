"""Sparse Laurent-Fourier series with exact coefficients on fixed fractional grids.

Exponent bookkeeping is integral throughout: powers of q are stored as
integer multiples of 1/24, powers of s as integer multiples of 1/2, and
the r elliptic exponents as integer multiples of 1/den_z.  Coefficients
are python ints, promoted to Fraction only where an operation demands it.

A series is a dict of cells keyed by (s_num, q_num); each cell is a dict
mapping a z-exponent tuple to its coefficient.  Every series carries a
TruncationWindow recording the region where its terms are exact; binary
operations propagate the largest window they can honestly guarantee.

This module also owns the packed form of the int64 kernels, the (q, z)
product ``_qz_mul`` and the theta-block division and multiplication
(``jacobi.divide_by_member``, ``jacobi.multiply_by_member``): one
``_Frame`` packs (level, z) into a single int64 key, ``_qz_rows`` /
``_encode`` and ``_decode`` / ``_qz_decode`` convert from and to dicts
(``_qz_decode`` completing a held layer with the ``whole`` it is given),
``_restride`` moves keys between any two frames by digit arithmetic
(``_coord`` reads one axis of an unsheared frame the same way), and
``_int64_first`` reruns a kernel on Python ints when int64 cannot carry
its values.  Unpacked, a series is rows (levels, z rows, values,
reach) as ``_qz_rows`` lays them out; phi0's (``jacobi.weight0_rows``)
are in packed-key order, level then z lexicographic.  Packed, a layer
is (keys, values), keys sorted, in a frame whose box its producer sized
from a reach (largest |z_i| per axis).  The division takes and returns
one level per (keys, values) pair, the level digit left out.  ``np``
here, which ``jacobi`` and ``borcherds`` import, runs numpy's import on
its first use (``_lazy``), so work with no kernel never pays it; the
package registers its other modules the same way.
"""

from __future__ import annotations

import heapq
import importlib.util
import json
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterator, NamedTuple


def _lazy(name: str):
    """The module ``name``, registered in ``sys.modules`` and on its parent
    package now, its body run on its first attribute access; a module
    already imported is returned as it is.  ``import`` and ``from name
    import x`` read the module's ``__spec__``, so they run the body at
    once; ``from package import module`` binds it unrun."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError("refltower needs %s" % name, name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


np = _lazy("numpy")

INF = 1 << 60

ZKey = tuple


class TruncationWindow(NamedTuple):
    """Inclusive exactness bounds, in grid units of 1/24 (q) and 1/2 (s)."""

    q_max: int
    s_max: int

    def meet(self, other: "TruncationWindow") -> "TruncationWindow":
        return TruncationWindow(min(self.q_max, other.q_max), min(self.s_max, other.s_max))


def _norm_coeff(c):
    """Collapse integral Fractions back to int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _coeff_from_str(s: str):
    if "/" in s:
        return _norm_coeff(Fraction(s))
    return int(s)


# ---------------------------------------------------------------------------
# slice-level kernels


def _slice_mul_py(acc: dict, A: dict, B: dict) -> None:
    """acc += A * B by direct pair enumeration."""
    for za, ca in A.items():
        for zb, cb in B.items():
            z = tuple(x + y for x, y in zip(za, zb))
            v = acc.get(z, 0) + ca * cb
            if v:
                acc[z] = v
            else:
                acc.pop(z, None)


_NP_PAIR_MIN = 4096
_NP_CHUNK = 1 << 21
_NP_MERGE_CAP = 1 << 22


def _packed_reduce(keys, vals):
    """Sum vals over equal keys; sorted keys and nonzero sums come back.

    Each group's sum is the difference of one running sum at the group's
    last key and at the previous group's.  An int64 running sum may wrap,
    but it stays exact mod 2^64, so every difference is exact: the callers
    bound each group sum below 2^62 before they reduce.  Object values
    (python ints, Fractions) sum exactly as they are.  The running sum
    takes the place of the sorted values, and each array of all the keys
    is dropped as soon as it is read, which keeps the peak at the sort's."""
    order = np.argsort(keys, kind="stable")
    ks, vs = keys[order], vals[order]
    del order
    if len(ks) == 0:
        return ks, vs
    last = np.empty(len(ks), dtype=bool)
    last[-1] = True
    np.not_equal(ks[1:], ks[:-1], out=last[:-1])
    idx = np.flatnonzero(last)
    del last
    if len(idx) == len(ks):  # every key once: a sort, nothing to sum
        keep = vs != 0
        return (ks, vs) if keep.all() else (ks[keep], vs[keep])
    ks = ks[idx]
    sums = np.cumsum(vs, out=vs)[idx]
    del vs
    sums[1:] -= sums[:-1].copy()
    keep = sums != 0
    return ks[keep], sums[keep]


def _reduce_parts(parts):
    """_packed_reduce over a list of (keys, vals) parts."""
    return _packed_reduce(*map(np.concatenate, zip(*parts)))


def _merge_sums(blocks):
    """Sum a stream of (keys, vals) blocks over equal keys.

    Blocks are reduced every _NP_CHUNK pairs and the partial sums merged
    whenever they pass _NP_MERGE_CAP, which keeps the peak footprint
    independent of the total pair count.
    """
    runs, pend, count = [], [], 0
    for blk in blocks:
        pend.append(blk)
        count += len(blk[0])
        if count >= _NP_CHUNK:
            runs.append(_reduce_parts(pend))
            pend, count = [], 0
            if sum(len(k) for k, _ in runs) > _NP_MERGE_CAP:
                runs = [_reduce_parts(runs)]
    return _reduce_parts(runs + pend)


def _key_rows(sl: dict, r: int):
    """The z-keys of a slice as an (n, r) int64 array."""
    return np.fromiter(chain.from_iterable(sl), np.int64,
                       count=len(sl) * r).reshape(len(sl), r)


# Packed int64 values stay below this; a step whose bound reaches it
# reruns the whole computation on object-dtype (python int) values.
_INT64_SAFE = 1 << 62


class _NotInt64(Exception):
    """Values int64 cannot carry exactly: rerun on object dtype."""


def _int64_first(run, *args):
    """run(*args, np.int64), rerun as run(*args, object) on _NotInt64."""
    try:
        return run(*args, np.int64)
    except _NotInt64:
        return run(*args, object)


def _abs_sum(v) -> int:
    """Exact sum of |v| over int64 values below 2^62."""
    a = np.abs(v)
    return sum(a.tolist()) if int(a.max(initial=0)) * len(a) >= _INT64_SAFE else int(a.sum())


# ---------------------------------------------------------------------------
# packed (level, z) series: sorted int64 keys with the level as the top
# digit and values of one dtype (int64, or object for big ints and
# Fractions), in a frame whose box the producer sized


class _Frame(NamedTuple):
    """Keys level * stq + (m z - lo) @ st over the box lo <= m z <= hi.

    ``m`` is a unimodular shear, or the identity.  ``order`` lists the
    axes by decreasing stride; the last, the active axis, has stride
    one.  A key equals level * stq + z @ w + zero (``zero`` is the key
    of level 0 and z = 0), so a shift of z by c moves it by c @ w, and
    a product term's key is the sum of its factors' keys minus zero.
    """

    lo: object  # int64 arrays, sheared coordinates
    hi: object
    st: object
    stq: int
    zero: int
    order: list
    w: object  # int64 array
    minv: object  # inverse of the shear, or None


def _frame(lo, hi, top: int = 0, dvec: tuple = None) -> _Frame:
    """The frame over the box lo <= z <= hi on levels 0..top.

    Without dvec the last axis is active.  A block direction dvec makes
    its first nonzero coordinate a active, and a shear clears the
    others, z_i -> z_i - (d_i/d_a) z_a (d_a divides every d_i): it is
    unimodular, so keys stay a bijection, and (-3, 3) becomes an axis
    under (a, b) -> (a, a+b).  The box is then the image of lo..hi.
    """
    r = len(lo)
    ax, m, minv = r - 1, None, None
    if dvec is not None:
        ax = next(i for i, v in enumerate(dvec) if v)
        if any(v for i, v in enumerate(dvec) if i != ax):
            col = np.array(dvec, dtype=np.int64) // dvec[ax]
            col[ax] = 0
            m = np.eye(r, dtype=np.int64)
            m[:, ax] -= col
            minv = 2 * np.eye(r, dtype=np.int64) - m
            lo, hi = (np.minimum(m * lo, m * hi).sum(axis=1),
                      np.maximum(m * lo, m * hi).sum(axis=1))
    order = [i for i in range(r) if i != ax] + [ax]
    st, total = [0] * r, 1
    for i in reversed(order):
        st[i] = total
        total *= int(hi[i]) - int(lo[i]) + 1
    if 2 * (top + 1) * total >= _INT64_SAFE:
        # not OverflowError: that is an ArithmeticError, which callers
        # read as "not divisible" or "not integral"
        raise ValueError("packed span too wide")
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    st = np.array(st, dtype=np.int64)
    w = st if m is None else m.T @ st
    return _Frame(lo, hi, st, total, -int(lo @ st), order, w, minv)


def _encode(z, f: _Frame, lv=0):
    """Packed keys of z rows (n x r) on levels lv (an array, or one level)."""
    return z @ f.w + (f.zero + lv * f.stq)


def _decode(keys, f: _Frame):
    """The z rows (n x r) of packed keys; the level is dropped."""
    z = np.empty((len(keys), len(f.order)), dtype=np.int64)
    rem = keys % f.stq
    for i in f.order[:-1]:
        z[:, i], rem = np.divmod(rem, f.st[i])
    z[:, f.order[-1]] = rem
    z += f.lo
    return z if f.minv is None else z @ f.minv.T


def _restride(keys, a: _Frame, b: _Frame):
    """Packed keys in frame a moved into frame b by digit arithmetic, no
    decode: a unit digit on axis i steps b's key by c_i, c = b.w, or
    a.minv.T @ b.w out of a sheared frame, so key_b = key_a + sum digit_i
    (c_i - a.st_i) + lv (b.stq - a.stq) + (a.lo @ c + b.zero), reading
    only the axes with c_i != a.st_i.  Every target key fits int64, so a
    partial sum that wraps is still exact mod 2^64."""
    c = b.w if a.minv is None else a.minv.T @ b.w
    out = keys + (int(a.lo @ c) + b.zero)
    for sa, cb, w in zip(a.st.tolist(), c.tolist(), (a.hi - a.lo + 1).tolist()):
        if sa != cb:
            out += keys // sa % w * (cb - sa)
    if a.stq != b.stq:
        out += keys // a.stq * (b.stq - a.stq)
    return out


def _coord(keys, f: _Frame, i: int):
    """z_i of packed keys in an unsheared frame, by digit arithmetic; a
    key's image under z_i -> -z_i is 2 z_i st_i below it."""
    q, w = keys // int(f.st[i]), int(f.hi[i] - f.lo[i]) + 1
    return q - q // w * w + int(f.lo[i])  # q % w, by the faster floor division


def _qz_rows(levels: dict, r: int, dtype):
    """(levels, z rows, values, reach) of {level: slice}, before packing.

    With int64 values every coefficient must be a python int below 2^62,
    else _NotInt64; object dtype takes big ints and Fractions alike.
    """
    lv, zs, vs = [np.zeros(0, np.int64)], [np.zeros((0, r), np.int64)], []
    for lvl, sl in levels.items():
        if dtype is not object and set(map(type, sl.values())) - {int}:
            raise _NotInt64
        lv.append(np.full(len(sl), lvl, dtype=np.int64))
        zs.append(_key_rows(sl, r))
        vs.extend(sl.values())
    if dtype is not object and vs and max(max(vs), -min(vs)) >= _INT64_SAFE:
        raise _NotInt64
    z = np.concatenate(zs)
    return (np.concatenate(lv), z, np.array(vs, dtype=dtype),
            np.abs(z).max(axis=0, initial=0))


def _qz_pack(rows, f: _Frame) -> tuple:
    """Packed (keys, values) of _qz_rows output in f, keys sorted."""
    lv, z, v, _ = rows
    keys = _encode(z, f, lv)
    order = np.argsort(keys, kind="stable")
    return keys[order], v[order]


def _level_runs(keys, stq: int) -> list:
    """(level, start, end) of each run of one level in sorted packed keys."""
    lv = keys // stq
    cuts = np.flatnonzero(np.diff(lv, prepend=-1)).tolist() + [len(keys)]
    return [(int(lv[a]), a, b) for a, b in zip(cuts, cuts[1:])]


def _level_abs(vals, runs: list, top: int) -> tuple:
    """Sum and max of |vals| per level 0..top, as python ints."""
    s, m = [0] * (top + 1), [0] * (top + 1)
    for lvl, a, b in runs:
        if lvl <= top:
            s[lvl], m[lvl] = _abs_sum(vals[a:b]), int(np.abs(vals[a:b]).max())
    return s, m


def _qz_decode(keys, vals, f: _Frame, whole) -> dict:
    """{level: {z: coefficient}} of packed keys and values, sorted by
    level; ``whole`` completes one level's held (z rows, values) to every
    term (a member's ``jacobi._symmetry(meta).whole`` at the series'
    character), None for a series held whole.  The keys are decoded once."""
    z = _decode(keys, f)
    out = {}
    for lvl, a, b in _level_runs(keys, f.stq):
        zs, vs = (z[a:b], vals[a:b]) if whole is None else whole(z[a:b], vals[a:b])
        out[lvl] = dict(zip(map(tuple, zs.tolist()), vs.tolist()))
    return out


def _qz_mul(pairs: list, f: _Frame, top: int) -> tuple:
    """Sum of the products a * b over pairs of packed (keys, values) in f,
    whose box the caller sized to hold them, through level top.

    Each level of a pairs only with the prefix of b whose levels keep
    the sum at or below top, so no pair past the cut is formed.  With
    int64 values, every coefficient (and partial sum) at level n is
    bounded by the sum over pairs and over i <= n of
    min(S_a(i) M_b(n-i), M_a(i) S_b(n-i)), with S and M the sum and the
    maximum of |values| on one level; _NotInt64 is raised when a bound
    reaches 2^62.
    """
    dtype = np.result_type(*[x[1] for pair in pairs for x in pair])
    runs = [(_level_runs(a[0], f.stq), _level_runs(b[0], f.stq)) for a, b in pairs]
    if dtype != object:
        bound = [0] * (top + 1)
        for ((_, va), (_, vb)), (ra, rb) in zip(pairs, runs):
            (sa, ma), (sb, mb) = _level_abs(va, ra, top), _level_abs(vb, rb, top)
            for n in range(top + 1):
                bound[n] += sum(min(sa[i] * mb[n - i], ma[i] * sb[n - i])
                                for i in range(n + 1))
        if max(bound) >= _INT64_SAFE:
            raise _NotInt64

    def blocks():
        yield np.zeros(0, np.int64), np.zeros(0, dtype)
        for ((ka, va), (kb, vb)), (ra, _) in zip(pairs, runs):
            for lvl, s, e in ra:
                nb = int(np.searchsorted(kb, (top - lvl + 1) * f.stq))
                if not nb:
                    break
                rows = max(1, _NP_CHUNK // nb)
                for r0 in range(s, e, rows):
                    r1 = min(r0 + rows, e)
                    yield ((ka[r0:r1, None] + kb[None, :nb]).ravel(),
                           (va[r0:r1, None] * vb[None, :nb]).ravel())

    keys, vals = _merge_sums(blocks())
    return keys - f.zero, vals


def _qz_product(a: dict, b: dict, r: int, top: int, dtype) -> dict:
    """{level: slice} of the product of two {level: slice} series through top."""
    ra, rb = _qz_rows(a, r, dtype), _qz_rows(b, r, dtype)
    reach = ra[3] + rb[3]
    f = _frame(-reach, reach, top)
    k, v = _qz_mul([(_qz_pack(ra, f), _qz_pack(rb, f))], f, top)
    return _qz_decode(k, v, f, None)


def _slice_mul_into(acc: dict, A: dict, B: dict, r: int) -> None:
    """acc += A * B: packed for large integer slices, dict loops otherwise."""
    if not A or not B:
        return
    if len(A) * len(B) >= _NP_PAIR_MIN:
        try:
            prod = _qz_product({0: A}, {0: B}, r, 0, np.int64).get(0, {})
        except (_NotInt64, ValueError):  # values or key span past int64
            pass
        else:
            for z, c in prod.items():
                v = acc.get(z, 0) + c
                if v:
                    acc[z] = v
                else:
                    acc.pop(z, None)
            return
    _slice_mul_py(acc, A, B)


def _peel_divide(R: dict, B0: dict, r: int) -> dict:
    """Exact division of a z-slice by a slice with a +-1 lex-max pivot.

    Peels the lex-largest remainder term against the pivot; newly created
    keys are pushed on a max-heap with lazy deletion.  Raises ArithmeticError
    when the division leaves a remainder (detected by the support floor of
    an exact quotient, or by a nonzero final remainder).
    """
    if not R:
        return {}
    pivot = max(B0)
    pc = B0[pivot]
    if pc != 1 and pc != -1:
        raise ArithmeticError("divisor slice pivot is not a unit")
    rlo = [min(k[i] for k in R) for i in range(r)]
    blo = [min(k[i] for k in B0) for i in range(r)]
    floor = tuple(a - b for a, b in zip(rlo, blo))
    live = dict(R)
    heap = [tuple(-c for c in z) for z in live]
    heapq.heapify(heap)
    Q: dict = {}
    while heap:
        z = tuple(-c for c in heapq.heappop(heap))
        c = live.get(z)
        if not c:
            continue
        zq = tuple(a - b for a, b in zip(z, pivot))
        for a, f in zip(zq, floor):
            if a < f:
                raise ArithmeticError("slice division left a remainder")
        cq = c if pc == 1 else -c
        Q[zq] = cq
        for zb, cb in B0.items():
            zt = tuple(a + b for a, b in zip(zq, zb))
            old = live.get(zt, 0)
            v = old - cq * cb
            if v:
                if not old:
                    heapq.heappush(heap, tuple(-x for x in zt))
                live[zt] = v
            else:
                live.pop(zt, None)
    if any(live.values()):
        raise ArithmeticError("slice division left a remainder")
    return Q


# ---------------------------------------------------------------------------


class FourierSeries:
    """Truncated exact Fourier expansion in q, zeta_1..zeta_r, s."""

    __slots__ = ("r", "den_z", "window", "cells")

    def __init__(self, r: int, den_z: int, window: TruncationWindow):
        self.r = r
        self.den_z = den_z
        self.window = window
        self.cells: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def monomial(cls, coeff, q_num: int, z: ZKey, s_num: int, den_z: int,
                 window: TruncationWindow) -> "FourierSeries":
        f = cls(len(z), den_z, window)
        f.add_term(q_num, tuple(z), s_num, coeff)
        return f

    def add_term(self, q_num: int, z: ZKey, s_num: int, coeff) -> None:
        if q_num > self.window.q_max or s_num > self.window.s_max:
            return
        coeff = _norm_coeff(coeff)
        if not coeff:
            return
        cell = self.cells.setdefault((s_num, q_num), {})
        v = cell.get(z, 0) + coeff
        v = _norm_coeff(v)
        if v:
            cell[z] = v
        else:
            del cell[z]
            if not cell:
                del self.cells[(s_num, q_num)]

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.cells

    def terms(self) -> Iterator[tuple]:
        """Yield (q_num, z, s_num, coeff) in canonical (s, q, z) order,
        skipping stored zeros and cells outside the window."""
        w = self.window
        for (s, q) in sorted(c for c in self.cells if c[0] <= w.s_max and c[1] <= w.q_max):
            cell = self.cells[(s, q)]
            for z in sorted(cell):
                if cell[z]:
                    yield q, z, s, cell[z]

    def term_count(self) -> int:
        return sum(len(c) for c in self.cells.values())

    def q_valuation(self) -> int:
        return min((q for (_, q) in self.cells), default=INF)

    def s_valuation(self) -> int:
        return min((s for (s, _) in self.cells), default=INF)

    def corner_cell(self) -> tuple:
        """Cell (s, q) at minimal s, then minimal q; requires nonzero."""
        s0 = min(s for (s, _) in self.cells)
        q0 = min(q for (s, q) in self.cells if s == s0)
        return (s0, q0)

    def __repr__(self) -> str:
        return "FourierSeries(r=%d, den_z=%d, window=%s, %d terms)" % (
            self.r, self.den_z, tuple(self.window), self.term_count())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return (self.r == other.r and self.den_z == other.den_z
                and self.window == other.window and self.cells == other.cells)

    def __hash__(self):
        raise TypeError("unhashable")

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other: "FourierSeries") -> None:
        if self.r != other.r or self.den_z != other.den_z:
            raise ValueError("incompatible series shapes")

    # -- multiplication ------------------------------------------------------

    def mul(self, other: "FourierSeries", window: TruncationWindow = None) -> "FourierSeries":
        """Product, exact on the largest window both factors support.

        With valuations v and windows W the product of A and B is exact for
        q <= min(W_A.q + v_B.q, W_B.q + v_A.q), and likewise in s; an
        explicit window argument intersects with that bound.  An empty
        operand has no valuation: the product is empty, with the meet of
        the two windows (even where the other operand's valuation would
        allow more).
        """
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            w = self.window.meet(other.window)
        else:
            wq = min(self.window.q_max + other.q_valuation(),
                     other.window.q_max + self.q_valuation())
            ws = min(self.window.s_max + other.s_valuation(),
                     other.window.s_max + self.s_valuation())
            w = TruncationWindow(min(wq, INF), min(ws, INF))
        if window is not None:
            w = w.meet(window)
        out = FourierSeries(self.r, self.den_z, w)
        for (s1, q1), A in self.cells.items():
            for (s2, q2), B in other.cells.items():
                s, q = s1 + s2, q1 + q2
                if s > w.s_max or q > w.q_max:
                    continue
                acc = out.cells.setdefault((s, q), {})
                _slice_mul_into(acc, A, B, self.r)
        out.cells = {cq: sl for cq, sl in out.cells.items() if sl}
        return out

    # -- division ------------------------------------------------------------

    def div(self, other: "FourierSeries") -> "FourierSeries":
        """Exact division; the divisor's corner slice must have a unit pivot.

        Quotient cells are solved in increasing (s, q) order; each cell is a
        z-slice division of the running remainder by the divisor's corner
        slice.  Raises ArithmeticError when no exact quotient exists on the
        deduced window, ValueError when the divisor support escapes the
        quadrant above its corner.
        """
        self._check_compatible(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero series")
        bs, bq = other.corner_cell()
        for (s, q) in other.cells:
            if s < bs or q < bq:
                raise ValueError("divisor support must lie in its corner quadrant")
        if self.is_zero():
            w = TruncationWindow(self.window.q_max - bq, self.window.s_max - bs)
            return FourierSeries(self.r, self.den_z, w)
        avs, avq = self.s_valuation(), self.q_valuation()
        wq = min(self.window.q_max, other.window.q_max + avq - bq) - bq
        ws = min(self.window.s_max, other.window.s_max + avs - bs) - bs
        w = TruncationWindow(wq, ws)
        out = FourierSeries(self.r, self.den_z, w)
        B0 = other.cells[(bs, bq)]
        for cs in range(avs - bs, ws + 1):
            for cq in range(avq - bq, wq + 1):
                R = dict(self.cells.get((cs + bs, cq + bq), {}))
                for (s2, q2), Bsl in other.cells.items():
                    if s2 == bs and q2 == bq:
                        continue
                    Csl = out.cells.get((cs + bs - s2, cq + bq - q2))
                    if Csl:
                        negB = {z: -c for z, c in Bsl.items()}
                        _slice_mul_into(R, Csl, negB, self.r)
                R = {z: c for z, c in R.items() if c}
                if R:
                    Q = _peel_divide(R, B0, self.r)
                    if Q:
                        out.cells[(cs, cq)] = Q
        return out

    # -- variable changes ------------------------------------------------------

    def map_z(self, matrix, den_z_new: int = None) -> "FourierSeries":
        """Relabel elliptic exponents by z_new = z @ matrix (integer matrix)."""
        rows = len(matrix)
        if rows != self.r:
            raise ValueError("matrix rows must match r")
        r_new = len(matrix[0]) if rows else 0
        dz = den_z_new if den_z_new is not None else self.den_z
        if r_new == 0:
            dz = 1
        out = FourierSeries(r_new, dz, self.window)
        for (s, q), sl in self.cells.items():
            acc = out.cells.setdefault((s, q), {})
            for z, c in sl.items():
                zn = tuple(sum(z[i] * matrix[i][j] for i in range(rows)) for j in range(r_new))
                v = _norm_coeff(acc.get(zn, 0) + c)
                if v:
                    acc[zn] = v
                else:
                    acc.pop(zn, None)
        out.cells = {cq: sl for cq, sl in out.cells.items() if sl}
        return out

    def restrict_z(self, i: int) -> "FourierSeries":
        """Set z_i = 0, summing coefficients; r drops by one."""
        if not 0 <= i < self.r:
            raise ValueError("coordinate out of range")
        out = FourierSeries(self.r - 1, self.den_z if self.r > 1 else 1, self.window)
        for cq, sl in self.cells.items():
            acc: dict = {}
            for z, c in sl.items():
                zn = z[:i] + z[i + 1:]
                acc[zn] = acc.get(zn, 0) + c
            acc = {z: c if type(c) is int else _norm_coeff(c) for z, c in acc.items() if c}
            if acc:
                out.cells[cq] = acc
        return out

    def truncated(self, window: TruncationWindow) -> "FourierSeries":
        w = self.window.meet(window)
        out = FourierSeries(self.r, self.den_z, w)
        for (s, q), sl in self.cells.items():
            if s <= w.s_max and q <= w.q_max:
                out.cells[(s, q)] = dict(sl)
        return out

    # -- comparison ------------------------------------------------------------

    def first_difference(self, other: "FourierSeries"):
        """First (s, q, z) key where the two series differ, or None.

        Comparison runs over the meet of both windows.
        """
        self._check_compatible(other)
        w = self.window.meet(other.window)
        for (s, q) in sorted({c for c in chain(self.cells, other.cells)
                              if c[0] <= w.s_max and c[1] <= w.q_max}):
            a, b = self.cells.get((s, q), {}), other.cells.get((s, q), {})
            if a != b:  # the cell may still agree up to stored zeros
                for z in sorted(a.keys() | b.keys()):
                    if a.get(z, 0) != b.get(z, 0):
                        return (s, q, z, a.get(z, 0), b.get(z, 0))
        return None

    # -- serialisation -----------------------------------------------------------

    def to_json(self) -> str:
        """Compact JSON with sorted keys of the nonzero terms inside the
        window, one string format per term."""
        term = '{"c":"%%s","q":%%d,"s":%%d,"z":[%s]}' % ",".join(["%d"] * self.r)
        return '{"den_z":%d,"r":%d,"schema":1,"terms":[%s],"window":{"q_max":%d,"s_max":%d}}' % (
            self.den_z, self.r, ",".join([term % (c, q, s, *z) for q, z, s, c in self.terms()]),
            *self.window)

    @classmethod
    def from_json(cls, text: str) -> "FourierSeries":
        """Parse ``to_json`` output.  A malformed, zero or out-of-window
        term, or one not strictly after the term before it in (s, q, z)
        order (as ``to_json`` writes them, so no term comes twice), raises
        ValueError.  Cells and their terms are filled in that order."""
        doc = json.loads(text)
        if doc.get("schema") != 1:
            raise ValueError("unknown schema version")
        w = TruncationWindow(doc["window"]["q_max"], doc["window"]["s_max"])
        f = cls(doc["r"], doc["den_z"], w)
        if not (type(f.r) is type(f.den_z) is type(w.q_max) is type(w.s_max) is int
                and f.r >= 0 and f.den_z >= 1):
            raise ValueError("bad header: r, den_z or window")
        last = None
        for t in doc["terms"]:
            try:
                q, s, z, c = t["q"], t["s"], tuple(t["z"]), _coeff_from_str(t["c"])
                ok = (c and q <= w.q_max and s <= w.s_max and len(z) == f.r
                      and type(q) is type(s) is int and (last is None or (s, q, z) > last))
                cell = f.cells.setdefault((s, q), {})
            except (LookupError, TypeError, ValueError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ValueError("bad term %s" % (t,))
            cell[z] = c
            last = (s, q, z)
        # the z entries are typed at once: a test per term would cost more
        if not {int} >= set(map(type, chain.from_iterable(chain.from_iterable(f.cells.values())))):
            raise ValueError("bad term: a z entry is not an integer")
        return f
