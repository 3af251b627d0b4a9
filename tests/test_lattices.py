from fractions import Fraction
import functools
import itertools
import random
from math import gcd, isqrt

import numpy as np
import pytest

from refltower import jacobi
from refltower.lattices import CATALOGUE, EichlerClass, _dot, lattice
from refltower.series import TruncationWindow

from helpers import (basis, content, disc_order, discriminant_group, divisor, gram, inner,
                     is_reflective, norm, primitive)
from oracles import eichler_key, primitive_wall, scan_walls


def dual_vectors_up_to_norm(lat, bound) -> list:
    """All v in S^vee with (v, v) <= bound, as coordinate tuples."""
    bound = Fraction(bound)
    if bound < 0:
        return []
    if lat.family == "D":
        out = []
        if lat.n == 1:
            vals = set()
            t = Fraction(0)
            while t * t <= bound:
                vals.add(t)
                vals.add(-t)
                t += Fraction(1, 2)
            return [(x,) for x in sorted(vals)]
        for parity in (0, 1):  # integer and half-integer cosets
            out.extend(_rec_euclid(lat.n, bound, parity))
        return sorted(out)
    if lat.family == "A1":
        return sorted(_rec_scaled(lat.rank, bound, Fraction(1, 2), 2))
    return sorted(_rec_a2(lat.n, bound))


def _rec_euclid(k, rem, parity):
    if k == 0:
        return [()] if rem >= 0 else []
    out = []
    t = Fraction(parity, 2)
    while t * t <= rem:
        for v in (t, -t) if t else (t,):
            for tail in _rec_euclid(k - 1, rem - v * v, parity):
                out.append((v,) + tail)
        t += 1
    return out


def _rec_scaled(k, rem, step, scale):
    if k == 0:
        return [()] if rem >= 0 else []
    out = []
    t = Fraction(0)
    while scale * t * t <= rem:
        for v in (t, -t) if t else (t,):
            for tail in _rec_scaled(k - 1, rem - scale * v * v, step, scale):
                out.append((v,) + tail)
        t += step
    return out


def _rec_a2(copies, rem):
    if copies == 0:
        return [()] if rem >= 0 else []
    out = []
    lim = int(3 * rem / 2) + 1
    r = isqrt(4 * lim // 3) + 2
    cell = []
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            nrm = Fraction(2 * (a * a + a * b + b * b), 3)
            if nrm <= rem:
                cell.append(((Fraction(a), Fraction(b)), nrm))
    for (pair, nrm) in cell:
        for tail in _rec_a2(copies - 1, rem - nrm):
            out.append(pair + tail)
    return out


def test_gram_matrices_even_and_symmetric():
    for name in CATALOGUE:
        lat = lattice(name)
        g = gram(lat)
        assert len(g) == lat.rank
        for i in range(lat.rank):
            assert g[i][i] % 2 == 0
            for j in range(lat.rank):
                assert g[i][j] == g[j][i]


def test_inner_binding_values():
    d8 = lattice("D8")
    e1 = (1,) + (0,) * 7
    assert inner(d8, e1, e1) == 1
    a2 = lattice("A2")
    assert inner(a2, (1, 0), (1, 0)) == Fraction(2, 3)
    assert inner(a2, (1, 0), (0, 1)) == Fraction(1, 3)
    a1 = lattice("A1")
    assert inner(a1, (1,), (1,)) == 2
    d1 = lattice("D1")
    assert gram(d1) == ((4,),)


def test_discriminant_structure():
    for n in range(1, 9):
        disc = discriminant_group(lattice("D%d" % n))
        assert disc.order == 4
        assert disc.invariants == ((4,) if n % 2 else (2, 2))
    for k in range(1, 4):
        name = "A2" if k == 1 else "%dA2" % k
        disc = discriminant_group(lattice(name))
        assert disc.order == 3 ** k
    for n in range(1, 5):
        name = "A1" if n == 1 else "%dA1" % n
        disc = discriminant_group(lattice(name))
        assert disc.order == 2 ** n


def test_disc_reduce_consistency():
    for name in CATALOGUE:
        lat = lattice(name)
        disc = discriminant_group(lat)
        for rep in disc.reps:
            assert lat.disc_reduce(rep) == rep
            shifted = tuple(a + b for a, b in zip(rep, basis(lat)[0]))
            assert lat.disc_reduce(shifted) == rep


def test_d8_coset_norms():
    d8 = lattice("D8")
    disc = discriminant_group(d8)
    norms = sorted(norm(d8, r) for r in disc.reps)
    assert norms == [0, 1, 2, 2]


def test_dual_vector_counts_low_norm():
    a2 = lattice("A2")
    shells = {}
    for v in dual_vectors_up_to_norm(a2, 2):
        shells.setdefault(norm(a2, v), []).append(v)
    assert len(shells[Fraction(2, 3)]) == 6  # the weight vectors
    assert len(shells[Fraction(2)]) == 6  # the roots
    d2 = lattice("D2")
    vs = dual_vectors_up_to_norm(d2, 1)
    assert len([v for v in vs if norm(d2, v) == 1]) == 4  # (+-1, 0) type
    assert len([v for v in vs if norm(d2, v) == Fraction(1, 2)]) == 4  # (+-1/2, +-1/2)


def test_dual_vectors_norm_bound_sharp():
    a2 = lattice("A2")
    got = {v for v in dual_vectors_up_to_norm(a2, 32)}
    # the bound must include long vectors like 4*lambda_1 - 4*lambda_2 of norm 32/3*2
    for v in got:
        assert norm(a2, v) <= 32
    brute = set()
    for a in range(-10, 11):
        for b in range(-10, 11):
            if norm(a2, (a, b)) <= 32:
                brute.add((Fraction(a), Fraction(b)))
    assert got == brute


def test_divisor_and_content():
    d8 = lattice("D8")
    v = (2,) + (0,) * 7
    assert divisor(d8, v) == 2
    assert content(d8, (Fraction(1, 2),) * 8) == 1
    a2 = lattice("A2")
    assert divisor(a2, (3, 0)) == 3
    a1 = lattice("A1")
    assert divisor(a1, (1,)) == 2


def test_eichler_invariant_examples():
    d8 = lattice("D8")
    e1 = (1,) + (0,) * 7
    cls = d8.eichler_invariant(0, e1, 0)
    assert cls.v2 == -4 and cls.div == 2 and is_reflective(cls)
    d1 = lattice("D1")
    # the same dual vector b/2 sits in the z=1/2 class for n=1 and in the
    # z=0 class for n=0 because div(v) feels the hyperbolic components
    inner_class = d1.eichler_invariant(1, (1,), 0)
    assert (inner_class.v2, inner_class.div) == (-4, 2)
    outer_class = d1.eichler_invariant(0, (1,), 0)
    assert (outer_class.v2, outer_class.div) == (-4, 4)
    a2 = lattice("A2")
    cls = a2.eichler_invariant(0, (1, 0), 0)
    assert (cls.v2, cls.div) == (-6, 3) and is_reflective(cls)
    a1 = lattice("A1")
    cls = a1.eichler_invariant(0, (Fraction(1, 2),), 0)
    assert (cls.v2, cls.div) == (-2, 2) and is_reflective(cls)


def test_classify_d5_unique_stable_class():
    d5 = lattice("D5")
    classes = lattice("D5").classify_reflective()
    stable = [c for c in classes if c.in_tilde_so]
    assert len(stable) == 1
    c = stable[0]
    assert (c.v2, c.div) == (-4, 2)
    assert c.t_action == "-id"
    n, ell, m = c.witness
    got = d5.eichler_invariant(n, ell, m)
    assert (got.v2, got.div) == (c.v2, c.div)
    assert got.kappa in c.kappas


def test_classify_odd_vs_even_dn():
    for n in range(2, 9):
        classes = lattice("D%d" % n).classify_reflective()
        stable = [c for c in classes if c.in_tilde_so]
        if n % 2:
            assert len(stable) == 1
        else:
            assert stable == []
        # the divisor class of the tower members is present for every n
        assert any((c.v2, c.div) == (-4, 2) for c in classes)


def test_classify_d1_three_negative_classes():
    classes = lattice("D1").classify_reflective()
    assert {(c.v2, c.div) for c in classes} == {(-2, 1), (-4, 2), (-4, 4)}
    by_div = {c.div: c for c in classes}
    assert by_div[4].kappas == ((Fraction(1, 2),), (Fraction(3, 2),))
    assert by_div[2].kappas == ((Fraction(1),),)


def test_classify_a2_and_a1():
    a2 = lattice("3A2")
    classes = a2.classify_reflective()
    assert all(c.v2 in (-2, -6) for c in classes)
    assert any((c.v2, c.div) == (-6, 3) for c in classes)
    a1 = lattice("4A1")
    classes = a1.classify_reflective()
    assert any((c.v2, c.div) == (-2, 2) for c in classes)
    for c in classes:
        n, ell, m = c.witness
        got = a1.eichler_invariant(n, ell, m)
        assert (got.v2, got.div) == (c.v2, c.div)


def test_witness_consistency_everywhere():
    for name in CATALOGUE:
        lat = lattice(name)
        for c in lat.classify_reflective():
            n, ell, m = c.witness
            got = lat.eichler_invariant(n, ell, m)
            assert (got.v2, got.div) == (c.v2, c.div)
            assert got.kappa in c.kappas


def test_unknown_lattice_rejected():
    with pytest.raises(ValueError):
        lattice("E8")


def test_non_dual_input_fails_loudly():
    a2, d4, a1 = lattice("A2"), lattice("D4"), lattice("A1")
    third = Fraction(1, 3)
    with pytest.raises(ValueError):
        a2.disc_reduce((Fraction(1, 2), 0))  # on the 1/6 grid, not in S^vee
    with pytest.raises(ValueError):
        d4.disc_reduce((third,) * 4)
    with pytest.raises(ValueError):
        a1.disc_reduce((third,))
    with pytest.raises(ValueError):
        disc_order(d4, (Fraction(1, 5),) * 4)
    assert not a2.in_dual((Fraction(1, 2), 0))
    assert not d4.in_dual((third,) * 4)
    assert not a1.in_dual((third,))
    assert not d4.in_dual((Fraction(1, 2),) * 3 + (0,))
    assert d4.in_dual((Fraction(1, 2),) * 4) and a1.in_dual((Fraction(1, 2),))
    with pytest.raises(ValueError):
        d4.eichler_invariant(1, (third,) * 4, 1)
    with pytest.raises(ValueError):
        content(d4, (Fraction(1, 2),) * 3 + (0,))


# -- the Fraction arithmetic the integer grid replaced, kept as an oracle -------


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _mod2(x: Fraction) -> Fraction:
    x = _fr(x)
    return x - 2 * (x / 2).__floor__()


class FractionLattice:
    """Ambient Fraction arithmetic of one catalogue lattice (the pure
    functions of one vector are memoised: the oracle pairs each low-norm
    vector with nine (n, m))."""

    def __init__(self, lat):
        self.family, self.n, self.rank = lat.family, lat.n, lat.rank
        self._basis = self._rows()

    def inner(self, u, v) -> Fraction:
        if self.family == "D":
            return sum(_fr(a) * _fr(b) for a, b in zip(u, v))
        if self.family == "A1":
            return 2 * sum(_fr(a) * _fr(b) for a, b in zip(u, v))
        total = Fraction(0)
        for i in range(0, self.rank, 2):
            a1, a2 = _fr(u[i]), _fr(u[i + 1])
            b1, b2 = _fr(v[i]), _fr(v[i + 1])
            total += Fraction(2 * a1 * b1 + 2 * a2 * b2 + a1 * b2 + a2 * b1, 3)
        return total

    @functools.cache
    def norm(self, v) -> Fraction:
        return self.inner(v, v)

    def in_lattice(self, v) -> bool:
        fv = [_fr(a) for a in v]
        if any(a.denominator != 1 for a in fv):
            return False
        iv = [int(a) for a in fv]
        if self.family == "D":
            if self.n == 1:
                return iv[0] % 2 == 0
            return sum(iv) % 2 == 0
        if self.family == "A1":
            return True
        return all((iv[i] - iv[i + 1]) % 3 == 0 for i in range(0, self.rank, 2))

    def in_dual(self, v) -> bool:
        fv = [_fr(a) for a in v]
        if self.family == "D":
            if self.n == 1:
                return fv[0].denominator in (1, 2)
            dens = {a.denominator for a in fv}
            return dens <= {1} or dens <= {1, 2} and all(a.denominator == 2 for a in fv)
        if self.family == "A1":
            return all(a.denominator in (1, 2) for a in fv)
        return all(a.denominator == 1 for a in fv)

    def basis(self) -> tuple:
        return self._basis

    def _rows(self) -> tuple:
        rows = []
        if self.family == "D":
            if self.n == 1:
                return ((Fraction(2),),)
            if self.n == 2:
                return ((Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1)))
            for i in range(self.n - 1):
                row = [Fraction(0)] * self.n
                row[i], row[i + 1] = Fraction(1), Fraction(-1)
                rows.append(tuple(row))
            last = [Fraction(0)] * self.n
            last[self.n - 2] = last[self.n - 1] = Fraction(1)
            rows.append(tuple(last))
            return tuple(rows)
        if self.family == "A1":
            for i in range(self.rank):
                row = [Fraction(0)] * self.rank
                row[i] = Fraction(1)
                rows.append(tuple(row))
            return tuple(rows)
        for c in range(self.n):
            r1 = [Fraction(0)] * self.rank
            r2 = [Fraction(0)] * self.rank
            r1[2 * c], r1[2 * c + 1] = Fraction(2), Fraction(-1)
            r2[2 * c], r2[2 * c + 1] = Fraction(-1), Fraction(2)
            rows.append(tuple(r1))
            rows.append(tuple(r2))
        return tuple(rows)

    @functools.cache
    def content(self, v) -> int:
        g = 0
        for b in self.basis():
            p = self.inner(v, b)
            if p.denominator != 1:
                raise ValueError("vector is not in the dual lattice")
            g = gcd(g, abs(int(p)))
        return g

    def disc_reduce(self, v):
        fv = [_fr(a) for a in v]
        if self.family == "A1":
            return tuple(a - a.__floor__() for a in fv)
        if self.family == "A2":
            out = []
            for c in range(self.n):
                t = int(fv[2 * c] + 2 * fv[2 * c + 1]) % 3
                out.extend((Fraction(1), Fraction(0)) if t == 1 else
                           (Fraction(0), Fraction(1)) if t == 2 else
                           (Fraction(0), Fraction(0)))
            return tuple(out)
        if self.n == 1:
            return (_mod2(fv[0]),)
        dens = {a.denominator for a in fv}
        zero = Fraction(0)
        if dens <= {1}:
            if sum(fv) % 2 == 0:
                return tuple([zero] * self.n)
            out = [zero] * self.n
            out[-1] = Fraction(1)
            return tuple(out)
        t = int(sum(2 * a for a in fv)) % 4
        h = [Fraction(1, 2)] * self.n
        if t != (self.n % 4):
            h[-1] = Fraction(-1, 2)
        return tuple(h)

    @functools.cache
    def disc_order(self, v) -> int:
        for d in range(1, 13):
            if self.in_lattice(tuple(_fr(a) * d for a in v)):
                return d
        raise ValueError("order not found; is the vector in the dual lattice?")

    def eichler_invariant(self, n, ell, m) -> EichlerClass:
        ell = tuple(_fr(a) for a in ell)
        if not self.in_dual(ell):
            raise ValueError("ell must be a dual vector")
        D = self.disc_order(ell)
        hyper = 2 * n * m - self.norm(ell)
        v2 = D * D * hyper
        if v2.denominator != 1:
            raise ValueError("non-integral vector norm")
        dv = gcd(gcd(D * abs(n), D * abs(m)), D * self.content(ell))
        kappa = self.disc_reduce(tuple(a * Fraction(D, dv) for a in ell))
        return EichlerClass(int(v2), dv, kappa)


def _agree(lat, oracle, ell, nms):
    z = tuple(a * lat.den for a in ell)
    assert all(a.denominator == 1 for a in z)
    z = tuple(int(a) for a in z)
    assert lat.disc_reduce(ell) == lat.disc_reduce(z, grid=True) == oracle.disc_reduce(ell)
    assert content(lat, ell) == oracle.content(ell)
    for n, m in nms:
        want = oracle.eichler_invariant(n, ell, m)
        assert lat.eichler_invariant(n, ell, m) == want
        assert lat.eichler_invariant(n, z, m, grid=True) == want


def test_integer_grid_matches_the_fraction_oracle():
    # every low-norm dual vector of every lattice, then the walls of the
    # depth-2 scan: all of them for the small members, 500 drawn for the
    # three largest
    for name in CATALOGUE:
        lat = lattice(name)
        oracle = FractionLattice(lat)
        for ell in dual_vectors_up_to_norm(lat, 2):
            _agree(lat, oracle, ell, [(n, m) for n in range(3) for m in range(3)
                                      if n or m or any(ell)])
    rng = random.Random(4)
    for key, meta in jacobi.MEMBERS.items():
        lat = lattice(meta.lattice_name)
        oracle = FractionLattice(lat)
        walls = scan_walls(key, 2)
        if key in ("psi_4_D8", "psi_5_D7", "psi_3_3A2"):
            walls = rng.sample(walls, 500)
        else:
            assert len(walls) <= 1000, key
        for n, z, m, _ in walls:
            _agree(lat, oracle, tuple(Fraction(a, lat.den) for a in z), [(n, m)])


def test_primitive_wall_equals_the_trial_division_oracle():
    """Every split (n, m) of every negative-norm phi0 index of all fifteen
    members at depth 3, as the wall scan splits them, and its multiples."""
    for key, meta in jacobi.MEMBERS.items():
        lat = lattice(meta.lattice_name)
        phi = jacobi.weak_weight0(key, 3).series.truncated(TruncationWindow(72, 0))
        for (_, qn), sl in phi.cells.items():
            nphi = qn // 24
            if nphi:
                splits = [(a, nphi // a) for a in range(1, nphi + 1) if nphi % a == 0]
            else:
                splits = [(0, m) for m in range(4)] + [(n, 0) for n in range(1, 4)]
            for z in sl:
                if 2 * nphi * lat.norm_den >= lat.grid_norm(z):
                    continue
                for (n, m), d in itertools.product(splits, (1, 2, 6)):
                    w = (d * n, tuple(d * a for a in z), d * m)
                    assert primitive(lat, *w) == primitive_wall(lat, *w), (key, w)


def test_primitive_wall_outside_the_dual_and_on_part_of_a_prime_power():
    # z / den = (7/3, 0) is not in S^vee, though 2 divides both gcd(n, z, m)
    # and the pairing content 42 // _pair_den 18: nothing is taken out
    assert primitive(lattice("A2"), 2, (14, 0), 2) == (2, (14, 0), 2)
    # gcd 24 = 2^3 * 3, but z / 24 = (1/2, 0, 0, 0) is not dual: t = 2^2 * 3
    assert primitive(lattice("D4"), 24, (24, 0, 0, 0), 48) == (2, (2, 0, 0, 0), 4)
    rng = random.Random(11)
    for name in CATALOGUE:
        lat = lattice(name)
        for _ in range(300):
            k = rng.randint(1, 36)
            z = tuple(k * rng.randint(-6, 6) for _ in range(lat.rank))
            n, m = k * rng.randint(0, 4), k * rng.randint(1, 4)
            assert primitive(lat, n, z, m) == primitive_wall(lat, n, z, m), (name, n, z, m)


def test_grid_norm_equals_the_bilinear_form():
    """The sum-of-squares path of the diagonal forms (D, D1, A1) and the
    general pairing of A2 both equal the form on random grid vectors."""
    rng = random.Random(7)
    for name in CATALOGUE:
        lat = lattice(name)
        assert (lat._diag is None) == (lat.family == "A2"), name
        for _ in range(200):
            z = tuple(rng.randint(-40, 40) for _ in range(lat.rank))
            assert lat.grid_norm(z) == lat._bilinear(z, z), (name, z)


def test_kernel_rejects_a_row_outside_the_dual():
    """One non-dual row among dual ones fails the whole array, in the
    S^vee check and in the Eichler data, as ``_dual`` does for one vector."""
    a2 = lattice("A2")
    z = np.array([[6, 0], [3, 0], [0, 6]], np.int64)  # (1/2, 0) is not in S^vee
    one = np.ones(3, np.int64)
    with pytest.raises(ValueError):
        a2._content(z)
    with pytest.raises(ValueError):
        a2._eichler_rows(one, z, one)
    with pytest.raises(ValueError):
        a2._dual((3, 0), grid=True)
    assert a2._content(z[[0, 2]]).tolist() == [1, 1]


def test_kernel_rejects_a_non_integral_vector_norm(monkeypatch):
    """D^2 (2 n m - (l, l)) is an integer for every dual l, so the test
    bypasses the S^vee check to let the non-dual (1/2, 0) of A2 reach the
    norm check: its key has order 3, and D^2 (l, l) = 3/2."""
    a2 = lattice("A2")
    monkeypatch.setattr(a2, "_content", lambda Z: a2._pair_gcd(Z) // a2._pair_den)
    one = np.ones(1, np.int64)
    with pytest.raises(ValueError, match="non-integral vector norm"):
        a2._eichler_rows(one, np.array([[3, 0]], np.int64), one)


def test_kernel_bounds_every_int64_step():
    """A row whose bound reaches 2^62 raises ValueError in every kernel step
    and never wraps; just below the bound the kernel equals the python-int
    scalar arithmetic."""
    d8, a2 = lattice("D8"), lattice("3A2")
    zero, one = np.zeros(1, np.int64), np.ones(1, np.int64)
    # grid norms 8 a^2 and 18 a^2 of the constant rows a: (fine, wide) on
    # either side of 2^62, the wide rows dual
    for lat, fine, wide in ((d8, 2 ** 29, 2 ** 30), (a2, 2 ** 28, 3 * 2 ** 29)):
        z = tuple([fine] * lat.rank)
        assert lat._wall_norms(zero, np.array([z], np.int64), zero).tolist() == [-lat.grid_norm(z)]
        z = np.full((1, lat.rank), wide, np.int64)
        with pytest.raises(ValueError, match="too wide"):
            lat._wall_norms(zero, z, zero)
        lat._content(z)
        with pytest.raises(ValueError, match="too wide"):
            lat._eichler_rows(one, z, one)
    for lat in (d8, a2):
        top = np.full((1, lat.rank), 2 ** 61, np.int64)
        for step in (lat._pair_gcd, lat._keys):
            with pytest.raises(ValueError, match="too wide"):
                step(top)
        with pytest.raises(ValueError, match="too wide"):
            lat._primitive(zero, top, zero)
    # the largest n m the norm allows, and one step past it
    n = np.array([2 ** 29], np.int64)
    assert d8._wall_norms(n, np.zeros((1, 8), np.int64), n).tolist() == [2 ** 61]
    with pytest.raises(ValueError, match="too wide"):
        d8._wall_norms(2 * n, np.zeros((1, 8), np.int64), n)
    # z / den = (1/2, ..., 1/2) has order D = 2: D^2 (2 n m - (l, l)) norm_den
    # passes 2^62 at n = m = 2^29, though the norm itself fits
    z = np.ones((1, 8), np.int64)
    with pytest.raises(ValueError, match="too wide"):
        d8._eichler_rows(n, z, n)
    v2, dv, k = d8._eichler_rows(n // 2, z, n // 2)
    assert (v2[0], dv[0], tuple(k[0].tolist())) == eichler_key(d8, 2 ** 28, (1,) * 8, 2 ** 28)


def test_kernel_equals_the_scalar_tables():
    """Norms, keys, contents and primitive walls of random rows, and Eichler
    data of the dual ones among them (every row of 6 Z^r is dual), equal
    the scalar methods row by row."""
    rng = random.Random(19)
    for name in CATALOGUE:
        lat = lattice(name)
        rows = [tuple(rng.randint(-30, 30) for _ in range(lat.rank)) for _ in range(200)]
        rows += [tuple(6 * rng.randint(-5, 5) for _ in range(lat.rank)) for _ in range(50)]
        z = np.array(rows, np.int64)
        n = np.array([rng.randint(0, 5) for _ in rows], np.int64)
        m = np.array([rng.randint(1, 5) for _ in rows], np.int64)
        h = lat._wall_norms(n, z, m).tolist()
        keys = lat._keys(z).tolist()
        g = lat._pair_gcd(z).tolist()
        n0, z0, m0 = lat._primitive(n, z, m)
        for i, row in enumerate(rows):
            ni, mi = int(n[i]), int(m[i])
            assert h[i] == 2 * ni * mi * lat.norm_den - lat.grid_norm(row)
            assert tuple(keys[i]) == lat._key(row)
            assert g[i] == gcd(*(_dot(row, p) for p in lat._P.T.tolist()))
            assert (int(n0[i]), tuple(z0[i].tolist()), int(m0[i])) == \
                primitive_wall(lat, ni, row, mi)
        dual = [i for i, row in enumerate(rows) if lat.in_dual(row, grid=True)]
        assert len(dual) > 5, name
        v2, dv, k = lat._eichler_rows(n[dual], z[dual], m[dual])
        for i, a, b, c in zip(dual, v2.tolist(), dv.tolist(), k.tolist()):
            assert (a, b, tuple(c)) == eichler_key(lat, int(n[i]), rows[i], int(m[i]))
