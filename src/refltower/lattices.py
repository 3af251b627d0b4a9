"""Root lattice catalogue with discriminant data and reflective vector classes.

Covered lattices: D_n for n = 1..8 (D_1 is the rank-one lattice of Gram
matrix (4)), k copies of A_2 for k = 1..3, and n copies of A_1 for
n = 1..4.  Ambient coordinates are Euclidean e-coordinates for the D
family, fundamental-weight coordinates per copy for the A_2 family, and
root coordinates per copy for the A_1 family.

All arithmetic runs on the integer z grid that the Jacobi forms store: a
vector is a tuple of integer numerators over the lattice's grid
denominator ``den`` (2 for D_n with n >= 2, 4 for D_1 and the A_1
family, 6 for the A_2 family), so the stored exponent z of a member is
the dual vector z / den.  Each lattice, built once per process
(``lattice``, a ``functools.cache``), builds its integer tables once, as
int64 arrays: the ambient form scaled to integers (a grid norm is a
numerator over ``norm_den``), the pairing of each basis vector (S^vee
membership and content), and the pairing of each generator of the
discriminant group, whose residues name the class of a dual vector.  The
public methods take ambient int or Fraction coordinates and convert them
to the grid on entry; a vector off the grid or outside S^vee raises
ValueError where the method needs a dual vector, and ``in_dual`` answers
False.  With ``grid=True`` they take the numerators directly.
Discriminant representatives and kappa values are Fraction tuples in
ambient coordinates.  The wall arithmetic runs in one batched kernel on
z rows (n x r int64 arrays), which ``in_dual``, ``_key`` and
``eichler_invariant`` apply to one row; a kernel step whose int64 bound
reaches 2^62 raises ValueError.

Reflective vectors live in the even lattice L = 2U + S(-1).  A Fourier
index (n, l, m) of a weight-0 form corresponds to w = m e' + n f' + l
in U + S^vee; the primitive negative vector on its line is v = D w with
D the order of l in the discriminant group, and the pair
(v^2, v/div(v) mod L) classifies its orbit under the stable orthogonal
group.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .series import _INT64_SAFE, np

Vec = tuple

CATALOGUE = (
    "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8",
    "A2", "2A2", "3A2",
    "A1", "2A1", "3A1", "4A1",
)


class EichlerClass(NamedTuple):
    v2: int
    div: int
    kappa: Vec  # reduced representative of v/div(v) in the discriminant group


class ReflectiveClass(NamedTuple):
    v2: int
    div: int
    kappas: tuple  # the pair {kappa, -kappa}, merged when they coincide
    t_action: str  # "id", "-id", or "other": action of sigma_v on disc(S)
    in_tilde_o: bool
    in_tilde_so: bool
    witness: tuple  # Fourier index (n, l, m) realising the class


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _fit(bound: int) -> None:
    """Reject an int64 step whose bound reaches 2^62 rather than let it wrap."""
    if bound >= _INT64_SAFE:
        raise ValueError("lattice arithmetic too wide for int64")


def _amax(a) -> int:
    return int(np.abs(a).max(initial=0))


def _unit(rank: int, i: int, c: int = 1) -> list:
    row = [0] * rank
    row[i] = c
    return row


class Lattice:
    """One catalogue member; all data derives from family and copy count."""

    def __init__(self, name: str):
        if name not in CATALOGUE:
            raise ValueError("unknown lattice %r" % (name,))
        self.name = name
        if name.startswith("D"):
            self.family = "D"
            self.n = int(name[1:])
            self.rank = self.n
        else:
            k = 1 if name[0] == "A" else int(name[0])
            self.family = "A2" if name.endswith("A2") else "A1"
            self.n = k
            self.rank = 2 * k if self.family == "A2" else k
        r, half = self.rank, Fraction(1, 2)
        # integer form (scaled by `scale`), Z-basis of S and generators of
        # the discriminant group (grid numerators), canonical representatives
        scale = 1
        form = [_unit(r, i) for i in range(r)]
        if self.family == "D" and self.n == 1:
            self.den, self.invariants = 4, (4,)
            basis, gens = [[2]], [[2]]
            reps = [(Fraction(k, 2),) for k in range(4)]
        elif self.family == "D":
            self.den, self.invariants = 2, (4,) if self.n % 2 else (2, 2)
            basis = [_unit(r, i) for i in range(r)]
            for i in range(r - 1):
                basis[i][i + 1] = -1
            basis[-1][-2] = 1
            gens = [_unit(r, r - 1, 2), [1] * r]
            zero = [Fraction(0)] * r
            reps = [zero, zero[:-1] + [Fraction(1)], [half] * r, [half] * (r - 1) + [-half]]
        elif self.family == "A1":
            self.den, self.invariants = 4, (2,) * self.n
            form = [_unit(r, i, 2) for i in range(r)]
            basis = [_unit(r, i) for i in range(r)]
            gens = [_unit(r, i, 2) for i in range(r)]
            reps = [[half if mask >> i & 1 else Fraction(0) for i in range(r)]
                    for mask in range(1 << r)]
        else:
            self.den, self.invariants, scale = 6, (3,) * self.n, 3
            basis, gens, reps = [], [], [[]]
            for c in range(0, r, 2):
                form[c][c] = form[c + 1][c + 1] = 2
                form[c][c + 1] = form[c + 1][c] = 1
                b1, b2 = _unit(r, c, 2), _unit(r, c + 1, 2)
                b1[c + 1] = b2[c] = -1
                basis += [b1, b2]
                gens.append(_unit(r, c, 6))
                reps = [rep + list(t) for t in ((0, 0), (1, 0), (0, 1)) for rep in reps]
            reps = [[Fraction(a) for a in rep] for rep in reps]
        self._form = [(i, j, c) for i, row in enumerate(form) for j, c in enumerate(row) if c]
        # c times the identity (D, D1, A1): grid norms are c times a sum of squares
        self._diag = form[0][0] if form == [_unit(r, i, form[0][0]) for i in range(r)] else None
        self.norm_den = scale * self.den * self.den  # (z/den, z/den) = grid_norm(z) / norm_den
        self._pair_den = scale * self.den  # (z/den, b) = (z . row_b) / _pair_den
        # z @ _P pairs z with the basis, z @ _K with the generators
        self._P = np.array(form, np.int64) @ np.array(basis, np.int64).T
        self._K = np.array(form, np.int64) @ np.array(gens, np.int64).T
        # the kernel's int64 bounds: l1 norms of the columns and the form, the largest order
        self._pair_l1 = int(np.abs(self._P).sum(axis=0).max())
        self._gen_l1 = int(np.abs(self._K).sum(axis=0).max())
        self._form_l1 = sum(abs(c) for _, _, c in self._form)
        self._exponent = lcm(*self.invariants)
        self._basis = tuple(tuple(b) for b in basis)
        self._reps = tuple(sorted(tuple(rep) for rep in reps))
        self._class_of = {self._key(self._grid(rep)): rep for rep in self._reps}
        assert len(self._class_of) == len(self._reps)

    def __repr__(self):
        return "Lattice(%s)" % self.name

    # -- grid arithmetic ---------------------------------------------------------

    def _grid(self, v: Vec):
        """Grid numerators of ambient coordinates v, or None off the grid."""
        if len(v) != self.rank:
            raise ValueError("bad vector length")
        out = []
        for a in v:
            a = a if isinstance(a, Fraction) else Fraction(a)
            num, rem = divmod(a.numerator * self.den, a.denominator)
            if rem:
                return None
            out.append(num)
        return tuple(out)

    def _dual(self, v: Vec, grid: bool = False) -> Vec:
        """Grid numerators of v, which must lie in S^vee."""
        z = v if grid else self._grid(v)
        if z is None or not self.in_dual(z, grid=True):
            raise ValueError("vector is not in the dual lattice")
        return z

    def _key(self, z: Vec) -> tuple:
        """The discriminant class of a dual vector as pairings with generators."""
        return tuple(self._keys(np.array([z], np.int64))[0].tolist())

    def _order(self, z: Vec) -> int:
        return lcm(*(self.norm_den // gcd(self.norm_den, k) for k in self._key(z)))

    def _bilinear(self, u: Vec, v: Vec) -> int:
        return sum(c * u[i] * v[j] for i, j, c in self._form)

    def grid_norm(self, z: Vec) -> int:
        """(z/den, z/den) * norm_den for grid numerators z."""
        if self._diag is not None:
            return self._diag * _dot(z, z)
        return 2 * sum(a * a + a * b + b * b for a, b in zip(z[::2], z[1::2]))

    # -- the batched kernel on z rows -------------------------------------------

    def _grid_norms(self, Z):
        """``grid_norm`` of each row of Z, as int64 (int16 rows are widened)."""
        _fit(_amax(Z) ** 2 * self._form_l1)
        Z = Z.astype(np.int64, copy=False)
        if self._diag is not None:
            return self._diag * (Z * Z).sum(axis=1)
        a, b = Z[:, ::2], Z[:, 1::2]
        return 2 * (a * a + a * b + b * b).sum(axis=1)

    def _wall_norms(self, n, Z, m):
        """(2 n m - (z/den, z/den)) * norm_den per row (n, z, m)."""
        _fit(2 * _amax(n) * _amax(m) * self.norm_den + _amax(Z) ** 2 * self._form_l1)
        return 2 * self.norm_den * n * m - self._grid_norms(Z)

    def _pair_gcd(self, Z):
        """gcd over the basis of the pairings z . row_b of each row."""
        _fit(_amax(Z) * self._pair_l1)
        return np.gcd.reduce(Z @ self._P, axis=1)

    def _content(self, Z):
        """The pairing content of each row; a row outside S^vee raises."""
        c, rem = np.divmod(self._pair_gcd(Z), self._pair_den)
        if rem.any():
            raise ValueError("vector is not in the dual lattice")
        return c

    def _keys(self, Z):
        """``_key`` of each row."""
        _fit(_amax(Z) * self._gen_l1)
        return Z @ self._K % self.norm_den

    def _primitive(self, n, Z, m):
        """(n, z, m) / t per row, t the largest divisor of gcd(n, z, m) with
        t * _pair_den dividing every pairing of z (z / t in S^vee)."""
        c, rem = np.divmod(self._pair_gcd(Z), self._pair_den)
        t = np.gcd(np.gcd(n, m), np.gcd.reduce(Z, axis=1))
        t = np.where(rem, 1, np.gcd(t, c))
        return n // t, Z // t[:, None], m // t

    def _eichler_rows(self, n, Z, m) -> tuple:
        """(v^2, div, class key) of the primitive vector on each row's line."""
        c = self._content(Z)
        N = self.norm_den
        D = np.lcm.reduce(N // np.gcd(self._keys(Z), N), axis=1)
        h = self._wall_norms(n, Z, m)
        _fit(max(_amax(h), _amax(Z)) * self._exponent ** 2)
        v2, rem = np.divmod(D * D * h, N)
        if rem.any():
            raise ValueError("non-integral vector norm")
        dv = D * np.gcd(np.gcd(n, m), c)
        # D ell / div(v) lies in S^vee, so the division is exact
        return v2, dv, self._keys(Z * D[:, None] // dv[:, None])

    # -- membership ------------------------------------------------------------

    def in_dual(self, v: Vec, grid: bool = False) -> bool:
        z = v if grid else self._grid(v)
        return z is not None and not self._pair_gcd(np.array([z], np.int64))[0] % self._pair_den

    # -- discriminant group -----------------------------------------------------

    def disc_reduce(self, v: Vec, grid: bool = False) -> Vec:
        """Canonical representative of v + S in the discriminant group."""
        return self._class_of[self._key(self._dual(v, grid))]

    # -- Eichler data ----------------------------------------------------------

    def eichler_invariant(self, n: int, ell: Vec, m: int, grid: bool = False) -> EichlerClass:
        """Orbit data of the primitive vector on the line of m e' + n f' + ell."""
        z = ell if grid else self._grid(ell)
        if z is None:
            raise ValueError("vector is not in the dual lattice")
        v2, dv, key = self._eichler_rows(np.array([n]), np.array([z], np.int64), np.array([m]))
        return EichlerClass(int(v2[0]), int(dv[0]), self._class_of[tuple(key[0].tolist())])

    def classify_reflective(self) -> list:
        """All reflective vector classes of 2U + S(-1), with group flags."""
        N = self.norm_den
        seen = {}
        for kappa in self._reps:
            z = self._grid(kappa)
            D = self._order(z)
            for v2 in (-D, -2 * D):
                # v2 even and v2 / D^2 = -(kappa, kappa) mod 2
                if v2 % 2 or (v2 * N + D * D * self.grid_norm(z)) % (2 * N * D * D):
                    continue
                key = (v2, D, min(kappa, self._class_of[self._key(tuple(-a for a in z))]))
                if key not in seen:
                    seen[key] = self._build_class(v2, D, kappa, z)
        return sorted(seen.values(), key=lambda c: (-c.v2, c.div, c.kappas))

    def _build_class(self, v2, D, kappa, z) -> ReflectiveClass:
        N = self.norm_den
        neg = self._class_of[self._key(tuple(-a for a in z))]
        kappas = (kappa,) if neg == kappa else tuple(sorted((kappa, neg)))
        # action of sigma_v on the discriminant group: mu -> mu + t kappa
        ident = negid = True
        for mu in self._reps:
            zm = self._grid(mu)
            t, rem = divmod(2 * D * D * self._bilinear(zm, z), N * v2)
            assert not rem
            img = self._class_of[self._key(tuple(a + t * b for a, b in zip(zm, z)))]
            ident = ident and img == mu
            negid = negid and img == self._class_of[self._key(tuple(-a for a in zm))]
        action = "id" if ident else "-id" if negid else "other"
        mt, rem = divmod(v2 * N + D * D * self.grid_norm(z), 2 * D * N)
        assert not rem and mt % D == 0
        return ReflectiveClass(v2, D, kappas, action, ident or negid,
                               negid and self.rank % 2 == 1, (mt // D, kappa, 1))


@cache
def lattice(name: str) -> Lattice:
    return Lattice(name)
