"""Lift assembly and the closed D-family coefficient formula."""

import itertools
from fractions import Fraction

from refltower.series import FourierSeries, TruncationWindow, np
from refltower import borcherds, jacobi, lifting


def fourier_jacobi(ser: FourierSeries, s_num: int) -> FourierSeries:
    """One Fourier-Jacobi layer of a lift as a plain q-z series."""
    out = FourierSeries(ser.r, ser.den_z, TruncationWindow(ser.window.q_max, 0))
    for (s, q), sl in ser.cells.items():
        if s == s_num:
            out.cells[(0, q)] = dict(sl)
    return out


def test_lift_layer_grids():
    assert lifting.lift_layers("psi_8_D4", 6) == [(2, 1), (4, 2), (6, 3)]
    assert lifting.lift_layers("psi_5_A1", 6) == [(1, 1), (3, 3), (5, 5)]
    assert lifting.lift_layers("psi_3_3A2", 3) == [(2, 1)]


def test_lift_cells_are_hecke_translates():
    w = TruncationWindow(96, 4)
    ser = lifting.gritsenko_lift("psi_9_D3", w)
    for (s, q), sl in ser.cells.items():
        assert sl == jacobi.member_hecke_slice("psi_9_D3", s // 2, q)
    # the s^1 layer is the block itself
    for q in (24, 48, 72, 96):
        assert ser.cells.get((2, q), {}) == jacobi.member_slice("psi_9_D3", q)


def test_fourier_jacobi_extraction():
    w = TruncationWindow(72, 4)
    lift = lifting.gritsenko_lift("psi_10_D2", w)
    layer = fourier_jacobi(lift, 2)
    psi = jacobi.member_series("psi_10_D2", TruncationWindow(72, 0))
    assert layer.first_difference(psi) is None


def test_half_grid_lift_layers_are_odd():
    w = TruncationWindow(96, 5)
    lift = lifting.gritsenko_lift("psi_4_2A1", w)
    s_values = {s for (s, q) in lift.cells}
    assert s_values == {1, 3, 5}
    q_values = {q for (s, q) in lift.cells}
    assert all(q % 12 == 0 and (q // 12) % 2 for q in q_values)


def test_closed_form_agrees_with_lift():
    """The closed formula equals the dict lift, with which it shares the
    divisor sum (``jacobi._hecke_sum``), and the Borcherds product of the
    same block (``borcherds_exp``: the exponential of phi0, built by the
    packed division and product kernels), which reads neither that sum
    nor the shells (``_shell_slice``, ``_odd_shell``)."""
    w = TruncationWindow(96, 6)
    for k in (2, 3, 4):
        key = "psi_%d_D%d" % (12 - k, k)
        closed = lifting.closed_form_Dk(k, w)
        assert len(closed.cells) == 12, k
        lift = lifting.gritsenko_lift(key, w)
        assert closed.first_difference(lift) is None
        assert closed.first_difference(borcherds.borcherds_exp(key, w)) is None


def test_closed_form_divisor_term():
    # at n = m = 2, z = (2, 2) only d = 2 contributes: the d = 1 eta index
    # falls off the 24-grid, the rescaled one hits the constant term
    assert lifting.closed_form_slice(2, 2, 2, (1, -1))[(2, 2)] == 512
    assert lifting.closed_form_slice(2, 2, 4, (1, -1))[(2, 2)] == -9216
    assert lifting.closed_form_slice(2, 3, 3, (1, -1))[(3, 3)] == 12645


def test_closed_form_support_is_odd_for_coprime_indices():
    # with gcd(n, m) = 1 only d = 1 contributes, and the Kronecker
    # factor keeps exactly the odd vectors; d > 1 terms such as the
    # 512 above live on rescaled, even support
    for n, m in [(2, 1), (3, 2), (4, 3)]:
        for z in lifting.closed_form_slice(3, n, m, (1, -1)):
            assert all(a % 2 for a in z)


def test_closed_form_nm_symmetry():
    for n, m in [(1, 2), (2, 3), (1, 4)]:
        assert lifting.closed_form_slice(4, n, m, (1, -1)) == \
            lifting.closed_form_slice(4, m, n, (1, -1))


def test_closed_form_reads_the_shell_sign_as_the_kronecker_product(monkeypatch):
    """closed_form_slice takes prod_i chi4(w_i) from the ``jacobi._odd_shell``
    map: every shell it reads at the identity-mix window (72, 4) must
    carry exactly that sign.  Only the outermost reads are recorded (the
    shells ``_shell_slice`` asks for), not the sub-shells the recursion
    reads while its memo is cold, so the set does not depend on what ran
    before."""
    real, seen, depth = jacobi._odd_shell, set(), [0]

    def spy(r, total, signs):
        if not depth[0]:
            seen.add((r, total, signs))
        depth[0] += 1
        try:
            return real(r, total, signs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(jacobi, "_odd_shell", spy)
    for k in range(2, 9):
        for m in (1, 2):
            for n in (1, 2, 3):
                lifting.closed_form_slice(k, n, m, (1, -1))
    assert {r for r, _, _ in seen} == set(range(2, 9))
    entries = 0
    for r, total, signs in seen:
        for w, sign in real(r, total, signs).items():
            want = 1
            for a in w:
                want *= jacobi.chi4(a)
            assert sign == want, (r, total, w)
            entries += 1
    assert entries > 10000


def _sorted_rows(z, v):
    """(keys, values) of int64 z rows (|z_i| < 32) and values, one
    integer key per row, in key order."""
    keys = (z + 32) @ 64 ** np.arange(z.shape[1])
    order = np.argsort(keys)
    return keys[order], v[order]


def test_orthant_closed_form_is_the_whole_slice_on_z_positive():
    """For D2..D8 at every (n, m) of the ``closed-form-vs-lift`` cap
    (120, 6), the closed form on the orthant (signs (1,)) is the whole
    slice restricted to z_i > 0, and the whole slice is the orthant
    slice's sign images, each value times (-1)^flips: so each orthant
    term stands for exactly 2^k terms, the check's count."""
    for k in range(2, 9):
        for m in range(1, 4):
            for n in range(1, 6):
                rows = []
                for signs in ((1,), (1, -1)):
                    sl = lifting.closed_form_slice(k, n, m, signs)
                    z = np.fromiter(itertools.chain.from_iterable(sl), np.int64, len(sl) * k)
                    rows.append((z.reshape(-1, k), np.fromiter(sl.values(), np.int64, len(sl))))
                (zh, vh), (z, v) = rows
                assert np.all(zh > 0) and np.abs(z).max(initial=0) < 32, (k, n, m)
                held = _sorted_rows(zh, vh)
                on = np.all(z > 0, axis=1)
                sym = jacobi._symmetry(jacobi.MEMBERS["psi_%d_D%d" % (12 - k, k)])
                for got, want in ((_sorted_rows(z[on], v[on]), held),
                                  (_sorted_rows(z, v), _sorted_rows(*sym.whole(zh, vh, -1)))):
                    assert all(map(np.array_equal, got, want)), (k, n, m)
                assert len(z) == sym.count(len(zh)) == len(zh) << k, (k, n, m)
