from fractions import Fraction

import pytest

from conergy import counting as ct
from conergy import energy as en
from conergy import partition as pt
from conergy.errors import DomainError


def test_g_max_values():
    assert ct.g_max(1) == 0
    assert ct.g_max(4) == 24
    assert ct.g_max(5) == 64
    with pytest.raises(DomainError):
        ct.g_max(0)


def test_g_sb_values():
    assert ct.g_sb(4) == 14
    assert ct.g_sb(5) == 36
    for n in range(3, 61):
        got = ct.g_sb(n)
        assert type(got) is int
        assert got == (n - 1) * Fraction(2) ** (n - 2) + Fraction(2) ** (n - 3)
    for n in (2, 1, 0, -1):
        with pytest.raises(DomainError):
            ct.g_sb(n)


def test_g_sb_recursion():
    for k in range(4, 31):
        assert ct.g_sb(k) == 2 * ct.g_sb(k - 1) + 2 ** (k - 2)


def test_g_pn_values():
    assert ct.g_pn(4) == Fraction(17, 2)
    assert ct.g_pn(5) == 22
    for k in range(5, 31):
        assert ct.g_pn(k).denominator == 1
        assert ct.g_pn(k) == 2 * ct.g_pn(k - 1) + 5 * 2 ** (k - 5)
        assert ct.g_pn(k) < ct.g_sb(k)
    with pytest.raises(DomainError):
        ct.g_pn(3)


def test_strict_ordering_at_five():
    assert ct.g_pn(5) == 22 < 36 == ct.g_sb(5) < 64 == ct.g_max(5)
    for k in range(3, 31):
        assert ct.g_sb(k) < ct.g_max(k)


def test_bell_and_stirling():
    assert [ct.bell(n) for n in range(1, 9)] == [1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(1, 10):
        assert ct.stirling2(n, n) == 1
        assert ct.stirling2(n, 1) == 1
    assert ct.stirling2(4, 2) == 7
    with pytest.raises(DomainError):
        ct.stirling2(3, 4)
    with pytest.raises(DomainError):
        ct.bell(0)


def test_bell2_enters_the_bound():
    assert 2 * 5 * ct.bell(5) - 2 * ct.bell2(5) == 218


def test_bell2_from_one_row_matches_the_per_k_sum():
    # S2(n, k) = k S2(n-1, k) + S2(n-1, k-1), one entry at a time
    s2 = {(0, 0): 1}

    def stirling(n, k):
        if (n, k) not in s2:
            s2[n, k] = 0 if n == 0 or k == 0 or k > n else k * stirling(n - 1, k) + stirling(n - 1, k - 1)
        return s2[n, k]

    for n in range(1, 61):
        assert ct.bell2(n) == sum(k * stirling(n, k) for k in range(1, n + 1))
        assert ct.bell2(n) == sum(k * ct.stirling2(n, k) for k in range(1, n + 1))
        assert ct.bell2(n) == ct.bell(n + 1) - ct.bell(n)


def test_bell_matches_partition_enumeration():
    for n in range(1, 10):
        parts = pt.all_partitions(n)
        assert len(parts) == ct.bell(n)
        assert sum(pt.num_blocks(p) for p in parts) == ct.bell2(n)


def test_equ_energy_bound_table():
    table = [0, 2, 10, 46, 218, 1088, 5752, 32226, 190990, 1194310]
    assert [ct.equ_energy_bound(n) for n in range(1, 11)] == table


def test_equ_energy_bound_is_direct_sum():
    for n in range(1, 9):
        direct = sum(en.combinatorial_energy(p) for p in pt.all_partitions(n))
        assert direct == ct.equ_energy_bound(n)


def test_aux_w():
    for n in range(3, 21):
        for x in range(1, n - 1):
            w = ct.aux_w(n, x)
            assert w == ct.aux_w_factored(n, x)
            assert w >= 0
            assert (w == 0) == (x == 1)
    with pytest.raises(DomainError):
        ct.aux_w(5, 4)


def test_aux_u():
    for n in range(5, 21):
        assert ct.aux_u(n, 1) == 0
        for x in range(2, n - 1):
            assert ct.aux_u(n, x) > 0


def test_aux_v():
    for n in range(5, 21):
        assert ct.aux_v(n, 2) == (2 * n - 9) * 2 ** (n - 4)
        for x in range(2, n - 1):
            assert ct.aux_v(n, x) > 0
    with pytest.raises(DomainError):
        ct.aux_v(6, 1)


def test_aux_u_and_v_equal_their_fraction_formulas():
    # the formulas as written, in Fractions: g_sb(2) = 3/2 enters at x = n - 2
    def g_sb(m):
        return (m - 1) * Fraction(2) ** (m - 2) + Fraction(2) ** (m - 3)

    for n in range(3, 61):
        for x in range(1, n - 1):
            u = g_sb(n) - (2 * g_sb(n - x) + (4 * x - 2) * Fraction(2) ** (n - x - 2))
            assert ct.aux_u(n, x) == u and type(ct.aux_u(n, x)) is int
            if n >= 4 and x >= 2:
                v = g_sb(n) - (2 * g_sb(n - x) + (4 * x - 2) * Fraction(2) ** (n - x - 1))
                assert ct.aux_v(n, x) == v and type(ct.aux_v(n, x)) is int
    with pytest.raises(DomainError):
        ct.aux_u(2, 1)
    with pytest.raises(DomainError):
        ct.aux_v(3, 1)
