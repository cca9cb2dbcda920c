"""Exact counting formulas: the two extremal targets g_max and g_sb, the
pentagon-family value g_pn, Bell/Stirling/2-Bell numbers, the equivalence
lattice energy ceiling, and the auxiliary difference functions evaluated at
integer arguments.

Everything here is exact: arbitrary-precision integers, and Fractions only
where a value is rational (g_pn(4) = 17/2).  g_sb is not an integer below
3, so it refuses n < 3; the auxiliary functions are integers built from
g_sb(2) = 3/2, so they run on 8 g_sb, an integer for every n >= 1, and
divide by 8 at the end.
"""

from fractions import Fraction

from .errors import DomainError


def g_max(n):
    """(n-1) * 2^(n-1): the largest congruence energy of an n-element
    lattice (attained exactly by the chain)."""
    if n < 1:
        raise DomainError(f"g_max needs n >= 1, got {n}")
    return (n - 1) * 2 ** (n - 1)


def g_sb(n):
    """(n-1) * 2^(n-2) + 2^(n-3) = (2n-1) * 2^(n-3): the second-largest
    congruence energy.

    Not an integer below n = 3, so that is the domain boundary.
    """
    if n < 3:
        raise DomainError(f"g_sb needs n >= 3, got {n}")
    return (2 * n - 1) * 2 ** (n - 3)


def g_pn(k):
    """Energy of the glued chain-pentagon-chain lattices: (5k - 3) * 2^(k-5),
    the solution of the recursion g_pn(k) = 2*g_pn(k-1) + 5*2^(k-5) started
    from g_pn(4) = 17/2.

    Returns an exact Fraction; integral for k >= 5.
    """
    if k < 4:
        raise DomainError(f"g_pn needs k >= 4, got {k}")
    return (5 * k - 3) * Fraction(2) ** (k - 5)


def _stirling_row(n):
    """[S2(n, 0), ..., S2(n, n)]: one row of the Stirling triangle."""
    row = [1, 0]  # S2(0, 0), padded
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m + 1)] + [0]
    return row[:-1]


def stirling2(n, k):
    """Number of partitions of an n-set into exactly k blocks."""
    if n < 1 or not 1 <= k <= n:
        raise DomainError(f"stirling2 needs 1 <= k <= n, got n={n}, k={k}")
    return _stirling_row(n)[k]


def bell(n):
    """n-th Bell number: the sum of the n-th Stirling row."""
    if n < 1:
        raise DomainError(f"bell needs n >= 1, got {n}")
    return sum(_stirling_row(n))


def bell2(n):
    """2-Bell number: sum over k of k * S2(n, k)."""
    if n < 1:
        raise DomainError(f"bell2 needs n >= 1, got {n}")
    return sum(k * s for k, s in enumerate(_stirling_row(n)))


def equ_energy_bound(n):
    """2n*B(n) - 2*B2(n): the total energy of the full equivalence lattice,
    hence a ceiling for the congruence energy of any n-element algebra."""
    if n < 1:
        raise DomainError(f"equ_energy_bound needs n >= 1, got {n}")
    return 2 * n * bell(n) - 2 * bell2(n)


def _g_sb8(m):
    """8 g_sb(m) = (m - 1) 2^(m+1) + 2^m = (2m - 1) 2^m, an integer for
    every m >= 1."""
    return (2 * m - 1) << m


def aux_w(n, x):
    """g_max(n) minus the induction-step upper bound with an atom of
    height x; nonnegative on 1 <= x <= n-2 and zero only at x = 1."""
    if n < 3 or not 1 <= x <= n - 2:
        raise DomainError(f"aux_w needs n >= 3 and 1 <= x <= n-2, got n={n}, x={x}")
    return g_max(n) - (2 * g_max(n - x) + (4 * x - 2) * 2 ** (n - x - 1))


def aux_w_factored(n, x):
    """The factored form of aux_w; must agree with it exactly."""
    if n < 3 or not 1 <= x <= n - 2:
        raise DomainError(f"aux_w_factored needs n >= 3 and 1 <= x <= n-2")
    return 2 ** (n - x) * ((n - 1) * 2 ** (x - 1) - n - x + 2)


def aux_u(n, x):
    """g_sb(n) minus the non-chain-quotient induction bound at height x.
    The division by 8 is exact: each term of 8 aux_u has the factor 2^n,
    n >= 3, or 2^(n-x+1), n - x >= 2."""
    if n < 3 or not 1 <= x <= n - 2:
        raise DomainError(f"aux_u needs n >= 3 and 1 <= x <= n-2, got n={n}, x={x}")
    return (_g_sb8(n) - (2 * _g_sb8(n - x) + (4 * x - 2) * 2 ** (n - x + 1))) // 8


def aux_v(n, x):
    """g_sb(n) minus the chain-quotient induction bound at height x; 8
    aux_v is a multiple of 8 for the same reason as 8 aux_u."""
    if n < 4 or not 2 <= x <= n - 2:
        raise DomainError(f"aux_v needs n >= 4 and 2 <= x <= n-2, got n={n}, x={x}")
    return (_g_sb8(n) - (2 * _g_sb8(n - x) + (4 * x - 2) * 2 ** (n - x + 2))) // 8
