"""Energy of congruences, two ways.

The spectral route builds the adjacency matrix of a partition, a tuple of
0/1 rows (edges join distinct elements of a common block), and sums the
absolute eigenvalues, computed by an in-package cyclic Jacobi solver.  The
combinatorial route returns the exact integer 2*(n - number of blocks).
The combinatorial route is the production path; the solver exists to
validate the spectral definition against it.  ``congruence_energy`` sums
the combinatorial route over Con; the tests, not the production path,
check it against the block count identity CE = 2 * n * |Con| - 2 * (total
number of blocks).
"""

import math

from . import partition as pt
from .errors import NoConvergence

MAX_SWEEPS = 64
TOL = 1e-12


def adjacency_of(p):
    """Adjacency matrix of a partition, as a tuple of 0/1 rows: (i,j)=1 iff
    i != j, same block.  One row per block with its diagonal entry
    cleared, so the rows are symmetric with zero diagonal by construction."""
    block_row = {r: [1 if s == r else 0 for s in p] for r in set(p)}
    rows = []
    for i, r in enumerate(p):
        row = block_row[r]
        rows.append((*row[:i], 0, *row[i + 1:]))
    return tuple(rows)


def _off_norm(a, n):
    s = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                s += a[i][j] * a[i][j]
    return math.sqrt(s)


def spectrum(rows):
    """Eigenvalues of a symmetric 0/1 matrix, given by its rows, descending.

    Cyclic-by-row Jacobi sweeps; converged when the off-diagonal Frobenius
    norm drops below TOL*n.  The sweep cap is a defect detector: these
    matrices converge in a handful of sweeps.
    """
    n = len(rows)
    a = [[float(x) for x in row] for row in rows]
    for _ in range(MAX_SWEEPS):
        if _off_norm(a, n) < TOL * n:
            return sorted((a[i][i] for i in range(n)), reverse=True)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    raise NoConvergence(f"Jacobi did not converge in {MAX_SWEEPS} sweeps")


def spectral_energy(rows):
    return sum(abs(x) for x in spectrum(rows))


def combinatorial_energy(p):
    """Exact energy 2*(n - number of blocks)."""
    return 2 * (len(p) - pt.num_blocks(p))


def congruence_energy(c):
    """Total energy of a congruence lattice: sum of member energies."""
    return sum(combinatorial_energy(p) for p in c.members)
