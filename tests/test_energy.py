import math
import random

import numpy as np

from conergy import congruence as cg
from conergy import energy as en
from conergy import enumeration as em
from conergy import lattice as lt
from conergy import partition as pt


def random_partition(rng, n):
    return pt.from_labels([rng.randint(0, n - 1) for _ in range(n)])


def test_adjacency_examples():
    assert en.adjacency_of(pt.bottom(4)) == tuple((0,) * 4 for _ in range(4))
    assert en.adjacency_of(pt.top(3)) == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    two_pairs = pt.from_labels([0, 0, 1, 1])
    assert en.adjacency_of(two_pairs) == (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    )


def test_complete_graph_spectrum():
    for k in range(1, 13):
        ev = en.spectrum(en.adjacency_of(pt.top(k)))
        want = [k - 1.0] + [-1.0] * (k - 1)
        assert len(ev) == k
        for got, expect in zip(ev, want):
            assert abs(got - expect) < 1e-9


def test_spectrum_against_numpy():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 9)
        p = random_partition(rng, n)
        m = en.adjacency_of(p)
        got = en.spectrum(m)
        want = sorted(np.linalg.eigvalsh(np.array(m, dtype=float)), reverse=True)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


def test_spectrum_sanity_identities():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 10)
        m = en.adjacency_of(random_partition(rng, n))
        ev = en.spectrum(m)
        assert len(ev) == n
        assert abs(sum(ev)) < 1e-9
        assert abs(sum(x * x for x in ev) - sum(map(sum, m))) < 1e-9


def test_spectral_energy_examples():
    assert abs(en.spectral_energy(en.adjacency_of(pt.top(3))) - 4.0) < 1e-9
    assert en.spectral_energy(en.adjacency_of(pt.bottom(5))) == 0.0
    two_pairs = pt.from_labels([0, 0, 1, 1])
    assert abs(en.spectral_energy(en.adjacency_of(two_pairs)) - 4.0) < 1e-9


def test_permutation_invariance():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 8)
        p = random_partition(rng, n)
        base = en.spectral_energy(en.adjacency_of(p))
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = pt.from_labels([p[perm[i]] for i in range(n)])
        assert abs(en.spectral_energy(en.adjacency_of(relabeled)) - base) < 1e-9


def test_combinatorial_energy_examples():
    assert en.combinatorial_energy(pt.bottom(6)) == 0
    assert en.combinatorial_energy(pt.top(5)) == 8
    assert en.combinatorial_energy(pt.from_labels([0, 0, 1, 2, 3])) == 2


def test_spectral_equals_combinatorial():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(1, 10)
        p = random_partition(rng, n)
        assert abs(en.spectral_energy(en.adjacency_of(p)) - en.combinatorial_energy(p)) < 1e-9
    for n in range(1, 7):
        for lat in em.all_lattices(n):
            for m in cg.all_congruences(lat).members:
                diff = en.spectral_energy(en.adjacency_of(m)) - en.combinatorial_energy(m)
                assert abs(diff) < 1e-9


def test_congruence_energy_named_values():
    assert en.congruence_energy(cg.all_congruences(lt.chain(4))) == 24
    assert en.congruence_energy(cg.all_congruences(lt.named("B4"))) == 14
    assert en.congruence_energy(cg.all_congruences(lt.named("N5"))) == 22
    assert en.congruence_energy(cg.all_congruences(lt.named("M3"))) == 8


def test_congruence_energy_duality():
    for n in range(1, 7):
        for lat in em.all_lattices(n):
            ce = en.congruence_energy(cg.all_congruences(lat))
            assert ce == en.congruence_energy(cg.all_congruences(lt.dual(lat)))


def test_congruence_energy_block_count_identity():
    # CE = 2 * n * |Con| - 2 * (blocks summed over Con), from heq = n - blocks
    for n in range(1, 7):
        for lat in em.all_lattices(n):
            con = cg.all_congruences(lat)
            blocks = sum(pt.num_blocks(m) for m in con.members)
            assert en.congruence_energy(con) == 2 * n * len(con) - 2 * blocks


def test_monotone_step_with_atoms():
    # joining an atom raises the energy by at least 2
    for n in range(2, 7):
        for lat in em.all_lattices(n):
            con = cg.all_congruences(lat)
            if not cg.is_distributive(con):
                continue
            for alpha in con.atoms():
                _, c_b = cg.upset_split(con, alpha)
                for gamma in c_b:
                    lifted = pt.join(alpha, gamma)
                    assert en.combinatorial_energy(gamma) <= en.combinatorial_energy(lifted) - 2


def test_adjacency_rows_are_symmetric_0_1_with_zero_diagonal():
    for n in range(1, 7):
        for p in pt.iter_partitions(n):
            m = en.adjacency_of(p)
            assert len(m) == n and all(len(row) == n for row in m)
            assert all(m[i][i] == 0 for i in range(n))
            assert all(x in (0, 1) for row in m for x in row)
            assert all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
