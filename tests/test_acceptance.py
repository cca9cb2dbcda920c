"""Acceptance gate: one test per headline criterion, each printing a
pass/fail line so the -s output doubles as a verification report."""

import random
import time

import pytest

from conergy import algebra as alg
from conergy import congruence as cg
from conergy import counting as ct
from conergy import energy as en
from conergy import enumeration as em
from conergy import lattice as lt
from conergy import partition as pt


def report(name, ok, extra=""):
    tail = f"  ({extra})" if extra else ""
    print(f"{'PASS' if ok else 'FAIL'}  {name}{tail}")
    assert ok, name


def test_01_chain_law():
    t0 = time.time()
    ok = all(
        en.congruence_energy(cg.all_congruences(lt.chain(n))) == ct.g_max(n)
        for n in range(1, 13)
    )
    dt = time.time() - t0
    report("chain energy law for n = 1..12", ok and dt < 10, f"{dt:.2f}s")


def test_02_named_values():
    vals = {}
    for name in ("B4", "N5", "M3"):
        con = cg.all_congruences(lt.named(name))
        vals[name] = (en.congruence_energy(con), len(con))
    ok = vals == {"B4": (14, 4), "N5": (22, 5), "M3": (8, 2)}
    report("named lattice energies and congruence counts", ok, str(vals))


def test_03_spectral_equals_combinatorial_exhaustive():
    t0 = time.time()
    worst = 0.0
    checked = 0
    for n in range(1, 7):
        for lat in em.all_lattices(n):
            for m in cg.all_congruences(lat).members:
                diff = abs(
                    en.spectral_energy(en.adjacency_of(m))
                    - en.combinatorial_energy(m)
                )
                worst = max(worst, diff)
                checked += 1
    dt = time.time() - t0
    ok = worst < 1e-9 and dt < 60
    report(
        "spectral = combinatorial on every congruence, n <= 6",
        ok,
        f"{checked} congruences, worst diff {worst:.2e}, {dt:.2f}s",
    )


def test_04_extremal_exhaustive():
    t0 = time.time()
    ok = True
    counts = []
    for n in (4, 5, 6, 7):
        rep = em.extremal_report(n)
        verdicts = rep["verdicts"]
        ok = ok and verdicts["thm_b"] == "holds" and verdicts["thm_c"] == "holds"
        counts.append(rep["lattice_count"])
    dt = time.time() - t0
    ok = ok and counts == [2, 5, 15, 53] and dt < 300
    report("chain unique maximizer + second tier, n = 4..7", ok, f"{counts} classes, {dt:.1f}s")


def test_05_congruence_count_bounds():
    ok = all(
        em.extremal_report(n)["verdicts"]["manycon"] == "holds"
        for n in range(1, 8)
    )
    report("congruence-count ceilings with equality cases, n <= 7", ok)


def test_06_pentagon_family():
    t0 = time.time()
    ok = True
    for k in range(5, 11):
        for i in range(1, k - 3):
            j = k - 3 - i
            lat = lt.glued_sum(lt.chain(i), lt.glued_sum(lt.named("N5"), lt.chain(j)))
            con = cg.all_congruences(lat)
            ok = ok and en.congruence_energy(con) == ct.g_pn(k)
            ok = ok and len(con) == 5 * 2 ** (k - 5)
    dt = time.time() - t0
    ok = ok and dt < 30
    report("pentagon stackings, every placement, k = 5..10", ok, f"{dt:.2f}s")


def test_07_equ_bound_table():
    table = (0, 2, 10, 46, 218, 1088, 5752, 32226, 190990, 1194310)
    ok = tuple(ct.equ_energy_bound(n) for n in range(1, 11)) == table
    for n in range(1, 9):
        direct = sum(en.combinatorial_energy(p) for p in pt.all_partitions(n))
        ok = ok and direct == ct.equ_energy_bound(n)
    report("equivalence-lattice energy table and direct sums", ok)


def test_08_congruence_oracle():
    bad = 0
    classes = 0
    for n in range(1, 7):
        for lat in em.all_lattices(n):
            classes += 1
            if cg.all_congruences(lat).members != cg.brute_force_congruences(lat):
                bad += 1
    report(
        "fast congruence enumeration vs brute-force filter, n <= 6",
        bad == 0,
        f"{classes} classes, {bad} discrepancies",
    )


def test_09_auxiliary_inequalities():
    ok = True
    for n in range(3, 21):
        for x in range(1, n - 1):
            w = ct.aux_w(n, x)
            ok = ok and w == ct.aux_w_factored(n, x) and w >= 0 and (w == 0) == (x == 1)
    for n in range(5, 21):
        ok = ok and ct.aux_u(n, 1) == 0
        for x in range(2, n - 1):
            ok = ok and ct.aux_u(n, x) > 0 and ct.aux_v(n, x) > 0
    report("auxiliary sign and factored-form identities, n <= 20", ok)


def test_10_eigensolver():
    ok = True
    for k in range(1, 13):
        ev = en.spectrum(en.adjacency_of(pt.top(k)))
        want = [k - 1.0] + [-1.0] * (k - 1)
        ok = ok and max(abs(a - b) for a, b in zip(ev, want)) < 1e-9
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 10)
        m = en.adjacency_of(pt.from_labels([rng.randint(0, n - 1) for _ in range(n)]))
        ev = en.spectrum(m)
        ok = ok and abs(sum(ev)) < 1e-9
        ok = ok and abs(sum(x * x for x in ev) - sum(map(sum, m))) < 1e-9
    report("eigensolver: complete graphs and 200 random identity checks", ok)


def test_11_cross_module():
    ok = True
    for n in range(1, 6):
        for lat in em.all_lattices(n):
            a = alg.all_congruences_alg(alg.lattice_as_algebra(lat))
            ok = ok and a.members == cg.all_congruences(lat).members
    xor = alg.FiniteAlgebra(
        4, (alg.Operation("xor", 2, tuple(a ^ b for a in range(4) for b in range(4))),)
    )
    xor_con = alg.all_congruences_alg(xor)
    ok = ok and not cg.is_distributive(xor_con)
    report("algebra route matches lattice route; xor square non-distributive", ok)
