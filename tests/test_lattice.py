import itertools
import random
import tracemalloc
import types

import pytest

from conergy import congruence as cg
from conergy import enumeration as em
from conergy import lattice as lt
from conergy.errors import (
    BudgetExceeded,
    NotALattice,
    NotAPoset,
    OutOfRange,
    RedundantCover,
)


def relabel(lat, perm):
    """perm[old] = new label."""
    covers = [(perm[a], perm[b]) for a, b in lat.covers]
    return lt.from_covers(lat.n, covers)


def brute_bounds_ok(lat):
    """Join/meet really are least upper / greatest lower bounds."""
    n = lat.n
    for a in range(n):
        for b in range(n):
            j = lat.join(a, b)
            ub = [z for z in range(n) if lat.leq(a, z) and lat.leq(b, z)]
            if j not in ub or any(not lat.leq(j, z) for z in ub):
                return False
            m = lat.meet(a, b)
            lb = [z for z in range(n) if lat.leq(z, a) and lat.leq(z, b)]
            if m not in lb or any(not lat.leq(z, m) for z in lb):
                return False
    return True


def test_singleton():
    one = lt.from_covers(1, [])
    assert one.n == 1 and one.covers == ()
    assert one.bottom == one.top == 0


def test_b4_from_covers():
    b4 = lt.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert b4.covers == lt.named("B4").covers
    assert b4.join(1, 2) == 3 and b4.meet(1, 2) == 0
    assert lt.count_two_element_antichains(b4) == 1


def test_from_covers_errors():
    with pytest.raises(RedundantCover):
        lt.from_covers(4, [(0, 1), (1, 2), (0, 3), (3, 2), (0, 2)])
    for n, cycle in (
        (3, [(0, 1), (1, 2), (2, 0)]),
        (4, [(0, 1), (1, 2), (2, 1), (2, 3)]),  # a 2-cycle between middle elements
        (4, [(0, 1), (1, 2), (2, 3), (3, 1)]),  # a cycle above a tail, missing 0
    ):
        with pytest.raises(NotAPoset):
            lt.from_covers(n, cycle)
    with pytest.raises(NotALattice):
        # two maximal elements: no join
        lt.from_covers(3, [(0, 1), (0, 2)])
    with pytest.raises(NotALattice):
        # two incomparable pairs of bounds: join of 1, 2 not unique
        lt.from_covers(6, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
    with pytest.raises(OutOfRange):
        lt.from_covers(2, [(0, 5)])
    k = lt.LATTICE_BUDGET
    wide = [(0, i) for i in range(1, k - 1)] + [(i, k - 1) for i in range(1, k - 1)]
    assert lt.from_covers(k, wide).n == k
    with pytest.raises(BudgetExceeded):
        lt.from_covers(k + 1, [])


def test_chain_past_the_budget_is_refused_before_its_covers_are_built():
    # two million covers would take hundreds of megabytes
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            lt.chain(2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_chain():
    assert lt.chain(1).n == 1
    assert lt.chain(3).covers == ((0, 1), (1, 2))
    for n in (1, 2, 5, 8):
        c = lt.chain(n)
        assert lt.is_chain(c)
        assert all(c.leq(a, b) or c.leq(b, a) for a in range(n) for b in range(n))


def test_named_shapes():
    m3 = lt.named("M3")
    mids = [x for x in range(5) if x not in (m3.bottom, m3.top)]
    assert len(mids) == 3
    for a in mids:
        for b in mids:
            if a != b:
                assert not m3.leq(a, b)
    n5 = lt.named("N5")
    p, q, a = lt.N5_P, lt.N5_Q, lt.N5_A
    assert n5.join(a, p) == n5.top and n5.meet(a, q) == n5.bottom
    assert lt.count_two_element_antichains(n5) == 2
    assert not n5.leq(a, p) and not n5.leq(p, a)
    with pytest.raises(OutOfRange):
        lt.named("B5")


def test_antichain_counts():
    assert lt.count_two_element_antichains(lt.chain(5)) == 0
    assert lt.count_two_element_antichains(lt.named("B4")) == 1
    assert lt.count_two_element_antichains(lt.named("N5")) == 2
    assert lt.count_two_element_antichains(lt.named("M3")) == 3
    for n in range(1, 8):
        for lat in em.all_lattices(n):
            pairs = sum(
                1
                for a in range(n)
                for b in range(a + 1, n)
                if not lat.leq(a, b) and not lat.leq(b, a)
            )
            assert lt.count_two_element_antichains(lat) == pairs


def scanned_tables(n, up, dn):
    """Oracle: the join of a and b is the z among their upper bounds with
    every upper bound above it, found by scanning the bits (dually for
    the meet)."""
    join_t = [[0] * n for _ in range(n)]
    meet_t = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            ub = up[a] & up[b]
            js = [z for z in range(n) if ub >> z & 1 and ub & ~up[z] == 0]
            if not js:
                raise NotALattice(f"elements {a} and {b} have no unique join")
            lb = dn[a] & dn[b]
            gs = [z for z in range(n) if lb >> z & 1 and lb & ~dn[z] == 0]
            if not gs:
                raise NotALattice(f"elements {a} and {b} have no unique meet")
            join_t[a][b] = join_t[b][a] = js[0]
            meet_t[a][b] = meet_t[b][a] = gs[0]
    return tuple(map(tuple, join_t)), tuple(map(tuple, meet_t))


def order_rows(n, covers):
    up = lt._closure_from_covers(n, covers)
    dn = [sum(1 << a for a in range(n) if up[a] >> b & 1) for b in range(n)]
    return up, dn


def test_tables_by_lookup_match_the_bit_scan():
    for n in range(1, 8):
        for lat in em.all_lattices(n):
            want = scanned_tables(n, lat.up_bits, lat.dn_bits)
            lt._check_lattice(n, lat.up_bits, lat.dn_bits)
            got = tuple(
                tuple(tuple(op(a, b) for b in range(n)) for a in range(n))
                for op in (lat.join, lat.meet)
            )
            assert got == want


def test_tables_reject_what_the_bit_scan_rejects():
    # 1 and 2 have the two minimal upper bounds 3 and 4; no top; no bottom;
    # a bowtie, where 0 and 1 have neither a join nor a meet
    posets = [
        (6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)], "join"),
        (3, [(0, 1), (0, 2)], "join"),
        (3, [(1, 0), (2, 0)], "meet"),
        (4, [(0, 2), (0, 3), (1, 2), (1, 3)], "join"),
    ]
    for n, covers, what in posets:
        up, dn = order_rows(n, covers)
        with pytest.raises(NotALattice) as want:
            scanned_tables(n, up, dn)
        with pytest.raises(NotALattice) as got:
            lt._check_lattice(n, up, dn)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"have no unique {what}")
        with pytest.raises(NotALattice):
            lt.from_covers(n, covers)


def test_bit_kernels_match_plain_scans():
    # the one set-bit walk and the one Warshall pass that lattice,
    # congruence, algebra and enumeration share
    for m in range(1 << 12):
        assert lt._bits(m) == [i for i in range(m.bit_length()) if m >> i & 1]
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.random()
        adj = [[j for j in range(n) if rng.random() < p] for _ in range(n)]  # loops, cycles
        rows = [sum(1 << j for j in out) for out in adj]
        want = []
        for i in range(n):
            seen, todo = set(adj[i]), list(adj[i])  # paths of one or more edges
            while todo:
                for j in adj[todo.pop()]:
                    if j not in seen:
                        seen.add(j)
                        todo.append(j)
            want.append(sum(1 << j for j in seen))
        assert lt._transitive_closure(rows) is rows
        assert rows == want
        # the same relation spread over the indices in ``over``, the rest 0
        spread = sorted(rng.sample(range(2 * n), n))
        rows = [0] * (2 * n)
        for i, out in enumerate(adj):
            rows[spread[i]] = sum(1 << spread[j] for j in out)
        assert lt._transitive_closure(rows, spread) is rows
        assert [rows[s] for s in spread] == [sum(1 << spread[j] for j in lt._bits(w)) for w in want]
        assert all(rows[i] == 0 for i in range(2 * n) if i not in spread)


def test_glued_sum():
    assert lt.glued_sum(lt.chain(2), lt.chain(2)).covers == lt.chain(3).covers
    b4 = lt.named("B4")
    assert lt.glued_sum(lt.chain(1), b4).covers == b4.covers
    assert lt.glued_sum(b4, lt.chain(1)).covers == b4.covers
    g = lt.glued_sum(lt.chain(2), lt.glued_sum(b4, lt.chain(2)))
    assert g.n == 6
    assert lt.count_two_element_antichains(g) == 1
    for u, v in [(lt.chain(3), b4), (b4, lt.named("N5")), (lt.named("M3"), lt.chain(4))]:
        assert lt.glued_sum(u, v).n == u.n + v.n - 1


def test_glued_sum_stacks_many_in_one_pass(monkeypatch):
    parts = [lt.chain(1), lt.chain(2), lt.chain(3), lt.named("B4"), lt.named("M3"), lt.named("N5")]
    for a, b, c in itertools.product(parts, repeat=3):
        assert lt.glued_sum(a, b, c) == lt.glued_sum(lt.glued_sum(a, b), c)
    built = []
    real = lt.from_covers
    monkeypatch.setattr(lt, "from_covers", lambda n, covers: built.append(n) or real(n, covers))
    g = lt.glued_sum(*parts)
    # the stack is built from the parts' rows, with no validation
    assert built == [] and g.n == sum(p.n for p in parts) - len(parts) + 1
    assert g == real(g.n, g.covers)


def test_dual():
    for l in (lt.chain(4), lt.named("B4"), lt.named("N5"), lt.named("M3")):
        assert lt.dual(lt.dual(l)).covers == l.covers
        assert lt.count_two_element_antichains(lt.dual(l)) == lt.count_two_element_antichains(l)
    assert lt.are_isomorphic(lt.dual(lt.chain(4)), lt.chain(4))
    assert lt.are_isomorphic(lt.dual(lt.named("N5")), lt.named("N5"))
    g = lt.glued_sum(lt.chain(2), lt.named("B4"))
    h = lt.glued_sum(lt.named("B4"), lt.chain(2))
    assert lt.are_isomorphic(lt.dual(g), h)


def test_prime_intervals():
    assert list(lt.chain(3).covers) == [(0, 1), (1, 2)]
    assert len(lt.named("B4").covers) == 4
    n5 = lt.named("N5").covers
    assert len(n5) == 5
    p, q, a = lt.N5_P, lt.N5_Q, lt.N5_A
    assert set(n5) == {(0, p), (p, q), (q, 4), (0, a), (a, 4)}


def test_bounds_brute_force():
    b4 = lt.named("B4")
    samples = [
        lt.chain(8),
        b4,
        lt.named("M3"),
        lt.named("N5"),
        lt.glued_sum(lt.chain(3), lt.glued_sum(b4, lt.chain(2))),
        lt.glued_sum(lt.named("N5"), lt.named("M3")),
    ]
    for lat in samples:
        assert lat.n <= 9
        assert brute_bounds_ok(lat)


def test_canonical_form_relabelling_invariance():
    rng = random.Random(3)
    samples = [
        lt.chain(5),
        lt.named("B4"),
        lt.named("M3"),
        lt.named("N5"),
        lt.glued_sum(lt.named("B4"), lt.chain(3)),
        lt.glued_sum(lt.chain(2), lt.named("N5")),
    ]
    for lat in samples:
        base = lt.canonical_form(lat)
        for _ in range(100):
            perm = list(range(lat.n))
            rng.shuffle(perm)
            assert lt.canonical_form(relabel(lat, perm)) == base


def test_canonical_form_separates():
    assert lt.canonical_form(lt.chain(4)) != lt.canonical_form(lt.named("B4"))
    assert lt.canonical_form(lt.named("M3")) != lt.canonical_form(lt.named("N5"))
    two_labelings = lt.from_covers(4, [(0, 2), (0, 1), (2, 3), (1, 3)])
    assert lt.canonical_form(two_labelings) == lt.canonical_form(lt.named("B4"))
    with pytest.raises(BudgetExceeded):
        lt.canonical_form(lt.chain(11))


def test_are_isomorphic():
    assert lt.are_isomorphic(lt.chain(4), lt.chain(4))
    assert not lt.are_isomorphic(lt.chain(4), lt.named("B4"))
    assert not lt.are_isomorphic(lt.chain(4), lt.chain(5))


def test_json_round_trip():
    lat = lt.glued_sum(lt.named("N5"), lt.chain(3))
    doc = lat.to_json_dict()
    back = lt.from_covers(doc["n"], [tuple(c) for c in doc["covers"]])
    assert back.covers == lat.covers


def test_trusted_builders_match_the_validated_build():
    # chain, named, glued_sum, quotient and the generator build their rows
    # and lower-cover lists with no check; from_covers rebuilds each from
    # its covers and checks everything, and equality compares every list
    def same(lat):
        assert lat == lt.from_covers(lat.n, list(lat.covers))

    for n in range(1, 13):
        same(lt.chain(n))
    for name in ("B4", "M3", "N5"):
        same(lt.named(name))
    rng = random.Random(22)
    pool = [lt.chain(k) for k in range(1, 5)] + [lt.named(x) for x in ("B4", "M3", "N5")]
    pool += [lt.dual(lt.named("N5")), relabel(lt.named("N5"), [3, 0, 1, 2, 4])]  # bottom not 0
    for _ in range(300):
        same(lt.glued_sum(*rng.choices(pool, k=rng.randint(2, 4))))
    for n in range(1, 8):
        for lat in em.all_lattices(n):
            same(lat)
            for theta in cg.all_congruences(lat).members:
                same(cg.quotient(lat, theta)[0])


def test_up_rows_decode_the_canonical_code_bit_by_bit():
    # oracle: bit (i, j) of the n*n matrix, most significant first, is i <= j
    for n in range(1, 9):
        for key in em._keyed_lattices(n, lambda *rows: None):
            matrix = int.from_bytes(key[1:], "big")
            want = [
                sum(1 << j for j in range(n) if matrix >> (n * n - 1 - n * i - j) & 1)
                for i in range(n)
            ]
            assert lt._up_rows_from_code(key) == want
            assert lt.canonical_form(lt.from_order_bits(n, want)) == key


def test_glued_size_is_refused_before_any_row_is_made():
    # parts that have a size and nothing else: reading a row would fail
    sized = types.SimpleNamespace(n=200)
    with pytest.raises(BudgetExceeded):
        lt.glued_sum(sized, sized)
    with pytest.raises(BudgetExceeded):
        lt.chain(10**9)
