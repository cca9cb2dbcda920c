import random

import pytest

from conergy import algebra as alg
from conergy import congruence as cg
from conergy import energy as en
from conergy import enumeration as em
from conergy import lattice as lt
from conergy import partition as pt
from conergy.errors import (
    BudgetExceeded,
    NotACongruence,
    NotAnAtom,
    NotPrime,
    OutOfRange,
    SizeMismatch,
)


def minimal_collapsing(lat, a, b):
    """Oracle: least partition passing the checker that collapses (a, b)."""
    best = None
    for p in pt.all_partitions(lat.n):
        if p[a] == p[b] and cg.is_congruence(lat, p):
            if best is None or pt.heq(p) < pt.heq(best):
                best = p
    # the minimum is unique: assert every candidate lies above it
    for p in pt.all_partitions(lat.n):
        if p[a] == p[b] and cg.is_congruence(lat, p):
            assert pt.leq(best, p)
    return best


def small_lattices():
    yield lt.chain(3)
    yield lt.chain(4)
    yield lt.named("B4")
    yield lt.named("M3")
    yield lt.named("N5")
    yield lt.glued_sum(lt.chain(2), lt.named("B4"))


def test_is_congruence_trivials():
    for lat in small_lattices():
        assert cg.is_congruence(lat, pt.bottom(lat.n))
        assert cg.is_congruence(lat, pt.top(lat.n))


def test_is_congruence_examples():
    n5 = lt.named("N5")
    assert cg.is_congruence(n5, pt.join_pairs(5, [(lt.N5_P, lt.N5_Q)]))
    b4 = lt.named("B4")
    # {1, 2} is not convex: 1 and 2 are the incomparable middle elements
    assert not cg.is_congruence(b4, pt.join_pairs(4, [(1, 2)]))
    with pytest.raises(SizeMismatch):
        cg.is_congruence(b4, pt.bottom(5))


def test_checker_matches_closure_oracle():
    # every partition the checker accepts is stable under the generated
    # closure; every partition it rejects is strictly below its closure
    for lat in small_lattices():
        for p in pt.all_partitions(lat.n):
            closed = cg.is_congruence(lat, p)
            pairs = [(i, p[i]) for i in range(lat.n)]
            regenerated = pt.bottom(lat.n)
            for a, b in pairs:
                regenerated = pt.join(regenerated, cg.principal_congruence(lat, a, b))
            assert (regenerated == p) == closed


def test_perspectivity_closure_examples():
    c3 = lt.chain(3)
    assert cg.perspectivity_closure(c3, lt.PrimeInterval(0, 1)) == {lt.PrimeInterval(0, 1)}
    b4 = lt.named("B4")
    assert cg.perspectivity_closure(b4, lt.PrimeInterval(0, 1)) == {
        lt.PrimeInterval(0, 1),
        lt.PrimeInterval(2, 3),
    }
    n5 = lt.named("N5")
    got = cg.perspectivity_closure(n5, lt.PrimeInterval(lt.N5_P, lt.N5_Q))
    assert got == {lt.PrimeInterval(lt.N5_P, lt.N5_Q)}
    with pytest.raises(NotPrime):
        cg.perspectivity_closure(c3, lt.PrimeInterval(0, 2))


def test_monotone_collapse():
    # (c,d) collapsed by con(a,b)  <=>  [c,d] in the projectivity closure
    for lat in small_lattices():
        for a, b in lat.covers:
            con = cg.principal_congruence(lat, a, b)
            closure = cg.perspectivity_closure(lat, lt.PrimeInterval(a, b))
            for c, d in lat.covers:
                assert (con[c] == con[d]) == (lt.PrimeInterval(c, d) in closure)


def test_principal_congruence_examples():
    c3 = lt.chain(3)
    assert pt.blocks(cg.principal_congruence(c3, 0, 1)) == [(0, 1), (2,)]
    n5 = lt.named("N5")
    got = cg.principal_congruence(n5, lt.N5_P, lt.N5_Q)
    assert got == pt.join_pairs(5, [(lt.N5_P, lt.N5_Q)])
    for lat in small_lattices():
        for a in range(lat.n):
            assert cg.principal_congruence(lat, a, a) == pt.bottom(lat.n)


def test_closures_reject_pairs_out_of_range():
    # union_find indexes its parent list directly, so without the range
    # check in join_pairs a negative point would wrap around silently
    lat = lt.named("N5")
    a = alg.lattice_as_algebra(lat)
    with pytest.raises(OutOfRange):
        alg.congruence_closure(a, [(0, a.n)])
    with pytest.raises(OutOfRange):
        cg.principal_congruence(lat, 0, lat.n)
    with pytest.raises(OutOfRange):
        pt.join_pairs(3, [(-1, 0)])


def test_principal_congruence_matches_minimal_oracle():
    for lat in small_lattices():
        for a in range(lat.n):
            for b in range(a + 1, lat.n):
                assert cg.principal_congruence(lat, a, b) == minimal_collapsing(lat, a, b)


def prime_congruence_oracle(lat, a, b):
    """Oracle: con(a, b) of a covering pair, from the prime intervals its
    perspectivity closure reaches."""
    edges = [(iv.lo, iv.hi) for iv in cg.perspectivity_closure(lat, lt.PrimeInterval(a, b))]
    return pt.join_pairs(lat.n, edges)


def extreme_maximal_chain(lat, prefer_high):
    """The covers of the maximal chain from bottom to top that always steps
    to the least (or the greatest) labelled upper cover."""
    out = []
    z = lat.bottom
    while z != lat.top:
        steps = [b for a, b in lat.covers if a == z]
        nxt = max(steps) if prefer_high else min(steps)
        out.append((z, nxt))
        z = nxt
    return out


def test_principal_congruence_chain_independent():
    # con(bottom, top) is the join of the cover congruences along any
    # maximal chain; walk the lowest and the highest one
    lats = list(small_lattices()) + [lat for n in range(1, 7) for lat in em.all_lattices(n)]
    for lat in lats:
        got = cg.principal_congruence(lat, lat.bottom, lat.top)
        for prefer_high in (False, True):
            joined = pt.bottom(lat.n)
            for a, b in extreme_maximal_chain(lat, prefer_high):
                joined = pt.join(joined, prime_congruence_oracle(lat, a, b))
            assert joined == got


def test_all_congruences_counts():
    for n in range(1, 8):
        assert len(cg.all_congruences(lt.chain(n))) == 2 ** (n - 1)
    assert len(cg.all_congruences(lt.named("N5"))) == 5
    assert len(cg.all_congruences(lt.named("M3"))) == 2


def perspectivity_route(lat):
    """Oracle: Con(L) as the join-closure of the perspectivity congruences
    of all covering pairs."""
    return cg.join_closure(lat.n, [prime_congruence_oracle(lat, a, b) for a, b in lat.covers])


def glued(*parts):
    out = parts[0]
    for part in parts[1:]:
        out = lt.glued_sum(out, part)
    return out


def test_all_congruences_matches_perspectivity_route():
    lats = [lat for n in range(1, 9) for lat in em.all_lattices(n)]
    lats += [
        lt.chain(12),
        glued(lt.named("N5"), lt.named("B4"), lt.chain(2)),
        glued(lt.named("M3"), lt.named("N5"), lt.named("B4"), lt.chain(3)),
    ]
    for lat in lats:
        want = perspectivity_route(lat)
        assert cg.all_congruences(lat) == want
        # the closure under the table rows finds every cover congruence
        covers = {prime_congruence_oracle(lat, a, b) for a, b in lat.covers}
        assert {cg.principal_congruence(lat, a, b) for a, b in lat.covers} == covers


def count_route_lattices():
    yield from (lat for n in range(1, 9) for lat in em.all_lattices(n))
    yield lt.chain(12)
    yield glued(lt.named("N5"), lt.named("B4"), lt.chain(3))
    yield glued(lt.named("M3"), lt.named("N5"), lt.named("B4"), lt.chain(3))


def test_energy_count_matches_member_route():
    for lat in count_route_lattices():
        con = cg.all_congruences(lat)
        want = sorted(en.combinatorial_energy(m) for m in con.members)
        got = cg.congruence_energies(lat)
        assert sorted(got) == want
        assert sum(got) == en.congruence_energy(con)
        assert len(got) == len(con)


def test_cover_labels_are_principal_congruences():
    # label t stands for one cover congruence con(y, x), a different one
    # for each t, and below[t] is its order among them
    for lat in count_route_lattices():
        below, rows = cg._label_rows(lat)
        labels = {(y, x): t for y, x, t in rows}
        named = {}
        for (y, x), t in labels.items():
            con = cg.principal_congruence(lat, y, x)
            assert named.setdefault(t, con) == con
        assert sorted(named) == list(range(len(below)))
        assert set(named.values()) == {cg.principal_congruence(lat, a, b) for a, b in lat.covers}
        for t, mask in enumerate(below):
            for s in range(len(below)):
                strictly = s != t and pt.leq(named[s], named[t])
                assert bool(mask >> s & 1) == strictly


def named_order(c):
    """J's strict order as {member of J: the members of J strictly below it}:
    member t of J is the member whose down-set is t and below[t]."""
    by_down = dict(zip(c.down_sets, c.members))
    named = [by_down[mask | 1 << t] for t, mask in enumerate(c.below)]
    return {
        named[t]: {named[s] for s in range(len(named)) if mask >> s & 1}
        for t, mask in enumerate(c.below)
    }


def test_the_lattice_and_the_algebra_route_find_the_same_join_irreducibles():
    # the lattice route, Day's D relation on bit rows, against the algebra
    # route: the principal congruences of L as an algebra, less those that
    # are the join of the ones strictly below them
    lats = [lat for n in range(1, 7) for lat in em.all_lattices(n)] + [lt.chain(8)]
    for lat in lats:
        con = cg.all_congruences(lat)
        con_alg = alg.all_congruences_alg(alg.lattice_as_algebra(lat))
        assert con.members == con_alg.members
        assert [d.bit_count() for d in con.down_sets] == [d.bit_count() for d in con_alg.down_sets]
        assert named_order(con) == named_order(con_alg)


def test_all_congruences_reaches_each_member_once(monkeypatch):
    # one closure per non-bottom member, so the budget counts members, not
    # repeats of them
    closures = []
    real_union_find = pt.union_find
    monkeypatch.setattr(
        pt, "union_find", lambda *args: closures.append(1) or real_union_find(*args)
    )
    for n in range(1, 8):
        for lat in em.all_lattices(n):
            closures.clear()
            con = cg.all_congruences(lat)
            assert len(closures) == len(con) - 1


def test_checked_constructor_accepts_every_con_member():
    for n in range(1, 8):
        for lat in em.all_lattices(n):
            for p in cg.all_congruences(lat).members:
                assert type(p) is tuple and pt.checked(len(p), p) == p


def test_all_congruences_matches_brute_force():
    for lat in small_lattices():
        assert cg.all_congruences(lat).members == cg.brute_force_congruences(lat)


def test_con_closed_under_join_meet():
    for lat in small_lattices():
        con = cg.all_congruences(lat)
        members = set(con.members)
        for p in members:
            for q in members:
                assert pt.join(p, q) in members
                assert pt.meet(p, q) in members


def test_con_duality():
    for lat in small_lattices():
        c1 = cg.all_congruences(lat)
        c2 = cg.all_congruences(lt.dual(lat))
        assert len(c1) == len(c2)
        assert sorted(pt.heq(m) for m in c1.members) == sorted(pt.heq(m) for m in c2.members)


def test_quotient_examples():
    n5 = lt.named("N5")
    theta = cg.principal_congruence(n5, lt.N5_P, lt.N5_Q)
    q, block_map = cg.quotient(n5, theta)
    assert lt.are_isomorphic(q, lt.named("B4"))
    assert len(set(block_map)) == q.n
    for lat in small_lattices():
        q0, m0 = cg.quotient(lat, pt.bottom(lat.n))
        assert lt.are_isomorphic(q0, lat)
        q1, _ = cg.quotient(lat, pt.top(lat.n))
        assert q1.n == 1
        assert list(m0) == list(range(lat.n))
    with pytest.raises(NotACongruence):
        cg.quotient(lt.named("B4"), pt.join_pairs(4, [(1, 2)]))


def test_quotient_size_law_and_block_arithmetic():
    for lat in small_lattices():
        for theta in cg.all_congruences(lat).members:
            q, block_map = cg.quotient(lat, theta)
            assert q.n == lat.n - pt.heq(theta)
            # block joins/meets agree with arithmetic on the host
            for x in range(lat.n):
                for y in range(lat.n):
                    assert block_map[lat.join(x, y)] == q.join(block_map[x], block_map[y])
                    assert block_map[lat.meet(x, y)] == q.meet(block_map[x], block_map[y])


def test_atoms_and_upset_split():
    c3 = lt.chain(3)
    con = cg.all_congruences(c3)
    ats = con.atoms()
    assert len(ats) == 2
    for alpha in ats:
        c_a, c_b = cg.upset_split(con, alpha)
        assert len(c_a) == len(c_b) == 2
        assert sorted(c_a + c_b, key=lambda p: (pt.heq(p), p)) == list(con.members)
        assert pt.bottom(3) in c_b
    with pytest.raises(NotAnAtom):
        cg.upset_split(con, pt.top(3))


def test_upset_size_equals_quotient_con_size():
    for lat in small_lattices():
        con = cg.all_congruences(lat)
        for alpha in con.atoms():
            c_a, _ = cg.upset_split(con, alpha)
            q, _ = cg.quotient(lat, alpha)
            assert len(c_a) == len(cg.all_congruences(q))


def test_join_with_atom_map():
    con = cg.all_congruences(lt.chain(3))
    for alpha in con.atoms():
        m = cg.join_with_atom_map(con, alpha)
        assert m.injective and m.bijective
    n5con = cg.all_congruences(lt.named("N5"))
    alpha = cg.principal_congruence(lt.named("N5"), lt.N5_P, lt.N5_Q)
    assert alpha in n5con.atoms()
    m = cg.join_with_atom_map(n5con, alpha)
    assert m.injective
    # bijectivity must line up with the boolean verdict atom by atom
    assert cg.is_boolean(n5con) == all(
        cg.join_with_atom_map(n5con, a).bijective for a in n5con.atoms()
    )


def test_atom_map_injective_for_all_small_lattices():
    for lat in small_lattices():
        con = cg.all_congruences(lat)
        assert cg.is_distributive(con)
        for alpha in con.atoms():
            assert cg.join_with_atom_map(con, alpha).injective


def test_join_closure_budget(monkeypatch):
    # Con(chain 5) has 16 members and the free 4-element algebra Bell(4) = 15
    monkeypatch.setattr(cg, "CON_BUDGET", 16)
    assert len(cg.all_congruences(lt.chain(5))) == 16
    assert len(cg.congruence_energies(lt.chain(5))) == 16
    monkeypatch.setattr(cg, "CON_BUDGET", 15)
    with pytest.raises(BudgetExceeded):
        cg.all_congruences(lt.chain(5))
    with pytest.raises(BudgetExceeded):
        cg.congruence_energies(lt.chain(5))
    assert len(alg.all_congruences_alg(alg.FiniteAlgebra(4, ()))) == 15
    monkeypatch.setattr(cg, "CON_BUDGET", 14)
    with pytest.raises(BudgetExceeded):
        alg.all_congruences_alg(alg.FiniteAlgebra(4, ()))


def triple_identity(c):
    """Oracle: a ^ (b v d) = (a ^ b) v (a ^ d) for every triple of members."""
    ms = c.members
    idx = {m: i for i, m in enumerate(ms)}
    join_t = [[idx[pt.join(a, b)] for b in ms] for a in ms]
    meet_t = [[idx[pt.meet(a, b)] for b in ms] for a in ms]
    k = range(len(ms))
    return all(
        meet_t[a][join_t[b][d]] == join_t[meet_t[a][b]][meet_t[a][d]]
        for a in k
        for b in k
        for d in k
    )


def forbidden_sublattice_scan(c):
    """Oracle: Birkhoff's criterion, no pentagon and no diamond among the
    members, by one scan over the member join/meet tables."""
    ms = c.members
    idx = {m: i for i, m in enumerate(ms)}
    join_t = [[idx[pt.join(a, b)] for b in ms] for a in ms]
    meet_t = [[idx[pt.meet(a, b)] for b in ms] for a in ms]
    k = len(ms)
    # pentagon: a < b with some d giving equal joins and meets
    for a in range(k):
        for b in range(k):
            if a == b or meet_t[a][b] != a:
                continue
            for d in range(k):
                if meet_t[a][d] in (a, d) or meet_t[b][d] in (b, d):
                    continue
                if join_t[a][d] == join_t[b][d] and meet_t[a][d] == meet_t[b][d]:
                    return False
    # diamond: three pairwise-incomparable with common join and meet
    for a in range(k):
        for b in range(a + 1, k):
            if meet_t[a][b] in (a, b):
                continue
            for d in range(b + 1, k):
                if meet_t[a][d] in (a, d) or meet_t[b][d] in (b, d):
                    continue
                if (
                    join_t[a][b] == join_t[a][d] == join_t[b][d]
                    and meet_t[a][b] == meet_t[a][d] == meet_t[b][d]
                ):
                    return False
    return True


def complemented(c):
    """Oracle: every member has a complement among the members."""
    return all(
        any(pt.meet(m, x) == pt.bottom(c.host_n) and pt.join(m, x) == pt.top(c.host_n) for x in c.members)
        for m in c.members
    )


def random_algebra(rng):
    n = rng.randint(2, 6)
    arities = rng.choice([(1,), (2,), (1, 1), (1, 2)])
    return alg.FiniteAlgebra(
        n,
        tuple(
            alg.Operation(f"f{i}", a, tuple(rng.randrange(n) for _ in range(n**a)))
            for i, a in enumerate(arities)
        ),
    )


def oracle_con_lattices():
    for n in range(1, 8):
        for lat in em.all_lattices(n):
            yield cg.all_congruences(lat)
    yield cg.all_congruences(glued(lt.named("N5"), lt.named("B4"), lt.chain(2)))
    rng = random.Random(20260)
    for _ in range(300):
        yield alg.all_congruences_alg(random_algebra(rng))
    # Con of this algebra is the pentagon itself: it holds no diamond, so
    # a diamond test alone would accept it (random ones with a pentagon
    # here also hold a diamond)
    ops = (alg.Operation("f", 1, (1, 0, 1, 0)), alg.Operation("g", 1, (1, 0, 3, 2)))
    yield alg.all_congruences_alg(alg.FiniteAlgebra(4, ops))


def test_distributive_boolean_verdicts_match_oracles():
    # the down-set count against the triple identity and the pentagon/diamond
    # scan, and the counting boolean test against complements and against
    # bijective atom-join maps
    seen = set()
    for con in oracle_con_lattices():
        dist = triple_identity(con)
        assert forbidden_sublattice_scan(con) == dist
        assert cg.is_distributive(con) == dist
        boolean = cg.is_boolean(con)
        assert boolean == (dist and complemented(con))
        if dist:
            assert boolean == all(
                cg.join_with_atom_map(con, a).bijective for a in con.atoms()
            )
        seen.add((dist, boolean))
    assert seen == {(False, False), (True, False), (True, True)}


def test_distributive_boolean_verdicts():
    for n in range(1, 7):
        con = cg.all_congruences(lt.chain(n))
        assert cg.is_distributive(con)
        assert cg.is_boolean(con)
    n5con = cg.all_congruences(lt.named("N5"))
    assert cg.is_distributive(n5con)
    assert not cg.is_boolean(n5con)  # five elements cannot be boolean
    m3con = cg.all_congruences(lt.named("M3"))
    assert cg.is_boolean(m3con)  # the two-element chain
