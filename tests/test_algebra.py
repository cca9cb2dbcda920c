import functools
import importlib
import itertools
import random
from pathlib import Path

import pytest

from conergy import algebra as alg
from conergy import congruence as cg
from conergy import counting as ct
from conergy import energy as en
from conergy import enumeration as em
from conergy import lattice as lt
from conergy import partition as pt
from conergy.errors import BudgetExceeded, OutOfRange, SizeMismatch


def brute_compatible(a, p):
    """Oracle: full tuple-by-tuple compatibility scan, independent of the
    translation machinery in the package."""
    import itertools

    for op in a.ops:
        for args in itertools.product(range(a.n), repeat=op.arity):
            out = alg.apply_op(a, op, args)
            for pos in range(op.arity):
                for y in range(a.n):
                    if p[y] != p[args[pos]]:
                        continue
                    other = list(args)
                    other[pos] = y
                    if p[alg.apply_op(a, op, tuple(other))] != p[out]:
                        return False
    return True


def xor_algebra():
    table = tuple(a ^ b for a in range(4) for b in range(4))
    return alg.FiniteAlgebra(4, (alg.Operation("xor", 2, table),))


def constants_algebra(n):
    ops = tuple(alg.Operation(f"c{v}", 1, (v,) * n) for v in range(n))
    return alg.FiniteAlgebra(n, ops)


def test_validation():
    with pytest.raises(SizeMismatch):
        alg.FiniteAlgebra(2, (alg.Operation("f", 2, (0, 1, 0)),))
    with pytest.raises(OutOfRange):
        alg.FiniteAlgebra(2, (alg.Operation("f", 1, (0, 5)),))
    with pytest.raises(SizeMismatch):
        alg.FiniteAlgebra(2, (alg.Operation("f", 4, (0,) * 16),))


def test_closure_with_no_operations_is_equ():
    free = alg.FiniteAlgebra(5, ())
    for a in range(5):
        for b in range(5):
            assert alg.congruence_closure(free, [(a, b)]) == pt.join_pairs(5, [(a, b)])
    assert alg.congruence_closure(free, []) == pt.bottom(5)
    assert len(alg.all_congruences_alg(free)) == ct.bell(5)


def least_compatible(a, x, y):
    """Oracle: the partition with fewest merges that collapses (x, y) and
    passes the brute-force compatibility scan."""
    found = [p for p in pt.all_partitions(a.n) if p[x] == p[y] and brute_compatible(a, p)]
    return min(found, key=pt.heq)


def test_closure_matches_lattice_principal_congruences():
    # both sides run the same translation closure, so the algebra side is
    # also held against a brute-force oracle
    for lat in (lt.chain(3), lt.named("B4"), lt.named("N5"), lt.named("M3")):
        a = alg.lattice_as_algebra(lat)
        for x in range(lat.n):
            for y in range(lat.n):
                got = alg.congruence_closure(a, [(x, y)])
                assert got == cg.principal_congruence(lat, x, y)
                assert got == least_compatible(a, x, y)


def test_closure_monotone():
    a = alg.lattice_as_algebra(lt.named("N5"))
    p1 = alg.congruence_closure(a, [(0, 1)])
    p12 = alg.congruence_closure(a, [(0, 1), (2, 4)])
    assert pt.leq(p1, p12)


def test_all_congruences_alg_matches_lattice_route():
    for lat in (lt.chain(4), lt.named("B4"), lt.named("N5"), lt.named("M3")):
        got = alg.all_congruences_alg(alg.lattice_as_algebra(lat))
        assert got.members == cg.all_congruences(lat).members


def brute_filter_samples():
    return [
        alg.FiniteAlgebra(4, ()),
        xor_algebra(),
        constants_algebra(4),
        alg.lattice_as_algebra(lt.named("N5")),
        alg.lattice_as_algebra(lt.chain(5)),
    ]


def test_all_congruences_alg_matches_brute_filter():
    for a in brute_filter_samples():
        got = set(alg.all_congruences_alg(a).members)
        want = {p for p in pt.all_partitions(a.n) if brute_compatible(a, p)}
        assert got == want


def random_algebra(rng):
    n = rng.randint(2, 7)
    arities = rng.choice([(1,), (2,), (3,), (1, 1), (1, 2), (1, 3)])
    return alg.FiniteAlgebra(
        n,
        tuple(
            alg.Operation(f"f{i}", a, tuple(rng.randrange(n) for _ in range(n**a)))
            for i, a in enumerate(arities)
        ),
    )


def unary_big_algebra():
    # x1 -> x0, x2 -> x1, every other point fixed: |Con| = 609
    return alg.FiniteAlgebra(8, (alg.Operation("f", 1, (0, 0, 1, 3, 4, 5, 6, 7)),))


def test_unary_translations_match_apply_op():
    # every map x -> f(.., x, ..) with the other arguments fixed, read
    # through apply_op instead of slicing the table
    rng = random.Random(4242)
    for a in [random_algebra(rng) for _ in range(50)] + brute_filter_samples():
        want = {
            tuple(alg.apply_op(a, op, args[:pos] + (x,) + args[pos:]) for x in range(a.n))
            for op in a.ops
            for pos in range(op.arity)
            for args in itertools.product(range(a.n), repeat=op.arity - 1)
        }
        assert alg.unary_translations(a) == sorted(want)


def test_principal_congruences_match_one_closure_per_pair():
    rng = random.Random(31337)
    samples = [random_algebra(rng) for _ in range(300)]
    samples += [alg.lattice_as_algebra(lat) for n in range(1, 7) for lat in em.all_lattices(n)]
    samples.append(unary_big_algebra())
    for a in samples:
        got = alg.principal_congruences(a)
        assert sorted(got) == [(x, y) for x in range(a.n) for y in range(x + 1, a.n)]
        for (x, y), con in got.items():
            assert con == alg.congruence_closure(a, [(x, y)])


def test_join_closure_ignores_reducible_generators():
    for a in brute_filter_samples():
        principal = list(alg.principal_congruences(a).values())
        con = cg.join_closure(a.n, principal)
        want = {p for p in pt.all_partitions(a.n) if brute_compatible(a, p)}
        assert set(con.members) == want
        reducible = [pt.bottom(a.n)] + [pt.join(p, q) for p in principal for q in principal]
        assert cg.join_closure(a.n, principal + reducible) == con
        assert cg.join_closure(a.n, list(con.members)) == con


def frontier_join_closure(n, generators):
    """Oracle: Con generated by joins of the given congruences, closed
    breadth-first, every member joined with every member of J not below
    it, J and the down-sets found as join_closure finds them."""
    jis = cg._join_irreducible_generators(n, {g: cg._pair_mask(g) for g in generators})
    gens = [(g_pairs, cg._rep_pairs([g])) for g, g_pairs in jis.items()]
    bottom = tuple(range(n))
    members = {bottom: cg._pair_mask(bottom)}
    frontier = [bottom]
    while frontier:
        fresh = []
        for f in frontier:
            for g_pairs, g_links in gens:
                if g_pairs & ~members[f]:
                    h = pt.union_find(list(f), g_links)
                    if h not in members:
                        members[h] = cg._pair_mask(h)
                        fresh.append(h)
        frontier = fresh
    j_pairs, below = cg._inclusion_order(jis.values())
    downs = [
        sum(1 << t for t, j in enumerate(j_pairs) if j & ~pairs == 0)
        for pairs in members.values()
    ]
    return cg.CongruenceLattice(n, *cg._sorted_with(members, downs), below)


def benchmark_algebras(seed):
    """The algebras of the benchmark's verify job list for this seed."""
    jobs = importlib.import_module("jobs")
    return [
        alg.FiniteAlgebra(job["n"], tuple(alg.Operation(name, k, tuple(t)) for name, k, t in job["ops"]))
        for job in jobs.make_jobs("verify", seed)
        if job["kind"] == "algebra"
    ]


def test_join_closure_matches_the_frontier_closure(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    samples = brute_filter_samples() + [unary_big_algebra()]
    samples += benchmark_algebras(1) + benchmark_algebras(2)
    for a in samples:
        principal = list(alg.principal_congruences(a).values())
        got, want = cg.join_closure(a.n, principal), frontier_join_closure(a.n, principal)
        assert got == want
        assert (got.down_sets, got.below) == (want.down_sets, want.below)


def test_a_distributive_closure_makes_each_member_by_one_join(monkeypatch):
    samples = [alg.lattice_as_algebra(lat) for n in range(1, 7) for lat in em.all_lattices(n)]
    stack = lt.glued_sum(lt.named("N5"), lt.named("B4"))  # J is not an antichain
    samples += [alg.lattice_as_algebra(lt.chain(8)), alg.lattice_as_algebra(stack)]
    real, calls = pt.union_find, []
    monkeypatch.setattr(pt, "union_find", lambda *args: calls.append(args) or real(*args))
    for a in samples:
        principal = list(alg.principal_congruences(a).values())
        calls.clear()
        con = cg.join_closure(a.n, principal)
        assert cg.is_distributive(con)
        # one union-find per distinct generator finds J, then one join per member but the bottom
        assert len(calls) == len(set(principal)) + len(con) - 1
    # the non-distributive unary algebra: 1 595 union-finds, against 7 431 for the frontier closure
    principal = list(alg.principal_congruences(unary_big_algebra()).values())
    calls.clear()
    assert len(cg.join_closure(8, principal)) == 609
    assert len(calls) == 1595


def test_join_closure_down_sets_and_order_follow_the_partition_order():
    # J, found by pt.join and pt.leq as the members that are not the join of
    # the members strictly below them, is numbered along a linear extension,
    # so member t of J is the one whose down-set has t as its highest bit;
    # bit t of down_sets[i] must then be set iff member t of J is <=
    # members[i], below must be J's strict order, and the atoms must be
    # those of the partition order
    for a in brute_filter_samples() + [alg.lattice_as_algebra(lt.chain(8))]:
        con = alg.all_congruences_alg(a)
        down = dict(zip(con.members, con.down_sets))
        jis = [
            m for m in con.members
            if m != functools.reduce(
                pt.join, [p for p in con.members if p != m and pt.leq(p, m)], pt.bottom(con.host_n)
            )
        ]
        named = {down[j].bit_length() - 1: j for j in jis}
        assert sorted(named) == list(range(len(jis))) == list(range(len(con.below)))
        for m, d in down.items():
            for t, j in named.items():
                assert bool(d >> t & 1) == pt.leq(j, m)
        for t, mask in enumerate(con.below):
            for s in named:
                assert bool(mask >> s & 1) == (s != t and pt.leq(named[s], named[t]))
        non_bottom = [m for m in con.members if pt.heq(m) > 0]
        scanned = [m for m in non_bottom if not any(p != m and pt.leq(p, m) for p in non_bottom)]
        assert con.atoms() == scanned


def test_budget():
    with pytest.raises(BudgetExceeded):
        alg.all_congruences_alg(alg.FiniteAlgebra(9, ()))


def test_xor_algebra_con_is_diamond():
    con = alg.all_congruences_alg(xor_algebra())
    assert len(con) == 5
    assert not cg.is_distributive(con)
    # three atoms, pairwise joining to the top: the diamond shape
    ats = con.atoms()
    assert len(ats) == 3
    for i, a in enumerate(ats):
        for b in ats[i + 1:]:
            assert pt.join(a, b) == pt.top(con.host_n)
            assert pt.meet(a, b) == pt.bottom(con.host_n)


def test_unary_big_algebra_con_holds_a_diamond():
    big = unary_big_algebra()
    con = alg.all_congruences_alg(big)
    assert len(con) == 609
    assert not cg.is_distributive(con)
    # three pair-collapsing members meet pairwise in the bottom and join
    # pairwise to the member with block {x, y, z}: a diamond
    members = set(con.members)
    diamonds = [
        (x, y, z)
        for x, y, z in itertools.combinations(range(8), 3)
        if {
            pt.join_pairs(8, [(x, y)]),
            pt.join_pairs(8, [(x, z)]),
            pt.join_pairs(8, [(y, z)]),
            pt.join(pt.join_pairs(8, [(x, y)]), pt.join_pairs(8, [(y, z)])),
        } <= members
    ]
    assert (3, 4, 5) in diamonds
    verdict = alg.ce_bound_check(big)
    assert verdict.status == "precondition-failed"
    assert verdict.con_size == 609


def test_constants_force_simplicity():
    con = alg.all_congruences_alg(constants_algebra(4))
    # unary constants alone do not split anything; add a discriminating op
    swap = alg.Operation("swap", 1, (1, 0, 3, 2))
    rich = alg.FiniteAlgebra(4, constants_algebra(4).ops + (swap,))
    assert pt.bottom(4) in con.members and pt.top(4) in con.members
    assert len(alg.all_congruences_alg(rich)) <= len(con)


def test_extra_operations_never_enlarge_con():
    lat = lt.named("N5")
    base = alg.lattice_as_algebra(lat)
    extra = alg.FiniteAlgebra(
        base.n, base.ops + (alg.Operation("const0", 1, (0,) * base.n),)
    )
    small = set(alg.all_congruences_alg(extra).members)
    big = set(alg.all_congruences_alg(base).members)
    assert small <= big


def test_energy_ceiling_with_equality_iff_full():
    samples = [
        alg.FiniteAlgebra(4, ()),
        xor_algebra(),
        alg.lattice_as_algebra(lt.named("N5")),
        alg.lattice_as_algebra(lt.chain(5)),
    ]
    for a in samples:
        con = alg.all_congruences_alg(a)
        ce = en.congruence_energy(con)
        assert ce <= ct.equ_energy_bound(a.n)
        full = len(con) == ct.bell(a.n)
        assert (ce == ct.equ_energy_bound(a.n)) == full


def test_ce_bound_check_chain():
    for n in range(2, 7):
        v = alg.ce_bound_check(alg.lattice_as_algebra(lt.chain(n)))
        assert v.status == "ok"
        assert v.ce == ct.g_max(n)
        assert v.attains_max and v.con_is_boolean
        assert v.con_size == 2 ** (n - 1)
        assert v.holds


def test_ce_bound_check_n5():
    v = alg.ce_bound_check(alg.lattice_as_algebra(lt.named("N5")))
    assert v.status == "ok"
    assert v.ce == 22 < ct.g_max(5) == 64
    assert not v.attains_max
    assert v.holds


def test_ce_bound_check_xor_precondition():
    v = alg.ce_bound_check(xor_algebra())
    assert v.status == "precondition-failed"


def test_json_round_trip():
    a = xor_algebra()
    doc = a.to_json_dict()
    back = alg.FiniteAlgebra(
        doc["n"],
        tuple(
            alg.Operation(o["name"], o["arity"], tuple(o["table"])) for o in doc["ops"]
        ),
    )
    assert back == a


def test_checked_constructor_accepts_every_con_alg_member(monkeypatch):
    # the algebras of the benchmark's verify job list, seed 1
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    algebras = benchmark_algebras(1)
    assert algebras
    for a in algebras:
        for p in alg.all_congruences_alg(a).members:
            assert type(p) is tuple and pt.checked(len(p), p) == p
