import errno
import itertools
import json
import os
import random
import signal
import threading
import time

import pytest

from conergy import cli
from conergy import congruence as cg
from conergy import counting as ct
from conergy import energy as en
from conergy import enumeration as em
from conergy import lattice as lt
from conergy.errors import BudgetExceeded

KNOWN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078}


def test_counts_match_known_sequence():
    for n, want in KNOWN_COUNTS.items():
        assert len(em.all_lattices(n)) == want


def predicate_refined_invariants(n, leq_fn, up_cov, dn_cov):
    up_sz = [sum(1 for b in range(n) if leq_fn(a, b)) for a in range(n)]
    dn_sz = [sum(1 for b in range(n) if leq_fn(b, a)) for a in range(n)]
    raw = [(dn_sz[a], up_sz[a], len(dn_cov[a]), len(up_cov[a])) for a in range(n)]
    ranks = {t: i for i, t in enumerate(sorted(set(raw)))}
    inv = [ranks[t] for t in raw]
    for _ in range(n):
        raw = [
            (
                inv[a],
                tuple(sorted(inv[b] for b in dn_cov[a])),
                tuple(sorted(inv[b] for b in up_cov[a])),
            )
            for a in range(n)
        ]
        ranks = {t: i for i, t in enumerate(sorted(set(raw)))}
        new = [ranks[t] for t in raw]
        if len(set(new)) == len(set(inv)):
            inv = new
            break
        inv = new
    return inv


def predicate_canonical_order_matrix(n, leq_fn):
    """Oracle: the canonical form computed from the order predicate alone,
    one predicate call per matrix bit of every relabelling tried."""
    up_cov = [[] for _ in range(n)]
    dn_cov = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a != b and leq_fn(a, b):
                if sum(1 for z in range(n) if leq_fn(a, z) and leq_fn(z, b)) == 2:
                    up_cov[a].append(b)
                    dn_cov[b].append(a)
    inv = predicate_refined_invariants(n, leq_fn, up_cov, dn_cov)
    classes = {}
    for a in range(n):
        classes.setdefault(inv[a], []).append(a)
    groups = [classes[k] for k in sorted(classes)]
    best = None
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        sigma = [x for part in parts for x in part]
        code = 0
        for i in range(n):
            for j in range(n):
                code = code << 1 | (1 if leq_fn(sigma[i], sigma[j]) else 0)
        if best is None or code < best:
            best = code
    return bytes([n]) + best.to_bytes((n * n + 7) // 8, "big")


def preserves_order(g, up):
    n = len(up)
    return all(
        bool(up[g[a]] >> g[b] & 1) == bool(up[a] >> b & 1) for a in range(n) for b in range(n)
    )


def test_canonical_form_matches_predicate_oracle(monkeypatch):
    # every canonical form the generator asks for, prefixes included
    fast = lt.canonical_order_matrix
    sizes = []

    def checked(n, up, dn, lower):
        def leq_fn(a, b):
            return bool(up[a] >> b & 1)

        got, twins = fast(n, up, dn, lower)
        assert got == predicate_canonical_order_matrix(n, leq_fn)
        sizes.append(n)
        return got, twins

    monkeypatch.setattr(lt, "canonical_order_matrix", checked)
    for n in range(1, 9):
        assert len(em.all_lattices(n)) == KNOWN_COUNTS[n]
    assert set(sizes) == set(range(1, 9))


def rows_of(up):
    """Down rows and lower-cover lists of the poset with up rows ``up``."""
    n = len(up)
    dn = [sum(1 << a for a in range(n) if up[a] >> b & 1) for b in range(n)]
    lower = [[a for a in range(n) if (up[a] & dn[b]).bit_count() == 2] for b in range(n)]
    return dn, lower


def has_greatest(dn, subset):
    """Whether the nonempty subset of a prefix numbered along a linear
    extension has a greatest element: only its highest index can be."""
    return subset & ~dn[subset.bit_length() - 1] == 0


def unpruned_keys(n):
    """Oracle: the generator with neither the automorphism nor the
    deletion test.  Every valid mask of every kept prefix gets a canonical
    form, and the first child of each class is kept."""
    if n <= 2:
        return [lt.canonical_form(lt.chain(n))]
    level = {b"": [1]}  # canon -> up rows of a 1-element prefix
    for k in range(1, n - 1):
        last = k == n - 2
        nxt = {}
        for up in level.values():
            dn, _ = rows_of(up)
            for mask in em._down_closed_subsets(dn, k):
                if not all(has_greatest(dn, mask & dn[j]) for j in range(k)):
                    continue
                up2 = [u | 1 << k if mask >> a & 1 else u for a, u in enumerate(up)]
                up2.append(1 << k)
                if last:
                    top = 1 << (n - 1)
                    up2 = [u | top for u in up2] + [top]
                key = lt.canonical_order_matrix(len(up2), up2, *rows_of(up2))[0]
                if key not in nxt:
                    nxt[key] = up2
        level = nxt
    return sorted(level)


def test_pruned_generator_keeps_every_class():
    for n in range(1, 9):
        assert sorted(em._keyed_lattices(n, lambda *rows: None)) == unpruned_keys(n)


def test_labelled_children_pass_both_pruning_tests(monkeypatch):
    # each child the generator labels is P + x with x the highest label
    # below the top, if any: x has the greatest (|down-set|, lower covers)
    # among the maximal elements of the child, and its down-set in P is
    # the least mask of its orbit under the twin swaps of P
    fast = lt.canonical_order_matrix
    for n in range(3, 8):
        children = {}

        def checked(size, up, dn, lower):
            k = size - 1 - (size == n)  # the new element; the top comes after it
            maximal = lower[n - 1] if size == n else [a for a in range(size) if up[a] == 1 << a]
            invariant = [(dn[y].bit_count(), len(lower[y])) for y in maximal]
            assert k in maximal and invariant[maximal.index(k)] == max(invariant)
            parent = tuple(u & ((1 << k) - 1) for u in up[:k])
            children.setdefault(parent, []).append(dn[k] & ~(1 << k))
            return fast(size, up, dn, lower)

        monkeypatch.setattr(lt, "canonical_order_matrix", checked)
        assert len(em.all_lattices(n)) == KNOWN_COUNTS[n]
        for parent, masks in children.items():
            group = list(twin_group(sorted(brute_twin_classes(parent)), len(parent)))
            assert len(set(masks)) == len(masks)
            for mask in masks:
                assert mask == min(sum(1 << g[b] for b in range(len(parent)) if mask >> b & 1) for g in group)


def brute_twin_classes(up):
    """Oracle: the classes of two or more elements with the same strict
    down-set and strict up-set, each ascending, from the order predicate."""
    n = len(up)

    def strict(a):
        below = frozenset(z for z in range(n) if z != a and up[z] >> a & 1)
        above = frozenset(z for z in range(n) if z != a and up[a] >> z & 1)
        return below, above

    classes = {tuple(b for b in range(n) if strict(b) == strict(a)) for a in range(n)}
    return {c for c in classes if len(c) > 1}


def twin_group(twins, n):
    """The permutations of 0..n-1 that the swaps within each twin class
    generate."""
    for perms in itertools.product(*(itertools.permutations(c) for c in twins)):
        t = list(range(n))
        for c, p in zip(twins, perms):
            for x, y in zip(c, p):
                t[x] = y
        yield t


def test_twins_are_the_brute_force_twin_classes(monkeypatch):
    # every prefix and lattice the generator labels up to order 7, and
    # every lattice up to order 6
    fast = lt.canonical_order_matrix
    seen = []

    def checked(n, up, dn, lower):
        got, twins = fast(n, up, dn, lower)
        assert len(set(twins)) == len(twins)
        assert set(twins) == brute_twin_classes(up)
        for c in twins:
            for x, y in itertools.combinations(c, 2):
                swap = list(range(n))
                swap[x], swap[y] = y, x
                assert preserves_order(swap, up)
        assert got == predicate_canonical_order_matrix(n, lambda a, b: bool(up[a] >> b & 1))
        seen.append(n)
        return got, twins

    monkeypatch.setattr(lt, "canonical_order_matrix", checked)
    for n in range(1, 8):
        lattices = em.all_lattices(n)
        if n <= 6:
            for lat in lattices:
                lt.canonical_form(lat)
    assert set(seen) == set(range(1, 8))


def test_two_twin_classes_in_one_invariant_class_give_the_least_code():
    # atoms 1..4, 5 above 1 and 4, 6 above 2 and 3: two twin classes in
    # one invariant class, and an automorphism that swaps them
    lat = lt.from_covers(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (4, 5), (2, 6), (3, 6), (5, 7), (6, 7)])
    got, twins = lt.canonical_order_matrix(lat.n, lat.up_bits, lat.dn_bits, lat.lower)
    assert got == predicate_canonical_order_matrix(lat.n, lat.leq)
    assert twins == ((1, 4), (2, 3))


def test_generator_labelling_counts(monkeypatch):
    # the canonical labellings the two pruning tests leave: a test that
    # stops pruning moves these counts.  The orders stay below
    # em._FORK_FROM, since labellings made in a forked worker are not
    # counted in this process
    fast = lt.canonical_order_matrix
    sizes = []

    def counted(n, up, dn, lower):
        sizes.append(n)
        return fast(n, up, dn, lower)

    monkeypatch.setattr(lt, "canonical_order_matrix", counted)
    assert 8 < em._FORK_FROM
    for n, want in {6: 23, 7: 80, 8: 318}.items():
        sizes.clear()
        em._keyed_lattices(n, lambda *rows: None)
        assert len(sizes) == want


def test_diamonds_try_one_order_per_twin_class():
    rng = random.Random(15)
    for k in range(3, lt.ISO_BUDGET - 1):
        n = k + 2
        lat = lt.from_covers(n, [(0, a) for a in range(1, k + 1)] + [(a, n - 1) for a in range(1, k + 1)])
        _, twins = lt.canonical_order_matrix(lat.n, lat.up_bits, lat.dn_bits, lat.lower)
        assert twins == (tuple(range(1, k + 1)),)
        assert list(lt._twin_sorted_orders([list(twins[0])])) == [twins[0]]
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = lt.from_covers(n, [(perm[a], perm[b]) for a, b in lat.covers])
        assert lt.canonical_form(shuffled) == lt.canonical_form(lat)


def test_generator_matches_brute_oracle():
    for n in range(1, 9):
        fast = [lt.canonical_form(l) for l in em.all_lattices(n)]
        brute = [lt.canonical_form(l) for l in em.all_lattices_brute(n)]
        assert fast == brute


def naturally_labelled_posets(n):
    """The down-set rows of every naturally labelled poset on n elements,
    any down-closed mask at every step."""
    posets = []

    def rec(dn, k):
        if k == n:
            posets.append(tuple(dn))
            return
        for mask in range(1 << k):
            if all(dn[j] & ~mask == 0 for j in range(k) if mask >> j & 1):
                rec(dn + [mask | 1 << k], k + 1)

    rec([1], 1)
    return posets


def lattice_keys(posets):
    found = set()
    for dn in posets:
        try:
            lat = em._lattice_from_dn(list(dn))
        except lt.NotALattice:
            continue
        full = (1 << len(dn)) - 1
        if lat.up_bits[lat.bottom] == full and lat.dn_bits[lat.top] == full:
            found.add(lt.canonical_form(lat))
    return sorted(found)


def test_bounded_brute_walk_matches_the_unbounded_walk(monkeypatch):
    built = []
    real = em._lattice_from_dn

    def recording(dn):
        built.append(tuple(dn))
        return real(dn)

    for n in range(1, 7):
        posets = naturally_labelled_posets(n)
        monkeypatch.setattr(em, "_lattice_from_dn", recording)
        bounded = [lt.canonical_form(l) for l in em.all_lattices_brute(n)]
        monkeypatch.setattr(em, "_lattice_from_dn", real)
        assert bounded == lattice_keys(posets)
        if n > 1:  # the walk builds exactly the posets with 0 least and n - 1 greatest
            full = (1 << n) - 1
            assert sorted(built) == sorted(dn for dn in posets if all(d & 1 for d in dn) and dn[-1] == full)
        built.clear()


def test_every_output_really_is_a_lattice_of_size_n():
    for n in range(1, 8):
        for lat in em.all_lattices(n):
            assert lat.n == n
            # reconstruct from covers; from_covers re-runs all validation
            again = lt.from_covers(lat.n, list(lat.covers))
            assert again.covers == lat.covers
            # labelled as generated: along a linear extension
            assert all(a < b for a, b in lat.covers)
            assert lat.bottom == 0 and lat.top == n - 1


def test_outputs_pairwise_nonisomorphic_and_sorted():
    for n in range(1, 8):
        forms = [lt.canonical_form(l) for l in em.all_lattices(n)]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        em.all_lattices(em.ENUMERATION_BUDGET + 1)


def test_glued_b4_family_counts():
    assert em.glued_b4_family(3) == []
    assert len(em.glued_b4_family(4)) == 1
    for n in range(5, 10):
        assert len(em.glued_b4_family(n)) == n - 3


def test_glued_b4_family_members():
    fam = em.glued_b4_family(6)
    assert len(fam) == 3
    for lat in fam:
        assert lat.n == 6
        assert em.decomposes_as_chain_b4_chain(lat)
        assert lt.count_two_element_antichains(lat) == 1
    assert not em.decomposes_as_chain_b4_chain(lt.chain(6))


def test_glued_n5_family_members():
    assert em.glued_n5_family(4) == []
    fam = em.glued_n5_family(7)
    assert len(fam) == 3
    for lat in fam:
        assert lat.n == 7
        assert em.is_glued_n5_shape(lat)
        con = cg.all_congruences(lat)
        assert len(con) == 5 * 2 ** (7 - 5)
        assert en.congruence_energy(con) == ct.g_pn(7)


def test_structural_shapes_match_family_isomorphism_oracle():
    for n in range(1, 9):
        b4_family = em.glued_b4_family(n)
        n5_family = em.glued_n5_family(n)
        for lat in em.all_lattices(n):
            glued_b4 = em.decomposes_as_chain_b4_chain(lat)
            assert glued_b4 == any(lt.are_isomorphic(lat, k) for k in b4_family)
            assert glued_b4 == (lt.count_two_element_antichains(lat) == 1)
            glued_n5 = em.is_glued_n5_shape(lat)
            assert glued_n5 == any(lt.are_isomorphic(lat, k) for k in n5_family)


def test_structural_shapes_beyond_the_isomorphism_budget():
    n = lt.ISO_BUDGET + 2
    b4_family = em.glued_b4_family(n)
    n5_family = em.glued_n5_family(n)
    assert len(b4_family) == n - 3 and len(n5_family) == n - 4
    assert all(em.decomposes_as_chain_b4_chain(lat) for lat in b4_family)
    assert not any(em.is_glued_n5_shape(lat) for lat in b4_family)
    assert all(em.is_glued_n5_shape(lat) for lat in n5_family)
    assert not any(em.decomposes_as_chain_b4_chain(lat) for lat in n5_family)


def test_extremal_report_n4():
    rep = em.extremal_report(4)
    assert rep["lattice_count"] == 2
    assert rep["max_ce"] == ct.g_max(4) == 24
    assert len(rep["max_witnesses"]) == 1
    assert rep["second_ce"] == ct.g_sb(4) == 14
    assert rep["verdicts"]["thm_b"] == "holds"
    assert rep["verdicts"]["thm_c"] == "holds"
    assert rep["verdicts"]["manycon"] == "holds"
    assert rep["verdicts"]["pentagon"] == "skipped-budget"


def test_extremal_report_n5():
    rep = em.extremal_report(5)
    assert rep["lattice_count"] == 5
    assert rep["max_ce"] == 64
    assert rep["second_ce"] == 36
    assert len(rep["second_witnesses"]) == 2  # the two chain+B4 stackings
    verdicts = rep["verdicts"]
    assert all(v == "holds" for v in verdicts.values())


def test_extremal_report_n6_verdicts():
    verdicts = em.extremal_report(6)["verdicts"]
    assert all(v == "holds" for v in verdicts.values())


def edit_first(test, **values):
    """The records with the first one that passes test updated by values."""

    def edit(records):
        i = next(i for i, r in enumerate(records) if test(r))
        return records[:i] + [{**records[i], **values}] + records[i + 1:]

    return edit


def other(r):
    """Neither a chain nor a glued B4 or N5 stack."""
    return not (r["is_chain"] or r["glued_b4"] or r["glued_n5"])


# (edit of the order-6 records, the verdicts that then fail); g_max(6) = 160,
# g_sb(6) = 88, the chain has 2^5 = 32 congruences and a glued B4 2^4 = 16,
# and the N5 stacks have ce 54 and 5 * 2 = 10
RECORD_FAULTS = {
    "a second chain": (lambda rs: rs + [{**next(r for r in rs if r["is_chain"]), "canon": "ff"}], {"thm_b"}),
    "a chain below g_max": (edit_first(lambda r: r["is_chain"], ce=159), {"thm_b"}),
    "no chain": (edit_first(lambda r: r["is_chain"], is_chain=False), {"thm_b", "thm_c", "manycon"}),
    "a chain with one congruence fewer": (edit_first(lambda r: r["is_chain"], con_size=31), {"manycon"}),
    "a glued B4 not recognised": (edit_first(lambda r: r["glued_b4"], glued_b4=False), {"thm_c", "manycon"}),
    "a glued B4 with two antichain pairs": (edit_first(lambda r: r["glued_b4"], antichain_pairs=2), {"thm_c"}),
    "a non-chain above g_sb": (edit_first(other, ce=89), {"thm_c"}),
    "a non-chain at g_sb": (edit_first(other, ce=88), {"thm_c"}),
    "a glued B4 below g_sb": (edit_first(lambda r: r["glued_b4"], ce=87), {"thm_c"}),
    "a glued B4 with one more congruence": (edit_first(lambda r: r["glued_b4"], con_size=17), {"manycon"}),
    "a non-chain with as many congruences as a glued B4": (edit_first(other, con_size=16), {"manycon"}),
    "an N5 stack off in CE": (edit_first(lambda r: r["glued_n5"], ce=55), {"pentagon"}),
    "an N5 stack off in |Con|": (edit_first(lambda r: r["glued_n5"], con_size=11), {"pentagon"}),
}


@pytest.mark.parametrize("case", sorted(RECORD_FAULTS))
def test_a_fault_in_one_record_fails_its_verdicts(case):
    # each verdict is a test on each record, and the chain count
    edit, failing = RECORD_FAULTS[case]
    verdicts = em._report(6, edit(em.extremal_report(6)["records"]))["verdicts"]
    assert {name for name, v in verdicts.items() if v != "holds"} == failing


def test_report_records_consistent():
    rep = em.extremal_report(5)
    for r in rep["records"]:
        lat = lt.from_covers(5, list(em.covers_from_key(bytes.fromhex(r["canon"]))))
        con = cg.all_congruences(lat)
        assert r["ce"] == en.congruence_energy(con)
        assert r["con_size"] == len(con)
        assert r["is_chain"] == lt.is_chain(lat)
        assert r["glued_b4"] == (r["antichain_pairs"] == 1)


def covers_from_code(code):
    """The covers of the poset whose canonical code is ``code``: bit (i, j)
    of the n*n matrix, most significant first, is i <= j."""
    n = code[0]
    matrix = int.from_bytes(code[1:], "big")

    def leq(i, j):
        return bool(matrix >> (n * n - 1 - (i * n + j)) & 1)

    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and leq(i, j) and not any(leq(i, z) and leq(z, j) for z in range(n) if z not in (i, j))
    )


def test_records_are_labelled_by_their_key():
    for n in range(1, 9):
        for r in em.extremal_report(n)["records"]:
            key = bytes.fromhex(r["canon"])
            covers = em.covers_from_key(key)
            assert covers == covers_from_code(key)
            assert covers == lt.from_order_bits(n, lt._up_rows_from_code(key)).covers
            assert all(a < b for a, b in covers)  # bottom 0, top n - 1
            lat = lt.from_covers(n, list(covers))
            assert lt.canonical_form(lat).hex() == r["canon"]


def lattice_route_record(key):
    """Oracle: the record of the class with canonical form ``key``, made
    from a validated Lattice rebuilt from the key."""
    lat = lt.from_order_bits(key[0], lt._up_rows_from_code(key))
    energies = cg.congruence_energies(lat)
    return {
        "canon": key.hex(),
        "ce": sum(energies),
        "con_size": len(energies),
        "is_chain": lt.is_chain(lat),
        "antichain_pairs": lt.count_two_element_antichains(lat),
        "glued_b4": em.decomposes_as_chain_b4_chain(lat),
        "glued_n5": em.is_glued_n5_shape(lat),
    }


def test_folded_records_match_the_lattice_route():
    # each record is folded from the rows of the generator's first child
    # in its class, in that child's labelling, not from the key
    for n in range(1, 9):
        records = em.extremal_report(n)["records"]
        assert len(records) == KNOWN_COUNTS[n]
        for r in records:
            assert r == lattice_route_record(bytes.fromhex(r["canon"]))


def test_report_deterministic_and_json_stable():
    a = em.extremal_report(5)
    b = em.extremal_report(5)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_ce_and_con_size_are_incomparable_orders():
    # a chain can have lower energy yet more congruences than a wide lattice
    c3 = lt.chain(3)
    wide = lt.from_covers(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)]
    )
    ce_c, con_c = 0, cg.all_congruences(c3)
    ce_c = en.congruence_energy(con_c)
    con_w = cg.all_congruences(wide)
    ce_w = en.congruence_energy(con_w)
    assert ce_c == 8 and len(con_c) == 4
    assert ce_w == 10 and len(con_w) == 2
    assert ce_c < ce_w and len(con_c) > len(con_w)


def scanned_down_sets(dn, k):
    """Oracle: every nonempty subset of the k-element prefix tested for
    closure, ascending."""
    return [
        mask
        for mask in range(1, 1 << k)
        if all(dn[j] & ~mask == 0 for j in range(k) if mask >> j & 1)
    ]


def test_down_closed_subsets_match_the_subset_scan(monkeypatch):
    # every prefix the generator reaches up to order 8
    grow = em._down_closed_subsets
    prefixes = []

    def recorded(dn, k):
        prefixes.append((list(dn), k))
        return grow(dn, k)

    monkeypatch.setattr(em, "_down_closed_subsets", recorded)
    for n in range(3, 9):
        assert len(em.all_lattices(n)) == KNOWN_COUNTS[n]
    assert prefixes
    for dn, k in prefixes:
        assert grow(dn, k) == scanned_down_sets(dn, k)


def tuple_refined_invariants(n, up_sz, dn_sz, up_cov, dn_cov):
    """Oracle: the refinement on tuples, as ``_refined_invariants`` was
    before its rounds were packed into ints."""
    raw = [(dn_sz[a], up_sz[a], len(dn_cov[a]), len(up_cov[a])) for a in range(n)]
    ranks = {t: i for i, t in enumerate(sorted(set(raw)))}
    inv = [ranks[t] for t in raw]
    if len(ranks) == n:
        return inv
    for _ in range(n):
        raw = [
            (inv[a], tuple(sorted([inv[b] for b in dc])), tuple(sorted([inv[b] for b in uc])))
            for a, dc, uc in zip(range(n), dn_cov, up_cov)
        ]
        ranks = {t: i for i, t in enumerate(sorted(set(raw)))}
        if len(ranks) == len(set(inv)):
            break
        inv = [ranks[t] for t in raw]
    return inv


def refinement_args(up):
    """The arguments ``canonical_order_matrix`` passes to the refinement,
    for the poset with up rows ``up``; the twin classes are counted from
    the order predicate."""
    n = len(up)
    dn, lower = rows_of(up)
    upper = [[b for b in range(n) if a in lower[b]] for a in range(n)]
    twin_classes = n - sum(len(c) - 1 for c in brute_twin_classes(up))
    return n, [u.bit_count() for u in up], [d.bit_count() for d in dn], upper, lower, twin_classes


def random_poset(rng, n):
    """The up rows of a random poset on n elements, randomly labelled: each
    pair is related with a random density along a random linear order,
    then closed."""
    order = rng.sample(range(n), n)
    p = rng.random()
    up = [1 << a for a in range(n)]
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if rng.random() < p:
                up[a] |= 1 << b
    return lt._transitive_closure(up)


def test_packed_refinement_matches_the_tuple_refinement(monkeypatch):
    # every labelling the generator asks for up to order 9, in one process
    fast = lt._refined_invariants
    calls = []

    def checked(*args):
        got = fast(*args)
        assert got == tuple_refined_invariants(*args[:5])
        calls.append(args[0])
        return got

    monkeypatch.setattr(lt, "_refined_invariants", checked)
    monkeypatch.setattr(em, "_workers", lambda: 1)
    for n in range(1, 10):
        em._keyed_lattices(n, lambda key, lat: None)
    assert set(calls) == set(range(1, 10))
    # M_k has k atoms of one rank under its top: the most covers of one
    # rank the generator meets, k <= 9
    for k in range(1, 10):
        lat = lt.from_covers(k + 2, [(0, a) for a in range(1, k + 1)] + [(a, k + 1) for a in range(1, k + 1)])
        args = refinement_args(list(lat.up_bits))
        assert fast(*args) == tuple_refined_invariants(*args[:5])
    rng = random.Random(25)
    for _ in range(300):
        args = refinement_args(random_poset(rng, rng.randint(1, 11)))
        assert fast(*args) == tuple_refined_invariants(*args[:5])


@pytest.fixture
def workers(monkeypatch):
    """Set how many processes share the last level."""
    return lambda count: monkeypatch.setattr(em, "_workers", lambda: count)


def test_every_worker_count_gives_the_same_classes_in_the_same_order(workers, capsys):
    # 2 and 3 workers cut the 222 parents of order 9 into unequal slices
    assert em._FORK_FROM <= 9
    items, lattices, texts = [], [], []
    for count in (1, 2, 3):
        workers(count)
        items.append(list(em._keyed_lattices(9, em._record).items()))
        lattices.append(em.all_lattices(9))
        assert cli.main(["enumerate", "--n", "9"]) == 0
        texts.append(capsys.readouterr().out)
    assert len(items[0]) == KNOWN_COUNTS[9]
    assert items[0] == items[1] == items[2]
    assert all(isinstance(lat, lt.Lattice) for lat in lattices[0])
    assert lattices[0] == lattices[1] == lattices[2]
    assert texts[0] == texts[1] == texts[2]


def test_the_worker_count_is_the_allowed_cpus_and_one_beside_a_thread():
    assert em._workers() == min(len(os.sched_getaffinity(0)), 8)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert em._workers() == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_fold(where, fold):
    """fold, except that the first class it meets in a forked worker
    (where="child"), or in this process (where="parent"), raises."""
    parent = os.getpid()

    def fails(key, lat):
        if (os.getpid() == parent) == (where == "parent"):
            raise RuntimeError(f"fold failed in the {where}")
        return fold(key, lat)

    return fails


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_fold_fails_the_enumeration(workers, count, where):
    workers(count)
    with pytest.raises(RuntimeError, match=f"fold failed in the {where}"):
        em._keyed_lattices(9, failing_fold(where, lambda key, lat: key))
    assert_no_child_left()


def test_a_failure_here_stops_a_worker_that_would_run_on(workers):
    workers(2)
    parent = os.getpid()

    def fold(key, lat):
        if os.getpid() != parent:
            time.sleep(60)  # still busy when this process fails
        raise RuntimeError("fold failed in the parent")

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="fold failed in the parent"):
        em._keyed_lattices(9, fold)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("count", [2, 3])
def test_a_failing_worker_exits_4_not_as_a_verdict(workers, monkeypatch, capsys, count):
    workers(count)
    monkeypatch.setattr(em, "_record", failing_fold("child", em._record))
    assert cli.main(["enumerate", "--n", "9"]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal-error: RuntimeError: fold failed in the child" in captured.err
    assert_no_child_left()


@pytest.mark.parametrize("count", [2, 3])
def test_a_killed_worker_fails_the_enumeration(workers, count):
    workers(count)
    parent = os.getpid()

    def fold(key, lat):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return key

    with pytest.raises(RuntimeError, match="signal 9"):
        em._keyed_lattices(9, fold)
    assert_no_child_left()


def cannot_start():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_worker_that_cannot_start_exits_4_not_as_an_input_error(workers, monkeypatch, capsys, call):
    # EAGAIN from os.fork or os.pipe is the host's failure: no process starts
    workers(2)
    monkeypatch.setattr(os, call, cannot_start)
    assert cli.main(["enumerate", "--n", "9"]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal-error: RuntimeError" in captured.err
    assert_no_child_left()


def test_a_worker_that_cannot_start_stops_the_worker_started_before_it(workers, monkeypatch):
    workers(3)
    fork, started = os.fork, []

    def fork_once():
        if started:
            cannot_start()
        started.append(fork())
        return started[-1]

    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(RuntimeError, match="cannot start an enumeration worker"):
        em._keyed_lattices(9, lambda key, lat: key)
    assert len(started) == 1
    assert_no_child_left()


def test_one_walk_gives_every_order_as_its_own_walk_does():
    # the same keys, in the same order, with the same representative rows;
    # the walk to 10 forks its last level, the walk to 9 labels order 9 in
    # this process
    def rows(key, lat):
        return lat.n, lat.up_bits, lat.dn_bits, lat.lower

    alone = {m: list(em._keyed_lattices(m, rows).items()) for m in range(1, 11)}
    assert len(alone[10]) == 5994
    for n in range(1, 11):
        orders = em._keyed_orders(n, rows)
        assert [list(found.items()) for found in orders] == [alone[m] for m in range(1, n + 1)]


def test_the_walk_from_first_gives_exactly_the_orders_first_to_n():
    def order(key, lat):
        return lat.n

    for n in range(1, 9):
        for first in range(1, n + 1):
            orders = em._keyed_orders(n, order, first)
            assert len(orders) == n - first + 1
            assert [set(found.values()) for found in orders] == [{m} for m in range(first, n + 1)]
            assert [len(found) for found in orders] == [KNOWN_COUNTS[m] for m in range(first, n + 1)]
    # past n, none: no order-n lattice is labelled as order first
    for n in range(1, 7):
        for first in range(n + 1, n + 4):
            assert em._keyed_orders(n, order, first) == []
            assert em.all_lattices_by_order(n, first) == []
            assert em.extremal_reports(n, first) == []


def test_enumerate_folds_only_its_own_order(workers, monkeypatch, capsys):
    workers(1)
    folded = []
    record = em._record

    def counted(key, lat):
        folded.append(lat.n)
        return record(key, lat)

    monkeypatch.setattr(em, "_record", counted)
    for n, count in KNOWN_COUNTS.items():
        folded.clear()
        assert cli.main(["enumerate", "--n", str(n)]) == 0
        capsys.readouterr()
        assert folded == [n] * count
    # the reports of every order from 4 to 8 fold each order's classes once
    folded.clear()
    reports = em.extremal_reports(8, 4)
    assert sorted(folded) == [m for m in range(4, 9) for _ in range(KNOWN_COUNTS[m])]
    assert reports == [em.extremal_report(m) for m in range(4, 9)]
