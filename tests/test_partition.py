import itertools
import random

import pytest

from conergy import algebra as alg
from conergy import congruence as cg
from conergy import enumeration as em
from conergy import partition as pt
from conergy.errors import BudgetExceeded, OutOfRange, SizeMismatch


def brute_partitions(n):
    """Independent enumeration: assign block labels left to right."""
    if n == 1:
        return [(0,)]
    out = []
    for labels in itertools.product(*(range(n) for _ in range(n))):
        first = {}
        rep = []
        ok = True
        for i, lab in enumerate(labels):
            if lab not in first:
                if lab != len(first):
                    ok = False
                    break
                first[lab] = i
            rep.append(first[lab])
        if ok:
            out.append(tuple(rep))
    return sorted(set(out))


def test_bottom_top():
    b = pt.bottom(3)
    t = pt.top(3)
    assert pt.blocks(b) == [(0,), (1,), (2,)]
    assert pt.blocks(t) == [(0, 1, 2)]
    assert pt.num_blocks(b) == 3 and pt.num_blocks(t) == 1
    assert pt.heq(b) == 0
    assert pt.heq(t) == 2
    assert pt.heq(pt.top(7)) == 6


def test_equ_pair():
    p = pt.join_pairs(4, [(1, 2)])
    assert pt.blocks(p) == [(0,), (1, 2), (3,)]
    assert pt.join_pairs(4, [(2, 2)]) == pt.bottom(4)
    assert pt.join_pairs(4, [(2, 1)]) == p
    for a, b in [(0, 1), (1, 3), (0, 3)]:
        assert pt.heq(pt.join_pairs(4, [(a, b)])) == 1
    with pytest.raises(OutOfRange):
        pt.join_pairs(4, [(0, 4)])


def test_canonical_form_is_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        p = pt.from_labels([rng.randint(0, n - 1) for _ in range(n)])
        assert pt.from_labels(p) == p
        pt.checked(len(p), p)  # canonical form passes validation


def test_noncanonical_rep_rejected():
    with pytest.raises(SizeMismatch):
        pt.checked(3, (1, 1, 2))
    with pytest.raises(SizeMismatch):
        pt.checked(2, (0, 0, 0))


def test_join_meet_examples():
    p = pt.from_labels([0, 0, 1, 2, 2])
    assert pt.join(p, pt.bottom(5)) == p
    assert pt.meet(p, pt.top(5)) == p
    j = pt.join(pt.join_pairs(4, [(0, 1)]), pt.join_pairs(4, [(1, 2)]))
    assert pt.blocks(j) == [(0, 1, 2), (3,)]
    assert pt.num_blocks(p) == 3 and pt.heq(p) == 2
    with pytest.raises(SizeMismatch):
        pt.join(pt.bottom(3), pt.bottom(4))


def test_lattice_laws_on_random_triples():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(2, 8)
        p, q, r = (
            pt.from_labels([rng.randint(0, n - 1) for _ in range(n)]) for _ in range(3)
        )
        assert pt.join(p, q) == pt.join(q, p)
        assert pt.meet(p, q) == pt.meet(q, p)
        assert pt.join(p, p) == p and pt.meet(p, p) == p
        assert pt.join(pt.join(p, q), r) == pt.join(p, pt.join(q, r))
        assert pt.meet(pt.meet(p, q), r) == pt.meet(p, pt.meet(q, r))
        assert pt.join(p, pt.meet(p, q)) == p
        assert pt.meet(p, pt.join(p, q)) == p


def test_semimodularity_of_heights():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(2, 8)
        p = pt.from_labels([rng.randint(0, n - 1) for _ in range(n)])
        q = pt.from_labels([rng.randint(0, n - 1) for _ in range(n)])
        assert pt.heq(pt.join(p, q)) + pt.heq(pt.meet(p, q)) <= pt.heq(p) + pt.heq(q)


def test_refinement_order():
    p = pt.from_labels([0, 0, 1, 2])
    q = pt.from_labels([0, 0, 0, 1])
    assert pt.leq(p, q)
    assert not pt.leq(q, p)
    assert pt.leq(pt.bottom(4), p) and pt.leq(p, pt.top(4))


def test_all_partitions_counts():
    assert len(pt.all_partitions(1)) == 1
    assert len(pt.all_partitions(3)) == 5
    # Stirling S2(4, 2) = 7
    assert sum(1 for p in pt.all_partitions(4) if pt.num_blocks(p) == 2) == 7
    with pytest.raises(BudgetExceeded):
        pt.all_partitions(13)


def test_all_partitions_matches_brute_enumeration():
    for n in range(1, 7):
        got = sorted(pt.all_partitions(n))
        assert got == brute_partitions(n)
        assert len(got) == len(set(got))


def growth_string(p):
    """The restricted growth string of p: each element's block numbered by
    the order of the blocks' least elements."""
    labels = {}
    return tuple(labels.setdefault(r, len(labels)) for r in p)


def test_iter_partitions_streams_the_list_in_growth_string_order():
    for n in range(1, 8):
        streamed = list(pt.iter_partitions(n))
        assert streamed == pt.all_partitions(n)
        strings = [growth_string(p) for p in streamed]
        assert strings == sorted(set(strings))
        assert len(strings) == len(brute_partitions(n))
    # the size checks are made at the call, before the first partition
    with pytest.raises(BudgetExceeded):
        pt.iter_partitions(pt.ALL_PARTITIONS_BUDGET + 1)
    with pytest.raises(OutOfRange):
        pt.iter_partitions(0)


def test_covering_criterion():
    # p covered by q in Equ  <=>  p <= q and q has one block fewer
    for n in range(2, 6):
        parts = pt.all_partitions(n)
        for p in parts:
            for q in parts:
                if not (pt.leq(p, q) and p != q):
                    continue
                strictly_between = any(
                    r != p and r != q and pt.leq(p, r) and pt.leq(r, q) for r in parts
                )
                covering = not strictly_between
                assert covering == (pt.num_blocks(q) == pt.num_blocks(p) - 1)


def test_serialized_rep_example():
    p = pt.from_labels(["a", "a", "b", "b", "c"])
    assert list(p) == [0, 0, 2, 2, 4]


def test_union_find_reps_match_component_labelling():
    # a random forest (each element pointing at a smaller one or at itself)
    # plus random pairs, against a naive labelling of the components
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(1, 10)
        parent = [rng.randrange(i + 1) for i in range(n)]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        edges = [(i, p) for i, p in enumerate(parent)] + pairs
        labels = list(range(n))
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                low = min(labels[a], labels[b])
                if labels[a] != low or labels[b] != low:
                    labels[a] = labels[b] = low
                    changed = True
        want = pt.from_labels(labels)
        assert pt.union_find(list(parent), pairs) == want


def old_iter_partitions(n):
    """The restricted growth strings in lexicographic order, each turned
    into a partition by from_labels."""
    rgs = [0] * n
    most = [0] * n
    while True:
        yield pt.from_labels(rgs)
        i = n - 1
        while i and rgs[i] > most[i - 1]:
            i -= 1
        if not i:
            return
        rgs[i] += 1
        most[i] = max(most[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            most[j] = most[i]


def test_iter_partitions_equals_from_labels_per_growth_string():
    for n in range(1, 9):
        assert list(pt.iter_partitions(n)) == list(old_iter_partitions(n))


def checked(p):
    """p is a plain tuple, which the checked constructor accepts and gives
    back unchanged."""
    assert type(p) is tuple
    assert pt.checked(len(p), p) == p
    return p


def test_checked_constructor_accepts_what_the_package_builds():
    for n in range(1, 9):
        for p in pt.iter_partitions(n):
            checked(p)
        for p in pt.all_partitions(n):
            checked(p)
        checked(pt.bottom(n))
        checked(pt.top(n))
    for n in range(1, 7):
        partitions = pt.all_partitions(n)
        for lat in em.all_lattices(n):
            con = cg.all_congruences(lat)
            for p in con.members + cg.brute_force_congruences(lat, partitions):
                checked(p)
            for a, b in lat.covers:
                checked(cg.principal_congruence(lat, a, b))
            principal = alg.principal_congruences(alg.lattice_as_algebra(lat))
            for p in principal.values():
                checked(p)
            for p in cg.join_closure(n, principal.values()).members:
                checked(p)
    rng = random.Random(2026)
    for _ in range(500):
        n = rng.randint(1, 9)
        p = checked(pt.from_labels([rng.randint(0, n - 1) for _ in range(n)]))
        q = checked(pt.from_labels([rng.randint(0, n - 1) for _ in range(n)]))
        checked(pt.join(p, q))
        checked(pt.meet(p, q))
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        checked(pt.join_pairs(n, pairs))


def test_empty_input_is_still_refused():
    with pytest.raises(SizeMismatch):
        pt.from_labels([])
    with pytest.raises(SizeMismatch):
        pt.join_pairs(0, [])
    with pytest.raises(SizeMismatch):
        pt.checked(0, ())
