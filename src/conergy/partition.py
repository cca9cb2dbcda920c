"""Set partitions (equivalence relations) on {0..n-1}.

A partition is its canonical rep tuple: ``rep[i]`` is the least element of
the block containing ``i``, and ``n`` is the tuple's length.  Equal
partitions are therefore equal tuples, so they hash and dedup cleanly.
Only untrusted input is checked, by ``checked(n, rep)``, as ``quotient
--by`` calls it; the package's own producers (``from_labels``, ``bottom``,
``top``, ``join``, ``meet``, ``join_pairs``, ``iter_partitions`` and Con's
routes) make canonical rep tuples by construction.
"""

from .errors import BudgetExceeded, OutOfRange, SizeMismatch

# B(12) = 4_213_597 partitions; anything above that is not desk scale.
ALL_PARTITIONS_BUDGET = 12


def checked(n, rep):
    """The rep tuple, once it is checked to be a canonical partition of n
    points."""
    if n < 1 or len(rep) != n:
        raise SizeMismatch(f"rep length {len(rep)} != n {n}")
    for i, r in enumerate(rep):
        if not (0 <= r <= i) or rep[r] != r:
            raise SizeMismatch(f"rep {rep} is not in canonical form")
    return rep


def blocks(p):
    """Blocks as sorted tuples, ordered by least element."""
    by_rep = {}
    for i, r in enumerate(p):
        by_rep.setdefault(r, []).append(i)
    return [tuple(by_rep[r]) for r in sorted(by_rep)]


def from_labels(labels):
    """The partition of 0..n-1 with any block-labelling (normalizing)."""
    first = {}
    rep = tuple([first.setdefault(lab, i) for i, lab in enumerate(labels)])
    if not rep:
        raise SizeMismatch("a partition needs at least one label")
    return rep


def bottom(n):
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    return tuple(range(n))


def top(n):
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    return (0,) * n


def num_blocks(p):
    return len(set(p))


def heq(p):
    """Height of p in the equivalence lattice: n minus the block count."""
    return len(p) - num_blocks(p)


def leq(p, q):
    """Refinement order: every p-block is inside a q-block."""
    if len(p) != len(q):
        raise SizeMismatch(f"universe sizes differ: {len(p)} vs {len(q)}")
    return all(q[i] == q[r] for i, r in enumerate(p))


def meet(p, q):
    """Common refinement: blocks are intersections of blocks."""
    if len(p) != len(q):
        raise SizeMismatch(f"universe sizes differ: {len(p)} vs {len(q)}")
    return from_labels(list(zip(p, q)))


def union_find(parent, pairs, translations=()):
    """Least equivalence containing the forest ``parent`` (each element
    pointing at a smaller one or at itself) and the pairs, all in range,
    and closed under the given translations (maps as tuples of length n),
    as its canonical rep tuple.

    A root is always the least element of its class.  Each merge of two
    roots puts their images under every translation on the worklist, so
    the closure costs O(n * len(translations)) finds: the merged root pairs
    generate the equivalence, and a translation preserves it iff it
    preserves each generating pair.  Merges and path halving keep every
    parent pointer at a smaller element, so one forward pass of
    ``parent[i] = parent[parent[i]]`` leaves each element at its root.
    """

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(pairs)
    for a, b in work:
        ra = a if parent[a] == a else find(a)
        rb = b if parent[b] == b else find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
            for t in translations:
                x, y = t[lo], t[hi]
                if x != y:
                    work.append((x, y))
    for i in range(len(parent)):
        parent[i] = parent[parent[i]]
    return tuple(parent)


def join(p, q):
    """Transitive closure of the union: p's rep array is already a forest,
    so only q's non-trivial pairs are added."""
    if len(p) != len(q):
        raise SizeMismatch(f"universe sizes differ: {len(p)} vs {len(q)}")
    return union_find(list(p), [(i, r) for i, r in enumerate(q) if r != i])


def join_pairs(n, pairs, translations=()):
    """Least equivalence on n points containing all the given pairs and
    closed under the given translations (maps as tuples of length n): the
    congruence the pairs generate when the translations are the basic
    unary translations of an algebra or the rows of a lattice's join and
    meet tables.  A pair outside 0..n-1 raises OutOfRange."""
    pairs = list(pairs)
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise OutOfRange(f"pair ({a},{b}) outside 0..{n - 1}")
    if n < 1:
        raise SizeMismatch(f"a partition needs n >= 1, got {n}")
    return union_find(list(range(n)), pairs, translations)


def iter_partitions(n):
    """Every set partition of {0..n-1}, once, in restricted-growth-string
    lexicographic order, one at a time.  The size checks are made at the
    call, before the first partition."""
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    if n > ALL_PARTITIONS_BUDGET:
        raise BudgetExceeded(f"all_partitions limited to n <= {ALL_PARTITIONS_BUDGET}")
    return _restricted_growth_strings(n)


def _restricted_growth_strings(n):
    """The successor of a restricted growth string raises its last entry
    that is at most the largest one before it and zeroes what follows.  An
    element's rep is where its label first occurs, so the rep tuple keeps
    its head, and the tail after the raised entry becomes zeros.  The last
    entry runs through its labels in an inner loop: the last element joins
    each block of the head in turn, and then stands alone."""
    if n == 1:
        yield (0,)
        return
    m = n - 1  # the head's length
    rgs = [0] * m
    most = [0] * m  # most[i]: the largest of rgs[0..i]
    first = [0] * m  # first[k]: where label k first occurs
    head = (0,) * m
    while True:
        for r in first[: most[-1] + 1]:
            yield head + (r,)
        yield head + (m,)
        i = m - 1
        while i and rgs[i] > most[i - 1]:
            i -= 1
        if not i:
            return
        lab = rgs[i] = rgs[i] + 1
        if lab > most[i - 1]:
            first[lab] = i
        most[i] = max(most[i - 1], lab)
        rgs[i + 1:] = [0] * (m - i - 1)
        most[i + 1:] = [most[i]] * (m - i - 1)
        head = head[:i] + (first[lab],) + (0,) * (m - i - 1)


def all_partitions(n):
    """Every set partition of {0..n-1} as a list, in the order of
    iter_partitions (so the list is deterministic)."""
    return list(iter_partitions(n))
