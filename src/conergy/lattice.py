"""Finite lattices: validated construction, named builders, glued sums,
duality, and isomorphism for small orders.

Elements are integers 0..n-1.  The order matrix is stored as packed bit
rows: ``up_bits[a]`` has bit b set iff a <= b, and ``dn_bits[b]`` has bit a
set iff a <= b.  All values are immutable after construction.  Covers,
the join and meet tables and the canonical form all come from the rows:
the join of a and b is the element whose up-set is up_bits[a] & up_bits[b]
(one dict lookup, dually for the meet), and the canonical form takes the
rows and the lower covers themselves, not an order predicate.  It tries
one order per arrangement of twin classes, and returns the code and the
twin classes.
"""

import itertools
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    NotALattice,
    NotAPoset,
    OutOfRange,
    RedundantCover,
)

# Brute-force isomorphism (with invariant and twin pruning) is only sane up
# to here: without twins, an invariant class of k elements costs k! orders.
ISO_BUDGET = 10

# Construction builds n x n join and meet tables: chain 256 takes about
# 0.04 s on a 2-vCPU host with Python 3.11.  Chains past 15 elements
# already exceed the Con budget.
LATTICE_BUDGET = 256


@dataclass(frozen=True)
class PrimeInterval:
    lo: int
    hi: int


@dataclass(frozen=True)
class Lattice:
    n: int
    covers: tuple            # sorted tuple of (lo, hi) covering pairs
    up_bits: tuple           # up_bits[a] = bitmask of {b : a <= b}
    dn_bits: tuple           # dn_bits[b] = bitmask of {a : a <= b}
    join_table: tuple
    meet_table: tuple

    def leq(self, a, b):
        return bool(self.up_bits[a] >> b & 1)

    def join(self, a, b):
        return self.join_table[a][b]

    def meet(self, a, b):
        return self.meet_table[a][b]

    @property
    def bottom(self):
        full = (1 << self.n) - 1
        return next(a for a in range(self.n) if self.up_bits[a] == full)

    @property
    def top(self):
        full = (1 << self.n) - 1
        return next(a for a in range(self.n) if self.dn_bits[a] == full)

    def upper_covers(self, a):
        return sorted(b for (x, b) in self.covers if x == a)

    def lower_covers(self, b):
        return sorted(a for (a, x) in self.covers if x == b)

    def to_json_dict(self):
        return {"n": self.n, "covers": [list(c) for c in self.covers]}


def _closure_from_covers(n, covers):
    """Reflexive-transitive closure of the cover digraph, as up-bitmasks,
    by a Warshall pass over bit rows seeded with the covers.

    Raises NotAPoset on a cycle: elements on a cycle reach each other, so
    their rows are equal, and two elements with equal rows are each below
    the other.
    """
    up = [1 << v for v in range(n)]
    for a, b in covers:
        up[a] |= 1 << b
    _transitive_closure(up)
    if len(set(up)) != n:
        raise NotAPoset("cover relation contains a cycle")
    return up


def _tables_from_order(n, up, dn):
    """Join/meet tables from the order bitmasks; NotALattice if some pair
    has no least upper bound or no greatest lower bound.

    In a lattice the common upper bounds of a and b are the up-set of
    a v b, so the join is one lookup of up[a] & up[b] among the up-sets,
    and dually for the meet.  A pair has a least upper bound exactly when
    that lookup succeeds.
    """
    join_of = {u: z for z, u in enumerate(up)}
    meet_of = {d: z for z, d in enumerate(dn)}
    join_t = [tuple([join_of.get(ua & ub) for ub in up]) for ua in up]
    meet_t = [tuple([meet_of.get(da & db) for db in dn]) for da in dn]
    for a in range(n):
        if None in join_t[a] or None in meet_t[a]:
            b = next(b for b in range(a, n) if None in (join_t[a][b], meet_t[a][b]))
            what = "join" if join_t[a][b] is None else "meet"
            raise NotALattice(f"elements {a} and {b} have no unique {what}")
    return tuple(join_t), tuple(meet_t)


def _bits(mask):
    """The set bits of mask, ascending: the package's one set-bit walk."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _transitive_closure(rows):
    """Warshall's pass over bit rows, in place: afterwards row i holds
    every j reachable from i along the relation whose row i had bit j set.
    Returns rows."""
    for k in range(len(rows)):
        bit, row_k = 1 << k, rows[k]
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return rows


def _covers_from_order(n, up, dn):
    """The covering pairs (a, b), sorted: a < b with nothing in between.
    Only the elements strictly above a are tested."""
    return tuple(
        (a, b)
        for a in range(n)
        for b in _bits(up[a] ^ 1 << a)
        if (up[a] & dn[b]).bit_count() == 2
    )


def _transpose(rows):
    """The down rows of a poset from its up rows, or the up rows from its
    down rows: bit b of row a becomes bit a of row b."""
    out = [0] * len(rows)
    for a, m in enumerate(rows):
        for b in _bits(m):
            out[b] |= 1 << a
    return out


def from_order_bits(n, up):
    """Build a validated Lattice directly from up-bitmasks."""
    dn = _transpose(up)
    covers = _covers_from_order(n, up, dn)
    join_t, meet_t = _tables_from_order(n, up, dn)
    return Lattice(n, covers, tuple(up), tuple(dn), join_t, meet_t)


def from_covers(n, covers):
    """Validated lattice from a cover list.

    The input pairs must be true covering pairs: a pair implied by
    transitivity is rejected with RedundantCover rather than repaired.
    """
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    if n > LATTICE_BUDGET:
        raise BudgetExceeded(f"lattices limited to n <= {LATTICE_BUDGET}, got {n}")
    seen = set()
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            raise OutOfRange(f"cover ({a},{b}) outside 0..{n - 1}")
        if a == b:
            raise NotAPoset(f"reflexive cover ({a},{b})")
        seen.add((a, b))
    up = _closure_from_covers(n, sorted(seen))
    lat = from_order_bits(n, up)
    extra = seen - set(lat.covers)
    if extra:
        raise RedundantCover(f"input pairs are not covering pairs: {sorted(extra)}")
    return lat


def chain(n):
    """The n-element chain 0 < 1 < ... < n-1.  The covers are a generator,
    so a size past LATTICE_BUDGET is refused before any is made."""
    return from_covers(n, ((i, i + 1) for i in range(n - 1)))


# N5 labels: 0 < P < Q < 4 on the long side, 0 < A < 4 on the short side.
N5_P, N5_Q, N5_A = 1, 2, 3

_NAMED_COVERS = {
    "B4": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "M3": (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    "N5": (5, [(0, N5_P), (N5_P, N5_Q), (N5_Q, 4), (0, N5_A), (N5_A, 4)]),
}


def named(ident):
    try:
        n, covers = _NAMED_COVERS[ident]
    except KeyError:
        raise OutOfRange(f"unknown lattice name {ident!r}") from None
    return from_covers(n, covers)


def glued_sum(base, *parts):
    """Stack the parts on top of base, bottom to top, identifying the top
    of each lattice with the bottom of the next, and validate the stack
    once, from one cover list.

    Result size is the sum of the sizes minus the number of parts; base
    keeps its labels, and the non-bottom elements of each part get fresh
    labels in their original order, so glued_sum(u, v, w) equals
    glued_sum(glued_sum(u, v), w).
    """
    t, nxt = base.top, base.n
    covers = list(base.covers)
    for v in parts:
        relabel = {}
        for x in range(v.n):
            if x == v.bottom:
                relabel[x] = t
            else:
                relabel[x] = nxt
                nxt += 1
        covers += [(relabel[a], relabel[b]) for a, b in v.covers]
        t = relabel[v.top]
    return from_covers(nxt, covers)


def dual(lat):
    """Order-reversed lattice, relabelled i -> n-1-i so dual(dual(L)) == L."""
    n = lat.n
    covers = [(n - 1 - b, n - 1 - a) for a, b in lat.covers]
    return from_covers(n, covers)


def is_chain(lat):
    return count_two_element_antichains(lat) == 0


def count_two_element_antichains(lat):
    """The number of incomparable pairs of L."""
    return _antichain_pairs(lat.n, lat.up_bits, lat.dn_bits)


def _antichain_pairs(n, up, dn):
    """Incomparable pairs: each element's row of elements comparable to
    it is up | dn, so every pair is missed by both of its rows."""
    full = (1 << n) - 1
    return sum((full & ~(u | d)).bit_count() for u, d in zip(up, dn)) // 2


def _rows(lat):
    """(n, up rows, down rows, lower-cover lists): the lattice as the row
    functions take it, the form the generator holds each child in."""
    lower = [[] for _ in range(lat.n)]
    for a, b in lat.covers:
        lower[b].append(a)
    return lat.n, lat.up_bits, lat.dn_bits, lower


def _refined_invariants(n, up_sz, dn_sz, up_cov, dn_cov):
    """Label-independent invariant per element, refined a la
    Weisfeiler-Leman over the cover graph until stable.  A discrete
    partition is already stable, so it is returned at once."""
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
            break  # no class split, so the ranks are inv's own
        inv = [ranks[t] for t in raw]
    return inv


def _twin_sorted_orders(twins):
    """The orders of the union of the twin classes (each ascending) that
    list every class in increasing label order: at each position the
    candidates are the least unused member of each class."""
    if len(twins) == 1:
        yield tuple(twins[0])
        return
    for i, c in enumerate(twins):
        rest = twins[:i] + ([c[1:]] if len(c) > 1 else []) + twins[i + 1:]
        for tail in _twin_sorted_orders(rest):
            yield (c[0],) + tail


def canonical_order_matrix(n, up, dn, lower):
    """Minimal packed order matrix over all invariant-respecting
    relabellings of a poset, and the poset's twin classes.

    The poset is given by its packed up rows (bit b of ``up[a]`` set iff
    a <= b), its down rows (bit a of ``dn[b]`` set iff a <= b) and the
    list of lower covers of each element; none of them is rebuilt here.

    A relabelling sigma lists the elements by new label; its code is the
    n*n-bit matrix whose bit (i, j), most significant first, is
    sigma[i] <= sigma[j].  Row i of a candidate is built by summing, over
    the elements above sigma[i], the weight 2^(n-1-j) of their new label j.
    Rows have n bits each, so comparing the row lists lexicographically
    compares the codes, and the code is their minimum, whatever the order
    in which the candidates come.

    Twins are elements with the same strict down-set and strict up-set,
    like the atoms of M_k; swapping two twins is an automorphism, so twins
    share an invariant class, and a relabelling and its image under a twin
    swap have the same code.  Within each class only the orders that list
    every twin class in increasing label order are tried: twin swaps turn
    any order into one of these and keep its code, so the minimum is the
    full search's.

    Returns (code, twins), twins the twin classes of two or more elements,
    each ascending.
    """
    above = [[b for b in range(n) if row >> b & 1] for row in up]
    upper = [[] for _ in range(n)]
    for b, cov in enumerate(lower):
        for a in cov:
            upper[a].append(b)
    up_sz = [len(elems) for elems in above]
    dn_sz = [m.bit_count() for m in dn]
    inv = _refined_invariants(n, up_sz, dn_sz, upper, lower)
    classes = {}
    for a in range(n):
        classes.setdefault(inv[a], []).append(a)
    orders, twins = [], []
    for k in sorted(classes):
        g = classes[k]
        if len(g) > 1:
            twin_of = {}
            for a in g:
                twin_of.setdefault((dn[a] ^ 1 << a, up[a] ^ 1 << a), []).append(a)
            if len(twin_of) < len(g):
                cs = list(twin_of.values())
                twins += [tuple(c) for c in cs if len(c) > 1]
                orders.append(_twin_sorted_orders(cs))
                continue
        orders.append(itertools.permutations(g))
    weight = [0] * n
    powers = [1 << (n - 1 - j) for j in range(n)]
    get = weight.__getitem__

    def rows(parts):
        sigma = [x for part in parts for x in part]
        for x, w in zip(sigma, powers):
            weight[x] = w
        return [sum(map(get, above[si])) for si in sigma]

    code = 0
    for row in min(map(rows, itertools.product(*orders))):
        code = code << n | row
    return bytes([n]) + code.to_bytes((n * n + 7) // 8, "big"), tuple(twins)


def _up_rows_from_code(code):
    """The up rows of the poset whose canonical code is ``code``, in the
    canonical labelling: bit (i, j) of the n*n matrix, most significant
    first, is i <= j."""
    n = code[0]
    matrix = int.from_bytes(code[1:], "big")
    rows = [matrix >> (n * (n - 1 - i)) & ((1 << n) - 1) for i in range(n)]
    return [int(format(row, f"0{n}b")[::-1], 2) for row in rows]


def canonical_form(lat):
    """Permutation-invariant byte string, injective up to isomorphism."""
    if lat.n > ISO_BUDGET:
        raise BudgetExceeded(f"canonical_form limited to n <= {ISO_BUDGET}")
    return canonical_order_matrix(*_rows(lat))[0]


def are_isomorphic(l1, l2):
    if l1.n != l2.n:
        return False
    return canonical_form(l1) == canonical_form(l2)
