"""Finite lattices: validated construction, named builders, glued sums,
duality, and isomorphism for small orders.

Elements are integers 0..n-1.  A lattice is its packed bit rows and its
lower covers, the form the generator holds each class in: bit b of
``up_bits[a]`` and bit a of ``dn_bits[b]`` are set iff a <= b, and
``lower[b]`` lists the elements b covers, ascending; the sorted covering
pairs are derived from them.  There are no tables: the join of a and b is
the element whose up-set is up_bits[a] & up_bits[b], one lookup in a dict
built once per lattice, and dually for the meet.  Only untrusted input is
checked (``from_covers``, ``from_order_bits``); chains, glued sums,
quotients and the generator's classes are lattices by theorem and build
their rows directly.  Every function here and in ``congruence`` and
``enumeration`` takes a Lattice; only the canonical form's kernel takes
bare rows, since the generator's prefixes are not lattices.
"""

import functools
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

# Validation tests all n^2 pairs: from_covers on chain 256 takes about 0.07 s
# on a 2-vCPU host with Python 3.11, chain(256) unchecked under 1 ms.  Chains
# past 15 elements already exceed the Con budget.
LATTICE_BUDGET = 256


@dataclass(frozen=True)
class PrimeInterval:
    lo: int
    hi: int


@dataclass(frozen=True)
class Lattice:
    n: int
    up_bits: tuple           # up_bits[a] = bitmask of {b : a <= b}
    dn_bits: tuple           # dn_bits[b] = bitmask of {a : a <= b}
    lower: tuple             # lower[b] = ascending tuple of the a that b covers

    @functools.cached_property
    def covers(self):
        """The covering pairs (lo, hi), sorted."""
        return tuple(sorted((a, b) for b, cov in enumerate(self.lower) for a in cov))

    @functools.cached_property
    def _join_of(self):
        return {u: z for z, u in enumerate(self.up_bits)}

    @functools.cached_property
    def _meet_of(self):
        return {d: z for z, d in enumerate(self.dn_bits)}

    @functools.cached_property
    def _upper(self):
        """_upper[a]: the elements that cover a, ascending."""
        upper = [[] for _ in range(self.n)]
        for b, cov in enumerate(self.lower):
            for a in cov:
                upper[a].append(b)
        return upper

    def leq(self, a, b):
        return bool(self.up_bits[a] >> b & 1)

    def join(self, a, b):
        return self._join_of[self.up_bits[a] & self.up_bits[b]]

    def meet(self, a, b):
        return self._meet_of[self.dn_bits[a] & self.dn_bits[b]]

    @property
    def bottom(self):
        return self.up_bits.index((1 << self.n) - 1)

    @property
    def top(self):
        return self.dn_bits.index((1 << self.n) - 1)

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


def _check_lattice(n, up, dn):
    """NotALattice naming the first pair a <= b with no join or meet: a pair
    has a join iff up[a] & up[b] is some element's up row; dually for meet."""
    ups, dns = set(up), set(dn)
    for a in range(n):
        ua, da = up[a], dn[a]
        if not ({ua & u for u in up} <= ups and {da & d for d in dn} <= dns):
            b = next(b for b in range(a, n) if ua & up[b] not in ups or da & dn[b] not in dns)
            what = "join" if ua & up[b] not in ups else "meet"
            raise NotALattice(f"elements {a} and {b} have no unique {what}")


def _bits(mask):
    """The set bits of mask, ascending: the package's one set-bit walk."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _transitive_closure(rows, over=None):
    """Warshall's pass over bit rows, in place: afterwards row i holds
    every j reachable from i along the relation whose row i had bit j set.
    With ``over``, the pass runs over those indices only; that is the full
    pass when the other rows are 0 and no row has a bit outside ``over``.
    Returns rows."""
    over = range(len(rows)) if over is None else over
    for k in over:
        bit, row_k = 1 << k, rows[k]
        for i in over:
            row = rows[i]
            if row & bit:
                rows[i] = row | row_k
    return rows


def _lower_from_order(dn):
    """The lower covers of each element, ascending: b covers a when a lies
    in the strict down-set of b but below none of its other members."""
    strict, out = [d ^ 1 << b for b, d in enumerate(dn)], []
    for s in strict:
        below = 0
        for c in _bits(s):
            below |= strict[c]
        out.append(tuple(_bits(s & ~below)))
    return out


def _transpose(rows):
    """The down rows of a poset from its up rows, or the up rows from its
    down rows: bit b of row a becomes bit a of row b."""
    out = [0] * len(rows)
    for a, m in enumerate(rows):
        for b in _bits(m):
            out[b] |= 1 << a
    return out


def _from_rows(n, up, dn, lower):
    """A Lattice from rows that are a lattice's by theorem: no check.  Each
    of lower's lists must already be an ascending tuple."""
    return Lattice(n, tuple(up), tuple(dn), tuple(lower))


def _check_size(n):
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    if n > LATTICE_BUDGET:
        raise BudgetExceeded(f"lattices limited to n <= {LATTICE_BUDGET}, got {n}")


def from_order_bits(n, up):
    """Build a validated Lattice directly from up-bitmasks."""
    dn = _transpose(up)
    _check_lattice(n, up, dn)
    return _from_rows(n, up, dn, _lower_from_order(dn))


def from_covers(n, covers):
    """Validated lattice from a cover list.

    The input pairs must be true covering pairs: a pair implied by
    transitivity is rejected with RedundantCover rather than repaired.
    """
    _check_size(n)
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
    """The n-element chain 0 < 1 < ... < n-1, its size checked first."""
    _check_size(n)
    up = [(1 << n) - (1 << a) for a in range(n)]
    return _from_rows(n, up, [(2 << b) - 1 for b in range(n)], [()] + [(a,) for a in range(n - 1)])


# N5 labels: 0 < P < Q < 4 on the long side, 0 < A < 4 on the short side.
N5_P, N5_Q, N5_A = 1, 2, 3

_NAMED = {  # fixed data, validated once at import; named() hands out these
    "B4": from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "M3": from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    "N5": from_covers(5, [(0, N5_P), (N5_P, N5_Q), (N5_Q, 4), (0, N5_A), (N5_A, 4)]),
}


def named(ident):
    if ident not in _NAMED:
        raise OutOfRange(f"unknown lattice name {ident!r}")
    return _NAMED[ident]


def glued_sum(base, *parts):
    """Stack the parts on top of base, bottom to top, identifying the top
    of each lattice with the bottom of the next.  A stack of lattices is a
    lattice, so after the size check its rows are built directly.

    Result size is the sum of the sizes minus the number of parts; base
    keeps its labels, and the non-bottom elements of each part get fresh
    labels in their original order, so glued_sum(u, v, w) equals
    glued_sum(glued_sum(u, v), w).
    """
    _check_size(n := base.n + sum(v.n - 1 for v in parts))
    up, dn, lower = list(base.up_bits), list(base.dn_bits), list(base.lower)
    t, nxt = base.top, base.n
    for v in parts:
        b, new = v.bottom, ((1 << v.n - 1) - 1) << nxt
        label = [t if x == b else nxt + x - (x > b) for x in range(v.n)]
        # v's rows without its bottom, in stack labels: from nxt on, skipping b
        rows = [(m & ~(-1 << b)) << nxt | (m >> b + 1) << (nxt + b) for m in v.up_bits + v.dn_bits]
        up = [u | new for u in up] + [r for x, r in enumerate(rows[:v.n]) if x != b]
        dn += [(1 << nxt) - 1 | r for x, r in enumerate(rows[v.n:]) if x != b]
        # label increases off b, and an element covering b covers nothing
        # else, so each relabelled list stays ascending
        lower += [tuple([label[a] for a in cov]) for x, cov in enumerate(v.lower) if x != b]
        t, nxt = label[v.top], nxt + v.n - 1
    return _from_rows(n, up, dn, lower)


def dual(lat):
    """Order-reversed lattice, relabelled i -> n-1-i so dual(dual(L)) == L."""
    n = lat.n
    covers = [(n - 1 - b, n - 1 - a) for a, b in lat.covers]
    return from_covers(n, covers)


def is_chain(lat):
    return count_two_element_antichains(lat) == 0


def count_two_element_antichains(lat):
    """The number of incomparable pairs of L: each element's row of
    elements comparable to it is up | dn, so every pair is missed by both
    of its rows."""
    full = (1 << lat.n) - 1
    return sum((full & ~(u | d)).bit_count() for u, d in zip(lat.up_bits, lat.dn_bits)) // 2


def _refined_invariants(n, up_sz, dn_sz, up_cov, dn_cov, twin_classes):
    """Label-independent invariant per element, refined a la
    Weisfeiler-Leman over the cover graph until stable (McKay and Piperno,
    "Practical graph isomorphism II", 2014), as dense ranks.  Twins, being
    swapped by an automorphism, are never split, so a partition with as
    many classes as there are twin classes (``twin_classes``, counting
    single elements) is already stable and is returned at once.

    Round 0 ranks (|down-set|, |up-set|, #lower covers, #upper covers),
    packed into one int, w = n.bit_length() bits a field.  Each later round
    ranks (rank, sorted ranks of the lower covers, sorted ranks of the
    upper covers), also packed into one int: a list of ranks r_i packs as
    M - sum B^(n-1-r_i), with B = 2^w and M = B^n - 1.  Two elements of
    one rank have cover lists of equal lengths, and no rank occurs n times
    in one list, so on such lists lexicographic order of the sorted ranks
    is the reverse of the order of the sums.  The ranks are therefore
    those of the tuples themselves."""
    w = n.bit_length()
    raw = [
        ((d << w | u) << w | len(dc)) << w | len(uc)
        for d, u, dc, uc in zip(dn_sz, up_sz, dn_cov, up_cov)
    ]
    ranks = {t: i for i, t in enumerate(sorted(set(raw)))}
    inv = [ranks[t] for t in raw]
    s = w * n
    full = (1 << s) - 1
    for _ in range(n):
        if len(ranks) == twin_classes:
            break
        get = [1 << w * (n - 1 - r) for r in inv].__getitem__
        raw = [
            (r << s | full ^ sum(map(get, dc))) << s | full ^ sum(map(get, uc))
            for r, dc, uc in zip(inv, dn_cov, up_cov)
        ]
        classes = len(ranks)
        ranks = {t: i for i, t in enumerate(sorted(set(raw)))}
        if len(ranks) == classes:
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
    sigma[i] <= sigma[j].  Rows have n bits each, so comparing the row
    lists lexicographically compares the codes, and the code is their
    minimum, whatever the order in which the candidates come.  Every
    candidate is a linear extension, since a < b gives a the smaller
    down-set and so the smaller invariant, and elements of one class are
    incomparable.  So its rows are built from the top down: the row of x
    is its own bit OR the rows of its upper covers, one OR per cover.

    Twins are elements with the same strict down-set and strict up-set,
    like the atoms of M_k; swapping two twins is an automorphism, so twins
    share an invariant class, and a relabelling and its image under a twin
    swap have the same code.  Within each class only the orders that list
    every twin class in increasing label order are tried: twin swaps turn
    any order into one of these and keep its code, so the minimum is the
    full search's.

    Returns (code, twins), twins the twin classes of two or more elements,
    each ascending.  When every class is one element or one twin class,
    there is one candidate, the classes in rank order, and no search.
    """
    upper = [[] for _ in range(n)]
    for b, cov in enumerate(lower):
        for a in cov:
            upper[a].append(b)
    twin_key = [(d ^ 1 << a, u ^ 1 << a) for a, (d, u) in enumerate(zip(dn, up))]
    twin_classes = len(set(twin_key))
    inv = _refined_invariants(
        n, [u.bit_count() for u in up], [d.bit_count() for d in dn], upper, lower, twin_classes
    )
    groups = [[] for _ in range(max(inv) + 1)]
    for a, r in enumerate(inv):
        groups[r].append(a)
    row = [0] * n
    powers = [1 << j for j in range(n)]

    def rows(parts):
        sigma = [x for part in parts for x in part]
        for x, w in zip(reversed(sigma), powers):
            for b in upper[x]:
                w |= row[b]
            row[x] = w
        return [row[x] for x in sigma]

    # every class is a union of twin classes
    if len(groups) == twin_classes:  # each class one twin class: one candidate
        twins = [tuple(g) for g in groups if len(g) > 1]
        best = rows(groups)
    else:
        orders, twins = [], []
        for g in groups:
            twin_of = {}
            for a in g:
                twin_of.setdefault(twin_key[a], []).append(a)
            cs = list(twin_of.values())
            twins += [tuple(c) for c in cs if len(c) > 1]
            if len(cs) == 1:
                orders.append((g,))
            elif len(cs) < len(g):
                orders.append(_twin_sorted_orders(cs))
            else:
                orders.append(itertools.permutations(g))
        best = min(map(rows, itertools.product(*orders)))
    code = 0
    for r in best:
        code = code << n | r
    return bytes([n]) + code.to_bytes((n * n + 7) // 8, "big"), tuple(twins)


_REVERSED_BITS = bytes(sum((x >> i & 1) << (7 - i) for i in range(8)) for x in range(256))


def _up_rows_from_code(code):
    """The up rows of the poset whose canonical code is ``code``, in the
    canonical labelling: bit (i, j) of the n*n matrix, most significant
    first, is i <= j; reversing its bits a byte at a time puts it at n*i + j."""
    n = code[0]
    matrix = int.from_bytes(code[1:].translate(_REVERSED_BITS), "little") >> -n * n % 8
    return [matrix >> n * i & (1 << n) - 1 for i in range(n)]


def canonical_form(lat):
    """Permutation-invariant byte string, injective up to isomorphism."""
    if lat.n > ISO_BUDGET:
        raise BudgetExceeded(f"canonical_form limited to n <= {ISO_BUDGET}")
    return canonical_order_matrix(lat.n, lat.up_bits, lat.dn_bits, lat.lower)[0]


def are_isomorphic(l1, l2):
    if l1.n != l2.n:
        return False
    return canonical_form(l1) == canonical_form(l2)
