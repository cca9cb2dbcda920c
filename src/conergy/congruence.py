"""Congruences of finite lattices.

The congruence checker verifies that blocks are intervals and that the two
quadrilateral closure conditions (one and its dual) hold.  A principal
congruence is one ``translation_closure``, a union-find closed under the
translations x -> x v c for join-irreducible c and x -> x ^ c for
meet-irreducible c (``Lattice.translations``), for any pair; algebras use
the same routine with their own translations.  Con(L) is distributive
(Funayama-Nakayama), the down-sets O(J) of its join-irreducibles J, the
congruences of covering pairs (after Freese, "Computing congruences
efficiently", 2008).  ``all_congruences`` builds each member with one
partition join and keeps its down-set mask beside it.

``congruence_energies`` does not build Con at all.  By the paper's claim
(1) the energy of a member theta is 2 (n - |L/theta|), and since blocks
are intervals, n - |L/theta| counts the x with a lower cover y < x and
y theta x.  Label each cover y < x by con(y, x), a member of J, and let
S_x be the labels of x's lower covers: the member of down-set D has
energy 2 #{x : D meets S_x}.  ``cover_labels`` finds J, its order and the
labels on bit rows, by Day's D relation on the join-irreducible elements
of L, so the count makes no partition at all.

Algebras, whose Con need not be distributive, use the generic
``join_closure``: it drops every generator that is the join of those
strictly below it and closes the rest under joins on rep tuples, with a
pair bitmask per member for the order test.  Every route stops with
BudgetExceeded once Con passes CON_BUDGET members.  Perspectivity
reachability over prime intervals and a brute-force filter over all
partitions stay as cross-check oracles.

Distributivity of a congruence lattice is decided by Birkhoff's count:
a finite lattice is distributive iff it has as many elements as its
join-irreducibles have down-sets, and those are grown by the same
breadth-first routine that builds Con(L).  Booleanness of a distributive
one is decided by counting too, since a finite distributive lattice is
boolean iff it has 2^(number of atoms) elements.
"""

from dataclasses import dataclass, field

from . import lattice as lt
from . import partition as pt
from .errors import (
    BudgetExceeded,
    NotACongruence,
    NotAnAtom,
    NotDistributive,
    NotPrime,
    OutOfRange,
    SizeMismatch,
)

# Con(chain 15), with 2^14 members, is the largest allowed.  Every suite,
# test and benchmark job stays below: the largest are Con(chain 12), with
# 2^11 members, and a unary algebra with 609 congruences.
CON_BUDGET = 1 << 14


@dataclass(frozen=True)
class CongruenceLattice:
    host_n: int
    members: tuple  # Partition tuple, sorted by (heq, rep)
    # from all_congruences: down_sets[i] is the set of join-irreducibles
    # below members[i], a bitmask over J in (heq, rep) order; else None
    down_sets: tuple = field(default=None, compare=False)

    def __len__(self):
        return len(self.members)

    def __contains__(self, p):
        return p in set(self.members)

    @property
    def bottom(self):
        return pt.bottom(self.host_n)

    @property
    def top(self):
        return pt.top(self.host_n)

    def atoms(self):
        """Members covering the bottom of Con."""
        non_bottom = [m for m in self.members if pt.num_blocks(m) < self.host_n]
        out = []
        for m in non_bottom:
            if not any(p != m and pt.leq(p, m) for p in non_bottom):
                out.append(m)
        return out

    def to_json_dict(self):
        return {
            "host_n": self.host_n,
            "members": [list(m.rep) for m in self.members],
        }


def _sorted_members(members):
    return tuple(sorted(set(members), key=lambda p: (pt.heq(p), p.rep)))


def is_congruence(lat, p):
    """Interval blocks + quadrilateral condition + its dual."""
    if p.n != lat.n:
        raise SizeMismatch(f"partition on {p.n} elements vs lattice on {lat.n}")
    for block in p.blocks():
        lo = hi = block[0]
        for x in block[1:]:
            lo = lat.meet(lo, x)
            hi = lat.join(hi, x)
        between = lat.up_bits[lo] & lat.dn_bits[hi]
        if bin(between).count("1") != len(block):
            return False
        # lo/hi in the block is implied when the popcounts match
    for x, y in lat.covers:
        if not p.same_block(x, y):
            continue
        for z in lat.upper_covers(x):
            if z != y and not p.same_block(z, lat.join(y, z)):
                return False
    for y, x in lat.covers:
        if not p.same_block(x, y):
            continue
        for z in lat.lower_covers(x):
            if z != y and not p.same_block(z, lat.meet(y, z)):
                return False
    return True


def perspectivity_closure(lat, seed):
    """Prime intervals collapsed together with the seed: reachability under
    up/down congruence perspectivity steps over all intervals, reporting
    the prime intervals contained in reached intervals.

    The walk must pass through non-prime intervals: in the pentagon the
    short side is reached from the seed (0, p) only via the interval
    [0, q], so a prime-to-prime scan would be incomplete.
    """
    a, b = seed.lo, seed.hi
    if (a, b) not in set(lat.covers):
        raise NotPrime(f"({a},{b}) is not a covering pair")
    n = lat.n
    intervals = [
        (x, y) for x in range(n) for y in range(n) if x != y and lat.leq(x, y)
    ]
    reached = {(a, b)}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        for c, d in intervals:
            if (c, d) in reached:
                continue
            up = lat.join(y, c) == d and lat.leq(x, c)
            down = lat.meet(x, d) == c and lat.leq(d, y)
            if up or down:
                reached.add((c, d))
                stack.append((c, d))
    return {
        lt.PrimeInterval(c, d)
        for c, d in lat.covers
        if any(lat.leq(u, c) and lat.leq(d, v) for u, v in reached)
    }


def translation_closure(n, translations, pairs):
    """Least equivalence on n points containing the pairs and closed under
    the translations: the congruence they generate when the translations
    are the basic unary translations of an algebra."""
    pairs = list(pairs)
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise OutOfRange(f"pair ({a},{b}) outside 0..{n - 1}")
    return pt.Partition(n, pt.union_find(list(range(n)), pairs, translations))


def principal_congruence(lat, a, b):
    """Least congruence collapsing (a, b): the closure of the pair under
    the lattice's join-irreducible join rows and meet-irreducible meet
    rows, which generate every join and meet translation."""
    return translation_closure(lat.n, lat.translations, [(a, b)])


def join_irreducibles(lat):
    """The join-irreducible members of Con(L), the distinct principal
    congruences of covering pairs, sorted by (heq, rep), which is a linear
    extension of their order.

    Only the covers j_* < j below join-irreducible elements j of L are
    closed: for any cover a < b, a minimal j <= b with j not <= a is
    join-irreducible, with j v a = b and j ^ a = j_*, so con(a, b) =
    con(j_*, j).
    """
    lower = {}
    for a, b in lat.covers:
        lower.setdefault(b, []).append(a)
    return _sorted_members(
        principal_congruence(lat, low[0], j) for j, low in lower.items() if len(low) == 1
    )


def _budget_check(members):
    if len(members) > CON_BUDGET:
        raise BudgetExceeded(f"congruence lattice has more than {CON_BUDGET} members")


def _pair_mask(rep):
    """The pairs the partition with rep tuple ``rep`` collapses, as a
    bitmask: bit a * n + b for each a, b in a common block, so p <= q iff
    p's mask lies inside q's."""
    n = len(rep)
    block = {}
    for i, r in enumerate(rep):
        block[r] = block.get(r, 0) | 1 << i
    return sum(block[r] << i * n for i, r in enumerate(rep))


def join_closure(n, generators):
    """The congruence lattice on n points generated by joins of the given
    congruences (the bottom included); raises BudgetExceeded as soon as it
    has more than CON_BUDGET members.  For algebras, whose Con need not be
    distributive.

    A generator that is the join of the generators strictly below it (the
    bottom among them) is itself a join of the others, so it is dropped
    and the closure runs over the join-irreducible ones.  The closure
    works on rep tuples, each with its pair mask for the <= test, and
    builds each member's Partition once, at the end."""
    masks = {g.rep: _pair_mask(g.rep) for g in generators}
    gens = []
    for g, g_pairs in masks.items():
        below = [h for h, h_pairs in masks.items() if h_pairs & ~g_pairs == 0 and h != g]
        lower = pt.union_find(list(range(n)), _rep_pairs(below))
        if lower != g:
            gens.append((g_pairs, _rep_pairs([g])))
    bottom = tuple(range(n))
    members = {bottom: _pair_mask(bottom)}
    frontier = [bottom]
    while frontier:
        fresh = []
        for f in frontier:
            f_pairs = members[f]
            for g_pairs, g_links in gens:
                if g_pairs & ~f_pairs == 0:  # g <= f: f v g = f is known
                    continue
                h = pt.union_find(list(f), g_links)
                if h not in members:
                    members[h] = _pair_mask(h)
                    fresh.append(h)
                    _budget_check(members)
        frontier = fresh
    return CongruenceLattice(n, _sorted_members(pt.Partition(n, h) for h in members))


def _rep_pairs(reps):
    """The pairs (i, rep[i]) with i not its own rep, over the rep tuples:
    they generate the join of the partitions."""
    return [(i, r) for rep in reps for i, r in enumerate(rep) if r != i]


def _strict_below(jis):
    """below[t]: bitmask of the s with jis[s] < jis[t], for congruences in
    (heq, rep) order, a linear extension of their order."""
    return [
        sum(1 << s for s in range(t) if pt.leq(jis[s], j)) for t, j in enumerate(jis)
    ]


def _down_set_steps(below):
    """Each nonempty down-set of a poset once, breadth-first, as (i, t,
    mask): down-set i, 0 being the empty one, extended by element t to the
    down-set with bitmask mask.  The elements are numbered along a linear
    extension, below[t] being the bitmask of those strictly below t.  D is
    extended by t only when t is above D's highest index and D holds all
    of below[t], so each down-set comes from itself minus its top."""
    downs = [0]
    for i, down in enumerate(downs):
        for t in range(down.bit_length(), len(below)):
            if below[t] & ~down == 0:
                downs.append(down | 1 << t)
                yield i, t, downs[-1]


def all_congruences(lat):
    """Con(L) as the down-sets of its join-irreducibles J, each member with
    its down-set mask.

    Con(L) is distributive (Funayama-Nakayama), so D -> join(D) is a
    bijection from the down-sets of J onto Con(L), and each member costs
    one partition join.  Raises BudgetExceeded as soon as Con has more
    than CON_BUDGET members.
    """
    jis = join_irreducibles(lat)
    members = [pt.bottom(lat.n)]
    masks = [0]
    for i, t, mask in _down_set_steps(_strict_below(jis)):
        members.append(pt.join(members[i], jis[t]))
        masks.append(mask)
        _budget_check(members)
    pairs = sorted(zip(members, masks), key=lambda pm: (pt.heq(pm[0]), pm[0].rep))
    return CongruenceLattice(
        lat.n, tuple(m for m, _ in pairs), tuple(mask for _, mask in pairs)
    )


def cover_labels(lat):
    """(below, labels): the join-irreducibles of Con(L) numbered along a
    linear extension, below[t] the bitmask of those strictly below member
    t, and labels[(y, x)] = t for each cover y < x of L with con(y, x)
    member t.  Works on bit rows, with no partition.

    For join-irreducible elements p, q of L, with lower covers p_*, q_*,
    write p D q when p <= q v x and p not <= q_* v x for some x.  Collapsing
    (q_*, q) then collapses q v x with q_* v x, hence p = p ^ (q v x) with
    p ^ (q_* v x) <= p_*: so p D q gives con(p_*, p) <= con(q_*, q), and
    in a finite lattice con(p_*, p) <= con(q_*, q) iff p reaches q along D
    (A. Day; Freese, Jezek and Nation, "Free Lattices", 1995, ch. 2).  So
    each p gets the bitmask of the p' with con(p'_*, p') <= con(p_*, p),
    and the distinct bitmasks, ordered by inclusion, are J(Con L).  A cover
    y < x has con(y, x) = con(j_*, j) for a minimal join-irreducible j <= x
    with j not <= y, since then j v y = x and j ^ y = j_*.
    """
    n, dn, join_t = lat.n, lat.dn_bits, lat.join_table
    lower = [0] * n
    star = [0] * n
    for a, b in lat.covers:
        lower[b] += 1
        star[b] = a
    jis = [j for j in range(n) if lower[j] == 1]
    jmask = sum(1 << j for j in jis)
    reach = [0] * n  # reach[q]: the p with p D q (q itself by x = 0), closed
    for q in jis:
        m = 0
        for up_q, up_star in zip(join_t[q], join_t[star[q]]):
            m |= dn[up_q] & ~dn[up_star]
        reach[q] = m & jmask
    for k in jis:
        for p in jis:
            if reach[p] >> k & 1:
                reach[p] |= reach[k]
    classes = sorted({reach[j] for j in jis}, key=lambda c: (c.bit_count(), c))
    index = {c: t for t, c in enumerate(classes)}
    below = [
        sum(1 << s for s in range(t) if classes[s] & ~c == 0) for t, c in enumerate(classes)
    ]
    labels = {}
    for y, x in lat.covers:
        cand = dn[x] & ~dn[y] & jmask
        j = min((j for j in jis if cand >> j & 1), key=lambda j: dn[j].bit_count())
        labels[(y, x)] = index[reach[j]]
    return below, labels


def congruence_energies(lat):
    """The energy of every member of Con(L), in down-set order, without
    building Con(L): the member of down-set D of J has energy
    2 #{x : D meets S_x}, S_x the labels of x's lower covers (see the
    module docstring).  Sum and length give CE(L) and |Con(L)|.  Raises
    BudgetExceeded as soon as Con has more than CON_BUDGET members."""
    below, labels = cover_labels(lat)
    lower = [0] * lat.n
    for (_, x), t in labels.items():
        lower[x] |= 1 << t
    lower = [s for s in lower if s]
    energies = [0]
    for _, _, mask in _down_set_steps(below):
        energies.append(2 * sum(1 for s in lower if s & mask))
        _budget_check(energies)
    return energies


def brute_force_congruences(lat):
    """Oracle route: filter every partition through the checker."""
    members = [p for p in pt.all_partitions(lat.n) if is_congruence(lat, p)]
    return CongruenceLattice(lat.n, _sorted_members(members))


def quotient(lat, theta):
    """Quotient lattice on the theta-blocks, plus the element -> block map.

    Blocks are ordered by their least lattice element; the block order uses
    the bottoms of the (interval) blocks.
    """
    if not is_congruence(lat, theta):
        raise NotACongruence("partition is not a congruence of the lattice")
    blocks = theta.blocks()
    bots = []
    for block in blocks:
        lo = block[0]
        for x in block[1:]:
            lo = lat.meet(lo, x)
        bots.append(lo)
    t = len(blocks)
    up = [0] * t
    for i in range(t):
        for j in range(t):
            if lat.leq(bots[i], bots[j]):
                up[i] |= 1 << j
    q = lt.from_order_bits(t, up)
    block_of = [0] * lat.n
    for i, block in enumerate(blocks):
        for x in block:
            block_of[x] = i
    return q, tuple(block_of)


def upset_split(c, alpha):
    """(C_A, C_B): the up-set of the atom alpha and its complement."""
    if alpha not in c.atoms():
        raise NotAnAtom("alpha is not an atom of the congruence lattice")
    c_a = [m for m in c.members if pt.leq(alpha, m)]
    c_b = [m for m in c.members if not pt.leq(alpha, m)]
    return c_a, c_b


@dataclass(frozen=True)
class AtomJoinMap:
    atom: object
    mapping: tuple  # ((gamma, alpha join gamma), ...)
    injective: bool
    bijective: bool


def join_with_atom_map(c, alpha):
    """The map C_B -> C_A sending gamma to alpha v gamma."""
    if not is_distributive(c):
        raise NotDistributive("congruence lattice is not distributive")
    c_a, c_b = upset_split(c, alpha)
    pairs = tuple((g, pt.join(alpha, g)) for g in c_b)
    image = {img for _, img in pairs}
    injective = len(image) == len(pairs)
    bijective = injective and len(image) == len(c_a)
    return AtomJoinMap(alpha, pairs, injective, bijective)


def is_distributive(c):
    """Whether the congruence lattice c (of a lattice or an algebra) is
    distributive, by Birkhoff's count: x -> {j in J : j <= x} embeds a
    finite lattice into the down-sets O(J) of its join-irreducibles J, so
    c is distributive iff |c| = |O(J)|.  The count stops once it passes |c|.

    Every member is the join of the principal congruences below it, so J
    is the set of principal members that are not the join of the principal
    members strictly below them.  con(a, b) is the first member in (heq,
    rep) order to collapse (a, b), the bit a * n + b of a pair mask."""
    principals, seen = [], 0
    for m in c.members:
        pairs = _pair_mask(m.rep)
        if pairs & ~seen:
            principals.append(m)
            seen |= pairs
    jis = []
    for i, p in enumerate(principals):
        lower = pt.bottom(c.host_n)
        for q in principals[:i]:
            if pt.leq(q, p):
                lower = pt.join(lower, q)
        if lower != p:
            jis.append(p)
    count = 1
    for _ in _down_set_steps(_strict_below(jis)):
        count += 1
        if count > len(c):
            return False
    return count == len(c)


def has_boolean_size(c):
    """Whether c has 2^(number of atoms) members.  For a distributive c this
    decides booleanness: a finite distributive lattice is the down-set
    lattice of its join-irreducibles, which has exactly 2^(atoms) members
    iff every join-irreducible is an atom."""
    return len(c.members) == 2 ** len(c.atoms())


def is_boolean(c):
    """Distributive with 2^(number of atoms) members."""
    return is_distributive(c) and has_boolean_size(c)
