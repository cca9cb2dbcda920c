"""Congruences of finite lattices.

The congruence checker verifies that blocks are intervals and that the two
quadrilateral closure conditions (one and its dual) hold.  Con(L) is
distributive (Funayama-Nakayama), the down-sets O(J) of its
join-irreducibles J, the congruences of covering pairs (after Freese,
"Computing congruences efficiently", 2008).  ``_label_rows`` finds J, its
order and the label con(y, x) in J of each cover y < x on the lattice's
bit rows and lower covers, by Day's D relation on the join-irreducible
elements of L, with no partition and no join table: each join is one
lookup among the up-sets.
Since blocks are intervals, the member of down-set D is the equivalence
generated by the covers whose label is in D, so ``all_congruences`` builds
each member's rep tuple with one union-find and keeps its down-set mask
beside it.  A member is its rep tuple, as ``partition`` makes it.
``principal_congruence`` closes a pair under the translations x -> x v c
and x -> x ^ c with ``partition.join_pairs``, the union-find that algebras
run over their own translations; it is the oracle for the labels.

``congruence_energies`` does not build Con at all.  By the paper's claim
(1) the energy of a member theta is 2 (n - |L/theta|), and since blocks
are intervals, n - |L/theta| counts the x with a lower cover y < x and
y theta x.  Let S_x be the labels of x's lower covers: the member of
down-set D has energy 2 #{x : D meets S_x}.  With hit[t] the bitmask of
the x with t in S_x, that is one OR and one popcount per member.

Algebras, whose Con need not be distributive, use the generic
``join_closure``: it keeps the generators that are not the join of those
strictly below it, which are the join-irreducibles J of the closure, and
closes them under joins on rep tuples, one generator at a time, with a
pair bitmask per member for the order tests.  Every route stops with
BudgetExceeded once Con passes CON_BUDGET members.  Perspectivity
reachability over prime intervals and a brute-force filter over all
partitions stay as cross-check oracles.

So every ``CongruenceLattice`` has one form, whichever route built it:
its members, the down-set over J of each, and J's strict order.
Distributivity is Birkhoff's count: x -> {j in J : j <= x} embeds a finite
lattice into the down-sets O(J), so it is distributive iff it has as many
members as J has down-sets, grown one member of J at a time as Con(L)'s
are.  Booleanness of a distributive one is decided by counting
too, since a finite distributive lattice is boolean iff it has 2^(number
of atoms) elements, and the atoms are the members with one member of J
below them.
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
    SizeMismatch,
)

# Con(chain 15), with 2^14 members, is the largest allowed.  Every suite,
# test and benchmark job stays below: the largest are Con(chain 12), with
# 2^11 members, and a unary algebra with 609 congruences.
CON_BUDGET = 1 << 14


@dataclass(frozen=True)
class CongruenceLattice:
    host_n: int
    members: tuple  # rep tuples, sorted by (heq, rep)
    # down_sets[i]: the bitmask of the members of J below members[i], J
    # numbered along a linear extension of its order
    down_sets: tuple = field(compare=False)
    # below[t]: the bitmask of the members of J strictly below member t of J
    below: tuple = field(compare=False)

    def __len__(self):
        return len(self.members)

    def atoms(self):
        """The members with one member of J below them: an atom is
        join-irreducible, and a minimal member of J is an atom."""
        return [m for m, d in zip(self.members, self.down_sets) if d.bit_count() == 1]


def _sorted_with(reps, data):
    """The rep tuples sorted by (heq, rep), and the data aligned with them,
    in the same order."""
    ranked = sorted([(-len(set(r)), r, d) for r, d in zip(reps, data)])  # reps are distinct
    return tuple([r for _, r, _ in ranked]), tuple([d for _, _, d in ranked])


def is_congruence(lat, rep):
    """Interval blocks + quadrilateral condition + its dual."""
    if len(rep) != lat.n:
        raise SizeMismatch(f"partition on {len(rep)} elements vs lattice on {lat.n}")
    up, dn = lat.up_bits, lat.dn_bits
    # per block of two or more: its members, and the AND of their up rows
    # and of their down rows, the up row of its join and the down row of
    # its meet
    blocks, ups, dns = {}, {}, {}
    for x, r in enumerate(rep):
        if r != x:
            blocks[r] = blocks.get(r, 1 << r) | 1 << x
            ups[r] = ups.get(r, up[r]) & up[x]
            dns[r] = dns.get(r, dn[r]) & dn[x]
    join_of, meet_of = lat._join_of, lat._meet_of
    for r, block in blocks.items():
        # the block lies in [meet, join], so it is that interval iff equal
        if up[meet_of[dns[r]]] & dn[join_of[ups[r]]] != block:
            return False
    # x collapsed with a cover y of x collapses every other cover z of x on
    # the same side with y v z above x, with y ^ z below it
    for covers, rows, op_of in ((lat._upper, up, join_of), (lat.lower, dn, meet_of)):
        for x, ys in enumerate(covers):
            rx = rep[x]
            for y in ys:
                if rep[y] == rx:
                    row = rows[y]
                    if any(z != y and rep[z] != rep[op_of[row & rows[z]]] for z in ys):
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


def principal_congruence(lat, a, b):
    """Least congruence collapsing (a, b), for any pair: the closure of the
    pair under the translations x -> x v c and x -> x ^ c, one row per c."""
    n = lat.n
    rows = [tuple(f(c, x) for x in range(n)) for f in (lat.join, lat.meet) for c in range(n)]
    return pt.join_pairs(n, [(a, b)], rows)


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


def _join_irreducible_generators(n, masks):
    """The generators, given as {rep: pair mask}, that are not the join of
    the generators strictly below them (the bottom among them), in the same
    form.  Every dropped generator is a join of the kept ones, so they
    generate the same joins."""
    kept = {}
    for g, g_pairs in masks.items():
        below = [h for h, h_pairs in masks.items() if h_pairs & ~g_pairs == 0 and h != g]
        if pt.union_find(list(range(n)), _rep_pairs(below)) != g:
            kept[g] = g_pairs
    return kept


def join_closure(n, generators):
    """The congruence lattice on n points generated by joins of the given
    congruences (the bottom included); raises BudgetExceeded as soon as it
    has more than CON_BUDGET members.  For algebras, whose Con need not be
    distributive.

    Every member is a join of generators, so the kept generators, those not
    the join of the generators strictly below them, are exactly J.  They
    are added one at a time along a linear extension: the joins M_i of the
    first i are M_{i-1} and the m v g_i for m in M_{i-1}.  The members of J
    below g_i come first, so with b their join, m v g_i = (m v b) v g_i
    needs a union-find only for m >= b with g_i not <= m: one per member
    when Con is distributive.  Each member is a rep tuple with its pair
    mask for the <= tests; at the end, the members of J whose pair masks
    lie inside its own are its down-set."""
    jis = _join_irreducible_generators(n, {g: _pair_mask(g) for g in generators})
    j_pairs, below = _inclusion_order(jis.values())
    rep_of = {g_pairs: g for g, g_pairs in jis.items()}
    bottom = tuple(range(n))
    members = {bottom: _pair_mask(bottom)}
    for g_pairs, b in zip(j_pairs, below):
        need = 0  # the pairs of the members of J strictly below g
        for s in lt._bits(b):
            need |= j_pairs[s]
        g_links = _rep_pairs([rep_of[g_pairs]])
        for f, f_pairs in list(members.items()):
            if need & ~f_pairs or not g_pairs & ~f_pairs:  # f not >= b, or g <= f
                continue
            h = pt.union_find(list(f), g_links)
            if h not in members:
                members[h] = _pair_mask(h)
                _budget_check(members)
    downs = [
        sum(1 << t for t, j in enumerate(j_pairs) if j & ~pairs == 0)
        for pairs in members.values()
    ]
    return CongruenceLattice(n, *_sorted_with(members, downs), below)


def _rep_pairs(reps):
    """The pairs (i, rep[i]) with i not its own rep, over the rep tuples:
    they generate the join of the partitions."""
    return [(i, r) for rep in reps for i, r in enumerate(rep) if r != i]


def _inclusion_order(masks):
    """The distinct bitmasks sorted by size, a linear extension of
    inclusion, and below[t]: the bitmask of the s whose mask lies strictly
    inside mask t."""
    masks = sorted(set(masks))
    masks.sort(key=int.bit_count)
    below = []
    for t, c in enumerate(masks):
        b = 0
        for s in range(t):
            if not masks[s] & ~c:
                b |= 1 << s
        below.append(b)
    return masks, tuple(below)


def all_congruences(lat):
    """Con(L) as the down-sets of its join-irreducibles J, each member with
    its down-set mask.

    Con(L) is distributive (Funayama-Nakayama), so D -> join(D) is a
    bijection from the down-sets of J onto Con(L).  Blocks are intervals,
    so the member of D is generated by the covers whose label is in D.  The
    down-sets are grown one member t of J at a time, as in
    ``congruence_energies``, and each new member costs one union-find: on
    the rep tuple of the member of D, with the covers labelled t, for each
    down-set D of the first t members that holds below[t].  Raises
    BudgetExceeded once Con has more than CON_BUDGET members, checked as
    each member of J is added.
    """
    below, labels = _label_rows(lat)
    links = [[] for _ in below]
    for y, x, t in labels:
        links[t].append((y, x))
    members = [(0, tuple(range(lat.n)))]  # (down-set, rep)
    for t, (b, t_links) in enumerate(zip(below, links)):
        bit = 1 << t
        members += [(d | bit, pt.union_find(list(r), t_links)) for d, r in members if not b & ~d]
        _budget_check(members)
    masks, reps = zip(*members)
    return CongruenceLattice(lat.n, *_sorted_with(reps, masks), below)


def _label_rows(lat):
    """(below, labels) of the lattice: the join-irreducibles of Con(L)
    numbered along a linear extension, below[t] the bitmask of those
    strictly below member t, and one (y, x, t) in labels for each cover
    y < x, t the label of con(y, x).  No partition is built.

    For join-irreducible elements p, q of L, with lower covers p_*, q_*,
    write p D q when p <= q v x and p not <= q_* v x for some x.  Collapsing
    (q_*, q) then collapses q v x with q_* v x, hence p = p ^ (q v x) with
    p ^ (q_* v x) <= p_*: so p D q gives con(p_*, p) <= con(q_*, q), and
    in a finite lattice con(p_*, p) <= con(q_*, q) iff p reaches q along D
    (A. Day; Freese, Jezek and Nation, "Free Lattices", 1995, ch. 2).  So
    each p gets the bitmask of the p' with con(p'_*, p') <= con(p_*, p),
    and the distinct bitmasks, ordered by inclusion, are J(Con L).  The
    common upper bounds of q and x are the up-set of q v x, so each join
    is one lookup of up[q] & up[x] among the up-sets, with no join table.

    A cover y < x has con(y, x) = con(j_*, j) for a minimal
    join-irreducible j <= x with j not <= y, since then j v y = x and
    j ^ y = j_*.  The first such j in a list of J sorted by down-set size
    is minimal.
    """
    n, up, dn, lower = lat.n, lat.up_bits, lat.dn_bits, lat.lower
    join_of = {u: z for z, u in enumerate(up)}
    jis = [j for j in range(n) if len(lower[j]) == 1]
    jmask = sum(1 << j for j in jis)
    full = (1 << n) - 1
    reach = [0] * n  # reach[q]: the p with p D q (q itself by x = 0), closed
    for q in jis:
        up_q, q_star = up[q], lower[q][0]
        up_star = up[q_star]
        # x >= q adds nothing, and every x < q is <= q_*, where q v x = q
        # and q_* v x = q_*: only the x incomparable to q are left
        m = dn[q] & ~dn[q_star]
        for x in lt._bits(full & ~(up_q | dn[q])):
            u = up[x]
            m |= dn[join_of[up_q & u]] & ~dn[join_of[up_star & u]]
        reach[q] = m & jmask
    lt._transitive_closure(reach, jis)  # rows outside J are 0
    classes, below = _inclusion_order([reach[j] for j in jis])
    index = {c: t for t, c in enumerate(classes)}
    label = {j: index[reach[j]] for j in jis}
    ranked = [(j, label[j]) for j in sorted(jis, key=lambda j: dn[j].bit_count())]
    labels = []
    for x, ys in enumerate(lower):
        if len(ys) == 1:  # x in J: every element below x is below ys[0]
            labels.append((ys[0], x, label[x]))
            continue
        for y in ys:
            cand = dn[x] & ~dn[y]
            for j, t in ranked:
                if cand >> j & 1:
                    break
            labels.append((y, x, t))
    return below, labels


def congruence_energies(lat):
    """The energy of every member of Con(L), in the order its down-set is
    grown, without building Con(L).  Sum and length give CE(L) and
    |Con(L)|.  Raises BudgetExceeded once Con has more than CON_BUDGET
    members, checked as each member of J is added.

    The member of down-set D of J has energy 2 #{x : D meets S_x}, S_x the
    labels of x's lower covers (see the module docstring).  With hit[t] the
    bitmask of the x whose S_x holds t, the x counted for D are the union
    of hit[t] over t in D: one OR onto the union of D minus its top label,
    and one popcount, per member.  The down-sets are grown one member t of
    J at a time: those of J's first t + 1 members are those of its first
    t, and each of them that holds below[t] with t added."""
    below, labels = _label_rows(lat)
    hit = [0] * len(below)
    for _, x, t in labels:
        hit[t] |= 1 << x
    members = [(0, 0)]  # (down-set, union of hit over it)
    for t, (b, h) in enumerate(zip(below, hit)):
        bit = 1 << t
        members += [(d | bit, r | h) for d, r in members if not b & ~d]
        _budget_check(members)
    return [2 * r.bit_count() for _, r in members]


def brute_force_congruences(lat, partitions=None):
    """Oracle route: filter every partition through the checker, or the
    given list of all partitions of lat.n points.  The members, as a tuple
    sorted by (heq, rep)."""
    members = [p for p in partitions or pt.all_partitions(lat.n) if is_congruence(lat, p)]
    return tuple(sorted(members, key=lambda m: (pt.heq(m), m)))


def quotient(lat, theta):
    """Quotient lattice on the theta-blocks, plus the element -> block map.

    Blocks are ordered by their least lattice element; the block order uses
    the bottoms of the (interval) blocks.
    """
    if not is_congruence(lat, theta):
        raise NotACongruence("partition is not a congruence of the lattice")
    # a block is an interval, so its bottom has the smallest down-set
    bots = [min(block, key=lambda x: lat.dn_bits[x].bit_count()) for block in pt.blocks(theta)]
    up = [sum(1 << j for j, b in enumerate(bots) if lat.leq(a, b)) for a in bots]
    dn = [sum(1 << i for i, a in enumerate(bots) if lat.leq(a, b)) for b in bots]
    index = {r: i for i, r in enumerate(sorted(set(theta)))}
    q = lt._from_rows(len(bots), up, dn, lt._lower_from_order(dn))  # L/theta is a lattice
    return q, tuple(index[r] for r in theta)


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
    c is distributive iff |c| = |O(J)|.  The down-sets are grown over
    ``c.below`` one member of J at a time, as in ``all_congruences``, and
    the count stops once it passes |c|."""
    downs = [0]
    for t, b in enumerate(c.below):
        bit = 1 << t
        downs += [d | bit for d in downs if not b & ~d]
        if len(downs) > len(c):
            return False
    return len(downs) == len(c)


def has_boolean_size(c):
    """Whether c has 2^(number of atoms) members.  For a distributive c this
    decides booleanness: a finite distributive lattice is the down-set
    lattice of its join-irreducibles, which has exactly 2^(atoms) members
    iff every join-irreducible is an atom."""
    return len(c.members) == 2 ** len(c.atoms())


def is_boolean(c):
    """Distributive with 2^(number of atoms) members."""
    return is_distributive(c) and has_boolean_size(c)
