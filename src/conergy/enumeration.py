"""Enumerate all lattices of a given order up to isomorphism, and run the
exhaustive extremal checks over them.

Generation grows one element at a time along a linear extension.  Every
prefix of a linear extension of a lattice is an order ideal, hence a meet
semilattice, so it suffices to extend a meet semilattice by a new element
whose down-set keeps greatest lower bounds intact; adding the final top
element turns the semilattice into a lattice.  Each prefix carries its
packed down and up bit rows, its lower covers, and the twin classes its
canonical labelling found, to its children, so the canonical labelling
rebuilds none of them.  Two tests drop duplicate children before any
canonical form is taken: a sibling down-set that a swap of the parent's
twins lowers, and a child whose new element is not a maximal element of
greatest invariant (see ``_keyed_lattices`` for why no class is lost).
The rest are deduplicated by poset canonical form at every level.  At
the last level the top is appended before the canonical form is taken:
adding a top is a bijection from (n-1)-element meet semilattices onto
n-element lattices, so the key is already the lattice's canonical form.
The first child of each class is folded there as a Lattice made from the
rows the generator already holds, unchecked, since every child is a
lattice: ``extremal_report`` folds it into its record (CE and |Con| from
the down-sets of J, and the antichain and shape tests), and
``all_lattices`` keeps it, in the labelling it was generated in.  The key
is the order matrix in the canonical labelling, so the covers of that
labelling follow from it alone: ``covers_from_key`` decodes them when they
are asked for.

An independent labeled-poset oracle (enumerate all naturally labeled
posets, filter the lattice property) guards completeness at small sizes.
"""

from . import congruence as cg
from . import counting as ct
from . import lattice as lt
from .errors import BudgetExceeded, DomainError

# `enumerate --n 11` (37 622 classes) takes about 9.5-13 s at 62 MB peak
# on a 2-vCPU host with Python 3.11; order 12 took 83 s at 254 MB.
ENUMERATION_BUDGET = 11


def _down_closed_subsets(dn, k):
    """All nonempty order ideals of the k-element prefix, ascending.  The
    prefix is numbered along a linear extension, so its down-sets grow as
    in ``congruence._down_set_steps``."""
    below = [dn[j] & ~(1 << j) for j in range(k)]
    return sorted(mask for _, _, mask in cg._down_set_steps(below))


def _has_greatest(dn, subset):
    """Whether the nonempty subset has a greatest element.  The prefix is
    numbered along a linear extension, so only its highest index can be."""
    return subset & ~dn[subset.bit_length() - 1] == 0


def _lattice_from_dn(dn):
    return lt.from_order_bits(len(dn), lt._transpose(dn))


def all_lattices(n):
    """All n-element lattices, one representative per isomorphism class,
    in canonical-form order, unchecked, each labelled as generated: along a
    linear extension, so every cover a < b, with bottom 0 and top n - 1."""
    return [lat for _, lat in sorted(_keyed_lattices(n, lambda key, lat: lat).items())]


def covers_from_key(key):
    """The covering pairs (lo, hi), sorted, of the lattice whose canonical
    form is ``key``, in its canonical labelling.  Read on the up rows,
    ``_lower_from_order`` gives each element's upper covers, ascending, so
    the pairs come out sorted."""
    upper = lt._lower_from_order(lt._up_rows_from_code(key))
    return tuple((a, b) for a, cov in enumerate(upper) for b in cov)


def _keyed_lattices(n, fold):
    """{canonical form: fold(key, lat)} over the iso classes of order n,
    fold called once per class, on the first child in that class as a
    Lattice, in the child's own labelling.

    The children are lattices with no further test: each is a meet
    semilattice, as ``_has_greatest`` checks, with a top appended, and a
    finite meet semilattice with a top is a lattice.  A prefix is a meet
    semilattice P on 0..k-1 with its down rows, up rows, lower-cover lists
    and the twin classes that its canonical labelling returned; a child
    P + x adds x = k above the down-set ``mask``.  Before any canonical
    form is taken:

    - a mask is dropped unless it is twin-normal: its part in each twin
      class is a prefix of that ascending class, that is, it holds no
      member of a class without the member just before it;
    - a child is dropped unless x has the greatest (|down-set|, number of
      lower covers) among the maximal elements of the child.

    Masks in one orbit of Aut(P) give isomorphic children, and the least
    mask of an orbit is twin-normal: a mask that is not holds a member of
    some twin class but not a smaller member of it, and swapping the two,
    an automorphism, lowers the mask.  So every orbit keeps its least
    mask, and Aut(P) is never built.

    No class is lost.  Take any class, and let y be a maximal element of
    greatest invariant in a member S of it.  S - y is a meet semilattice,
    isomorphic to a kept parent P.  The image of the down-set of y under
    that isomorphism, moved to the least mask in its orbit under Aut(P),
    is a mask that P keeps, and its child is isomorphic to S with x in the
    place of y, so x has the greatest invariant and the child passes the
    filter.  The dictionary keyed by canonical form removes the duplicates
    that are left.
    """
    if n < 1:
        raise DomainError(f"all_lattices needs n >= 1, got {n}")
    if n > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"all_lattices limited to n <= {ENUMERATION_BUDGET}")
    if n <= 2:
        lat = lt.chain(n)
        key = lt.canonical_form(lat)
        return {key: fold(key, lat)}
    level = [([1], [1], [()], ())]  # (dn, up, lower-cover tuples, twin classes)
    for k in range(1, n - 1):
        last = k == n - 2
        new = 1 << k
        nxt = {}
        for dn, up, lower, twins in level:
            maximal = [y for y in range(k) if up[y] == 1 << y]
            rivals = [((dn[y].bit_count(), len(lower[y])), y) for y in maximal]
            # consecutive twins lo < hi: a twin-normal mask holding hi holds lo
            steps = [(1 << a, 1 << b) for c in twins for a, b in zip(c, c[1:])]
            for mask in _down_closed_subsets(dn, k):
                if any(mask & hi and not mask & lo for lo, hi in steps):
                    continue
                x_lower = tuple([a for a in lt._bits(mask) if up[a] & mask == 1 << a])
                x_inv = (mask.bit_count() + 1, len(x_lower))
                if any(inv > x_inv for inv, y in rivals if not mask >> y & 1):
                    continue
                # j in the mask is the greatest element of mask & dn[j] = dn[j]
                if not all(_has_greatest(dn, mask & dn[j]) for j in lt._bits(~mask & new - 1)):
                    continue
                dn2 = dn + [mask | new]
                up2 = [u | new if mask >> a & 1 else u for a, u in enumerate(up)] + [new]
                lower2 = lower + [x_lower]
                if last:  # append the top: the key is the lattice's canonical form
                    top = 1 << (n - 1)
                    dn2.append(2 * top - 1)
                    up2 = [u | top for u in up2] + [top]
                    lower2.append(tuple([y for y in maximal if not mask >> y & 1] + [k]))
                key, twins2 = lt.canonical_order_matrix(len(up2), up2, dn2, lower2)
                if key not in nxt:
                    if last:
                        nxt[key] = fold(key, lt._from_rows(n, up2, dn2, lower2))
                    else:
                        nxt[key] = (dn2, up2, lower2, twins2)
        level = list(nxt.values())
    return nxt


def all_lattices_brute(n):
    """Completeness oracle: every naturally labeled poset with 0 its only
    minimal element and a final top, filtered down to lattices and
    deduplicated by canonical form.  Every lattice has such a labelling, so
    elements 1..n-2 take only nonempty down-closed masks and n-1 the full
    one; nothing else of the generator is used."""
    if n == 1:
        return [lt.chain(1)]
    found = {}

    def rec(dn, k):
        if k == n:
            try:
                lat = _lattice_from_dn(dn)
            except lt.NotALattice:
                return
            full = (1 << n) - 1
            if lat.up_bits[lat.bottom] != full or lat.dn_bits[lat.top] != full:
                return
            key = lt.canonical_form(lat)
            if key not in found:
                found[key] = lat
            return
        for mask in [(1 << k) - 1] if k == n - 1 else range(1, 1 << k):
            if all(dn[j] & ~mask == 0 for j in lt._bits(mask)):
                rec(dn + [mask | (1 << k)], k + 1)

    rec([1], 1)
    return [found[key] for key in sorted(found)]


def _glued_chain_core_chain(core, n):
    """The chain + core + chain stackings of total size n, by the size of
    the lower chain.  Glued-sum decomposition is unique, so no two
    placements are isomorphic."""
    return [
        lt.glued_sum(lt.chain(i), core, lt.chain(n - core.n - i + 2))
        for i in range(1, n - core.n + 2)
    ]


def glued_b4_family(n):
    """Every chain + B4 + chain stacking of size n; a test oracle for
    the glued-B4 shape test."""
    if n < 4:
        return []
    return _glued_chain_core_chain(lt.named("B4"), n)


def glued_n5_family(n):
    """Every chain + N5 + chain stacking of size n."""
    if n < 5:
        return []
    return _glued_chain_core_chain(lt.named("N5"), n)


def _core_shape(lat):
    """(size, cover count) of the only glued summand of L with more than
    two elements, or None when L has no such summand or several.

    The glue points, the elements comparable to every element, cut L
    uniquely into intervals between consecutive glue points, and no such
    summand has an interior glue point.  Among lattices without one, the
    only 4-element lattice is B4 (4 covers), and the 5-element ones are N5
    (5 covers) and M3 (6 covers).
    """
    n, up, dn = lat.n, lat.up_bits, lat.dn_bits
    full = (1 << n) - 1
    glue = sorted((c for c in range(n) if up[c] | dn[c] == full), key=lambda c: dn[c].bit_count())
    cores = [up[lo] & dn[hi] for lo, hi in zip(glue, glue[1:])]
    cores = [s for s in cores if s.bit_count() > 2]
    if len(cores) != 1:
        return None
    core = cores[0]
    covers = sum(1 for b in lt._bits(core) for a in lat.lower[b] if core >> a & 1)
    return core.bit_count(), covers


def decomposes_as_chain_b4_chain(lat):
    """L is a chain + B4 + chain stacking (either chain may have one element)."""
    return _core_shape(lat) == (4, 4)


def is_glued_n5_shape(lat):
    """L is a chain + N5 + chain stacking (either chain may have one element)."""
    return _core_shape(lat) == (5, 5)


def _verdict(ok, detail=""):
    return "holds" if ok else f"fails: {detail}"


def _record(key, lat):
    """The report record of the lattice, whose canonical form is key."""
    energies = cg.congruence_energies(lat)
    pairs = lt.count_two_element_antichains(lat)
    shape = _core_shape(lat)
    return {
        "canon": key.hex(),
        "ce": sum(energies),
        "con_size": len(energies),
        "is_chain": pairs == 0,
        "antichain_pairs": pairs,
        "glued_b4": shape == (4, 4),
        "glued_n5": shape == (5, 5),
    }


def extremal_report(n):
    """The JSON report document of order n: per-class CE and |Con|, in
    canonical-form order, the max and second witnesses, and the verdicts
    of the extremal statements by name; ``second_ce`` is None below order
    4, where the chain is the only lattice.  Each record is made from the
    first Lattice the generator makes of the class."""
    records = [r for _, r in sorted(_keyed_lattices(n, _record).items())]
    max_ce = max(r["ce"] for r in records)
    rest = [r for r in records if r["ce"] < max_ce]
    second_ce = max((r["ce"] for r in rest), default=None)
    nonchains = [r for r in records if not r["is_chain"]]

    chains = [r for r in records if r["is_chain"]]
    v_b = (
        len(chains) == 1
        and chains[0]["ce"] == ct.g_max(n)
        and all(r["ce"] < ct.g_max(n) for r in nonchains)
    )
    verdicts = {"thm_b": _verdict(v_b, "chain is not the unique maximizer")}

    if n >= 4:
        gsb = ct.g_sb(n)
        at_gsb = {r["canon"] for r in records if r["ce"] == gsb}
        one_pair = {r["canon"] for r in records if r["antichain_pairs"] == 1}
        glued = {r["canon"] for r in records if r["glued_b4"]}
        below = all(r["ce"] <= gsb for r in nonchains)
        v_c = below and at_gsb == one_pair == glued
        verdicts["thm_c"] = _verdict(v_c, "g_sb witness sets differ")
    else:
        verdicts["thm_c"] = "skipped-budget"

    v_many = all(r["con_size"] <= 2 ** (n - 1) for r in records) and all(
        (r["con_size"] == 2 ** (n - 1)) == r["is_chain"] for r in records
    ) and all(
        (r["con_size"] == 2 ** (n - 2)) == r["glued_b4"] and r["con_size"] <= 2 ** (n - 2)
        for r in nonchains
    )
    verdicts["manycon"] = _verdict(v_many, "congruence-count bounds violated")

    if n >= 5:
        v_pent = all(
            r["ce"] == ct.g_pn(n) and r["con_size"] == 5 * 2 ** (n - 5)
            for r in records
            if r["glued_n5"]
        )
        verdicts["pentagon"] = _verdict(v_pent, "pentagon family values off")
    else:
        verdicts["pentagon"] = "skipped-budget"

    return {
        "n": n,
        "lattice_count": len(records),
        "max_ce": max_ce,
        "max_witnesses": [r["canon"] for r in records if r["ce"] == max_ce],
        "second_ce": second_ce,
        "second_witnesses": [r["canon"] for r in rest if r["ce"] == second_ce],
        "records": records,
        "verdicts": verdicts,
    }
