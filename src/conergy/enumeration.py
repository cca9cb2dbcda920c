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
are asked for.  One walk serves every order up to n: each level's
(m - 1)-element prefixes, with a top added, are the classes of order m
(``_keyed_orders``), so the reports and lattices of orders 1..n come
from the walk to n, and ``enumerate --n`` folds order n alone.

From order 9 on, the last level, which holds most of the work, is shared
among the CPUs this process may run on, at most 8.  Its parents are cut
into contiguous slices; this process runs the first, a forked worker runs
each other one, and the slices merge in order, keeping for each class the
child met first.  So the output is byte-identical on any number of CPUs,
and with one CPU, or without ``os.fork``, nothing is forked.

An independent labeled-poset oracle (enumerate all naturally labeled
posets, filter the lattice property) guards completeness at small sizes.
"""

import marshal
import os
import sys

from . import congruence as cg
from . import counting as ct
from . import lattice as lt
from .errors import BudgetExceeded, DomainError

# `enumerate --n 11` (37 622 classes) takes 4.3-6.6 s on a 2-vCPU host with
# Python 3.11, 7.1-7.8 s on one of its CPUs, at 68-69 MB peak RSS and 29 MB
# in the forked worker; `--n 10` takes 0.8-1.0 s (1.1-1.4 s on one CPU) at
# 26 MB.  Order 12 took 43 s on two CPUs at 301 MB, 122 MB in the worker.
ENUMERATION_BUDGET = 11

# The last level runs in forked workers from this order on, where it has
# 222 parents.  Forking pays from order 8 (0.76x `extremal_report(8)` on
# two CPUs, against 1.06x at order 7), but the oracle tests, which record
# every labelling in this process, run to order 8.
_FORK_FROM = 9


def _down_closed_subsets(dn, k):
    """All nonempty order ideals of the k-element prefix, ascending.  The
    prefix is numbered along a linear extension, so the ideals of its
    first t + 1 elements are those of its first t, and each of them that
    holds every element below t with t added."""
    downs = [0]
    for t in range(k):
        below, bit = dn[t] ^ 1 << t, 1 << t
        downs += [d | bit for d in downs if not below & ~d]
    return sorted(downs[1:])


def _lattice_from_dn(dn):
    return lt.from_order_bits(len(dn), lt._transpose(dn))


def all_lattices(n):
    """All n-element lattices, one representative per isomorphism class,
    in canonical-form order, unchecked, each labelled as generated: along a
    linear extension, so every cover a < b, with bottom 0 and top n - 1."""
    return all_lattices_by_order(n, n)[0]


def all_lattices_by_order(n, first=1):
    """[all_lattices(m) for m in first..n], from one generator walk."""
    found = _keyed_orders(n, lambda key, lat: (lat.n, lat.up_bits, lat.dn_bits, lat.lower), first)
    return [[lt._from_rows(*r) for _, r in sorted(f.items())] for f in found]


def covers_from_key(key):
    """The covering pairs (lo, hi), sorted, of the lattice whose canonical
    form is ``key``, in its canonical labelling.  Read on the up rows,
    ``_lower_from_order`` gives each element's upper covers, ascending, so
    the pairs come out sorted."""
    upper = lt._lower_from_order(lt._up_rows_from_code(key))
    return tuple((a, b) for a, cov in enumerate(upper) for b in cov)


def _keyed_lattices(n, fold):
    """{canonical form: fold(key, lat)} over the iso classes of order n,
    the value of each class that of the first child in it, as a Lattice in
    the child's own labelling, in the order of the sequential loop.  fold
    runs at most once per class in each worker process, and a worker's
    results come back by marshal: they must be plain data (None, bools,
    numbers, strings, bytes, and tuples, lists and dicts of them).

    The children are lattices with no further test: each is a meet
    semilattice, as the meet test checks, with a top appended, and a
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
    return _keyed_orders(n, fold, n)[0]


def _keyed_orders(n, fold, first=1):
    """[_keyed_lattices(m, fold) for m in first..n], from one walk.  The
    level of (m - 1)-element prefixes holds the first child met of each
    class of meet semilattices, and adding a top is a bijection onto the
    lattices of order m: with a top, they are the last level of the walk
    to m, the same classes in the same order with the same children, each
    labelled once more for its key.  With first > n there are none."""
    if n < 1:
        raise DomainError(f"all_lattices needs n >= 1, got {n}")
    if n > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"all_lattices limited to n <= {ENUMERATION_BUDGET}")
    if first > n:
        return []
    orders = []
    for lat in map(lt.chain, range(first, min(n, 2) + 1)):
        key = lt.canonical_form(lat)
        orders.append({key: fold(key, lat)})
    if n <= 2:
        return orders
    level = [([1], [1], [()], ())]  # (dn, up, lower-cover tuples, twin classes)
    for k in range(1, n - 2):
        level = list(_children(level, k, n, fold).values())
        if k + 2 >= first:  # the (k + 1)-element prefixes with a top
            orders.append({})
            for dn, up, lower, _ in level:
                rows = _add_top(up, dn, lower, [y for y, u in enumerate(up) if u == 1 << y])
                key = lt.canonical_order_matrix(k + 2, *rows)[0]
                orders[-1][key] = fold(key, lt._from_rows(k + 2, *rows))
    workers = _workers() if n >= _FORK_FROM else 1
    if workers == 1:
        return orders + [_children(level, n - 2, n, fold)]
    return orders + [_forked_children(level, n, fold, workers)]


def _add_top(up, dn, lower, maximal):
    """The rows and lower covers with a top above the ascending maximal elements."""
    top = 1 << len(up)
    return [u | top for u in up] + [top], dn + [2 * top - 1], lower + [tuple(maximal)]


def _workers():
    """The processes that share the last level: the CPUs this process may
    run on, at most 8; one where os.fork or os.sched_getaffinity is
    missing, or while another thread runs, since a lock that thread holds
    at the fork would stay held in the worker."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), 8)


def _forked_children(level, n, fold, workers):
    """``_children`` of the last level, its parents cut into contiguous
    slices, one per worker.  This process runs slice 0, and a forked child
    runs each other slice and sends its dict, or its exception, through a
    pipe.  The slices merge in order, each key kept from the first slice
    that has it, so the dict, its order and its values are the sequential
    loop's.  A child that fails in any way, by an exception, a signal, a
    non-zero status or an empty pipe, or cannot start, fails the call with
    a RuntimeError, since a partial merge would be an incomplete report;
    every child is reaped on every exit path.

    The dicts travel by marshal, which is built in.  Importing pickle
    instead, where no bytecode is cached, raised the peak RSS of an
    order-9 run by 1.7 MB; only an exception, which marshal cannot carry,
    is pickled."""
    cuts = [len(level) * i // workers for i in range(workers + 1)]
    procs = []  # [pid, None until forked and once reaped; read end of its pipe]
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            try:
                read, write = os.pipe()
                procs.append([None, open(read, "rb")])
                try:
                    pid = os.fork()
                    if pid == 0:
                        _child(write, level[lo:hi], n, fold)
                finally:
                    os.close(write)
            except OSError as exc:  # EAGAIN, EMFILE: the host failed, not the input
                raise RuntimeError(f"cannot start an enumeration worker: {exc}") from exc
            procs[-1][0] = pid
        found = _children(level[:cuts[1]], n - 2, n, fold)
        for proc in procs:
            pid, pipe = proc
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            proc[0] = None
            if status or not data:
                how = f"signal {-status}" if status < 0 else f"status {status}"
                raise RuntimeError(f"enumeration worker {pid} ended with {how}, sending {len(data)} bytes")
            ok, part = marshal.loads(data)
            if not ok:
                import pickle

                raise pickle.loads(part)
            for key, value in part.items():
                found.setdefault(key, value)
        return found
    finally:
        for pid, pipe in procs:
            pipe.close()
            if pid is not None:
                from signal import SIGKILL

                try:
                    os.kill(pid, SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)


def _child(write, parents, n, fold):
    """In a forked child: write (True, dict) of the slice, marshalled, or
    (False, its exception pickled) to the pipe's write end, and leave by
    os._exit, so that none of the parent's clean-up or buffered output
    runs twice.  Exits 1 when even the exception does not pickle."""
    status = 1
    try:
        try:
            data = marshal.dumps((True, _children(parents, n - 2, n, fold)))
        except BaseException as exc:
            import pickle

            data = marshal.dumps((False, pickle.dumps(exc)))
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _children(level, k, n, fold):
    """{canonical form: child} over the kept children of the prefixes in
    level, each of k elements, in the order the sequential loop meets them;
    at the last level, k = n - 2, {canonical form: fold(key, lat)}."""
    last = k == n - 2
    new = 1 << k
    nxt = {}
    for dn, up, lower, twins in level:
        maximal = [y for y in range(k) if up[y] == 1 << y]
        rivals = [((dn[y].bit_count(), len(lower[y])), y) for y in maximal]
        # consecutive twins lo < hi: a twin-normal mask holding hi holds lo
        steps = [(1 << a, 1 << b) for c in twins for a, b in zip(c, c[1:])]
        meets = set(dn)  # a down-set of P with a greatest element z is dn[z]
        for mask in _down_closed_subsets(dn, k):
            if any(mask & hi and not mask & lo for lo, hi in steps):
                continue
            x_lower = tuple([a for a in lt._bits(mask) if up[a] & mask == 1 << a])
            x_inv = (mask.bit_count() + 1, len(x_lower))
            if any(inv > x_inv for inv, y in rivals if not mask >> y & 1):
                continue
            # the meet of x and j is the greatest element of mask & dn[j]
            if not {mask & d for d in dn} <= meets:
                continue
            dn2 = dn + [mask | new]
            up2 = [u | new if mask >> a & 1 else u for a, u in enumerate(up)] + [new]
            lower2 = lower + [x_lower]
            if last:  # append the top: the key is the lattice's canonical form
                tops = [y for y in maximal if not mask >> y & 1] + [k]
                up2, dn2, lower2 = _add_top(up2, dn2, lower2, tops)
            key, twins2 = lt.canonical_order_matrix(len(up2), up2, dn2, lower2)
            if key not in nxt:
                if last:
                    nxt[key] = fold(key, lt._from_rows(n, up2, dn2, lower2))
                else:
                    nxt[key] = (dn2, up2, lower2, twins2)
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
    the lower chain, none when n is below the core's size.  Glued-sum
    decomposition is unique, so no two placements are isomorphic."""
    return [
        lt.glued_sum(lt.chain(i), core, lt.chain(n - core.n - i + 2))
        for i in range(1, n - core.n + 2)
    ]


def glued_b4_family(n):
    """Every chain + B4 + chain stacking of size n; a test oracle for
    the glued-B4 shape test."""
    return _glued_chain_core_chain(lt.named("B4"), n)


def glued_n5_family(n):
    """Every chain + N5 + chain stacking of size n."""
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
    return extremal_reports(n, n)[0]


def extremal_reports(n, first=1):
    """[extremal_report(m) for m in first..n], from one generator walk."""
    found = _keyed_orders(n, _record, first)
    return [_report(m, [r for _, r in sorted(f.items())]) for m, f in enumerate(found, first)]


def _report(n, records):
    """The report of order n from its records, one per class in key order.
    One loop decides every verdict, each a test on one record's CE, |Con|,
    antichain count and shape, and thm_b also on the number of chains:
    the canons are distinct, so the classes at g_sb, those with one
    two-element antichain and the glued-B4 ones are one set iff each class
    is in all three or in none.  Theorem C is checked from order 4 and the
    pentagon values from order 5; below, their verdicts are skipped."""
    ces = sorted({r["ce"] for r in records})
    max_ce, second_ce = ces[-1], ces[-2] if len(ces) > 1 else None
    g_max, full, half = ct.g_max(n), 2 ** (n - 1), 2 ** (n - 2)
    g_sb = ct.g_sb(n) if n >= 4 else None
    g_pn = ct.g_pn(n) if n >= 5 else None
    chains, v_b, v_c, v_many, v_pent = 0, True, True, True, True
    for r in records:
        ce, con, chain, b4 = r["ce"], r["con_size"], r["is_chain"], r["glued_b4"]
        chains += chain
        v_b &= (ce == g_max) if chain else (ce < g_max)
        v_many &= con <= full and (con == full) == chain
        v_many &= chain or ((con == half) == b4 and con <= half)
        if g_sb is not None:
            v_c &= (chain or ce <= g_sb) and (ce == g_sb) == (r["antichain_pairs"] == 1) == b4
        if g_pn is not None and r["glued_n5"]:
            v_pent &= ce == g_pn and con == 5 * 2 ** (n - 5)
    return {
        "n": n,
        "lattice_count": len(records),
        "max_ce": max_ce,
        "max_witnesses": [r["canon"] for r in records if r["ce"] == max_ce],
        "second_ce": second_ce,
        "second_witnesses": [r["canon"] for r in records if r["ce"] == second_ce],
        "records": records,
        "verdicts": {
            "thm_b": _verdict(v_b and chains == 1, "chain is not the unique maximizer"),
            "thm_c": _verdict(v_c, "g_sb witness sets differ") if g_sb is not None else "skipped-budget",
            "manycon": _verdict(v_many, "congruence-count bounds violated"),
            "pentagon": _verdict(v_pent, "pentagon family values off") if g_pn is not None else "skipped-budget",
        },
    }
