"""Reference answers for benchmark jobs, computed without conergy.

Nothing here imports the package under test.  Lattices are rebuilt from
their builder strings, congruences come from closed forms (chains), a
brute-force filter over all set partitions (small parts and algebras) and
the product rule for glued sums, and counts come from hard-coded sequences
and closed formulas.  ``Checker.check`` compares one job's output with the
reference and returns an error string, or None when the output is right.
"""

import itertools
import json
from functools import lru_cache

# Isomorphism classes of n-element lattices, n = 1..9 (OEIS A006966).
A006966 = (1, 1, 1, 2, 5, 15, 53, 222, 1078)

# Above this many congruences the triple identity is too slow to run here;
# distributivity is then decided by an M3 witness among the atoms.
TRIPLE_LIMIT = 512

NAMED_PARTS = {
    "b4": (4, ((0, 1), (0, 2), (1, 3), (2, 3))),
    "m3": (5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))),
    "n5": (5, ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4))),
}


def g_max(n):
    return (n - 1) * 2 ** (n - 1)


def g_sb(n):
    return (n - 1) * 2 ** (n - 2) + 2 ** (n - 3)


# ---------------------------------------------------------------------------
# set partitions as canonical rep tuples: rep[i] = least element of i's block


def canonical(labels):
    first = {}
    return tuple(first.setdefault(lab, i) for i, lab in enumerate(labels))


@lru_cache(maxsize=None)
def set_partitions(n):
    """Every set partition of range(n), as canonical rep tuples."""
    out = []

    def rec(rgs, used):
        if len(rgs) == n:
            out.append(canonical(rgs))
            return
        for v in range(used + 1):
            rec(rgs + [v], used + (v == used))

    rec([0], 1)
    return tuple(out)


def block_count(rep):
    return sum(1 for i, r in enumerate(rep) if r == i)


def energy(rep):
    return 2 * (len(rep) - block_count(rep))


def refines(p, q):
    return all(q[i] == q[p[i]] for i in range(len(p)))


def union_pairs(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return canonical([find(i) for i in range(n)])


def pjoin(p, q):
    return union_pairs(len(p), [*enumerate(p), *enumerate(q)])


def pmeet(p, q):
    return canonical(list(zip(p, q)))


# ---------------------------------------------------------------------------
# compatibility of a partition with operation tables


def _op_bases(n, arity):
    """Per argument position: (stride, table offsets with that digit 0)."""
    out = []
    for pos in range(arity):
        stride = n ** (arity - 1 - pos)
        bases = [
            sum(d * n ** (arity - 1 - i) for i, d in enumerate(digits))
            for digits in itertools.product(range(n), repeat=arity)
            if digits[pos] == 0
        ]
        out.append((stride, bases))
    return out


def congruences_of(n, ops):
    """Brute force: every partition of range(n) compatible with each
    (arity, flat table) operation, changing one argument at a time."""
    prepared = [(table, _op_bases(n, arity)) for arity, table in ops if arity > 0]
    out = []
    for rep in set_partitions(n):
        pairs = [(u, v) for v in range(n) for u in range(v) if rep[u] == rep[v]]
        if all(
            rep[table[b + u * stride]] == rep[table[b + v * stride]]
            for table, positions in prepared
            for stride, bases in positions
            for u, v in pairs
            for b in bases
        ):
            out.append(rep)
    return out


def lattice_ops(n, up):
    """Join and meet tables (flat, row-major) from up-bitmasks."""
    dn = [sum(1 << a for a in range(n) if up[a] >> b & 1) for b in range(n)]

    def least(mask, order):
        return next(z for z in range(n) if mask >> z & 1 and mask & ~order[z] == 0)

    join = tuple(least(up[a] & up[b], up) for a in range(n) for b in range(n))
    meet = tuple(least(dn[a] & dn[b], dn) for a in range(n) for b in range(n))
    return ((2, join), (2, meet))


# ---------------------------------------------------------------------------
# lattices named by builder strings


def part_shape(spec):
    """(n, covers) of one builder part: chain:i, b4, m3 or n5."""
    s = spec.strip().lower()
    if s.startswith("chain:"):
        k = int(s.split(":", 1)[1])
        return k, tuple((i, i + 1) for i in range(k - 1))
    return NAMED_PARTS[s]


def stack_parts(builder):
    if builder.lower().startswith("glue:"):
        return builder[len("glue:"):].split(",")
    return [builder]


def up_bits(n, covers):
    succ = [[] for _ in range(n)]
    for a, b in covers:
        succ[a].append(b)
    up = [None] * n

    def visit(a):
        if up[a] is None:
            up[a] = (1 << a) | sum_bits(visit(b) for b in succ[a])
        return up[a]

    for a in range(n):
        visit(a)
    return up


def sum_bits(masks):
    out = 0
    for m in masks:
        out |= m
    return out


class StackLattice:
    """A glued stack rebuilt from its builder string, with labels that
    follow conergy's documented glued-sum rule: the lower lattice keeps its
    labels and the non-bottom elements of the upper one get fresh labels in
    their original order."""

    def __init__(self, builder):
        self.parts = [p.strip().lower() for p in stack_parts(builder)]
        n, covers = part_shape(self.parts[0])
        labels = [tuple(range(n))]
        covers = list(covers)
        for spec in self.parts[1:]:
            pn, pcovers = part_shape(spec)
            top = next(x for x in range(n) if all(a != x for a, _ in covers))
            relabel = [top] + list(range(n, n + pn - 1))
            covers += [(relabel[a], relabel[b]) for a, b in pcovers]
            labels.append(tuple(relabel))
            n += pn - 1
        self.n = n
        self.covers = tuple(sorted(covers))
        self.labels = labels
        self.up = up_bits(n, self.covers)

    def leq(self, a, b):
        return bool(self.up[a] >> b & 1)

    def congruences(self):
        """Con of a glued sum is the product of the parts' Con."""
        per_part = [part_congruences(spec) for spec in self.parts]
        out = []
        for combo in itertools.product(*per_part):
            pairs = [
                (lab[i], lab[r])
                for rep, lab in zip(combo, self.labels)
                for i, r in enumerate(rep)
            ]
            out.append(union_pairs(self.n, pairs))
        return out

    def con_size_and_energy(self):
        """|Con| and CE folded over the parts:
        |Con(A+B)| = |Con A||Con B|, CE(A+B) = |Con B|CE(A) + |Con A|CE(B)."""
        size, ce = 1, 0
        for spec in self.parts:
            members = part_congruences(spec)
            k, e = len(members), sum(energy(m) for m in members)
            size, ce = size * k, k * ce + size * e
        return size, ce


@lru_cache(maxsize=None)
def part_congruences(spec):
    n, covers = part_shape(spec)
    if spec.startswith("chain:"):
        # Con of a chain: every partition into intervals, 2^(n-1) of them
        out = []
        for cuts in itertools.product((0, 1), repeat=n - 1):
            labels = [0]
            for c in cuts:
                labels.append(labels[-1] + c)
            out.append(canonical(labels))
        return tuple(out)
    return tuple(congruences_of(n, lattice_ops(n, up_bits(n, covers))))


# ---------------------------------------------------------------------------
# congruence-lattice facts


def below_masks(members):
    """below[j] = bitmask of indices i with members[i] <= members[j]."""
    out = []
    for q in members:
        out.append(sum_bits(1 << i for i, p in enumerate(members) if refines(p, q)))
    return out


def hasse_edges(members):
    """Covering pairs (i, j): members[i] < members[j] with nothing between."""
    below = below_masks(members)
    k = len(members)
    above = [sum_bits(1 << j for j in range(k) if below[j] >> i & 1) for i in range(k)]
    return {
        (i, j)
        for j in range(k)
        for i in range(k)
        if i != j and below[j] >> i & 1 and bin(above[i] & below[j]).count("1") == 2
    }


def atom_indices(members):
    n = len(members[0])
    bottom = tuple(range(n))
    below = below_masks(members)
    bot = members.index(bottom)
    return sorted(
        j for j, mask in enumerate(below) if j != bot and mask == (1 << bot) | (1 << j)
    )


def is_distributive(members):
    """Triple identity a ^ (b v c) = (a ^ b) v (a ^ c) up to TRIPLE_LIMIT
    members; above it, False when three atoms form an M3, else None."""
    k = len(members)
    if k > TRIPLE_LIMIT:
        return False if m3_witness(members) else None
    idx = {m: i for i, m in enumerate(members)}
    join = [[idx[pjoin(a, b)] for b in members] for a in members]
    meet = [[idx[pmeet(a, b)] for b in members] for a in members]
    for a in range(k):
        ma = meet[a]
        for b in range(k):
            mab, jb = ma[b], join[b]
            jab = join[mab]
            for c in range(k):
                if ma[jb[c]] != jab[ma[c]]:
                    return False
    return True


def m3_witness(members):
    """Three pair-collapsing members whose pairwise joins coincide."""
    have = set(members)
    n = len(members[0])
    for a, b, c in itertools.combinations(range(n), 3):
        trio = [union_pairs(n, [pair]) for pair in ((a, b), (a, c), (b, c))]
        if all(t in have for t in trio) and union_pairs(n, [(a, b), (b, c)]) in have:
            return True
    return False


# ---------------------------------------------------------------------------
# expected outputs per job


def expected_verdict(n, ops):
    """What ce_bound_check must return, as a dict of its fields."""
    members = congruences_of(n, ops)
    k = len(members)
    ce = sum(energy(m) for m in members)
    bound = g_max(n)
    dist = is_distributive(members)
    if dist is None:
        raise ValueError("reference cannot decide distributivity")
    out = {
        "status": "ok" if dist else "precondition-failed",
        "n": n,
        "ce": ce,
        "bound": bound,
        "con_size": k,
        "attains_max": False,
        "con_is_boolean": False,
        "holds": False,
    }
    if dist:
        attains = ce == bound
        boolean = attains and k == 2 ** len(atom_indices(members))
        out["attains_max"] = attains
        out["con_is_boolean"] = boolean
        out["holds"] = ce <= bound and (not attains or (boolean and k == 2 ** (n - 1)))
    return out


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


class Checker:
    """Checks job outputs; reference values are computed once per job."""

    def __init__(self):
        self._expected = {}

    def check(self, job, output):
        if "error" in output:
            return f"raised {output['error']}"
        if job["kind"] == "algebra":
            want = self._cached(job, lambda: expected_verdict(job["n"], job_ops(job)))
            got = output["verdict"]
            return None if got == want else f"verdict {got} != reference {want}"
        if output["rc"] != 0:
            return f"exit code {output['rc']}"
        try:
            doc = json.loads(output["stdout"])
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        verb = job["argv"][0]
        return getattr(self, "_check_" + verb)(job, doc)

    def _cached(self, job, compute):
        if job["id"] not in self._expected:
            self._expected[job["id"]] = compute()
        return self._expected[job["id"]]

    def _stack(self, job):
        def build():
            lat = StackLattice(_flag(job["argv"], "--builder"))
            return lat, set(lat.congruences())

        return self._cached(job, build)

    def _check_enumerate(self, job, doc):
        n = int(_flag(job["argv"], "--n"))
        records = doc["records"]
        if doc["n"] != n or doc["lattice_count"] != A006966[n - 1]:
            return f"lattice_count {doc['lattice_count']} != A006966({n})"
        if len(records) != A006966[n - 1] or len({r["canon"] for r in records}) != len(records):
            return "records are not one per isomorphism class"
        if doc["max_ce"] != g_max(n) or doc["second_ce"] != g_sb(n):
            return f"max/second ce {doc['max_ce']}/{doc['second_ce']} != g_max/g_sb"
        if len(doc["max_witnesses"]) != 1 or len(doc["second_witnesses"]) != n - 3:
            return "witness counts differ from the chain and the n-3 glued-B4 shapes"
        if any(v != "holds" for v in doc["verdicts"].values()) or len(doc["verdicts"]) != 4:
            return f"verdicts {doc['verdicts']}"
        if sum(r["is_chain"] for r in records) != 1:
            return "not exactly one chain"
        if any(r["con_size"] > 2 ** (n - 1) for r in records):
            return "a record has more than 2^(n-1) congruences"
        emit = "--emit" in job["argv"]
        for r in records:
            if ("covers" in r) != emit:
                return "covers present/absent against --emit"
            if emit:
                up = up_bits(n, [tuple(c) for c in r["covers"]])
                pairs = sum(
                    1 for a in range(n) for b in range(a + 1, n)
                    if not (up[a] >> b & 1 or up[b] >> a & 1)
                )
                if pairs != r["antichain_pairs"] or (pairs == 0) != r["is_chain"]:
                    return f"antichain count of {r['covers']} is {pairs}"
        return None

    def _check_energy(self, job, doc):
        lat, cons = self._stack(job)
        size, ce = lat.con_size_and_energy()
        want = {
            "n": lat.n,
            "ce": ce,
            "con_size": size,
            "energies": sorted(energy(m) for m in cons),
        }
        return None if doc == want else f"energy report {doc} != reference {want}"

    def _check_conlat(self, job, doc):
        lat, cons = self._stack(job)
        members = [tuple(m) for m in doc["members"]]
        if doc["host_n"] != lat.n or len(members) != len(cons) or set(members) != cons:
            return f"members differ from the reference Con ({len(cons)} members)"
        edges = [tuple(e) for e in doc["hasse"]]
        if len(edges) != len(set(edges)) or set(edges) != hasse_edges(members):
            return "hasse edges differ"
        if doc["atoms"] != atom_indices(members):
            return "atoms differ"
        if doc["distributive"] is not True:
            return "Con of a lattice reported non-distributive"
        if doc["boolean"] != ("n5" not in lat.parts):
            return f"boolean {doc['boolean']} for parts {lat.parts}"
        return None

    def _check_quotient(self, job, doc):
        lat, _ = self._stack(job)
        theta = tuple(json.loads(_flag(job["argv"], "--by")))
        reps = sorted(set(theta))
        block_of = [reps.index(r) for r in theta]
        t = len(reps)
        below = [
            sum_bits(
                1 << i for i in range(t)
                if any(lat.leq(a, b) for a in range(lat.n) if block_of[a] == i
                       for b in range(lat.n) if block_of[b] == j)
            )
            for j in range(t)
        ]
        covers = sorted(
            [i, j] for j in range(t) for i in range(t)
            if i != j and below[j] >> i & 1
            and not any(k not in (i, j) and below[k] >> i & 1 and below[j] >> k & 1
                        for k in range(t))
        )
        want = {"n": t, "covers": covers, "block_map": block_of}
        return None if doc == want else f"quotient {doc} != reference {want}"

    def _check_verify(self, job, doc):
        suite = _flag(job["argv"], "--suite")
        if doc.get("suite") != suite or doc.get("ok") is not True:
            return f"suite {suite} did not report ok"
        return None

    def _check_oracle(self, job, doc):
        n = int(_flag(job["argv"], "--n"))
        want = [
            f"lattice classes: generator {A006966[n - 1]}, oracle {A006966[n - 1]}",
            f"partitions: {len(set_partitions(n))} (bell {len(set_partitions(n))})",
        ]
        if doc.get("ok") is not True or any(line not in doc["details"] for line in want):
            return f"oracle report {doc} lacks {want}"
        return None


def job_ops(job):
    return [(arity, tuple(table)) for _, arity, table in job["ops"]]
