"""General finite algebras given by operation tables.

A congruence is generated by ``partition.join_pairs`` over the unary
translations (all but one argument frozen to constants), the same
union-find closure that lattices use.  ``principal_congruences`` finds
every Cg(a, b) at once, from one transitive closure of the translation
images on bitmasks of pairs, with one union-find per distinct result
(after Freese, "Computing congruences efficiently", 2008).  Con(A) need
not be distributive, so it is the join-closure of the principal
congruences, built by ``congruence.join_closure`` over the
join-irreducible ones under its CON_BUDGET.  The result has the one form
every congruence lattice has: each member's down-set over J and J's
strict order.  ``ce_bound_check`` tests distributivity of Con(A) for real,
by ``congruence.is_distributive``'s down-set count over that order, since
for an algebra it is a hypothesis, not a theorem.
"""

from dataclasses import dataclass, field

from . import congruence as cg
from . import counting as ct
from . import energy as en
from . import lattice as lt
from . import partition as pt
from .errors import BudgetExceeded, OutOfRange, SizeMismatch

MAX_ARITY = 3
ALG_BUDGET = 8


@dataclass(frozen=True)
class Operation:
    name: str
    arity: int
    table: tuple  # flat, row-major over argument tuples


@dataclass(frozen=True)
class FiniteAlgebra:
    n: int
    ops: tuple

    def __post_init__(self):
        if self.n < 1:
            raise OutOfRange(f"universe size must be >= 1, got {self.n}")
        for op in self.ops:
            if not 0 <= op.arity <= MAX_ARITY:
                raise SizeMismatch(f"operation {op.name}: arity {op.arity} > {MAX_ARITY}")
            if len(op.table) != self.n ** op.arity:
                raise SizeMismatch(f"operation {op.name}: table size mismatch")
            if any(not 0 <= v < self.n for v in op.table):
                raise OutOfRange(f"operation {op.name}: table entry outside universe")

    def to_json_dict(self):
        return {
            "n": self.n,
            "ops": [
                {"name": op.name, "arity": op.arity, "table": list(op.table)}
                for op in self.ops
            ],
        }


def apply_op(alg, op, args):
    idx = 0
    for a in args:
        idx = idx * alg.n + a
    return op.table[idx]


def unary_translations(alg):
    """All maps x -> f(c1, .., x, .., ck), as sorted tuples of length n.
    With x at position pos, the map is a slice of the row-major table with
    stride n^(k-1-pos), from each index whose digit at pos is 0."""
    n = alg.n
    maps = set()
    for op in alg.ops:
        for pos in range(op.arity):
            stride = n ** (op.arity - 1 - pos)
            for start in range(n ** op.arity):
                if start // stride % n == 0:
                    maps.add(tuple(op.table[start : start + n * stride : stride]))
    return sorted(maps)


def congruence_closure(alg, pairs):
    """Least congruence containing the given pairs."""
    return pt.join_pairs(alg.n, pairs, unary_translations(alg))


def principal_congruences(alg):
    """{(a, b): Cg(a, b)} for every a < b, from one closure on pairs.

    The n(n-1)/2 unordered pairs are the bits of a mask, each pair's row
    holding its images {t(a), t(b)} under the unary translations t.  The
    Warshall pass ``lattice._transitive_closure`` over the rows leaves in
    row (a, b) every pair reachable from it, a set of pairs closed under
    the translations; the equivalence it generates is then closed under
    them too, so it is Cg(a, b).  One union-find runs per distinct row."""
    n = alg.n
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {}
    for k, (a, b) in enumerate(pairs):
        index[a, b] = index[b, a] = k
    trs = unary_translations(alg)
    reach = []
    for k, (a, b) in enumerate(pairs):
        row = 1 << k
        for t in trs:
            if t[a] != t[b]:
                row |= 1 << index[t[a], t[b]]
        reach.append(row)
    lt._transitive_closure(reach)
    congruences = {}
    for row in reach:
        if row not in congruences:
            congruences[row] = pt.union_find(list(range(n)), [pairs[k] for k in lt._bits(row)])
    return {pair: congruences[row] for pair, row in zip(pairs, reach)}


def all_congruences_alg(alg):
    """Con(A): join-closure of the principal congruences."""
    if alg.n > ALG_BUDGET:
        raise BudgetExceeded(f"all_congruences_alg limited to n <= {ALG_BUDGET}")
    return cg.join_closure(alg.n, principal_congruences(alg).values())


def lattice_as_algebra(lat):
    """View a lattice as an algebra with its binary meet and join."""
    n = lat.n
    flat_join = tuple(lat.join(a, b) for a in range(n) for b in range(n))
    flat_meet = tuple(lat.meet(a, b) for a in range(n) for b in range(n))
    return FiniteAlgebra(
        n, (Operation("join", 2, flat_join), Operation("meet", 2, flat_meet))
    )


@dataclass(frozen=True)
class CeBoundVerdict:
    status: str               # "ok" or "precondition-failed"
    n: int
    ce: int
    bound: int
    con_size: int
    attains_max: bool = False
    con_is_boolean: bool = False
    holds: bool = field(default=False)


def ce_bound_check(alg):
    """Check CE(A) <= g_max(n) for a congruence distributive algebra, and
    the boolean structure claim in the equality case.  Returns a verdict
    record, never raises on a failed precondition."""
    con = all_congruences_alg(alg)
    ce = en.congruence_energy(con)
    bound = ct.g_max(alg.n)
    if not cg.is_distributive(con):
        return CeBoundVerdict("precondition-failed", alg.n, ce, bound, len(con))
    attains = ce == bound
    boolean = cg.has_boolean_size(con) if attains else False
    holds = ce <= bound and (
        not attains or (boolean and len(con) == 2 ** (alg.n - 1))
    )
    return CeBoundVerdict("ok", alg.n, ce, bound, len(con), attains, boolean, holds)
