"""General finite algebras given by operation tables.

Congruence generation runs a fixpoint over unary translations (all but one
argument frozen to constants) alternated with transitive re-closure; the
full congruence lattice is the join-closure of the principal congruences,
built by ``congruence.join_closure`` under its CON_BUDGET.  ``ce_bound_check``
tests distributivity of Con(A) for real, since for an algebra it is a
hypothesis, not a theorem.
"""

import itertools
from dataclasses import dataclass, field

from . import congruence as cg
from . import counting as ct
from . import energy as en
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
    """All maps x -> f(c1, .., x, .., ck), as tuples of length n.

    The identity is included so the fixpoint loop has a uniform shape.
    """
    n = alg.n
    maps = {tuple(range(n))}
    for op in alg.ops:
        if op.arity == 0:
            continue
        slots = [range(n)] * op.arity
        for pos in range(op.arity):
            others = [list(s) for s in slots[:pos] + slots[pos + 1:]]
            for consts in itertools.product(*others):
                args = list(consts[:pos]) + [0] + list(consts[pos:])
                tr = []
                for x in range(n):
                    args[pos] = x
                    tr.append(apply_op(alg, op, args))
                maps.add(tuple(tr))
    return sorted(maps)


def congruence_closure(alg, pairs):
    """Least congruence containing the given pairs."""
    n = alg.n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise OutOfRange(f"pair ({a},{b}) outside 0..{n - 1}")
    trs = unary_translations(alg)
    current = pt.join_pairs(n, pairs)
    while True:
        extra = []
        for x in range(n):
            y = current.rep[x]
            if y == x:
                continue
            for tr in trs:
                if current.rep[tr[x]] != current.rep[tr[y]]:
                    extra.append((tr[x], tr[y]))
        if not extra:
            return current
        current = pt.join(current, pt.join_pairs(n, extra))


def is_compatible(alg, p):
    """Whether an equivalence respects every operation."""
    return all(
        p.rep[tr[x]] == p.rep[tr[p.rep[x]]]
        for tr in unary_translations(alg)
        for x in range(alg.n)
    )


def all_congruences_alg(alg):
    """Con(A): join-closure of the principal congruences."""
    n = alg.n
    if n > ALG_BUDGET:
        raise BudgetExceeded(f"all_congruences_alg limited to n <= {ALG_BUDGET}")
    jis = [congruence_closure(alg, [(a, b)]) for a in range(n) for b in range(a + 1, n)]
    return cg.join_closure(n, jis)


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
    boolean = cg.is_boolean(con) if attains else False
    holds = ce <= bound and (
        not attains or (boolean and len(con) == 2 ** (alg.n - 1))
    )
    return CeBoundVerdict("ok", alg.n, ce, bound, len(con), attains, boolean, holds)
