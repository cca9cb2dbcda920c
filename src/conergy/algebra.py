"""General finite algebras given by operation tables.

A congruence is generated by ``congruence.translation_closure`` over the
unary translations (all but one argument frozen to constants), the same
union-find closure that lattices use.  Con(A) need not be distributive, so
it is the join-closure of the principal congruences, built by
``congruence.join_closure`` under its CON_BUDGET, with the translations
listed once per algebra.  ``ce_bound_check`` tests distributivity of Con(A)
for real, by ``congruence.is_distributive``'s down-set count, since for an
algebra it is a hypothesis, not a theorem.
"""

import itertools
from dataclasses import dataclass, field

from . import congruence as cg
from . import counting as ct
from . import energy as en
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
    """All maps x -> f(c1, .., x, .., ck), as sorted tuples of length n."""
    n = alg.n
    maps = set()
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
    return cg.translation_closure(alg.n, unary_translations(alg), pairs)


def all_congruences_alg(alg):
    """Con(A): join-closure of the principal congruences, all closed under
    one list of translations."""
    n = alg.n
    if n > ALG_BUDGET:
        raise BudgetExceeded(f"all_congruences_alg limited to n <= {ALG_BUDGET}")
    trs = unary_translations(alg)
    jis = [
        cg.translation_closure(n, trs, [(a, b)]) for a in range(n) for b in range(a + 1, n)
    ]
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
    boolean = cg.has_boolean_size(con) if attains else False
    holds = ce <= bound and (
        not attains or (boolean and len(con) == 2 ** (alg.n - 1))
    )
    return CeBoundVerdict("ok", alg.n, ce, bound, len(con), attains, boolean, holds)
