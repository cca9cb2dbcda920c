"""Seeded job lists for the three benchmark workloads.

A job is a JSON-ready dict: ``{"id", "kind": "cli", "argv"}`` for a
conergy command line, or ``{"id", "kind": "algebra", "family", "n", "ops"}``
for a ``ce_bound_check`` call on an algebra given by operation tables.
The seed picks the inputs and their order; the mix of job sizes is fixed
per workload, so every seed asks for about the same amount of work.
"""

import hashlib
import itertools
import json
import random

from reference import StackLattice, congruences_of, job_ops, lattice_ops, up_bits

WORKLOADS = ("enumerate", "conlat", "verify")

# enumerate: order -> number of `enumerate --n` jobs per pass; the n = 7
# jobs hold both the median and the tail rank
ENUMERATE_MIX = {9: 1, 8: 1, 7: 16, 6: 8}
# share of each order's jobs that ask for cover lists; rounds to none at
# n = 8 and 9, where the indented report would add seconds of JSON output
EMIT_SHARE = 0.25

# conlat: (verb, parts, count).  Each job glues the parts in a seeded
# order, which keeps |Con| (a product over the parts) and the order of the
# lattice; cost follows these two, give or take the gluing order.  Chains are split into seeded pieces,
# which gives the very same lattice.  The eight energy jobs on chain 7 hold
# the median job, so that it does not fall between two cost classes.
CONLAT_MIX = (
    ("conlat", ("chain:8",), 1),                    # |Con| 128
    ("conlat", ("b4", "chain:3", "chain:3"), 1),    # 64
    ("conlat", ("b4", "chain:4", "m3"), 1),         # 64
    ("conlat", ("n5", "b4", "chain:2"), 2),         # 40
    ("conlat", ("b4", "chain:3", "m3"), 2),         # 32
    ("conlat", ("n5", "m3", "chain:2"), 2),         # 20
    ("conlat", ("b4", "m3", "chain:2"), 3),         # 16
    ("energy", ("chain:9",), 2),                    # 256
    ("energy", ("b4", "b4", "b4", "chain:2"), 3),   # 128
    ("energy", ("n5", "b4", "chain:3"), 4),         # 80
    ("energy", ("chain:7",), 8),                    # 64
    ("energy", ("n5", "m3", "chain:2"), 3),         # 20
    ("quotient", ("b4", "b4", "chain:4"), 3),       # 128
    ("quotient", ("b4", "chain:4", "chain:2"), 3),  # 64
    ("quotient", ("n5", "b4", "m3"), 3),            # 40
    ("quotient", ("b4", "chain:3", "chain:2"), 3),  # 32
    ("quotient", ("n5", "chain:3"), 4),             # 20
    ("quotient", ("m3", "m3", "b4"), 4),            # 16
)

# verify: CLI suites at default and raised sizes, run once per pass.  The
# ~0.1 s runs (oracle, remark1 --n 7, pentagon --n 10) sit at the tail rank,
# and the n = 6 report suites keep the jobs below them well under it.
VERIFY_SUITES = (
    ["verify", "--suite", "remark1", "--n", "7"],
    ["verify", "--suite", "remark1", "--n", "8"],
    ["verify", "--suite", "thm-b", "--n", "6"],
    ["verify", "--suite", "thm-b", "--n", "7"],
    ["verify", "--suite", "thm-c", "--n", "6"],
    ["verify", "--suite", "thm-c", "--n", "7"],
    ["verify", "--suite", "manycon", "--n", "6"],
    ["verify", "--suite", "manycon", "--n", "7"],
    ["verify", "--suite", "pentagon", "--n", "9"],
    ["verify", "--suite", "pentagon", "--n", "10"],
    ["verify", "--suite", "pentagon", "--n", "11"],
    ["verify", "--suite", "bounds", "--n", "8"],
    ["verify", "--suite", "aux", "--n", "30"],
    ["oracle", "--n", "6"],
)
# lattices seen as algebras: chain 8 and 7, and two stacks glued in a
# seeded order (|Con| 20 and 32, 8 elements each)
ALGEBRA_LATTICES = (("chain:8",), ("chain:7",), ("n5", "b4"), ("b4", "b4", "chain:2"))
# a unary algebra with |Con| = 609 > 512, so that is_distributive takes its
# forbidden-sublattice branch: on 8 points x1 -> x0, x2 -> x1 and every
# other point fixed, relabelled by a seeded permutation
UNARY_BIG_MAP = (0, 0, 1, 3, 4, 5, 6, 7)
# random algebras: ((order, operation arities), count); the seed fills the
# tables.  The eight 6-element ones hold the median job of the workload.
RANDOM_SHAPES = (
    ((8, (1, 3)), 1), ((8, (3,)), 1), ((6, (1, 3)), 8),
    ((7, (1, 2)), 2), ((7, (2,)), 2), ((6, (1, 1, 2)), 2), ((5, (3,)), 2), ((5, (1, 2)), 2),
    ((4, (1, 3)), 2), ((4, (2,)), 2), ((3, (1, 1, 2)), 2), ((3, (3,)), 2), ((3, (1, 2)), 2),
)
# a random algebra with more congruences is drawn again, so that no seed
# hides a cubic distributivity check on a few hundred congruences
RANDOM_CON_CAP = 64


def glued(parts, rng):
    """Builder string gluing the parts in a seeded order; a lone chain is
    split into seeded pieces (glued chains make the same chain)."""
    if len(parts) == 1 and parts[0].startswith("chain:"):
        k = int(parts[0].split(":")[1])
        cuts = sorted(rng.sample(range(2, k), rng.randint(0, 2)))
        sizes = [b - a + 1 for a, b in zip([1] + cuts, cuts + [k])]
        parts = tuple(f"chain:{size}" for size in sizes)
    order = rng.sample(parts, len(parts))
    return "glue:" + ",".join(order) if len(order) > 1 else order[0]


def enumerate_jobs(rng):
    jobs = []
    for n, count in ENUMERATE_MIX.items():
        emit = set(rng.sample(range(count), round(count * EMIT_SHARE)))
        for i in range(count):
            argv = ["enumerate", "--n", str(n)] + (["--emit"] if i in emit else [])
            jobs.append({"kind": "cli", "argv": argv})
    return jobs


def conlat_jobs(rng):
    jobs = []
    for verb, parts, count in CONLAT_MIX:
        for _ in range(count):
            spec = glued(parts, rng)
            argv = [verb, "--builder", spec]
            if verb == "quotient":
                theta = rng.choice(sorted(StackLattice(spec).congruences()))
                argv += ["--by", json.dumps(list(theta), separators=(",", ":"))]
            jobs.append({"kind": "cli", "argv": argv})
    return jobs


def _relabel(n, ops, rng):
    """The same algebra with its elements renamed by a seeded permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for name, arity, table in ops:
        new = [0] * len(table)
        for args in itertools.product(range(n), repeat=arity):
            src = 0
            dst = 0
            for a in args:
                src = src * n + a
                dst = dst * n + perm[a]
            new[dst] = perm[table[src]]
        out.append([name, arity, new])
    return out


def _lattice_algebra(spec, rng):
    lat = StackLattice(spec)
    (_, join), (_, meet) = lattice_ops(lat.n, up_bits(lat.n, lat.covers))
    ops = [["join", 2, list(join)], ["meet", 2, list(meet)]]
    return {"kind": "algebra", "family": "lattice", "n": lat.n, "ops": _relabel(lat.n, ops, rng)}


def verify_jobs(rng):
    jobs = [{"kind": "cli", "argv": list(argv)} for argv in VERIFY_SUITES]
    for parts in ALGEBRA_LATTICES:
        jobs.append(_lattice_algebra(glued(parts, rng), rng))
    ops = _relabel(8, [["f", 1, list(UNARY_BIG_MAP)]], rng)
    jobs.append({"kind": "algebra", "family": "unary-big", "n": 8, "ops": ops})
    for (n, arities), count in RANDOM_SHAPES:
        for _ in range(count):
            while True:
                ops = [[f"f{i}", a, [rng.randrange(n) for _ in range(n ** a)]] for i, a in enumerate(arities)]
                if len(congruences_of(n, job_ops({"ops": ops}))) <= RANDOM_CON_CAP:
                    break
            jobs.append({"kind": "algebra", "family": "random", "n": n, "ops": ops})
    return jobs


def make_jobs(workload, seed):
    """The job list for a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"enumerate": enumerate_jobs, "conlat": conlat_jobs, "verify": verify_jobs}[workload](rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:03d}"
    return jobs


def job_list_digest(jobs):
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
