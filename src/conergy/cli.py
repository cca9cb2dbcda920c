"""Batch front end: load lattices from JSON or builder specs, run the
energy/congruence/enumeration computations, emit JSON reports.  Each
verification suite, and the oracle, is a stream of (line, passed) checks,
from which ``_emit_checks`` alone derives the report and its exit code.

Exit codes: 0 success/verified, 1 verification counterexample, 2 input
error, 3 budget exceeded, 4 internal error (a bug, never a verdict).
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import algebra as alg
from . import congruence as cg
from . import counting as ct
from . import energy as en
from . import enumeration as enum_mod
from . import lattice as lt
from . import partition as pt
from .errors import BudgetExceeded, ConergyError, DomainError, MalformedInput

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

EQU_BOUND_TABLE = (0, 2, 10, 46, 218, 1088, 5752, 32226, 190990, 1194310)

# Both grow faster than n^2 with big integers.  On a 2-vCPU host with
# Python 3.11, in-process, `table --max-n 200` takes 0.3 s and `--max-n 300`
# 1.1 s; `verify --suite aux --n 100` takes 0.015 s and `aux --n 200` 0.07 s
# on integers (0.2 s and 0.9 s when it ran on Fractions).
TABLE_BUDGET = 200
AUX_BUDGET = 100


def _part(spec):
    """(size, build) of one builder part, its size checked and nothing
    built: a chain's size is in its spec, a named lattice is fixed data."""
    s = spec.strip().lower()
    if s.startswith("chain:"):
        size = s.split(":", 1)[1]
        try:
            n = int(size)
        except ValueError:
            raise MalformedInput(f"chain size must be an integer, got {size!r}") from None
        lt._check_size(n)
        return n, functools.partial(lt.chain, n)
    if s in ("b4", "m3", "n5"):
        lat = lt.named(s.upper())
        return lat.n, lambda: lat
    raise MalformedInput(f"unknown builder part {spec!r}")


def parse_builder(spec):
    """The lattice of a builder spec.  Every part is parsed and checked,
    and then the glued size, before any part is built."""
    glue = spec.lower().startswith("glue:")
    parts = [_part(p) for p in (spec[len("glue:"):].split(",") if glue else [spec])]
    lt._check_size(sum(n - 1 for n, _ in parts) + 1)
    lats = [build() for _, build in parts]
    return lt.glued_sum(*lats) if glue else lats[0]


def _ints(value, what, length=None):
    if (
        not isinstance(value, list)
        or any(type(v) is not int for v in value)
        or length not in (None, len(value))
    ):
        count = f"{length} integers" if length else "integers"
        raise MalformedInput(f"{what} must be a list of {count}")
    return tuple(value)


def load_json(text, what):
    """The one input boundary for JSON: a lattice file {"n": int, "covers":
    [[int, int], ...]} gives (n, covers), a --by rep array [int, ...] gives
    a tuple.  Anything else raises MalformedInput."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{what} is not JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput(f"{what} is nested too deeply") from None
    if what == "--by":
        return _ints(doc, what)
    if (
        not isinstance(doc, dict)
        or type(doc.get("n")) is not int
        or not isinstance(doc.get("covers"), list)
    ):
        raise MalformedInput(f'{what} must be an object with integer "n" and list "covers"')
    return doc["n"], [_ints(c, "each cover", 2) for c in doc["covers"]]


def load_lattice(args):
    if getattr(args, "builder", None):
        return parse_builder(args.builder)
    if getattr(args, "input", None):
        with open(args.input) as fh:
            return lt.from_covers(*load_json(fh.read(), args.input))
    raise MalformedInput("provide an input file or --builder")


def _write(text, out=None):
    """Write the report text and a final newline to the file out, or else
    to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_text(doc, indent=""):
    """json.dumps(doc, indent=2, sort_keys=True), nested at indent, with each
    list of ints in one join; floats, non-string keys and empty containers
    are json.dumps's own text, re-indented."""
    inner, sep = indent + "  ", ",\n" + indent + "  "
    if isinstance(doc, str):
        return _quote(doc)
    if doc is None or type(doc) in (bool, int):
        return "null" if doc is None else str(doc).lower()  # True -> "true"
    if isinstance(doc, (list, tuple)) and doc:
        if {*map(type, doc)} == {int}:
            body = sep.join(map(str, doc))
        elif all(x and type(x) in (list, tuple) and {*map(type, x)} == {int} for x in doc):
            deeper = ",\n  " + inner
            body = sep.join([f"[\n  {inner}{deeper.join(map(str, x))}\n{inner}]" for x in doc])
        else:
            body = sep.join([_json_text(x, inner) for x in doc])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(doc, dict) and doc and {*map(type, doc)} == {str}:
        body = sep.join([f"{_quote(k)}: {_json_text(doc[k], inner)}" for k in sorted(doc)])
        return f"{{\n{inner}{body}\n{indent}}}"
    return json.dumps(doc, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _emit(doc, out=None):
    _write(_json_text(doc), out)


def cmd_energy(args):
    lat = load_lattice(args)
    energies = cg.congruence_energies(lat)
    _emit(
        {
            "n": lat.n,
            "ce": sum(energies),
            "con_size": len(energies),
            "energies": sorted(energies),
        },
        args.out,
    )
    return EXIT_OK


def _con_hasse(con):
    """Covering pairs [i, j] of Con(L), sorted, and the rank of each member,
    from the down-set masks: Con(L) is isomorphic to the down-sets of J,
    whose covers are D < D + {t} for every t outside D that leaves a
    down-set, and whose rank is |D|."""
    index = {d: i for i, d in enumerate(con.down_sets)}
    width = max(con.down_sets).bit_length()  # |J|: the top's mask is full
    hasse = [
        [i, index[d | 1 << t]]
        for i, d in enumerate(con.down_sets)
        for t in range(width)
        if d | 1 << t in index and not d >> t & 1
    ]
    return sorted(hasse), [d.bit_count() for d in con.down_sets]


def cmd_conlat(args):
    """Con(L) is distributive (Funayama-Nakayama), the down-sets of J: it is
    boolean iff |Con| = 2^|J|, and its atoms are the members of rank 1."""
    lat = load_lattice(args)
    con = cg.all_congruences(lat)
    hasse, rank = _con_hasse(con)
    _emit(
        {
            "host_n": con.host_n,
            "members": [list(m) for m in con.members],
            "hasse": hasse,
            "atoms": [i for i, r in enumerate(rank) if r == 1],
            "distributive": True,
            "boolean": len(con) == 2 ** max(rank),
        },
        args.out,
    )
    return EXIT_OK


def cmd_quotient(args):
    lat = load_lattice(args)
    theta = pt.checked(lat.n, load_json(args.by, "--by"))
    q, block_map = cg.quotient(lat, theta)
    _emit({**q.to_json_dict(), "block_map": list(block_map)}, args.out)
    return EXIT_OK


def cmd_enumerate(args):
    report = enum_mod.extremal_report(args.n)
    if args.emit:
        for rec in report["records"]:
            rec["covers"] = enum_mod.covers_from_key(bytes.fromhex(rec["canon"]))
    _emit(report, args.out)
    bad = [v for v in report["verdicts"].values() if v.startswith("fails")]
    return EXIT_COUNTEREXAMPLE if bad else EXIT_OK


def _at_least_one(n, what):
    if n < 1:
        raise DomainError(f"{what} must be >= 1, got {n}")
    return n


def _within(n, budget, what):
    if n > budget:
        raise BudgetExceeded(f"{what} limited to <= {budget}, got {n}")
    return n


def cmd_table(args):
    max_n = _within(_at_least_one(args.max_n, "--max-n"), TABLE_BUDGET, "--max-n")
    ns = list(range(1, max_n + 1))
    bounds = [ct.equ_energy_bound(n) for n in ns]
    if args.format == "text":
        wid = max(len(str(b)) for b in bounds) + 2
        _write("\n".join("".join(f"{v:>{wid}}" for v in row) for row in (ns, bounds)), args.out)
    else:
        _emit({"n": ns, "bound": bounds}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites: a failure line passes False, a summary line True


def suite_remark1(max_n):
    """Claim (1) on the spectral definition: every congruence of every
    lattice of order n <= max_n has a Jacobi energy equal to 2(n - blocks).
    Every order comes from one generator walk.  A partition's graph is one
    clique per block, so its spectrum depends only on the sorted block
    sizes: within one call the solver runs once per such shape, and each
    rep keeps both energies.  Every member is compared and reported alone."""
    _within(max_n, enum_mod.ENUMERATION_BUDGET, "--n")
    energies, by_shape = {}, {}
    for n, lattices in enumerate(enum_mod.all_lattices_by_order(max_n), 1):
        for lat in lattices:
            for m in cg.all_congruences(lat).members:
                se_ce = energies.get(m)
                if se_ce is None:
                    shape = tuple(sorted(map(m.count, set(m))))
                    if shape not in by_shape:
                        by_shape[shape] = en.spectral_energy(en.adjacency_of(m))
                    se_ce = energies[m] = by_shape[shape], en.combinatorial_energy(m)
                se, ce = se_ce
                if abs(se - ce) >= 1e-9:
                    yield f"n={n} rep={m}: spectral {se} vs exact {ce}", False
    yield f"checked all congruences of all iso classes up to n={max_n}", True


def _report_suite(key, max_n, first_n=1):
    _within(max_n, enum_mod.ENUMERATION_BUDGET, "--n")
    for report in enum_mod.extremal_reports(max_n, first_n):
        verdict = report["verdicts"][key]
        yield f"n={report['n']}: {verdict}", not verdict.startswith("fails")


def suite_pentagon(max_k):
    # Con of the order-k family has 5 * 2^(k-5) members: the bound is the
    # largest k with 5 * 2^(k-5) <= CON_BUDGET, found without the power
    _within(max_k, 4 + (cg.CON_BUDGET // 5).bit_length(), "pentagon --n")
    for k in range(5, max_k + 1):
        want_ce = ct.g_pn(k)
        want_con = 5 * 2 ** (k - 5)
        for i, lat in enumerate(enum_mod.glued_n5_family(k), start=1):
            energies = cg.congruence_energies(lat)
            ce, con_size = sum(energies), len(energies)
            if ce != want_ce or con_size != want_con:
                yield f"k={k} placement {i}: ce={ce} con={con_size}", False
        yield f"k={k}: ce={want_ce} con={want_con} for every placement", True


def suite_bounds(max_n):
    for n, want in zip(range(1, 11), EQU_BOUND_TABLE):
        got = ct.equ_energy_bound(n)
        if got != want:
            yield f"n={n}: table value {got} != {want}", False
    for n in range(1, min(max_n, 8) + 1):
        direct = sum(map(en.combinatorial_energy, pt.iter_partitions(n)))
        if direct != ct.equ_energy_bound(n):
            yield f"n={n}: direct sum {direct} != bound", False
    yield f"table 1..10 and direct sums up to n={min(max_n, 8)} verified", True


def suite_aux(max_n=20):
    _within(max_n, AUX_BUDGET, "aux --n")
    for n in range(3, max_n + 1):
        for x in range(1, n - 1):
            w = ct.aux_w(n, x)
            if w != ct.aux_w_factored(n, x) or w < 0 or (w == 0) != (x == 1):
                yield f"w({n},{x}) = {w}", False
    for n in range(5, max_n + 1):
        if ct.aux_u(n, 1) != 0:
            yield f"u_{n}(1) != 0", False
        for x in range(2, n - 1):
            if ct.aux_u(n, x) <= 0:
                yield f"u_{n}({x}) <= 0", False
            if ct.aux_v(n, x) <= 0:
                yield f"v_{n}({x}) <= 0", False
    yield f"auxiliary sign checks verified up to n={max_n}", True


def oracle_checks(n):
    """The lattice classes and each one's Con against their brute-force
    routes up to n = 6, and the partitions against Bell and 2-Bell."""
    if n <= 6:
        fast = enum_mod.all_lattices(n)
        brute = enum_mod.all_lattices_brute(n)
        yield f"lattice classes: generator {len(fast)}, oracle {len(brute)}", len(fast) == len(brute)
        partitions = pt.all_partitions(n)
        for lat in fast:
            if cg.all_congruences(lat).members != cg.brute_force_congruences(lat, partitions):
                yield f"congruence mismatch on {lat.covers}", False
        yield "congruence lattices match the brute-force filter", True
    else:
        yield "lattice/congruence oracles limited to n <= 6; skipped", True
        partitions = pt.iter_partitions(n)
    count = blocks = 0
    for p in partitions:
        count += 1
        blocks += pt.num_blocks(p)
    yield f"partitions: {count} (bell {ct.bell(n)})", count == ct.bell(n)
    yield f"block-weighted count: {blocks} (2-bell {ct.bell2(n)})", blocks == ct.bell2(n)


SUITES = {
    "remark1": (suite_remark1, 6),
    "thm-b": (functools.partial(_report_suite, "thm_b"), 6),
    "thm-c": (functools.partial(_report_suite, "thm_c", first_n=4), 6),
    "manycon": (functools.partial(_report_suite, "manycon"), 6),
    "pentagon": (suite_pentagon, 10),
    "bounds": (suite_bounds, 8),
    "aux": (suite_aux, 20),
}


def _emit_checks(head, checks, out):
    """Read the stream of (line, passed) checks to its end, so that one
    that raises emits nothing, then emit head with the lines as "details"
    and "ok" true iff every check passed; that verdict is the exit code."""
    checks = list(checks)
    ok = all(passed for _, passed in checks)
    _emit({**head, "ok": ok, "details": [line for line, _ in checks]}, out)
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def cmd_verify(args):
    fn, default_n = SUITES[args.suite]
    n = _at_least_one(default_n if args.n is None else args.n, "--n")
    return _emit_checks({"suite": args.suite}, fn(n), args.out)


def cmd_oracle(args):
    return _emit_checks({"n": args.n}, oracle_checks(args.n), args.out)


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="conergy", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    def add_input(sp):
        sp.add_argument("input", nargs="?", help="lattice JSON file {n, covers}")
        sp.add_argument("--builder", help="inline builder, e.g. chain:6 or glue:chain:2,b4,chain:3")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("energy", help="congruence energy of a lattice")
    add_input(sp)

    sp = sub.add_parser("conlat", help="full congruence lattice of a lattice")
    add_input(sp)

    sp = sub.add_parser("quotient", help="quotient lattice by a congruence")
    add_input(sp)
    sp.add_argument("--by", required=True, help="congruence rep array, e.g. [0,0,2]")

    sp = sub.add_parser("enumerate", help="extremal report over all iso classes")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--emit", action="store_true", help="include cover lists per class")
    sp.add_argument("--out")

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    sp.add_argument("--n", type=int, help="override the suite's size budget")
    sp.add_argument("--out")

    sp = sub.add_parser("table", help="equivalence-lattice energy bound table")
    sp.add_argument("--max-n", type=int, default=10)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("--out")

    sp = sub.add_parser("oracle", help="brute-force cross-checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out")

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up on each call, not stored in the cached parser, so that a
    # cmd_* function replaced on the module is the one that runs
    command = globals()[f"cmd_{args.verb}"]
    try:
        return command(args)
    except BudgetExceeded as exc:
        print(f"budget-exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConergyError, ValueError, OSError) as exc:
        print(f"input-error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault here, which must not read as a counterexample
        sys.excepthook(type(exc), exc, exc.__traceback__)  # the traceback, for a report
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
