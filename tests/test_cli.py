import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conergy import cli
from conergy import congruence as cg
from conergy import counting as ct
from conergy import energy as en
from conergy import enumeration as em
from conergy import lattice as lt
from conergy import partition as pt
from conergy.errors import MalformedInput


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def test_parse_builder():
    assert cli.parse_builder("chain:6").covers == lt.chain(6).covers
    assert cli.parse_builder("b4").covers == lt.named("B4").covers
    g = cli.parse_builder("glue:chain:2,b4,chain:3")
    assert g.n == 2 + 4 + 3 - 2
    assert lt.count_two_element_antichains(g) == 1
    for spec in ("cube:3", "chain:x", "glue:b4,chain:2.5"):
        with pytest.raises(MalformedInput):
            cli.parse_builder(spec)
    assert cli.parse_builder("glue:b4") == lt.named("B4")
    want = lt.glued_sum(lt.glued_sum(lt.named("N5"), lt.named("B4")), lt.chain(2))
    assert cli.parse_builder("glue:n5,b4,chain:2") == want


def test_energy_b4(capsys):
    code, doc = run_json(capsys, ["energy", "--builder", "b4"])
    assert code == cli.EXIT_OK
    assert doc == {"n": 4, "ce": 14, "con_size": 4, "energies": [0, 4, 4, 6]}


def test_energy_from_file(tmp_path, capsys):
    path = tmp_path / "n5.json"
    path.write_text(json.dumps(lt.named("N5").to_json_dict()))
    code, doc = run_json(capsys, ["energy", str(path)])
    assert code == cli.EXIT_OK
    assert doc["ce"] == 22 and doc["con_size"] == 5


def test_energy_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, ["energy", "--builder", "chain:4", "--out", str(out)])
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["ce"] == 24 and doc["con_size"] == 8


def test_conlat_n5(capsys):
    code, doc = run_json(capsys, ["conlat", "--builder", "n5"])
    assert code == cli.EXIT_OK
    assert len(doc["members"]) == 5
    assert doc["distributive"] is True
    assert doc["boolean"] is False
    # bottom below a 2x2 square: one atom, five hasse edges
    assert len(doc["atoms"]) == 1
    assert len(doc["hasse"]) == 5


def scanned_hasse(members):
    """Oracle: pairs p < q with no member strictly between them."""
    return [
        [i, j]
        for i, p in enumerate(members)
        for j, q in enumerate(members)
        if p != q
        and pt.leq(p, q)
        and not any(r != p and r != q and pt.leq(p, r) and pt.leq(r, q) for r in members)
    ]


def test_conlat_hasse_matches_scan(tmp_path, capsys):
    path = tmp_path / "lattice.json"
    lats = [lat for n in range(1, 8) for lat in em.all_lattices(n)]
    lats.append(cli.parse_builder("glue:n5,b4,chain:2"))
    for lat in lats:
        path.write_text(json.dumps(lat.to_json_dict()))
        code, doc = run_json(capsys, ["conlat", str(path)])
        assert code == cli.EXIT_OK
        members = [pt.checked(lat.n, tuple(m)) for m in doc["members"]]
        assert doc["hasse"] == scanned_hasse(members)
        # distributive, boolean and atoms come from J by theorem; compare
        # them with the verdicts of the members' own join-closure, which
        # finds J apart from the cover labels: the down-set count, which
        # test_congruence checks against the pentagon/diamond scan on these
        # same lattices, and the atoms
        con = cg.join_closure(lat.n, members)
        assert doc["distributive"] is cg.is_distributive(con) is True
        assert doc["boolean"] is cg.is_boolean(con)
        assert doc["atoms"] == sorted(members.index(a) for a in con.atoms())


def test_quotient(capsys):
    code, doc = run_json(capsys, ["quotient", "--builder", "chain:4", "--by", "[0,0,2,2]"])
    assert code == cli.EXIT_OK
    assert doc["n"] == 2
    assert doc["block_map"] == [0, 0, 1, 1]


def test_quotient_rejects_noncongruence(capsys):
    code, out, err = run(capsys, ["quotient", "--builder", "b4", "--by", "[0,1,1,3]"])
    assert code == cli.EXIT_INPUT
    assert err.startswith("input-error:")


def test_enumerate_small(capsys):
    code, doc = run_json(capsys, ["enumerate", "--n", "5"])
    assert code == cli.EXIT_OK
    assert doc["lattice_count"] == 5
    assert doc["max_ce"] == 64 and doc["second_ce"] == 36
    assert all(v == "holds" for v in doc["verdicts"].values())
    assert "covers" not in doc["records"][0]


def test_enumerate_emit_round_trip(capsys):
    code, doc = run_json(capsys, ["enumerate", "--n", "4", "--emit"])
    assert code == cli.EXIT_OK
    for rec in doc["records"]:
        lat = lt.from_covers(4, [tuple(c) for c in rec["covers"]])
        assert lt.canonical_form(lat).hex() == rec["canon"]


def test_enumerate_budget_exit(capsys):
    for n in ("12", "100"):
        code, out, err = run(capsys, ["enumerate", "--n", n])
        assert code == cli.EXIT_BUDGET
        assert err.startswith("budget-exceeded:")


@pytest.mark.parametrize("suite", ["remark1", "thm-b", "thm-c", "manycon", "pentagon"])
def test_enumerating_suites_check_the_budget_before_any_order(capsys, monkeypatch, suite):
    def compute(n, first=None):
        raise AssertionError(f"order {n} computed past the budget")

    for name in ("extremal_report", "extremal_reports", "all_lattices", "all_lattices_by_order"):
        monkeypatch.setattr(em, name, compute)
    monkeypatch.setattr(em, "glued_n5_family", compute)
    monkeypatch.setattr(cg, "congruence_energies", compute)
    # pentagon's budget is Con(L)'s: 5 * 2^(k-5) members, past it at k = 17
    n = "17" if suite == "pentagon" else "12"
    code, out, err = run(capsys, ["verify", "--suite", suite, "--n", n])
    assert code == cli.EXIT_BUDGET
    assert out == ""
    assert err.startswith("budget-exceeded:")


def test_con_budget_exit(capsys):
    # Con(chain 22) has 2^21 members, past the closure's budget
    code, out, err = run(capsys, ["energy", "--builder", "chain:22"])
    assert code == cli.EXIT_BUDGET
    assert out == ""
    assert err.startswith("budget-exceeded: congruence lattice")


def test_lattice_budget_exit(tmp_path, capsys):
    # both are refused before any closure or table is built
    path = tmp_path / "huge.json"
    path.write_text('{"n": 100000, "covers": []}')
    for argv in (
        ["energy", "--builder", "chain:3000"],
        ["energy", "--builder", "chain:1000000000"],  # its covers alone: > 100 GB
        ["energy", str(path)],
    ):
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_BUDGET
        assert out == ""
        assert err.startswith("budget-exceeded: lattices")


def test_glued_size_is_refused_before_any_part_is_built(capsys, monkeypatch):
    def built(n):
        raise AssertionError(f"chain {n} built past the budget")

    monkeypatch.setattr(lt, "chain", built)
    code, out, err = run(capsys, ["energy", "--builder", "glue:" + ",".join(["chain:256"] * 400)])
    assert code == cli.EXIT_BUDGET and out == ""
    assert err.startswith("budget-exceeded: lattices")
    # a malformed part is still an input error, wherever it stands
    code, _, err = run(capsys, ["energy", "--builder", "glue:" + "chain:256," * 400 + "cube:3"])
    assert code == cli.EXIT_INPUT and err.startswith("input-error:")
    monkeypatch.undo()
    code, out, err = run(capsys, ["energy", "--builder", "glue:chain:200,chain:200"])
    assert code == cli.EXIT_BUDGET and out == ""
    assert err.startswith("budget-exceeded: lattices")


@pytest.mark.parametrize(
    "verb,size",
    [("table", cli.TABLE_BUDGET), ("verify", cli.AUX_BUDGET)],
)
def test_table_and_aux_budget_exit(capsys, verb, size):
    # both grow about as n^3; the budget itself still runs, and past it
    # nothing is computed
    flags = ["--max-n"] if verb == "table" else ["--suite", "aux", "--n"]
    code, _, err = run(capsys, [verb, *flags, str(size)])
    assert code == cli.EXIT_OK and err == ""
    for past in (size + 1, 100000):
        code, out, err = run(capsys, [verb, *flags, str(past)])
        assert code == cli.EXIT_BUDGET
        assert out == ""
        assert err.startswith("budget-exceeded:")


@pytest.mark.parametrize("verb", ["enumerate", "oracle"])
def test_order_zero_is_input_error(capsys, verb):
    code, out, err = run(capsys, [verb, "--n", "0"])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input-error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "thm-b", "--n", "-3"],
        ["verify", "--suite", "bounds", "--n", "-2"],
        ["verify", "--suite", "aux", "--n", "0"],
        ["table", "--max-n", "0", "--format", "text"],
        ["table", "--max-n", "-1"],
    ],
)
def test_size_below_one_is_input_error(capsys, argv):
    # nothing would be checked or printed, so success would be vacuous
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input-error:") and "must be >= 1" in err


def test_table_json(capsys):
    code, doc = run_json(capsys, ["table", "--max-n", "10"])
    assert code == cli.EXIT_OK
    assert doc["bound"] == list(cli.EQU_BOUND_TABLE)
    assert doc["bound"][-1] == 1194310


def test_table_text(capsys):
    code, out, err = run(capsys, ["table", "--max-n", "4", "--format", "text"])
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["1", "2", "3", "4"]
    assert lines[1].split() == ["0", "2", "10", "46"]


def test_table_text_out_writes_the_file(capsys, tmp_path):
    _, want, _ = run(capsys, ["table", "--max-n", "4", "--format", "text"])
    path = tmp_path / "table.txt"
    code, out, err = run(capsys, ["table", "--max-n", "4", "--format", "text", "--out", str(path)])
    assert code == cli.EXIT_OK
    assert out == err == ""
    assert path.read_text() == want


@pytest.mark.parametrize(
    "suite,n",
    [
        ("remark1", 5),
        ("thm-b", 5),
        ("thm-c", 5),
        ("manycon", 5),
        ("pentagon", 8),
        ("bounds", 6),
        ("aux", 12),
        ("aux", 30),
    ],
)
def test_verify_suites_pass(capsys, suite, n):
    code, doc = run_json(capsys, ["verify", "--suite", suite, "--n", str(n)])
    assert code == cli.EXIT_OK
    assert doc["ok"] is True
    assert doc["suite"] == suite


@pytest.mark.parametrize("n", [1, 2, 3])
def test_thm_c_below_order_4_checks_nothing(capsys, n):
    # theorem C starts at order 4: no smaller lattice is checked against
    # the order-4 formulas
    code, doc = run_json(capsys, ["verify", "--suite", "thm-c", "--n", str(n)])
    assert code == cli.EXIT_OK
    assert doc == {"suite": "thm-c", "ok": True, "details": []}


def _plus_one_at(bad):
    return lambda real: lambda n: real(n) + (n == bad)


def _no_b4_shape_at(bad):
    return lambda real: lambda lat: None if lat.n == bad and real(lat) == (4, 4) else real(lat)


# (faults as (module, name, wrap of the real function), argv, head, the
# whole details list): every failure line of every suite but remark1 and
# of oracle, beside the summary lines that still pass
FAULTS = {
    "thm-b": (
        [(ct, "g_max", _plus_one_at(5))],
        ["verify", "--suite", "thm-b"],
        {"suite": "thm-b"},
        [*(f"n={n}: holds" for n in range(1, 5)), "n=5: fails: chain is not the unique maximizer", "n=6: holds"],
    ),
    "thm-c": (
        [(ct, "g_sb", _plus_one_at(5))],
        ["verify", "--suite", "thm-c"],
        {"suite": "thm-c"},
        ["n=4: holds", "n=5: fails: g_sb witness sets differ", "n=6: holds"],
    ),
    "manycon": (
        # the 5-element chain counts one antichain pair, so it is no chain
        [(lt, "count_two_element_antichains", lambda real: lambda lat: real(lat) or int(lat.n == 5))],
        ["verify", "--suite", "manycon"],
        {"suite": "manycon"},
        [*(f"n={n}: holds" for n in range(1, 5)), "n=5: fails: congruence-count bounds violated", "n=6: holds"],
    ),
    # faults in single classes: every lattice counts one antichain pair too
    # many, so no lattice is a chain; the glued-B4 classes of order 6 lose
    # their shape
    "thm-b-antichains": (
        [(lt, "count_two_element_antichains", lambda real: lambda lat: real(lat) + 1)],
        ["verify", "--suite", "thm-b", "--n", "6"],
        {"suite": "thm-b"},
        [f"n={n}: fails: chain is not the unique maximizer" for n in range(1, 7)],
    ),
    "manycon-antichains": (
        [(lt, "count_two_element_antichains", lambda real: lambda lat: real(lat) + 1)],
        ["verify", "--suite", "manycon", "--n", "6"],
        {"suite": "manycon"},
        [f"n={n}: fails: congruence-count bounds violated" for n in range(1, 7)],
    ),
    "thm-c-shape": (
        [(em, "_core_shape", _no_b4_shape_at(6))],
        ["verify", "--suite", "thm-c", "--n", "7"],
        {"suite": "thm-c"},
        ["n=4: holds", "n=5: holds", "n=6: fails: g_sb witness sets differ", "n=7: holds"],
    ),
    "manycon-shape": (
        [(em, "_core_shape", _no_b4_shape_at(6))],
        ["verify", "--suite", "manycon", "--n", "7"],
        {"suite": "manycon"},
        [*(f"n={n}: holds" for n in range(1, 6)), "n=6: fails: congruence-count bounds violated", "n=7: holds"],
    ),
    "pentagon": (
        [(ct, "g_pn", _plus_one_at(7))],
        ["verify", "--suite", "pentagon", "--n", "8"],
        {"suite": "pentagon"},
        [
            "k=5: ce=22 con=5 for every placement",
            "k=6: ce=54 con=10 for every placement",
            *(f"k=7 placement {i}: ce=128 con=20" for i in (1, 2, 3)),
            "k=7: ce=129 con=20 for every placement",
            "k=8: ce=296 con=40 for every placement",
        ],
    ),
    "bounds": (
        [(ct, "equ_energy_bound", _plus_one_at(3))],
        ["verify", "--suite", "bounds"],
        {"suite": "bounds"},
        [
            "n=3: table value 11 != 10",
            "n=3: direct sum 10 != bound",
            "table 1..10 and direct sums up to n=8 verified",
        ],
    ),
    "aux": (
        [
            (ct, "aux_w_factored", lambda real: lambda n, x: real(n, x) + ((n, x) == (6, 2))),
            (ct, "aux_u", lambda real: lambda n, x: 1 - real(n, x) if (n, x) in ((7, 1), (7, 3)) else real(n, x)),
            (ct, "aux_v", lambda real: lambda n, x: -real(n, x) if (n, x) == (8, 2) else real(n, x)),
        ],
        ["verify", "--suite", "aux", "--n", "8"],
        {"suite": "aux"},
        ["w(6,2) = 64", "u_7(1) != 0", "u_7(3) <= 0", "v_8(2) <= 0", "auxiliary sign checks verified up to n=8"],
    ),
    "oracle-classes": (
        [(em, "all_lattices_brute", lambda real: lambda n: real(n)[:-1])],
        ["oracle", "--n", "5"],
        {"n": 5},
        [
            "lattice classes: generator 5, oracle 4",
            "congruence lattices match the brute-force filter",
            "partitions: 52 (bell 52)",
            "block-weighted count: 151 (2-bell 151)",
        ],
    ),
    "oracle-congruences": (
        # B4's brute-force list loses its bottom
        [
            (
                cg,
                "brute_force_congruences",
                lambda real: lambda lat, ps: real(lat, ps)[lt.count_two_element_antichains(lat) :],
            )
        ],
        ["oracle", "--n", "4"],
        {"n": 4},
        [
            "lattice classes: generator 2, oracle 2",
            "congruence mismatch on ((0, 1), (0, 2), (1, 3), (2, 3))",
            "congruence lattices match the brute-force filter",
            "partitions: 15 (bell 15)",
            "block-weighted count: 37 (2-bell 37)",
        ],
    ),
    "oracle-bell": (
        [(ct, "bell", lambda real: lambda n: real(n) + 1)],
        ["oracle", "--n", "5"],
        {"n": 5},
        [
            "lattice classes: generator 5, oracle 5",
            "congruence lattices match the brute-force filter",
            "partitions: 52 (bell 53)",
            "block-weighted count: 151 (2-bell 151)",
        ],
    ),
    "oracle-bell2": (
        # above n = 6 the partitions stream, and only the counts are checked
        [(ct, "bell2", lambda real: lambda n: real(n) - 1)],
        ["oracle", "--n", "7"],
        {"n": 7},
        [
            "lattice/congruence oracles limited to n <= 6; skipped",
            "partitions: 877 (bell 877)",
            "block-weighted count: 3263 (2-bell 3262)",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_an_injected_fault_is_a_counterexample_with_every_line(capsys, monkeypatch, case):
    faults, argv, head, details = FAULTS[case]
    for module, name, wrap in faults:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, doc = run_json(capsys, argv)
    assert code == cli.EXIT_COUNTEREXAMPLE
    assert doc == {**head, "ok": False, "details": details}


def test_a_check_that_raises_after_others_passed_prints_no_report(capsys, monkeypatch):
    def bell(n):
        raise RuntimeError("bell")

    # the lattice and congruence lines come first, then bell raises
    monkeypatch.setattr(ct, "bell", bell)
    code, out, err = run(capsys, ["oracle", "--n", "4"])
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert "internal-error: RuntimeError: bell" in err


def congruence_reps(max_n):
    """The rep of each congruence of each lattice of order n <= max_n, one
    entry per occurrence, from the brute-force congruence filter."""
    return [
        m
        for n in range(1, max_n + 1)
        for lat in em.all_lattices(n)
        for m in cg.brute_force_congruences(lat)
    ]


def shape_of(rep):
    """The sorted block sizes of the partition with this rep tuple."""
    return tuple(sorted(map(rep.count, set(rep))))


def test_remark1_compares_every_member_and_solves_each_shape_once(monkeypatch):
    occurrences = congruence_reps(6)
    # every integer partition of every k <= 6 is the shape of a congruence
    # of the chain, so the suite meets p(1) + ... + p(6) = 29 shapes
    shapes = {shape_of(rep) for rep in occurrences}
    assert len(shapes) == 29
    # the most frequent shape held by two or more distinct partitions
    spread = [s for s in shapes if len({rep for rep in occurrences if shape_of(rep) == s}) > 1]
    bad = max(spread, key=lambda s: (sum(shape_of(rep) == s for rep in occurrences), s))
    real = en.spectral_energy
    calls = []

    def spectral_energy(m):
        # a vertex of a clique K_b has degree b - 1: the block sizes, each b
        # listed b times
        sizes = tuple(sorted(sum(row) + 1 for row in m))
        calls.append(sizes)
        return -1.0 if sizes == tuple(sorted(b for b in bad for _ in range(b))) else real(m)

    monkeypatch.setattr(en, "spectral_energy", spectral_energy)
    checks = list(cli.suite_remark1(6))
    assert not all(passed for _, passed in checks)
    failures = [line for line, passed in checks if not passed]
    assert failures == [line for line, _ in checks if " rep=" in line]
    want = [
        f"n={len(rep)} rep={rep}: spectral -1.0 vs exact {2 * (len(rep) - len(set(rep)))}"
        for rep in occurrences
        if shape_of(rep) == bad
    ]
    assert len(set(want)) > 1
    assert failures == want
    assert len(calls) == len(set(calls)) == len(shapes)
    # the cache lives for one call only: a second call solves every shape again
    list(cli.suite_remark1(6))
    assert len(calls) == 2 * len(shapes)


def test_one_shape_has_one_spectral_energy():
    # the premise of remark1's cache: partitions with the same sorted block
    # sizes have isomorphic graphs, hence one Jacobi energy, within 1e-9
    for n in range(1, 8):
        by_shape = {}
        for p in pt.all_partitions(n):
            by_shape.setdefault(shape_of(p), []).append(en.spectral_energy(en.adjacency_of(p)))
        for energies in by_shape.values():
            assert max(energies) - min(energies) < 1e-9


def test_oracle(capsys, monkeypatch):
    real, built = pt.all_partitions, []
    monkeypatch.setattr(pt, "all_partitions", lambda n: built.append(n) or real(n))
    code, doc = run_json(capsys, ["oracle", "--n", "5"])
    assert code == cli.EXIT_OK
    assert doc["ok"] is True
    # the 52 partitions serve the brute-force filter of the 5 lattices and
    # the Bell count, built once
    assert built == [5]


def test_bad_input_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, ["energy", str(path)])
    assert code == cli.EXIT_INPUT
    code, out, err = run(capsys, ["energy", str(tmp_path / "missing.json")])
    assert code == cli.EXIT_INPUT
    code, out, err = run(capsys, ["energy", "--builder", "chain:zero"])
    assert code == cli.EXIT_INPUT
    # the last of each is valid JSON nested past the parser's recursion limit
    deep_doc, deep_by = "[" * 100_000 + "]" * 100_000, "[" * 20_000 + "]" * 20_000
    for doc in ('{"n": "3", "covers": []}', '{"n": 3, "covers": 5}', "[[0, 1]]", deep_doc):
        path.write_text(doc)
        code, out, err = run(capsys, ["energy", str(path)])
        assert code == cli.EXIT_INPUT
        assert err.startswith("input-error:")
    # a rep array that is not canonical, or of the wrong length
    for by in ("5", '[0,0,"a"]', deep_by, "[1,1,2]", "[0,0]", "[0,0,2,3]"):
        code, out, err = run(capsys, ["quotient", "--builder", "chain:3", "--by", by])
        assert code == cli.EXIT_INPUT
        assert err.startswith("input-error:")


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["enumerate", "--n", "5", "--emit"])
    _, second, _ = run(capsys, ["enumerate", "--n", "5", "--emit"])
    assert first == second


@pytest.mark.parametrize(
    "n, digest",
    [
        (7, "42a904d6bbc85cc11fc2e1aa4aacbb0f4d55d9d0863ba3634f28f745934955a9"),
        (8, "0f8c4e595ec3bbe8bf7275e7fe4063f98d7623fdcf5f67c49722136757cdebd0"),
    ],
)
def test_enumerate_emit_output_is_pinned(capsys, n, digest):
    # any change to a canonical code, a cover relabelling or the record order shows here
    code, out, _ = run(capsys, ["enumerate", "--n", str(n), "--emit"])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_output_without_emit_is_pinned(capsys):
    # the records without covers, which are decoded from the key only under --emit
    code, out, _ = run(capsys, ["enumerate", "--n", "8"])
    assert code == cli.EXIT_OK
    digest = "4bae635703403c688cd8a962db716acf37124ea3ddaad02c2f1ad66c7acd3a67"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


small_ints = st.integers(-2, 7)
json_docs = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "covers", "x"]), inner, max_size=3),
    max_leaves=12,
)
# chain cover prefixes: a lattice when no cover is dropped, else not connected
chain_docs = st.builds(
    lambda n, k: {"n": n, "covers": [[i, i + 1] for i in range(n - 1)][:k]},
    st.integers(1, 6),
    st.integers(0, 5),
)
lattice_docs = (
    json_docs
    | chain_docs
    | st.fixed_dictionaries(
        {"n": small_ints | json_docs, "covers": st.lists(st.lists(small_ints, max_size=3), max_size=8)}
    )
)
# four of the 27 arrays are congruences of chain 3
rep_arrays = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(json.dumps)
# k nested lists, k in [1, 200 000] on a log scale, so that most are past
# the JSON parser's recursion limit and some far past it
depths = st.integers(0, 17).flatmap(lambda e: st.integers(1 << e, min(2 << e, 200_000)))
deep_nestings = depths.map(lambda k: "[" * k + "]" * k)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lattice_docs.map(json.dumps) | deep_nestings)
def test_fuzz_energy_json_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lattice.json"
        path.write_text(text)
        assert quiet_main(["energy", str(path)]) in (cli.EXIT_OK, cli.EXIT_INPUT)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.text(max_size=12) | json_docs.map(json.dumps) | rep_arrays | deep_nestings)
def test_fuzz_quotient_by(by):
    assert quiet_main(["quotient", "--builder", "chain:3", f"--by={by}"]) in (
        cli.EXIT_OK,
        cli.EXIT_INPUT,
    )


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    table = ["table", "--max-n", "4"]
    args = cli.build_parser.__wrapped__().parse_args(table)  # a parser of its own
    want = (cli.cmd_table(args),) + tuple(capsys.readouterr())
    assert run(capsys, ["energy", "--builder", "b4"])[0] == 0
    assert run(capsys, table) == want
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--max-n", "four"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(capsys, table) == want
    # the command is found on the module at each call, so a wrapper put in
    # place after the parser was built still runs
    monkeypatch.setattr(cli, "cmd_table", lambda args: 7)
    assert cli.main(table) == 7


def test_an_internal_fault_exits_4_never_1(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_energy", broken)
    code, out, err = run(capsys, ["energy", "--builder", "b4"])
    assert code == cli.EXIT_INTERNAL == 4 and out == ""
    assert err.startswith("Traceback") and err.endswith("\ninternal-error: RuntimeError: boom\n")


def dumped(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


writer_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.lists(st.integers(-3, 300), max_size=3), max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers(-2, 2), inner, max_size=3),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(writer_docs)
def test_writer_matches_json_dumps(doc):
    assert cli._json_text(doc) == dumped(doc)


def test_writer_matches_json_dumps_on_every_verb(capsys, monkeypatch):
    docs = []
    real = cli._emit

    def checked(doc, out=None):
        docs.append(doc)
        assert cli._json_text(doc) == dumped(doc)
        real(doc, out)

    monkeypatch.setattr(cli, "_emit", checked)
    argvs = [
        ["energy", "--builder", "glue:n5,b4,chain:3"],
        ["conlat", "--builder", "glue:m3,chain:3,b4"],
        ["conlat", "--builder", "chain:1"],
        ["quotient", "--builder", "glue:n5,b4,chain:3", "--by", "[0,1,2,3,4,4,6,6,8,8]"],
        ["enumerate", "--n", "6"],
        ["enumerate", "--n", "6", "--emit"],
        ["enumerate", "--n", "2"],
        ["table", "--max-n", "12"],
        ["oracle", "--n", "4"],
    ] + [["verify", "--suite", suite, "--n", "5"] for suite in sorted(cli.SUITES)]
    for argv in argvs:
        assert run(capsys, argv)[0] == cli.EXIT_OK, argv
    assert len(docs) == len(argvs)
