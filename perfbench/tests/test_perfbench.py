"""Tests of the benchmark itself: seeded job lists, the reference checks
and the traced mode.  Run with ``python3 -m pytest perfbench/tests``."""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    run.use_checkout_sources()
    return run.load_package()


def small_jobs():
    rng = random.Random(0)
    theta = ref.StackLattice("glue:chain:2,b4").congruences()[2]
    out = [
        {"kind": "cli", "argv": ["enumerate", "--n", "6", "--emit"]},
        {"kind": "cli", "argv": ["enumerate", "--n", "5"]},
        {"kind": "cli", "argv": ["conlat", "--builder", "glue:chain:3,n5"]},
        {"kind": "cli", "argv": ["conlat", "--builder", "glue:b4,m3,chain:2"]},
        {"kind": "cli", "argv": ["energy", "--builder", "glue:n5,b4,chain:3"]},
        {"kind": "cli", "argv": ["quotient", "--builder", "glue:chain:2,b4", "--by", json.dumps(list(theta))]},
        {"kind": "cli", "argv": ["verify", "--suite", "pentagon", "--n", "7"]},
        {"kind": "cli", "argv": ["verify", "--suite", "remark1", "--n", "4"]},
        {"kind": "cli", "argv": ["oracle", "--n", "4"]},
        jobs_mod._lattice_algebra("chain:5", rng),
        jobs_mod._lattice_algebra("glue:n5,chain:2", rng),
        {"kind": "algebra", "family": "random", "n": 4, "ops": [["f", 1, [1, 0, 3, 2]]]},
    ]
    for i, job in enumerate(out):
        job["id"] = f"test-{i:02d}"
    return out


@pytest.mark.parametrize("workload", jobs_mod.WORKLOADS)
def test_job_list_is_deterministic(workload):
    a = jobs_mod.make_jobs(workload, 11)
    b = jobs_mod.make_jobs(workload, 11)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert jobs_mod.job_list_digest(a) == jobs_mod.job_list_digest(b)
    assert jobs_mod.job_list_digest(a) != jobs_mod.job_list_digest(jobs_mod.make_jobs(workload, 12))


def test_job_mix_is_fixed_across_seeds():
    def shape(job):
        if job["kind"] == "algebra":
            return job["family"]
        return job["argv"][0] if job["argv"][0] != "enumerate" else job["argv"][2]

    for workload in jobs_mod.WORKLOADS:
        mixes = {tuple(sorted(shape(j) for j in jobs_mod.make_jobs(workload, s))) for s in range(3)}
        assert len(mixes) == 1


def test_reference_part_values():
    assert len(ref.part_congruences("b4")) == 4
    assert len(ref.part_congruences("m3")) == 2
    assert len(ref.part_congruences("n5")) == 5
    for spec in ("glue:n5,b4,chain:3", "glue:m3,chain:4", "chain:6"):
        lat = ref.StackLattice(spec)
        cons = lat.congruences()
        assert lat.con_size_and_energy() == (len(set(cons)), sum(ref.energy(m) for m in cons))


def test_reference_decides_the_big_unary_algebras():
    job = next(j for j in jobs_mod.make_jobs("verify", 1) if j.get("family") == "unary-big")
    want = ref.expected_verdict(job["n"], ref.job_ops(job))
    assert want["con_size"] == 609 > ref.TRIPLE_LIMIT
    assert want["status"] == "precondition-failed"


def test_real_outputs_pass_the_reference(mods):
    checker = ref.Checker()
    for job in small_jobs():
        _, out = run.run_job(mods, job)
        assert checker.check(job, out) is None, job


def _corrupt(job, out):
    """One deliberately wrong variant of a correct output."""
    bad = copy.deepcopy(out)
    if job["kind"] == "algebra":
        bad["verdict"]["ce"] += 2
        return bad
    doc = json.loads(out["stdout"])
    verb = job["argv"][0]
    if verb == "enumerate":
        doc["records"][0]["antichain_pairs" if "--emit" in job["argv"] else "con_size"] += 2 ** 9
    elif verb == "conlat":
        drop = len(doc["members"]) - 1
        doc["members"].pop()
        doc["hasse"] = [e for e in doc["hasse"] if drop not in e]
    elif verb == "energy":
        doc["ce"] += 2
    elif verb == "quotient":
        doc["covers"].pop()
    elif verb in ("verify", "oracle"):
        doc["ok"] = False
    bad["stdout"] = json.dumps(doc)
    return bad


def test_reference_flags_corrupted_outputs(mods):
    checker = ref.Checker()
    for job in small_jobs():
        _, out = run.run_job(mods, job)
        assert checker.check(job, _corrupt(job, out)) is not None, job
        if job["kind"] == "cli":
            assert checker.check(job, dict(out, rc=1)) is not None
    assert checker.check(small_jobs()[0], {"error": "RuntimeError()"}) is not None


def test_traced_outputs_equal_untraced(mods, tmp_path):
    jobs = small_jobs()
    failures = []
    metrics, plain, traced = run.traced_pair(mods, jobs, ref.Checker(), failures, tmp_path / "spans.gz")
    assert failures == []
    assert [name for name, _ in tracing.metric_names()] == list(metrics)
    assert metrics["congruence.is_distributive.calls"]["value"] > 0
    assert metrics["cli.cmd_enumerate.calls"]["value"] == 2
    assert metrics["congruence.members_per_join"]["value"] > 0
    assert (tmp_path / "spans.gz").stat().st_size > 0
    # the wrappers are gone again
    assert mods["partition"].join.__module__ == "conergy.partition"
    assert not hasattr(mods["partition"].join, "__wrapped__")


def test_enumerate_never_tests_distributivity(mods):
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        run.run_job(mods, {"kind": "cli", "argv": ["enumerate", "--n", "6"]})
    finally:
        tracer.uninstall()
    assert tracer.calls["congruence.is_distributive"] == 0
    assert tracer.calls["lattice.canonical_order_matrix"] > 0


def test_self_time_is_span_minus_children():
    ticks = iter(range(0, 10 ** 6, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    class Mod:
        pass

    mod = Mod()
    mod.inner = lambda: None
    mod.outer = lambda: mod.inner()
    mod.outer = tracer._wrap("x.outer", mod.outer)
    mod.inner = tracer._wrap("x.inner", mod.inner)
    mod.outer()
    self_ns = tracer.self_ns()
    (inner, outer) = tracer.spans
    assert inner[4] == outer[0]  # parent link
    assert self_ns["x.inner"] == 10 and self_ns["x.outer"] == 20


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.metric_names()]
    assert [w["name"] for w in spec["workloads"]] == list(jobs_mod.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb", "ok_ratio"}
