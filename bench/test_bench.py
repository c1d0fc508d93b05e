"""Self-tests for the benchmark: generators, the correctness gate, tracing.

Run from the repository root:  python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import hostspeed  # noqa: E402
import pact  # noqa: E402
import pact.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from verdicts import FAILS, HOLDS, Gate, expected_status  # noqa: E402


def _gate_for(instances: dict, bounds: dict, reference=None) -> Gate:
    prep = workloads.Prepared(instances, bounds)
    gate = run.make_gate(pact, "arc-scaling", prep)
    gate.reference = reference
    return gate


def _check_all(doc: dict, **overrides) -> Gate:
    inst = pact.parse_instance(doc)
    bounds = dataclasses.replace(pact.DEFAULT_BOUNDS, **overrides)
    gate = _gate_for({inst.id: inst}, {inst.id: bounds})
    for rep in pact.run_all(inst, bounds):
        gate.check(rep.to_dict())
    return gate


@pytest.mark.parametrize("seed", [0, 7])
def test_tiny_generated_instances_match_the_known_answers(seed):
    rng = random.Random(seed)
    docs = [(workloads.arc_doc(4, rng), {"envelope_pairs": 32}),
            (workloads.fence_doc(3, rng), {}),
            (workloads.cone_doc(2, 3, rng), {})]
    for doc, overrides in docs:
        gate = _check_all(doc, **overrides)
        assert gate.attempted == len(pact.claim_ids())
        assert gate.wrong_verdicts == 0, gate.problems
    assert expected_status("fence5-z2-in-z4", "trivial-collapse") == FAILS


def test_arc_document_is_the_restriction_of_the_rotation():
    n = 6
    doc = workloads.arc_doc(n, random.Random(3))
    inst = pact.parse_instance(doc)
    opens = workloads.circle_min_opens(n)
    circle = pact.space_from_min_opens(list(opens), opens)
    rotation = {str(g): {p: f"{p[0]}{(int(p[1:]) + g) % n}" for p in opens}
                for g in range(n)}
    group = inst.group
    expected = pact.restrict_global(pact.global_action(group, circle, rotation),
                                    inst.space.points)
    for g in group.elements:
        assert inst.pa.domains[g] == expected.domains[g]
        assert dict(inst.pa.thetas[g]) == dict(expected.thetas[g])


def test_seed_reorders_the_documents():
    a = workloads.fence_doc(3, random.Random(1))
    b = workloads.fence_doc(3, random.Random(2))
    assert a != b
    assert a["id"] == b["id"]


def test_a_mismatched_verdict_counts_as_wrong():
    inst = pact.load_fixture("z2-wedge")
    gate = _gate_for({inst.id: inst}, {inst.id: pact.DEFAULT_BOUNDS})
    report = pact.run_claim("t1", inst).to_dict()
    gate.check(report)
    assert gate.wrong_verdicts == 0
    gate.check({**report, "status": HOLDS})
    assert gate.wrong_verdicts == 1
    gate.raised(inst.id, "embedding", "RuntimeError()")
    assert (gate.wrong_verdicts, gate.attempted, gate.failed) == (2, 3, 2)


def test_a_witness_that_does_not_replay_counts_as_wrong():
    inst = pact.load_fixture("z2-pair-sq")
    gate = _gate_for({inst.id: inst}, {inst.id: pact.DEFAULT_BOUNDS})
    report = pact.run_claim("product-comparison", inst).to_dict()
    assert report["status"] == FAILS
    gate.check(report)
    assert gate.wrong_verdicts == 0
    hit = sorted(set(report["witness"]["map"].values()))
    forged = {**report, "witness": {**report["witness"], "unhit_targets": hit}}
    gate.check(forged)
    assert gate.wrong_verdicts == 1


def test_a_report_that_differs_from_the_reference_counts_as_drift():
    reference = json.loads(run.REFERENCE.read_text())
    inst = pact.load_fixture("z2-wedge")
    gate = _gate_for({inst.id: inst}, {inst.id: pact.DEFAULT_BOUNDS}, reference)
    report = pact.run_claim("embedding", inst).to_dict()
    gate.check(report)
    assert gate.report_drift == 0
    gate.check({**report, "witness": {**report["witness"], "classes": -1}})
    assert (gate.report_drift, gate.wrong_verdicts, gate.failed) == (1, 0, 1)


def test_fixture_pass_through_the_cli_is_correct():
    prep = workloads.prepare(pact, "fixtures", 5)
    assert len(prep.instances) == 9
    gate = run.make_gate(pact, "fixtures", prep)
    run.collect(pact, "fixtures", run.run_pass(pact, "fixtures", prep), gate)
    assert (gate.attempted, gate.decided, gate.failed) == (144, 141, 0), gate.problems


def test_tracer_spans_nest_and_restore():
    originals = (pact.paction.validate_partial_action, pact.envelope.globalize,
                 pact.homotopy.MapPoset.__dict__["components"],
                 pact.verify.CLAIMS["embedding"])
    tracer = tracing.Tracer()
    tracer.install(pact)
    try:
        assert pact.paction.validate_partial_action is not originals[0]
        assert pact.envelope.validate_partial_action is pact.paction.validate_partial_action
        inst = pact.load_fixture("z2-wedge")
        begin = tracer.mark()
        pact.run_claim("embedding", inst)
        pact.run_claim("homotopy-preservation", inst)
        end = tracer.mark()
    finally:
        tracer.restore()
    assert (pact.paction.validate_partial_action, pact.envelope.globalize,
            pact.homotopy.MapPoset.__dict__["components"],
            pact.verify.CLAIMS["embedding"]) == originals
    summary = tracer.summarize(begin, end)
    assert summary["verify.embedding.calls"] == 1
    assert summary["envelope.globalize.calls"] >= 1
    assert summary["homotopy.MapPoset.components.calls"] >= 1
    assert summary["envelope.pairs"] == 2 * 3 * summary["envelope.globalize.calls"]
    roots = sum(stop - start for _, start, stop, parent in tracer.spans[begin:end]
                if parent < 0)
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(roots)


def test_a_second_install_reuses_the_wrappers():
    tracer = tracing.Tracer()
    inst = pact.load_fixture("z2-wedge")
    with tracer.installed(pact):
        first = pact.paction.validate_partial_action
        pact.run_claim("embedding", inst)
    names = list(tracer.names)
    begin = tracer.mark()
    pact.run_claim("embedding", inst)
    assert tracer.mark() == begin
    with tracer.installed(pact):
        assert pact.paction.validate_partial_action is first
        pact.run_claim("embedding", inst)
    assert tracer.names == names
    assert tracer.summarize(begin, tracer.mark())["verify.embedding.calls"] == 1


def test_sampler_scales_by_the_loop_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * hostspeed.INTERVAL_S:
            pass
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(speed.samples) >= 4 and 0 < speed.spent < wall
    assert speed.scaled(wall) == pytest.approx(
        (wall - speed.spent) * hostspeed.LOOP_S / statistics.fmean(speed.samples))


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    proc = _run_bench(BENCH.parent, "--workload", "fixtures", "--seed", "4",
                      "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 144
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec[section])


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_bench(tmp_path, "--workload", "fixtures", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
