"""The pact benchmark: whole ``check all`` passes, every verdict checked.

Run from the repository root; nothing needs installing (pact is imported
from ``src/``):

    python3 bench/run.py --workload fixtures --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1     # each workload in its own process

Workloads (each runs single-threaded in its own process):

* ``fixtures``: the 9 bundled fixtures through ``pact.cli.main(["check",
  "all", name, "--json"])`` with stdout captured; the seed orders them.  The
  only workload with every verdict kind, dominated by the local
  G-contractibility scan's many tiny map searches.
* ``arc-scaling``: Z_n rotating the 2n-point circle restricted to an open
  half-circle, n in {8, 12, 16}, with envelopes allowed 2n^2 pairs.  The
  construction path: twisted products and globalizations.
* ``map-search``: trivial actions on a 9-point fence (K = Z2 inside Z4) and a
  6-point cone (Z3) with up to 16384 G-maps.  A few large map searches.

A pass runs every instance's full claim registry in order.  With ``--trace 0``
the last stdout line reports the end-to-end metrics:

* ``check_all_s``: median seconds of one pass, passes repeated for
  ``--seconds``, each pass scaled by the host's speed during it (see
  ``hostspeed.py``; the sample count, fastest pass, a tail percentile and
  the unscaled wall figures are printed too);
* ``setup_s``: median seconds a fresh Python process takes to import pact
  and generate and parse the workload's documents, timed inside that process
  after interpreter start-up and scaled the same way; repeated between
  passes.  ``import pact`` makes up most of it, so parse-time changes show
  best in the traced ``instance.parse_instance`` figures;
* ``peak_rss_mb``: peak resident memory of the process;
* ``decided_ratio``: share of reports that are not ``skipped-bounds``.

With ``--trace 1`` it reports per-layer metrics from a traced run (see
``tracing.py``): calls, self and total seconds per wrapped function, self
seconds per layer, seconds per claim and size counters, each as one traced
set-up plus the mean traced pass.  Each call of a pass (a fixture's ``check
all``, or one claim on one generated instance) runs untraced and then traced,
and ``tracing_overhead_ratio`` is the traced time over the untraced time.  Spans are written to
``.bench_out/spans-<workload>.json``.

Every report is checked outside the timed window against the known answers
in ``verdicts.py``, every ``fails`` witness is replayed, and on ``fixtures``
every report is compared with ``reference_fixtures.json``, recorded from
``check all --json`` when the benchmark was defined.  Wrong verdicts and
drift count as failed operations.  Self-tests: ``python3 -m pytest bench``.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads
from verdicts import Gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_fixtures.json"
# Set-ups are repeated between passes until they have taken this share of the
# run, so that their median samples the machine over the whole run.
SETUP_SHARE = 0.1
# A set-up: a fresh interpreter imports pact, then generates and parses the
# workload's documents, and prints how long that took, scaled by the host's
# speed.  Arguments: src dir, bench dir, workload, seed.
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
with hostspeed.Sampler() as speed:
    t0 = time.perf_counter()
    import pact, pact.cli, workloads
    workloads.prepare(pact, sys.argv[3], int(sys.argv[4]))
    wall = time.perf_counter() - t0
print(speed.scaled(wall))
"""
WORKLOADS = ("fixtures", "arc-scaling", "map-search")


def import_pact():
    """Import pact from this checkout's ``src/``."""
    pact = importlib.import_module("pact")
    importlib.import_module("pact.cli")
    if Path(pact.__file__).resolve().parent != SRC / "pact":
        raise ImportError(f"pact was imported from {pact.__file__}, not from {SRC}")
    return pact


def pass_units(pact, workload: str, prep: workloads.Prepared) -> list:
    """The calls one pass makes, in order; each returns one raw result for
    ``collect``.  Generated instances go through ``run_claim`` claim by
    claim, as ``run_all`` does, so that a claim that raises does not hide the
    others' reports."""
    if workload == "fixtures":
        def check_all(name):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = pact.cli.main(["check", "all", name, "--json"])
            except Exception as exc:  # a crash is a wrong verdict, not a benchmark error
                code = repr(exc)
            return name, code, buf.getvalue()

        return [functools.partial(check_all, name) for name in prep.instances]

    def claim(cid, iid, inst, bounds):
        try:
            return pact.run_claim(cid, inst, bounds)
        except Exception as exc:
            return iid, cid, repr(exc)

    return [functools.partial(claim, cid, iid, inst, prep.bounds[iid])
            for iid, inst in prep.instances.items() for cid in pact.claim_ids()]


def run_pass(pact, workload: str, prep: workloads.Prepared) -> list:
    """One pass; returns raw results for ``collect``."""
    return [unit() for unit in pass_units(pact, workload, prep)]


def collect(pact, workload: str, results: list, gate: Gate) -> None:
    """Feed one pass's reports, and the claims that raised, to the gate."""
    claims = pact.claim_ids()
    if workload != "fixtures":
        for res in results:
            if isinstance(res, tuple):
                gate.raised(*res)
            else:
                gate.check(res.to_dict())
        return
    for name, code, text in results:
        reports = json.loads(text) if code in (0, 1) else []
        for rep in reports:
            gate.check(rep)
        for cid in claims[len(reports):]:
            gate.raised(name, cid, f"no report (exit {code})")


def make_gate(pact, workload: str, prep: workloads.Prepared) -> Gate:
    def replay(report: dict) -> bool:
        iid = report["instance_id"]
        rep = pact.ClaimReport(report["claim_id"], iid, report["status"], report["witness"])
        return pact.replay_witness(rep, prep.instances[iid], prep.bounds[iid])

    reference = json.loads(REFERENCE.read_text()) if workload == "fixtures" else None
    return Gate(replay, reference)


def timed_passes(pact, workload: str, prep: workloads.Prepared, gate: Gate, seconds: float,
                 after_pass=None) -> tuple[list[float], list[float]]:
    """Run passes until the next one would end past ``seconds``; check each
    pass's reports between passes, outside its timed window.  Returns each
    pass's scaled and unscaled seconds."""
    scaled, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with hostspeed.Sampler() as speed:
            t1 = time.perf_counter()
            results = run_pass(pact, workload, prep)
            wall = time.perf_counter() - t1
        scaled.append(speed.scaled(wall))
        walls.append(speed.unscaled(wall))
        if after_pass is not None:
            after_pass()
        collect(pact, workload, results, gate)
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return scaled, walls


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return "n/a (fewer than 11 samples)"
    k = n - 10
    return f"p{100 * k // n} {sorted(values)[k - 1]:.4f} s"


def time_setup(workload: str, seed: int) -> float:
    """Scaled seconds a fresh process takes to set up the workload."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)]
    return float(subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Gate, dict, list]:
    """Time passes, with set-ups in fresh processes spread between them;
    metrics map to (value, unit)."""
    pact = import_pact()
    prep = workloads.prepare(pact, workload, seed)
    setups = []
    spent = 0.0  # wall seconds of the set-up processes
    start = time.perf_counter()

    def more_setups():
        nonlocal spent
        while spent <= SETUP_SHARE * (time.perf_counter() - start):
            t0 = time.perf_counter()
            setups.append(time_setup(workload, seed))
            spent += time.perf_counter() - t0

    more_setups()
    gate = make_gate(pact, workload, prep)
    durations, walls = timed_passes(pact, workload, prep, gate, seconds, more_setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"check_all_s: median {statistics.median(durations):.4f} s over "
          f"{len(durations)} passes, fastest {min(durations):.4f} s, "
          f"{tail_percentile(durations)}")
    print(f"check_all unscaled wall: median {statistics.median(walls):.4f} s, "
          f"fastest {min(walls):.4f} s, {tail_percentile(walls)}")
    print(f"setup_s: median {statistics.median(setups):.4f} s over {len(setups)} set-ups")
    metrics = {
        "check_all_s": (statistics.median(durations), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "decided_ratio": (gate.decided / gate.attempted, "ratio"),
    }
    return gate, metrics, list(metrics)


def per_layer(workload: str, seed: int, seconds: float) -> tuple[Gate, dict, list]:
    """A traced set-up, then passes for ``seconds`` that make each call of
    ``pass_units`` twice, untraced and then traced.  Each metric is its
    traced set-up value plus its mean per traced pass; all are printed, the
    names in the returned list go into the result."""
    pact = import_pact()
    tracer = tracing.Tracer()
    with tracer.installed(pact):
        t0 = time.perf_counter()
        prep = workloads.prepare(pact, workload, seed)
        setup_wall = time.perf_counter() - t0
    gate = make_gate(pact, workload, prep)
    marks = [tracer.mark()]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        results, traced_results = [], []
        plain.append(0.0)
        traced.append(0.0)
        for unit in pass_units(pact, workload, prep):
            t0 = time.perf_counter()
            results.append(unit())
            plain[-1] += time.perf_counter() - t0
            with tracer.installed(pact):
                t0 = time.perf_counter()
                traced_results.append(unit())
                traced[-1] += time.perf_counter() - t0
        marks.append(tracer.mark())
        collect(pact, workload, results, gate)
        collect(pact, workload, traced_results, gate)
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload}.json")

    totals = tracer.summarize(0, marks[0])
    passes = [tracer.summarize(a, b) for a, b in zip(marks, marks[1:])]
    for key in set().union(*passes):
        totals[key] += statistics.fmean(p.get(key, 0.0) for p in passes)

    metrics: dict[str, float] = {}  # name -> value until the units are added
    for layer, functions in tracing.LAYERS.items():
        for fname in functions:
            for kind in ("calls", "self_s", "total_s"):
                key = f"{layer}.{fname}.{kind}"
                metrics[key] = totals.get(key, 0.0)
        metrics[f"{layer}.self_s"] = sum(metrics[f"{layer}.{f}.self_s"] for f in functions)
    claims = pact.claim_ids()
    for cid in claims:
        metrics[f"verify.{cid}.s"] = totals.get(f"verify.{cid}.total_s", 0.0)
    metrics["verify.self_s"] = sum(totals.get(f"verify.{cid}.self_s", 0.0) for cid in claims)
    metrics["verify.skipped_s"] = totals.get("verify.skipped_s", 0.0)
    for key in tracing.COUNTERS:
        metrics[key] = totals.get(key, 0.0)
    # Each call runs untraced and then traced, back to back, so that both
    # see the same machine: the host's speed swings within seconds.
    metrics["tracing_overhead_ratio"] = sum(traced) / sum(plain)

    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    layer_sum += metrics["verify.self_s"]
    wall = setup_wall + statistics.fmean(traced)
    print(f"{len(traced)} passes: traced median {statistics.median(traced):.4f} s, "
          f"untraced median {statistics.median(plain):.4f} s")
    print(f"layer self times sum to {layer_sum:.4f} s of {wall:.4f} s traced "
          f"set-up plus mean pass ({layer_sum / wall:.2%})")
    if not 0.95 * wall <= layer_sum <= wall:
        raise SystemExit("layer self times do not add up to the traced time")
    return (gate, {k: (v, tracing.unit_of(k)) for k, v in metrics.items()},
            tracing.metric_names(claims))


def run_one(args) -> int:
    measure = per_layer if args.trace else end_to_end
    gate, metrics, reported = measure(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"wrong_verdicts: {gate.wrong_verdicts} count")
    if args.workload == "fixtures":
        print(f"report_drift: {gate.report_drift} count")
    for problem in gate.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in reported},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary."""
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(f"== {workload}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("== summary")
    ok = True
    for workload, res in rows:
        ok = ok and res["correct"]
        shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                          for k, v in res["metrics"].items()
                          if not args.trace or k.count(".") <= 1)
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}; {shown}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
