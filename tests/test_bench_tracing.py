"""The benchmark's traced run (``bench/tracing.py``) wraps pact functions by
name.  Every name it lists must still resolve, so a rename fails here rather
than breaking ``bench/run.py --trace 1``."""
from __future__ import annotations

import importlib.util
from functools import cached_property
from pathlib import Path

import pact
import pact.cli  # noqa: F401  (LAYERS lists the cli layer)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_pact():
    tracing = load_tracing()
    for layer, functions in tracing.LAYERS.items():
        home = getattr(pact, layer)
        for fname in functions:
            if "." in fname:
                cls_name, attr = fname.split(".")
                prop = vars(getattr(home, cls_name)).get(attr)
                assert isinstance(prop, cached_property), f"{layer}.{fname}"
            else:
                assert callable(getattr(home, fname, None)), f"{layer}.{fname}"


def test_traced_claim_records_spans_and_restores_pact():
    tracing = load_tracing()
    original = pact.paction.validate_partial_action
    tracer = tracing.Tracer()
    with tracer.installed(pact):
        pact.run_claim("pa-axioms", pact.load_fixture("z2-pair"))
    summary = tracer.summarize(0, tracer.mark())
    assert summary["verify.pa-axioms.calls"] == 1
    assert summary["paction.validate_partial_action.calls"] >= 1
    assert pact.paction.validate_partial_action is original
