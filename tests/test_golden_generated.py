"""`run_all` on generated instances, against a recorded golden.

The golden stores, for each generated instance (the Z_n arcs and the map
search family of two fixed seeds), its document, its bound overrides and
its reports without ``elapsed_ms`` as lines of sorted-key JSON.  The test
reads only that file, so it needs no benchmark generator.  A change that
alters a report on purpose re-records the file with
``PYTHONPATH=src:. python tests/test_golden_generated.py`` (run from the
repository root, where ``bench/workloads.py`` lives) and says so in
CHANGES.md.
"""
from __future__ import annotations

import dataclasses
import json

from gen import GENERATED_GOLDEN as GOLDEN
from pact import DEFAULT_BOUNDS, parse_instance, run_all
SEEDS = (3, 5)


def report_lines(doc: dict, overrides: dict) -> list[str]:
    bounds = dataclasses.replace(DEFAULT_BOUNDS, **overrides)
    lines = []
    for rep in run_all(parse_instance(doc), bounds):
        data = rep.to_dict()
        data.pop("elapsed_ms")
        lines.append(json.dumps(data, sort_keys=True))
    return lines


def record() -> None:
    from bench import workloads

    entries = []
    for seed in SEEDS:
        docs = [(doc, {"envelope_pairs": 2 * n * n})
                for n, doc in workloads.arc_scaling_docs(seed)]
        docs += [(doc, {"max_maps": workloads.MAP_SEARCH_MAX_MAPS})
                 for doc in workloads.map_search_docs(seed)]
        for doc, overrides in docs:
            entries.append({"seed": seed, "document": doc, "bounds": overrides,
                            "reports": [json.loads(line) for line in
                                        report_lines(doc, overrides)]})
    GOLDEN.write_text(json.dumps(entries, sort_keys=True, indent=1) + "\n")


def test_generated_reports_match_the_golden():
    entries = json.loads(GOLDEN.read_text())
    assert len(entries) == 10
    for entry in entries:
        expected = [json.dumps(rep, sort_keys=True) for rep in entry["reports"]]
        got = report_lines(entry["document"], entry["bounds"])
        assert got == expected, (entry["seed"], entry["document"]["id"])


if __name__ == "__main__":
    record()
