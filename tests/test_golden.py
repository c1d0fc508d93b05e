"""`pact check all --json` on every bundled fixture, against a recorded golden.

The golden holds each report without its ``elapsed_ms`` as one line of
sorted-key JSON, so a changed verdict, witness or figure shows up as a
one-line diff.  A change that alters a report on purpose re-records the
file with ``python tests/test_golden.py`` and says so in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json

from gen import FIXTURE_GOLDEN as GOLDEN
from pact import fixture_names
from pact.cli import main


def report_lines(name: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", "all", name, "--json"])
    reports = json.loads(out.getvalue())
    for rep in reports:
        rep.pop("elapsed_ms")
    return [json.dumps(rep, sort_keys=True) for rep in reports]


def record() -> None:
    blocks = []
    for name in fixture_names():
        rows = ",\n".join(f"  {line}" for line in report_lines(name))
        blocks.append(f"{json.dumps(name)}: [\n{rows}\n]")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def test_check_all_reports_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(fixture_names())
    for name in fixture_names():
        expected = [json.dumps(rep, sort_keys=True) for rep in golden[name]]
        assert report_lines(name) == expected, name


if __name__ == "__main__":
    record()
