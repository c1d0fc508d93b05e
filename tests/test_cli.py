from __future__ import annotations

import json
from pathlib import Path

from pact import InternalCheckError, fixture_names, load_fixture, replay_witness
from pact.cli import main


def write_fixture(tmp_path: Path, name: str) -> Path:
    rc = main(["fixtures", "--emit", name, "-o", str(tmp_path / f"{name}.json")])
    assert rc == 0
    return tmp_path / f"{name}.json"


def test_fixtures_list(capsys):
    assert main(["fixtures", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == fixture_names()


def test_fixture_roundtrip_validates(tmp_path, capsys):
    for name in fixture_names():
        path = write_fixture(tmp_path, name)
        capsys.readouterr()
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out


def test_globalize_document(tmp_path, capsys):
    path = write_fixture(tmp_path, "z2-pair")
    capsys.readouterr()
    assert main(["globalize", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class_count"] == 3
    assert doc["embedding"]["a"] == "(0,a)"

    out = tmp_path / "env.json"
    assert main(["globalize", str(path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["class_count"] == 3


def test_check_exit_codes(tmp_path, capsys):
    good = write_fixture(tmp_path, "z2-pair")
    capsys.readouterr()
    assert main(["check", "all", str(good)]) == 0
    capsys.readouterr()

    bad = write_fixture(tmp_path, "z2-pair-sq")
    capsys.readouterr()
    rc = main(["check", "product-comparison", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "fails: not bijective" in out

    rc_all = main(["check", "all", str(bad)])
    capsys.readouterr()
    assert rc_all == 1


def test_check_accepts_fixture_names(capsys):
    assert main(["check", "twist-eq-glob", "z2-pair"]) == 0
    capsys.readouterr()


def test_invalid_input_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["validate", str(missing)]) == 2
    capsys.readouterr()

    broken = tmp_path / "broken.json"
    doc = json.loads((write_fixture(tmp_path, "z2-pair")).read_text())
    doc["partial_action"]["domains"]["1"] = ["zz"]
    broken.write_text(json.dumps(doc))
    rc = main(["validate", str(broken)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "partial_action.domains.1" in err


def test_twist_and_orbit_and_fixed(tmp_path, capsys):
    circle = write_fixture(tmp_path, "z4-circle")
    capsys.readouterr()
    assert main(["twist", str(circle), "--subgroup", "H", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["subgroup"] == ["0", "2"]

    arcs = write_fixture(tmp_path, "z4-arcs")
    capsys.readouterr()
    assert main(["orbit", str(arcs), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit_count"] == 7

    assert main(["fixed", str(arcs), "--subgroup", "H", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fixed_points"] == ["a1", "a3"]

    assert main(["fixed", str(arcs), "--subgroup", "H", "--envelope",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decomposition"]["status"] == "holds"

    rc = main(["fixed", str(arcs), "--subgroup", "missing"])
    assert rc == 2
    capsys.readouterr()


def test_twist_without_subgroup_uses_embedded_group(capsys):
    assert main(["twist", "z4-from-z2-pair", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class_count"] == 6
    assert doc["subgroup"] == ["0", "2"]


def test_homotopy_subcommands(capsys):
    assert main(["homotopy", "z4-circle", "--core", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["core"]["points"]) == 8

    assert main(["homotopy", "z2-wedge", "--g-contractible", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["g_contractible"] is True and doc["fixed_point"] == "w"
    assert len(doc["fence"]) == 2

    assert main(["homotopy", "z2-pair", "--locally-g-contractible",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["locally_g_contractible"] is True

    assert main(["homotopy", "z4-circle", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["contractible"] is False


def test_check_json_deterministic(capsys):
    assert main(["check", "all", "z2-pair", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["check", "all", "z2-pair", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    for rep in first + second:
        rep.pop("elapsed_ms")
    assert first == second


def test_readme_instance_example_parses():
    import re
    from pathlib import Path as P
    from pact import parse_instance
    readme = P(__file__).parent.parent / "README.md"
    block = re.search(r"```json\n(.*?)```", readme.read_text(), re.S)
    assert block is not None
    inst = parse_instance(block.group(1))
    assert inst.id == "z2-pair"
    assert inst.pa.domains["1"] == frozenset({"a"})


def test_cross_process_determinism_under_hash_randomization(tmp_path):
    import os
    import subprocess
    import sys
    fixture = write_fixture(tmp_path, "z2-pair-sq")
    outputs = []
    for seed in ("1", "271828"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-m", "pact.cli", "check", "all", str(fixture),
             "--json"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        reports = json.loads(proc.stdout)
        for rep in reports:
            rep.pop("elapsed_ms")
        outputs.append(json.dumps(reports, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_validation_witnesses_are_identical_under_hash_randomization(tmp_path):
    import os
    import subprocess
    import sys
    from pact import fixture_dict
    from gen import cyclic_group, group_document
    # theta_1 on z4-circle with the images of two keys swapped: several
    # pairs break monotonicity, and the witness is the first in point order
    circle = fixture_dict("z4-circle")
    table = circle["partial_action"]["maps"]["1"]
    keys = list(table)
    table[keys[0]], table[keys[2]] = table[keys[2]], table[keys[0]]
    # Z4 acting by powers of a swap: PA2 fails at every point for g = h = 1
    points = [f"p{i}" for i in range(6)]
    swap = {p: points[i ^ 1] for i, p in enumerate(points)}
    swaps = {
        "id": "z4-swap-powers",
        "group": group_document(cyclic_group(4)),
        "space": {"points": points, "min_open": {p: [p] for p in points}},
        "partial_action": {"domains": {g: points for g in "123"},
                           "maps": {g: swap for g in "123"}}}
    # U_q, U_r and U_s all leave U_p: the witness names the first, q
    opens = {"p": ["p", "q", "r", "s"], "q": ["q", "t"], "r": ["r", "t"], "s": ["s", "t"],
             "t": ["t"]}
    nest = {"id": "nest", "group": group_document(cyclic_group(1)),
            "space": {"points": list(opens), "min_open": opens},
            "partial_action": {"domains": {}, "maps": {}}}
    for doc, witness in ((circle, "('1', 'a0', 'c0')"),
                         (swaps, "('1', '1', 'p0')"),
                         (nest, "('q', 'p', 't')")):
        path = tmp_path / f"{doc['id']}.json"
        path.write_text(json.dumps(doc))
        errors = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            proc = subprocess.run(
                [sys.executable, "-m", "pact.cli", "validate", str(path)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 2
            errors.append(proc.stderr.strip())
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and witness in errors[0]


# `pact fixed z4-arcs --subgroup H --envelope --json`, recorded before the
# fixed-point identities moved to bitmasks; the whole document is emitted,
# so it must stay byte for byte
FIXED_Z4_ARCS_H_ENVELOPE = """\
{
  "decomposition": {
    "decomposition": {
      "fixed_in_total": [
        "(0,a1)",
        "(0,a3)",
        "(1,a1)",
        "(1,a3)"
      ],
      "holds": true,
      "union_of_translates": [
        "(0,a1)",
        "(0,a3)",
        "(1,a1)",
        "(1,a3)"
      ]
    },
    "embedded_fixed": {
      "fixed_in_image": [
        "(0,a1)",
        "(0,a3)"
      ],
      "holds": true,
      "image_of_fixed": [
        "(0,a1)",
        "(0,a3)"
      ]
    },
    "generated_intersection": {
      "families_checked": 7,
      "holds": true,
      "witness": null
    },
    "status": "holds",
    "subgroup": [
      "0",
      "2"
    ]
  },
  "fixed_points": [
    "a1",
    "a3"
  ],
  "instance": "z4-arcs",
  "subgroup": [
    "0",
    "2"
  ]
}
"""


def test_fixed_envelope_document_is_unchanged(capsys):
    for sub in load_fixture("z4-arcs").subgroups:
        assert main(["fixed", "z4-arcs", "--subgroup", sub, "--envelope",
                     "--json"]) == 0
        assert capsys.readouterr().out == FIXED_Z4_ARCS_H_ENVELOPE


def test_subgroup_witness_is_identical_under_hash_randomization(tmp_path):
    import os
    import subprocess
    import sys
    from pact import fixture_dict
    # {0, 1, 2} in Z4 misses both the inverse 3 of 1 and several products;
    # members are checked in element order, inverse first
    doc = fixture_dict("z4-circle")
    doc["subgroups"] = {"H": ["0", "1", "2"]}
    path = tmp_path / "z4-circle-h.json"
    path.write_text(json.dumps(doc))
    errors = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-m", "pact.cli", "validate", str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        errors.append(proc.stderr.strip())
    assert errors[0] == errors[1]
    assert errors[0] == ("error: at subgroups.H: subgroup not closed under inverse "
                         "(witness ('1',))")


def test_bound_flag_allows_larger_instances(capsys):
    # homotopy-preservation on z4-circle needs the defaults; shrink to force
    # a skip, then confirm the default succeeds
    assert main(["check", "homotopy-preservation", "z4-circle", "--json",
                 "--bound", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["status"] == "skipped-bounds"
    assert main(["check", "homotopy-preservation", "z4-circle", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["status"] == "holds"


def test_bound_flag_reaches_the_subgroup_lattice(tmp_path, capsys):
    # Z24 has 8 subgroups, more than the default group-order bound of 16
    # allows to enumerate; --bound must lift it for the claim and for
    # `fixed --envelope` alike
    from gen import half_circle_document
    doc = half_circle_document(24)
    doc["subgroups"] = {"H": ["0", "12"]}
    path = tmp_path / "z24.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "generated-intersection", str(path), "--json",
                 "--bound", "100000"]) == 0
    report = json.loads(capsys.readouterr().out)[0]
    assert report["status"] == "holds"
    assert report["witness"]["families_checked"] == 2 ** 8 - 1
    assert main(["fixed", str(path), "--subgroup", "H", "--envelope", "--json",
                 "--bound", "100000"]) == 0
    decomposition = json.loads(capsys.readouterr().out)["decomposition"]
    assert decomposition["status"] == "holds"
    assert decomposition["generated_intersection"]["families_checked"] == 2 ** 8 - 1


def test_bound_flag_reaches_the_adjunction_envelope(tmp_path, capsys):
    # Z65 acting trivially on a 4-point chain: G x X has 260 pairs, past the
    # default envelope bound of 256; --bound must lift it for the twisted
    # product that the adjunction builds, not only for the claim's own
    n = 65
    elements = [str(i) for i in range(n)]
    points = ["p0", "p1", "p2", "p3"]
    doc = {"id": "z65-chain",
           "group": {"elements": elements,
                     "table": [[str((i + j) % n) for j in range(n)] for i in range(n)],
                     "identity": "0"},
           "space": {"points": points,
                     "min_open": {p: points[:i + 1] for i, p in enumerate(points)}},
           "partial_action": {"domains": {g: points for g in elements},
                              "maps": {g: {p: p for p in points} for g in elements}}}
    path = tmp_path / "z65.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "adjunction", str(path), "--json", "--bound", "1000"]) == 0
    report = json.loads(capsys.readouterr().out)[0]
    assert report["status"] == "holds", report


def test_internal_error_in_one_claim_keeps_the_other_reports(monkeypatch, capsys):
    import pact.verify

    def broken(inst, bounds, run):
        raise InternalCheckError("planted fault")

    monkeypatch.setitem(pact.verify.CLAIMS, "recognition", broken)
    rc = main(["check", "all", "z2-pair", "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert len(reports) == 16
    bad = [r for r in reports if r["status"] == "internal-error"]
    assert [r["claim_id"] for r in bad] == ["recognition"]
    assert bad[0]["witness"] == {"reason": "planted fault"}
    assert all(r["status"] == "holds" for r in reports
               if r["claim_id"] in ("pa-axioms", "twist-eq-glob"))

    rc = main(["check", "recognition", "z2-pair"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "internal-error: planted fault" in out
    assert "1 internal-error" in out

    inst = load_fixture("z2-pair")
    report = pact.verify.run_claim("recognition", inst)
    assert report.status == "internal-error"
    assert replay_witness(report, inst) is False


def test_internal_error_outside_a_claim_exits_3(monkeypatch, capsys):
    import pact.cli

    def broken(*args, **kwargs):
        raise InternalCheckError("planted fault")

    monkeypatch.setattr(pact.cli, "globalize", broken)
    assert main(["globalize", "z2-pair"]) == 3
    assert "internal error: planted fault" in capsys.readouterr().err
