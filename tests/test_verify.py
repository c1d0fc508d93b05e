from __future__ import annotations

import copy
import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pact import (DEFAULT_BOUNDS, ClaimReport, ValidationError, claim_ids,
                  diagonal_product, discrete_space, exit_code,
                  fixture_dict, fixture_names, load_fixture, pair_label,
                  parse_instance, replay_witness, run_all, run_claim,
                  space_from_min_opens, split_diagonal_factors, split_pair_label,
                  trivial_action, validate_partial_action)
from pact.verify import first_split_pair
from gen import (FIXTURE_GOLDEN, GENERATED_GOLDEN, cyclic_group, fence_document,
                 half_circle_document, instance_document, random_group,
                 random_partial, random_preorder_space, z6_two_orbits_document)
from oracle import label_split_diagonal_factors, pairwise_split_pair, worst_status

Z4_PT_TRIVIAL = {
    "id": "z4-pt-trivial",
    "group": {"elements": ["0", "1"],
              "table": [["0", "1"], ["1", "0"]], "identity": "0"},
    "space": {"points": ["y"], "min_open": {"y": ["y"]}},
    "partial_action": {"domains": {"1": ["y"]}, "maps": {"1": {"y": "y"}}},
    "big_group": {"elements": ["0", "1", "2", "3"],
                  "table": [["0", "1", "2", "3"], ["1", "2", "3", "0"],
                            ["2", "3", "0", "1"], ["3", "0", "1", "2"]],
                  "identity": "0"},
    "k_embedding": {"0": "0", "1": "2"},
}


def test_registry_contents():
    assert claim_ids() == [
        "pa-axioms", "embedding", "recognition", "twist-eq-glob", "iota-k",
        "preimage", "iterated-twist", "adjunction", "product-comparison",
        "trivial-collapse", "t1", "homotopy-preservation", "g-contractible",
        "locally-g-contractible", "fixed-decomposition",
        "generated-intersection"]


def test_run_claim_examples():
    sq = load_fixture("z2-pair-sq")
    rep = run_claim("product-comparison", sq)
    assert rep.status == "fails"
    assert rep.witness["reason"] == "not bijective"
    assert rep.witness["source_classes"] == 7
    assert rep.witness["target_points"] == 9
    assert len(rep.witness["unhit_targets"]) == 2

    z2pair = load_fixture("z2-pair")
    assert run_claim("twist-eq-glob", z2pair).status == "holds"

    wedge = load_fixture("z2-wedge")
    assert run_claim("g-contractible", wedge).status == "holds"

    with pytest.raises(ValidationError):
        run_claim("no-such-claim", z2pair)


def test_run_all_examples():
    pt = load_fixture("pt")
    reports = run_all(pt)
    assert [r.claim_id for r in reports] == claim_ids()
    assert all(r.status in ("holds", "precondition-unmet") for r in reports)
    assert exit_code(reports) == 0

    z2pair = load_fixture("z2-pair")
    reports2 = run_all(z2pair)
    by_id = {r.claim_id: r for r in reports2}
    assert by_id["product-comparison"].status == "precondition-unmet"
    assert all(r.status != "fails" for r in reports2)
    assert exit_code(reports2) == 0

    sq = load_fixture("z2-pair-sq")
    reports3 = run_all(sq)
    failing = [r.claim_id for r in reports3 if r.status == "fails"]
    assert failing == ["product-comparison"]
    assert exit_code(reports3) == 1
    assert worst_status(reports3) == "fails"


def test_split_diagonal_factors():
    sq = load_fixture("z2-pair-sq")
    split = split_diagonal_factors(sq.pa)
    assert split is not None
    pa1, pa2, diag = split
    assert diag.space.points == sq.pa.space.points
    assert pa1.space.points == ("a", "b")
    assert pa1.domains["1"] == frozenset({"a"})
    assert pa1 == pa2
    assert split_diagonal_factors(load_fixture("z2-pair").pa) is None
    assert split_diagonal_factors(load_fixture("z4-circle").pa) is None


def test_product_comparison_is_bounded_by_the_product_size():
    """z2-pair-sq's product has 4 points: a product bound of 4 decides the
    claim, and 3 skips it on the product, before any twisted product."""
    sq = load_fixture("z2-pair-sq")
    at = dataclasses.replace(DEFAULT_BOUNDS, product_points=4)
    assert run_claim("product-comparison", sq, at).status == "fails"
    below = dataclasses.replace(DEFAULT_BOUNDS, product_points=3)
    rep = run_claim("product-comparison", sq, below)
    assert rep.status == "skipped-bounds"
    assert rep.witness == {"reason": "product space: needs 4, bound is 3"}


def _tables(pa):
    """pa's label tables: points, minimal opens, domains and thetas."""
    sp = pa.space
    return (list(sp.points), {p: set(sp.min_open_of(p)) for p in sp.points},
            {g: set(pa.domains[g]) for g in pa.group.elements},
            {g: dict(pa.thetas[g]) for g in pa.group.elements})


def _from_tables(group, points, min_open, domains, thetas, name=lambda p: p):
    """The partial action on the label tables, every label passed through
    ``name``, or None when the tables are not one."""
    try:
        return validate_partial_action(
            group,
            space_from_min_opens([name(p) for p in points],
                                 {name(p): [name(q) for q in u] for p, u in min_open.items()}),
            {g: [name(x) for x in xs] for g, xs in domains.items()},
            {g: {name(x): name(y) for x, y in t.items()} for g, t in thetas.items()})
    except ValidationError:
        return None


def _split_input(rng, kind):
    """A two-factor diagonal product with renamed factor labels, changed by
    ``kind`` ("product" changes nothing), with its points shuffled; None
    when the change leaves no partial action."""
    grp = cyclic_group(2) if kind == "theta" else random_group(rng)

    def factor():
        if kind == "theta":  # discrete, so any permutation is a homeomorphism
            return trivial_action(grp, discrete_space([f"p{i}" for i in range(rng.randint(2, 3))]))
        points, min_open = random_preorder_space(rng, 4)
        space = space_from_min_opens(points, min_open)
        shape = "trivial" if kind == "min-open" else rng.choice(["regular", "trivial", "on-v"])
        if kind == "domain" or shape == "on-v":
            # identity maps on one open V for every g != e, all of X when a
            # point of V is to drop out
            v = set(points) if kind == "domain" else set().union(
                *(min_open[p] for p in rng.sample(points, rng.randint(1, len(points)))))
            return validate_partial_action(
                grp, space, {g: set(points) if g == grp.identity else v for g in grp.elements},
                {g: {x: x for x in (points if g == grp.identity else v)}
                 for g in grp.elements})
        if shape == "trivial":
            return trivial_action(grp, space)
        return random_partial(rng, grp, ["regular", "cone"], 3)

    names = ["x", "(x,y)", "((u,v),w)", "()"]
    factors = []
    for tag in "ab":
        pa = factor()
        fresh = {p: f"{rng.choice(names)}{tag}{i}" for i, p in enumerate(pa.space.points)}
        factors.append(_from_tables(grp, *_tables(pa), name=fresh.__getitem__))
    points, min_open, domains, thetas = _tables(diagonal_product(*factors))

    # the points of a class at the top of the order within ``within``:
    # U_r is U_p for every r in ``within`` above p
    def top_class(within):
        p = rng.choice([p for p in within
                        if all(min_open[r] == min_open[p] for r in within if p in min_open[r])])
        return [r for r in within if min_open[r] == min_open[p]]

    if kind == "min-open":  # U_p grows by some U_q, with p's class at the top
        top = top_class(points)
        grown = min_open[rng.choice([q for q in points if not min_open[q] <= min_open[top[0]]]
                                    or points)]
        for p in top:
            min_open[p] = min_open[p] | grown
    elif kind == "domain":  # a top class of V drops out of the domains
        for p in top_class(domains[grp.elements[-1]]):
            for g in grp.elements:
                if g != grp.identity:
                    domains[g].discard(p)
                    thetas[g].pop(p)
    elif kind == "theta":  # theta_1 swaps two points
        p, q = rng.sample(points, 2)
        thetas["1"][p], thetas["1"][q] = q, p
    rng.shuffle(points)
    return _from_tables(grp, points, min_open, domains, thetas)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["product", "min-open", "domain", "theta"]))
def test_split_matches_the_label_split(seed, kind):
    """The split that leaves every check to its final comparison finds the
    factors the label split with one check per part finds, or None when it
    does, on shuffled and renamed products and on products changed in one
    class's minimal open, in one class of a domain, or in two theta entries
    swapped."""
    pa = _split_input(random.Random(seed), kind)
    if pa is None:
        return
    want = label_split_diagonal_factors(pa)
    got = split_diagonal_factors(pa)
    if kind == "product" and all(pa.domain_points):
        assert want is not None  # no empty domain hides a factor's
    if want is None:
        assert got is None
        return
    assert got is not None and got[:2] == want
    diag = got[2]
    assert diag == diagonal_product(*want)
    assert sorted(diag.space.points) == sorted(pa.space.points)


def test_trivial_collapse_claim_on_adhoc_instance():
    inst = parse_instance(copy.deepcopy(Z4_PT_TRIVIAL))
    rep = run_claim("trivial-collapse", inst)
    assert rep.status == "fails"
    assert rep.witness["reason"] == "not injective"
    assert rep.witness["classes"] == 2
    assert replay_witness(rep, inst)

    pt = load_fixture("pt")
    assert run_claim("trivial-collapse", pt).status == "holds"


def test_replay_witness_product_comparison():
    sq = load_fixture("z2-pair-sq")
    rep = run_claim("product-comparison", sq)
    assert replay_witness(rep, sq)

    tampered = ClaimReport(rep.claim_id, rep.instance_id, rep.status,
                           json.loads(json.dumps(rep.witness)))
    hit_target = next(iter(rep.witness["map"].values()))
    tampered.witness["unhit_targets"] = [hit_target]
    tampered.witness.pop("map")
    assert not replay_witness(tampered, sq)

    holds_rep = run_claim("twist-eq-glob", sq)
    assert replay_witness(holds_rep, sq)  # vacuous


def test_replay_witness_trivial_collapse_tampering():
    inst = parse_instance(copy.deepcopy(Z4_PT_TRIVIAL))
    rep = run_claim("trivial-collapse", inst)
    assert rep.status == "fails" and replay_witness(rep, inst)
    tampered = ClaimReport(rep.claim_id, rep.instance_id, rep.status,
                           json.loads(json.dumps(rep.witness)))
    c = tampered.witness["collision"][0]
    tampered.witness["collision"] = [c, c]  # not two distinct classes
    assert not replay_witness(tampered, inst)


def test_replay_witness_validates_instance_binding():
    sq = load_fixture("z2-pair-sq")
    rep = run_claim("product-comparison", sq)
    other = load_fixture("z2-pair")
    with pytest.raises(ValidationError):
        replay_witness(rep, other)


def test_reports_are_deterministic_modulo_elapsed():
    for name in ("pt", "z2-pair", "z2-pair-sq", "z4-from-z2-pair"):
        inst = load_fixture(name)
        first = [r.to_dict() for r in run_all(inst)]
        second = [r.to_dict() for r in run_all(inst)]
        for d in first + second:
            d.pop("elapsed_ms")
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


def test_bound_monotonicity_never_flips_holds_to_fails():
    wider = DEFAULT_BOUNDS.with_limit(40)
    for name in ("pt", "z2-pair", "z2-pair-sq", "z4-from-z2-pair", "z4-half"):
        inst = load_fixture(name)
        narrow = {r.claim_id: r.status for r in run_all(inst)}
        wide = {r.claim_id: r.status for r in run_all(inst, wider)}
        for cid, status in narrow.items():
            if status == "holds":
                assert wide[cid] != "fails"
            if status == "fails":
                assert wide[cid] == "fails"


def test_claim_reports_are_json_serializable():
    for name in ("z2-pair", "z2-pair-sq", "z4-arcs"):
        inst = load_fixture(name)
        for rep in run_all(inst):
            json.dumps(rep.to_dict())


def test_theorem_claims_hold_on_random_instances(rng):
    # restrictions of global actions are the generic valid instances; the
    # registry's theorem claims must never report fails on them
    checked = 0
    while checked < 8:
        pa = random_partial(rng, cyclic_group(2), ["regular", "cone", "circle"])
        inst = parse_instance(instance_document(pa, f"rand{checked}"))
        for rep in run_all(inst):
            if rep.claim_id in ("product-comparison", "trivial-collapse"):
                continue  # checked claims with known failure modes
            assert rep.status != "fails", (rep.claim_id, rep.witness)
        checked += 1


def test_every_failing_report_in_the_corpus_replays():
    from pact import fixture_names
    for name in fixture_names():
        inst = load_fixture(name)
        for rep in run_all(inst):
            if rep.status == "fails":
                assert replay_witness(rep, inst), (name, rep.claim_id)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=12))
def test_first_split_pair_matches_pairwise_scan(rows):
    # rows are (fence component of a G-map, component of its lifted map)
    components = [c for c, _ in rows]
    images = [v for _, v in rows]
    assert first_split_pair(components, images) == \
        pairwise_split_pair(components, images)


def test_t1_claim_statuses():
    assert run_claim("t1", load_fixture("z2-pair")).status == "holds"
    assert run_claim("t1", load_fixture("z2-wedge")).status == "precondition-unmet"
    assert run_claim("t1", load_fixture("z4-from-z2-pair")).status == "holds"


def test_adjunction_claim_bounds():
    circle = load_fixture("z4-circle")
    assert run_claim("adjunction", circle).status == "skipped-bounds"
    half = load_fixture("z4-half")
    assert run_claim("adjunction", half).status == "holds"


def test_fixed_point_claims_enumerate_the_lattice_once(monkeypatch):
    import pact.algebra
    inst = parse_instance(half_circle_document(12))
    calls = {"all_subgroups": 0, "family_joins": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pact.algebra, "all_subgroups",
                        counting("all_subgroups", pact.algebra.all_subgroups))
    # a family join would generate the subgroup of a family's union
    monkeypatch.setattr(pact.algebra, "subgroup_generated",
                        counting("family_joins", pact.algebra.subgroup_generated))

    reports = {rep.claim_id: rep for rep in run_all(inst)}
    report = reports["fixed-decomposition"]
    assert report.status == "holds" and len(report.witness["subgroups"]) == 6
    report = reports["generated-intersection"]
    assert report.status == "holds"
    assert report.witness["families_checked"] == 2 ** 6 - 1
    assert calls == {"all_subgroups": 1, "family_joins": 0}


def test_homotopy_preservation_lifts_each_poset_at_once(monkeypatch):
    import sys
    import pact.envelope
    import pact.paction
    inst = parse_instance(fence_document(5))
    calls = {"envelope_of_map": 0, "is_G_map": 0, "lift_maps": 0}
    defined = {"envelope_of_map": pact.envelope, "is_G_map": pact.paction,
               "lift_maps": pact.envelope}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        real = getattr(defined[name], name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pact" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    report = run_claim("homotopy-preservation", inst,
                       dataclasses.replace(DEFAULT_BOUNDS, max_maps=16384))
    assert report.status == "holds" and report.witness["g_maps"] > 1000
    assert calls == {"envelope_of_map": 0, "is_G_map": 0, "lift_maps": 1}


def test_generated_intersection_on_a_lattice_that_is_not_a_chain():
    # no point is fixed by both {0, 3} and {0, 2, 4}, while each subgroup
    # alone fixes some, so joins must use the whole family
    inst = parse_instance(z6_two_orbits_document())
    report = run_claim("generated-intersection", inst)
    assert report.status == "holds"
    assert report.witness == {"families_checked": 2 ** 4 - 1}
    report = run_claim("fixed-decomposition", inst)
    assert report.status == "holds"
    assert [s["fixed_in_total"] for s in report.witness["subgroups"]] == [
        ["(0,p0)", "(0,p1)", "(0,p2)", "(0,q0)", "(0,q1)"],
        ["(0,p0)", "(0,p1)", "(0,p2)"], ["(0,q0)", "(0,q1)"], []]


def _relabelled(doc: dict, data) -> dict:
    """``doc`` with its points and group elements listed in drawn orders and
    renamed by drawn bijections, the identity of each group never listed
    first.  A point named as a pair "(x,y)" keeps that form, with x and y
    renamed, so the product structure that product-comparison reads from
    the labels survives."""
    assert set(doc) <= {"id", "group", "space", "partial_action", "big_group",
                        "k_embedding", "subgroups", "maps"}
    points = doc["space"]["points"]
    atoms = sorted({a for p in points for a in split_pair_label(p) or (p,)})
    atom = dict(zip(atoms, data.draw(st.permutations([f"v{i}" for i in range(len(atoms))]))))

    def pt(p: str) -> str:
        pair = split_pair_label(p)
        return pair_label(atom[pair[0]], atom[pair[1]]) if pair else atom[p]

    groups = [doc[key] for key in ("group", "big_group") if key in doc]
    elements = sorted({g for group in groups for g in group["elements"]})
    el = dict(zip(elements, data.draw(st.permutations([f"e{i}" for i in range(len(elements))]))))

    def regroup(group: dict) -> dict:
        e = group["identity"]
        rest = data.draw(st.permutations([g for g in group["elements"] if g != e]))
        at = data.draw(st.integers(1, len(rest))) if rest else 0
        order = rest[:at] + [e] + rest[at:]
        index = {g: i for i, g in enumerate(group["elements"])}
        return {"elements": [el[g] for g in order], "identity": el[e],
                "table": [[el[group["table"][index[a]][index[b]]] for b in order]
                          for a in order]}

    pa = doc["partial_action"]
    out = {"id": doc["id"], "group": regroup(doc["group"]),
           "space": {"points": list(map(pt, data.draw(st.permutations(points)))),
                     "min_open": {pt(p): list(map(pt, u))
                                  for p, u in doc["space"]["min_open"].items()}},
           "partial_action": {
               "domains": {el[g]: list(map(pt, xs)) for g, xs in pa["domains"].items()},
               "maps": {el[g]: {pt(x): pt(y) for x, y in table.items()}
                        for g, table in pa["maps"].items()}}}
    if "big_group" in doc:
        out["big_group"] = regroup(doc["big_group"])
    if "k_embedding" in doc:
        out["k_embedding"] = {el[k]: el[g] for k, g in doc["k_embedding"].items()}
    if "subgroups" in doc:
        out["subgroups"] = {name: [el[g] for g in members]
                            for name, members in doc["subgroups"].items()}
    if "maps" in doc:
        out["maps"] = {name: {pt(x): pt(y) for x, y in table.items()}
                       for name, table in doc["maps"].items()}
    return out


def _automorphic(doc: dict, data) -> dict:
    """A generated arc document, whose group is Z_n listed as 0, ..., n-1,
    acting through the automorphism x |-> u x for a drawn unit u != 1:
    theta'_g = theta_{ug} with X'_g = X_{ug}.  Labels and listing orders
    stay, so the identity is listed first and the greedy generator is
    still 1, but each element's tables, and so every class's least member
    and every certificate's representatives, are another element's."""
    n = len(doc["group"]["elements"])
    assert doc["group"]["elements"] == [str(g) for g in range(n)]
    u = data.draw(st.sampled_from([u for u in range(2, n) if math.gcd(u, n) == 1]))
    pa = doc["partial_action"]
    return {**doc, "partial_action": {
        key: {str(g): pa[key][str(u * g % n)] for g in range(n) if str(u * g % n) in pa[key]}
        for key in ("domains", "maps")}}


def _relabelling_cases() -> list:
    """(document, bound overrides, recorded statuses) of every fixture and
    every generated instance, read from the two goldens."""
    fixtures = json.loads(FIXTURE_GOLDEN.read_text())
    cases = [pytest.param(fixture_dict(name), {}, [rep["status"] for rep in fixtures[name]],
                          id=name) for name in fixture_names()]
    for entry in json.loads(GENERATED_GOLDEN.read_text()):
        cases.append(pytest.param(entry["document"], entry["bounds"],
                                  [rep["status"] for rep in entry["reports"]],
                                  id=f"{entry['document']['id']}-seed{entry['seed']}"))
    return cases


@pytest.mark.parametrize("doc, overrides, expected", _relabelling_cases())
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_verdicts_do_not_depend_on_where_the_identity_is_listed(doc, overrides,
                                                               expected, data):
    """Every verdict survives listing the identity anywhere but first, and
    with it any listing order of points and elements and any renaming of
    their labels.  The envelope assembly once read the embedded image by
    pair index where it meant class index, which only agreed when the
    identity was the first element; mask bit order follows point order and
    class names follow label order, and neither may move a verdict.  The
    arc documents also keep their verdicts when Z_n acts through an
    automorphism, which moves every least index that the class and action
    certificates key on while the listing stays."""
    bounds = dataclasses.replace(DEFAULT_BOUNDS, **overrides)
    inst = parse_instance(_relabelled(doc, data))
    assert [rep.status for rep in run_all(inst, bounds)] == expected
    if doc["id"].startswith("arc-z"):
        inst = parse_instance(_automorphic(doc, data))
        assert [rep.status for rep in run_all(inst, bounds)] == expected
