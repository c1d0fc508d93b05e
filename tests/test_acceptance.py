"""Acceptance criteria, one test per criterion.

Each test prints one pass line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them).  Expected values are exact: they come from the
independent oracles in tests/oracle.py or from frozen desk computations,
never from the code paths they check.
"""
from __future__ import annotations

import copy
import json
import random

from pact import (SpaceMap, Subgroup, ValidationError,
                  adjunction_maps, core, space_from_min_opens,
                  discrete_space,
                  fixed_decomposition, fixed_points,
                  fixture_dict, fixture_names, global_action, globalize,
                  is_contractible, is_continuous, is_open,
                  load_fixture, parse_instance,
                  replay_witness, run_claim,
                  trivial_action, trivial_collapse, twisted_product)
from gen import (compare_products, cyclic_group, g_contract, hom, label_tables,
                 random_preorder_space, recognition, twist)
from pact.cli import main as cli_main
from oracle import (are_G_homotopic, brute_globalization_classes, brute_opens,
                    brute_twisted_classes, envelopes_G_homotopic,
                    find_homeomorphism,
                    globalization_document, group_violation, label_view,
                    partial_action_violation,
                    random_partition, space_violation)

from conftest import SEED


def passed(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# criterion 1: axiom suite with mutation testing


def _defaulted_blocks(doc: dict):
    group = doc["group"]
    elements = group["elements"]
    identity = group["identity"]
    points = doc["space"]["points"]
    min_open = doc["space"]["min_open"]
    domains = {g: list(v) for g, v in doc["partial_action"]["domains"].items()}
    thetas = {g: dict(v) for g, v in doc["partial_action"]["maps"].items()}
    domains.setdefault(identity, list(points))
    thetas.setdefault(identity, {x: x for x in points})
    for g in elements:
        domains.setdefault(g, [])
        thetas.setdefault(g, {})
    return elements, group["table"], identity, points, min_open, domains, thetas


def _mutate(doc: dict, rng: random.Random) -> dict:
    doc = copy.deepcopy(doc)
    elements = doc["group"]["elements"]
    points = doc["space"]["points"]
    kinds = ["table", "min_open", "theta"]
    if doc["partial_action"]["domains"]:
        kinds.append("domain")
    kind = rng.choice(kinds)
    if kind == "table":
        i = rng.randrange(len(elements))
        j = rng.randrange(len(elements))
        old = doc["group"]["table"][i][j]
        doc["group"]["table"][i][j] = rng.choice([e for e in elements if e != old])
    elif kind == "min_open":
        p = rng.choice(points)
        opens = list(doc["space"]["min_open"][p])
        extras = [q for q in points if q not in opens]
        removable = [q for q in opens if q != p]
        if extras and (not removable or rng.random() < 0.5):
            opens.append(rng.choice(extras))
        elif removable:
            opens.remove(rng.choice(removable))
        doc["space"]["min_open"][p] = opens
    elif kind == "domain":
        g = rng.choice(sorted(doc["partial_action"]["domains"]))
        dom = list(doc["partial_action"]["domains"][g])
        extras = [q for q in points if q not in dom]
        if extras and (not dom or rng.random() < 0.5):
            dom.append(rng.choice(extras))
        elif dom:
            dom.remove(rng.choice(dom))
        doc["partial_action"]["domains"][g] = dom
    else:
        maps = doc["partial_action"]["maps"]
        candidates = [g for g in maps if maps[g]]
        if not candidates:
            return doc
        g = rng.choice(sorted(candidates))
        x = rng.choice(sorted(maps[g]))
        maps[g][x] = rng.choice(points)
    return doc


def _replay_validation_witness(doc: dict, axiom: str, witness: tuple) -> bool:
    elements, table, identity, points, min_open, domains, thetas = \
        _defaulted_blocks(doc)
    index = {e: i for i, e in enumerate(elements)}

    def mul(a, b):
        return table[index[a]][index[b]]

    def inv(a):
        return next(b for b in elements if mul(a, b) == identity == mul(b, a))

    if axiom == "closure":
        a, b, entry = witness
        return mul(a, b) == entry and entry not in index
    if axiom == "identity":
        (a,) = witness
        return mul(identity, a) != a or mul(a, identity) != a
    if axiom == "inverse":
        (a,) = witness
        return not any(mul(a, b) == identity == mul(b, a) for b in elements)
    if axiom == "associativity":
        a, b, c = witness
        return mul(mul(a, b), c) != mul(a, mul(b, c))
    if axiom == "min-open-membership":
        (p,) = witness
        return p not in min_open[p]
    if axiom == "min-open-nesting":
        q, p, bad = witness
        return q in min_open[p] and bad in min_open[q] and bad not in min_open[p]
    if axiom == "pa3-domain":
        return set(domains[identity]) != set(points)
    if axiom == "pa3-identity":
        (x,) = witness
        return thetas[identity].get(x) != x
    if axiom == "domain-not-open":
        g = witness[0]
        return frozenset(domains[g]) not in brute_opens(points, min_open)
    if axiom == "theta-domain":
        g, off = witness
        return (off in thetas[g]) != (off in set(domains[inv(g)]))
    if axiom == "theta-not-bijective":
        (g,) = witness
        values = list(thetas[g].values())
        return len(set(values)) != len(values) or set(values) != set(domains[g])
    if axiom == "theta-not-continuous":
        g, x, y = witness
        t = thetas[g]
        return x in min_open[y] and t[x] not in min_open[t[y]]
    if axiom == "theta-inverse-not-continuous":
        g, x, y = witness
        back = {v: k for k, v in thetas[g].items()}
        return x in min_open[y] and back[x] not in min_open[back[y]]
    if axiom == "theta-inverse-mismatch":
        g, x = witness
        return thetas[inv(g)].get(thetas[g][x]) != x
    if axiom == "pa2":
        g, h, x = witness
        if x not in set(domains[inv(h)]):
            return False
        hx = thetas[h][x]
        if hx not in set(domains[inv(g)]):
            return False
        gh = mul(g, h)
        return x not in set(domains[inv(gh)]) or \
            thetas[g][hx] != thetas[gh][x]
    raise AssertionError(f"no replayer for axiom {axiom!r}")


def test_acceptance_1_axiom_suite():
    for name in fixture_names():
        load_fixture(name)  # all bundled fixtures validate
    rng = random.Random(SEED)
    rejected = accepted = 0
    for name in fixture_names():
        base = fixture_dict(name)
        for _ in range(50):
            doc = _mutate(base, rng)
            try:
                parse_instance(doc)
            except ValidationError as exc:
                rejected += 1
                assert _replay_validation_witness(doc, exc.axiom, exc.witness), \
                    f"{name}: witness for {exc.axiom} does not replay"
            else:
                accepted += 1
                blocks = _defaulted_blocks(doc)
                assert group_violation(blocks[0], blocks[1], blocks[2]) is None
                assert space_violation(blocks[3], blocks[4]) is None
                assert partial_action_violation(*blocks) is None
    assert rejected + accepted == 50 * len(fixture_names())
    assert rejected > 0 and accepted > 0
    passed(1, f"axiom suite: 9 fixtures validate; {rejected} mutations "
              f"rejected with replayable witnesses, {accepted} consistent "
              f"with the independent scan")


# ---------------------------------------------------------------------------
# criterion 2: globalization of z2-pair


def test_acceptance_2_z2_pair_globalization():
    pa = load_fixture("z2-pair").pa
    env = globalize(pa)
    assert len(env.total) == 3
    view = label_view(env)
    a_class = view.class_of("0", "a")
    b0, b1 = view.class_of("0", "b"), view.class_of("1", "b")
    assert view.action["1"][a_class] == a_class
    assert view.action["1"][b0] == b1 and view.action["1"][b1] == b0
    assert env.embedding("a") == a_class and env.embedding("b") == b0
    # iota is an open embedding
    image = env.embedding_image()
    assert is_open(env.total, image)
    assert len(set(env.embedding.assignment)) == 2
    assert is_continuous(env.embedding)
    # byte-for-byte against the brute-force relation-closure oracle
    assert json.dumps(env.to_document(), sort_keys=True) == \
        json.dumps(globalization_document(pa), sort_keys=True)
    passed(2, "z2-pair globalization: 3 classes, mu_1 fixes [a] and swaps "
              "the b-classes, iota open embedding, document matches the "
              "R-closure oracle byte for byte")


# ---------------------------------------------------------------------------
# criterion 3: recognition of z4-half


def test_acceptance_3_recognition():
    circle = load_fixture("z4-circle").pa
    phi, status, report = recognition(circle, ["a3", "c0", "a0", "c1", "a1"])
    assert status == "holds"
    assert all(report["checks"].values())
    assert phi.is_bijective()
    half_env = globalize(load_fixture("z4-half").pa)
    witness = find_homeomorphism(half_env.total, circle.space)
    assert witness is not None
    assert witness.is_bijective() and is_continuous(witness)
    assert is_continuous(witness.inverse())
    passed(3, "recognition: z4-half globalizes to the 8-point circle via a "
              "verified equivariant homeomorphism; independent search agrees")


# ---------------------------------------------------------------------------
# criterion 4: twisted products


def test_acceptance_4_twisted_products():
    # K = G against globalize on every fixture is
    # test_envelope.py::test_twisted_equals_globalization_at_full_subgroup
    z4 = cyclic_group(4)
    k = Subgroup.from_labels(z4, {"0", "2"}).as_group()
    pt = trivial_action(k, discrete_space(["y"]))
    assert len(twisted_product(pt, z4).total) == 2

    inst = load_fixture("z4-from-z2-pair")
    env = twisted_product(inst.embedded_pa, inst.big)
    assert len(env.total) == 6
    k_elements, _, _, *raw = label_tables(inst.embedded_pa)
    oracle = brute_twisted_classes(list(inst.big.elements), [list(r) for r in inst.big.table],
                                   "0", k_elements, *raw)
    assert len(oracle) == 6
    view = label_view(env)
    got = {frozenset(view.members_of(c)) for c in env.total.points}
    assert got == set(oracle)

    # preimage identity, exhaustively, on every fixture
    for name in fixture_names():
        inst = load_fixture(name)
        env = twisted_product(inst.embedded_pa, inst.big)
        image = env.embedding_image()
        view = label_view(env)
        preimage = {p for p in env.product_space.points
                    if view.projection(p) in image}
        assert preimage == set(view.kstar)
    passed(4, "twisted products: Z4 x_{0,2} pt has 2 points; z4-from-z2-pair "
              "has 6 classes per the oracle; preimage identity exhaustive")


# ---------------------------------------------------------------------------
# criterion 5: adjunction


def test_acceptance_5_adjunction():
    xs = ["pt", "z2-pair", "z2-swap", "z2-wedge", "z2-pair-sq"]
    ys = ["pt", "z2-swap", "z2-wedge"]
    pairs_checked = 0
    for xname in xs:
        pa_x = load_fixture(xname).pa
        if len(pa_x.space) > 4:
            continue
        for yname in ys:
            pa_y = load_fixture(yname).pa
            if len(pa_y.space) > 4:
                continue
            status, result = adjunction_maps(twist(pa_x), pa_y, hom)
            assert status == "holds", (xname, yname)
            assert result["checks"]["mutually-inverse"]
            assert result["checks"]["naturality-post"]
            assert result["checks"]["naturality-pre"]
            pairs_checked += 1
    assert pairs_checked == 15

    _, counted = adjunction_maps(twist(load_fixture("z2-pair").pa),
                                 load_fixture("z2-wedge").pa, hom)
    assert counted["g_maps"] == 3 == counted["k_maps"]

    # a proper-subgroup pairing: K = {0,2} inside Z4
    inst = load_fixture("z4-from-z2-pair")
    z4 = inst.big
    d2 = discrete_space(["u", "v"])
    y = global_action(z4, d2, {
        "0": {"u": "u", "v": "v"}, "1": {"u": "v", "v": "u"},
        "2": {"u": "u", "v": "v"}, "3": {"u": "v", "v": "u"}})
    status, res = adjunction_maps(twist(inst.embedded_pa, z4), y, hom)
    assert status == "holds"
    passed(5, f"adjunction: lambda/tau mutually inverse with commuting "
              f"naturality squares on {pairs_checked} fixture pairs and a "
              f"proper-subgroup pairing; counted case gives 3 = 3")


# ---------------------------------------------------------------------------
# criterion 6: product comparison


def test_acceptance_6_product_comparison():
    z2pair = load_fixture("z2-pair").pa
    status, report = compare_products(z2pair, z2pair)
    assert report["checks"]["well-defined"]
    assert report["checks"]["continuous"]
    assert report["checks"]["equivariant"]
    assert report["checks"]["injective"]
    assert not report["checks"]["surjective"]
    assert status == "fails" and report["reason"] == "not bijective"
    assert report["source_classes"] == 7 and report["target_points"] == 9
    assert len(report["unhit_targets"]) == 2
    # independent oracles for both cardinalities
    sq = load_fixture("z2-pair-sq").pa
    assert len(brute_globalization_classes(*label_tables(sq))) == 7
    assert len(brute_globalization_classes(*label_tables(z2pair))) ** 2 == 9

    inst = load_fixture("z2-pair-sq")
    claim = run_claim("product-comparison", inst)
    assert claim.status == "fails"
    assert claim.witness["reason"] == "not bijective"
    assert len(claim.witness["unhit_targets"]) == 2
    assert replay_witness(claim, inst)
    passed(6, "product comparison on z2-pair-sq: canonical map well defined, "
              "continuous, equivariant, injective; 7 classes vs 9 points; "
              "fails: not bijective with 2 unhit targets; witness replays")


# ---------------------------------------------------------------------------
# criterion 7: trivial collapse


def test_acceptance_7_trivial_collapse():
    for pa in (load_fixture("pt").pa,
               trivial_action(cyclic_group(2), load_fixture("z2-wedge").space),
               trivial_action(cyclic_group(4), discrete_space(["p", "q"]))):
        status, report = trivial_collapse(twist(pa))
        assert status == "holds", report

    z4 = cyclic_group(4)
    k = Subgroup.from_labels(z4, {"0", "2"}).as_group()
    ptk = trivial_action(k, discrete_space(["y"]))
    status, report = trivial_collapse(twist(ptk, z4))
    assert status == "fails"
    assert report["reason"] == "not injective"
    c1, c2 = report["collision"]
    assert c1 != c2 and report["collision_value"] == "y"
    passed(7, "trivial collapse: K=G full-domain actions collapse to "
              "homeomorphisms; Z4 over K={0,2} on a point is reported "
              "non-injective with a collision witness")


# ---------------------------------------------------------------------------
# criterion 8: homotopy


def test_acceptance_8_homotopy():
    circle_space = load_fixture("z4-circle").space
    assert core(circle_space) == circle_space
    assert not is_contractible(circle_space)

    wedge = load_fixture("z2-wedge")
    res = g_contract(wedge.pa)
    assert res.value and res.fixed_point == "w"
    assert len(res.fence) == 2
    ident, const = res.fence[0], res.fence[-1]
    assert ident.assignment == wedge.space.points
    assert set(const.assignment) == {"w"}
    assert all(c in wedge.space.min_open_of(i)
               for c, i in zip(const.assignment, ident.assignment))

    contractible = []
    for name in fixture_names():
        inst = load_fixture(name)
        if g_contract(inst.embedded_pa).value:
            contractible.append(name)
            assert run_claim("g-contractible", inst).status == "holds"
    assert set(contractible) == {"pt", "z2-wedge"}

    # bundled homotopic pairs
    wid = SpaceMap.identity(wedge.space)
    wconst = SpaceMap.constant(wedge.space, wedge.space, "w")
    assert are_G_homotopic(wid, wconst, wedge.pa, wedge.pa)
    assert envelopes_G_homotopic(wid, wconst, wedge.pa, wedge.pa)
    pt = load_fixture("pt").pa
    pid = SpaceMap.identity(pt.space)
    assert envelopes_G_homotopic(pid, pid, pt, pt)
    passed(8, f"homotopy: core(C8) = C8 and not contractible; z2-wedge "
              f"G-contracts through an explicit fence; the globalization "
              f"theorem holds on {contractible}; preservation holds on the "
              f"bundled homotopic pairs")


# ---------------------------------------------------------------------------
# criterion 9: fixed-point identities


def test_acceptance_9_fixed_point_identities():
    inst = load_fixture("z4-arcs")
    arcs = inst.pa
    z4 = arcs.group
    h = Subgroup.from_labels(z4, {"0", "2"})
    assert fixed_points(arcs, h) == {"a1", "a3"}

    env = globalize(arcs)
    assert len(env.total) == 24
    oracle = brute_globalization_classes(*label_tables(arcs))
    assert len(oracle) == 24

    from pact import all_subgroups
    for sub in all_subgroups(z4):
        report = fixed_decomposition(arcs, sub, env=env)
        assert report["decomposition"]["holds"], sub
        assert report["embedded_fixed"]["holds"], sub
        assert report["generated_intersection"]["holds"], sub
    passed(9, "fixed points: X[{0,2}] = {a1, a3}; all three identities hold "
              "for every subgroup of Z4; |X_G| = 24 per the class oracle")


# ---------------------------------------------------------------------------
# criterion 10: substrate oracles


def test_acceptance_10_substrate_oracles():
    # continuity against preimages of opens is
    # test_finspace.py::test_continuity_monotone_iff_preimage, and fences
    # against the interval model test_homotopy.py::test_fence_agrees_with_interval_model
    rng = random.Random(SEED + 1)
    from pact import quotient
    quotient_samples = 0
    while quotient_samples < 55:
        points, min_open = random_preorder_space(rng, 8)
        space = space_from_min_opens(points, min_open)
        classes = random_partition(rng, list(points))
        q, proj = quotient(space, classes)
        source_opens = brute_opens(points, min_open)
        raw_q = {p: sorted(q.min_open_of(p)) for p in q.points}
        lib_opens = brute_opens(list(q.points), raw_q)
        import itertools
        expected = set()
        for r in range(len(q.points) + 1):
            for combo in itertools.combinations(q.points, r):
                a = frozenset(combo)
                pre = frozenset(x for x in points if proj(x) in a)
                if pre in source_opens:
                    expected.add(a)
        assert lib_opens == expected
        quotient_samples += 1
    passed(10, f"substrate oracles: {quotient_samples} quotient relations match "
               f"the preimage definition of the quotient topology")


# ---------------------------------------------------------------------------
# criterion 11: determinism and exit codes


def test_acceptance_11_determinism_and_exit_codes(tmp_path, capsys):
    # byte-identical reports across runs of every fixture is
    # test_verify.py::test_reports_are_deterministic_modulo_elapsed
    assert cli_main(["check", "all", "z2-pair"]) == 0
    capsys.readouterr()
    assert cli_main(["check", "all", "z2-pair-sq"]) == 1
    capsys.readouterr()
    assert cli_main(["check", "product-comparison", "z2-pair-sq"]) == 1
    capsys.readouterr()
    assert cli_main(["validate", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    passed(11, "exit codes 0/1/2 follow the contract")
