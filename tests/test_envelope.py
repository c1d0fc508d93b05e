from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pact import (DEFAULT_BOUNDS, BoundExceeded, Bounds, InternalCheckError, MapPoset,
                  SpaceMap, Subgroup, ValidationError, adjunction_maps, all_subgroups,
                  diagonal_product, discrete_space, global_action,
                  envelope_of_map, enumerate_G_maps,
                  fixed_decomposition, fixture_names, globalize, is_G_map, is_T1,
                  is_continuous, is_open, iterated_twist_comparison,
                  load_fixture, orbit_classes, pair_label, parse_instance,
                  product_comparison, recognize_globalization, restrict_to_subgroup,
                  run_all, run_claim,
                  space_from_min_opens, trivial_action, trivial_collapse, twisted_product,
                  validate_group, validate_partial_action)
from pact.envelope import _assemble, _map_checks, lift_maps
from pact.finspace import FinSpace, bit_indices, quotient_order
from oracle import (as_label_space, brute_globalization_classes, brute_members,
                    brute_twisted_classes, closure_quotient_order, family_scan_intersection,
                    find_homeomorphism,
                    globalization_class_count, globalization_document as oracle_document,
                    is_G_homeomorphism, LabelEnvelope, label_apply, label_assemble,
                    label_envelope_of_map, label_lift_rows, label_map_checks, label_view,
                    twisted_class_count)
from gen import (GLOBAL_KINDS, compare_products, cyclic_group, fixture_pa, golden_instances,
                 klein_group, half_circle_document, half_circle_in_double_document, hom,
                 label_tables, random_global, random_group, random_partial, recognition,
                 restricted, twist, z2_cubed)


def compare_iterated_twists(pa, big=None):
    """iterated_twist_comparison on X_K = K x_K X, G x_K X_K and G x_K X."""
    inner = twist(pa)
    return iterated_twist_comparison(inner, twist(inner.as_global_action(), big),
                                     twist(pa, big))


def test_z2_pair_globalization_matches_oracle_byte_for_byte():
    pa = fixture_pa("z2-pair")
    env = globalize(pa)
    assert len(env.total) == 3
    view = label_view(env)
    a_class = view.class_of("0", "a")
    b0, b1 = view.class_of("0", "b"), view.class_of("1", "b")
    assert view.action["1"][a_class] == a_class
    assert view.action["1"][b0] == b1 and view.action["1"][b1] == b0
    assert env.embedding("a") == a_class and env.embedding("b") == b0
    assert is_open(env.total, env.embedding_image())
    assert json.dumps(env.to_document(), sort_keys=True) == \
        json.dumps(oracle_document(pa), sort_keys=True)


@pytest.mark.parametrize("name", ["pt", "z2-swap", "z2-wedge", "z4-half",
                                  "z4-arcs", "z4-from-z2-pair"])
def test_globalization_matches_oracle_documents(name):
    pa = load_fixture(name).embedded_pa
    env = globalize(pa)
    assert json.dumps(env.to_document(), sort_keys=True) == \
        json.dumps(oracle_document(pa), sort_keys=True)


def test_global_actions_globalize_to_themselves():
    for name in ["z2-swap", "z2-wedge", "z4-circle"]:
        pa = fixture_pa(name)
        env = globalize(pa)
        assert len(env.total) == len(pa.space)
        emb = env.embedding
        assert emb.is_bijective()
        assert is_G_homeomorphism(emb, pa, env.as_global_action())


def test_z4_arcs_globalization_structure():
    env = label_view(globalize(fixture_pa("z4-arcs")))
    assert len(env.total) == 24
    sizes = sorted(len(env.members_of(c)) for c in env.total.points)
    # 16 corner singletons, 2+2 classes over a1/a3, 4 classes pairing a0/a2
    assert sizes == [1] * 16 + [2] * 8
    corner_classes = [c for c in env.total.points
                      if all(x.startswith("c") for _, x in env.members_of(c))]
    assert len(corner_classes) == 16
    a1_classes = [c for c in env.total.points
                  if {x for _, x in env.members_of(c)} == {"a1"}]
    assert len(a1_classes) == 2
    pairing = [c for c in env.total.points
               if {x for _, x in env.members_of(c)} == {"a0", "a2"}]
    assert len(pairing) == 4


def test_twisted_equals_globalization_at_full_subgroup():
    for name in fixture_names():
        pa = load_fixture(name).embedded_pa
        env_g = globalize(pa)
        env_t = twisted_product(pa, pa.group)
        view_g, view_t = label_view(env_g), label_view(env_t)
        assert view_g.classes == view_t.classes
        assert view_g.projection.assignment == view_t.projection.assignment
        assert view_g.action == view_t.action


def test_twisted_point_over_proper_subgroup_is_coset_space():
    z4 = cyclic_group(4)
    k = Subgroup.from_labels(z4, {"0", "2"}).as_group()
    pa = trivial_action(k, discrete_space(["y"]))
    env = twisted_product(pa, z4)
    assert len(env.total) == 2
    assert is_T1(env.total)


def test_twisted_z4_from_z2_pair_classes():
    inst = load_fixture("z4-from-z2-pair")
    env = label_view(twisted_product(inst.embedded_pa, inst.big))
    assert len(env.total) == 6
    over_a = [c for c in env.total.points
              if {x for _, x in env.members_of(c)} == {"a"}]
    over_b = [c for c in env.total.points
              if {x for _, x in env.members_of(c)} == {"b"}]
    assert len(over_a) == 2 and len(over_b) == 4
    assert all(len(env.members_of(c)) == 2 for c in over_a)
    assert all(len(env.members_of(c)) == 1 for c in over_b)


def test_twisted_requires_subgroup():
    z3 = cyclic_group(3)
    pa = fixture_pa("z2-pair")
    with pytest.raises(ValidationError) as err:
        twisted_product(pa, z3)
    assert err.value.axiom == "not-a-subgroup"


def test_envelope_bounds_and_precondition_errors():
    from pact import BoundExceeded
    circle = fixture_pa("z4-circle")
    with pytest.raises(BoundExceeded):
        globalize(circle, Bounds(envelope_pairs=16))
    with pytest.raises(BoundExceeded):
        twisted_product(circle, circle.group, Bounds(envelope_pairs=16))
    with pytest.raises(ValidationError) as err:
        adjunction_maps(twist(fixture_pa("z2-pair")), fixture_pa("z2-pair"), hom)
    assert err.value.axiom == "not-global"
    # the claim's hom-set gate is the only size check on the adjunction
    report = run_claim("adjunction", load_fixture("z4-circle"))
    assert report.status == "skipped-bounds"
    assert report.witness == {"reason": "instance exceeds the hom-set bounds"}


def test_preimage_identity_and_kstar():
    inst = load_fixture("z4-from-z2-pair")
    env = label_view(twisted_product(inst.embedded_pa, inst.big))
    image = frozenset(env.embedding.assignment)
    preimage = {p for p in env.product_space.points if env.projection(p) in image}
    assert preimage == set(env.kstar)
    assert env.kstar == {pair_label("0", "a"), pair_label("0", "b"),
                         pair_label("2", "a")}


def test_envelope_of_map_examples():
    z2pair = fixture_pa("z2-pair")
    env = globalize(z2pair)
    ident = envelope_of_map(SpaceMap.identity(z2pair.space), z2pair, z2pair,
                            env_x=env, env_y=env)
    assert ident.assignment == env.total.points

    pt = fixture_pa("pt")
    env_pt = globalize(pt)
    bang = SpaceMap.constant(z2pair.space, pt.space, "x")
    collapsed = envelope_of_map(bang, z2pair, pt, env_x=env, env_y=env_pt)
    assert set(collapsed.assignment) == {label_view(env_pt).class_of("0", "x")}

    collapse = SpaceMap.from_dict(z2pair.space, z2pair.space, {"a": "a", "b": "a"})
    e_collapse = envelope_of_map(collapse, z2pair, z2pair, env_x=env, env_y=env)
    composite = envelope_of_map(collapse, z2pair, z2pair, env_x=env, env_y=env)
    assert tuple(map(e_collapse, ident.assignment)) == composite.assignment

    with pytest.raises(ValidationError):
        envelope_of_map(SpaceMap.from_dict(z2pair.space, z2pair.space,
                                           {"a": "b", "b": "a"}),
                        z2pair, z2pair)


def test_envelope_functoriality_on_composites():
    wedge = fixture_pa("z2-wedge")
    env = globalize(wedge)
    const = SpaceMap.constant(wedge.space, wedge.space, "w")
    swap = SpaceMap.from_dict(wedge.space, wedge.space,
                              {"w": "w", "a": "b", "b": "a"})
    ef = envelope_of_map(swap, wedge, wedge, env_x=env, env_y=env)
    eg = envelope_of_map(const, wedge, wedge, env_x=env, env_y=env)
    const_swap = SpaceMap.from_dict(wedge.space, wedge.space,
                                    {x: const(swap(x)) for x in wedge.space.points})
    e_comp = envelope_of_map(const_swap, wedge, wedge, env_x=env, env_y=env)
    assert tuple(map(eg, ef.assignment)) == e_comp.assignment


def test_envelope_functoriality_over_proper_subgroup():
    inst = load_fixture("z4-from-z2-pair")
    pa = inst.embedded_pa
    big = inst.big
    env = twisted_product(pa, big)
    ident = SpaceMap.identity(pa.space)
    collapse = SpaceMap.from_dict(pa.space, pa.space, {"a": "a", "b": "a"})
    assert is_G_map(collapse, pa, pa)
    e_id = envelope_of_map(ident, pa, pa, big, env_x=env, env_y=env)
    assert e_id.assignment == env.total.points
    e_collapse = envelope_of_map(collapse, pa, pa, big, env_x=env, env_y=env)
    twice = SpaceMap.from_dict(pa.space, pa.space,
                               {x: collapse(collapse(x)) for x in pa.space.points})
    e_comp = envelope_of_map(twice, pa, pa, big, env_x=env, env_y=env)
    assert tuple(map(e_collapse, e_collapse.assignment)) == e_comp.assignment
    # the induced map is equivariant for the big group on the 6-class total
    action = label_view(env).action
    for g in big.elements:
        for c in env.total.points:
            assert action[g][e_collapse(c)] == e_collapse(action[g][c])


def test_recognition_of_z4_half_inside_circle():
    circle = fixture_pa("z4-circle")
    phi, status, _ = recognition(circle, ["a3", "c0", "a0", "c1", "a1"])
    assert status == "holds"
    assert phi.is_bijective() and is_continuous(phi)
    assert find_homeomorphism(phi.source, circle.space) is not None

    # the inclusion-induced envelope map matches the recognition map
    half = fixture_pa("z4-half")
    inclusion = SpaceMap.from_dict(half.space, circle.space,
                                   {p: p for p in half.space.points})
    assert is_G_map(inclusion, half, circle)
    env_half = globalize(half)
    env_circle = globalize(circle)
    induced = envelope_of_map(inclusion, half, circle,
                              env_x=env_half, env_y=env_circle)
    iota_inverse = env_circle.embedding.inverse()
    assert tuple(map(iota_inverse, induced.assignment)) == phi.assignment


def test_recognition_trivial_and_unmet_cases():
    circle = fixture_pa("z4-circle")
    phi, status, _ = recognition(circle, circle.space.points)
    assert status == "holds"
    assert tuple(map(phi, globalize(circle).embedding.assignment)) == circle.space.points

    phi2, status2, report2 = recognition(circle, ["a0"])
    assert phi2 is None and status2 == "precondition-unmet"
    assert report2 == {"reason": "orbit of the subset does not cover the space",
                       "uncovered": report2["uncovered"]}
    assert set(report2["uncovered"]) == {"c0", "c1", "c2", "c3"}

    with pytest.raises(ValidationError):
        recognize_globalization(circle, ["c0"])  # not open


def test_adjunction_counted_cases():
    z2pair = fixture_pa("z2-pair")
    wedge = fixture_pa("z2-wedge")
    status, res = adjunction_maps(twist(z2pair), wedge, hom)
    assert status == "holds"
    assert res["g_maps"] == 3 and res["k_maps"] == 3

    swap = fixture_pa("z2-swap")
    status2, res2 = adjunction_maps(twist(z2pair), swap, hom)
    assert status2 == "holds"
    assert res2["g_maps"] == 0 and res2["k_maps"] == 0

    pt = trivial_action(z2pair.group, discrete_space(["y"]))
    status3, res3 = adjunction_maps(twist(z2pair), pt, hom)
    assert status3 == "holds"
    assert res3["g_maps"] == 1 and res3["k_maps"] == 1


def test_adjunction_with_the_identity_listed_last():
    # Z2 listing its identity second, so the embedding's classes are not
    # the first ones: lambda must read F through iota, not by position
    z2 = validate_group(["1", "0"], [["0", "1"], ["1", "0"]], "0")

    def over_z2(pa):
        return validate_partial_action(z2, pa.space, pa.domains, pa.thetas)
    pa_x, pa_y = over_z2(fixture_pa("z2-pair")), over_z2(fixture_pa("z2-wedge"))
    assert twist(pa_x).embedding_row != tuple(range(len(pa_x.space)))
    status, res = adjunction_maps(twist(pa_x), pa_y, hom)
    assert status == "holds"
    assert res["g_maps"] == 3 == res["k_maps"]


def test_adjunction_over_proper_subgroup():
    inst = load_fixture("z4-from-z2-pair")
    pa = inst.embedded_pa
    pt = trivial_action(inst.big, discrete_space(["y"]))
    status, res = adjunction_maps(twist(pa, inst.big), pt, hom)
    assert status == "holds"
    assert res["g_maps"] == 1 == res["k_maps"]

    # a global Z4 action on two points through the quotient Z4 -> Z2
    z4 = inst.big
    d2 = discrete_space(["u", "v"])
    swap = {"u": "v", "v": "u"}
    ident = {"u": "u", "v": "v"}
    from pact import global_action
    y = global_action(z4, d2, {"0": dict(ident), "1": dict(swap),
                               "2": dict(ident), "3": dict(swap)})
    status2, res2 = adjunction_maps(twist(pa, z4), y, hom)
    assert status2 == "holds"
    assert res2["g_maps"] == res2["k_maps"]


def test_product_comparison_bijective_cases():
    swap = fixture_pa("z2-swap")
    status, report = compare_products(swap, swap)
    assert status == "holds"
    assert report["source_classes"] == report["target_points"] == 4

    z2pair = fixture_pa("z2-pair")
    pt = fixture_pa("pt")
    status2, report2 = compare_products(z2pair, pt)
    assert status2 == "holds"


def test_product_comparison_fails_on_z2_pair_square():
    z2pair = fixture_pa("z2-pair")
    status, report = compare_products(z2pair, z2pair)
    assert status == "fails"
    assert report["reason"] == "not bijective"
    assert report["checks"]["well-defined"]
    assert report["checks"]["continuous"]
    assert report["checks"]["equivariant"]
    assert report["checks"]["injective"]
    assert not report["checks"]["surjective"]
    assert report["source_classes"] == 7 and report["target_points"] == 9
    assert len(report["unhit_targets"]) == 2
    # independent oracle: brute class counts on both sides
    sq = fixture_pa("z2-pair-sq")
    oracle_classes = brute_globalization_classes(*label_tables(sq))
    assert len(oracle_classes) == 7
    factor_classes = brute_globalization_classes(*label_tables(z2pair))
    assert len(factor_classes) ** 2 == 9


def test_iterated_twist_examples():
    z4 = cyclic_group(4)
    k = Subgroup.from_labels(z4, {"0", "2"}).as_group()
    pt = trivial_action(k, discrete_space(["y"]))
    status, report = compare_iterated_twists(pt, z4)
    assert status == "holds"
    assert report["iterated_classes"] == report["plain_classes"] == 2

    z2pair = fixture_pa("z2-pair")
    status2, report2 = compare_iterated_twists(z2pair)
    assert status2 == "holds"
    assert report2["iterated_classes"] == 3

    inst = load_fixture("z4-from-z2-pair")
    status3, report3 = compare_iterated_twists(inst.embedded_pa, inst.big)
    assert status3 == "holds"
    assert report3["iterated_classes"] == report3["plain_classes"] == 6


def test_comparisons_reject_envelopes_of_other_actions():
    inst = load_fixture("z4-from-z2-pair")
    pa, z4 = inst.embedded_pa, inst.big
    inner = twist(pa)
    outer_1, outer_2 = twist(inner.as_global_action(), z4), twist(pa, z4)
    with pytest.raises(ValidationError) as err:
        iterated_twist_comparison(inner, outer_2, outer_2)
    assert err.value.axiom == "envelope-mismatch"
    with pytest.raises(ValidationError):
        iterated_twist_comparison(inner, outer_1, twist(pa))
    with pytest.raises(ValidationError):
        iterated_twist_comparison(outer_2, outer_1, outer_2)
    z2pair, pt = fixture_pa("z2-pair"), fixture_pa("pt")
    diag = diagonal_product(z2pair, pt)
    with pytest.raises(ValidationError) as err:
        product_comparison(twist(diag), twist(pt), twist(z2pair))
    assert err.value.axiom == "space-mismatch"
    with pytest.raises(ValidationError) as err:
        product_comparison(twist(diag), twist(z2pair, klein_group("01ab")), twist(pt))
    assert err.value.axiom == "group-mismatch"


def test_trivial_collapse_cases():
    pt = fixture_pa("pt")
    status, report = trivial_collapse(twist(pt))
    assert status == "holds"

    wedge_space = load_fixture("z2-wedge").space
    z2 = cyclic_group(2)
    triv = trivial_action(z2, wedge_space)
    status_full, report_full = trivial_collapse(twist(triv))
    assert status_full == "holds"

    z4 = cyclic_group(4)
    k = Subgroup.from_labels(z4, {"0", "2"}).as_group()
    ptk = trivial_action(k, discrete_space(["y"]))
    status2, report2 = trivial_collapse(twist(ptk, z4))
    assert status2 == "fails"
    assert report2["reason"] == "not injective"
    assert report2["classes"] == 2
    assert len(report2["collision"]) == 2 and report2["collision_value"] == "y"

    e_group = validate_group(["e"], [["e"]], "e")
    one = trivial_action(e_group, discrete_space(["x", "y"]))
    status3, report3 = trivial_collapse(twist(one))
    assert status3 == "holds"

    with pytest.raises(ValidationError) as err:
        trivial_collapse(twist(fixture_pa("z2-swap")))
    assert err.value.axiom == "not-trivial"


def test_fixed_decomposition_on_z4_arcs():
    arcs = fixture_pa("z4-arcs")
    z4 = arcs.group
    env = globalize(arcs)
    h = Subgroup.from_labels(z4, {"0", "2"})
    report = fixed_decomposition(arcs, h, env=env)
    assert report["status"] == "holds"
    assert report["decomposition"]["holds"]
    assert report["embedded_fixed"]["holds"]
    assert report["generated_intersection"]["holds"]
    # direct set computation of X_G[H]
    action = label_view(env).action
    expected = sorted(
        (c for c in env.total.points
         if all(action[k][c] == c for k in ("0", "2"))),
        key=env.total.index)
    assert report["decomposition"]["fixed_in_total"] == expected
    assert expected  # the a1/a3 classes are fixed by {0,2}


def test_fixed_decomposition_trivial_subgroup_covers_everything():
    z2pair = fixture_pa("z2-pair")
    env = globalize(z2pair)
    trivial = Subgroup.from_labels(z2pair.group, {"0"})
    report = fixed_decomposition(z2pair, trivial, env=env)
    assert report["status"] == "holds"
    assert report["decomposition"]["fixed_in_total"] == list(env.total.points)


def test_fixed_decomposition_on_wedge_full_group():
    wedge = fixture_pa("z2-wedge")
    env = globalize(wedge)
    full = Subgroup.from_labels(wedge.group, {"0", "1"})
    report = fixed_decomposition(wedge, full, env=env)
    assert report["status"] == "holds"
    assert report["decomposition"]["fixed_in_total"] == [env.embedding("w")]


def test_generated_intersection_matches_the_family_scan(rng):
    """The stabiliser check decides identity 3 as the family-by-family scan
    does, on the fixtures, the generated documents, random global actions,
    Z24 (8 subgroups, 255 families, every one counted) and (Z2)^3 (16
    subgroups, so 65535 families, past MAX_FAMILIES: only pairs are
    counted)."""
    from pact import DEFAULT_BOUNDS, parse_instance
    from pact.envelope import MAX_FAMILIES, generated_intersection
    cases = [(inst.embedded_pa, bounds) for inst, bounds in golden_instances()]
    cases += [(random_global(rng, kind), DEFAULT_BOUNDS)
              for kind in ("regular", "cone", "trivial", "envelope") for _ in range(4)]
    cases.append((parse_instance(half_circle_document(24)).embedded_pa,
                  DEFAULT_BOUNDS.with_limit(100_000)))
    cases += [(random_global(rng, kind, z2_cubed()), DEFAULT_BOUNDS)
              for kind in ("regular", "trivial")]
    counts = []
    for pa, bounds in cases:
        env = globalize(pa, bounds)
        subs = all_subgroups(pa.group, bounds)
        got = generated_intersection(pa, env, subs)
        assert got == family_scan_intersection(pa, env, subs)
        counts.append(got["families_checked"])
    assert 2 ** 16 - 1 > MAX_FAMILIES >= 2 ** 8 - 1
    assert 2 ** 8 - 1 in counts and 16 * 17 // 2 in counts


def test_recognition_on_random_restrictions(rng):
    holds = unmet = 0
    for draw in range(300):  # 25 draws, and more until each outcome is seen 3 times
        if draw >= 25 and holds >= 3 and unmet >= 3:
            break
        beta = random_global(rng, "regular", cyclic_group(rng.choice([2, 3])))
        restricted_pa = restricted(rng, beta)
        u = restricted_pa.space.points
        covered = {label_apply(beta, g, x) for g in beta.group.elements for x in u}
        phi, status, report = recognition(beta, u)
        if covered == set(beta.space.points):
            holds += 1
            assert status == "holds"
            assert phi.is_bijective()
            assert is_G_homeomorphism(
                phi, globalize(restricted_pa).as_global_action(), beta)
        else:
            unmet += 1
            assert status == "precondition-unmet"
            assert set(report["uncovered"]) == \
                set(beta.space.points) - covered
    assert holds >= 3 and unmet >= 3


def test_twisted_products_match_oracle_on_random_subgroup_actions(rng):
    checked = 0
    for _ in range(15):
        pa = random_global(rng, rng.choice(["regular", "cone"]), cyclic_group(4), 2)
        z4 = pa.group
        sub = rng.choice(all_subgroups(z4))
        res = restrict_to_subgroup(pa, sub)
        env = twisted_product(res, z4)
        k_elements, _, _, *raw = label_tables(res)
        oracle = brute_twisted_classes(*label_tables(pa)[:3], k_elements, *raw)
        view = label_view(env)
        got = {frozenset(view.members_of(c)) for c in env.total.points}
        assert got == set(oracle)
        checked += 1
    assert checked == 15


def test_empty_domain_globalizes_to_disjoint_copies():
    z2 = cyclic_group(2)
    d2 = discrete_space(["a", "b"])
    from pact import validate_partial_action
    pa = validate_partial_action(
        z2, d2, {"0": ["a", "b"], "1": []}, {"0": {"a": "a", "b": "b"}, "1": {}})
    env = globalize(pa)
    assert len(env.total) == 4  # no identifications at all
    image = env.embedding_image()
    assert is_open(env.total, image)
    moved = {label_view(env).action["1"][c] for c in image}
    assert moved == set(env.total.points) - image
    status, report = trivial_collapse(twist(pa))  # empty theta_1 is vacuously trivial
    assert status == "fails"
    assert report["reason"] == "not injective"


def test_split_recovers_non_square_factors():
    from pact import split_diagonal_factors
    z2pair = fixture_pa("z2-pair")
    wedge = fixture_pa("z2-wedge")
    diag = diagonal_product(z2pair, wedge)
    split = split_diagonal_factors(diag)
    assert split is not None
    pa1, pa2, rebuilt = split
    assert rebuilt == diag
    assert pa1.space.points == z2pair.space.points
    assert pa2.space.points == wedge.space.points
    assert pa1.domains == z2pair.domains
    assert pa2.domains == wedge.domains
    status, report = compare_products(pa1, pa2)
    assert status in ("holds", "fails")
    assert report["checks"]["well-defined"]
    assert report["checks"]["continuous"]
    assert report["checks"]["equivariant"]


def test_embedding_is_an_equivariant_isovariant_map():
    z2pair = fixture_pa("z2-pair")
    env = globalize(z2pair)
    total_action = env.as_global_action()
    assert is_G_map(env.embedding, z2pair, total_action)
    from pact import is_isovariant
    assert is_isovariant(env.embedding, z2pair, total_action)


def test_envelope_invariants_exercised_on_all_fixtures():
    # construction-time asserts cover the trusted invariants; build them all
    for name in ["pt", "z2-pair", "z2-swap", "z2-wedge", "z2-pair-sq",
                 "z4-circle", "z4-half", "z4-arcs", "z4-from-z2-pair"]:
        inst = load_fixture(name)
        env = globalize(inst.embedded_pa)
        action = label_view(env).action
        covered = {action[g][c] for g in env.big_group.elements
                   for c in env.embedding_image()}
        assert covered == set(env.total.points)
        env_t = twisted_product(inst.embedded_pa, inst.big)
        assert set(label_view(env_t).classes.values()) == set(env_t.total.points)
        for e in (env, env_t):
            view = label_view(e)
            for c in e.total.points:
                assert list(view.members_of(c)) == brute_members(e, c), (name, c)


# ---------------------------------------------------------------------------
# the batch lift against the one-map label lift

def _lift_case(rng):
    """Random actions pa_x, pa_y of one group with envelopes env_x, env_y
    over ``big``: globalizations of partial actions of Z_n, or twisted
    products over Z4 of global actions of a subgroup of Z4."""
    if rng.random() < 0.5:
        grp = cyclic_group(rng.choice([2, 3, 4]))
        pa_x = random_partial(rng, grp)
        pa_y = pa_x if rng.random() < 0.4 else random_partial(rng, grp)
        return pa_x, pa_y, globalize(pa_x), globalize(pa_y), grp
    z4 = cyclic_group(4)
    sub = rng.choice(all_subgroups(z4))

    def action():
        return restrict_to_subgroup(random_global(rng, "regular", z4, 2), sub)
    pa_x = action()
    pa_y = pa_x if rng.random() < 0.4 else action()
    return pa_x, pa_y, twisted_product(pa_x, z4), twisted_product(pa_y, z4), z4


def _stray_row(rng, pa_x, pa_y, g_rows, wanted):
    """A row that is not monotone (``wanted`` "discontinuous") or monotone
    but not equivariant ("non-equivariant"), from random rows and one-point
    changes of G-map rows; None when none turns up."""
    n, m = len(pa_x.space), len(pa_y.space)
    for _ in range(200):
        if g_rows and rng.random() < 0.5:
            row = list(rng.choice(g_rows))
            row[rng.randrange(n)] = rng.randrange(m)
        else:
            row = [rng.randrange(m) for _ in range(n)]
        f = SpaceMap(pa_x.space, pa_y.space, row)
        if not is_continuous(f):
            if wanted == "discontinuous":
                return tuple(row)
        elif wanted == "non-equivariant" and not is_G_map(f, pa_x, pa_y):
            return tuple(row)
    return None


def _corrupted_lift(rng, kinds):
    """A lift problem (pa_x, pa_y, env_x, env_y, big, rows) carrying one
    corruption of each of ``kinds``: a stray row at a random place, or env_y
    with one pair moved to another class or its action conjugated by a swap
    of two classes."""
    while True:
        pa_x, pa_y, env_x, env_y, big = _lift_case(rng)
        try:
            g_rows = enumerate_G_maps(pa_x, pa_y, Bounds(max_maps=1000))
            break
        except BoundExceeded:
            continue
    rows = sorted(rng.sample(g_rows, min(len(g_rows), 10)))
    for kind in kinds:
        if kind in ("discontinuous", "non-equivariant"):
            stray = _stray_row(rng, pa_x, pa_y, g_rows, kind)
            if stray is not None:
                rows.insert(rng.randint(0, len(rows)), stray)
        elif kind == "class-table" and len(env_y.total) > 1:
            classes = list(env_y.pair_class)
            pair = rng.randrange(len(classes))
            classes[pair] = rng.choice([c for c in range(len(env_y.total))
                                        if c != classes[pair]])
            env_y = dataclasses.replace(env_y, pair_class=tuple(classes))
        elif kind == "action-row" and len(env_y.total) > 1:
            # every table conjugated by one swap of classes: still a global
            # action of big, as every envelope's action is certified to be,
            # but in general not one the lifts commute with
            swap = list(range(len(env_y.total)))
            a, b = rng.sample(swap, 2)
            swap[a], swap[b] = b, a
            env_y = dataclasses.replace(env_y, action_rows=tuple(
                tuple(swap[row[c]] for c in swap) for row in env_y.action_rows))
    return pa_x, pa_y, env_x, env_y, big, rows


def _lift_outcome(run):
    try:
        return "rows", run()
    except ValidationError as exc:
        return "ValidationError", exc.axiom, exc.witness
    except InternalCheckError as exc:
        return "InternalCheckError", str(exc)


# one corruption each, then two or three at once so that rows fail
# different checks and the batch must pick the first failing row
LIFT_CORRUPTIONS = [("discontinuous",), ("non-equivariant",), ("class-table",),
                    ("action-row",), ("non-equivariant", "discontinuous"),
                    ("class-table", "action-row"),
                    ("class-table", "action-row", "non-equivariant")]


def _compare_lifts(pa_x, pa_y, env_x, env_y, big, rows):
    """Batch and one-map lifts of one lift problem agree, row for row or
    error for error; so do envelope_of_map and the label lift of each row
    alone.  Returns the batch outcome."""
    poset = MapPoset(pa_x.space, pa_y.space, tuple(rows))
    got = _lift_outcome(lambda: lift_maps(poset, env_x, env_y))
    want = _lift_outcome(lambda: label_lift_rows(pa_x.space, pa_y.space, rows,
                                                 pa_x, pa_y, env_x, env_y, big))
    assert got == want
    for row in rows:
        f = SpaceMap(pa_x.space, pa_y.space, row)
        one = _lift_outcome(lambda: envelope_of_map(f, pa_x, pa_y, big, env_x, env_y))
        ref = _lift_outcome(lambda: label_envelope_of_map(f, pa_x, pa_y, big, env_x, env_y))
        if one[0] == "rows":
            one, ref = ("rows", one[1].assignment), ("rows", ref[1].assignment)
        assert one == ref
    return got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(LIFT_CORRUPTIONS))
def test_batch_lift_matches_label_lift(seed, kinds):
    _compare_lifts(*_corrupted_lift(random.Random(seed), kinds))


def _trivial_on_a_cone():
    """Z2 acting trivially on a <- c -> b."""
    z2 = cyclic_group(2)
    return trivial_action(z2, space_from_min_opens(
        ["a", "b", "c"], {"a": ["a"], "b": ["b"], "c": ["a", "b", "c"]})), z2


def _first_failing_row_lifts():
    # two copies of a <- c -> b over Z2, from the trivial subgroup: the
    # classes are single pairs, so corrupting env_y's class table moves one
    # value of a lift without a clash.  After the corruptions the lift of
    # the constant at a is continuous but not equivariant, and the lift of
    # the identity is not continuous; the first of the two rows decides.
    pa, z2 = _trivial_on_a_cone()
    pa = restrict_to_subgroup(pa, Subgroup.from_labels(z2, {"0"}))
    env = twisted_product(pa, z2)
    # pairs (0, a), (0, b), (0, c) are indices 0, 1, 2
    classes = list(env.pair_class)
    classes[2] = classes[0]
    action = [list(row) for row in env.action_rows]
    a0, b0 = classes[0], classes[1]
    action[1][a0], action[1][b0] = action[1][b0], action[1][a0]
    env_y = dataclasses.replace(env, pair_class=tuple(classes),
                                action_rows=tuple(map(tuple, action)))
    constant, identity = (0, 0, 0), (0, 1, 2)
    return [((pa, pa, env, env_y, z2, rows), ("InternalCheckError", message))
            for rows, message in (([constant, identity], "induced map is not equivariant"),
                                  ([identity, constant], "induced map is not continuous"))]


def _clash_order_lifts():
    # Z2 acting trivially on a <- c -> b, globalized: each class is
    # {(0, x), (1, x)}.  Moving pair (1, a) of env_y into the class of b
    # makes every row that takes the value a clash, while the constant at c
    # lifts.  The row (c, c, b) is not continuous (a <= c, but f(a) = c is
    # not below f(c) = b) and clashes nowhere, so whichever of the two rows
    # comes first decides the error.
    pa, z2 = _trivial_on_a_cone()
    env = globalize(pa)
    classes = list(env.pair_class)
    classes[3] = classes[1]  # pair (1, a) is index 3, pair (0, b) index 1
    env_y = dataclasses.replace(env, pair_class=tuple(classes))
    constant, discontinuous, identity = (2, 2, 2), (2, 2, 1), (0, 1, 2)
    clash = ("InternalCheckError",
             f"induced map not well defined at {env.total.points[env.pair_class[0]]!r}")
    return [((pa, pa, env, env_y, z2, rows), want)
            for rows, want in (([constant, discontinuous, identity],
                                ("ValidationError", "not-continuous", ())),
                               ([constant, identity, discontinuous], clash))]


def test_batch_lift_raises_for_the_first_failing_row():
    for problem, want in _first_failing_row_lifts():
        assert _compare_lifts(*problem) == want


def test_batch_lift_orders_a_clash_against_an_input_fault():
    for problem, want in _clash_order_lifts():
        assert _compare_lifts(*problem) == want


def test_batch_lift_reaches_every_error(rng):
    # the same comparison on a random sample, on globalizations and on
    # twisted products, and on hand-built problems that reach each check of
    # the one-map lift whatever the sample draws; the last is the swap of
    # z2-pair's points, continuous but not equivariant
    problems = [_corrupted_lift(rng, kinds) for _ in range(40) for kinds in LIFT_CORRUPTIONS]
    problems += [problem for problem, _ in _first_failing_row_lifts() + _clash_order_lifts()]
    z2pair = fixture_pa("z2-pair")
    env = globalize(z2pair)
    problems.append((z2pair, z2pair, env, env, z2pair.group, [(1, 0)]))
    seen = set()
    for problem in problems:
        got = _compare_lifts(*problem)
        if got[0] == "ValidationError":
            seen.add(got[1])
        elif got[0] == "InternalCheckError":
            seen.add(got[1].split(" at ")[0])
    assert seen == {"not-continuous", "not-a-G-map",
                    "induced map not well defined",
                    "induced map is not continuous",
                    "induced map is not equivariant"}


def test_lift_maps_reads_the_actions_and_the_group_off_the_envelopes():
    inst = load_fixture("z4-from-z2-pair")
    pa, z4 = inst.embedded_pa, inst.big
    env = twisted_product(pa, z4)
    ident = MapPoset(pa.space, pa.space, (tuple(range(len(pa.space))),))
    assert lift_maps(ident, env, env) == [tuple(range(len(env.total)))]
    # mu_1 and mu_3 exchanged: still an action of Z4 (through inversion),
    # equal to env's on K = {0, 2}.  The identity's lift commutes with mu_2
    # but not with mu_1, and 1 generates G, not K: the lift is checked on G
    rows = env.action_rows
    inverted = dataclasses.replace(env, action_rows=(rows[0], rows[3], rows[2], rows[1]))
    with pytest.raises(InternalCheckError, match="induced map is not equivariant"):
        lift_maps(ident, env, inverted)
    with pytest.raises(InternalCheckError, match="induced map is not equivariant"):
        envelope_of_map(SpaceMap(pa.space, pa.space, ident.rows[0]), pa, pa, z4, env, inverted)
    # both envelopes over one group, of actions of one group
    for other in (twist(pa), globalize(fixture_pa("z2-pair"))):
        with pytest.raises(ValidationError) as err:
            lift_maps(ident, env, other)
        assert err.value.axiom == "group-mismatch"
    # the poset's spaces are the actions'
    point = twisted_product(trivial_action(pa.group, discrete_space(["y"])), z4)
    with pytest.raises(ValidationError) as err:
        lift_maps(ident, env, point)
    assert err.value.axiom == "space-mismatch"
    # given envelopes must be those of envelope_of_map's actions over big
    with pytest.raises(ValidationError) as err:
        envelope_of_map(SpaceMap(pa.space, pa.space, ident.rows[0]), pa, pa, pa.group,
                        env, env)
    assert err.value.axiom == "envelope-mismatch"


# ---------------------------------------------------------------------------
# the integer assembly against the label assembly

def _assembly_case(rng):
    """A random partial action of Z_n and its envelope: the globalization
    (K = G), or the twisted product over Z_n of the action's restriction to
    a random subgroup K, proper or the whole group."""
    pa = random_partial(rng, cyclic_group(rng.choice([2, 3, 4, 6])))
    if rng.random() < 0.4:
        return pa, globalize(pa)
    res = restrict_to_subgroup(pa, rng.choice(all_subgroups(pa.group)))
    return res, twisted_product(res, pa.group)


def _brute_class_sets(pa, big):
    """The classes of G x X as product-point label sets, from the
    brute-force relation closures."""
    k_elements, _, _, *raw = label_tables(pa)
    big_tables = (list(big.elements), [list(row) for row in big.table], big.identity)
    if pa.group == big:
        classes = brute_globalization_classes(*big_tables, *raw)
    else:
        classes = brute_twisted_classes(*big_tables, k_elements, *raw)
    return [frozenset(pair_label(g, x) for g, x in cls) for cls in classes]


@pytest.mark.parametrize("kind", GLOBAL_KINDS)
def test_class_counts_match_the_closed_forms(rng, kind):
    """The globalization has the sum over orbits of |G| / |G_r| classes,
    and G x_K X has |G| times the sum over x of 1 / |H_x|, both counted on
    label tables by the oracle: on global actions of every family, on
    restrictions of them, and on their restrictions to a subgroup K."""
    bounds = Bounds(envelope_pairs=4096)
    for _ in range(4):
        beta = random_global(rng, kind)
        for pa in (beta, restricted(rng, beta)):
            grp, tables = pa.group, label_tables(pa)
            assert len(globalize(pa, bounds).total) == globalization_class_count(*tables)
            assert len(twisted_product(pa, grp, bounds).total) \
                == twisted_class_count(len(grp), *tables)
            pa_k = restrict_to_subgroup(pa, rng.choice(all_subgroups(grp)))
            assert len(twisted_product(pa_k, grp, bounds).total) \
                == twisted_class_count(len(grp), *label_tables(pa_k))


def _h_sizes(pa) -> list[int]:
    """|H_x| per point x of pa's space, H_x = {k in K : x in X_{k^-1}},
    counted off pa's domains."""
    k_grp, sizes = pa.group, [0] * len(pa.space)
    for k in range(len(k_grp)):
        for x in pa.domain_points[k_grp.inverse_row[k]]:
            sizes[x] += 1
    return sizes


def _assert_order_and_class_sizes(pa, big, env):
    """The envelope's order is the transitive closure of the induced
    relation, by ``quotient_order`` and by the label oracle; it has
    |G| * sum_x 1/|H_x| classes, and the class of (g, x) has |H_x|
    members."""
    prod = env.product_space
    assert list(env.total.down) == quotient_order(prod.down, env.pair_class, env.members)
    points = list(prod.points)
    below = closure_quotient_order(points, {x: prod.min_open_of(x) for x in points},
                                   [[points[p] for p in pairs] for pairs in env.members])
    assert [set(bit_indices(down)) for down in env.total.down] == below
    h, n = _h_sizes(pa), len(pa.space)
    assert len(env.total) == len(big) * sum(Fraction(1, size) for size in h)
    assert [len(env.members[c]) for c in env.pair_class] \
        == [h[p % n] for p in range(len(env.pair_class))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(GLOBAL_KINDS))
def test_envelope_order_and_class_sizes_on_random_draws(seed, kind):
    """On global actions of every family and restrictions of them: the
    globalization, and the twisted product over a random subgroup K,
    K < G included."""
    rng = random.Random(seed)
    beta = random_global(rng, kind)
    pa = beta if rng.random() < 0.3 else restricted(rng, beta)
    big, bounds = pa.group, Bounds(envelope_pairs=4096)
    pa_k = restrict_to_subgroup(pa, rng.choice(all_subgroups(big)))
    _assert_order_and_class_sizes(pa, big, globalize(pa, bounds))
    _assert_order_and_class_sizes(pa_k, big, twisted_product(pa_k, big, bounds))


@pytest.mark.parametrize("name", fixture_names())
def test_envelope_order_and_class_sizes_on_fixtures(name):
    inst = load_fixture(name)
    for pa, big in ((inst.pa, inst.pa.group), (inst.embedded_pa, inst.big)):
        _assert_order_and_class_sizes(pa, big, twisted_product(pa, big))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(GLOBAL_KINDS))
def test_twisted_classes_are_the_diagonal_orbits(seed, kind):
    """The independent route to G x_K X: the orbits of the diagonal action
    of K on G x X, K acting on the discrete G by the right translation
    g |-> g k^-1, built at the label edge ``global_action``.  They are the
    envelope's classes, pair for pair, on global actions of every family
    and on restrictions of them, each restricted to a random subgroup K,
    K = G a third of the time."""
    rng = random.Random(seed)
    beta = random_global(rng, kind)
    pa = beta if rng.random() < 0.3 else restricted(rng, beta)
    big = pa.group
    sub = big.whole if rng.random() < 1 / 3 else rng.choice(all_subgroups(big))
    pa_k = restrict_to_subgroup(pa, sub)
    translation = global_action(pa_k.group, discrete_space(big.elements), {
        k: {g: big.mul(g, big.inv(k)) for g in big.elements} for k in pa_k.group.elements})
    env = twisted_product(pa_k, big, Bounds(envelope_pairs=4096))
    assert (list(env.pair_class), list(map(list, env.members))) \
        == orbit_classes(diagonal_product(translation, pa_k))


@pytest.mark.parametrize("n", [8, 16, 32, 48])
def test_half_circle_class_counts_are_the_circle(n):
    """Z_n on the open half-circle of the 2n-point circle: its
    globalization and G x_G X are the whole circle, 2n classes, and so are
    both closed forms."""
    pa = parse_instance(half_circle_document(n)).embedded_pa
    bounds = Bounds(envelope_pairs=n * n)
    tables = label_tables(pa)
    assert globalization_class_count(*tables) == twisted_class_count(n, *tables) == 2 * n
    assert len(globalize(pa, bounds).total) == 2 * n
    assert len(twisted_product(pa, pa.group, bounds).total) == 2 * n


@pytest.mark.parametrize("n", [8, 16])
def test_half_circle_in_the_double_group(n):
    """Z_n on the open half-circle inside Z_2n, K < G: G x_K X is two
    copies of the 2n-point circle, 4n classes, the closed form's count, and
    ``check all --bound 4n^2`` decides every claim without an internal
    error."""
    inst = parse_instance(half_circle_in_double_document(n))
    pa, big = inst.embedded_pa, inst.big
    bounds = DEFAULT_BOUNDS.with_limit(4 * n * n)
    count = twisted_class_count(2 * n, *label_tables(pa))
    assert len(twisted_product(pa, big, bounds).total) == count == 4 * n
    statuses = {rep.status for rep in run_all(inst, bounds)}
    assert not statuses & {"internal-error", "skipped-bounds"}


def _descend_tables(rng, env):
    """A well-defined value table on the pairs and a random one."""
    m = rng.randint(1, 5)
    per_class = [rng.randrange(m) for _ in env.members]
    return [per_class[c] for c in env.pair_class], \
        [rng.randrange(m) for _ in env.pair_class]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_integer_assembly_matches_label_assembly(seed):
    rng = random.Random(seed)
    pa, env = _assembly_case(rng)
    big = env.big_group
    ref = label_assemble(pa, big, env.product_space, _brute_class_sets(pa, big))
    assert label_view(env) == ref
    assert json.dumps(env.to_document()) == json.dumps(ref.to_document())
    # descend: values named so that label order is index order
    names = [f"v{i:03d}" for i in range(8)]
    n = len(pa.space)
    for values in _descend_tables(rng, env):
        got, clash = env.descend(values)
        want = ref.descend(lambda g, x: names[values[big.index(g) * n + pa.space.index(x)]])
        assert (tuple(names[v] for v in got),
                None if clash is None else env.total.points[clash]) == want


def _corrupted_partition(rng, env):
    """env's class masks with two classes merged or one class split in two,
    ordered by least member; None when there is nothing to merge or split."""
    masks = [sum(1 << p for p in pairs) for pairs in env.members]
    if rng.random() < 0.5:
        if len(masks) < 2:
            return None
        i, j = sorted(rng.sample(range(len(masks)), 2))
        masks[i] |= masks.pop(j)
    else:
        splittable = [i for i, m in enumerate(masks) if m.bit_count() > 1]
        if not splittable:
            return None
        i = rng.choice(splittable)
        pairs = bit_indices(masks[i])
        rng.shuffle(pairs)
        cut = rng.randint(1, len(pairs) - 1)
        masks[i] = sum(1 << p for p in pairs[:cut])
        masks.append(sum(1 << p for p in pairs[cut:]))
    return sorted(masks, key=lambda m: m & -m)


def _partition(masks):
    """The class of each pair and the members of each class, from class
    masks ordered by least member: what ``_assemble`` takes."""
    members = list(map(bit_indices, masks))
    cls = [0] * sum(map(len, members))
    for c, pairs in enumerate(members):
        for p in pairs:
            cls[p] = c
    return cls, members


def _assembly_outcome(run):
    try:
        env = run()
    except InternalCheckError as exc:
        return "InternalCheckError", str(exc)
    return "envelope", env if isinstance(env, LabelEnvelope) else label_view(env)


def _compare_corrupted_assembly(rng):
    """Both assemblies of one corrupted partition raise the same error, or
    build the same envelope; returns the outcome (None: no corruption)."""
    pa, env = _assembly_case(rng)
    masks = _corrupted_partition(rng, env)
    if masks is None:
        return None
    big, prod = env.big_group, env.product_space
    got = _assembly_outcome(lambda: _assemble(pa, big, prod, *_partition(masks)))
    want = _assembly_outcome(lambda: label_assemble(pa, big, prod,
                                                    [prod.set_of(m) for m in masks]))
    assert got == want
    return got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_corrupted_partitions_fail_as_in_label_assembly(seed):
    _compare_corrupted_assembly(random.Random(seed))


def test_corrupted_partitions_reach_every_reachable_check(rng):
    # merging or splitting classes breaks the action's well-definedness,
    # the projection's openness, the embedding's injectivity or the
    # preimage identity; the other checks of _assemble hold on any
    # partition that passes those (mu is then induced by a homeomorphism of
    # G x X, and G.iota(X) covers every class)
    seen = set()
    for _ in range(300):
        got = _compare_corrupted_assembly(rng)
        if got is not None and got[0] == "InternalCheckError":
            seen.add(got[1].split(" at ")[0])
    assert seen == {"enveloping action not well defined", "projection is not open",
                    "embedding is not injective", "p^-1(iota(X)) differs from K*X"}


def test_well_definedness_is_checked_where_the_action_law_cannot_see_it():
    """Trivial Z2 on two discrete points, G x X partitioned as
    {(0,a), (0,b), (1,b)} and {(1,a)}.  Read at the first members (0,a)
    and (1,a), mu_1 swaps the two classes, a homeomorphism with mu_1 .
    mu_1 = mu_0, so only the generator's well-definedness check sees that
    the translate of (0,b) is not in the class of the translate of (0,a):
    no first member lies in the slice G x {b}."""
    pa = trivial_action(cyclic_group(2), discrete_space(["a", "b"]))
    env = globalize(pa)
    prod, big = env.product_space, env.big_group
    masks = [0b1011, 0b0100]
    message = "enveloping action not well defined at ('1', '(0,a)')"
    for assemble in (lambda: _assemble(pa, big, prod, *_partition(masks)),
                     lambda: label_assemble(pa, big, prod, [prod.set_of(m) for m in masks])):
        assert _assembly_outcome(assemble) == ("InternalCheckError", message)


MAP_CHECKS = ("continuous", "equivariant", "injective", "surjective", "bijective",
              "inverse-continuous")


def _relabelled(space, rows, perm):
    """``space`` and the action ``rows`` on it carried along the index
    permutation ``perm``: point i becomes point perm[i], its label primed."""
    n = len(space)
    points, down = [""] * n, [0] * n
    moved = [[0] * n for _ in rows]
    for i, p in enumerate(space.points):
        points[perm[i]] = p + "'"
        down[perm[i]] = sum(1 << perm[k] for k in bit_indices(space.down[i]))
        for new, row in zip(moved, rows):
            new[perm[i]] = perm[row[i]]
    return FinSpace(tuple(points), tuple(down)), moved


def _comparison_maps(rng, env_x, env_y):
    """(map, source action rows, target action rows) between the total
    spaces of two envelopes of one group, of every kind the checks tell
    apart: a random map, a constant one (equivariant when its value is
    fixed), an equivariant homeomorphism onto a relabelled copy and that
    map with one value changed, a random self-bijection, and the identity
    between the total space and the discrete space on its points, either
    way."""
    x, y = env_x.total, env_y.total
    mu, nu = env_x.action_rows, env_y.action_rows
    n, m = len(x), len(y)
    perm = rng.sample(range(n), n)
    copy, copy_rows = _relabelled(x, mu, perm)
    near = list(perm)
    near[rng.randrange(n)] = rng.randrange(n)
    fixed = [v for v in range(m) if all(row[v] == v for row in nu)] or range(m)
    discrete = discrete_space(x.points)
    return [(SpaceMap(x, y, tuple(rng.randrange(m) for _ in range(n))), mu, nu),
            (SpaceMap(x, y, (rng.choice(fixed),) * n), mu, nu),
            (SpaceMap(x, copy, tuple(perm)), mu, copy_rows),
            (SpaceMap(x, copy, tuple(near)), mu, copy_rows),
            (SpaceMap(x, x, tuple(rng.sample(range(n), n))), mu, mu),
            (SpaceMap(discrete, x, tuple(range(n))), mu, mu),
            (SpaceMap(x, discrete, tuple(range(n))), mu, mu)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_map_checks_match_their_definitions(seed):
    """The comparison-map kernel returns exactly the checks named, in their
    order, each equal to its definition on labels, with the collision and
    the unhit targets of the definitions."""
    rng = random.Random(seed)
    grp = random_group(rng)
    env_x, env_y = (globalize(restricted(rng, random_global(
        rng, rng.choice(["regular", "cone", "trivial"]), grp, 2))) for _ in "xy")
    for f, source_rows, target_rows in _comparison_maps(rng, env_x, env_y):
        names = tuple(rng.sample(MAP_CHECKS, rng.randint(1, len(MAP_CHECKS))))

        def action(space, rows):
            return {g: dict(zip(space.points, map(space.points.__getitem__, row)))
                    for g, row in enumerate(rows)}

        checks, collision, unhit = label_map_checks(
            as_label_space(f.source), as_label_space(f.target), f.as_dict(),
            action(f.source, source_rows), action(f.target, target_rows))
        assert _map_checks(f, names, source_rows, target_rows) == (
            {name: checks[name] for name in names}, collision, unhit)
