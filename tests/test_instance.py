from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pact import (InstanceError, ValidationError, fixture_dict,
                  fixture_names, load_fixture, parse_instance, space_from_min_opens,
                  split_pair_label, validate_group)


def test_all_bundled_fixtures_parse():
    for name in fixture_names():
        inst = load_fixture(name)
        assert inst.id == name


def test_parse_accepts_text_and_dict(tmp_path):
    doc = fixture_dict("z2-pair")
    from_dict = parse_instance(doc)
    from_text = parse_instance(json.dumps(doc))
    assert from_dict.pa == from_text.pa
    path = tmp_path / "z2-pair.json"
    path.write_text(json.dumps(doc))
    from_path = parse_instance(path)
    assert from_path.pa == from_dict.pa


def test_domain_point_error_location():
    doc = fixture_dict("z2-pair")
    doc["partial_action"]["domains"]["1"] = ["zz"]
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "partial_action.domains.1"


def test_unknown_group_element_in_domains():
    doc = fixture_dict("z2-pair")
    doc["partial_action"]["domains"]["7"] = ["a"]
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "partial_action.domains.7"


def test_theta_defined_off_domain_is_semantic_error():
    doc = fixture_dict("z2-pair")
    doc["partial_action"]["maps"]["1"] = {"a": "a", "b": "b"}
    with pytest.raises(ValidationError) as err:
        parse_instance(doc)
    assert err.value.axiom == "theta-domain"


def test_non_homomorphic_embedding_rejected():
    doc = fixture_dict("z4-from-z2-pair")
    doc["k_embedding"] = {"0": "0", "1": "1"}
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "k_embedding"



def test_embedding_that_moves_the_identity_is_not_a_homomorphism():
    # e = e.e forces emb(e) = emb(e)^2, so the homomorphism check at (e, e)
    # already rejects an embedding that moves the identity
    doc = fixture_dict("z4-from-z2-pair")
    doc["k_embedding"] = {"0": "2", "1": "0"}
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "k_embedding"
    assert str(err.value) == "at k_embedding: not a homomorphism at ('0', '0')"

def test_embedding_needs_big_group_and_injectivity():
    doc = fixture_dict("z4-from-z2-pair")
    del doc["big_group"]
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "k_embedding"

    doc2 = fixture_dict("z4-from-z2-pair")
    doc2["k_embedding"] = {"0": "0", "1": "0"}
    with pytest.raises(InstanceError):
        parse_instance(doc2)


def test_big_group_without_embedding_needs_literal_subgroup():
    doc = fixture_dict("z2-pair")
    doc["big_group"] = {
        "elements": ["0", "1", "2", "3"],
        "table": [["0", "1", "2", "3"], ["1", "2", "3", "0"],
                  ["2", "3", "0", "1"], ["3", "0", "1", "2"]],
        "identity": "0",
    }
    # Z2 = {0,1} is not a literal subgroup of Z4 (1+1 = 2 there)
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "big_group"


def test_embedded_action_lives_in_big_group():
    inst = load_fixture("z4-from-z2-pair")
    assert inst.pa.group.elements == ("0", "1")
    assert inst.embedded_pa.group.elements == ("0", "2")
    assert inst.big.elements == ("0", "1", "2", "3")
    assert inst.embedded_pa.domains["2"] == frozenset({"a"})


def test_identity_defaults_and_missing_elements():
    doc = {
        "id": "tiny",
        "group": {"elements": ["0", "1"],
                  "table": [["0", "1"], ["1", "0"]], "identity": "0"},
        "space": {"points": ["p"], "min_open": {"p": ["p"]}},
        "partial_action": {"domains": {}, "maps": {}},
    }
    inst = parse_instance(doc)
    assert inst.pa.domains["0"] == frozenset({"p"})
    assert inst.pa.domains["1"] == frozenset()


def test_unknown_top_level_and_group_keys():
    doc = fixture_dict("pt")
    doc["extra"] = 1
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "extra"

    doc2 = fixture_dict("pt")
    doc2["group"]["order"] = 2
    with pytest.raises(InstanceError) as err:
        parse_instance(doc2)
    assert err.value.location == "group.order"


def test_subgroups_and_named_maps_resolve():
    inst = load_fixture("z4-arcs")
    assert sorted(inst.subgroups["H"].members) == ["0", "2"]
    sub = inst.embedded_subgroup("H")
    assert sub.members == frozenset({"0", "2"})
    with pytest.raises(InstanceError):
        inst.embedded_subgroup("missing")


def test_bad_subgroup_block_rejected():
    doc = fixture_dict("z4-arcs")
    doc["subgroups"]["bad"] = ["0", "1"]
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "subgroups.bad"


def test_invalid_json_reports_location():
    with pytest.raises(InstanceError) as err:
        parse_instance("{not json")
    assert err.value.location == "$"


def test_min_open_for_unknown_point_rejected():
    doc = fixture_dict("pt")
    doc["space"]["min_open"]["ghost"] = ["x"]
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "space.min_open.ghost"


def test_non_string_map_image_rejected():
    doc = fixture_dict("z2-wedge")
    doc["maps"]["const-w"]["a"] = []
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "maps.const-w"


def test_map_table_key_outside_the_space_rejected():
    doc = fixture_dict("z2-pair")
    doc["maps"] = {"f": {"a": "a", "b": "b", "ghost": "a"}}
    with pytest.raises(InstanceError) as err:
        parse_instance(doc)
    assert err.value.location == "maps.f"
    assert "ghost" in str(err.value)


def _paths(node, path=()):
    """Every key path below the document root, parents before children."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


# one_of picks among its three branches evenly, so two draws in three are
# containers, the kind a label lookup cannot hash
_JUNK = st.one_of(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=2),
    st.lists(st.none() | st.integers(-2, 2) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.none() | st.text(max_size=2),
                    max_size=3))


@settings(max_examples=15, deadline=None)
@given(_JUNK)
def test_mutated_documents_raise_only_instance_or_validation_errors(junk):
    """Deleting any one key, or replacing any one value by ``junk``, at any
    depth of a bundled fixture is rejected with InstanceError or
    ValidationError and never escapes as another exception."""
    for name in fixture_names():
        for path in _paths(fixture_dict(name)):
            for delete in (True, False):
                doc = fixture_dict(name)
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                if delete:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = junk
                try:
                    parse_instance(doc)
                except (InstanceError, ValidationError):
                    pass


# a label with a comma outside parentheses, or with unbalanced ones, could
# be a pair label's coordinate and collide with another pair's label
BAD_LABELS = ("e,1", "1,q0", "a)", "(a", ")(", "(a))(", "(a),(b)", ",", "(a,b")
GOOD_LABELS = ("(a,b)", "((a,b),c)", "x(0,1)", "(g0)", "", "a b")


def test_ambiguous_labels_are_rejected_where_labels_enter():
    for bad in BAD_LABELS:
        with pytest.raises(ValidationError) as err:
            validate_group(["e", bad], [["e", bad], [bad, "e"]], "e")
        assert (err.value.axiom, err.value.witness) == ("ambiguous-label", (bad,))
        with pytest.raises(ValidationError) as err:
            space_from_min_opens(["q0", bad], {"q0": ["q0"], bad: [bad]})
        assert (err.value.axiom, err.value.witness) == ("ambiguous-label", (bad,))
    # the big group goes through the same constructor
    doc = fixture_dict("z4-from-z2-pair")
    doc["big_group"]["elements"][1] = "1,0"
    with pytest.raises(ValidationError) as err:
        parse_instance(doc)
    assert err.value.axiom == "ambiguous-label"


def test_labels_with_balanced_parentheses_still_parse():
    for good in GOOD_LABELS:
        validate_group(["e", good], [["e", good], [good, "e"]], "e")
        space = space_from_min_opens(["q0", good], {"q0": ["q0"], good: [good]})
        assert space.points == ("q0", good)
    g, p = "(a,b)", "((a,b),c)"
    nested = parse_instance({
        "id": "nested",
        "group": {"elements": ["e", g], "table": [["e", g], [g, "e"]], "identity": "e"},
        "space": {"points": ["q0", p], "min_open": {"q0": ["q0", p], p: [p]}},
        "partial_action": {"domains": {g: []}, "maps": {g: {}}}})
    assert nested.group.elements == ("e", g)
    assert split_pair_label(nested.space.points[1]) == (g, "c")
