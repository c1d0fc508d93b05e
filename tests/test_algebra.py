from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pact import (BoundExceeded, Group, Subgroup, ValidationError,
                  all_subgroups, conjugate_subgroup,
                  subgroup_generated, validate_group)
from pact.algebra import is_subgroup_embedding
from gen import cyclic_group, klein_group, s3_group
from oracle import brute_subgroups, group_violation, subgroup_violation

Z2_TABLE = [["0", "1"], ["1", "0"]]
Z4_ELEMS = ["0", "1", "2", "3"]
Z4_TABLE = [[str((i + j) % 4) for j in range(4)] for i in range(4)]


def test_z2_and_z4_validate():
    g2 = validate_group(["0", "1"], Z2_TABLE, "0")
    assert g2.mul("1", "1") == "0"
    g4 = validate_group(Z4_ELEMS, Z4_TABLE, "0")
    assert g4.inv("1") == "3"
    assert conjugate_subgroup(Subgroup.from_labels(g4, {"0", "2"}), "3").members == {"0", "2"}


def test_broken_z4_reports_associativity_with_witness():
    table = [row[:] for row in Z4_TABLE]
    table[1][1] = "3"
    with pytest.raises(ValidationError) as err:
        validate_group(Z4_ELEMS, table, "0")
    assert err.value.axiom == "associativity"
    # the library must report the same first triple the exhaustive scan finds
    assert group_violation(Z4_ELEMS, table, "0") == ("associativity", err.value.witness)


def test_closure_and_identity_and_inverse_witnesses():
    table = [row[:] for row in Z2_TABLE]
    table[1][1] = "9"
    with pytest.raises(ValidationError) as err:
        validate_group(["0", "1"], table, "0")
    assert err.value.axiom == "closure"
    assert err.value.witness == ("1", "1", "9")

    with pytest.raises(ValidationError) as err:
        validate_group(["0", "1"], [["1", "0"], ["0", "1"]], "0")
    assert err.value.axiom == "identity"

    table = [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "2"]]
    with pytest.raises(ValidationError) as err:
        validate_group(["0", "1", "2"], table, "0")
    assert err.value.axiom in ("inverse", "associativity")


def test_table_shape_checked():
    with pytest.raises(ValidationError) as err:
        validate_group(["0", "1"], [["0", "1"]], "0")
    assert err.value.axiom == "table-shape"


def test_subgroup_generated_examples():
    z4 = cyclic_group(4)
    assert subgroup_generated(z4, ["2"]).members == {"0", "2"}
    assert subgroup_generated(z4, ["1"]).members == {"0", "1", "2", "3"}
    assert subgroup_generated(z4, []).members == {"0"}


def test_subgroup_generated_idempotent_and_unknown_label():
    z4 = cyclic_group(4)
    for gens in (["2"], ["1"], [], ["3"], ["2", "3"]):
        first = subgroup_generated(z4, gens)
        again = subgroup_generated(z4, sorted(first.members))
        assert first.members == again.members
    with pytest.raises(ValidationError) as err:
        subgroup_generated(z4, ["7"])
    assert err.value.axiom == "unknown-element"


def test_conjugation_examples():
    z4 = cyclic_group(4)
    h = Subgroup.from_labels(z4, {"0", "2"})
    assert conjugate_subgroup(h, "1").members == {"0", "2"}
    trivial = Subgroup.from_labels(z4, {"0"})
    for g in z4.elements:
        assert conjugate_subgroup(trivial, g).members == {"0"}


def test_conjugation_involution_on_s3():
    s3 = s3_group()
    subs = all_subgroups(s3)
    assert len(subs) == 6
    for sub in subs:
        for g in s3.elements:
            once = conjugate_subgroup(sub, g)
            back = conjugate_subgroup(once, s3.inv(g))
            assert back.members == sub.members
        assert conjugate_subgroup(sub, s3.identity).members == sub.members


def test_all_subgroups_against_exhaustive_scan():
    z2 = cyclic_group(2)
    assert [sorted(s.members) for s in all_subgroups(z2)] == [["0"], ["0", "1"]]
    z4 = cyclic_group(4)
    got = {s.members for s in all_subgroups(z4)}
    assert got == brute_subgroups(Z4_ELEMS, Z4_TABLE, "0")
    assert [sorted(s.members) for s in all_subgroups(z4)] == \
        [["0"], ["0", "2"], ["0", "1", "2", "3"]]
    s3 = s3_group()
    assert {s.members for s in all_subgroups(s3)} == \
        brute_subgroups(list(s3.elements), [list(r) for r in s3.table], s3.identity)
    trivial = validate_group(["e"], [["e"]], "e")
    assert [sorted(s.members) for s in all_subgroups(trivial)] == [["e"]]


def test_all_subgroups_lagrange_and_bound():
    s3 = s3_group()
    for sub in all_subgroups(s3):
        assert len(s3) % len(sub) == 0
    with pytest.raises(BoundExceeded):
        all_subgroups(cyclic_group(17))


def test_subgroup_invariants_enforced():
    z4 = cyclic_group(4)
    with pytest.raises(ValidationError):
        Subgroup.from_labels(z4, {"1"})          # no identity
    with pytest.raises(ValidationError):
        Subgroup.from_labels(z4, {"0", "1"})     # not closed


def test_subgroup_as_group_roundtrip():
    z4 = cyclic_group(4)
    sub = Subgroup.from_labels(z4, {"0", "2"}).as_group()
    assert sub.elements == ("0", "2")
    assert sub.mul("2", "2") == "0"
    assert group_violation(list(sub.elements), [list(r) for r in sub.table],
                           sub.identity) is None


def _listed(elements, mul, identity) -> Group:
    """A Group on ``elements`` in the order given, its table read off
    ``mul``, built without validation: the embedding check reads labels and
    tables only."""
    return Group(tuple(elements), tuple(tuple(mul(a, b) for b in elements)
                                        for a in elements), identity)


def _one_product_changed(grp: Group, a: str, b: str, value: str) -> Group:
    """``grp``'s table with the single entry a * b replaced by ``value``."""
    return _listed(grp.elements,
                   lambda x, y: value if (x, y) == (a, b) else grp.mul(x, y), grp.identity)


def _embedding_cases():
    z4, s3, klein = cyclic_group(4), s3_group(), klein_group()
    cases = [
        ("z2-in-z4", _listed(["0", "2"], z4.mul, "0"), z4, True),
        ("z2-in-z4-out-of-order", _listed(["2", "0"], z4.mul, "0"), z4, True),
        ("z4-in-itself-reversed", _listed(z4.elements[::-1], z4.mul, "0"), z4, True),
        # {0, 2} is Z2 with 2 as its identity: 0 * 0 = 2
        ("identity-mismatch", _listed(["0", "2"], lambda a, b: "2" if a == b else "0", "2"),
         z4, False),
        # big's products on {0, 2}, but 2 declared the identity
        ("declared-identity-mismatch", _listed(["0", "2"], z4.mul, "2"), z4, False),
        ("foreign-label", _listed(["0", "x"], lambda a, b: "0" if a == b else "x", "0"),
         z4, False),
        ("one-disagreeing-product", _one_product_changed(z4, "3", "3", "0"), z4, False),
        ("one-disagreeing-product-of-s3",
         _one_product_changed(_listed(["012", "120", "201"], s3.mul, "012"),
                              "120", "120", "120"), s3, False),
        ("klein-labels-in-z4", _listed(z4.elements, klein_group("0123").mul, "0"), z4, False),
        ("z4-in-z2", z4, cyclic_group(2), False),
    ]
    for big in (s3, klein):
        for sub in all_subgroups(big):
            order = list(sub.sorted_members)[::-1]
            cases.append((f"{len(big)}-{'-'.join(order)}-out-of-order",
                          _listed(order, big.mul, big.identity), big, True))
    return cases


EMBEDDING_CASES = _embedding_cases()


@pytest.mark.parametrize("small, big, expected", [case[1:] for case in EMBEDDING_CASES],
                         ids=[case[0] for case in EMBEDDING_CASES])
def test_subgroup_embedding_matches_its_label_definition(small, big, expected):
    by_labels = (small.identity == big.identity
                 and all(a in big for a in small.elements)
                 and all(small.mul(a, b) == big.mul(a, b)
                         for a in small.elements for b in small.elements))
    assert is_subgroup_embedding(small, big) == by_labels == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_group_axioms_hold_for_validated_cyclic_groups(n, data):
    g = cyclic_group(n)
    a = data.draw(st.sampled_from(g.elements))
    b = data.draw(st.sampled_from(g.elements))
    c = data.draw(st.sampled_from(g.elements))
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert g.mul(g.identity, a) == a == g.mul(a, g.identity)
    assert g.mul(a, g.inv(a)) == g.identity


def _permutation_group(gens: list[tuple[int, ...]]) -> Group:
    """The group generated by the permutations ``gens``, elements named by
    one-line notation in order of discovery from the identity."""
    ident = tuple(range(len(gens[0])))
    perms = [ident]
    for p in perms:
        for s in gens:
            q = tuple(p[s[i]] for i in range(len(ident)))
            if q not in perms:
                perms.append(q)
    names = {p: "".join(map(str, p)) for p in perms}
    table = [[names[tuple(p[q[i]] for i in range(len(ident)))] for q in perms]
             for p in perms]
    return validate_group([names[p] for p in perms], table, names[ident])


def _z2_x_z4() -> Group:
    elems = [(a, b) for a in range(2) for b in range(4)]
    names = {e: f"{e[0]}{e[1]}" for e in elems}
    table = [[names[((a + c) % 2, (b + d) % 4)] for c, d in elems] for a, b in elems]
    return validate_group([names[e] for e in elems], table, "00")


KERNEL_GROUPS = ([(f"z{n}", cyclic_group(n)) for n in range(1, 13)]
                 + [("s3", s3_group()), ("z2xz4", _z2_x_z4()),
                    ("d4", _permutation_group([(1, 2, 3, 0), (0, 3, 2, 1)]))])


@pytest.mark.parametrize("group", [g for _, g in KERNEL_GROUPS],
                         ids=[n for n, _ in KERNEL_GROUPS])
def test_subgroup_kernels_match_exhaustive_scan(group, rng):
    brute = brute_subgroups(list(group.elements), [list(r) for r in group.table],
                            group.identity)
    subs = all_subgroups(group)
    assert len(subs) == len(brute) and {s.members for s in subs} == brute
    assert [(len(s), sorted(map(group.index, s.members))) for s in subs] == \
        sorted((len(b), sorted(map(group.index, b))) for b in brute)
    for sub in subs:
        assert sub.mask == sum(1 << group.index(m) for m in sub.members)
        assert sub == Subgroup.from_labels(group, sub.members)
        g = rng.choice(group.elements)
        conjugate = {group.mul(group.mul(group.inv(g), h), g) for h in sub.members}
        assert conjugate_subgroup(sub, g) == Subgroup.from_labels(group, conjugate)
    table = [list(r) for r in group.table]
    for _ in range(30):
        gens = rng.sample(group.elements, rng.randint(0, min(3, len(group))))
        smallest = min((b for b in brute if set(gens) <= b), key=len)
        generated = subgroup_generated(group, gens)
        assert generated.members == smallest
        assert generated == Subgroup.from_labels(group, smallest)
        # the validating constructor accepts exactly the subgroups, and
        # names the violation the label scan finds first
        scattered = set(rng.sample(group.elements, rng.randint(0, len(group))))
        scattered |= set(rng.choice([[group.identity], [group.identity], ["?", "!"], []]))
        for subset in (set(gens) | {group.identity}, scattered):
            expected = subgroup_violation(list(group.elements), table, group.identity, subset)
            try:
                sub = Subgroup.from_labels(group, subset)
            except ValidationError as exc:
                assert (exc.axiom, exc.witness) == expected
            else:
                assert expected is None and frozenset(subset) in brute
                assert sub.members == subset
