from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pact import (BoundExceeded, Bounds, FinSpace, InternalCheckError, PartialAction,
                  SpaceMap, Subgroup,
                  ValidationError, diagonal_product,
                  discrete_space, enumerate_G_maps, enumerate_monotone_maps,
                  fixed_points, fixture_names,
                  global_action, is_continuous, is_G_map, is_invariant,
                  is_isovariant, load_fixture, orbit_space, parse_instance,
                  restrict_global, restrict_invariant, restrict_to_subgroup,
                  space_from_min_opens, trivial_action, validate_group,
                  validate_partial_action)
from pact.finspace import column_masks
from pact.paction import _check_axioms, g_map_faults, isotropy_mask
from gen import (GLOBAL_KINDS, circle, cone, cone_raw, cyclic_group, fence_document, fixture_pa,
                 label_tables, outcome, random_global, random_group, random_partial, regular,
                 restricted, with_projections, z6_two_orbits_document)
from oracle import (assert_same_search, brute_orbits, copying_enumerate_G_maps,
                    fence_map_count, is_free, is_G_homeomorphism, label_g_map_faults,
                    label_validate_partial_action, pairs_inside, partial_action_violation,
                    theta_map)


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures_validate_and_match_exhaustive_scan(name):
    pa = load_fixture(name).pa
    elements, table, identity, points, domains, thetas = label_tables(pa)
    min_open = {p: sorted(pa.space.min_open_of(p)) for p in points}
    assert partial_action_violation(elements, table, identity, points, min_open,
                                    domains, thetas) is None


def test_enlarged_domain_is_rejected_as_not_open():
    inst = load_fixture("z4-arcs")
    domains = {g: set(inst.pa.domains[g]) for g in inst.group.elements}
    thetas = {g: dict(inst.pa.thetas[g]) for g in inst.group.elements}
    domains["1"] = {"a0", "c0"}
    thetas["3"] = {"a0": "a2", "c0": "c0"}  # keep theta on X_1 total
    with pytest.raises(ValidationError) as err:
        validate_partial_action(inst.group, inst.space, domains, thetas)
    assert err.value.axiom == "domain-not-open"
    assert err.value.witness[0] == "1"


def test_theta_off_domain_rejected():
    inst = load_fixture("z2-pair")
    domains = {g: set(inst.pa.domains[g]) for g in inst.group.elements}
    thetas = {g: dict(inst.pa.thetas[g]) for g in inst.group.elements}
    thetas["1"]["b"] = "b"
    with pytest.raises(ValidationError) as err:
        validate_partial_action(inst.group, inst.space, domains, thetas)
    assert err.value.axiom == "theta-domain"


def test_pa2_violation_detected_with_witness():
    # Z4 acting by swap powers: theta_1 o theta_1 = id but theta_2 = swap.
    # PA1/PA3 and the domain identity all hold, so this isolates PA2.
    z4 = cyclic_group(4)
    d2 = discrete_space(["a", "b"])
    domains = {g: ["a", "b"] for g in z4.elements}
    swap = {"a": "b", "b": "a"}
    ident = {"a": "a", "b": "b"}
    thetas = {"0": dict(ident), "1": dict(swap), "2": dict(swap), "3": dict(swap)}
    with pytest.raises(ValidationError) as err:
        validate_partial_action(z4, d2, domains, thetas)
    assert err.value.axiom == "pa2"
    g, h, x = err.value.witness
    assert thetas[g][thetas[h][x]] != thetas[z4.mul(g, h)][x]


def test_unknown_domain_labels_name_the_least_one():
    space = discrete_space(["a"])
    domains = {"0": ["a"], "1": {"zz", "qq", "yy", "a"}}
    thetas = {"0": {"a": "a"}, "1": {"a": "a"}}
    for validate in (validate_partial_action, label_validate_partial_action):
        assert outcome(validate, cyclic_group(2), space, domains, thetas) == \
            ("ValidationError", "unknown-point", ("qq",))


def test_restrict_global_examples():
    circle = load_fixture("z4-circle")
    full = restrict_global(circle.pa, circle.space.points)
    assert full == circle.pa
    half = restrict_global(circle.pa, ["a3", "c0", "a0", "c1", "a1"])
    assert half == load_fixture("z4-half").pa
    assert half.gstar_is_open()  # restrictions are always nice
    with pytest.raises(ValidationError) as err:
        restrict_global(circle.pa, ["c0"])
    assert err.value.axiom == "not-open"
    with pytest.raises(ValidationError):
        restrict_global(load_fixture("z2-pair").pa, ["a"])  # not global


def test_diagonal_product_examples():
    z2pair = fixture_pa("z2-pair")
    pt = fixture_pa("pt")
    diag = diagonal_product(z2pair, pt)
    assert is_G_homeomorphism(with_projections(z2pair.space, pt.space)[1], diag, z2pair)

    sq = diagonal_product(z2pair, z2pair)
    fixture_sq = fixture_pa("z2-pair-sq")
    assert sq.space == fixture_sq.space
    assert sq.domains == fixture_sq.domains
    assert {g: dict(t) for g, t in sq.thetas.items()} == \
        {g: dict(t) for g, t in fixture_sq.thetas.items()}
    assert sq.domains["1"] == frozenset({"(a,a)"})

    circle = fixture_pa("z4-circle")
    double = diagonal_product(circle, circle)
    assert len(double.space) == 64
    assert double.is_global()

    with pytest.raises(ValidationError):
        diagonal_product(z2pair, fixture_pa("z4-circle"))


def test_diagonal_product_universal_property():
    z2pair = fixture_pa("z2-pair")
    wedge = fixture_pa("z2-wedge")
    diag = diagonal_product(z2pair, z2pair)
    _, p1, p2 = with_projections(z2pair.space, z2pair.space)
    cone_maps = [SpaceMap(wedge.space, z2pair.space, row)
                 for row in enumerate_G_maps(wedge, z2pair)]
    pairing_maps = [SpaceMap(wedge.space, diag.space, row)
                    for row in enumerate_G_maps(wedge, diag)]
    for f1 in cone_maps:
        for f2 in cone_maps:
            mediating = [h for h in pairing_maps
                         if all(p1(h(z)) == f1(z) and p2(h(z)) == f2(z)
                                for z in wedge.space.points)]
            assert len(mediating) == 1


def isotropy_labels(pa, x: str) -> tuple[str, ...]:
    """G_x as element labels, in element order."""
    return pa.group.labels_of(isotropy_mask(pa, pa.space.index(x)))


def test_isotropy_examples():
    z2pair = fixture_pa("z2-pair")
    assert isotropy_labels(z2pair, "a") == ("0", "1")
    assert isotropy_labels(z2pair, "b") == ("0",)
    circle = fixture_pa("z4-circle")
    assert all(isotropy_labels(circle, x) == ("0",) for x in circle.space.points)
    assert isotropy_labels(fixture_pa("z4-arcs"), "a1") == ("0", "2")


def test_isotropy_is_always_a_subgroup():
    for name in ["pt", "z2-pair", "z2-swap", "z2-wedge", "z4-circle",
                 "z4-half", "z4-arcs"]:
        pa = fixture_pa(name)
        for i in range(len(pa.space)):
            mask = isotropy_mask(pa, i)  # the closure check inside asserts
            assert Subgroup.from_labels(pa.group, pa.group.labels_of(mask)).mask == mask


def test_fixed_points_examples():
    arcs = fixture_pa("z4-arcs")
    z4 = arcs.group
    h = Subgroup.from_labels(z4, {"0", "2"})
    assert fixed_points(arcs, h) == {"a1", "a3"}
    trivial = Subgroup.from_labels(z4, {"0"})
    assert fixed_points(arcs, trivial) == frozenset(arcs.space.points)
    z2pair = fixture_pa("z2-pair")
    assert fixed_points(z2pair, Subgroup.from_labels(z2pair.group, {"0", "1"})) == {"a"}


def test_orbit_space_examples():
    z2pair = fixture_pa("z2-pair")
    orb = orbit_space(z2pair)
    assert len(orb.space) == 2
    assert all(orb.space.min_open_of(p) == frozenset({p}) for p in orb.space.points)

    swap = fixture_pa("z2-swap")
    assert len(orbit_space(swap).space) == 1

    arcs = fixture_pa("z4-arcs")
    orb_arcs = orbit_space(arcs)
    assert len(orb_arcs.space) == 7
    _, _, _, points, domains, thetas = label_tables(arcs)
    expected = set(brute_orbits(arcs.group.elements, arcs.group.mul, arcs.group.inv,
                                arcs.group.identity, points, domains, thetas))
    assert set(orb_arcs.classes) == expected
    assert frozenset({"a0", "a2"}) in expected


def test_orbits_of_a_partial_action_need_more_than_the_generators():
    """Z4 rotating four discrete points, restricted to {q0.0, q0.2}: the
    greedy generating set is {1} and theta_1 is empty, yet theta_2 joins
    the two points into one orbit, so a union-find over generator edges
    would split it.  The twisted product over Z4 has 4 classes of 8 pairs."""
    from pact import orbit_classes, twisted_product
    pa = restrict_global(regular(cyclic_group(4), discrete_space(["q0"])), {"q0.0", "q0.2"})
    assert [pa.group.elements[g] for g in pa.group.generators] == ["1"]
    assert pa.thetas["1"] == {}
    assert orbit_classes(pa) == ([0, 0], [[0, 1]])
    env = twisted_product(pa, pa.group)
    assert len(env.product_space) == 8
    assert [len(pairs) for pairs in env.members] == [2, 2, 2, 2]


def test_orbit_projection_open_on_every_fixture():
    from pact.finspace import is_open
    for name in ["pt", "z2-pair", "z2-swap", "z2-wedge", "z4-circle",
                 "z4-half", "z4-arcs"]:
        pa = fixture_pa(name)
        orb = orbit_space(pa)
        for x in pa.space.points:
            assert is_open(orb.space, set(map(orb.projection, pa.space.min_open_of(x))))


def test_is_free_examples():
    assert not is_free(fixture_pa("z2-pair"))
    assert is_free(fixture_pa("z4-circle"))
    trivial_group = validate_group(["e"], [["e"]], "e")
    pa = trivial_action(trivial_group, discrete_space(["x", "y"]))
    assert is_free(pa)


def test_is_invariant_examples():
    arcs = fixture_pa("z4-arcs")
    z4 = arcs.group
    everything = Subgroup.from_labels(z4, z4.elements)
    assert is_invariant(arcs, arcs.space.points, everything)
    h = Subgroup.from_labels(z4, {"0", "2"})
    assert is_invariant(arcs, {"a1"}, h)
    assert not is_invariant(arcs, {"a0"}, everything)


def test_is_g_map_examples():
    z2pair = fixture_pa("z2-pair")
    ident = SpaceMap.identity(z2pair.space)
    assert is_G_map(ident, z2pair, z2pair)
    assert is_isovariant(ident, z2pair, z2pair)

    swap = SpaceMap.from_dict(z2pair.space, z2pair.space, {"a": "b", "b": "a"})
    assert not is_G_map(swap, z2pair, z2pair)

    collapse = SpaceMap.from_dict(z2pair.space, z2pair.space, {"a": "a", "b": "a"})
    assert is_G_map(collapse, z2pair, z2pair)
    assert not is_isovariant(collapse, z2pair, z2pair)


def test_is_g_map_requires_continuity_as_error():
    wedge = fixture_pa("z2-wedge")
    broken = SpaceMap.from_dict(wedge.space, wedge.space,
                                {"w": "a", "a": "a", "b": "b"})
    assert not is_continuous(broken)
    with pytest.raises(ValidationError) as err:
        is_G_map(broken, wedge, wedge)
    assert err.value.axiom == "not-continuous"


def test_domain_identity_holds_on_random_restrictions(rng):
    for _ in range(50):
        pa = random_partial(rng, None, ["regular", "cone", "envelope", "diagonal"], 3)
        grp = pa.group
        for g in grp.elements:
            for h in grp.elements:
                lhs = frozenset(pa.thetas[g][x] for x in pa.domains[grp.inv(g)] & pa.domains[h])
                assert lhs == pa.domains[g] & pa.domains[grp.mul(g, h)]


def test_mutated_theta_never_triggers_internal_disagreement(rng):
    inst = load_fixture("z4-arcs")
    base_domains = {g: set(inst.pa.domains[g]) for g in inst.group.elements}
    for _ in range(40):
        thetas = {g: dict(inst.pa.thetas[g]) for g in inst.group.elements}
        g = rng.choice(["1", "2", "3"])
        if not thetas[g]:
            continue
        x = rng.choice(sorted(thetas[g]))
        thetas[g][x] = rng.choice(sorted(inst.space.points))
        try:
            validate_partial_action(inst.group, inst.space, base_domains, thetas)
        except ValidationError:
            pass  # fine: some axiom failed, both PA2 routes agreed
        except InternalCheckError as exc:  # pragma: no cover
            pytest.fail(f"PA2 routes disagreed: {exc}")


def test_restrict_to_subgroup_and_invariant():
    circle = fixture_pa("z4-circle")
    h = Subgroup.from_labels(circle.group, {"0", "2"})
    res = restrict_to_subgroup(circle, h)
    assert res.group.elements == ("0", "2")
    assert res.is_global()

    arcs = fixture_pa("z4-arcs")
    sub = restrict_invariant(arcs, {"a1"})
    assert sub.space.points == ("a1",)
    with pytest.raises(ValidationError):
        restrict_invariant(arcs, {"a0"})  # theta_3 moves a0 out


def test_gstar_closedness_recorded():
    assert fixture_pa("z4-circle").gstar_is_closed()
    assert not fixture_pa("z4-arcs").gstar_is_closed()
    # discrete base space: every domain is closed, so G*X is closed too
    assert fixture_pa("z2-pair").gstar_is_closed()
    assert not fixture_pa("z4-half").gstar_is_closed()


def test_gstar_openness_cross_check_sees_a_non_open_domain():
    # tables built by hand with theta_1 defined only at the top point c of
    # a < c, so X_1 = {c} is not open: the pair-mask cross-check must fire
    space = space_from_min_opens(["a", "c"], {"a": ["a"], "c": ["a", "c"]})
    broken = PartialAction(cyclic_group(2), space, ((0, 1), (-1, 1)), ((0, 1), (1,)))
    with pytest.raises(InternalCheckError):
        broken.gstar_is_open()


def test_twisted_diagonal_action_validates_without_pairwise_leq(monkeypatch):
    # Z_16 rotating the 32-point circle, restricted to an open half-circle;
    # the diagonal K-action behind twisted_product lives on 16 x 15 = 240
    # points, where a pairwise scan of label minimal open sets costs
    # millions of look-ups.
    n = 16
    z = cyclic_group(n)
    half = ([f"a{i}" for i in range(n // 2)]
            + [f"c{i}" for i in range(1, n // 2)])
    pa = restrict_global(circle(z), half)
    translation = global_action(z, discrete_space(z.elements), {
        k: {g: z.mul(g, z.inv(k)) for g in z.elements} for k in z.elements})

    def no_label_scan(self, x):
        raise AssertionError("monotonicity must be checked on down-set masks")

    monkeypatch.setattr(FinSpace, "min_open_of", no_label_scan)
    diag = diagonal_product(translation, pa)
    _, *projections = with_projections(translation.space, pa.space)
    assert len(diag.space) == 240
    again = validate_partial_action(diag.group, diag.space, diag.domains,
                                    diag.thetas)
    assert again.domains == diag.domains
    assert all(is_continuous(p) for p in projections)
    for g in diag.group.elements:
        if diag.domains[g]:
            assert is_continuous(theta_map(diag, g))


# ---------------------------------------------------------------------------
# index-table checks against the label-based reference

def _random_partial_action(rng, shape: str):
    grp = cyclic_group(rng.choice([2, 3, 4]))
    if shape == "single":
        return random_partial(rng, grp)
    if shape == "diagonal":
        return diagonal_product(random_partial(rng, grp), random_partial(rng, grp))
    # wide: Z4 rotating 12 discrete points times 8 points, or 6..7 with the
    # second factor restricted, so the domain masks span two machine words
    z4 = cyclic_group(4)
    a = regular(z4, discrete_space(["q0", "q1", "q2"]))
    b = regular(z4, discrete_space(["q0", "q1"])) if rng.random() < 0.5 else circle(z4)
    small = restricted(rng, b)
    return diagonal_product(a, small if len(small.space) >= 6 else b)


def _corrupted(rng, pa, kind: str):
    """Raw domain and map tables of pa with one corruption applied."""
    grp = pa.group
    domains = {g: set(pa.domains[g]) for g in grp.elements}
    thetas = {g: dict(pa.thetas[g]) for g in grp.elements}
    g = rng.choice([g for g in grp.elements if g != grp.identity])
    if kind == "swap-images" and len(thetas[g]) >= 2:
        x, y = rng.sample(sorted(thetas[g]), 2)
        thetas[g][x], thetas[g][y] = thetas[g][y], thetas[g][x]
    elif kind == "drop-domain-point" and domains[g]:
        domains[g].discard(rng.choice(sorted(domains[g])))
    elif kind == "break-composition" and len(domains[g]) >= 2:
        # follow theta_g by a transposition of X_g and keep theta_{g^-1} its
        # inverse: PA1 and bijectivity survive, compositions through g break
        a, b = rng.sample(sorted(domains[g]), 2)
        swap = {a: b, b: a}
        thetas[g] = {x: swap.get(y, y) for x, y in thetas[g].items()}
        thetas[grp.inv(g)] = {y: x for x, y in thetas[g].items()}
    return domains, thetas


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["single", "diagonal", "wide"]),
       st.sampled_from(["swap-images", "drop-domain-point", "break-composition"]))
def test_index_table_checks_match_label_reference(seed, shape, kind):
    rng = random.Random(seed)
    pa = _random_partial_action(rng, shape)
    args = (pa.group, pa.space, pa.domains, pa.thetas)
    assert outcome(label_validate_partial_action, *args) is None
    domains, thetas = _corrupted(rng, pa, kind)
    args = (pa.group, pa.space, domains, thetas)
    assert (outcome(validate_partial_action, *args)
            == outcome(label_validate_partial_action, *args))


def test_index_table_checks_reach_pa1_and_pa2(rng):
    # the same comparison on a fixed sample, which must reach the rewritten
    # PA1 and PA2 checks on spaces under and over 64 points
    seen = set()
    for _ in range(80):
        pa = _random_partial_action(rng, rng.choice(["single", "diagonal", "wide"]))
        for kind in ("swap-images", "drop-domain-point", "break-composition"):
            domains, thetas = _corrupted(rng, pa, kind)
            args = (pa.group, pa.space, domains, thetas)
            got = outcome(validate_partial_action, *args)
            assert got == outcome(label_validate_partial_action, *args)
            if got:
                seen.add((got[1], len(pa.space) > 64))
    assert {("theta-inverse-mismatch", False), ("theta-inverse-mismatch", True),
            ("pa2", False), ("pa2", True)} <= seen


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(GLOBAL_KINDS), st.booleans(),
       st.sampled_from(["swap", "redirect"]))
def test_table_check_matches_label_reference(seed, kind, restrict, change):
    """The axiom check on index tables, which ``pa-axioms`` and the product
    split call directly, against the label reference, on a global action or
    a restriction of one with one table entry changed so that every row
    stays defined exactly on X_{g^-1}: two images of theta_g swapped, or one
    value redirected to any point.  Both pass, or both name the same axiom
    and witness."""
    rng = random.Random(seed)
    pa = random_global(rng, kind)
    if restrict:
        pa = restricted(rng, pa)
    g = rng.randrange(len(pa.group))
    row = list(pa.images[g])
    xs = [x for x, y in enumerate(row) if y >= 0]
    if change == "swap" and len(xs) >= 2:
        x, y = rng.sample(xs, 2)
        row[x], row[y] = row[y], row[x]
    elif change == "redirect" and xs:
        row[rng.choice(xs)] = rng.randrange(len(pa.space))
    bad = dataclasses.replace(pa, images=pa.images[:g] + (tuple(row),) + pa.images[g + 1:])
    assert (outcome(_check_axioms, bad)
            == outcome(label_validate_partial_action, bad.group, bad.space,
                       bad.domains, bad.thetas))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_g_map_faults_match_definitions(seed):
    # random rows, G-map rows and one-point changes of G-map rows between
    # random partial actions of one group, checked all at once on column
    # masks against the definitions row by row
    rng = random.Random(seed)
    grp = cyclic_group(rng.choice([2, 3, 4]))
    pa_x = random_partial(rng, grp)
    pa_y = pa_x if rng.random() < 0.3 else random_partial(rng, grp)
    width, m = len(pa_x.space), len(pa_y.space)
    try:
        g_rows = enumerate_G_maps(pa_x, pa_y, Bounds(max_maps=1000))
    except BoundExceeded:
        g_rows = []
    picked = rng.sample(g_rows, min(len(g_rows), 10))
    rows = [tuple(rng.randrange(m) for _ in range(width)) for _ in range(10)] + picked
    for row in picked:
        changed = list(row)
        changed[rng.randrange(width)] = rng.randrange(m)
        rows.append(tuple(changed))
    rng.shuffle(rows)
    assert (g_map_faults(column_masks(rows, width, m), pa_x.space, pa_y.space,
                         pa_x.images, pa_y.images)
            == label_g_map_faults(rows, pa_x, pa_y))


def _filtered_g_maps(pa_x, pa_y, cap: int):
    """The G-maps as the monotone maps that pass is_G_map, sorted; an
    oracle that shares no code with the orbit table."""
    rows = enumerate_monotone_maps(pa_x.space, pa_y.space, Bounds(max_maps=cap))
    return sorted(row for row in rows
                  if is_G_map(SpaceMap(pa_x.space, pa_y.space, row), pa_x, pa_y))


def _family_action(rng, grp, kinds):
    """A global action of ``grp`` of a family drawn from ``kinds``,
    restricted to a random open set half of the time."""
    beta = random_global(rng, rng.choice(kinds), grp, 2)
    return restricted(rng, beta) if rng.random() < 0.5 else beta


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_enumerate_G_maps_matches_the_monotone_maps_that_are_G_maps(seed):
    # the orbit blocks and their candidates A_r against the filtered
    # monotone maps, on global and restricted actions of every family
    # (cones give the apex isotropy); the target is the source action, or
    # another drawn over the same group.  Draws with too many monotone
    # maps to filter are redrawn.
    rng = random.Random(seed)
    while True:
        if rng.random() < 0.5:
            grp, kinds = cyclic_group(rng.choice([2, 3, 4])), GLOBAL_KINDS
        else:
            grp, kinds = random_group(rng), [k for k in GLOBAL_KINDS if k != "circle"]
        pa_x = _family_action(rng, grp, kinds)
        pa_y = pa_x if rng.random() < 0.3 else _family_action(rng, grp, kinds)
        try:
            want = _filtered_g_maps(pa_x, pa_y, 3000)
        except BoundExceeded:
            continue
        assert enumerate_G_maps(pa_x, pa_y) == want
        return


def test_enumerate_G_maps_matches_the_filter_under_isotropy(rng):
    # Z6 rotating three points mod 3 (isotropy {0, 3}) and swapping two
    # mod 2 (isotropy {0, 2, 4}): into itself, into restrictions of
    # itself, and into and out of the cone over it, whose apex every
    # element fixes
    z6 = parse_instance(z6_two_orbits_document()).pa
    apex = cone(z6)
    targets = [z6, apex] + [restricted(rng, z6) for _ in range(5)]
    for pa_x, pa_y in [(z6, y) for y in targets] + [(apex, z6), (apex, apex)]:
        want = _filtered_g_maps(pa_x, pa_y, 20000)
        assert enumerate_G_maps(pa_x, pa_y, Bounds(max_maps=20000)) == want
    # a self-map sends p0 to a point fixed by {0, 3} and q0 to one fixed
    # by {0, 2, 4}: 3 * 2 choices
    assert len(enumerate_G_maps(z6, z6)) == 3 * 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_enumerate_G_maps_matches_copying_search(seed):
    # the orbit table's blocks, searched in place, give the rows, node
    # counts and bounds of the blocks read off the label tables point by
    # point, searched by copying
    rng = random.Random(seed)
    grp = cyclic_group(rng.choice([2, 3, 4]))
    pa_x = random_partial(rng, grp)
    pa_y = rng.choice([pa_x, random_partial(rng, grp), random_global(rng, "circle", grp),
                       random_global(rng, "regular", grp, 1)])
    assert_same_search(
        lambda budget, cap: enumerate_G_maps(pa_x, pa_y, Bounds(map_nodes=budget, max_maps=cap)),
        lambda budget, cap: copying_enumerate_G_maps(pa_x, pa_y, budget, cap),
        rng)


@pytest.mark.parametrize("length, self_maps", [(2, 11), (3, 99), (4, 811), (5, 6187),
                                               (6, 44931)])
def test_fence_hom_sets_match_the_transfer_matrix(length, self_maps):
    # maps from a fence into itself and into a cone, as many as a transfer
    # matrix along the fence counts: monotone maps, and G-maps of the
    # trivial action
    document = fence_document(length)
    fence = parse_instance(document).pa
    raw_fence = document["space"]["points"], document["space"]["min_open"]
    assert fence_map_count(length, *raw_fence) == self_maps
    apex = trivial_action(fence.group, space_from_min_opens(*cone_raw(5)))
    bounds = Bounds(max_maps=100000)
    for target, raw in [(fence, raw_fence), (apex, cone_raw(5))]:
        want = fence_map_count(length, *raw)
        assert len(enumerate_monotone_maps(fence.space, target.space, bounds)) == want
        assert len(enumerate_G_maps(fence, target, bounds)) == want


def test_replayed_orbit_blocks_match_copying_search(rng):
    # Z2 swapping two copies of a 5-point fence, into itself and into its
    # cone: blocks of two points, where the search replays repeated
    # subtrees; rows, node counts and bounds match the copying search's,
    # with budgets and caps that stop inside repeated subtrees
    pa_x = regular(cyclic_group(2), parse_instance(fence_document(3)).space)
    assert len(pa_x.space) == 10
    for pa_y in (pa_x, cone(pa_x)):
        repeats: list = []
        copying_enumerate_G_maps(pa_x, pa_y, 1 << 40, 1 << 40, repeats)
        assert len(repeats) > 100
        assert_same_search(
            lambda budget, cap: enumerate_G_maps(pa_x, pa_y,
                                                 Bounds(map_nodes=budget, max_maps=cap)),
            lambda budget, cap: copying_enumerate_G_maps(pa_x, pa_y, budget, cap),
            rng, max_budgets=100, extra=pairs_inside(rng, repeats))


def test_enumerate_G_maps_prunes_a_target_one_of_several_elements_leaves():
    # Z3 fixes both points of X, so H_r is all of Z3 at each of them; on Z3
    # rotating the 3-cycle restricted to {q0.0, q0.1}, eta_1 is defined at
    # q0.0 and eta_2 is not, so q0.0 is no candidate however the elements
    # are ordered; likewise q0.1
    z3 = cyclic_group(3)
    pa_x = trivial_action(z3, discrete_space(["x", "y"]))
    pa_y = restrict_global(regular(z3, discrete_space(["q0"])), ["q0.0", "q0.1"])
    assert enumerate_G_maps(pa_x, pa_y) == []
    assert_same_search(
        lambda budget, cap: enumerate_G_maps(pa_x, pa_y, Bounds(map_nodes=budget, max_maps=cap)),
        lambda budget, cap: copying_enumerate_G_maps(pa_x, pa_y, budget, cap),
        random.Random(0))
