from __future__ import annotations

import pytest

from pact import (BoundExceeded, SpaceMap, ValidationError,
                  core, discrete_space, enumerate_maps, enumerate_opens,
                  fixture_names, globalize,
                  is_contractible, is_G_contractible,
                  is_G_map, is_locally_G_contractible, load_fixture,
                  run_claim, space_from_min_opens,
                  trivial_action)
from gen import (c8, cyclic_group, fixture_pa, g_contract, random_global, random_partial,
                 random_preorder_space, random_space, restricted)
from oracle import (are_G_homotopic, are_homotopic, as_label_space,
                    envelopes_G_homotopic, exhaustive_locally_G_contractible,
                    find_homeomorphism, homotopy_from_fence,
                    interval_homotopy_exists, label_beat_point, label_components,
                    label_core, label_fence)


# ---------------------------------------------------------------------------

def test_enumerate_maps_counts():
    pt = discrete_space(["x"])
    space = c8()
    assert len(enumerate_maps(pt, space).maps) == 8
    d2 = discrete_space(["a", "b"])
    assert len(enumerate_maps(d2, d2).maps) == 4
    wedge = fixture_pa("z2-wedge")
    poset = enumerate_maps(wedge.space, wedge.space,
                           equivariant=(wedge, wedge))
    # exhaustive-filter oracle
    plain = enumerate_maps(wedge.space, wedge.space)
    expected = [m.assignment for m in plain.maps if is_G_map(m, wedge, wedge)]
    assert [m.assignment for m in poset.maps] == expected
    assert len(poset.maps) == 3


def test_are_homotopic_examples():
    space = c8()
    ident = SpaceMap.identity(space)
    assert are_homotopic(ident, ident)
    for value in space.points:
        const = SpaceMap.constant(space, space, value)
        assert not are_homotopic(ident, const)

    wedge = fixture_pa("z2-wedge")
    wid = SpaceMap.identity(wedge.space)
    wconst = SpaceMap.constant(wedge.space, wedge.space, "w")
    assert are_homotopic(wid, wconst)
    assert are_G_homotopic(wid, wconst, wedge, wedge)


def test_are_homotopic_rejects_bad_maps():
    wedge = fixture_pa("z2-wedge")
    broken = SpaceMap.from_dict(wedge.space, wedge.space,
                                {"w": "a", "a": "a", "b": "b"})
    with pytest.raises(ValidationError):
        are_homotopic(broken, SpaceMap.identity(wedge.space))
    swapish = SpaceMap.constant(wedge.space, wedge.space, "a")
    with pytest.raises(ValidationError):
        are_G_homotopic(swapish, swapish, wedge, wedge)  # not a G-map


def test_pointwise_comparable_maps_are_homotopic(rng):
    for _ in range(20):
        sx, sy = random_space(rng, 4, "x"), random_space(rng, 4, "y")
        poset = enumerate_maps(sx, sy)
        if len(poset.maps) < 2:
            continue
        for i in range(min(len(poset.maps), 6)):
            for j in range(min(len(poset.maps), 6)):
                pairs = zip(poset.maps[i].assignment, poset.maps[j].assignment)
                if all(sy.leq(a, b) for a, b in pairs):
                    assert poset.components[i] == poset.components[j]


def test_components_and_fences_on_rows_match_label_search(rng):
    # continuous-map posets of random spaces and G-map posets of random
    # partial actions: the row kernels against pairwise label comparisons
    checked = 0
    while checked < 30:
        if checked % 2:
            pa = random_partial(rng, cyclic_group(rng.choice([2, 3])))
            try:
                poset = enumerate_maps(pa.space, pa.space, equivariant=(pa, pa),
                                       max_maps=300)
            except BoundExceeded:
                continue
        else:
            poset = enumerate_maps(random_space(rng, 4, "x"), random_space(rng, 4, "y"),
                                   max_maps=300)
        maps = list(poset.maps)
        assert poset.components == label_components(maps)
        for _ in range(5):
            i, j = rng.randrange(len(maps)), rng.randrange(len(maps))
            fence = poset.fence(i, j)
            expected = label_fence(maps, i, j)
            assert (fence is None) == (expected is None)
            if fence is not None:
                assert [f.assignment for f in fence] == [f.assignment for f in expected]
        checked += 1


def test_homotopy_is_equivalence_relation():
    wedge_space = load_fixture("z2-wedge").space
    poset = enumerate_maps(wedge_space, wedge_space)
    comp = poset.components
    n = len(poset.maps)
    # reflexive + symmetric come with the component encoding; check
    # transitivity through explicit fences
    for i in range(n):
        fence = poset.fence(i, i)
        assert fence is not None and fence[0].assignment == fence[-1].assignment
    for i in range(n):
        for j in range(i + 1, n):
            if comp[i] == comp[j]:
                fij = poset.fence(i, j)
                fji = poset.fence(j, i)
                assert fij is not None and fji is not None


def test_core_examples():
    pt = discrete_space(["x"])
    assert core(pt).points == ("x",)
    wedge_space = load_fixture("z2-wedge").space
    assert len(core(wedge_space)) == 1
    space = c8()
    reduced = core(space)
    assert reduced == space
    # beat-point scan oracle: no point of C8 has a dominated punctured
    # down-set or up-set
    for x in space.points:
        down = [y for y in space.min_open_of(x) if y != x]
        up = [y for y in space.points if space.leq(x, y) and y != x]
        assert not (down and any(all(space.leq(d, m) for d in down) for m in down))
        assert not (up and any(all(space.leq(m, u) for u in up) for m in up))


def test_core_matches_label_scan(rng):
    # the mask beat-point test agrees with the label test at every point of
    # random T0 quotients, and the scan dismantles exactly the points the
    # label scan does, on random preorders (including non-T0 ones)
    from pact import t0_quotient
    from pact.homotopy import _beat_point
    for _ in range(60):
        space = random_space(rng, 8)
        quotient, _ = t0_quotient(space)
        assert ([_beat_point(quotient, i) for i in range(len(quotient))]
                == [label_beat_point(quotient, x) for x in quotient.points])
        assert as_label_space(core(space)) == label_core(space)


def test_core_unique_up_to_homeomorphism_over_orderings(rng):
    for _ in range(15):
        points, min_open = random_preorder_space(rng, 7)
        space = space_from_min_opens(points, min_open)
        reduced = core(space)
        perm = list(points)
        rng.shuffle(perm)
        rename = dict(zip(points, perm))
        shuffled = space_from_min_opens(
            [rename[p] for p in points],
            {rename[p]: [rename[q] for q in min_open[p]] for p in points})
        other = core(shuffled)
        assert len(reduced) == len(other)
        assert find_homeomorphism(reduced, other) is not None
        assert core(reduced) == reduced  # idempotent


def test_is_contractible_examples_and_cross_check(rng):
    assert is_contractible(discrete_space(["x"]))
    assert is_contractible(load_fixture("z2-wedge").space)
    assert not is_contractible(c8())
    for _ in range(12):
        space = random_space(rng, 5)
        ident = SpaceMap.identity(space)
        by_fence = any(are_homotopic(ident, SpaceMap.constant(space, space, w))
                       for w in space.points)
        assert is_contractible(space) == by_fence


def test_is_g_contractible_examples():
    pt = fixture_pa("pt")
    assert g_contract(pt).value

    wedge = fixture_pa("z2-wedge")
    res = g_contract(wedge)
    assert res.value and res.fixed_point == "w"
    assert len(res.fence) == 2  # fence of length 1: constant below identity
    assert res.fence[0].assignment == tuple(wedge.space.points)
    assert set(res.fence[-1].assignment) == {"w"}

    circle = fixture_pa("z4-circle")
    res2 = g_contract(circle)
    assert not res2.value and res2.reason == "no fixed points"


def test_is_g_contractible_builds_no_poset_without_fixed_points():
    def no_poset():
        raise AssertionError("a space without fixed points needs no map search")
    assert not is_G_contractible(fixture_pa("z4-circle"), no_poset)
    wedge, pt = fixture_pa("z2-wedge"), fixture_pa("pt")
    with pytest.raises(ValidationError) as err:
        is_G_contractible(wedge, lambda: enumerate_maps(pt.space, pt.space,
                                                        equivariant=(pt, pt)))
    assert err.value.axiom == "space-mismatch"
    with pytest.raises(ValidationError):
        is_G_contractible(wedge, lambda: enumerate_maps(wedge.space, wedge.space))


def test_g_contractible_implies_contractible():
    for name in ["pt", "z2-pair", "z2-swap", "z2-wedge", "z4-circle",
                 "z4-half", "z4-arcs"]:
        pa = fixture_pa(name)
        if g_contract(pa).value:
            assert is_contractible(pa.space)


def test_locally_g_contractible_examples():
    assert is_locally_G_contractible(fixture_pa("pt"))
    assert is_locally_G_contractible(fixture_pa("z2-wedge"))
    # golden value frozen from the exhaustive neighbourhood scan
    assert is_locally_G_contractible(fixture_pa("z4-arcs")) is True


def local_contractibility_instances(rng):
    """The fixtures and their globalizations, trivial Z2/Z3/Z4 actions on
    random spaces (G_x = G everywhere), and rotations of copies of a random
    base, with and without a fixed apex above them, and random restrictions
    of them."""
    for name in fixture_names():
        pa = load_fixture(name).embedded_pa
        yield pa
        yield globalize(pa).as_global_action()
    for _ in range(60):
        yield random_global(rng, "trivial", cyclic_group(rng.choice([2, 3, 4])))
    for kind in ["regular"] * 50 + ["cone"] * 25:
        beta = random_global(rng, kind, cyclic_group(rng.choice([2, 3, 4])), 2)
        yield beta
        yield restricted(rng, beta)


def test_locally_g_contractible_matches_exhaustive_scan(rng):
    compared = 0
    for pa in local_contractibility_instances(rng):
        try:
            expected = exhaustive_locally_G_contractible(pa)
        except BoundExceeded:
            continue  # more than 12 points, or a map poset over its cap
        assert is_locally_G_contractible(pa) == expected
        compared += 1
    assert compared >= 220


def test_locally_g_contractible_claim_decides_z4_arcs():
    # the exhaustive scan skipped it: its envelope has 24 points
    rep = run_claim("locally-g-contractible", load_fixture("z4-arcs"))
    assert rep.status == "holds"
    assert rep.witness == {"space": True, "envelope": True}


def test_fence_agrees_with_interval_model(rng):
    found_positive = found_negative = 0
    attempts = 0
    while (found_positive < 5 or found_negative < 5) and attempts < 200:
        attempts += 1
        sx, sy = random_space(rng, 3, "x"), random_space(rng, 4, "y")
        poset = enumerate_maps(sx, sy)
        if len(poset.maps) < 2:
            continue
        idx = rng.sample(range(len(poset.maps)), 2)
        f, g = poset.maps[idx[0]], poset.maps[idx[1]]
        connected = poset.components[idx[0]] == poset.components[idx[1]]
        oracle = interval_homotopy_exists(sx, sy, f, g, max_m=4)
        if connected:
            found_positive += 1
            fence = poset.fence(idx[0], idx[1])
            assert homotopy_from_fence(sx, sy, fence)
        else:
            found_negative += 1
            assert not oracle
        if oracle:
            assert connected
    assert found_positive >= 5 and found_negative >= 5


def test_fence_agrees_with_interval_model_on_wedge():
    wedge_space = load_fixture("z2-wedge").space
    ident = SpaceMap.identity(wedge_space)
    const = SpaceMap.constant(wedge_space, wedge_space, "w")
    assert interval_homotopy_exists(wedge_space, wedge_space, ident, const)
    d2 = discrete_space(["a", "b"])
    ida = SpaceMap.identity(d2)
    cb = SpaceMap.constant(d2, d2, "a")
    assert not interval_homotopy_exists(d2, d2, ida, cb)
    assert not are_homotopic(ida, cb)


def test_check_homotopy_preservation_cases():
    wedge = fixture_pa("z2-wedge")
    ident = SpaceMap.identity(wedge.space)
    const = SpaceMap.constant(wedge.space, wedge.space, "w")
    assert are_G_homotopic(ident, const, wedge, wedge)
    assert envelopes_G_homotopic(ident, const, wedge, wedge)
    assert envelopes_G_homotopic(ident, ident, wedge, wedge)
    assert run_claim("homotopy-preservation", load_fixture("z2-wedge")).status == "holds"

    # not G-homotopic, so the implication has no premise here
    z2pair = fixture_pa("z2-pair")
    collapse = SpaceMap.from_dict(z2pair.space, z2pair.space,
                                  {"a": "a", "b": "a"})
    assert not are_G_homotopic(SpaceMap.identity(z2pair.space), collapse,
                               z2pair, z2pair)


def test_check_g_contractibility_theorem_cases():
    assert run_claim("g-contractible", load_fixture("z2-wedge")).status == "holds"
    assert run_claim("g-contractible", load_fixture("pt")).status == "holds"
    rep = run_claim("g-contractible", load_fixture("z4-circle"))
    assert rep.status == "precondition-unmet"


def test_every_finite_space_is_locally_contractible_sanity():
    # at this scale local contractibility is degenerate: the minimal open
    # set of a point is a cone over it, so it contracts inside any
    # neighbourhood; assert that for the fixture spaces and their
    # globalizations so the degenerate statement stays visibly true
    from pact import subspace
    spaces = []
    for name in ["pt", "z2-pair", "z2-wedge", "z4-circle", "z4-half"]:
        inst = load_fixture(name)
        spaces.append(inst.space)
        spaces.append(globalize(inst.embedded_pa).total)
    for space in spaces:
        for x in space.points:
            for u in enumerate_opens(space):
                if x not in u:
                    continue
                v = space.min_open_of(x)
                assert v <= u
                sub_v = subspace(space, v)
                sub_u = subspace(space, u)
                inclusion = SpaceMap.from_dict(sub_v, sub_u, {p: p for p in sub_v.points})
                const = SpaceMap.constant(sub_v, sub_u, x)
                assert all(sub_u.leq(a, b) for a, b in
                           zip(inclusion.assignment, const.assignment))


def test_trivial_full_action_is_g_contractible_iff_contractible():
    z2 = cyclic_group(2)
    wedge_space = load_fixture("z2-wedge").space
    triv = trivial_action(z2, wedge_space)
    assert g_contract(triv).value
    circle_triv = trivial_action(z2, c8())
    assert not g_contract(circle_triv).value
