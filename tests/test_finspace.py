from __future__ import annotations

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pact import (BoundExceeded, Bounds, FinSpace, InternalCheckError, SpaceMap,
                  ValidationError, core, discrete_space, enumerate_G_maps,
                  enumerate_monotone_maps, enumerate_opens, parse_instance,
                  is_closed, is_continuous, is_open, is_open_map, is_T1,
                  load_fixture, pair_label, product, quotient,
                  space_from_min_opens, split_pair_label, subspace,
                  t0_quotient)
from pact.finspace import (WIDE_MASK_BITS, _search_maps, bit_indices, column_masks,
                           equivalence_classes, monotonicity_violation, spread)
from oracle import (LabelSpaceMap, assert_same_search, brute_opens,
                    closure_quotient_order, column_masks_by_definition,
                    copying_search_maps, exhaustive_equivalence_classes, find_homeomorphism,
                    first_monotone_violation, is_down_set,
                    label_core, label_is_open_map, label_is_T1,
                    label_product, label_quotient, label_space_from_min_opens,
                    label_subspace, label_t0_quotient, mask_space, pairs_inside,
                    preimage_continuous, random_partition, space_violation,
                    spread_by_definition)
from gen import (c8, cone_raw, fence_document, outcome, random_preorder_space, random_space,
                 with_projections)


def test_space_from_min_opens_validates():
    space = space_from_min_opens(["a", "b"], {"a": ["a"], "b": ["b"]})
    assert space.min_open_of("a") == {"a"} and "a" not in space.min_open_of("b")
    with pytest.raises(ValidationError) as err:
        space_from_min_opens(["a", "b"], {"a": ["b"], "b": ["b"]})
    assert err.value.axiom == "min-open-membership"
    # U_b = {b} contained in U_a = {a, b}: nesting holds, so this is valid
    space_from_min_opens(["a", "b"], {"a": ["a", "b"], "b": ["b"]})


def test_nesting_violation_reported():
    with pytest.raises(ValidationError) as err:
        space_from_min_opens(
            ["a", "b", "c"],
            {"a": ["a", "b"], "b": ["b", "c"], "c": ["c"]})
    assert err.value.axiom == "min-open-nesting"
    # U_q, U_r and U_s all leave U_p: the witness is the first in point
    # order, whatever order the label sets iterate in
    nest = {"p": ["p", "q", "r", "s"], "q": ["q", "t"], "r": ["r", "t"], "s": ["s", "t"],
            "t": ["t"]}
    for build in (space_from_min_opens, label_space_from_min_opens):
        assert outcome(build, list(nest), nest) == \
            ("ValidationError", "min-open-nesting", ("q", "p", "t"))


def test_witnesses_name_the_least_unknown_label():
    """Whatever order a label set iterates in, unknown labels name the
    least one, and a point in two classes is the first in point order."""
    space = discrete_space(["a", "b", "c"])
    unknown = {"zz", "qq", "yy", "a"}
    least = ("ValidationError", "unknown-point", ("qq",))
    for build in (space_from_min_opens, label_space_from_min_opens):
        assert outcome(build, ["a"], {"a": unknown}) == least
    for check in (space.mask_of, lambda s: is_open(space, s), lambda s: subspace(space, s),
                  lambda s: quotient(space, [s])):
        assert outcome(check, unknown) == least
    for build in (quotient, label_quotient):
        assert outcome(build, space, [{"a", "b", "c"}, {"c", "b"}]) == \
            ("ValidationError", "not-a-partition", ("b",))


def test_c8_is_valid_by_independent_nesting_scan():
    space = c8()
    raw = {p: sorted(space.min_open_of(p)) for p in space.points}
    assert space_violation(list(space.points), raw) is None


def test_is_open_examples():
    space = c8()
    assert is_open(space, {"a0"})
    assert not is_open(space, {"c0"})
    assert is_closed(space, {"c0"})
    assert is_open(space, set()) and is_closed(space, set())
    with pytest.raises(ValidationError):
        is_open(space, {"zz"})


def test_open_iff_union_of_min_opens(rng):
    for _ in range(25):
        points, min_open = random_preorder_space(rng, 6)
        space = space_from_min_opens(points, min_open)
        family = brute_opens(points, min_open)
        for _ in range(100):
            subset = frozenset(p for p in points if rng.random() < 0.5)
            assert is_open(space, subset) == (subset in family)


def test_open_iff_union_of_min_opens_on_fixture_spaces(rng):
    for name in ("pt", "z2-pair", "z2-wedge", "z2-pair-sq", "z4-circle",
                 "z4-half"):
        space = load_fixture(name).space
        raw = {p: sorted(space.min_open_of(p)) for p in space.points}
        family = brute_opens(list(space.points), raw)
        for _ in range(100):
            subset = frozenset(p for p in space.points if rng.random() < 0.5)
            assert is_open(space, subset) == (subset in family)


def test_enumerate_opens_matches_brute():
    space = c8()
    raw = {p: sorted(space.min_open_of(p)) for p in space.points}
    assert set(enumerate_opens(space)) == brute_opens(list(space.points), raw)
    assert len(enumerate_opens(space)) == 47


def test_product_examples():
    space = c8()
    pt = discrete_space(["x"])
    prod, p1, p2 = with_projections(pt, space)
    assert find_homeomorphism(prod, space) is not None
    assert is_continuous(p1) and is_continuous(p2)
    assert is_open_map(p2)

    d2 = discrete_space(["a", "b"])
    sq = product(d2, d2)
    assert len(sq) == 4
    assert all(sq.min_open_of(p) == frozenset({p}) for p in sq.points)

    big = product(space, d2)
    assert len(big) == 16
    assert big.min_open_of(pair_label("c0", "a")) == \
        frozenset({pair_label("a3", "a"), pair_label("c0", "a"), pair_label("a0", "a")})


def test_product_projections_and_min_opens_exhaustively():
    space = c8()
    d2 = discrete_space(["a", "b"])
    for left, right in ((space, d2), (d2, space), (d2, d2)):
        prod, p1, p2 = with_projections(left, right)
        assert is_continuous(p1) and is_continuous(p2)
        assert is_open_map(p1) and is_open_map(p2)
        for x in left.points:
            for y in right.points:
                expected = {pair_label(u, v)
                            for u in left.min_open_of(x)
                            for v in right.min_open_of(y)}
                assert prod.min_open_of(pair_label(x, y)) == frozenset(expected)


def test_pair_label_roundtrip():
    assert split_pair_label(pair_label("a", "b")) == ("a", "b")
    nested = pair_label(pair_label("a", "b"), "c")
    assert split_pair_label(nested) == (pair_label("a", "b"), "c")
    assert split_pair_label("plain") is None


def test_quotient_examples():
    space = c8()
    identity_classes = [[p] for p in space.points]
    q, proj = quotient(space, identity_classes)
    assert find_homeomorphism(q, space) is not None
    assert proj.is_bijective()

    q1, _ = quotient(space, [list(space.points)])
    assert len(q1) == 1

    classes = [["a0", "a2"], ["a1", "a3"], ["c0", "c2"], ["c1", "c3"]]
    q4, proj4 = quotient(space, classes)
    assert len(q4) == 4
    opens = {frozenset(s) for s in enumerate_opens(q4)}
    arcs = {"a0", "a1"}
    corners = {"c0", "c1"}
    assert frozenset() in opens and frozenset(q4.points) in opens
    # 2 open points (the arc classes), 2 closed points (the corner classes)
    assert is_open(q4, {"a0"}) and is_open(q4, {"a1"})
    assert is_closed(q4, {"c0"}) and is_closed(q4, {"c1"})
    assert q4.min_open_of("c0") == frozenset({"a0", "a1", "c0"})

    with pytest.raises(ValidationError) as err:
        quotient(space, [["a0"], ["a0", "a1"]])
    assert err.value.axiom == "not-a-partition"


def test_quotient_opens_match_brute_preimage_family(rng):
    for _ in range(12):
        points, min_open = random_preorder_space(rng, 8)
        space = space_from_min_opens(points, min_open)
        classes = random_partition(rng, list(points))
        q, proj = quotient(space, classes)
        source_opens = brute_opens(points, min_open)
        raw_q = {p: sorted(q.min_open_of(p)) for p in q.points}
        quotient_opens = brute_opens(list(q.points), raw_q)
        expected = set()
        for subset_size in range(len(q.points) + 1):
            for combo in itertools.combinations(q.points, subset_size):
                a = frozenset(combo)
                pre = frozenset(x for x in points if proj(x) in a)
                if pre in source_opens:
                    expected.add(a)
        assert quotient_opens == expected


def test_quotient_and_is_open_match_closure_oracle(rng):
    # up to 80 points, so masks span two machine words; sparse relations keep
    # the transitive closures from collapsing every space into one class
    for _ in range(12):
        points, min_open = random_preorder_space(rng, 80, density=0.02)
        space = space_from_min_opens(points, min_open)
        classes = random_partition(rng, list(points))
        q, proj = quotient(space, classes)
        labels = [proj(cls[0]) for cls in classes]
        assert all(proj(x) == labels[k] for k, cls in enumerate(classes) for x in cls)
        below = closure_quotient_order(list(points), min_open, classes)
        for k in range(len(classes)):
            assert q.min_open_of(labels[k]) == {labels[i] for i in below[k]}
        for _ in range(20):
            subset = set(rng.sample(points, rng.randint(0, len(points))))
            assert is_open(space, subset) == is_down_set(min_open, subset)
            opened = set()
            for y in subset:
                opened |= set(min_open[y])
            assert is_open(space, opened) and is_down_set(min_open, opened)
            if opened:
                opened.discard(rng.choice(sorted(opened)))
                assert is_open(space, opened) == is_down_set(min_open, opened)


def test_subspace_examples():
    space = c8()
    assert subspace(space, space.points) == space
    single = subspace(space, {"a0"})
    assert single.points == ("a0",)
    fan = subspace(space, {"a3", "c0", "a0"})
    assert fan.min_open_of("c0") == frozenset({"a3", "c0", "a0"})
    assert fan.min_open_of("a0") == frozenset({"a0"})
    with pytest.raises(ValidationError):
        subspace(space, set())


def test_continuity_examples():
    space = c8()
    ident = SpaceMap.identity(space)
    assert is_continuous(ident) and is_open_map(ident)
    const = SpaceMap.constant(space, space, "c0")
    assert is_continuous(const)
    table = {p: p for p in space.points}
    table["a0"] = "c0"
    bad = SpaceMap.from_dict(space, space, table)
    assert not is_continuous(bad)


def test_continuity_monotone_iff_preimage(rng):
    samples = 0
    while samples < 120:
        px, mx = random_preorder_space(rng, 6, prefix="x")
        py, my = random_preorder_space(rng, 6, prefix="y")
        sx = space_from_min_opens(px, mx)
        sy = space_from_min_opens(py, my)
        assignment = {x: rng.choice(py) for x in px}
        m = SpaceMap.from_dict(sx, sy, assignment)
        assert is_continuous(m) == preimage_continuous(px, mx, py, my, assignment)
        samples += 1


def test_open_map_agrees_with_definition(rng):
    for _ in range(40):
        px, mx = random_preorder_space(rng, 5, prefix="x")
        py, my = random_preorder_space(rng, 5, prefix="y")
        sx = space_from_min_opens(px, mx)
        sy = space_from_min_opens(py, my)
        m = SpaceMap.from_dict(sx, sy, {x: rng.choice(py) for x in px})
        opens_y = brute_opens(py, my)
        direct = all(frozenset(m(p) for p in u) in opens_y
                     for u in brute_opens(px, mx))
        assert is_open_map(m) == direct


def test_find_homeomorphism_examples():
    space = c8()
    found = find_homeomorphism(space, space)
    assert found is not None
    assert found.assignment == space.points  # identity is the first witness
    q4, _ = quotient(space, [["a0", "a2"], ["a1", "a3"], ["c0", "c2"], ["c1", "c3"]])
    assert find_homeomorphism(space, q4) is None
    with pytest.raises(BoundExceeded):
        find_homeomorphism(space, space, max_points=4)


def _iso_exists_by_scan(a, b) -> bool:
    if len(a) != len(b):
        return False
    for image in itertools.permutations(b.points):
        table = dict(zip(a.points, image))
        if all((x in a.min_open_of(y)) == (table[x] in b.min_open_of(table[y]))
               for x in a.points for y in a.points):
            return True
    return False


def test_find_homeomorphism_completeness_vs_bijections(rng):
    # relabelled copies must always be found, and arbitrary pairs must agree
    # with the exhaustive bijection scan in both directions
    for _ in range(25):
        points, min_open = random_preorder_space(rng, 5)
        a = space_from_min_opens(points, min_open)
        perm = list(points)
        rng.shuffle(perm)
        rename = dict(zip(points, perm))
        b = space_from_min_opens(
            [rename[p] for p in points],
            {rename[p]: [rename[q] for q in min_open[p]] for p in points})
        found = find_homeomorphism(a, b)
        assert found is not None
        assert found.is_bijective()
        assert is_continuous(found) and is_continuous(found.inverse())

        # non-isomorphic pair: add one point on top of a
        taller = space_from_min_opens(
            list(points) + ["zz"],
            {**{p: list(min_open[p]) for p in points}, "zz": list(points) + ["zz"]})
        assert find_homeomorphism(a, taller) is None

    for _ in range(25):
        _assert_homeomorphism_search_is_exact(random_space(rng, 5, "u"),
                                              random_space(rng, 5, "v"))


def _assert_homeomorphism_search_is_exact(a, b):
    found = find_homeomorphism(a, b)
    assert (found is not None) == _iso_exists_by_scan(a, b)
    if found is not None:
        assert is_continuous(found) and is_continuous(found.inverse())


def test_find_homeomorphism_compares_colors_across_the_spaces():
    # a 3-chain plus an isolated point, listed in two orders: refined one
    # space at a time, each space numbered its colors (0, 1, 2, 3) by first
    # appearance, which paired unrelated points and missed the isomorphism
    a = FinSpace(("u0", "u1", "u2", "u3"), (11, 2, 4, 10))
    b = FinSpace(("v0", "v1", "v2", "v3"), (5, 2, 4, 13))
    assert find_homeomorphism(a, b) is not None
    _assert_homeomorphism_search_is_exact(a, b)


def test_t0_quotient_examples():
    space = c8()
    q, _ = t0_quotient(space)
    assert find_homeomorphism(q, space) is not None

    indiscrete = space_from_min_opens(["u", "v"], {"u": ["u", "v"], "v": ["u", "v"]})
    qq, proj = t0_quotient(indiscrete)
    assert len(qq) == 1 and is_continuous(proj)

    pts = list(space.points) + ["u", "v"]
    min_open = {p: sorted(space.min_open_of(p)) for p in space.points}
    min_open.update({"u": ["u", "v"], "v": ["u", "v"]})
    disjoint = space_from_min_opens(pts, min_open)
    q9, _ = t0_quotient(disjoint)
    assert len(q9) == 9


def test_is_t1_examples():
    assert is_T1(discrete_space(["a", "b", "c"]))
    assert not is_T1(c8())
    assert is_T1(discrete_space(["x"]))


def test_enumerate_monotone_maps_counts_and_order():
    pt = discrete_space(["x"])
    space = c8()
    assert len(enumerate_monotone_maps(pt, space)) == 8
    d2 = discrete_space(["a", "b"])
    rows = enumerate_monotone_maps(d2, d2)
    assert rows == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [SpaceMap(d2, d2, row).assignment for row in rows] == \
        [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    with pytest.raises(BoundExceeded):
        enumerate_monotone_maps(space, space, Bounds(max_maps=100))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_trail_search_matches_copying_search(seed):
    # random candidate masks and random blocks on random spaces, each
    # member's value a random permutation of the block representative's:
    # the in-place search yields the copying search's rows and, under
    # every node budget and map cap, its BoundExceeded, so it visits the
    # same nodes in order
    rng = random.Random(seed)
    source, target = (space_from_min_opens(*random_preorder_space(
        rng, 5, prefix, rng.uniform(0.1, 0.4))) for prefix in "xy")
    n, m = len(source), len(target)
    full = (1 << m) - 1
    allowed = [full if rng.random() < 0.8 else rng.randrange(full + 1) for _ in range(n)]
    points = list(range(n))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    forth = [rng.sample(range(m), m) for _ in range(n)]
    back = [[row.index(v) for v in range(m)] for row in forth]
    blocks: list[tuple] = [()] * n
    moves: list[list] = [[] for _ in range(n)]
    for block in (points[a:b] for a, b in zip([0] + cuts, cuts + [n])):
        if len(block) == 1:
            continue
        members = tuple((x, forth[x]) for x in sorted(block))
        for x in block:
            blocks[x] = (back[x], members)
            moves[x] = [(y, [forth[y][back[x][v]] for v in range(m)])
                        for y in block if y != x]
    assert_same_search(
        lambda budget, cap: _search_maps(source, target, allowed, blocks, budget, cap),
        lambda budget, cap: copying_search_maps(source, target, allowed, moves, budget, cap),
        rng, max_budgets=100)


def test_empty_source_has_one_map():
    # Hom(empty, Y) holds the empty map, found at no node, which a map cap
    # of 0 still stops; Hom(Y, empty) is empty
    empty, two = FinSpace((), ()), discrete_space(["a", "b"])
    assert enumerate_monotone_maps(empty, two) == [()]
    assert enumerate_monotone_maps(empty, empty) == [()]
    assert enumerate_monotone_maps(two, empty) == []
    for source, target in [(empty, two), (empty, empty), (two, empty)]:
        full = [(1 << len(target)) - 1] * len(source)
        moves = [[] for _ in source.points]
        assert_same_search(
            lambda budget, cap: enumerate_monotone_maps(source, target,
                                                        Bounds(map_nodes=budget, max_maps=cap)),
            lambda budget, cap: copying_search_maps(source, target, full, moves, budget, cap),
            random.Random(0))


@pytest.mark.parametrize("length, nodes", [(4, 1431), (5, 10801), (None, 9361)],
                         ids=["fence7", "fence9", "cone6"])
def test_replayed_subtrees_match_copying_search(rng, length, nodes):
    # self-maps of fences and of a cone, where the search meets the same
    # unassigned candidates many times and replays those subtrees: the
    # rows, the full node count and every bound still match the copying
    # search's, with budgets and caps that stop inside repeated subtrees
    space = (space_from_min_opens(*cone_raw(5)) if length is None
             else parse_instance(fence_document(length)).space)
    full = [(1 << len(space)) - 1] * len(space)
    moves = [[] for _ in space.points]
    repeats: list = []
    copying_search_maps(space, space, full, moves, 1 << 40, 1 << 40, repeats)
    assert len(repeats) > 100
    assert assert_same_search(
        lambda budget, cap: enumerate_monotone_maps(space, space,
                                                    Bounds(map_nodes=budget, max_maps=cap)),
        lambda budget, cap: copying_search_maps(space, space, full, moves, budget, cap),
        rng, max_budgets=30, extra=pairs_inside(rng, repeats)) == nodes


def test_search_leaves_no_reference_cycle():
    # the search's inner function refers to itself; unbinding it when the
    # search ends, or when a bound stops it, leaves the collector nothing
    fence = parse_instance(fence_document(5)).pa
    space = fence.space
    searches = [lambda: enumerate_monotone_maps(space, space, Bounds(max_maps=10000)),
                lambda: enumerate_monotone_maps(space, space, Bounds(map_nodes=5000)),
                lambda: enumerate_G_maps(fence, fence, Bounds(max_maps=3000))]
    gc.collect()
    gc.disable()
    try:
        for search in searches:
            try:
                search()
            except BoundExceeded:
                pass
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("m", [1, 5, 40, 300])
def test_column_masks_match_definition(rng, m):
    # m = 300 takes the one-shift-per-entry branch for values past a byte
    for rows_n in (0, 1, 7, 200):
        width = rng.randint(1, 5)
        rows = [tuple(rng.randrange(m) for _ in range(width)) for _ in range(rows_n)]
        assert column_masks(rows, width, m) == column_masks_by_definition(rows, width, m)


def _total_preorder(rng, m: int) -> FinSpace:
    """m points on random levels, each below every point on its level or
    above: a preorder, not T0 once two points share a level."""
    level = [rng.randrange(max(1, m // 3)) for _ in range(m)]
    return FinSpace(tuple(f"p{i}" for i in range(m)),
                    tuple(sum(1 << i for i in range(m) if level[i] <= level[j])
                          for j in range(m)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 1, 4, 2000]),
       st.sampled_from(["small", "wide"]))
def test_spread_matches_definition(seed, rows_n, size):
    """``spread`` against the rows tested one at a time, with down and up
    masks: on tables of 0, 1, a few and thousands of rows, over small
    random preorders and over targets past a byte of values (the other
    branch of ``column_masks``), non-T0 ones included."""
    rng = random.Random(seed)
    if size == "small":
        target = space_from_min_opens(*random_preorder_space(rng, 8, density=0.4))
    else:
        target = _total_preorder(rng, rng.randint(257, 300))
    m, width = len(target), rng.randint(1, 3)
    rows = [tuple(rng.randrange(m) for _ in range(width)) for _ in range(rows_n)]
    columns = column_masks(rows, width, m)
    for masks in (target.down, target._up_masks):
        assert spread(columns, masks) == spread_by_definition(columns, masks)


def _tables(rows, rng=None, extra: int = 0) -> list[list[int]]:
    """Index tables whose row i is the index mask ``rows[i]``: table k
    holds the k-th member of each row, -1 past its end.  With ``rng``, each
    row's members are shuffled and up to ``extra`` of them repeated, as an
    isotropy group repeats a step's target."""
    lists = []
    for mask in rows:
        members = bit_indices(mask)
        if rng is not None and members:
            members += [rng.choice(members) for _ in range(rng.randint(0, extra))]
            rng.shuffle(members)
        lists.append(members)
    width = max(1, max(map(len, lists)))
    return [[row[k] if k < len(row) else -1 for row in lists] for k in range(width)]


def _rows(tables) -> list[int]:
    """The index mask of each row of ``tables``: the relation they give."""
    return [sum(1 << j for j in set(column) if j >= 0) for column in zip(*tables)]


def test_equivalence_classes_order_and_internal_checks():
    # classes {a, c} and {b}, listed by least member
    assert equivalence_classes(_tables([0b101, 0b010, 0b101]), "R", "abc".__getitem__) \
        == ([0, 1, 0], [[0, 2], [1]])
    # a repeated or undefined step changes no row
    assert equivalence_classes([[0, 1, 2], [2, -1, 0], [0, 1, 0]], "R", "abc".__getitem__) \
        == ([0, 1, 0], [[0, 2], [1]])
    for rel, broken in (([0b10, 0b10], "not reflexive at 'a'"),
                        ([0b11, 0b10], r"not symmetric at \('a', 'b'\)"),
                        ([0b011, 0b111, 0b110],
                         r"not transitive through \('a', 'b'\)"),
                        # rows {a, b} at a and c, {b, d} at b and d: a opens
                        # {a, b}, b's row stays in it but is a row of its
                        # own, and c is not in its own row
                        ([0b0011, 0b1010, 0b0011, 0b1010],
                         r"not symmetric at \('a', 'b'\)")):
        with pytest.raises(InternalCheckError, match="R " + broken):
            equivalence_classes(_tables(rel), "R", "abcd".__getitem__)


def _corrupted_tables(rng, kind: str) -> list[list[int]]:
    """The step tables of a random partition of range(n), each row listing
    its index's class in random order with repeats, corrupted by ``kind``.
    On the rows: two classes merged in the rows of both classes or of one
    only, a class split in the rows of both parts or of one only, a class's
    rows replaced by another set as large with the same least member, one
    related pair added one way (asymmetric) or both ways (not transitive
    unless both classes are singletons), one index dropped from its own
    row, or a few bits flipped anywhere.  On the tables: one entry
    rewritten to a random index, or one entry made undefined (-1), which
    changes a row only when that entry was its last copy of a member."""
    n = rng.randint(1, 12)
    label = [rng.randrange(n) for _ in range(n)]
    masks = {k: sum(1 << i for i in range(n) if label[i] == k) for k in set(label)}
    rel = [masks[label[i]] for i in range(n)]
    classes = list(masks.values())
    both = rng.random() < 0.5
    if kind == "merged" and len(classes) > 1:
        a, b = rng.sample(classes, 2)
        for i in bit_indices(a | b if both else a):
            rel[i] = a | b
    elif kind == "split" and any(m.bit_count() > 1 for m in classes):
        members = bit_indices(rng.choice([m for m in classes if m.bit_count() > 1]))
        rng.shuffle(members)
        cut = rng.randint(1, len(members) - 1)
        for part in (members[:cut], members[cut:]) if both else (members[:cut],):
            for i in part:
                rel[i] = sum(1 << j for j in part)
    elif kind in ("asymmetric", "non-transitive") and len(classes) > 1:
        i, j = rng.sample(range(n), 2)
        while label[i] == label[j]:
            i, j = rng.sample(range(n), 2)
        rel[i] |= 1 << j
        if kind == "non-transitive":
            rel[j] |= 1 << i
    elif kind == "same-size" and any(m.bit_count() > 1 for m in classes):
        members = bit_indices(rng.choice([m for m in classes if m.bit_count() > 1]))
        others = rng.sample(range(members[0] + 1, n), len(members) - 1)
        for i in members:
            rel[i] = sum(1 << j for j in [members[0]] + others)
    elif kind == "non-reflexive":
        i = rng.randrange(n)
        rel[i] &= ~(1 << i)
    elif kind == "random":
        for _ in range(rng.randint(1, 3)):
            rel[rng.randrange(n)] ^= 1 << rng.randrange(n)
    tables = _tables(rel, rng, extra=2)
    k, i = rng.randrange(len(tables)), rng.randrange(n)
    if kind == "entry-rewritten":
        tables[k][i] = rng.randrange(n)
    elif kind == "entry-undefined":
        tables[k][i] = -1
    return tables


def _class_outcome(tables):
    try:
        cls, members = equivalence_classes(tables, "R", "p{}".format)
    except InternalCheckError as exc:
        return "InternalCheckError", str(exc)
    assert cls == [c for i in range(len(cls)) for c, xs in enumerate(members) if i in xs]
    return "classes", [sum(1 << i for i in xs) for xs in members]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["none", "merged", "split", "same-size", "asymmetric",
                        "non-transitive", "non-reflexive", "random",
                        "entry-rewritten", "entry-undefined"]))
def test_class_certificate_agrees_with_the_exhaustive_scan(seed, kind):
    """On valid and corrupted partitions, the certificate on the step
    tables returns the classes of the exhaustive scan of their rows, or
    raises its exact message."""
    tables = _corrupted_tables(random.Random(seed), kind)
    rows = _rows(tables)
    try:
        want = "classes", exhaustive_equivalence_classes(rows, "R", "p{}".format)
    except InternalCheckError as exc:
        want = "InternalCheckError", str(exc)
    assert _class_outcome(tables) == want


@st.composite
def preorder_tables(draw, max_points=5):
    """A valid minimal-open table as (points, table): a random relation on
    p0, p1, ..., closed reflexively and transitively."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    points = [f"p{i}" for i in range(n)]
    rel = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.booleans()):
                rel[i][j] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return points, {points[j]: [points[i] for i in range(n) if rel[i][j]]
                    for j in range(n)}


@st.composite
def small_spaces(draw, max_points=5):
    return space_from_min_opens(*draw(preorder_tables(max_points)))


@settings(max_examples=60, deadline=None)
@given(small_spaces(), st.data())
def test_opens_closed_under_union_and_intersection(space, data):
    opens = enumerate_opens(space)
    u = data.draw(st.sampled_from(opens))
    v = data.draw(st.sampled_from(opens))
    assert is_open(space, u | v)
    assert is_open(space, u & v)
    assert is_closed(space, frozenset(space.points) - u)


@settings(max_examples=40, deadline=None)
@given(small_spaces())
def test_t0_quotient_is_t0_idempotent_and_continuous(space):
    q, proj = t0_quotient(space)
    assert is_continuous(proj)
    for x in q.points:
        for y in q.points:
            if x != y:
                assert not (x in q.min_open_of(y) and y in q.min_open_of(x))
    again, _ = t0_quotient(q)
    assert find_homeomorphism(again, q) is not None


@settings(max_examples=40, deadline=None)
@given(small_spaces(), small_spaces())
def test_projection_sections_compose_to_identity(a, b):
    prod, p1, p2 = with_projections(a, b)
    for y in b.points:
        section = SpaceMap.from_dict(a, prod, {x: pair_label(x, y) for x in a.points})
        assert is_continuous(section)
        assert tuple(map(p1, section.assignment)) == a.points


@st.composite
def shuffled_spaces(draw, max_points=8):
    """A small space whose point order is not its label order."""
    space = draw(small_spaces(max_points))
    order = draw(st.permutations(space.points))
    return space_from_min_opens(order, {p: space.min_open_of(p) for p in order})


def raw_min_opens(space):
    return {p: space.min_open_of(p) for p in space.points}


@settings(max_examples=200, deadline=None)
@given(shuffled_spaces(), shuffled_spaces(), st.data())
def test_monotonicity_kernel_matches_pairwise_oracle(a, b, data):
    n = len(a)
    image = data.draw(st.lists(st.integers(0, len(b) - 1), min_size=n, max_size=n))
    subset = data.draw(st.integers(0, (1 << n) - 1))
    assignment = {x: b.points[j] for x, j in zip(a.points, image)}
    kept = [x for i, x in enumerate(a.points) if subset >> i & 1]
    found = monotonicity_violation(a.down, subset, image, b.down)
    expected = first_monotone_violation(list(a.points), raw_min_opens(a),
                                        raw_min_opens(b), assignment, kept)
    if expected is None:
        assert found is None
    else:
        assert found == (a.index(expected[0]), a.index(expected[1]))
    if kept:
        sub = subspace(a, kept)
        monotone = preimage_continuous(list(sub.points), raw_min_opens(sub),
                                       list(b.points), raw_min_opens(b),
                                       assignment)
        assert monotone == (found is None)


@settings(max_examples=150, deadline=None)
@given(shuffled_spaces(), shuffled_spaces(), st.data())
def test_is_continuous_matches_preimage_oracle(a, b, data):
    values = data.draw(st.lists(st.sampled_from(b.points),
                                min_size=len(a), max_size=len(a)))
    m = SpaceMap.from_dict(a, b, dict(zip(a.points, values)))
    assert is_continuous(m) == preimage_continuous(
        list(a.points), raw_min_opens(a), list(b.points), raw_min_opens(b),
        m.as_dict())


def test_compose_and_inverse():
    d2 = discrete_space(["a", "b"])
    swap = SpaceMap.from_dict(d2, d2, {"a": "b", "b": "a"})
    assert tuple(map(swap, swap.assignment)) == ("a", "b")
    assert swap.inverse().assignment == ("b", "a")
    const = SpaceMap.constant(d2, d2, "a")
    with pytest.raises(ValidationError):
        const.inverse()


@settings(max_examples=150, deadline=None)
@given(shuffled_spaces(5), shuffled_spaces(5), st.data())
def test_index_row_maps_match_label_maps(a, b, data):
    # the index-row SpaceMap against the label SpaceMap it replaced, on
    # random rows between shuffled spaces (including bijections)
    if len(a) == len(b) and data.draw(st.booleans()):
        row_f = tuple(data.draw(st.permutations(range(len(b)))))
    else:
        row_f = tuple(data.draw(st.lists(st.integers(0, len(b) - 1),
                                         min_size=len(a), max_size=len(a))))
    f, label_f = SpaceMap(a, b, row_f), LabelSpaceMap.from_row(a, b, row_f)
    assert f.assignment == label_f.assignment
    assert [f(x) for x in a.points] == [label_f(x) for x in a.points]
    assert f.as_dict() == label_f.as_dict()
    assert f.is_bijective() == label_f.is_bijective()
    if f.is_bijective():
        assert f.inverse().assignment == label_f.inverse().assignment
    else:
        with pytest.raises(ValidationError):
            f.inverse()
    assert SpaceMap.from_dict(a, b, label_f.as_dict()) == f
    assert is_continuous(f) == preimage_continuous(
        list(a.points), raw_min_opens(a), list(b.points), raw_min_opens(b),
        label_f.as_dict())
    assert is_open_map(f) == label_is_open_map(label_f)
    assert SpaceMap.identity(a).assignment == a.points
    assert SpaceMap.constant(a, b, b.points[-1]).assignment == (b.points[-1],) * len(a)


def _bit_indices_by_loop(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 63, 64, 65, WIDE_MASK_BITS - 1, WIDE_MASK_BITS,
                        WIDE_MASK_BITS + 1, 2 * WIDE_MASK_BITS, 5000]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.02, 0.5, 1.0]))
def test_bit_indices_matches_the_loop_on_both_sides_of_the_cutoff(width, seed, density):
    rng = random.Random(seed)
    # the top bit is set, so the mask is exactly ``width`` bits wide
    mask = 1 << (width - 1)
    for i in range(width - 1):
        if rng.random() < density:
            mask |= 1 << i
    assert bit_indices(mask) == _bit_indices_by_loop(mask)
    assert bit_indices(0) == []


# ---------------------------------------------------------------------------
# the down-set mask FinSpace against the label FinSpace it replaced


@st.composite
def shuffled_tables(draw, max_points=6):
    """A valid minimal-open table in a random point order, under labels
    whose lexicographic order is not the point order either."""
    points, table = draw(preorder_tables(max_points))
    names = dict(zip(points, draw(st.permutations([f"q{i}" for i in range(len(points))]))))
    order = draw(st.permutations(points))
    return ([names[p] for p in order],
            {names[p]: [names[q] for q in table[p]] for p in order})


def _assert_same_space(space, ref):
    """``space`` and the label space ``ref`` are one space: same points,
    same minimal opens through both views, same down-set masks, same order."""
    assert space.points == ref.points
    assert [space.min_open_of(p) for p in space.points] == list(ref.min_open)
    assert space == mask_space(ref) and hash(space) == hash(mask_space(ref))


def _outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return exc.axiom, exc.witness


@settings(max_examples=120, deadline=None)
@given(shuffled_tables(), shuffled_tables(4), st.data())
def test_mask_space_matches_label_space(a_table, b_table, data):
    a, la = space_from_min_opens(*a_table), label_space_from_min_opens(*a_table)
    b, lb = space_from_min_opens(*b_table), label_space_from_min_opens(*b_table)
    _assert_same_space(a, la)
    _assert_same_space(b, lb)

    prod, p1, p2 = with_projections(a, b)
    assert prod == product(a, b)
    lprod, lp1, lp2 = label_product(la, lb)
    _assert_same_space(prod, lprod)
    assert (p1.assignment, p2.assignment) == (lp1.assignment, lp2.assignment)

    subset = data.draw(st.lists(st.sampled_from(a.points), min_size=1))
    _assert_same_space(subspace(a, subset), label_subspace(la, subset))

    classes = random_partition(random.Random(data.draw(st.integers(0, 2 ** 32 - 1))),
                               list(a.points))
    for (q, proj), (lq, lproj) in ((quotient(a, classes), label_quotient(la, classes)),
                                   (t0_quotient(a), label_t0_quotient(la))):
        _assert_same_space(q, lq)
        assert proj.assignment == lproj.assignment
    _assert_same_space(core(a), label_core(la))
    assert is_T1(a) == label_is_T1(la)

    # equality and hash follow the label form, whichever route built it
    again = space_from_min_opens(a.points, {p: a.min_open_of(p) for p in a.points})
    assert again == a and hash(again) == hash(a)
    assert (a == b) == (la == lb)
    assert (prod == a) == (lprod == la)


@settings(max_examples=120, deadline=None)
@given(shuffled_tables(), st.data())
def test_space_from_min_opens_rejects_as_the_label_constructor(table, data):
    points, opens = table
    opens = {p: list(u) for p, u in opens.items()}
    p = data.draw(st.sampled_from(points))
    edit = data.draw(st.sampled_from(["drop", "add", "ghost", "missing", "duplicate"]))
    if edit == "drop":
        opens[p].remove(data.draw(st.sampled_from(opens[p])))
    elif edit == "add":
        opens[p].append(data.draw(st.sampled_from(points)))
    elif edit == "ghost":
        opens[p].append("ghost")
    elif edit == "missing":
        del opens[p]
    else:
        points = points + [p]
    got = _outcome(lambda: space_from_min_opens(points, opens))
    want = _outcome(lambda: label_space_from_min_opens(points, opens))
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_space(got, want)
