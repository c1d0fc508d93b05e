"""The certificates that replace the full validator on the actions pact
builds: global actions checked on a generating set, diagonal products
checked coordinate by coordinate, subgroup restrictions that reuse the
parent's tables, and restrictions to open or invariant open sets that
re-index them.  Each certified result must equal the validator's run on
its own label views, field by field, and each broken input must fail
exactly as the validator fails, or as an internal error where a
certificate catches it."""
from __future__ import annotations

import dataclasses
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pact import (DEFAULT_BOUNDS, FinSpace, InternalCheckError, PartialAction, Subgroup,
                  ValidationError, all_subgroups, cyclic_group, diagonal_product,
                  discrete_space, exit_code, fixture_dict, global_action, globalize,
                  is_G_map, is_locally_G_contractible, isotropy, load_fixture,
                  parse_instance, product, restrict_global,
                  restrict_invariant, restrict_to_subgroup, run_all, run_claim,
                  space_from_min_opens, trivial_action, twisted_product,
                  validate_group, validate_partial_action)
from pact.algebra import subgroup_generated
from pact.verify import CLAIMS
from pact.paction import _certify_diagonal, restrict_to_group
from oracle import label_restrict_global, random_preorder_space
from test_golden_generated import GOLDEN as GENERATED_GOLDEN
from test_algebra import s3_group
from test_paction import _outcome, _restricted

FIXTURES = ["pt", "z2-pair", "z2-swap", "z2-wedge", "z2-pair-sq",
            "z4-circle", "z4-half", "z4-arcs", "z4-from-z2-pair"]


def klein_group():
    elems = ["e", "a", "b", "c"]
    table = [["e", "a", "b", "c"], ["a", "e", "c", "b"],
             ["b", "c", "e", "a"], ["c", "b", "a", "e"]]
    return validate_group(elems, table, "e")


GROUPS = {"z2": lambda: cyclic_group(2), "z3": lambda: cyclic_group(3),
          "z4": lambda: cyclic_group(4), "klein": klein_group, "s3": s3_group}


def fields(pa):
    return (pa.group, pa.space, pa.domains, pa.thetas, pa.images, pa.domain_points)


def validated(pa):
    return validate_partial_action(pa.group, pa.space, pa.domains, pa.thetas)


def regular_action(rng, grp):
    """grp permuting |grp| disjoint copies of a random base space by left
    multiplication of the copy labels: a global action of any group."""
    base, base_mo = random_preorder_space(rng, 3)
    points = [f"{p}.{k}" for k in grp.elements for p in base]
    min_open = {f"{p}.{k}": [f"{q}.{k}" for q in base_mo[p]]
                for k in grp.elements for p in base}
    space = space_from_min_opens(points, min_open)
    return global_action(grp, space, {
        g: {f"{p}.{k}": f"{p}.{grp.mul(g, k)}" for k in grp.elements for p in base}
        for g in grp.elements})


def random_global(rng, kind):
    grp = GROUPS[rng.choice(sorted(GROUPS))]()
    if kind == "regular":
        return regular_action(rng, grp)
    if kind == "trivial":
        points, min_open = random_preorder_space(rng, 5)
        return trivial_action(grp, space_from_min_opens(points, min_open))
    # an envelope: the globalization of a restricted regular action
    return globalize(_restricted(rng, regular_action(rng, grp))).as_global_action()


# ---------------------------------------------------------------------------
# the generating set


@pytest.mark.parametrize("name, expected", [("z2", (1,)), ("z4", (1,)),
                                            ("klein", (1, 2)), ("s3", (1, 2))])
def test_generators_are_greedy_in_element_order(name, expected):
    grp = GROUPS[name]()
    assert grp.generators == expected
    labels = [grp.elements[s] for s in grp.generators]
    assert subgroup_generated(grp, labels).mask == (1 << len(grp)) - 1
    for k, s in enumerate(grp.generators):
        assert grp.elements[s] not in subgroup_generated(grp, labels[:k]).members
    assert grp.generators is grp.generators  # computed once per group


def test_generators_generate_every_subgroup_lattice_member():
    grp = s3_group()
    for sub in all_subgroups(grp):
        k = sub.as_group()
        gens = [k.elements[s] for s in k.generators]
        assert subgroup_generated(grp, gens).mask == sub.mask


# ---------------------------------------------------------------------------
# certified results equal the validator's


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["regular", "trivial", "envelope"]))
def test_certified_global_action_equals_validated(seed, kind):
    pa = random_global(random.Random(seed), kind)
    assert fields(pa) == fields(validated(pa))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_certified_subgroup_restriction_equals_validated(seed):
    rng = random.Random(seed)
    grp = GROUPS[rng.choice(sorted(GROUPS))]()
    pa = _restricted(rng, regular_action(rng, grp))
    for sub in all_subgroups(grp):
        res = restrict_to_subgroup(pa, sub)
        assert fields(res) == fields(validated(res))


def random_factors(seed):
    """Two restricted actions of one random group, the second trivial half
    of the time."""
    rng = random.Random(seed)
    grp = GROUPS[rng.choice(sorted(GROUPS))]()
    factors = [_restricted(rng, regular_action(rng, grp)) for _ in range(2)]
    if rng.random() < 0.5:
        factors[1] = _restricted(rng, trivial_action(grp, factors[1].space))
    return factors


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_certified_diagonal_product_equals_validated(seed):
    diag = diagonal_product(*random_factors(seed), max_points=10 ** 4)
    assert fields(diag) == fields(validated(diag))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_product_projections_are_G_maps_of_the_diagonal_product(seed):
    """What the diagonal certificate proves and no runtime check repeats:
    the projections of the product space are G-maps onto each factor."""
    a, b = random_factors(seed)
    diag = diagonal_product(a, b, max_points=10 ** 4)
    _, p1, p2 = product(a.space, b.space, max_points=10 ** 4)
    assert is_G_map(p1, diag, a) and is_G_map(p2, diag, b)


@pytest.mark.parametrize("name", FIXTURES)
def test_certified_constructions_equal_validated_on_fixtures(name):
    inst = load_fixture(name)
    pa = inst.embedded_pa
    env = twisted_product(pa, inst.big, max_pairs=10 ** 4)
    built = [env.as_global_action(), globalize(inst.pa).as_global_action(),
             trivial_action(inst.group, inst.space),
             diagonal_product(inst.pa, inst.pa, max_points=10 ** 4)]
    built += [restrict_to_subgroup(pa, sub) for sub in all_subgroups(pa.group)]
    # the K-restrictions of iota-k (of the envelope) and of adjunction (of Y)
    built += [restrict_to_group(env.as_global_action(), pa.group),
              restrict_to_group(trivial_action(inst.big, discrete_space(["y"])), pa.group)]
    # the restrictions of the local G-contractibility witness, on X and X_G
    for base in (pa, globalize(pa, max_pairs=10 ** 4).as_global_action()):
        for x in base.space.points:
            sub = restrict_to_subgroup(base, isotropy(base, x)[1])
            built.append(restrict_invariant(sub, base.space.min_open_of(x)))
    # the k-embedded action and the restrictions of recognition
    built.append(pa)
    for beta in (env.as_global_action(), globalize(pa).as_global_action()):
        for x in beta.space.points:
            built.append(restrict_global(beta, beta.space.min_open_of(x)))
    for certified in built:
        assert fields(certified) == fields(validated(certified))


def invariant_open(rng, pa):
    """A random open set saturated under pa: grown by every theta_g image
    until nothing is added, so it stays open and becomes invariant."""
    pts = pa.space.points
    v = set(pa.space.min_open_of(rng.choice(pts)))
    while True:
        grown = v | {pa.thetas[g][x] for g in pa.group.elements
                     for x in v & pa.domains[pa.group.inv(g)]}
        if grown == v:
            return v
        v = grown


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_certified_invariant_restriction_equals_validated(seed):
    rng = random.Random(seed)
    pa = _restricted(rng, regular_action(rng, GROUPS[rng.choice(sorted(GROUPS))]()))
    res = restrict_invariant(pa, invariant_open(rng, pa))
    assert fields(res) == fields(validated(res))


# ---------------------------------------------------------------------------
# broken input fails exactly as the validator fails


def _broken_tables(rng, pa, g):
    """pa's map tables with theta_g corrupted one of several ways."""
    thetas = {h: dict(pa.thetas[h]) for h in pa.group.elements}
    table = thetas[g]
    xs = sorted(table)
    kind = rng.choice(["swap", "collapse", "drop", "unknown", "missing"])
    if kind == "swap" and len(xs) >= 2:
        x, y = rng.sample(xs, 2)
        table[x], table[y] = table[y], table[x]
    elif kind == "collapse" and len(xs) >= 2:
        x, y = rng.sample(xs, 2)
        table[x] = table[y]
    elif kind == "drop":
        del table[rng.choice(xs)]
    elif kind == "unknown":
        table[rng.choice(xs)] = "nowhere"
    elif kind == "missing":
        del thetas[g]
    else:
        table[xs[0]] = rng.choice(xs)
    return thetas


def _same_failure(group, space, thetas):
    """global_action on raw tables fails exactly as the validator does (or
    both succeed with equal results); returns the validator's outcome."""
    domains = {g: space.points for g in group.elements}
    certified = _outcome(global_action, group, space, thetas)
    full = _outcome(validate_partial_action, group, space, domains, thetas)
    assert certified == full
    if full is not None:
        with pytest.raises(ValidationError) as a:
            global_action(group, space, thetas)
        with pytest.raises(ValidationError) as b:
            validate_partial_action(group, space, domains, thetas)
        assert str(a.value) == str(b.value)
    else:
        assert (fields(global_action(group, space, thetas))
                == fields(validate_partial_action(group, space, domains, thetas)))
    return full


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["regular", "trivial", "envelope"]))
def test_corrupted_global_action_raises_the_validator_error(seed, kind):
    rng = random.Random(seed)
    pa = random_global(rng, kind)
    g = rng.choice(pa.group.elements)
    _same_failure(pa.group, pa.space, _broken_tables(rng, pa, g))


@pytest.mark.parametrize("name, g", [("z4", "2"), ("z4", "3"), ("klein", "c"),
                                     ("s3", "120"), ("s3", "210")])
def test_corruption_on_a_non_generator_is_caught(name, g):
    rng = random.Random(7)
    grp = GROUPS[name]()
    assert grp.index(g) not in grp.generators
    pa = regular_action(rng, grp)
    thetas = {h: dict(pa.thetas[h]) for h in grp.elements}
    x, y = sorted(thetas[g])[:2]
    thetas[g][x], thetas[g][y] = thetas[g][y], thetas[g][x]
    assert _same_failure(grp, pa.space, thetas) is not None


def test_every_generator_is_checked():
    # Klein group, a acting trivially and b = ab by a non-monotone swap:
    # theta_a . theta_g = theta_ag holds for every g, so only the second
    # generator's checks see the fault.
    grp = klein_group()
    space = space_from_min_opens(["p", "q"], {"p": ["p"], "q": ["p", "q"]})
    ident, swap = {"p": "p", "q": "q"}, {"p": "q", "q": "p"}
    thetas = {"e": ident, "a": ident, "b": swap, "c": swap}
    assert _same_failure(grp, space, thetas)[1] == "theta-not-continuous"
    # b acting by a 3-cycle: every composition with a holds, b . b does not
    cyc = {"p": "q", "q": "r", "r": "p"}
    tri = discrete_space(["p", "q", "r"])
    thetas = {"e": dict(zip("pqr", "pqr")), "a": dict(zip("pqr", "pqr")),
              "b": cyc, "c": cyc}
    assert _same_failure(grp, tri, thetas) is not None


def test_label_tables_are_one_total_table_per_element():
    # a table for an element the group lacks, and a table naming a point
    # the space lacks: global_action must fail as the validator fails
    space = discrete_space(["p", "q"])
    ident = {"p": "p", "q": "q"}
    z2 = cyclic_group(2)
    assert _same_failure(z2, space, {"0": ident, "1": ident, "2": ident}) is not None
    assert _same_failure(z2, space, {"0": ident, "1": {**ident, "r": "p"}}) is not None


def test_every_element_is_composed():
    # Z2 acting by a 3-cycle: theta_1 . theta_0 = theta_1 holds, and only
    # the composition with the last element, theta_1 . theta_1 = theta_0,
    # fails
    tri = discrete_space(["p", "q", "r"])
    thetas = {"0": dict(zip("pqr", "pqr")), "1": {"p": "q", "q": "r", "r": "p"}}
    assert _same_failure(cyclic_group(2), tri, thetas) is not None


def test_identity_is_checked():
    # every element acting by one constant map: each composition theta_s .
    # theta_g = theta_sg holds and the map is monotone, so only theta_e = id
    # rules it out
    space = discrete_space(["p", "q"])
    const = {"p": "p", "q": "p"}
    thetas = {g: dict(const) for g in ("0", "1", "2")}
    assert _same_failure(cyclic_group(3), space, thetas)[1] == "pa3-identity"


@pytest.mark.parametrize("value", [-1, 3, 7])
def test_built_rows_off_the_space_are_internal(value):
    # the identity plus a row that is a bijection on the points it names
    # but names a point the space does not have
    from pact.paction import certified_global_action
    space = discrete_space(["p", "q", "r"])
    with pytest.raises(InternalCheckError):
        certified_global_action(cyclic_group(2), space, [(0, 1, 2), (1, 0, value)])


def test_failed_certificate_with_passing_validator_is_internal(monkeypatch):
    monkeypatch.setattr(sys.modules["pact.paction"], "_global_certificate",
                        lambda *args: None)
    with pytest.raises(InternalCheckError):
        trivial_action(cyclic_group(3), discrete_space(["p", "q"]))


# ---------------------------------------------------------------------------
# the diagonal certificate


def _diag(seed):
    rng = random.Random(seed)
    grp = GROUPS[rng.choice(sorted(GROUPS))]()
    a = _restricted(rng, regular_action(rng, grp))
    b = _restricted(rng, regular_action(rng, grp))
    return a, b, diagonal_product(a, b, max_points=10 ** 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["first", "second", "undefine", "off", "domain"]))
def test_corrupted_diagonal_table_is_internal(seed, kind):
    a, b, diag = _diag(seed)
    images = [list(image) for image in diag.images]
    domain_points = [list(xs) for xs in diag.domain_points]
    _certify_diagonal(a, b, images, domain_points)
    width = len(b.space)
    rng = random.Random(seed)
    g, p = rng.choice([(g, p) for g, image in enumerate(images)
                       for p, q in enumerate(image) if q >= 0])
    i, j = divmod(images[g][p], width)
    if kind == "first":
        if len(a.space) < 2:
            return
        images[g][p] = (i + 1) % len(a.space) * width + j
    elif kind == "second":
        if width < 2:
            return
        images[g][p] = i * width + (j + 1) % width
    elif kind == "undefine":
        images[g][p] = -1
    elif kind == "off":  # past the product, where divmod reads the same j
        images[g][p] = len(a.space) * width + j
    else:
        domain_points[g].remove(images[g][p])
    with pytest.raises(InternalCheckError):
        _certify_diagonal(a, b, images, domain_points)


def test_each_diagonal_coordinate_is_checked():
    a, b, diag = _diag(3)
    width = len(b.space)
    assert len(a.space) >= 2 and width >= 2
    g = next(g for g, image in enumerate(diag.images) if max(image) >= 0)
    p = next(p for p, q in enumerate(diag.images[g]) if q >= 0)
    i, j = divmod(diag.images[g][p], width)
    for q in ((i + 1) % len(a.space) * width + j, i * width + (j + 1) % width):
        images = [list(image) for image in diag.images]
        images[g][p] = q
        with pytest.raises(InternalCheckError):
            _certify_diagonal(a, b, images, diag.domain_points)


# ---------------------------------------------------------------------------
# the invariant-restriction certificate


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["image", "undefine", "domain"]))
def test_corrupted_row_under_invariant_restriction_is_internal(seed, kind):
    rng = random.Random(seed)
    pa = regular_action(rng, GROUPS[rng.choice(sorted(GROUPS))]())
    v = invariant_open(rng, pa)
    outside = [i for i, x in enumerate(pa.space.points) if x not in v]
    inside = [i for i, x in enumerate(pa.space.points) if x in v]
    g = rng.randrange(len(pa.group))
    images = [list(image) for image in pa.images]
    domain_points = [list(xs) for xs in pa.domain_points]
    if kind == "image":
        if not outside:
            return
        images[g][rng.choice(inside)] = rng.choice(outside)
    elif kind == "undefine":
        images[g][rng.choice(inside)] = -1
    else:
        domain_points[g].remove(rng.choice(inside))
    broken = dataclasses.replace(pa, images=tuple(map(tuple, images)),
                                 domain_points=tuple(map(tuple, domain_points)))
    with pytest.MonkeyPatch.context() as patch:
        if kind == "image":
            # is_invariant reads the same tables and would reject V as
            # input error first; the certificate's own check must still
            # catch a row that leaves V
            patch.setattr(sys.modules["pact.paction"], "is_invariant", lambda *args: True)
        with pytest.raises(InternalCheckError):
            restrict_invariant(broken, v)


# ---------------------------------------------------------------------------
# the open-restriction certificate


def random_open(rng, space):
    """A random nonempty open set: a union of minimal opens."""
    u = set()
    for x in rng.sample(space.points, rng.randint(1, len(space))):
        u |= space.min_open_of(x)
    return u


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["regular", "trivial", "envelope"]))
def test_certified_open_restriction_equals_label_restriction(seed, kind):
    rng = random.Random(seed)
    beta = random_global(rng, kind)
    u = random_open(rng, beta.space)
    res = restrict_global(beta, u)
    assert fields(res) == fields(label_restrict_global(beta, u))
    assert fields(res) == fields(validated(res))


def test_corrupted_global_row_under_open_restriction_is_internal():
    # Z2 swapping p and q on a discrete space, with mu_1 corrupted to the
    # 3-cycle p -> q -> r -> p, which is not its own inverse: on U = {p, r}
    # theta_1 sends r to p, so X_1 = {p}, but theta_1 (= theta_1^-1) is
    # defined at r only
    space = discrete_space(["p", "q", "r"])
    beta = global_action(cyclic_group(2), space, {"0": dict(zip("pqr", "pqr")),
                                                  "1": dict(zip("pqr", "qpr"))})
    broken = dataclasses.replace(beta, images=(beta.images[0], (1, 2, 0)))
    with pytest.raises(InternalCheckError):
        restrict_global(broken, {"p", "r"})


# ---------------------------------------------------------------------------
# built actions skip the validator


def count_validations(monkeypatch):
    """Route every pact module's validate_partial_action through a counter;
    returns the list of recorded calls."""
    calls = []
    real = validate_partial_action

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("pact") and hasattr(module, "validate_partial_action"):
            monkeypatch.setattr(module, "validate_partial_action", counting)
    return calls


def test_twisted_product_never_validates(monkeypatch):
    inst = load_fixture("z4-arcs")  # parsed input: validated here
    calls = count_validations(monkeypatch)
    twisted_product(inst.embedded_pa, inst.big)
    assert calls == []


def test_built_actions_never_validate(monkeypatch):
    pa = load_fixture("z4-arcs").pa
    calls = count_validations(monkeypatch)
    globalize(pa).as_global_action()
    trivial_action(pa.group, pa.space)
    diagonal_product(pa, pa, max_points=10 ** 4)
    restrict_to_subgroup(pa, Subgroup.from_labels(pa.group, {"0", "2"}))
    k = Subgroup.from_labels(pa.group, {"0", "2"}).as_group()
    restrict_to_group(trivial_action(pa.group, pa.space), k)
    restrict_invariant(pa, pa.space.points)
    restrict_global(trivial_action(pa.group, pa.space),
                    pa.space.min_open_of(pa.space.points[0]))
    assert calls == []
    # the counter does see the validator behind label tables that fail
    # the global certificate
    with pytest.raises(ValidationError):
        global_action(pa.group, pa.space, {g: {} for g in pa.group.elements})
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["z2-pair", "z4-from-z2-pair"])
def test_restricting_claims_never_validate(monkeypatch, name):
    inst = load_fixture(name)
    calls = count_validations(monkeypatch)
    for cid in ("iota-k", "adjunction", "locally-g-contractible"):
        assert run_claim(cid, inst).status == "holds", cid
    assert calls == []



@pytest.mark.parametrize("name", ["z2-pair", "z4-circle"])
def test_recognition_never_validates(monkeypatch, name):
    inst = load_fixture(name)
    calls = count_validations(monkeypatch)
    assert run_claim("recognition", inst).status == "holds"
    assert calls == []


# ---------------------------------------------------------------------------
# labels stay at the edges


def test_run_all_builds_no_label_views_of_built_actions(monkeypatch):
    """Parsed actions carry the label tables the validator checked; every
    other action is built from index tables, and over whole runs on the
    fixtures and the generated instances no claim reads its label views,
    except the label edge that splits a diagonal product into factors.  No
    space, parsed or built, has its minimal-open label view built at all."""
    from functools import cached_property

    import pact.verify

    insts = [(load_fixture(name), DEFAULT_BOUNDS) for name in FIXTURES]
    for entry in json.loads(GENERATED_GOLDEN.read_text()):
        insts.append((parse_instance(entry["document"]),
                      dataclasses.replace(DEFAULT_BOUNDS, **entry["bounds"])))
    views, splitting = [], []
    for cls, name in ((PartialAction, "domains"), (PartialAction, "thetas"),
                      (FinSpace, "min_open")):
        build = cls.__dict__[name].func

        def counting(obj, build=build, name=name):
            if not splitting or name == "min_open":
                views.append(name)
            return build(obj)
        view = cached_property(counting)
        view.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, view)
    split = pact.verify.split_diagonal_factors

    def splitting_factors(pa):
        splitting.append(pa)
        try:
            return split(pa)
        finally:
            splitting.pop()
    monkeypatch.setattr(pact.verify, "split_diagonal_factors", splitting_factors)
    for inst, bounds in insts:
        run_all(inst, bounds)
    assert views == []


# ---------------------------------------------------------------------------
# a construction bug is an internal error, never input error


def test_broken_envelope_action_is_internal_for_its_claims_only(monkeypatch):
    """One entry of mu_3 corrupted in every twisted product: building the
    envelope's global action fails its certificate, which is an internal
    error of the claims that need it, while the other claims still report
    and ``pact check all`` exits 3."""
    import contextlib
    import io

    import pact.envelope
    from pact.cli import main

    real = pact.envelope.twisted_product

    def corrupted(pa, big, max_pairs=256):
        env = real(pa, big, max_pairs)
        rows = [list(row) for row in env.action_rows]
        g = big.index("3")
        rows[g][0] = rows[g][1]
        return dataclasses.replace(env, action_rows=tuple(map(tuple, rows)))
    monkeypatch.setattr(pact.envelope, "twisted_product", corrupted)
    reports = run_all(load_fixture("z4-circle"))
    status = {rep.claim_id: rep.status for rep in reports}
    assert len(status) == 16
    assert status["iota-k"] == "internal-error"
    assert status["iterated-twist"] == "internal-error"
    assert status["pa-axioms"] == status["embedding"] == status["recognition"] == "holds"
    assert exit_code(reports) == 3
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check", "all", "z4-circle", "--json"]) == 3


def _assembling_claims(monkeypatch, inst) -> set[str]:
    """The claims whose own run (run_claim) assembles an envelope."""
    import pact.envelope
    real, calls = pact.envelope._assemble, []
    monkeypatch.setattr(pact.envelope, "_assemble",
                        lambda *args: calls.append(args) or real(*args))
    claims = set()
    for cid in CLAIMS:
        before = len(calls)
        run_claim(cid, inst)
        if len(calls) > before:
            claims.add(cid)
    monkeypatch.setattr(pact.envelope, "_assemble", real)
    return claims


def _assert_internal_for_assembling_claims(monkeypatch, patch, message):
    """On z4-circle, ``patch`` (applied to pact.envelope) makes every
    envelope assembly raise ``message``: exactly the claims that assemble
    one become internal errors with it, and the others still report."""
    inst = load_fixture("z4-circle")
    before = {rep.claim_id: rep.status for rep in run_all(inst)}
    claims = _assembling_claims(monkeypatch, inst)
    patch()
    with pytest.raises(InternalCheckError) as err:
        globalize(inst.pa)
    assert str(err.value) == message
    reports = run_all(inst)
    after = {rep.claim_id: rep.status for rep in reports}
    assert {cid for cid in after if after[cid] != before[cid]} == claims
    assert claims and len(claims) < len(after)
    for rep in reports:
        if rep.claim_id in claims:
            assert (rep.status, rep.witness) == ("internal-error", {"reason": message})


@pytest.mark.parametrize("element, message", [
    ("0", "mu_e is not the identity"),
    # mu_2 is no generator of Z4 = <1>, so the certificate finds it through
    # mu_1 . mu_1, and the scan at the first pair it checks that uses it
    ("2", "mu is not an action at ('1', '1')"),
])
def test_corrupted_action_rows_fail_as_the_exhaustive_checks(monkeypatch, element, message):
    """Two values of one row of mu swapped where the rows are read off the
    classes: the action certificate fails, and the exhaustive checks name
    the same witness as when they were the only checks."""
    import pact.envelope
    real = pact.envelope._translated

    def translated(rows, n, cls_of, hys):
        out = real(rows, n, cls_of, hys)
        if len(hys) == len(set(cls_of)) < len(cls_of):  # the rows of mu
            g = int(element)
            out[g] = (out[g][1], out[g][0]) + out[g][2:]
        return out
    _assert_internal_for_assembling_claims(
        monkeypatch, lambda: monkeypatch.setattr(pact.envelope, "_translated", translated),
        message)


def _unrelated_pair(below):
    return next((c, d) for d, mask in enumerate(below) for c in range(len(below))
                if not (mask >> c & 1 or below[c] >> d & 1))


def _one_more_relation(below):
    c, d = _unrelated_pair(below)
    return [mask | 1 << c if i == d else mask for i, mask in enumerate(below)]


@pytest.mark.parametrize("corrupt, message", [
    # c below d but no translate of c below the translate of d
    (_one_more_relation, "mu_'1' is not a homeomorphism of the total space"),
    # every class below every class: each mu_g is still a homeomorphism,
    # but the image of a minimal open is no down-set
    (lambda below: [(1 << len(below)) - 1] * len(below), "projection is not open"),
    # every class below itself only: a pair below another in another class
    (lambda below: [1 << i for i in range(len(below))], "projection is not continuous"),
], ids=["homeomorphism", "open", "continuous"])
def test_corrupted_quotient_order_fails_as_the_exhaustive_checks(monkeypatch, corrupt, message):
    """The down-set masks of the total space corrupted as the quotient
    order hands them over: the action certificate or the projection
    equality fails, and the exhaustive checks name the same witness as
    when they were the only checks."""
    import pact.envelope
    real = pact.envelope.quotient_order

    def quotient_order(down, classes):
        cls_of, below, members = real(down, classes)
        return cls_of, corrupt(below), members
    _assert_internal_for_assembling_claims(
        monkeypatch, lambda: monkeypatch.setattr(pact.envelope, "quotient_order", quotient_order),
        message)


def test_merged_orbits_fail_the_one_step_cross_check(monkeypatch):
    """The last two orbits of the diagonal action merged: the one-step
    classes, read off the factors' tables row by row, name the first pair
    whose class differs, the least member of the merged orbits."""
    import pact.envelope
    real = pact.envelope.orbit_classes

    def merged(pa):
        classes = real(pa)
        return classes[:-2] + [classes[-2] | classes[-1]]
    monkeypatch.setattr(pact.envelope, "orbit_classes", merged)
    inst = load_fixture("z4-arcs")
    with pytest.raises(InternalCheckError) as err:
        twisted_product(inst.embedded_pa, inst.big)
    assert str(err.value) == "one-step class of ('3', 'c2') differs from its orbit"


def test_run_all_takes_no_exhaustive_fallback(monkeypatch):
    """Over whole runs on the fixtures and the generated documents, every
    relation passes the class certificate and every envelope the action
    certificate: the exhaustive scans behind them never run.  A certificate
    that stopped passing on valid input would still give right answers
    through them, only slower, so this test is what notices."""
    import pact.envelope
    import pact.finspace
    insts = [(load_fixture(name), DEFAULT_BOUNDS) for name in FIXTURES]
    for entry in json.loads(GENERATED_GOLDEN.read_text()):
        insts.append((parse_instance(entry["document"]),
                      dataclasses.replace(DEFAULT_BOUNDS, **entry["bounds"])))
    calls = []
    for module, name in ((pact.finspace, "_equivalence_scan"), (pact.envelope, "_action_scan")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    assembled = []
    real_assemble = pact.envelope._assemble
    monkeypatch.setattr(pact.envelope, "_assemble",
                        lambda *args: assembled.append(args) or real_assemble(*args))
    for inst, bounds in insts:
        assert "internal-error" not in {rep.status for rep in run_all(inst, bounds)}
    assert calls == []
    assert len(assembled) > 50
    # the counters do see a fallback that runs
    with pytest.raises(InternalCheckError):
        pact.finspace.equivalence_classes([0b10, 0b10], "R", str)
    assert calls == ["_equivalence_scan"]


def _with_entry(rows, g: int, i: int, value: int):
    rows = [list(row) for row in rows]
    rows[g][i] = value
    return tuple(map(tuple, rows))


def _assert_internal_for_its_claim_only(inst, before, claim, message):
    reports = run_all(inst)
    after = {rep.claim_id: rep.status for rep in reports}
    assert {cid for cid in after if after[cid] != before[cid]} == {claim}
    assert after[claim] == "internal-error"
    assert next(rep for rep in reports if rep.claim_id == claim).witness == {"reason": message}


def _trivial_wedge():
    """Z2 acting trivially on the wedge w < a, w < b."""
    doc = fixture_dict("z2-wedge")
    points = doc["space"]["points"]
    doc["partial_action"] = {"domains": {g: points for g in ("0", "1")},
                             "maps": {g: {p: p for p in points} for g in ("0", "1")}}
    return parse_instance(doc)


@pytest.mark.parametrize("name, g, x, y, message", [
    # theta_1 fixing a0 in the free Z4 action: G_a0 = {0, 1} is not closed
    ("z4-circle", "1", "a0", "a0", "isotropy of 'a0' is not a subgroup"),
    # theta_1 fixes a, so it must be defined on U_a = {w, a} and stay in it
    ("trivial-wedge", "1", "w", None, "theta_'1' is undefined on the minimal open set of 'a'"),
    ("trivial-wedge", "1", "w", "b", "theta_'1' leaves the minimal open set of 'a'"),
], ids=["isotropy", "undefined", "leaves"])
def test_broken_local_contractibility_premise_is_internal_for_its_claim_only(
        monkeypatch, name, g, x, y, message):
    """One entry of one theta corrupted in the space's tables: the premise
    check of is_locally_G_contractible raises, and in a whole run only
    locally-g-contractible becomes an internal error."""
    import pact.verify
    inst = _trivial_wedge() if name == "trivial-wedge" else load_fixture(name)
    before = {rep.claim_id: rep.status for rep in run_all(inst)}
    pa = inst.embedded_pa
    broken = dataclasses.replace(pa, images=_with_entry(
        pa.images, pa.group.index(g), pa.space.index(x), -1 if y is None else pa.space.index(y)))
    with pytest.raises(InternalCheckError) as err:
        is_locally_G_contractible(broken)
    assert str(err.value) == message
    real = pact.verify.is_locally_G_contractible
    monkeypatch.setattr(pact.verify, "is_locally_G_contractible",
                        lambda p: real(broken if p is pa else p))
    _assert_internal_for_its_claim_only(inst, before, "locally-g-contractible", message)


def test_stabiliser_that_is_not_a_subgroup_is_internal_for_its_claim_only(monkeypatch):
    """mu_2 and mu_4 made to fix the image of p0 in the Z6 envelope: its
    stabiliser {0, 2, 3, 4} is the union of {0, 3} and {0, 2, 4} but no
    subgroup, so the family scan sees identity 3 fail for that pair, and
    the stabiliser check makes it an internal error of
    generated-intersection alone."""
    import pact.verify
    from pact.envelope import generated_intersection
    from oracle import family_scan_intersection
    from test_verify import z6_two_orbits_document
    inst = parse_instance(z6_two_orbits_document())
    before = {rep.claim_id: rep.status for rep in run_all(inst)}

    def broken(env):
        c = env.embedding_row[0]
        rows = _with_entry(env.action_rows, 2, c, c)
        return dataclasses.replace(env, action_rows=_with_entry(rows, 4, c, c))
    pa = inst.embedded_pa
    env = broken(globalize(pa))
    subs = all_subgroups(pa.group)
    assert family_scan_intersection(pa, env, subs)["witness"] == [["0", "3"], ["0", "2", "4"]]
    message = "stabiliser of '(0,p0)' is not a subgroup"
    with pytest.raises(InternalCheckError) as err:
        generated_intersection(pa, env, subs)
    assert str(err.value) == message
    real = pact.verify.generated_intersection
    monkeypatch.setattr(pact.verify, "generated_intersection",
                        lambda p, e, s: real(p, broken(e), s))
    _assert_internal_for_its_claim_only(inst, before, "generated-intersection", message)


def test_run_all_validates_no_subgroup_labels(monkeypatch):
    """Named subgroups are validated when an instance is parsed; over whole
    runs on the fixtures and the generated documents, every subgroup a
    claim uses is built from a mask, never from labels."""
    insts = [(load_fixture(name), DEFAULT_BOUNDS) for name in FIXTURES]
    for entry in json.loads(GENERATED_GOLDEN.read_text()):
        insts.append((parse_instance(entry["document"]),
                      dataclasses.replace(DEFAULT_BOUNDS, **entry["bounds"])))
    calls = []
    real = Subgroup.from_labels.__func__

    def counting(cls, parent, members):
        calls.append(members)
        return real(cls, parent, members)
    monkeypatch.setattr(Subgroup, "from_labels", classmethod(counting))
    for inst, bounds in insts:
        run_all(inst, bounds)
    assert calls == []
    load_fixture("z4-arcs")  # its named subgroup goes through the label edge
    assert calls == [["0", "2"]]
