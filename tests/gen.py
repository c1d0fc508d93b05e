"""The test instances: groups, random spaces and actions, named documents
and the wrappers several test modules share.

One generator is enough for random partial actions, because every partial
action is the restriction of its enveloping action to an open set (Abadie,
"Enveloping actions and Takai duality for partial actions", J. Funct.
Anal. 2003): :func:`random_global` builds a global action of one of
several families, and :func:`restricted` restricts it to a random open set.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

from pact import (DEFAULT_BOUNDS, Group, InternalCheckError, SpaceMap, ValidationError,
                  diagonal_product, discrete_space, enumerate_maps, fixture_names,
                  global_action, globalize, is_G_contractible, load_fixture, parse_instance,
                  product, product_comparison, recognize_globalization, restrict_global,
                  space_from_min_opens,
                  trivial_action, twisted_product, validate_group)

FIXTURE_GOLDEN = Path(__file__).parent / "golden" / "check_all_fixtures.json"
GENERATED_GOLDEN = Path(__file__).parent / "golden" / "run_all_generated.json"


# ---------------------------------------------------------------------------
# groups

def cyclic_group(n: int) -> Group:
    """Z_n with elements "0".."n-1"."""
    elems = tuple(str(i) for i in range(n))
    return Group(elems, tuple(tuple(str((i + j) % n) for j in range(n)) for i in range(n)), "0")


def klein_group(names: str = "eabc") -> Group:
    """Z2 x Z2, its elements e, a, b and ab named by ``names``."""
    e, a, b, c = names
    return validate_group([e, a, b, c], [[e, a, b, c], [a, e, c, b], [b, c, e, a], [c, b, a, e]], e)


def s3_group() -> Group:
    """Symmetric group on 3 letters, elements named by one-line notation."""
    perms = list(itertools.permutations((0, 1, 2)))
    names = {p: "".join(str(i) for i in p) for p in perms}
    table = [[names[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return validate_group([names[p] for p in perms], table, "012")


def z2_cubed() -> Group:
    """(Z2)^3, elements "000".."111" added bitwise mod 2; it has 16
    subgroups."""
    elems = [format(i, "03b") for i in range(8)]
    return validate_group(elems, [[format(i ^ j, "03b") for j in range(8)] for i in range(8)],
                          "000")


GROUPS = {"z2": lambda: cyclic_group(2), "z3": lambda: cyclic_group(3),
          "z4": lambda: cyclic_group(4), "klein": klein_group, "s3": s3_group}


def random_group(rng) -> Group:
    return GROUPS[rng.choice(sorted(GROUPS))]()


# ---------------------------------------------------------------------------
# spaces

def random_preorder_space(rng, max_points: int = 6, prefix: str = "p",
                          density: float = 0.3):
    """A random space as (points, min_open dict): random relation, each pair
    related with probability ``density``, closed reflexively and
    transitively."""
    n = rng.randint(1, max_points)
    points = [f"{prefix}{i}" for i in range(n)]
    rel = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rel[i][j] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    min_open = {points[j]: [points[i] for i in range(n) if rel[i][j]]
                for j in range(n)}
    return points, min_open


def random_space(rng, max_points: int = 5, prefix: str = "p"):
    return space_from_min_opens(*random_preorder_space(rng, max_points, prefix))


def with_projections(a, b):
    """``product(a, b)`` with its two projections onto ``a`` and ``b``."""
    space = product(a, b)
    return (space, SpaceMap(space, a, tuple(i for i in range(len(a)) for _ in b.points)),
            SpaceMap(space, b, tuple(range(len(b))) * len(a)))


# ---------------------------------------------------------------------------
# global actions, and restrictions of them

def regular(grp, base):
    """``grp`` permuting |grp| disjoint copies of ``base`` by left
    multiplication of the copy labels: point "p.k" is p in copy k."""
    copies = [(p, k) for k in grp.elements for p in base.points]
    space = space_from_min_opens([f"{p}.{k}" for p, k in copies],
                                 {f"{p}.{k}": [f"{q}.{k}" for q in base.min_open_of(p)]
                                  for p, k in copies})
    return global_action(grp, space, {g: {f"{p}.{k}": f"{p}.{grp.mul(g, k)}" for p, k in copies}
                                      for g in grp.elements})


def circle(grp):
    """Z_n, listed "0".."n-1", rotating the 2n-point circle, where the
    corner c_i lies above the arcs a_{i-1} and a_i."""
    n = len(grp)
    min_open = {f"a{i}": [f"a{i}"] for i in range(n)}
    min_open.update({f"c{i}": [f"a{(i - 1) % n}", f"c{i}", f"a{i}"] for i in range(n)})
    return global_action(grp, space_from_min_opens(list(min_open), min_open), {
        g: {f"{kind}{i}": f"{kind}{(i + int(g)) % n}" for kind in "ac" for i in range(n)}
        for g in grp.elements})


def cone(beta):
    """``beta`` under an apex "top" above every point and fixed by every
    element, so the apex's isotropy group moves its minimal open set."""
    points = list(beta.space.points) + ["top"]
    min_open = {p: beta.space.min_open_of(p) for p in beta.space.points}
    min_open["top"] = points
    return global_action(beta.group, space_from_min_opens(points, min_open),
                         {g: {**beta.thetas[g], "top": "top"} for g in beta.group.elements})


GLOBAL_KINDS = ("regular", "circle", "cone", "trivial", "envelope", "diagonal")


def random_global(rng, kind: str, grp=None, max_base: int = 3):
    """A global action of ``grp`` of the family ``kind``:

    - "regular": ``grp`` permuting copies of a random base of at most
      ``max_base`` points;
    - "circle": the rotation of the circle (``grp`` is Z_n);
    - "cone": a regular action under a fixed apex;
    - "trivial": ``grp`` fixing a random space of at most five points;
    - "envelope": the globalization of a random restriction of a regular
      action;
    - "diagonal": the diagonal product of two regular or trivial actions.

    ``grp`` is drawn from :data:`GROUPS` when None, from Z2..Z4 for a
    circle."""
    if grp is None:
        grp = cyclic_group(rng.choice([2, 3, 4])) if kind == "circle" else random_group(rng)
    if kind == "regular":
        return regular(grp, random_space(rng, max_base))
    if kind == "circle":
        return circle(grp)
    if kind == "cone":
        return cone(random_global(rng, "regular", grp, max_base))
    if kind == "trivial":
        return trivial_action(grp, random_space(rng, 5))
    if kind == "envelope":
        return globalize(restricted(rng, random_global(rng, "regular", grp, max_base))
                         ).as_global_action()
    assert kind == "diagonal", kind
    return diagonal_product(*(random_global(rng, rng.choice(["regular", "trivial"]), grp, 2)
                              for _ in "ab"))


def restricted(rng, beta):
    """``beta`` restricted to a random nonempty open set, a union of minimal
    opens of random points; every nonempty open set can be drawn, and the
    restriction's points are the set drawn."""
    u = set()
    for x in rng.sample(beta.space.points, rng.randint(1, len(beta.space))):
        u |= beta.space.min_open_of(x)
    return restrict_global(beta, u)


def random_partial(rng, grp, kinds=("regular", "circle", "trivial"), max_base: int = 2):
    """A random restriction of a global action of ``grp`` of a family drawn
    from ``kinds``."""
    return restricted(rng, random_global(rng, rng.choice(kinds), grp, max_base))


def invariant_open(rng, pa):
    """A random open set saturated under pa: grown by every theta_g image
    until nothing is added, so it stays open and becomes invariant."""
    v = set(pa.space.min_open_of(rng.choice(pa.space.points)))
    while True:
        grown = v | {pa.thetas[g][x] for g in pa.group.elements
                     for x in v & pa.domains[pa.group.inv(g)]}
        if grown == v:
            return v
        v = grown


# ---------------------------------------------------------------------------
# documents

def group_document(grp) -> dict:
    return {"elements": list(grp.elements), "table": [list(r) for r in grp.table],
            "identity": grp.identity}


def instance_document(pa, name: str) -> dict:
    """The instance document of ``pa``, named ``name``."""
    grp, space = pa.group, pa.space
    moved = [g for g in grp.elements if g != grp.identity]
    return {
        "id": name,
        "group": group_document(grp),
        "space": {"points": list(space.points),
                  "min_open": {p: sorted(space.min_open_of(p)) for p in space.points}},
        "partial_action": {"domains": {g: sorted(pa.domains[g]) for g in moved},
                           "maps": {g: dict(pa.thetas[g]) for g in moved}},
    }


def half_circle_document(n: int) -> dict:
    """Z_n rotating the 2n-point circle, restricted to the open half-circle
    of arcs a0..a_{n/2-1} and the corners c1..c_{n/2-1} between them."""
    half = [f"a{i}" for i in range(n // 2)] + [f"c{i}" for i in range(1, n // 2)]
    return instance_document(restrict_global(circle(cyclic_group(n)), half),
                             f"z{n}-half-circle")


def half_circle_in_double_document(n: int) -> dict:
    """:func:`half_circle_document`'s Z_n inside the big group Z_2n as the
    even elements, k |-> 2k: a K < G instance of any size."""
    return {**half_circle_document(n), "id": f"z{n}-half-circle-in-z{2 * n}",
            "big_group": group_document(cyclic_group(2 * n)),
            "k_embedding": {str(k): str(2 * k) for k in range(n)}}


def fence_document(length: int) -> dict:
    """The fence x0 < y0 > x1 < ... > x_{length-1} (2 * length - 1 points)
    with the trivial action of Z2, embedded in Z4 as {0, 2}."""
    opens = {f"x{i}": [f"x{i}"] for i in range(length)}
    opens.update({f"y{i}": [f"x{i}", f"y{i}", f"x{i + 1}"] for i in range(length - 1)})
    fence = trivial_action(cyclic_group(2), space_from_min_opens(list(opens), opens))
    return {**instance_document(fence, f"fence{len(opens)}-z2-in-z4"),
            "big_group": group_document(cyclic_group(4)), "k_embedding": {"0": "0", "1": "2"}}


def cone_raw(base: int) -> tuple[list[str], dict]:
    """``base`` minimal points m0.. under one top point, as raw (points,
    min_open)."""
    points = [f"m{i}" for i in range(base)] + ["top"]
    min_open = {p: [p] for p in points[:-1]}
    min_open["top"] = points
    return points, min_open


def z6_two_orbits_document() -> dict:
    """Z6 on three points rotated mod 3 (isotropy {0, 3}) and two points
    swapped mod 2 (isotropy {0, 2, 4}), all discrete."""
    points = ["p0", "p1", "p2", "q0", "q1"]

    def act(g: str, x: str) -> str:
        k = 3 if x[0] == "p" else 2
        return f"{x[0]}{(int(x[1]) + int(g)) % k}"

    z6 = cyclic_group(6)
    return instance_document(global_action(z6, discrete_space(points), {
        g: {x: act(g, x) for x in points} for g in z6.elements}), "z6-two-orbits")


def golden_instances() -> list:
    """(instance, bounds) of every fixture and of every generated instance
    recorded in the run_all golden."""
    cases = [(load_fixture(name), DEFAULT_BOUNDS) for name in fixture_names()]
    for entry in json.loads(GENERATED_GOLDEN.read_text()):
        cases.append((parse_instance(entry["document"]),
                      dataclasses.replace(DEFAULT_BOUNDS, **entry["bounds"])))
    return cases


# ---------------------------------------------------------------------------
# shared wrappers

def fixture_pa(name):
    return load_fixture(name).pa


def c8():
    return load_fixture("z4-circle").space


def twist(pa, big=None):
    return twisted_product(pa, big or pa.group)


def hom(pa_x, pa_y):
    """The poset of G-maps pa_x -> pa_y, as adjunction_maps asks for it."""
    return enumerate_maps(pa_x.space, pa_y.space, equivariant=(pa_x, pa_y))


def compare_products(pa_1, pa_2, big=None):
    """product_comparison's (status, witness) pair on the twisted products of
    pa_1 x pa_2 and of both factors, over pa_1's group unless ``big`` is
    given."""
    diag = diagonal_product(pa_1, pa_2)
    return product_comparison(*(twist(pa, big or pa_1.group) for pa in (diag, pa_1, pa_2)))


def recognition(beta, subset):
    """recognize_globalization's (status, witness) pair, after the map the
    witness names, as a SpaceMap from the globalization of beta restricted
    to ``subset`` onto beta's space (None unless the recognition holds)."""
    status, witness = recognize_globalization(beta, subset)
    if "map" not in witness:
        return None, status, witness
    source = globalize(restrict_global(beta, frozenset(subset))).total
    return SpaceMap.from_dict(source, beta.space, witness["map"]), status, witness


def g_contract(pa):
    """is_G_contractible on the poset of G-self-maps built here."""
    return is_G_contractible(pa, lambda: hom(pa, pa))


def outcome(check, *args):
    """None when ``check(*args)`` passes, else the error it raises."""
    try:
        check(*args)
    except ValidationError as exc:
        return "ValidationError", exc.axiom, exc.witness
    except InternalCheckError as exc:
        return "InternalCheckError", str(exc)
    return None


def label_tables(pa):
    """pa's group and action as the label tables the brute-force oracles
    take: elements, Cayley table, identity, points, domains and thetas."""
    grp = pa.group
    return (list(grp.elements), [list(r) for r in grp.table], grp.identity,
            list(pa.space.points), {g: pa.domains[g] for g in grp.elements},
            {g: dict(pa.thetas[g]) for g in grp.elements})
