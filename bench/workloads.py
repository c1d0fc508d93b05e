"""Seeded instance documents for the benchmark workloads, and their parsing.

Every generator returns plain JSON-ready dictionaries in the instance format
that ``pact.parse_instance`` reads; the program under test only ever sees
these documents.  The seed picks the labels' order (and, for the arc family,
the starting arc); it never changes which claims hold.
"""
from __future__ import annotations

import dataclasses
import random

FIXTURE_NAMES = ("pt", "z2-pair", "z2-swap", "z2-wedge", "z2-pair-sq",
                 "z4-circle", "z4-half", "z4-arcs", "z4-from-z2-pair")

ARC_SIZES = (8, 12, 16)
MAP_SEARCH_MAX_MAPS = 16384


def cyclic_group_doc(n: int) -> dict:
    elements = [str(i) for i in range(n)]
    return {"elements": elements,
            "table": [[str((i + j) % n) for j in range(n)] for i in range(n)],
            "identity": "0"}


def _shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def _space_doc(rng: random.Random, points, min_open: dict) -> dict:
    order = _shuffled(rng, points)
    return {"points": order,
            "min_open": {p: _shuffled(rng, min_open[p]) for p in order}}


def circle_min_opens(n: int) -> dict[str, list[str]]:
    """The 2n-point circle: open arcs a_i, corners c_i, U_{c_i} = {a_{i-1}, c_i, a_i}."""
    opens = {f"a{i}": [f"a{i}"] for i in range(n)}
    for i in range(n):
        opens[f"c{i}"] = [f"a{(i - 1) % n}", f"c{i}", f"a{i}"]
    return opens


def arc_doc(n: int, rng: random.Random) -> dict:
    """Z_n rotating the 2n-point circle, restricted to an open half-circle.

    The half-circle is n/2 consecutive arcs from a seeded start plus the
    n/2 - 1 corners between them; the restriction of the global action mu to
    an open U is X_g = U & mu_g(U) with theta_g = mu_g on X_{g^-1}.
    """
    half = n // 2
    start = rng.randrange(n)
    opens_all = circle_min_opens(n)
    u = [f"a{(start + i) % n}" for i in range(half)]
    u += [f"c{(start + i) % n}" for i in range(1, half)]
    in_u = set(u)

    def rotate(g: int, p: str) -> str:
        return f"{p[0]}{(int(p[1:]) + g) % n}"

    domains = {}
    maps = {}
    for g in range(n):
        domains[str(g)] = [x for x in u if rotate(-g, x) in in_u]
    for g in range(n):
        maps[str(g)] = {x: rotate(g, x) for x in domains[str(-g % n)]}
    order = _shuffled(rng, u)
    return {
        "id": f"arc-z{n}",
        "group": cyclic_group_doc(n),
        "space": _space_doc(rng, order, {p: opens_all[p] for p in u}),
        "partial_action": {
            "domains": {g: _shuffled(rng, dom) for g, dom in domains.items()},
            "maps": {g: {x: table[x] for x in _shuffled(rng, table)}
                     for g, table in maps.items()},
        },
    }


def _trivial_action_doc(group: dict, points: list[str]) -> dict:
    rest = [g for g in group["elements"] if g != group["identity"]]
    return {"domains": {g: list(points) for g in rest},
            "maps": {g: {x: x for x in points} for g in rest}}


def fence_doc(length: int, rng: random.Random) -> dict:
    """The fence x0 < y0 > x1 < ... > x_{length-1} (2*length - 1 points) with
    the trivial action of K = {0, 2} = Z2 inside Z4."""
    opens = {f"x{i}": [f"x{i}"] for i in range(length)}
    for i in range(length - 1):
        opens[f"y{i}"] = [f"x{i}", f"y{i}", f"x{i + 1}"]
    order = _shuffled(rng, opens)
    z2 = cyclic_group_doc(2)
    return {
        "id": f"fence{len(opens)}-z2-in-z4",
        "group": z2,
        "space": _space_doc(rng, order, opens),
        "partial_action": _trivial_action_doc(z2, order),
        "big_group": cyclic_group_doc(4),
        "k_embedding": {"0": "0", "1": "2"},
    }


def cone_doc(base: int, order_n: int, rng: random.Random) -> dict:
    """``base`` minimal points under one top point, trivial Z_order_n action."""
    opens = {f"m{i}": [f"m{i}"] for i in range(base)}
    opens["t"] = [f"m{i}" for i in range(base)] + ["t"]
    order = _shuffled(rng, opens)
    group = cyclic_group_doc(order_n)
    return {
        "id": f"cone{len(opens)}-z{order_n}",
        "group": group,
        "space": _space_doc(rng, order, opens),
        "partial_action": _trivial_action_doc(group, order),
    }


def arc_scaling_docs(seed: int) -> list[tuple[int, dict]]:
    """(n, document) for each n in ``ARC_SIZES``."""
    rng = random.Random(seed)
    return [(n, arc_doc(n, rng)) for n in ARC_SIZES]


def map_search_docs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [fence_doc(5, rng), cone_doc(5, 3, rng)]


@dataclasses.dataclass
class Prepared:
    """Parsed instances of one workload and their bounds, keyed by instance
    id, in pass order."""
    instances: dict
    bounds: dict


def prepare(pact, workload: str, seed: int) -> Prepared:
    """Generate the workload's documents and parse each one with ``pact``.

    Bounds are pact's defaults except: arc-scaling lets envelopes reach 2n^2
    pairs so that iterated-twist decides, and map-search lifts the cap on
    materialized map posets."""
    if workload == "fixtures":
        names = list(FIXTURE_NAMES)
        random.Random(seed).shuffle(names)
        docs = [(pact.fixture_dict(name), {}) for name in names]
    elif workload == "arc-scaling":
        docs = [(doc, {"envelope_pairs": 2 * n * n})
                for n, doc in arc_scaling_docs(seed)]
    else:
        docs = [(doc, {"max_maps": MAP_SEARCH_MAX_MAPS}) for doc in map_search_docs(seed)]
    instances, bounds = {}, {}
    for doc, overrides in docs:
        inst = pact.parse_instance(doc)
        instances[inst.id] = inst
        bounds[inst.id] = dataclasses.replace(pact.DEFAULT_BOUNDS, **overrides)
    return Prepared(instances, bounds)
