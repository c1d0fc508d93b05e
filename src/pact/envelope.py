"""Globalizations and twisted products, with their structure maps.

Two independent routes build the same kind of object:

* ``globalize`` quotients G x X by the relation
  (g,x) ~ (h,y)  iff  x in X_{g^-1 h} and theta_{h^-1 g}(x) = y,
* ``twisted_product`` quotients G x X by the orbits of the diagonal action
  of a subgroup K, with classes [g,x]_K = {(g k^-1, theta_k(x)) : k in K^x}.

Both return an :class:`EnvelopeResult` carrying the quotient space, the
global action mu, the projection p and the embedding iota, all of which are
checked against the trusted invariants at construction time.  The
comparison maps of the corollaries (products, iterated twists, trivial
collapse) are built and *reported on*, never assumed to be homeomorphisms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import (Group, Subgroup, all_subgroups, conjugate_subgroup,
                      is_subgroup_embedding, subgroup_generated)
from .errors import BoundExceeded, InternalCheckError, ValidationError
from .finspace import (FinSpace, SpaceMap, bit_indices, column_masks, compose,
                       discrete_space, equivalence_classes, is_continuous,
                       is_open, is_open_map, product, quotient)
from .homotopy import MapPoset
from .paction import (PartialAction, diagonal_product, enumerate_G_maps,
                      fixed_points, g_map_faults, global_action, orbit_classes,
                      restrict_global, validate_partial_action)


@dataclass(frozen=True)
class EnvelopeResult:
    """A quotient G-space bundled with its action, projection and embedding.

    ``classes`` sends each pair (g, x) to its class label; labels are the
    pair label of the class's least member under the (element, point)
    orderings, which keeps every downstream report deterministic.
    ``members`` lists each label's pairs in that same order.  The index
    tables ``pair_class``, ``member_pairs`` and ``action_rows`` are read
    from ``classes``, ``members`` and ``action`` on first use.
    """

    base: PartialAction
    big_group: Group
    total: FinSpace
    action: Mapping[str, Mapping[str, str]]
    projection: SpaceMap
    embedding: SpaceMap
    classes: Mapping[tuple[str, str], str]
    product_space: FinSpace
    kstar: frozenset[str]
    members: Mapping[str, tuple[tuple[str, str], ...]]

    def class_of(self, g: str, x: str) -> str:
        return self.classes[(g, x)]

    def members_of(self, label: str) -> tuple[tuple[str, str], ...]:
        return self.members[label]

    @cached_property
    def pair_class(self) -> tuple[int, ...]:
        """The total-point index of the class of each pair (g, x), at
        g * |X| + x for element index g and point index x."""
        index, classes = self.total._index, self.classes
        return tuple(index[classes[(g, x)]]
                     for g in self.big_group.elements for x in self.base.space.points)

    @cached_property
    def member_pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per total-point index, the class's members as (element index,
        point index) pairs, in the order of ``members``."""
        g_index, x_index = self.big_group.index, self.base.space.index
        return tuple(tuple((g_index(g), x_index(x)) for g, x in self.members[c])
                     for c in self.total.points)

    @cached_property
    def action_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per element index g, mu_g as an index row of the total space."""
        points, index = self.total.points, self.total._index
        return tuple(tuple(map(index.__getitem__, map(self.action[g].__getitem__, points)))
                     for g in self.big_group.elements)

    def descend(self, f: Callable[[str, str], str]
                ) -> tuple[tuple[str, ...], str | None]:
        """The map on classes induced by f(g, x): per class in total-point
        order, the one value f takes on the class's members, plus the first
        class whose members disagree (None when the map is well defined).
        A disagreeing class gets its least value, so a failing check still
        yields a map to report."""
        values = []
        clash = None
        for label in self.total.points:
            seen = {f(g, x) for g, x in self.members[label]}
            if len(seen) != 1 and clash is None:
                clash = label
            values.append(min(seen))
        return tuple(values), clash

    def embedding_image(self) -> frozenset[str]:
        return frozenset(self.embedding.assignment)

    def mu(self, g: str, label: str) -> str:
        return self.action[g][label]

    def mu_map(self, g: str) -> SpaceMap:
        table = self.action[g]
        return SpaceMap(self.total, self.total,
                        tuple(table[c] for c in self.total.points))

    def as_global_action(self) -> PartialAction:
        """The enveloping action as a validated global PartialAction."""
        thetas = {g: dict(self.action[g]) for g in self.big_group.elements}
        return global_action(self.big_group, self.total, thetas)

    def to_document(self) -> dict:
        """JSON-ready document: class table, opens of the total space,
        action table and embedding table."""
        classes = {}
        for label in self.total.points:
            classes[label] = [[g, x] for g, x in self.members_of(label)]
        order = {p: i for i, p in enumerate(self.total.points)}
        return {
            "group": list(self.big_group.elements),
            "class_count": len(self.total),
            "classes": classes,
            "total": {
                "points": list(self.total.points),
                "min_open": {p: sorted(self.total.min_open_of(p), key=order.__getitem__)
                             for p in self.total.points},
            },
            "action": {g: {c: self.action[g][c] for c in self.total.points}
                       for g in self.big_group.elements},
            "embedding": {x: self.embedding(x) for x in self.base.space.points},
        }


def _product_with_group(big: Group, space: FinSpace, max_pairs: int) -> FinSpace:
    n = len(big) * len(space)
    if n > max_pairs:
        raise BoundExceeded("envelope construction", max_pairs, n)
    prod, _, _ = product(discrete_space(big.elements), space, max_points=n)
    return prod


def _assemble(pa: PartialAction, big: Group, prod: FinSpace,
              class_sets: Sequence[frozenset[str]]) -> EnvelopeResult:
    """Common tail of both constructions: name classes, build the quotient,
    the action, the projection and the embedding, and assert the trusted
    invariants."""
    space = pa.space
    k = pa.group

    def pair_of(label: str) -> tuple[str, str]:
        gi, xi = divmod(prod.index(label), len(space))
        return big.elements[gi], space.points[xi]

    def label_of(g: str, x: str) -> str:
        return prod.points[big.index(g) * len(space) + space.index(x)]

    def name(cls: frozenset[str]) -> str:
        return min(cls, key=prod.index)

    total, proj = quotient(prod, class_sets, names=name)
    classes = {pair_of(p): proj(p) for p in prod.points}
    members_by_label: dict[str, list[tuple[str, str]]] = {c: [] for c in total.points}
    for p in prod.points:
        members_by_label[proj(p)].append(pair_of(p))
    members = {c: tuple(pairs) for c, pairs in members_by_label.items()}

    action: dict[str, dict[str, str]] = {}
    for g in big.elements:
        table: dict[str, str] = {}
        for label in total.points:
            targets = {classes[(big.mul(g, h), y)] for h, y in members[label]}
            if len(targets) != 1:
                raise InternalCheckError(
                    f"enveloping action not well defined at ({g!r}, {label!r})")
            table[label] = targets.pop()
        action[g] = table

    ident = action[big.identity]
    if any(ident[c] != c for c in total.points):
        raise InternalCheckError("mu_e is not the identity")
    for g in big.elements:
        for h in big.elements:
            gh = big.mul(g, h)
            if any(action[g][action[h][c]] != action[gh][c] for c in total.points):
                raise InternalCheckError(f"mu is not an action at ({g!r}, {h!r})")
    for g in big.elements:
        m = SpaceMap(total, total, tuple(action[g][c] for c in total.points))
        if not (m.is_bijective() and is_continuous(m) and is_continuous(m.inverse())):
            raise InternalCheckError(f"mu_{g!r} is not a homeomorphism of the total space")

    if not is_continuous(proj):
        raise InternalCheckError("projection is not continuous")
    if not is_open_map(proj):
        raise InternalCheckError("projection is not open")
    if set(proj.assignment) != set(total.points):
        raise InternalCheckError("projection is not surjective")

    e = big.identity
    emb = SpaceMap(space, total, tuple(classes[(e, x)] for x in space.points))
    if len(set(emb.assignment)) != len(space):
        raise InternalCheckError("embedding is not injective")
    if not is_continuous(emb):
        raise InternalCheckError("embedding is not continuous")

    kstar = frozenset(label_of(g, x)
                      for g in k.elements for x in pa.domains[k.inv(g)])
    image = frozenset(emb.assignment)
    preimage = frozenset(p for p in prod.points if proj(p) in image)
    if preimage != kstar:
        raise InternalCheckError("p^-1(iota(X)) differs from K*X")

    for g in k.elements:
        for x in pa.domains[k.inv(g)]:
            if action[g][emb(x)] != emb(pa.apply(g, x)):
                raise InternalCheckError(
                    f"action and embedding disagree at ({g!r}, {x!r})")

    covered = {action[g][c] for g in big.elements for c in image}
    if covered != set(total.points):
        raise InternalCheckError("G.iota(X) does not cover the total space")

    return EnvelopeResult(pa, big, total, action, proj, emb, classes, prod, kstar,
                          members)


def globalize(pa: PartialAction, max_pairs: int = 256) -> EnvelopeResult:
    """The enveloping space X_G: quotient of G x X by the relation R.

    R is checked to be an equivalence relation exhaustively before the
    quotient is taken; for a finite group every partial action is nice, so
    the embedding is an open embedding (asserted downstream by the claims).
    """
    g_grp = pa.group
    space = pa.space
    prod = _product_with_group(g_grp, space, max_pairs)
    pairs = [(g, x) for g in g_grp.elements for x in space.points]
    # (g, x) is pair g * |X| + x; x lies in X_k iff theta_{k^-1} is defined at x
    n = len(space)
    rows, inverse_row = g_grp.rows, g_grp.inverse_row
    rel = []
    for g in range(len(g_grp)):
        to_k = rows[inverse_row[g]]
        for x in range(n):
            m = 0
            for h, k in enumerate(to_k):
                y = pa.images[inverse_row[k]][x]
                if y >= 0:
                    m |= 1 << (h * n + y)
            rel.append(m)
    class_sets = [prod.set_of(c) for c in equivalence_classes(rel, "R", pairs)]
    return _assemble(pa, g_grp, prod, class_sets)


def twisted_product(pa: PartialAction, big: Group,
                    max_pairs: int = 256) -> EnvelopeResult:
    """G x_K X: orbit space of G x X under the diagonal K-action.

    K is the acting group of ``pa`` and must be a literal subgroup of
    ``big``.  The class of (g, x) is the one-step orbit
    {(g k^-1, theta_k(x)) : k in K^x}, which is checked against the orbit
    machinery.
    """
    k_grp = pa.group
    if not is_subgroup_embedding(k_grp, big):
        raise ValidationError("not-a-subgroup", tuple(k_grp.elements),
                              "the acting group is not a subgroup of the big group")
    space = pa.space
    prod = _product_with_group(big, space, max_pairs)
    translation = _right_translation(k_grp, big)
    diag, _ = diagonal_product([translation, pa],
                               max_points=len(big) * len(space))
    if diag.space != prod:
        raise InternalCheckError("diagonal product space differs from G x X")
    class_sets = orbit_classes(diag)
    # (g, x) is product point g * |X| + x; class masks per product point
    n = len(space)
    class_mask = [0] * len(prod)
    for cls in class_sets:
        m = prod.mask_of(cls)
        for p in bit_indices(m):
            class_mask[p] = m
    rows, inverse_row = big.rows, big.inverse_row
    steps = [(inverse_row[big.index(k)], image) for k, image in zip(k_grp.elements, pa.images)]
    for g, row in enumerate(rows):
        for x in range(n):
            one_step = 0
            for k_inv, image in steps:
                if image[x] >= 0:
                    one_step |= 1 << (row[k_inv] * n + image[x])
            if one_step != class_mask[g * n + x]:
                raise InternalCheckError(f"one-step class of ({big.elements[g]!r}, "
                                         f"{space.points[x]!r}) differs from its orbit")
    return _assemble(pa, big, prod, class_sets)


def _right_translation(k_grp: Group, big: Group) -> PartialAction:
    """The global action of K on the discrete space G by g |-> g k^-1."""
    gspace = discrete_space(big.elements)
    thetas = {k: {g: big.mul(g, big.inv(k)) for g in big.elements}
              for k in k_grp.elements}
    return global_action(k_grp, gspace, thetas)


def envelope_of_map(f: SpaceMap, pa_x: PartialAction, pa_y: PartialAction,
                    big: Group | None = None,
                    env_x: EnvelopeResult | None = None,
                    env_y: EnvelopeResult | None = None,
                    max_pairs: int = 256) -> SpaceMap:
    """The induced map [g,x] |-> [g,f(x)] between twisted products.

    The one-map case of :func:`lift_maps`, with its checks: ``f`` must be a
    K-map, and the result is checked to be well defined on every class
    member, continuous, and equivariant.  Twisted products that are not
    given are built first.
    """
    big = big or pa_x.group
    if env_x is None:
        env_x = twisted_product(pa_x, big, max_pairs)
    if env_y is None:
        env_y = twisted_product(pa_y, big, max_pairs)
    (row,) = lift_maps(MapPoset(f.source, f.target, (f.row(),)),
                       pa_x, pa_y, env_x, env_y, big)
    return SpaceMap.from_row(env_x.total, env_y.total, row)


def lift_maps(poset: MapPoset, pa_x: PartialAction, pa_y: PartialAction,
              env_x: EnvelopeResult, env_y: EnvelopeResult,
              big: Group | None = None) -> list[tuple[int, ...]]:
    """The induced map [g,x] |-> [g,f(x)] of every row f of ``poset``, as
    index rows from env_x.total to env_y.total, in row order.

    Each row is checked as lifting it alone would check it, in this order:
    it is continuous and equivariant (``ValidationError`` "not-continuous"
    or "not-a-G-map"), and its lift is well defined on every class member,
    continuous and equivariant (``InternalCheckError``).  The first row that
    fails raises its first failing check.  The G-map checks and the lifts'
    continuity and equivariance run once per table on column masks
    (:func:`g_map_faults`); well-definedness runs per row on int lists
    built from the envelopes' index tables.
    """
    if pa_x.group != pa_y.group:
        raise ValidationError("group-mismatch", (), "maps need actions of the same group")
    if poset.source != pa_x.space or poset.target != pa_y.space:
        raise ValidationError("space-mismatch", (), "map endpoints do not match the actions")
    big = big or pa_x.group
    discontinuous, non_equivariant = g_map_faults(poset.columns, pa_x.space, pa_y.space,
                                                  pa_x.images, pa_y.images)
    faults = discontinuous | non_equivariant
    first_fault = (faults & -faults).bit_length() - 1 if faults else len(poset.rows)

    # Every member (g, x) of env_x's classes, flattened in class order: the
    # class of (g, f(x)) in env_y is env_y.pair_class[offsets[p] + f(xs[p])].
    width_y = len(pa_y.space)
    offset = [env_y.big_group.index(g) * width_y for g in env_x.big_group.elements]
    xs, offsets, owner, firsts = [], [], [], []
    for c, pairs in enumerate(env_x.member_pairs):
        firsts.append(len(xs))
        for g, x in pairs:
            xs.append(x)
            offsets.append(offset[g])
            owner.append(c)
    class_y = env_y.pair_class
    lifted: list[tuple[int, ...]] = []
    clash = None
    for row in poset.rows[:first_fault]:
        values = list(map(class_y.__getitem__, map(add, offsets, map(row.__getitem__, xs))))
        out = tuple(map(values.__getitem__, firsts))
        if list(map(out.__getitem__, owner)) != values:
            clash = next(c for c, v in zip(owner, values) if out[c] != v)
            break
        lifted.append(out)

    total_x, total_y = env_x.total, env_y.total
    lift_discontinuous, lift_non_equivariant = g_map_faults(
        column_masks(lifted, len(total_x), len(total_y)), total_x, total_y,
        [env_x.action_rows[env_x.big_group.index(g)] for g in big.elements],
        [env_y.action_rows[env_y.big_group.index(g)] for g in big.elements])
    lift_faults = lift_discontinuous | lift_non_equivariant
    if lift_faults:
        first = lift_faults & -lift_faults
        if lift_discontinuous & first:
            raise InternalCheckError("induced map is not continuous")
        raise InternalCheckError("induced map is not equivariant")
    if clash is not None:
        raise InternalCheckError(f"induced map not well defined at {total_x.points[clash]!r}")
    if faults:
        if discontinuous >> first_fault & 1:
            raise ValidationError("not-continuous", (), "is_G_map needs a continuous map")
        raise ValidationError("not-a-G-map", (), "envelope_of_map needs an equivariant map")
    return lifted


def recognize_globalization(pa_global: PartialAction, open_subset,
                            max_pairs: int = 256) -> tuple[SpaceMap | None, dict]:
    """Recognize a global action (Y, beta) as the globalization of its
    restriction to an open subset U.

    When the orbit of U covers Y, builds [g,x] |-> beta_g(x) and verifies it
    is a G-homeomorphism; otherwise reports precondition-unmet with the
    uncovered points.
    """
    if not pa_global.is_global():
        raise ValidationError("not-global", (), "recognition needs a global action")
    u = frozenset(open_subset)
    if not u:
        raise ValidationError("empty-subset", (), "subset must be nonempty")
    if not is_open(pa_global.space, u):
        raise ValidationError("not-open", tuple(sorted(u)), "subset must be open")
    grp = pa_global.group
    covered = {pa_global.apply(g, x) for g in grp.elements for x in u}
    missing = [p for p in pa_global.space.points if p not in covered]
    if missing:
        return None, {"status": "precondition-unmet",
                      "reason": "orbit of the subset does not cover the space",
                      "uncovered": missing}
    restricted = restrict_global(pa_global, u)
    env = globalize(restricted, max_pairs)
    values, clash = env.descend(pa_global.apply)
    phi = SpaceMap(env.total, pa_global.space, values)
    checks = {
        "well-defined": clash is None,
        "bijective": phi.is_bijective(),
        "continuous": is_continuous(phi),
        "inverse-continuous": phi.is_bijective() and is_continuous(phi.inverse()),
        "equivariant": all(
            phi(env.action[g][c]) == pa_global.apply(g, phi(c))
            for g in grp.elements for c in env.total.points),
    }
    status = "holds" if all(checks.values()) else "fails"
    report = {"status": status, "checks": checks,
              "classes": len(env.total), "target_points": len(pa_global.space)}
    return phi, report


@dataclass(frozen=True)
class AdjunctionResult:
    """Materialized hom-sets and the two adjunction maps between them."""

    g_maps: tuple[SpaceMap, ...]       # A_G(G x_K X, Y)
    k_maps: tuple[SpaceMap, ...]       # PA_K(X, res Y)
    lam: tuple[int, ...]               # index into k_maps per g_map
    tau: tuple[int, ...]               # index into g_maps per k_map
    report: dict


def adjunction_maps(pa_x: PartialAction, pa_y: PartialAction,
                    big: Group | None = None,
                    max_space: int = 5, max_group: int = 4,
                    node_budget: int = 1_000_000,
                    naturality_morphisms: int = 8,
                    max_pairs: int = 256) -> AdjunctionResult:
    """Enumerate both hom-sets and materialize lambda and tau.

    lambda(F) = F o iota_K and tau(f)([g,x]) = eta(g, f(x)); the report
    records whether they are mutually inverse bijections and whether the
    naturality squares commute for enumerated endomorphism test morphisms.
    """
    k_grp = pa_x.group
    big = big or k_grp
    if pa_y.group != big:
        raise ValidationError("group-mismatch", (), "Y must carry an action of the big group")
    if not pa_y.is_global():
        raise ValidationError("not-global", (), "Y must be a global G-space")
    if len(big) > max_group:
        raise BoundExceeded("adjunction (group)", max_group, len(big))
    for space in (pa_x.space, pa_y.space):
        if len(space) > max_space:
            raise BoundExceeded("adjunction (space)", max_space, len(space))

    env = twisted_product(pa_x, big, max_pairs)
    twisted_global = env.as_global_action()
    # res^G_K(Y), keyed by K's own group object so hom-sets compose with pa_x.
    y_points = list(pa_y.space.points)
    res_y = validate_partial_action(
        k_grp, pa_y.space,
        {k: y_points for k in k_grp.elements},
        {k: dict(pa_y.thetas[k]) for k in k_grp.elements})

    g_maps = _labelled_G_maps(twisted_global, pa_y, node_budget)
    k_maps = _labelled_G_maps(pa_x, res_y, node_budget)
    k_index = {m.assignment: i for i, m in enumerate(k_maps)}
    g_index = {m.assignment: i for i, m in enumerate(g_maps)}

    checks = {"lambda-lands-in-homset": True, "tau-lands-in-homset": True,
              "tau-well-defined": True, "mutually-inverse": True,
              "naturality-post": True, "naturality-pre": True}
    witness: dict = {}

    lam = []
    for bf in g_maps:
        assignment = tuple(bf(env.embedding(x)) for x in pa_x.space.points)
        idx = k_index.get(assignment)
        if idx is None:
            checks["lambda-lands-in-homset"] = False
            witness.setdefault("lambda-miss", dict(zip(pa_x.space.points, assignment)))
            idx = -1
        lam.append(idx)

    tau = []
    for f in k_maps:
        assignment, clash = env.descend(lambda g, x: pa_y.apply(g, f(x)))
        if clash is not None:
            checks["tau-well-defined"] = False
        idx = g_index.get(assignment)
        if idx is None:
            checks["tau-lands-in-homset"] = False
            witness.setdefault("tau-miss", dict(zip(env.total.points, assignment)))
            idx = -1
        tau.append(idx)

    if len(g_maps) != len(k_maps):
        checks["mutually-inverse"] = False
    else:
        for i, li in enumerate(lam):
            if li < 0 or tau[li] != i:
                checks["mutually-inverse"] = False
                witness.setdefault("inverse-miss", i)
        for j, tj in enumerate(tau):
            if tj < 0 or lam[tj] != j:
                checks["mutually-inverse"] = False
                witness.setdefault("inverse-miss", j)

    # Naturality: post-composition square with s : Y -> Y and
    # pre-composition square with r : X -> X, over enumerated endomorphisms.
    ss = _labelled_G_maps(pa_y, pa_y, node_budget)[:naturality_morphisms]
    for s in ss:
        for i, bf in enumerate(g_maps):
            if lam[i] < 0:
                continue
            left = tuple(s(y) for y in k_maps[lam[i]].assignment)
            post = compose(s, bf)
            idx = g_index.get(post.assignment)
            right = None if idx is None or lam[idx] < 0 else k_maps[lam[idx]].assignment
            if right != left:
                checks["naturality-post"] = False
                witness.setdefault("naturality-post-miss", i)
    rs = _labelled_G_maps(pa_x, pa_x, node_budget)[:naturality_morphisms]
    for r in rs:
        er = envelope_of_map(r, pa_x, pa_x, big, env_x=env, env_y=env)
        for i, bf in enumerate(g_maps):
            if lam[i] < 0:
                continue
            left = tuple(k_maps[lam[i]](r(x)) for x in pa_x.space.points)
            pre = compose(bf, er)
            idx = g_index.get(pre.assignment)
            right = None if idx is None or lam[idx] < 0 else k_maps[lam[idx]].assignment
            if right != left:
                checks["naturality-pre"] = False
                witness.setdefault("naturality-pre-miss", i)

    status = "holds" if all(checks.values()) else "fails"
    report = {"status": status, "checks": checks,
              "g_maps": len(g_maps), "k_maps": len(k_maps),
              "witness": witness}
    return AdjunctionResult(tuple(g_maps), tuple(k_maps),
                            tuple(lam), tuple(tau), report)


def _labelled_G_maps(pa_x: PartialAction, pa_y: PartialAction,
                     node_budget: int) -> list[SpaceMap]:
    return [SpaceMap.from_row(pa_x.space, pa_y.space, row)
            for row in enumerate_G_maps(pa_x, pa_y, node_budget=node_budget)]


def product_comparison(pa_1: PartialAction, pa_2: PartialAction,
                       big: Group | None = None,
                       max_pairs: int = 256,
                       max_points: int = 64) -> tuple[SpaceMap, dict]:
    """The canonical map G x_K (X1 x X2) -> (G x_K X1) x (G x_K X2).

    Every property (well-definedness, continuity, equivariance, injectivity,
    surjectivity) is checked and reported; nothing is assumed.
    """
    if pa_1.group != pa_2.group:
        raise ValidationError("group-mismatch", (), "factors must share a group")
    big = big or pa_1.group
    diag, (rho_1, rho_2) = diagonal_product([pa_1, pa_2], max_points=max_points)
    env_d = twisted_product(diag, big, max_pairs)
    env_1 = twisted_product(pa_1, big, max_pairs)
    env_2 = twisted_product(pa_2, big, max_pairs)
    target, q1, q2 = product(env_1.total, env_2.total,
                             max_points=len(env_1.total) * len(env_2.total))
    back = {(q1(p), q2(p)): p for p in target.points}

    values, clash = env_d.descend(
        lambda g, pt: back[(env_1.class_of(g, rho_1(pt)), env_2.class_of(g, rho_2(pt)))])
    cmp_map = SpaceMap(env_d.total, target, values)

    hit = set(cmp_map.assignment)
    unhit = [p for p in target.points if p not in hit]
    collisions = {}
    for c in env_d.total.points:
        collisions.setdefault(cmp_map(c), []).append(c)
    collision_pair = next((v for v in collisions.values() if len(v) > 1), None)

    equivariant = True
    for g in big.elements:
        for c in env_d.total.points:
            moved = cmp_map(env_d.action[g][c])
            img = cmp_map(c)
            expected = back[(env_1.action[g][q1(img)], env_2.action[g][q2(img)])]
            if moved != expected:
                equivariant = False
    checks = {
        "well-defined": clash is None,
        "continuous": is_continuous(cmp_map),
        "equivariant": equivariant,
        "injective": collision_pair is None,
        "surjective": not unhit,
    }
    status = "holds" if all(checks.values()) else "fails"
    reason = None
    if not checks["well-defined"]:
        reason = "not well-defined"
    elif not checks["continuous"]:
        reason = "not continuous"
    elif not checks["equivariant"]:
        reason = "not equivariant"
    elif not (checks["injective"] and checks["surjective"]):
        reason = "not bijective"
    report = {
        "status": status,
        "checks": checks,
        "source_classes": len(env_d.total),
        "target_points": len(target),
        "map": {c: cmp_map(c) for c in env_d.total.points},
        "unhit_targets": unhit,
    }
    if reason:
        report["reason"] = reason
    if collision_pair:
        report["collision"] = collision_pair
    return cmp_map, report


def iterated_twist_comparison(pa: PartialAction, big: Group | None = None,
                              max_pairs: int = 256
                              ) -> tuple[SpaceMap, SpaceMap, dict]:
    """The maps m : G x_K (X_K) -> G x_K X and n backwards, fully checked."""
    k_grp = pa.group
    big = big or k_grp
    inner = twisted_product(pa, k_grp, max_pairs)
    inner_global = inner.as_global_action()
    outer_1 = twisted_product(inner_global, big, max_pairs)
    outer_2 = twisted_product(pa, big, max_pairs)

    m_table = {}
    m_well = True
    for label in outer_1.total.points:
        targets = set()
        for g, inner_label in outer_1.members_of(label):
            for h, x in inner.members_of(inner_label):
                targets.add(outer_2.class_of(big.mul(g, h), x))
        if len(targets) != 1:
            m_well = False
        m_table[label] = sorted(targets)[0]
    m = SpaceMap(outer_1.total, outer_2.total,
                 tuple(m_table[c] for c in outer_1.total.points))

    e = k_grp.identity
    n_values, n_clash = outer_2.descend(
        lambda g, x: outer_1.class_of(g, inner.class_of(e, x)))
    n = SpaceMap(outer_2.total, outer_1.total, n_values)

    checks = {
        "m-well-defined": m_well,
        "n-well-defined": n_clash is None,
        "m-continuous": is_continuous(m),
        "n-continuous": is_continuous(n),
        "m-equivariant": all(m(outer_1.action[g][c]) == outer_2.action[g][m(c)]
                             for g in big.elements for c in outer_1.total.points),
        "n-equivariant": all(n(outer_2.action[g][c]) == outer_1.action[g][n(c)]
                             for g in big.elements for c in outer_2.total.points),
        "m-after-n-is-identity": all(m(n(c)) == c for c in outer_2.total.points),
        "n-after-m-is-identity": all(n(m(c)) == c for c in outer_1.total.points),
    }
    status = "holds" if all(checks.values()) else "fails"
    report = {"status": status, "checks": checks,
              "iterated_classes": len(outer_1.total),
              "plain_classes": len(outer_2.total)}
    return m, n, report


def trivial_collapse(pa: PartialAction, big: Group | None = None,
                     max_pairs: int = 256) -> tuple[SpaceMap, dict]:
    """The collapse delta : G x_K Y -> Y, [g,y] |-> y, for trivial actions.

    Reported, not assumed: delta can fail to be injective when K is proper.
    """
    if not pa.is_trivial():
        bad = next((g, x) for g in pa.group.elements
                   for x, y in pa.thetas[g].items() if y != x)
        raise ValidationError("not-trivial", bad, "collapse needs a trivial action")
    big = big or pa.group
    env = twisted_product(pa, big, max_pairs)
    values, clash = env.descend(lambda g, x: x)
    delta = SpaceMap(env.total, pa.space, values)
    collisions: dict[str, list[str]] = {}
    for c in env.total.points:
        collisions.setdefault(delta(c), []).append(c)
    collision_pair = next((v for v in collisions.values() if len(v) > 1), None)
    bijective = collision_pair is None and set(delta.assignment) == set(pa.space.points)
    checks = {
        "well-defined": clash is None,
        "continuous": is_continuous(delta),
        "surjective": set(delta.assignment) == set(pa.space.points),
        "injective": collision_pair is None,
        "inverse-continuous": bool(bijective and is_continuous(delta.inverse())),
    }
    status = "holds" if all(checks.values()) else "fails"
    reason = None
    if not checks["injective"]:
        reason = "not injective"
    elif not checks["surjective"]:
        reason = "not surjective"
    elif not all(checks.values()):
        reason = "not a homeomorphism"
    report = {"status": status, "checks": checks,
              "classes": len(env.total), "target_points": len(pa.space)}
    if reason:
        report["reason"] = reason
    if collision_pair:
        report["collision"] = collision_pair[:2]
        report["collision_value"] = delta(collision_pair[0])
    return delta, report


def _fixed_sets(env: EnvelopeResult) -> Callable[[Iterable[str]], int]:
    """fixed(members): the mask of total points that mu_k fixes for every k
    in ``members``, from one moved-point mask per element."""
    index = env.total._index
    moved = {}
    for k, act in env.action.items():
        m = 0
        for c, d in act.items():
            if c != d:
                m |= 1 << index[c]
        moved[k] = m
    full = (1 << len(env.total)) - 1

    def fixed(members: Iterable[str]) -> int:
        m = 0
        for k in members:
            m |= moved[k]
        return full & ~m
    return fixed


def fixed_identities(pa: PartialAction, h: Subgroup,
                     env: EnvelopeResult) -> tuple[dict, dict]:
    """Identities 1 and 2 of :func:`fixed_decomposition` for one subgroup H,
    as its ``decomposition`` and ``embedded_fixed`` documents."""
    grp = pa.group
    if h.parent != grp:
        raise ValidationError("group-mismatch", (), "subgroup of a different group")
    total = env.total
    image = total.mask_of(env.embedding.assignment)
    fixed = _fixed_sets(env)

    lhs_1 = fixed(h.members)
    rhs_1 = 0
    for g in grp.elements:
        conj = conjugate_subgroup(h, g)
        act = env.action[g]
        for c in bit_indices(fixed(conj.members) & image):
            rhs_1 |= 1 << total.index(act[total.points[c]])

    lhs_2 = total.mask_of(env.embedding(x) for x in fixed_points(pa, h))
    rhs_2 = lhs_1 & image

    def labels(mask: int) -> list[str]:
        return [total.points[i] for i in bit_indices(mask)]

    return ({"holds": lhs_1 == rhs_1,
             "fixed_in_total": labels(lhs_1),
             "union_of_translates": labels(rhs_1)},
            {"holds": lhs_2 == rhs_2,
             "image_of_fixed": labels(lhs_2),
             "fixed_in_image": labels(rhs_2)})


def generated_intersection(pa: PartialAction, env: EnvelopeResult,
                           max_families: int = 4096, group_order: int = 16) -> dict:
    """Identity 3 of :func:`fixed_decomposition` over subgroup families: the
    intersection of iota(X)[K_i] equals iota(X)[<union of the K_i>].  Every
    nonempty family when there are at most ``max_families``, else every
    pair; the lattice is enumerated once, for groups of at most
    ``group_order`` elements."""
    grp = pa.group
    subs = all_subgroups(grp, group_order)
    image = env.total.mask_of(env.embedding.assignment)
    fixed = _fixed_sets(env)
    fixed_in_image = [fixed(k.members) & image for k in subs]
    families: list[tuple[int, ...]] = []
    if 2 ** len(subs) - 1 <= max_families:
        for mask in range(1, 2 ** len(subs)):
            families.append(tuple(bit_indices(mask)))
    else:
        families = [(i, j) for i in range(len(subs)) for j in range(i, len(subs))]
    holds = True
    witness = None
    for family in families:
        inter = image
        union = 0
        for i in family:
            inter &= fixed_in_image[i]
            union |= subs[i].mask
        generated = subgroup_generated(grp, grp.labels_of(union))
        if inter != fixed(generated.members) & image:
            holds = False
            if witness is None:
                witness = [sorted(subs[i].members) for i in family]
    return {"holds": holds, "families_checked": len(families), "witness": witness}


def fixed_decomposition(pa: PartialAction, h: Subgroup,
                        env: EnvelopeResult | None = None,
                        max_pairs: int = 256,
                        max_families: int = 4096,
                        group_order: int = 16) -> dict:
    """Check the fixed-point identities in the globalization:

    1. X_G[H] equals the union over g of mu_g(iota(X)[g^-1 H g]),
    2. iota(X[H]) = iota(X)[H],
    3. the intersection of iota(X)[K_i] over a family equals
       iota(X)[<union of the K_i>]  (checked over subgroup families).
    """
    grp = pa.group
    if h.parent != grp:
        raise ValidationError("group-mismatch", (), "subgroup of a different group")
    if env is None:
        env = globalize(pa, max_pairs)
    decomposition, embedded_fixed = fixed_identities(pa, h, env)
    generated = generated_intersection(pa, env, max_families, group_order)
    holds = decomposition["holds"] and embedded_fixed["holds"] and generated["holds"]
    return {
        "status": "holds" if holds else "fails",
        "subgroup": sorted(h.members, key=grp.index),
        "decomposition": decomposition,
        "embedded_fixed": embedded_fixed,
        "generated_intersection": generated,
    }
