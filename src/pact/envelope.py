"""Globalizations and twisted products, with their structure maps.

Two independent routes build the same kind of object:

* ``globalize`` quotients G x X by the relation
  (g,x) ~ (h,y)  iff  x in X_{g^-1 h} and theta_{h^-1 g}(x) = y,
* ``twisted_product`` quotients G x X by the orbits of the diagonal action
  of a subgroup K, with classes [g,x]_K = {(g k^-1, theta_k(x)) : k in K^x}.

Both hand the class masks of G x X to one assembly, which returns an
:class:`EnvelopeResult` carrying the quotient space, the global action mu,
the projection p and the embedding iota as index tables, all checked
against the trusted invariants at construction time.  Labels are read off
the tables only where text leaves the program.  The comparison maps of the
corollaries (products, iterated twists, trivial collapse) are built and
checked by one kernel, :func:`_map_checks`, never assumed homeomorphisms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import chain
from operator import itemgetter, or_
from typing import Callable, Sequence

from .algebra import (Group, Subgroup, all_subgroups, conjugate_subgroup,
                      is_subgroup_embedding)
from .errors import BoundExceeded, InternalCheckError, ValidationError
from .finspace import (FinSpace, SpaceMap, bit_indices, block_down_masks,
                       discrete_space, equivalence_classes, is_continuous,
                       is_open, monotonicity_violation,
                       pair_label, product, quotient_order)
from .homotopy import MapPoset
from .paction import (PartialAction, _global_certificate, certified_global_action,
                      diagonal_product, fixed_points, g_map_faults,
                      orbit_classes, restrict_global, restrict_to_group)


@dataclass(frozen=True)
class EnvelopeResult:
    """A quotient G-space with its action, projection and embedding, stored
    as index tables.  Pair (g, x) of G x X is index g * |X| + x (element
    index g of ``big_group``, point index x of ``base.space``), also its
    point index in ``product_space``.  Class c, numbered by least member, is
    ``total.points[c]``, labelled by its least member's pair label, which
    keeps every downstream report deterministic.

    ``pair_class[p]`` is the class of pair p (the projection),
    ``members[c]`` the pairs of class c ascending, ``action_rows[g]`` mu_g as
    an index row of the total space, and ``kstar`` the mask of K*X's pairs.
    Labels are views, built where text leaves the program: ``embedding``,
    ``to_document`` and ``as_global_action``.
    """

    base: PartialAction
    big_group: Group
    product_space: FinSpace
    total: FinSpace
    pair_class: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    action_rows: tuple[tuple[int, ...], ...]
    kstar: int

    @property
    def embedding_row(self) -> tuple[int, ...]:
        """iota as an index row: the class of (e, x) per point x."""
        n = len(self.base.space)
        start = self.big_group.index(self.big_group.identity) * n
        return self.pair_class[start:start + n]

    @property
    def embedding(self) -> SpaceMap:
        return SpaceMap(self.base.space, self.total, self.embedding_row)

    def embedding_image(self) -> frozenset[str]:
        return frozenset(map(self.total.points.__getitem__, self.embedding_row))

    def descend(self, values: Sequence[int]) -> tuple[tuple[int, ...], int | None]:
        """The map on classes induced by a map on pairs, given as its value
        at each pair index: per class, the one value it takes on the
        class's members, plus the first class whose members disagree (None
        when the map is well defined).  A disagreeing class gets its least
        value, so a failing check still yields a map to report."""
        return _descend(self.pair_class, self.members, values)

    def as_global_action(self) -> PartialAction:
        """The enveloping action as a certified global PartialAction, kept
        with the envelope, so one envelope yields one action."""
        return self._global_action

    @cached_property
    def _global_action(self) -> PartialAction:
        # _assemble sets it; a copy with other rows certifies its own here
        return certified_global_action(self.big_group, self.total, self.action_rows)

    @cached_property
    def moved(self) -> tuple[int, ...]:
        """Per element index g, the mask of the total points mu_g moves."""
        return tuple(sum(1 << c for c, d in enumerate(mu) if c != d)
                     for mu in self.action_rows)

    def to_document(self) -> dict:
        """JSON-ready document: class table, opens of the total space,
        action table and embedding table."""
        elements, base_points = self.big_group.elements, self.base.space.points
        n = len(base_points)
        points = self.total.points
        return {
            "group": list(elements),
            "class_count": len(points),
            "classes": {c: [[elements[p // n], base_points[p % n]] for p in pairs]
                        for c, pairs in zip(points, self.members)},
            "total": {
                "points": list(points),
                "min_open": {c: [points[i] for i in bit_indices(down)]
                             for c, down in zip(points, self.total.down)},
            },
            "action": {g: dict(zip(points, map(points.__getitem__, row)))
                       for g, row in zip(elements, self.action_rows)},
            "embedding": dict(zip(base_points, map(points.__getitem__, self.embedding_row))),
        }


def _descend(pair_class: Sequence[int], members: Sequence[Sequence[int]],
             values: Sequence[int]) -> tuple[tuple[int, ...], int | None]:
    """:meth:`EnvelopeResult.descend` on the tables it reads."""
    values = list(values)
    out = list(map(values.__getitem__, map(itemgetter(0), members)))
    if list(map(out.__getitem__, pair_class)) == values:
        return tuple(out), None
    least = tuple(min(map(values.__getitem__, pairs)) for pairs in members)
    return least, min(c for c, v in zip(pair_class, values) if out[c] != v)


def _pair_count(big: Group, space: FinSpace, max_pairs: int) -> int:
    n = len(big) * len(space)
    if n > max_pairs:
        raise BoundExceeded("envelope construction", max_pairs, n)
    return n


def _assemble(pa: PartialAction, big: Group, prod: FinSpace,
              classes: Sequence[int]) -> EnvelopeResult:
    """Common tail of both constructions.  From the class masks over the
    pairs of G x X (``prod``, as :func:`block_down_masks` builds it),
    ordered by least member, build the quotient, the action, the projection
    and the embedding as index tables, and assert the trusted invariants on
    them.  Two are certified in less work; when a certificate fails, the
    exhaustive checks run to name the witness they always named:

    * mu_g, read at each class's first member (h, y) as the class of
      (gh, y), is well defined for every g once the left translation L_s of
      G x X keeps classes together for each generator s, as each L_g is a
      composite of L_s's.  Then ``_global_certificate`` (mu_e, and mu_s
      monotone with mu_s . mu_g = mu_sg for each s and g) proves mu an
      action by homeomorphisms, as :func:`certified_global_action` shows;
      the action is kept as the envelope's.  Else :func:`_action_scan`.
    * The projection p is continuous and open iff p(U_q) = below[p(q)] for
      every pair q: equality makes p monotone and every p(U_q), hence the
      image of every open, a down-set; conversely continuity gives the
      inclusion, and openness the down-set of p(q).  As U_(g,x) is
      {g} x U_x, the images are read one column x at a time.
    """
    space, k = pa.space, pa.group
    n, pairs, count = len(space), len(prod), len(classes)
    cls_of, below, member_lists = quotient_order(prod.down, classes)
    pair_class = tuple(cls_of)
    members = tuple(map(tuple, member_lists))
    labels = tuple(map(prod.points.__getitem__, map(itemgetter(0), members)))
    total = FinSpace(labels, tuple(below))

    # mu_g sends the class of (h, y) to the class of (gh, y): read at each
    # class's first member, and compared on every member for the generators
    first_pairs = [divmod(m[0], n) for m in members]
    every_pair = [divmod(p, n) for p in range(pairs)]
    action_rows = tuple(_translated(big.rows, n, cls_of, first_pairs))
    generators = big.generators
    moved = _translated([big.rows[s] for s in generators], n, cls_of, every_pair)
    action = None
    if all(tuple([action_rows[s][c] for c in cls_of]) == row
           for s, row in zip(generators, moved)):
        action = _global_certificate(big, total, action_rows)
    if action is None:
        _action_scan(big, pair_class, members, labels, action_rows, below)

    class_bit = [1 << c for c in pair_class]
    columns = [class_bit[x::n] for x in range(n)]
    if ([list(reduce(partial(map, or_), map(columns.__getitem__, bit_indices(u))))
         for u in space.down]
            != [list(map(below.__getitem__, pair_class[x::n])) for x in range(n)]):
        if monotonicity_violation(prod.down, (1 << pairs) - 1, pair_class, below) is not None:
            raise InternalCheckError("projection is not continuous")
        raise InternalCheckError("projection is not open")
    if len(set(pair_class)) != count:
        raise InternalCheckError("projection is not surjective")

    e = big.index(big.identity)
    emb = pair_class[e * n:(e + 1) * n]
    if len(set(emb)) != n:
        raise InternalCheckError("embedding is not injective")
    if monotonicity_violation(space.down, (1 << n) - 1, emb, below) is not None:
        raise InternalCheckError("embedding is not continuous")

    kstar = sum(1 << (big.index(label) * n + x) for g, label in enumerate(k.elements)
                for x in pa.domain_points[k.inverse_row[g]])
    if reduce(or_, map(classes.__getitem__, emb)) != kstar:
        raise InternalCheckError("p^-1(iota(X)) differs from K*X")

    for g, label in enumerate(k.elements):
        mu, theta = action_rows[big.index(label)], pa.images[g]
        for x in pa.domain_points[k.inverse_row[g]]:
            if mu[emb[x]] != emb[theta[x]]:
                raise InternalCheckError(
                    f"action and embedding disagree at ({label!r}, {space.points[x]!r})")

    if len(set(chain.from_iterable(map(mu.__getitem__, emb) for mu in action_rows))) != count:
        raise InternalCheckError("G.iota(X) does not cover the total space")

    env = EnvelopeResult(pa, big, prod, total, pair_class, members, action_rows, kstar)
    env.__dict__["_global_action"] = action  # certified above: the cached view's value
    return env


def _translated(rows: Sequence[Sequence[int]], n: int, cls_of: Sequence[int],
                hys: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Per group table row (element g), the class of (gh, y) per (h, y)."""
    return [tuple([cls_of[row[h] * n + y] for h, y in hys]) for row in rows]


def _action_scan(big: Group, pair_class: tuple[int, ...], members: Sequence[Sequence[int]],
                 labels: Sequence[str], action_rows: Sequence[tuple[int, ...]],
                 below: Sequence[int]) -> None:
    """The checks behind :func:`_assemble`'s action certificate, in their
    order: each L_g keeps classes together, mu_e is the identity, mu is an
    action at each (g, h), each mu_g is a homeomorphism.  The first that
    fails raises InternalCheckError."""
    n, count = len(pair_class) // len(big), len(below)
    every_pair = [divmod(p, n) for p in range(len(pair_class))]
    for g, moved in enumerate(_translated(big.rows, n, pair_class, every_pair)):
        _, clash = _descend(pair_class, members, moved)
        if clash is not None:
            raise InternalCheckError(f"enveloping action not well defined at "
                                     f"({big.elements[g]!r}, {labels[clash]!r})")
    if action_rows[big.index(big.identity)] != tuple(range(count)):
        raise InternalCheckError("mu_e is not the identity")
    for g, row in enumerate(big.rows):
        for h, gh in enumerate(row):
            if tuple(map(action_rows[g].__getitem__, action_rows[h])) != action_rows[gh]:
                raise InternalCheckError(f"mu is not an action at "
                                         f"({big.elements[g]!r}, {big.elements[h]!r})")
    # mu is an action with mu_e the identity, so mu_g's inverse is
    # mu_{g^-1}, whose continuity this same loop checks
    for g, mu in enumerate(action_rows):
        if not (len(set(mu)) == count
                and monotonicity_violation(below, (1 << count) - 1, mu, below) is None):
            raise InternalCheckError(
                f"mu_{big.elements[g]!r} is not a homeomorphism of the total space")
    raise InternalCheckError("a built global action fails its certificate")


def globalize(pa: PartialAction, max_pairs: int = 256) -> EnvelopeResult:
    """The enveloping space X_G: quotient of G x X by the relation R.

    R is checked to be an equivalence relation (by the certificate of
    :func:`equivalence_classes`) before the quotient is taken; for a finite
    group every partial action is nice, so the embedding is an open
    embedding (asserted downstream by the claims).
    """
    g_grp = pa.group
    space = pa.space
    _pair_count(g_grp, space, max_pairs)
    prod = FinSpace(tuple(pair_label(g, x) for g in g_grp.elements for x in space.points),
                    tuple(block_down_masks(space.down, len(g_grp))))
    # (g, x) ~ (gk, theta_{k^-1}(x)) for each k with x in X_k
    n = len(space)
    rel = _pair_relation(g_grp, n, [(k, pa.images[g_grp.inverse_row[k]])
                                    for k in range(len(g_grp))])
    classes = equivalence_classes(
        rel, "R", lambda p: (g_grp.elements[p // n], space.points[p % n]))
    return _assemble(pa, g_grp, prod, classes)


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
    pairs = _pair_count(big, space, max_pairs)
    diag = diagonal_product(_right_translation(k_grp, big), pa)
    # the diagonal product's space is the labelled G x X
    prod = diag.space
    if list(prod.down) != block_down_masks(space.down, len(big)):
        raise InternalCheckError("diagonal product space differs from G x X")
    classes = orbit_classes(diag)
    # (g, x) is product point g * |X| + x; class masks per product point
    n = len(space)
    class_mask = [0] * pairs
    for m in classes:
        for p in bit_indices(m):
            class_mask[p] = m
    # the one-step class of (g, x): {(g k^-1, theta_k(x)) : k in K^x}
    one_step = _pair_relation(big, n, [(big.inverse_row[big.index(k)], image)
                                       for k, image in zip(k_grp.elements, pa.images)])
    if one_step != class_mask:
        g, x = divmod(next(p for p, (a, b) in enumerate(zip(one_step, class_mask)) if a != b), n)
        raise InternalCheckError(f"one-step class of ({big.elements[g]!r}, "
                                 f"{space.points[x]!r}) differs from its orbit")
    return _assemble(pa, big, prod, classes)


def _pair_relation(big: Group, n: int, steps: Sequence[tuple[int, Sequence[int]]]
                   ) -> list[int]:
    """One mask per pair (g, x) = g * n + x of G x X: the pairs
    (gk, theta(x)) over the steps (k, theta), theta an index table of X
    with -1 where undefined, which reads the 0 at the end of each block."""
    bit = [1 << p for p in range(len(big) * n)]
    blocks = [bit[t * n:(t + 1) * n] + [0] for t in range(len(big))]
    rel = [0] * (len(big) * n)
    for k, image in steps:
        targets = [blocks[row[k]] for row in big.rows]
        rel = [m | b for m, b in zip(rel, [bits[y] for bits in targets for y in image])]
    return rel


def _right_translation(k_grp: Group, big: Group) -> PartialAction:
    """The global action of K on the discrete space G by g |-> g k^-1."""
    k_inverse = [big.inverse_row[big.index(k)] for k in k_grp.elements]
    return certified_global_action(k_grp, discrete_space(big.elements),
                                   [[row[k] for row in big.rows] for k in k_inverse])


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
    (row,) = lift_maps(MapPoset(f.source, f.target, (f.row,)),
                       pa_x, pa_y, env_x, env_y, big)
    return SpaceMap(env_x.total, env_y.total, row)


def lift_maps(poset: MapPoset, pa_x: PartialAction, pa_y: PartialAction,
              env_x: EnvelopeResult, env_y: EnvelopeResult,
              big: Group | None = None) -> list[tuple[int, ...]]:
    """The induced map [g,x] |-> [g,f(x)] of every row f of ``poset``, as
    index rows from env_x.total to env_y.total, in row order.

    Each row is checked as lifting it alone would check it, in this order:
    it is continuous and equivariant (``ValidationError`` "not-continuous"
    or "not-a-G-map"), and its lift is well defined on every class member,
    continuous and equivariant (``InternalCheckError``).  The first row that
    fails raises its first failing check.

    Every check runs once per table on column masks.  The G-map checks and
    the lifts' continuity and equivariance are :func:`g_map_faults`.
    Well-definedness compares, class by class, the rows where each member
    lands in env_y with those where the class's first member does, through
    the inverse of env_y's class table per element; only the first row that
    clashes is descended pair by pair, to name its class.  The rows before
    the first failing one are lifted column by column through the first
    member of each class, which also yields the lifts' column masks.
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

    # pair (g, x) of env_x goes to the class of (g, f(x)) in env_y, read
    # off env_y.pair_class at offset[g] + f(x)
    width_x, width_y = len(pa_x.space), len(pa_y.space)
    offset = [env_y.big_group.index(g) * width_y for g in env_x.big_group.elements]
    class_y = env_y.pair_class
    # per element g of env_x, the inverse of v |-> class of (g, v)
    inverse: list[dict[int, list[int]]] = []
    for start in offset:
        values: dict[int, list[int]] = {}
        for v, c in enumerate(class_y[start:start + width_y]):
            values.setdefault(c, []).append(v)
        inverse.append(values)
    # the rows whose lift is not well defined: per class, the rows where a
    # member lands in a different env_y class than the first member does
    columns = poset.columns
    clashes = 0
    for pairs in env_x.members:
        if len(pairs) == 1:
            continue
        g, x = divmod(pairs[0], width_x)
        start = offset[g]
        landing = [(rows, class_y[start + v]) for v, rows in enumerate(columns[x]) if rows]
        for p in pairs[1:]:
            g, x = divmod(p, width_x)
            values, column = inverse[g], columns[x]
            for rows, c in landing:
                agree = 0
                for v in values.get(c, ()):
                    agree |= column[v]
                clashes |= rows & ~agree
    first_clash = (clashes & -clashes).bit_length() - 1 if clashes else len(poset.rows)

    # each class takes the value of its first member (g, x): the class of
    # (g, f(x)), read column by column, both as rows and as column masks
    stop = min(first_fault, first_clash)
    keep = (1 << stop) - 1
    total_x, total_y = env_x.total, env_y.total
    at_x = list(zip(*poset.rows[:stop])) or [()] * width_x
    lift_tables, lifted_columns = [], []
    for pairs in env_x.members:
        g, x = divmod(pairs[0], width_x)
        table = class_y[offset[g]:offset[g] + width_y]
        lift_tables.append([table[v] for v in at_x[x]])
        masks = [0] * len(total_y)
        for v, rows in enumerate(columns[x]):
            if rows:
                masks[table[v]] |= rows & keep
        lifted_columns.append(masks)
    lifted = list(zip(*lift_tables))
    clash = None
    if first_clash < first_fault:
        # name the class: the first one whose members disagree
        row = poset.rows[first_clash]
        _, clash = env_x.descend([class_y[offset[g] + row[x]]
                                  for g in range(len(offset)) for x in range(width_x)])

    lift_discontinuous, lift_non_equivariant = g_map_faults(
        lifted_columns, total_x, total_y,
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
    xs = bit_indices(pa_global.space.mask_of(u))
    covered = reduce(or_, (1 << image[x] for image in pa_global.images for x in xs))
    missing = [p for i, p in enumerate(pa_global.space.points) if not covered >> i & 1]
    if missing:
        return None, {"status": "precondition-unmet",
                      "reason": "orbit of the subset does not cover the space",
                      "uncovered": missing}
    restricted = restrict_global(pa_global, u)
    env = globalize(restricted, max_pairs)
    xs = list(map(pa_global.space.index, restricted.space.points))
    values, clash = env.descend([image[x] for image in pa_global.images for x in xs])
    phi = SpaceMap(env.total, pa_global.space, values)
    checks, _, _ = _map_checks(phi, ("bijective", "continuous", "inverse-continuous",
                                     "equivariant"), env.action_rows, pa_global.images)
    checks = {"well-defined": clash is None, **checks}
    status = "holds" if all(checks.values()) else "fails"
    report = {"status": status, "checks": checks,
              "classes": len(env.total), "target_points": len(pa_global.space)}
    return phi, report


NATURALITY_MORPHISMS = 8
"""How many endomorphisms (the first in row order) test each naturality
square of :func:`adjunction_maps`."""


def adjunction_maps(env: EnvelopeResult, pa_y: PartialAction,
                    hom: Callable[[PartialAction, PartialAction], MapPoset]) -> dict:
    """Materialize lambda and tau for the twisted product ``env`` = G x_K X
    of a K-action X and a global G-space Y, and return the report.

    ``hom(pa_a, pa_b)`` returns the poset of G-maps A -> B, built by the
    caller (``enumerate_maps(..., equivariant=(pa_a, pa_b))``) under its
    own bounds, or one it already has.  lambda(F) = F o iota_K and
    tau(f)([g,x]) = eta(g, f(x)); the report records whether they are
    mutually inverse bijections and whether the naturality squares commute
    for the first :data:`NATURALITY_MORPHISMS` endomorphisms of X and of Y.
    """
    pa_x, big = env.base, env.big_group
    k_grp = pa_x.group
    if pa_y.group != big:
        raise ValidationError("group-mismatch", (), "Y must carry an action of the big group")
    if not pa_y.is_global():
        raise ValidationError("not-global", (), "Y must be a global G-space")

    # res^G_K(Y), keyed by K's own group object so hom-sets compose with pa_x.
    res_y = restrict_to_group(pa_y, k_grp)

    # both hom-sets as index rows; labels only in witnesses
    g_rows = hom(env.as_global_action(), pa_y).rows
    k_rows = hom(pa_x, res_y).rows
    k_index = {row: i for i, row in enumerate(k_rows)}
    g_index = {row: i for i, row in enumerate(g_rows)}
    y_points = pa_y.space.points

    checks = {"lambda-lands-in-homset": True, "tau-lands-in-homset": True,
              "tau-well-defined": True, "mutually-inverse": True,
              "naturality-post": True, "naturality-pre": True}
    witness: dict = {}

    lam = []
    emb = env.embedding_row
    for bf in g_rows:
        row = tuple([bf[x] for x in emb])
        idx = k_index.get(row)
        if idx is None:
            checks["lambda-lands-in-homset"] = False
            witness.setdefault("lambda-miss", dict(zip(pa_x.space.points,
                                                       map(y_points.__getitem__, row))))
            idx = -1
        lam.append(idx)

    tau = []
    for f in k_rows:
        values, clash = env.descend([image[y] for image in pa_y.images for y in f])
        if clash is not None:
            checks["tau-well-defined"] = False
        idx = g_index.get(values)
        if idx is None:
            checks["tau-lands-in-homset"] = False
            witness.setdefault("tau-miss", dict(zip(env.total.points,
                                                    map(y_points.__getitem__, values))))
            idx = -1
        tau.append(idx)

    if len(g_rows) != len(k_rows):
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

    def lam_of(row: tuple[int, ...]) -> tuple[int, ...] | None:
        idx = g_index.get(row)
        return None if idx is None or lam[idx] < 0 else k_rows[lam[idx]]

    # Naturality: post-composition square with s : Y -> Y and
    # pre-composition square with r : X -> X, over enumerated endomorphisms.
    ss = hom(pa_y, pa_y).rows[:NATURALITY_MORPHISMS]
    for s in ss:
        for i, bf in enumerate(g_rows):
            if lam[i] < 0:
                continue
            left = tuple([s[v] for v in k_rows[lam[i]]])
            if lam_of(tuple([s[v] for v in bf])) != left:
                checks["naturality-post"] = False
                witness.setdefault("naturality-post-miss", i)
    rs = hom(pa_x, pa_x).rows[:NATURALITY_MORPHISMS]
    ers = lift_maps(MapPoset(pa_x.space, pa_x.space, rs), pa_x, pa_x, env, env, big)
    for r, er in zip(rs, ers):
        for i, bf in enumerate(g_rows):
            if lam[i] < 0:
                continue
            k_row = k_rows[lam[i]]
            left = tuple([k_row[v] for v in r])
            if lam_of(tuple([bf[c] for c in er])) != left:
                checks["naturality-pre"] = False
                witness.setdefault("naturality-pre-miss", i)

    status = "holds" if all(checks.values()) else "fails"
    return {"status": status, "checks": checks,
            "g_maps": len(g_rows), "k_maps": len(k_rows), "witness": witness}


def product_comparison(env_d: EnvelopeResult, env_1: EnvelopeResult,
                       env_2: EnvelopeResult) -> dict:
    """The report on the canonical map G x_K (X1 x X2) -> (G x_K X1) x (G x_K X2).

    ``env_d``, ``env_1`` and ``env_2`` are the twisted products over one
    group G of the diagonal product X1 x X2 and of its two factors, with
    X1 x X2's points in :func:`diagonal_product`'s order, so point p is
    (x1, x2) = divmod(p, |X2|).  Every property (well-definedness,
    continuity, equivariance, injectivity, surjectivity) is checked and
    reported; nothing is assumed.
    """
    big = env_d.big_group
    if env_1.big_group != big or env_2.big_group != big:
        raise ValidationError("group-mismatch", (), "the twisted products must share a group")
    points_1, points_2 = env_1.base.space.points, env_2.base.space.points
    if env_d.base.space.points != tuple(pair_label(x1, x2) for x1 in points_1
                                        for x2 in points_2):
        raise ValidationError("space-mismatch", (),
                              "the first twisted product is not over the factors' product")
    target = product(env_1.total, env_2.total)
    # target point ([g,x1], [g,x2]) is index [g,x1] * |G x_K X2| + [g,x2]
    width = len(env_2.total)
    n_1, n_2 = len(points_1), len(points_2)
    values, clash = env_d.descend(
        [env_1.pair_class[g * n_1 + x1] * width + env_2.pair_class[g * n_2 + x2]
         for g in range(len(big)) for x1 in range(n_1) for x2 in range(n_2)])
    cmp_map = SpaceMap(env_d.total, target, values)
    target_rows = [[a * width + b for a in mu_1 for b in mu_2]
                   for mu_1, mu_2 in zip(env_1.action_rows, env_2.action_rows)]
    checks, collision, unhit = _map_checks(
        cmp_map, ("continuous", "equivariant", "injective", "surjective"),
        env_d.action_rows, target_rows)
    checks = {"well-defined": clash is None, **checks}
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
        "map": cmp_map.as_dict(),
        "unhit_targets": unhit,
    }
    if reason:
        report["reason"] = reason
    if collision:
        report["collision"] = collision
    return report


def iterated_twist_comparison(inner: EnvelopeResult, outer_1: EnvelopeResult,
                              outer_2: EnvelopeResult) -> dict:
    """The report on the maps m : G x_K (X_K) -> G x_K X and n backwards,
    fully checked.

    ``inner`` is X_K = K x_K X, the twisted product of a K-action X over K
    itself; ``outer_1`` is G x_K of inner's global action and ``outer_2``
    is G x_K X.
    """
    pa, big = inner.base, outer_2.big_group
    if (inner.big_group != pa.group or outer_2.base != pa
            or outer_1.base.space != inner.total or outer_1.big_group != big):
        raise ValidationError("envelope-mismatch", (),
                              "the twisted products are not those of one action")

    # m[g, [h, x]] = [gh, x], descended through inner's classes for each g
    # and then through outer_1's
    points = len(pa.space)
    k_in_big = list(map(big.index, pa.group.elements))
    m_table: list[int] = []
    m_well = True
    for row in big.rows:
        values, clash = inner.descend([outer_2.pair_class[row[h] * points + x]
                                       for h in k_in_big for x in range(points)])
        m_table += values
        m_well = m_well and clash is None
    m_values, m_clash = outer_1.descend(m_table)
    m = SpaceMap(outer_1.total, outer_2.total, m_values)

    # n[g, x] = [g, [e, x]]
    width = len(inner.total)
    n_values, n_clash = outer_2.descend([outer_1.pair_class[g * width + c]
                                         for g in range(len(big)) for c in inner.embedding_row])
    n = SpaceMap(outer_2.total, outer_1.total, n_values)

    names = ("continuous", "equivariant")
    m_checks, _, _ = _map_checks(m, names, outer_1.action_rows, outer_2.action_rows)
    n_checks, _, _ = _map_checks(n, names, outer_2.action_rows, outer_1.action_rows)
    checks = {
        "m-well-defined": m_well and m_clash is None,
        "n-well-defined": n_clash is None,
        "m-continuous": m_checks["continuous"],
        "n-continuous": n_checks["continuous"],
        "m-equivariant": m_checks["equivariant"],
        "n-equivariant": n_checks["equivariant"],
        "m-after-n-is-identity": all(m_values[c] == i for i, c in enumerate(n_values)),
        "n-after-m-is-identity": all(n_values[c] == i for i, c in enumerate(m_values)),
    }
    status = "holds" if all(checks.values()) else "fails"
    report = {"status": status, "checks": checks,
              "iterated_classes": len(outer_1.total),
              "plain_classes": len(outer_2.total)}
    return report


def trivial_collapse(env: EnvelopeResult) -> dict:
    """The report on the collapse delta : G x_K Y -> Y, [g,y] |-> y, of
    the twisted product ``env`` of a trivial action.

    Reported, not assumed: delta can fail to be injective when K is proper.
    """
    pa, big = env.base, env.big_group
    if not pa.is_trivial():
        bad = next((g, pa.space.points[x]) for g, image in zip(pa.group.elements, pa.images)
                   for x, y in enumerate(image) if y >= 0 and y != x)
        raise ValidationError("not-trivial", bad, "collapse needs a trivial action")
    values, clash = env.descend(list(range(len(pa.space))) * len(big))
    delta = SpaceMap(env.total, pa.space, values)
    checks, collision, _ = _map_checks(
        delta, ("continuous", "surjective", "injective", "inverse-continuous"))
    checks = {"well-defined": clash is None, **checks}
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
    if collision:
        report["collision"] = collision[:2]
        report["collision_value"] = delta(collision[0])
    return report


def _map_checks(f: SpaceMap, names: Sequence[str], source_rows: Sequence = (),
                target_rows: Sequence = ()) -> tuple[dict, list[str] | None, list[str]]:
    """The checks of ``f`` named in ``names``, in that order, each run only
    when named: "continuous", "equivariant" (f . mu_g = nu_g . f, mu_g and
    nu_g the g-th rows of ``source_rows`` and ``target_rows``), "injective",
    "surjective", "bijective" and "inverse-continuous".  Also returns the
    first collision, the source points of the repeated value whose least
    preimage comes first (None when f is injective), and the unhit targets."""
    row, hit = f.row, set(f.row)
    collision = None
    if len(hit) < len(row):
        value = next(v for v in row if row.count(v) > 1)
        collision = [p for p, v in zip(f.source.points, row) if v == value]
    unhit = [p for j, p in enumerate(f.target.points) if j not in hit]
    checks = {
        "continuous": lambda: is_continuous(f),
        "equivariant": lambda: all([row[c] for c in mu] == [nu[v] for v in row]
                                   for mu, nu in zip(source_rows, target_rows)),
        "injective": lambda: collision is None,
        "surjective": lambda: not unhit,
        "bijective": f.is_bijective,
        "inverse-continuous": lambda: f.is_bijective() and is_continuous(f.inverse()),
    }
    return {name: checks[name]() for name in names}, collision, unhit


def fixed_identities(pa: PartialAction, h: Subgroup,
                     env: EnvelopeResult) -> tuple[dict, dict]:
    """Identities 1 and 2 of :func:`fixed_decomposition` for one subgroup H,
    as its ``decomposition`` and ``embedded_fixed`` documents; ``env`` is
    the globalization of ``pa``."""
    grp = pa.group
    if h.parent != grp:
        raise ValidationError("group-mismatch", (), "subgroup of a different group")
    total = env.total
    emb = env.embedding_row
    image = reduce(or_, (1 << c for c in emb))
    moved, full = env.moved, (1 << len(total)) - 1

    def fixed(mask: int) -> int:
        """The total points that mu_k fixes for every k in ``mask``."""
        return full & ~reduce(or_, map(moved.__getitem__, bit_indices(mask)), 0)

    lhs_1 = fixed(h.mask)
    rhs_1 = 0
    for g, mu in zip(grp.elements, env.action_rows):
        for c in bit_indices(fixed(conjugate_subgroup(h, g).mask) & image):
            rhs_1 |= 1 << mu[c]

    lhs_2 = reduce(or_, (1 << emb[pa.space.index(x)] for x in fixed_points(pa, h)), 0)
    rhs_2 = lhs_1 & image

    def labels(mask: int) -> list[str]:
        return [total.points[i] for i in bit_indices(mask)]

    return ({"holds": lhs_1 == rhs_1,
             "fixed_in_total": labels(lhs_1),
             "union_of_translates": labels(rhs_1)},
            {"holds": lhs_2 == rhs_2,
             "image_of_fixed": labels(lhs_2),
             "fixed_in_image": labels(rhs_2)})


MAX_FAMILIES = 4096  # generated_intersection counts up to this many families, else pairs


def generated_intersection(pa: PartialAction, env: EnvelopeResult,
                           subs: Sequence[Subgroup]) -> dict:
    """Identity 3 of :func:`fixed_decomposition` over families of the
    subgroups ``subs``, pa's lattice: the intersection of iota(X)[K_i]
    equals iota(X)[<union of the K_i>].  A point c lies in Fix(K) iff K is
    inside its stabiliser S_c.  So once each S_c with c in iota(X) is
    checked to be a subgroup (else InternalCheckError), c lies in every
    Fix(K_i) iff the union of the K_i is inside S_c iff <union of the K_i>
    is, and the identity holds for every family without visiting any.
    ``families_checked`` counts every nonempty family when there are at
    most :data:`MAX_FAMILIES`, else every pair."""
    grp = pa.group
    for c in env.embedding_row:
        if not grp.is_subgroup(sum(1 << k for k, mu in enumerate(env.action_rows)
                                   if mu[c] == c)):
            raise InternalCheckError(f"stabiliser of {env.total.points[c]!r} "
                                     f"is not a subgroup")
    n = len(subs)
    families = 2 ** n - 1 if 2 ** n - 1 <= MAX_FAMILIES else n * (n + 1) // 2
    return {"holds": True, "families_checked": families, "witness": None}


def fixed_decomposition(pa: PartialAction, h: Subgroup,
                        env: EnvelopeResult | None = None,
                        max_pairs: int = 256,
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
    generated = generated_intersection(pa, env, all_subgroups(grp, group_order))
    holds = decomposition["holds"] and embedded_fixed["holds"] and generated["holds"]
    return {
        "status": "holds" if holds else "fails",
        "subgroup": list(h.sorted_members),
        "decomposition": decomposition,
        "embedded_fixed": embedded_fixed,
        "generated_intersection": generated,
    }
