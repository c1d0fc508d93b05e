"""Globalizations and twisted products, with their structure maps.

One kernel, :func:`_envelope`, builds G x_K X for a partial action of a
subgroup K of G on X: the quotient of G x X by the relation R with rows
(g, x) ~ (g k^-1, theta_k(x)) for k in K^x, whose classes are the orbits of
the diagonal K-action.  The globalization is its case K = G (Abadie,
J. Funct. Anal. 2003), where (g,x) R (h,y) iff x in X_{g^-1 h} and
theta_{h^-1 g}(x) = y; ``globalize`` and ``twisted_product`` each call the
kernel, neither the other.  It certifies R's classes on R's one-step
tables with :func:`finspace.equivalence_classes` and hands the class of
each pair and the members of each class to one assembly, which returns an
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
from .bounds import DEFAULT_BOUNDS, Bounds
from .errors import BoundExceeded, InternalCheckError, ValidationError
from .finspace import (FinSpace, SpaceMap, bit_indices, block_down_masks,
                       equivalence_classes, is_continuous, is_open,
                       monotonicity_violation, pair_label, product, quotient_order)
from .homotopy import MapPoset
from .paction import (PartialAction, _global_certificate, certified_global_action,
                      fixed_points, g_map_faults, restrict_global, restrict_to_group)
from .report import FAILS, HOLDS, PRECONDITION_UNMET, verdict


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


def _assemble(pa: PartialAction, big: Group, prod: FinSpace,
              pair_class: Sequence[int], members: Sequence[Sequence[int]]
              ) -> EnvelopeResult:
    """The tail of :func:`_envelope`.  From the class of each pair of
    G x X (``prod``, as :func:`block_down_masks` builds it) and the members
    of each class, ascending, classes ordered by least member, build the
    quotient, the action, the projection and the embedding as index
    tables, and assert the trusted invariants on them.  Two are certified
    in less work; when a certificate fails, the exhaustive checks run to
    name the witness they always named:

    * mu_g, read at each class's first member (h, y) as the class of
      (gh, y), is well defined for every g once the left translation L_s of
      G x X keeps classes together for each generator s, as each L_g is a
      composite of L_s's.  Then ``_global_certificate`` (mu_e, and mu_s
      monotone with mu_s . mu_g = mu_sg for each s and g) proves mu an
      action by homeomorphisms, as :func:`certified_global_action` shows;
      the action is kept as the envelope's.  Else :func:`_action_scan`.
    * The order is read off one member per class, below[c] = p(U_q) at
      c's first member q, and certified by p(U_q) = below[p(q)] for every
      pair q: then c'' in below[c'] with c' = p(q'), q' <= q, is p(q'') for
      some q'' <= q' <= q, so the read is transitive and is the quotient
      order.  The same equality makes p monotone and every p(U_q), hence
      the image of every open, a down-set; conversely continuity gives the
      inclusion, and openness the down-set of p(q).  Else below is
      :func:`quotient_order`'s and p is checked against it.  As U_(g,x) is
      {g} x U_x, the images are read one column x at a time.
    """
    space, k = pa.space, pa.group
    n, pairs, count = len(space), len(prod), len(members)
    class_bit = [1 << c for c in pair_class]
    columns = [class_bit[x::n] for x in range(n)]
    images = [list(reduce(partial(map, or_), map(columns.__getitem__, bit_indices(u))))
              for u in space.down]
    values = list(chain.from_iterable(zip(*images)))  # p(U_q) per pair q
    below, clash = _descend(pair_class, members, values)
    if clash is not None:
        below = quotient_order(prod.down, pair_class, members)
    pair_class = tuple(pair_class)
    members = tuple(map(tuple, members))
    labels = tuple(map(prod.points.__getitem__, map(itemgetter(0), members)))
    total = FinSpace(labels, tuple(below))

    # mu_g sends the class of (h, y) to the class of (gh, y): read at each
    # class's first member, and compared on every member for the generators
    first_pairs = [divmod(m[0], n) for m in members]
    every_pair = [divmod(p, n) for p in range(pairs)]
    action_rows = tuple(_translated(big.rows, n, pair_class, first_pairs))
    generators = big.generators
    moved = _translated([big.rows[s] for s in generators], n, pair_class, every_pair)
    action = None
    if all(tuple([action_rows[s][c] for c in pair_class]) == row
           for s, row in zip(generators, moved)):
        action = _global_certificate(big, total, action_rows)
    if action is None:
        _action_scan(big, pair_class, members, labels, action_rows, below)

    if clash is not None and values != list(map(below.__getitem__, pair_class)):
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

    kstar = sorted(big.index(label) * n + x for g, label in enumerate(k.elements)
                   for x in pa.domain_points[k.inverse_row[g]])
    image = set(emb)
    if [p for p, c in enumerate(pair_class) if c in image] != kstar:
        raise InternalCheckError("p^-1(iota(X)) differs from K*X")

    for g, label in enumerate(k.elements):
        mu, theta = action_rows[big.index(label)], pa.images[g]
        for x in pa.domain_points[k.inverse_row[g]]:
            if mu[emb[x]] != emb[theta[x]]:
                raise InternalCheckError(
                    f"action and embedding disagree at ({label!r}, {space.points[x]!r})")

    if len(set(chain.from_iterable(map(mu.__getitem__, emb) for mu in action_rows))) != count:
        raise InternalCheckError("G.iota(X) does not cover the total space")

    digits = bytearray(b"0") * pairs  # K*X's mask in base 2, last pair first
    for p in kstar:
        digits[p] = ord("1")
    env = EnvelopeResult(pa, big, prod, total, pair_class, members, action_rows,
                         int(digits[::-1], 2))
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


def globalize(pa: PartialAction, bounds: Bounds = DEFAULT_BOUNDS) -> EnvelopeResult:
    """The enveloping space X_G: the quotient of G x X by R, the kernel
    :func:`_envelope` with K = G.  For a finite group every partial action
    is nice, so the embedding is an open embedding (asserted downstream by
    the claims)."""
    return _envelope(pa, pa.group, bounds)


def twisted_product(pa: PartialAction, big: Group,
                    bounds: Bounds = DEFAULT_BOUNDS) -> EnvelopeResult:
    """G x_K X: the orbit space of G x X under the diagonal K-action, the
    kernel :func:`_envelope` over ``big``.  K, the acting group of ``pa``,
    must be a literal subgroup of ``big``; with K = G this is
    :func:`globalize`'s construction."""
    k_grp = pa.group
    if not is_subgroup_embedding(k_grp, big):
        raise ValidationError("not-a-subgroup", tuple(k_grp.elements),
                              "the acting group is not a subgroup of the big group")
    return _envelope(pa, big, bounds)


def _envelope(pa: PartialAction, big: Group, bounds: Bounds) -> EnvelopeResult:
    """G x_K X for pa's group K inside ``big``: the labelled G x X, R's
    classes certified on :func:`_one_step_tables`, then :func:`_assemble`.
    Those tables are the diagonal K-action's, entry for entry, so its
    orbits are R's classes and are not computed a second time."""
    space, n = pa.space, len(pa.space)
    if len(big) * n > bounds.envelope_pairs:
        raise BoundExceeded("envelope construction", bounds.envelope_pairs, len(big) * n)
    prod = FinSpace(tuple(pair_label(g, x) for g in big.elements for x in space.points),
                    tuple(block_down_masks(space.down, len(big))))
    pair_class, members = equivalence_classes(
        _one_step_tables(pa, big), "R",
        lambda p: (big.elements[p // n], space.points[p % n]))
    return _assemble(pa, big, prod, pair_class, members)


def _one_step_tables(pa: PartialAction, big: Group) -> list[list[int]]:
    """Per element k of pa's group K, a subgroup of ``big``, the table of
    G x X taking pair (g, x) = g * |X| + x to (g k^-1, theta_k(x)), or to
    -1, read at the end of each block, where theta_k is undefined.  Row
    (g, x) is the one-step class {(g k^-1, theta_k(x)) : k in K^x}."""
    n = len(pa.space)
    blocks = [list(range(t * n, (t + 1) * n)) + [-1] for t in range(len(big))]
    k_inverse = [big.inverse_row[big.index(k)] for k in pa.group.elements]
    return [[block[y] for block in [blocks[row[k]] for row in big.rows] for y in image]
            for k, image in zip(k_inverse, pa.images)]


def envelope_of_map(f: SpaceMap, pa_x: PartialAction, pa_y: PartialAction,
                    big: Group | None = None,
                    env_x: EnvelopeResult | None = None,
                    env_y: EnvelopeResult | None = None,
                    bounds: Bounds = DEFAULT_BOUNDS) -> SpaceMap:
    """The induced map [g,x] |-> [g,f(x)] between twisted products.

    The one-map case of :func:`lift_maps`, with its checks: ``f`` must be a
    K-map, and the result is checked to be well defined on every class
    member, continuous, and equivariant.  Twisted products that are not
    given are built first; given ones must be those of ``pa_x`` and
    ``pa_y`` over ``big``.
    """
    big = big or pa_x.group
    env_x = env_x or twisted_product(pa_x, big, bounds)
    env_y = env_y or twisted_product(pa_y, big, bounds)
    if (env_x.base, env_y.base, env_x.big_group) != (pa_x, pa_y, big):
        raise ValidationError("envelope-mismatch", (),
                              "the twisted products are not those of the actions")
    (row,) = lift_maps(MapPoset(f.source, f.target, (f.row,)), env_x, env_y)
    return SpaceMap(env_x.total, env_y.total, row)


def lift_maps(poset: MapPoset, env_x: EnvelopeResult,
              env_y: EnvelopeResult) -> list[tuple[int, ...]]:
    """The induced map [g,x] |-> [g,f(x)] of every row f of ``poset``, a
    poset of maps between the actions ``env_x.base`` and ``env_y.base``, as
    index rows from env_x.total to env_y.total, in row order.  Both
    envelopes must be taken over one group G.

    Each row is checked as lifting it alone would check it, in this order:
    it is continuous and equivariant (``ValidationError`` "not-continuous"
    or "not-a-G-map"), and its lift is well defined on every class member,
    continuous and equivariant (``InternalCheckError``).  The first row that
    fails raises its first failing check.

    Every check runs once per table on column masks.  The G-map checks and
    the lifts' continuity and equivariance are :func:`g_map_faults`, the
    lifts' equivariance on G's generators alone: the envelopes are
    global actions, where commuting with every generator is commuting with
    every element.
    Well-definedness compares, class by class, the rows where each member
    lands in env_y with those where the class's first member does, through
    the inverse of env_y's class table per element; only the first row that
    clashes is descended pair by pair, to name its class.  The rows before
    the first failing one are lifted column by column through the first
    member of each class, which also yields the lifts' column masks.
    """
    pa_x, pa_y, big = env_x.base, env_y.base, env_x.big_group
    if pa_x.group != pa_y.group or env_y.big_group != big:
        raise ValidationError("group-mismatch", (), "maps need actions of the same group")
    if poset.source != pa_x.space or poset.target != pa_y.space:
        raise ValidationError("space-mismatch", (), "map endpoints do not match the actions")
    discontinuous, non_equivariant = g_map_faults(poset.columns, pa_x.space, pa_y.space,
                                                  pa_x.images, pa_y.images)
    faults = discontinuous | non_equivariant
    first_fault = (faults & -faults).bit_length() - 1 if faults else len(poset.rows)

    # pair (g, x) of env_x goes to the class of (g, f(x)) in env_y, read
    # off env_y.pair_class at offset[g] + f(x)
    width_x, width_y = len(pa_x.space), len(pa_y.space)
    offset = [g * width_y for g in range(len(big))]
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

    # the lifts' equivariance is checked on G's generators only: both
    # envelopes are certified global actions, so mu_sg = mu_s . mu_g and
    # nu_sg = nu_s . nu_g, and F . mu_s = nu_s . F on every generator s
    # gives F . mu_sg = nu_s . F . mu_g, hence F . mu_g = nu_g . F for
    # every word g in the generators by induction on its length
    gens = big.generators
    lift_discontinuous, lift_non_equivariant = g_map_faults(
        lifted_columns, total_x, total_y, [env_x.action_rows[s] for s in gens],
        [env_y.action_rows[s] for s in gens])
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
                            bounds: Bounds = DEFAULT_BOUNDS) -> tuple[str, dict]:
    """Recognize a global action (Y, beta) as the globalization of its
    restriction to an open subset U, as a (status, witness) pair.

    When the orbit of U covers Y, builds [g,x] |-> beta_g(x) and verifies it
    is a G-homeomorphism, reported as the witness's ``map`` when it is one
    (the witness of a failure names no reason); otherwise reports
    precondition-unmet with the uncovered points.
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
        return PRECONDITION_UNMET, {"reason": "orbit of the subset does not cover the space",
                                    "uncovered": missing}
    restricted = restrict_global(pa_global, u)
    env = globalize(restricted, bounds)
    xs = list(map(pa_global.space.index, restricted.space.points))
    values, clash = env.descend([image[x] for image in pa_global.images for x in xs])
    phi = SpaceMap(env.total, pa_global.space, values)
    checks, _, _ = _map_checks(phi, ("bijective", "continuous", "inverse-continuous",
                                     "equivariant"), env.action_rows, pa_global.images)
    status, witness = verdict({"well-defined": clash is None, **checks},
                              classes=len(env.total), target_points=len(pa_global.space))
    if status == HOLDS:
        witness["map"] = phi.as_dict()
    witness.pop("reason", None)
    return status, witness


NATURALITY_MORPHISMS = 8
"""How many endomorphisms (the first in row order) test each naturality
square of :func:`adjunction_maps`."""


def adjunction_maps(env: EnvelopeResult, pa_y: PartialAction,
                    hom: Callable[[PartialAction, PartialAction], MapPoset]
                    ) -> tuple[str, dict]:
    """Materialize lambda and tau for the twisted product ``env`` = G x_K X
    of a K-action X and a global G-space Y, and return the (status,
    witness) pair.

    ``hom(pa_a, pa_b)`` returns the poset of G-maps A -> B, built by the
    caller (``enumerate_maps(..., equivariant=(pa_a, pa_b))``) under its
    own bounds, or one it already has; it is asked for Hom_G(G x_K X, Y),
    Hom_K(X, res Y), End(Y) and End(X), in that order.  lambda(F) = F o
    iota and tau(f)([g,x]) = g . f(x), each looked up in the other
    hom-set's row index.  Each check, and what makes it hold on correct
    hom-sets, in terms of the certificates that building ``env`` ran:

    - lambda-lands-in-homset: F o iota is continuous and K-equivariant,
      as iota is continuous and mu_k . iota = iota . theta_k on
      X_{k^-1} (the embedding checks);
    - tau-well-defined: (g, f(x)) takes one value per class, as the
      classes are exactly those of (g, x) ~ (g k^-1, theta_k(x)) (the
      class certificate) and f(theta_k(x)) = k . f(x);
    - tau-lands-in-homset: tau(f) is continuous, as the order is the one
      read off the projection of each pair's open set (the projection
      certificate), and equivariant by construction;
    - mutually-inverse: lambda o tau = id, as iota(x) = [e, x], and tau o
      lambda = id, as G . iota(X) covers G x_K X (the coverage check) and
      both sides are equivariant;
    - naturality-post and naturality-pre, on the first
      :data:`NATURALITY_MORPHISMS` endomorphisms s of Y and r of X.  Both
      follow from the identity lambda(F) = F o iota wherever lambda is
      defined.  It gives lambda(s o F) = s o lambda(F) as soon as lambda
      is defined at s o F, and lambda(F o Er) = lambda(F) o r as soon as
      it is defined at F o Er and F agrees on Er o iota and iota o r,
      which are equal when Er is the lift of r.  So at every F where
      lambda is defined, the post square commutes iff lambda is defined
      at s o F, and the pre square iff lambda is defined at F o Er and F
      agrees at the points where Er o iota and iota o r differ (none on
      a correct lift).
    """
    pa_x, big = env.base, env.big_group
    k_grp = pa_x.group
    if pa_y.group != big:
        raise ValidationError("group-mismatch", (), "Y must carry an action of the big group")
    if not pa_y.is_global():
        raise ValidationError("not-global", (), "Y must be a global G-space")

    # res^G_K(Y), keyed by K's own group object so hom-sets compose with pa_x.
    res_y = restrict_to_group(pa_y, k_grp)
    g_poset = hom(env.as_global_action(), pa_y)
    k_poset = hom(pa_x, res_y)
    g_rows, k_rows = g_poset.rows, k_poset.rows
    g_find, k_find = g_poset._lookup.get, k_poset._lookup.get

    emb = env.embedding_row
    lam = [k_find(tuple([bf[x] for x in emb]), -1) for bf in g_rows]
    tau, clashes = [], 0
    for f in k_rows:
        values, clash = env.descend([image[y] for image in pa_y.images for y in f])
        tau.append(g_find(values, -1))
        clashes += clash is not None

    def lam_defined(row: tuple[int, ...]) -> bool:
        i = g_find(row)
        return i is not None and lam[i] >= 0

    # the naturality squares at every F where lambda is defined, read off
    # lambda(F) = F o iota (see above)
    lam_rows = [bf for bf, li in zip(g_rows, lam) if li >= 0]
    ss = hom(pa_y, pa_y).rows[:NATURALITY_MORPHISMS]
    rs = hom(pa_x, pa_x).rows[:NATURALITY_MORPHISMS]
    ers = lift_maps(MapPoset(pa_x.space, pa_x.space, rs), env, env)
    # (Er(iota(x)), iota(r(x))) at each x where the two differ
    aparts = [[(er[c], emb[x]) for c, x in zip(emb, r) if er[c] != emb[x]]
              for r, er in zip(rs, ers)]
    checks = {
        "lambda-lands-in-homset": -1 not in lam,
        "tau-lands-in-homset": -1 not in tau,
        "tau-well-defined": not clashes,
        "mutually-inverse": (len(g_rows) == len(k_rows)
                             and all(li >= 0 and tau[li] == i for i, li in enumerate(lam))
                             and all(tj >= 0 and lam[tj] == j for j, tj in enumerate(tau))),
        "naturality-post": all(lam_defined(tuple([s[v] for v in bf]))
                               for s in ss for bf in lam_rows),
        "naturality-pre": (all(lam_defined(tuple([bf[c] for c in er]))
                               for er in ers for bf in lam_rows)
                           and all(bf[a] == bf[b] for apart in aparts for a, b in apart
                                   for bf in lam_rows))}
    return verdict(checks, g_maps=len(g_rows), k_maps=len(k_rows))


def product_comparison(env_d: EnvelopeResult, env_1: EnvelopeResult,
                       env_2: EnvelopeResult) -> tuple[str, dict]:
    """The (status, witness) pair on the canonical map
    G x_K (X1 x X2) -> (G x_K X1) x (G x_K X2).

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
    status, witness = verdict({"well-defined": clash is None, **checks},
                              source_classes=len(env_d.total), target_points=len(target),
                              map=cmp_map.as_dict(), unhit_targets=unhit)
    if status == FAILS:  # the first failed check, in words
        failed = witness["reason"]
        witness["reason"] = ("not bijective" if failed in ("injective", "surjective")
                             else f"not {failed}")
    if collision:
        witness["collision"] = collision
    return status, witness


def iterated_twist_comparison(inner: EnvelopeResult, outer_1: EnvelopeResult,
                              outer_2: EnvelopeResult) -> tuple[str, dict]:
    """The (status, witness) pair on the maps m : G x_K (X_K) -> G x_K X
    and n backwards, fully checked.

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
    return verdict(checks, iterated_classes=len(outer_1.total),
                   plain_classes=len(outer_2.total))


def trivial_collapse(env: EnvelopeResult) -> tuple[str, dict]:
    """The (status, witness) pair on the collapse delta : G x_K Y -> Y,
    [g,y] |-> y, of the twisted product ``env`` of a trivial action.

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
    status, witness = verdict({"well-defined": clash is None, **checks},
                              classes=len(env.total), target_points=len(pa.space))
    if status == FAILS:
        witness["reason"] = ("not injective" if collision else "not surjective"
                             if not checks["surjective"] else "not a homeomorphism")
    if collision:
        witness["collision"] = collision[:2]
        witness["collision_value"] = delta(collision[0])
    return status, witness


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
                        bounds: Bounds = DEFAULT_BOUNDS) -> dict:
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
        env = globalize(pa, bounds)
    decomposition, embedded_fixed = fixed_identities(pa, h, env)
    generated = generated_intersection(pa, env, all_subgroups(grp, bounds))
    holds = decomposition["holds"] and embedded_fixed["holds"] and generated["holds"]
    return {
        "status": HOLDS if holds else FAILS,
        "subgroup": list(h.sorted_members),
        "decomposition": decomposition,
        "embedded_fixed": embedded_fixed,
        "generated_intersection": generated,
    }
