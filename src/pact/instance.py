"""Instance documents: the JSON input format and its validation.

Schema (top level):

    {"id": str,
     "group": {"elements": [...], "table": [[...]], "identity": str},
     "space": {"points": [...], "min_open": {point: [...]}},
     "partial_action": {"domains": {g: [...]}, "maps": {g: {x: y}}},
     "big_group": {...},          # optional, same shape as "group"
     "k_embedding": {k: g},       # optional, needs "big_group"
     "subgroups": {name: [...]},  # optional
     "maps": {name: {x: y}}}      # optional named endomorphism tables,
                                  # validated but not kept

The identity element's domain and map may be omitted (defaulted to the whole
space and the identity function); other missing elements default to the
empty domain.  Schema problems raise InstanceError with a pointer-style
location; axiom-level problems raise ValidationError from the validators.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .algebra import Group, Subgroup, is_subgroup_embedding, validate_group
from .errors import InstanceError, ValidationError
from .finspace import FinSpace, SpaceMap, space_from_min_opens
from .paction import PartialAction, validate_partial_action

_TOP_KEYS = {"id", "group", "space", "partial_action",
             "big_group", "k_embedding", "subgroups", "maps"}


@dataclass(frozen=True)
class Instance:
    id: str
    group: Group
    space: FinSpace
    pa: PartialAction
    big_group: Group | None = None
    subgroups: Mapping[str, Subgroup] = field(default_factory=dict)
    embedded_pa: PartialAction = None  # type: ignore[assignment]

    @property
    def big(self) -> Group:
        """The group the twisted constructions live over."""
        return self.big_group if self.big_group is not None else self.embedded_pa.group

    def embedded_subgroup(self, name: str) -> Subgroup:
        """A named subgroup, relabelled into the big group when embedded."""
        if name not in self.subgroups:
            raise InstanceError(f"subgroups.{name}", "no such subgroup")
        # the embedded group lists the images of the group's elements in the
        # group's order, so the member mask carries over unchanged
        return Subgroup(self.embedded_pa.group, self.subgroups[name].mask)


def _need(block: Mapping, key: str, kind: type, loc: str) -> Any:
    if key not in block:
        raise InstanceError(f"{loc}.{key}", "missing required key")
    value = block[key]
    if not isinstance(value, kind):
        raise InstanceError(f"{loc}.{key}", f"expected {kind.__name__}")
    return value


def _string_list(value: Any, loc: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InstanceError(loc, "expected a list of strings")
    return value


def _parse_group(block: Any, loc: str) -> Group:
    if not isinstance(block, dict):
        raise InstanceError(loc, "expected an object")
    elements = _string_list(_need(block, "elements", list, loc), f"{loc}.elements")
    table = _need(block, "table", list, loc)
    for i, row in enumerate(table):
        _string_list(row, f"{loc}.table.{i}")
    identity = _need(block, "identity", str, loc)
    extra = set(block) - {"elements", "table", "identity"}
    if extra:
        raise InstanceError(f"{loc}.{sorted(extra)[0]}", "unknown key")
    return validate_group(elements, table, identity)


def parse_instance(source: str | Path | Mapping) -> Instance:
    """Parse and validate an instance from a path, raw JSON text, or dict."""
    if isinstance(source, Mapping):
        doc: Any = source
    else:
        text = None
        if isinstance(source, Path):
            text = source.read_text()
        else:
            stripped = source.lstrip()
            if stripped.startswith("{"):
                text = source
            else:
                text = Path(source).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("$", "expected a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InstanceError(sorted(unknown)[0], "unknown top-level key")

    instance_id = _need(doc, "id", str, "$").strip()
    if not instance_id:
        raise InstanceError("id", "empty instance id")
    group = _parse_group(_need(doc, "group", dict, "$"), "group")

    space_block = _need(doc, "space", dict, "$")
    points = _string_list(_need(space_block, "points", list, "space"), "space.points")
    min_open_block = _need(space_block, "min_open", dict, "space")
    pointset = set(points)
    for p, opens in min_open_block.items():
        if p not in pointset:
            raise InstanceError(f"space.min_open.{p}", "not a point of the space")
        _string_list(opens, f"space.min_open.{p}")
    space = space_from_min_opens(points, min_open_block)

    pa_block = _need(doc, "partial_action", dict, "$")
    domains_block = _need(pa_block, "domains", dict, "partial_action")
    maps_block = _need(pa_block, "maps", dict, "partial_action")
    domains: dict[str, list[str]] = {}
    for g, dom in domains_block.items():
        if g not in group:
            raise InstanceError(f"partial_action.domains.{g}", "not a group element")
        dom = _string_list(dom, f"partial_action.domains.{g}")
        for x in dom:
            if x not in pointset:
                raise InstanceError(f"partial_action.domains.{g}",
                                    f"unknown point {x!r}")
        domains[g] = dom
    thetas: dict[str, dict[str, str]] = {}
    for g, table in maps_block.items():
        if g not in group:
            raise InstanceError(f"partial_action.maps.{g}", "not a group element")
        if not isinstance(table, dict):
            raise InstanceError(f"partial_action.maps.{g}", "expected an object")
        for x, y in table.items():
            if x not in pointset or not isinstance(y, str) or y not in pointset:
                raise InstanceError(f"partial_action.maps.{g}",
                                    f"unknown point in entry {x!r}: {y!r}")
        thetas[g] = dict(table)
    e = group.identity
    domains.setdefault(e, list(points))
    thetas.setdefault(e, {x: x for x in points})
    for g in group.elements:
        domains.setdefault(g, [])
        thetas.setdefault(g, {})
    pa = validate_partial_action(group, space, domains, thetas)

    big_group = None
    if "big_group" in doc:
        big_group = _parse_group(doc["big_group"], "big_group")

    embedded_pa = pa
    if "k_embedding" in doc:
        if big_group is None:
            raise InstanceError("k_embedding", "k_embedding needs a big_group")
        emb = doc["k_embedding"]
        if not isinstance(emb, dict):
            raise InstanceError("k_embedding", "expected an object")
        for k, g in emb.items():
            if k not in group:
                raise InstanceError(f"k_embedding.{k}", "not an element of group")
            if not isinstance(g, str) or g not in big_group:
                raise InstanceError(f"k_embedding.{k}", "image is not an element of big_group")
        missing = [k for k in group.elements if k not in emb]
        if missing:
            raise InstanceError(f"k_embedding.{missing[0]}", "missing image")
        if len(set(emb.values())) != len(group):
            raise InstanceError("k_embedding", "embedding is not injective")
        for a in group.elements:
            for b in group.elements:
                if emb[group.mul(a, b)] != big_group.mul(emb[a], emb[b]):
                    raise InstanceError("k_embedding",
                                        f"not a homomorphism at ({a!r}, {b!r})")
        k_embedding = {k: emb[k] for k in group.elements}
        embedded_pa = _relabel_action(pa, k_embedding)
    elif big_group is not None:
        if not is_subgroup_embedding(group, big_group):
            raise InstanceError("big_group",
                                "group is not literally a subgroup of big_group "
                                "(give a k_embedding)")

    subgroups: dict[str, Subgroup] = {}
    if "subgroups" in doc:
        if not isinstance(doc["subgroups"], dict):
            raise InstanceError("subgroups", "expected an object")
        for name, members in doc["subgroups"].items():
            members = _string_list(members, f"subgroups.{name}")
            for m in members:
                if m not in group:
                    raise InstanceError(f"subgroups.{name}", f"unknown element {m!r}")
            try:
                subgroups[name] = Subgroup.from_labels(group, members)
            except ValidationError as exc:
                raise InstanceError(f"subgroups.{name}", str(exc)) from exc

    if "maps" in doc:
        if not isinstance(doc["maps"], dict):
            raise InstanceError("maps", "expected an object")
        for name, table in doc["maps"].items():
            if not isinstance(table, dict):
                raise InstanceError(f"maps.{name}", "expected an object")
            for x, y in table.items():
                if not isinstance(y, str):
                    raise InstanceError(f"maps.{name}", f"image of {x!r} is not a string")
            try:
                SpaceMap.from_dict(space, space, table)
            except ValidationError as exc:
                raise InstanceError(f"maps.{name}", str(exc)) from exc

    return Instance(instance_id, group, space, pa, big_group, subgroups, embedded_pa)


def _relabel_action(pa: PartialAction, embedding: Mapping[str, str]) -> PartialAction:
    """Re-key a partial action along an injective homomorphism into the big
    group, reusing its index tables."""
    elems = tuple(embedding[k] for k in pa.group.elements)
    table = tuple(tuple(embedding[pa.group.mul(a, b)] for b in pa.group.elements)
                  for a in pa.group.elements)
    # the embedding is an injective homomorphism (checked by the caller;
    # e = e.e makes it send the identity to the big group's), so the
    # relabelled group is a literal subgroup of the big group that lists
    # pa's elements in pa's order with pa's products, and pa's validated
    # tables hold for it unchanged
    return PartialAction(Group(elems, table, embedding[pa.group.identity]),
                         pa.space, pa.images, pa.domain_points)
