"""Size limits for the search-heavy constructions."""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Bounds:
    group_order: int = 16        # subgroup enumeration
    envelope_pairs: int = 256    # |G| * |X| for globalizations / twisted products
    hom_space: int = 5           # |X|, |Y| for hom-set enumeration
    hom_group: int = 4           # |G| for hom-set enumeration
    map_nodes: int = 1_000_000   # monotone-map search budget (nodes explored)
    max_maps: int = 4096         # cap on materialized map posets

    def with_limit(self, n: int) -> "Bounds":
        """Set every size-type limit to n; the node budget and the map cap
        (map_nodes, max_maps) stay as they are."""
        return replace(
            self,
            group_order=n,
            envelope_pairs=n,
            hom_space=n,
            hom_group=n,
        )


DEFAULT_BOUNDS = Bounds()
