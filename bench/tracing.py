"""Spans around calls into pact's layers, installed from outside the library.

Each listed function is rebound in every ``pact.*`` module namespace that
holds it: internal imports are ``from .x import name``, so patching only the
defining module would miss its callers.  ``MapPoset.components`` is a
``cached_property`` and is wrapped as one.  ``FinSpace.leq``,
``FinSpace.index`` and ``Group.mul`` run millions of times per pass and are
deliberately never wrapped.  Each registered claim is wrapped as
``verify.<claim-id>``.

Spans are (name, start, end, parent) tuples kept in memory; a span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from functools import cached_property

LAYERS: dict[str, tuple[str, ...]] = {
    "instance": ("parse_instance",),
    "algebra": ("validate_group", "all_subgroups", "subgroup_generated"),
    "finspace": ("quotient", "product", "subspace", "is_continuous",
                 "is_open_map", "enumerate_opens", "enumerate_monotone_maps"),
    "paction": ("validate_partial_action", "diagonal_product", "orbit_classes",
                "enumerate_G_maps", "is_G_map", "restrict_invariant",
                "restrict_to_subgroup", "fixed_points"),
    "envelope": ("globalize", "twisted_product", "envelope_of_map",
                 "iterated_twist_comparison", "adjunction_maps",
                 "product_comparison", "trivial_collapse",
                 "fixed_decomposition", "recognize_globalization"),
    "homotopy": ("enumerate_maps", "MapPoset.components", "is_G_contractible",
                 "is_locally_G_contractible"),
    "cli": ("main",),
}

# Functions that do not run on every workload (enumerate_monotone_maps runs on
# none): their seconds would read 0.0 on every run of the others, so the JSON
# result carries only their call counts.  Their times are still printed.
PARTIAL = frozenset({"finspace.enumerate_monotone_maps", "envelope.adjunction_maps",
                     "envelope.product_comparison", "envelope.trivial_collapse",
                     "cli.main"})

COUNTERS = ("envelope.pairs", "envelope.classes", "paction.enumerate_G_maps.maps")

SKIPPED = "skipped-bounds"


def _count_envelope(env) -> tuple[tuple[str, int], ...]:
    return (("envelope.pairs", len(env.product_space)),
            ("envelope.classes", len(env.total)))


def _count_maps(maps) -> tuple[tuple[str, int], ...]:
    return (("paction.enumerate_G_maps.maps", len(maps)),)


_RESULT_COUNTERS = {
    "envelope.globalize": _count_envelope,
    "envelope.twisted_product": _count_envelope,
    "paction.enumerate_G_maps": _count_maps,
}


def metric_names(claim_ids: list[str]) -> list[str]:
    """The per-layer metrics of the JSON result, in order."""
    names = []
    for layer, functions in LAYERS.items():
        for fname in functions:
            name = f"{layer}.{fname}"
            names.append(f"{name}.calls")
            if name not in PARTIAL:
                names += [f"{name}.self_s", f"{name}.total_s"]
        if not all(f"{layer}.{fname}" in PARTIAL for fname in functions):
            names.append(f"{layer}.self_s")
    names += [f"verify.{cid}.s" for cid in claim_ids]
    names += ["verify.self_s", "verify.skipped_s", *COUNTERS, "tracing_overhead_ratio"]
    return names


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


class Tracer:
    """Records spans for wrapped calls; ``install`` patches pact in place and
    ``restore`` undoes it.  Installing again reuses the same wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.skipped: set[int] = set()
        self.counts: dict[int, tuple[tuple[str, int], ...]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    def _wrap(self, name: str, fn, bound_error: type | None = None):
        """Wrap ``fn`` in a span.  With ``bound_error`` it is a claim: the span
        is marked skipped when it raises that error or reports skipped-bounds."""
        if name in self._wrappers:
            return self._wrappers[name]
        nid = len(self.names)
        self.names.append(name)
        spans, stack, skipped, counts = self.spans, self._stack, self.skipped, self.counts
        count = _RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if bound_error is not None and isinstance(exc, bound_error):
                    skipped.add(idx)
                raise
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()
            if count is not None:
                counts[idx] = count(result)
            if bound_error is not None and result[0] == SKIPPED:
                skipped.add(idx)
            return result

        self._wrappers[name] = wrapper
        return wrapper

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, pact) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "pact" or key.startswith("pact.")]
        for layer, functions in LAYERS.items():
            home = getattr(pact, layer)
            for fname in functions:
                name = f"{layer}.{fname}"
                if "." in fname:
                    cls_name, attr = fname.split(".")
                    cls = getattr(home, cls_name)
                    prop = cls.__dict__[attr]
                    wrapped = cached_property(self._wrap(name, prop.func))
                    wrapped.__set_name__(cls, attr)
                    self._set(cls, attr, wrapped)
                    continue
                orig = getattr(home, fname)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, key, wrapper)
        claims = pact.verify.CLAIMS
        for cid, fn in list(claims.items()):
            self._undo.append((claims, cid, fn))
            claims[cid] = self._wrap(f"verify.{cid}", fn, pact.BoundExceeded)

    def restore(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)

    @contextlib.contextmanager
    def installed(self, pact):
        self.install(pact)
        try:
            yield
        finally:
            self.restore()

    def mark(self) -> int:
        """Position in the span list, to slice out one phase later."""
        return len(self.spans)

    def summarize(self, begin: int, end: int) -> dict[str, float]:
        """Per wrapped name: calls, self and total seconds, plus the size
        counters and the seconds of claims that ended skipped-bounds, over
        spans[begin:end], which must hold whole span trees."""
        child: dict[int, float] = defaultdict(float)
        for _, start, stop, parent in self.spans[begin:end]:
            if parent >= 0:
                child[parent] += stop - start
        out: dict[str, float] = defaultdict(float)
        for idx in range(begin, end):
            nid, start, stop, _ = self.spans[idx]
            name = self.names[nid]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += stop - start - child[idx]
            out[f"{name}.total_s"] += stop - start
            for key, n in self.counts.get(idx, ()):
                out[key] += n
            if idx in self.skipped:
                out["verify.skipped_s"] += stop - start
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON document: names plus
        [name index, start, end, parent index] rows."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
