"""One run, one construction: the claims of one ``run_all`` share each
envelope and G-map poset, and sharing changes no report.

Builds are counted by wrapping the builders in every ``pact`` module that
holds them, the way the benchmark's tracer does."""
from __future__ import annotations

import dataclasses
import sys

import pytest

import pact.envelope
import pact.homotopy
import pact.paction
import pact.verify
from pact import (DEFAULT_BOUNDS, Bounds, InternalCheckError, claim_ids,
                  fixture_names, load_fixture, parse_instance, run_all, run_claim)
from gen import fence_document, half_circle_document

BUILDERS = {"globalize": pact.envelope, "twisted_product": pact.envelope,
            "enumerate_maps": pact.homotopy, "enumerate_G_maps": pact.paction}


def count_builds(monkeypatch) -> dict[str, list]:
    """Route every builder through a recorder; returns, per builder, the
    (args, kwargs) of each call in order."""
    calls: dict[str, list] = {name: [] for name in BUILDERS}

    def recording(name, real):
        def wrapper(*args, **kwargs):
            calls[name].append((args, sorted(kwargs.items())))
            return real(*args, **kwargs)
        return wrapper

    for name, home in BUILDERS.items():
        real = getattr(home, name)
        wrapper = recording(name, real)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pact" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def instances():
    yield from (load_fixture(name) for name in fixture_names())
    yield from (parse_instance(half_circle_document(n)) for n in (4, 6, 8))
    yield parse_instance(fence_document(3))


INSTANCES = list(instances())


def without_elapsed(reports):
    return [dataclasses.replace(rep, elapsed=0.0) for rep in reports]


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.id)
def test_run_all_builds_each_input_once(monkeypatch, inst):
    calls = count_builds(monkeypatch)
    run_all(inst)
    assert calls["globalize"] and calls["twisted_product"]
    for name in ("globalize", "twisted_product", "enumerate_maps", "enumerate_G_maps"):
        seen = calls[name]
        assert all(seen[i] != seen[j] for j in range(len(seen)) for i in range(j)), name


def test_g_contractible_reuses_the_posets_of_homotopy_preservation(monkeypatch):
    calls = count_builds(monkeypatch)
    during = {}
    claim = pact.verify.CLAIMS["g-contractible"]

    def watched(inst, run):
        before = len(calls["enumerate_G_maps"])
        result = claim(inst, run)
        during[inst.id] = len(calls["enumerate_G_maps"]) - before
        return result

    monkeypatch.setitem(pact.verify.CLAIMS, "g-contractible", watched)
    statuses = {}
    for inst in INSTANCES:
        statuses[inst.id] = next(rep.status for rep in run_all(inst)
                                 if rep.claim_id == "g-contractible")
    assert set(during.values()) == {0}
    # both posets were needed where the claim holds
    assert statuses["pt"] == statuses["z2-wedge"] == "holds"
    # a lone claim builds its own
    run_claim("g-contractible", load_fixture("z2-wedge"))
    assert during["z2-wedge"] == 2


def test_consecutive_runs_build_everything_again(monkeypatch):
    calls = count_builds(monkeypatch)
    inst = load_fixture("z4-from-z2-pair")
    run_all(inst)
    first = {name: len(seen) for name, seen in calls.items()}
    assert min(first.values()) > 0
    run_all(inst)
    assert {name: len(seen) for name, seen in calls.items()} == {
        name: 2 * n for name, n in first.items()}


def test_adjunction_honours_the_map_cap_of_its_shared_posets():
    # z2-pair's G-self-maps number 3, so a cap of 2 stops every claim that
    # enumerates them, the adjunction's naturality squares among them
    bounds = dataclasses.replace(DEFAULT_BOUNDS, max_maps=2)
    inst = load_fixture("z2-pair")
    reports = {rep.claim_id: rep for rep in run_all(inst, bounds)}
    adjunction, homotopy = reports["adjunction"], reports["homotopy-preservation"]
    assert adjunction.status == homotopy.status == "skipped-bounds"
    assert adjunction.witness == homotopy.witness == {
        "reason": "map enumeration (maps): needs 3, bound is 2"}
    assert run_claim("adjunction", inst, bounds).witness == adjunction.witness
    assert run_claim("adjunction", inst).status == "holds"


@pytest.mark.parametrize("bounds", [DEFAULT_BOUNDS, Bounds().with_limit(8)],
                         ids=["default", "limit-8"])
@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.id)
def test_shared_run_changes_no_report(inst, bounds):
    shared = run_all(inst, bounds)
    alone = [run_claim(cid, inst, bounds) for cid in claim_ids()]
    assert without_elapsed(shared) == without_elapsed(alone)


def test_limited_bounds_skip_shared_constructions():
    statuses = {rep.claim_id: rep.status
                for rep in run_all(load_fixture("z4-circle"), Bounds().with_limit(8))}
    assert statuses["embedding"] == statuses["twist-eq-glob"] == "skipped-bounds"
    assert statuses["pa-axioms"] == "holds"


@pytest.mark.parametrize("name", ["z2-pair", "z4-from-z2-pair"])
def test_failed_construction_fails_every_claim_that_needs_it(monkeypatch, name):
    built = []

    def broken(*args):
        built.append(args)
        raise InternalCheckError("planted fault")

    monkeypatch.setattr(pact.envelope, "_assemble", broken)
    inst = load_fixture(name)
    shared = run_all(inst)
    in_run_all = len(built)
    alone = [run_claim(cid, inst) for cid in claim_ids()]
    assert without_elapsed(shared) == without_elapsed(alone)
    # nothing that raised was kept: each claim built (and failed) it again
    assert in_run_all == len(built) - in_run_all
    statuses = {rep.status for rep in shared}
    assert "internal-error" in statuses and len(statuses) > 1


def count_envelopes(monkeypatch) -> list[tuple]:
    """Route the one envelope kernel through a recorder; returns, per build
    in order, its (action, group) and whether ``recognize_globalization``
    asked for it (it builds its own globalization, outside the run)."""
    built = []
    real, recognize = pact.envelope._envelope, pact.verify.recognize_globalization
    inside = []

    def recording(pa, big, bounds):
        built.append(((pa, big), bool(inside)))
        return real(pa, big, bounds)

    def recognizing(*args):
        inside.append(True)
        try:
            return recognize(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(pact.envelope, "_envelope", recording)
    monkeypatch.setattr(pact.verify, "recognize_globalization", recognizing)
    return built


# envelopes per run_all: the globalization (also G x_G X), the one
# recognition builds, iterated-twist's outer product, and on z4-from-z2-pair
# the twisted product over Z4, on z2-pair-sq that of the product's factor
ENVELOPES_PER_FIXTURE = {name: 3 for name in fixture_names()}
ENVELOPES_PER_FIXTURE.update({"z2-pair-sq": 4, "z4-from-z2-pair": 4})


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.id)
def test_run_all_builds_each_envelope_once(monkeypatch, inst):
    built = count_envelopes(monkeypatch)
    run_all(inst)
    in_run = [inputs for inputs, recognizing in built if not recognizing]
    assert all(in_run[i] != in_run[j] for j in range(len(in_run)) for i in range(j))
    assert len(in_run) == len(built) - 1
    if inst.id in ENVELOPES_PER_FIXTURE:
        assert len(built) == ENVELOPES_PER_FIXTURE[inst.id]


@pytest.mark.parametrize("first", ["globalize", "twisted_product"])
@pytest.mark.parametrize("name", ["z2-pair", "z4-circle", "z4-from-z2-pair"])
def test_globalization_is_the_twisted_product_over_the_acting_group(monkeypatch, name, first):
    calls = count_builds(monkeypatch)
    pa = load_fixture(name).embedded_pa
    run = pact.verify.Run(DEFAULT_BOUNDS)
    asks = {"globalize": lambda: run.globalize(pa),
            "twisted_product": lambda: run.twisted_product(pa, pa.group)}
    env = asks[first]()
    assert all(ask() is env for ask in asks.values())
    # the first request built it, through its own library function
    assert {builder: len(seen) for builder, seen in calls.items()} == {
        builder: int(builder == first) for builder in calls}
    assert env == pact.globalize(pa)


@pytest.mark.parametrize("name", ["z2-pair", "z2-swap", "z2-wedge", "z2-pair-sq"])
def test_twist_eq_glob_reads_the_shared_envelope(monkeypatch, name):
    inst = load_fixture(name)
    built = count_envelopes(monkeypatch)
    claim = pact.verify.CLAIMS["twist-eq-glob"]
    during = []

    def watched(inst, run):
        before = len(built)
        result = claim(inst, run)
        during.append(len(built) - before)
        return result

    monkeypatch.setitem(pact.verify.CLAIMS, "twist-eq-glob", watched)
    report = next(rep for rep in run_all(inst) if rep.claim_id == "twist-eq-glob")
    # embedding built the envelope before, and the claim reads that one
    assert during == [0]
    assert report.status == "holds"
    assert report.witness["classes"] == report.witness["twisted_classes"]

    # handed two envelopes that differ, its checks still tell them apart:
    # mu_1 replaced by the identity, still a Z2 action but not the
    # globalization's
    real = pact.verify.Run.twisted_product

    def corrupted(self, pa, big):
        env = real(self, pa, big)
        rows = env.action_rows[:-1] + (tuple(range(len(env.total))),)
        return dataclasses.replace(env, action_rows=rows)

    monkeypatch.setattr(pact.verify.Run, "twisted_product", corrupted)
    report = run_claim("twist-eq-glob", inst)
    assert report.status == "fails" and report.witness["reason"] == "same-action"


# ---------------------------------------------------------------------------
# every bounded construction reads its own limit from the Bounds it is given


def _bounded_builds():
    """(construction, field, build) for each limit a construction reads;
    ``build(bounds)`` runs the construction under ``bounds``."""
    wedge = load_fixture("z2-wedge").embedded_pa
    inst = load_fixture("z4-from-z2-pair")
    pa, big = inst.embedded_pa, inst.big
    circle = load_fixture("z4-circle").pa
    whole = pa.group.whole
    ident = pact.SpaceMap.identity(pa.space)
    maps = {"enumerate_maps": lambda b: pact.enumerate_maps(wedge.space, wedge.space,
                                                            (wedge, wedge), b),
            "enumerate_G_maps": lambda b: pact.enumerate_G_maps(wedge, wedge, b),
            "enumerate_monotone_maps": lambda b: pact.enumerate_monotone_maps(
                wedge.space, wedge.space, b)}
    return [
        ("globalize", "envelope_pairs", lambda b: pact.globalize(wedge, b)),
        ("twisted_product", "envelope_pairs", lambda b: pact.twisted_product(pa, big, b)),
        ("envelope_of_map", "envelope_pairs",
         lambda b: pact.envelope_of_map(ident, pa, pa, big, bounds=b)),
        ("recognize_globalization", "envelope_pairs",
         lambda b: pact.recognize_globalization(circle, ["a3", "c0", "a0", "c1", "a1"], b)),
        ("fixed_decomposition", "envelope_pairs",
         lambda b: pact.fixed_decomposition(pa, whole, bounds=b)),
        ("fixed_decomposition", "group_order",
         lambda b: pact.fixed_decomposition(pa, whole, bounds=b)),
        ("all_subgroups", "group_order", lambda b: pact.all_subgroups(big, b)),
        *((name, field, build) for name, build in maps.items()
          for field in ("map_nodes", "max_maps")),
    ]


BOUNDED_BUILDS = _bounded_builds()


@pytest.mark.parametrize("name, field, build", BOUNDED_BUILDS,
                         ids=[f"{name}-{field}" for name, field, _ in BOUNDED_BUILDS])
def test_each_construction_reads_its_own_bound(name, field, build):
    def builds(value: int) -> bool:
        try:
            build(dataclasses.replace(DEFAULT_BOUNDS, **{field: value}))
        except pact.BoundExceeded:
            return False
        return True

    build(DEFAULT_BOUNDS)
    # the least value of the field under which the call builds
    low, high = 0, getattr(DEFAULT_BOUNDS, field)
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if builds(mid) else (mid + 1, high)
    assert low > 0, f"{name} ignores {field}"
    with pytest.raises(pact.BoundExceeded) as err:
        build(dataclasses.replace(DEFAULT_BOUNDS, **{field: low - 1}))
    assert err.value.limit == low - 1


def test_no_public_function_takes_a_single_limit():
    import importlib
    import inspect
    import pkgutil

    retired = {"max_pairs", "max_order", "group_order", "node_budget", "max_maps"}
    found = []
    for info in pkgutil.iter_modules(pact.__path__):
        module = importlib.import_module(f"pact.{info.name}")
        owners = [module] + [cls for cls in vars(module).values()
                             if inspect.isclass(cls) and cls.__module__ == module.__name__]
        for owner in owners:
            for fname, fn in vars(owner).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                params = set(inspect.signature(fn).parameters)
                found += [f"{module.__name__}.{fn.__qualname__}({p})" for p in params & retired]
    assert found == []
