"""Command-line front end: instance parsing, dispatch, fixtures, reports.

Exit codes: 0 all requested checks hold, 1 at least one claim fails,
2 invalid input or an unmet operation precondition, 3 a trusted invariant
failed (a claim reported internal-error, or a command raised
InternalCheckError): a bug in pact, not in the input.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

from .bounds import DEFAULT_BOUNDS, Bounds
from .envelope import fixed_decomposition, globalize, twisted_product
from .errors import BoundExceeded, InternalCheckError, PactError
from .fixtures import FIXTURES, fixture_names, fixture_text
from .homotopy import (core, enumerate_maps, is_G_contractible, is_locally_G_contractible)
from .instance import Instance, parse_instance
from .paction import fixed_points, orbit_space, restrict_to_subgroup
from .report import FAILS, HOLDS, INTERNAL_ERROR
from .verify import claim_ids, exit_code, run_all, run_claim


def _load_instance(ref: str) -> Instance:
    if Path(ref).exists():
        return parse_instance(Path(ref))
    if ref in FIXTURES:
        return parse_instance(FIXTURES[ref])  # the parser only reads it
    return parse_instance(Path(ref))  # raises with a clear message


def _emit(doc: dict, args: argparse.Namespace, text=None) -> None:
    payload = json.dumps(doc, indent=2, sort_keys=True)
    out = getattr(args, "output", None)
    if out:
        Path(out).write_text(payload + "\n")
        print(f"wrote {out}")
        return
    if getattr(args, "json", False) or text is None:
        print(payload)
    else:
        print(text(doc))


def _space_doc(space) -> dict:
    order = {p: i for i, p in enumerate(space.points)}
    return {"points": list(space.points),
            "min_open": {p: sorted(space.min_open_of(p), key=order.__getitem__)
                         for p in space.points}}


def _cmd_validate(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    lines = [
        f"group: OK ({len(inst.group)} elements)",
        f"space: OK ({len(inst.space)} points)",
        f"partial action: OK ({sum(map(len, inst.pa.domain_points))} pairs in G*X)",
    ]
    if inst.big_group is not None:
        lines.append(f"big group: OK ({len(inst.big_group)} elements)")
    if args.json:
        print(json.dumps({"id": inst.id, "valid": True}, indent=2, sort_keys=True))
    else:
        print(f"instance {inst.id}")
        for line in lines:
            print(f"  {line}")
    return 0


def _cmd_globalize(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    env = globalize(inst.embedded_pa, args.bounds)
    doc = {"instance": inst.id, **env.to_document()}
    _emit(doc, args, lambda d: f"{inst.id}: globalization has {d['class_count']} classes\n"
          + "\n".join(f"  {label}: {members}" for label, members in d["classes"].items()))
    return 0


def _cmd_twist(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    pa = inst.embedded_pa
    if args.subgroup:
        sub = inst.embedded_subgroup(args.subgroup)
        pa = restrict_to_subgroup(pa, sub)
    env = twisted_product(pa, inst.big, args.bounds)
    doc = {"instance": inst.id, "subgroup": sorted(pa.group.elements), **env.to_document()}
    _emit(doc, args, lambda d: f"{inst.id}: twisted product over K={d['subgroup']} "
          f"has {d['class_count']} classes")
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    orb = orbit_space(inst.pa)
    doc = {
        "instance": inst.id,
        "orbit_count": len(orb.space),
        "orbits": {orb.projection(min(cls, key=inst.space.index)):
                   sorted(cls, key=inst.space.index) for cls in orb.classes},
        "space": _space_doc(orb.space),
        "projection": orb.projection.as_dict(),
    }
    _emit(doc, args, lambda d: f"{inst.id}: {d['orbit_count']} orbits\n"
          + "\n".join(f"  {k}: {v}" for k, v in d["orbits"].items()))
    return 0


def _cmd_fixed(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    sub = inst.embedded_subgroup(args.subgroup)
    pa = inst.embedded_pa
    fixed = fixed_points(pa, sub)
    doc = {
        "instance": inst.id,
        "subgroup": list(sub.sorted_members),
        "fixed_points": sorted(fixed, key=inst.space.index),
    }
    if args.envelope:
        doc["decomposition"] = fixed_decomposition(pa, sub, bounds=args.bounds)
    _emit(doc, args, lambda d: f"{inst.id}: X[K] = {d['fixed_points']} "
          f"for K = {d['subgroup']}"
          + ("" if "decomposition" not in d else
             f"\n  decomposition: {d['decomposition']['status']}"))
    return 0


def _cmd_homotopy(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    pa = inst.embedded_pa
    if args.core:
        reduced = core(inst.space)
        doc = {"instance": inst.id, "core": _space_doc(reduced),
               "contractible": len(reduced) == 1}
        _emit(doc, args, lambda d: f"{inst.id}: core has {len(d['core']['points'])} points")
        return 0
    if args.g_contractible:
        result = is_G_contractible(pa, lambda: enumerate_maps(
            pa.space, pa.space, (pa, pa), args.bounds))
        doc = {"instance": inst.id, "g_contractible": result.value,
               "fixed_point": result.fixed_point,
               "fence": result.fence_tables(), "reason": result.reason}
        _emit(doc, args, lambda d: f"{inst.id}: G-contractible = {d['g_contractible']}")
        return 0
    if args.locally_g_contractible:
        doc = {"instance": inst.id,
               "locally_g_contractible": is_locally_G_contractible(pa)}
        _emit(doc, args, lambda d: f"{inst.id}: locally G-contractible = "
              f"{d['locally_g_contractible']}")
        return 0
    reduced = core(inst.space)
    doc = {
        "instance": inst.id,
        "points": len(inst.space),
        "core_points": len(reduced),
        "contractible": len(reduced) == 1,
    }
    _emit(doc, args, lambda d: f"{inst.id}: {d['points']} points, core {d['core_points']}, "
          f"contractible = {d['contractible']}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    if args.claim == "all":
        reports = run_all(inst, args.bounds)
    else:
        reports = [run_claim(args.claim, inst, args.bounds)]
    if args.json:
        print(json.dumps([rep.to_dict() for rep in reports], indent=2, sort_keys=True))
    else:
        for rep in reports:
            print(rep.render())
        failed = sum(1 for rep in reports if rep.status == FAILS)
        held = sum(1 for rep in reports if rep.status == HOLDS)
        broken = sum(1 for rep in reports if rep.status == INTERNAL_ERROR)
        print(f"-- {held} hold, {failed} fail, "
              f"{len(reports) - held - failed - broken} not applicable/skipped"
              + (f", {broken} internal-error" if broken else ""))
    return exit_code(reports)


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.emit:
        name = args.emit
        text = fixture_text(name)
        out = args.output or f"{name}.json"
        Path(out).write_text(text)
        print(f"wrote {out}")
        return 0
    for name in fixture_names():
        print(name)
    return 0


@functools.cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    import argparse  # on first use, so `import pact.cli` does not pay for it
    parser = argparse.ArgumentParser(
        prog="pact",
        description="Partial group actions at finite scale: globalizations, "
                    "twisted products, orbit spaces, fixed points, and "
                    "equivariant homotopy checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def bound(text: str) -> Bounds:
        """--bound N: every size limit at N >= 1 ("invalid bound value" names it)."""
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
        return DEFAULT_BOUNDS.with_limit(n)

    def common(p: argparse.ArgumentParser, output: bool = False) -> None:
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON on stdout")
        p.add_argument("--bound", type=bound, default=DEFAULT_BOUNDS, dest="bounds",
                       metavar="BOUND", help="override the enumeration size limits (N >= 1)")
        if output:
            p.add_argument("-o", "--output", default=None,
                           help="write the JSON document to this path")

    p = sub.add_parser("validate", help="validate group, space and partial action")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("globalize", help="emit the enveloping-space document")
    p.add_argument("file")
    common(p, output=True)
    p.set_defaults(func=_cmd_globalize)

    p = sub.add_parser("twist", help="twisted product over K inside the big group")
    p.add_argument("file")
    p.add_argument("--subgroup", default=None, help="named subgroup to act through")
    common(p, output=True)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("orbit", help="orbit-space document")
    p.add_argument("file")
    common(p, output=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("fixed", help="fixed-point set X[K] of a named subgroup")
    p.add_argument("file")
    p.add_argument("--subgroup", required=True)
    p.add_argument("--envelope", action="store_true",
                   help="also check the fixed-point decomposition identities")
    common(p, output=True)
    p.set_defaults(func=_cmd_fixed)

    p = sub.add_parser("homotopy", help="homotopy analyses")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--g-contractible", action="store_true")
    group.add_argument("--locally-g-contractible", action="store_true")
    group.add_argument("--core", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_homotopy)

    p = sub.add_parser("check", help="run one claim or the whole registry")
    p.add_argument("claim", help="a claim id, or 'all'",
                   choices=claim_ids() + ["all"])
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fixtures", help="list or write bundled fixtures")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true")
    group.add_argument("--emit", default=None, metavar="NAME",
                       choices=fixture_names())
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_fixtures, json=False, bounds=DEFAULT_BOUNDS)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 4
    except PactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
