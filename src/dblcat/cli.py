"""Command line interface.

Exit codes: 0 on success, 1 when a requested property fails to hold,
2 on usage or parse errors, 3 when an internal invariant is violated.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dsl, kan, laws, spanfin, tab, zoo
from .fincat import NoLimit, comma_category, find_isomorphism, validate_category
from .prof import compose_prof, validate_cell, validate_profunctor
from .kan import InvariantViolation


class Verdict(Exception):
    """A requested property does not hold; carries the report."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


def probe_bound(text):
    """Parse --probe-max-objects: a bound below 1 leaves no probe, and a
    verdict over no probes would carry no evidence."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common_options(suppress):
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=["text", "json"],
                        default=argparse.SUPPRESS if suppress else "text")
    parent.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="print verdict lines only")
    parent.add_argument("--probe-max-objects", type=probe_bound, metavar="N",
                        default=argparse.SUPPRESS if suppress else 2,
                        help="bound on probe category size, at least 1 "
                             "(default 2)")
    return parent


def build_parser():
    # the subcommand parsers get their own copies of the shared options with
    # suppressed defaults, so values given before the subcommand survive
    common = _common_options(suppress=True)
    p = argparse.ArgumentParser(
        prog="dcat",
        parents=[_common_options(suppress=False)],
        description="Workbench for double-categorical structure over "
                    "finite categories.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[common],
                       help="validate every block of a workspace")
    c.add_argument("file")

    c = sub.add_parser("compose", parents=[common],
                       help="compose two profunctors")
    c.add_argument("file")
    c.add_argument("left")
    c.add_argument("right")

    c = sub.add_parser("ran", parents=[common],
                       help="right extension of a functor along a profunctor")
    c.add_argument("file")
    c.add_argument("profunctor")
    c.add_argument("diagram", help="functor out of the profunctor's target")
    c.add_argument("--skip-verify", action="store_true")

    c = sub.add_parser("exact", parents=[common],
                       help="right exactness of a cell")
    c.add_argument("file")
    c.add_argument("cell")
    c.add_argument("--mode", choices=["pointwise", "ordinary"],
                   default="pointwise")

    c = sub.add_parser("initial", parents=[common],
                       help="initiality of a functor")
    c.add_argument("file")
    c.add_argument("functor")

    c = sub.add_parser("tabulate", parents=[common],
                       help="tabulate a profunctor")
    c.add_argument("file")
    c.add_argument("profunctor")
    c.add_argument("--skip-verify", action="store_true")

    c = sub.add_parser("comma", parents=[common],
                       help="comma object of two functors")
    c.add_argument("file")
    c.add_argument("left")
    c.add_argument("right")

    c = sub.add_parser("internal-tabulate", parents=[common],
                       help="span-level tabulation of a profunctor")
    c.add_argument("file")
    c.add_argument("profunctor")
    c.add_argument("--skip-verify", action="store_true")

    sub.add_parser("laws", parents=[common],
                   help="run the double-category law suites")
    return p


def load_workspace(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return dsl.parse(text)
    except dsl.DslError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        raise SystemExit(2)


def pick_item(ws, table_name, name):
    table = getattr(ws, table_name)
    if name not in table:
        print(f"error: no {table_name[:-1]} named {name!r} in the workspace",
              file=sys.stderr)
        raise SystemExit(2)
    return table[name]


def probe_set(max_objects):
    return [c for c in zoo.probe_categories() if len(c.objects) <= max_objects]


def cmd_check(args):
    ws = load_workspace(args.file)
    report = {"categories": {}, "functors": {}, "profunctors": {}, "cells": {}}
    ok = True
    for name, cat in ws.categories.items():
        problems = validate_category(cat)
        report["categories"][name] = problems
        ok = ok and not problems
    for name, fun in ws.functors.items():
        problems = fun.validate()
        report["functors"][name] = problems
        ok = ok and not problems
    for name, prof in ws.profunctors.items():
        problems = validate_profunctor(prof)
        report["profunctors"][name] = problems
        ok = ok and not problems
    for name, cell in ws.cells.items():
        problems = validate_cell(cell)
        report["cells"][name] = problems
        ok = ok and not problems
    if not ok:
        raise Verdict(report)
    counts = {k: len(v) for k, v in report.items()}
    return {"ok": True, "checked": counts}


def cmd_compose(args):
    ws = load_workspace(args.file)
    left = pick_item(ws, "profunctors", args.left)
    right = pick_item(ws, "profunctors", args.right)
    if left.target != right.source:
        print("error: profunctors are not composable", file=sys.stderr)
        raise SystemExit(2)
    comp, wit = compose_prof(left, right)
    fibers = {f"({a},{b})": list(comp.fiber(a, b))
              for a in comp.source.objects for b in comp.target.objects
              if comp.fiber(a, b)}
    classes = {}
    for (a, e), cls in wit.classes.items():
        for pair, rep in sorted(cls.items()):
            classes.setdefault(f"({a},{e})", {}).setdefault(
                "|".join(rep), []).append("|".join(pair))
    return {"ok": True, "fibers": fibers, "classes": classes}


def cmd_ran(args):
    ws = load_workspace(args.file)
    j = pick_item(ws, "profunctors", args.profunctor)
    d = pick_item(ws, "functors", args.diagram)
    if d.source != j.target:
        print("error: the diagram must start at the profunctor's target",
              file=sys.stderr)
        raise SystemExit(2)
    try:
        cand = kan.pointwise_ran(j, d)
    except NoLimit as exc:
        raise Verdict({"ok": False, "reason": str(exc)})
    out = {"ok": True,
           "on_objects": dict(cand.r.obj),
           "on_morphisms": dict(cand.r.mor)}
    if not args.skip_verify:
        out["is_extension"] = kan.is_ran(cand)
        out["is_pointwise"] = kan.is_pointwise_ran(cand)
        if not (out["is_extension"] and out["is_pointwise"]):
            raise Verdict(out)
    return out


def cmd_exact(args):
    ws = load_workspace(args.file)
    cell = pick_item(ws, "cells", args.cell)
    bc = kan.beck_chevalley(cell)
    verdict, counterexample = kan.is_right_exact(
        cell, mode=args.mode, probe_cats=probe_set(args.probe_max_objects))
    out = {"ok": verdict, "beck_chevalley": bc, "mode": args.mode}
    if counterexample:
        out["counterexample"] = counterexample
    if not verdict:
        raise Verdict(out)
    return out


def cmd_initial(args):
    ws = load_workspace(args.file)
    fun = pick_item(ws, "functors", args.functor)
    verdict = kan.is_initial_functor(fun)
    if not verdict:
        raise Verdict({"ok": False, "functor": args.functor})
    return {"ok": True, "functor": args.functor}


def cmd_tabulate(args):
    ws = load_workspace(args.file)
    j = pick_item(ws, "profunctors", args.profunctor)
    t = tab.tabulate(j)
    out = {"ok": True,
           "objects": list(t.category.objects),
           "morphism_count": len(t.category.morphisms)}
    if not args.skip_verify:
        probes = [c for c in tab.default_probes()
                  if len(c.objects) <= args.probe_max_objects]
        good, report = tab.verify_tabulation(t, probes)
        out["verified"] = good
        out["report"] = report
        out["opcartesian"] = tab.is_opcartesian_tabulation(t)
        if not (good and out["opcartesian"]):
            out["ok"] = False
            raise Verdict(out)
    return out


def cmd_comma(args):
    ws = load_workspace(args.file)
    f = pick_item(ws, "functors", args.left)
    g = pick_item(ws, "functors", args.right)
    if f.target != g.target:
        print("error: functors must share a target", file=sys.stderr)
        raise SystemExit(2)
    co = tab.comma_object(f, g)
    cc = comma_category(f, g)
    iso = find_isomorphism(co.category, cc.category)
    out = {"ok": iso is not None,
           "objects": list(co.category.objects),
           "morphism_count": len(co.category.morphisms),
           "matches_comma_category": iso is not None}
    if iso is None:
        raise Verdict(out)
    return out


def cmd_internal_tabulate(args):
    ws = load_workspace(args.file)
    j = pick_item(ws, "profunctors", args.profunctor)
    ij = spanfin.prof_bridge(j)
    t = spanfin.internal_tabulate(ij)
    out = {"ok": True,
           "objects": list(t.category.objects),
           "morphism_count": len(t.category.morphisms)}
    if not args.skip_verify:
        probes = [c for c in spanfin.default_internal_probes()
                  if len(c.objects) <= args.probe_max_objects]
        good, report = spanfin.verify_internal_tabulation(t, probes)
        out["verified"] = good
        out["report"] = report
        if not good:
            out["ok"] = False
            raise Verdict(out)
    return out


def cmd_laws(args):
    ok, report = laws.run_all()
    out = {"ok": ok, "suites": report}
    if not ok:
        raise Verdict(out)
    return out


HANDLERS = {
    "check": cmd_check,
    "compose": cmd_compose,
    "ran": cmd_ran,
    "exact": cmd_exact,
    "initial": cmd_initial,
    "tabulate": cmd_tabulate,
    "comma": cmd_comma,
    "internal-tabulate": cmd_internal_tabulate,
    "laws": cmd_laws,
}


def emit(args, payload):
    if args.format == "json":
        print(json.dumps(payload, indent=None if args.quiet else 2,
                         sort_keys=True))
        return
    verdict = "ok" if payload.get("ok") else "FAIL"
    print(f"{args.command}: {verdict}")
    if args.quiet:
        return
    for key, value in payload.items():
        if key == "ok":
            continue
        print(f"  {key}: {value}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = HANDLERS[args.command](args)
    except Verdict as exc:
        emit(args, dict(exc.report))
        return 1
    except SystemExit:
        raise
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
