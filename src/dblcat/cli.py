"""Command line interface.

Each subcommand is one entry of ``COMMANDS``: its handler, help line and
arguments.  ``build_parser`` registers every entry, and ``main`` calls the
handler that the chosen subcommand's parser sets as a default.  Each
handler returns a payload whose ``ok`` is its verdict, and ``main`` prints
it and takes the exit code from it: 0 when ``ok`` holds, 1 when a
requested property fails to hold.  2 is a usage or parse error and 3 a
violated internal invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

from . import dsl, kan, laws, spanfin, tab, zoo
from .fincat import NoLimit, comma_category, decision, find_isomorphism
from .prof import compose_prof
from .kan import InvariantViolation


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


def load_workspace(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:   # unreadable, or not UTF-8
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
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


def probe_set(cats, max_objects):
    """The categories of ``cats`` with at most ``max_objects`` objects."""
    return [c for c in cats if len(c.objects) <= max_objects]


def cmd_check(args):
    # dsl.parse validates every block and rejects a workspace with an
    # invalid one, so a workspace that loads is valid
    ws = load_workspace(args.file)
    return {"ok": True,
            "checked": {f.name: len(getattr(ws, f.name)) for f in fields(ws)}}


def cmd_compose(args):
    ws = load_workspace(args.file)
    left = pick_item(ws, "profunctors", args.left)
    right = pick_item(ws, "profunctors", args.right)
    if left.target != right.source:
        print("error: profunctors are not composable", file=sys.stderr)
        raise SystemExit(2)
    comp, classes = compose_prof(left, right)
    fibers = {f"({a},{b})": ["|".join(pair) for pair in comp.fiber(a, b)]
              for a in comp.source.objects for b in comp.target.objects
              if comp.fiber(a, b)}
    members = {}
    for (a, e), cls in classes.items():
        for pair, least in sorted(cls.items()):
            members.setdefault(f"({a},{e})", {}).setdefault(
                "|".join(least), []).append("|".join(pair))
    return {"ok": True, "fibers": fibers, "classes": members}


@decision
def cmd_ran(args):
    # one decision: the extension and both verdicts share one RanProblem
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
        return {"ok": False, "reason": str(exc)}
    out = {"ok": True,
           "on_objects": dict(cand.r.obj),
           "on_morphisms": dict(cand.r.mor)}
    if not args.skip_verify:
        out["is_extension"] = kan.is_ran(cand)
        out["is_pointwise"] = kan.is_pointwise_ran(cand)
        out["ok"] = out["is_extension"] and out["is_pointwise"]
    return out


def cmd_exact(args):
    ws = load_workspace(args.file)
    cell = pick_item(ws, "cells", args.cell)
    bc = kan.beck_chevalley(cell)
    verdict, counterexample = kan.is_right_exact(
        cell, mode=args.mode,
        probe_cats=probe_set(zoo.probe_categories(), args.probe_max_objects))
    out = {"ok": verdict, "beck_chevalley": bc, "mode": args.mode}
    if counterexample:
        out["counterexample"] = counterexample
    return out


def cmd_initial(args):
    ws = load_workspace(args.file)
    fun = pick_item(ws, "functors", args.functor)
    return {"ok": kan.is_initial_functor(fun), "functor": args.functor}


def tabulation_payload(args, t, verify, opcartesian=None):
    """The payload of ``tabulate`` and ``internal-tabulate`` on ``t``:
    unless ``--skip-verify``, with ``verify``'s verdict and report over the
    tabulation probes, then ``opcartesian(t)`` if given."""
    out = {"ok": True,
           "objects": list(t.category.objects),
           "morphism_count": len(t.category.morphisms)}
    if not args.skip_verify:
        good, report = verify(t, probe_set(zoo.tabulation_probes(),
                                           args.probe_max_objects))
        out["verified"], out["report"], out["ok"] = good, report, good
        if opcartesian is not None:
            out["opcartesian"] = opcartesian(t)
            out["ok"] = good and out["opcartesian"]
    return out


def cmd_tabulate(args):
    ws = load_workspace(args.file)
    j = pick_item(ws, "profunctors", args.profunctor)
    return tabulation_payload(args, tab.tabulate(j), tab.verify_tabulation,
                              tab.is_opcartesian_tabulation)


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
    return {"ok": iso is not None,
            "objects": list(co.category.objects),
            "morphism_count": len(co.category.morphisms),
            "matches_comma_category": iso is not None}


def cmd_internal_tabulate(args):
    ws = load_workspace(args.file)
    j = pick_item(ws, "profunctors", args.profunctor)
    return tabulation_payload(
        args, spanfin.internal_tabulate(spanfin.prof_bridge(j)),
        spanfin.verify_internal_tabulation)


def cmd_laws(args):
    ok, report = laws.run_all()
    return {"ok": ok, "suites": report}


# each subcommand: its handler, its help line and its arguments, whose
# options, where they have any, are in ARGUMENTS
COMMANDS = {
    "check": (cmd_check, "validate every block of a workspace", "file"),
    "compose": (cmd_compose, "compose two profunctors", "file left right"),
    "ran": (cmd_ran, "right extension of a functor along a profunctor",
            "file profunctor diagram --skip-verify"),
    "exact": (cmd_exact, "right exactness of a cell", "file cell --mode"),
    "initial": (cmd_initial, "initiality of a functor", "file functor"),
    "tabulate": (cmd_tabulate, "tabulate a profunctor",
                 "file profunctor --skip-verify"),
    "comma": (cmd_comma, "comma object of two functors", "file left right"),
    "internal-tabulate": (cmd_internal_tabulate,
                          "span-level tabulation of a profunctor",
                          "file profunctor --skip-verify"),
    "laws": (cmd_laws, "run the double-category law suites", ""),
}
ARGUMENTS = {
    "diagram": {"help": "functor out of the profunctor's target"},
    "--skip-verify": {"action": "store_true"},
    "--mode": {"choices": ["pointwise", "ordinary"], "default": "pointwise"},
}


@functools.cache
def build_parser():
    """The ``dcat`` argument parser, built once per process from
    ``COMMANDS`` and shared by every ``main`` call.  This saves work only
    where one process calls ``main`` many times (the tests, and the
    benchmark's in-process ``dcat`` calls); a shell ``dcat`` call builds it
    once either way.  Parsing leaves it as it was: each call gets a fresh
    namespace, and no option has a mutable default."""
    # the subcommand parsers get their own copies of the shared options with
    # suppressed defaults, so values given before the subcommand survive
    common = _common_options(suppress=True)
    p = argparse.ArgumentParser(
        prog="dcat",
        parents=[_common_options(suppress=False)],
        description="Workbench for double-categorical structure over "
                    "finite categories.")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (handler, help_line, arguments) in COMMANDS.items():
        c = sub.add_parser(command, parents=[common], help=help_line)
        for argument in arguments.split():
            c.add_argument(argument, **ARGUMENTS.get(argument, {}))
        c.set_defaults(handler=handler)
    return p


def emit(args, payload):
    if args.format == "json":
        print(json.dumps(payload, indent=None if args.quiet else 2,
                         sort_keys=True))
        return
    verdict = "ok" if payload["ok"] else "FAIL"
    print(f"{args.command}: {verdict}")
    if args.quiet:
        return
    for key, value in payload.items():
        if key == "ok":
            continue
        print(f"  {key}: {value}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    emit(args, payload)
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
