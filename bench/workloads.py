"""Workloads of the verdict benchmark.

Each workload is a list of jobs.  A job calls dblcat once (the timed part)
and then checks the result against a known answer (untimed).  Known answers
come from closed forms computed here without dblcat, or, where no closed
form exists, from the seed's output stored under ``expected/``.

The seed only permutes: the order of the jobs and, for the ordinals, the
listing order of objects and arrows.  Neither changes any known answer.

The ordinal ``[n]`` is the chain with ``n`` objects ``0 < 1 < ... < n-1``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "arrows.dcat"
EXPECTED = HERE / "expected"

MODULES = ("cli", "dsl", "fincat", "prof", "kan", "tab", "spanfin", "laws", "zoo")

NAMES = ("fixture-cli", "ord-build", "ord-decide")

# fixture-cli: every dcat subcommand on the fixture, exact in both modes
CLI_JOBS = {
    "check": ["check", "{fixture}"],
    "compose": ["compose", "{fixture}", "HomTwo", "HomTwo"],
    "ran": ["ran", "{fixture}", "HomTwo", "Collapse"],
    "exact-pointwise": ["exact", "{fixture}", "collapse", "--mode", "pointwise"],
    "exact-ordinary": ["exact", "{fixture}", "collapse", "--mode", "ordinary"],
    "initial": ["initial", "{fixture}", "Emb"],
    "tabulate": ["tabulate", "{fixture}", "HomTwo"],
    "comma": ["comma", "{fixture}", "Emb", "Emb"],
    "internal-tabulate": ["internal-tabulate", "{fixture}", "HomTwo"],
    "laws": ["laws"],
}

# Sizes keep every job at or under about 0.1 s on a 2-vCPU virtual machine,
# so that a run holds many passes and each job's median is taken over many
# samples; with jobs of a second or more a run held only four to six.
BUILD_SIZES = (5, 6, 7)
FUNCTOR_SIZES = ((4, 5), (5, 4), (5, 5))
RAN_SIZES = (3, 4, 5)
EXACT_SIZE = 3
TABULATION_SIZE = 2
INTERNAL_SIZE = 2


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # a problem description, or None


def import_dblcat():
    """Import every dblcat module afresh from this checkout's ``src``.

    Modules imported earlier are dropped first, so each call pays the full
    import cost.  Raises ImportError when ``src/dblcat`` is not there.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "dblcat" or k.startswith("dblcat.")]:
        del sys.modules[key]
    mods = {m: importlib.import_module(f"dblcat.{m}") for m in MODULES}
    where = Path(mods["fincat"].__file__).resolve().parent
    if where != SRC / "dblcat":
        raise ImportError(f"dblcat imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# closed forms, computed without dblcat


def functor_count(a, b):
    """Functors [a] -> [b] are the monotone maps: C(a+b-1, a)."""
    return math.comb(a + b - 1, a)


def tabulation_counts(n):
    """Objects and arrows of the tabulation of the hom profunctor of [n]:
    one object per i <= j, one arrow per (i, j) -> (i', j') with
    i <= i' and j <= j'."""
    arrows = sum(1 for i, j, i2, j2 in itertools.product(range(n), repeat=4)
                 if i <= j and i <= i2 and j <= j2 and i2 <= j2)
    return n * (n + 1) // 2, arrows


def ordinal(dc, n, rng):
    """The chain [n] with objects and arrows listed in an order drawn from
    ``rng``.  Objects are "0".."n-1"; the arrow i < j is "a<i>_<j>"."""
    objects = [str(i) for i in range(n)]
    arrows = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(objects)
    rng.shuffle(arrows)
    composites = {(f"a{j}_{k}", f"a{i}_{j}"): f"a{i}_{k}"
                  for i in range(n) for j in range(i + 1, n)
                  for k in range(j + 1, n)}
    return dc.fincat.make_category(
        f"Ord{n}", objects, {f"a{i}_{j}": (str(i), str(j)) for i, j in arrows},
        composites)


def fiber_problem(p, n):
    """None if the profunctor ``p`` on [n] has, like the hom-sets of [n],
    one element at (a, b) exactly when a <= b; else the first mismatch."""
    for a, b in itertools.product(range(n), repeat=2):
        size = len(p.fiber(str(a), str(b)))
        if size != (1 if a <= b else 0):
            return f"fiber ({a},{b}) has {size} elements"
    return None


def count_problem(cat, n):
    """None if ``cat`` has the object and arrow counts of the tabulation of
    the hom profunctor of [n]; else the mismatch."""
    got = (len(cat.objects), len(cat.morphisms))
    want = tabulation_counts(n)
    return None if got == want else f"(objects, arrows) = {got}, want {want}"


def internal_probes(dc):
    """The probe categories of ``verify_internal_tabulation`` here: the
    terminal category and the walking arrow.  The default set adds the
    parallel pair, which alone takes ten times as long as these two."""
    return [dc.spanfin.from_fincat(dc.zoo.terminal_category()),
            dc.spanfin.from_fincat(dc.zoo.walking_arrow())]


def _equal(want):
    return lambda got: None if got == want else f"got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# workloads


def call_cli(cli, argv):
    """Run ``dcat`` in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_argv(name):
    """The ``dcat`` arguments of the fixture-cli job ``name``."""
    return [str(FIXTURE) if a == "{fixture}" else a
            for a in CLI_JOBS[name]] + ["--format", "json"]


def load_expected(workload):
    with open(EXPECTED / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def fixture_cli_jobs(dc, rng):
    expected = load_expected("fixture-cli")
    jobs = []
    for name in CLI_JOBS:
        argv = cli_argv(name)
        want = expected[name]

        def check(result, want=want):
            code, out = result
            got = {"code": code, "payload": json.loads(out)}
            return None if got == want else f"got {got}, want {want}"

        jobs.append(Job(name, lambda argv=argv: call_cli(dc.cli, argv), check))
    return jobs


def ord_build_jobs(dc, rng):
    jobs = []
    for n in BUILD_SIZES:
        cat = ordinal(dc, n, rng)
        hom = dc.prof.unit_prof(cat)
        ident = dc.fincat.identity_functor(cat)
        ws = dc.dsl.Workspace(categories={f"Ord{n}": cat},
                              profunctors={f"Hom{n}": hom})

        def compose_check(result, n=n):
            return fiber_problem(result[0], n)

        jobs += [
            Job(f"roundtrip[{n}]",
                lambda ws=ws: dc.dsl.parse(dc.dsl.serialize(ws)), _equal(ws)),
            Job(f"unit_prof[{n}]", lambda cat=cat: dc.prof.unit_prof(cat),
                lambda p, n=n: fiber_problem(p, n)),
            Job(f"compose_prof[{n}]",
                lambda hom=hom: dc.prof.compose_prof(hom, hom), compose_check),
            Job(f"tabulate[{n}]", lambda hom=hom: dc.tab.tabulate(hom),
                lambda t, n=n: count_problem(t.category, n)),
            Job(f"comma_object[{n}]",
                lambda f=ident: dc.tab.comma_object(f, f),
                lambda c, n=n: count_problem(c.category, n)),
            Job(f"comma_category[{n}]",
                lambda f=ident: dc.fincat.comma_category(f, f),
                lambda c, n=n: count_problem(c.category, n)),
        ]
    return jobs


def ord_decide_jobs(dc, rng):
    expected = load_expected("ord-decide")
    jobs = []
    for a, b in FUNCTOR_SIZES:
        src, dst = ordinal(dc, a, rng), ordinal(dc, b, rng)
        jobs.append(Job(f"all_functors[{a},{b}]",
                        lambda s=src, d=dst: dc.fincat.all_functors(s, d),
                        lambda fs, a=a, b=b: _equal(functor_count(a, b))(len(fs))))
    for n in RAN_SIZES:
        cat = ordinal(dc, n, rng)
        hom = dc.prof.unit_prof(cat)
        ident = dc.fincat.identity_functor(cat)
        # the extension of the identity along the hom profunctor is the
        # identity; the deciders below get the candidate built here
        cand = dc.kan.pointwise_ran(hom, ident)
        jobs += [
            Job(f"pointwise_ran[{n}]",
                lambda h=hom, d=ident: dc.kan.pointwise_ran(h, d),
                lambda c, d=ident: _equal((d.obj, d.mor))((c.r.obj, c.r.mor))),
            Job(f"is_ran[{n}]", lambda c=cand: dc.kan.is_ran(c), _equal(True)),
            Job(f"is_pointwise_ran[{n}]",
                lambda c=cand: dc.kan.is_pointwise_ran(c), _equal(True)),
        ]
    cell = dc.prof.identity_cell(dc.prof.unit_prof(ordinal(dc, EXACT_SIZE, rng)))
    for mode in ("pointwise", "ordinary"):
        jobs.append(Job(f"is_right_exact[{EXACT_SIZE},{mode}]",
                        lambda m=mode: dc.kan.is_right_exact(cell, mode=m),
                        _equal((True, None))))
    hom3 = dc.prof.unit_prof(ordinal(dc, TABULATION_SIZE, rng))
    hom2 = dc.prof.unit_prof(ordinal(dc, INTERNAL_SIZE, rng))
    jobs += [
        Job(f"verify_tabulation[{TABULATION_SIZE}]",
            lambda: dc.tab.verify_tabulation(dc.tab.tabulate(hom3)),
            _equal((True, expected["verify_tabulation"]))),
        Job(f"verify_internal_tabulation[{INTERNAL_SIZE}]",
            lambda: dc.spanfin.verify_internal_tabulation(
                dc.spanfin.internal_tabulate(dc.spanfin.prof_bridge(hom2)),
                internal_probes(dc)),
            _equal((True, expected["verify_internal_tabulation"]))),
    ]
    return jobs


BUILDERS = {
    "fixture-cli": fixture_cli_jobs,
    "ord-build": ord_build_jobs,
    "ord-decide": ord_decide_jobs,
}


def build(workload, seed, dc):
    """The workload's jobs for ``seed``, in the order they run."""
    rng = random.Random(seed)
    jobs = BUILDERS[workload](dc, rng)
    rng.shuffle(jobs)
    return jobs
