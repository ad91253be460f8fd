"""Enumerative suites for the double-category laws: interchange, unitor
and associator coherence, and the companion/conjoint bending identities.

Each suite is a list of configurations, drawn deterministically from the
stock corpus, and one law; ``holds`` tries the law on each configuration
in order and stops at the first failure, so every run checks the same
cases and reports how many held.  Every suite runs all its configurations
except interchange, which runs the first ``INTERCHANGE_GRIDS`` of its
1,892 grids.  Each suite is a decision (``fincat.decision``): it builds
each unit profunctor, composite, companion, conjoint and functor list
once, so both sides of a law share their composites, and each identity
and composite functor once, such as the boundaries that ``vcompose``
composes, mostly identities.  The interchange
suite also builds the cells of the transformations between each pair of
functors once (``transformation_cells``, a construction), lists the lower
half of its grids, the cells over each triple (g, g1, g2), once per triple
of categories (``interchange_grids``), and evaluates each distinct
vertical or horizontal composite of cells once, through a
``functools.cache`` made per call.  Nothing outlives the suite call.
"""

from __future__ import annotations

import itertools
from functools import cache

from .fincat import (all_functors, all_natural_transformations, construction,
                     decision, identity_functor)
from .prof import (associator, companion, companion_cells,
                   componentwise_bijective, compose_prof, conjoint,
                   conjoint_cells, hcompose, identity_cell,
                   left_unitor, nat_transf_as_cell,
                   right_unitor, unit_cell, unit_prof, vcompose)
from . import zoo

INTERCHANGE_GRIDS = 120


def holds(configs, law):
    """Whether ``law`` holds on every configuration of ``configs``, tried
    in order, and the number it held on before the first failure."""
    count = 0
    for config in configs:
        if not law(*config):
            return False, count
        count += 1
    return True, count


def interchange_configs():
    """Square grids of four stacked cells built from natural
    transformations between corpus functors."""
    triples = [
        (zoo.walking_arrow(), zoo.composable_pair(), zoo.walking_arrow()),
        (zoo.parallel_pair(), zoo.walking_arrow(), zoo.composable_pair()),
        (zoo.terminal_category(), zoo.iso_pair(), zoo.walking_arrow()),
        (zoo.composable_pair(), zoo.walking_arrow(), zoo.parallel_pair()),
    ]
    for triple in triples:
        yield from interchange_grids(*triple)


def interchange_grids(a_cat, c_cat, e_cat):
    """The grids over functors A -> C -> E: transformations between
    functors A -> C stacked on transformations between functors C -> E.
    The lower half of a grid, the cells over a triple (g, g1, g2) of
    functors C -> E, does not depend on the upper half, so it is listed
    once per triple of categories."""
    fs, gs = all_functors(a_cat, c_cat), all_functors(c_cat, e_cat)
    lower = [(transformation_cells(g, g1), transformation_cells(g1, g2))
             for g, g1, g2 in itertools.product(gs, repeat=3)]
    for f, f1, f2 in itertools.product(fs, repeat=3):
        alphas = transformation_cells(f, f1)
        betas = transformation_cells(f1, f2)
        if not alphas or not betas:
            continue
        for gammas, deltas in lower:
            yield from itertools.product(alphas, betas, gammas, deltas)


@construction
def transformation_cells(s, r):
    """For functors s, r : A -> B, the cells of the first two
    transformations s => r."""
    return [nat_transf_as_cell(alpha)
            for alpha in all_natural_transformations(s, r)[:2]]


@decision
def check_interchange():
    """Interchange: composing a grid of four cells vertically first or
    horizontally first gives the same cell.  Each distinct pair of cells
    is composed once, through caches made here; they call ``vcompose``
    and ``hcompose`` by name, so a test can replace either."""
    vert = cache(lambda bot, top: vcompose(bot, top))
    horiz = cache(lambda left, right: hcompose(left, right))

    def interchange(phi, chi, psi, xi):
        return (horiz(vert(psi, phi), vert(xi, chi)) ==
                vert(horiz(psi, xi), horiz(phi, chi)))

    return holds(itertools.islice(interchange_configs(), INTERCHANGE_GRIDS),
                 interchange)


@decision
def check_unitors_and_triangle():
    """Unitors are invertible and satisfy the triangle coherence, counted
    as one suite."""
    one = zoo.terminal_category()
    two = zoo.walking_arrow()
    three = zoo.composable_pair()
    pp = zoo.parallel_pair()
    profs = [unit_prof(two), unit_prof(pp)]
    profs += [companion(f) for f in all_functors(two, three)[:4]]
    profs += [conjoint(f) for f in all_functors(one, three)]
    profs += [companion(f) for f in all_functors(pp, two)[:4]]

    def invertible(p):
        # a unitor has identity sides, so it is invertible exactly when
        # its components biject
        return componentwise_bijective(left_unitor(p)) and \
            componentwise_bijective(right_unitor(p))

    ok, count = holds(zip(profs), invertible)
    if not ok:
        return False, count
    pairs = []
    for f in all_functors(two, three)[:4]:
        for g in all_functors(one, three):
            pairs.append((companion(f), conjoint(g)))
    for f in all_functors(pp, two)[:3]:
        for g in all_functors(two, three)[:3]:
            pairs.append((companion(f), companion(g)))

    def triangle(j, h):
        # the two ways of cancelling the middle unit of J * 1 * H agree
        return (vcompose(hcompose(identity_cell(j), left_unitor(h)),
                         associator(j, unit_prof(j.target), h)) ==
                hcompose(right_unitor(j), identity_cell(h)))

    ok, more = holds(pairs, triangle)
    return ok, count + more


@decision
def check_pentagon():
    one = zoo.terminal_category()
    two = zoo.walking_arrow()
    three = zoo.composable_pair()
    pp = zoo.parallel_pair()
    chains = []
    for f in all_functors(two, three)[:2]:
        for g in all_functors(one, three)[:2]:
            for h in all_functors(one, pp)[:2]:
                chains.append((unit_prof(two), companion(f), conjoint(g),
                               companion(h)))

    def pentagon(j, h, k, l):
        kl, _ = compose_prof(k, l)
        jh, _ = compose_prof(j, h)
        hk, _ = compose_prof(h, k)
        return (vcompose(associator(j, h, kl), associator(jh, k, l)) ==
                vcompose(hcompose(identity_cell(j), associator(h, k, l)),
                         vcompose(associator(j, hk, l),
                                  hcompose(associator(j, h, k),
                                           identity_cell(l)))))

    return holds(chains, pentagon)


@decision
def check_companion_identities():
    one = zoo.terminal_category()
    two = zoo.walking_arrow()
    three = zoo.composable_pair()
    pp = zoo.parallel_pair()
    functors = (all_functors(two, three)[:5] + all_functors(one, two) +
                all_functors(pp, two)[:5] + [identity_functor(three)])

    def bending(f):
        eps, eta = companion_cells(f)
        if vcompose(eps, eta) != unit_cell(f):
            return False
        fs = eps.hsrc       # the companion f_*
        if vcompose(right_unitor(fs), hcompose(eta, eps)) != left_unitor(fs):
            return False
        ceps, ceta = conjoint_cells(f)
        if vcompose(ceps, ceta) != unit_cell(f):
            return False
        cs = ceps.hsrc      # the conjoint f^*
        return (vcompose(left_unitor(cs), hcompose(ceps, ceta)) ==
                right_unitor(cs))

    return holds(zip(functors), bending)


def run_all():
    """Run every law suite; returns (ok, report)."""
    report = {}
    for key, check in [("interchange", check_interchange),
                       ("unitors_triangle", check_unitors_and_triangle),
                       ("pentagon", check_pentagon),
                       ("companion_conjoint", check_companion_identities)]:
        good, count = check()
        report[key] = {"ok": good, "configurations": count}
    return all(r["ok"] for r in report.values()), report
