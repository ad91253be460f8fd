"""Enumerative suites for the double-category laws: interchange, unitor
and associator coherence, and the companion/conjoint bending identities.

Configurations are drawn deterministically from the stock corpus, so a
run with the same caps always checks the same cases.  Each suite is a
decision (``fincat.decision``): it builds each unit profunctor, composite,
companion, conjoint and functor list once, so both sides of a law share
their composites.  The interchange suite also builds the cells of the
transformations between each pair of functors once
(``transformation_cells``, a construction), and it evaluates each
distinct vertical or horizontal composite of cells once, keyed by the
cells.  Nothing outlives the suite call.
"""

from __future__ import annotations

import itertools

from .fincat import (all_functors, all_natural_transformations, construction,
                     decision, identity_functor, remembering)
from .prof import (associator, companion, companion_cells,
                   componentwise_bijective, compose_prof, conjoint,
                   conjoint_cells, hcompose, identity_cell,
                   invert_horizontal_cell, left_unitor, nat_transf_as_cell,
                   right_unitor, unit_cell, unit_prof, vcompose)
from . import zoo


def interchange_configs():
    """Square grids of four stacked cells built from natural
    transformations between corpus functors."""
    triples = [
        (zoo.walking_arrow(), zoo.composable_pair(), zoo.walking_arrow()),
        (zoo.parallel_pair(), zoo.walking_arrow(), zoo.composable_pair()),
        (zoo.terminal_category(), zoo.iso_pair(), zoo.walking_arrow()),
        (zoo.composable_pair(), zoo.walking_arrow(), zoo.parallel_pair()),
    ]
    for a_cat, c_cat, e_cat in triples:
        fs, gs = all_functors(a_cat, c_cat), all_functors(c_cat, e_cat)
        for f, f1, f2 in itertools.product(fs, repeat=3):
            alphas = transformation_cells(f, f1)
            betas = transformation_cells(f1, f2)
            if not alphas or not betas:
                continue
            for g, g1, g2 in itertools.product(gs, repeat=3):
                yield from itertools.product(
                    alphas, betas, transformation_cells(g, g1),
                    transformation_cells(g1, g2))


@construction
def transformation_cells(s, r):
    """For functors s, r : A -> B, the cells of the first two
    transformations s => r."""
    return [nat_transf_as_cell(alpha)
            for alpha in all_natural_transformations(s, r)[:2]]


@decision
def check_interchange(max_configs=120):
    """Interchange: composing a grid of four cells vertically first or
    horizontally first gives the same cell.  Each distinct pair of cells
    is composed once, through memos made here; they call ``vcompose`` and
    ``hcompose`` by name, so a test can replace either."""
    vert = remembering(lambda bot, top: vcompose(bot, top))
    horiz = remembering(lambda left, right: hcompose(left, right))
    count = 0
    for phi, chi, psi, xi in interchange_configs():
        lhs = horiz(vert(psi, phi), vert(xi, chi))
        rhs = vert(horiz(psi, xi), horiz(phi, chi))
        if lhs != rhs:
            return False, count
        count += 1
        if count >= max_configs:
            break
    return True, count


@decision
def check_unitors_and_triangle(max_configs=40):
    """Unitors are invertible and satisfy the triangle coherence."""
    one = zoo.terminal_category()
    two = zoo.walking_arrow()
    three = zoo.composable_pair()
    pp = zoo.parallel_pair()
    profs = [unit_prof(two), unit_prof(pp)]
    profs += [companion(f) for f in all_functors(two, three)[:4]]
    profs += [conjoint(f) for f in all_functors(one, three)]
    profs += [companion(f) for f in all_functors(pp, two)[:4]]
    count = 0
    for p in profs:
        lu = left_unitor(p)
        ru = right_unitor(p)
        if not componentwise_bijective(lu) or not componentwise_bijective(ru):
            return False, count
        invert_horizontal_cell(lu)
        invert_horizontal_cell(ru)
        count += 1
    # triangle: for composable pairs (J, H), the two ways of cancelling the
    # middle unit agree
    pairs = []
    for f in all_functors(two, three)[:4]:
        for g in all_functors(one, three):
            pairs.append((companion(f), conjoint(g)))
    for f in all_functors(pp, two)[:3]:
        for g in all_functors(two, three)[:3]:
            pairs.append((companion(f), companion(g)))
    for j, h in pairs:
        mid = unit_prof(j.target)
        lhs = vcompose(hcompose(identity_cell(j), left_unitor(h)),
                       associator(j, mid, h))
        rhs = hcompose(right_unitor(j), identity_cell(h))
        if lhs != rhs:
            return False, count
        count += 1
        if count >= max_configs:
            break
    return True, count


@decision
def check_pentagon(max_configs=8):
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
    count = 0
    for j, h, k, l in chains:
        kl, _ = compose_prof(k, l)
        jh, _ = compose_prof(j, h)
        hk, _ = compose_prof(h, k)
        lhs = vcompose(associator(j, h, kl), associator(jh, k, l))
        rhs = vcompose(hcompose(identity_cell(j), associator(h, k, l)),
                       vcompose(associator(j, hk, l),
                                hcompose(associator(j, h, k),
                                         identity_cell(l))))
        if lhs != rhs:
            return False, count
        count += 1
        if count >= max_configs:
            break
    return True, count


@decision
def check_companion_identities(max_configs=30):
    one = zoo.terminal_category()
    two = zoo.walking_arrow()
    three = zoo.composable_pair()
    pp = zoo.parallel_pair()
    functors = (all_functors(two, three)[:5] + all_functors(one, two) +
                all_functors(pp, two)[:5] + [identity_functor(three)])
    count = 0
    for f in functors:
        eps, eta = companion_cells(f)
        if vcompose(eps, eta) != unit_cell(f):
            return False, count
        fs = eps.hsrc       # the companion f_*
        if vcompose(right_unitor(fs), hcompose(eta, eps)) != left_unitor(fs):
            return False, count
        ceps, ceta = conjoint_cells(f)
        if vcompose(ceps, ceta) != unit_cell(f):
            return False, count
        cs = ceps.hsrc      # the conjoint f^*
        if vcompose(left_unitor(cs), hcompose(ceps, ceta)) != right_unitor(cs):
            return False, count
        count += 1
        if count >= max_configs:
            break
    return True, count


def run_all(max_interchange=120):
    """Run every law suite; returns (ok, report)."""
    report = {}
    ok = True
    for key, fn in [("interchange", lambda: check_interchange(max_interchange)),
                    ("unitors_triangle", check_unitors_and_triangle),
                    ("pentagon", check_pentagon),
                    ("companion_conjoint", check_companion_identities)]:
        good, count = fn()
        report[key] = {"ok": good, "configurations": count}
        ok = ok and good
    return ok, report
