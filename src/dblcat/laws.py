"""Enumerative suites for the double-category laws: interchange, unitor
and associator coherence, and the companion/conjoint bending identities.

Configurations are drawn deterministically from the stock corpus, so a
run with the same caps always checks the same cases.  Each suite makes
one ``memo_compose()`` and builds every cell through it: it composes each
distinct pair once, and both sides of a law share their composites.  Each
suite also makes one ``remembering(unit_prof)``, so it builds the unit
profunctor of each category once and its memo hits match by identity.
Each functor list, companion and conjoint is built once per suite too,
through ``remembering_by_name`` or read off a bending cell.
The interchange suite goes further: for each triple of categories it
searches the transformations between each pair of functors once, keyed by
the pair, and it evaluates each distinct vertical or horizontal composite
of cells once, keyed by the cells.
No memo outlives the suite call that made it.
"""

from __future__ import annotations

import itertools

from .fincat import (all_functors, all_natural_transformations,
                     identity_functor, remembering, remembering_by_name)
from .prof import (companion, companion_cells, conjoint, conjoint_cells,
                   associator, hcompose, identity_cell, left_unitor,
                   right_unitor, invert_horizontal_cell, memo_compose,
                   nat_transf_as_cell, unit_cell, unit_prof, vcompose,
                   componentwise_bijective)
from . import zoo


def interchange_configs(units, functors):
    """Square grids of four stacked cells built from natural
    transformations between corpus functors; ``units(C)`` gives 1_C and
    ``functors(A, C)`` the functors A -> C."""
    triples = [
        (zoo.walking_arrow(), zoo.composable_pair(), zoo.walking_arrow()),
        (zoo.parallel_pair(), zoo.walking_arrow(), zoo.composable_pair()),
        (zoo.terminal_category(), zoo.iso_pair(), zoo.walking_arrow()),
        (zoo.composable_pair(), zoo.walking_arrow(), zoo.parallel_pair()),
    ]
    for a_cat, c_cat, e_cat in triples:
        ua, uc, ue = units(a_cat), units(c_cat), units(e_cat)
        fs, gs = functors(a_cat, c_cat), functors(c_cat, e_cat)
        top = transformation_cells(ua, uc)
        bottom = transformation_cells(uc, ue)
        for f, f1, f2 in itertools.product(fs, repeat=3):
            alphas, betas = top(f, f1), top(f1, f2)
            if not alphas or not betas:
                continue
            for g, g1, g2 in itertools.product(gs, repeat=3):
                yield from itertools.product(alphas, betas, bottom(g, g1),
                                             bottom(g1, g2))


def transformation_cells(ua, ub):
    """For functors s, r : A -> B, the cells of the first two
    transformations s => r; ``ua`` and ``ub`` are 1_A and 1_B.  Each pair
    is searched, and its cells built, on first use only."""
    return remembering(lambda s, r: [
        nat_transf_as_cell(alpha, ua, ub)
        for alpha in all_natural_transformations(s, r)[:2]])


def check_interchange(max_configs=120):
    """Interchange: composing a grid of four cells vertically first or
    horizontally first gives the same cell.  Each distinct pair of cells
    is composed once, through memos made here; they call ``vcompose`` and
    ``hcompose`` by name, so a test can replace either."""
    compose = memo_compose()
    vert = remembering(lambda bot, top: vcompose(bot, top))
    horiz = remembering(lambda left, right: hcompose(left, right, compose))
    count = 0
    for phi, chi, psi, xi in interchange_configs(
            remembering(unit_prof), remembering_by_name(all_functors)):
        lhs = horiz(vert(psi, phi), vert(xi, chi))
        rhs = vert(horiz(psi, xi), horiz(phi, chi))
        if lhs != rhs:
            return False, count
        count += 1
        if count >= max_configs:
            break
    return True, count


def check_unitors_and_triangle(max_configs=40):
    """Unitors are invertible and satisfy the triangle coherence."""
    compose = memo_compose()
    units = remembering(unit_prof)
    functors = remembering_by_name(all_functors)
    companions = remembering_by_name(companion)
    conjoints = remembering_by_name(conjoint)
    one = zoo.terminal_category()
    two = zoo.walking_arrow()
    three = zoo.composable_pair()
    pp = zoo.parallel_pair()
    profs = [units(two), units(pp)]
    profs += [companions(f) for f in functors(two, three)[:4]]
    profs += [conjoints(f) for f in functors(one, three)]
    profs += [companions(f) for f in functors(pp, two)[:4]]
    count = 0
    for p in profs:
        lu = left_unitor(p, units(p.source), compose)
        ru = right_unitor(p, units(p.target), compose)
        if not componentwise_bijective(lu) or not componentwise_bijective(ru):
            return False, count
        invert_horizontal_cell(lu)
        invert_horizontal_cell(ru)
        count += 1
    # triangle: for composable pairs (J, H), the two ways of cancelling the
    # middle unit agree
    pairs = []
    for f in functors(two, three)[:4]:
        for g in functors(one, three):
            pairs.append((companions(f), conjoints(g)))
    for f in functors(pp, two)[:3]:
        for g in functors(two, three)[:3]:
            pairs.append((companions(f), companions(g)))
    for j, h in pairs:
        mid = j.target
        lhs = vcompose(hcompose(identity_cell(j),
                                left_unitor(h, units(mid), compose), compose),
                       associator(j, units(mid), h, compose))
        rhs = hcompose(right_unitor(j, units(mid), compose), identity_cell(h),
                       compose)
        if lhs != rhs:
            return False, count
        count += 1
        if count >= max_configs:
            break
    return True, count


def check_pentagon(max_configs=8):
    compose = memo_compose()
    units = remembering(unit_prof)
    functors = remembering_by_name(all_functors)
    companions = remembering_by_name(companion)
    conjoints = remembering_by_name(conjoint)
    one = zoo.terminal_category()
    two = zoo.walking_arrow()
    three = zoo.composable_pair()
    pp = zoo.parallel_pair()
    chains = []
    for f in functors(two, three)[:2]:
        for g in functors(one, three)[:2]:
            for h in functors(one, pp)[:2]:
                chains.append((units(two), companions(f),
                               conjoints(g), companions(h)))
    count = 0
    for j, h, k, l in chains:
        kl, _ = compose(k, l)
        jh, _ = compose(j, h)
        hk, _ = compose(h, k)
        lhs = vcompose(associator(j, h, kl, compose),
                       associator(jh, k, l, compose))
        rhs = vcompose(hcompose(identity_cell(j), associator(h, k, l, compose),
                                compose),
                       vcompose(associator(j, hk, l, compose),
                                hcompose(associator(j, h, k, compose),
                                         identity_cell(l), compose)))
        if lhs != rhs:
            return False, count
        count += 1
        if count >= max_configs:
            break
    return True, count


def check_companion_identities(max_configs=30):
    compose = memo_compose()
    units = remembering(unit_prof)
    one = zoo.terminal_category()
    two = zoo.walking_arrow()
    three = zoo.composable_pair()
    pp = zoo.parallel_pair()
    functors = (all_functors(two, three)[:5] + all_functors(one, two) +
                all_functors(pp, two)[:5] + [identity_functor(three)])
    count = 0
    for f in functors:
        ua, uc = units(f.source), units(f.target)
        eps, eta = companion_cells(f, ua, uc)
        if vcompose(eps, eta) != unit_cell(f, ua, uc):
            return False, count
        fs = eps.hsrc       # the companion f_*
        if vcompose(right_unitor(fs, uc, compose), hcompose(eta, eps, compose)) \
                != left_unitor(fs, ua, compose):
            return False, count
        ceps, ceta = conjoint_cells(f, ua, uc)
        if vcompose(ceps, ceta) != unit_cell(f, ua, uc):
            return False, count
        cs = ceps.hsrc      # the conjoint f^*
        if vcompose(left_unitor(cs, uc, compose), hcompose(ceps, ceta, compose)) \
                != right_unitor(cs, ua, compose):
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
