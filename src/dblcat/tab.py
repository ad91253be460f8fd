"""Tabulations of profunctors, comma objects, and the comma-category style
characterization of pointwise right extensions.

The tabulation of J : A -/-> B is the category of triples (a, x, b) with
x in J(a, b); a morphism (u, v) between triples is a pair of boundary
morphisms whose two ways of moving the element across agree.  Its
defining cell sends (u, v) to that common diagonal.

``verify_tabulation`` files each functor X -> <J> and each lift once
(``fincat.filed``), so that a configuration counts its factorizations with
one lookup; ``verify_tabulation_oracle`` in ``tests/helpers.py`` scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (Cone, Functor, all_cones, all_functors,
                     category_of_elements, comma_category, compose_functors,
                     filed, is_terminal, remembering)
from .prof import (Cell, Profunctor, cartesian_cell, cells_between,
                   is_opcartesian, naturality_plan, restrict, unit_cell,
                   unit_prof, vcompose)
from . import zoo


@dataclass(frozen=True, eq=True)
class Tabulation:
    j: Profunctor
    category: object
    proj_left: Functor      # to the source of j
    proj_right: Functor     # to the target of j
    cell: Cell              # 1_<J> -> J over the projections

    def __hash__(self):
        return hash(self.j)


def tabulate(j):
    """The tabulation of J : A -/-> B.  Objects are the triples (a, x, b)
    with x in J(a, b), named ``(a,x,b)`` and listed in ``j.elements()``
    order; arrows are listed as ``category_of_elements`` lists them.  The
    defining cell sends an arrow (u, v) out of (a, x, b) to x . v."""
    triples = [(a, x, b) for a, b, x in j.elements()]
    cat, proj_left, proj_right, triple = category_of_elements(
        f"<{j.name}>", j.source, j.target, triples, j.act_right, j.act_left)
    ut = unit_prof(cat)
    comp = {}
    for o1, o2, m in ut.elements():
        a, x, b = triple[o1]
        comp[(o1, o2, m)] = j.act_right(a, b, x, proj_right.mor[m])
    cell = Cell(f"pi<{j.name}>", ut, j, proj_left, proj_right, comp)
    return Tabulation(j, cat, proj_left, proj_right, cell)


def verify_tabulation(t, probes=None):
    """Check both universal properties over a probe set of small
    categories; returns (ok, report) where the report counts the checked
    configurations.  Each functor F : X -> <J> is filed once, under the
    defining cell whiskered by F, whose sides are F's two projections;
    each lift 1_X -> 1_<J> once, under its whiskers by both projections.
    Within one call each unit profunctor is built once, and each
    ``all_functors`` and ``cells_between`` search runs once per distinct
    tuple of arguments."""
    if probes is None:
        probes = zoo.tabulation_probes()
    j = t.j
    ac, bc = j.source, j.target
    functors = remembering(all_functors)
    cells = remembering(cells_between)
    units = remembering(unit_prof)
    plans = remembering(naturality_plan)
    ut = units(t.category)
    checked_1d = 0
    factored = []       # per probe, its configurations and factorizations
    for x_cat in probes:
        ux = units(x_cat)
        into_t = filed(functors(x_cat, t.category),
                       lambda f: vcompose(t.cell, unit_cell(f, ux, ut)))
        factored.append([])
        for phi_a in functors(x_cat, ac):
            for phi_b in functors(x_cat, bc):
                for phi in cells(ux, j, phi_a, phi_b, plans(ux)):
                    found = into_t.get(phi, ())
                    if len(found) != 1:
                        return False, {"stage": "one-dimensional",
                                       "probe": x_cat.name,
                                       "count": len(found)}
                    factored[-1].append((phi_a, phi_b, phi, found[0]))
                    checked_1d += 1

    checked_2d = 0
    ua, ub = units(ac), units(bc)
    whisker_left = unit_cell(t.proj_left, ut, ua)
    whisker_right = unit_cell(t.proj_right, ut, ub)
    for x_cat, configs in zip(probes, factored):
        ux = units(x_cat)
        plan = plans(ux)
        for (phi_a, phi_b, phi, fac1) in configs:
            for (psi_a, psi_b, psi, fac2) in configs:
                squares = [
                    (xi_a, xi_b)
                    for xi_a in cells(ux, ua, phi_a, psi_a, plan)
                    for xi_b in cells(ux, ub, phi_b, psi_b, plan)
                    if _two_dim_compatible(j, x_cat, phi_a, phi_b, phi,
                                           psi_a, psi_b, psi, xi_a, xi_b)]
                lifts = filed(cells(ux, ut, fac1, fac2, plan)
                              if squares else (),
                              lambda xi: (vcompose(whisker_left, xi),
                                          vcompose(whisker_right, xi)))
                for square in squares:
                    hits = len(lifts.get(square, ()))
                    if hits != 1:
                        return False, {"stage": "two-dimensional",
                                       "probe": x_cat.name,
                                       "count": hits}
                    checked_2d += 1
    return True, {"one_dimensional": checked_1d, "two_dimensional": checked_2d}


def _two_dim_compatible(j, x_cat, phi_a, phi_b, phi, psi_a, psi_b, psi,
                        xi_a, xi_b):
    """The square compatibility: moving an element of the probe across
    xi_a then psi agrees with phi then xi_b."""
    for x in x_cat.objects:
        for y in x_cat.objects:
            for h in x_cat.hom(x, y):
                lhs = j.act_left(xi_a.comp[(x, y, h)],
                                 psi_a.obj[y], psi_b.obj[y],
                                 psi.comp[(y, y, x_cat.identity(y))])
                rhs = j.act_right(phi_a.obj[x], phi_b.obj[x],
                                  phi.comp[(x, x, x_cat.identity(x))],
                                  xi_b.comp[(x, y, h)])
                if lhs != rhs:
                    return False
    return True


def is_opcartesian_tabulation(t):
    """Whether the defining cell of the tabulation is opcartesian."""
    return is_opcartesian(t.cell)


@dataclass(frozen=True, eq=True)
class CommaObject:
    category: object
    proj_left: Functor
    proj_right: Functor
    cell: Cell              # 1_(f/g) -> 1_C over (f . pl, g . pr)

    def __hash__(self):
        return hash(self.category)


def comma_object(f, g):
    """The comma object of f : A -> C and g : B -> C, as the tabulation of
    the restricted hom profunctor pasted onto its cartesian cell."""
    if f.target != g.target:
        raise ValueError("comma object needs a common target")
    uc = unit_prof(f.target)
    j = restrict(uc, f, g)
    t = tabulate(j)
    cell = vcompose(cartesian_cell(uc, f, g), t.cell)
    return CommaObject(t.category, t.proj_left, t.proj_right, cell)


def ran_via_tabulation(cand):
    """Comma-category style pointwise test: paste the candidate onto the
    defining cell of the tabulation of J and demand that, over every object
    probe of A, the induced cone is terminal."""
    j, d, r, eps = cand.j, cand.d, cand.r, cand.eps
    ac, mc = j.source, d.target
    t = tabulate(j)
    nu = vcompose(eps, t.cell)      # 1_<J> -> 1_M over (r . pl, d . pr)
    diagram_f = compose_functors(d, t.proj_right)    # <J> -> M
    for x in ac.objects:
        comma = comma_category(zoo.pick(ac, x), t.proj_left)
        w = comma.category
        diagram = compose_functors(diagram_f, comma.proj_right)
        legs = {}
        for wobj in w.objects:
            tobj = comma.proj_right.obj[wobj]
            kappa = comma.components[wobj]          # x -> pl(tobj) in A
            seed = nu.comp[(tobj, tobj, t.category.identity(tobj))]
            legs[wobj] = mc.compose(seed, r.mor[kappa])
        cone = Cone(diagram, r.obj[x], legs)
        if cone.validate():
            return False
        if not is_terminal(cone, all_cones(diagram)):
            return False
    return True
