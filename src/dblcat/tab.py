"""Tabulations of profunctors, comma objects, and the comma-category style
characterization of pointwise right extensions.

The tabulation of J : A -/-> B is the category of triples (a, x, b) with
x in J(a, b); a morphism (u, v) between triples is a pair of boundary
morphisms whose two ways of moving the element across agree.  Its
defining cell sends (u, v) to that common diagonal.

``verify_tabulation`` is a decision (``fincat.decision``), so it builds
each unit profunctor and search once.  It files each functor X -> <J> and
each lift once (``fincat.filed``), so that a configuration counts its
factorizations with one lookup; ``verify_tabulation_oracle`` in
``tests/helpers.py`` scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (Cone, Functor, all_cones, all_functors,
                     category_of_elements, comma_category, compose_functors,
                     decision, filed, is_terminal)
from .prof import (Cell, Profunctor, cartesian_cell, cells_between,
                   is_opcartesian, restrict, unit_cell, unit_prof, vcompose)
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


@decision
def verify_tabulation(t, probes=None):
    """Check both universal properties over a probe set of small
    categories; returns (ok, report) where the report counts the checked
    configurations.  Each functor F : X -> <J> is filed once, under the
    defining cell whiskered by F, whose sides are F's two projections;
    each lift xi : 1_X -> 1_<J> once, under the images of its components
    by both projections, as every lift over (F1, F2) has the same sides."""
    if probes is None:
        probes = zoo.tabulation_probes()
    j = t.j
    ac, bc = j.source, j.target
    ut = unit_prof(t.category)
    checked_1d = 0
    factored = []       # per probe, its configurations and factorizations
    for x_cat in probes:
        ux = unit_prof(x_cat)
        into_t = filed(all_functors(x_cat, t.category),
                       lambda f: vcompose(t.cell, unit_cell(f)))
        factored.append([])
        for phi_a in all_functors(x_cat, ac):
            for phi_b in all_functors(x_cat, bc):
                for phi in cells_between(ux, j, phi_a, phi_b):
                    found = into_t.get(phi, ())
                    if len(found) != 1:
                        return False, {"stage": "one-dimensional",
                                       "probe": x_cat.name,
                                       "count": len(found)}
                    factored[-1].append((phi_a, phi_b, phi, found[0]))
                    checked_1d += 1

    checked_2d = 0
    ua, ub = unit_prof(ac), unit_prof(bc)
    pl, pr = t.proj_left.mor.get, t.proj_right.mor.get
    for x_cat, configs in zip(probes, factored):
        ux = unit_prof(x_cat)
        for (phi_a, phi_b, phi, fac1) in configs:
            for (psi_a, psi_b, psi, fac2) in configs:
                squares = [
                    (xi_a, xi_b)
                    for xi_a in cells_between(ux, ua, phi_a, psi_a)
                    for xi_b in cells_between(ux, ub, phi_b, psi_b)
                    if _two_dim_compatible(j, x_cat, phi_a, phi_b, phi,
                                           psi_a, psi_b, psi, xi_a, xi_b)]
                lifts = filed(cells_between(ux, ut, fac1, fac2)
                              if squares else (),
                              lambda xi: (tuple(map(pl, xi.key)),
                                          tuple(map(pr, xi.key))))
                for xi_a, xi_b in squares:
                    hits = len(lifts.get((xi_a.key, xi_b.key), ()))
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
