"""Tabulations of profunctors, comma objects, and the comma-category style
characterization of pointwise right extensions.

The tabulation of J : A -/-> B is the category of triples (a, x, b) with
x in J(a, b); a morphism (u, v) between triples is a pair of boundary
morphisms whose two ways of moving the element across agree.  Its
defining cell sends (u, v) to that common diagonal.  ``tabulate`` builds
the category and its projections at once and the defining cell's
components on their first read (``fincat.deferred``), and
``comma_object`` pastes that cell unread (``prof.vcompose``), so ``dcat
comma`` and ``dcat tabulate --skip-verify``, which read only the objects
and arrows, never build a cell.

``verify_tabulation`` is a decision (``fincat.decision``), so it builds
each search once.  It files each functor X -> <J> once
(``fincat.filed``), so that a configuration counts its factorizations
with one lookup.  Its two-dimensional stage is ``fincat.lift_counts``,
which ``spanfin.verify_internal_tabulation`` shares: its vertical 2-cells
are natural transformations, so the only profunctors the verifier builds
are its probes' units.  ``verify_tabulation_oracle`` in
``tests/helpers.py`` scans, and takes its 2-cells as cells between units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .fincat import (Cone, Functor, all_cones, all_functors,
                     category_of_elements, comma_category, compose_functors,
                     decision, deferred, filed, is_terminal, lift_counts)
from .prof import (Cell, Profunctor, cartesian_cell, cells_between,
                   is_opcartesian, unit_prof, vcompose)
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
    defining cell sends an arrow (u, v) out of (a, x, b) to x . v.  It is
    made by ``fincat.deferred``, and builds its components on their first
    read (``_defining_components``), so a tabulation read for its category
    and projections, as ``dcat tabulate --skip-verify`` reads it, never
    builds them."""
    triples = [(a, x, b) for a, b, x in j.elements()]
    cat, proj_left, proj_right, triple = category_of_elements(
        f"<{j.name}>", j.source, j.target, triples, j.act_right, j.act_left)
    ut = unit_prof(cat)
    cell = deferred(Cell, partial(_defining_components, j, ut, proj_right,
                                  triple),
                    name=f"pi<{j.name}>", hsrc=ut, htgt=j, vsrc=proj_left,
                    vtgt=proj_right)
    return Tabulation(j, cat, proj_left, proj_right, cell)


def _defining_components(j, ut, proj_right, triple, attr):
    """The components of the defining cell of a tabulation of J, along the
    elements of ``ut``, the unit of its category: an arrow (u, v) out of
    (a, x, b) goes to x . v."""
    pr = proj_right.mor
    comp = {}
    for o1, o2, m in ut.elements():
        a, x, b = triple[o1]
        comp[(o1, o2, m)] = j.act_right(a, b, x, pr[m])
    return comp


@decision
def verify_tabulation(t, probes=None):
    """Check both universal properties over a probe set of small
    categories; returns (ok, report) where the report counts the checked
    configurations.  Each functor F : X -> <J> is filed once, under its two
    projections and the defining cell's components along F, listed as
    ``unit_prof(X).elements()`` lists them.  The two-dimensional stage is
    ``fincat.lift_counts`` on J's actions, keyed by each configuration's
    triple (a, b, x) at each object of X: a cell out of 1_X is fixed by
    its components at identities."""
    if probes is None:
        probes = zoo.tabulation_probes()
    j = t.j
    ac, bc = j.source, j.target
    checked_1d = 0
    factored = []       # per probe, its configurations and factorizations
    for x_cat in probes:
        ux = unit_prof(x_cat)
        into_t = filed(all_functors(x_cat, t.category), lambda f: (
            compose_functors(t.proj_left, f), compose_functors(t.proj_right, f),
            tuple([t.cell.comp[(f.obj[x], f.obj[y], f.mor[m])]
                   for x, y, m in ux.elements()])))
        factored.append([])
        for phi_a in all_functors(x_cat, ac):
            for phi_b in all_functors(x_cat, bc):
                for phi in cells_between(ux, j, phi_a, phi_b):
                    found = into_t.get((phi_a, phi_b, phi.key), ())
                    if len(found) != 1:
                        return False, {"stage": "one-dimensional",
                                       "probe": x_cat.name,
                                       "count": len(found)}
                    # phi at each object of X
                    factored[-1].append((phi_a, phi_b, found[0], {
                        x: (phi_a.obj[x], phi_b.obj[x],
                            phi.comp[(x, x, x_cat.identity(x))])
                        for x in x_cat.objects}))
                    checked_1d += 1

    checked_2d = 0
    for x_cat, configs in zip(probes, factored):
        for hits in lift_counts(configs, j.left, j.right, t.proj_left,
                                t.proj_right):
            if hits != 1:
                return False, {"stage": "two-dimensional",
                               "probe": x_cat.name, "count": hits}
            checked_2d += 1
    return True, {"one_dimensional": checked_1d, "two_dimensional": checked_2d}


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
    the restricted hom profunctor pasted onto its cartesian cell.  The
    tabulation's defining cell is unread, so ``prof.vcompose`` pastes it
    with its components unread too: ``dcat comma``, which reads the comma
    object's category only, never builds them."""
    if f.target != g.target:
        raise ValueError("comma object needs a common target")
    cart = cartesian_cell(unit_prof(f.target), f, g)
    t = tabulate(cart.hsrc)
    cell = vcompose(cart, t.cell)
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
