"""Tabulations of profunctors, comma objects, and the comma-category style
characterization of pointwise right extensions.

The tabulation of J : A -/-> B is the category of triples (a, x, b) with
x in J(a, b); a morphism (u, v) between triples is a pair of boundary
morphisms whose two ways of moving the element across agree.  Its
defining cell sends (u, v) to that common diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import (Cone, Functor, all_cones, all_functors, comma_category,
                     compose_functors, identity_functor, make_category,
                     mediating_morphisms)
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


def triple_id(a, x, b):
    return f"({a},{x},{b})"


def tabulate(j):
    ac, bc = j.source, j.target
    triples = [(a, x, b) for a in ac.objects for b in bc.objects
               for x in j.fiber(a, b)]
    oid = {t: triple_id(*t) for t in triples}
    arrows = {}
    data = {}
    for t1 in triples:
        a1, x1, b1 = t1
        for t2 in triples:
            a2, x2, b2 = t2
            for u in ac.hom(a1, a2):
                for v in bc.hom(b1, b2):
                    if j.act_right(a1, b1, x1, v) != j.act_left(u, a2, b2, x2):
                        continue
                    if ac.is_identity(u) and bc.is_identity(v) and t1 == t2:
                        continue
                    mid = f"[{u},{v}]:{oid[t1]}->{oid[t2]}"
                    arrows[mid] = (oid[t1], oid[t2])
                    data[mid] = (u, v, t1, t2)
    stub = make_category(f"<{j.name}>", [oid[t] for t in triples], arrows)
    composites = {}
    for m2, m1 in stub.composable_pairs():
        if m2 not in data or m1 not in data:
            continue  # composites with identities are implicit
        u1, v1, s1, _ = data[m1]
        u2, v2, _, t2 = data[m2]
        u = ac.compose(u2, u1)
        v = bc.compose(v2, v1)
        if ac.is_identity(u) and bc.is_identity(v) and s1 == t2:
            composites[(m2, m1)] = stub.identity(oid[s1])
        else:
            composites[(m2, m1)] = f"[{u},{v}]:{oid[s1]}->{oid[t2]}"
    cat = make_category(f"<{j.name}>", [oid[t] for t in triples],
                        arrows, composites)
    pl_obj = {oid[t]: t[0] for t in triples}
    pr_obj = {oid[t]: t[2] for t in triples}
    pl_mor, pr_mor = {}, {}
    for m in cat.morphisms:
        if cat.is_identity(m):
            o = cat.src[m]
            pl_mor[m] = ac.identity(pl_obj[o])
            pr_mor[m] = bc.identity(pr_obj[o])
        else:
            u, v, _, _ = data[m]
            pl_mor[m] = u
            pr_mor[m] = v
    proj_left = Functor(f"pl<{j.name}>", cat, ac, pl_obj, pl_mor)
    proj_right = Functor(f"pr<{j.name}>", cat, bc, pr_obj, pr_mor)
    ut = unit_prof(cat)
    by_oid = {oid[t]: t for t in triples}
    comp = {}
    for o1, o2, m in ut.elements():
        if cat.is_identity(m):
            comp[(o1, o2, m)] = by_oid[o1][1]
        else:
            u, v, (a1, x1, b1), _ = data[m]
            comp[(o1, o2, m)] = j.act_right(a1, b1, x1, v)
    cell = Cell(f"pi<{j.name}>", ut, j, proj_left, proj_right, comp)
    return Tabulation(j, cat, proj_left, proj_right, cell)


def default_probes():
    return [zoo.terminal_category(), zoo.walking_arrow(), zoo.parallel_pair()]


def _factorizations(t, x_cat, phi_a, phi_b, phi):
    """Functors F : X -> <J> projecting to (phi_a, phi_b) and recovering
    phi by whiskering the defining cell."""
    out = []
    for f in all_functors(x_cat, t.category):
        if compose_functors(t.proj_left, f) != phi_a:
            continue
        if compose_functors(t.proj_right, f) != phi_b:
            continue
        if vcompose(t.cell, unit_cell(f)) == phi:
            out.append(f)
    return out


def verify_tabulation(t, probes=None):
    """Check both universal properties over a probe set of small
    categories; returns (ok, report) where the report counts the checked
    configurations."""
    if probes is None:
        probes = default_probes()
    j = t.j
    ac, bc = j.source, j.target
    checked_1d = 0
    factored = {}
    for x_cat in probes:
        ux = unit_prof(x_cat)
        plan = naturality_plan(ux)
        for phi_a in all_functors(x_cat, ac):
            for phi_b in all_functors(x_cat, bc):
                for phi in cells_between(ux, j, phi_a, phi_b, plan):
                    found = _factorizations(t, x_cat, phi_a, phi_b, phi)
                    if len(found) != 1:
                        return False, {"stage": "one-dimensional",
                                       "probe": x_cat.name,
                                       "count": len(found)}
                    factored[(id(x_cat), phi_a, phi_b, phi)] = found[0]
                    checked_1d += 1

    checked_2d = 0
    for x_cat in probes:
        ux = unit_prof(x_cat)
        plan = naturality_plan(ux)
        pairs = [(k[1], k[2], k[3], v) for k, v in factored.items()
                 if k[0] == id(x_cat)]
        ua, ub = unit_prof(ac), unit_prof(bc)
        ut = unit_prof(t.category)
        for (phi_a, phi_b, phi, fac1) in pairs:
            for (psi_a, psi_b, psi, fac2) in pairs:
                for xi_a in cells_between(ux, ua, phi_a, psi_a, plan):
                    for xi_b in cells_between(ux, ub, phi_b, psi_b, plan):
                        if not _two_dim_compatible(j, x_cat, phi_a, phi_b, phi,
                                                   psi_a, psi_b, psi,
                                                   xi_a, xi_b):
                            continue
                        hits = [xi for xi in cells_between(ux, ut, fac1, fac2,
                                                           plan)
                                if vcompose(unit_cell(t.proj_left), xi) == xi_a
                                and vcompose(unit_cell(t.proj_right), xi) == xi_b]
                        if len(hits) != 1:
                            return False, {"stage": "two-dimensional",
                                           "probe": x_cat.name,
                                           "count": len(hits)}
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
        cones = all_cones(diagram)
        if any(len(mediating_morphisms(cone, c)) != 1 for c in cones):
            return False
    return True
