"""Shared fixtures and independent check constructions for the test suite."""

import dataclasses
import itertools
import os
import random

from dblcat.fincat import (CommaCategory, Cone, Functor, NatTransf, NoLimit,
                           all_functors, compose_functors, identity_functor,
                           make_category, remembering)
from dblcat.prof import (Cell, CoendWitness, Profunctor, UnionFind,
                         cells_between, companion, compose_prof, conjoint,
                         family_id, pair_id, restrict, rhom,
                         unit_cell, unit_prof, validate_cell, vcompose)
from dblcat import dsl, kan, spanfin, tab, zoo
from dblcat.tab import Tabulation

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "arrows.dcat")


def count_builds(monkeypatch, construction):
    """The argument tuples of every build of ``construction`` from now on,
    in a list that grows as it builds: memo hits are not builds."""
    built, build = [], construction.__wrapped__

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(construction, "__wrapped__", counted)
    return built


def profunctor_corpus(unit=unit_prof, comp=companion, conj=conjoint):
    """Small named profunctors with varied shapes.  Given other builders
    of units, companions and conjoints (such as the two-sided oracles
    below), the same list as those builders make it."""
    one, two, three = (zoo.terminal_category(), zoo.walking_arrow(),
                       zoo.composable_pair())
    pp = zoo.parallel_pair()
    out = [unit(two), unit(pp), unit(three)]
    out += [comp(f) for f in all_functors(two, three)]
    out += [conj(f) for f in all_functors(one, three)]
    out += [comp(f) for f in all_functors(pp, two)]
    out += [conj(f) for f in all_functors(two, two)]
    return out


# ---------------------------------------------------------------------------
# two-sided actions: the builders as they were before profunctors stored
# one-sided tables, each returning (fibers, action) with action keyed
# (u, a, b, j, v)


def two_sided(p):
    """``p.act`` on every composable triple (u, j, v), keyed as the old
    builders key it."""
    ac, bc = p.source, p.target
    return {(u, a, b, j, v): p.act(u, a, b, j, v) for a, b, j in p.elements()
            for u in ac.into(a) for v in bc.out_of(b)}


def sides_of(ac, bc, fibers, action):
    """The left and right actions read off a two-sided table, listed by
    fiber, element, then acting morphism."""
    left, right = {}, {}
    for (a, b), elems in fibers.items():
        for j in elems:
            for u in ac.into(a):
                left[(u, a, b, j)] = action[(u, a, b, j, bc.identity(b))]
            for v in bc.out_of(b):
                right[(a, b, j, v)] = action[(ac.identity(a), a, b, j, v)]
    return left, right


def unit_prof_oracle(cat):
    fibers = {(a, b): cat.hom(a, b) for a in cat.objects for b in cat.objects
              if cat.hom(a, b)}
    action = {}
    for (a, b), elems in fibers.items():
        for j in elems:
            for u in cat.into(a):
                ju = cat.compose(j, u)
                for v in cat.out_of(b):
                    action[(u, a, b, j, v)] = cat.compose(v, ju)
    return fibers, action


def companion_oracle(f):
    ac, cc = f.source, f.target
    fibers = {(a, c): cc.hom(f.obj[a], c) for a in ac.objects
              for c in cc.objects if cc.hom(f.obj[a], c)}
    action = {}
    for (a, c), elems in fibers.items():
        for j in elems:
            for u in ac.into(a):
                ju = cc.compose(j, f.mor[u])
                for v in cc.out_of(c):
                    action[(u, a, c, j, v)] = cc.compose(v, ju)
    return fibers, action


def conjoint_oracle(f):
    ac, cc = f.source, f.target
    fibers = {(c, a): cc.hom(c, f.obj[a]) for c in cc.objects
              for a in ac.objects if cc.hom(c, f.obj[a])}
    action = {}
    for (c, a), elems in fibers.items():
        for j in elems:
            for u in cc.into(c):
                ju = cc.compose(j, u)
                for v in ac.out_of(a):
                    action[(u, c, a, j, v)] = cc.compose(f.mor[v], ju)
    return fibers, action


# ---------------------------------------------------------------------------
# representable profunctors with eager tables: unit_prof, companion and
# conjoint as they were before they built each table on its first read


def unit_prof_eager(cat):
    fibers = {(a, b): hom for a in cat.objects for b in cat.objects
              if (hom := cat.hom(a, b))}
    table = cat.table     # every pair below is composable by construction
    left, right = {}, {}
    for (a, b), elems in fibers.items():
        into_a, out_b = cat.into(a), cat.out_of(b)
        for j in elems:
            for u in into_a:
                left[(u, a, b, j)] = table[(j, u)]
            for v in out_b:
                right[(a, b, j, v)] = table[(v, j)]
    return Profunctor(f"1_{cat.name}", cat, cat, fibers, left, right)


def companion_eager(f):
    ac, cc = f.source, f.target
    fibers = {(a, c): hom for a in ac.objects for c in cc.objects
              if (hom := cc.hom(f.obj[a], c))}
    left, right = {}, {}
    for (a, c), elems in fibers.items():
        for j in elems:
            for u in ac.into(a):
                left[(u, a, c, j)] = cc.compose(j, f.mor[u])
            for v in cc.out_of(c):
                right[(a, c, j, v)] = cc.compose(v, j)
    return Profunctor(f"{f.name}_*", ac, cc, fibers, left, right)


def conjoint_eager(f):
    ac, cc = f.source, f.target
    fibers = {(c, a): hom for c in cc.objects for a in ac.objects
              if (hom := cc.hom(c, f.obj[a]))}
    left, right = {}, {}
    for (c, a), elems in fibers.items():
        for j in elems:
            for u in cc.into(c):
                left[(u, c, a, j)] = cc.compose(j, u)
            for v in ac.out_of(a):
                right[(c, a, j, v)] = cc.compose(f.mor[v], j)
    return Profunctor(f"{f.name}^*", cc, ac, fibers, left, right)


def profunctor_tables(p):
    """A profunctor's name, boundary, fibers and both action tables, the
    dicts as lists of items, so that comparing two of them compares order
    as well."""
    return (p.name, p.source, p.target, list(p.fibers.items()),
            list(p.left.items()), list(p.right.items()))


def restrict_oracle(k, f, g):
    ac, bc = f.source, g.source
    fibers = {(a, b): k.fiber(f.obj[a], g.obj[b]) for a in ac.objects
              for b in bc.objects if k.fiber(f.obj[a], g.obj[b])}
    action = {}
    for (a, b), elems in fibers.items():
        for x in elems:
            for u in ac.into(a):
                for v in bc.out_of(b):
                    action[(u, a, b, x, v)] = k.act(
                        f.mor[u], f.obj[a], g.obj[b], x, g.mor[v])
    return fibers, action


def rhom_action_oracle(k, h, witness):
    """The two-sided action of K <| H: each family whiskered by u and v
    at once."""
    p = witness.profunctor
    ac, bc, ec = p.source, p.target, k.target
    action = {}
    for (a, b), elems in p.fibers.items():
        for fid in elems:
            fam = witness.family(a, b, fid)
            for u in ac.into(a):
                for v in bc.out_of(b):
                    b2 = bc.tgt[v]
                    new = {}
                    for e in ec.objects:
                        new[e] = {}
                        for x in h.fiber(b2, e):
                            pulled = h.act_left(v, b2, e, x)
                            new[e][x] = k.act_left(u, a, e, fam[e][pulled])
                    action[(u, a, b, fid, v)] = family_id(ec.objects, new)
    return action


def internal_profunctor_corpus():
    """The bridged profunctor corpus plus the unit internal profunctor of
    every corpus category."""
    return ([spanfin.prof_bridge(p) for p in profunctor_corpus()] +
            [spanfin.unit_internal_prof(c) for c in zoo.corpus_categories()])


def internal_transformations_oracle(j, k, f, g):
    """Every transformation J -> K over (f, g) by validating the whole
    product of k.het over j.het, in product order."""
    out = []
    for pick in itertools.product(k.het, repeat=len(j.het)):
        cand = spanfin.InternalTransformation(f"t{len(out)}", j, k, f, g,
                                              dict(zip(j.het, pick)))
        if not spanfin.validate_internal_transformation(cand):
            out.append(cand)
    return out


def verify_internal_tabulation_oracle(t, probes):
    """verify_internal_tabulation as it was before it filed its
    candidates: every configuration scans every functor into T, every lift
    and every cell out of J, and composes and whiskers afresh for each."""
    j, a, b = t.j, t.j.source, t.j.target
    unit = spanfin.unit_internal_prof
    ua, ub, ut = unit(a), unit(b), unit(t.category)
    checked = {"one_dimensional": 0, "two_dimensional": 0, "opcartesian": 0}

    def whiskered(p, xi):
        return {x: p.mor[xi.map[x]] for x in xi.hsrc.het}

    factored = {}
    for x in probes:
        ux = unit(x)
        for phi_a in spanfin.all_internal_functors(x, a):
            for phi_b in spanfin.all_internal_functors(x, b):
                for phi in spanfin.all_internal_transformations(
                        ux, j, phi_a, phi_b):
                    hits = [f for f in spanfin.all_internal_functors(
                                x, t.category)
                            if compose_functors(t.proj_left, f) == phi_a
                            and compose_functors(t.proj_right, f) == phi_b
                            and {m: t.cell.map[f.mor[m]]
                                 for m in x.morphisms} == phi.map]
                    if len(hits) != 1:
                        return False, {"stage": "one-dimensional",
                                       "probe": x.name, "count": len(hits)}
                    explicit = spanfin.factor_through_tabulation(
                        t, phi_a, phi_b, phi)
                    if (explicit.obj, explicit.mor) != \
                            (hits[0].obj, hits[0].mor):
                        return False, {"stage": "one-dimensional",
                                       "probe": x.name,
                                       "reason": "explicit section differs"}
                    factored.setdefault(id(x), []).append(
                        (phi_a, phi_b, phi, hits[0]))
                    checked["one_dimensional"] += 1
    for x in probes:
        ux = unit(x)
        for phi_a, phi_b, phi, fac1 in factored.get(id(x), []):
            phi0 = spanfin.transf_object_part(phi)
            for psi_a, psi_b, psi, fac2 in factored[id(x)]:
                psi0 = spanfin.transf_object_part(psi)
                for xi_a in spanfin.all_internal_transformations(
                        ux, ua, phi_a, psi_a):
                    for xi_b in spanfin.all_internal_transformations(
                            ux, ub, phi_b, psi_b):
                        if any(j.l[(xi_a.map[h], psi0[x.tgt[h]])] !=
                               j.r[(phi0[x.src[h]], xi_b.map[h])]
                               for h in x.morphisms):
                            continue
                        hits = [xi for xi in spanfin.all_internal_transformations(
                                    ux, ut, fac1, fac2)
                                if whiskered(t.proj_left, xi) == xi_a.map
                                and whiskered(t.proj_right, xi) == xi_b.map]
                        if len(hits) != 1:
                            return False, {"stage": "two-dimensional",
                                           "probe": x.name,
                                           "count": len(hits)}
                        checked["two_dimensional"] += 1
    for c in probes:
        k = unit(c)
        for f in spanfin.all_internal_functors(a, c):
            for g in spanfin.all_internal_functors(b, c):
                fa = compose_functors(f, t.proj_left)
                gb = compose_functors(g, t.proj_right)
                for chi in spanfin.all_internal_transformations(ut, k, fa, gb):
                    hits = [cp for cp in spanfin.all_internal_transformations(
                                j, k, f, g)
                            if all(cp.map[t.cell.map[w]] == chi.map[w]
                                   for w in t.category.morphisms)]
                    if len(hits) != 1:
                        return False, {"stage": "opcartesian",
                                       "probe": c.name, "count": len(hits)}
                    if any(hits[0].map[x] != chi.map[t.category.identities[x]]
                           for x in j.het):
                        return False, {"stage": "opcartesian",
                                       "probe": c.name,
                                       "reason": "object-part formula differs"}
                    checked["opcartesian"] += 1
    return True, checked


def verify_tabulation_oracle(t, probes):
    """tab.verify_tabulation as it was before it filed its candidates:
    every configuration scans every functor into <J>, composing and
    whiskering each afresh, and counts its lifts in a list of whiskered
    pairs.  It searches through ``tab.all_functors`` and
    ``tab.cells_between``, so a test that replaces either reaches both."""
    j = t.j
    ac, bc = j.source, j.target
    functors = remembering(lambda a, m: tab.all_functors(a, m))
    cells = remembering(lambda *args: tab.cells_between(*args))
    units = remembering(unit_prof)
    ut = units(t.category)

    def factorizations(candidates, phi_a, phi_b, phi, ux):
        return [f for f in candidates
                if compose_functors(t.proj_left, f) == phi_a
                and compose_functors(t.proj_right, f) == phi_b
                and vcompose(t.cell, unit_cell(f)) == phi]

    checked_1d = 0
    factored = {}
    for x_cat in probes:
        ux = units(x_cat)
        for phi_a in functors(x_cat, ac):
            for phi_b in functors(x_cat, bc):
                for phi in cells(ux, j, phi_a, phi_b):
                    found = factorizations(functors(x_cat, t.category),
                                           phi_a, phi_b, phi, ux)
                    if len(found) != 1:
                        return False, {"stage": "one-dimensional",
                                       "probe": x_cat.name,
                                       "count": len(found)}
                    factored[(id(x_cat), phi_a, phi_b, phi)] = found[0]
                    checked_1d += 1

    checked_2d = 0
    ua, ub = units(ac), units(bc)
    whisker_left = unit_cell(t.proj_left)
    whisker_right = unit_cell(t.proj_right)

    @remembering
    def whiskered(ux, fac1, fac2):
        return [(vcompose(whisker_left, xi), vcompose(whisker_right, xi))
                for xi in cells(ux, ut, fac1, fac2)]

    for x_cat in probes:
        ux = units(x_cat)
        pairs = [(k[1], k[2], k[3], v) for k, v in factored.items()
                 if k[0] == id(x_cat)]
        for (phi_a, phi_b, phi, fac1) in pairs:
            for (psi_a, psi_b, psi, fac2) in pairs:
                for xi_a in cells(ux, ua, phi_a, psi_a):
                    for xi_b in cells(ux, ub, phi_b, psi_b):
                        if not tab._two_dim_compatible(
                                j, x_cat, phi_a, phi_b, phi, psi_a, psi_b,
                                psi, xi_a, xi_b):
                            continue
                        hits = whiskered(ux, fac1, fac2).count((xi_a, xi_b))
                        if hits != 1:
                            return False, {"stage": "two-dimensional",
                                           "probe": x_cat.name,
                                           "count": hits}
                        checked_2d += 1
    return True, {"one_dimensional": checked_1d, "two_dimensional": checked_2d}


def reversed_copy(x, *fields):
    """``x`` with each named dict field rebuilt in reversed insertion
    order: equal to ``x``, but listing its items the other way round."""
    return dataclasses.replace(x, **{f: dict(reversed(getattr(x, f).items()))
                                     for f in fields})


def hash_disagreements(objects):
    """The pairs of ``objects`` that compare equal but hash apart, and the
    number of pairs, at two distinct positions, that compare equal."""
    bad, equal = [], 0
    for x, y in itertools.combinations(objects, 2):
        if x == y:
            equal += 1
            if hash(x) != hash(y):
                bad.append((x, y))
    return bad, equal


def all_functors_oracle(a, m):
    """all_functors by validating every object map and, for each, every
    choice of arrow images in itertools.product order.  A choice that
    breaks a composite of two non-identity arrows, read from m's table, is
    passed over before it is built; that is one of the laws ``validate``
    checks, so the list is the same, but a product of millions of choices
    (G23 -> G23) takes seconds instead of minutes."""
    nonids = [x for x in a.morphisms if not a.is_identity(x)]
    arrows = [a.identity(o) for o in a.objects] + nonids
    pos = {x: n for n, x in enumerate(arrows)}
    composites = [(pos[g], pos[f], pos[a.table[(g, f)]]) for g in nonids
                  for f in nonids if a.tgt[f] == a.src[g]]
    out = []
    for objs in itertools.product(m.objects, repeat=len(a.objects)):
        obj_map = dict(zip(a.objects, objs))
        units = tuple(m.identity(v) for v in objs)
        choices = [m.hom(obj_map[a.src[x]], obj_map[a.tgt[x]]) for x in nonids]
        for mors in itertools.product(*choices):
            images = units + mors
            if any(m.table[(images[g], images[f])] != images[h]
                   for g, f, h in composites):
                continue
            cand = Functor(f"F{len(out)}", a, m, obj_map,
                           dict(zip(arrows, images)))
            if not cand.validate():
                out.append(cand)
    return out


def functor_count_oracle(a, m):
    """Independent backtracking count of functors a -> m, testing every
    composable pair only once all arrows are bound."""
    nonids = [x for x in a.morphisms if not a.is_identity(x)]

    def extend_arrows(obj_map, picked, k):
        if k == len(nonids):
            mor_map = {a.identity(o): m.identity(obj_map[o]) for o in a.objects}
            mor_map.update(picked)
            for g, f in a.composable_pairs():
                if mor_map[a.table[(g, f)]] != m.table[(mor_map[g], mor_map[f])]:
                    return 0
            return 1
        x = nonids[k]
        total = 0
        for img in m.hom(obj_map[a.src[x]], obj_map[a.tgt[x]]):
            picked[x] = img
            total += extend_arrows(obj_map, picked, k + 1)
            del picked[x]
        return total

    total = 0
    for objs in itertools.product(m.objects, repeat=len(a.objects)):
        total += extend_arrows(dict(zip(a.objects, objs)), {}, 0)
    return total


def cells_between_oracle(j, k, f, g):
    """cells_between by validating every choice of components in
    itertools.product order."""
    elems = j.elements()
    choices = [k.fiber(f.obj[a], g.obj[b]) for a, b, _ in elems]
    out = []
    for pick in itertools.product(*choices):
        cand = Cell(f"c{len(out)}", j, k, f, g,
                    {key: val for key, val in zip(elems, pick)})
        if not validate_cell(cand):
            out.append(cand)
    return out


def all_natural_transformations_oracle(f, g):
    """all_natural_transformations by validating every choice of
    components in itertools.product order."""
    cat, dst = f.source, f.target
    choices = [dst.hom(f.obj[a], g.obj[a]) for a in cat.objects]
    out = []
    for comps in itertools.product(*choices):
        cand = NatTransf(f, g, dict(zip(cat.objects, comps)))
        if not cand.validate():
            out.append(cand)
    return out


def all_cones_oracle(diagram):
    """all_cones by validating every choice of legs in itertools.product
    order, apex by apex."""
    shape, dst = diagram.source, diagram.target
    cones = []
    for m in dst.objects:
        choices = [dst.hom(m, diagram.obj[i]) for i in shape.objects]
        for legs in itertools.product(*choices):
            cone = Cone(diagram, m, dict(zip(shape.objects, legs)))
            if not cone.validate():
                cones.append(cone)
    return cones


def mediator_count(terminal, cone):
    """How many morphisms apex(cone) -> apex(terminal) commute with every
    leg, counted over the whole hom-set."""
    dst = terminal.diagram.target
    return sum(1 for t in dst.hom(cone.apex, terminal.apex)
               if all(dst.compose(terminal.legs[i], t) == cone.legs[i]
                      for i in terminal.diagram.source.objects))


def limit_oracle(diagram):
    """limit as the first cone of all_cones_oracle that every cone factors
    through exactly once, each count taken over the whole hom-set."""
    cones = all_cones_oracle(diagram)
    for cand in cones:
        if all(mediator_count(cand, c) == 1 for c in cones):
            return cand
    raise NoLimit(f"no limit of {diagram.name}")


def cone_tables(cones):
    """Apex and legs of each cone as lists of items."""
    return [(c.apex, list(c.legs.items())) for c in cones]


def rhom_families_oracle(k, h):
    """The fibers and families of ``rhom(k, h)`` by testing every tuple of
    maps H(b, e) -> K(a, e), one per e, in itertools.product order."""
    ac, bc, ec = k.source, h.source, k.target

    def natural(a, b, fam):
        return all(fam[ec.tgt[w]][h.act_right(b, e, x, w)] ==
                   k.act_right(a, e, fam[e][x], w)
                   for e in ec.objects for w in ec.out_of(e)
                   for x in h.fiber(b, e))

    fibers, families = {}, {}
    for a in ac.objects:
        for b in bc.objects:
            per_e = []
            for e in ec.objects:
                dom, cod = h.fiber(b, e), k.fiber(a, e)
                per_e.append([dict(zip(dom, pick)) for pick in
                              itertools.product(cod, repeat=len(dom))])
            found = {}
            for combo in itertools.product(*per_e):
                fam = dict(zip(ec.objects, combo))
                if natural(a, b, fam):
                    found[family_id(ec.objects, fam)] = fam
            if found:
                fibers[(a, b)] = tuple(sorted(found))
                families[(a, b)] = {fid: found[fid] for fid in sorted(found)}
    return fibers, families


def find_isomorphism_oracle(a, b):
    """find_isomorphism as it was before its search was shared: object
    bijections by recursion, refined by hom-set counts, then every tuple of
    non-identity arrow images in itertools.product order, tested for
    injectivity and functoriality both ways."""
    if len(a.objects) != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return None

    def profile(cat, o):
        outs = sorted(len(cat.hom(o, x)) for x in cat.objects)
        ins = sorted(len(cat.hom(x, o)) for x in cat.objects)
        return (tuple(outs), tuple(ins))

    prof_b = {o: profile(b, o) for o in b.objects}
    nonids = [x for x in a.morphisms if not a.is_identity(x)]

    def try_objects(k, obj_map, used):
        if k == len(a.objects):
            return try_arrows(obj_map)
        o = a.objects[k]
        for o2 in b.objects:
            if o2 in used or prof_b[o2] != profile(a, o):
                continue
            if any(len(a.hom(p, o)) != len(b.hom(obj_map[p], o2)) or
                   len(a.hom(o, p)) != len(b.hom(o2, obj_map[p]))
                   for p in a.objects[:k]):
                continue
            res = try_objects(k + 1, {**obj_map, o: o2}, used | {o2})
            if res:
                return res
        return None

    def try_arrows(obj_map):
        choices = [[y for y in b.hom(obj_map[a.src[x]], obj_map[a.tgt[x]])
                    if not b.is_identity(y)] for x in nonids]
        for mors in itertools.product(*choices):
            if len(set(mors)) != len(mors):
                continue
            mor_map = {a.identity(o): b.identity(obj_map[o]) for o in a.objects}
            mor_map.update(zip(nonids, mors))
            fwd = Functor("iso", a, b, dict(obj_map), mor_map)
            if fwd.validate():
                continue
            bwd = Functor("iso~", b, a, {v: k for k, v in obj_map.items()},
                          {v: k for k, v in mor_map.items()})
            if not bwd.validate():
                return fwd, bwd
        return None

    return try_objects(0, {}, frozenset())


def z2():
    """The group Z/2 as a category: one object and s . s = 1."""
    return make_category("Z2", ("*",), {"s": ("*", "*")},
                         {("s", "s"): "1_*"})


def idempotent_monoid():
    """The monoid {1, e} with e . e = e, as a one-object category."""
    return make_category("Idem", ("*",), {"e": ("*", "*")},
                         {("e", "e"): "e"})


def competitors_oracle(problem):
    """``problem.competitors`` over the slow enumerators: every functor
    s : A -> M with the cells J -> 1_M over (s, d), if it has any."""
    j, d = problem.j, problem.d
    um = unit_prof(d.target)
    found = [(s, cells_between_oracle(j, um, s, d))
             for s in all_functors_oracle(j.source, d.target)]
    return [(s, cells) for s, cells in found if cells]


def g_pq(p, q):
    """The category G_pq: objects 0, 1 and 2, p arrows f<i> : 0 -> 1, q
    arrows g<j> : 1 -> 2 and their p·q composites g<j>f<i> : 0 -> 2, all
    distinct.  Unlike [n], it has hom-sets with more than one arrow."""
    arrows = {f"f{i}": ("0", "1") for i in range(p)}
    arrows.update({f"g{j}": ("1", "2") for j in range(q)})
    arrows.update({f"g{j}f{i}": ("0", "2") for i in range(p) for j in range(q)})
    return make_category(f"G{p}{q}", ("0", "1", "2"), arrows,
                         {(f"g{j}", f"f{i}"): f"g{j}f{i}"
                          for i in range(p) for j in range(q)})


def functor_tables(fs):
    """Name, object map and arrow map of each functor as lists of items,
    so that comparing two lists compares insertion order as well."""
    return [(f.name, list(f.obj.items()), list(f.mor.items())) for f in fs]


def cell_tables(cells):
    """Name and components of each cell as lists of items."""
    return [(c.name, list(c.comp.items())) for c in cells]


def is_ran_oracle(cand):
    """is_ran by comparing every competitor cell with every eps . alpha,
    alpha in Nat(s, r), over the slow enumerators."""
    j, d, r, eps = cand.j, cand.d, cand.r, cand.eps
    ac, mc = j.source, d.target
    um = unit_prof(mc)
    for s in all_functors_oracle(ac, mc):
        alphas = all_natural_transformations_oracle(s, r)
        for phi in cells_between_oracle(j, um, s, d):
            hits = 0
            for alpha in alphas:
                if all(phi.comp[(a, b, x)] ==
                       mc.compose(eps.comp[(a, b, x)], alpha.components[a])
                       for a, b, x in j.elements()):
                    hits += 1
            if hits != 1:
                return False
    return True


def right_exact_oracle(cell, mode, probe_cats):
    """is_right_exact as a loop over every (d, r, eps) of the slow
    enumerators, deciding each candidate afresh: ordinary candidates by
    is_ran_oracle, pointwise ones by kan.is_pointwise_ran."""
    check = kan.is_pointwise_ran if mode == "pointwise" else is_ran_oracle
    f, g = cell.vsrc, cell.vtgt
    j, k = cell.hsrc, cell.htgt
    for mc in probe_cats:
        um = unit_prof(mc)
        for d in all_functors_oracle(g.target, mc):
            for r in all_functors_oracle(f.target, mc):
                for eps in cells_between_oracle(k, um, r, d):
                    if not check(kan.RanCandidate(k, d, r, eps)):
                        continue
                    sub = kan.RanCandidate(j, compose_functors(d, g),
                                           compose_functors(r, f),
                                           vcompose(eps, cell))
                    if not check(sub):
                        return False, {"target": mc.name, "d": d.name,
                                       "r": r.name, "eps": eps.name}
    return True, None



def coend_classes_oracle(j, h, a, e):
    """Independent computation of the quotient at (a, e): the finest
    partition closed under the sliding relation, by naive fixed-point
    refinement instead of union-find."""
    bc = j.target
    pairs = [(b, x, y) for b in bc.objects
             for x in j.fiber(a, b) for y in h.fiber(b, e)]
    blocks = {p: frozenset([p]) for p in pairs}

    def merge(p, q):
        if blocks[p] is blocks[q] or blocks[p] == blocks[q]:
            return False
        new = blocks[p] | blocks[q]
        for r in new:
            blocks[r] = new
        return True

    changed = True
    while changed:
        changed = False
        for v in bc.morphisms:
            b1, b2 = bc.src[v], bc.tgt[v]
            for x in j.fiber(a, b1):
                for y in h.fiber(b2, e):
                    p = (b2, j.act_right(a, b1, x, v), y)
                    q = (b1, x, h.act_left(v, b2, e, y))
                    if merge(p, q):
                        changed = True
    return {frozenset(b) for b in blocks.values()}


def hom_scan(cat, a, b):
    """Morphisms a -> b by scanning every morphism."""
    return tuple(m for m in cat.morphisms
                 if cat.src[m] == a and cat.tgt[m] == b)


def into_scan(cat, b):
    """Morphisms with target b by scanning every morphism."""
    return tuple(m for m in cat.morphisms if cat.tgt[m] == b)


def out_of_scan(cat, a):
    """Morphisms with source a by scanning every morphism."""
    return tuple(m for m in cat.morphisms if cat.src[m] == a)


def composable_pairs_scan(cat):
    """Every composable pair (g, f) by testing all pairs of morphisms."""
    return [(g, f) for g in cat.morphisms for f in cat.morphisms
            if cat.tgt[f] == cat.src[g]]


def indexes_agree_with_scans(cat):
    """Whether hom, into, out_of and composable_pairs of cat give what the
    scans above give, in the same order."""
    return (all(cat.hom(a, b) == hom_scan(cat, a, b)
                for a in cat.objects for b in cat.objects)
            and all(cat.into(o) == into_scan(cat, o) and
                    cat.out_of(o) == out_of_scan(cat, o) for o in cat.objects)
            and cat.composable_pairs() == composable_pairs_scan(cat))


def pair_composites_oracle(cat, proj_left, proj_right):
    """The composites of non-identity arrows of a tabulation or comma
    category, recomputed from every pair of arrows and the projections.

    An arrow named ``[u,v]:s->t`` composes componentwise; a composite of
    identity components on one object is that object's identity.  Entries
    come in the order (g over arrows, then f over arrows)."""
    ac, bc = proj_left.target, proj_right.target
    arrows = [m for m in cat.morphisms if not cat.is_identity(m)]
    out = []
    for g in arrows:
        for f in arrows:
            if cat.tgt[f] != cat.src[g]:
                continue
            u = ac.compose(proj_left.mor[g], proj_left.mor[f])
            v = bc.compose(proj_right.mor[g], proj_right.mor[f])
            s, t = cat.src[f], cat.tgt[g]
            if ac.is_identity(u) and bc.is_identity(v) and s == t:
                out.append(((g, f), cat.identity(s)))
            else:
                out.append(((g, f), f"[{u},{v}]:{s}->{t}"))
    return out


def chain(n, rng=None):
    """The ordinal [n]: objects 0 < 1 < ... < n-1, one arrow a<i>_<j> for
    each i < j.  Given a ``random.Random``, objects and arrows are listed
    in a shuffled order instead."""
    objects = [str(i) for i in range(n)]
    arrows = [(f"a{i}_{j}", (str(i), str(j)))
              for i in range(n) for j in range(i + 1, n)]
    if rng is not None:
        rng.shuffle(objects)
        rng.shuffle(arrows)
    return make_category(
        f"Ord{n}", tuple(objects), dict(arrows),
        {(f"a{j}_{k}", f"a{i}_{j}"): f"a{i}_{k}"
         for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)})


def elements_oracle(p):
    """Profunctor.elements as it was before it kept its tuple: a generator
    over every object pair."""
    for a in p.source.objects:
        for b in p.target.objects:
            for j in p.fiber(a, b):
                yield a, b, j


def compose_prof_oracle(j, h):
    """compose_prof as it was before its position-ordered kernel: a
    tuple-keyed union-find, each class's least member found with ``min``
    over a key of ``tuple.index`` calls, and the fiber sorted by that key.
    Every action is read through ``act_left``/``act_right`` once per pair."""
    if j.target != h.source:
        raise ValueError("profunctors not composable")
    ac, bc, ec = j.source, j.target, h.target

    def key(a, e):
        def k(pair):
            b, x, y = pair
            return (bc.objects.index(b), j.fiber(a, b).index(x),
                    h.fiber(b, e).index(y))
        return k

    classes = {}
    named = {}
    fibers = {}
    for a in ac.objects:
        for e in ec.objects:
            uf = UnionFind()
            pairs = [(b, x, y) for b in bc.objects
                     for x in j.fiber(a, b) for y in h.fiber(b, e)]
            for p in pairs:
                uf.add(p)
            for v in bc.morphisms:
                b1, b2 = bc.src[v], bc.tgt[v]
                for x in j.fiber(a, b1):
                    xv = j.act_right(a, b1, x, v)
                    for y in h.fiber(b2, e):
                        vy = h.act_left(v, b2, e, y)
                        uf.union((b2, xv, y), (b1, x, vy))
            reps = {}
            for p in pairs:
                root = uf.find(p)
                reps.setdefault(root, []).append(p)
            cls = {}
            kf = key(a, e)
            for members in reps.values():
                least = min(members, key=kf)
                for p in members:
                    cls[p] = least
            classes[(a, e)] = cls
            fiber = sorted({least for least in cls.values()}, key=kf)
            named[(a, e)] = {pair_id(*p): p for p in fiber}
            if fiber:
                fibers[(a, e)] = tuple(named[(a, e)])
    action = compose_action_oracle(j, h, fibers, classes, named)
    composite = Profunctor(f"({j.name}*{h.name})", ac, ec, fibers,
                           *sides_of(ac, ec, fibers, action))
    return composite, CoendWitness(j, h, composite, classes, named)


def compose_action_oracle(j, h, fibers, classes, named):
    """The two-sided action of J * H as compose_prof built it before its
    one-sided tables: one entry per class, u and w, the class of
    (x . u, w . y)."""
    ac, ec = j.source, h.target
    action = {}
    for (a, e), elems in fibers.items():
        for cid in elems:
            b, x, y = named[(a, e)][cid]
            for u in ac.into(a):
                a2 = ac.src[u]
                xu = j.act_left(u, a, b, x)
                for w in ec.out_of(e):
                    e2 = ec.tgt[w]
                    yw = h.act_right(b, e, y, w)
                    rep = classes[(a2, e2)][(b, xu, yw)]
                    action[(u, a, e, cid, w)] = pair_id(*rep)
    return action


def composite_tables(composite, witness):
    """Name, fibers, left and right actions, classes and named of a
    composite as nested lists of items, so that comparing two of them
    compares insertion order as well as values."""
    return (composite.name, list(composite.fibers.items()),
            list(composite.left.items()), list(composite.right.items()),
            [(k, list(v.items())) for k, v in witness.classes.items()],
            [(k, list(v.items())) for k, v in witness.named.items()])


def composable_pairs(limit=40):
    pairs = []
    corpus = profunctor_corpus()
    for j, h in itertools.product(corpus, repeat=2):
        if j.target == h.source:
            pairs.append((j, h))
        if len(pairs) >= limit:
            break
    return pairs


def restriction_iso_cell(k, f, g):
    """The comparison cell f_* * (K * g^*) -> K(f, g).

    It sends the class of (p : f a -> c, x in K(c, d), q : d -> g b) to
    the two-sided action of p and q on x; the restriction being the
    three-fold composite amounts to this cell being a componentwise
    bijection.
    """
    inner, w_inner = compose_prof(k, conjoint(g))
    triple, w_outer = compose_prof(companion(f), inner)
    r = restrict(k, f, g)
    comp = {}
    for a, b, cid in triple.elements():
        c, p, mid = w_outer.least(a, b, cid)
        d, x, q = w_inner.least(c, b, mid)
        comp[(a, b, cid)] = k.act(p, c, d, x, q)
    return Cell(f"rcomp_{k.name}", triple, r,
                identity_functor(f.source), identity_functor(g.source), comp)


def rhom_transpose(phi, w_jh, rh_prof, j):
    """Carry a cell J * H -> K across the adjunction to J -> K <| H."""
    h, k = w_jh.right, phi.htgt
    ec = k.target
    comp = {}
    for a, b, x in j.elements():
        fam = {}
        for e in ec.objects:
            fam[e] = {y: phi.comp[(a, e, w_jh.class_id(a, e, b, x, y))]
                      for y in h.fiber(b, e)}
        comp[(a, b, x)] = family_id(ec.objects, fam)
    return Cell(f"tr_{phi.name}", j, rh_prof,
                identity_functor(j.source), identity_functor(j.target), comp)


def rhom_untranspose(psi, w_jh, rh_witness, k):
    """The inverse passage, J -> K <| H back to J * H -> K."""
    jh = w_jh.composite
    comp = {}
    for a, e, cid in jh.elements():
        b, x, y = w_jh.least(a, e, cid)
        fam = rh_witness.family(a, b, psi.comp[(a, b, x)])
        comp[(a, e, cid)] = fam[e][y]
    return Cell(f"un_{psi.name}", jh, k,
                identity_functor(jh.source), identity_functor(jh.target), comp)


def adjunction_setups():
    """Triples (J, H, K) with J : A -/-> B, H : B -/-> E, K : A -/-> E."""
    one, two, three = (zoo.terminal_category(), zoo.walking_arrow(),
                       zoo.composable_pair())
    p0, p1 = zoo.pick(two, "0"), zoo.pick(two, "1")
    emb = all_functors(two, three)[2]
    return [
        (companion(p0), unit_prof(two), companion(p0)),
        (companion(p0), unit_prof(two), companion(p1)),
        (companion(p1), conjoint(p0), unit_prof(one)),
        (unit_prof(two), companion(emb), companion(emb)),
    ]


def comma_category_oracle(f, g):
    """comma_category as it was before the shared builder: every pair of
    triples is tried, and the arrows, composites and projections are built
    by their own loops."""
    if f.target != g.target:
        raise ValueError("comma requires a common target")
    ccat, dcat, ecat = f.source, g.source, f.target
    objects = []
    for c in ccat.objects:
        for d in dcat.objects:
            for u in ecat.hom(f.obj[c], g.obj[d]):
                objects.append((c, u, d))
    obj_ids = tuple(f"({c},{u},{d})" for c, u, d in objects)
    by_id = dict(zip(obj_ids, objects))
    arrows = {}
    pair_of = {}
    for oid in obj_ids:
        c, u, d = by_id[oid]
        for oid2 in obj_ids:
            c2, u2, d2 = by_id[oid2]
            for p in ccat.hom(c, c2):
                for q in dcat.hom(d, d2):
                    if ecat.compose(g.mor[q], u) != ecat.compose(u2, f.mor[p]):
                        continue
                    if ccat.is_identity(p) and dcat.is_identity(q) and oid == oid2:
                        continue
                    mid = f"[{p},{q}]:{oid}->{oid2}"
                    arrows[mid] = (oid, oid2)
                    pair_of[mid] = (p, q, oid, oid2)
    composites = {}
    cat_stub = make_category(f"{f.name}/{g.name}", obj_ids, arrows)
    for m2, m1 in cat_stub.composable_pairs():
        if m2 not in pair_of or m1 not in pair_of:
            continue
        p1, q1, s1, _ = pair_of[m1]
        p2, q2, _, t2 = pair_of[m2]
        p = ccat.compose(p2, p1)
        q = dcat.compose(q2, q1)
        if ccat.is_identity(p) and dcat.is_identity(q) and s1 == t2:
            composites[(m2, m1)] = cat_stub.identity(s1)
        else:
            composites[(m2, m1)] = f"[{p},{q}]:{s1}->{t2}"
    cat = make_category(f"{f.name}/{g.name}", obj_ids, arrows, composites)
    proj_l_obj = {oid: by_id[oid][0] for oid in obj_ids}
    proj_r_obj = {oid: by_id[oid][2] for oid in obj_ids}
    proj_l_mor = {}
    proj_r_mor = {}
    for m in cat.morphisms:
        if cat.is_identity(m):
            oid = cat.src[m]
            proj_l_mor[m] = ccat.identity(proj_l_obj[oid])
            proj_r_mor[m] = dcat.identity(proj_r_obj[oid])
        else:
            p, q, _, _ = pair_of[m]
            proj_l_mor[m] = p
            proj_r_mor[m] = q
    proj_l = Functor(f"pl_{cat.name}", cat, ccat, proj_l_obj, proj_l_mor)
    proj_r = Functor(f"pr_{cat.name}", cat, dcat, proj_r_obj, proj_r_mor)
    components = {oid: by_id[oid][1] for oid in obj_ids}
    return CommaCategory(cat, proj_l, proj_r, components)


def elements_category_oracle(j, a):
    """kan.elements_category as it was before the shared builder: objects
    named ``(b,x)``, one arrow ``[v]@(b,x)`` per non-identity v out of b."""
    bc = j.target
    objs = [(b, x) for b in bc.objects for x in j.fiber(a, b)]
    oid = {o: f"({o[0]},{o[1]})" for o in objs}
    arrows = {}
    data = {}
    for (b, x) in objs:
        for v in bc.out_of(b):
            if bc.is_identity(v):
                continue
            b2 = bc.tgt[v]
            x2 = j.act_right(a, b, x, v)
            mid = f"[{v}]@{oid[(b, x)]}"
            arrows[mid] = (oid[(b, x)], oid[(b2, x2)])
            data[mid] = (v, (b, x), (b2, x2))
    stub = make_category(f"el({j.name},{a})", [oid[o] for o in objs], arrows)
    composites = {}
    for m2, m1 in stub.composable_pairs():
        if m2 not in data or m1 not in data:
            continue
        v1, s1, _ = data[m1]
        v2, _, t2 = data[m2]
        v = bc.compose(v2, v1)
        if bc.is_identity(v) and s1 == t2:
            composites[(m2, m1)] = stub.identity(oid[s1])
        else:
            composites[(m2, m1)] = f"[{v}]@{oid[s1]}"
    cat = make_category(f"el({j.name},{a})", [oid[o] for o in objs],
                        arrows, composites)
    proj_obj = {oid[o]: o[0] for o in objs}
    proj_mor = {}
    for m in cat.morphisms:
        if cat.is_identity(m):
            proj_mor[m] = bc.identity(proj_obj[cat.src[m]])
        else:
            proj_mor[m] = data[m][0]
    proj = Functor(f"pr_{cat.name}", cat, bc, proj_obj, proj_mor)
    return cat, proj, oid


def tabulate_oracle(j):
    """tab.tabulate as it was before the shared builder."""
    ac, bc = j.source, j.target
    triples = [(a, x, b) for a in ac.objects for b in bc.objects
               for x in j.fiber(a, b)]
    oid = {t: f"({t[0]},{t[1]},{t[2]})" for t in triples}
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
            continue
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
    ut = unit_prof_eager(cat)
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


def tabulation_corpus(unit=unit_prof, comp=companion, conj=conjoint):
    """The profunctor corpus plus ``unit_prof(chain(n))`` for n = 0..4,
    each chain listed in its own order and in two shuffled orders.  The
    builders are passed on as ``profunctor_corpus`` takes them."""
    rng = random.Random(11)
    chains = [chain(n, r) for n in range(5) for r in (None, rng, rng)]
    return profunctor_corpus(unit, comp, conj) + [unit(c) for c in chains]


def category_tables(cat):
    """A category's name, objects, morphisms and structure maps as lists of
    items, so that comparing two of them compares order as well."""
    return (cat.name, cat.objects, cat.morphisms, list(cat.src.items()),
            list(cat.tgt.items()), list(cat.identities.items()),
            list(cat.table.items()))


def projection_tables(p):
    """A functor's target and maps as lists of items."""
    return p.target, list(p.obj.items()), list(p.mor.items())


def tokenize_oracle(text):
    """dsl.tokenize as it tried every entry of ``dsl.SYMBOLS`` in list
    order at each token start, before testing for a name."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = None
        for sym in dsl.SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched:
            tokens.append(("sym", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c.isalnum() or c in "_'":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise dsl.DslError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def fuzz_inputs(count):
    """``count`` seeded DSL inputs: token soup, random characters and
    one-character edits of the fixture."""
    rng = random.Random(20260824)
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        seed_doc = fh.read()
    vocab = ["category", "functor", "profunctor", "cell", "objects", "arrow",
             "compose", "obj", "arr", "elt", "act", "map", "left", "right",
             "{", "}", ":", ";", ",", "=", ".", "->", "-/->", "=>", "1_x",
             "C", "D", "f", "g", "x", "y", "j", "#", "\n", "  "]
    for _ in range(count):
        style = rng.random()
        if style < 0.55:
            yield " ".join(rng.choice(vocab)
                           for _ in range(rng.randrange(0, 25)))
        elif style < 0.85:
            yield "".join(chr(rng.randrange(1, 0x2ff))
                          for _ in range(rng.randrange(0, 60)))
        else:
            pos = rng.randrange(len(seed_doc))
            edit = rng.random()
            if edit < 0.4:
                yield seed_doc[:pos] + seed_doc[pos + 1:]
            elif edit < 0.8:
                yield seed_doc[:pos] + chr(rng.randrange(32, 127)) + \
                    seed_doc[pos:]
            else:
                yield seed_doc[:pos] + rng.choice(vocab) + seed_doc[pos:]


def complete_action_oracle(parser, src, tgt, fibers, home, entries, name):
    """dsl.Parser._complete_action as it was before its index by element:
    every sweep tests every pair of table entries.  Returns the closed
    table keyed (u, j, v)."""
    table = dict(entries)
    for j, (a, b) in home.items():
        key = (src.identity(a), j, tgt.identity(b))
        if table.get(key, j) != j:
            parser.error(f"profunctor {name[1]!r} states an identity "
                         f"action moving {j!r}", name)
        table[key] = j
    changed = True
    while changed:
        changed = False
        for (u1, j, v1), j2 in list(table.items()):
            for (u2, jj, v2), j3 in list(table.items()):
                if jj != j2:
                    continue
                key = (src.compose(u1, u2), j, tgt.compose(v2, v1))
                if table.get(key) != j3:
                    if key in table:
                        parser.error(
                            f"profunctor {name[1]!r} actions are "
                            f"inconsistent at {key}", name)
                    table[key] = j3
                    changed = True
    return table
