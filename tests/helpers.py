"""Shared fixtures and independent check constructions for the test suite."""

import dataclasses
import itertools
import os
import random
import unittest.mock
from functools import cache

from dblcat.fincat import (CommaCategory, Cone, FinCategory, Functor,
                           NatTransf, NoLimit, all_functors, compose_functors,
                           filed, identity_functor, make_category)
from dblcat.prof import (Cell, Profunctor, cells_between, companion,
                         compose_prof, conjoint, family_slots, restrict,
                         unit_cell, unit_prof, validate_cell, vcompose)
from dblcat import dsl, kan, spanfin, tab, zoo
from dblcat.tab import Tabulation

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "arrows.dcat")


def empty_category():
    return make_category("Zero", (), {})


def span_shape():
    """Three objects with arrows 1 <- 0 -> 2 (a limit-shaped index)."""
    return make_category("Span", ("0", "1", "2"),
                         {"l": ("0", "1"), "r": ("0", "2")})


def cospan_shape():
    """Three objects with arrows 0 -> 2 <- 1 (pullback-shaped index)."""
    return make_category("Cospan", ("0", "1", "2"),
                         {"l": ("0", "2"), "r": ("1", "2")})


def corpus_categories():
    """The categories the enumerative test corpora range over."""
    return [zoo.terminal_category(), zoo.walking_arrow(), zoo.parallel_pair(),
            zoo.composable_pair(), zoo.discrete(2), zoo.iso_pair()]


def corpus_functors(cats=None, limit_per_pair=None):
    """All functors between corpus categories, optionally truncated
    per (source, target) pair."""
    cats = cats or corpus_categories()
    out = []
    for a in cats:
        for m in cats:
            fs = all_functors(a, m)
            if limit_per_pair is not None:
                fs = fs[:limit_per_pair]
            out.extend(fs)
    return out


def count_builds(monkeypatch, construction):
    """The argument tuples of every build of ``construction`` from now on,
    in a list that grows as it builds: memo hits are not builds."""
    built, build = [], construction.__wrapped__

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(construction, "__wrapped__", counted)
    return built


def change_results(monkeypatch, hits, change):
    """Replace each search ``hits`` names by ``(module, name)`` with one
    that returns ``change(out)`` in place of a nonempty result ``out``
    whose arguments pass the named predicate."""
    for (module, name), hit in hits.items():
        def changed(*args, real=getattr(module, name), hit=hit):
            out = real(*args)
            return change(out) if out and hit(*args) else out

        monkeypatch.setattr(module, name, changed)


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


def validate_profunctor(p):
    """Exhaustively check the fiber/action axioms: each side is total,
    lands in its fiber and is functorial (identities act trivially), and
    the two sides commute."""
    problems = []
    ac, bc = p.source, p.target
    left, right = p.left, p.right
    for (a, b) in p.fibers:
        if a not in ac.objects or b not in bc.objects:
            problems.append(f"fiber at ({a}, {b}) outside the boundary categories")
    for a, b, j in p.elements():
        for u in ac.into(a):
            out = left.get((u, a, b, j))
            if out is None:
                problems.append(f"left action missing on ({u}, {j})")
            elif out not in p.fiber(ac.src[u], b):
                problems.append(f"left action on ({u}, {j}) lands outside its fiber")
        for v in bc.out_of(b):
            out = right.get((a, b, j, v))
            if out is None:
                problems.append(f"right action missing on ({j}, {v})")
            elif out not in p.fiber(a, bc.tgt[v]):
                problems.append(f"right action on ({j}, {v}) lands outside its fiber")
        if left.get((ac.identity(a), a, b, j)) != j or \
                right.get((a, b, j, bc.identity(b))) != j:
            problems.append(f"identity action moves {j}")
    if problems:
        return problems
    for a, b, j in p.elements():
        for u1 in ac.into(a):
            a1, mid = ac.src[u1], left[(u1, a, b, j)]
            for u2 in ac.into(a1):
                if left[(u2, a1, b, mid)] != left[(ac.compose(u1, u2), a, b, j)]:
                    problems.append(
                        f"left action not functorial on ({u2};{u1}, {j})")
        for v1 in bc.out_of(b):
            b1, mid = bc.tgt[v1], right[(a, b, j, v1)]
            for v2 in bc.out_of(b1):
                if right[(a, b1, mid, v2)] != right[(a, b, j, bc.compose(v2, v1))]:
                    problems.append(
                        f"right action not functorial on ({j}, {v1};{v2})")
        for u in ac.into(a):
            a1, ju = ac.src[u], left[(u, a, b, j)]
            for v in bc.out_of(b):
                jv = right[(a, b, j, v)]
                if right[(a1, b, ju, v)] != left[(u, a, bc.tgt[v], jv)]:
                    problems.append(f"actions do not commute on ({u}, {j}, {v})")
    return problems


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


def empty_prof(source, target):
    """The profunctor with every fiber empty."""
    return Profunctor(f"0_{source.name}_{target.name}", source, target,
                      {}, {}, {})


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


def restrict_eager(k, f, g):
    """``prof.restrict`` for every K as it was before representables were
    restricted to representables: both tables copied from K's entry by
    entry, by fiber, element, then acting morphism."""
    ac, bc = f.source, g.source
    fibers = {(a, b): fib for a in ac.objects for b in bc.objects
              if (fib := k.fiber(f.obj[a], g.obj[b]))}
    left, right = {}, {}
    for (a, b), elems in fibers.items():
        fa, gb = f.obj[a], g.obj[b]
        for x in elems:
            for u in ac.into(a):
                left[(u, a, b, x)] = k.left[(f.mor[u], fa, gb, x)]
            for v in bc.out_of(b):
                right[(a, b, x, v)] = k.right[(fa, gb, x, g.mor[v])]
    return Profunctor(f"{k.name}({f.name},{g.name})", ac, bc, fibers,
                      left, right)


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


def rhom_action_oracle(k, h, rh):
    """The two-sided action of the right hom rh = K <| H: each family, the
    tuple of its images along ``family_slots``, whiskered by u and v at
    once."""
    ac, bc = rh.source, rh.target
    action = {}
    for (a, b), elems in rh.fibers.items():
        for fam in elems:
            at = dict(zip(family_slots(h, b), fam))
            for u in ac.into(a):
                for v in bc.out_of(b):
                    b2 = bc.tgt[v]
                    action[(u, a, b, fam, v)] = tuple(
                        k.act_left(u, a, e, at[(e, h.act_left(v, b2, e, x))])
                        for e, x in family_slots(h, b2))
    return action


def internal_profunctor_corpus():
    """The bridged profunctor corpus plus the unit internal profunctor of
    every corpus category."""
    return ([spanfin.prof_bridge(p) for p in profunctor_corpus()] +
            [spanfin.unit_internal_prof(c) for c in corpus_categories()])


# ---------------------------------------------------------------------------
# the axioms of internal profunctors and transformations, and the span-level
# composite, the twin of prof.compose_prof: it reads nothing from
# dblcat.prof, down to its union-find (test_spanfin checks this with ast)


def validate_internal_profunctor(p):
    """The problems of ``p``, checked in stages: endpoints, then the typing
    of both actions, then the unit, associativity and commutation laws,
    which read the actions and so run only on a well-typed ``p``."""
    a, b = p.source, p.target
    ends = {j: (p.d0.get(j), p.d1.get(j)) for j in p.het}
    problems = [f"endpoints of {j} missing" for j, (s, t) in ends.items()
                if s not in a.objects or t not in b.objects]
    if problems:
        return problems
    # each action is defined on the composable pairs only, into the fiber
    # of the moved element
    lefts = {(x, j): (a.src[x], t) for j, (s, t) in ends.items()
             for x in a.into(s)}
    rights = {(j, y): (s, b.tgt[y]) for j, (s, t) in ends.items()
              for y in b.out_of(t)}
    for side, action, typed in (("left", p.l, lefts), ("right", p.r, rights)):
        for k in dict.fromkeys([*typed, *action]):
            if k not in typed or k not in action:
                problems.append(f"{side} action wrong on ({k[0]}, {k[1]})")
            elif ends.get(action[k]) != typed[k]:
                problems.append(f"{side} action ill-typed on ({k[0]}, {k[1]})")
    if problems:
        return problems
    for j, (s, t) in ends.items():
        if p.l[(a.identities[s], j)] != j or p.r[(j, b.identities[t])] != j:
            problems.append(f"unit actions fail at {j}")
        for x2 in a.into(s):
            for x1 in a.into(a.src[x2]):
                if p.l[(x1, p.l[(x2, j)])] != p.l[(a.table[(x2, x1)], j)]:
                    problems.append(f"left action not associative on ({x1}, {x2}, {j})")
        for y1 in b.out_of(t):
            for y2 in b.out_of(b.tgt[y1]):
                if p.r[(p.r[(j, y1)], y2)] != p.r[(j, b.table[(y2, y1)])]:
                    problems.append(f"right action not associative on ({j}, {y1}, {y2})")
        for x in a.into(s):
            for y in b.out_of(t):
                if p.r[(p.l[(x, j)], y)] != p.l[(x, p.r[(j, y)])]:
                    problems.append(f"actions do not commute on ({x}, {j}, {y})")
    return problems


def validate_internal_transformation(t):
    problems = []
    j, k, f, g = t.hsrc, t.htgt, t.vsrc, t.vtgt
    for x in j.het:
        tx = t.map.get(x)
        if tx not in k.het:
            problems.append(f"{x} not mapped into the target")
        elif k.d0[tx] != f.obj[j.d0[x]] or k.d1[tx] != g.obj[j.d1[x]]:
            problems.append(f"image of {x} ill-typed")
    if problems:
        return problems
    for (u, x), v in j.l.items():
        if t.map[v] != k.l[(f.mor[u], t.map[x])]:
            problems.append(f"left naturality fails on ({u}, {x})")
    for (x, w), v in j.r.items():
        if t.map[v] != k.r[(t.map[x], g.mor[w])]:
            problems.append(f"right naturality fails on ({x}, {w})")
    return problems


class UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def coequalizer(xs, p, q, ys):
    """The coequalizer of p, q : X -> Y: the quotient of Y identifying
    p(x) with q(x).  Blocks are filed in Y order, so the first member of
    each block, its representative, is its least."""
    uf = UnionFind()
    for y in ys:
        uf.add(y)
    for x in xs:
        uf.union(p[x], q[x])
    blocks = filed(ys, uf.find).values()
    proj = {y: block[0] for block in blocks for y in block}
    return tuple(block[0] for block in blocks), proj


def internal_prof_compose(j, h):
    """Composite of internal profunctors by pullback-then-coequalizer:
    composable pairs modulo sliding middle arrows across."""
    if j.target != h.source:
        raise ValueError("internal profunctors not composable")
    b = j.target
    pairs, p1, p2 = spanfin.pullback(j.het, j.d1, h.het, h.d0)
    # each (x, y, z) identifies the pair (x . y, z) with (x, y . z)
    h_over = filed(h.het, h.d0.get)
    slides = [(x, y, z) for x in j.het for y in b.out_of(j.d1[x])
              for z in h_over.get(b.tgt[y], ())]
    het, proj = coequalizer(
        slides, {s: f"({j.r[s[:2]]},{s[2]})" for s in slides},
        {s: f"({s[0]},{h.l[s[1:]]})" for s in slides}, pairs)
    d0 = {e: j.d0[p1[e]] for e in het}
    d1 = {e: h.d1[p2[e]] for e in het}
    l = {(u, e): proj[f"({j.l[(u, p1[e])]},{p2[e]})"] for e in het
         for u in j.source.into(d0[e])}
    r = {(e, v): proj[f"({p1[e]},{h.r[(p2[e], v)]})"] for e in het
         for v in h.target.out_of(d1[e])}
    return spanfin.InternalProfunctor(
        f"({j.name}*{h.name})", j.source, h.target, het, d0, d1, l, r), proj


# ---------------------------------------------------------------------------
# slow twins of the span-level tabulation and its verifier


def pullback_oracle(xs, f, ys, g):
    """spanfin.pullback as it was before it filed the ys: every pair of
    X x Y, kept when the images agree."""
    apex, p1, p2 = [], {}, {}
    for x, y in itertools.product(xs, ys):
        if f[x] == g[y]:
            e = f"({x},{y})"
            apex.append(e)
            p1[e], p2[e] = x, y
    return tuple(apex), p1, p2


def internal_tabulate_oracle(j):
    """spanfin.internal_tabulate as it was before it took its arrows from
    the pullback: the whole product of the right-action pairs (x, y) with
    the left-action pairs (u, x2), kept when x . y == u . x2, and every
    composable pair of arrows composed by scanning all pairs."""
    a, b = j.source, j.target
    racts = [(x, y) for x in j.het for y in b.morphisms if b.src[y] == j.d1[x]]
    lacts = [(u, x) for u in a.morphisms for x in j.het if a.tgt[u] == j.d0[x]]
    parts = {f"(({x1},{y}),({u},{x2}))": (x1, y, u, x2)
             for (x1, y), (u, x2) in itertools.product(racts, lacts)
             if j.r[(x1, y)] == j.l[(u, x2)]}
    arrs = tuple(parts)
    e = {x: f"(({x},{b.identities[j.d1[x]]}),({a.identities[j.d0[x]]},{x}))"
         for x in j.het}
    table = {}
    for w2, w1 in itertools.product(arrs, repeat=2):
        if parts[w1][3] == parts[w2][0]:
            x1, y1, u1, _ = parts[w1]
            _, y2, u2, x2 = parts[w2]
            table[(w2, w1)] = \
                f"(({x1},{b.table[(y2, y1)]}),({a.table[(u2, u1)]},{x2}))"
    cat = FinCategory(f"<{j.name}>", tuple(j.het), arrs,
                      {w: parts[w][0] for w in arrs},
                      {w: parts[w][3] for w in arrs}, e, {})
    cat.table.update(table)
    pl = Functor(f"pl<{j.name}>", cat, a, {x: j.d0[x] for x in j.het},
                 {w: parts[w][2] for w in arrs})
    pr = Functor(f"pr<{j.name}>", cat, b, {x: j.d1[x] for x in j.het},
                 {w: parts[w][1] for w in arrs})
    cell = spanfin.InternalTransformation(
        f"pi<{j.name}>", spanfin.unit_internal_prof(cat), j, pl, pr,
        {w: j.r[parts[w][:2]] for w in arrs})
    return spanfin.InternalTabulation(j, cat, pl, pr, cell)


def internal_tabulation_tables(t):
    """An internal tabulation's category, projections and defining
    transformation as lists of items, so that comparing two compares
    order as well."""
    return (category_tables(t.category), projection_tables(t.proj_left),
            projection_tables(t.proj_right), t.cell.name,
            list(t.cell.map.items()))


def internal_transformations_oracle(j, k, f, g):
    """Every transformation J -> K over (f, g) by validating the whole
    product of k.het over j.het, in product order."""
    out = []
    for pick in itertools.product(k.het, repeat=len(j.het)):
        cand = spanfin.InternalTransformation(f"t{len(out)}", j, k, f, g,
                                              dict(zip(j.het, pick)))
        if not validate_internal_transformation(cand):
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
                        t, phi_a, phi_b, spanfin.transf_object_part(phi))
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
    pairs.  Its vertical 2-cells are cells between unit profunctors, where
    the verifier's are natural transformations, so the two share no
    two-dimensional search.  It searches through ``tab.all_functors`` and
    ``tab.cells_between``: a test that replaces ``tab.all_functors``
    reaches both, and one that changes the lifts replaces
    ``tab.cells_between`` here and ``tab.all_natural_transformations``
    there."""
    j = t.j
    ac, bc = j.source, j.target
    functors = cache(lambda a, m: tab.all_functors(a, m))
    cells = cache(lambda *args: tab.cells_between(*args))
    units = cache(unit_prof)
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

    @cache
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
                        if not two_dim_compatible(
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


def two_dim_compatible(j, x_cat, phi_a, phi_b, phi, psi_a, psi_b, psi,
                       xi_a, xi_b):
    """The square compatibility that ``tab.verify_tabulation`` finds by a
    join over the probe's objects, checked square by square at every
    arrow of the probe: moving an element of the probe across xi_a then
    psi agrees with phi then xi_b."""
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
    """The fibers of ``rhom(k, h)`` by testing every tuple of maps
    H(b, e) -> K(a, e), one per e, in itertools.product order; each family
    is the images of the map at e, for e in E's object order, joined."""
    ac, bc, ec = k.source, h.source, k.target

    def natural(a, b, fam):
        return all(fam[ec.tgt[w]][h.act_right(b, e, x, w)] ==
                   k.act_right(a, e, fam[e][x], w)
                   for e in ec.objects for w in ec.out_of(e)
                   for x in h.fiber(b, e))

    fibers = {}
    for a in ac.objects:
        for b in bc.objects:
            per_e = [list(itertools.product(k.fiber(a, e),
                                            repeat=len(h.fiber(b, e))))
                     for e in ec.objects]
            found = []
            for combo in itertools.product(*per_e):
                fam = {e: dict(zip(h.fiber(b, e), images))
                       for e, images in zip(ec.objects, combo)}
                if natural(a, b, fam):
                    found.append(tuple(itertools.chain(*combo)))
            if found:
                fibers[(a, b)] = tuple(found)
    return fibers


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


# is_ran by the competitor search alone, without the pointwise test that
# kan.is_ran tries first: the twin of its every yes
is_ran_by_search = kan._is_ran_by_search


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


def unindexed(cat):
    """Whether none of cat's indexes (hom, into, out_of) is built yet."""
    return not any(attr in vars(cat) for attr in ("_hom", "_into", "_out_of"))


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
    Every action is read through ``act_left``/``act_right`` once per pair.
    It returns the composite and, per boundary, each pair's least pair,
    the pairs listed in naming order."""
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
            least_of = {}
            kf = key(a, e)
            for members in reps.values():
                least = min(members, key=kf)
                for p in members:
                    least_of[p] = least
            classes[(a, e)] = {p: least_of[p] for p in pairs}
            fiber = sorted(set(least_of.values()), key=kf)
            if fiber:
                fibers[(a, e)] = tuple(fiber)
    action = compose_action_oracle(j, h, fibers, classes)
    composite = Profunctor(f"({j.name}*{h.name})", ac, ec, fibers,
                           *sides_of(ac, ec, fibers, action))
    return composite, classes


def compose_action_oracle(j, h, fibers, classes):
    """The two-sided action of J * H as compose_prof built it before its
    one-sided tables: one entry per class, u and w, the class of
    (x . u, w . y)."""
    ac, ec = j.source, h.target
    action = {}
    for (a, e), elems in fibers.items():
        for cid in elems:
            b, x, y = cid
            for u in ac.into(a):
                a2 = ac.src[u]
                xu = j.act_left(u, a, b, x)
                for w in ec.out_of(e):
                    e2 = ec.tgt[w]
                    yw = h.act_right(b, e, y, w)
                    action[(u, a, e, cid, w)] = classes[(a2, e2)][(b, xu, yw)]
    return action


def composite_tables(composite, classes):
    """Name, fibers, left and right actions and classes of a composite as
    nested lists of items, so that comparing two of them compares
    insertion order as well as values."""
    return (composite.name, list(composite.fibers.items()),
            list(composite.left.items()), list(composite.right.items()),
            [(k, list(v.items())) for k, v in classes.items()])


def composable_pairs(limit=40):
    pairs = []
    corpus = profunctor_corpus()
    for j, h in itertools.product(corpus, repeat=2):
        if j.target == h.source:
            pairs.append((j, h))
        if len(pairs) >= limit:
            break
    return pairs


def composable_triples(limit=40):
    """Triples (J, H, K) of the corpus, J * H and H * K composable, and
    one of restrictions, whose composites take the union-find."""
    corpus = profunctor_corpus()
    triples = [(j, h, k) for j, h, k in itertools.product(corpus, repeat=3)
               if j.target == h.source and h.target == k.source][:limit]
    three = zoo.composable_pair()
    r = restrict(unit_prof(three), identity_functor(three),
                 identity_functor(three))
    return triples + [(r, r, r), (unit_prof(three), r, unit_prof(three))]


def hcompose_oracle(left, right):
    """prof.hcompose as it was before it read its target's classes once
    per fiber: one lookup of the boundary's classes per element of J*H."""
    if left.vtgt != right.vsrc:
        raise ValueError("cells do not share their middle boundary")
    jh, _ = compose_prof(left.hsrc, right.hsrc)
    kl, kl_classes = compose_prof(left.htgt, right.htgt)
    f, g, h = left.vsrc, left.vtgt, right.vtgt
    comp = {}
    for a, e, pair in jh.elements():
        b, x, y = pair
        comp[(a, e, pair)] = kl_classes[(f.obj[a], h.obj[e])][
            (g.obj[b], left.comp[(a, b, x)], right.comp[(b, e, y)])]
    return Cell(f"({left.name}|{right.name})", jh, kl, f, h, comp)


def associator_oracle(j, h, k):
    """prof.associator as it was before it read the classes of J*(H*K)
    once per fiber."""
    jh, _ = compose_prof(j, h)
    jh_k, _ = compose_prof(jh, k)
    hk, hk_classes = compose_prof(h, k)
    j_hk, j_hk_classes = compose_prof(j, hk)
    comp = {}
    for a, z, pair in jh_k.elements():
        e, (b, x, y), y2 = pair     # x in J(a, b), y in H(b, e), y2 in K(e, z)
        inner = hk_classes[(b, z)][(e, y, y2)]    # (y, y2)'s class in (H*K)(b, z)
        comp[(a, z, pair)] = j_hk_classes[(a, z)][(b, x, inner)]
    return Cell(f"assoc_{j.name}_{h.name}_{k.name}", jh_k, j_hk,
                identity_functor(j.source), identity_functor(k.target), comp)


def unitor_oracle(p, side):
    """prof.left_unitor ("left") or prof.right_unitor ("right") as they
    were before they read P's tables directly: each component through
    ``act_left`` or ``act_right``."""
    if side == "left":
        up, _ = compose_prof(unit_prof(p.source), p)
        comp = {(a, b, (mid, u, x)): p.act_left(u, mid, b, x)
                for a, b, (mid, u, x) in up.elements()}
        name = f"lu_{p.name}"
    else:
        up, _ = compose_prof(p, unit_prof(p.target))
        comp = {(a, b, (mid, x, v)): p.act_right(a, mid, x, v)
                for a, b, (mid, x, v) in up.elements()}
        name = f"ru_{p.name}"
    return Cell(name, up, p, identity_functor(p.source),
                identity_functor(p.target), comp)


def restriction_iso_cell(k, f, g):
    """The comparison cell f_* * (K * g^*) -> K(f, g).

    It sends the class of (p : f a -> c, x in K(c, d), q : d -> g b) to
    the two-sided action of p and q on x; the restriction being the
    three-fold composite amounts to this cell being a componentwise
    bijection.
    """
    inner, _ = compose_prof(k, conjoint(g))
    triple, _ = compose_prof(companion(f), inner)
    r = restrict(k, f, g)
    comp = {}
    for a, b, pair in triple.elements():
        c, p, (d, x, q) = pair
        comp[(a, b, pair)] = k.act(p, c, d, x, q)
    return Cell(f"rcomp_{k.name}", triple, r,
                identity_functor(f.source), identity_functor(g.source), comp)


def rhom_transpose(phi, jh_classes, rh_prof, j, h):
    """Carry a cell J * H -> K across the adjunction to J -> K <| H: x
    goes to the family of the images of the classes of (x, y), y in
    H(b, e), for e in E's object order; ``jh_classes`` are J * H's, as
    ``compose_prof`` gives them."""
    ec = phi.htgt.target
    comp = {(a, b, x): tuple(phi.comp[(a, e, jh_classes[(a, e)][(b, x, y)])]
                             for e in ec.objects for y in h.fiber(b, e))
            for a, b, x in j.elements()}
    return Cell(f"tr_{phi.name}", j, rh_prof,
                identity_functor(j.source), identity_functor(j.target), comp)


def rhom_untranspose(psi, jh, h, k):
    """The inverse passage, J -> K <| H back to the cell J * H -> K out of
    the composite ``jh``: the class of (x, y) goes to the image of y in
    the family of x."""
    comp = {}
    for a, e, pair in jh.elements():
        b, x, y = pair
        fam = dict(zip(family_slots(h, b), psi.comp[(a, b, x)]))
        comp[(a, e, pair)] = fam[(e, y)]
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


def table_keys(cat):
    """The keys of a composition table in the order ``make_category``
    fills them: the unit entries along ``morphisms``, then the other
    composable pairs in ``composable_pairs`` order."""
    keys = {}
    for m in cat.morphisms:
        keys[(m, cat.identity(cat.src[m]))] = None
        keys[(cat.identity(cat.tgt[m]), m)] = None
    for gf in cat.composable_pairs():
        keys.setdefault(gf)
    return list(keys)


def elements_table_oracle(cat, proj, oid, j, a):
    """The composition table of ``elements_category_oracle(j, a)`` renamed
    to the ids of ``kan.elements_category(j, a)``, which returned ``cat``,
    ``proj`` and ``oid``: an arrow is fixed by its endpoints and its
    projection."""
    cat0, proj0, oid0 = elements_category_oracle(j, a)
    ren = {oid0[k]: oid[k] for k in oid0}
    by_key = {(cat.src[m], cat.tgt[m], proj.mor[m]): m for m in cat.morphisms}
    mren = {m: by_key[(ren[cat0.src[m]], ren[cat0.tgt[m]], proj0.mor[m])]
            for m in cat0.morphisms}
    return {(mren[g], mren[f]): mren[h] for (g, f), h in cat0.table.items()}


def projection_tables(p):
    """A functor's target and maps as lists of items."""
    return p.target, list(p.obj.items()), list(p.mor.items())


def tokenize(text):
    """The tokens of ``text`` as (kind, text, line, col), kind "name",
    "sym" or "eof", the end of input last, read from the token texts the
    parser scans (``dsl._scan``) and their positions (``dsl._offsets``)."""
    return [("eof" if not t else "sym" if t in dsl.SYMBOLS else "name", t,
             *dsl._line_col(text, offset))
            for t, offset in zip(dsl._scan(text), dsl._offsets(text))]


def tokenize_oracle(text):
    """``tokenize`` as it tried every entry of ``dsl.SYMBOLS`` in list
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


def validate_category_oracle(cat):
    """fincat.validate_category as it was before it read the composable
    pairs from the index: every pair of morphisms is checked."""
    problems = []
    table = cat.table
    for o in cat.objects:
        i = cat.identities.get(o)
        if i is None:
            problems.append(f"object {o} has no identity")
        elif cat.src.get(i) != o or cat.tgt.get(i) != o:
            problems.append(f"identity of {o} is not an endomorphism")
    for m in cat.morphisms:
        if cat.src.get(m) not in cat.objects or cat.tgt.get(m) not in cat.objects:
            problems.append(f"morphism {m} has endpoints outside the category")
    for g in cat.morphisms:
        for f in cat.morphisms:
            defined = (g, f) in table
            composable = cat.tgt.get(f) == cat.src.get(g)
            if composable and not defined:
                problems.append(f"composite {g} . {f} missing")
            elif defined and not composable:
                problems.append(f"composite {g} . {f} defined but not composable")
            elif defined:
                h = table[(g, f)]
                if h not in cat.morphisms:
                    problems.append(f"composite {g} . {f} = {h} unknown")
                elif cat.src[h] != cat.src[f] or cat.tgt[h] != cat.tgt[g]:
                    problems.append(f"composite {g} . {f} = {h} ill-typed")
    for f in cat.morphisms:
        if cat.src.get(f) in cat.identities:
            i = cat.identities[cat.src[f]]
            if table.get((f, i)) != f:
                problems.append(f"right unit law fails for {f}")
        if cat.tgt.get(f) in cat.identities:
            i = cat.identities[cat.tgt[f]]
            if table.get((i, f)) != f:
                problems.append(f"left unit law fails for {f}")
    for h in cat.morphisms:
        for g in cat.into(cat.src.get(h)):
            for f in cat.into(cat.src.get(g)):
                try:
                    left = table[(table[(h, g)], f)]
                    right = table[(h, table[(g, f)])]
                except KeyError:
                    continue
                if left != right:
                    problems.append(f"associativity fails on ({h}, {g}, {f})")
    return problems


def closed_actions(text, complete):
    """The closed action table of each profunctor of ``text``, in text
    order, as ``complete``, a function with the signature of
    dsl.Parser._complete_action, closes it."""
    tables = []

    def recorded(parser, *args):
        tables.append(complete(parser, *args))
        return tables[-1]

    with unittest.mock.patch.object(dsl.Parser, "_complete_action", recorded):
        dsl.parse(text)
    return tables


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
